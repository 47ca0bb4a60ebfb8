"""Replays the acceptance-gate verdict lines after the test run, and
describes a failed comparison of ints too long to print.

Capture swallows per-test output for passing tests, so the acceptance
tests record their one-line verdicts in a module list and a hook writes
them into the terminal summary where they are always visible.
"""

import sys

# residues modulo this prime tell two long ints apart in a few digits
MERSENNE_61 = 2**61 - 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name, module in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance":
            lines = getattr(module, "VERDICTS", None)
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in sorted(lines):
                    terminalreporter.write_line(line)
            return


def pytest_assertrepr_compare(op, left, right):
    """Sizes and residues of two ints, or of the first two that differ in
    two lists or tuples of ints, where str() of any of them raises.

    Past sys.get_int_max_str_digits() (4,300 digits by default) pytest's
    repr of a term reads only "ValueError ... raised in repr()".  The
    limit stays as it is: tests rely on it.
    """
    sequences = all(type(side) in (list, tuple) for side in (left, right))
    values = [*left, *right] if sequences else [left, right]
    if not all(type(value) is int for value in values):
        return None
    try:
        for value in values:
            str(value)
        return None
    except ValueError:
        pass
    lines = [f"{type(left).__name__} {op} {type(right).__name__}, with ints too long for str():"]
    if sequences:
        n = min(len(left), len(right))
        i = next((i for i in range(n) if left[i] != right[i]), n)
        lines.append(f"lengths {len(left)} and {len(right)}, first difference at index {i}")
        if i == n:
            return lines
        left, right = left[i], right[i]
    for side, value in (("left", left), ("right", right)):
        lines.append(f"{side}: {value.bit_length()} bits, {value % MERSENNE_61} mod 2^61 - 1")
    lines.append(f"|left - right|: {abs(left - right).bit_length()} bits")
    return lines

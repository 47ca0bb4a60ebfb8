"""End-to-end command-line tests driven through main(argv)."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys

import pytest

from kbonacci import builders, cli, matrix, sequences
from kbonacci.cli import main
from kbonacci.identities import jsonify


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# term


def test_term_plain(capsys):
    code, out, err = run_cli(capsys, "term", "--k", "2", "--j", "10")
    assert (code, out, err) == (0, "55\n", "")


def test_term_qpow_matches_iter(capsys):
    code, out, _ = run_cli(capsys, "term", "--k", "3", "--j", "6", "--method", "qpow")
    assert (code, out) == (0, "7\n")
    code, out, _ = run_cli(capsys, "term", "--k", "3", "--j", "6", "--method", "iter")
    assert (code, out) == (0, "7\n")


def test_term_negative_index_plain(capsys):
    code, out, _ = run_cli(capsys, "term", "--k", "2", "--j", "-6")
    assert (code, out) == (0, "-8\n")


def test_term_json(capsys):
    code, out, _ = run_cli(capsys, "term", "--k", "2", "--j", "10", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"k": "2", "j": "10", "method": "iter", "value": "55"}


def test_term_csv(capsys):
    code, out, _ = run_cli(capsys, "term", "--k", "2", "--j", "10", "--format", "csv")
    assert code == 0
    assert out == '"k","j","method","value"\n"2","10","iter","55"\n'


def test_term_bad_order_exits_2(capsys):
    code, out, err = run_cli(capsys, "term", "--k", "1", "--j", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_term_qpow_negative_index_exits_2(capsys):
    code, _, err = run_cli(capsys, "term", "--k", "2", "--j", "-1", "--method", "qpow")
    assert code == 2
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# seq


def test_seq_plain_aligned(capsys):
    code, out, _ = run_cli(capsys, "seq", "--k", "2", "--from", "-4", "--to", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    pairs = [tuple(line.split()) for line in lines]
    assert pairs[0] == ("-4", "-3")
    assert pairs[-1] == ("4", "3")
    # right-justified fixed-width columns make every line the same length
    assert len({len(line) for line in lines}) == 1


def test_seq_json(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--k", "3", "--from", "-3", "--to", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data == {
        "k": "3",
        "j_lo": "-3",
        "j_hi": "2",
        "values": ["0", "-1", "1", "0", "0", "1"],
    }


def test_seq_csv(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--k", "2", "--from", "0", "--to", "3", "--format", "csv"
    )
    assert code == 0
    assert parse_csv(out) == [["j", "value"], ["0", "0"], ["1", "1"], ["2", "1"], ["3", "2"]]


def test_seq_inverted_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "seq", "--k", "2", "--from", "5", "--to", "1")
    assert code == 2
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# matrix


def test_matrix_f_plain_parses_back(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--family", "F", "--k", "2", "--r", "1", "--j", "1")
    assert code == 0
    rows = [[int(cell) for cell in line.split()] for line in out.splitlines()]
    assert rows == [[1, 1], [1, 0]]


def test_matrix_f_json(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--k", "3", "--r", "1", "--j", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "dim": 3,
        "entries": [["4", "2", "1"], ["2", "1", "1"], ["1", "1", "0"]],
    }


def test_matrix_csv_header(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--k", "2", "--r", "2", "--j", "1", "--format", "csv"
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["col_1", "col_2", "col_3", "col_4"]
    assert rows[1:] == [
        ["2", "1", "1", "1"],
        ["1", "1", "1", "0"],
        ["1", "1", "1", "0"],
        ["1", "0", "0", "1"],
    ]


def test_matrix_q_family(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--family", "Q", "--k", "2", "--r", "1")
    assert code == 0
    rows = [[int(cell) for cell in line.split()] for line in out.splitlines()]
    assert rows == [[1, 1], [1, 0]]


def test_matrix_lucas_family(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--family", "L", "--r", "1", "--j", "1")
    assert code == 0
    rows = [[int(cell) for cell in line.split()] for line in out.splitlines()]
    assert rows == [[3, 1], [1, 2]]


def test_matrix_usage_errors(capsys):
    for argv in (
        ("matrix", "--family", "L", "--k", "3", "--r", "1", "--j", "1"),
        ("matrix", "--family", "L", "--r", "1"),
        ("matrix", "--family", "Q", "--k", "2", "--r", "1", "--j", "4"),
        ("matrix", "--family", "Q", "--r", "1"),
        ("matrix", "--family", "F", "--r", "1", "--j", "1"),
        ("matrix", "--family", "F", "--k", "2", "--r", "1"),
        ("matrix", "--family", "F", "--k", "2", "--r", "0", "--j", "1"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: "), argv


def test_matrix_dimension_cap_exits_2_without_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("nothing may be built past the dimension cap")

    for name in ("build_higher", "build_lucas", "build_q"):
        monkeypatch.setattr(builders, name, refuse)
    for argv in (
        ("matrix", "--k", "2", "--r", "40", "--j", "1"),
        ("matrix", "--family", "L", "--r", "40", "--j", "1"),
        ("matrix", "--family", "Q", "--k", "2", "--r", "40"),
        ("matrix", "--k", "2", "--r", "1000000000", "--j", "1"),
        ("matrix", "--k", "2", "--r", "11", "--j", "1"),
        ("matrix", "--k", "33", "--r", "2", "--j", "1"),
        ("matrix", "--family", "Q", "--k", str(cli.MATRIX_DIM_CAP + 1), "--r", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: matrix dimension "), argv


def test_matrix_dimension_cap_admits_the_cap(capsys, monkeypatch):
    assert cli.MATRIX_DIM_CAP == 1024
    built = []

    def record(*args):
        built.append(args)
        return matrix.identity(1)

    for name in ("build_higher", "build_lucas", "build_q"):
        monkeypatch.setattr(builders, name, record)
    for argv in (
        ("matrix", "--k", "2", "--r", "10", "--j", "1"),
        ("matrix", "--k", "32", "--r", "2", "--j", "1"),
        ("matrix", "--family", "L", "--r", "10", "--j", "1"),
        ("matrix", "--family", "Q", "--k", "1024", "--r", "1"),
    ):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0, argv
    assert built == [(2, 10, 1), (32, 2, 1), (10, 1), (1024, 1)]


def test_matrix_output_bound_exits_2_without_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("nothing may be built past the output bound")

    for name in ("build_higher", "build_lucas", "build_q"):
        monkeypatch.setattr(builders, name, refuse)
    assert cli.TERM_CAP == 5 * 10**7
    for argv in (
        # 24.8 s and 1.2 GiB of output when it was built
        ("matrix", "--k", "1024", "--r", "1", "--j", "3000"),
        ("matrix", "--k", "10", "--r", "3", "--j", "51"),
        ("matrix", "--k", "10", "--r", "3", "--j", "-51"),
        ("matrix", "--family", "L", "--r", "10", "--j", "48"),
        ("matrix", "--k", "2", "--r", "1", "--j", str(cli.TERM_CAP // 4 + 1)),
        ("matrix", "--k", "2", "--r", "1", "--j", "9" * 4000),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: matrix dimension squared times |--j| exceeds the term cap of {cli.TERM_CAP}\n", argv
    # the dimension cap and the family rules are checked first, as before
    code, _, err = run_cli(capsys, "matrix", "--k", "2", "--r", "11", "--j", "1000000000")
    assert (code, err) == (2, f"error: matrix dimension 2^11 exceeds the cap of {cli.MATRIX_DIM_CAP}\n")
    code, _, err = run_cli(capsys, "matrix", "--family", "L", "--k", "3", "--r", "1", "--j", "1000000000")
    assert (code, err) == (2, "error: family L is order 2 only; omit --k or pass --k 2\n")
    # one past a cap of dim^2 * |j| - 1
    monkeypatch.setattr(cli, "TERM_CAP", 9 * 7 - 1)
    code, _, err = run_cli(capsys, "matrix", "--k", "3", "--r", "1", "--j", "-7")
    assert (code, err) == (2, "error: matrix dimension squared times |--j| exceeds the term cap of 62\n")


def test_matrix_output_bound_admits_the_cap(capsys, monkeypatch):
    built = []

    def record(*args):
        built.append(args)
        return matrix.identity(1)

    for name in ("build_higher", "build_lucas", "build_q"):
        monkeypatch.setattr(builders, name, record)
    argvs = [
        ("matrix", "--k", "10", "--r", "3", "--j", "50"),
        ("matrix", "--k", "10", "--r", "3", "--j", "-50"),
        ("matrix", "--family", "L", "--r", "10", "--j", "47"),
        ("matrix", "--k", "2", "--r", "1", "--j", str(cli.TERM_CAP // 4)),
        ("matrix", "--family", "Q", "--k", "1024", "--r", "1"),
    ]
    for argv in argvs:
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
    monkeypatch.setattr(cli, "TERM_CAP", 9 * 7)
    code, _, err = run_cli(capsys, "matrix", "--k", "3", "--r", "1", "--j", "-7")
    assert (code, err) == (0, "")
    assert built == [(10, 3, 50), (10, 3, -50), (10, 47), (2, 1, 12_500_000), (1024, 1), (3, 1, -7)]


def test_order_cap_exits_2_without_allocating(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("no sequence may be made past the order cap")

    monkeypatch.setattr(sequences, "KbonacciSequence", refuse)
    monkeypatch.setattr(builders, "fast_term", refuse)
    for k in (cli.ORDER_CAP + 1, 10**100):
        for argv in (
            ("term", "--k", str(k), "--j", "5"),
            ("term", "--k", str(k), "--j", "5", "--method", "qpow"),
            ("seq", "--k", str(k), "--from", "0", "--to", "3"),
            ("blocks", "--k", str(k), "--count", "1"),
            ("blocks", "--k", str(k), "--count", "0"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: --k exceeds the order cap of {cli.ORDER_CAP}\n", argv


def test_order_cap_admits_the_cap(capsys, monkeypatch):
    assert cli.ORDER_CAP == 10**7
    monkeypatch.setattr(sequences, "term", lambda k, j: k)
    monkeypatch.setattr(sequences, "term_range", lambda k, lo, hi: [k] * (hi - lo + 1))
    k = str(cli.ORDER_CAP)
    assert run_cli(capsys, "term", "--k", k, "--j", "5") == (0, k + "\n", "")
    code, out, _ = run_cli(capsys, "seq", "--k", k, "--from", "0", "--to", "0", "--format", "csv")
    assert (code, out) == (0, f'"j","value"\n"0","{k}"\n')
    assert run_cli(capsys, "blocks", "--k", k, "--count", "0")[0] == 0


def test_term_cap_exits_2_before_any_arithmetic(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("no arithmetic may start past the term cap")

    patched = [(sequences, "x_power_mod"), (builders, "x_power_mod"), (sequences, "term"), (builders, "fast_term")]
    for owner, name in patched:
        monkeypatch.setattr(owner, name, refuse)
    over = cli.TERM_CAP // 2 + 1
    for k, j in ((2, 10**9), (2, -(10**9)), (2, over), (2, -over), (cli.ORDER_CAP, 6), (3, 10**4300 - 1)):
        for method in ("iter", "qpow"):
            argv = ("term", "--k", str(k), "--j", str(j), "--method", method)
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: --k times |--j| exceeds the term cap of {cli.TERM_CAP}\n", argv


def test_term_cap_admits_the_cap(capsys, monkeypatch):
    assert cli.TERM_CAP == 5 * cli.ORDER_CAP
    monkeypatch.setattr(sequences, "term", lambda k, j: j)
    monkeypatch.setattr(builders, "fast_term", lambda k, j: j)
    # every pair is also inside the qpow cost cap, (1000, 16000) near it
    for k, j in (
        (2, 10**7), (2, -(cli.TERM_CAP // 2)), (cli.ORDER_CAP, 5), (cli.TERM_CAP // 7, 7), (1000, 16_000), (8, 10**6)
    ):
        for method in ("iter", "qpow"):
            assert run_cli(capsys, "term", "--k", str(k), "--j", str(j), "--method", method) == (0, f"{j}\n", "")


def test_qpow_cost_cap_exits_2_before_any_arithmetic(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("no arithmetic may start past the qpow cost cap")

    patched = [(sequences, "x_power_mod"), (builders, "x_power_mod"), (sequences, "term"), (builders, "fast_term")]
    for owner, name in patched:
        monkeypatch.setattr(owner, name, refuse)
    assert cli.QPOW_CAP == 5 * 10**12
    # --k 1000 --j 50000 took 45 s; 17000 is the first thousand past the cap at k = 1000
    for k, j in ((1000, 50_000), (1000, -50_000), (1000, 17_000), (2000, 20_000), (50, 10**6)):
        code, out, err = run_cli(capsys, "term", "--k", str(k), "--j", str(j), "--method", "qpow")
        assert (code, out) == (2, ""), (k, j)
        assert err == (
            f"error: --method qpow's cost estimate min(k, |j|)^2 * |j|^1.585 exceeds the cap of {cli.QPOW_CAP}\n"
        ), (k, j)
    # the window path is not bounded by qpow's cost
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "term", "--k", "1000", "--j", "50000")
    assert code == 0 and out[:-1].isdigit()


class Reached(Exception):
    """Raised by a patched library call: the CLI began the work."""


def reached(*args, **kwargs):
    raise Reached(args)


def test_seq_term_cap_exits_2_before_any_arithmetic(capsys, monkeypatch):
    monkeypatch.setattr(sequences, "term_range", reached)
    over = str(cli.TERM_CAP // 3 + 1)  # 3 * 16666667 is the cap + 1
    for k, lo, hi in ((3, "0", over), (3, "-" + over, "0"), (2, "0", "100000000"), (2, "-" + "9" * 4300, "0")):
        argv = ("seq", "--k", str(k), "--from", lo, "--to", hi)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: --k times max(|--from|, |--to|) exceeds the term cap of {cli.TERM_CAP}\n", argv


def test_seq_term_cap_admits_the_cap(capsys, monkeypatch):
    # This pins only the CLI's own caps: term_range, the worker, is patched
    # out.  The term cap is no bound on seq's output, which grows with the
    # square of the range (ROADMAP item 7): these ranges pass the caps, but
    # seq could not print them.
    monkeypatch.setattr(sequences, "term_range", reached)
    for k, lo, hi in ((2, 0, cli.TERM_CAP // 2), (5, -(cli.TERM_CAP // 5), 0), (cli.ORDER_CAP, -5, 5)):
        with pytest.raises(Reached) as info:
            main(["seq", "--k", str(k), "--from", str(lo), "--to", str(hi)])
        assert info.value.args[0] == (k, lo, hi)
    assert capsys.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# blocks


def test_blocks_json_reproduces_listing(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--k", "5", "--count", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["k"] == "5"
    values = [block["values"] for block in data["blocks"]]
    assert values == [
        ["1", "-1", "0", "0", "0"],
        ["2", "-3", "1", "0", "0"],
        ["4", "-8", "5", "-1", "0"],
        ["8", "-20", "18", "-7", "1"],
    ]
    block3 = data["blocks"][3]
    assert block3["indices"] == ["-16", "-17", "-18", "-19", "-20"]
    props = block3["properties"]
    assert props["zero_sum"] is True
    assert props["leading_is_power_of_two"] is True
    assert isinstance(props["alternating_signs"], bool)


def test_blocks_plain(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--k", "4", "--count", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "block 0  indices -1..-4  values: 1 -1 0 0"
    assert lines[4] == "block 2  indices -9..-12  values: 4 -8 5 -1"
    assert "zero_sum=yes" in lines[5]


def test_blocks_csv(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--k", "3", "--count", "2", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0][:2] == ["n", "values"]
    assert "zero_sum" in rows[0]
    assert rows[1][:2] == ["0", "1 -1 0"]
    assert rows[2][:2] == ["1", "2 -3 1"]


def test_blocks_zero_count_plain(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--k", "3", "--count", "0")
    assert code == 0
    assert out == "no blocks requested\n"


def test_blocks_negative_count_exits_2(capsys):
    code, _, err = run_cli(capsys, "blocks", "--k", "3", "--count", "-1")
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_blocks_bad_order_exits_2_even_without_blocks(capsys, fmt):
    code, out, err = run_cli(capsys, "blocks", "--k", "1", "--count", "0", "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: order must be")


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("count", [0, 5])
def test_blocks_builds_each_block_once(capsys, monkeypatch, fmt, count):
    built = []
    backward_block = sequences.backward_block

    def spy(k, n):
        built.append(n)
        return backward_block(k, n)

    monkeypatch.setattr(sequences, "backward_block", spy)
    code, _, _ = run_cli(capsys, "blocks", "--k", "3", "--count", str(count), "--format", fmt)
    assert (code, built) == (0, list(range(count)))


# ---------------------------------------------------------------------------
# verify


VERIFY_SMALL = (
    "verify",
    "--suite",
    "geometric,fl_double",
    "--max-k",
    "2",
    "--max-n",
    "4",
    "--max-m",
    "4",
    "--min-j",
    "-2",
    "--max-j",
    "4",
)


def test_verify_plain_small_grid(capsys):
    code, out, _ = run_cli(capsys, *VERIFY_SMALL)
    assert code == 0
    assert out.rstrip().endswith("pass: yes")
    assert "fails (expected)" in out
    assert "fails (UNEXPECTED)" not in out
    assert "holds-corrected" in out


def test_verify_json_small_grid(capsys):
    code, out, _ = run_cli(capsys, *VERIFY_SMALL, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["suite"] == "geometric,fl_double"
    assert data["grid"]["max_k"] == "2"
    assert {case["id"] for case in data["cases"]} == {"geometric", "fl_double"}


def test_verify_csv_small_grid(capsys):
    code, out, _ = run_cli(capsys, *VERIFY_SMALL, "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["id", "status", "params"]
    statuses = {row[1] for row in rows[1:]}
    assert statuses <= {"holds", "fails", "holds-corrected", "skipped"}
    params = json.loads(rows[1][2])
    assert isinstance(params, dict)


def test_verify_unknown_checker_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "geometric,bogus")
    assert code == 2
    assert err.startswith("error: ")
    assert "bogus" in err


def test_verify_bad_grid_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-k", "1")
    assert code == 2
    assert err.startswith("error: ")


def test_verify_unexpected_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("kbonacci.identities.expected_reason", lambda *a, **k: None)
    monkeypatch.setattr("kbonacci.expectations.expected_reason", lambda *a, **k: None)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "congruence_sum", "--max-k", "2", "--max-m", "2"
    )
    assert code == 1
    assert "fails (UNEXPECTED)" in out
    assert out.rstrip().endswith("pass: no")


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_verify_unexpected_failure_exits_1_in_every_format(capsys, monkeypatch, fmt):
    monkeypatch.setattr("kbonacci.identities.expected_reason", lambda *a, **k: None)
    code, out, _ = run_cli(capsys, *VERIFY_SMALL, "--format", fmt)
    assert code == 1
    if fmt == "plain":
        assert out.endswith("fails: 24 (unexpected: 24)  skipped: 0\npass: no\n")
    elif fmt == "json":
        assert '\n  "pass": false,\n' in out and json.loads(out)["pass"] is False
    else:
        assert sum(row[1] == "fails" for row in parse_csv(out)) == 24


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_verify_failing_mid_stream_leaves_no_file(capsys, monkeypatch, tmp_path, fmt):
    from kbonacci.identities import CHECKERS

    checker = CHECKERS["fl_double"]
    stream = checker.stream

    def first_case_then_fail(p):
        yield next(stream(p))
        raise MemoryError

    monkeypatch.setattr(checker, "stream", first_case_then_fail)
    target = tmp_path / f"report.{fmt}"
    code, out, err = run_cli(capsys, *VERIFY_SMALL, "--format", fmt, "--output", str(target))
    assert (code, out, err) == (2, "", "error: out of memory\n")
    assert not target.exists()


def test_verify_verdict_covers_the_cases_after_the_reader_stops(monkeypatch, tmp_path):
    monkeypatch.setattr("kbonacci.identities.expected_reason", lambda *a, **k: None)
    sink = open(tmp_path / "sink", "w")

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return sink.fileno()

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        # the first case written holds; failures come later in the stream
        assert main(list(VERIFY_SMALL)) == 1
    finally:
        sink.close()


def test_verify_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *VERIFY_SMALL, "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text(encoding="utf-8"))
    assert data["pass"] is True
    assert target.read_text(encoding="utf-8").endswith("\n")


# ---------------------------------------------------------------------------
# bench


def test_bench_plain_two_rows(capsys):
    code, out, _ = run_cli(capsys, "bench", "--k", "2", "--j-max", "200", "--step", "100")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["j", "iter_seconds", "qpow_seconds", "digits"]
    first = lines[1].split()
    assert first[0] == "100"
    assert first[3] == "21"  # term(2, 100) = 354224848179261915075
    assert lines[2].split()[0] == "200"


def test_bench_json_types(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--k", "3", "--j-max", "50", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["k"] == "3"
    assert data["j_max"] == "50"
    assert data["step"] == "50"
    (row,) = data["rows"]
    assert row["j"] == "50"
    assert isinstance(row["iter_seconds"], float)
    assert isinstance(row["qpow_seconds"], float)
    assert row["digits"].isdigit()


def test_bench_csv(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--k", "2", "--j-max", "1", "--step", "1", "--format", "csv"
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["j", "iter_seconds", "qpow_seconds", "digits"]
    assert len(rows) == 2
    assert rows[1][0] == "1"
    assert rows[1][3] == "1"


def test_bench_step_validation_exits_2(capsys):
    code, _, err = run_cli(capsys, "bench", "--k", "2", "--j-max", "5", "--step", "9")
    assert code == 2
    assert err.startswith("error: ")
    code, _, err = run_cli(capsys, "bench", "--k", "2", "--j-max", "0")
    assert code == 2


def test_bench_caps_exit_2_before_any_arithmetic(capsys, monkeypatch):
    from kbonacci import bench

    for name in ("iterative_term", "fast_term", "run_bench"):
        monkeypatch.setattr(bench, name, reached)
    qpow = f"error: --method qpow's cost estimate min(k, |j|)^2 * |j|^1.585 exceeds the cap of {cli.QPOW_CAP}\n"
    for argv, err in (
        (("--k", str(cli.ORDER_CAP + 1), "--j-max", "5"), f"error: --k exceeds the order cap of {cli.ORDER_CAP}\n"),
        (("--k", "1", "--j-max", "5"), "error: order must be an integer >= 2, got 1\n"),
        (("--k", "2", "--j-max", "9" * 4300, "--step", "0"), "error: step must satisfy 1 <= step <= j_max, got 0\n"),
        # the rows' total k * j: 2 * (1 + 2 + ... + 10) * 10^6 = 1.1 * 10^8
        (("--k", "2", "--j-max", str(10**7), "--step", str(10**6)), None),
        (("--k", "2", "--j-max", str(cli.TERM_CAP // 2 + 1)), None),
        (("--k", "3", "--j-max", "9" * 4300), None),
        # ran 52.7 s on a 2-CPU machine before it was refused
        (("--k", "1000", "--j-max", "50000"), qpow),
        (("--k", "1000", "--j-max", "17000"), qpow),
        (("--k", "50", "--j-max", str(10**6), "--step", str(10**6)), qpow),
    ):
        code, out, got = run_cli(capsys, "bench", *argv)
        assert (code, out) == (2, ""), argv
        assert got == (err or f"error: --k times the sum of the rows' j exceeds the term cap of {cli.TERM_CAP}\n"), argv


def test_bench_caps_admit_the_cap(capsys, monkeypatch):
    from kbonacci import bench

    # This pins only the CLI's own caps: run_bench, the worker, is patched
    # out.  The real run_bench refuses the first argv below by its own
    # cap on the iterative path's cost, bench.ITER_CAP.
    monkeypatch.setattr(bench, "run_bench", reached)
    for argv in (
        ("--k", "2", "--j-max", str(cli.TERM_CAP // 2)),
        # 2 * (2.5 + 5 + 7.5 + 10) * 10^6 is the term cap
        ("--k", "2", "--j-max", str(10**7), "--step", str(25 * 10**5)),
        ("--k", "1000", "--j-max", "16000"),
    ):
        with pytest.raises(Reached):
            main(["bench", *argv])
    # the rows' total is 2 * (1 + 2 + 3) = 12
    monkeypatch.setattr(cli, "TERM_CAP", 12)
    with pytest.raises(Reached):
        main(["bench", "--k", "2", "--j-max", "3", "--step", "1"])
    monkeypatch.setattr(cli, "TERM_CAP", 11)
    code, _, err = run_cli(capsys, "bench", "--k", "2", "--j-max", "3", "--step", "1")
    assert (code, err) == (2, "error: --k times the sum of the rows' j exceeds the term cap of 11\n")


def test_bench_iterative_cap_admits_the_cap_and_refuses_one_more(capsys, monkeypatch):
    from kbonacci import bench

    monkeypatch.setattr(bench, "iterative_term", reached)
    # one row at j = 10^6: j^2 is the cap
    assert bench.ITER_CAP == 10**12
    with pytest.raises(Reached):
        main(["bench", "--k", "2", "--j-max", str(10**6)])
    refused = f"error: the sum of the rows' j^2 exceeds the iterative path's cap of {bench.ITER_CAP}\n"
    for argv in (
        ("--k", "2", "--j-max", str(10**6 + 1)),
        # within the term cap and the qpow cap, hours of plain recurrence
        ("--k", "2", "--j-max", str(cli.TERM_CAP // 2)),
        ("--k", "3", "--j-max", str(10**6), "--step", str(5 * 10**5)),
    ):
        code, out, err = run_cli(capsys, "bench", *argv)
        assert (code, out, err) == (2, "", refused), argv
    # the rows' j^2 sum to 1 + 4 + 9 = 14
    monkeypatch.setattr(bench, "ITER_CAP", 14)
    with pytest.raises(Reached):
        main(["bench", "--k", "2", "--j-max", "3", "--step", "1"])
    monkeypatch.setattr(bench, "ITER_CAP", 13)
    code, out, err = run_cli(capsys, "bench", "--k", "2", "--j-max", "3", "--step", "1")
    assert (code, out, err) == (2, "", "error: the sum of the rows' j^2 exceeds the iterative path's cap of 13\n")
    with pytest.raises(ValueError, match="iterative path's cap of 13$"):
        bench.run_bench(5, 3, 1)


def test_iterative_term_reads_the_seed_window_without_building_it(monkeypatch):
    from kbonacci import bench

    monkeypatch.setattr(bench, "deque", reached)
    k = cli.ORDER_CAP
    assert [bench.iterative_term(k, j) for j in (0, 1, k - 2, k - 1)] == [0, 0, 0, 1]
    assert [bench.iterative_term(3, j) for j in range(3)] == [0, 0, 1]
    with pytest.raises(Reached):
        bench.iterative_term(3, 3)


def test_bench_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("kbonacci.bench.fast_term", lambda k, j: -1)
    code, _, err = run_cli(capsys, "bench", "--k", "2", "--j-max", "10")
    assert code == 1
    assert err == "error: evaluation paths disagree at k=2, j=10\n"


# ---------------------------------------------------------------------------
# parser plumbing


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "term" in out and "verify" in out


def test_no_command_exits_2(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_unknown_command_exits_2(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert err.startswith("error: ")


def test_usage_error_shortens_long_values(capsys):
    # one line that starts the value, however long the value is
    code, out, err = run_cli(capsys, "term", "--k", "2", "--j", "1" * 4300 + "x")
    assert (code, out) == (2, "")
    assert err == f"error: argument --j: invalid int value: '{'1' * 40}...'\n"
    code, _, err = run_cli(capsys, "term", "--k", "2", "--j", "3", "--format", "y" * 100)
    assert code == 2
    assert err.startswith(f"error: argument --format: invalid choice: '{'y' * 40}...' (choose from ")
    assert err.count("\n") == 1 and len(err) < 200


def test_bad_format_choice_exits_2(capsys):
    code, _, err = run_cli(capsys, "term", "--k", "2", "--j", "3", "--format", "yaml")
    assert code == 2
    assert err.startswith("error: ")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kbonacci", "term", "--k", "3", "--j", "6"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "7\n"


# ---------------------------------------------------------------------------
# integers past the int-to-text digit limit (4,300 digits on Python 3.11+)

BIG_J = 30000  # F(30000) has 6,270 digits


def decimal_text(value: int) -> str:
    """str(value) with the interpreter's int-to-text digit limit lifted."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.fixture(scope="module")
def big_fibonacci():
    """F(BIG_J - 1), F(BIG_J), F(BIG_J + 1) as decimal text, from a plain
    two-term loop independent of the library."""
    a, b = 0, 1
    for _ in range(BIG_J - 1):
        a, b = b, a + b
    values = (a, b, a + b)
    assert all(len(decimal_text(v)) > 4300 for v in values)
    return tuple(decimal_text(v) for v in values)


def digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@pytest.mark.parametrize("method", ["iter", "qpow"])
def test_term_beyond_digit_limit(capsys, big_fibonacci, method):
    want = big_fibonacci[1]
    argv = ("term", "--k", "2", "--j", str(BIG_J), "--method", method)
    limit = digit_limit()
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == want + "\n"
    assert digit_limit() == limit  # restored after the call
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == want
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert parse_csv(out)[1] == ["2", str(BIG_J), method, want]


def test_seq_beyond_digit_limit(capsys, big_fibonacci):
    before, at, _ = big_fibonacci
    argv = ("seq", "--k", "2", "--from", str(BIG_J - 1), "--to", str(BIG_J))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.split() == [str(BIG_J - 1), before, str(BIG_J), at]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["values"] == [before, at]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert parse_csv(out)[1:] == [[str(BIG_J - 1), before], [str(BIG_J), at]]


def test_matrix_beyond_digit_limit(capsys, big_fibonacci):
    before, at, after = big_fibonacci
    rows = [[after, at], [at, before]]
    argv = ("matrix", "--family", "F", "--k", "2", "--r", "1", "--j", str(BIG_J))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert [line.split() for line in out.splitlines()] == rows
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"dim": 2, "entries": rows}
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert parse_csv(out) == [["col_1", "col_2"], *rows]


def read_output(fmt: str, out: str):
    if fmt == "plain":
        return [line.split() for line in out.splitlines()]
    return json.loads(out) if fmt == "json" else parse_csv(out)


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("command", ["term", "seq", "matrix"])
def test_output_does_not_depend_on_the_digit_limit(big_fibonacci, command, fmt):
    """At the lowest digit limit Python allows, a fresh interpreter prints
    the digits str() prints with the limit lifted."""
    before, at, after = big_fibonacci
    j, j_lo = str(BIG_J), str(BIG_J - 1)
    rows = [[after, at], [at, before]]
    argv, want = {
        "term": (
            ("term", "--k", "2", "--j", j),
            {"plain": [[at]], "json": {"k": "2", "j": j, "method": "iter", "value": at},
             "csv": [["k", "j", "method", "value"], ["2", j, "iter", at]]},
        ),
        "seq": (
            ("seq", "--k", "2", "--from", j_lo, "--to", j),
            {"plain": [[j_lo, before], [j, at]], "json": {"k": "2", "j_lo": j_lo, "j_hi": j, "values": [before, at]},
             "csv": [["j", "value"], [j_lo, before], [j, at]]},
        ),
        "matrix": (
            ("matrix", "--family", "F", "--k", "2", "--r", "1", "--j", j),
            {"plain": rows, "json": {"dim": 2, "entries": rows}, "csv": [["col_1", "col_2"], *rows]},
        ),
    }[command]
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640", "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "kbonacci", *argv, "--format", fmt], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert read_output(fmt, proc.stdout) == want[fmt]


def test_term_at_one_million(capsys):
    # 208,988 digits; the window alone would need tens of GiB here
    code, out, err = run_cli(capsys, "term", "--k", "2", "--j", "1000000")
    assert (code, err) == (0, "")
    digits = out.rstrip("\n")
    assert len(digits) == 208988 and digits.isdigit()
    assert digits.startswith("1953282128707757731632") and digits.endswith("68996526838242546875")


# ---------------------------------------------------------------------------
# JSON output byte for byte: every command's --format json text is pinned
# to json.dumps(..., indent=2, sort_keys=True) of its payload, built here


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def json_out(capsys, *argv) -> str:
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("method", ["iter", "qpow"])
@pytest.mark.parametrize("k, j", [(2, 10), (3, 200), (2, BIG_J)])
def test_term_json_bytes(capsys, method, k, j):
    value = sequences.term(k, j)
    want = dumps(jsonify({"k": k, "j": j, "method": method, "value": value}))
    assert json_out(capsys, "term", "--k", str(k), "--j", str(j), "--method", method) == want


@pytest.mark.parametrize("k, lo, hi", [(2, -12, 12), (4, -30, -20), (3, 5, 5), (2, BIG_J - 1, BIG_J)])
def test_seq_json_bytes(capsys, k, lo, hi):
    values = [sequences.term(k, j) for j in range(lo, hi + 1)]
    want = dumps(jsonify({"k": k, "j_lo": lo, "j_hi": hi, "values": values}))
    assert json_out(capsys, "seq", "--k", str(k), "--from", str(lo), "--to", str(hi)) == want


@pytest.mark.parametrize(
    "argv, build",
    [
        (("--family", "F", "--k", "3", "--r", "2", "--j", "-7"), lambda: builders.build_higher(3, 2, -7)),
        (("--family", "F", "--k", "2", "--r", "1", "--j", str(BIG_J)), lambda: builders.build_higher(2, 1, BIG_J)),
        (("--family", "L", "--r", "2", "--j", "9"), lambda: builders.build_lucas(2, 9)),
        (("--family", "Q", "--k", "4", "--r", "2"), lambda: builders.build_q(4, 2)),
    ],
)
def test_matrix_json_bytes(capsys, argv, build):
    # the matrix command writes to_json_dict as it is: "dim" stays a number
    assert json_out(capsys, "matrix", *argv) == dumps(matrix.to_json_dict(build()))


@pytest.mark.parametrize("count", [0, 4])
def test_blocks_json_bytes(capsys, count):
    blocks = [
        {
            "n": n,
            "indices": list(sequences.backward_block(5, n).indices),
            "values": list(sequences.backward_block(5, n).values),
            "properties": sequences.block_properties(5, n).as_dict(),
        }
        for n in range(count)
    ]
    want = dumps(jsonify({"k": 5, "count": count, "blocks": blocks}))
    assert json_out(capsys, "blocks", "--k", "5", "--count", str(count)) == want


def test_verify_json_output_file_matches_stdout(capsys, tmp_path):
    def without_timestamp(text):
        return "".join(line for line in text.splitlines(keepends=True) if '"generated_at"' not in line)

    argv = ("verify", "--suite", "geometric,square_diff,q_power", "--max-k", "3", "--max-n", "3")
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--output", str(target))
    assert (code, out) == (0, "")
    written = target.read_text(encoding="utf-8")
    stdout = json_out(capsys, *argv)
    assert '"generated_at"' in written and '"counterexample": {' in written
    assert without_timestamp(written) == without_timestamp(stdout)


# ---------------------------------------------------------------------------
# out of memory and unwritable output: exit 2 with a message, no partial file


def test_seq_out_of_memory_exits_2(capsys, monkeypatch, tmp_path):
    def exhausted(*args):
        raise MemoryError

    # This pins only the CLI's exit path: term_range, the worker, is
    # patched out to raise.  The range is the largest that the term cap
    # admits at k = 2, which is not an output bound (ROADMAP item 7).
    monkeypatch.setattr(sequences, "term_range", exhausted)
    target = tmp_path / "seq.txt"
    # at the term cap, the largest range seq takes at k = 2
    argv = ("seq", "--k", "2", "--from", "0", "--to", str(cli.TERM_CAP // 2))
    for extra in ((), ("--output", str(target))):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert (code, out, err) == (2, "", "error: out of memory\n")
    assert not target.exists()


def test_output_failing_mid_stream_leaves_no_file(capsys, monkeypatch, tmp_path):
    def half_written(*args, **kwargs):
        yield "{\n"
        raise MemoryError

    monkeypatch.setattr(cli, "json_chunks", half_written)
    target = tmp_path / "term.json"
    code, out, err = run_cli(capsys, "term", "--k", "2", "--j", "9", "--format", "json", "--output", str(target))
    assert (code, out, err) == (2, "", "error: out of memory\n")
    assert not target.exists()


def test_reader_closing_the_pipe_ends_quietly():
    # far more than a pipe buffer, so the writer is still writing when the
    # reader goes away
    argv = [sys.executable, "-m", "kbonacci", "seq", "--k", "2", "--from", "0", "--to", "3000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b"   0")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_unwritable_output_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "term.txt"
    code, out, err = run_cli(capsys, "term", "--k", "2", "--j", "9", "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_matrix_usage_error_lines(capsys):
    for argv, line in (
        (("--family", "L", "--k", "3", "--r", "1", "--j", "1"), "family L is order 2 only; omit --k or pass --k 2"),
        (("--family", "L", "--r", "1"), "family L requires --j"),
        (("--family", "Q", "--k", "2", "--r", "1", "--j", "4"), "family Q does not take --j"),
        (("--family", "Q", "--r", "1"), "family Q requires --k"),
        (("--family", "F", "--r", "1", "--j", "1"), "family F requires --k"),
        (("--family", "F", "--k", "2", "--r", "1"), "family F requires --j"),
        (("--family", "F", "--k", "2", "--r", "0", "--j", "1"), "level must be an integer >= 1, got 0"),
    ):
        assert run_cli(capsys, "matrix", *argv) == (2, "", f"error: {line}\n"), argv


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_blocks_writes_before_the_last_block_is_made(monkeypatch, fmt):
    count = 20
    built = []
    backward_block = sequences.backward_block

    def spy(k, n):
        built.append(n)
        return backward_block(k, n)

    class Stdout(io.StringIO):
        made_at_first_write = None

        def write(self, text):
            if self.made_at_first_write is None:
                self.made_at_first_write = len(built)
            return super().write(text)

    stdout = Stdout()
    monkeypatch.setattr(sequences, "backward_block", spy)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["blocks", "--k", "3", "--count", str(count), "--format", fmt]) == 0
    assert stdout.made_at_first_write < count
    assert built == list(range(count))

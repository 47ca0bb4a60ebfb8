"""End-to-end command-line tests driven through main(argv)."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import pytest

from kbonacci.cli import main


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

"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import sys

import pytest

import oracle
import run
import spans

sys.path.insert(0, run.SRC)
from kbonacci import CHECKER_IDS, term  # noqa: E402


def test_oracle_matches_term():
    for k in range(2, 9):
        for j in range(-300, 301):
            assert oracle.residues(k, j) == [term(k, j) % p for p in oracle.PRIMES], (k, j)


def test_self_times_of_nested_spans():
    # root 0..10 holds a 1..4 (which holds a1 2..3), b 3..6 overlapping a,
    # and c 8..9; the children cover 1..6 and 8..9 of the root
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 9.0]
    assert spans.self_times(parent, start, end) == [4.0, 2.0, 1.0, 3.0, 1.0]


def test_busy_time_counts_recursion_once():
    # name 0 recursing inside itself, then once more after it returns
    assert spans.busy_times([0, 0, 1, 0], [0.0, 2.0, 3.0, 12.0], [10.0, 5.0, 4.0, 13.0]) == {0: 11.0, 1: 1.0}


def test_recorder_round_trip(tmp_path):
    rec = spans.Recorder(op=7)
    rec.wrap("unused", lambda: None)
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    path = str(tmp_path / "spans.bin")
    rec.write(path)
    header, name, parent, start, end = spans.load(path)
    assert header["op"] == 7
    assert [header["names"][n] for n in name] == ["outer", "inner", "inner"]
    assert list(parent) == [-1, 0, 0]
    metrics = spans.layer_metrics(header, name, parent, start, end)
    assert metrics["outer.calls"] == 1 and metrics["inner.calls"] == 2
    assert not any(key.startswith("unused.") for key in metrics)
    outer_span = end[0] - start[0]
    assert metrics["outer.self_s"] + metrics["inner.self_s"] == pytest.approx(outer_span)


def test_per_layer_metrics_name_every_checker():
    names = {name for name, _ in run.PER_LAYER}
    assert {f"identities.checker.{c}.s" for c in CHECKER_IDS} <= names


def test_term_inputs_repeat_per_seed_and_stay_in_range():
    first = [next(run.term_inputs(3)) for _ in range(2)]
    assert first[0] == first[1]
    inputs = run.term_inputs(3)
    for _ in range(50):
        for (fn, k, j), (fn2, k2, sign, lo, hi) in zip(next(inputs), run.TERM_CALLS):
            assert (fn, k) == (fn2, k2) and lo <= sign * j <= hi


def test_wrong_term_is_a_failure():
    job = {"calls": [["term", 2, 10], ["fast_term", 5, 40]]}
    good = [oracle.residues(2, 10), oracle.residues(5, 40)]
    assert run.check("term-deep", job, good) is None
    assert run.check("term-deep", job, [good[0], [good[1][0] + 1, good[1][1]]])
    assert run.check("term-deep", job, good[:1])


def _stripped_report(path: str) -> bytes:
    with open(path, "rb") as handle:
        return b"".join(line for line in handle if b'"generated_at"' not in line)


def test_traced_report_is_byte_identical():
    job = next(run.jobs("verify-default", 0))
    reports = []
    for spans_path in (None, os.path.join(run.WORK, "test-spans.bin")):
        result = run.run_child("verify-default", job, spans_path)
        assert "error" not in result, result
        reports.append(_stripped_report(job["report"]))
    assert reports[0] == reports[1]


def test_address_space_ceiling_fails_the_operation(monkeypatch):
    job = {"calls": [["term", 2, 10]], "moduli": list(oracle.PRIMES)}
    assert "error" not in run.run_child("term-deep", job)
    monkeypatch.setattr(run, "AS_LIMIT", 16 << 20)
    result = run.run_child("term-deep", job)
    assert result["error"].startswith("child exited with")


def test_timeout_fails_the_operation(monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.01)
    job = {"calls": [["term", 2, 10]], "moduli": list(oracle.PRIMES)}
    assert run.run_child("term-deep", job)["error"].startswith("timed out")

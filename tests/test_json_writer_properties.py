"""Property tests for the streaming JSON writer.

For any nesting of dicts, lists and tuples over ints (negative ones and
ones past the 4,300-digit int-to-text limit included), booleans, None
and strings (non-ASCII, quotes, backslashes and control characters
included), json_chunks must write exactly what json.dumps writes for
jsonify's copy of the value.  Fixed cases pin the suite report, with and
without cases and timestamp, and a bench-style payload with floats.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci.identities import SuiteGrid, _row, json_chunks, jsonify, run_suite

SIGN = st.sampled_from((1, -1))
HUGE = st.builds(lambda sign, digits, low: sign * (10**digits + low), SIGN, st.integers(4300, 4400), st.integers(0, 10**9))
INTS = st.integers() | HUGE
TEXT = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\b\f\n\r\t é中\U0001f600 ab')
SCALARS = INTS | st.booleans() | st.none() | TEXT


def values(scalars):
    return st.recursive(
        scalars,
        lambda inner: (
            st.lists(inner, max_size=5)
            | st.lists(inner, max_size=5).map(tuple)
            | st.dictionaries(TEXT, inner, max_size=5)
            # a list of strings only, as a matrix row is written
            | st.lists(TEXT, min_size=1, max_size=5)
        ),
        max_leaves=40,
    )


def written(value, **kwargs) -> str:
    return "".join(json_chunks(value, **kwargs))


@settings(max_examples=200, deadline=None)
@given(values(SCALARS))
def test_writer_matches_json_dumps_of_jsonify(value):
    assert written(value) == json.dumps(jsonify(value), indent=2, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(values(st.integers(-(10**300), 10**300) | st.booleans() | st.none() | TEXT))
def test_bare_ints_match_json_dumps(value):
    assert written(value, quote_ints=False) == json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10**7), st.floats(allow_nan=False, allow_infinity=False)), max_size=4))
def test_bench_payload_with_floats(rows):
    payload = {"k": 2, "rows": [{"j": j, "iter_seconds": s, "qpow_seconds": s / 3, "digits": j // 5} for j, s in rows]}
    by_hand = {
        "k": "2",
        "rows": [{"j": str(j), "iter_seconds": s, "qpow_seconds": s / 3, "digits": str(j // 5)} for j, s in rows],
    }
    assert written(payload) == json.dumps(by_hand, indent=2, sort_keys=True)


@pytest.mark.parametrize("empty", [{}, [], ()])
def test_empty_containers_at_every_depth(empty):
    value = empty
    for depth in range(6):
        value = {"a": value, "b": [value, empty]} if depth % 2 else [value, {"x": empty}]
        assert written(value) == json.dumps(jsonify(value), indent=2, sort_keys=True)


def test_generator_is_written_as_a_list():
    rows = [{"n": n, "values": ("1", "-2")} for n in range(3)]
    assert written({"rows": (row for row in rows)}) == written({"rows": rows})
    assert written({"rows": (row for row in ())}) == written({"rows": []})


def test_a_row_of_strings_is_decided_by_row_alone():
    """_row writes only a nonempty list or tuple of strings; the writer and
    the counterexample writer take its None for anything else."""
    for value in [], (), "ab", (1,), ["a", 1], {"a": "b"}, None:
        assert _row(value, "\n") is None, value
    assert _row(("a", "b"), "\n") == _row(["a", "b"], "\n") == '[\n  "a",\n  "b"\n]'


@pytest.mark.parametrize("value", [object(), {1, 2}, b"x", {"a": [1.5j]}, {1: "int key"}])
def test_unserializable_values_raise(value):
    with pytest.raises(TypeError):
        written(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_raise(value):
    with pytest.raises(ValueError):
        written({"seconds": value})


def reference(result, include_timestamp):
    return json.dumps(result.to_json_dict(include_timestamp), indent=2, sort_keys=True)


def test_report_without_cases():
    result = run_suite([])
    assert result.suite == "none" and result.cases == ()
    for include_timestamp in (False, True):
        text = result.to_json(include_timestamp)
        assert text == reference(result, include_timestamp)
        assert '"cases": [],' in text


def test_report_with_counterexamples_and_timestamp():
    grid = SuiteGrid(max_k=3, max_r=2, n_max=3, m_max=3, j_min=-2, j_max=3)
    result = run_suite(["geometric", "square_diff", "q_power"], grid)
    assert any(case.counterexample for case in result.cases)
    for include_timestamp in (False, True):
        assert result.to_json(include_timestamp) == reference(result, include_timestamp)
    assert f'"generated_at": "{result.generated_at}"' in result.to_json()

"""The identity suite as a stream: iter_suite yields the cases in report
order as they are made, and run_suite is that stream collected.  Report
order is _case_sort_key's, which must order cases exactly as the
generic key it replaced did."""

from __future__ import annotations

import functools
import tracemalloc
from collections import Counter
from itertools import pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci import identities
from kbonacci.identities import (
    CHECKER_IDS,
    CHECKERS,
    MEMBER_CACHE_SIZE,
    SHAPE_CACHE_SIZE,
    CheckCase,
    CheckerParams,
    SuiteGrid,
    _case_sort_key,
    _combos,
    iter_suite,
    json_chunks,
    run_suite,
)
from kbonacci.sequences import lucas_term, term

DEFAULT = SuiteGrid()
DENSE = SuiteGrid(max_k=4, max_r=3, dim_cap=64)


def streams(grid):
    """Each registered checker's per-(k, r) case lists over the grid."""
    bounds = (grid.n_max, grid.m_max, grid.j_min, grid.j_max)
    for checker_id in CHECKER_IDS:
        checker = CHECKERS[checker_id]
        for k, r in _combos(checker, grid):
            yield (checker_id, k, r), list(checker.stream(CheckerParams(k, r, *bounds)))


def collected_and_sorted(grid):
    """The suite's cases as they were made before the stream: every
    checker run collected, then all sorted by _case_sort_key."""
    cases = [case for _, stream in streams(grid) for case in stream]
    return sorted(cases, key=_case_sort_key)


@pytest.mark.parametrize("grid", [DEFAULT, DENSE], ids=["default", "dense"])
def test_every_stream_is_strictly_sorted_and_the_suite_is_their_merge(grid):
    everything = []
    for where, stream in streams(grid):
        keys = [_case_sort_key(case) for case in stream]
        assert all(a < b for a, b in zip(keys, keys[1:])), where
        everything += stream
    assert tuple(iter_suite(None, grid)) == tuple(sorted(everything, key=_case_sort_key))


@settings(max_examples=15, deadline=None)
@given(
    max_k=st.integers(2, 4),
    max_r=st.integers(1, 3),
    dim_cap=st.integers(2, 27),
    extra_fib_level=st.none() | st.integers(1, 4),
    n_max=st.integers(1, 4),
    m_max=st.integers(1, 3),
    j_min=st.integers(-4, 2),
    span=st.integers(0, 4),
)
def test_iter_suite_equals_collect_then_sort_on_small_grids(
    max_k, max_r, dim_cap, extra_fib_level, n_max, m_max, j_min, span
):
    grid = SuiteGrid(max_k, max_r, n_max, m_max, j_min, j_min + span, dim_cap, extra_fib_level)
    assert list(iter_suite(None, grid)) == collected_and_sorted(grid)


def test_run_suite_is_the_collected_stream():
    grid = SuiteGrid(max_k=3, n_max=4, m_max=3, j_min=-2, j_max=3)
    selection = ["power_expansion", "geometric", "lucas_pair"]
    result = run_suite(selection, grid)
    assert result.cases == tuple(iter_suite(selection, grid))
    # the suite is named in registry order
    assert result.suite == "geometric,power_expansion,lucas_pair"


def test_iter_suite_checks_its_arguments_before_any_case(monkeypatch):
    def refuse(p):
        raise AssertionError("a case was made")

    for checker_id in CHECKER_IDS:
        monkeypatch.setattr(CHECKERS[checker_id], "stream", refuse)
    with pytest.raises(ValueError, match="unknown checker ids: bogus"):
        iter_suite(["fl_double", "bogus"])
    # a valid call makes nothing until it is iterated
    cases = iter_suite()
    with pytest.raises(AssertionError, match="a case was made"):
        next(cases)


@pytest.mark.parametrize(
    "disorder",
    [
        pytest.param(lambda cases: reversed(list(cases)), id="reversed"),
        pytest.param(lambda cases: (case for case in cases for _ in range(2)), id="duplicated"),
    ],
)
def test_a_stream_out_of_report_order_raises(monkeypatch, disorder):
    checker = CHECKERS["fl_double"]
    stream = checker.stream
    monkeypatch.setattr(checker, "stream", lambda p: disorder(stream(p)))
    grid = SuiteGrid(j_min=0, j_max=3)
    with pytest.raises(RuntimeError, match="does not sort after the case before it"):
        list(iter_suite(["double_shift", "fl_double"], grid))


def test_streamed_cases_are_not_kept():
    # strided_sum's two (k, r) streams of 13 * 251 cases each; collected,
    # they peak at about 2 MiB under tracemalloc, streamed at 0.2 MiB,
    # which is mostly the order-2 term window filled to j = 263
    grid = SuiteGrid(max_k=2, max_r=1, extra_fib_level=None, j_max=250)

    def peak_mib(drain):
        tracemalloc.start()
        try:
            drain()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    streamed = peak_mib(lambda: sum(1 for _ in iter_suite(["strided_sum"], grid)))
    collected = peak_mib(lambda: run_suite(["strided_sum"], grid))
    assert streamed < 0.5 < 1.5 < collected


def count_member_builds(monkeypatch) -> Counter:
    """Counts, by (family, k, r, j), the members identities builds for its
    member cache from here on: family "F" over order-k terms, "L" over
    Lucas terms."""
    builds = Counter()
    member = identities._member

    def counting(value, k, r, j):
        if value is lucas_term:
            builds["L", k, r, j] += 1
        elif isinstance(value, functools.partial) and value.func is term:
            builds["F", k, r, j] += 1
        return member(value, k, r, j)

    monkeypatch.setattr(identities, "_member", counting)
    return builds


def test_a_default_run_builds_each_member_once(monkeypatch):
    builds = count_member_builds(monkeypatch)
    assert sum(1 for _ in iter_suite()) == 4985
    assert {key[0] for key in builds} == {"F", "L"}
    # checkers share members, and every checker of the run reads one cache
    assert set(builds.values()) == {1}


LINEAR = [checker_id for checker_id in CHECKER_IDS if CHECKERS[checker_id].vectors]


def test_the_linear_checkers_are_the_nine_that_run_on_term_vectors():
    assert LINEAR == [
        "sum_formula",
        "double_shift",
        "geometric",
        "strided_sum",
        "k_stride",
        "congruence_sum",
        "power_expansion",
        "lucas_pair",
        "fl_double",
    ]
    assert {CHECKERS[c].vectors for c in LINEAR} == {"order", "level"}
    assert [c for c in LINEAR if CHECKERS[c].vectors == "level"] == ["lucas_pair"]


def test_a_default_run_runs_each_linear_generator_once_per_order(monkeypatch):
    """Every level r >= 1 of one order reads the one run of its top level:
    a run per order, or per level for lucas_pair, whose levels are not read
    in step.  Each run's steps are copied once per level (itertools.tee)."""
    linear_cases = sum(1 for case in run_suite().cases if case.checker in LINEAR)
    runs = Counter()
    copy = identities.tee

    def counting(steps, n):
        p = steps.gi_frame.f_locals["p"]
        runs[steps.__name__.removeprefix("check_"), p.k, p.r] += 1
        return copy(steps, n)

    monkeypatch.setattr(identities, "tee", counting)
    assert sum(1 for _ in iter_suite(LINEAR, DEFAULT)) == linear_cases
    expected = Counter()
    for checker_id in LINEAR:
        combos = [(k, r) for k, r in _combos(CHECKERS[checker_id], DEFAULT) if r]
        for k in sorted({k for k, _ in combos}):
            levels = [r for kk, r in combos if kk == k]
            for top in levels if CHECKERS[checker_id].vectors == "level" else levels[-1:]:
                expected[checker_id, k, top] += 1
    assert runs == expected
    # seven checkers of any order at three orders, fl_double at order 2,
    # lucas_pair at its three levels
    assert len(runs) == 7 * 3 + 1 + 3


def test_no_linear_case_makes_a_matrix(monkeypatch):
    """With the order-2 companion-power check left out, the linear checkers
    make no SquareMatrix on either grid: a fallback to per-level class
    tables would add and scale them."""
    from kbonacci.matrix import SquareMatrix

    made = Counter()

    def counted(name, method):
        return lambda *args: made.update([name]) or method(*args)

    for name in ("__add__", "__sub__", "scale", "__mul__", "__rmul__"):
        monkeypatch.setattr(SquareMatrix, name, counted(name, getattr(SquareMatrix, name)))
    of = SquareMatrix._of.__func__
    monkeypatch.setattr(SquareMatrix, "_of", classmethod(lambda cls, flat, n: made.update(["_of"]) or of(cls, flat, n)))
    monkeypatch.setattr(identities, "_lockstep", lambda cases, shadow, vectors=None: cases)
    for grid in (DEFAULT, DENSE):
        assert sum(1 for case in iter_suite(LINEAR, grid) if case.params["r"]) > 2000
    assert not made
    # the same patches count the product checkers' table arithmetic
    sum(1 for _ in iter_suite(["square_convolution"], DEFAULT))
    assert made["__add__"] and made["__mul__"]


def test_an_evicting_cache_yields_the_same_cases(monkeypatch):
    cases = list(iter_suite())
    builds = count_member_builds(monkeypatch)
    monkeypatch.setattr(identities, "_members", functools.lru_cache(maxsize=4)(identities._members.__wrapped__))
    assert list(iter_suite()) == cases
    assert max(builds.values()) > 1  # it evicted and built members again


def test_the_member_cache_stays_bounded_and_ends_with_the_run():
    runs = ((identities._members, "square_sum", 200), (identities._vectors, "double_shift", 400))
    for cache, selection, j_max in runs:
        assert cache.cache_info().maxsize == MEMBER_CACHE_SIZE
        # square_sum reads about 400 members at each of 3 matrix levels;
        # double_shift about 400 term vectors at each of 3 orders
        grid = SuiteGrid(j_min=0, j_max=j_max)
        sizes = [cache.cache_info().currsize for _ in iter_suite([selection], grid)]
        assert max(sizes) == MEMBER_CACHE_SIZE, selection
        assert cache.cache_info().currsize == 0
    # a checker called on its own is a run of its own
    CHECKERS["fl_double"](CheckerParams(k=2, r=2))
    CHECKERS["square_sum"](CheckerParams(k=2, r=2))
    assert identities._members.cache_info().currsize == identities._vectors.cache_info().currsize == 0


def reference_sort_key(c: CheckCase):
    """The report-order key as it was before each shape of params read its
    sorted names from a cache: one (name, kind, int, str) part per param."""
    parts = []
    for key in sorted(c.params):
        v = c.params[key]
        if isinstance(v, int) and not isinstance(v, bool):
            parts.append((key, 0, v, ""))
        else:
            parts.append((key, 1, 0, str(v)))
    return (c.checker, tuple(parts))


def comparisons(keys):
    return [(a < b, a == b, a > b) for a, b in pairwise(keys)]


def assert_same_order(cases):
    """_case_sort_key sorts cases as the reference key does, and the two
    agree on every adjacent comparison, as made and as sorted."""
    old = [reference_sort_key(c) for c in cases]
    new = [_case_sort_key(c) for c in cases]
    assert comparisons(new) == comparisons(old)
    order = sorted(range(len(cases)), key=old.__getitem__)
    assert sorted(range(len(cases)), key=new.__getitem__) == order
    assert comparisons([new[i] for i in order]) == comparisons([old[i] for i in order])


@pytest.mark.parametrize("grid", [DEFAULT, DENSE], ids=["default", "dense"])
def test_the_sort_key_orders_the_grids_as_the_reference_does(grid):
    assert_same_order([case for _, stream in streams(grid) for case in stream])


# params of the shapes the checkers make, mixed: power_expansion's skipped
# case (note for j), geometric's scalar cases and its readings,
# lucas_pair's parts; values include bools and ints past 10^600
INDEX = st.integers(-3, 3) | st.booleans() | st.integers(-(10**700), 10**700) | st.none()
TEXT = st.sampled_from(["corrected", "literal-identity", "literal-ones", "fib-sum", "lucas-sum", "1", "True", ""])
PARAMS = st.fixed_dictionaries(
    {"k": st.integers(2, 4), "r": st.integers(0, 3)},
    optional={"n": INDEX, "j": INDEX, "m": INDEX, "s": INDEX | TEXT, "reading": TEXT | INDEX, "part": TEXT},
)
SKIPPED = st.builds(
    lambda k, r: {"k": k, "r": r, "n": k, "note": "requires 1 <= n <= k-1"}, st.integers(2, 4), st.integers(0, 3)
)
CHECKER = st.sampled_from(["geometric", "lucas_pair", "power_expansion"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(CheckCase, CHECKER, PARAMS | SKIPPED, st.just("holds")), min_size=2, max_size=30))
def test_the_sort_key_orders_mixed_shapes_as_the_reference_does(cases):
    assert_same_order(cases)


def test_the_shape_caches_stay_at_their_bound():
    for i in range(10 * SHAPE_CACHE_SIZE):
        params = {"k": 2, "r": 0, f"p{i}": i}
        "".join(json_chunks([{"counterexample": None, "id": "fl_double", "params": params, "status": "holds"}]))
        _case_sort_key(CheckCase("fl_double", params, "holds"))
    for cache in (identities._sorted_names,):
        info = cache.cache_info()
        assert info.maxsize == info.currsize == SHAPE_CACHE_SIZE


def test_the_case_writer_keeps_its_bound_of_case_shapes():
    cases = [CheckCase("fl_double", {"k": 2, "r": 0, f"p{i}": i}, "holds") for i in range(10 * SHAPE_CACHE_SIZE)]
    identities.SuiteResult("fl_double", {}, cases).to_json()
    info = identities._case_template.cache_info()
    assert info.maxsize == info.currsize == SHAPE_CACHE_SIZE


def test_a_drained_run_and_run_suite_give_one_report():
    run = identities.SuiteRun()
    text = "".join(run.json_chunks(include_timestamp=False))
    result = run_suite()
    assert (run.counts, run.unexpected, run.passed) == (result.counts, result.unexpected, result.passed)
    assert run.counts == result.status_counts() and run.passed
    assert text == "".join(result.json_chunks(include_timestamp=False)) == result.to_json(include_timestamp=False)


def test_each_case_is_keyed_once_and_a_collected_result_writes_with_no_key(monkeypatch):
    keyed, key = [], identities._case_sort_key

    def counting(case):
        keyed.append(case)
        return key(case)

    monkeypatch.setattr(identities, "_case_sort_key", counting)
    run = identities.SuiteRun()
    for _ in run.json_chunks(include_timestamp=False):
        pass
    # keyed holds every case, so no two of them share an id
    assert len(keyed) == len(set(map(id, keyed))) == sum(run.counts.values()) > 0
    keyed.clear()
    result = run_suite()
    text = result.to_json(include_timestamp=False)
    assert sorted(map(id, keyed)) == sorted(map(id, result.cases))
    keyed.clear()
    assert result.to_json(include_timestamp=False) == text
    assert "".join(result.json_chunks(include_timestamp=False)) == text
    assert keyed == []


def test_a_failure_with_no_documented_reason_fails_both_reports(monkeypatch):
    documented = identities.expected_reason

    def undocumented(checker, params):
        return None if checker == "sum_formula" else documented(checker, params)

    monkeypatch.setattr(identities, "expected_reason", undocumented)
    run = identities.SuiteRun()
    report = run.to_json_dict(include_timestamp=False)
    result = run_suite()
    assert result.unexpected == run.unexpected == len(result.unexpected_failures()) > 0
    assert {c.checker for c in result.unexpected_failures()} == {"sum_formula"}
    assert report["pass"] is result.passed is run.passed is False
    assert result.to_json_dict(include_timestamp=False) == report


def test_a_hand_built_result_tallies_its_cases():
    p = {"k": 2, "r": 0}
    cases = (
        CheckCase("a", p, identities.HOLDS),
        CheckCase("a", p, identities.FAILS, reason="documented"),
        CheckCase("a", p, identities.FAILS),
        CheckCase("a", p, identities.HOLDS_CORRECTED),
        CheckCase("a", p, identities.SKIPPED),
        CheckCase("a", p, identities.FAILS),
    )
    result = identities.SuiteResult("mixed", {}, cases)
    assert result.status_counts() == {"holds": 1, "fails": 3, "holds-corrected": 1, "skipped": 1}
    assert result.unexpected_failures() == [cases[2], cases[5]] and result.unexpected == 2
    assert not result.passed and result.generated_at == ""
    # the tally is read, not remade: the report agrees after every write
    for _ in range(2):
        assert result.to_json_dict()["pass"] is False and len(result.to_json_dict()["cases"]) == 6
    assert result.status_counts() == {"holds": 1, "fails": 3, "holds-corrected": 1, "skipped": 1}
    assert identities.SuiteResult("mixed", {}, iter(cases), "2020") == result
    assert identities.SuiteResult("none", {}, ()).passed


@pytest.mark.parametrize("checker_id", ["square_convolution", "power_expansion", "square_diff"])
def test_a_checker_result_counts_its_cases(checker_id):
    result = CHECKERS[checker_id](CheckerParams(k=2, r=2))
    recount = Counter(case.status for case in result.cases)
    assert result.status_counts() == {status: recount[status] for status in result.status_counts()}
    assert sum(recount.values()) == len(result.cases) > 0
    assert result.unexpected == sum(case.unexpected for case in result.cases)
    assert result.generated_at == ""


def test_jsonify_calls_a_function_valued_field():
    assert identities.jsonify({"a": lambda: 5}) == {"a": "5"}
    with pytest.raises(TypeError):
        identities.jsonify(object())

"""Identity checker and suite driver tests.

Frozen cases below were worked out by hand from the recurrences; the
matrices are spelled out as literal entry grids so a builder regression
cannot silently shift the expected values.
"""

from __future__ import annotations

import json

import jsonschema
import pytest

from kbonacci.builders import build_higher, build_lucas
from kbonacci.expectations import EXPECTED_DEVIATIONS, expected_reason
from kbonacci.identities import (
    CHECKER_IDS,
    CHECKERS,
    FAILS,
    HOLDS,
    HOLDS_CORRECTED,
    SKIPPED,
    CheckerParams,
    SuiteGrid,
    check_addition_formula,
    check_congruence_sum,
    check_fl_double,
    check_geometric,
    check_k_stride,
    check_lucas_pair,
    check_power_expansion,
    check_q_power,
    check_square_convolution,
    check_square_diff,
    check_square_series,
    check_square_sum,
    check_strided_sum,
    check_sum_formula,
    jsonify,
    resolve_selection,
    run_suite,
)
from kbonacci.matrix import SquareMatrix, to_json_dict


@pytest.fixture(scope="module")
def default_suite():
    return run_suite()


def mat(rows) -> dict:
    return to_json_dict(SquareMatrix(rows))


# ---------------------------------------------------------------------------
# frozen scalar cases


def test_sum_formula_scalar_holds():
    report = check_sum_formula(CheckerParams(k=2, r=0, n_max=8))
    assert all(c.status == HOLDS for c in report.cases)
    assert report.passed
    # k=4 exercises the weighted middle terms and the (k-1) scaling
    report = check_sum_formula(CheckerParams(k=4, r=0, n_max=10))
    assert all(c.status == HOLDS for c in report.cases)


def test_geometric_scalar_holds():
    report = check_geometric(CheckerParams(k=2, r=0, n_max=6))
    assert all(c.status == HOLDS for c in report.cases)


def test_congruence_sum_scalar_fails_with_frozen_counterexamples():
    report = check_congruence_sum(CheckerParams(k=2, r=0, m_max=1))
    (case,) = report.cases
    assert case.status == FAILS
    assert case.counterexample["lhs"] == "1"
    assert case.counterexample["rhs"] == "0"

    case = check_congruence_sum(CheckerParams(k=3, r=0, m_max=2)).cases[1]
    assert case.params == {"k": 3, "r": 0, "m": 2}
    assert case.status == FAILS
    assert case.counterexample["lhs"] == "7"
    assert case.counterexample["rhs"] == "5"

    (case,) = check_congruence_sum(CheckerParams(k=4, r=0, m_max=1)).cases
    assert case.status == FAILS
    assert case.counterexample["lhs"] == "1"
    assert case.counterexample["rhs"] == "0"


def test_square_convolution_scalar_holds():
    cases = check_square_convolution(CheckerParams(k=2, r=0, n_max=4)).cases
    assert all(c.status == HOLDS for c in cases)
    cases = check_square_convolution(CheckerParams(k=3, r=0, n_max=5)).cases
    assert all(c.status == HOLDS for c in cases)


def test_strided_sum_and_k_stride_scalar():
    case = check_strided_sum(CheckerParams(k=2, r=0, j_max=0, m_max=1)).cases[-1]
    assert case.params == {"k": 2, "r": 0, "j": 0, "m": 1}
    assert case.status == HOLDS
    case = check_k_stride(CheckerParams(k=2, r=0, m_max=2)).cases[-1]
    assert case.params == {"k": 2, "r": 0, "m": 2}
    assert case.status == HOLDS


def test_power_expansion_frozen_and_skip():
    report = check_power_expansion(CheckerParams(k=3, r=0, n_max=12, j_min=5, j_max=5))
    by_n = {c.params["n"]: c for c in report.cases}
    assert by_n[2].status == HOLDS  # X(7) = 13 = 4*X(4) + 3*X(3) + 2*X(2)
    assert by_n[3].status == SKIPPED
    assert "note" in by_n[3].params
    assert by_n[3].counterexample is None


# ---------------------------------------------------------------------------
# frozen matrix cases


def test_sum_formula_matrix_k3_fails_with_frozen_counterexample():
    report = check_sum_formula(CheckerParams(k=3, r=1, n_max=1))
    (case,) = report.cases
    assert case.status == FAILS
    # lhs = 2*X(0); rhs = X(3) - X(2) - X(1)
    assert case.counterexample["lhs"] == mat([[2, 0, 0], [0, 0, 2], [0, 2, -2]])
    assert case.counterexample["rhs"] == mat([[1, 0, 0], [0, 0, 1], [0, 1, -1]])
    # expected deviation, so the report as a whole still passes
    assert report.passed


def test_sum_formula_matrix_k2_holds():
    for r in (1, 2, 3):
        report = check_sum_formula(CheckerParams(k=2, r=r, n_max=8))
        assert all(c.status == HOLDS for c in report.cases), r


def test_geometric_matrix_readings():
    report = check_geometric(CheckerParams(k=2, r=1, n_max=1))
    by_reading = {c.params["reading"]: c for c in report.cases}
    assert len(report.cases) == 3

    literal = by_reading["literal-identity"]
    assert literal.status == FAILS
    assert literal.counterexample["lhs"] == mat([[1, 0], [0, 1]])
    assert literal.counterexample["rhs"] == mat([[-1, -2], [-2, 1]])

    assert by_reading["literal-ones"].status == FAILS
    corrected = by_reading["corrected"]
    assert corrected.status == HOLDS_CORRECTED
    assert corrected.counterexample is None
    assert report.passed


def test_square_convolution_matrix_fails_even_at_order_two():
    report = check_square_convolution(CheckerParams(k=2, r=1, n_max=2))
    assert [c.status for c in report.cases] == [FAILS, FAILS, FAILS]
    last = report.cases[-1]
    assert last.params == {"k": 2, "r": 1, "n": 2}
    assert last.counterexample["lhs"] == mat([[8, 4], [4, 4]])
    assert last.counterexample["rhs"] == mat([[8, 5], [5, 3]])


def test_q_power_matrix():
    report = check_q_power(CheckerParams(k=2, r=1, j_max=6))
    assert all(c.status == HOLDS for c in report.cases)
    assert len(report.cases) == 6
    with pytest.raises(ValueError):
        check_q_power(CheckerParams(k=2, r=0))


def test_addition_formula_frozen():
    cases = check_addition_formula(CheckerParams(k=2, r=1, j_min=2, j_max=2)).cases
    (case,) = cases
    assert case.status == HOLDS
    # F(1)F(2) + F(2)F(3) = L(4) = [[11,7],[7,4]]
    assert build_lucas(1, 4) == SquareMatrix([[11, 7], [7, 4]])

    cases = check_addition_formula(CheckerParams(k=2, r=2, j_min=1, j_max=2)).cases
    assert all(c.status == HOLDS for c in cases)
    assert 5 * build_higher(2, 2, 3) == SquareMatrix(
        [[25, 15, 15, 10], [15, 10, 10, 5], [15, 10, 10, 5], [10, 5, 5, 5]]
    )


def test_fl_double_and_square_sum_frozen():
    case = [
        c for c in check_fl_double(CheckerParams(k=2, r=1)).cases if c.params["n"] == 2
    ][0]
    assert case.status == HOLDS
    assert build_higher(2, 1, 2) + build_lucas(1, 2) == SquareMatrix([[6, 4], [4, 2]])

    case = [
        c for c in check_square_sum(CheckerParams(k=2, r=1)).cases if c.params["n"] == 2
    ][0]
    assert case.status == HOLDS
    assert build_lucas(1, 5) == SquareMatrix([[18, 11], [11, 7]])


def test_square_diff_even_level_holds_corrected():
    report = check_square_diff(CheckerParams(k=2, r=2, j_min=1, j_max=1))
    (case,) = report.cases
    assert case.status == HOLDS_CORRECTED
    lucas3 = [[11, 7, 7, 4], [7, 4, 4, 3], [7, 4, 4, 3], [4, 3, 3, 1]]
    assert case.counterexample["lhs"] == mat(lucas3)
    assert case.counterexample["rhs"] == mat([[5 * e for e in row] for row in lucas3])
    assert report.passed


def test_square_diff_other_levels_hold():
    for r in (0, 1, 3):
        report = check_square_diff(CheckerParams(k=2, r=r))
        assert all(c.status == HOLDS for c in report.cases), r


def test_square_series_frozen():
    cases = check_square_series(CheckerParams(k=2, r=1, n_max=2)).cases
    assert [c.status for c in cases] == [HOLDS, HOLDS]
    q = build_higher(2, 1, 1)
    f2 = build_higher(2, 1, 2)
    assert q * q + f2 * f2 == SquareMatrix([[7, 4], [4, 3]])

    cases = check_square_series(CheckerParams(k=2, r=2, n_max=1)).cases
    (case,) = cases
    assert case.status == HOLDS
    f1 = build_higher(2, 2, 1)
    assert f1 * f1 == SquareMatrix(
        [[7, 4, 4, 3], [4, 3, 3, 1], [4, 3, 3, 1], [3, 1, 1, 2]]
    )


def test_lucas_pair_both_parts_hold():
    report = check_lucas_pair(CheckerParams(k=2, r=1))
    assert all(c.status == HOLDS for c in report.cases)
    parts = {c.params["part"] for c in report.cases}
    assert parts == {"lucas-sum", "fib-sum"}


def test_fibonacci_checkers_reject_other_orders():
    for checker in (check_lucas_pair, check_fl_double, check_square_sum):
        with pytest.raises(ValueError):
            checker(CheckerParams(k=3, r=0))


def test_companion_shadow_oracle_guard(monkeypatch):
    from kbonacci import identities

    q_power = identities._q_power
    monkeypatch.setattr(identities, "_q_power", lambda j: 2 * q_power(j) if j == 2 else q_power(j))
    order_2 = [CHECKERS[c] for c in CHECKER_IDS if CHECKERS[c].order == 2]
    assert len(order_2) == 6
    for checker in order_2:
        with pytest.raises(RuntimeError, match="companion-power oracle disagrees"):
            checker(CheckerParams(k=2, r=1, n_max=3, j_min=-1, j_max=3))
        # no shadow pair above level 1, so the same cases run untouched
        checker(CheckerParams(k=2, r=2, n_max=3, j_min=-1, j_max=3))


def test_companion_shadow_runs_wherever_members_are_companion_powers(monkeypatch):
    from kbonacci import identities

    q_power = identities._q_power
    monkeypatch.setattr(identities, "_q_power", lambda j: 2 * q_power(j) if j == 2 else q_power(j))
    bounds = {"n_max": 3, "j_min": -1, "j_max": 3}
    for checker_id in CHECKER_IDS:
        checker = CHECKERS[checker_id]
        if checker_id == "q_power":
            # it compares the builders with fast_f and reads no evaluator
            checker(CheckerParams(k=2, r=1, **bounds))
        else:
            with pytest.raises(RuntimeError, match="companion-power oracle disagrees"):
                checker(CheckerParams(k=2, r=1, **bounds))
        # members above level 1 or of other orders are not powers of Q: no shadow
        checker(CheckerParams(k=2, r=2, **bounds))
        if checker.order is None:
            checker(CheckerParams(k=3, r=1, **bounds))


def test_geometric_reads_its_literal_identity_member_through_x(monkeypatch):
    from kbonacci import identities

    def refuse(*args):
        raise AssertionError("geometric reads X(k+n), not the builders")

    monkeypatch.setattr(identities, "build_higher", refuse)
    for k in (2, 3, 4):
        for r in (1, 2):
            assert CHECKERS["geometric"](CheckerParams(k=k, r=r, n_max=4)).passed, (k, r)


def test_geometric_literal_identity_side_stays_at_class_level(monkeypatch):
    from kbonacci import identities

    dims, texts = [], []
    of = SquareMatrix._of.__func__
    monkeypatch.setattr(SquareMatrix, "_of", classmethod(lambda cls, flat, n: dims.append(n) or of(cls, flat, n)))
    monkeypatch.setattr(identities, "_text", lambda values: lambda n: texts.append(n) or str(n))
    cases = CHECKERS["geometric"](CheckerParams(k=4, r=3, n_max=3)).cases
    d = 10  # r(k-1)+1 digit sums, against k^r = 64 positions
    # every side is a term vector: no matrix is made, of any dimension
    assert dims == []
    statuses = {(c.params["reading"], c.status) for c in cases}
    assert statuses == {("corrected", HOLDS_CORRECTED), ("literal-identity", FAILS), ("literal-ones", FAILS)}
    # a side is written from its 2d - 1 values, the literal identity
    # side's diagonal from d more
    assert len(texts) == 3 * ((2 * d - 1) * 2 + d) + 3 * ((2 * d - 1) * 2)


def test_q_power_steps_from_a_kept_neighbour(monkeypatch):
    from kbonacci import identities
    from kbonacci.builders import CACHE_SIZE
    from kbonacci.sequences import term

    monkeypatch.setattr(identities, "_Q_POWERS", {})
    powers = []
    power = SquareMatrix.__pow__
    monkeypatch.setattr(SquareMatrix, "__pow__", lambda m, e: powers.append(e) or power(m, e))
    for j in (5, 6, 4, 7, 3, -1, -2, 0, 6000, 5999, 6001, -6000, -5999):
        # Q^j = [[F(j+1), F(j)], [F(j), F(j-1)]] at every integer j
        assert identities._q_power(j).rows == ((term(2, j + 1), term(2, j)), (term(2, j), term(2, j - 1)))
    # only powers with no kept neighbour are raised by squaring
    assert powers == [5, 1, 6000, 6000]
    # the kept powers are bounded
    for j in range(10, 10 + 3 * CACHE_SIZE):
        identities._q_power(j)
        assert len(identities._Q_POWERS) <= CACHE_SIZE


def test_square_series_incremental_guard(monkeypatch):
    from kbonacci import identities

    calls = iter(range(10**6))
    monkeypatch.setattr(identities, "term", lambda k, j: next(calls))
    with pytest.raises(RuntimeError, match="incremental square series disagrees"):
        check_square_series(CheckerParams(k=2, r=0, n_max=2))


# ---------------------------------------------------------------------------
# parameter validation


def test_checker_params_validation():
    for bad in ({"k": 1}, {"k": True}, {"k": 2, "r": -1}, {"k": 2, "r": 1.0}):
        with pytest.raises(ValueError):
            CheckerParams(**bad)
    for bad in ({"n_max": 0}, {"m_max": 0}, {"j_min": 3, "j_max": 2}):
        with pytest.raises(ValueError):
            CheckerParams(k=2, **bad)


def test_suite_grid_validation():
    with pytest.raises(ValueError):
        SuiteGrid(max_k=1)
    with pytest.raises(ValueError):
        SuiteGrid(max_r=0)
    grid = SuiteGrid()
    assert grid.k_values() == (2, 3, 4)
    assert grid.matrix_levels(2) == (1, 2, 3)
    assert grid.matrix_levels(3) == (1, 2)
    assert grid.matrix_levels(4) == (1, 2)
    assert SuiteGrid(max_r=3).matrix_levels(4) == (1, 2)  # 64 > dim_cap
    assert SuiteGrid(extra_fib_level=None).matrix_levels(2) == (1, 2)


def test_matrix_levels_stop_at_the_dimension_cap():
    assert SuiteGrid(max_r=40_000).matrix_levels(2) == (1, 2, 3, 4)
    assert SuiteGrid(max_r=40_000, dim_cap=64).matrix_levels(4) == (1, 2, 3)
    assert SuiteGrid(extra_fib_level=10**9).matrix_levels(2) == (1, 2)
    assert SuiteGrid(max_r=1, extra_fib_level=4, dim_cap=16).matrix_levels(2) == (1, 4)
    assert SuiteGrid(max_r=1, extra_fib_level=4, dim_cap=15).matrix_levels(2) == (1,)
    for cap in (1, 0, -8):
        assert SuiteGrid(dim_cap=cap).matrix_levels(2) == ()


@pytest.mark.parametrize(
    ("grid_type", "field", "value"),
    [
        (SuiteGrid, "max_k", 3.0),
        (SuiteGrid, "max_r", True),
        (SuiteGrid, "n_max", "4"),
        (SuiteGrid, "m_max", 4.0),
        (SuiteGrid, "j_min", True),
        (SuiteGrid, "j_max", 3.0),
        (SuiteGrid, "dim_cap", 8.0),
        (CheckerParams, "n_max", 4.0),
        (CheckerParams, "m_max", True),
        (CheckerParams, "j_min", -1.0),
        (CheckerParams, "j_max", "5"),
    ],
)
def test_grid_integer_fields_reject_other_types(grid_type, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        grid_type(**{field: value})


def test_suite_grid_extra_fib_level_must_be_a_matrix_level():
    for bad in (0, -1, True, 1.5, "3"):
        with pytest.raises(ValueError):
            SuiteGrid(extra_fib_level=bad)
    assert SuiteGrid(extra_fib_level=1).matrix_levels(2) == (1, 2)
    cases = run_suite(["fl_double"], SuiteGrid(extra_fib_level=4, j_min=0, j_max=2)).cases
    assert {c.params["r"] for c in cases} == {0, 1, 2, 4}
    assert len({json.dumps(c.params, sort_keys=True) for c in cases}) == len(cases)


# ---------------------------------------------------------------------------
# suite driver


def test_resolve_selection():
    assert resolve_selection(None) == CHECKER_IDS
    assert resolve_selection("all") == CHECKER_IDS
    assert resolve_selection(["square_sum", "geometric"]) == ("geometric", "square_sum")
    with pytest.raises(ValueError):
        resolve_selection(["geometric", "nope"])


def test_checker_registry_complete():
    assert len(CHECKER_IDS) == 15
    assert set(CHECKERS) == set(CHECKER_IDS)


def test_registry_domains_drive_suite_combos():
    grid = SuiteGrid(max_k=3, n_max=2, m_max=2, j_min=0, j_max=2)
    result = run_suite(["q_power", "square_sum", "double_shift"], grid)

    def combos(checker):
        return {(c.params["k"], c.params["r"]) for c in result.cases if c.checker == checker}

    assert combos("q_power") == {(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)}
    assert combos("square_sum") == {(2, 0), (2, 1), (2, 2), (2, 3)}
    assert combos("double_shift") == {(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2)}


def test_failing_cases_classified_once_at_creation(monkeypatch):
    import kbonacci.identities as identities

    calls = []

    def counting(checker, params):
        calls.append(checker)
        return expected_reason(checker, params)

    monkeypatch.setattr(identities, "expected_reason", counting)
    grid = SuiteGrid(max_k=3, n_max=4, m_max=4, j_min=-2, j_max=4)
    result = run_suite(["geometric", "congruence_sum", "square_diff"], grid)
    failing = [c for c in result.cases if c.status == FAILS]
    assert failing
    assert len(calls) == len(failing)
    assert all(c.reason == expected_reason(c.checker, c.params) for c in failing)
    assert all(c.reason is None for c in result.cases if c.status != FAILS)
    assert result.passed
    assert len(calls) == len(failing)  # the verdict reads the stored reason


def test_class_tables_match_dense_members_case_for_case(monkeypatch):
    # only the product checkers read _member: the linear ones run on term
    # vectors, which tests/test_differential_grids.py compares with
    # per-level runs; square_convolution still reaches every (k, r)
    from kbonacci import builders, identities

    grid = SuiteGrid(max_k=4, max_r=3, dim_cap=64)
    tables = run_suite(None, grid).cases
    levels = set()

    def dense(value, k, r, j):
        levels.add((k, r))
        return builders._layout(value, k, r, j)

    monkeypatch.setattr(identities, "_member", dense)
    assert run_suite(None, grid).cases == tables
    assert levels == {(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)}


def test_run_suite_empty_selection():
    result = run_suite(())
    assert result.suite == "none"
    assert result.cases == ()
    assert result.passed


def test_run_suite_single_checker():
    result = run_suite(["fl_double"])
    assert result.suite == "fl_double"
    assert result.cases
    assert {c.checker for c in result.cases} == {"fl_double"}
    # order-2 family: scalar + levels 1..3
    assert {c.params["r"] for c in result.cases} == {0, 1, 2, 3}


def test_default_suite_passes_with_frozen_profile(default_suite):
    assert default_suite.suite == "all"
    assert default_suite.passed
    assert default_suite.unexpected_failures() == []
    assert len(default_suite.cases) == 4985
    assert default_suite.status_counts() == {
        HOLDS: 4445,
        FAILS: 427,
        HOLDS_CORRECTED: 103,
        SKIPPED: 10,
    }


def test_default_suite_failing_families(default_suite):
    failing = {c.checker for c in default_suite.cases if c.status == FAILS}
    assert failing == {"geometric", "congruence_sum", "sum_formula", "square_convolution"}
    # every failure is a documented one
    for case in default_suite.cases:
        if case.status == FAILS:
            assert expected_reason(case.checker, case.params) is not None, case
            assert case.counterexample is not None, case


def test_default_suite_failure_substructure(default_suite):
    for case in default_suite.cases:
        if case.checker == "geometric" and case.status == FAILS:
            assert case.params["reading"] in ("literal-identity", "literal-ones")
            assert case.params["r"] >= 1
        if case.checker == "sum_formula" and case.status == FAILS:
            assert case.params["k"] >= 3 and case.params["r"] >= 1
        if case.checker == "square_convolution" and case.status == FAILS:
            assert case.params["r"] >= 1
    corrected = {c.checker for c in default_suite.cases if c.status == HOLDS_CORRECTED}
    assert corrected == {"geometric", "square_diff"}


def test_suite_cases_canonically_sorted(default_suite):
    from kbonacci.identities import _case_sort_key

    keys = [_case_sort_key(c) for c in default_suite.cases]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# report serialization


REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["suite", "grid", "cases", "pass"],
    "properties": {
        "suite": {"type": "string"},
        "pass": {"type": "boolean"},
        "generated_at": {"type": "string"},
        "grid": {
            "type": "object",
            "additionalProperties": {
                "anyOf": [
                    {"type": "string", "pattern": "^-?[0-9]+$"},
                    {"type": "null"},
                ]
            },
        },
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["id", "params", "status", "counterexample"],
                "properties": {
                    "id": {"type": "string"},
                    "params": {"type": "object"},
                    "status": {
                        "enum": ["holds", "fails", "holds-corrected", "skipped"]
                    },
                    "counterexample": {"type": ["object", "null"]},
                },
            },
        },
    },
}


def assert_no_raw_numbers(node):
    if node is None or isinstance(node, (bool, str)):
        return
    assert not isinstance(node, (int, float)), f"raw number leaked: {node!r}"
    if isinstance(node, dict):
        for key, value in node.items():
            assert isinstance(key, str)
            assert_no_raw_numbers(value)
        return
    assert isinstance(node, list), f"unexpected node: {node!r}"
    for value in node:
        assert_no_raw_numbers(value)


def test_report_schema_and_no_raw_integers(default_suite):
    data = default_suite.to_json_dict()
    jsonschema.validate(data, REPORT_SCHEMA)
    payload = json.loads(default_suite.to_json())
    assert_no_raw_numbers(payload)
    assert payload["pass"] is True
    assert payload["generated_at"]


def test_report_counterexample_values_are_strings_or_matrices(default_suite):
    data = default_suite.to_json_dict(include_timestamp=False)
    assert "generated_at" not in data
    for case in data["cases"]:
        ce = case["counterexample"]
        if ce is None:
            continue
        for side in ("lhs", "rhs"):
            value = ce[side]
            if isinstance(value, dict):
                assert set(value) == {"dim", "entries"}
            else:
                int(value)  # decimal string


def test_report_determinism():
    grid = SuiteGrid(max_k=3, n_max=6, m_max=6, j_min=-3, j_max=6)
    first = run_suite(["geometric", "fl_double"], grid)
    second = run_suite(["geometric", "fl_double"], grid)
    assert first.suite == "geometric,fl_double"
    assert first.to_json(include_timestamp=False) == second.to_json(
        include_timestamp=False
    )
    assert first == second  # generated_at excluded from comparison


def test_jsonify():
    assert jsonify(5) == "5"
    assert jsonify(-13) == "-13"
    assert jsonify(True) is True
    assert jsonify(None) is None
    assert jsonify({"a": [1, "x", False]}) == {"a": ["1", "x", False]}
    assert jsonify((1, 2)) == ["1", "2"]
    with pytest.raises(TypeError):
        jsonify(1.5)
    with pytest.raises(TypeError):
        jsonify(object())


# ---------------------------------------------------------------------------
# expectation table


def test_expected_reason_geometric():
    assert expected_reason("geometric", {"k": 2, "r": 1, "reading": "literal-identity"})
    assert expected_reason("geometric", {"k": 4, "r": 2, "reading": "literal-ones"})
    assert expected_reason("geometric", {"k": 2, "r": 1, "reading": "corrected"}) is None
    assert expected_reason("geometric", {"k": 2, "r": 0, "n": 3}) is None


def test_expected_reason_congruence_sum():
    for k in (2, 3, 4):
        for r in (0, 1, 2):
            assert expected_reason("congruence_sum", {"k": k, "r": r, "m": 1})


def test_expected_reason_sum_formula():
    assert expected_reason("sum_formula", {"k": 3, "r": 1, "n": 1})
    assert expected_reason("sum_formula", {"k": 4, "r": 2, "n": 5})
    assert expected_reason("sum_formula", {"k": 2, "r": 1, "n": 1}) is None
    assert expected_reason("sum_formula", {"k": 3, "r": 0, "n": 1}) is None


def test_expected_reason_square_convolution():
    assert expected_reason("square_convolution", {"k": 2, "r": 1, "n": 0})
    assert expected_reason("square_convolution", {"k": 2, "r": 0, "n": 4}) is None


def test_expected_reason_unlisted_checker():
    assert expected_reason("double_shift", {"k": 2, "r": 1, "j": 0}) is None
    assert expected_reason("q_power", {"k": 2, "r": 1, "j": 1}) is None


def test_expectation_table_shape():
    assert len(EXPECTED_DEVIATIONS) == 4
    checkers = {rule.checker for rule in EXPECTED_DEVIATIONS}
    assert checkers == {
        "geometric",
        "congruence_sum",
        "sum_formula",
        "square_convolution",
    }
    for rule in EXPECTED_DEVIATIONS:
        assert rule.reason

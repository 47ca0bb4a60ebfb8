"""The value records' contract: field names, order and defaults,
construction, immutability, the checks of the two grids, repr, and
SuiteResult's equality.

Seven records are namedtuple subclasses, so each also equals a plain
tuple of the same values; SuiteResult is a SuiteRun subclass.
"""

from __future__ import annotations

import re

import pytest

from kbonacci import identities
from kbonacci import (
    BackwardBlock,
    BenchRow,
    BlockProperties,
    CheckCase,
    CheckerParams,
    ExpectedDeviation,
    SuiteGrid,
    SuiteResult,
    SuiteRun,
    backward_block,
    run_suite,
)

# record: (field names in order, defaults, one valid value per field)
RECORDS = {
    CheckerParams: (
        ("k", "r", "n_max", "m_max", "j_min", "j_max"),
        {"k": 2, "r": 0, "n_max": 12, "m_max": 12, "j_min": -6, "j_max": 12},
        (3, 1, 4, 5, -2, 7),
    ),
    CheckCase: (
        ("checker", "params", "status", "counterexample", "reason"),
        {"counterexample": None, "reason": None},
        ("geometric", {"k": 2, "r": 0, "n": 1}, "fails", {"lhs": "1", "rhs": "2"}, "why"),
    ),
    SuiteGrid: (
        ("max_k", "max_r", "n_max", "m_max", "j_min", "j_max", "dim_cap", "extra_fib_level"),
        {"max_k": 4, "max_r": 2, "n_max": 12, "m_max": 12, "j_min": -6, "j_max": 12, "dim_cap": 27, "extra_fib_level": 3},
        (3, 1, 4, 5, -2, 7, 9, None),
    ),
    BackwardBlock: (("order", "index", "values"), {}, (3, 2, (4, -8, 5))),
    BlockProperties: (
        (
            "alternating_signs",
            "zero_sum",
            "leading_matches_forward",
            "leading_is_power_of_two",
            "last_nonzero_unit",
            "second_last_odd",
            "interior_even",
        ),
        {},
        (True, False, True, True, False, False, True),
    ),
    ExpectedDeviation: (
        ("checker", "reason", "min_k", "min_r", "readings"),
        {"min_k": 2, "min_r": 0, "readings": None},
        ("geometric", "why", 3, 1, ("literal-ones",)),
    ),
    BenchRow: (("j", "iter_seconds", "qpow_seconds", "digits"), {}, (10, 0.5, 0.25, 2)),
}

GENERATED_AT = re.compile(r"^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00$")


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_fields_order_and_defaults(record):
    names, defaults, _ = RECORDS[record]
    assert record._fields == names
    assert record._field_defaults == defaults
    made = record(*(defaults.get(name) for name in names[: len(names) - len(defaults)]))
    for name, value in defaults.items():
        assert getattr(made, name) == value


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_positional_and_keyword_construction(record):
    names, _, values = RECORDS[record]
    by_position = record(*values)
    by_keyword = record(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, name) for name in names) == values
    assert by_keyword._asdict() == dict(zip(names, values))
    # a record equals a plain tuple of the same values
    assert by_position == values
    with pytest.raises(TypeError):
        record(*values, values[0])


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_assignment_raises(record):
    names, _, values = RECORDS[record]
    made = record(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(made, name, values[0])
    with pytest.raises(AttributeError):
        made.extra = 1
    assert tuple(made) == values


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"k": 1}, "order must be an integer >= 2, got 1"),
        ({"k": True}, "order must be an integer >= 2, got True"),
        ({"r": -1}, "level must be an integer >= 0, got -1"),
        ({"n_max": 0}, "n_max must be an integer >= 1, got 0"),
        ({"m_max": 2.0}, "m_max must be an integer >= 1, got 2.0"),
        ({"j_min": "0"}, "j_min must be an integer, got '0'"),
        ({"j_min": 13}, "empty parameter grid"),
    ],
)
def test_checker_params_refusals(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CheckerParams(**kwargs)
    # _replace builds through the same checks
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CheckerParams()._replace(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_k": 1}, "max_k must be an integer >= 2, got 1"),
        ({"max_r": 0}, "max_r must be an integer >= 1, got 0"),
        ({"n_max": None}, "n_max must be an integer >= 1, got None"),
        ({"j_max": -7}, "empty parameter grid"),
        ({"dim_cap": 2.5}, "dim_cap must be an integer, got 2.5"),
        ({"extra_fib_level": 0}, "extra_fib_level must be an integer >= 1, got 0"),
    ],
)
def test_suite_grid_refusals(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SuiteGrid(**kwargs)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SuiteGrid()._replace(**kwargs)


def test_reprs_keep_their_text():
    case = CheckCase("geometric", {"k": 2, "r": 0, "n": 1}, "holds")
    assert repr(case) == (
        "CheckCase(checker='geometric', params={'k': 2, 'r': 0, 'n': 1}, status='holds', "
        "counterexample=None, reason=None)"
    )
    assert repr(CheckerParams()) == "CheckerParams(k=2, r=0, n_max=12, m_max=12, j_min=-6, j_max=12)"
    assert repr(backward_block(3, 2)) == "BackwardBlock(order=3, index=2, values=(4, -8, 5))"
    result = SuiteResult("geometric", {"k": 2}, [case], "2026-01-01T00:00:00+00:00")
    assert repr(result) == (
        f"SuiteResult(suite='geometric', grid={{'k': 2}}, cases=({case!r},), "
        "generated_at='2026-01-01T00:00:00+00:00')"
    )


def test_check_case_unexpected():
    assert CheckCase("x", {}, "fails").unexpected
    assert not CheckCase("x", {}, "fails", reason="documented").unexpected
    assert not CheckCase("x", {}, "holds").unexpected


@pytest.mark.parametrize(
    "fields",
    [
        ("geometric", {"k": 2, "r": 0, "n": 1}, "holds", None, None),
        ("power_expansion", {"k": 2, "r": 0, "n": 2, "note": "requires 1 <= n <= k-1"}, "skipped", None, None),
        ("sum_formula", {"k": 3, "r": 1, "n": 1}, "fails", {"lhs": "1", "params": {}, "rhs": "2"}, None),
        ("sum_formula", {"k": 3, "r": 1, "n": 1}, "fails", {"lhs": "1", "params": {}, "rhs": "2"}, "documented"),
        ("square_diff", {"k": 2, "r": 2, "n": 0}, "holds-corrected", {"lhs": "5", "params": {}, "rhs": "25"}, None),
    ],
)
def test_a_case_built_past_the_constructor_is_the_constructed_case(fields):
    # the suite builds its cases with tuple.__new__ on all five fields
    fast, made = identities._tuple_new(CheckCase, fields), CheckCase(*fields)
    assert type(fast) is CheckCase and fast == made
    assert repr(fast) == repr(made)
    assert fast.unexpected is made.unexpected
    assert fast._asdict() == made._asdict()
    for change in ({"status": "holds"}, {"reason": "why"}, {"counterexample": None}, {"params": {}}):
        assert fast._replace(**change) == made._replace(**change)
        assert repr(fast._replace(**change)) == repr(made._replace(**change))


def test_the_suite_builds_its_cases_past_the_constructor():
    # every case of a run, made by _case or skipped, equals the same fields
    # through CheckCase(...)
    cases = run_suite(["power_expansion", "square_diff", "sum_formula"]).cases
    assert {c.status for c in cases} == {"holds", "fails", "holds-corrected", "skipped"}
    for case in cases:
        made = CheckCase(*case)
        assert (case, repr(case), case.unexpected) == (made, repr(made), made.unexpected)


def test_suite_result_construction_and_equality():
    cases = [CheckCase("x", {"k": 2}, "holds"), CheckCase("x", {"k": 3}, "fails")]
    by_position = SuiteResult("x", {"k": 2}, cases, "2026-01-01T00:00:00+00:00")
    by_keyword = SuiteResult(suite="x", grid={"k": 2}, cases=iter(cases))
    assert isinstance(by_position, SuiteRun)
    assert by_position.cases == tuple(cases) and by_keyword.generated_at == ""
    assert by_position.status_counts() == {"holds": 1, "fails": 1, "holds-corrected": 0, "skipped": 0}
    assert by_position.unexpected_failures() == [cases[1]] and not by_position.passed
    # equality reads suite, grid and cases, never generated_at
    assert by_position == by_keyword
    assert by_position != SuiteResult("y", {"k": 2}, cases)
    assert by_position != SuiteResult("x", {"k": 3}, cases)
    assert by_position != SuiteResult("x", {"k": 2}, cases[:1])
    assert by_position != ("x", {"k": 2}, tuple(cases))
    with pytest.raises(TypeError):
        hash(by_position)


def test_generated_at_is_utc_to_the_second():
    grid = SuiteGrid(max_k=2, max_r=1, n_max=2, m_max=2, j_min=0, j_max=2)
    result = run_suite(["geometric"], grid)
    assert GENERATED_AT.match(result.generated_at), result.generated_at
    assert GENERATED_AT.match(SuiteRun(["geometric"], grid).generated_at)
    assert result.grid == grid._asdict()

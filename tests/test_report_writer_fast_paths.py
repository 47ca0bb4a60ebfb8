"""Tests for the report writers' fast paths and the payload rows they read.

json_chunks is a plain JSON writer: a nonempty list or tuple of strings
(a matrix row) is one join, and every other list, tuple or dict is
written item by item.  SuiteRun writes its own cases, from one template
per case shape (checker, status, param names and types, and whether
there is a counterexample) filled from each case's params, and each
distinct row object of a payload table once; a streamed run and a
collected SuiteResult write a case the same way, from the case alone.
All must give exactly what json.dumps writes, with ints quoted or not,
on values that mix repeated rows, rows of mixed types, empty rows,
case-shaped dicts of every near shape and generators of them, on reports
of CheckCases of every status and payload, and on keys, strings and
ints that would trip a careless template.  A top-level list still
streams item by item.  The payload of a class table or a term vector
shares one list between the rows of equal digit sum; to_json_dict and
jsonify must still hand out lists of their own.  Payload cells are
written by str up to LEAF_DIGITS digits and by decimal_text past them,
with the same texts.
"""

from __future__ import annotations

import json
import sys
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbonacci import identities
from kbonacci.builders import _digit_sums, build_higher
from kbonacci.identities import (
    CHECKERS,
    FAILS,
    HOLDS,
    HOLDS_CORRECTED,
    SKIPPED,
    SuiteGrid,
    SuiteResult,
    SuiteRun,
    _case,
    _case_sort_key,
    _cut,
    _member,
    _serialize,
    _text,
    _units,
    _vectors,
    json_chunks,
    jsonify,
)
from kbonacci.matrix import LEAF_DIGITS, decimal_text, identity, to_json_dict
from kbonacci.sequences import term

TEXT = st.text(max_size=4) | st.sampled_from(['"', "\\", "\n", "é中", "null", "{}"])
INTS = st.integers(-(10**40), 10**40)
SCALARS = INTS | st.booleans() | st.none() | TEXT
ROWS = (
    st.lists(TEXT, min_size=1, max_size=4)
    | st.lists(TEXT, min_size=1, max_size=4).map(tuple)
    # mixed types, nested and empty rows take the generic path
    | st.lists(SCALARS, max_size=4)
    | st.lists(st.lists(TEXT, max_size=2), max_size=2)
    | st.sampled_from([[], ()])
)


class Gen(list):
    """A generator in the blueprint of a value; build() makes it one."""


@st.composite
def shared_rows(draw):
    """A list or tuple in which the same row objects repeat."""
    distinct = draw(st.lists(ROWS, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=8))
    rows = [distinct[i] for i in picks]
    return tuple(rows) if draw(st.booleans()) else rows


PAYLOADS = shared_rows() | st.fixed_dictionaries({"dim": INTS, "entries": shared_rows()})
PARAMS = st.dictionaries(st.sampled_from("jkmnr"), INTS, max_size=4)


@st.composite
def cases(draw):
    """A dict of a report case's four keys, or of a near shape."""
    params = draw(PARAMS)
    if draw(st.booleans()):
        params["note"] = draw(TEXT)
    case = {
        "counterexample": draw(st.none() | st.fixed_dictionaries({"lhs": PAYLOADS, "rhs": PAYLOADS})),
        "id": draw(TEXT | SCALARS | shared_rows()),
        "params": params,
        "status": draw(TEXT | SCALARS),
    }
    if draw(st.booleans()):
        case[draw(TEXT | st.just("reason"))] = draw(SCALARS | shared_rows())
    return case


ITEMS = cases() | shared_rows() | PARAMS | SCALARS
BLUEPRINTS = (
    st.lists(ITEMS, max_size=5)
    | st.lists(ITEMS, max_size=5).map(Gen)
    | st.dictionaries(TEXT, ITEMS | st.lists(cases(), max_size=4).map(Gen), max_size=4)
)


def build(blueprint):
    """The value a blueprint stands for: each Gen a generator of its items,
    at the top or as a dict value; every other object as it is, so repeated
    objects stay one."""
    if isinstance(blueprint, Gen):
        return (item for item in blueprint)
    if isinstance(blueprint, dict):
        return {key: build(item) if isinstance(item, Gen) else item for key, item in blueprint.items()}
    return blueprint


@settings(max_examples=300, deadline=None)
@given(BLUEPRINTS)
def test_fast_paths_match_json_dumps(blueprint):
    expected = json.dumps(jsonify(blueprint), indent=2, sort_keys=True)
    assert "".join(json_chunks(build(blueprint))) == expected
    assert "".join(json_chunks(build(blueprint), quote_ints=True)) == expected
    expected = json.dumps(blueprint, indent=2, sort_keys=True)
    assert "".join(json_chunks(build(blueprint), quote_ints=False)) == expected


def test_a_repeated_row_is_written_at_its_own_depth():
    row = ["1", "2"]
    value = {"a": [row, [row, row], (row,)], "b": row}
    for quote_ints in (False, True):
        assert "".join(json_chunks(value, quote_ints)) == json.dumps(value, indent=2, sort_keys=True)


class Text(str):
    """A str subclass: written as the str it holds."""


# A row of strings is one join and one escape check; these rows reach the
# check's edges: an item of a str subclass, one item that needs escaping
# and comes last, a two-byte character and a quote whose byte counts
# cancel, a non-string after strings, and a tuple.
ESCAPED_LAST = ['"', "\\", "\x00", "\x7f", "é", "\U0001f600"]
EDGE_ROWS = [
    [Text("1"), Text("-2"), Text("x")],
    *(["12", "-3", "ab", "c" + last] for last in ESCAPED_LAST),
    *(["12", "-3", last] for last in ESCAPED_LAST),
    ["12", "é", '"'],
    ["1", "2", "3", 4],
    ["1", "2", "3", None],
    ("1", "-2", "3"),
]


@pytest.mark.parametrize("row", EDGE_ROWS, ids=repr)
@pytest.mark.parametrize("quote_ints", [True, False])
def test_row_fast_path_edges_match_json_dumps(row, quote_ints):
    # the row below the top level, repeated, at two depths
    value = {"deep": {"rows": [row, row]}, "rows": [row]}
    expected = json.dumps(jsonify(value) if quote_ints else value, indent=2, sort_keys=True)
    assert "".join(json_chunks(value, quote_ints)) == expected
    if all(isinstance(item, str) for item in row):
        assert expected == json.dumps(jsonify(value), indent=2, sort_keys=True)


LEVELS = [(k, r) for k in (2, 3, 4) for r in range(1, 7) if k**r <= 64]


@pytest.mark.parametrize("k, r", LEVELS)
@pytest.mark.parametrize("j", [-7, 0, 5])
def test_payload_rows_of_equal_digit_sum_are_one_list(k, r, j):
    table = _member(partial(term, k), k, r, j)
    payload = _serialize(table, k, r)
    assert payload == to_json_dict(build_higher(k, r, j))
    ds = _digit_sums(k, r)[0]
    rows = payload["entries"]
    for R, row in enumerate(rows):
        assert all(type(entry) is str for entry in row)
        for C, other in enumerate(rows):
            assert (row is other) == (ds[R] == ds[C])


@pytest.mark.parametrize("k, r", [(k, r) for k, r in LEVELS if r >= 2])
def test_copies_of_a_payload_do_not_share_rows(k, r):
    table = _member(partial(term, k), k, r, 3)
    case = _case("mixed", {"k": k, "r": r}, table, 2 * table)
    assert case.status == FAILS
    shared = case.counterexample["lhs"]["entries"]
    twins = [R for R, row in enumerate(shared) if row is shared[1]]
    assert len(twins) >= 2
    before = jsonify(case.counterexample)
    copies = [
        jsonify(case.counterexample)["lhs"]["entries"],
        SuiteResult("mixed", {}, (case,)).to_json_dict()["cases"][0]["counterexample"]["lhs"]["entries"],
    ]
    for entries in copies:
        assert entries == shared
        entries[twins[0]][0] = "changed"
        assert entries[twins[1]] == shared[twins[1]] != entries[twins[0]]
    assert jsonify(case.counterexample) == before


# Template fast paths: json_chunks writes a dict of scalars from one
# %-format template per shape of keys, and a case-shaped dict as any other
# dict.  Keys and strings hold what would break an unescaped template;
# bools must not take an int's slot; ints cross 10^600, where decimal_text
# divides and conquers, and the 4,300-digit int-to-text limit, where %
# raises.
SIGN = st.sampled_from((1, -1))
DIGITS = st.sampled_from([600, 4299, 4300, 4400])
BIG = st.builds(lambda sign, digits, low: sign * (10**digits + low), SIGN, DIGITS, st.integers(0, 10**9))
BRACED = st.text(alphabet='{}"\\é中\U0001f600 ab0:!%', max_size=6) | st.sampled_from(["{0}", "{}", "}{", "{k}", "%d"])
NAMES = st.sampled_from(["j", "k", "m", "n", "r", "s", "note", "part", "reading"]) | BRACED
VALUES = INTS | BIG | st.booleans() | st.none() | st.floats(allow_nan=False, allow_infinity=False) | BRACED
FLAT = st.dictionaries(NAMES, VALUES, max_size=5)
PLAIN_CASES = st.fixed_dictionaries(
    {
        "counterexample": st.none(),
        "id": BRACED | st.sampled_from(["geometric", "lucas_pair", "power_expansion"]),
        "params": FLAT,
        "status": BRACED | st.sampled_from(["holds", "skipped"]),
    }
)


def quoted(value):
    """jsonify's copy of value, with floats kept."""
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {key: quoted(v) for key, v in value.items()}
    if isinstance(value, list):
        return [quoted(v) for v in value]
    return jsonify(value)


def bare(value) -> str:
    """json.dumps of value, ints as numbers, with the int-to-text limit lifted."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    limit = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(0)
    try:
        return json.dumps(value, indent=2, sort_keys=True)
    finally:
        if set_limit:
            set_limit(limit)


@settings(max_examples=300, deadline=None)
@given(st.lists(FLAT | PLAIN_CASES, max_size=4))
@example([{"k": True, "r": False, "n": 1}, {"counterexample": None, "id": "{0}", "params": {"{}": 2}, "status": "}"}])
@example([{"counterexample": None, "id": "x", "params": {"n": 10**5000, "m": 10**600}, "status": "holds"}])
def test_templates_match_json_dumps_at_two_depths(items):
    # the items sit at depth 1, and at depth 3 below the dict and list
    for value in (items, {"deep": [{"items": items}], "top": items}):
        assert "".join(json_chunks(value)) == json.dumps(quoted(value), indent=2, sort_keys=True)
        assert "".join(json_chunks(value, quote_ints=False)) == bare(value)


@given(st.lists(INTS | BIG, max_size=30))
def test_a_top_level_list_is_written_item_by_item(values):
    for value in (values, (v for v in values), {"values": values}):
        assert len(list(json_chunks(value))) >= len(values)


@pytest.mark.parametrize("k, r", LEVELS)
@pytest.mark.parametrize("c", [0, 3])
def test_literal_identity_payload_rows_are_lists_of_their_own(k, r, c):
    """c*I - m, m a level's vector: with c != 0 each row is a list of its
    own, as its diagonal entry differs from the rest of its class; with
    c = 0 it is -m, whose rows of one class are one list."""
    member = _vectors("F", k, r * (k - 1), 4)
    lhs, side = next(_cut([({}, member, c * _units(member)[0] - member)], k, r, r))[1:]
    payload = _serialize(side, k, r)
    dense = c * identity(k**r) - build_higher(k, r, 4)
    assert payload == to_json_dict(dense)
    rows = payload["entries"]
    ds = _digit_sums(k, r)[0]
    classes = len(ds) if c else len(set(ds))
    assert len({id(row) for row in rows}) == classes and len(rows) == k**r
    assert all(type(row) is list for row in rows)
    assert [row[R] for R, row in enumerate(rows)] == [decimal_text(dense.entry(R, R)) for R in range(k**r)]

    case = _case("geometric", {"k": k, "r": r}, lhs, side)
    assert case.status == FAILS
    own = case.counterexample["rhs"]["entries"]
    before = [list(row) for row in own]
    copy = jsonify(case.counterexample)["rhs"]["entries"]
    copy[0][0] = "changed"
    copy[-1].append("extra")
    assert own == before


def test_payload_cells_past_leaf_digits_are_written_by_decimal_text():
    """A failing case whose values pass 10^LEAF_DIGITS, and the
    interpreter's own str limit, is written from decimal_text: as a term
    vector and as a class table, at both ends of the range."""
    assert _text([10**LEAF_DIGITS - 1, 1 - 10**LEAF_DIGITS]) is str
    assert _text([0, 10**LEAF_DIGITS]) is _text([-(10**LEAF_DIGITS), 0]) is decimal_text
    k, r = 3, 2
    for j in (3000, -6000, 17000):
        dense = build_higher(k, r, j)
        assert max(abs(e) for row in dense.rows for e in row) > 10**LEAF_DIGITS
        vector = _vectors("F", k, r * (k - 1), j)
        table = _member(partial(term, k), k, r, j)
        for sides in (next(_cut([({}, vector, 2 * vector)], k, r, r))[1:], (table, 2 * table)):
            case = _case("mixed", {"k": k, "r": r}, *sides)
            assert case.status == FAILS
            assert case.counterexample["lhs"] == to_json_dict(dense)
            assert case.counterexample["rhs"] == to_json_dict(2 * dense)


# SuiteRun's case writer: a report of CheckCases made by _case, of every
# status, with params of every shape the checkers use (note, reading,
# part) and of values that would trip a template, and counterexamples of
# decimal text, class tables whose rows of one digit sum are one list and
# cut vectors with c != 0 on their diagonal.  A case fills its template
# from its params, typed once for all exact ints; bools, strings, None
# and int subclasses type it by each value.  Counterexamples of
# any other shape (params that are not the case's own objects, sides
# that are no payload) take the generic writer.
class Index(int):
    """An int subclass with a text of its own, which jsonify writes below
    10^600 (decimal_text's str) and not past it."""

    def __str__(self):
        return f"Index({int.__repr__(self)})"


CASE_TEXT = BRACED | st.sampled_from(["%", "%s", "100%", "{}", '"', "\\", "é中", "requires 1 <= n <= k-1"])
PARAM_VALUES = (
    INTS
    | BIG
    | st.sampled_from([10**600, -(10**600)])
    | st.booleans()
    | st.none()
    | CASE_TEXT
    | st.builds(Index, INTS | BIG | st.just(10**600))
)
PARAM_NAMES = st.sampled_from(["n", "j", "m", "s", "note", "reading", "part"]) | BRACED
SIDES = PAYLOADS | INTS | st.none() | st.just("12") | st.sampled_from([{"dim": 1, "entries": []}, {"dim": None, "entries": [["1"]]}])


@st.composite
def report_cases(draw):
    """A CheckCase made by _case, of a drawn status and kind of side, or
    such a case with a counterexample of another shape."""
    status = draw(st.sampled_from([HOLDS, SKIPPED, FAILS, HOLDS_CORRECTED]))
    side = draw(st.sampled_from(["int", "table", "vector"]))
    k, r = (draw(st.integers(2, 4)), 0) if side == "int" else draw(st.sampled_from(LEVELS))
    params = {"k": k, "r": r, **draw(st.dictionaries(PARAM_NAMES, PARAM_VALUES, max_size=3))}
    if side == "int":
        lhs, other = draw(INTS | BIG), draw(INTS | BIG)
    elif side == "table":
        lhs, other = (_member(partial(term, k), k, r, draw(st.integers(-8, 12))) for _ in "ab")
    else:
        top = r + draw(st.integers(0, 1))
        v, w = (_vectors("F", k, top * (k - 1), draw(st.integers(-8, 12))) for _ in "ab")
        c = draw(st.integers(1, 5) | st.just(2**70))
        lhs, other = next(_cut([({}, c * _units(v)[0] - v, w)], k, top, r))[1:]
    rhs = lhs if status in (HOLDS, SKIPPED) else lhs + other
    checker = draw(CASE_TEXT | st.sampled_from(["geometric", "sum_formula", "lucas_pair"]))
    corrected = lhs if status == HOLDS_CORRECTED else None
    case = _case(checker, params, lhs, rhs, corrected, SKIPPED if status == SKIPPED else HOLDS)
    odd = draw(st.sampled_from([None, "params", "sides", "shape"]))
    if odd is None:
        return case
    cx = case.counterexample or {"lhs": "1", "params": dict(params), "rhs": "2"}
    if odd == "params":
        name = draw(st.sampled_from(sorted(params)))
        # an equal value of another type, another value, or one key less
        value = params[name]
        swap = (True if value == 1 else Index(value)) if type(value) is int else [value]
        changed = {**params, name: draw(st.just(swap) | PARAM_VALUES)}
        cx = {**cx, "params": draw(st.sampled_from([changed, {key: params[key] for key in params if key != name}]))}
    elif odd == "sides":
        cx = {**cx, draw(st.sampled_from(["lhs", "rhs"])): draw(SIDES)}
    else:
        cx = draw(st.sampled_from([{**cx, "extra": None}, {"lhs": cx["lhs"], "rhs": cx["rhs"]}, "1", [cx["lhs"]]]))
    return case._replace(counterexample=cx)


# one stream: fl_double at k = 2, r = 0 only
ONE_STREAM = SuiteGrid(max_k=2, dim_cap=1, extra_fib_level=None)


def streamed(cases):
    """A SuiteRun whose one stream yields cases, one per sort key, in
    report order, and those cases."""
    keyed = {}
    for case in cases:
        keyed.setdefault(_case_sort_key(case), case)
    ordered = [keyed[key] for key in sorted(keyed)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CHECKERS["fl_double"], "stream", lambda p: iter(ordered))
        return SuiteRun(["fl_double"], ONE_STREAM), ordered


@settings(max_examples=150, deadline=None)
@given(st.lists(report_cases(), max_size=6), CASE_TEXT, st.dictionaries(CASE_TEXT, INTS, max_size=2), CASE_TEXT)
@example([], "none", {}, "")
def test_the_case_writer_matches_json_dumps(cases, suite, grid, generated_at):
    result = SuiteResult(suite, grid, cases, generated_at)
    for include_timestamp in (False, True):
        expected = json.dumps(result.to_json_dict(include_timestamp), indent=2, sort_keys=True)
        assert result.to_json(include_timestamp) == expected
    assert len(list(result.json_chunks())) >= len(cases)
    # the streamed report, each case written from the key the run made
    for include_timestamp in (False, True):
        run, ordered = streamed(cases)
        text = run.to_json(include_timestamp)
        result = SuiteResult(run.suite, run.grid, ordered, run.generated_at)
        assert text == json.dumps(result.to_json_dict(include_timestamp), indent=2, sort_keys=True)
        assert (run.counts, run.unexpected) == (result.counts, result.unexpected)


def test_counterexamples_of_other_shapes_take_the_generic_writer(monkeypatch):
    written = []
    plain = identities._write

    def spy(value, *args):
        written.append(value)
        return plain(value, *args)

    monkeypatch.setattr(identities, "_write", spy)
    table = _member(partial(term, 3), 3, 2, 4)
    own = _case("sum_formula", {"k": 3, "r": 2, "n": 1}, table, 2 * table)
    cx = own.counterexample
    others = [
        {**cx, "params": {**cx["params"], "n": True}},  # equal, but not the case's own objects
        {**cx, "params": {"k": 3, "r": 2}},
        {**cx, "lhs": 5},
        {**cx, "rhs": {"dim": 9, "entries": []}},
        {**cx, "rhs": {"dim": 9, "entries": [["1"], "ab"]}},
        {**cx, "rhs": {"dim": 9, "entries": [["1"], ["2", 3]]}},
        {**cx, "extra": None},
        "text",
    ]
    for counterexample in (cx, *others):
        case = own._replace(counterexample=counterexample)
        for report in (SuiteResult("x", {}, [case]), streamed([case])[0]):
            expected = SuiteResult(report.suite, report.grid, [case], report.generated_at).to_json_dict()
            written.clear()
            assert report.to_json() == json.dumps(expected, indent=2, sort_keys=True)
            assert any(value is counterexample for value in written) is (counterexample is not cx)

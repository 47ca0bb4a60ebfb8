"""Exact matrix arithmetic tests: ring laws on seeded random matrices,
powers against a repeated-multiplication oracle, block round trips, and
serialization."""

from __future__ import annotations

import random

import pytest

from kbonacci.builders import build_base, build_higher, build_lucas, build_q, fast_f
from kbonacci.matrix import (
    SquareMatrix,
    compose,
    decompose,
    from_json_dict,
    identity,
    to_json_dict,
    to_text,
    zeros,
)
from kbonacci.sequences import term

# documented seed for every randomized case in this module
SEED = 20260819


def random_matrix(rng: random.Random, dim: int) -> SquareMatrix:
    return SquareMatrix(
        [[rng.randint(-50, 50) for _ in range(dim)] for _ in range(dim)]
    )


def test_ring_laws_on_200_random_cases():
    rng = random.Random(SEED)
    for _ in range(200):
        dim = rng.randint(1, 9)
        a = random_matrix(rng, dim)
        b = random_matrix(rng, dim)
        c = random_matrix(rng, dim)
        scalar = rng.randint(-9, 9)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * identity(dim) == identity(dim) * a == a
        assert a * zeros(dim) == zeros(dim) * a == zeros(dim)
        assert a + zeros(dim) == a
        assert a - a == zeros(dim)
        assert -a == (-1) * a
        assert scalar * a == a * scalar == a.scale(scalar)
        assert scalar * (a * b) == (scalar * a) * b == a * (scalar * b)


def test_round_trip_on_200_random_cases():
    rng = random.Random(SEED)
    for _ in range(200):
        dim = rng.randint(1, 9)
        a = random_matrix(rng, dim)
        assert from_json_dict(to_json_dict(a)) == a
        parsed = SquareMatrix([[int(cell) for cell in line.split()] for line in to_text(a).splitlines()])
        assert parsed == a


def test_block_round_trip_on_random_grids():
    rng = random.Random(SEED)
    for _ in range(50):
        k = rng.randint(1, 3)
        inner = rng.randint(1, 3)
        grid = [[random_matrix(rng, inner) for _ in range(k)] for _ in range(k)]
        composed = compose(grid)
        assert composed.dim == k * inner
        assert decompose(composed, k) == grid


def test_pow_matches_repeated_multiplication():
    rng = random.Random(SEED)
    for _ in range(40):
        dim = rng.randint(1, 5)
        a = random_matrix(rng, dim)
        e = rng.randint(0, 16)
        expected = identity(dim)
        for _ in range(e):
            expected = expected * a
        assert a**e == expected


def test_pow_basics_and_errors():
    q = SquareMatrix([[1, 1], [1, 0]])
    assert q**0 == identity(2)
    assert q**1 == q
    assert q**2 == SquareMatrix([[2, 1], [1, 1]])
    assert q**5 == SquareMatrix([[8, 5], [5, 3]])
    for bad in (-1, 2.0, True):
        with pytest.raises(ValueError):
            q**bad


def test_pow_large_exponent_is_exact():
    # no overflow: cross-check a large power against the sequence engine
    q = SquareMatrix([[1, 1], [1, 0]])
    big = q**300
    assert big.entry(0, 1) == term(2, 300)
    assert big.entry(0, 0) == term(2, 301)
    assert big.entry(1, 1) == term(2, 299)


def test_scalar_multiple_frozen():
    assert 5 * SquareMatrix([[3, 2], [2, 1]]) == SquareMatrix([[15, 10], [10, 5]])


def test_mul_frozen():
    q = SquareMatrix([[1, 1], [1, 0]])
    assert q * q == SquareMatrix([[2, 1], [1, 1]])


def test_construction_validation():
    with pytest.raises(ValueError):
        SquareMatrix([])
    with pytest.raises(ValueError):
        SquareMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        SquareMatrix([[1, 2]])
    with pytest.raises(ValueError):
        SquareMatrix([[1, 2.5], [3, 4]])
    with pytest.raises(ValueError):
        SquareMatrix([[1, True], [3, 4]])
    for bad in ("2.5", 2.5, True, None):
        with pytest.raises(ValueError):
            from_json_dict({"dim": 2, "entries": [["1", bad], ["3", "4"]]})
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "entries": [["1", "2"], ["3"]]})
    for bad_dim in (True, 1.0, " 1", None):
        with pytest.raises(ValueError):
            from_json_dict({"dim": bad_dim, "entries": [["5"]]})
    assert from_json_dict({"dim": "1", "entries": [["5"]]}) == SquareMatrix([[5]])


def assert_well_formed(m: SquareMatrix) -> None:
    """m is what the checking constructor would make of its rows (tuples
    compare unequal to lists), and every entry is an exact int."""
    assert SquareMatrix(m.rows) == m
    assert all(type(e) is int for row in m.rows for e in row)


def test_trusted_results_are_well_formed():
    rng = random.Random(SEED)
    for _ in range(100):
        k = rng.randint(1, 3)
        inner = rng.randint(1, 3)
        dim = k * inner
        a, b = random_matrix(rng, dim), random_matrix(rng, dim)
        results = [a + b, a - b, -a, a.scale(rng.randint(-9, 9)), a * b, a ** rng.randint(0, 5)]
        results.append(compose([[random_matrix(rng, inner) for _ in range(k)] for _ in range(k)]))
        results.extend(block for row in decompose(a, k) for block in row)
        results += [identity(dim), zeros(dim)]
        for m in results:
            assert_well_formed(m)
    for k in (2, 3, 4):
        for r in (1, 2):
            for j in (-3, 0, 1, 7):
                assert_well_formed(build_higher(k, r, j))
                assert_well_formed(build_base(k, j))
            assert_well_formed(build_q(k, r))
            assert_well_formed(fast_f(k, r, 5))
    for r in (1, 2, 3):
        assert_well_formed(build_lucas(r, -2))


def test_dimension_mismatch_raises():
    a = identity(2)
    b = identity(3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b
    with pytest.raises(ValueError):
        a * b


def test_immutability():
    a = identity(2)
    with pytest.raises(AttributeError):
        a.dim = 3
    assert isinstance(a.rows, tuple)
    assert isinstance(a.rows[0], tuple)


def test_identity_zeros_validation():
    with pytest.raises(ValueError):
        identity(0)
    with pytest.raises(ValueError):
        zeros(-1)
    assert identity(1) == SquareMatrix([[1]])


def test_compose_validation():
    with pytest.raises(ValueError):
        compose([])
    with pytest.raises(ValueError):
        compose([[identity(2), identity(2)]])
    with pytest.raises(ValueError):
        compose([[identity(2), identity(2)], [identity(2), identity(3)]])


def test_decompose_validation():
    with pytest.raises(ValueError):
        decompose(identity(4), 3)
    with pytest.raises(ValueError):
        decompose(identity(4), 0)


def test_json_frozen_shape():
    m = SquareMatrix([[15, 10], [10, 5]])
    assert to_json_dict(m) == {"dim": 2, "entries": [["15", "10"], ["10", "5"]]}
    assert from_json_dict({"dim": "2", "entries": [["1", "2"], ["3", "4"]]}) == SquareMatrix(
        [[1, 2], [3, 4]]
    )


def test_json_validation():
    with pytest.raises(ValueError):
        from_json_dict({"entries": [["1"]]})
    with pytest.raises(ValueError):
        from_json_dict({"dim": 3, "entries": [["1", "2"], ["3", "4"]]})
    with pytest.raises(ValueError):
        from_json_dict([1, 2])


def test_text_alignment():
    m = SquareMatrix([[100, -2], [3, 40]])
    assert to_text(m) == "100  -2\n  3  40"


def test_symmetry_probe():
    assert SquareMatrix([[1, 2], [2, 3]]).is_symmetric()
    assert not SquareMatrix([[1, 2], [3, 4]]).is_symmetric()


# ---------------------------------------------------------------------------
# integers past the int-to-text digit limit (4,300 digits on Python 3.11+),
# with the limit left as the interpreter sets it

BIG_J = 30000  # F(30000) has 6,270 digits


def chunked_decimal(n: int) -> str:
    """Decimal text of n built from 1000-digit pieces, each under the limit."""
    sign, n = ("-" if n < 0 else ""), abs(n)
    pieces = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        pieces.append(str(low).zfill(1000))
    return sign + str(n) + "".join(reversed(pieces))


@pytest.fixture(scope="module")
def big_base():
    """F at BIG_J - 1, BIG_J, BIG_J + 1 from a plain two-term loop, and the
    level-1 order-2 matrix at BIG_J built from them."""
    a, b = 0, 1
    for _ in range(BIG_J - 1):
        a, b = b, a + b
    values = (a, b, a + b)
    assert all(len(chunked_decimal(v)) > 4300 for v in values)
    return values, SquareMatrix([[a + b, b], [b, a]])


def test_serializers_beyond_digit_limit(big_base):
    from kbonacci.identities import jsonify

    (before, at, after), m = big_base
    assert jsonify(term(2, BIG_J)) == chunked_decimal(at)
    assert jsonify({"v": [-at]}) == {"v": [chunked_decimal(-at)]}
    texts = [[chunked_decimal(after), chunked_decimal(at)], [chunked_decimal(at), chunked_decimal(before)]]
    assert to_json_dict(m) == {"dim": 2, "entries": texts}
    assert [line.split() for line in to_text(m).splitlines()] == texts
    assert from_json_dict({"dim": 2, "entries": texts}) == m
    negated = [["-" + t for t in row] for row in texts]
    assert from_json_dict({"dim": 2, "entries": negated}) == m.scale(-1)


def test_json_round_trip_beyond_digit_limit(big_base):
    import json

    m = big_base[1]
    assert from_json_dict(json.loads(json.dumps(to_json_dict(m)))) == m


def test_json_rejects_long_malformed_integers():
    digits = "7" * 5000
    long_forms = (digits + ".5", digits + "e3", "+-" + digits, digits + "x", "1_" + digits)
    # int() takes these short forms; the one grammar is ASCII [+-]?[0-9]+
    short_forms = ("1_000", " 12 ", "12\n", "\u0661\u0662", "", "-", "+-1")
    for bad in long_forms + short_forms:
        with pytest.raises(ValueError):
            from_json_dict({"dim": 1, "entries": [[bad]]})

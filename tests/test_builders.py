"""Matrix family builder tests.

The multi-index oracle below recomputes each entry's sequence index from
the base-k digits of its position, independently of the recursive block
construction, so the two paths cross-check each other.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci import builders, cli, sequences
from kbonacci.bench import iterative_term
from kbonacci.builders import CACHE_SIZE, build_base, build_higher, build_lucas, build_q, fast_f, fast_term
from kbonacci.matrix import SquareMatrix, decompose, identity, zeros
from kbonacci.sequences import WINDOW_CAP, KbonacciSequence, lucas_term, term, x_power_mod

# grid shared by the structural tests: every (k, r) with dimension <= 27
GRID = [(k, r) for k in (2, 3, 4) for r in (1, 2, 3) if k**r <= 27]


def base_k_digits(position: int, k: int, r: int) -> list[int]:
    """r base-k digits of position, most significant first."""
    digits = []
    for _ in range(r):
        digits.append(position % k)
        position //= k
    return digits[::-1]


def entry_offset(row: int, col: int, k: int, r: int) -> int:
    """Index offset of entry (row, col), 0-based, from per-level digits."""
    total = 0
    for a, b in zip(base_k_digits(row, k, r), base_k_digits(col, k, r)):
        total += k - (a + 1) - (b + 1) + 1
    return total


def test_base_frozen_values():
    assert build_base(2, 1) == SquareMatrix([[1, 1], [1, 0]])
    assert build_base(2, 0) == identity(2)
    assert build_base(3, 3) == SquareMatrix([[4, 2, 1], [2, 1, 1], [1, 1, 0]])
    assert build_base(3, -2) == SquareMatrix([[0, 1, -1], [1, -1, 0], [-1, 0, 2]])


def test_higher_level_one_equals_base():
    for k in (2, 3, 4):
        for j in range(-5, 8):
            assert build_higher(k, 1, j) == build_base(k, j)


def test_higher_frozen_value():
    assert build_higher(2, 2, 1) == SquareMatrix(
        [[2, 1, 1, 1], [1, 1, 1, 0], [1, 1, 1, 0], [1, 0, 0, 1]]
    )


def test_multi_index_law():
    for k, r in GRID:
        dim = k**r
        for j in (-6, -1, 0, 1, 4, 12):
            m = build_higher(k, r, j)
            for row in range(dim):
                for col in range(dim):
                    expected = term(k, j + entry_offset(row, col, k, r))
                    assert m.entry(row, col) == expected, (k, r, j, row, col)


def test_symmetry():
    for k, r in GRID:
        for j in range(-6, 13):
            assert build_higher(k, r, j).is_symmetric(), (k, r, j)


def test_recurrence_law():
    for k, r in GRID:
        for j in range(-6, 9):
            total = zeros(k**r)
            for n in range(k):
                total = total + build_higher(k, r, j + n)
            assert total == build_higher(k, r, j + k), (k, r, j)


def test_block_structure_matches_decomposition():
    for k, r in GRID:
        if r == 1:
            continue
        for j in (-3, 0, 2, 7):
            blocks = decompose(build_higher(k, r, j), k)
            for row in range(k):
                for col in range(k):
                    expected = build_higher(k, r - 1, j + k - (row + 1) - (col + 1) + 1)
                    assert blocks[row][col] == expected, (k, r, j, row, col)


def test_q_frozen_values():
    assert build_q(2, 1) == SquareMatrix([[1, 1], [1, 0]])
    assert build_q(3, 1) == SquareMatrix([[1, 1, 0], [1, 0, 1], [1, 0, 0]])
    assert build_q(2, 2) == SquareMatrix(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )


def test_q_block_structure():
    for k, r in GRID:
        if r == 1:
            continue
        inner = k ** (r - 1)
        blocks = decompose(build_q(k, r), k)
        for row in range(k):
            for col in range(k):
                expected = identity(inner) if col == 0 or col == row + 1 else zeros(inner)
                assert blocks[row][col] == expected, (k, r, row, col)


def test_shift_law():
    for k, r in GRID:
        q = build_q(k, r)
        for j in range(-6, 13):
            assert build_higher(k, r, j) * q == build_higher(k, r, j + 1), (k, r, j)


def test_lucas_frozen_values():
    assert build_lucas(1, 1) == SquareMatrix([[3, 1], [1, 2]])
    assert build_lucas(1, 0) == SquareMatrix([[1, 2], [2, -1]])
    for j in range(-5, 8):
        expected = SquareMatrix(
            [
                [lucas_term(j + 1), lucas_term(j)],
                [lucas_term(j), lucas_term(j - 1)],
            ]
        )
        assert build_lucas(1, j) == expected


def test_lucas_block_structure():
    for r in (2, 3):
        for j in (-3, 0, 1, 5):
            blocks = decompose(build_lucas(r, j), 2)
            assert blocks[0][0] == build_lucas(r - 1, j + 1)
            assert blocks[0][1] == build_lucas(r - 1, j)
            assert blocks[1][0] == build_lucas(r - 1, j)
            assert blocks[1][1] == build_lucas(r - 1, j - 1)


def test_lucas_pair_matrix_identity():
    # L(2) + L(4) = 5 * F(3) holds at the matrix level too
    assert build_lucas(1, 2) + build_lucas(1, 4) == 5 * build_base(2, 3)
    assert build_lucas(1, 2) + build_lucas(1, 4) == SquareMatrix([[15, 10], [10, 5]])


def test_fast_f_agrees_with_direct_construction():
    for k, r in GRID:
        for j in range(1, 13):
            assert fast_f(k, r, j) == build_higher(k, r, j), (k, r, j)


def test_fast_f_lift_matches_dense_companion_product():
    # reference F_r(1) Q_r^(j-1), one dense product of dimension k^r <= 125
    # per step, so the Q_r = Q_1 (x) I step inside fast_f is checked as well
    for k in range(2, 6):
        for r in range(1, 4):
            reference, q = build_higher(k, r, 1), build_q(k, r)
            for j in range(1, 26):
                assert fast_f(k, r, j) == reference, (k, r, j)
                reference = reference * q


def test_fast_f_lifts_each_distinct_row_once(monkeypatch):
    products = []
    monkeypatch.setattr(builders, "mul", lambda a, b: products.append(1) or a * b)
    for k, r in ((2, 3), (3, 2), (3, 3), (4, 2), (4, 3)):
        products.clear()
        assert fast_f(k, r, 7) == build_higher(k, r, 7), (k, r)
        # rows of F_r(1) are equal by digit sum: r(k-1)+1 distinct rows,
        # each lifted to k^r entries of k products
        assert len(set(build_higher(k, r, 1).rows)) == r * (k - 1) + 1
        assert len(products) == (r * (k - 1) + 1) * k**r * k, (k, r)


def test_fast_f_frozen_and_domain():
    assert fast_f(2, 1, 5) == SquareMatrix([[8, 5], [5, 3]])
    for bad in (0, -1, 2.5):
        with pytest.raises(ValueError):
            fast_f(2, 1, bad)
    with pytest.raises(ValueError):
        fast_f(1, 1, 3)
    with pytest.raises(ValueError):
        fast_f(2, 0, 3)


def test_fast_term_examples():
    assert fast_term(2, 10) == 55
    assert fast_term(3, 6) == 7
    assert fast_term(5, 4) == 1
    assert fast_term(2, 0) == 0


def test_fast_term_matches_engine():
    for k in (2, 3, 4, 5):
        for j in range(0, 201):
            assert fast_term(k, j) == term(k, j), (k, j)


def test_fast_term_beyond_the_window_cap():
    for k in range(2, 9):
        for j in (WINDOW_CAP, WINDOW_CAP + 1, 3 * WINDOW_CAP + k):
            assert fast_term(k, j) == iterative_term(k, j), (k, j)


def test_fast_term_matches_the_plain_recurrence_at_band_edges():
    # 2 * (k // 2) +- 1 and 2k +- 1 put both parities on each side of the
    # edge of the Hankel form's vanishing block
    for k in range(2, 17):
        edge = 2 * (k // 2)
        for j in (0, 1, edge - 1, edge, edge + 1, 2 * k - 2, 2 * k - 1, 2 * k, 2 * k + 1, 9_999, 10_000):
            assert fast_term(k, j) == iterative_term(k, j), (k, j)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(2, 16), j=st.integers(0, 3000))
def test_fast_term_matches_the_plain_recurrence(k, j):
    assert fast_term(k, j) == iterative_term(k, j)


def test_fast_term_stops_one_squaring_early(monkeypatch):
    squarings = []

    def counting(square):
        def counted(c, *parity):
            squarings.append(len(c))
            return square(c, *parity)

        return counted

    # the generic squaring, and the doubling that takes its place at k = 2
    for name in ("_square_mod", "_cassini_square"):
        monkeypatch.setattr(sequences, name, counting(getattr(sequences, name)))

    def count(f, k, j):
        squarings.clear()
        f(k, j)
        return len(squarings)

    for k in range(2, 9):
        for j in [*range(2, 70), 4095, 4096, 10**5 + 1]:
            assert count(fast_term, k, j) == count(x_power_mod, k, j) - 1, (k, j)


@pytest.mark.parametrize("residue", [1, 3])
def test_fast_term_odd_order_2_last_level(residue):
    # j = 1 and 3 (mod 4) give m = (j + 1) / 2 of either parity, so both
    # signs of Cassini's (-1)^m, on both sides of the window cap
    for j in [*range(residue, 400, 4), *(WINDOW_CAP + residue + d for d in (-8, -4, 0, 4)), 20_000 + residue]:
        assert fast_term(2, j) == iterative_term(2, j), j


def test_fast_term_uses_neither_window_nor_matrix_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("fast_term must take the polynomial path")

    monkeypatch.setattr(KbonacciSequence, "term", refuse)
    monkeypatch.setattr(SquareMatrix, "__mul__", refuse)
    assert fast_term(2, 10) == 55
    assert fast_term(4, 12) == 208


def test_fast_term_domain():
    with pytest.raises(ValueError):
        fast_term(2, -1)
    with pytest.raises(ValueError):
        fast_term(1, 3)


def test_builder_validation():
    with pytest.raises(ValueError):
        build_base(1, 0)
    with pytest.raises(ValueError):
        build_higher(2, 0, 1)
    with pytest.raises(ValueError):
        build_lucas(0, 1)
    with pytest.raises(ValueError):
        build_q(2, 0)


@pytest.mark.parametrize(
    "builder, bad, good",
    [
        (build_base, (2.0, 5), (2, 5)),
        (build_higher, (2.0, 1, 5), (2, 1, 5)),
        (build_higher, (2, True, 7), (2, 1, 7)),
        (build_lucas, (True, 3), (1, 3)),
        (build_q, (2.0, 1), (2, 1)),
    ],
)
def test_builder_cache_tells_equal_keys_of_other_types_apart(builder, bad, good):
    # bad == good, so an untyped cache would answer bad with good's matrix
    builder.cache_clear()
    with pytest.raises(ValueError):
        builder(*bad)
    builder(*good)
    with pytest.raises(ValueError):
        builder(*bad)


@pytest.mark.parametrize(
    "builder, args",
    [(build_base, (2,)), (build_higher, (2, 1)), (build_lucas, (1,))],
    ids=["build_base", "build_higher", "build_lucas"],
)
def test_builder_cache_is_bounded(builder, args):
    assert builder.cache_info().maxsize == CACHE_SIZE
    for j in range(-5, CACHE_SIZE + 5):
        builder(*args, j)
    assert builder.cache_info().currsize <= CACHE_SIZE


def test_companion_cache_is_bounded():
    # a companion matrix has k^(2r) entries, so reaching the bound would
    # allocate the memory the bound exists to cap; the bound is read instead
    assert build_q.cache_info().maxsize == CACHE_SIZE


def test_fast_term_steps_by_x_at_most_once(monkeypatch):
    times_x, calls = builders._times_x, []

    def counting(c):
        calls.append(len(c))
        return times_x(c)

    monkeypatch.setattr(builders, "_times_x", counting)
    for k, j in [(2, 10), (2, 11), (5, 4096), (7, 12345), (300, 305), (300, 310), (10_000, 5)]:
        calls.clear()
        assert fast_term(k, j) == term(k, j), (k, j)
        assert len(calls) == (j & 1), (k, j)
    # s(k + i) = 2^i for 0 <= i < k: the tops of a large order by one running sum
    assert fast_term(300, 305) == 2**5


def test_fast_term_is_linear_in_the_order(capsys):
    for j in ("5", "6"):
        outs = []
        for method in ("qpow", "iter"):
            assert cli.main(["term", "--k", "100000", "--j", j, "--method", method]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == "0\n", j

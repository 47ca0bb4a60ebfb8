"""SquareMatrix products, sums, differences and scalings through the
compiled kernels of dimension up to UNROLL_DIM, against a naive triple
loop and the entrywise map kept here, and the behaviour around them: one
compile per operation and dimension, none above the cap, and the
operators' errors and scale delegation."""

from __future__ import annotations

from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci import matrix
from kbonacci.matrix import UNROLL_DIM, SquareMatrix, identity

DIMS = range(1, UNROLL_DIM + 3)
ENTRIES = st.integers(-(2**200), 2**200) | st.integers(-9, 9)


def naive_product(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    n = a.dim
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for t in range(n):
                out[i][j] += a.entry(i, t) * b.entry(t, j)
    return SquareMatrix(out)


def naive_power(a: SquareMatrix, e: int) -> SquareMatrix:
    out = identity(a.dim)
    for _ in range(e):
        out = naive_product(out, a)
    return out


@st.composite
def pairs(draw):
    """Two matrices of one drawn dimension in DIMS."""
    n = draw(st.sampled_from(DIMS))
    rows = st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
    return SquareMatrix(draw(rows)), SquareMatrix(draw(rows))


@settings(max_examples=120, deadline=None)
@given(pairs(), st.integers(0, 4))
def test_products_and_powers_match_the_triple_loop(ab, e):
    a, b = ab
    assert a * b == naive_product(a, b)
    assert b * a == naive_product(b, a)
    assert a**e == naive_power(a, e)


def mapped(op, a, b):
    """The entrywise map of op over two flat tuples, as a matrix."""
    return SquareMatrix._of(tuple(map(op, a, b)), round(len(a) ** 0.5))


@settings(max_examples=120, deadline=None)
@given(pairs(), ENTRIES)
def test_sums_differences_and_scalings_match_the_map(ab, c):
    a, b = ab
    n = a.dim
    assert a + b == mapped(add, a._flat, b._flat)
    assert a - b == mapped(sub, a._flat, b._flat)
    assert b - a == mapped(sub, b._flat, a._flat)
    for scaled in (a.scale(c), c * a, a * c):
        assert scaled == mapped(mul, (c,) * n * n, a._flat)
    assert (a + b).dim == (a - b).dim == a.scale(c).dim == n


@pytest.mark.parametrize("n", DIMS)
def test_non_commuting_pairs_keep_their_order(n):
    # an upper shift against a diagonal of distinct entries: the two
    # orders differ wherever the shift has a one
    shift = SquareMatrix([[int(j == i + 1) for j in range(n)] for i in range(n)])
    diagonal = SquareMatrix([[(i + 2) ** 70 * (i == j) - (i == j) for j in range(n)] for i in range(n)])
    mixed = shift + diagonal
    for a, b in ((shift, diagonal), (diagonal, shift), (mixed, shift), (mixed, diagonal)):
        assert a * b == naive_product(a, b)
    if n > 1:
        assert shift * diagonal != diagonal * shift


KERNELS = (matrix._product_kernel, matrix._sum_kernel, matrix._difference_kernel, matrix._scale_kernel)


def test_each_dimension_compiles_once_and_none_above_the_cap():
    # once per operation and dimension
    for kernel in KERNELS:
        kernel.cache_clear()
    try:
        for _ in range(3):
            for n in range(1, UNROLL_DIM + 1):
                m = identity(n)
                m * m, m + m, m - m, 3 * m, m.scale(-2)
        for kernel in KERNELS:
            info = kernel.cache_info()
            assert (info.misses, info.currsize) == (UNROLL_DIM, UNROLL_DIM)
        big = identity(UNROLL_DIM + 1)
        assert big * big == big
        assert big**5 == big
        assert big + big == big.scale(2) == 2 * big
        assert big - big == 0 * big
        assert [kernel.cache_info().misses for kernel in KERNELS] == [UNROLL_DIM] * 4
    finally:
        for kernel in KERNELS:
            kernel.cache_clear()


@pytest.mark.parametrize("n", range(1, UNROLL_DIM + 1))
def test_a_kernel_reads_no_global_and_no_constant(n):
    # the source is built from integer indices alone: the compiled function
    # names only its locals
    code = matrix._product_kernel(n).__code__
    assert code.co_names == ()
    assert set(code.co_consts) <= {None}
    assert code.co_varnames == ("a", "b", *(f"a{i}" for i in range(n * n)), *(f"b{i}" for i in range(n * n)))


@pytest.mark.parametrize("n", range(1, UNROLL_DIM + 1))
@pytest.mark.parametrize("kernel", KERNELS[1:], ids=["sum", "difference", "scale"])
def test_an_elementwise_kernel_reads_no_global_and_no_constant(kernel, n):
    # as the product's; the scale kernel's a is the scalar itself
    code = kernel(n).__code__
    assert code.co_names == ()
    assert set(code.co_consts) <= {None}
    unpacked = () if kernel is matrix._scale_kernel else (f"a{i}" for i in range(n * n))
    assert code.co_varnames == ("a", "b", *unpacked, *(f"b{i}" for i in range(n * n)))


@pytest.mark.parametrize("n", [2, UNROLL_DIM + 1])
def test_bools_and_floats_are_not_scalars(n):
    m = identity(n)
    for bad in (lambda: m * True, lambda: True * m, lambda: m * 2.0, lambda: 2.0 * m, lambda: m * None):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("n", DIMS)
def test_dimension_mismatch_message(n):
    a, b = identity(n), identity(n + 1)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(ValueError, match=f"^dimension mismatch: {n} vs {n + 1}$"):
            op(a, b)
        with pytest.raises(ValueError, match=f"^dimension mismatch: {n + 1} vs {n}$"):
            op(b, a)


def test_int_multiples_go_through_scale(monkeypatch):
    calls = []
    plain = SquareMatrix.scale

    def scale(self, c):
        calls.append(c)
        return plain(self, c)

    monkeypatch.setattr(SquareMatrix, "scale", scale)
    m = SquareMatrix([[1, 2], [3, 4]])
    assert 2 * m == m * 2 == SquareMatrix([[2, 4], [6, 8]])
    assert -3 * m == SquareMatrix([[-3, -6], [-9, -12]])
    assert calls == [2, 2, -3]
    assert m * m == SquareMatrix([[7, 10], [15, 22]])
    assert calls == [2, 2, -3]

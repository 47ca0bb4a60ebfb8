"""Dense square matrices over Python's arbitrary-precision integers.

Immutable values with exact ring arithmetic: no floats, no modular
reduction, no overflow, and entries in one flat row-major tuple.  Block
composition and decomposition (compose, decompose) are public helpers;
the builders lay their members out by digit sum instead.
"""

from __future__ import annotations

import re
from functools import cache, partial
from itertools import chain, repeat
from operator import add, mul, neg, sub


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require_int(name: str, value, minimum: int | None) -> None:
    """Reject a value that is not an int (bools excluded) or, when a
    minimum is given, is below it."""
    if not _is_int(value) or (minimum is not None and value < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")


# up to UNROLL_DIM, *, +, - and scale run compiled kernels.  On a 2-CPU
# machine (Python 3.11.7, timeit, best of 7), at n = 2, 3 and 4, a product
# took 3.5 -> 0.18, 5.3 -> 0.41 and 8.3 -> 1.2 us; a whole +, 0.75 -> 0.59,
# 0.97 -> 0.72 and 1.23 -> 1.00 us; a whole scale, 1.08 -> 0.78, 1.27 ->
# 0.94 and 1.66 -> 1.19 us; each for 0.03-0.22 ms of compiling.  At n = 5,
# 6, 7 and 10 the product's compile (0.39, 0.63, 0.83 and 2.3 ms) pays only
# after 37, 46, 46 and 66 products; a default verify run makes 39 at n = 5
# and 52 at n = 7 against 4,148 at n <= 4, and whole cold runs of both
# grids with the cap at 4, 7 and 10 differed by less than their noise
UNROLL_DIM = 4


def _compile(op: str, n: int):
    """The kernel(a, b) of op on flat row-major n-by-n tuples: the product
    for "*", the sum or difference for "+" and "-", the int a times b for
    "c".  It unpacks the tuples into locals and returns the n*n entries as
    one tuple expression, from source of integer indices and op alone."""
    cells = range(n * n)
    if op == "*":
        entries = (" + ".join(f"a{i - i % n + l} * b{l * n + i % n}" for l in range(n)) for i in cells)
    elif op == "c":
        entries = (f"a * b{i}" for i in cells)
    else:
        entries = (f"a{i} {op} b{i}" for i in cells)
    unpack = ("" if op == "c" else ", ".join(f"a{i}" for i in cells) + ", = a; ") + ", ".join(f"b{i}" for i in cells)
    namespace = {}
    exec(f"def kernel(a, b):\n    {unpack}, = b\n    return ({', '.join(entries)},)", namespace)
    return namespace["kernel"]


# each compiled once per n, at its first use of that dimension
_product_kernel, _sum_kernel, _difference_kernel, _scale_kernel = (cache(partial(_compile, op)) for op in "*+-c")


class SquareMatrix:
    """Immutable n-by-n integer matrix: n and the entries in one row-major
    tuple, flat[i*n + j] at (i, j).  Up to UNROLL_DIM, +, -, * and scale
    run compiled kernels; past it +, -, scale and negation are one map, and
    * reads rows as slices flat[i*n:(i+1)*n] and columns as flat[j::n].

    The constructor takes rows and checks every entry, so it is for input
    from outside the package; the package wraps its own results unchecked
    with _of.
    """

    __slots__ = ("_n", "_flat")

    def __init__(self, rows) -> None:
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        for row in rows:
            if len(row) != n:
                raise ValueError(f"expected {n} entries per row, got {len(row)}")
            for entry in row:
                if not _is_int(entry):
                    raise ValueError(f"entries must be integers, got {entry!r}")
        _set_n(self, n)
        _set_flat(self, tuple(chain.from_iterable(rows)))

    @classmethod
    def _of(cls, flat: tuple[int, ...], n: int) -> "SquareMatrix":
        """Wrap flat, n*n ints in a row-major tuple (n >= 1), unchecked."""
        m = object.__new__(cls)
        _set_n(m, n)
        _set_flat(m, flat)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("SquareMatrix is immutable")

    @property
    def dim(self) -> int:
        return self._n

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        flat, n = self._flat, self._n
        return tuple(flat[i : i + n] for i in range(0, n * n, n))

    def entry(self, i: int, j: int) -> int:
        """Entry at row i, column j, 0-based (negative counts from the end)."""
        return self._flat[range(self._n)[i] * self._n + range(self._n)[j]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        # n*n entries fix n, so equal tuples mean equal dimensions
        return self._flat == other._flat

    def __hash__(self) -> int:
        return hash(self._flat)

    def __repr__(self) -> str:
        rows = ", ".join(f"[{', '.join(map(decimal_text, row))}]" for row in self.rows)
        return f"SquareMatrix([{rows}])"

    def _check_dim(self, other: "SquareMatrix") -> None:
        if self._n != other._n:
            raise ValueError(f"dimension mismatch: {self._n} vs {other._n}")

    # +, - and * compare dimensions inline, call _check_dim only to raise,
    # and wrap their result inline as _of does: at the suite's dimensions a
    # call per operation is a sizeable share of its cost
    def __add__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        n = self._n
        if n != other._n:
            self._check_dim(other)
        a, b = self._flat, other._flat
        m = _new(SquareMatrix)
        _set_n(m, n)
        _set_flat(m, _sum_kernel(n)(a, b) if n <= UNROLL_DIM else tuple(map(add, a, b)))
        return m

    def __sub__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        n = self._n
        if n != other._n:
            self._check_dim(other)
        a, b = self._flat, other._flat
        m = _new(SquareMatrix)
        _set_n(m, n)
        _set_flat(m, _difference_kernel(n)(a, b) if n <= UNROLL_DIM else tuple(map(sub, a, b)))
        return m

    def __neg__(self):
        return SquareMatrix._of(tuple(map(neg, self._flat)), self._n)

    def scale(self, c: int) -> "SquareMatrix":
        """Scalar multiple c * self."""
        if not _is_int(c):
            raise ValueError(f"scalar must be an integer, got {c!r}")
        n, flat = self._n, self._flat
        return SquareMatrix._of(_scale_kernel(n)(c, flat) if n <= UNROLL_DIM else tuple(map(mul, repeat(c), flat)), n)

    def __mul__(self, other):
        if not isinstance(other, SquareMatrix):
            return self.__rmul__(other)
        n = self._n
        if n != other._n:
            self._check_dim(other)
        a, b = self._flat, other._flat
        if n <= UNROLL_DIM:
            flat = _product_kernel(n)(a, b)
        else:
            rows = [a[i : i + n] for i in range(0, n * n, n)]
            cols = [b[j::n] for j in range(n)]
            flat = tuple(sum(map(mul, row, col)) for row in rows for col in cols)
        m = _new(SquareMatrix)
        _set_n(m, n)
        _set_flat(m, flat)
        return m

    def __rmul__(self, other):
        # scale checks the scalar, once; NotImplemented for what it refuses
        # lets Python try the other operand and then raise TypeError
        try:
            return self.scale(other)
        except ValueError:
            return NotImplemented

    def __pow__(self, e):
        _require_int("exponent", e, 0)
        result = identity(self.dim)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def is_symmetric(self) -> bool:
        flat, n = self._flat, self._n
        return all(flat[i * n : (i + 1) * n] == flat[i::n] for i in range(n))


# the slots' own setters, past the __setattr__ that keeps a matrix immutable
_new = object.__new__
_set_n = SquareMatrix._n.__set__
_set_flat = SquareMatrix._flat.__set__


def identity(dim: int) -> SquareMatrix:
    """Identity matrix of the given dimension."""
    _require_int("dimension", dim, 1)
    return SquareMatrix._of(tuple(1 if i == j else 0 for i in range(dim) for j in range(dim)), dim)


def zeros(dim: int) -> SquareMatrix:
    """Zero matrix of the given dimension."""
    _require_int("dimension", dim, 1)
    return SquareMatrix._of((0,) * (dim * dim), dim)


def compose(blocks) -> SquareMatrix:
    """Assemble a k-by-k grid of equal-dimension square blocks.

    blocks[i][j] becomes the block at block-row i, block-column j.
    """
    blocks = [list(row) for row in blocks]
    k = len(blocks)
    if k == 0 or any(len(row) != k for row in blocks):
        raise ValueError("block grid must be square")
    inner = blocks[0][0].dim
    for row in blocks:
        for b in row:
            if not isinstance(b, SquareMatrix):
                raise ValueError("blocks must be SquareMatrix values")
            if b.dim != inner:
                raise ValueError(f"block dimension mismatch: {b.dim} vs {inner}")
    flat = []
    for block_row in blocks:
        for i in range(0, inner * inner, inner):
            for b in block_row:
                flat.extend(b._flat[i : i + inner])
    return SquareMatrix._of(tuple(flat), k * inner)


def decompose(m: SquareMatrix, k: int) -> list[list[SquareMatrix]]:
    """Split m into a k-by-k grid of equal square blocks; inverse of compose."""
    _require_int("grid size", k, 1)
    n = m.dim
    if n % k != 0:
        raise ValueError(f"dimension {n} is not divisible by {k}")
    inner = n // k
    rows, starts = m.rows, range(0, n, inner)

    def block(top: int, left: int) -> SquareMatrix:
        return SquareMatrix._of(tuple(x for row in rows[top : top + inner] for x in row[left : left + inner]), inner)

    return [[block(top, left) for left in starts] for top in starts]


# up to LEAF_DIGITS digits, under 640 (the lowest digit limit Python
# allows), integers go through plain str and int; longer ones are halved.
# Version-dependent: the limit on int <-> str conversion
# (sys.set_int_max_str_digits, 4,300 digits by default) exists from
# Python 3.11 and 3.10.7 on and is absent before, so decimal_text and
# parse_integer never convert more than LEAF_DIGITS digits through it.
LEAF_DIGITS = 600
_HIGH = 10**LEAF_DIGITS
_LOW = -_HIGH
_INTEGER = re.compile(r"[+-]?[0-9]+")


def decimal_text(n: int) -> str:
    """str(n) for an integer of any size, whatever the interpreter's digit
    limit: n = hi * 2**half + lo converts half by half in exact decimal
    arithmetic, whose large products libmpdec computes by NTT."""
    if _LOW < n < _HIGH:
        return str(n)
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext

    powers = {}

    def convert(n: int, width: int) -> Decimal:
        """Decimal(n) for 0 <= n < 2**width."""
        if n < _HIGH:
            return Decimal(n)
        half = width >> 1
        if half not in powers:
            powers[half] = Decimal(2) ** half
        hi = n >> half
        return convert(hi, width - half) * powers[half] + convert(n - (hi << half), half)

    # Version- and platform-dependent: MAX_PREC and MAX_EMAX are the
    # largest the build allows (999999999999999999 on 64-bit builds,
    # 425000000 on 32-bit ones), so with Inexact trapped no step rounds.
    # CPython's C decimal (libmpdec) multiplies large coefficients by
    # number-theoretic transform; the pure-Python _pydecimal gives the
    # same digits, only slower.
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def parse_integer(text) -> int:
    """The integer that text, ASCII [+-]?[0-9]+ of any length, spells: the
    digits split as hi * 10**h + lo, the mirror of decimal_text.  An int
    passes through; anything else (a float, a bool, other text) is rejected."""
    if _is_int(text):
        return int(text)
    if not isinstance(text, str) or not _INTEGER.fullmatch(text):
        raise ValueError(f"expected an integer or a decimal string, got {text!r}")
    powers = {}

    def convert(digits: str) -> int:
        if len(digits) <= LEAF_DIGITS:
            return int(digits)
        h = len(digits) >> 1
        if h not in powers:
            powers[h] = 10**h
        return convert(digits[:-h]) * powers[h] + convert(digits[-h:])

    n = convert(text.lstrip("+-"))
    return -n if text[0] == "-" else n


def to_json_dict(m: SquareMatrix) -> dict:
    """JSON form: dimension plus entries as decimal strings."""
    return {"dim": m.dim, "entries": [[decimal_text(e) for e in row] for row in m.rows]}


def from_json_dict(data) -> SquareMatrix:
    """Parse the JSON form back into a matrix."""
    if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
        raise ValueError("matrix JSON must carry 'dim' and 'entries'")
    dim = parse_integer(data["dim"])
    m = SquareMatrix(tuple(map(parse_integer, row)) for row in data["entries"])
    if m.dim != dim:
        raise ValueError(f"declared dim {dim} does not match {m.dim} rows")
    return m


def to_text(m: SquareMatrix) -> str:
    """Aligned plain-text rendering, one matrix row per line."""
    cells = [[decimal_text(e) for e in row] for row in m.rows]
    widths = [max(len(cells[i][j]) for i in range(m.dim)) for j in range(m.dim)]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    )

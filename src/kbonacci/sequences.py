"""Bidirectional k-bonacci and Lucas sequences over exact integers.

Terms exist for every integer index.  Seeds occupy a fixed window, later
terms follow the order-k sum recurrence, and earlier terms come from
running the same recurrence in reverse, so there is a single two-sided
sequence with no seam at zero.

Every term is read from a frame of consecutive terms, kept in two lists
that grow by append, one upward and one downward, each by the double-shift
law s(n+1) = 2 s(n) - s(n-k), so a read is one list index.  Indices within
WINDOW_CAP of zero come from the window, a frame with no size limit that
grows on demand.  Beyond it each side keeps a frame of at most
FRAME_TERMS * (k + 1) terms; a read far from that frame and from the
window starts a new frame from x^j mod P_k(x), where P_k(x) = x^k -
x^(k-1) - ... - 1 is the recurrence's characteristic polynomial (C. M.
Fiduccia, "An efficient formula for linear recurrences", SIAM J. Comput.
14(1), 1985).  Memory therefore stays bounded whatever the index, and
runs of nearby reads cost a step each.

A squaring of x^e mod P_k costs k(k+1)/2 big-integer squarings while its
coefficients are small and 2k - 1 once they pass TOOM_BITS, by
evaluation and exact interpolation (Toom 1963, Cook 1966); at k = 2 it
costs two, by Cassini's identity.  Squares and products of TOOM3_BITS
bits and more split each factor in three (Toom-3).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .matrix import _require_int

# Largest |j| served from the window.  The window holds every term up to
# its edge, so its size grows with the square of the index.
WINDOW_CAP = 4096

# A frame beyond the cap holds up to FRAME_TERMS * (k + 1) terms: enough
# for the band of indices that build_base and the identity checkers read
# around one index (replaying the term reads of a verify run up to j =
# 6000, 2 and 4 times k + 1 took about 20% longer than 8), at a few times
# the memory of the engine's k coefficients.
FRAME_TERMS = 8

# Orders whose sequence objects term() and term_range() keep, least recently
# read dropped first.  A verify run reads max_k - 1 orders (3 on the default
# and dense grids) and no test but this bound's own reads more than 7, so
# none is dropped there.
ORDER_CACHE_SIZE = 64


# _square_mod squares by evaluation and interpolation (_toom_square) once
# (k - 1)(k - 2) times the bits of c's top coefficient pass TOOM_BITS * k^2:
# the (k - 1)(k - 2)/2 squarings it saves against the O(k^2) additions and
# small exact divisions it adds.  On random coefficients (best of 15,
# CPython 3.11, x86-64) the two break even at about 13,500 bits at k = 3
# (this rule: 13,500), 6,600 at k = 4 (8,000), 5,000 at k = 5 (6,250),
# 3,100 at k = 8 (4,570), 2,400 at k = 16 (3,660) and 2,000-2,700 from
# k = 32 to 512 (3,000-3,100), so the rule never takes the slower path.
TOOM_BITS = 3000

# Largest order _square_mod squares by evaluation.  The nodes +-(k - 1) and
# the factorial divisors grow with k, and so does the break-even: at k = 700
# evaluation wins from 3,000 bits, at k = 1000 only from about 4,000.
TOOM_ORDER_CAP = 700

# _mul splits factors of this many bits and more in three.  Against
# CPython's own product (best of 5, CPython 3.11, x86-64) it is even from
# 8,000 to 24,000 bits, 10-15% faster from 32,000 to 100,000 and 15-25%
# from 200,000 to 700,000.
TOOM3_BITS = 30_000


def _step_limit(k: int, j: int) -> int:
    """Most double-shift steps worth taking toward index j rather than
    computing x^j mod P_k afresh.

    A step costs two additions of integers the size of term(j); the
    engine costs k(k+1)/2 squarings per bit of |j|, each no cheaper than
    a step.  Measured with squarings at k = 2..100, the engine's
    break-even lies 0.9x to 22x this count (further as |j| grows; 0.9x
    only just past the cap, as with general products), so a step taken
    under it loses little at worst.  At k = 2 the engine takes two
    squarings per bit (_cassini_square), not three, so the count
    overstates its cost by 3/2.  It is kept: measured at k = 2, the
    break-even still lies 0.9x (|j| = 5000) to 6.5x (|j| = 10^6) this
    count.  Past TOOM_BITS the engine takes 2k - 1 squarings per bit, not
    k(k+1)/2; the count is kept there too, as at k = 3..8 the break-even
    still lies 1.3x-1.9x (|j| = 5000, below the crossover) to 7x-13x
    (|j| = 10^6, past it) this count, where it lay 1.5x-2.3x to 19x-26x
    with k(k+1)/2 squarings throughout.
    """
    return k * (k + 1) // 2 * abs(j).bit_length()


def _validate_order(k) -> None:
    _require_int("order", k, 2)


def _square_mod(c: list[int]) -> list[int]:
    """c(x)^2 mod P_k for a coefficient vector c of length k.

    Once c's top coefficient passes TOOM_BITS k^2 / ((k-1)(k-2)) bits, at
    orders up to TOOM_ORDER_CAP, c^2 comes from _toom_square: 2k - 1
    big-integer squarings.  Otherwise, squaring a big int costs about two
    thirds of a product of two different ones, so each cross term
    2 c_i c_l is taken as (c_i + c_l)^2 - c_i^2 - c_l^2 from the k
    squares: k(k+1)/2 squarings and no general product.
    """
    k = len(c)
    if k <= TOOM_ORDER_CAP and (k - 1) * (k - 2) * c[-1].bit_length() > TOOM_BITS * k * k:
        p = _toom_square(c)
    else:
        squares = [a * a for a in c]
        p = [0] * (2 * k - 1)
        p[::2] = squares
        nonzero = [i for i, a in enumerate(c) if a]
        for n, i in enumerate(nonzero):
            for m in nonzero[n + 1 :]:
                t = c[i] + c[m]
                p[i + m] += t * t - squares[i] - squares[m]
    # Reduce from the top with x^d = x^(d-1) + ... + x^(d-k): coefficient d
    # gains the sum of the reduced coefficients d+1..d+k of degree >= k,
    # kept as a running sum.
    top = 2 * k - 2
    run = 0
    for d in range(top, -1, -1):
        p[d] += run
        if d >= k:
            run += p[d]
        if d + k <= top:
            run -= p[d + k]
    return p[:k]


def _toom_square(c: list[int]) -> list[int]:
    """The 2k - 1 coefficients of c(x)^2, from c squared at 0 and at
    +-1..+-(k-1) (Toom 1963, Cook 1966): 2k - 1 big-integer squarings.

    With e and o the even- and odd-degree parts of c at t, a = (e + o)^2
    and b = (e - o)^2 are c^2 at t and -t, so a + b and a - b are twice
    its even part g(t) = E(t^2) and odd part h(t) = t O(t^2), where
    c(x)^2 = E(x^2) + x O(x^2).  _interpolate recovers E and O.
    """
    k = len(c)
    evens, odds = c[::2][::-1], c[1::2][::-1]
    even, odd = [_mul(c[0], c[0]) << 1], [0]
    for t in range(1, k):
        y = t * t
        e = o = 0
        for a in evens:
            e = e * y + a
        for a in odds:
            o = o * y + a
        o *= t
        a, b = e + o, e - o
        a, b = _mul(a, a), _mul(b, b)
        even.append(a + b)
        odd.append(a - b)
    p = [0] * (2 * k - 1)
    p[::2], p[1::2] = _interpolate(even, 0), _interpolate(odd, 1)
    return p


def _interpolate(v: list[int], first: int) -> list[int]:
    """Coefficients, lowest first, of F(y) from v[t] = 2 t^first F(t^2),
    t = 0..len(v)-1: of E from 2g and (first = 1) of O from 2h.

    The Newton form of F at the nodes y = first^2, (first + 1)^2, ...
    needs no divided-difference table: for even g, the central
    difference d^(2m) g(0), g(t+1) - 2 g(t) + g(t-1) taken m times, is
    (2m)! times E's m-th Newton coefficient, and for odd h, d^(2m) h(1)
    is (2m+1)! times O's.  Those coefficients are divided differences of
    an integer polynomial at integer nodes, so integers, and each
    division is exact: 2k - 1 small divisions in all, one per
    coefficient of c^2.  The Newton form is then expanded by one factor
    y - y_m at a time.
    """
    q, divisor = [], 2
    for m in range(len(v) - first):
        if m:
            # v(-1) is v(1) for even g, -v(1) for odd h
            d = [b - a for a, b in zip(v, v[1:])]
            v = [0 if first else 2 * d[0], *(b - a for a, b in zip(d, d[1:]))]
            divisor *= (2 * m + first - 1) * (2 * m + first)
        q.append(v[first] // divisor)
    f = q[-1:]
    for m in range(len(q) - 2, -1, -1):
        y = (m + first) ** 2
        f = [a - y * b for a, b in zip([q[m], *f], [*f, 0])]
    return f


def _mul(a: int, b: int) -> int:
    """a * b, a square when b is a.

    Past TOOM3_BITS each factor splits as u_0 + u_1 X + u_2 X^2, X = 2^s,
    and the product comes from its values at X = 0, 1, -1, -2 and
    infinity (Toom-3, interpolated as Bodrato's sequence): five products
    of a third the size, each by _mul again, where CPython's Karatsuba
    spends about 5.7 times the work of one of them.
    """
    if a.bit_length() < TOOM3_BITS or b.bit_length() < TOOM3_BITS:
        return a * b
    s = (max(a.bit_length(), b.bit_length()) + 2) // 3
    u = _points(a, s)
    w0, w1, wm1, wm2, winf = map(_mul, u, u if b is a else _points(b, s))
    r3 = (wm2 - w1) // 3
    r1 = (w1 - wm1) >> 1
    r2 = wm1 - w0
    r3 = ((r2 - r3) >> 1) + (winf << 1)
    r2 += r1 - winf
    r1 -= r3
    return w0 + (r1 << s) + (r2 << 2 * s) + (r3 << 3 * s) + (winf << 4 * s)


def _points(a: int, s: int) -> tuple[int, ...]:
    """a = a_0 + a_1 X + a_2 X^2, X = 2^s, at X = 0, 1, -1, -2 and infinity.
    The split holds for negative a too: a_0 and a_1 are its residues,
    a_2 the floor of a / X^2."""
    mask = (1 << s) - 1
    a0, a1, a2 = a & mask, (a >> s) & mask, a >> 2 * s
    t = a0 + a2
    m1 = t - a1
    return a0, t + a1, m1, ((m1 + a2) << 1) - a0, a2


def _cassini_square(c: list[int], odd: bool) -> list[int]:
    """x^(2e) mod P_2 from c = x^e mod P_2 = (F(e-1), F(e)), odd telling
    whether e is.

    Cassini's identity F(e-1) F(e+1) - F(e)^2 = (-1)^e gives the cross
    term from the two squares, c_0 c_1 = c_1^2 - c_0^2 + (-1)^e, so a
    doubling costs two squarings where _square_mod takes three.  It holds
    for powers of x only, not for an arbitrary vector.
    """
    a, b = c
    if b.bit_length() < TOOM3_BITS:
        a *= a
        b *= b
    else:
        a, b = _mul(a, a), _mul(b, b)
    return [a + b, 3 * b - 2 * a + (-2 if odd else 2)]


def _times_x(c: list[int]) -> list[int]:
    """x * c(x) mod P_k: x^k = x^(k-1) + ... + 1."""
    top = c[-1]
    return [top] + [a + top for a in c[:-1]]


def _over_x(c: list[int]) -> list[int]:
    """c(x) / x mod P_k: 1/x = x^(k-1) - x^(k-2) - ... - 1."""
    low = c[0]
    return [a - low for a in c[1:]] + [low]


def x_power_mod(k: int, j: int) -> list[int]:
    """Coefficients c_0..c_(k-1) of x^j mod P_k(x), for any integer j.

    P_k(x) = x^k - x^(k-1) - ... - 1.  Any sequence s of the order-k
    recurrence has s(j) = c_0 s(0) + ... + c_(k-1) s(k-1); for the
    k-bonacci seeds that is c_(k-1).  x is invertible mod P_k because
    P_k(0) = -1, so negative j powers 1/x.  Left-to-right binary powering:
    one polynomial squaring per bit of |j| (_square_mod: k(k+1)/2
    big-integer squarings, 2k - 1 once the coefficients pass TOOM_BITS)
    and, per set bit, a step by x or 1/x that costs k additions.  At
    k = 2 the squaring is _cassini_square, two big-integer squarings
    instead of three; it needs only the parity of the exponent so far,
    which a squaring makes even and a step by x or 1/x makes odd.
    """
    _validate_order(k)
    _require_int("index", j, None)
    step = _times_x if j >= 0 else _over_x
    c, odd = [1] + [0] * (k - 1), False
    for bit in bin(abs(j))[2:]:
        c = _square_mod(c) if k > 2 else _cassini_square(c, odd)
        odd = bit == "1"
        if odd:
            c = step(c)
    return c


class _Frame:
    """Consecutive terms s(lo), ..., s(hi) of one sequence, at least k + 1
    of them and at most maxlen distinct ones (no limit when maxlen is None).

    They sit in two lists about an anchor a that only grow by append: up
    holds s(a), s(a+1), ... and down holds s(a+k), s(a+k-1), ....  Both
    begin with the same k + 1 terms, so each steps outward on its own by
    the double-shift law s(n+1) = 2 s(n) - s(n-k), two additions per
    index, and every read is one list index at any order.  When a list
    outgrows its share of maxlen, both restart from its newest k + 1
    terms, so a step costs O(1) amortised.
    """

    def __init__(self, lo: int, values: list[int], maxlen: int | None) -> None:
        self.k = len(values) - 1
        self.maxlen = maxlen
        self._restart(lo, values)

    def _restart(self, a: int, up: list[int]) -> None:
        self.a, self.up, self.down = a, up, up[::-1]

    @property
    def lo(self) -> int:
        return self.a + self.k + 1 - len(self.down)

    @property
    def hi(self) -> int:
        return self.a + len(self.up) - 1

    def distance(self, j: int) -> int:
        return max(self.lo - j, j - self.hi, 0)

    def get(self, j: int) -> int:
        i = j - self.a
        if i >= 0:
            up = self.up
            if i < len(up):
                return up[i]
            return self._step(up, i + 1 - len(up), -1)
        i = self.k - i
        down = self.down
        if i < len(down):
            return down[i]
        return self._step(down, i + 1 - len(down), -self.k)

    def _step(self, run: list[int], n: int, near: int) -> int:
        """Append n terms to run, up (near = -1) or down (near = -k), and
        return the last."""
        k, far = self.k, -1 - self.k
        while True:
            room = n
            if self.maxlen is not None:  # up and down share k + 1 terms
                room = min(n, self.maxlen + k + 1 - len(self.up) - len(self.down))
            for _ in range(room):
                run.append(2 * run[near] - run[far])
            n -= room
            if not n:
                return run[-1]
            if run is self.up:
                self._restart(self.hi - k, run[far:])
                run = self.up
            else:
                self._restart(self.lo, run[far:][::-1])
                run = self.down

    def span(self, j_lo: int, j_hi: int) -> list[int]:
        """Terms j_lo..j_hi, at most k + 1 of them: all in up when j_lo >= a,
        else all in down."""
        self.get(j_lo)
        self.get(j_hi)
        i = j_lo - self.a
        if i >= 0:
            return self.up[i : i + j_hi - j_lo + 1]
        i = self.k - i
        return self.down[i - (j_hi - j_lo) : i + 1][::-1]


class KbonacciSequence:
    """Order-k sequence seeded 0, ..., 0, 1 on indices 0..k-1.

    Every term is a list index into a _Frame once the frame has stepped to
    it.  term(j) for |j| <= WINDOW_CAP comes from the window, a frame with
    no size limit that grows on demand in both directions; a term beyond
    the cap comes from the bounded frame on its side, so the window never
    grows past the cap (term_range may take it k further).  A sequence
    object is not thread-safe: a read may step, restart or replace its
    frames.
    """

    def __init__(self, k: int) -> None:
        _validate_order(k)
        self._k = k
        self._seeds = self._seed_values(k)
        # k + 1 terms from index 0, so the double-shift law applies from the start
        self._window = _Frame(0, [*self._seeds, sum(self._seeds)], maxlen=None)
        self._frames: dict[int, _Frame] = {}  # by side of the window, 1 or -1

    @staticmethod
    def _seed_values(k: int) -> tuple[int, ...]:
        return (0,) * (k - 1) + (1,)

    @property
    def order(self) -> int:
        return self._k

    def _store(self, j: int) -> _Frame:
        """The frame that serves index j."""
        if -WINDOW_CAP <= j <= WINDOW_CAP:
            return self._window
        return self._frame_near(j)

    def _frame_near(self, j: int) -> _Frame:
        """The frame on j's side of the window, |j| > WINDOW_CAP.

        It is kept while reaching j from it takes at most _step_limit
        steps; otherwise it starts again at the window's edge if j is that
        close to it, else at j from x^j mod P_k.
        """
        k, window = self._k, self._window
        side = 1 if j > 0 else -1
        limit = _step_limit(k, j)
        frame = self._frames.get(side)
        if frame is None or frame.distance(j) > limit:
            if window.distance(j) <= limit:
                # the k + 1 outermost terms of the window, filled to the cap
                window.get(side * WINDOW_CAP)
                lo = window.hi - k if side > 0 else window.lo
                values = window.span(lo, lo + k)
            else:
                lo, coeffs, values = j, x_power_mod(k, j), []
                for _ in range(k + 1):
                    values.append(self._from_seeds(coeffs))
                    coeffs = _times_x(coeffs)
            frame = self._frames[side] = _Frame(lo, values, maxlen=FRAME_TERMS * (k + 1))
        return frame

    def _from_seeds(self, coeffs: list[int]) -> int:
        return sum(c * s for c, s in zip(coeffs, self._seeds) if s)

    def term(self, j: int) -> int:
        if type(j) is not int:  # a plain int skips the call, which costs more than the read
            _require_int("index", j, None)
        return self._store(j).get(j)

    def term_range(self, j_lo: int, j_hi: int) -> list[int]:
        _require_int("index", j_lo, None)
        _require_int("index", j_hi, None)
        if j_lo > j_hi:
            raise ValueError(f"empty range: {j_lo} > {j_hi}")
        k = self._k
        values = self._store(j_lo).span(j_lo, min(j_hi, j_lo + k))
        while len(values) < j_hi - j_lo + 1:
            values.append(2 * values[-1] - values[-1 - k])
        return values


class LucasSequence(KbonacciSequence):
    """Order-2 sequence seeded 2, 1 on indices 0..1, extended both ways."""

    def __init__(self) -> None:
        super().__init__(2)

    @staticmethod
    def _seed_values(k: int) -> tuple[int, ...]:
        return (2, 1)


_lucas = LucasSequence()


@lru_cache(maxsize=ORDER_CACHE_SIZE, typed=True)
def _shared(k: int) -> KbonacciSequence:
    return KbonacciSequence(k)


def _sequence(k) -> KbonacciSequence:
    """The shared sequence of order k."""
    try:
        return _shared(k)
    except TypeError:  # an unhashable order fails in the cache, before KbonacciSequence checks it
        _validate_order(k)
        raise


def term(k: int, j: int) -> int:
    """j-th term of the order-k sequence, any integer j."""
    return _sequence(k).term(j)


def term_range(k: int, j_lo: int, j_hi: int) -> list[int]:
    """Terms j_lo..j_hi inclusive, in index order."""
    return _sequence(k).term_range(j_lo, j_hi)


def lucas_term(j: int) -> int:
    """j-th Lucas term (seeds 2, 1), any integer j."""
    return _lucas.term(j)


def fibonacci_term(j: int) -> int:
    """j-th Fibonacci term; shorthand for term(2, j)."""
    return term(2, j)


def closed_form_band(k: int, j: int) -> int | None:
    """Power-of-two band formula where one is stated, else None.

    Band one, k <= j <= 2k-1, returns 2^(j-k), which is exact.  Band two,
    2k <= j <= 3k-2, returns the stated formula 2^(j-k) - (2^(j-2k+1) - 1),
    which is exact only at j in {2k, 2k+1} (the whole band for k <= 3); see
    the README, "Known deviations from the classical claims".  Outside
    those bands no closed form is claimed.
    """
    _validate_order(k)
    _require_int("index", j, None)
    if k <= j <= 2 * k - 1:
        return 2 ** (j - k)
    if 2 * k <= j <= 3 * k - 2:
        return 2 ** (j - k) - (2 ** (j - 2 * k + 1) - 1)
    return None


class BackwardBlock(namedtuple("BackwardBlock", "order index values")):
    """Block n of the negative-index tail: indices -(nk+1) down to -(nk+k).
    order is k, index is n, and values is a tuple of the block's k terms.
    The field index hides tuple.index."""

    __slots__ = ()

    @property
    def indices(self) -> tuple[int, ...]:
        base = self.index * self.order
        return tuple(-(base + i) for i in range(1, self.order + 1))


class BlockProperties(
    namedtuple(
        "BlockProperties",
        "alternating_signs zero_sum leading_matches_forward leading_is_power_of_two "
        "last_nonzero_unit second_last_odd interior_even",
    )
):
    """Structural facts observed on one backward block, each a bool."""

    __slots__ = ()

    def as_dict(self) -> dict[str, bool]:
        return self._asdict()


def backward_block(k: int, n: int) -> BackwardBlock:
    """n-th block of k backward terms, n >= 0."""
    _validate_order(k)
    _require_int("block index", n, 0)
    base = n * k
    values = tuple(reversed(term_range(k, -(base + k), -(base + 1))))
    return BackwardBlock(order=k, index=n, values=values)


def block_properties(k: int, n: int) -> BlockProperties:
    """Evaluate the structural properties of backward block n."""
    return _properties_of(backward_block(k, n))


def _properties_of(block: BackwardBlock) -> BlockProperties:
    k, n, values = block.order, block.index, block.values
    where = [pos for pos, v in enumerate(values) if v != 0]
    nonzero = [values[pos] for pos in where]
    return BlockProperties(
        alternating_signs=bool(nonzero)
        and nonzero[0] > 0
        and all((a > 0) != (b > 0) for a, b in zip(nonzero, nonzero[1:])),
        zero_sum=sum(values) == 0,
        leading_matches_forward=values[0] == term(k, k + n),
        leading_is_power_of_two=values[0] == 2**n,
        last_nonzero_unit=bool(nonzero) and abs(nonzero[-1]) == 1,
        second_last_odd=len(nonzero) >= 2 and abs(nonzero[-2]) == 2 * n + 1,
        # every value before the second-to-last nonzero one
        interior_even=len(where) < 2 or all(v % 2 == 0 for v in values[: where[-2]]),
    )

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
    count.
    """
    return k * (k + 1) // 2 * abs(j).bit_length()


def _validate_order(k) -> None:
    _require_int("order", k, 2)


def _square_mod(c: list[int]) -> list[int]:
    """c(x)^2 mod P_k for a coefficient vector c of length k.

    Squaring a big int costs about two thirds of a product of two
    different ones, so each cross term 2 c_i c_l is taken as
    (c_i + c_l)^2 - c_i^2 - c_l^2 from the k squares: k(k+1)/2 squarings
    and no general product.
    """
    k = len(c)
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


def _cassini_square(c: list[int], odd: bool) -> list[int]:
    """x^(2e) mod P_2 from c = x^e mod P_2 = (F(e-1), F(e)), odd telling
    whether e is.

    Cassini's identity F(e-1) F(e+1) - F(e)^2 = (-1)^e gives the cross
    term from the two squares, c_0 c_1 = c_1^2 - c_0^2 + (-1)^e, so a
    doubling costs two squarings where _square_mod takes three.  It holds
    for powers of x only, not for an arbitrary vector.
    """
    a, b = c[0] * c[0], c[1] * c[1]
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
    one polynomial squaring per bit of |j| and, per set bit, a step by x
    or 1/x that costs k additions.  At k = 2 the squaring is
    _cassini_square, two big-integer squarings instead of three; it needs
    only the parity of the exponent so far, which a squaring makes even
    and a step by x or 1/x makes odd.
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

"""Sequence engine tests.

The reference oracle below re-derives terms from the two defining rules
with an independent dict-based implementation, and the frozen tables pin
hand-checked values, so the engine is never tested against itself.
"""

from __future__ import annotations

import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from kbonacci import sequences
from kbonacci.bench import iterative_term
from kbonacci.builders import fast_term
from kbonacci.sequences import (
    FRAME_TERMS,
    WINDOW_CAP,
    KbonacciSequence,
    LucasSequence,
    backward_block,
    block_properties,
    closed_form_band,
    fibonacci_term,
    lucas_term,
    term,
    term_range,
    x_power_mod,
)


def oracle_values(k: int, lo: int, hi: int) -> dict[int, int]:
    """Independent reference: seeds, forward sum rule, reversed rule."""
    values = {j: 0 for j in range(k - 1)}
    values[k - 1] = 1
    for j in range(k, hi + 1):
        values[j] = sum(values[j - n] for n in range(1, k + 1))
    for j in range(-1, lo - 1, -1):
        values[j] = values[j + k] - sum(values[j + k - n] for n in range(1, k))
    return values


# hand-checked forward rows
FORWARD = {
    2: [0, 1, 1, 2, 3, 5, 8, 13, 21, 34],
    3: [0, 0, 1, 1, 2, 4, 7, 13, 24, 44],
    4: [0, 0, 0, 1, 1, 2, 4, 8, 15, 29],
    5: [0, 0, 0, 0, 1, 1, 2, 4, 8, 16],
}

# hand-checked backward run for order 4: indices -1 down to -8
BACKWARD_4 = [1, -1, 0, 0, 2, -3, 1, 0]

LUCAS = {-5: -11, -4: 7, -3: -4, -2: 3, -1: -1, 0: 2, 1: 1, 2: 3, 3: 4, 4: 7, 5: 11, 6: 18, 7: 29}


def test_forward_rows_frozen():
    for k, row in FORWARD.items():
        assert [term(k, j) for j in range(len(row))] == row


def test_backward_run_frozen():
    assert [term(4, -i) for i in range(1, 9)] == BACKWARD_4


def test_seeds():
    for k in range(2, 9):
        assert [term(k, j) for j in range(k - 1)] == [0] * (k - 1)
        assert term(k, k - 1) == 1


def test_matches_oracle_both_directions():
    for k in range(2, 9):
        reference = oracle_values(k, -40, 40)
        for j in range(-40, 41):
            assert term(k, j) == reference[j], (k, j)


def test_recurrence_holds_at_every_index():
    for k in range(2, 9):
        values = term_range(k, -60, 60)
        offset = 60
        for j in range(-60 + k, 61):
            window = values[j - k + offset : j + offset]
            assert values[j + offset] == sum(window), (k, j)


def test_term_range_order_and_bounds():
    assert term_range(4, -8, -1) == BACKWARD_4[::-1]
    assert term_range(2, 0, 6) == [0, 1, 1, 2, 3, 5, 8]
    assert term_range(3, 5, 5) == [4]
    with pytest.raises(ValueError):
        term_range(2, 3, 2)


def test_fibonacci_shorthand():
    assert [fibonacci_term(j) for j in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert fibonacci_term(-5) == 5


def test_lucas_frozen_and_recurrence():
    for j, value in LUCAS.items():
        assert lucas_term(j) == value
    for j in range(-30, 30):
        assert lucas_term(j + 2) == lucas_term(j + 1) + lucas_term(j)


def test_lucas_fibonacci_pair_spot_checks():
    # L(2) + L(4) = 10 = 5 * F(3)
    assert lucas_term(2) + lucas_term(4) == 10 == 5 * fibonacci_term(3)
    for n in range(-10, 11):
        assert fibonacci_term(n) + fibonacci_term(n + 2) == lucas_term(n + 1)


def test_sequence_objects_are_deterministic():
    for k in (2, 3, 5):
        a = KbonacciSequence(k)
        b = KbonacciSequence(k)
        for j in (-17, -3, 0, 4, 25):
            assert a.term(j) == b.term(j) == term(k, j)
    lucas = LucasSequence()
    assert [lucas.term(j) for j in (-2, 0, 3)] == [3, 2, 4]
    assert lucas.term_range(0, 4) == [2, 1, 3, 4, 7]


def test_order_validation():
    for bad in (1, 0, -3, True, 2.0, "2"):
        with pytest.raises(ValueError):
            term(bad, 1)
    with pytest.raises(ValueError):
        KbonacciSequence(1)


@pytest.mark.parametrize("read, args", [(term, (1,)), (term_range, (0, 1))])
@pytest.mark.parametrize("order", [[2], {2: 1}])
def test_unhashable_orders_are_rejected_as_orders(read, args, order):
    with pytest.raises(ValueError, match="order must be an integer"):
        read(order, *args)


@pytest.mark.parametrize(
    "read, args",
    [
        (term, (2, True)),
        (term, (2, 2.0)),
        (term, (2, 5000.0)),
        (term, (2, "3")),
        (term_range, (2, 0, 3.0)),
        (term_range, (2, 0.0, 3)),
        (term_range, (2, False, 3)),
        (closed_form_band, (2, 2.5)),
        (closed_form_band, (2, 3.0)),
        (lucas_term, (1.0,)),
        (fibonacci_term, (True,)),
        (x_power_mod, (2, 2.0)),
        (x_power_mod, (2, True)),
    ],
)
def test_index_validation(read, args):
    with pytest.raises(ValueError):
        read(*args)


def test_shared_orders_are_bounded():
    bound = sequences.ORDER_CACHE_SIZE
    for k in range(2, bound + 12):
        term(k, 5)
    info = sequences._shared.cache_info()
    assert info.currsize == bound
    # order 3 was dropped; reading it again builds it afresh
    reference = oracle_values(3, -40, 40)
    assert term_range(3, -40, 40) == [reference[j] for j in range(-40, 41)]
    assert sequences._shared.cache_info().misses == info.misses + 1


def test_closed_form_band_one():
    # band one: term(k, j) = 2^(j-k) for k <= j <= 2k-1
    for k in range(2, 9):
        for j in range(k, 2 * k):
            assert closed_form_band(k, j) == 2 ** (j - k) == term(k, j)


def test_closed_form_band_two_contract():
    # band two: the op returns 2^(j-k) - (2^(j-2k+1) - 1) for 2k <= j <= 3k-2
    for k in range(2, 9):
        for j in range(2 * k, 3 * k - 1):
            expected = 2 ** (j - k) - (2 ** (j - 2 * k + 1) - 1)
            assert closed_form_band(k, j) == expected


def test_closed_form_band_two_exact_region():
    # the band-two expression is exact only at the first two band indices;
    # for k <= 3 that already covers the whole band
    for k in range(2, 9):
        assert closed_form_band(k, 2 * k) == term(k, 2 * k)
        if k >= 3:
            assert closed_form_band(k, 2 * k + 1) == term(k, 2 * k + 1)
    for k in (2, 3):
        for j in range(2 * k, 3 * k - 1):
            assert closed_form_band(k, j) == term(k, j)


def test_closed_form_band_two_known_deviation():
    # from j = 2k+2 on, the stated expression drifts above the true term;
    # smallest case: k=4, j=10 gives 57 while the sequence value is 56
    assert closed_form_band(4, 10) == 57
    assert term(4, 10) == 56
    assert closed_form_band(5, 13) == 241
    assert term(5, 13) == 236
    # corrected expression 2^(j-k) - (j-2k+2)*2^(j-2k-1) is exact bandwide
    for k in range(2, 9):
        for j in range(2 * k + 1, 3 * k - 1):
            m = j - 2 * k
            assert term(k, j) == 2 ** (j - k) - (m + 2) * 2 ** (m - 1), (k, j)


def test_closed_form_outside_bands():
    assert closed_form_band(4, 6) == 4
    assert closed_form_band(2, 4) == 3
    assert closed_form_band(3, 2) is None
    for k in range(2, 9):
        assert closed_form_band(k, k - 1) is None
        assert closed_form_band(k, 3 * k - 1) is None
        assert closed_form_band(k, -1) is None


def test_backward_block_indices_and_values():
    block = backward_block(4, 2)
    assert block.values == (4, -8, 5, -1)
    assert block.indices == (-9, -10, -11, -12)
    assert backward_block(4, 0).values == (1, -1, 0, 0)
    assert backward_block(5, 3).values == (8, -20, 18, -7, 1)
    with pytest.raises(ValueError):
        backward_block(4, -1)
    with pytest.raises(ValueError):
        backward_block(1, 0)


def test_block_leader_matches_forward_term():
    # leader == term(k, k+n) holds for n <= k-1 (both sides are 2^n) and
    # additionally at n == k for odd k, where both sides are 2^k - 1;
    # beyond that the two sequences part ways
    for k in range(2, 9):
        for n in range(0, 21):
            leading = backward_block(k, n).values[0]
            expected_equal = n <= k - 1 or (n == k and k % 2 == 1)
            assert (leading == term(k, k + n)) == expected_equal, (k, n)
            assert (leading == 2**n) == (n <= k - 1), (k, n)


def test_block_leader_at_n_equal_k():
    # at n == k the leader is 2^k + (-1)^k while the forward term is 2^k - 1
    for k in range(2, 9):
        leading = backward_block(k, k).values[0]
        assert leading == 2**k + (-1) ** k, k
        assert term(k, 2 * k) == 2**k - 1, k
    # frozen smallest mismatches
    assert backward_block(2, 2).values[0] == 5
    assert term(2, 4) == 3
    assert backward_block(4, 4).values[0] == 17
    assert term(4, 8) == 15


def test_block_properties_all_hold_in_structured_range():
    for k in range(3, 9):
        for n in range(1, k - 1):
            props = block_properties(k, n)
            assert all(props.as_dict().values()), (k, n, props)


def test_block_properties_k4_n2_all_true():
    assert all(block_properties(4, 2).as_dict().values())


def test_block_properties_k3_n2_mixed():
    props = block_properties(3, 2)
    assert props.as_dict() == {
        "alternating_signs": True,
        "zero_sum": False,  # 4 - 8 + 5 = 1
        "leading_matches_forward": True,
        "leading_is_power_of_two": True,
        "last_nonzero_unit": False,
        "second_last_odd": False,
        "interior_even": True,
    }


def test_block_properties_k3_n3_leader_not_power():
    # block (7, -20, 18): the leader still equals the forward term
    assert backward_block(3, 3).values == (7, -20, 18)
    props = block_properties(3, 3)
    assert props.leading_matches_forward
    assert not props.leading_is_power_of_two
    assert not props.zero_sum


def test_block_last_nonzero_sign_alternates_with_block_index():
    # within the structured range the last nonzero entry is (-1)^(n+1)
    for k in range(3, 9):
        for n in range(1, k - 1):
            values = backward_block(k, n).values
            nonzero = [v for v in values if v != 0]
            assert nonzero[-1] == (-1) ** (n + 1), (k, n)
            assert abs(nonzero[-2]) == 2 * n + 1, (k, n)


def test_first_block_is_one_minus_one():
    for k in range(2, 9):
        expected = (1, -1) + (0,) * (k - 2)
        assert backward_block(k, 0).values == expected
        assert all(block_properties(k, 0).as_dict().values()), k


def test_backward_blocks_at_a_large_order():
    # a block steps the window k indices back and reads k terms at once;
    # block 1 at this order also crosses the cap into a bounded frame
    k = 3000
    reference = oracle_values(k, -2 * k, k - 1)
    seq = KbonacciSequence(k)
    for n in (0, 1):
        base = n * k
        expected = [reference[-(base + i)] for i in range(k, 0, -1)]
        assert seq.term_range(-(base + k), -(base + 1)) == expected, n
    assert backward_block(k, 1).values == tuple(reversed(expected))


def test_frame_steps_both_ways_match_the_oracle():
    # reads that step a bounded frame forward and back, often by more
    # than its length, so each end is dropped and read again
    rng = random.Random(20261019)
    for k in (2, 5):
        edge = WINDOW_CAP + 3 * FRAME_TERMS * (k + 1)
        reference = oracle_values(k, -edge - k, edge)
        seq = KbonacciSequence(k)
        for sign in (1, -1):
            for _ in range(300):
                j = sign * rng.randint(WINDOW_CAP + 1, edge)
                assert seq.term(j) == reference[j], (k, j)
                assert seq.term_range(j - k, j) == [reference[i] for i in range(j - k, j + 1)], (k, j)


def test_concurrent_reads_stay_consistent():
    seq = KbonacciSequence(3)
    expected = {j: oracle_values(3, -80, 80)[j] for j in range(-80, 81)}

    def worker(start):
        out = {}
        for j in range(start, start + 40):
            out[j] = seq.term(j)
        return out

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, [-80, -60, -40, -20, 0, 20, 40, -10]))
    for chunk in results:
        for j, value in chunk.items():
            assert value == expected[j]


def test_concurrent_reads_beyond_the_cap_stay_consistent():
    seq = KbonacciSequence(3)
    starts = [WINDOW_CAP + 1, WINDOW_CAP + 30, 20_000, 20_025, -WINDOW_CAP - 40, -20_000]

    def worker(start):
        return {j: seq.term(j) for j in range(start, start + 40)}

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(worker, starts))
    for chunk in results:
        for j, value in chunk.items():
            assert value == x_power_mod(3, j)[2], j


# ---------------------------------------------------------------------------
# terms beyond the window cap come from x^j mod P_k and from frames stepped
# by the double-shift law


@pytest.mark.parametrize("k", range(2, 9))
def test_polynomial_engine_equals_window(k):
    # term() serves these indices from the window, so call the engine itself
    window = [term(k, j) for j in range(-3000, 3001)]
    assert [x_power_mod(k, j)[k - 1] for j in range(-3000, 3001)] == window


def test_polynomial_engine_small_powers():
    assert x_power_mod(3, 0) == [1, 0, 0]
    assert x_power_mod(3, 2) == [0, 0, 1]
    assert x_power_mod(3, 3) == [1, 1, 1]  # x^3 = x^2 + x + 1
    assert x_power_mod(3, -1) == [-1, -1, 1]  # 1/x = x^2 - x - 1
    assert x_power_mod(2, 10) == [34, 55]  # x^n = F(n) x + F(n-1)
    with pytest.raises(ValueError):
        x_power_mod(1, 5)


def test_term_matches_iterative_across_the_cap():
    for k in range(2, 9):
        for j in [*range(WINDOW_CAP - k, WINDOW_CAP + k + 1), 20_000]:
            assert term(k, j) == iterative_term(k, j), (k, j)


def test_negative_terms_beyond_the_cap_match_a_backward_loop():
    lowest = -(WINDOW_CAP + 40)
    for k in range(2, 9):
        reference = oracle_values(k, lowest, k - 1)
        for j in range(lowest, -(WINDOW_CAP - k) + 1):
            assert term(k, j) == reference[j], (k, j)
        assert term_range(k, lowest, -WINDOW_CAP) == [reference[j] for j in range(lowest, -WINDOW_CAP + 1)]


def test_lucas_terms_beyond_the_cap():
    # L(n) = F(n - 1) + F(n + 1), with F(-m) = (-1)^(m + 1) F(m)
    fib = [0, 1]
    while len(fib) < 5003:
        fib.append(fib[-1] + fib[-2])

    def f(n):
        return fib[n] if n >= 0 else (-1) ** (-n + 1) * fib[-n]

    for n in (5000, -5000, 5001, -5001):
        assert lucas_term(n) == f(n - 1) + f(n + 1), n
    assert LucasSequence().term_range(-5001, -4999) == [f(n - 1) + f(n + 1) for n in (-5001, -5000, -4999)]


def test_window_stays_bounded_beyond_the_cap():
    far = 3 * WINDOW_CAP
    sequences_under_test = [KbonacciSequence(k) for k in (2, 5, 100)] + [LucasSequence()]
    for seq in sequences_under_test:
        k = seq.order
        for j in (far, -far, WINDOW_CAP + 1, -WINDOW_CAP - 1, far + 7, -far - 7):
            seq.term(j)
        seq.term_range(far, far + 3)
        seq.term_range(-far, far)
        seq.term_range(WINDOW_CAP - 3, far)
        assert seq._window.hi <= WINDOW_CAP + k, k
        assert seq._window.lo >= -WINDOW_CAP, k
        for frame in seq._frames.values():
            assert k + 1 <= frame.hi - frame.lo + 1 <= FRAME_TERMS * (k + 1), k


def test_reads_beyond_the_cap_step_when_that_is_cheaper(monkeypatch):
    # a lone deep read at a small order starts from x^j mod P_k and leaves
    # the window as it was
    seq = KbonacciSequence(2)
    j = 10**5
    assert seq.term(j) == fast_term(2, j)
    assert seq._window.lo == 0 and seq._window.up == [0, 1, 1]

    def refuse(*args):
        raise AssertionError("a nearby read must step, not start afresh")

    # reads near it step from its frame, forward and back
    monkeypatch.setattr(sequences, "x_power_mod", refuse)
    for i in (j + 5, j - 30, j + 1, j):
        assert seq.term(i) == fast_term(2, i), i
    assert seq.term_range(j - 3, j + 3) == [fast_term(2, i) for i in range(j - 3, j + 4)]
    # at a large order, reads just past the cap step from the window's edge
    k, past = 100, WINDOW_CAP + 500
    big = KbonacciSequence(k)
    assert big.term(past) == iterative_term(k, past)
    assert big.term(-past) == oracle_values(k, -past, k - 1)[-past]
    assert big._window.hi <= WINDOW_CAP + k and big._window.lo == -WINDOW_CAP


def test_term_range_far_from_zero_is_bounded():
    j = 10**6
    tracemalloc.start()
    try:
        values = term_range(2, j, j + 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values[2] == values[1] + values[0]
    assert values == [fast_term(2, i) for i in (j, j + 1, j + 2)]
    assert peak < 4 << 20  # each term is about 85 KiB

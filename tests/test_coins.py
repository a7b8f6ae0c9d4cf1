"""Bit sources, uniform integers, bit sizes and lcm."""

import hashlib
import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from countgen.coins import (
    _BLOCK_BITS,
    _MASK64,
    FAIL,
    CoinSource,
    TapeSource,
    bit_size,
    draw_uniform,
    gen_uniform,
    lcm_upto,
    outcome_law,
    retries_for,
)
from countgen.exceptions import TapeExhausted


def shift_count_bits(n):
    # naive oracle: smallest b with n <= 2**b
    b = 0
    while (1 << b) < n:
        b += 1
    return b


def doubling_size(n):
    # doubling-squaring bit size routine; returns 1 for n <= 1
    if n <= 1:
        return 1
    h = h0 = 1
    k = k0 = 2
    while k <= n:
        h0, h = h, h + h
        k0, k = k, k * k
    return h0 + doubling_size(n // k0)


class ReferenceCoinSource:
    """The per-bit tape reader that whole-block draws replace."""

    def __init__(self, seed):
        self.bits_consumed = 0
        self._key = (seed & _MASK64).to_bytes(8, "little")
        self._block_index = -1
        self._block = 0

    def _bit(self, i):
        block, offset = divmod(i, _BLOCK_BITS)
        if block != self._block_index:
            digest = hashlib.blake2b(
                block.to_bytes(8, "little"), key=self._key
            ).digest()
            self._block = int.from_bytes(digest, "little")
            self._block_index = block
        return (self._block >> offset) & 1


def reference_draw(src, k):
    base = src.bits_consumed
    value = 0
    for j in range(k):
        value |= src._bit(base + j) << j
    src.bits_consumed = base + k
    return value


def reference_draw_uniform(src, total, attempts):
    """draw_uniform as it was before forced choices skipped the draw."""
    width = bit_size(total)
    for _ in range(attempts):
        u = src.draw(width) + 1
        if u <= total:
            return u
    return FAIL


def reference_tape_draw(bits, base, k):
    value = 0
    for j in range(k):
        value |= bits[base + j] << j
    return value


# SHA-256 of "seed k value bits_consumed" lines over TAPE_WIDTHS for seeds
# 0, 1 and 2**64 - 1, recorded with the per-bit reader: a changed tape
# changes this digest.
TAPE_WIDTHS = (
    0, 1, 2, 3, 7, 8, 63, 64, 65, 500, 511, 512, 513, 1100, 1500, 1, 0, 1023, 1024, 1025
)
TAPE_DIGEST = "1f2cfe7decca53455ef41e7947a630a40557e285f2720c460bd0c23025a6f138"


def iterated_gcd_lcm(n):
    out = 1
    for i in range(1, n + 1):
        out = out * i // math.gcd(out, i)
    return out


class TestDrawBits:
    def test_empty_draw(self):
        src = TapeSource(())
        assert src.draw(0) == 0
        assert src.bits_consumed == 0

    def test_little_endian(self):
        # tape 101... reads as 1 + 4 = 5
        src = TapeSource((1, 0, 1))
        assert src.draw(3) == 5

    def test_successive_draws_partition_tape(self):
        src = TapeSource((1, 1, 0, 1))
        first = src.draw(2)
        second = src.draw(2)
        assert (first, second) == (0b11, 0b10)
        assert src.bits_consumed == 4

    def test_exhaustion(self):
        src = TapeSource((1,))
        with pytest.raises(TapeExhausted):
            src.draw(2)

    def test_consumption_counter(self):
        src = CoinSource(1)
        for k in (0, 3, 7, 64, 130):
            before = src.bits_consumed
            src.draw(k)
            assert src.bits_consumed - before == k

    def test_seed_replay(self):
        a = CoinSource(12345)
        b = CoinSource(12345)
        assert [a.draw(13) for _ in range(40)] == [b.draw(13) for _ in range(40)]

    def test_distinct_seeds_distinct_tapes(self):
        assert CoinSource(1).draw(64) != CoinSource(2).draw(64)

    def test_counter_mode_equals_bitwise_reads(self):
        whole = CoinSource(7).draw(600)
        piecewise = CoinSource(7)
        got = 0
        pos = 0
        for k in (1, 64, 200, 335):
            got |= piecewise.draw(k) << pos
            pos += k
        assert got == whole


class TestBlockDraws:
    SEEDS = (0, 1, 7, 12345, -1, 2**64 + 5, 2**64 - 1)

    @staticmethod
    def widths(rng):
        # 0 -> 511 -> 512 -> 513 starts, then a draw across three blocks
        head = [511, 1, 1, 1100]
        tail = [rng.choice((0, 1, 2, 3, 7, 63, 64, rng.randrange(1501))) for _ in range(60)]
        return head + tail

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_per_bit_reference(self, seed):
        rng = random.Random(seed & 0xFFFF)
        for _ in range(5):
            src, ref = CoinSource(seed), ReferenceCoinSource(seed)
            starts = set()
            for k in self.widths(rng):
                starts.add(src.bits_consumed)
                assert src.draw(k) == reference_draw(ref, k)
                assert src.bits_consumed == ref.bits_consumed
            assert {0, 511, 512, 513} <= starts

    @staticmethod
    def assert_widths_match(seed, widths):
        src, ref = CoinSource(seed), ReferenceCoinSource(seed)
        for k in widths:
            assert src.draw(k) == reference_draw(ref, k), (seed, k, ref.bits_consumed)
            assert src.bits_consumed == ref.bits_consumed

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fresh_source_draws_zero_bits_first(self, seed):
        self.assert_widths_match(seed, [0, 0, 1, 0, 5])

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("head", [[512], [511, 1], [500, 12], [3, 509]])
    def test_draw_ending_at_block_boundary(self, seed, head):
        # the draw ends exactly at bit 512; a 0-bit draw there and the next
        # 1-bit draw, which loads block 1
        self.assert_widths_match(seed, head + [0, 1, 0, 2])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_short_draws_across_three_blocks(self, seed):
        rng = random.Random(seed & 0xFFFF)
        widths = []
        while sum(widths) < 3 * _BLOCK_BITS + 40:
            widths.append(rng.randint(1, 3))
        self.assert_widths_match(seed, widths)

    def test_seed_reduced_mod_two_to_the_64(self):
        assert CoinSource(-1).draw(700) == CoinSource(2**64 - 1).draw(700)
        assert CoinSource(2**64 + 5).draw(700) == CoinSource(5).draw(700)

    def test_negative_width_rejected(self):
        src, ref = CoinSource(0), ReferenceCoinSource(0)
        assert src.draw(5) == reference_draw(ref, 5)
        with pytest.raises(ValueError):
            src.draw(-1)
        assert src.bits_consumed == 5
        # the loaded block is still read from bit 5
        assert src.draw(9) == reference_draw(ref, 9)

    def test_pinned_tape_digest(self):
        h = hashlib.sha256()
        for seed in (0, 1, 2**64 - 1):
            src = CoinSource(seed)
            for k in TAPE_WIDTHS:
                value = src.draw(k)
                h.update(f"{seed} {k} {value} {src.bits_consumed}\n".encode())
        assert h.hexdigest() == TAPE_DIGEST

    def test_tape_source_equals_per_bit_reference(self):
        rng = random.Random(3)
        for length in (0, 1, 5, 64, 200):
            bits = tuple(rng.randrange(2) for _ in range(length))
            src = TapeSource(bits)
            while True:
                k = rng.randrange(length + 2)
                base = src.bits_consumed
                if base + k > length:
                    with pytest.raises(TapeExhausted):
                        src.draw(k)
                    assert src.bits_consumed == base
                    break
                assert src.draw(k) == reference_tape_draw(bits, base, k)
                assert src.bits_consumed == base + k

    def test_tape_source_validation(self):
        with pytest.raises(ValueError):
            TapeSource((0, 2))
        with pytest.raises(ValueError):
            TapeSource((1,)).draw(-1)
        assert TapeSource((True, False, True)).draw(3) == 5


class TestGenUniform:
    def test_singleton_consumes_nothing(self):
        src = CoinSource(0)
        assert gen_uniform(src, 1) == 1
        assert src.bits_consumed == 0

    def test_power_of_two_never_fails(self):
        law = outcome_law(lambda src: gen_uniform(src, 8, Fraction(1, 4)))
        assert FAIL not in law
        assert law == {k: Fraction(1, 8) for k in range(1, 9)}

    def test_three_sided_die(self):
        # two trials of two bits; over all 4-bit tapes the failure mass is
        # exactly 1/16 and each non-FAIL value has mass 5/16
        law = outcome_law(lambda src: gen_uniform(src, 3, Fraction(1, 4)))
        assert law[FAIL] == Fraction(1, 16)
        for k in (1, 2, 3):
            assert law[k] == Fraction(5, 16)
            assert law[k] / (1 - law[FAIL]) == Fraction(1, 3)

    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
    def test_exact_uniformity_and_failure_bound(self, n, delta):
        law = outcome_law(lambda src: gen_uniform(src, n, delta))
        fail_mass = law.get(FAIL, Fraction(0))
        assert fail_mass < delta
        ok = 1 - fail_mass
        for k in range(1, n + 1):
            assert law[k] / ok == Fraction(1, n)

    def test_determinism(self):
        runs = [gen_uniform(CoinSource(99), 13) for _ in range(3)]
        assert len(set(runs)) == 1


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body if it runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestDrawUniform:
    def test_law_and_tape_use(self):
        # five values on three bits: each attempt accepts with probability 5/8
        law = outcome_law(lambda src: (draw_uniform(src, 5, 2), src.bits_consumed))
        for u in range(1, 6):
            assert law[u, 3] == Fraction(1, 8)
            assert law[u, 6] == Fraction(3, 8) * Fraction(1, 8)
        assert law[FAIL, 6] == Fraction(3, 8) ** 2
        assert len(law) == 11

    def test_no_attempts_draws_nothing(self):
        src = TapeSource(())
        assert draw_uniform(src, 7, 0) is FAIL
        assert src.bits_consumed == 0

    def test_forced_choice(self):
        # one option: the value is 1 and no bit is read, but it still takes
        # an attempt
        for src in (TapeSource(()), CoinSource(3)):
            assert draw_uniform(src, 1, 1) == 1
            assert draw_uniform(src, 1, 0) is FAIL
            assert src.bits_consumed == 0

    @pytest.mark.parametrize("total", [0, -1, -(2**70)])
    def test_empty_range_rejected(self, total):
        for attempts in (0, 1):
            with pytest.raises(ValueError):
                draw_uniform(CoinSource(0), total, attempts)

    TOTALS = sorted(
        {*range(1, 71)} | {2**k + d for k in range(1, 71) for d in (-1, 0, 1)}
    )

    @staticmethod
    def outcome(draw, src, total, attempts):
        try:
            value = draw(src, total, attempts)
        except TapeExhausted:
            value = "exhausted"
        return value, src.bits_consumed

    @pytest.mark.parametrize("attempts", range(5))
    def test_equals_reference_on_coin_sources(self, attempts):
        for total in self.TOTALS:
            for seed in range(3):
                src, ref = CoinSource(seed), CoinSource(seed)
                for _ in range(4):
                    assert self.outcome(draw_uniform, src, total, attempts) == \
                        self.outcome(reference_draw_uniform, ref, total, attempts)

    @pytest.mark.parametrize("attempts", range(5))
    def test_equals_reference_on_tape_sources(self, attempts):
        rng = random.Random(attempts)
        for total in self.TOTALS:
            for length in (0, 1, 7, 70, 150):
                bits = [rng.randrange(2) for _ in range(length)]
                src, ref = TapeSource(bits), TapeSource(bits)
                for _ in range(3):
                    assert self.outcome(draw_uniform, src, total, attempts) == \
                        self.outcome(reference_draw_uniform, ref, total, attempts)

    @pytest.mark.parametrize("attempts", range(5))
    def test_law_equals_reference(self, attempts):
        for total in [*range(1, 13), 16]:
            def run(src, draw):
                return draw(src, total, attempts), src.bits_consumed

            assert outcome_law(lambda src: run(src, draw_uniform)) == \
                outcome_law(lambda src: run(src, reference_draw_uniform))


class TestRetriesFor:
    @pytest.mark.parametrize(
        "delta", [0, Fraction(0), -1, Fraction(-1, 3), 1, Fraction(2), "3/2"]
    )
    def test_outside_open_unit_interval_rejected(self, delta):
        with deadline(5):
            with pytest.raises(ValueError, match="delta"):
                retries_for(delta)

    @pytest.mark.parametrize(
        "delta, t",
        [(Fraction(1, 2), 1), (Fraction(1, 4), 2), (Fraction(1, 5), 3), (Fraction(99, 100), 1)],
    )
    def test_smallest_sufficient_attempts(self, delta, t):
        assert retries_for(delta) == t

    def test_gen_uniform_rejects_bad_delta_before_drawing(self):
        src = CoinSource(0)
        for delta in (0, 1, 2):
            with pytest.raises(ValueError):
                gen_uniform(src, 5, delta)
        assert src.bits_consumed == 0


class TestBitSize:
    @pytest.mark.parametrize(
        "n,expected", [(1, 0), (2, 1), (3, 2), (4, 2), (8, 3), (1000, 10)]
    )
    def test_known_values(self, n, expected):
        assert bit_size(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bit_size(0)

    @given(st.integers(min_value=1, max_value=10**30))
    def test_matches_shift_count_oracle(self, n):
        assert bit_size(n) == shift_count_bits(n)

    @given(st.integers(min_value=2, max_value=10**9))
    def test_matches_doubling_routine(self, n):
        assert bit_size(n) == doubling_size(n - 1)

    @given(st.integers(min_value=2, max_value=10**30))
    def test_unique_bracketing(self, n):
        b = bit_size(n)
        assert 2 ** (b - 1) < n <= 2**b


class TestLcmUpto:
    @pytest.mark.parametrize("n,expected", [(1, 1), (6, 60), (10, 2520)])
    def test_known_values(self, n, expected):
        assert lcm_upto(n) == expected

    @given(st.integers(min_value=1, max_value=60))
    def test_matches_iterated_gcd_oracle(self, n):
        assert lcm_upto(n) == iterated_gcd_lcm(n)

    def test_bit_length_growth(self):
        # lcm{1..n} stays within O(n) bits
        for n in (10, 50, 200):
            assert lcm_upto(n).bit_length() <= 2 * n

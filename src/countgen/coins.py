"""Unbiased bit sources and the exact integer routines built on them.

Everything downstream draws randomness exclusively through a coin source:
a deterministic, replayable stream of unbiased bits.  The production
source expands a 64-bit seed in counter mode; tests substitute an explicit
finite tape so distributions can be enumerated exactly.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from .exceptions import TapeExhausted


class Fail:
    """Distinguished failure outcome, distinct from every domain value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FAIL"

    def __bool__(self):
        return False


FAIL = Fail()

_MASK64 = (1 << 64) - 1
_BLOCK_BITS = 512
# Longest tape prefix and most prefixes outcome_law explores.
_LAW_MAX_DEPTH = 96
_LAW_MAX_LEAVES = 1_000_000


class CoinSource:
    """Replayable stream of unbiased bits keyed by a 64-bit seed.

    The tape is defined bit by bit: bit i is bit ``i % 512`` of the
    little-endian integer of ``blake2b(i // 512 as 8 little-endian bytes,
    key=seed as 8 little-endian bytes)``.  Equal seeds therefore replay the
    identical bit sequence, and a draw may take any run of bits from one
    block at once.  ``bits_consumed`` advances by exactly k on every k-bit
    draw.  The source keeps the last block it hashed with its bit range, so
    a draw that lies inside that range costs one range check, one shift
    and one mask.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.bits_consumed = 0
        self._key = self.seed.to_bytes(8, "little")
        # the loaded block holds tape bits _block_start .. _block_end - 1
        self._block_start = 0
        self._block_end = 0
        self._block = 0

    def draw(self, k: int) -> int:
        """Next k tape bits as an integer, bit j weighted 2**j."""
        if k < 0:
            raise ValueError("bit count must be nonnegative")
        pos = self.bits_consumed
        end = pos + k
        start = self._block_start
        if start <= pos and end <= self._block_end:
            self.bits_consumed = end
            return (self._block >> (pos - start)) & ((1 << k) - 1)
        value = 0
        shift = 0
        while pos < end:
            if not self._block_start <= pos < self._block_end:
                index = pos // _BLOCK_BITS
                digest = hashlib.blake2b(
                    index.to_bytes(8, "little"), key=self._key
                ).digest()
                self._block = int.from_bytes(digest, "little")
                self._block_start = index * _BLOCK_BITS
                self._block_end = self._block_start + _BLOCK_BITS
            offset = pos - self._block_start
            take = min(self._block_end, end) - pos
            value |= ((self._block >> offset) & ((1 << take) - 1)) << shift
            shift += take
            pos += take
        self.bits_consumed = end
        return value


class TapeSource:
    """Coin source reading an explicit, finite tape of 0/1 cells."""

    def __init__(self, bits):
        bits = tuple(bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("tape cells must be 0 or 1")
        self._length = len(bits)
        cells = "".join("1" if b else "0" for b in reversed(bits))
        self._tape = int(cells or "0", 2)
        self.bits_consumed = 0

    def draw(self, k: int) -> int:
        if k < 0:
            raise ValueError("bit count must be nonnegative")
        base = self.bits_consumed
        if base + k > self._length:
            raise TapeExhausted(f"tape of {self._length} bits exhausted")
        self.bits_consumed = base + k
        return (self._tape >> base) & ((1 << k) - 1)


def bit_size(n: int) -> int:
    """Bits needed to index {1..n}: the unique b with 2**(b-1) < n <= 2**b.

    By convention ``bit_size(1) == 0``: indexing a singleton needs no bits.
    """
    if n < 1:
        raise ValueError("bit_size requires n >= 1")
    return (n - 1).bit_length()


def lcm_upto(n: int) -> int:
    """Least common multiple of {1..n}."""
    if n < 1:
        raise ValueError("lcm_upto requires n >= 1")
    out = 1
    for i in range(2, n + 1):
        out = out * i // math.gcd(out, i)
    return out


def retries_for(delta) -> int:
    """Smallest t >= 1 with 2**-t <= delta: attempts for a half-good trial."""
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0,1)")
    t = 1
    while (1 << t) * delta.numerator < delta.denominator:
        t += 1
    return t


def gen_uniform(src, n: int, delta=Fraction(1, 4)):
    """Uniform integer in {1..n}, or FAIL with probability below ``delta``.

    Each trial draws ``bit_size(n)`` bits and rejects values above n, so a
    non-FAIL output is exactly uniform.
    """
    if n < 1:
        raise ValueError("range must contain at least 1")
    return draw_uniform(src, n, retries_for(delta))


def draw_uniform(src, total: int, attempts: int):
    """Uniform integer in {1..total}, or FAIL after ``attempts`` rejections.

    Each attempt draws ``bit_size(total)`` bits and rejects values above total.
    A forced choice (``total == 1``) returns 1 without calling ``src.draw``:
    its attempt would draw 0 bits, which consume nothing and cannot fail.
    """
    if total < 1:
        raise ValueError("range must contain at least 1")
    if total == 1 and attempts >= 1:
        return 1
    width = (total - 1).bit_length()
    for _ in range(attempts):
        u = src.draw(width) + 1
        if u <= total:
            return u
    return FAIL


def outcome_law(run) -> dict:
    """Exact output distribution of ``run`` over all random tapes.

    ``run`` takes a coin source and returns a hashable outcome.  The
    consumed bit prefixes are explored exhaustively; the result maps each
    outcome to its probability as an exact Fraction.  Only usable when
    ``run`` consumes boundedly many bits on every path.
    """
    law: dict = {}
    stack = [()]
    explored = 0
    while stack:
        prefix = stack.pop()
        explored += 1
        if explored > _LAW_MAX_LEAVES:
            raise RuntimeError("outcome_law: tape tree exceeded max_leaves")
        if len(prefix) > _LAW_MAX_DEPTH:
            raise RuntimeError("outcome_law: consumption exceeded max_depth")
        try:
            out = run(TapeSource(prefix))
        except TapeExhausted:
            stack.append(prefix + (0,))
            stack.append(prefix + (1,))
            continue
        weight = Fraction(1, 1 << len(prefix))
        law[out] = law.get(out, Fraction(0)) + weight
    return law

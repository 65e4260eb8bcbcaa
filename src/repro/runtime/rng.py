"""One random stream for both backends, written with Python integers.

:class:`Pcg64Stream` is numpy's ``PCG64`` seeded through
``SeedSequence`` — the generator ``np.random.default_rng([seed, tag])``
builds — held as Python integers: the 128-bit LCG state and increment,
plus the ``has_uint32``/``uinteger`` pair PCG64 buffers half a 64-bit
output in.  Every draw runs in Python on that state, so the simulator's
node streams and a live host's stream need no numpy:

* ``random``, ``uniform``, ``integers`` and ``poisson`` draw exactly
  what numpy's ``Generator`` draws, value for value and state for state
  (``integers`` is numpy's Lemire bounded draw, ``poisson`` its
  multiplication method below λ = 10 and PTRS above);
* ``exponential`` is the inversion ``-scale * log1p(-random())``, not
  numpy's ziggurat, whose 256-entry tables are compiled into numpy.

Each draw refuses what numpy refuses, with numpy's exception type, and
a refused draw leaves the stream untouched.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = ["Pcg64Stream"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_INT64_MAX = (1 << 63) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: 2**-53: a 53-bit integer scaled into [0, 1), as numpy's next_double.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0


def _words(value: int) -> list[int]:
    """A non-negative int as little-endian u32 words (0 is ``[0]``)."""
    if value < 0:
        raise ValueError("seed entropy must be non-negative")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _consts(first: int, mult: int, count: int,
            known: Sequence[int] = ()) -> Sequence[int]:
    """The first ``count + 1`` of ``first``, ``first·mult``,
    ``first·mult²``, … (mod 2³²): ``known`` when it is that long, else
    ``known`` extended in a new list."""
    if len(known) > count:
        return known
    table = list(known) or [first]
    while len(table) <= count:
        table.append((table[-1] * mult) & _MASK32)
    return table


#: SeedSequence's hash constants in the order it draws them: the k-th
#: hashed word is xored with entry k and multiplied by entry k + 1.
#: They depend on nothing but the count, so they are drawn once, enough
#: for entropy of up to eight words (a seed and a tag of up to 128
#: bits each); a longer entropy extends a copy.
_HASH_CONSTS = _consts(_INIT_A, _MULT_A, _POOL_SIZE * 8)
#: The same for the output words, enough for eight u64 words.
_OUT_CONSTS = _consts(_INIT_B, _MULT_B, 16)


def _seed_state(entropy: list[int], n_words: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(n_words, uint64)``."""
    extra = entropy[_POOL_SIZE:]
    consts = _consts(_INIT_A, _MULT_A,
                     _POOL_SIZE * (_POOL_SIZE + len(extra)), _HASH_CONSTS)
    pool = []
    for k in range(_POOL_SIZE):
        value = ((entropy[k] if k < len(entropy) else 0) ^ consts[k]) \
            * consts[k + 1] & _MASK32
        pool.append(value ^ (value >> 16))
    # Each pool word, then each entropy word past the pool, is hashed
    # and mixed into every other pool word.
    k = _POOL_SIZE
    for src, word in [*enumerate(pool), *((None, w) for w in extra)]:
        for dst in range(_POOL_SIZE):
            if dst == src:
                continue
            if src is not None:
                word = pool[src]
            value = (word ^ consts[k]) * consts[k + 1] & _MASK32
            k += 1
            value = (_MIX_MULT_L * pool[dst]
                     - _MIX_MULT_R * (value ^ (value >> 16))) & _MASK32
            pool[dst] = value ^ (value >> 16)

    consts = _consts(_INIT_B, _MULT_B, 2 * n_words, _OUT_CONSTS)
    halves = []
    for i in range(2 * n_words):
        value = (pool[i % _POOL_SIZE] ^ consts[i]) * consts[i + 1] \
            & _MASK32
        halves.append(value ^ (value >> 16))
    # Two u32 words make one u64, low word first.
    return [halves[i] | halves[i + 1] << 32
            for i in range(0, len(halves), 2)]


#: numpy's ``POISSON_LAM_MAX``: the largest λ ``poisson`` accepts.
_POISSON_LAM_MAX = _INT64_MAX - math.sqrt(_INT64_MAX) * 10

#: Stirling-series coefficients of numpy's ``random_loggam``.
_LOGGAM_COEFFS = (8.333333333333333e-02, -2.777777777777778e-03,
                  7.936507936507937e-04, -5.952380952380952e-04,
                  8.417508417508418e-04, -1.917526917526918e-03,
                  6.410256410256410e-03, -2.955065359477124e-02,
                  1.796443723688307e-01, -1.39243221690590e+00)

#: log(2π), as numpy's ``random_loggam`` spells it.
_LOG_2PI = 1.8378770664093453


def _loggam(x: float) -> float:
    """numpy's ``random_loggam``: log Γ(x) by Stirling's series, with
    x below 7 shifted up to 7 and shifted back."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    series = _LOGGAM_COEFFS[9]
    for coeff in reversed(_LOGGAM_COEFFS[:9]):
        series = series * x2 + coeff
    result = (series / x0 + 0.5 * _LOG_2PI + (x0 - 0.5) * math.log(x0)
              - x0)
    for _ in range(n):
        result -= math.log(x0 - 1.0)
        x0 -= 1.0
    return result


class Pcg64Stream:
    """numpy's ``default_rng([seed, tag])`` stream, held in Python ints."""

    __slots__ = ("_state", "_inc", "has_uint32", "uinteger")

    def __init__(self, seed: int, tag: int) -> None:
        s0, s1, i0, i1 = _seed_state(_words(seed) + _words(tag), 4)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = 0
        self._step()
        self._state = (self._state + (s0 << 64 | s1)) & _MASK128
        self._step()
        self.has_uint32 = 0
        self.uinteger = 0

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128

    def _next64(self) -> int:
        """PCG64's XSL-RR output of the next state."""
        self._step()
        state = self._state
        value = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & _MASK64

    def random(self) -> float:
        """A float drawn from ``[0, 1)``, as numpy draws it."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A float drawn from ``[low, high)``, as numpy draws it and
        refuses it: a span that is not finite or is negative draws
        nothing."""
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0:
            raise ValueError("high - low < 0")
        return low + span * self.random()

    def exponential(self, scale: float = 1.0) -> float:
        """An exponential draw of mean ``scale``: the inversion of the
        next ``random()``.  A negative ``scale`` is refused as numpy
        refuses it (a NaN one is not)."""
        if not math.isnan(scale) and math.copysign(1.0, scale) < 0:
            raise ValueError("scale < 0")
        return -scale * math.log1p(-self.random())

    def poisson(self, lam: float = 1.0) -> int:
        """numpy's ``poisson(lam)`` from this stream."""
        lam = float(lam)
        if not lam >= 0:
            raise ValueError("lam < 0 or lam is NaN")
        if not lam <= _POISSON_LAM_MAX:
            raise ValueError("lam value too large")
        if lam >= 10:
            return self._poisson_ptrs(lam)
        if lam == 0:
            return 0
        # Multiplication method: count uniforms until their product
        # falls to exp(-lam).
        floor = math.exp(-lam)
        count, product = 0, self.random()
        while product > floor:
            count += 1
            product *= self.random()
        return count

    def _poisson_ptrs(self, lam: float) -> int:
        """Hörmann's transformed rejection with squeeze, as numpy's
        ``random_poisson_ptrs`` draws it."""
        slam = math.sqrt(lam)
        loglam = math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            if us == 0.0:
                # random() drew 0.0: numpy's k is then -inf cast to an
                # int64, negative, so the pair is rejected.
                continue
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            # numpy's log(0.0) is -inf, which always accepts.
            if v == 0.0 or (
                    math.log(v) + math.log(invalpha)
                    - math.log(a / (us * us) + b)
                    <= -lam + k * loglam - _loggam(float(k + 1))):
                return k

    def integers(self, low: int, high: int | None = None) -> int:
        """numpy's ``integers(low, high)`` from this stream: an int64
        drawn from ``[low, high)``, or ``[0, low)`` without ``high``."""
        if high is None:
            low, high = 0, low
        low, high = int(low), int(high) - 1
        if low < -_INT64_MAX - 1:
            raise ValueError("low is out of bounds for int64")
        if high > _INT64_MAX:
            raise ValueError("high is out of bounds for int64")
        if low > high:
            raise ValueError("high <= 0" if low == 0 else "low >= high")
        span = high - low
        if span == 0:
            return low
        # Ranges up to 2**32 draw buffered 32-bit halves.
        if span <= _MASK32:
            return low + self._lemire(span, self._next32, 32)
        return low + self._lemire(span, self._next64, 64)

    def _next32(self) -> int:
        """PCG64's buffered 32-bit output: the low half of a fresh
        64-bit output, then its high half."""
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        value = self._next64()
        self.has_uint32 = 1
        self.uinteger = value >> 32
        return value & _MASK32

    @staticmethod
    def _lemire(span: int, draw: Callable[[], int], bits: int) -> int:
        """Lemire's unbiased ``[0, span]`` from ``bits``-bit outputs.

        A full range (``span`` of all ones) is one raw output here, as
        numpy special-cases it: its ``bound`` does not wrap to 0 in
        Python's integers, so the first draw is never rejected."""
        bound = span + 1
        mask = (1 << bits) - 1
        scaled = draw() * bound
        if (scaled & mask) < bound:
            threshold = (mask - span) % bound
            while (scaled & mask) < threshold:
                scaled = draw() * bound
        return scaled >> bits

"""One random stream for both backends, written with Python integers.

:class:`Pcg64Stream` is numpy's ``PCG64`` seeded through
``SeedSequence`` — the generator ``np.random.default_rng([seed, tag])``
builds — held as Python integers: the 128-bit LCG state and increment,
plus the ``has_uint32``/``uinteger`` pair PCG64 buffers half a 64-bit
output in.  ``random`` and ``uniform`` are one 64-bit output each and
run in Python, so the simulator's node streams and a live host's
stream draw exactly what numpy draws without loading numpy.

``exponential``, ``poisson`` and ``integers`` are defined by numpy's C
code (a ziggurat, PTRS, Lemire's bounded integers).  For those the
stream imports numpy on first use, copies its state into one
process-wide ``Generator(PCG64())``, draws, and reads the state back:
the stream's integers stay the only owner of the state, so draws of
all five methods interleave exactly as on one numpy generator.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = ["Pcg64Stream"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

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


def _seed_state(entropy: list[int], n_words: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(n_words, uint64)``."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(value))

    out_const = _INIT_B
    halves = []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ out_const
        out_const = (out_const * _MULT_B) & _MASK32
        value = (value * out_const) & _MASK32
        halves.append(value ^ (value >> 16))
    # Two u32 words make one u64, low word first.
    return [halves[i] | halves[i + 1] << 32
            for i in range(0, len(halves), 2)]


#: The process-wide numpy generator the C-defined draws run on; built
#: on the first such draw, so a process that makes none never imports
#: numpy.
_numpy_generator: Any = None


def _generator() -> Any:
    global _numpy_generator
    if _numpy_generator is None:
        import numpy as np
        _numpy_generator = np.random.Generator(np.random.PCG64())
    return _numpy_generator


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
        """numpy's ``exponential(scale)`` from this stream."""
        return float(self._numpy_draw("exponential", scale))

    def poisson(self, lam: float = 1.0) -> int:
        """numpy's ``poisson(lam)`` from this stream."""
        return int(self._numpy_draw("poisson", lam))

    def integers(self, low: int, high: int | None = None) -> int:
        """numpy's ``integers(low, high)`` from this stream."""
        return int(self._numpy_draw("integers", low, high))

    def _numpy_draw(self, method: str, *args: Any) -> Any:
        """One draw of numpy's ``method`` from this stream's state."""
        gen = _generator()
        bit_generator = gen.bit_generator
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": self.has_uint32, "uinteger": self.uinteger}
        try:
            return getattr(gen, method)(*args)
        finally:
            state = bit_generator.state
            self._state = state["state"]["state"]
            self.has_uint32 = state["has_uint32"]
            self.uinteger = state["uinteger"]

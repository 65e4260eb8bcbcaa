"""A live host's random stream, standard library only.

A live d-mon draws one number from its node's stream: the stagger of
its first poll.  :class:`HostRng` is numpy's ``PCG64`` seeded through
``SeedSequence`` — the generator ``np.random.default_rng([seed,
index])`` builds — written with Python integers, so a live process
places every poll exactly where numpy would without loading numpy.
The simulator keeps numpy's generators (:class:`repro.sim.rng.RngHub`).
"""

from __future__ import annotations

__all__ = ["HostRng"]

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


class HostRng:
    """numpy's ``default_rng([seed, index])`` stream; ``uniform`` only."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int, index: int) -> None:
        s0, s1, i0, i1 = _seed_state(_words(seed) + _words(index), 4)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = 0
        self._step()
        self._state = (self._state + (s0 << 64 | s1)) & _MASK128
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128

    def _next64(self) -> int:
        """PCG64's XSL-RR output of the next state."""
        self._step()
        state = self._state
        value = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & _MASK64

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A float drawn from ``[low, high)``, as numpy draws it."""
        return low + (high - low) * (
            (self._next64() >> 11) * (1.0 / 9007199254740992.0))

"""Deterministic named random-number streams.

Every stochastic element of the simulator (network jitter, workload
arrivals, loss sampling, ...) draws from its own named stream so that

* two runs with the same master seed are bit-identical, and
* adding a new consumer of randomness does not perturb existing streams.

Streams are derived from the master seed with :class:`numpy.random.SeedSequence`
spawned by a stable hash of the stream name.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RngHub"]


class RngHub:
    """Factory of named, deterministic :class:`numpy.random.Generator` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same stream object, so state
        advances across calls — callers share one logical sequence per
        name.
        """
        gen = self._streams.get(name)
        if gen is None:
            tag = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence([self.master_seed, tag])
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RngHub(master_seed={self.master_seed}, "
                f"streams={sorted(self._streams)})")

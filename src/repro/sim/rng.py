"""Deterministic named random-number streams.

Every stochastic element of the simulator (network jitter, workload
arrivals, loss sampling, ...) draws from its own named stream so that

* two runs with the same master seed are bit-identical, and
* adding a new consumer of randomness does not perturb existing streams.

The stream for a name is numpy's ``default_rng(SeedSequence([seed,
crc32(name)]))``, held as a :class:`repro.runtime.rng.Pcg64Stream`,
which makes every draw in Python.
"""

from __future__ import annotations

import zlib

from repro.runtime.rng import Pcg64Stream

__all__ = ["RngHub"]


class RngHub:
    """Factory of named, deterministic :class:`Pcg64Stream` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, Pcg64Stream] = {}

    def stream(self, name: str) -> Pcg64Stream:
        """Return the stream for ``name``, creating it on first use.

        The same name always maps to the same stream object, so state
        advances across calls — callers share one logical sequence per
        name.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = Pcg64Stream(self.master_seed,
                              zlib.crc32(name.encode("utf-8")))
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RngHub(master_seed={self.master_seed}, "
                f"streams={sorted(self._streams)})")

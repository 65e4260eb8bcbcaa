"""Stream adaptation policies: none, static, and dproc-driven dynamic.

The dynamic policy is the paper's headline use of dproc: the server
reads each client's resource state from its local ``/proc/cluster``
view and picks the stream transform that keeps every *monitored*
resource within its per-event budget.  Resources the policy does not
monitor are assumed unconstrained — that is precisely how the cpu-only
and network-only monitors of Figure 11 make conflicting adaptations.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import SimulationError
from repro.smartpointer.data import StreamProfile
from repro.smartpointer.transforms import (DROP_VELOCITIES_CONTENT,
                                           FULL_QUALITY, Transform)

__all__ = ["ClientCapabilities", "AdaptationPolicy", "NoAdaptation",
           "StaticAdaptation", "DynamicAdaptation", "Observations"]

#: Observation dict keys (values NaN when unknown).
Observations = Mapping[str, float]

#: Search grid for the dynamic policy.
_DOWNSAMPLE_GRID = (1.0, 0.85, 0.7, 0.55, 0.4, 0.25, 0.12)
_PREPROCESS_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
_CONTENT_GRID = (1.0, DROP_VELOCITIES_CONTENT)  # full feed, positions only


@dataclass(frozen=True)
class ClientCapabilities:
    """What the server knows about a client's hardware."""

    mflops: float = 17.4       #: per-CPU compute
    n_cpus: int = 1
    disk_rate: float = 20 * 1024 * 1024   #: bytes/s
    logs_to_disk: bool = False

    def __post_init__(self) -> None:
        if self.mflops <= 0 or self.n_cpus < 1 or self.disk_rate <= 0:
            raise SimulationError("invalid client capabilities")


class AdaptationPolicy(ABC):
    """Chooses the transform for the next event of one client stream."""

    @abstractmethod
    def choose(self, observations: Observations,
               profile: StreamProfile, rate: float,
               caps: ClientCapabilities) -> Transform:
        """Pick a transform given the latest monitoring observations."""

    @property
    def name(self) -> str:
        return type(self).__name__


class NoAdaptation(AdaptationPolicy):
    """The paper's 'no filter' baseline: always the full stream."""

    def choose(self, observations, profile, rate, caps) -> Transform:
        return FULL_QUALITY


class StaticAdaptation(AdaptationPolicy):
    """The 'static filter' baseline: a fixed, a-priori customization.

    "The SmartPointer server does the client-specified customization,
    but does not use the resource availability information from the
    clients.  The customization criteria remains the same throughout
    the experiment."
    """

    def __init__(self, transform: Transform) -> None:
        self.transform = transform

    def choose(self, observations, profile, rate, caps) -> Transform:
        return self.transform


class DynamicAdaptation(AdaptationPolicy):
    """dproc-driven adaptation over a configurable resource set.

    ``resources`` ⊆ {'cpu', 'net', 'disk'} selects which monitors the
    policy consults (Figure 11 compares cpu-only, net-only, and the
    hybrid).  ``margin`` is the fraction of the per-event budget each
    pipeline stage may use.  ``last_choice`` exposes the most recent
    decision for experiments.
    """

    def __init__(self, resources: Iterable[str] = ("cpu", "net", "disk"),
                 margin: float = 0.75) -> None:
        resources = frozenset(resources)
        unknown = resources - {"cpu", "net", "disk"}
        if unknown:
            raise SimulationError(
                f"unknown adaptation resources: {sorted(unknown)}")
        if not resources:
            raise SimulationError("need at least one resource")
        if not 0 < margin <= 1:
            raise SimulationError("margin must be in (0, 1]")
        self.resources = resources
        self.margin = float(margin)
        self.last_choice = FULL_QUALITY

    @property
    def name(self) -> str:
        return f"dynamic({'+'.join(sorted(self.resources))})"

    # -- the decision procedure ----------------------------------------------------

    def choose(self, observations: Observations,
               profile: StreamProfile, rate: float,
               caps: ClientCapabilities) -> Transform:
        budget = self.margin / rate
        best: Transform | None = None
        best_quality = -1.0
        fallback: Transform = FULL_QUALITY
        fallback_bottleneck = math.inf
        for c in _CONTENT_GRID:
            for d in _DOWNSAMPLE_GRID:
                for p in _PREPROCESS_GRID:
                    t = Transform(downsample=d, preprocess=p, content=c)
                    stages = self._stage_times(t, observations,
                                               profile, caps)
                    bottleneck = max(stages.values()) if stages else 0.0
                    if bottleneck <= budget:
                        if t.quality() > best_quality:
                            best, best_quality = t, t.quality()
                    elif bottleneck < fallback_bottleneck:
                        fallback, fallback_bottleneck = t, bottleneck
        self.last_choice = best if best is not None else fallback
        return self.last_choice

    def _stage_times(self, t: Transform, obs: Observations,
                     profile: StreamProfile,
                     caps: ClientCapabilities) -> dict[str, float]:
        """Predicted per-event time of each *monitored* pipeline stage."""
        size = t.wire_size(profile)
        stages: dict[str, float] = {}
        if "net" in self.resources:
            avail = obs.get("net_bandwidth", math.nan)
            if not math.isnan(avail):
                # The residual the client reports excludes what this
                # very stream is using; the stream may re-claim its own
                # share, so add the server-side estimate back in.
                avail += obs.get("stream_rate", 0.0)
                if avail > 0:
                    stages["net"] = size / avail
        if "cpu" in self.resources:
            loadavg = obs.get("loadavg", math.nan)
            if not math.isnan(loadavg):
                share = self._client_share(loadavg, caps)
                stages["cpu"] = t.client_cost(profile) / share
        if "disk" in self.resources and caps.logs_to_disk:
            # Disk time is driven by the bytes we ship regardless of
            # current disk business; the observation gates whether we
            # know the disk exists at all.
            stages["disk"] = size / caps.disk_rate
        return stages

    @staticmethod
    def _client_share(loadavg: float, caps: ClientCapabilities) -> float:
        """Estimate the Mflop/s available to the client's renderer.

        The run-queue average includes the renderer itself when it is
        busy; subtract one for it (conservatively) and processor-share
        the rest.
        """
        competitors = max(0.0, loadavg - 1.0)
        share = caps.mflops * min(
            1.0, caps.n_cpus / (1.0 + competitors))
        return max(share, caps.mflops * 0.01)

"""Stream transforms and their cross-resource cost model.

A transform is the knob the SmartPointer server turns per client:

* **downsample** (``d`` = fraction of data kept) shrinks the wire size
  but *raises* client CPU work — "if data is down-sampled to better fit
  in a congested network the client needs to do more processing before
  being able to render the data" (paper §4.2, the Figure 11 insight);
* **preprocess** (``p`` = fraction rendered at the server) lowers
  client CPU work but *inflates* the wire size — "this pre-processing
  increases the size of the data stream, which also increases the
  network requirements".

These opposing couplings are exactly why single-resource adaptation can
backfire, which is the paper's multi-resource monitoring argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.smartpointer.data import StreamProfile

__all__ = ["Transform", "FULL_QUALITY", "INTERPOLATION_PENALTY",
           "PREPROCESS_RELIEF", "PREPROCESS_INFLATION",
           "DROP_VELOCITIES_CONTENT"]

#: Extra client CPU per fully-downsampled stream (reconstruction cost).
INTERPOLATION_PENALTY = 0.5
#: Fraction of client rendering work removed by full preprocessing.
PREPROCESS_RELIEF = 0.85
#: Wire-size inflation of a fully preprocessed (pre-rendered) stream.
PREPROCESS_INFLATION = 1.0


#: Content fraction remaining after dropping the velocity attributes —
#: "down-sampled data (for example, removing velocity data)" (§4.2).
#: Positions and velocities are equal-sized, plus ~10% shared framing.
DROP_VELOCITIES_CONTENT = 0.55


@dataclass(frozen=True)
class Transform:
    """One point in the (content, downsample, preprocess) space."""

    downsample: float = 1.0   #: d ∈ (0, 1]: fraction of atoms kept
    preprocess: float = 0.0   #: p ∈ [0, 1]: server-side rendering share
    #: c ∈ (0, 1]: fraction of per-atom attributes kept (1.0 = full
    #: feed, DROP_VELOCITIES_CONTENT = positions only).  Cuts wire size
    #: *and* client work proportionally, at a direct fidelity loss.
    content: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.downsample <= 1:
            raise SimulationError(
                f"downsample must be in (0, 1], got {self.downsample}")
        if not 0 <= self.preprocess <= 1:
            raise SimulationError(
                f"preprocess must be in [0, 1], got {self.preprocess}")
        if not 0 < self.content <= 1:
            raise SimulationError(
                f"content must be in (0, 1], got {self.content}")

    # -- resource model ---------------------------------------------------------

    def wire_size(self, profile: StreamProfile) -> float:
        """Bytes on the wire for one transformed frame."""
        inflation = 1.0 + PREPROCESS_INFLATION * self.preprocess
        return profile.base_size * self.downsample * self.content \
            * inflation

    def client_cost(self, profile: StreamProfile) -> float:
        """Client Mflop to render one transformed frame."""
        interp = 1.0 + INTERPOLATION_PENALTY * (1.0 - self.downsample)
        relief = 1.0 - PREPROCESS_RELIEF * self.preprocess
        return profile.base_client_cost * self.content * interp * relief

    def server_cost(self, profile: StreamProfile) -> float:
        """Server Mflop spent preprocessing one frame."""
        return profile.server_preprocess_cost * self.preprocess

    def describe(self) -> str:
        """Compact label (adaptation audit trail, trace annotations)."""
        return (f"downsample={self.downsample:g} "
                f"preprocess={self.preprocess:g} "
                f"content={self.content:g}")

    def quality(self) -> float:
        """Relative stream fidelity in [0, 1] (1 = full feed).

        Dropping attributes or atoms loses information outright;
        preprocessing bakes in a viewpoint, a milder loss.
        """
        return self.content * self.downsample \
            * (1.0 - 0.25 * self.preprocess)


#: The identity transform: the original, uncustomised stream.
FULL_QUALITY = Transform()

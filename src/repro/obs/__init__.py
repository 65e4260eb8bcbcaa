"""The time-series metrics plane: TSDB, exposition, health, export.

Everything the dproc stack retains *about itself over time* lives
here: a deterministic TSDB of one bounded ring per series, whose
windowed queries refuse a window the ring no longer holds
(:mod:`repro.obs.tsdb`), an OpenMetrics text renderer and
validating mini-parser (:mod:`repro.obs.openmetrics`), a declarative
health/SLO engine with hysteresis and fault attribution
(:mod:`repro.obs.health`), and the :class:`ObservabilityPlane` that
feeds them from periodic telemetry snapshots and durable-stream
replay (:mod:`repro.obs.plane`).

Attach it with ``Scenario.with_observability()`` — the same code path
drives the simulator (virtual-time sampling, byte-stable exports) and
the live asyncio backend (wall-clock sampling plus the
``/metrics``-and-``/healthz`` scrape endpoint in
:mod:`repro.live.scrape`).  The plane is passive by construction:
goldens, causal traces and data-plane stream bytes are bit-identical
with observability on or off.
"""

from repro.obs.health import (DEGRADED, HEALTHY, HealthEngine,
                              HealthRule, HealthTransition,
                              attribute_transitions, default_rules)
from repro.obs.openmetrics import (CONTENT_TYPE, Sample, metric_name,
                                   parse_openmetrics,
                                   render_openmetrics)
from repro.obs.plane import ObservabilityPlane
from repro.obs.tsdb import (SERIES_CAPACITY, Bucket, ObsError, Series,
                            TimeSeriesDB, series_key)

__all__ = [
    "ObsError", "Bucket", "Series", "TimeSeriesDB", "series_key",
    "SERIES_CAPACITY",
    "CONTENT_TYPE", "Sample", "metric_name", "parse_openmetrics",
    "render_openmetrics",
    "HEALTHY", "DEGRADED", "HealthRule", "HealthTransition",
    "HealthEngine", "default_rules", "attribute_transitions",
    "ObservabilityPlane",
]

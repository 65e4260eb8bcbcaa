"""Self-telemetry for the dproc reproduction.

The paper's core argument is that monitoring must be *resource-aware*:
dproc quantifies its own perturbation (CPU and network overhead of
d-mon polling, KECho submission, E-code filtering) before trusting its
adaptation decisions.  This package is that introspection layer:

* :mod:`repro.telemetry.instruments` — deterministic, sim-clock-based
  counters, gauges and fixed-bucket histograms;
* :mod:`repro.telemetry.registry` — the per-node
  :class:`TelemetryRegistry` (``node.telemetry``) from which any module
  get-or-creates named instruments without pipeline changes;
* :mod:`repro.telemetry.report` — text rendering for the dogfooded
  ``/proc/cluster/<node>/dproc/...`` files and the ``overhead``
  section of the benchmark JSON reports.

Instrumentation is passive: it never schedules events, charges CPU, or
draws randomness.
"""

from repro.telemetry.instruments import (Counter, Gauge, Histogram,
                                         DEFAULT_LATENCY_BOUNDS)
from repro.telemetry.registry import TelemetryRegistry
from repro.telemetry.report import (MONITOR_CPU_COUNTERS,
                                    overhead_summary, render_text)

__all__ = [
    "Counter", "Gauge", "Histogram", "DEFAULT_LATENCY_BOUNDS", "TelemetryRegistry",
    "MONITOR_CPU_COUNTERS", "overhead_summary", "render_text",
]

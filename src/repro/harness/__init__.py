"""Benchmark harness: one experiment per evaluation figure."""

from repro.harness.experiment import FigureResult, SeriesResult
from repro.harness.microbench import (fig4_cpu_perturbation,
                                      fig5_network_perturbation,
                                      fig6_submission_overhead,
                                      fig7_submission_overhead_large,
                                      fig8_receive_overhead)
from repro.harness.appbench import (SmartPointerRig,
                                    fig9a_latency_timeline,
                                    fig9b_event_rate,
                                    fig10_latency_vs_network,
                                    fig11_hybrid_monitors)
from repro.harness.chaos import ChaosReport, chaos_recovery
from repro.harness.reporting import (EXPERIMENTS, FigureSpec,
                                     run_experiment)

__all__ = [
    "FigureResult", "SeriesResult",
    "fig4_cpu_perturbation", "fig5_network_perturbation",
    "fig6_submission_overhead", "fig7_submission_overhead_large",
    "fig8_receive_overhead",
    "SmartPointerRig", "fig9a_latency_timeline", "fig9b_event_rate",
    "fig10_latency_vs_network", "fig11_hybrid_monitors",
    "EXPERIMENTS", "FigureSpec", "run_experiment",
    "ChaosReport", "chaos_recovery",
]

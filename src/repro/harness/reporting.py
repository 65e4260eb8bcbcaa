"""Run-all reporting: regenerate every figure and print/collect tables.

``python -m repro.harness`` runs every experiment at a configurable
scale and prints the paper-style tables; the same entry points feed
EXPERIMENTS.md and the pytest-benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.harness import appbench, microbench
from repro.harness.experiment import FigureResult

__all__ = ["EXPERIMENTS", "run_experiment", "FigureSpec"]


@dataclass(frozen=True)
class FigureSpec:
    """Registry entry: how to run one figure at two scales."""

    experiment_id: str
    paper_ref: str
    full: Callable[[], FigureResult]
    quick: Callable[[], FigureResult]


EXPERIMENTS: dict[str, FigureSpec] = {
    "fig4": FigureSpec(
        "fig4", "Figure 4 — CPU perturbation analysis",
        full=lambda: microbench.fig4_cpu_perturbation(
            nodes=range(0, 9), duration=60.0),
        quick=lambda: microbench.fig4_cpu_perturbation(
            nodes=(0, 2, 4, 8), duration=30.0)),
    "fig5": FigureSpec(
        "fig5", "Figure 5 — network perturbation analysis",
        full=lambda: microbench.fig5_network_perturbation(
            nodes=range(0, 9), duration=60.0),
        quick=lambda: microbench.fig5_network_perturbation(
            nodes=(0, 2, 4, 8), duration=20.0)),
    "fig6": FigureSpec(
        "fig6", "Figure 6 — event submission overhead",
        full=lambda: microbench.fig6_submission_overhead(
            nodes=range(1, 9), duration=100.0),
        quick=lambda: microbench.fig6_submission_overhead(
            nodes=(1, 2, 4, 8), duration=50.0)),
    "fig7": FigureSpec(
        "fig7", "Figure 7 — submission overhead, 5 KB events",
        full=lambda: microbench.fig7_submission_overhead_large(
            nodes=range(1, 9), duration=100.0),
        quick=lambda: microbench.fig7_submission_overhead_large(
            nodes=(1, 2, 4, 8), duration=50.0)),
    "fig8": FigureSpec(
        "fig8", "Figure 8 — event receiving overhead",
        full=lambda: microbench.fig8_receive_overhead(
            nodes=range(1, 9), duration=100.0),
        quick=lambda: microbench.fig8_receive_overhead(
            nodes=(1, 2, 4, 8), duration=50.0)),
    "fig9a": FigureSpec(
        "fig9a", "Figure 9(a) — latency under increasing CPU load",
        full=lambda: appbench.fig9a_latency_timeline(
            duration=2000.0, thread_interval=200.0),
        quick=lambda: appbench.fig9a_latency_timeline(
            duration=500.0, thread_interval=100.0,
            sample_every=25.0)),
    "fig9b": FigureSpec(
        "fig9b", "Figure 9(b) — event rate vs linpack threads",
        full=lambda: appbench.fig9b_event_rate(threads=range(0, 10)),
        quick=lambda: appbench.fig9b_event_rate(
            threads=(0, 2, 4, 6, 8), settle=30.0, measure=40.0)),
    "fig10": FigureSpec(
        "fig10", "Figure 10 — latency vs network perturbation",
        full=lambda: appbench.fig10_latency_vs_network(
            perturbations=range(0, 100, 10)),
        quick=lambda: appbench.fig10_latency_vs_network(
            perturbations=(0, 30, 50, 60, 70, 80, 90),
            settle=20.0, measure=40.0)),
    "fig11": FigureSpec(
        "fig11", "Figure 11 — single- vs multi-resource monitors",
        full=lambda: appbench.fig11_hybrid_monitors(steps=range(1, 9)),
        quick=lambda: appbench.fig11_hybrid_monitors(
            steps=(1, 2, 4, 6, 8), settle=20.0, measure=40.0)),
}


def run_experiment(experiment_id: str,
                   quick: bool = False) -> FigureResult:
    """Run one registered figure experiment."""
    try:
        spec = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(
            f"unknown experiment {experiment_id!r} (have: {known})") \
            from None
    return (spec.quick if quick else spec.full)()

"""Benchmark harness: one experiment per evaluation figure."""

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

#: Lazy re-exports (PEP 562): a run subcommand such as ``live`` loads
#: no simulator module through this package; the figure
#: experiments load on first attribute access.
_EXPORTS = {
    "FigureResult": "repro.harness.experiment",
    "SeriesResult": "repro.harness.experiment",
    "fig4_cpu_perturbation": "repro.harness.microbench",
    "fig5_network_perturbation": "repro.harness.microbench",
    "fig6_submission_overhead": "repro.harness.microbench",
    "fig7_submission_overhead_large": "repro.harness.microbench",
    "fig8_receive_overhead": "repro.harness.microbench",
    "SmartPointerRig": "repro.harness.appbench",
    "fig9a_latency_timeline": "repro.harness.appbench",
    "fig9b_event_rate": "repro.harness.appbench",
    "fig10_latency_vs_network": "repro.harness.appbench",
    "fig11_hybrid_monitors": "repro.harness.appbench",
    "EXPERIMENTS": "repro.harness.reporting",
    "FigureSpec": "repro.harness.reporting",
    "run_experiment": "repro.harness.reporting",
    "ChaosReport": "repro.harness.chaos",
    "chaos_recovery": "repro.harness.chaos",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.harness' has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

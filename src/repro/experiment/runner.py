"""Experiments: one declarative sweep, every backend.

An :class:`Experiment` binds a policy to an observer and a target set;
``Scenario.with_experiment(exp)`` attaches it to any scenario, and
:func:`run_experiments` runs a whole list — one fresh scenario per
experiment so adaptations never bleed across runs — on the simulator
or the live backend, producing field-comparable
:class:`ExperimentReport`\\ s.  :func:`standard_experiments` is the
paper's Figs. 12-14 sweep: baseline, static allocation, dynamic
threshold adaptation, and multi-resource rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.dproc.control_api import (ClearCommand, ControlRequest,
                                     PeriodCommand, ThresholdCommand)
from repro.dproc.metrics import MetricId
from repro.experiment.policy import (MultiResourcePolicy, Policy,
                                     ResourceRule, StaticPolicy,
                                     ThresholdPolicy)

__all__ = ["Experiment", "ExperimentReport", "run_experiments",
           "standard_experiments"]


@dataclass(frozen=True)
class Experiment:
    """One named policy run: who observes, whom it may adapt, how often."""

    name: str
    policy: Policy = field(default_factory=Policy)
    #: Index of the observing node (its d-proc feeds the MetricView).
    observer: int = 0
    #: Hosts the policy may adapt (None = every monitored host).
    targets: Optional[tuple] = None
    decide_interval: float = 1.0
    #: Seconds before the first decision (lets deliveries arrive).
    warmup: float = 1.0
    #: The metric whose delivery defines "quality" in the report.
    quality_metric: MetricId = MetricId.LOADAVG


@dataclass(frozen=True)
class ExperimentReport:
    """What one experiment delivered, on any backend."""

    experiment: str
    policy: str
    backend: str
    workers: int
    nodes: int
    seed: int
    duration: float
    decisions: int
    adaptations: int
    audit: tuple
    #: Hosts whose quality metric was delivered at the last tick.
    hosts_reporting: int
    mean_staleness: float
    events_published: float
    records_published: float
    #: Monitoring-channel deliveries, cluster-wide.
    monitor_receives: float
    monitor_cpu_seconds: float
    cpu_fraction: float

    #: Fields expected to agree across backends at equal scale.
    COMPARABLE = ("experiment", "policy", "nodes", "duration",
                  "decisions", "adaptations", "hosts_reporting")

    def to_record(self) -> dict:
        """Flat JSON-ready record; ``variant`` is the identity key."""
        return {
            "variant": self.experiment,
            "policy": self.policy,
            "backend": self.backend,
            "workers": self.workers,
            "n_nodes": self.nodes,
            "seed": self.seed,
            "duration": self.duration,
            "decisions": self.decisions,
            "adaptations": self.adaptations,
            "hosts_reporting": self.hosts_reporting,
            "mean_staleness": (None if math.isnan(self.mean_staleness)
                               else self.mean_staleness),
            "events_published": self.events_published,
            "records_published": self.records_published,
            "monitor_receives": self.monitor_receives,
            "monitor_cpu_seconds": self.monitor_cpu_seconds,
            "cpu_fraction_of_node_time": self.cpu_fraction,
            "audit": [event for event in self.audit],
        }

    def comparable(self) -> dict:
        """The backend-invariant subset (sim vs live)."""
        return {name: getattr(self, name) for name in self.COMPARABLE}


def build_report(scenario, engine, *, workers: int = 1,
                 duration: Optional[float] = None) -> ExperimentReport:
    """Assemble the report for one attached engine after a run."""
    overhead = scenario.overhead()
    receives = sum(
        registry.value("kecho.dproc.monitor.receives")
        for registry in scenario.registries.values())
    exp = engine.experiment
    return ExperimentReport(
        experiment=exp.name,
        policy=engine.policy.name,
        backend=scenario.backend,
        workers=workers,
        nodes=overhead["n_nodes"],
        seed=scenario.seed,
        duration=(duration if duration is not None
                  else overhead["sim_seconds"]),
        decisions=engine.decisions,
        adaptations=len(engine.audit),
        audit=tuple(event.to_record() for event in engine.audit),
        hosts_reporting=engine.quality.hosts_reporting,
        mean_staleness=engine.quality.mean_staleness,
        events_published=overhead["events_published"],
        records_published=overhead["records_published"],
        monitor_receives=receives,
        monitor_cpu_seconds=overhead["monitor_cpu_seconds"]["total"],
        cpu_fraction=overhead["cpu_fraction_of_node_time"])


def standard_experiments(*, stretch_period: float = 4.0,
                         event_budget: float = 0.5,
                         load_high: float = 2.0,
                         change_threshold: float = 0.05
                         ) -> list[Experiment]:
    """The paper's static/dynamic/multi-resource sweep (Figs. 12-14).

    The dynamic trigger is ``DMON_EVENT_RATE`` — the monitor's *own*
    published-event rate (SELF_MON), the paper's "monitoring must know
    its cost" signal.  A d-mon publishes about one bundled event per
    poll (1/s at the default period), so the default ``event_budget``
    of 0.5 events/s is exceeded deterministically on every backend
    once polling is under way — the adaptive policies fire on sim
    exactly as they do live.
    """
    slow = ControlRequest([PeriodCommand(stretch_period)])
    restore = ControlRequest([ClearCommand("period")])
    suppress = ControlRequest([
        ThresholdCommand("change", (change_threshold,))])
    return [
        Experiment(name="baseline", policy=Policy()),
        Experiment(name="static",
                   policy=StaticPolicy(request=slow, name="static")),
        Experiment(name="dynamic",
                   policy=ThresholdPolicy(
                       metric=MetricId.DMON_EVENT_RATE,
                       high=event_budget, relief=slow,
                       low=event_budget / 2, restore=restore,
                       resource="monitoring", name="dynamic")),
        Experiment(name="multi",
                   policy=MultiResourcePolicy(rules=(
                       ResourceRule(resource="cpu",
                                    metric=MetricId.LOADAVG,
                                    high=load_high, relief=slow),
                       ResourceRule(resource="monitoring",
                                    metric=MetricId.DMON_EVENT_RATE,
                                    high=event_budget,
                                    relief=suppress),
                   ), name="multi-resource")),
    ]


def run_experiments(experiments: Sequence[Experiment], *,
                    nodes: int = 8, seed: int = 7,
                    duration: float = 10.0, backend: str = "sim",
                    workers: int = 1, dmon=None
                    ) -> list[ExperimentReport]:
    """Run each experiment on a fresh scenario; return its reports.

    The same ``experiments`` list runs unmodified on both backends:
    ``backend="sim"`` is the simulator's one kernel, ``backend="live"``
    real sockets — with ``workers>1`` a multi-process node pool, which
    the simulator has no counterpart of (:class:`ScenarioError`).
    """
    from repro.api import Scenario, ScenarioError
    from repro.dproc.toolkit import DEFAULT_MODULES
    if workers != 1 and backend != "live":
        raise ScenarioError(
            f"workers={workers} needs backend='live' (a node pool of "
            f"real processes); the simulator runs one kernel")
    reports: list[ExperimentReport] = []
    # SELF_MON rides along so policies can observe monitoring's own
    # cost (the standard sweep's dynamic trigger).
    modules = tuple(DEFAULT_MODULES) + ("dproc",)
    for exp in experiments:
        scenario = Scenario(nodes=nodes, seed=seed, backend=backend,
                            dmon=dmon, modules=modules)
        if backend == "live":
            scenario.with_node_pool(workers)
        scenario.with_experiment(exp)
        scenario.run(duration)
        reports.extend(scenario.experiment_reports(duration=duration))
    return reports

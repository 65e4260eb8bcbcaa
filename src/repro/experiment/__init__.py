"""Declarative experiments: policies that adapt a running cluster.

The paper evaluates dproc by *running policies against it* — static
allocations, dynamic threshold adaptation, multi-resource rules (§5,
Figs. 12-14).  This package makes that sweep a first-class, portable
object: an :class:`Experiment` (a :class:`Policy` + observer +
targets) attaches to any :class:`repro.api.Scenario` and runs
unmodified on the simulator and the live backend, emitting comparable
:class:`ExperimentReport`\\ s.

See ``docs/api.md`` for the guide and ``python -m repro.harness
experiment`` for the packaged sweep.
"""

from repro.experiment.engine import AdaptationEvent, ExperimentEngine
from repro.experiment.policy import (Action, MetricView,
                                     MultiResourcePolicy, Policy,
                                     ResourceRule, StaticPolicy,
                                     ThresholdPolicy)
from repro.experiment.runner import (Experiment, ExperimentReport,
                                     build_report, run_experiments,
                                     standard_experiments)

__all__ = [
    "Action", "AdaptationEvent", "Experiment", "ExperimentEngine",
    "ExperimentReport", "MetricView", "MultiResourcePolicy", "Policy",
    "ResourceRule", "StaticPolicy", "ThresholdPolicy", "build_report",
    "run_experiments", "standard_experiments",
]

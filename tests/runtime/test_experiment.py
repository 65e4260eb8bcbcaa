"""The Experiment/Policy API: hysteresis logic and backend parity.

Policies are pure decision functions over a MetricView, so the latch
behavior is pinned against a fake view with scripted values.  The
backend-parity tests are the API's headline contract: the same
experiment list yields identical records on repeated sim runs, and a
pooled live report covers every host of the run.
"""

from __future__ import annotations

import math

import pytest

from repro.dproc import MetricId
from repro.dproc.control_api import (ClearCommand, ControlRequest,
                                     PeriodCommand)
from repro.experiment import (Experiment, MultiResourcePolicy, Policy,
                              ResourceRule, StaticPolicy,
                              ThresholdPolicy, run_experiments,
                              standard_experiments)

SLOW = ControlRequest([PeriodCommand(4.0)])
RESTORE = ControlRequest([ClearCommand("period")])


class FakeView:
    """A MetricView stand-in with scripted per-host values."""

    def __init__(self, values: dict) -> None:
        self.hosts = sorted(values)
        self.now = 0.0
        self._values = values

    def value(self, host: str, metric: MetricId) -> float:
        return self._values[host].get(metric, math.nan)


class TestThresholdHysteresis:
    POLICY = ThresholdPolicy(metric=MetricId.LOADAVG, high=2.0,
                             relief=SLOW, low=1.0, restore=RESTORE)

    def test_quiet_below_high(self):
        view = FakeView({"maui": {MetricId.LOADAVG: 1.9}})
        assert self.POLICY.decide(view, {}) == []

    def test_relief_fires_once_above_high(self):
        state = {}
        view = FakeView({"maui": {MetricId.LOADAVG: 2.5}})
        actions = self.POLICY.decide(view, state)
        assert [a.request for a in actions] == [SLOW]
        assert actions[0].target == "maui"
        assert actions[0].observed == 2.5
        # Latched: staying hot does not re-fire.
        assert self.POLICY.decide(view, state) == []

    def test_band_between_low_and_high_holds_the_latch(self):
        state = {}
        self.POLICY.decide(
            FakeView({"maui": {MetricId.LOADAVG: 2.5}}), state)
        view = FakeView({"maui": {MetricId.LOADAVG: 1.5}})
        assert self.POLICY.decide(view, state) == []

    def test_restore_fires_below_low_then_rearms(self):
        state = {}
        self.POLICY.decide(
            FakeView({"maui": {MetricId.LOADAVG: 2.5}}), state)
        actions = self.POLICY.decide(
            FakeView({"maui": {MetricId.LOADAVG: 0.5}}), state)
        assert [a.request for a in actions] == [RESTORE]
        # Unlatched: the next spike triggers relief again.
        actions = self.POLICY.decide(
            FakeView({"maui": {MetricId.LOADAVG: 3.0}}), state)
        assert [a.request for a in actions] == [SLOW]

    def test_nan_hosts_are_skipped(self):
        view = FakeView({"maui": {}, "etna": {MetricId.LOADAVG: 9.0}})
        actions = self.POLICY.decide(view, {})
        assert [a.target for a in actions] == ["etna"]

    def test_per_host_latches_are_independent(self):
        state = {}
        view = FakeView({"maui": {MetricId.LOADAVG: 2.5},
                         "etna": {MetricId.LOADAVG: 0.1}})
        assert len(self.POLICY.decide(view, state)) == 1
        view = FakeView({"maui": {MetricId.LOADAVG: 2.5},
                         "etna": {MetricId.LOADAVG: 2.5}})
        actions = self.POLICY.decide(view, state)
        assert [a.target for a in actions] == ["etna"]


class TestMultiResource:
    RULES = (ResourceRule(resource="cpu", metric=MetricId.LOADAVG,
                          high=2.0, relief=SLOW),
             ResourceRule(resource="mem", metric=MetricId.FREEMEM,
                          high=8e9, relief=RESTORE))

    def test_each_rule_latches_separately(self):
        policy = MultiResourcePolicy(rules=self.RULES)
        state = {}
        view = FakeView({"maui": {MetricId.LOADAVG: 3.0,
                                  MetricId.FREEMEM: 9e9}})
        actions = policy.decide(view, state)
        assert len(actions) == 2
        assert {a.request for a in actions} == {SLOW, RESTORE}
        assert policy.decide(view, state) == []

    def test_relief_without_restore_never_rearms(self):
        policy = MultiResourcePolicy(rules=self.RULES[:1])
        state = {}
        hot = FakeView({"maui": {MetricId.LOADAVG: 3.0}})
        cold = FakeView({"maui": {MetricId.LOADAVG: 0.0}})
        assert len(policy.decide(hot, state)) == 1
        policy.decide(cold, state)
        assert policy.decide(hot, state) == []


class TestStaticPolicy:
    def test_initial_targets_every_host_once(self):
        policy = StaticPolicy(request=SLOW)
        view = FakeView({"alan": {}, "maui": {}})
        actions = policy.initial(view)
        assert sorted(a.target for a in actions) == ["alan", "maui"]
        assert policy.decide(view, {}) == []

    def test_base_policy_is_inert(self):
        view = FakeView({"alan": {}})
        assert Policy().initial(view) == []
        assert Policy().decide(view, {}) == []


@pytest.mark.slow
class TestBackendParity:
    """The API's contract: one experiment list, any backend."""

    ARGS = dict(nodes=4, seed=13, duration=8.0)

    def _sweep(self, **overrides):
        kwargs = dict(self.ARGS)
        kwargs.update(overrides)
        return run_experiments(standard_experiments(), **kwargs)

    def test_sim_runs_are_deterministic(self):
        first = [r.to_record() for r in self._sweep()]
        second = [r.to_record() for r in self._sweep()]
        assert first == second

    def test_adaptive_policies_act_on_sim(self):
        by_name = {r.experiment: r for r in self._sweep()}
        assert by_name["baseline"].adaptations == 0
        assert by_name["dynamic"].adaptations > 0
        assert by_name["multi"].adaptations > 0
        # Relief works: stretched periods publish fewer events.
        assert (by_name["dynamic"].events_published
                < by_name["baseline"].events_published)

    def test_workers_on_sim_is_an_error(self):
        from repro.api import ScenarioError
        with pytest.raises(ScenarioError, match="backend='live'"):
            self._sweep(workers=2)

    def test_live_pool_report_is_cluster_wide(self):
        """Every figure in a pooled live report covers the hosts that
        ran in the worker process too — ``monitor_receives`` used to
        count this process's slice only."""
        from repro.api import Scenario
        from repro.dproc import DMonConfig
        exp = Experiment(name="baseline")
        sc = Scenario(nodes=4, seed=13, backend="live",
                      dmon=DMonConfig(poll_interval=0.25)) \
            .with_node_pool(2).with_experiment(exp).run(2.0)
        (report,) = sc.experiment_reports(duration=2.0)
        counter = "kecho.dproc.monitor.receives"
        local = sum(node.telemetry.value(counter) for node in sc.nodes)
        remote_hosts = set(sc.registries) - set(sc.nodes.names)
        remote = sum(sc.registries[host].value(counter)
                     for host in remote_hosts)
        assert len(sc.nodes.names) == len(remote_hosts) == 2
        assert local > 0 and remote > 0
        assert report.monitor_receives == local + remote
        assert report.nodes == 4
        # Same experiment on the simulator: the comparable fields
        # agree (the wall-clock ticker may land one decision apart).
        (sim,) = run_experiments([exp], nodes=4, seed=13, duration=2.0)
        live_fields, sim_fields = report.comparable(), sim.comparable()
        assert abs(live_fields.pop("decisions")
                   - sim_fields.pop("decisions")) <= 1
        assert live_fields == sim_fields

"""The plane end to end: sampling and stream ingest.

That the plane is passive is pinned with the other instruments in
``tests/runtime/test_passivity.py``.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario, ScenarioError
from repro.obs import (SERIES_CAPACITY, HealthRule, ObservabilityPlane,
                       ObsError)


def run_scenario(*, obs: bool, nodes: int = 6, seed: int = 3,
                 duration: float = 8.0, stream: bool = True):
    sc = Scenario(nodes=nodes, seed=seed)
    if stream:
        sc.with_stream()
    if obs:
        sc.with_observability(sample_interval=1.0)
    return sc.run(duration)


class TestSampling:
    @pytest.fixture(scope="class")
    def sc(self):
        return run_scenario(obs=True)

    def test_sampler_ticks_once_per_interval(self, sc):
        # One tick per second of virtual time, t=0 and t=8 inclusive.
        assert sc.obs.samples_taken == 9
        assert sc.obs.last_sample_at == 8.0

    def test_per_node_series_exist(self, sc):
        keys = sc.obs.tsdb.keys("dmon.polls")
        assert len(keys) == 6
        assert all("node=" in k for k in keys)

    def test_counter_series_are_monotone(self, sc):
        name = sc.nodes.names[0]
        series = sc.obs.tsdb.get("dmon.polls", (("node", name),))
        values = [v for _, v in series.points()]
        assert values == sorted(values)
        assert series.kind == "counter"

    def test_histogram_series_carry_stat_labels(self, sc):
        assert sc.obs.tsdb.keys("stat=count")
        assert sc.obs.tsdb.keys("stat=p99")

    def test_stream_ingest_adds_channel_series(self, sc):
        keys = sc.obs.tsdb.keys("stream.")
        assert any("stream.submits" in k for k in keys)
        assert any("stream.deliver_latency" in k for k in keys)
        # Ingest is lazy but once-only: re-reading .obs must not
        # double the ingested points.
        first = sc.obs.export_json()
        assert sc.obs.export_json() == first
        assert sc.obs is sc.obs

    def test_verdict_on_quiet_run_is_healthy(self, sc):
        assert sc.obs.verdict()["healthy"] is True
        assert sc.obs.transitions == []


class TestExportDeterminism:
    def test_same_seed_byte_identical_export(self):
        a = run_scenario(obs=True, seed=11).obs.export_json()
        b = run_scenario(obs=True, seed=11).obs.export_json()
        assert a == b

    def test_different_seed_differs(self):
        a = run_scenario(obs=True, seed=11).obs.export_json()
        b = run_scenario(obs=True, seed=12).obs.export_json()
        assert a != b


class TestScenarioGuards:
    def test_scrape_port_rejected_on_sim(self):
        with pytest.raises(ScenarioError):
            Scenario(nodes=4).with_observability(scrape_port=0)

    def test_rule_window_longer_than_the_ring_is_refused(self):
        """A series keeps SERIES_CAPACITY samples, so a rule reading
        further back would be answered short; the plane refuses it."""
        longest = (SERIES_CAPACITY - 1) * 0.5
        ObservabilityPlane(sample_interval=0.5, rules=[
            HealthRule(name="r", metric="m", threshold=1.0,
                       window=longest)])
        with pytest.raises(ObsError, match="longer than"):
            ObservabilityPlane(sample_interval=0.5, rules=[
                HealthRule(name="r", metric="m", threshold=1.0,
                           window=longest + 0.5)])
        # The stock rules read 10 s windows.
        with pytest.raises(ObsError, match="longer than"):
            ObservabilityPlane(sample_interval=0.01)

    def test_chaos_obs_flag_attaches_plane(self):
        from repro.harness.chaos import chaos_recovery
        plane = chaos_recovery(
            nodes=10, duration=30.0, seed=7,
            configure=lambda sc: sc.with_observability()).scenario.obs
        assert plane.samples_taken > 0
        # The paper's loss window must trip drop-burn.
        assert any(t.rule == "drop-burn" for t in plane.transitions)

    def test_chaos_without_obs_has_no_plane(self):
        from repro.harness.chaos import chaos_recovery
        report = chaos_recovery(nodes=8, duration=20.0, seed=7)
        with pytest.raises(ScenarioError, match="with_observability"):
            report.scenario.obs

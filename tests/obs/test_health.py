"""The health/SLO engine: hysteresis, rollup, audit trail."""

from __future__ import annotations

import math

import pytest

from repro.obs import (DEGRADED, HEALTHY, HealthEngine, HealthRule,
                       ObsError, TimeSeriesDB, attribute_transitions,
                       default_rules)
from repro.stream import StreamBroker


def make_engine(rules, nodes=("n0",), log=None):
    tsdb = TimeSeriesDB(interval=1.0)
    return tsdb, HealthEngine(tsdb, rules, nodes=nodes,
                              log_broker=log)


def gauge_rule(**overrides) -> HealthRule:
    base = dict(name="lat", metric="m", threshold=1.0, op="<",
                agg="avg", window=5.0, for_bad=2, for_ok=2)
    base.update(overrides)
    return HealthRule(**base)


def feed(tsdb, t, value, node="n0"):
    tsdb.observe("m", (("node", node),), t, value)


class TestRuleValidation:
    def test_bad_op_scope_window(self):
        with pytest.raises(ObsError):
            gauge_rule(op="!=")
        with pytest.raises(ObsError):
            gauge_rule(scope="rack")
        with pytest.raises(ObsError):
            gauge_rule(window=0.0)
        with pytest.raises(ObsError):
            gauge_rule(for_bad=0)

    def test_duplicate_rule_names_rejected(self):
        tsdb = TimeSeriesDB()
        with pytest.raises(ObsError, match="duplicate"):
            HealthEngine(tsdb, [gauge_rule(), gauge_rule()])

    def test_unknown_aggregation_raises_at_query(self):
        tsdb, engine = make_engine([gauge_rule(agg="median")])
        feed(tsdb, 0.0, 1.0)
        with pytest.raises(ObsError, match="aggregation"):
            engine.evaluate(1.0)

    def test_nan_is_vacuously_healthy(self):
        assert gauge_rule().holds(math.nan)


class TestHysteresis:
    def test_degrades_only_after_for_bad_streak(self):
        tsdb, engine = make_engine([gauge_rule(for_bad=3)])
        for t in range(5):
            feed(tsdb, float(t), 9.0)  # violates < 1.0
            engine.evaluate(float(t))
            expected = HEALTHY if t < 2 else DEGRADED
            assert engine.status("lat", "n0") == expected
        assert len(engine.transitions) == 1
        assert engine.transitions[0].time == 2.0

    def test_single_spike_does_not_flap(self):
        # Short window so each evaluation sees only the newest sample.
        tsdb, engine = make_engine(
            [gauge_rule(for_bad=2, window=0.5)])
        for t, v in enumerate([0.1, 9.0, 0.1, 9.0, 0.1]):
            feed(tsdb, float(t), v)  # never 2 bad in a row
            engine.evaluate(float(t))
        assert engine.status("lat", "n0") == HEALTHY
        assert engine.transitions == []

    def test_recovery_needs_for_ok_streak(self):
        tsdb, engine = make_engine(
            [gauge_rule(for_bad=1, for_ok=3, window=0.5)])
        timeline = [9.0, 0.1, 0.1, 0.1, 0.1]
        statuses = []
        for t, v in enumerate(timeline):
            feed(tsdb, float(t), v)
            engine.evaluate(float(t))
            statuses.append(engine.status("lat", "n0"))
        assert statuses == [DEGRADED, DEGRADED, DEGRADED, HEALTHY,
                            HEALTHY]
        assert [tr.to_status for tr in engine.transitions] \
            == [DEGRADED, HEALTHY]

    def test_silence_before_first_sample_is_healthy(self):
        _, engine = make_engine([gauge_rule()])
        engine.evaluate(0.0)
        engine.evaluate(1.0)
        assert engine.status("lat", "n0") == HEALTHY
        assert engine.verdict()["healthy"] is True


class TestVerdictRollup:
    def test_any_degraded_node_degrades_the_cluster_row(self):
        tsdb, engine = make_engine(
            [gauge_rule(for_bad=1, window=0.5)], nodes=("n0", "n1"))
        for t in range(2):
            feed(tsdb, float(t), 0.1, node="n0")
            feed(tsdb, float(t), 9.0, node="n1")
            engine.evaluate(float(t))
        doc = engine.verdict(now=1.0)
        (row,) = doc["rules"]
        assert row["status"] == DEGRADED
        assert row["degraded_subjects"] == ["n1"]
        assert doc["healthy"] is False
        assert doc["time"] == 1.0

    def test_cluster_scope_rule_single_subject(self):
        tsdb, engine = make_engine(
            [gauge_rule(scope="cluster", for_bad=1, window=0.5)],
            nodes=("n0", "n1"))
        tsdb.observe("m", (), 0.0, 9.0)
        engine.evaluate(0.0)
        assert engine.status("lat", "cluster") == DEGRADED


class TestDurableTransitionLog:
    def test_flips_append_to_obs_health_channel(self):
        log = StreamBroker()
        tsdb, engine = make_engine(
            [gauge_rule(for_bad=1, for_ok=1, window=0.5)], log=log)
        feed(tsdb, 0.0, 9.0)
        engine.evaluate(0.0)
        feed(tsdb, 1.0, 0.1)
        engine.evaluate(1.0)
        entries = log.entries(HealthEngine.CHANNEL)
        assert [e.summary for e in entries] \
            == ["lat:degraded", "lat:healthy"]
        assert entries[0].kind == "health"
        assert entries[0].source == "n0"
        assert entries[0].fault == "healthy->degraded"
        assert [e.seq for e in entries] == [1, 2]

    def test_no_log_broker_is_fine(self):
        tsdb, engine = make_engine(
            [gauge_rule(for_bad=1, window=0.5)])
        feed(tsdb, 0.0, 9.0)
        engine.evaluate(0.0)
        assert len(engine.transitions) == 1


class TestAttribution:
    def _transitions(self, engine_times=((1.0, DEGRADED),
                                         (5.0, HEALTHY))):
        from repro.obs.health import HealthTransition
        out = []
        prev = HEALTHY
        for t, to in engine_times:
            out.append(HealthTransition(
                time=t, rule="drop-burn", subject="n0",
                from_status=prev, to_status=to, value=2.0,
                threshold=1.0))
            prev = to
        return out

    def _broker_with_drop(self, t, source="n0", fault="loss"):
        broker = StreamBroker()
        broker.stream("dproc.monitor").append(
            kind="drop", source=source, dest="n1", time=t,
            submitted_at=t, size=10.0, fault=fault)
        return broker

    def test_drop_inside_window_attributes(self):
        windows = attribute_transitions(
            self._transitions(), self._broker_with_drop(3.0))
        (w,) = windows
        assert w["start"] == 1.0 and w["end"] == 5.0
        assert w["attributed"] is True
        assert w["faults"] == ["loss"]

    def test_drop_outside_window_does_not(self):
        windows = attribute_transitions(
            self._transitions(), self._broker_with_drop(9.0))
        assert windows[0]["attributed"] is False
        assert windows[0]["faults"] == []

    def test_other_nodes_drops_ignored_for_node_subject(self):
        windows = attribute_transitions(
            self._transitions(),
            self._broker_with_drop(3.0, source="n7"))
        # n7 -> n1 does not involve subject n0.
        assert windows[0]["attributed"] is False

    def test_open_window_extends_to_infinity(self):
        windows = attribute_transitions(
            self._transitions(((1.0, DEGRADED),)),
            self._broker_with_drop(100.0))
        assert windows[0]["end"] == math.inf
        assert windows[0]["attributed"] is True

    def test_none_broker_yields_unattributed_windows(self):
        windows = attribute_transitions(self._transitions(), None)
        assert windows[0]["attributed"] is False


class TestDefaultRules:
    def test_stock_set_names_and_window_scaling(self):
        rules = default_rules(poll_interval=2.0)
        assert sorted(r.name for r in rules) == [
            "delivery-latency-p99", "drop-burn", "monitor-cpu-burn"]
        assert all(r.window == 20.0 for r in rules)

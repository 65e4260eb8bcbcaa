"""Unit and integration tests for the d-mon coordinator."""

from __future__ import annotations

import math

import pytest

from repro.dproc import (DMon, DMonConfig, MetricId, MetricPolicy,
                         register_default_modules)
from repro.dproc.dmon import DEAD_AFTER_INTERVALS, STALE_AFTER_INTERVALS
from repro.dproc.modules.base import MonitoringModule
from repro.errors import ControlSyntaxError, DprocError
from repro.dproc.control_file import parse_command
from repro.kecho import ControlMessage, KechoBus
from repro.kecho.control import control_message_size
from repro.sim import build_cluster


def make_dmon(cluster, name, bus=None, config=None,
              modules=("cpu", "mem", "disk", "net", "pmc")):
    dmon = DMon(cluster[name], bus or KechoBus(), config)
    register_default_modules(dmon, modules)
    return dmon


def deploy_pair(cluster, bus=None, config=None):
    bus = bus or KechoBus()
    a = make_dmon(cluster, "alan", bus, config)
    b = make_dmon(cluster, "maui", bus, config)
    a.start()
    b.start()
    return a, b


class TestRegistration:
    def test_register_all_default_modules(self, cluster3):
        dmon = make_dmon(cluster3, "alan")
        assert set(dmon.modules) == {"cpu", "mem", "disk", "net", "pmc"}
        # Every metric of the default modules gets a policy (BATTERY,
        # the DMON_* self-telemetry metrics and the PROC_* aggregates
        # belong to the optional battery / dproc / proc modules).
        optional = {MetricId.BATTERY, MetricId.DMON_POLL_COST,
                    MetricId.DMON_RX_COST, MetricId.DMON_EVENT_RATE,
                    MetricId.PROC_COUNT, MetricId.PROC_CPU_MAX,
                    MetricId.PROC_RSS_MAX}
        assert set(dmon.policies) == set(MetricId) - optional

    def test_duplicate_module_rejected(self, cluster3):
        dmon = make_dmon(cluster3, "alan")
        with pytest.raises(DprocError, match="already registered"):
            register_default_modules(dmon, ("cpu",))

    def test_unknown_module_name_rejected(self, cluster3):
        dmon = DMon(cluster3["alan"], KechoBus())
        with pytest.raises(DprocError):
            register_default_modules(dmon, ("gpu",))

    def test_runtime_module_registration(self, env, cluster3):
        """Modules can be added while d-mon runs (extensibility)."""

        class BatteryMon(MonitoringModule):
            name = "battery"

            def metrics(self):
                return (MetricId.INSTRUCTIONS,)  # reuse an id for test

            def collect(self, now):
                return [42.0]

        dmon = make_dmon(cluster3, "alan", modules=("cpu",))
        dmon.start()
        env.run(until=2.0)
        dmon.register_service(BatteryMon(cluster3["alan"]))
        assert dmon.modules["battery"].started
        env.run(until=4.0)
        assert dmon.last_samples[MetricId.INSTRUCTIONS] == 42.0

    def test_double_start_rejected(self, cluster3):
        dmon = make_dmon(cluster3, "alan")
        dmon.start()
        with pytest.raises(DprocError):
            dmon.start()


class TestConfigValidation:
    @pytest.mark.parametrize("poll", [
        0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_poll_interval_must_be_finite_and_positive(self, poll):
        """Zero busy-polls, a negative interval fails in the clock, and
        inf/nan make the first-poll stagger inf/nan on either backend:
        the configuration refuses all of them."""
        with pytest.raises(DprocError, match="poll_interval"):
            DMonConfig(poll_interval=poll)

    @pytest.mark.parametrize("poll", [1e-6, 0.25, 1, 3600.0])
    def test_a_finite_positive_poll_interval_is_kept(self, poll):
        assert DMonConfig(poll_interval=poll).poll_interval == poll


class TestPollingAndPublication:
    def test_polls_happen_once_per_interval(self, env, cluster3):
        dmon = make_dmon(cluster3, "alan",
                         config=DMonConfig(poll_interval=1.0))
        dmon.start()
        env.run(until=10.5)
        assert dmon.polls == pytest.approx(10, abs=1)

    def test_remote_cache_fills(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        env.run(until=3.0)
        remote = a.remote_value("maui", MetricId.FREEMEM)
        assert remote is not None
        assert remote.value > 0
        assert a.peer_last_heard["maui"] >= remote.timestamp

    def test_no_publication_without_subscribers(self, env, cluster3):
        config = DMonConfig(subscribe_monitoring=False)
        a = make_dmon(cluster3, "alan", config=config)
        a.start()
        env.run(until=5.0)
        assert a.node.telemetry.value("dmon.events_published") == 0
        assert a.submit_overhead.mean() == 0.0

    def test_publication_with_subscriber(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        env.run(until=5.0)
        assert a.node.telemetry.value("dmon.events_published") >= 4
        assert a.mean_submit_overhead() > 0

    def test_update_hooks_fire(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        seen = []
        a.update_hooks.append(
            lambda host, metric, value, ts: seen.append((host, metric)))
        env.run(until=3.0)
        assert ("maui", MetricId.LOADAVG) in seen

    def test_metric_subset_restricts_payload(self, env, cluster3):
        config = DMonConfig(metric_subset=frozenset(
            {MetricId.LOADAVG, MetricId.FREEMEM}))
        bus = KechoBus()
        a = make_dmon(cluster3, "alan", bus, config)
        b = make_dmon(cluster3, "maui", bus, config)
        a.start()
        b.start()
        env.run(until=3.0)
        assert set(a.last_samples) == {MetricId.LOADAVG,
                                       MetricId.FREEMEM}
        assert b.remote_value("alan", MetricId.DISKUSAGE) is None

    def test_event_size_model(self, env, cluster3):
        config = DMonConfig(
            metric_subset=frozenset({MetricId.LOADAVG, MetricId.FREEMEM,
                                     MetricId.DISKUSAGE,
                                     MetricId.NET_BANDWIDTH}))
        a, b = deploy_pair(cluster3, config=config)
        env.run(until=3.0)
        # 40 header + 4 * 12 per record = 88 bytes -> within the
        # paper's 50-100 B band.
        reg = cluster3["alan"].telemetry
        per_event = (reg.value("kecho.dproc.monitor.tx_bytes")
                     / reg.value("kecho.dproc.monitor.submits"))
        assert 50 <= per_event <= 100

    def test_padding_inflates_events(self, env, cluster3):
        config = DMonConfig(payload_padding=5000.0)
        a, b = deploy_pair(cluster3, config=config)
        env.run(until=3.0)
        reg = cluster3["alan"].telemetry
        per_event = (reg.value("kecho.dproc.monitor.tx_bytes")
                     / reg.value("kecho.dproc.monitor.submits"))
        assert per_event > 5000

    def test_stop_ends_polling(self, env, cluster3):
        a = make_dmon(cluster3, "alan")
        a.start()
        env.run(until=2.0)
        a.stop()
        polls = a.polls
        env.run(until=10.0)
        assert a.polls <= polls + 1


class TestParameters:
    def test_period_halves_publications(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        env.run(until=2.0)
        a.apply_control(parse_command("period * 2"))
        start = env.now
        telemetry = a.node.telemetry
        records_before = telemetry.value("dmon.records_published")
        env.run(until=start + 20.0)
        sent = telemetry.value("dmon.records_published") - records_before
        # ~10 publication rounds of ~12 metrics at period 2 in 20s.
        full_rate = 20 * len(a.last_samples)
        assert sent == pytest.approx(full_rate / 2, rel=0.2)

    def test_threshold_blocks_metrics(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        a.apply_control(parse_command("threshold loadavg above 100"))
        env.run(until=5.0)
        assert b.remote_value("alan", MetricId.LOADAVG) is None
        assert b.remote_value("alan", MetricId.FREEMEM) is not None

    def test_clear_parameter(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        a.apply_control(parse_command("threshold loadavg above 100"))
        a.apply_control(parse_command("clear loadavg threshold"))
        env.run(until=5.0)
        assert b.remote_value("alan", MetricId.LOADAVG) is not None

    def test_bad_parameter_rejected(self, cluster3):
        a = make_dmon(cluster3, "alan")
        with pytest.raises(ControlSyntaxError):
            a.apply_control(parse_command("period cpu NaNy"))
        with pytest.raises(ControlSyntaxError):
            a.apply_control(parse_command("frobs cpu 1"))

    def test_resolve_metrics(self, cluster3):
        a = make_dmon(cluster3, "alan")
        assert a.resolve_metrics("cpu") == [MetricId.LOADAVG]
        assert a.resolve_metrics("loadavg") == [MetricId.LOADAVG]
        assert set(a.resolve_metrics("*")) \
            == set(MetricId) - {MetricId.BATTERY,
                                MetricId.DMON_POLL_COST,
                                MetricId.DMON_RX_COST,
                                MetricId.DMON_EVENT_RATE,
                                MetricId.PROC_COUNT,
                                MetricId.PROC_CPU_MAX,
                                MetricId.PROC_RSS_MAX}
        assert set(a.resolve_metrics("net")) == {
            MetricId.NET_BANDWIDTH, MetricId.NET_RTT, MetricId.NET_RETX,
            MetricId.NET_LOST, MetricId.NET_USED, MetricId.NET_DELAY}


class TestRemoteControl:
    def test_control_message_reaches_remote_dmon(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        env.run(until=1.0)
        a.send_control(ControlMessage("alan", "maui", "period cpu 3"))
        env.run(until=2.0)
        assert b.policies[MetricId.LOADAVG].period == 3.0
        # Not applied to the sender or other nodes:
        assert a.policies[MetricId.LOADAVG].period is None

    def test_remote_filter_deploy_and_remove(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        env.run(until=1.0)
        a.send_control(ControlMessage(
            "alan", "maui", "filter * id=f1 { output[0] = input[LOADAVG]; }"))
        env.run(until=2.0)
        assert b.filters.global_filter is not None
        assert b.filters.global_filter.filter_id == "f1"
        a.send_control(ControlMessage("alan", "maui", "unfilter f1"))
        env.run(until=3.0)
        assert b.filters.global_filter is None

    def test_filter_named_by_metric_governs_its_module(self, env,
                                                      cluster3):
        a, b = deploy_pair(cluster3)
        env.run(until=1.0)
        a.send_control(ControlMessage(
            "alan", "maui",
            "filter loadavg id=f1 { output[0] = input[LOADAVG]; }"))
        a.send_control(ControlMessage(
            "alan", "maui",
            "filter nosuchmetric id=f2 { output[0] = input[LOADAVG]; }"))
        env.run(until=2.0)
        assert b.filters.filter_for("cpu").filter_id == "f1"
        assert [f.filter_id for f in b.filters.deployed()] == ["f1"]
        assert b.node.telemetry.value("dmon.control_rejected") == 1

    def test_control_to_self_is_applied_not_sent(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        env.run(until=1.0)
        submits = "kecho.dproc.control.submits"
        before = a.node.telemetry.value(submits)
        a.send_control(ControlMessage("alan", "alan", "period cpu 3"))
        assert a.policies[MetricId.LOADAVG].period == 3.0
        assert a.node.telemetry.value(submits) == before

    def test_peer_message_naming_the_target_as_sender_is_handled(
            self, env, cluster3):
        """A message whose sender is the receiving host's own name is
        applied, or counted when it cannot be: never dropped unseen."""
        a, b = deploy_pair(cluster3)
        env.run(until=1.0)
        for command in ("period cpu 3", "period nosuch 1"):
            msg = ControlMessage("maui", "maui", command)
            a._control_ep.submit(msg, size=control_message_size(msg))
        env.run(until=2.0)
        assert b.policies[MetricId.LOADAVG].period == 3.0
        assert b.node.telemetry.value("dmon.control_rejected") == 1

    def test_send_control_requires_started(self, cluster3):
        a = make_dmon(cluster3, "alan")
        with pytest.raises(DprocError, match="not started"):
            a.send_control(ControlMessage("alan", "maui", "period cpu 1"))


class TestFiltersInPolling:
    def test_global_filter_governs_publication(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        a.filters.deploy("""
        {
            int i = 0;
            if (input[LOADAVG].value > 99) {
                output[i] = input[LOADAVG];
                i = i + 1;
            }
        }
        """, scope="*")
        env.run(until=5.0)
        # load is ~0, so the filter blocks everything.
        assert b.remote_value("alan", MetricId.LOADAVG) is None
        assert b.remote_value("alan", MetricId.FREEMEM) is None

    def test_scoped_filter_blocks_only_its_module(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        a.filters.deploy("{ int i = 0; }", scope="cpu")  # block cpu
        env.run(until=5.0)
        assert b.remote_value("alan", MetricId.LOADAVG) is None
        assert b.remote_value("alan", MetricId.FREEMEM) is not None

    def test_filter_can_transform_values(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        a.filters.deploy("""
        {
            output[0] = input[FREEMEM];
            output[0].value = input[FREEMEM].value / 2.0;
        }
        """, scope="mem")
        env.run(until=5.0)
        remote = b.remote_value("alan", MetricId.FREEMEM)
        local = a.last_samples[MetricId.FREEMEM]
        assert remote.value == pytest.approx(local / 2.0, rel=0.05)


class TestControlValidation:
    """Regressions: a control command is checked before anything
    changes, by the grammar at the writer and the target alike."""

    def test_nonpositive_period_rejected(self, cluster3):
        a = make_dmon(cluster3, "alan")
        for bad in ("0", "-5", "inf", "nan"):
            with pytest.raises(ControlSyntaxError, match="positive"):
                a.apply_control(parse_command(f"period cpu {bad}"))

    def test_rejected_set_leaves_no_partial_state(self, cluster3):
        """A rejected period must not create policy entries as a side
        effect of resolving its metrics."""
        from repro.kecho import KechoBus as _Bus
        a = DMon(cluster3["alan"], _Bus())  # no modules, no policies
        with pytest.raises(ControlSyntaxError):
            a.apply_control(parse_command("period loadavg 0"))
        assert a.policies == {}

    def test_clear_unknown_parameter_always_rejected(self, cluster3):
        """A clear with a bad parameter name must raise even when no
        policy exists for the metric (the old code skipped validation
        via ``continue``)."""
        from repro.kecho import KechoBus as _Bus
        a = DMon(cluster3["alan"], _Bus())
        assert MetricId.LOADAVG not in a.policies
        with pytest.raises(ControlSyntaxError, match="unknown parameter"):
            a.apply_control(parse_command("clear loadavg frobs"))

    def test_set_unknown_parameter_rejected_before_resolution(
            self, cluster3):
        a = make_dmon(cluster3, "alan")
        with pytest.raises(ControlSyntaxError, match="unknown control"):
            a.apply_control(parse_command("frobs * 1"))

    def test_resolve_star_has_no_duplicates(self, cluster3):
        """Modules sharing a metric id must not yield duplicate ids."""

        class EchoLoad(MonitoringModule):
            name = "echoload"

            def metrics(self):
                return (MetricId.LOADAVG,)

            def collect(self, now):
                return [1.0]

        a = make_dmon(cluster3, "alan")
        a.register_service(EchoLoad(cluster3["alan"]))
        resolved = a.resolve_metrics("*")
        assert len(resolved) == len(set(resolved))
        # Stable first-registration order: cpu registered first.
        assert resolved[0] == MetricId.LOADAVG


class TestRestart:
    """Regressions: stop() must fully reset per-life state."""

    def test_receive_overhead_never_negative_after_restart(
            self, env, cluster3):
        """A stale _rx_cost_mark from the previous life made the first
        receive_overhead sample after restart negative."""
        a, b = deploy_pair(cluster3)
        env.run(until=5.0)
        assert list(a.receive_overhead), "need rx samples before stop"
        a.stop()
        a.start()
        restart = env.now
        env.run(until=restart + 5.0)
        after = [v for t, v in a.receive_overhead if t >= restart]
        assert after and min(after) >= 0.0

    def test_restart_does_not_double_poll(self, env, cluster3):
        """A stop → quick restart must not leave the old polling
        process alive alongside the new one."""
        a = make_dmon(cluster3, "alan",
                      config=DMonConfig(poll_interval=1.0))
        a.start()
        env.run(until=2.0)
        a.stop()
        a.start()
        before = a.polls
        env.run(until=12.0)
        # ~10 seconds of polling at 1/s; a leaked second loop would
        # roughly double this.
        assert a.polls - before <= 12

    def test_restart_reconnects_and_publishes(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        env.run(until=3.0)
        a.stop()
        assert a._monitor_ep is None and a._control_ep is None
        assert a._poll_proc is None
        a.stop()  # idempotent
        a.start()
        mark = env.now
        env.run(until=mark + 5.0)
        remote = b.remote_value("alan", MetricId.LOADAVG)
        assert remote is not None and remote.timestamp > mark

    def test_restarts_leave_one_connection_per_peer(self, env):
        """Each restart used to leave the previous life's fan-out in
        the stack (3 → 6 → … → 18 connections on 4 nodes), and NET_MON
        averaged the dead ones' frozen delays and RTTs in."""
        cluster = build_cluster(env, nodes=4, seed=42)
        bus = KechoBus()
        dmons = [make_dmon(cluster, name, bus) for name in cluster.names]
        for dmon in dmons:
            dmon.start()
        first = dmons[0]
        stack = first.node.stack
        env.run(until=3.0)
        for _ in range(5):
            first.stop()
            env.run(until=env.now + 1.0)
            first.start()
            env.run(until=env.now + 3.0)
            assert len(stack.connections) == 3
        live = list(first._monitor_ep._conns.values())
        assert {id(c) for c in stack.connections} == {id(c) for c in live}
        assert sorted(c.dst for c in live) == sorted(cluster.names[1:])
        assert not any(c.closed for c in live)
        net = first.modules["net"]
        samples = dict(zip(net.metrics(), net.collect(env.now)))
        delays = [c.last_delay for c in live]
        assert samples[MetricId.NET_DELAY] == sum(delays) / len(delays)
        rtts = [c.last_rtt for c in live]
        assert samples[MetricId.NET_RTT] == sum(rtts) / len(rtts)


class TestPeerLiveness:
    def test_fresh_to_stale_to_dead(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        env.run(until=3.0)
        assert a.peer_state("maui") == "fresh"
        b.stop()
        down = env.now
        interval = a.config.poll_interval
        env.run(until=down + STALE_AFTER_INTERVALS * interval + 2.0)
        assert a.peer_state("maui") == "stale"
        env.run(until=down + DEAD_AFTER_INTERVALS * interval + 2.0)
        assert a.peer_state("maui") == "dead"
        # Stale/dead entries stay readable (last-known values).
        assert a.remote_value("maui", MetricId.LOADAVG) is not None

    def test_rejoin_becomes_fresh_again(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        env.run(until=3.0)
        b.stop()
        env.run(until=20.0)
        assert a.peer_state("maui") == "dead"
        b.start()
        env.run(until=25.0)
        assert a.peer_state("maui") == "fresh"

    def test_unknown_and_local_states(self, env, cluster3):
        a, b = deploy_pair(cluster3)
        assert a.peer_state("etna") == "unknown"
        assert a.peer_age("etna") == math.inf
        # The local host is heard at its own polls, not before.
        assert a.peer_age("alan") == math.inf
        assert a.peer_state("alan") == "unknown"
        env.run(until=3.0)
        assert sorted(a.peer_last_heard) == ["alan", "maui"]
        assert a.peer_state("alan") == "fresh"
        assert a.peer_state("maui") == "fresh"

"""Unit and integration tests for KECho channels."""

from __future__ import annotations

import pytest

from repro.errors import ChannelError
from repro.kecho import KechoBus, control_message_size
from repro.kecho.control import (ClearParameter, DeployFilter,
                                 RemoveFilter, SetParameter)
from repro.units import KB


@pytest.fixture
def bus():
    return KechoBus()


def wire(bus, cluster, name="monitor"):
    """Attach every node to the channel; return endpoints by host."""
    return {node.name: bus.connect(node, name) for node in cluster}


class TestEndpointLifecycle:
    def test_connect_is_idempotent(self, bus, cluster3):
        alan = cluster3["alan"]
        assert bus.connect(alan, "monitor") is bus.connect(alan, "monitor")

    def test_distinct_channels_distinct_endpoints(self, bus, cluster3):
        alan = cluster3["alan"]
        a = bus.connect(alan, "monitor")
        b = bus.connect(alan, "control")
        assert a is not b

    def test_close_then_reconnect(self, bus, cluster3):
        alan = cluster3["alan"]
        ep = bus.connect(alan, "monitor")
        ep.close()
        ep.close()  # idempotent
        ep2 = bus.connect(alan, "monitor")
        assert ep2 is not ep and not ep2.closed

    def test_submit_on_closed_endpoint_rejected(self, bus, cluster3):
        ep = bus.connect(cluster3["alan"], "monitor")
        ep.close()
        with pytest.raises(ChannelError):
            ep.submit("x", size=100)

    def test_subscribe_on_closed_endpoint_rejected(self, bus, cluster3):
        ep = bus.connect(cluster3["alan"], "monitor")
        ep.close()
        with pytest.raises(ChannelError):
            ep.subscribe(lambda e: None)

    def test_bad_size_rejected(self, bus, cluster3):
        ep = bus.connect(cluster3["alan"], "monitor")
        with pytest.raises(ChannelError):
            ep.submit("x", size=0)

    def test_cancel_after_close_is_noop(self, bus, cluster3):
        """Closing an endpoint deactivates its subscriptions, so a
        later cancel() is idempotent instead of a ChannelError."""
        ep = bus.connect(cluster3["alan"], "monitor")
        sub = ep.subscribe(lambda e: None)
        ep.close()
        assert not sub.active
        sub.cancel()  # must not raise
        sub.cancel()


class TestSubmitUnderFaults:
    def test_partition_lands_in_failed_targets(self, env, bus, cluster3):
        from repro.sim import FaultInjector
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e: None)
        eps["etna"].subscribe(lambda e: None)
        FaultInjector(cluster3).partition(["alan", "etna"], ["maui"])
        receipt = eps["alan"].submit({"loadavg": 1.0}, size=100)
        assert receipt.remote_targets == ["maui", "etna"]
        env.run()
        assert receipt.failed_targets == ["maui"]
        assert receipt.delivered_targets == ["etna"]

    def test_endpoint_survives_failed_submit(self, env, bus, cluster3):
        """A partition-time submit must not corrupt publisher state:
        once the partition heals, the next submit goes through."""
        from repro.sim import FaultInjector
        eps = wire(bus, cluster3)
        got = []
        eps["maui"].subscribe(lambda e: got.append(e))
        injector = FaultInjector(cluster3)
        injector.partition(["alan"], ["maui", "etna"])
        first = eps["alan"].submit("during", size=100)
        env.run()
        assert first.failed_targets == ["maui"]
        assert not got
        injector.heal()
        second = eps["alan"].submit("after", size=100)
        env.run()
        assert second.failed_targets == []
        assert [e.payload for e in got] == ["after"]

    def test_lost_copy_is_reported_once_everywhere(self, env, bus,
                                                   cluster3):
        """A copy dropped at send time is on the receipt when
        ``submit`` returns; one killed in flight lands when it dies.
        Each is listed once on the receipt, counted once and recorded
        once in the stream: one report, three witnesses."""
        from repro.sim import FaultInjector
        from repro.stream import DROP, StreamBroker
        bus.stream = StreamBroker()
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e: None)
        eps["etna"].subscribe(lambda e: None)
        injector = FaultInjector(cluster3)
        injector.partition(["alan"], ["maui"])
        # 1 MB takes ~0.08 s on the wire; etna crashes under it.
        receipt = eps["alan"].submit("x", size=1e6)
        assert receipt.failed_targets == ["maui"]
        injector.at(0.01, lambda: injector.crash("etna"))
        env.run()
        assert receipt.failed_targets == ["maui", "etna"]
        assert [(e.dest, e.fault) for e in bus.stream.entries("monitor")
                if e.kind == DROP] == [("maui", "partition"),
                                       ("etna", "crash:etna")]
        assert cluster3["alan"].telemetry.value(
            "kecho.monitor.failed_deliveries") == 2


class TestSubmitReceiptAccounting:
    def test_repeated_failed_target_excluded_exactly_once(self):
        """Regression: ``delivered_targets`` used an O(n·m) list scan
        that re-counted a target for every time it appeared in
        ``failed_targets`` — a twice-failed host (retried submits
        share a receipt in some harnesses) corrupted the delivered
        list.  Membership is a set check now."""
        from repro.kecho.channel import SubmitReceipt
        receipt = SubmitReceipt(
            event=None, cpu_seconds=0.0,
            remote_targets=["maui", "etna", "hood"],
            failed_targets=["maui", "maui", "maui"])
        assert receipt.delivered_targets == ["etna", "hood"]

    def test_all_failed_means_none_delivered(self):
        from repro.kecho.channel import SubmitReceipt
        receipt = SubmitReceipt(
            event=None, cpu_seconds=0.0,
            remote_targets=["maui", "etna"],
            failed_targets=["etna", "maui", "etna"])
        assert receipt.delivered_targets == []

    def test_duplicate_target_failing_once_drops_both_copies(self):
        """A host listed twice in ``remote_targets`` that fails is
        excluded everywhere, not just at its first position."""
        from repro.kecho.channel import SubmitReceipt
        receipt = SubmitReceipt(
            event=None, cpu_seconds=0.0,
            remote_targets=["maui", "etna", "maui"],
            failed_targets=["maui"])
        assert receipt.delivered_targets == ["etna"]


class TestPublishSubscribe:
    def test_event_reaches_remote_subscriber(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        got = []
        eps["maui"].subscribe(lambda e: got.append(e))
        receipt = eps["alan"].submit({"loadavg": 1.5}, size=100)
        env.run()
        assert receipt.remote_targets == ["maui"]
        assert len(got) == 1
        ev = got[0]
        assert ev.source == "alan"
        assert ev.payload == {"loadavg": 1.5}
        assert ev.delivered_at > ev.submitted_at
        assert ev.latency > 0

    def test_no_subscribers_no_traffic(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        receipt = eps["alan"].submit("x", size=100)
        env.run()
        assert receipt.remote_targets == []
        assert cluster3["maui"].stack.bytes_received == 0

    def test_fanout_to_all_subscribers(self, env, bus, cluster8):
        eps = wire(bus, cluster8)
        counts = {name: [] for name in cluster8.names}
        for name, ep in eps.items():
            ep.subscribe(lambda e, n=name: counts[n].append(e.eid))
        eps["alan"].submit("x", size=100)
        env.run()
        for name in cluster8.names:
            assert len(counts[name]) == 1  # incl. local delivery on alan

    def test_local_subscriber_immediate(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        got = []
        eps["alan"].subscribe(lambda e: got.append(env.now))
        eps["alan"].submit("x", size=100)
        assert got == [env.now]  # synchronous local upcall

    def test_subscription_cancel_stops_delivery(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        got = []
        sub = eps["maui"].subscribe(lambda e: got.append(e))
        eps["alan"].submit("first", size=100)
        env.run()
        sub.cancel()
        eps["alan"].submit("second", size=100)
        env.run()
        assert len(got) == 1

    def test_cancel_twice_ok(self, bus, cluster3):
        ep = bus.connect(cluster3["alan"], "monitor")
        sub = ep.subscribe(lambda e: None)
        sub.cancel()
        sub.cancel()

    def test_unsubscribed_node_not_pushed_to(self, env, bus, cluster3):
        """Data exchange only for registered interest (paper §2)."""
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e: None)
        receipt = eps["alan"].submit("x", size=100)
        env.run()
        assert "etna" not in receipt.remote_targets

    def test_two_channels_are_isolated(self, env, bus, cluster3):
        mon = wire(bus, cluster3, "monitor")
        ctl = wire(bus, cluster3, "control")
        got_mon, got_ctl = [], []
        mon["maui"].subscribe(lambda e: got_mon.append(e))
        ctl["maui"].subscribe(lambda e: got_ctl.append(e))
        mon["alan"].submit("m", size=50)
        ctl["alan"].submit("c", size=50)
        env.run()
        assert [e.payload for e in got_mon] == ["m"]
        assert [e.payload for e in got_ctl] == ["c"]


class TestCostAccounting:
    def test_submit_cost_scales_with_subscribers(self, env, bus,
                                                 cluster8):
        eps = wire(bus, cluster8)
        r0 = eps["alan"].submit("x", size=100)
        for name in cluster8.names:
            if name != "alan":
                eps[name].subscribe(lambda e: None)
        r7 = eps["alan"].submit("x", size=100)
        assert r7.cpu_seconds > r0.cpu_seconds
        costs = cluster8["alan"].costs
        expected = costs.encode_cost(100) + costs.send_cost(100, 7)
        assert r7.cpu_seconds == pytest.approx(expected)

    def test_submit_cost_scales_with_size(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e: None)
        small = eps["alan"].submit("x", size=100)
        large = eps["alan"].submit("x", size=KB(5))
        assert large.cpu_seconds > small.cpu_seconds

    def test_submit_charges_cpu(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e: None)
        receipt = eps["alan"].submit("x", size=KB(5))
        env.run(until=1.0)
        alan = cluster3["alan"]
        alan.cpu.settle()
        assert alan.cpu.busy_cpu_seconds \
            == pytest.approx(receipt.cpu_seconds)

    def test_receive_cost_accumulates(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e: None)
        for _ in range(3):
            eps["alan"].submit("x", size=100)
        env.run()
        maui = cluster3["maui"]
        expected = 3 * maui.costs.receive_cost(100)
        assert eps["maui"].receive_cpu_seconds == pytest.approx(expected)

    def test_counters(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e: None)
        eps["etna"].subscribe(lambda e: None)
        eps["alan"].submit("x", size=200)
        env.run()
        alan = cluster3["alan"].telemetry
        maui = cluster3["maui"].telemetry
        assert alan.value("kecho.monitor.submits") == 1
        assert alan.value("kecho.monitor.tx_bytes") == pytest.approx(400)
        assert maui.value("kecho.monitor.receives") == 1
        assert maui.value("kecho.monitor.rx_bytes") == pytest.approx(200)

    def test_retained_state_independent_of_event_count(self, env, bus,
                                                       cluster3):
        """An endpoint keeps totals, not a per-event history."""
        import sys

        def retained(ep) -> int:
            """Bytes held by the endpoint's own attributes and theirs."""
            total = 0
            for key, value in vars(ep).items():
                if key in ("bus", "node"):
                    continue
                inner = getattr(value, "__dict__", None) or {
                    slot: getattr(value, slot)
                    for slot in getattr(type(value), "__slots__", ())}
                total += sys.getsizeof(value) + sum(
                    sys.getsizeof(v) for v in inner.values())
            return total

        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e: None)
        sizes = []
        for n in (10, 1000):
            for _ in range(n):
                eps["alan"].submit("x", size=100)
            env.run()
            sizes.append((retained(eps["alan"]), retained(eps["maui"])))
        assert sizes[0] == sizes[1]


class TestControlMessages:
    def test_addressing(self):
        msg = SetParameter(sender="alan", target="maui", metric="cpu",
                           parameter="period", spec="2")
        assert msg.addressed_to("maui")
        assert not msg.addressed_to("etna")

    def test_broadcast(self):
        msg = SetParameter(sender="alan", target=None)
        assert msg.addressed_to("anyone")

    def test_sizes_grow_with_body(self):
        small = DeployFilter(sender="a", source="return 1;")
        big = DeployFilter(sender="a", source="return 1;" * 100)
        assert control_message_size(big) > control_message_size(small)

    def test_all_kinds_have_sizes(self):
        msgs = [
            SetParameter(sender="a", metric="cpu", spec="2"),
            ClearParameter(sender="a", metric="cpu"),
            DeployFilter(sender="a", source="{}", filter_id="f1"),
            RemoveFilter(sender="a", filter_id="f1"),
        ]
        for m in msgs:
            assert control_message_size(m) >= 48

    def test_control_message_over_channel(self, env, bus, cluster3):
        eps = wire(bus, cluster3, "control")
        got = []
        eps["maui"].subscribe(lambda e: got.append(e.payload))
        msg = DeployFilter(sender="alan", target="maui",
                           source="{ return 1; }", filter_id="f1")
        eps["alan"].submit(msg, size=control_message_size(msg))
        env.run()
        assert got == [msg]

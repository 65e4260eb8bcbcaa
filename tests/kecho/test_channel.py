"""Unit and integration tests for KECho channels."""

from __future__ import annotations

import pytest

from repro.errors import ChannelError
from repro.kecho import KechoBus, control_message_size
from repro.kecho.control import ControlMessage
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
            ep.subscribe(lambda e, t: None)

    def test_bad_size_rejected(self, bus, cluster3):
        ep = bus.connect(cluster3["alan"], "monitor")
        with pytest.raises(ChannelError):
            ep.submit("x", size=0)


def failed(node) -> float:
    return node.telemetry.value("kecho.monitor.failed_deliveries")


def entries(bus, kind):
    return [e for e in bus.stream.entries("monitor") if e.kind == kind]


class TestSubmitUnderFaults:
    def test_partition_lands_in_failed_targets(self, env, bus, cluster3):
        from repro.sim import FaultInjector
        from repro.stream import DELIVER, DROP, SUBMIT, StreamBroker
        bus.stream = StreamBroker()
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e, t: None)
        eps["etna"].subscribe(lambda e, t: None)
        FaultInjector(cluster3).partition(["alan", "etna"], ["maui"])
        eps["alan"].submit({"loadavg": 1.0}, size=100)
        [submit] = entries(bus, SUBMIT)
        assert submit.targets == ("maui", "etna")
        env.run()
        assert [e.dest for e in entries(bus, DROP)] == ["maui"]
        assert [e.dest for e in entries(bus, DELIVER)] == ["etna"]
        assert failed(cluster3["alan"]) == 1

    def test_endpoint_survives_failed_submit(self, env, bus, cluster3):
        """A partition-time submit must not corrupt publisher state:
        once the partition heals, the next submit goes through."""
        from repro.sim import FaultInjector
        eps = wire(bus, cluster3)
        got = []
        eps["maui"].subscribe(lambda e, t: got.append(e))
        injector = FaultInjector(cluster3)
        injector.partition(["alan"], ["maui", "etna"])
        eps["alan"].submit("during", size=100)
        env.run()
        assert failed(cluster3["alan"]) == 1
        assert not got
        injector.heal()
        eps["alan"].submit("after", size=100)
        env.run()
        assert failed(cluster3["alan"]) == 1
        assert [e.payload for e in got] == ["after"]

    def test_lost_copy_is_reported_once_everywhere(self, env, bus,
                                                   cluster3):
        """A copy dropped at send time is reported before ``submit``
        returns; one killed in flight when it dies.  Each is counted
        once and recorded once in the stream."""
        from repro.sim import FaultInjector
        from repro.stream import DROP, StreamBroker
        bus.stream = StreamBroker()
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e, t: None)
        eps["etna"].subscribe(lambda e, t: None)
        injector = FaultInjector(cluster3)
        injector.partition(["alan"], ["maui"])
        # 1 MB takes ~0.08 s on the wire; etna crashes under it.
        eps["alan"].submit("x", size=1e6)
        assert failed(cluster3["alan"]) == 1
        assert [(e.dest, e.fault) for e in entries(bus, DROP)] \
            == [("maui", "partition")]
        injector.at(0.01, lambda: injector.crash("etna"))
        env.run()
        assert [(e.dest, e.fault) for e in entries(bus, DROP)] \
            == [("maui", "partition"), ("etna", "crash:etna")]
        assert failed(cluster3["alan"]) == 2


class TestPublishSubscribe:
    def test_event_reaches_remote_subscriber(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        got = []
        eps["maui"].subscribe(lambda e, t: got.append((e, env.now)))
        eps["alan"].submit({"loadavg": 1.5}, size=100)
        env.run()
        assert len(got) == 1
        ev, delivered_at = got[0]
        assert ev.source == "alan"
        assert ev.payload == {"loadavg": 1.5}
        assert delivered_at > ev.submitted_at

    def test_a_fan_out_builds_one_event(self, env, bus, cluster8,
                                        monkeypatch):
        """Every delivery of a submit, local and simulated, hands its
        handler the event ``submit`` built."""
        from repro.kecho import ChannelEvent
        built = []
        init = ChannelEvent.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ChannelEvent, "__init__", counted)
        eps = wire(bus, cluster8)
        got = []
        for ep in eps.values():
            ep.subscribe(lambda e, t: got.append(e))
        receipt = eps["alan"].submit("x", size=100)
        env.run()
        assert len(got) == 8
        assert len(built) == 1
        assert all(e is receipt.event for e in got)

    def test_second_subscribe_rejected(self, bus, cluster3):
        ep = bus.connect(cluster3["alan"], "monitor")
        ep.subscribe(lambda e, t: None)
        with pytest.raises(ChannelError):
            ep.subscribe(lambda e, t: None)

    def test_no_subscribers_no_traffic(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        eps["alan"].submit("x", size=100)
        env.run()
        assert cluster3["alan"].telemetry.value(
            "kecho.monitor.tx_bytes") == 0
        assert cluster3["maui"].stack.bytes_received == 0

    def test_fanout_to_all_subscribers(self, env, bus, cluster8):
        eps = wire(bus, cluster8)
        counts = {name: [] for name in cluster8.names}
        for name, ep in eps.items():
            ep.subscribe(lambda e, t, n=name: counts[n].append(e))
        eps["alan"].submit("x", size=100)
        env.run()
        for name in cluster8.names:
            assert len(counts[name]) == 1  # incl. local delivery on alan

    def test_local_subscriber_immediate(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        got = []
        eps["alan"].subscribe(lambda e, t: got.append(env.now))
        eps["alan"].submit("x", size=100)
        assert got == [env.now]  # synchronous local upcall

    def test_unsubscribed_node_not_pushed_to(self, env, bus, cluster3):
        """Data exchange only for registered interest (paper §2)."""
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e, t: None)
        eps["alan"].submit("x", size=100)
        env.run()
        assert cluster3["maui"].stack.bytes_received > 0
        assert cluster3["etna"].stack.bytes_received == 0

    def test_two_channels_are_isolated(self, env, bus, cluster3):
        mon = wire(bus, cluster3, "monitor")
        ctl = wire(bus, cluster3, "control")
        got_mon, got_ctl = [], []
        mon["maui"].subscribe(lambda e, t: got_mon.append(e))
        ctl["maui"].subscribe(lambda e, t: got_ctl.append(e))
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
                eps[name].subscribe(lambda e, t: None)
        r7 = eps["alan"].submit("x", size=100)
        assert r7.cpu_seconds > r0.cpu_seconds
        costs = cluster8["alan"].costs
        expected = costs.encode_cost(100) + costs.send_cost(100, 7)
        assert r7.cpu_seconds == pytest.approx(expected)

    def test_submit_cost_scales_with_size(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e, t: None)
        small = eps["alan"].submit("x", size=100)
        large = eps["alan"].submit("x", size=KB(5))
        assert large.cpu_seconds > small.cpu_seconds

    def test_submit_charges_cpu(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e, t: None)
        receipt = eps["alan"].submit("x", size=KB(5))
        env.run(until=1.0)
        alan = cluster3["alan"]
        alan.cpu.settle()
        assert alan.cpu.busy_cpu_seconds \
            == pytest.approx(receipt.cpu_seconds)

    def test_receive_cost_accumulates(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e, t: None)
        for _ in range(3):
            eps["alan"].submit("x", size=100)
        env.run()
        maui = cluster3["maui"]
        expected = 3 * maui.costs.receive_cost(100)
        assert eps["maui"].receive_cpu_seconds == pytest.approx(expected)

    def test_counters(self, env, bus, cluster3):
        eps = wire(bus, cluster3)
        eps["maui"].subscribe(lambda e, t: None)
        eps["etna"].subscribe(lambda e, t: None)
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
        eps["maui"].subscribe(lambda e, t: None)
        sizes = []
        for n in (10, 1000):
            for _ in range(n):
                eps["alan"].submit("x", size=100)
            env.run()
            sizes.append((retained(eps["alan"]), retained(eps["maui"])))
        assert sizes[0] == sizes[1]


class TestControlMessages:
    def test_addressing(self):
        msg = ControlMessage("alan", "maui", "period cpu 2")
        assert msg.addressed_to("maui")
        assert not msg.addressed_to("etna")

    def test_sizes_grow_with_body(self):
        small = ControlMessage("a", "b", "filter * return 1;")
        big = ControlMessage("a", "b", "filter * " + "return 1;" * 100)
        assert control_message_size(big) > control_message_size(small)

    def test_all_kinds_have_sizes(self):
        """48 framing bytes plus the command's UTF-8 bytes: a period
        or threshold costs what its words cost in any order."""
        sizes = {text: control_message_size(ControlMessage("a", "b", text))
                 for text in ("period cpu 2", "threshold cpu above 0.8",
                              "clear cpu period", "filter * id=f1 {}",
                              "unfilter f1", "filter * { # ü }")}
        assert sizes == {text: 48.0 + len(text.encode())
                         for text in sizes}
        assert sizes["period cpu 2"] == 48 + len("cpu period 2")

    def test_control_message_over_channel(self, env, bus, cluster3):
        eps = wire(bus, cluster3, "control")
        got = []
        eps["maui"].subscribe(lambda e, t: got.append(e.payload))
        msg = ControlMessage("alan", "maui", "filter * id=f1 { return 1; }")
        eps["alan"].submit(msg, size=control_message_size(msg))
        env.run()
        assert got == [msg]

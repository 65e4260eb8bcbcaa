"""Unit tests for the message transport layer."""

from __future__ import annotations

import pytest

from repro.errors import TransportError
from repro.runtime.series import DEVICE_HISTORY, CounterTrace
from repro.sim import Environment, Protocol, build_cluster
from repro.units import KB, mbps
from tests.conftest import Inbox


@pytest.fixture
def pair(env):
    cluster = build_cluster(env, nodes=2, seed=7)
    return cluster["alan"], cluster["maui"]


class TestConnectionBasics:
    def test_send_delivers_payload(self, env, pair):
        src, dst = pair
        received = []
        dst.stack.bind("test", lambda m: received.append(m.payload))
        conn = src.stack.connect("maui", tag="test")
        assert conn.send({"hello": 1}, size=KB(1)) is None
        env.run()
        assert received == [{"hello": 1}]

    def test_delivery_event_carries_message(self, env, pair):
        """The receiver's handler gets the delivered Message."""
        src, dst = pair
        inbox = Inbox(dst.stack)
        conn = src.stack.connect("maui", tag="t")
        conn.send("x", size=100)
        env.run()
        (msg,) = inbox.messages
        assert msg.src == "alan" and msg.dst == "maui"
        assert msg.delivered_at is not None
        assert msg.delivered_at > msg.sent_at

    def test_unknown_destination_rejected(self, pair):
        src, _ = pair
        with pytest.raises(TransportError):
            src.stack.connect("nowhere", tag="t")

    def test_closed_connection_rejects_send(self, pair):
        src, _ = pair
        conn = src.stack.connect("maui", tag="t")
        conn.close()
        with pytest.raises(TransportError):
            conn.send("x", 10)

    def test_fan_out_naming_a_closed_connection_sends_nothing(self, env):
        """The closed connection is checked before any copy leaves, so
        a refused fan-out neither delivers nor counts a byte."""
        cluster = build_cluster(env, nodes=3, seed=7)
        stack = cluster["alan"].stack
        inboxes = [Inbox(cluster[name].stack) for name in ("maui", "etna")]
        conns = [stack.connect(name, tag="t") for name in ("maui", "etna")]
        conns[1].close()
        with pytest.raises(TransportError):
            stack.send_many(conns, "x", 100)
        env.run()
        assert [inbox.messages for inbox in inboxes] == [[], []]
        assert stack.bytes_out.total == 0.0

    def test_bad_size_rejected(self, env, pair):
        src, _ = pair
        conn = src.stack.connect("maui", tag="t")
        with pytest.raises(TransportError):
            conn.send("x", 0)

    def test_double_bind_rejected(self, pair):
        _, dst = pair
        dst.stack.bind("t", lambda m: None)
        with pytest.raises(TransportError):
            dst.stack.bind("t", lambda m: None)

    def test_unbind_then_rebind(self, pair):
        _, dst = pair
        dst.stack.bind("t", lambda m: None)
        dst.stack.unbind("t")
        dst.stack.bind("t", lambda m: None)

    def test_unknown_protocol_rejected(self, pair):
        src, _ = pair
        with pytest.raises(TransportError):
            src.stack.connect("maui", tag="t", proto="sctp")


class TestDeliveryTiming:
    def test_large_message_serialisation_delay(self, env, pair):
        src, dst = pair
        inbox = Inbox(dst.stack)
        conn = src.stack.connect("maui", tag="t")
        nbytes = mbps(100) * 0.5  # half a second at line rate
        conn.send("big", size=nbytes)
        env.run()
        (msg,) = inbox.messages
        assert msg.delivered_at == pytest.approx(0.5, abs=0.01)

    def test_delay_recorded(self, env, pair):
        src, _ = pair
        conn = src.stack.connect("maui", tag="t")
        conn.send("x", size=KB(10))
        assert conn.last_delay is None
        env.run()
        assert conn.last_delay > 0


class TestStatistics:
    def test_bandwidth_counters(self, env, pair):
        src, dst = pair
        inbox = Inbox(dst.stack)
        conn = src.stack.connect("maui", tag="t")

        def proc():
            for _ in range(5):
                conn.send("x", size=KB(100))
                yield inbox.next()

        env.run(env.process(proc()))
        assert dst.stack.bytes_received == pytest.approx(KB(500))
        assert src.stack.bytes_out.total == pytest.approx(KB(500))

    def test_rtt_samples_recorded(self, env, pair):
        src, _ = pair
        conn = src.stack.connect("maui", tag="t")
        conn.send("x", size=100)
        assert conn.last_rtt is None
        env.run()
        assert conn.last_rtt > 0

    def test_receive_charges_kernel_cpu(self, env, pair):
        """Delivery must consume CPU at the receiver — the perturbation
        mechanism behind Figures 4 and 8."""
        src, dst = pair
        src.stack.connect("maui", tag="t").send("x", size=KB(1))
        env.run(until=1.0)
        dst.cpu.settle()
        assert dst.cpu.busy_cpu_seconds > 0

    def test_bytes_out_rate_window(self, env, pair):
        src, dst = pair
        inbox = Inbox(dst.stack)
        conn = src.stack.connect("maui", tag="t")

        def proc():
            conn.send("x", size=mbps(10))  # 10 Mbit in ~0.1 s
            yield inbox.next()
            yield env.timeout(1.0)

        env.run(env.process(proc()))
        # A window spanning the whole run (the send was recorded at
        # t=0, and rate windows are half-open on the left) sees the
        # full 10 Mbit.
        window = env.now + 0.1
        assert src.stack.bytes_out.rate(env.now, window) \
            == pytest.approx(mbps(10) / window, rel=0.05)

    def test_one_bytes_out_sample_per_fan_out(self, env):
        cluster = build_cluster(env, nodes=4, seed=7)
        stack = cluster["alan"].stack
        conns = [stack.connect(name, tag="t")
                 for name in cluster.names if name != "alan"]
        stack.send_many(conns, "x", 100)
        assert list(stack.bytes_out) == [(0.0, 300.0)]


class TestBoundedHistories:
    def test_retained_samples_stop_growing(self, env, pair):
        """However long a stack sends, its sent-bytes trace retains
        fewer than 2 x DEVICE_HISTORY samples, and what NET_MON,
        PMC_MON and the power model read (``total``,
        ``rate(now, window)``, the last delay, the received-byte total)
        equals an untrimmed shadow's answer."""
        src, dst = pair
        conn = src.stack.connect("maui", tag="t")
        shadow = 4 * DEVICE_HISTORY
        sent, received = CounterTrace(shadow), CounterTrace(shadow)
        delays = []

        def on_message(msg):
            received.add(env.now, msg.size)
            delays.append(env.now - msg.sent_at)

        dst.stack.bind("t", on_message)

        def burst(n):
            for i in range(n):
                size = 100.0 + i % 7
                sent.add(env.now, size)
                conn.send(None, size=size)
                yield env.timeout(0.001)

        total = 0
        bytes_out = src.stack.bytes_out
        for n in (2 * DEVICE_HISTORY + 5, DEVICE_HISTORY):
            env.run(env.process(burst(n)))
            total += n
            assert total - bytes_out.dropped_samples < 2 * DEVICE_HISTORY
        assert len(delays) == total and sent.dropped_samples == 0
        assert bytes_out.total == sent.total
        for window in (1.0, 5.0):
            assert bytes_out.rate(env.now, window) \
                == sent.rate(env.now, window)
        assert dst.stack.bytes_received == received.total
        assert conn.last_delay == delays[-1]

    def test_fault_log_stays_bounded(self, env):
        """Three times FAULT_LOG_HISTORY executed faults leave fewer
        than twice the bound in the log, and what is left is the most
        recent actions, oldest first, still a list."""
        from repro.sim import FaultInjector
        from repro.sim.faults import FAULT_LOG_HISTORY
        injector = FaultInjector(build_cluster(env, nodes=2, seed=7))
        times = [0.001 * i for i in range(3 * FAULT_LOG_HISTORY)]
        for when in times:
            injector.schedule_loss(when, 0.0)
        env.run()
        log = injector.log
        assert isinstance(log, list)
        assert FAULT_LOG_HISTORY <= len(log) < 2 * FAULT_LOG_HISTORY
        assert [when for when, _ in log] == times[-len(log):]
        assert {text for _, text in log} == {"loss 0 on all links"}


class TestUdp:
    def test_udp_no_loss_on_idle_network(self, env, pair):
        src, dst = pair
        inbox = Inbox(dst.stack, "u")
        conn = src.stack.connect("maui", tag="u", proto=Protocol.UDP)
        lost = []

        def proc():
            for _ in range(20):
                conn.send("x", size=KB(1),
                          on_fail=lambda _payload, *fail: lost.append(fail))
                yield inbox.next()

        env.run(env.process(proc()))
        assert len(inbox.messages) == 20
        assert lost == []
        assert conn.losses.total == 0

    def test_udp_loss_under_saturation(self, env):
        cluster = build_cluster(env, nodes=3, seed=11)
        alan, maui = cluster["alan"], cluster["maui"]
        # Saturate maui's RX with a fixed flow from etna.
        cluster.fabric.open_fixed_flow("etna", "maui", mbps(100))
        inbox = Inbox(maui.stack, "u")
        conn = alan.stack.connect("maui", tag="u", proto=Protocol.UDP)
        lost = []

        def proc():
            for _ in range(200):
                conn.send("x", size=KB(1),
                          on_fail=lambda _payload, dst, reason:
                          lost.append(reason))
                yield env.timeout(0.01)

        env.run(env.process(proc()))
        env.run(until=env.now + 1.0)
        assert conn.losses.total == len(lost) > 0
        assert set(lost) == {"congestion"}
        # Every copy is delivered or reported lost, exactly once.
        assert len(inbox.messages) + len(lost) == 200

    def test_tcp_retransmissions_under_congestion(self, env):
        cluster = build_cluster(env, nodes=3, seed=13)
        alan = cluster["alan"]
        cluster.fabric.open_fixed_flow("etna", "maui", mbps(95))
        inbox = Inbox(cluster["maui"].stack)
        conn = alan.stack.connect("maui", tag="t", proto=Protocol.TCP)

        def proc():
            for _ in range(100):
                conn.send("x", size=KB(2))
                yield inbox.next()
                yield env.timeout(0.02)

        env.run(env.process(proc()))
        assert conn.retransmissions.total > 0


class TestPathConstants:
    """The round-trip time is a constant of the topology, computed once
    at ``connect``; a delivery reads it, bit for bit."""

    @staticmethod
    def _rtt_after_one_delivery(env, fabric, src, dst):
        conn = src.stack.connect(dst.name, tag="t")
        conn.send("x", size=100)
        env.run()
        expected = 2 * sum(l.latency for l in fabric.path(
            src.name, dst.name)) + fabric.switch_latency
        return conn.last_rtt, expected

    def test_rtt_on_the_switched_fabric(self, env, pair):
        src, dst = pair
        rtt, expected = self._rtt_after_one_delivery(
            env, src.stack.fabric, src, dst)
        assert rtt == expected


class TestFanOutCongestion:
    def test_fan_out_draws_what_single_sends_draw(self):
        """With the publisher's TX link at 95 % of capacity, a batched
        fan-out — congestion read once per link — draws the same
        per-target retransmissions as the same targets sent one at a
        time, each send alone on the wire."""
        rounds = 30

        def world():
            env = Environment()
            cluster = build_cluster(env, nodes=6, seed=17)
            names = cluster.names
            src = cluster[names[0]]
            # Standing traffic on the publisher's TX link (its sink is
            # not a target), and more on one target's RX link, so that
            # target's path is the more congested one.
            cluster.fabric.open_fixed_flow(names[0], names[-1],
                                           mbps(95))
            cluster.fabric.open_fixed_flow(names[-1], names[2],
                                           mbps(99))
            conns = [src.stack.connect(dst, tag="t")
                     for dst in names[1:-1]]
            inboxes = [Inbox(cluster[dst].stack) for dst in names[1:-1]]
            return env, src.stack, conns, inboxes

        env, stack, conns, inboxes = world()
        batched = []

        def fan_out():
            for _ in range(rounds):
                stack.send_many(conns, "x", KB(1))
                msgs = yield env.all_of(inbox.next() for inbox in inboxes)
                batched.extend(m.retransmissions for m in msgs.values())

        env.run(env.process(fan_out()))

        env, stack, conns, inboxes = world()
        single = []

        def one_at_a_time():
            for _ in range(rounds):
                for conn, inbox in zip(conns, inboxes):
                    conn.send("x", KB(1))
                    msg = yield inbox.next()
                    single.append(msg.retransmissions)

        env.run(env.process(one_at_a_time()))
        assert len(batched) == rounds * len(conns)
        assert batched == single
        assert any(batched)  # the link really was congested


class TestEventBudget:
    """A send schedules no event of the transport's own.  A fan-out of
    k delivered copies costs 3 events: the fabric's serialisation
    timer, one propagation timer and one arrival event for the copies
    that land at the same instant.  The receiving CPUs' kernel charges
    cost none.  A lost copy costs a call to its sender's ``on_fail``."""

    def test_fan_out_costs_three_events(self, env):
        cluster = build_cluster(env, nodes=6, seed=42)
        stack = cluster[cluster.names[0]].stack
        env.run()
        for k in (2, 5):
            targets = cluster.names[1:k + 1]
            conns = [stack.connect(dst, tag=f"t{k}") for dst in targets]
            before = env.events_processed
            received = [cluster[dst].stack.bytes_received
                        for dst in targets]
            stack.send_many(conns, "x", 100)
            env.run()
            assert [cluster[dst].stack.bytes_received - r
                    for dst, r in zip(targets, received)] == [100] * k
            assert env.events_processed - before == 3

    def test_group_arrival_keeps_same_instant_order(self, env, cluster3):
        """A timeout created after the reallocation that finishes a
        fan-out, landing on exactly the delivery instant, runs before
        the receivers' handlers — where it ran when every copy had a
        completion event of its own — because the group is delivered
        from a zero-delay arrival event, not from its propagation
        timer."""
        fabric = cluster3.fabric
        stack = cluster3["alan"].stack
        targets = ["maui", "etna"]
        order = []
        for dst in targets:
            cluster3[dst].stack.bind(
                "t", lambda m: order.append((m.dst, env.now)))
        conns = [stack.connect(dst, tag="t") for dst in targets]
        env.run()
        stack.send_many(conns, "x", 100)
        while fabric.flows_through(fabric.hosts["alan"].tx):
            env.step()
        # The fan-out's flows have just finished, at this instant.
        latency = sum(link.latency for link in fabric.path(
            "alan", "maui")) + fabric.switch_latency
        env.timeout(latency).add_callback(
            lambda _ev: order.append(("timer", env.now)))
        env.run()
        assert [who for who, _ in order] == ["timer", "maui", "etna"]
        assert len({when for _, when in order}) == 1

    def test_send_time_drop_costs_no_event(self, env, cluster3):
        from repro.sim import FaultInjector
        FaultInjector(cluster3).partition(["alan"], ["maui"])
        env.run()
        before = env.events_processed
        lost = []
        cluster3["alan"].stack.connect("maui", tag="t").send(
            "x", size=100,
            on_fail=lambda _payload, *fail: lost.append(fail))
        assert lost == [("maui", "partition")]
        env.run()
        assert env.events_processed == before
        assert lost == [("maui", "partition")]

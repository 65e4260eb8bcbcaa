"""Fault-injection subsystem: plane semantics, transport integration,
scheduling, and determinism."""

from __future__ import annotations

import pytest

from repro.errors import FaultInjectionError
from repro.sim import Environment, FaultInjector, build_cluster
from repro.sim.faults import FaultPlane


@pytest.fixture
def injector(cluster3):
    return FaultInjector(cluster3)


def send(cluster, src, dst, size=1000.0, tag="t"):
    """Open a connection and send one message; returns the probe
    :func:`outcome` reads: the sender's ``net.delivered`` count before
    the send, and the list its ``on_fail`` reports land in."""
    node = cluster[src]
    before = node.telemetry.value("net.delivered")
    lost: list[str] = []
    conn = node.stack.connect(dst, tag=tag)
    conn.send({"x": 1}, size,
              on_fail=lambda _payload, _dst, reason:
              lost.append(reason))
    return node, before, lost


def outcome(env, probe):
    """Run to quiescence; returns 'delivered' or 'lost' — each copy is
    reported exactly once, one way or the other."""
    node, before, lost = probe
    env.run()
    delivered = node.telemetry.value("net.delivered") - before
    assert delivered + len(lost) == 1
    return "delivered" if delivered else "lost"


class TestFaultPlane:
    def test_inactive_by_default(self):
        assert not FaultPlane().active

    def test_bad_probability_rejected(self):
        plane = FaultPlane()
        with pytest.raises(FaultInjectionError, match="probability"):
            plane.set_loss(1.5)
        with pytest.raises(FaultInjectionError):
            plane.set_loss(-0.1)
        with pytest.raises(FaultInjectionError):
            plane.set_link_loss("alan:tx", 2.0)

    def test_pair_loss_needs_both_ends(self):
        plane = FaultPlane()
        with pytest.raises(FaultInjectionError, match="both src and dst"):
            plane.set_loss(0.5, src="alan")

    def test_loss_probabilities_compose(self):
        plane = FaultPlane()
        plane.set_loss(0.5)
        plane.set_loss(0.5, src="a", dst="b")
        assert plane.loss_probability("a", "b") == pytest.approx(0.75)
        # Other pairs only see the global rule.
        assert plane.loss_probability("a", "c") == pytest.approx(0.5)

    def test_partition_blocks_cross_group_only(self):
        plane = FaultPlane()
        plane.set_partition([("a", "b"), ("c",)])
        assert plane.partitioned("a", "c")
        assert plane.partitioned("c", "b")
        assert not plane.partitioned("a", "b")
        # A host in no group keeps full connectivity.
        assert not plane.partitioned("a", "z")
        plane.heal_partition()
        assert not plane.partitioned("a", "c")

    def test_host_in_two_groups_rejected(self):
        plane = FaultPlane()
        with pytest.raises(FaultInjectionError, match="two partition"):
            plane.set_partition([("a", "b"), ("b", "c")])

    def test_down_host_blocks_both_directions(self):
        plane = FaultPlane()
        plane.mark_down("a")
        assert plane.blocked("a", "b")
        assert plane.blocked("b", "a")
        plane.mark_up("a")
        assert not plane.blocked("a", "b")

    def test_negative_stall_rejected(self):
        with pytest.raises(FaultInjectionError, match="non-negative"):
            FaultPlane().set_stall(-1.0)


class TestTransportIntegration:
    def test_partition_drops_message(self, env, cluster3, injector):
        injector.partition(["alan"], ["maui", "etna"])
        probe = send(cluster3, "alan", "maui")
        assert outcome(env, probe) == "lost"
        # Within a group traffic still flows.
        probe = send(cluster3, "maui", "etna")
        assert outcome(env, probe) == "delivered"

    def test_heal_restores_traffic(self, env, cluster3, injector):
        injector.partition(["alan"], ["maui", "etna"])
        injector.heal()
        probe = send(cluster3, "alan", "maui")
        assert outcome(env, probe) == "delivered"

    def test_certain_loss_drops_message(self, env, cluster3, injector):
        injector.plane.set_loss(1.0)
        probe = send(cluster3, "alan", "maui")
        assert outcome(env, probe) == "lost"
        injector.plane.clear_loss()
        probe = send(cluster3, "alan", "maui")
        assert outcome(env, probe) == "delivered"

    def test_link_loss_hits_only_that_link(self, env, cluster3, injector):
        injector.set_link_loss("alan:tx", 1.0)
        assert outcome(env, send(cluster3, "alan", "maui")) == "lost"
        assert outcome(env, send(cluster3, "maui", "etna")) == "delivered"

    def test_crash_blocks_send_and_receive(self, env, cluster3, injector):
        injector.crash("maui")
        assert outcome(env, send(cluster3, "alan", "maui")) == "lost"
        assert outcome(env, send(cluster3, "maui", "etna")) == "lost"
        injector.reboot("maui")
        assert outcome(env, send(cluster3, "alan", "maui")) == "delivered"

    def test_loss_counted_on_connection(self, env, cluster3, injector):
        injector.plane.set_loss(1.0)
        conn = cluster3["alan"].stack.connect("maui", tag="t")
        lost = []
        conn.send("x", 500.0,
                  on_fail=lambda _payload, *fail: lost.append(fail))
        env.run()
        assert conn.losses.total == 1.0
        assert lost == [("maui", "injected loss")]

    def test_stall_delays_delivery(self, env, cluster3, injector):
        got = []
        cluster3["maui"].stack.bind("t", lambda m: got.append(env.now))
        injector.set_stall(2.0)
        probe = send(cluster3, "alan", "maui")
        assert outcome(env, probe) == "delivered"
        (t_stalled,) = got
        # Wire time for 1000 bytes is well under 10 ms; the delivery
        # must carry the full 2 s stall on top.
        assert 2.0 < t_stalled < 2.01

    def test_partition_landing_mid_flight_kills_message(
            self, env, cluster3, injector):
        # 1 MB at 100 Mbps takes ~0.08 s; partition lands at 0.01 s.
        probe = send(cluster3, "alan", "maui", size=1e6)
        injector.at(0.01, lambda: injector.partition(["alan"],
                                                     ["maui"]))
        assert outcome(env, probe) == "lost"
        assert probe[2] == ["partition"]

    def test_no_faults_no_interference(self, env, cluster3, injector):
        """An attached but empty plane leaves the data path untouched."""
        probe = send(cluster3, "alan", "maui")
        assert outcome(env, probe) == "delivered"


class TestInjectorScheduling:
    def test_actions_are_logged_with_sim_time(self, env, cluster3,
                                              injector):
        injector.schedule_loss(1.0, 0.25, until=2.0)
        injector.schedule_crash(1.5, "etna", reboot_at=3.0)
        env.run(until=5.0)
        assert injector.log == [
            (1.0, "loss 0.25 on all links"),
            (1.5, "crash etna"),
            (2.0, "loss 0 on all links"),
            (3.0, "reboot etna"),
        ]

    def test_one_plane_one_timer_per_scheduled_fault(self, env, cluster3,
                                                     injector):
        """One cluster, one plane; a scheduled fault costs the kernel
        exactly one timer event (the chaos goldens pin the count)."""
        assert cluster3.fabric.faults is injector.plane
        with pytest.raises(TypeError):
            FaultInjector(cluster3, cluster3)
        before = env.events_processed
        env.run(until=4.0)
        idle = env.events_processed - before
        injector.schedule_loss(5.0, 0.1)
        injector.schedule_crash(6.0, "maui", reboot_at=7.0)
        before = env.events_processed
        env.run(until=8.0)
        assert env.events_processed - before == idle + 3

    def test_past_schedule_rejected(self, env, cluster3, injector):
        env.run(until=2.0)
        with pytest.raises(FaultInjectionError, match="cannot schedule"):
            injector.at(1.0, lambda: None)

    def test_bad_windows_rejected(self, cluster3, injector):
        with pytest.raises(FaultInjectionError):
            injector.schedule_loss(2.0, 0.5, until=1.0)
        with pytest.raises(FaultInjectionError):
            injector.schedule_partition(2.0, [["alan"]], heal_at=2.0)
        with pytest.raises(FaultInjectionError):
            injector.schedule_crash(2.0, "alan", reboot_at=1.0)

    def test_unknown_host_rejected(self, cluster3, injector):
        for fault in (
                lambda: injector.crash("zeus"),
                lambda: injector.partition(["alan"], ["zeus"]),
                # Scheduled faults are checked at the call, not when
                # the timer fires inside env.run.
                lambda: injector.schedule_crash(1.0, "zeus"),
                lambda: injector.schedule_partition(
                    1.0, [["alan"], ["zeus"]])):
            with pytest.raises(FaultInjectionError,
                               match="unknown host"):
                fault()

    def test_crash_and_reboot_handlers_fire(self, env, cluster3,
                                            injector):
        calls = []
        injector.on_crash(lambda h: calls.append(("crash", h, env.now)))
        injector.on_reboot(lambda h: calls.append(("boot", h, env.now)))
        injector.schedule_crash(1.0, "maui", reboot_at=2.0)
        env.run(until=3.0)
        assert calls == [("crash", "maui", 1.0), ("boot", "maui", 2.0)]


class TestDeterminism:
    @staticmethod
    def _lossy_run(seed: int) -> list[int]:
        """Delivered message ids of 50 sends under 30 % loss."""
        env = Environment()
        cluster = build_cluster(env, nodes=3, seed=seed)
        injector = FaultInjector(cluster)
        injector.plane.set_loss(0.3)
        delivered: list[int] = []
        conn = cluster["alan"].stack.connect("maui", tag="t")

        cluster["maui"].stack.bind(
            "t", lambda msg: delivered.append(msg.payload))

        def sender():
            for i in range(50):
                conn.send(i, 200.0)
                yield env.timeout(0.05)

        env.process(sender())
        env.run(until=10.0)
        return delivered

    def test_same_seed_same_drops(self):
        a = self._lossy_run(seed=11)
        b = self._lossy_run(seed=11)
        assert a == b
        assert 0 < len(a) < 50  # the loss rule actually bites

    def test_different_seed_different_drops(self):
        assert self._lossy_run(seed=11) != self._lossy_run(seed=12)

    def test_empty_plane_preserves_rng_stream(self):
        """Attaching an injector without rules must not consume RNG
        draws — pre-existing seeded runs stay bit-identical."""

        def run(with_injector: bool) -> list[float]:
            env = Environment()
            cluster = build_cluster(env, nodes=3, seed=42)
            if with_injector:
                FaultInjector(cluster)
            conn = cluster["alan"].stack.connect("maui", tag="t")
            for _ in range(5):
                conn.send("x", 300.0)
            env.run()
            return [cluster[n].rng.random() for n in cluster.names]

        assert run(with_injector=False) == run(with_injector=True)

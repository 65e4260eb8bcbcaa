"""Unit tests for the switched fabric."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError, RoutingError
from repro.sim import Environment, Fabric
from repro.units import mbps, to_mbps
from tests.conftest import history_bytes


@pytest.fixture
def fabric(env):
    f = Fabric(env)
    f.add_host("a")
    f.add_host("b")
    f.add_host("c")
    return f


class TestTopology:
    def test_duplicate_host_rejected(self, fabric):
        with pytest.raises(NetworkError):
            fabric.add_host("a")

    def test_path_uses_tx_and_rx(self, fabric):
        path = fabric.path("a", "b")
        assert [l.name for l in path] == ["a:tx", "b:rx"]

    def test_self_path_rejected(self, fabric):
        with pytest.raises(RoutingError):
            fabric.path("a", "a")

    def test_unknown_host_rejected(self, fabric):
        with pytest.raises(RoutingError):
            fabric.path("a", "zz")

    def test_segment_on_path(self, env):
        f = Fabric(env)
        seg = f.add_segment("backbone")
        f.add_host("x", segment=seg)
        f.add_host("y", segment=seg)
        names = [l.name for l in f.path("x", "y")]
        assert names == ["x:tx", "seg:backbone", "y:rx"]

    def test_segment_crossed_once_between_different_segments(self, env):
        f = Fabric(env)
        s1 = f.add_segment("s1")
        s2 = f.add_segment("s2")
        f.add_host("x", segment=s1)
        f.add_host("y", segment=s2)
        names = [l.name for l in f.path("x", "y")]
        assert names == ["x:tx", "seg:s1", "seg:s2", "y:rx"]

    def test_segment_by_name(self, env):
        f = Fabric(env)
        f.add_segment("shared")
        port = f.add_host("x", segment="shared")
        assert port.segment.name == "shared"

    def test_unknown_segment_rejected(self, env):
        f = Fabric(env)
        with pytest.raises(RoutingError):
            f.add_host("x", segment="nope")

    def test_duplicate_segment_rejected(self, env):
        f = Fabric(env)
        f.add_segment("s")
        with pytest.raises(NetworkError):
            f.add_segment("s")


class TestTransfers:
    def test_transfer_time_at_line_rate(self, env, fabric):
        nbytes = mbps(100) * 2.0  # 2 seconds at line rate
        done = env.event()
        fabric.transfer("a", "b", nbytes, on_done=done.succeed)
        env.run(done)
        latency = 2 * fabric.access_latency + fabric.switch_latency
        assert env.now == pytest.approx(2.0 + latency)

    def test_zero_size_rejected(self, fabric):
        with pytest.raises(NetworkError):
            fabric.transfer("a", "b", 0, on_done=lambda _flow: None)

    def test_concurrent_transfers_same_tx_share(self, env, fabric):
        nbytes = mbps(100) * 1.0
        d1, d2 = env.event(), env.event()
        fabric.transfer("a", "b", nbytes, on_done=d1.succeed)
        fabric.transfer("a", "c", nbytes, on_done=d2.succeed)
        env.run(env.all_of([d1, d2]))
        # Both shared a's TX at 50 Mbps -> 2 s (+latency).
        assert env.now == pytest.approx(2.0, abs=0.01)

    def test_disjoint_transfers_dont_interact(self, env, fabric):
        nbytes = mbps(100) * 1.0
        d1, d2 = env.event(), env.event()
        fabric.transfer("a", "b", nbytes, on_done=d1.succeed)
        fabric.transfer("c", "b", nbytes, on_done=d2.succeed)
        # Shared bottleneck is b's RX -> 2 s, but a TX and c TX alone.
        env.run(env.all_of([d1, d2]))
        assert env.now == pytest.approx(2.0, abs=0.01)

    def test_staggered_transfer_rates(self, env, fabric):
        done_at = {}
        d1 = env.event()
        fabric.transfer("a", "b", mbps(100) * 2.0, on_done=d1.succeed)
        d1.add_callback(lambda _e: done_at.setdefault("h1", env.now))

        def second():
            yield env.timeout(1.0)
            d2 = env.event()
            fabric.transfer("a", "b", mbps(100) * 0.5, on_done=d2.succeed)
            yield d2
            done_at["h2"] = env.now

        env.process(second())
        env.run()
        # h1 alone 1 s (half done), then shares 50/50: h2's 0.5 s of
        # line-rate data takes 1 s -> finishes ~2 s; h1 has 0.5 line-
        # seconds left at t=2 -> done ~2.5 s.
        assert done_at["h2"] == pytest.approx(2.0, abs=0.01)
        assert done_at["h1"] == pytest.approx(2.5, abs=0.01)


class TestFixedFlows:
    def test_fixed_flow_consumes_bandwidth(self, env, fabric):
        handle = fabric.open_fixed_flow("a", "b", mbps(70))
        env.run(until=1.0)
        assert to_mbps(handle.rate) == pytest.approx(70.0)
        avail = fabric.available_bandwidth("a", "b")
        assert to_mbps(avail) == pytest.approx(30.0)
        handle.close()

    def test_transfer_squeezed_by_fixed_flow(self, env, fabric):
        fabric.open_fixed_flow("a", "b", mbps(80))
        done = env.event()
        fabric.transfer("a", "b", mbps(20) * 1.0, on_done=done.succeed)
        env.run(done)
        assert env.now == pytest.approx(1.0, abs=0.02)

    def test_close_restores_capacity(self, env, fabric):
        handle = fabric.open_fixed_flow("a", "b", mbps(90))
        env.run(until=1.0)
        handle.close()
        assert to_mbps(fabric.available_bandwidth("a", "b")) \
            == pytest.approx(100.0)

    def test_close_idempotent(self, env, fabric):
        handle = fabric.open_fixed_flow("a", "b", mbps(10))
        handle.close()
        handle.close()

    def test_loss_under_overload(self, env, fabric):
        handle = fabric.open_fixed_flow("a", "b", mbps(150))
        env.run(until=1.0)
        assert handle.loss_fraction == pytest.approx(1 / 3, rel=1e-3)
        assert handle.flow.lost_bytes > 0
        assert fabric.hosts["a"].tx.dropped_bytes \
            == pytest.approx(handle.flow.lost_bytes)

    def test_link_counters_accumulate(self, env, fabric):
        fabric.open_fixed_flow("a", "b", mbps(50))
        env.run(until=2.0)
        fabric._settle()
        tx = fabric.hosts["a"].tx
        assert tx.carried_bytes == pytest.approx(mbps(50) * 2.0, rel=0.01)

    def test_transfer_churn_retains_no_history(self):
        """A link keeps two byte totals, not a sample per settle:
        2,000 small transfers retain what 200 do."""
        def device():
            env = Environment()
            f = Fabric(env)
            f.add_host("a")
            f.add_host("b")

            def transfers(n: int):
                for _ in range(n):
                    done = env.event()
                    f.transfer("a", "b", 512.0, on_done=done.succeed)
                    yield done

            return lambda n: env.run(env.process(transfers(n)))

        assert history_bytes(device) < 16 * 1024


class TestSharedSegmentContention:
    def test_cross_traffic_on_segment_slows_stream(self, env):
        """The Fig 10 topology: iperf pair shares a segment with the
        server->client stream."""
        f = Fabric(env)
        seg = f.add_segment("shared")
        for h in ("server", "client", "iperf1", "iperf2"):
            f.add_host(h, segment=seg)
        f.open_fixed_flow("iperf1", "iperf2", mbps(80))
        done = env.event()
        f.transfer("server", "client", mbps(20) * 1.0, on_done=done.succeed)
        env.run(done)
        assert env.now == pytest.approx(1.0, abs=0.02)

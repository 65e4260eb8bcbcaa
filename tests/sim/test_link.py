"""Unit tests for the fluid link model and the max-min allocator."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.sim.link import (ELASTIC_FLOOR_FRACTION, Flow, FlowKind, Link,
                            allocate_rates, settle_flows)
from repro.units import mbps


def make_link(cap_mbps=100.0, name="l"):
    return Link(name, mbps(cap_mbps))


class TestLink:
    def test_capacity_validation(self):
        with pytest.raises(NetworkError):
            Link("bad", 0.0)
        with pytest.raises(NetworkError):
            Link("bad", 10.0, latency=-1)


class TestFlowValidation:
    def test_empty_path_rejected(self):
        with pytest.raises(NetworkError):
            Flow(path=(), kind=FlowKind.FIXED, demand=1.0)

    def test_fixed_needs_demand(self):
        with pytest.raises(NetworkError):
            Flow(path=(make_link(),), kind=FlowKind.FIXED, demand=0.0)

    def test_elastic_needs_bytes(self):
        with pytest.raises(NetworkError):
            Flow(path=(make_link(),), kind=FlowKind.ELASTIC, remaining=0.0)


class TestFixedAllocation:
    def test_underloaded_fixed_gets_demand(self):
        link = make_link(100)
        f = Flow(path=(link,), kind=FlowKind.FIXED, demand=mbps(30))
        allocate_rates([f])
        assert f.rate == pytest.approx(mbps(30))
        assert f.loss_fraction == 0.0

    def test_overloaded_fixed_scaled_proportionally(self):
        link = make_link(100)
        a = Flow(path=(link,), kind=FlowKind.FIXED, demand=mbps(80))
        b = Flow(path=(link,), kind=FlowKind.FIXED, demand=mbps(40))
        allocate_rates([a, b])
        total = a.rate + b.rate
        assert total == pytest.approx(mbps(100), rel=1e-6)
        assert a.rate / b.rate == pytest.approx(2.0, rel=1e-6)
        assert a.loss_fraction == pytest.approx(1 / 6, rel=1e-3)

    def test_multi_link_bottleneck(self):
        wide, narrow = make_link(100, "wide"), make_link(10, "narrow")
        f = Flow(path=(wide, narrow), kind=FlowKind.FIXED, demand=mbps(50))
        allocate_rates([f])
        assert f.rate == pytest.approx(mbps(10))


class TestElasticAllocation:
    def test_single_elastic_gets_full_capacity(self):
        link = make_link(100)
        f = Flow(path=(link,), kind=FlowKind.ELASTIC, remaining=1e6)
        allocate_rates([f])
        assert f.rate == pytest.approx(mbps(100))

    def test_two_elastic_share_equally(self):
        link = make_link(100)
        a = Flow(path=(link,), kind=FlowKind.ELASTIC, remaining=1e6)
        b = Flow(path=(link,), kind=FlowKind.ELASTIC, remaining=1e6)
        allocate_rates([a, b])
        assert a.rate == pytest.approx(mbps(50))
        assert b.rate == pytest.approx(mbps(50))

    def test_elastic_yields_to_fixed(self):
        link = make_link(100)
        udp = Flow(path=(link,), kind=FlowKind.FIXED, demand=mbps(70))
        tcp = Flow(path=(link,), kind=FlowKind.ELASTIC, remaining=1e6)
        allocate_rates([udp, tcp])
        assert udp.rate == pytest.approx(mbps(70))
        assert tcp.rate == pytest.approx(mbps(30))

    def test_elastic_floor_under_total_overload(self):
        link = make_link(100)
        udp = Flow(path=(link,), kind=FlowKind.FIXED, demand=mbps(200))
        tcp = Flow(path=(link,), kind=FlowKind.ELASTIC, remaining=1e6)
        allocate_rates([udp, tcp])
        assert tcp.rate == pytest.approx(
            ELASTIC_FLOOR_FRACTION * mbps(100))

    def test_max_min_fairness_across_bottlenecks(self):
        """Classic water-filling: flow through the narrow link is capped
        at its share there; the other flow picks up the slack."""
        l1, l2 = make_link(100, "l1"), make_link(30, "l2")
        # f1 uses both links; f2 only the wide one.
        f1 = Flow(path=(l1, l2), kind=FlowKind.ELASTIC, remaining=1e9)
        f2 = Flow(path=(l1,), kind=FlowKind.ELASTIC, remaining=1e9)
        allocate_rates([f1, f2])
        assert f1.rate == pytest.approx(mbps(30))
        assert f2.rate == pytest.approx(mbps(70))

    def test_shared_bottleneck_three_flows(self):
        link = make_link(90)
        flows = [Flow(path=(link,), kind=FlowKind.ELASTIC, remaining=1e6)
                 for _ in range(3)]
        allocate_rates(flows)
        for f in flows:
            assert f.rate == pytest.approx(mbps(30))

    def test_no_link_oversubscription(self):
        """Property: allocated rates never exceed any link capacity."""
        l1, l2, l3 = (make_link(c, f"l{c}") for c in (100, 40, 10))
        flows = [
            Flow(path=(l1, l2), kind=FlowKind.FIXED, demand=mbps(35)),
            Flow(path=(l2, l3), kind=FlowKind.FIXED, demand=mbps(20)),
            Flow(path=(l1,), kind=FlowKind.ELASTIC, remaining=1e6),
            Flow(path=(l1, l2, l3), kind=FlowKind.ELASTIC, remaining=1e6),
            Flow(path=(l3,), kind=FlowKind.ELASTIC, remaining=1e6),
        ]
        allocate_rates(flows)
        for link in (l1, l2, l3):
            used = sum(f.rate for f in flows if link in f.path
                       and f.kind is FlowKind.FIXED)
            used += sum(min(f.rate, link.capacity) for f in flows
                        if link in f.path and f.kind is FlowKind.ELASTIC)
            # Floor rates may push epsilon over; allow the floor margin.
            assert used <= link.capacity * (1 + 2 * ELASTIC_FLOOR_FRACTION)


class TestSettle:
    def test_elastic_progress(self):
        link = make_link(100)
        f = Flow(path=(link,), kind=FlowKind.ELASTIC, remaining=mbps(100))
        allocate_rates([f])
        settle_flows([f], 0.5)
        assert f.remaining == pytest.approx(mbps(100) * 0.5)
        assert f.carried_bytes == pytest.approx(mbps(100) * 0.5)

    def test_fixed_loss_accounting(self):
        link = make_link(100)
        f = Flow(path=(link,), kind=FlowKind.FIXED, demand=mbps(200))
        allocate_rates([f])
        settle_flows([f], 1.0)
        assert f.carried_bytes == pytest.approx(mbps(100))
        assert f.lost_bytes == pytest.approx(mbps(100))

    def test_negative_dt_rejected(self):
        with pytest.raises(NetworkError):
            settle_flows([], -1.0)

    def test_settle_does_not_overdraw(self):
        link = make_link(100)
        f = Flow(path=(link,), kind=FlowKind.ELASTIC, remaining=100.0)
        allocate_rates([f])
        settle_flows([f], 1e6)
        assert f.remaining == 0.0
        assert f.carried_bytes == pytest.approx(100.0)

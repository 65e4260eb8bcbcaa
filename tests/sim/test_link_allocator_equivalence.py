"""Equivalence: incremental allocator vs. the reference implementation.

``allocate_rates`` was rewritten for scalability (persistent per-link
flow index, touched-links-only recomputation).  The original allocator
lives here as ``allocate_rates_reference``; these tests assert the two
agree — exactly, not approximately — across hundreds of randomized
topologies and the edge cases that drove the original design (elastic
floor, multi-bottleneck water-filling, fixed-flow scaling on shared
oversubscribed links).
"""

from __future__ import annotations

import random
from typing import Iterable

import pytest

from repro.errors import NetworkError
from repro.sim.link import (ELASTIC_FLOOR_FRACTION, Flow, FlowIndex,
                            FlowKind, Link, allocate_rates)


def allocate_rates_reference(flows: Iterable[Flow]) -> None:
    """The pre-optimisation allocator, kept as the behavioural oracle.

    This is the original O(iterations × flows × path) implementation,
    verbatim; the tests below assert that :func:`allocate_rates`
    matches it on randomized topologies.
    """
    flows = list(flows)
    fixed = [f for f in flows if f.kind is FlowKind.FIXED]
    elastic = [f for f in flows if f.kind is FlowKind.ELASTIC]

    # -- stage 1: fixed flows ------------------------------------------------
    for f in fixed:
        f.rate = f.demand
    for _ in range(64):  # iterative proportional scaling
        load: dict[int, float] = {}
        by_link: dict[int, list[Flow]] = {}
        caps: dict[int, float] = {}
        for f in fixed:
            for link in f.path:
                load[link.lid] = load.get(link.lid, 0.0) + f.rate
                by_link.setdefault(link.lid, []).append(f)
                caps[link.lid] = link.capacity
        # Scale the single most-oversubscribed link, then re-derive the
        # load map — scaling several links in one pass would shrink a
        # flow once per link it crosses instead of once overall.
        worst_lid, worst_ratio = None, 1.0 + 1e-12
        for lid, total in load.items():
            ratio = total / caps[lid]
            if ratio > worst_ratio:
                worst_lid, worst_ratio = lid, ratio
        if worst_lid is None:
            break
        for f in by_link[worst_lid]:
            f.rate /= worst_ratio

    # -- stage 2: elastic flows on the residual -----------------------------
    residual: dict[int, float] = {}
    count: dict[int, int] = {}
    links: dict[int, Link] = {}
    for f in flows:
        for link in f.path:
            links[link.lid] = link
            residual.setdefault(link.lid, link.capacity)
            count.setdefault(link.lid, 0)
    for f in fixed:
        for link in f.path:
            residual[link.lid] = max(0.0, residual[link.lid] - f.rate)
    for f in elastic:
        for link in f.path:
            count[link.lid] += 1

    active = set(f.fid for f in elastic)
    by_fid = {f.fid: f for f in elastic}
    while active:
        # Equal share offered by each link to its remaining elastic flows.
        shares = {lid: residual[lid] / count[lid]
                  for lid in residual if count.get(lid, 0) > 0}
        if not shares:
            break
        bottleneck = min(shares, key=lambda lid: shares[lid])
        share = shares[bottleneck]
        frozen = [fid for fid in active
                  if any(l.lid == bottleneck for l in by_fid[fid].path)]
        if not frozen:  # pragma: no cover - defensive
            break
        for fid in frozen:
            flow = by_fid[fid]
            floor = ELASTIC_FLOOR_FRACTION * min(
                l.capacity for l in flow.path)
            flow.rate = max(share, floor)
            active.discard(fid)
            for link in flow.path:
                residual[link.lid] = max(
                    0.0, residual[link.lid] - share)
                count[link.lid] -= 1


def _random_links(rng: random.Random) -> list[Link]:
    n_links = rng.randint(2, 7)
    return [Link(f"l{i}", capacity=rng.uniform(1e5, 1.25e7),
                 latency=rng.uniform(0.0, 1e-3))
            for i in range(n_links)]


def _random_flow(rng: random.Random, links: list[Link],
                 name: str) -> Flow:
    path = tuple(rng.sample(links, rng.randint(1, min(4, len(links)))))
    if rng.random() < 0.5:
        # Demands range from trickles to 2.5x the tightest link, so a
        # good fraction of scenarios exercise proportional scaling.
        demand = rng.uniform(0.05, 2.5) * min(l.capacity for l in path)
        return Flow(path=path, kind=FlowKind.FIXED, demand=demand,
                    name=name)
    return Flow(path=path, kind=FlowKind.ELASTIC,
                remaining=rng.uniform(1e3, 1e8), name=name)


def _check_equivalent(flows: list[Flow], context: str,
                      index: FlowIndex | None = None) -> None:
    allocate_rates(flows, index=index)
    got = [f.rate for f in flows]
    allocate_rates_reference(flows)
    expected = [f.rate for f in flows]
    assert got == expected, context
    for f, rate in zip(flows, got):
        assert rate >= 0.0, context
        if f.kind is FlowKind.FIXED:
            assert rate <= f.demand * (1 + 1e-9), context


class TestRandomizedEquivalence:
    def test_randomized_flow_sets(self):
        """250 independent scenarios, each checked for exact agreement."""
        rng = random.Random(0xD19C)
        for case in range(250):
            links = _random_links(rng)
            flows = [_random_flow(rng, links, f"flow{i}")
                     for i in range(rng.randint(1, 12))]
            _check_equivalent(flows, f"case {case}")

    def test_incremental_index_across_churn(self):
        """The Fabric's usage pattern: one long-lived index, flows
        added and removed between reallocations.

        Bit-exact agreement holds for the ordering the index itself
        enumerates (``index.flows()``) — the order a Fabric would
        present, since it drives both sides from the same bookkeeping.
        """
        rng = random.Random(0xFAB)
        for case in range(25):
            links = _random_links(rng)
            index = FlowIndex()
            for round_no in range(12):
                live = index.flows()
                for flow in rng.sample(
                        live, rng.randint(0, min(3, len(live)))):
                    index.remove(flow)
                for i in range(rng.randint(0, 4)):
                    index.add(_random_flow(rng, links,
                                           f"c{case}r{round_no}f{i}"))
                if len(index):
                    _check_equivalent(index.flows(),
                                      f"case {case} round {round_no}",
                                      index=index)


class TestEdgeCases:
    def test_elastic_floor_under_fixed_overload(self):
        """A saturating fixed flow cannot squeeze elastic below the floor."""
        link = Link("l", capacity=1e6)
        fixed = Flow(path=(link,), kind=FlowKind.FIXED, demand=2e6)
        elastic = Flow(path=(link,), kind=FlowKind.ELASTIC,
                       remaining=1e6)
        flows = [fixed, elastic]
        allocate_rates(flows)
        assert fixed.rate == pytest.approx(1e6)
        assert elastic.rate == pytest.approx(
            ELASTIC_FLOOR_FRACTION * 1e6)
        _check_equivalent(flows, "elastic floor")

    def test_multi_bottleneck_water_filling(self):
        """A flow frozen at a narrow link releases share on wide links."""
        narrow = Link("narrow", capacity=1e6)
        wide = Link("wide", capacity=10e6)
        through = Flow(path=(narrow, wide), kind=FlowKind.ELASTIC,
                       remaining=1e9, name="through")
        local = Flow(path=(wide,), kind=FlowKind.ELASTIC,
                     remaining=1e9, name="local")
        flows = [through, local]
        allocate_rates(flows)
        assert through.rate == pytest.approx(1e6)
        assert local.rate == pytest.approx(9e6)
        _check_equivalent(flows, "water filling")

    def test_fixed_scaling_on_shared_oversubscribed_link(self):
        """Flows crossing an oversubscribed link scale proportionally,
        and the scaling relieves the links they also cross."""
        a = Link("a", capacity=1e6)
        b = Link("b", capacity=1e6)
        f1 = Flow(path=(a,), kind=FlowKind.FIXED, demand=1.5e6)
        f2 = Flow(path=(a, b), kind=FlowKind.FIXED, demand=1.5e6)
        f3 = Flow(path=(b,), kind=FlowKind.FIXED, demand=0.25e6)
        flows = [f1, f2, f3]
        allocate_rates(flows)
        # Link a (3x oversubscribed) scales f1 and f2 to 0.5 MB/s each;
        # that leaves link b at 0.75 MB/s, under capacity, so f3 keeps
        # its full demand.
        assert f1.rate == pytest.approx(0.5e6)
        assert f2.rate == pytest.approx(0.5e6)
        assert f3.rate == pytest.approx(0.25e6)
        _check_equivalent(flows, "fixed scaling")

    def test_empty_flow_set_is_a_noop(self):
        allocate_rates([])
        allocate_rates_reference([])


class TestFlowIndex:
    def test_add_remove_round_trip(self):
        link = Link("l", capacity=1e6)
        flow = Flow(path=(link,), kind=FlowKind.ELASTIC, remaining=1.0)
        index = FlowIndex()
        index.add(flow)
        assert len(index) == 1
        assert index.flows_on(link) == [flow]
        index.remove(flow)
        assert len(index) == 0
        assert index.flows_on(link) == []

    def test_double_add_rejected(self):
        link = Link("l", capacity=1e6)
        flow = Flow(path=(link,), kind=FlowKind.FIXED, demand=1.0)
        index = FlowIndex([flow])
        with pytest.raises(NetworkError):
            index.add(flow)

    def test_remove_unknown_rejected(self):
        link = Link("l", capacity=1e6)
        flow = Flow(path=(link,), kind=FlowKind.FIXED, demand=1.0)
        with pytest.raises(NetworkError):
            FlowIndex().remove(flow)

    def test_aggregates_match_flow_state(self):
        a = Link("a", capacity=1e6)
        b = Link("b", capacity=2e6)
        fixed = Flow(path=(a, b), kind=FlowKind.FIXED, demand=3e5)
        elastic = Flow(path=(b,), kind=FlowKind.ELASTIC, remaining=1e6)
        index = FlowIndex([fixed, elastic])
        allocate_rates(index.flows(), index=index)
        assert index.offered_on(a) == pytest.approx(3e5)
        assert index.allocated_on(b) == pytest.approx(
            fixed.rate + elastic.rate)

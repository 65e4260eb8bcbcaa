"""Both backends structurally satisfy the runtime protocol."""

from __future__ import annotations

import pytest

from repro.live.runtime import LiveRuntime
from repro.runtime.protocol import (Bus, Clock, NodeGroup, Runtime,
                                    RuntimeNode, Transport)
from repro.runtime.sim import SimRuntime


@pytest.fixture(params=["sim", "live"])
def runtime(request):
    if request.param == "sim":
        return SimRuntime(nodes=2, seed=0)
    return LiveRuntime(nodes=2, seed=0)


class TestProtocolConformance:
    def test_runtime(self, runtime):
        assert isinstance(runtime, Runtime)
        assert runtime.backend in ("sim", "live")

    def test_clock(self, runtime):
        assert isinstance(runtime.clock, Clock)

    def test_node_group(self, runtime):
        group = runtime.nodes
        assert isinstance(group, NodeGroup)
        assert len(group) == 2
        assert group.names == [n.name for n in group]
        assert group[group.names[0]] is next(iter(group))

    def test_nodes(self, runtime):
        for node in runtime.nodes:
            assert isinstance(node, RuntimeNode)
            assert isinstance(node.stack, Transport)

    def test_bus(self, runtime):
        assert isinstance(runtime.bus, Bus)
        assert not hasattr(runtime, "make_bus")

    def test_bus_is_idempotent(self, runtime):
        assert runtime.bus is runtime.bus

    def test_runtime_is_its_own_only_world(self, runtime):
        """What a scenario wires is the runtime itself: one bus, one
        node group, one clock — no per-world view beside it."""
        assert not hasattr(runtime, "worlds")
        assert isinstance(runtime.bus, Bus)

    def test_registries_cover_every_node(self, runtime):
        registries = runtime.registries()
        assert list(registries) == runtime.nodes.names
        for node in runtime.nodes:
            assert registries[node.name] is node.telemetry


class TestBackendTags:
    def test_sim_tag(self):
        assert SimRuntime(nodes=1).backend == "sim"

    def test_live_tag(self):
        assert LiveRuntime(nodes=1).backend == "live"

    def test_live_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            LiveRuntime(nodes=0)

    def test_live_rejects_name_mismatch(self):
        with pytest.raises(ValueError):
            LiveRuntime(nodes=2, names=["only-one"])

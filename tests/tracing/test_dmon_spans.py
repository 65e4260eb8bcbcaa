"""d-mon's decision spans on a traced simulator run.

One 3-node run exercises every span d-mon records while it decides
what to publish — a global (``*``) filter, a filter scoped to one
module, a keyed module's collect, a control message applied on its own
sender — and the adaptation audit naming the filter that passed the
metric behind a SmartPointer decision.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig, FilterCommand, topk_filter
from repro.harness.appbench import CPU_PROFILE, CPU_RATE
from repro.smartpointer import (ClientCapabilities, DynamicAdaptation,
                                SmartPointerClient, SmartPointerServer)
from repro.tracing import adaptation_audit
from repro.workloads import Linpack

DURATION = 20.0
KEEP_LOAD = FilterCommand(source="{ output[0] = input[LOADAVG]; }",
                          metric="cpu", filter_id="keep-load")


def _setup(sc: Scenario) -> None:
    server, client, other = sc.nodes.names
    writer = sc.dprocs[server]
    writer.write(f"/proc/cluster/{client}/control", KEEP_LOAD.render())
    writer.write(f"/proc/cluster/{other}/control",
                 topk_filter(2, metric="*", filter_id="top2"))
    # Addressed to the writer itself: applied at send time.
    writer.write(f"/proc/cluster/{server}/control", "period mem 2")
    client_node = sc.nodes[client]
    SmartPointerClient(client_node).start()
    SmartPointerServer(sc.nodes[server], dproc=sc.dprocs[server]) \
        .add_client(client, CPU_PROFILE, rate=CPU_RATE,
                    policy=DynamicAdaptation(resources=("cpu",)),
                    caps=ClientCapabilities(
                        mflops=client_node.config.mflops_per_cpu,
                        n_cpus=1, disk_rate=client_node.config.disk_rate))

    def load():
        yield sc.env.timeout(DURATION / 3)
        Linpack(client_node).start()
        yield sc.env.timeout(DURATION / 3)
        Linpack(client_node).start()

    sc.env.process(load(), name="load")


@pytest.fixture(scope="module")
def traced():
    sc = (Scenario(nodes=3, seed=2, dmon=DMonConfig(poll_interval=1.0),
                   modules=("cpu", "mem", "proc"))
          .with_tracing().with_setup(_setup).run(DURATION))
    spans = [span for tree in sc.tracer.trees() for span in tree.spans]
    return sc, spans


def _spans(spans, node, stage, name_prefix):
    return [s for s in spans if s.node == node and s.stage == stage
            and s.name.startswith(name_prefix)]


class TestDecisionSpans:
    def test_scoped_filter_span(self, traced):
        sc, spans = traced
        client = sc.nodes.names[1]
        found = _spans(spans, client, "dmon.filter", "filter:keep-load")
        assert found
        assert {s.attrs["filter_id"] for s in found} == {"keep-load"}
        assert {s.attrs["scope"] for s in found} == {"cpu"}
        assert {s.attrs["kept"] for s in found} == {("loadavg",)}
        # No keyed rows in the cpu module's scope: nothing emitted.
        assert all("emitted" not in s.attrs for s in found)

    def test_global_filter_span(self, traced):
        sc, spans = traced
        other = sc.nodes.names[2]
        found = _spans(spans, other, "dmon.filter", "filter:top2")
        assert found
        assert {s.attrs["scope"] for s in found} == {"*"}
        # A top-K filter publishes pairs, not metric records.
        assert {s.attrs["kept"] for s in found} == {()}
        assert all(0 < s.attrs["emitted"] <= 2 for s in found)
        # The global filter governs every metric: no parameter checks.
        assert not _spans(spans, other, "dmon.param", "param:")

    def test_keyed_module_span(self, traced):
        sc, spans = traced
        server = sc.nodes.names[0]
        found = _spans(spans, server, "module", "module:proc")
        assert found
        assert all(s.attrs["keyed"] > 0 for s in found)
        assert all("keyed" not in s.attrs for s in
                   _spans(spans, server, "module", "module:cpu"))

    def test_local_control_apply_span(self, traced):
        sc, spans = traced
        server = sc.nodes.names[0]
        roots = [tree for tree in sc.tracer.trees()
                 if tree.root.stage == "control"
                 and tree.root.attrs["target"] == "mem"]
        assert len(roots) == 1
        applied = [s for s in roots[0].spans if s.stage == "update"]
        assert [(s.name, s.node, s.attrs["kind"]) for s in applied] == \
            [(f"apply:{server}", server, "period")]


class TestAuditNamesTheFilter:
    def test_filtered_metric_resolves_to_its_filter(self, traced):
        sc, _ = traced
        resolved = [trig for entry in adaptation_audit(sc.tracer)
                    for trig in entry["triggers"]
                    if trig["metric"] == "loadavg" and trig["trace_id"]]
        assert resolved
        assert {t["filter_id"] for t in resolved} == {"keep-load"}
        assert all(t["rule"] is None for t in resolved)


def _ends_after_its_children(tree) -> bool:
    children = [s for s in tree.spans if s is not tree.root]
    assert max(s.start for s in children) > tree.root.start
    return tree.root.end >= max(s.start for s in children)


class TestRootEndsAtTheClock:
    def test_poll_root_after_a_slow_collect(self):
        """On a live node the clock moves while modules collect; the
        poll's root must not end before the submit and hops it parents
        (they start at the moved clock)."""
        sc = Scenario(nodes=2, seed=1).with_tracing().run(3.0)
        dmon = sc.dprocs[sc.nodes.names[0]].dmon
        module = dmon.modules["cpu"]
        collect = module.collect

        def slow_collect(now):
            sc.env._now += 0.25  # a wall clock moving during the read
            return collect(now)

        module.collect = slow_collect
        dmon.poll_once()
        assert _ends_after_its_children(
            sc.tracer.tree(f"{dmon.node.name}:poll:{dmon.polls}"))

    def test_control_root_after_a_slow_submit(self):
        """The same for a control message: its root must not end
        before the hops its submit sends."""
        sc = Scenario(nodes=2, seed=1).with_tracing().run(3.0)
        dmon = sc.dprocs[sc.nodes.names[0]].dmon
        endpoint = dmon._control_ep
        submit = endpoint.submit

        def slow_submit(*args, **kwargs):
            sc.env._now += 0.25  # a wall clock moving during encode
            return submit(*args, **kwargs)

        endpoint.submit = slow_submit
        sc.dprocs[dmon.node.name].write(
            f"/proc/cluster/{sc.nodes.names[1]}/control", "period mem 2")
        (tree,) = [tree for tree in sc.tracer.trees()
                   if tree.root.stage == "control"]
        assert _ends_after_its_children(tree)

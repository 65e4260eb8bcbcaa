"""Replay fidelity: stream order equals delivery order, per backend."""

from __future__ import annotations

from repro.api import Scenario
from repro.stream import DELIVER


def record_deliveries(scenario: Scenario, log: list) -> None:
    """Wrap every node's monitor handler with a passive recorder.

    The d-mon endpoints already have their handler, so wrapping it
    changes no audience set and stays out of the event schedule.
    """
    def hook(sc):
        for node in sc.runtime.nodes:
            endpoint = sc.dprocs[node.name].dmon._monitor_ep

            def recorded(e, trace, dest=node.name,
                         handler=endpoint.handler):
                log.append((dest, e.source, e.submitted_at))
                handler(e, trace)

            endpoint.handler = recorded

    scenario.with_setup(hook)


class TestWorkersOne:
    def test_stream_order_equals_handler_delivery_order(self):
        log: list = []
        scenario = Scenario(nodes=6, seed=17).with_stream()
        record_deliveries(scenario, log)
        scenario.run(6.0)
        streamed = [(e.dest, e.source, e.submitted_at)
                    for e in scenario.stream.entries("dproc.monitor")
                    if e.kind == DELIVER]
        # The recorder only sees remote deliveries dispatched to its
        # node's endpoint; the tee sees the same dispatches in the
        # same order (local self-deliveries included in both).
        assert streamed == log

    def test_same_seed_byte_identical_stream(self):
        runs = [Scenario(nodes=6, seed=17).with_stream().run(6.0)
                        .stream.serialize() for _ in range(2)]
        assert runs[0] == runs[1]

    def test_stream_property_is_the_one_broker(self):
        sc = Scenario(nodes=6, seed=17).with_stream().run(2.0)
        assert sc.stream is sc.stream
        assert sc.stream is sc.runtime.bus.stream

"""A control command the target d-mon cannot apply is contained.

``parse_control_text`` accepts each of these writes, but the target
rejects it when it applies it: an unknown metric, a filter that does
not compile (one of them nests deeper than E-code allows), a filter id
it never deployed.  The target counts each one in
``dmon.control_rejected`` and keeps serving; the run goes on, and on
live the writer's link to the target stays up.  A write the grammar
itself rejects raises at the writer and sends nothing.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig, MetricId
from repro.errors import ControlSyntaxError, DprocError

REJECTED = ("period nosuchmetric 1",
            "filter cpu { int i = ; }",
            "unfilter nosuch",
            "filter cpu id=deep { return " + "(" * 100 + "1"
            + ")" * 100 + "; }")
POLL = 0.2
WRITE_AT = 0.5
DURATION = 2.0


@pytest.mark.parametrize("backend", ["sim", "live"])
def test_rejected_remote_command_is_counted_not_raised(backend):
    def write_later(sc: Scenario) -> None:
        writer, target = sc.nodes.names[:2]

        def writes():
            yield sc.dprocs[writer].node.env.timeout(WRITE_AT)
            for text in REJECTED:
                sc.dprocs[writer].write(f"/proc/cluster/{target}/control",
                                        text)

        sc.dprocs[writer].node.spawn(writes(), name="bad-writes")

    sc = Scenario(nodes=3, seed=1, backend=backend,
                  dmon=DMonConfig(poll_interval=POLL))
    sc.with_setup(write_later).run(DURATION)
    writer, target = sc.nodes.names[:2]
    dmon = sc.dprocs[target].dmon
    assert dmon.node.telemetry.value("dmon.control_rejected") \
        == len(REJECTED)
    assert dmon.peer_state(writer) == "fresh"
    heard = dmon.remote_value(writer, MetricId.LOADAVG).timestamp
    assert heard > WRITE_AT + 2 * POLL


@pytest.mark.parametrize("text", REJECTED, ids=lambda text: text[:40])
def test_rejected_command_raises_at_its_own_writer(text):
    sc = Scenario(nodes=3, seed=1, dmon=DMonConfig(poll_interval=POLL))
    sc.build()
    writer = sc.nodes.names[0]
    with pytest.raises(DprocError):
        sc.dprocs[writer].write(f"/proc/cluster/{writer}/control", text)


def test_write_the_grammar_rejects_raises_and_sends_nothing():
    """``period cpu inf`` used to pass the writer's check, be sent, and
    be rejected only by the target, while the writer's control file
    read it back as accepted."""
    sc = Scenario(nodes=3, seed=1, dmon=DMonConfig(poll_interval=POLL))
    sc.build()
    writer, target = sc.nodes.names[:2]
    path = f"/proc/cluster/{target}/control"
    with pytest.raises(ControlSyntaxError):
        sc.dprocs[writer].write(path, "period cpu inf")
    sc.run(DURATION)
    assert sc.dprocs[writer].read(path) == ""
    assert sc.dprocs[target].node.telemetry.value(
        "dmon.control_rejected") == 0
    assert sc.dprocs[target].dmon.policies[MetricId.LOADAVG].period is None

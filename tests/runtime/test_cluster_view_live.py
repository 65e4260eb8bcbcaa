"""``ClusterView`` and the ``status`` files agree on the live backend.

The aggregate counts a host exactly when its
``/proc/cluster/<host>/status`` reads ``fresh``: a metric on a slower
period than the poll still counts while its host is heard, and a host
whose d-mon stopped drops out the moment its status leaves ``fresh``.
"""

from __future__ import annotations

from repro.api import Scenario
from repro.dproc import ClusterView, DMonConfig, MetricId

POLL = 0.2
STOP_AT = 1.0
DURATION = 3.0


def fresh_by_status(dproc) -> set[str]:
    return {host for host in dproc.hosts()
            if dproc.read(f"/proc/cluster/{host}/status")
            .startswith("state: fresh\n")}


def test_view_hosts_are_the_fresh_status_hosts():
    checks: list[tuple[float, str, set, set]] = []

    def probe(sc: Scenario) -> None:
        names = sc.nodes.names
        writer, victim = names[0], names[-1]
        for host in names:
            sc.dprocs[writer].write(f"/proc/cluster/{host}/control",
                                    "period loadavg 1.2")
        env = sc.dprocs[writer].node.env

        def sample():
            yield env.timeout(STOP_AT)
            sc.dprocs[victim].stop()
            while True:
                yield env.timeout(POLL / 2)
                for host in names[:-1]:
                    dp = sc.dprocs[host]
                    snap = set(ClusterView(dp).snapshot(MetricId.LOADAVG))
                    checks.append((env.now, host, snap,
                                   fresh_by_status(dp)))

        sc.dprocs[writer].node.spawn(sample(), name="view-probe")

    sc = Scenario(nodes=3, seed=1, backend="live",
                  dmon=DMonConfig(poll_interval=POLL))
    sc.with_setup(probe).run(DURATION)
    victim = sc.nodes.names[-1]
    assert checks
    for now, host, snap, fresh in checks:
        assert snap == fresh, (now, host)
    # Both answers changed during the run: the victim counted at
    # first and no longer does by the end.
    assert any(victim in snap for _, _, snap, _ in checks)
    assert all(victim not in snap for _, _, snap, _ in checks[-4:])

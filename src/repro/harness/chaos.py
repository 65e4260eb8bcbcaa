"""Chaos scenario: dproc under loss, partition, and node failure.

The paper claims dproc's peer-to-peer channel design has no central
collection point to lose.  This scenario exercises that claim: a
cluster runs the full dproc deployment while the fault injector drives
it through probabilistic message loss, a partition that splits the
cluster in half, and the crash + reboot of one node — then measures
how long monitoring takes to recover.

Timeline (defaults; all times in simulated seconds)::

    0          deploy + start dproc everywhere
    5 .. 25    30 % message loss on every link
    10 .. 20   cluster partitioned into two halves
    12 .. 22   the victim node is crashed, then rebooted
    .. 60      run-out; recovery is measured

Reported:

* ``recovery_time`` — first instant after the partition heals when
  every surviving pair reports each other *fresh* again;
* ``rejoin_time`` — first instant after the reboot when every survivor
  reports the rebooted victim *fresh* again;
* ``victim_reported_dead`` — whether the survivors flagged the downed
  victim (stale or dead, never silently fresh) while it was gone.

Everything is deterministic: same seed → bit-identical
:attr:`ChaosReport.trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.api import Scenario
from repro.dproc import PEER_FRESH, DMonConfig

__all__ = ["ChaosReport", "chaos_recovery"]


@dataclass
class ChaosReport:
    """Outcome of one chaos run."""

    n_nodes: int
    seed: int
    duration: float
    victim: str
    #: Sim seconds from the partition healing to all surviving pairs
    #: fresh again (None = never recovered within ``duration``).
    recovery_time: Optional[float]
    #: Sim seconds from the victim's reboot to every survivor seeing
    #: it fresh again (None = never rejoined within ``duration``).
    rejoin_time: Optional[float]
    #: Survivors flagged the downed victim as stale/dead (never
    #: silently fresh) while it was gone.
    victim_reported_dead: bool
    #: The victim was never reported fresh while it was down and past
    #: the staleness threshold.
    victim_never_silently_fresh: bool
    #: Merged, time-ordered event trace: injected faults plus observed
    #: monitoring-state transitions.
    events: tuple[tuple[float, str], ...]
    final_liveness: dict[str, str]
    #: Cluster-wide self-telemetry summary (monitoring CPU/network
    #: overhead, from :func:`repro.telemetry.overhead_summary`).
    #: Deliberately *not* part of :attr:`trace` — it reports costs, the
    #: trace pins behaviour.
    overhead: Optional[dict] = None
    #: The durable event stream recorded during the run
    #: (``stream=True`` only; a :class:`repro.stream.StreamBroker`).
    #: Not part of :attr:`trace` — recording is passive and the trace
    #: must be identical with the stream on or off (test-enforced).
    stream_broker: Optional[object] = None
    #: Replay-vs-ground-truth validation of the stream
    #: (``stream=True`` only; a
    #: :class:`repro.stream.ReconcileReport`).  Also not in
    #: :attr:`trace`.
    reconciliation: Optional[object] = None
    #: The observability plane sampled through the run (``obs=True``
    #: only; a :class:`repro.obs.ObservabilityPlane`).  Sampling is
    #: passive, so the trace is identical with it on or off.
    obs_plane: Optional[object] = None
    #: The scenario that ran: post-mortem access to every node's
    #: ``/proc`` tree and telemetry.  Not part of :attr:`trace`.
    scenario: Optional[Scenario] = None

    @property
    def trace(self) -> tuple:
        """Hashable fingerprint for determinism comparisons."""
        return (self.events, self.recovery_time, self.rejoin_time,
                self.victim_reported_dead,
                self.victim_never_silently_fresh,
                tuple(sorted(self.final_liveness.items())))


def chaos_recovery(nodes: Optional[int] = None,
                   seed: int = 7,
                   loss_probability: float = 0.3,
                   loss_start: float = 5.0,
                   loss_end: float = 25.0,
                   partition_start: float = 10.0,
                   partition_end: float = 20.0,
                   crash_at: float = 12.0,
                   reboot_at: float = 22.0,
                   duration: float = 60.0,
                   poll_interval: float = 1.0,
                   probe_interval: float = 0.5,
                   tracer=None, *,
                   workers: int = 1,
                   stream: bool = False,
                   obs: bool = False,
                   obs_rules=None,
                   n_nodes: Optional[int] = None) -> ChaosReport:
    """Run the chaos scenario on a fresh cluster and report recovery.

    ``tracer`` (a :class:`repro.tracing.TraceCollector`) records causal
    traces through the run — faulted deliveries show up as dropped
    spans annotated with the fault kind.  Tracing is passive: the
    report is bit-identical with or without it (test-enforced).

    ``workers > 1`` shards the simulation (inline mode — all shards in
    this process so the fault timeline and observer keep their global
    view).  A sharded chaos run is deterministic for a fixed (seed,
    workers) but is a different event schedule from ``workers=1``: the
    observer probes cross-shard d-mon state at window granularity.

    ``stream=True`` additionally tees every channel submit, delivery
    and fault-plane drop into a durable event stream
    (:class:`repro.stream.StreamBroker`) and replays it against the
    d-mon remote caches after the run: the resulting
    :attr:`ChaosReport.reconciliation` proves crash recovery by
    replay — every missing delivery must be attributed to an injected
    fault.  Recording is passive, so the report's :attr:`~ChaosReport
    .trace` is bit-identical with the stream on or off.

    ``obs=True`` attaches the time-series metrics plane
    (``Scenario.with_observability``): the run's telemetry is sampled
    each poll interval and the health/SLO engine (``obs_rules``,
    default :func:`repro.obs.default_rules`) turns the injected fault
    window into degraded→recovered transitions on
    :attr:`ChaosReport.obs_plane`.  Also passive.
    """
    if n_nodes is not None:
        # The PR 5 alias is gone; fail loudly with the migration.
        raise TypeError("chaos_recovery() no longer accepts "
                        "'n_nodes'; pass nodes=... instead")
    n_nodes = 100 if nodes is None else nodes

    config = DMonConfig(poll_interval=poll_interval)
    stale_after = config.stale_after_intervals * poll_interval

    # Probe state, written by the observer process below.
    observations: list[tuple[float, str]] = []
    state = {"recovered_at": None, "rejoined_at": None,
             "victim_flagged": False, "silently_fresh": False,
             "all_fresh": None, "victim_view": None}

    def schedule_faults(sc: Scenario) -> None:
        names = sc.nodes.names
        victim = names[-1]
        injector = sc.faults
        # The monitored software dies and rejoins with the simulated
        # hardware: a crash stops that node's dproc, a reboot
        # restarts it.
        injector.on_crash(lambda host: sc.dprocs[host].stop())
        injector.on_reboot(lambda host: sc.dprocs[host].start())

        injector.schedule_loss(loss_start, loss_probability,
                               until=loss_end)
        half = len(names) // 2
        injector.schedule_partition(partition_start,
                                    [names[:half], names[half:]],
                                    heal_at=partition_end)
        injector.schedule_crash(crash_at, victim, reboot_at=reboot_at)

    def start_observer(sc: Scenario) -> None:
        env = sc.env
        dprocs = sc.dprocs
        names = sc.nodes.names
        victim = names[-1]
        survivors = names[:-1]

        def survivors_all_fresh() -> bool:
            for s in survivors:
                dmon = dprocs[s].dmon
                for other in survivors:
                    if other != s \
                            and dmon.peer_state(other) != PEER_FRESH:
                        return False
            return True

        def victim_states() -> set:
            return {dprocs[s].dmon.peer_state(victim)
                    for s in survivors}

        def observer():
            while True:
                now = env.now
                fresh = survivors_all_fresh()
                if fresh != state["all_fresh"]:
                    state["all_fresh"] = fresh
                    observations.append(
                        (now,
                         f"survivors "
                         f"{'all fresh' if fresh else 'degraded'}"))
                seen = victim_states()
                view = ",".join(sorted(seen))
                if view != state["victim_view"]:
                    state["victim_view"] = view
                    observations.append(
                        (now, f"victim seen as {view}"))
                if crash_at <= now < reboot_at:
                    if seen - {PEER_FRESH}:
                        state["victim_flagged"] = True
                    # Past the staleness bound a downed peer must
                    # never be reported fresh by anyone.
                    if now > crash_at + stale_after \
                            and PEER_FRESH in seen:
                        state["silently_fresh"] = True
                if (state["recovered_at"] is None
                        and now >= partition_end and fresh):
                    state["recovered_at"] = now
                if (state["rejoined_at"] is None and now >= reboot_at
                        and seen == {PEER_FRESH}):
                    state["rejoined_at"] = now
                yield env.timeout(probe_interval)

        env.process(observer(), name="chaos-observer")

    scenario = Scenario(nodes=n_nodes, seed=seed, dmon=config) \
        .with_faults(schedule_faults) \
        .with_setup(start_observer)
    scenario.with_workers(workers, mode="inline")
    if tracer is not None:
        scenario.with_tracing(tracer)
    if stream:
        scenario.with_stream()
    if obs:
        scenario.with_observability(sample_interval=poll_interval,
                                    rules=obs_rules)
    scenario.run(duration)

    reconciliation = None
    broker = None
    if stream:
        from repro.stream import reconcile
        broker = scenario.stream
        reconciliation = reconcile(broker, scenario.dprocs,
                                   until=duration,
                                   stale_after=stale_after)

    names = scenario.nodes.names
    victim = names[-1]
    survivors = names[:-1]
    dprocs = scenario.dprocs
    viewer = dprocs[survivors[0]].dmon
    final = {host: viewer.peer_state(host) for host in names}
    events = tuple(sorted(scenario.faults.log + observations))
    recovered = state["recovered_at"]
    rejoined = state["rejoined_at"]
    return ChaosReport(
        n_nodes=n_nodes,
        seed=seed,
        duration=duration,
        victim=victim,
        recovery_time=(recovered - partition_end
                       if recovered is not None else None),
        rejoin_time=(rejoined - reboot_at
                     if rejoined is not None else None),
        victim_reported_dead=state["victim_flagged"],
        victim_never_silently_fresh=not state["silently_fresh"],
        events=events,
        final_liveness=final,
        overhead=scenario.overhead(duration),
        stream_broker=broker,
        reconciliation=reconciliation,
        obs_plane=scenario.obs if obs else None,
        scenario=scenario,
    )

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
from typing import Callable, Optional

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
    #: The scenario that ran: every node's ``/proc`` tree and
    #: telemetry, and whatever ``configure`` attached to it
    #: (``scenario.stream``, ``.obs``, ``.tracer``).  Not part of
    #: :attr:`trace` — those instruments are passive, so the trace is
    #: identical with any of them on or off (test-enforced).
    scenario: Optional[Scenario] = None

    @property
    def trace(self) -> tuple:
        """Hashable fingerprint for determinism comparisons."""
        return (self.events, self.recovery_time, self.rejoin_time,
                self.victim_reported_dead,
                self.victim_never_silently_fresh,
                tuple(sorted(self.final_liveness.items())))

    def reconciliation(self):
        """Replay the recorded stream (``with_stream`` runs) against
        the d-mon remote caches: crash recovery proven by replay —
        every missing delivery must be attributed to an injected
        fault.  A :class:`repro.stream.ReconcileReport`."""
        from repro.stream import reconcile
        config = self.scenario.dprocs[self.victim].dmon.config
        return reconcile(
            self.scenario.stream, self.scenario.dprocs,
            until=self.duration, stale_after=config.stale_after)


def chaos_recovery(nodes: int = 100,
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
                   probe_interval: float = 0.5, *,
                   configure: Optional[Callable[[Scenario], object]]
                   = None) -> ChaosReport:
    """Run the chaos scenario on a fresh cluster and report recovery.

    The run is a plain :class:`~repro.api.Scenario` carrying the fault
    timeline and the recovery observer; ``configure(scenario)`` is
    called on it before anything is built, so a caller adds
    instruments with the calls it would write anywhere else::

        chaos_recovery(nodes=50, configure=lambda sc: sc
                       .with_stream().with_tracing(collector))

    and reads them back from :attr:`ChaosReport.scenario`.  Tracing,
    the stream tee and the observability plane are passive: the
    report's :attr:`~ChaosReport.trace` is bit-identical with or
    without them (test-enforced).
    """
    config = DMonConfig(poll_interval=poll_interval)
    stale_after = config.stale_after

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

    scenario = Scenario(nodes=nodes, seed=seed, dmon=config) \
        .with_faults(schedule_faults) \
        .with_setup(start_observer)
    if configure is not None:
        configure(scenario)
    scenario.run(duration)

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
        n_nodes=nodes,
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
        scenario=scenario,
    )

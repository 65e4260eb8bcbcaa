"""Multi-CPU processor-sharing model.

A :class:`CPU` models an SMP node (the paper's quad Pentium Pro) as a
work-conserving processor-sharing server:

* ``n_cpus`` processors, each delivering ``mflops_per_cpu`` Mflop/s;
* with ``k`` runnable jobs, each receives
  ``mflops_per_cpu * min(1, n_cpus / k)`` — no job exceeds one CPU and
  jobs share fairly when oversubscribed.

The model is **event-driven**: rates are recomputed only when the job
set changes, and the next completion is scheduled analytically, so a
simulated hour of steady load costs a handful of events.

Jobs submitted via :meth:`execute` are *runnable processes* and count
toward the run-queue length seen by CPU_MON; jobs submitted via
:meth:`kernel_work` consume cycles (they contend for capacity) but do
not appear in the run queue, mirroring in-kernel softirq/handler work.
A kernel charge is fire-and-forget: nobody awaits it, so its job
carries no completion event.  While no job in the set is awaited the
CPU arms no timer either: the next completion is a number, ``_due``,
and :meth:`catch_up` resolves it the next time anyone looks, with the
same operations a timer would have run at that instant.

The device keeps *state*, not history: the runnable-job count is an
int maintained incrementally (``run_queue_length`` is O(1), read by
CPU_MON) and busy time is one float, ``busy_cpu_seconds``.  A caller
that wants utilisation over a window calls :meth:`settle` and
differences ``busy_cpu_seconds`` at the window's two edges, as PMC_MON
and the power model do.  The 1/5/15-minute load averages fold the
run-queue length that held over each elapsed interval, and
:meth:`load_averages` reads them without storing anything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SimulationError
from repro.sim.core import Environment, SimEvent
from repro.runtime.series import EwmaLoad

__all__ = ["CPU", "CpuJob"]

#: Relative tolerance for declaring a job's remaining work complete.
_EPS = 1e-9


@dataclass(slots=True)
class CpuJob:
    """One unit of CPU work executing under processor sharing."""

    jid: int
    name: str
    work: float                      # total Mflop requested
    remaining: float                 # Mflop still to run
    runnable: bool                   # counts in the run queue?
    #: Completion event; None for fire-and-forget kernel work.
    done: Optional[SimEvent] = field(repr=False, default=None)
    started_at: float = 0.0
    cancelled: bool = False


class CPU:
    """Work-conserving multi-processor with processor-sharing scheduling."""

    def __init__(self, env: Environment, n_cpus: int = 4,
                 mflops_per_cpu: float = 17.4) -> None:
        if n_cpus < 1:
            raise SimulationError("need at least one CPU")
        if mflops_per_cpu <= 0:
            raise SimulationError("CPU capacity must be positive")
        self.env = env
        self.n_cpus = int(n_cpus)
        self.mflops_per_cpu = float(mflops_per_cpu)
        self._jobs: dict[int, CpuJob] = {}
        #: Incrementally maintained count of runnable jobs (O(1) reads).
        self._n_runnable = 0
        #: Jobs with a completion event.  While there are none no timer
        #: is armed and ``_due`` holds the next completion instant.
        self._n_awaited = 0
        self._due = math.inf
        self._ids = itertools.count(1)
        self._last_update = env.now
        self._timer_generation = 0
        #: Cumulative CPU-seconds actually consumed (all processors).
        self.busy_cpu_seconds = 0.0
        #: Classic /proc/loadavg exponential averages, folded as time
        #: advances; read them through :meth:`load_averages`.
        self.loadavg = EwmaLoad()
        self.loadavg.update(env.now, 0)

    # -- public interface --------------------------------------------------

    @property
    def run_queue_length(self) -> int:
        """Number of runnable jobs (running + waiting for a processor)."""
        return self._n_runnable

    @property
    def active_jobs(self) -> int:
        """All jobs currently consuming cycles (incl. kernel work)."""
        self.catch_up(self.env.now)
        return len(self._jobs)

    def process_table(self) -> list[tuple[int, str, bool, float]]:
        """Snapshot of live jobs for per-process monitors.

        Returns ``(jid, name, runnable, cpu_share)`` tuples in jid
        order, where ``cpu_share`` is the fraction of one processor
        each job currently receives under processor sharing.
        """
        self.catch_up(self.env.now)
        if not self._jobs:
            return []
        share = self.per_job_rate() / self.mflops_per_cpu
        return [(j.jid, j.name, j.runnable, share)
                for j in sorted(self._jobs.values(), key=lambda j: j.jid)]

    def load_averages(self) -> tuple[float, float, float]:
        """The 1/5/15-minute load averages at ``env.now``.

        A pure read: it resolves the completions already due, then
        evaluates the averages without storing them, so a reading
        never changes a later one.
        """
        self.catch_up(self.env.now)
        return self.loadavg.at(self.env.now, self._n_runnable)

    def per_job_rate(self) -> float:
        """Current Mflop/s granted to each active job."""
        k = len(self._jobs)
        if k <= self.n_cpus:
            return self.mflops_per_cpu
        # Same expression shape as ``mflops * min(1, n/k)`` so the
        # float result is bit-identical to the reference model.
        return self.mflops_per_cpu * (self.n_cpus / k)

    def execute(self, work_mflop: float, name: str = "job") -> SimEvent:
        """Run ``work_mflop`` of application work; yields when finished."""
        return self._submit(work_mflop, name, runnable=True).done

    def kernel_work(self, work_mflop: float, name: str = "kernel") -> None:
        """Run in-kernel work that uses cycles without being 'runnable'.

        Returns nothing: the work contends for the CPU like any job,
        but nobody awaits it, so it creates no completion event.  While
        no awaited job shares the CPU it arms no timer either and
        completes on the next look (:meth:`catch_up`).  So ``env.run()``
        without ``until`` does not wait for pending kernel work: that
        work holds no event.
        """
        self._submit(work_mflop, name, runnable=False, notify=False)

    def submit(self, work_mflop: float, name: str = "job",
               runnable: bool = True) -> CpuJob:
        """Lower-level entry returning the :class:`CpuJob` handle."""
        return self._submit(work_mflop, name, runnable)

    def cancel(self, job: CpuJob) -> None:
        """Abort a job; its event (if any) fails with
        :class:`SimulationError`."""
        self.catch_up(self.env.now)
        if job.jid not in self._jobs:
            return
        self._advance(self.env.now)
        del self._jobs[job.jid]
        if job.runnable:
            self._n_runnable -= 1
        job.cancelled = True
        if job.done is not None:
            self._n_awaited -= 1
            job.done.fail(SimulationError(f"job {job.name!r} cancelled"))
            job.done.defused = True
        self._changed(self.env.now)

    def settle(self) -> None:
        """Bring accounting (remaining work, busy time) up to ``env.now``."""
        self.catch_up(self.env.now)
        self._advance(self.env.now)

    def catch_up(self, now: float) -> None:
        """Resolve every completion due by ``now`` that no timer was
        armed for: advance to each due instant and complete there, the
        operations the timer would have run, so every float comes out
        bit-identical.  It never advances part of the way to ``now``:
        that would split one burn in two and move the last bits."""
        while self._due <= now:
            due = self._due
            self._advance(due)
            self._changed(due)

    # -- internals -----------------------------------------------------------

    def _submit(self, work: float, name: str, runnable: bool,
                notify: bool = True) -> CpuJob:
        if work < 0:
            raise SimulationError("work must be non-negative")
        self.settle()
        job = CpuJob(jid=next(self._ids), name=name, work=float(work),
                     remaining=float(work), runnable=runnable,
                     done=self.env.event() if notify else None,
                     started_at=self.env.now)
        if work == 0.0:
            if notify:
                job.done.succeed(job)
            return job
        self._jobs[job.jid] = job
        if runnable:
            self._n_runnable += 1
        if notify:
            self._n_awaited += 1
        self._changed(self.env.now)
        return job

    def _advance(self, t: float) -> None:
        """Burn every job's work, and fold the run-queue length that
        held into the load averages, over the interval up to ``t``."""
        dt = t - self._last_update
        if dt <= 0:
            self._last_update = t
            return
        k = len(self._jobs)
        if k:
            burn = self.per_job_rate() * dt
            for job in self._jobs.values():
                rem = job.remaining - burn
                job.remaining = rem if rem > 0.0 else 0.0
            self.busy_cpu_seconds += min(k, self.n_cpus) * dt
        self.loadavg.update(t, self._n_runnable)
        self._last_update = t

    def _changed(self, now: float) -> None:
        """Job set changed: complete finished jobs, schedule the next
        completion."""
        jobs = self._jobs
        if len(jobs) == 1:
            # The common case, one job alone (a lone kernel charge):
            # no finished list, no min() over the job set.
            (job,) = jobs.values()
            if job.remaining <= _EPS * (job.work if job.work > 1.0
                                        else 1.0):
                self._complete(job)
            next_remaining = job.remaining
        else:
            # Complete any job that has (numerically) finished.
            finished = None
            for j in jobs.values():
                if j.remaining <= _EPS * (j.work if j.work > 1.0 else 1.0):
                    if finished is None:
                        finished = [j]
                    else:
                        finished.append(j)
            if finished:
                for job in finished:
                    self._complete(job)
            next_remaining = None
        self._due = math.inf
        if not jobs:
            return
        if next_remaining is None:
            next_remaining = min(j.remaining for j in jobs.values())
        eta = next_remaining / self.per_job_rate()
        if not math.isfinite(eta):
            raise SimulationError("non-finite completion time")
        if not self._n_awaited:
            # Nobody awaits a completion: keep it as a number for the
            # next look (the float ``Environment`` would have queued).
            self._due = now + eta
            return
        self._timer_generation += 1
        generation = self._timer_generation
        timer = self.env.timeout(eta)
        timer.add_callback(lambda _ev: self._on_timer(generation))

    def _complete(self, job: CpuJob) -> None:
        del self._jobs[job.jid]
        if job.runnable:
            self._n_runnable -= 1
        if job.done is not None:
            self._n_awaited -= 1
            job.done.succeed(job)

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation or not self._n_awaited:
            return  # stale: re-armed since, or nothing awaited is left
        self.settle()
        self._changed(self.env.now)

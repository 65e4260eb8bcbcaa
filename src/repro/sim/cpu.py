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
carries no completion event and schedules none.

The device keeps *state*, not history: the runnable-job count is an
int maintained incrementally (``run_queue_length`` is O(1), read by
CPU_MON and the load average) and busy time is one float,
``busy_cpu_seconds``.  A caller that wants utilisation over a window
calls :meth:`settle` and differences ``busy_cpu_seconds`` at the
window's two edges, as PMC_MON and the power model do.
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
        self._ids = itertools.count(1)
        self._last_update = env.now
        self._timer_generation = 0
        #: Cumulative CPU-seconds actually consumed (all processors).
        self.busy_cpu_seconds = 0.0
        #: Classic /proc/loadavg exponential averages, fed on job churn.
        self.loadavg = EwmaLoad()

    # -- public interface --------------------------------------------------

    @property
    def run_queue_length(self) -> int:
        """Number of runnable jobs (running + waiting for a processor)."""
        return self._n_runnable

    @property
    def active_jobs(self) -> int:
        """All jobs currently consuming cycles (incl. kernel work)."""
        return len(self._jobs)

    def process_table(self) -> list[tuple[int, str, bool, float]]:
        """Snapshot of live jobs for per-process monitors.

        Returns ``(jid, name, runnable, cpu_share)`` tuples in jid
        order, where ``cpu_share`` is the fraction of one processor
        each job currently receives under processor sharing.
        """
        if not self._jobs:
            return []
        share = self.per_job_rate() / self.mflops_per_cpu
        return [(j.jid, j.name, j.runnable, share)
                for j in sorted(self._jobs.values(), key=lambda j: j.jid)]

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
        but no completion event is created or scheduled for it.
        """
        self._submit(work_mflop, name, runnable=False, notify=False)

    def submit(self, work_mflop: float, name: str = "job",
               runnable: bool = True) -> CpuJob:
        """Lower-level entry returning the :class:`CpuJob` handle."""
        return self._submit(work_mflop, name, runnable)

    def cancel(self, job: CpuJob) -> None:
        """Abort a job; its event (if any) fails with
        :class:`SimulationError`."""
        if job.jid not in self._jobs:
            return
        self._settle()
        del self._jobs[job.jid]
        if job.runnable:
            self._n_runnable -= 1
        job.cancelled = True
        if job.done is not None:
            job.done.fail(SimulationError(f"job {job.name!r} cancelled"))
            job.done.defused = True
        self._changed()

    def settle(self) -> None:
        """Bring accounting (remaining work, busy time) up to ``env.now``."""
        self._settle()

    # -- internals -----------------------------------------------------------

    def _submit(self, work: float, name: str, runnable: bool,
                notify: bool = True) -> CpuJob:
        if work < 0:
            raise SimulationError("work must be non-negative")
        self._settle()
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
        self._changed()
        return job

    def _settle(self) -> None:
        """Advance every job's remaining work to the current instant."""
        now = self.env.now
        dt = now - self._last_update
        if dt <= 0:
            self._last_update = now
            return
        k = len(self._jobs)
        if k:
            burn = self.per_job_rate() * dt
            for job in self._jobs.values():
                rem = job.remaining - burn
                job.remaining = rem if rem > 0.0 else 0.0
            self.busy_cpu_seconds += min(k, self.n_cpus) * dt
        self._last_update = now

    def _changed(self) -> None:
        """Job set changed: complete finished jobs, reschedule the timer."""
        now = self.env.now
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
        self.loadavg.update(now, self._n_runnable)
        self._timer_generation += 1
        if not jobs:
            return
        if next_remaining is None:
            next_remaining = min(j.remaining for j in jobs.values())
        eta = next_remaining / self.per_job_rate()
        if not math.isfinite(eta):
            raise SimulationError("non-finite completion time")
        generation = self._timer_generation
        timer = self.env.timeout(eta)
        timer.add_callback(lambda _ev: self._on_timer(generation))

    def _complete(self, job: CpuJob) -> None:
        del self._jobs[job.jid]
        if job.runnable:
            self._n_runnable -= 1
        if job.done is not None:
            job.done.succeed(job)

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # stale timer; the job set changed since it was armed
        self._settle()
        self._changed()

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

Scalability notes: the runnable-job count is maintained incrementally
(``run_queue_length`` is O(1), not a scan — it is read twice per job
churn by the load-average and trace bookkeeping), and busy-time is
checkpointed at every settle so :meth:`utilization` can answer *windowed*
queries exactly (busy-seconds accrue linearly between checkpoints).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SimulationError
from repro.sim.core import Environment, SimEvent
from repro.runtime.series import EwmaLoad, TimeSeries

__all__ = ["CPU", "CpuJob"]

#: Relative tolerance for declaring a job's remaining work complete.
_EPS = 1e-9

#: Busy-time checkpoints retained for windowed utilization queries.
_BUSY_HISTORY_BOUND = 65536


@dataclass
class CpuJob:
    """One unit of CPU work executing under processor sharing."""

    jid: int
    name: str
    work: float                      # total Mflop requested
    remaining: float                 # Mflop still to run
    runnable: bool                   # counts in the run queue?
    done: SimEvent = field(repr=False, default=None)  # type: ignore[assignment]
    started_at: float = 0.0
    cancelled: bool = False


class CPU:
    """Work-conserving multi-processor with processor-sharing scheduling."""

    def __init__(self, env: Environment, n_cpus: int = 4,
                 mflops_per_cpu: float = 17.4,
                 track_runqueue: bool = True) -> None:
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
        #: Busy-time checkpoints (time, cumulative busy CPU-seconds);
        #: busy accrues linearly between entries, so windowed
        #: utilization interpolates exactly.
        self._busy_times: list[float] = [env.now]
        self._busy_marks: list[float] = [0.0]
        #: Classic /proc/loadavg exponential averages, fed on job churn.
        self.loadavg = EwmaLoad()
        #: Optional full trace of run-queue length transitions.
        self.runqueue_trace: Optional[TimeSeries] = (
            TimeSeries("runqueue") if track_runqueue else None)
        if self.runqueue_trace is not None:
            self.runqueue_trace.record(env.now, 0)

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

    def kernel_work(self, work_mflop: float,
                    name: str = "kernel") -> SimEvent:
        """Run in-kernel work that uses cycles without being 'runnable'."""
        return self._submit(work_mflop, name, runnable=False).done

    def submit(self, work_mflop: float, name: str = "job",
               runnable: bool = True) -> CpuJob:
        """Lower-level entry returning the :class:`CpuJob` handle."""
        return self._submit(work_mflop, name, runnable)

    def cancel(self, job: CpuJob) -> None:
        """Abort a job; its event fails with :class:`SimulationError`."""
        if job.jid not in self._jobs:
            return
        self._settle()
        del self._jobs[job.jid]
        if job.runnable:
            self._n_runnable -= 1
        job.cancelled = True
        job.done.fail(SimulationError(f"job {job.name!r} cancelled"))
        job.done.defused = True
        self._changed()

    def busy_seconds_at(self, t: float) -> float:
        """Cumulative busy CPU-seconds at time ``t`` (``t`` ≤ now).

        Exact for any ``t`` within the retained checkpoint history
        (busy-time accrues linearly between checkpoints); times before
        the retained horizon clamp to the oldest checkpoint.
        """
        times, marks = self._busy_times, self._busy_marks
        last_t = times[-1]
        if t >= last_t:
            # Beyond the last checkpoint busy accrues at the current
            # concurrency level.
            k = len(self._jobs)
            return marks[-1] + min(k, self.n_cpus) * (t - last_t)
        i = bisect_right(times, t)
        if i == 0:
            return marks[0]
        t0, b0 = times[i - 1], marks[i - 1]
        t1, b1 = times[i], marks[i]
        if t1 <= t0:
            return b1
        return b0 + (b1 - b0) * (t - t0) / (t1 - t0)

    def utilization(self, since: float, now: float | None = None) -> float:
        """Mean fraction of total capacity used over ``[since, now]``.

        Honors the window: the numerator is the busy CPU-seconds
        accrued *within* the window (from the checkpointed busy-time
        history), not the global mean from t=0.  Call :meth:`settle`
        first for an up-to-the-instant reading.
        """
        now = self.env.now if now is None else now
        span = now - since
        if span <= 0:
            raise SimulationError("empty utilization window")
        busy = self.busy_seconds_at(now) - self.busy_seconds_at(since)
        return busy / (self.n_cpus * span)

    def settle(self) -> None:
        """Bring accounting (remaining work, busy time) up to ``env.now``."""
        self._settle()

    # -- internals -----------------------------------------------------------

    def _submit(self, work: float, name: str, runnable: bool) -> CpuJob:
        if work < 0:
            raise SimulationError("work must be non-negative")
        self._settle()
        job = CpuJob(jid=next(self._ids), name=name, work=float(work),
                     remaining=float(work), runnable=runnable,
                     done=self.env.event(), started_at=self.env.now)
        if work == 0.0:
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
        self._checkpoint_busy(now)

    def _checkpoint_busy(self, now: float) -> None:
        times, marks = self._busy_times, self._busy_marks
        if times[-1] == now:
            marks[-1] = self.busy_cpu_seconds
        else:
            times.append(now)
            marks.append(self.busy_cpu_seconds)
            if len(times) >= 2 * _BUSY_HISTORY_BOUND:
                cut = len(times) - _BUSY_HISTORY_BOUND
                del times[:cut]
                del marks[:cut]

    def _changed(self) -> None:
        """Job set changed: complete finished jobs, reschedule the timer."""
        now = self.env.now
        jobs = self._jobs
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
                del jobs[job.jid]
                if job.runnable:
                    self._n_runnable -= 1
                job.done.succeed(job)
        runnable = self._n_runnable
        self.loadavg.update(now, runnable)
        if self.runqueue_trace is not None:
            self.runqueue_trace.record(now, runnable)
        self._timer_generation += 1
        if not jobs:
            return
        rate = self.per_job_rate()
        next_remaining = min(j.remaining for j in jobs.values())
        eta = next_remaining / rate
        if not math.isfinite(eta):
            raise SimulationError("non-finite completion time")
        generation = self._timer_generation
        timer = self.env.timeout(eta)
        timer.add_callback(lambda _ev: self._on_timer(generation))

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # stale timer; the job set changed since it was armed
        self._settle()
        self._changed()

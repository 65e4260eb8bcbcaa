"""Property-based tests for the simulation kernel invariants."""

from __future__ import annotations

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import CPU, Environment, RngHub, Store
from repro.sim.cpu import CpuJob
from repro.runtime.series import EwmaLoad, WindowAverage

# Keep the DES property runs snappy.
FAST = settings(max_examples=60, deadline=None)


delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40)


class TestEventLoopProperties:
    @FAST
    @given(delays)
    def test_events_fire_in_time_order(self, ds):
        """Callbacks always observe a non-decreasing clock."""
        env = Environment()
        fired: list[float] = []
        for d in ds:
            env.timeout(d).add_callback(lambda _e: fired.append(env.now))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(ds)

    @FAST
    @given(delays)
    def test_clock_ends_at_latest_event(self, ds):
        env = Environment()
        for d in ds:
            env.timeout(d)
        env.run()
        assert env.now == max(ds)

    @FAST
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    def test_same_time_events_fifo(self, tags):
        """Events scheduled for the same instant process in schedule
        order."""
        env = Environment()
        fired: list[int] = []
        for tag in tags:
            env.timeout(1.0).add_callback(
                lambda _e, t=tag: fired.append(t))
        env.run()
        assert fired == tags


class TestCpuProperties:
    @FAST
    @given(st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=50.0),   # work
            st.floats(min_value=0.0, max_value=10.0)),   # arrival
        min_size=1, max_size=15),
        st.integers(min_value=1, max_value=4))
    def test_work_conservation(self, jobs, n_cpus):
        """Total CPU-seconds delivered equals total work requested,
        no matter the arrival pattern or contention."""
        env = Environment()
        cpu = CPU(env, n_cpus=n_cpus, mflops_per_cpu=10.0)
        events = []

        def submit(work, at):
            yield env.timeout(at)
            done = cpu.execute(work)
            events.append(done)
            yield done

        procs = [env.process(submit(w, a)) for w, a in jobs]
        env.run(env.all_of(procs))
        cpu.settle()
        total_work = sum(w for w, _ in jobs)
        delivered = cpu.busy_cpu_seconds * 10.0
        assert abs(delivered - total_work) < 1e-6 * max(1.0, total_work)
        assert all(ev.ok for ev in events)

    @FAST
    @given(st.lists(st.floats(min_value=0.01, max_value=20.0),
                    min_size=2, max_size=10))
    def test_shorter_jobs_finish_no_later(self, works):
        """Under PS, among jobs started together, less work never
        finishes later."""
        env = Environment()
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=5.0)
        finish: dict[int, float] = {}
        for i, w in enumerate(works):
            cpu.execute(w).add_callback(
                lambda _e, i=i: finish.setdefault(i, env.now))
        env.run()
        order = sorted(range(len(works)), key=lambda i: works[i])
        times = [finish[i] for i in order]
        assert all(a <= b + 1e-9 for a, b in zip(times, times[1:]))


class TimerCpu:
    """Oracle: the processor-sharing CPU with a timer per change.

    Every change arms a generation-checked completion timer, for
    awaited and fire-and-forget jobs alike, and the load averages fold
    the run-queue length that held in the advance step.  ``CPU`` arms
    timers only for awaited jobs and must match it bit for bit.
    """

    def __init__(self, env, n_cpus, mflops_per_cpu):
        self.env = env
        self.n_cpus = n_cpus
        self.mflops_per_cpu = mflops_per_cpu
        self._jobs = {}
        self.n_runnable = 0
        self.ids = itertools.count(1)
        self.last = env.now
        self.generation = 0
        self.busy_cpu_seconds = 0.0
        self.loadavg = EwmaLoad()
        self.loadavg.update(env.now, 0)

    @property
    def active_jobs(self):
        return len(self._jobs)

    def rate(self):
        k = len(self._jobs)
        if k <= self.n_cpus:
            return self.mflops_per_cpu
        return self.mflops_per_cpu * (self.n_cpus / k)

    def process_table(self):
        share = self.rate() / self.mflops_per_cpu
        return [(j.jid, j.name, j.runnable, share)
                for j in sorted(self._jobs.values(), key=lambda j: j.jid)]

    def execute(self, work):
        return self.submit(work).done

    def kernel_work(self, work):
        self.submit(work, "kernel", runnable=False, notify=False)

    def submit(self, work, name="job", runnable=True, notify=True):
        self.settle()
        job = CpuJob(jid=next(self.ids), name=name, work=float(work),
                     remaining=float(work), runnable=runnable,
                     done=self.env.event() if notify else None,
                     started_at=self.env.now)
        if work == 0.0:
            if notify:
                job.done.succeed(job)
            return job
        self._jobs[job.jid] = job
        self.n_runnable += runnable
        self.changed()
        return job

    def cancel(self, job):
        if job.jid not in self._jobs:
            return
        self.settle()
        del self._jobs[job.jid]
        self.n_runnable -= job.runnable
        job.cancelled = True
        if job.done is not None:
            job.done.fail(SimulationError("cancelled"))
            job.done.defused = True
        self.changed()

    def settle(self):
        now = self.env.now
        dt = now - self.last
        if dt > 0:
            k = len(self._jobs)
            if k:
                burn = self.rate() * dt
                for job in self._jobs.values():
                    rem = job.remaining - burn
                    job.remaining = rem if rem > 0.0 else 0.0
                self.busy_cpu_seconds += min(k, self.n_cpus) * dt
            self.loadavg.update(now, self.n_runnable)
        self.last = now

    def changed(self):
        for job in [j for j in self._jobs.values()
                    if j.remaining <= 1e-9 * max(j.work, 1.0)]:
            del self._jobs[job.jid]
            self.n_runnable -= job.runnable
            if job.done is not None:
                job.done.succeed(job)
        self.generation += 1
        if self._jobs:
            eta = min(j.remaining for j in self._jobs.values()) / self.rate()
            generation = self.generation
            self.env.timeout(eta).add_callback(
                lambda _ev: self.on_timer(generation))

    def on_timer(self, generation):
        if generation == self.generation:
            self.settle()
            self.changed()


# Small whole numbers make completions land exactly on a run horizon.
works = st.one_of(st.integers(0, 6).map(float),
                  st.floats(min_value=0.01, max_value=20.0))
cpu_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["kernel", "execute", "submit"]), works),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.sampled_from(["settle", "read"]), st.just(0.0)),
    st.tuples(st.just("run"), st.one_of(
        st.integers(0, 4).map(float),
        st.floats(min_value=0.0, max_value=8.0)))),
    max_size=50)


class TestCpuNextLookOracle:
    @settings(max_examples=300, deadline=None)
    @given(cpu_ops, st.integers(1, 3))
    def test_next_look_equals_a_timer_per_change(self, ops, n_cpus):
        """Kernel work that completes on the next look leaves every
        value equal (``==``) to a CPU that arms a timer per change:
        busy time, load averages, the job set and process table, and
        the instant each awaited job completes or is cancelled."""
        sides = []
        for make in (CPU, TimerCpu):
            env = Environment()
            sides.append((env, make(env, n_cpus=n_cpus,
                                    mflops_per_cpu=1.0), [], []))

        def apply(env, cpu, handles, ends, op, arg):
            if op == "kernel":
                cpu.kernel_work(arg)
                if arg:
                    handles.append(cpu._jobs[max(cpu._jobs)])
            elif op in ("execute", "submit"):
                if op == "execute":
                    done = cpu.execute(arg)
                else:
                    job = cpu.submit(arg, runnable=False)
                    handles.append(job)
                    done = job.done
                n = len(handles)
                done.add_callback(
                    lambda ev: ends.append((n, ev.ok, env.now)))
            elif op == "cancel":
                if handles:
                    cpu.cancel(handles[arg % len(handles)])
            elif op == "settle":
                cpu.settle()
            elif op == "read":
                return cpu.process_table()
            else:
                env.run(until=env.now + arg)
            return None

        def state(env, cpu, handles, ends):
            return (env.now, cpu.active_jobs, cpu.busy_cpu_seconds,
                    list(cpu.loadavg.loads), list(ends))

        for op, arg in ops + [("run", 100.0), ("settle", 0.0)]:
            new, old = (apply(*side, op, arg) for side in sides)
            assert new == old
            assert state(*sides[0]) == state(*sides[1])


class TestStoreProperties:
    @FAST
    @given(st.lists(st.integers(), min_size=1, max_size=50))
    def test_fifo_preserves_sequence(self, items):
        env = Environment()
        store = Store(env)
        received = []

        def producer():
            for item in items:
                store.put(item)
                yield env.timeout(0)

        def consumer():
            for _ in items:
                got = yield store.get()
                received.append(got)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == items


class TestTraceProperties:
    @FAST
    @given(st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False), min_size=1, max_size=50),
        st.floats(min_value=0.5, max_value=100.0))
    def test_window_average_matches_numpy_mean(self, values, window):
        """With all samples inside the window, the running average is
        the arithmetic mean."""
        w = WindowAverage(window)
        # Pack all samples into a span strictly smaller than window.
        dt = window / (len(values) + 1)
        for i, v in enumerate(values):
            w.record(i * dt * 0.99, v)
        expected = sum(values) / len(values)
        assert abs(w.value - expected) <= 1e-9 * max(
            1.0, abs(expected)) + 1e-9

    @FAST
    @given(st.lists(st.floats(min_value=0.0, max_value=64.0),
                    min_size=1, max_size=50))
    def test_ewma_bounded_by_observations(self, samples):
        """The load averages never leave [0, max(observations)]."""
        load = EwmaLoad()
        for i, s in enumerate(samples):
            load.update(i * 5.0, s)
        for value in load.loads:
            assert -1e-9 <= value <= max(samples) + 1e-9

    @FAST
    @given(st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
           st.lists(st.one_of(
               # a sample under load, or at rest
               st.tuples(st.floats(min_value=0.0, max_value=600.0,
                                   allow_nan=False),
                         st.one_of(st.integers(0, 64),
                                   st.floats(min_value=0.0,
                                             max_value=64.0))),
               # a long idle stretch: exp underflows, so the averages
               # return to exactly 0.0
               st.just((1e6, 0))),
               min_size=1, max_size=60),
           st.integers(0, 200))
    def test_ewma_equals_unskipped_update(self, start, steps, rest):
        """Skipping the ``exp`` calls at rest changes no value: the
        averages equal (``==``, not approx) the plain kernel update
        applied on every sample, through long runs at 0 and returns to
        0 after load."""
        def oracle_update(loads, dt, runnable):
            for i, tau in enumerate(EwmaLoad.PERIODS):
                decay = math.exp(-dt / tau)
                loads[i] = loads[i] * decay + runnable * (1.0 - decay)

        steps = steps + [(1e6, 0)] + [(1.0, 0)] * rest
        load = EwmaLoad()
        expected = [0.0, 0.0, 0.0]
        t = start
        load.update(t, 0)
        for dt, runnable in steps:
            last, t = t, t + dt
            load.update(t, runnable)
            oracle_update(expected, t - last, runnable)
            assert load.loads == expected
        assert load.loads == [0.0, 0.0, 0.0]

    @FAST
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200))
    def test_zero_mean_poisson_leaves_the_stream_untouched(self, seed,
                                                           calls):
        """``NetStack.send_many`` skips the retransmission draw when its
        mean is 0.0.  That is exact only while a zero-mean ``poisson``
        returns 0 without consuming stream state: on the node stream
        the transport draws from, the state and the next draws must
        equal an untouched twin's."""
        drawn = RngHub(seed).stream("node:alan")
        skipped = RngHub(seed).stream("node:alan")
        assert all(drawn.poisson(0.0) == 0 for _ in range(calls))
        assert [getattr(drawn, slot) for slot in drawn.__slots__] \
            == [getattr(skipped, slot) for slot in skipped.__slots__]
        assert [drawn.random() for _ in range(4)] \
            == [skipped.random() for _ in range(4)]
        assert [drawn.poisson(2.5) for _ in range(8)] \
            == [skipped.poisson(2.5) for _ in range(8)]

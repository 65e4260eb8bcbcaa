"""Unit tests for the processor-sharing CPU model."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim import CPU, Environment
from tests.conftest import history_bytes


class TestSingleJob:
    def test_job_duration_matches_capacity(self, env):
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=10.0)
        done = cpu.execute(50.0)  # 50 Mflop at 10 Mflop/s -> 5 s
        env.run(done)
        assert env.now == pytest.approx(5.0)

    def test_zero_work_completes_immediately(self, env):
        cpu = CPU(env, n_cpus=1)
        done = cpu.execute(0.0)
        assert done.triggered

    def test_negative_work_rejected(self, env):
        cpu = CPU(env, n_cpus=1)
        with pytest.raises(SimulationError):
            cpu.execute(-1.0)

    def test_invalid_construction(self, env):
        with pytest.raises(SimulationError):
            CPU(env, n_cpus=0)
        with pytest.raises(SimulationError):
            CPU(env, mflops_per_cpu=0.0)


class TestProcessorSharing:
    def test_two_jobs_share_one_cpu(self, env):
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=10.0)
        a = cpu.execute(50.0)
        b = cpu.execute(50.0)
        env.run(env.all_of([a, b]))
        # Both share: each runs at 5 Mflop/s -> both finish at 10 s.
        assert env.now == pytest.approx(10.0)

    def test_unequal_jobs_finish_in_order(self, env):
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=10.0)
        finish = {}
        short = cpu.execute(10.0)
        long = cpu.execute(30.0)
        short.add_callback(lambda _e: finish.setdefault("short", env.now))
        long.add_callback(lambda _e: finish.setdefault("long", env.now))
        env.run()
        # Shared until short finishes at t=2 (10 Mflop at 5 each),
        # then long runs alone: 20 Mflop left at 10 -> t=4.
        assert finish["short"] == pytest.approx(2.0)
        assert finish["long"] == pytest.approx(4.0)

    def test_multi_cpu_no_contention_below_capacity(self, env):
        cpu = CPU(env, n_cpus=4, mflops_per_cpu=10.0)
        jobs = [cpu.execute(50.0) for _ in range(4)]
        env.run(env.all_of(jobs))
        assert env.now == pytest.approx(5.0)

    def test_multi_cpu_oversubscribed(self, env):
        cpu = CPU(env, n_cpus=2, mflops_per_cpu=10.0)
        jobs = [cpu.execute(50.0) for _ in range(4)]
        env.run(env.all_of(jobs))
        # 4 jobs on 2 CPUs: each at 5 Mflop/s -> 10 s.
        assert env.now == pytest.approx(10.0)

    def test_late_arrival_slows_running_job(self, env):
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=10.0)
        finish = {}
        first = cpu.execute(100.0)
        first.add_callback(lambda _e: finish.setdefault("first", env.now))

        def latecomer():
            yield env.timeout(5.0)
            done = cpu.execute(25.0)
            yield done
            finish["second"] = env.now

        env.process(latecomer())
        env.run()
        # First runs alone for 5 s (50 Mflop done), then shares.
        # Second: 25 Mflop at 5 Mflop/s -> finishes at t=10.
        # First: 50 left, 25 done while sharing, 25 left alone -> t=12.5.
        assert finish["second"] == pytest.approx(10.0)
        assert finish["first"] == pytest.approx(12.5)

    def test_per_job_rate(self, env):
        cpu = CPU(env, n_cpus=2, mflops_per_cpu=10.0)
        assert cpu.per_job_rate() == 10.0
        cpu.execute(1000.0)
        assert cpu.per_job_rate() == 10.0
        cpu.execute(1000.0)
        cpu.execute(1000.0)
        cpu.execute(1000.0)
        assert cpu.per_job_rate() == pytest.approx(5.0)


class TestRunQueueAccounting:
    def test_runnable_jobs_counted(self, env):
        cpu = CPU(env, n_cpus=1)
        cpu.execute(1000.0)
        cpu.execute(1000.0)
        assert cpu.run_queue_length == 2

    def test_kernel_work_not_in_run_queue(self, env):
        cpu = CPU(env, n_cpus=1)
        cpu.kernel_work(1000.0)
        assert cpu.run_queue_length == 0
        assert cpu.active_jobs == 1

    def test_kernel_work_still_contends(self, env):
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=10.0)
        app = cpu.execute(50.0)
        cpu.kernel_work(50.0)
        env.run(app)
        assert env.now == pytest.approx(10.0)

    def test_kernel_work_is_fire_and_forget(self, env):
        """A kernel charge returns nothing and schedules no event: it
        completes on the next look."""
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=10.0)
        assert cpu.kernel_work(5.0) is None
        assert cpu.kernel_work(0.0) is None
        env.run(until=1.0)
        assert env.events_processed == 0
        assert cpu.active_jobs == 0
        cpu.settle()
        assert cpu.busy_cpu_seconds == pytest.approx(0.5)

    def test_cancel_kernel_job_without_event(self, env):
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=10.0)
        cpu.kernel_work(50.0)
        (job,) = cpu._jobs.values()
        assert job.done is None
        cpu.cancel(job)
        env.run()
        assert job.cancelled and cpu.active_jobs == 0

    def test_loadavg_rises_under_load(self, env):
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=1e-3)

        def hammer():
            # Keep 4 long jobs runnable and sample loadavg over time.
            for _ in range(4):
                cpu.execute(1e6)
            yield env.timeout(300.0)

        env.run(env.process(hammer()))
        one_min = cpu.load_averages()[0]
        assert one_min > 3.0


class TestLoadAverages:
    @staticmethod
    def five_jobs(read_at=()):
        """Five back-to-back 7.3 Mflop jobs on a 1 Mflop/s CPU (busy
        for 36.5 s), with optional reads, observed at t = 100 s."""
        env = Environment()
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=1.0)

        def worker():
            for _ in range(5):
                yield cpu.execute(7.3)

        def reader(t):
            yield env.timeout(t)
            cpu.load_averages()

        env.process(worker())
        for t in read_at:
            env.process(reader(t))
        env.run(until=100.0)
        return cpu

    def test_busy_period_folds_the_count_that_held(self):
        expected = (1 - math.exp(-36.5 / 60)) * math.exp(-63.5 / 60)
        one_min = self.five_jobs().load_averages()[0]
        assert one_min == pytest.approx(expected, rel=1e-9)

    def test_reading_never_changes_a_later_reading(self):
        quiet = self.five_jobs()
        read = self.five_jobs(read_at=(3.3, 11.1, 20.0))
        assert read.loadavg.loads == quiet.loadavg.loads
        assert read.load_averages() == quiet.load_averages()

    def test_idle_cpu_reads_zero(self, env):
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=1.0)
        cpu.kernel_work(5.0)
        env.run(until=10.0)
        assert cpu.load_averages() == (0.0, 0.0, 0.0)


class TestBusyAccounting:
    def test_busy_cpu_seconds(self, env):
        cpu = CPU(env, n_cpus=2, mflops_per_cpu=10.0)
        a = cpu.execute(50.0)
        b = cpu.execute(50.0)
        env.run(env.all_of([a, b]))
        assert cpu.busy_cpu_seconds == pytest.approx(10.0)  # 2 cpus x 5 s

    def test_work_conservation_under_churn(self, env):
        """Total delivered Mflop equals requested regardless of sharing."""
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=7.0)
        works = [3.0, 11.0, 5.5, 0.25, 9.0]

        def submit_later(w, delay):
            yield env.timeout(delay)
            yield cpu.execute(w)

        procs = [env.process(submit_later(w, i * 0.3))
                 for i, w in enumerate(works)]
        env.run(env.all_of(procs))
        expected = sum(works) / 7.0  # busy whole time after t=0
        assert cpu.busy_cpu_seconds == pytest.approx(expected, rel=1e-6)


class TestCancel:
    def test_cancel_fails_event(self, env):
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=10.0)
        job = cpu.submit(100.0)
        cpu.cancel(job)
        env.run()
        assert job.cancelled
        assert not job.done.ok

    def test_cancel_releases_capacity(self, env):
        cpu = CPU(env, n_cpus=1, mflops_per_cpu=10.0)
        victim = cpu.submit(1000.0)
        survivor = cpu.execute(50.0)

        def killer():
            yield env.timeout(1.0)
            cpu.cancel(victim)

        env.process(killer())
        env.run(survivor)
        # 1 s shared (5 Mflop done), then alone: 45/10 = 4.5 s more.
        assert env.now == pytest.approx(5.5)

    def test_cancel_twice_is_noop(self, env):
        cpu = CPU(env, n_cpus=1)
        job = cpu.submit(10.0)
        cpu.cancel(job)
        cpu.cancel(job)
        env.run()


def _busy_fraction(n_cpus: int, jobs: list[float], since: float,
                   until: float) -> float:
    """Utilisation over ``[since, until]`` the way PMC_MON and the
    power model take it: ``settle()`` and read ``busy_cpu_seconds`` at
    the window's two edges."""
    env = Environment()
    cpu = CPU(env, n_cpus=n_cpus, mflops_per_cpu=10.0)
    for work in jobs:
        cpu.execute(work)
    marks = []
    for edge in (since, until):
        if edge > env.now:
            env.run(until=edge)
        cpu.settle()
        marks.append(cpu.busy_cpu_seconds)
    return (marks[1] - marks[0]) / (n_cpus * (until - since))


class TestUtilization:
    def test_windowed_utilization_honors_since(self):
        # One CPU, busy on [0, 5], idle on [5, 10].
        assert _busy_fraction(1, [50.0], 0.0, 10.0) == pytest.approx(0.5)
        # A window entirely inside the idle span must read zero, not
        # the global mean.
        assert _busy_fraction(1, [50.0], 5.0, 10.0) == pytest.approx(0.0)
        assert _busy_fraction(1, [50.0], 6.0, 9.0) == pytest.approx(0.0)

    def test_window_straddling_transition_interpolates(self):
        # [2.5, 7.5]: busy for 2.5 of 5 seconds.
        assert _busy_fraction(1, [50.0], 2.5, 7.5) == pytest.approx(0.5)
        # [4, 6]: busy for 1 of 2 seconds.
        assert _busy_fraction(1, [50.0], 4.0, 6.0) == pytest.approx(0.5)

    def test_multi_cpu_partial_load(self):
        # 2 of 4 CPUs busy on [0, 5].
        assert _busy_fraction(4, [50.0, 50.0], 0.0, 5.0) \
            == pytest.approx(0.5)
        assert _busy_fraction(4, [50.0, 50.0], 1.0, 3.0) \
            == pytest.approx(0.5)


class TestConstantState:
    def test_job_churn_retains_no_history(self):
        """The CPU keeps state (an int, a float, the load average),
        not a log: 2,000 job churns retain what 200 do."""
        def device():
            env = Environment()
            cpu = CPU(env, n_cpus=1)

            def jobs(n: int):
                for _ in range(n):
                    yield cpu.submit(0.01, runnable=False).done

            return lambda n: env.run(env.process(jobs(n)))

        assert history_bytes(device) < 16 * 1024


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def scenario():
            e = Environment()
            cpu = CPU(e, n_cpus=2, mflops_per_cpu=3.3)
            times = []
            for i in range(10):
                done = cpu.execute(1.0 + i * 0.7)
                done.add_callback(lambda _e: times.append(e.now))
            e.run()
            return times

        assert scenario() == scenario()

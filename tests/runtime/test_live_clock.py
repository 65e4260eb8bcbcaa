"""The live generator driver: loop callbacks, interrupts, cancel, errors."""

from __future__ import annotations

import asyncio

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig
from repro.errors import InterruptError
from repro.live.clock import AsyncClock


def _run(body):
    """Run ``body(clock)`` (a coroutine function) on a fresh loop."""
    async def main():
        clock = AsyncClock()
        clock.start()
        return await body(clock)
    return asyncio.run(main())


class TestSteps:
    def test_steps_run_in_delay_order(self):
        order = []

        def sleeper(clock, name, delay):
            yield clock.timeout(delay)
            order.append(name)

        async def body(clock):
            for name, delay in (("c", 0.03), ("a", 0.01), ("b", 0.02)):
                clock.spawn(sleeper(clock, name, delay))
            await asyncio.sleep(0.1)

        _run(body)
        assert order == ["a", "b", "c"]

    def test_a_task_sleeps_for_what_it_yields(self):
        stamps = []

        def ticker(clock):
            for _ in range(3):
                stamps.append(clock.now)
                yield clock.timeout(0.02)

        async def body(clock):
            task = clock.spawn(ticker(clock))
            await asyncio.sleep(0.15)
            return task

        task = _run(body)
        assert not task.is_alive
        assert len(stamps) == 3
        assert all(b - a >= 0.019 for a, b in zip(stamps, stamps[1:]))

    def test_active_process_is_the_running_task(self):
        seen = []

        def probe(clock):
            seen.append(clock.active_process)
            yield clock.timeout(0.0)

        async def body(clock):
            task = clock.spawn(probe(clock))
            await asyncio.sleep(0.01)
            return task, clock.active_process

        task, outside = _run(body)
        assert seen == [task]
        assert outside is None


class TestInterrupt:
    def test_interrupt_raises_at_the_yield_and_the_task_carries_on(self):
        log = []

        def worker(clock):
            try:
                yield clock.timeout(10.0)
            except InterruptError as exc:
                log.append(("interrupted", exc.cause))
            yield clock.timeout(0.01)
            log.append("resumed")

        async def body(clock):
            task = clock.spawn(worker(clock))
            await asyncio.sleep(0.01)
            task.interrupt("wake")
            await asyncio.sleep(0.05)
            return task

        task = _run(body)
        assert log == [("interrupted", "wake"), "resumed"]
        assert not task.is_alive

    def test_an_unhandled_interrupt_ends_the_task_quietly(self):
        def worker(clock):
            yield clock.timeout(10.0)

        async def body(clock):
            task = clock.spawn(worker(clock))
            await asyncio.sleep(0.01)
            task.interrupt()
            await asyncio.sleep(0.01)
            return task

        task = _run(body)
        assert not task.is_alive
        assert task.clock.error is None

    def test_each_interrupt_is_delivered(self):
        causes = []

        def worker(clock):
            while len(causes) < 2:
                try:
                    yield clock.timeout(10.0)
                except InterruptError as exc:
                    causes.append(exc.cause)

        async def body(clock):
            task = clock.spawn(worker(clock))
            await asyncio.sleep(0.01)
            task.interrupt(1)
            task.interrupt(2)
            await asyncio.sleep(0.01)

        _run(body)
        assert causes == [1, 2]


class TestCancel:
    def test_cancel_runs_the_generators_finally(self):
        log = []

        def worker(clock):
            try:
                yield clock.timeout(10.0)
            finally:
                log.append("finally")

        async def body(clock):
            task = clock.spawn(worker(clock))
            await asyncio.sleep(0.01)
            clock.cancel_all()
            return task

        task = _run(body)
        assert log == ["finally"]
        assert not task.is_alive
        assert task.clock.tasks == []

    def test_n_sleeping_tasks_own_no_asyncio_task(self):
        def sleeper(clock):
            yield clock.timeout(10.0)

        async def body(clock):
            before = len(asyncio.all_tasks())
            for _ in range(50):
                clock.spawn(sleeper(clock))
            await asyncio.sleep(0.01)
            during = len(asyncio.all_tasks())
            clock.cancel_all()
            return before, during

        before, during = _run(body)
        assert during == before


class TestErrors:
    def test_the_first_exception_is_kept(self):
        def failing(clock, exc):
            yield clock.timeout(0.01)
            raise exc

        first, second = ValueError("first"), KeyError("second")

        async def body(clock):
            clock.spawn(failing(clock, first))
            await asyncio.sleep(0.005)
            clock.spawn(failing(clock, second))
            await asyncio.sleep(0.05)
            return clock.error

        assert _run(body) is first

    @pytest.mark.parametrize("backend", ["sim", "live"])
    def test_a_raising_poll_loop_fails_the_run(self, backend):
        """A module whose ``collect`` raises ends its d-mon's poll loop;
        the run raises it on both backends instead of returning."""
        def boom(now):
            raise ValueError("collect failed")

        def setup(sc):
            sc.dprocs["maui"].dmon.modules["cpu"].collect = boom

        sc = Scenario(nodes=2, seed=1, backend=backend,
                      dmon=DMonConfig(poll_interval=0.05),
                      names=["alan", "maui"]).with_setup(setup)
        with pytest.raises(ValueError, match="collect failed"):
            sc.run(0.5)
        assert sc.dprocs["maui"].dmon.polls == 1

"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import InterruptError, SchedulingError, SimulationError
from repro.sim import Environment, SimEvent


class TestClockAndRun:
    def test_time_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_until_time_advances_clock(self, env):
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_raises(self, env):
        env.run(until=5.0)
        with pytest.raises(SchedulingError):
            env.run(until=1.0)

    def test_run_empty_returns_none(self, env):
        assert env.run() is None

    def test_step_on_empty_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestTimeout:
    def test_timeout_fires_at_delay(self, env):
        t = env.timeout(2.0)
        env.run()
        assert t.processed
        assert env.now == 2.0

    def test_timeout_carries_value(self, env):
        t = env.timeout(1.0, value="payload")
        env.run()
        assert t.value == "payload"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SchedulingError):
            env.timeout(-1.0)

    def test_zero_delay_fires_immediately(self, env):
        t = env.timeout(0.0)
        env.step()
        assert t.processed
        assert env.now == 0.0

    def test_same_time_fifo_order(self, env):
        order = []
        a = env.timeout(1.0)
        b = env.timeout(1.0)
        a.add_callback(lambda _e: order.append("a"))
        b.add_callback(lambda _e: order.append("b"))
        env.run()
        assert order == ["a", "b"]


class TestEventLifecycle:
    def test_untriggered_state(self, env):
        ev = env.event()
        assert not ev.triggered and not ev.processed

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().ok

    def test_succeed_then_processed(self, env):
        ev = env.event()
        ev.succeed(7)
        env.run()
        assert ev.processed and ev.ok and ev.value == 7

    def test_double_succeed_raises(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_unhandled_failure_propagates_from_run(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_defused_failure_is_silent(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        ev.defused = True
        env.run()  # must not raise

    def test_late_callback_fires_immediately(self, env):
        ev = env.event()
        ev.succeed(1)
        env.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [1]

    def test_remove_callback(self, env):
        ev = env.event()
        seen = []
        cb = lambda e: seen.append(1)  # noqa: E731
        ev.add_callback(cb)
        ev.remove_callback(cb)
        ev.succeed()
        env.run()
        assert seen == []


class TestProcess:
    def test_process_runs_and_returns(self, env):
        def proc():
            yield env.timeout(1.0)
            yield env.timeout(2.0)
            return "done"

        p = env.process(proc())
        result = env.run(p)
        assert result == "done"
        assert env.now == 3.0

    def test_process_receives_timeout_value(self, env):
        def proc():
            got = yield env.timeout(1.0, value=99)
            return got

        assert env.run(env.process(proc())) == 99

    def test_yield_non_event_fails_process(self, env):
        def proc():
            yield 42

        p = env.process(proc())
        with pytest.raises(SimulationError, match="non-event"):
            env.run(p)

    def test_process_exception_propagates(self, env):
        def proc():
            yield env.timeout(1.0)
            raise RuntimeError("inside")

        with pytest.raises(RuntimeError, match="inside"):
            env.run(env.process(proc()))

    def test_join_another_process(self, env):
        def worker():
            yield env.timeout(5.0)
            return "w"

        def boss(w):
            result = yield w
            return f"got {result}"

        w = env.process(worker())
        b = env.process(boss(w))
        assert env.run(b) == "got w"

    def test_join_already_finished_process(self, env):
        def worker():
            yield env.timeout(1.0)
            return 3

        w = env.process(worker())
        env.run(until=2.0)

        def boss():
            v = yield w
            return v

        assert env.run(env.process(boss())) == 3

    def test_is_alive(self, env):
        def proc():
            yield env.timeout(1.0)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_waiting_on_failed_event_throws_in(self, env):
        ev = env.event()

        def proc():
            try:
                yield ev
            except ValueError:
                return "caught"

        p = env.process(proc())
        ev.fail(ValueError("x"))
        assert env.run(p) == "caught"


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        def victim():
            try:
                yield env.timeout(100.0)
            except InterruptError as exc:
                return exc.cause

        def attacker(v):
            yield env.timeout(1.0)
            v.interrupt("stop it")

        v = env.process(victim())
        env.process(attacker(v))
        assert env.run(v) == "stop it"
        assert env.now == 1.0

    def test_interrupt_then_rewait_same_event(self, env):
        timer_holder = {}

        def victim():
            timer = env.timeout(10.0, value="fired")
            timer_holder["t"] = timer
            try:
                yield timer
            except InterruptError:
                pass
            got = yield timer  # re-wait: timer still pending
            return got

        def attacker(v):
            yield env.timeout(1.0)
            v.interrupt()

        v = env.process(victim())
        env.process(attacker(v))
        assert env.run(v) == "fired"
        assert env.now == 10.0

    def test_interrupt_finished_process_raises(self, env):
        def quick():
            yield env.timeout(0.5)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_self_interrupt_rejected(self, env):
        def selfish():
            me = env.active_process
            me.interrupt()
            yield env.timeout(1)

        p = env.process(selfish())
        with pytest.raises(SimulationError, match="itself"):
            env.run(p)

    def test_uncaught_interrupt_fails_process(self, env):
        def victim():
            yield env.timeout(100.0)

        def attacker(v):
            yield env.timeout(1.0)
            v.interrupt()

        v = env.process(victim())
        env.process(attacker(v))
        with pytest.raises(InterruptError):
            env.run(v)


class TestConditions:
    def test_all_of_waits_for_everything(self, env):
        a, b = env.timeout(1.0, "a"), env.timeout(3.0, "b")
        cond = env.all_of([a, b])

        def proc():
            result = yield cond
            return result

        result = env.run(env.process(proc()))
        assert env.now == 3.0
        assert result[a] == "a" and result[b] == "b"

    def test_empty_condition_fires_immediately(self, env):
        def proc():
            result = yield env.all_of([])
            return result

        assert env.run(env.process(proc())) == {}

    def test_condition_failure_propagates(self, env):
        bad = env.event()

        def proc():
            yield env.all_of([bad, env.timeout(5.0)])

        p = env.process(proc())
        bad.fail(RuntimeError("sub failed"))
        with pytest.raises(RuntimeError, match="sub failed"):
            env.run(p)

    def test_cross_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            env.all_of([other.timeout(1.0)])


class TestRunUntilEvent:
    def test_run_until_event_returns_value(self, env):
        def proc():
            yield env.timeout(2.0)
            return 11

        assert env.run(env.process(proc())) == 11

    def test_run_until_never_triggering_event_raises(self, env):
        ev = env.event()
        env.timeout(1.0)
        with pytest.raises(SimulationError, match="ran dry"):
            env.run(ev)

    def test_deterministic_replay(self):
        def scenario():
            e = Environment()
            trace = []

            def proc(tag, delay):
                yield e.timeout(delay)
                trace.append((tag, e.now))

            for i in range(20):
                e.process(proc(i, (i * 7) % 5 + 0.5))
            e.run()
            return trace

        assert scenario() == scenario()

"""Unit tests for Store / Resource."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Store


class TestStore:
    def test_put_then_get_fifo(self, env):
        store = Store(env)

        def proc():
            store.put("a")
            store.put("b")
            first = yield store.get()
            second = yield store.get()
            return (first, second)

        assert env.run(env.process(proc())) == ("a", "b")

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        log = []

        def consumer():
            item = yield store.get()
            log.append((env.now, item))

        def producer():
            yield env.timeout(5.0)
            store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert log == [(5.0, "late")]

    def test_len_counts_buffered_items(self, env):
        store = Store(env)
        store.put("x")
        store.put("y")
        env.run()
        assert len(store) == 2

    def test_multiple_getters_served_in_order(self, env):
        store = Store(env)
        got = []

        def getter(tag):
            item = yield store.get()
            got.append((tag, item))

        env.process(getter("first"))
        env.process(getter("second"))

        def producer():
            yield env.timeout(1.0)
            store.put("x")
            store.put("y")

        env.process(producer())
        env.run()
        assert got == [("first", "x"), ("second", "y")]


class TestResource:
    def test_grants_up_to_capacity(self, env):
        res = Resource(env, capacity=2)
        granted = []

        def user(tag, hold):
            req = res.request()
            yield req
            granted.append((tag, env.now))
            yield env.timeout(hold)
            req.release()

        env.process(user("a", 5))
        env.process(user("b", 5))
        env.process(user("c", 1))
        env.run()
        assert granted == [("a", 0.0), ("b", 0.0), ("c", 5.0)]

    def test_count_tracks_holders(self, env):
        res = Resource(env, capacity=1)

        def user():
            req = res.request()
            yield req
            assert res.count == 1
            yield env.timeout(1)
            req.release()

        env.run(env.process(user()))
        assert res.count == 0

    def test_release_unknown_request_raises(self, env):
        res = Resource(env)
        other = Resource(env)
        req = other.request()
        env.run()
        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        held = res.request()
        queued = res.request()
        env.run()
        res.release(queued)  # cancel while still waiting
        res.release(held)
        env.run()
        assert res.count == 0

    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

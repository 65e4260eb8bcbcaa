"""Unit tests for the memory and disk models."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Disk, Environment, Memory
from repro.units import MB, PAGE_SIZE, msec
from tests.conftest import history_bytes


class TestMemory:
    def test_initial_free_accounts_reservation(self, env):
        mem = Memory(env, capacity_bytes=MB(512), reserved_bytes=MB(32))
        assert mem.free_bytes == pytest.approx(MB(480))

    def test_allocate_and_free(self, env):
        mem = Memory(env, capacity_bytes=MB(64), reserved_bytes=0)
        a = mem.allocate(MB(10), tag="buf")
        assert mem.free_bytes == pytest.approx(MB(54))
        a.free()
        assert mem.free_bytes == pytest.approx(MB(64))

    def test_free_idempotent(self, env):
        mem = Memory(env, capacity_bytes=MB(64), reserved_bytes=0)
        a = mem.allocate(MB(1))
        a.free()
        a.free()  # must not raise or double-count
        assert mem.free_bytes == pytest.approx(MB(64))

    def test_out_of_memory_raises(self, env):
        mem = Memory(env, capacity_bytes=MB(16), reserved_bytes=0)
        with pytest.raises(SimulationError, match="out of memory"):
            mem.allocate(MB(17))

    def test_negative_allocation_rejected(self, env):
        mem = Memory(env)
        with pytest.raises(SimulationError):
            mem.allocate(-1)

    def test_nr_free_pages(self, env):
        mem = Memory(env, capacity_bytes=PAGE_SIZE * 1000,
                     reserved_bytes=0)
        mem.allocate(PAGE_SIZE * 250)
        assert mem.nr_free_pages() == 750

    def test_allocation_churn_retains_no_history(self):
        """MEM_MON samples ``nr_free_pages()``; nothing logs it: 2,000
        allocate/free pairs retain what 200 do."""
        def device():
            mem = Memory(Environment(), capacity_bytes=MB(64))

            def churn(n: int) -> None:
                for _ in range(n):
                    mem.allocate(MB(1)).free()

            return churn

        assert history_bytes(device) < 16 * 1024

    def test_invalid_construction(self, env):
        with pytest.raises(SimulationError):
            Memory(env, capacity_bytes=0)
        with pytest.raises(SimulationError):
            Memory(env, capacity_bytes=100, reserved_bytes=200)


class TestDisk:
    def test_service_time_model(self, env):
        disk = Disk(env, transfer_rate=MB(20), per_op_latency=msec(8))
        expect = msec(8) + MB(10) / MB(20)
        assert disk.service_time(MB(10)) == pytest.approx(expect)

    def test_write_advances_clock(self, env):
        disk = Disk(env, transfer_rate=MB(20), per_op_latency=msec(8))
        done = disk.write(MB(2))
        env.run(done)
        assert env.now == pytest.approx(msec(8) + 0.1)

    def test_fifo_service(self, env):
        disk = Disk(env, transfer_rate=MB(20), per_op_latency=0.0)
        finish = {}
        a = disk.write(MB(20))  # 1 s
        b = disk.read(MB(20))   # queued behind a
        a.add_callback(lambda _e: finish.setdefault("a", env.now))
        b.add_callback(lambda _e: finish.setdefault("b", env.now))
        env.run()
        assert finish["a"] == pytest.approx(1.0)
        assert finish["b"] == pytest.approx(2.0)

    def test_counters(self, env):
        disk = Disk(env)
        env.run(disk.write(1024))
        env.run(disk.read(2048))
        assert disk.writes.total == 1
        assert disk.reads.total == 1
        assert disk.sectors_written.total == pytest.approx(2.0)
        assert disk.sectors_read.total == pytest.approx(4.0)

    def test_small_op_counts_one_sector(self, env):
        disk = Disk(env)
        env.run(disk.write(10))
        assert disk.sectors_written.total == pytest.approx(1.0)

    def test_utilization_grows_with_activity(self, env):
        disk = Disk(env, transfer_rate=MB(10), per_op_latency=0.0)

        def loop():
            for _ in range(5):
                yield disk.write(MB(1))
                yield env.timeout(0.1)

        env.run(env.process(loop()))
        assert 0.3 < disk.busy_seconds / env.now < 0.7

    def test_negative_size_rejected(self, env):
        disk = Disk(env)
        with pytest.raises(SimulationError):
            env.run(disk.write(-5))

    def test_invalid_construction(self, env):
        with pytest.raises(SimulationError):
            Disk(env, transfer_rate=0)
        with pytest.raises(SimulationError):
            Disk(env, per_op_latency=-1)

"""Host-backed modules: held ``/proc`` descriptors and disk rows."""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest

from repro.dproc import MetricId
from repro.live import modules, node
from repro.live.modules import (HostCpuMon, HostDiskMon, HostMemMon,
                                HostNetMon, _disk_totals)
from repro.live.node import HostCpu, HostMemory, _read_proc


@pytest.fixture
def held():
    """The descriptor table, emptied of what the test held."""
    before = dict(node._held)
    yield node._held
    for path in set(node._held) - set(before):
        os.close(node._held.pop(path))


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestHeldDescriptors:
    def test_rewrite_in_place_is_seen_through_the_held_descriptor(
            self, tmp_path, held):
        path = tmp_path / "stat"
        path.write_text("first\n")
        assert _read_proc(str(path)) == "first\n"
        fd = held[str(path)]
        path.write_text("second, and longer\n")
        assert _read_proc(str(path)) == "second, and longer\n"
        assert held[str(path)] == fd

    def test_reads_to_eof_whatever_the_size(self, tmp_path, held):
        path = tmp_path / "big"
        text = "0123456789abcdef" * 20_000  # several preads' worth
        path.write_text(text)
        assert _read_proc(str(path)) == text

    def test_missing_path_reads_empty_and_holds_nothing(self, tmp_path,
                                                        held):
        path = str(tmp_path / "absent")
        before = _open_fds()
        assert _read_proc(path) == ""
        assert path not in held
        assert _open_fds() == before

    def test_failing_descriptor_is_dropped_and_reopened(self, tmp_path,
                                                        held):
        path = tmp_path / "stat"
        path.write_text("text\n")
        assert _read_proc(str(path)) == "text\n"
        # The held descriptor starts failing: put one in its place
        # that cannot be read (pread on a directory is EISDIR).
        os.close(held[str(path)])
        held[str(path)] = os.open(str(tmp_path), os.O_RDONLY)
        before = _open_fds()
        assert _read_proc(str(path)) == ""
        assert str(path) not in held
        assert _open_fds() == before - 1
        assert _read_proc(str(path)) == "text\n"

    def test_a_thousand_polls_hold_at_most_four_descriptors(self):
        host = SimpleNamespace(name="node0", cpu=HostCpu(),
                               memory=HostMemory())
        mons = [cls(host) for cls in (HostCpuMon, HostMemMon,
                                      HostDiskMon, HostNetMon)]
        before = _open_fds()
        for i in range(1000):
            for mon in mons:
                samples = mon.collect(float(i))
                assert len(samples) == len(mon.metrics())
        assert _open_fds() <= before + 4


DISKSTATS = """\
   8       0 sda 100 0 1000 0 10 0 200 0 0 0 0 0 0 0 0 0 0
   8       1 sda1 90 0 900 0 9 0 180 0 0 0 0 0 0 0 0 0 0
 259       0 nvme0n1 200 0 2000 0 20 0 400 0 0 0 0 0 0 0 0 0 0
 259       1 nvme0n1p1 190 0 1900 0 19 0 380 0 0 0 0 0 0 0 0 0 0
 179       0 mmcblk0 300 0 3000 0 30 0 600 0 0 0 0 0 0 0 0 0 0
 179       2 mmcblk0p2 290 0 2900 0 29 0 580 0 0 0 0 0 0 0 0 0 0
   7       0 loop0 7 0 70 0 7 0 70 0 0 0 0 0 0 0 0 0 0
 253       0 dm-0 50 0 500 0 5 0 100 0 0 0 0 0 0 0 0 0 0
 252       0 zram0 60 0 600 0 6 0 120 0 0 0 0 0 0 0 0 0 0
"""


class TestDiskRows:
    def test_whole_hardware_devices_are_summed_once(self):
        whole = frozenset({"sda", "nvme0n1", "mmcblk0"})
        sectors, reads, writes = _disk_totals(DISKSTATS, whole)
        assert reads == 100 + 200 + 300
        assert writes == 10 + 20 + 30
        assert sectors == (1000 + 200) + (2000 + 400) + (3000 + 600)

    def test_without_sys_block_a_whole_device_has_no_digit(self):
        """The fallback, and the reason it is one: it cannot see the
        NVMe and eMMC devices."""
        assert _disk_totals(DISKSTATS, None) == (1000 + 200, 100, 10)

    def test_short_rows_are_skipped(self):
        assert _disk_totals("8 0 sda 1 2 3\n\n",
                            frozenset({"sda"})) == (0.0, 0.0, 0.0)

    def test_module_reports_rates_over_the_device_set(self, monkeypatch):
        monkeypatch.setattr(modules, "_whole_devices",
                            lambda: frozenset({"nvme0n1"}))
        later = DISKSTATS.replace("nvme0n1 200 0 2000 0 20 0 400",
                                  "nvme0n1 260 0 2500 0 40 0 500")
        texts = iter([DISKSTATS, later])
        monkeypatch.setattr(modules, "_read_proc",
                            lambda path: next(texts))
        mon = HostDiskMon(SimpleNamespace(name="node0"))
        mon.collect(10.0)
        rates = dict(zip(mon.metrics(), mon.collect(12.0)))
        assert rates == {MetricId.DISKUSAGE: 300.0,
                         MetricId.DISK_READS: 30.0,
                         MetricId.DISK_WRITES: 10.0}

    def test_this_hosts_device_set_has_no_partition_or_loop(self):
        whole = modules._whole_devices()
        if whole is None:
            pytest.skip("no /sys/block on this platform")
        assert not [name for name in whole
                    if name.startswith(("loop", "dm-", "zram"))]
        assert all(os.path.isdir(f"/sys/block/{name}") for name in whole)


class TestHostLoadavg:
    def test_proc_loadavg_reads_the_host_kernel(self, monkeypatch):
        """The toolkit's ``/proc/loadavg`` reads a live node's CPU
        through ``load_averages()``: the host kernel's own figures."""
        import asyncio

        from repro.dproc import DMonConfig, Dproc
        from repro.kecho import KechoBus
        from repro.live.clock import AsyncClock
        from repro.live.node import LiveNode

        monkeypatch.setattr(os, "getloadavg", lambda: (1.5, 0.25, 0.5))

        async def read():
            clock = AsyncClock()
            clock.start()
            node = LiveNode("alan", clock)
            text = Dproc(node, KechoBus(), DMonConfig()).read(
                "/proc/loadavg")
            await node.stack.stop()
            return text

        assert asyncio.run(read()) == "1.50 0.25 0.50\n"

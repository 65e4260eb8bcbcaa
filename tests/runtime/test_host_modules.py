"""Host-backed modules: held descriptors and the host sources."""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest

from repro.dproc import MetricId
from repro.errors import DprocError
from repro.live import modules, node
from repro.live.modules import (HostCpuMon, HostDiskMon, HostMemMon,
                                HostNetMon)
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
        """Net's two files plus one stat file per whole device (four
        on a host with two disks); cpu and mem hold none."""
        host = SimpleNamespace(name="node0", cpu=HostCpu(),
                               memory=HostMemory())
        mons = [cls(host) for cls in (HostCpuMon, HostMemMon,
                                      HostDiskMon, HostNetMon)]
        before = _open_fds()
        for i in range(1000):
            for mon in mons:
                samples = mon.collect(float(i))
                assert len(samples) == len(mon.metrics())
        assert _open_fds() <= before + 2 + len(modules._whole_devices())


class TestHostMemory:
    @staticmethod
    def _meminfo() -> dict[str, float]:
        try:
            with open("/proc/meminfo") as fh:
                lines = fh.read().splitlines()
        except OSError:
            pytest.skip("no /proc/meminfo on this platform")
        return {key: float(rest.split()[0]) * 1024.0
                for key, _, rest in (line.partition(":")
                                     for line in lines)}

    def test_capacity_is_meminfo_memtotal(self):
        assert HostMemory().capacity_bytes == self._meminfo()["MemTotal"]

    def test_free_is_meminfo_memfree(self):
        """Read a moment apart, so equal to within 1 % of the total."""
        info = self._meminfo()
        assert (abs(HostMemory().free_bytes - info["MemFree"])
                <= 0.01 * info["MemTotal"])

    def test_without_the_sysconf_name_memory_reads_zero(self,
                                                        monkeypatch):
        def sysconf(name):
            raise ValueError(f"unrecognized configuration name {name}")

        monkeypatch.setattr(os, "sysconf", sysconf)
        memory = HostMemory()
        assert (memory.capacity_bytes, memory.free_bytes) == (0.0, 0.0)
        assert HostMemMon(SimpleNamespace(
            name="node0", memory=memory)).collect(1.0) == [0.0]


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


def _stat_files(diskstats: str) -> dict[str, str]:
    """``/sys/block/<dev>/stat`` text per device of ``diskstats``: the
    row without its major, minor and name columns."""
    files = {}
    for line in diskstats.splitlines():
        fields = line.split()
        files[f"/sys/block/{fields[2]}/stat"] = (
            " ".join(fields[3:]) + "\n")
    return files


class TestDiskRows:
    def test_whole_hardware_devices_are_summed_once(self, monkeypatch):
        files = _stat_files(DISKSTATS)
        monkeypatch.setattr(
            modules, "_whole_devices",
            lambda: frozenset({"sda", "nvme0n1", "mmcblk0"}))
        monkeypatch.setattr(modules, "_read_proc", files.__getitem__)
        sectors, reads, writes = HostDiskMon(
            SimpleNamespace(name="node0"))._totals()
        assert reads == 100 + 200 + 300
        assert writes == 10 + 20 + 30
        assert sectors == (1000 + 200) + (2000 + 400) + (3000 + 600)

    def test_stat_fields_0_2_4_6_are_reads_sectors_writes_sectors(
            self, monkeypatch):
        monkeypatch.setattr(modules, "_whole_devices",
                            lambda: frozenset({"vda"}))
        monkeypatch.setattr(modules, "_read_proc",
                            lambda path: "1 2 3 4 5 6 7 8 9 10 11\n")
        assert HostDiskMon(SimpleNamespace(name="node0"))._totals() == (
            3 + 7, 1, 5)

    def test_a_short_stat_file_counts_nothing(self, monkeypatch):
        files = {"/sys/block/sda/stat": "1 2 3\n",
                 "/sys/block/vda/stat": "",
                 "/sys/block/vdb/stat": "10 0 100 0 1 0 20 0 0 0 0\n"}
        monkeypatch.setattr(modules, "_whole_devices",
                            lambda: frozenset({"sda", "vda", "vdb"}))
        monkeypatch.setattr(modules, "_read_proc", files.__getitem__)
        assert HostDiskMon(SimpleNamespace(name="node0"))._totals() == (
            120.0, 10.0, 1.0)

    def test_an_empty_device_set_reads_zero_rates(self, monkeypatch):
        def unlistable(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(os, "listdir", unlistable)
        assert modules._whole_devices() == frozenset()
        mon = HostDiskMon(SimpleNamespace(name="node0"))
        assert mon.collect(10.0) == [0.0, 0.0, 0.0]
        assert mon.collect(12.0) == [0.0, 0.0, 0.0]

    def test_module_reports_rates_over_the_device_set(self, monkeypatch):
        monkeypatch.setattr(modules, "_whole_devices",
                            lambda: frozenset({"nvme0n1"}))
        later = DISKSTATS.replace("nvme0n1 200 0 2000 0 20 0 400",
                                  "nvme0n1 260 0 2500 0 40 0 500")
        texts = iter([_stat_files(DISKSTATS), _stat_files(later)])
        monkeypatch.setattr(modules, "_read_proc",
                            lambda path: next(texts)[path])
        mon = HostDiskMon(SimpleNamespace(name="node0"))
        mon.collect(10.0)
        rates = dict(zip(mon.metrics(), mon.collect(12.0)))
        assert rates == {MetricId.DISKUSAGE: 300.0,
                         MetricId.DISK_READS: 30.0,
                         MetricId.DISK_WRITES: 10.0}

    def test_this_hosts_totals_are_its_diskstats_rows(self):
        """Between two reads of ``/proc/diskstats`` the module's totals
        lie between the rows' sums, and equal them when no I/O ran."""
        whole = modules._whole_devices()
        if not whole:
            pytest.skip("no hardware block device on this platform")

        def diskstats() -> tuple[float, float, float]:
            reads = writes = sectors = 0.0
            with open("/proc/diskstats") as fh:
                for fields in map(str.split, fh):
                    if fields[2] in whole:
                        reads += float(fields[3])
                        sectors += float(fields[5]) + float(fields[9])
                        writes += float(fields[7])
            return sectors, reads, writes

        mon = HostDiskMon(SimpleNamespace(name="node0"))
        for _ in range(20):
            before, totals, after = diskstats(), mon._totals(), diskstats()
            if before == after:
                assert totals == before
                return
            assert all(b <= t <= a
                       for b, t, a in zip(before, totals, after))
        pytest.skip("the disks never stood still for three reads")

    def test_this_hosts_device_set_has_no_partition_or_loop(self):
        whole = modules._whole_devices()
        assert not [name for name in whole
                    if name.startswith(("loop", "dm-", "zram"))]
        assert all(os.path.isdir(f"/sys/block/{name}") for name in whole)


NET_DEV = """\
Inter-|   Receive                                                |  Transmit
 face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed
    lo: 9000 10 0 0 0 0 0 0 9000 10 0 0 0 0 0 0
  eth0: 100 1 0 0 0 0 0 0 2000 2 0 0 0 0 0 0
  eth1:5 1 0 0 0 0 0 0 300 3 0 0 0 0 0 0
  bad0: 1 2 3
"""

NET_SNMP = """\
Ip: Forwarding DefaultTTL
Ip: 1 64
Tcp: RtoAlgorithm RtoMin ActiveOpens RetransSegs InErrs
Tcp: 1 200 17 42 0
Udp: InDatagrams RetransSegs
Udp: 5 99
"""


class TestNetRows:
    def test_tx_bytes_skip_loopback_headers_and_short_rows(
            self, monkeypatch):
        monkeypatch.setattr(modules, "_read_proc", lambda path: NET_DEV)
        assert HostNetMon._tx_bytes() == 2000 + 300

    def test_retransmissions_come_from_the_tcp_line_pair(
            self, monkeypatch):
        monkeypatch.setattr(modules, "_read_proc", lambda path: NET_SNMP)
        assert HostNetMon._retransmissions() == 42.0

    @pytest.mark.parametrize("text", [
        "", "Ip: 1\nIp: 2\n", "Tcp: RtoAlgorithm RetransSegs\n",
        "Tcp: RtoAlgorithm InErrs\nTcp: 1 2\n",
        "Tcp: RtoAlgorithm RetransSegs\nTcp: 1\n",
        "Tcp: RtoAlgorithm RetransSegs\nTcp: 1 x\n"])
    def test_malformed_snmp_reads_zero(self, monkeypatch, text):
        monkeypatch.setattr(modules, "_read_proc", lambda path: text)
        assert HostNetMon._retransmissions() == 0.0

    def test_this_hosts_retransmissions_match_a_full_parse(self):
        """The ``find`` against a split of every line, read first: the
        counter only grows."""
        try:
            with open("/proc/net/snmp") as fh:
                lines = fh.read().splitlines()
        except OSError:
            pytest.skip("no /proc/net/snmp on this platform")
        tcp = [line.split() for line in lines if line.startswith("Tcp:")]
        expected = float(tcp[1][tcp[0].index("RetransSegs")])
        assert expected <= HostNetMon._retransmissions()


class TestHostCpuMon:
    def test_period_is_rejected_like_any_unhonoured_option(self):
        """The host kernel's averaging window is fixed, so the sim
        module's ``period`` knob is not an option here."""
        mon = HostCpuMon(SimpleNamespace(name="node0", cpu=HostCpu()))
        with pytest.raises(DprocError, match="no option 'period'"):
            mon.configure("period", 5.0)


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

"""Unit tests for the alarm watchers."""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import MetricId
from repro.dproc.alarms import AlarmManager
from repro.errors import DprocError
from repro.units import MB
from repro.workloads import Linpack


@pytest.fixture
def system(sc3):
    for dp in sc3.dprocs.values():
        dp.dmon.modules["cpu"].configure("period", 3.0)
    manager = AlarmManager(sc3.dprocs["alan"].dmon)
    return manager, sc3.dprocs, sc3.nodes


class TestFiring:
    def test_rising_edge_fires_once(self, sc3, system):
        manager, _dprocs, cluster = system
        fired = []
        manager.watch_above(MetricId.LOADAVG, 1.5,
                            lambda a, h, v, t: fired.append((h, v)))
        for _ in range(3):
            Linpack(cluster["maui"]).start()
        sc3.run_until(60.0)
        # Sustained overload: exactly one firing, not one per sample.
        assert len(fired) == 1
        host, value = fired[0]
        assert host == "maui" and value > 1.5

    def test_host_filter(self, sc3, system):
        manager, _dprocs, cluster = system
        fired = []
        manager.watch_above(MetricId.LOADAVG, 1.5,
                            lambda a, h, v, t: fired.append(h),
                            host="etna")
        for _ in range(3):
            Linpack(cluster["maui"]).start()
        sc3.run_until(60.0)
        assert fired == []  # only etna is watched; etna is idle

    def test_watch_below(self, sc3, system):
        manager, _dprocs, cluster = system
        fired = []
        manager.watch_below(MetricId.FREEMEM, MB(200),
                            lambda a, h, v, t: fired.append(h))
        sc3.run_until(5.0)
        assert fired == []
        hog = cluster["etna"].memory.allocate(MB(350), tag="hog")
        sc3.run_until(10.0)
        assert fired == ["etna"]
        hog.free()

    def test_rearm_after_clear(self, sc3, system):
        manager, _dprocs, cluster = system
        fired = []
        alarm = manager.watch_below(
            MetricId.FREEMEM, MB(200),
            lambda a, h, v, t: fired.append(sc3.env.now))
        hog = cluster["maui"].memory.allocate(MB(350), tag="hog")
        sc3.run_until(10.0)
        hog.free()          # clears well past the hysteresis band
        sc3.run_until(20.0)
        hog2 = cluster["maui"].memory.allocate(MB(350), tag="hog")
        sc3.run_until(30.0)
        assert len(fired) == 2
        assert alarm.firings == 2
        hog2.free()

    def test_log_records_firings(self, sc3, system):
        manager, _dprocs, cluster = system
        alarm = manager.watch_above(MetricId.LOADAVG, 1.0,
                                    lambda a, h, v, t: None)
        for _ in range(2):
            Linpack(cluster["etna"]).start()
        sc3.run_until(60.0)
        assert len(manager.log) == 1
        alarm_id, host, value, when = manager.log[0]
        assert alarm_id == alarm.alarm_id
        assert host == "etna" and when > 0

    def test_cancel_removes_alarm(self, sc3, system):
        manager, _dprocs, cluster = system
        fired = []
        alarm = manager.watch_above(MetricId.LOADAVG, 1.0,
                                    lambda a, h, v, t:
                                    fired.append(h))
        alarm.cancel()
        for _ in range(3):
            Linpack(cluster["maui"]).start()
        sc3.run_until(60.0)
        assert fired == []
        assert alarm not in manager.alarms

    def test_validation(self, system):
        manager, _dprocs, _cluster = system
        with pytest.raises(DprocError):
            manager.watch(MetricId.LOADAVG, lambda v: True,
                          lambda a, h, v, t: None, clear_fraction=-1)

    def test_multiple_hosts_tracked_independently(self, sc3, system):
        manager, _dprocs, cluster = system
        fired = []
        manager.watch_above(MetricId.LOADAVG, 1.5,
                            lambda a, h, v, t: fired.append(h))
        for _ in range(3):
            Linpack(cluster["maui"]).start()
        sc3.run_until(60.0)
        for _ in range(3):
            Linpack(cluster["etna"]).start()
        sc3.run_until(120.0)
        assert sorted(fired) == ["etna", "maui"]

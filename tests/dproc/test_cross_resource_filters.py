"""Integration tests for cross-resource filter conditions.

The paper's §1 lists what makes dynamic filters more powerful than
parameters: "they can implement complex relationships between
monitoring results (e.g., 'monitor the available memory only if disk
access times exceed a critical threshold')".  These tests exercise
exactly that: scoped filters whose conditions read *other* modules'
metrics.
"""

from __future__ import annotations

import pytest

from repro.dproc import DMon, DMonConfig, MetricId, \
    register_default_modules
from repro.kecho import KechoBus
from repro.units import MB


@pytest.fixture
def pair(env, cluster3):
    bus = KechoBus()
    a = DMon(cluster3["alan"], bus, DMonConfig(poll_interval=1.0))
    b = DMon(cluster3["maui"], bus, DMonConfig(poll_interval=1.0))
    register_default_modules(a)
    register_default_modules(b)
    a.start()
    b.start()
    return a, b


class TestCrossResourceConditions:
    def test_mem_scoped_filter_reads_disk_metric(self, env, pair,
                                                 cluster3):
        """The paper's exact example: memory published only while the
        disk is busy."""
        a, b = pair
        a.filters.deploy("""
        {
            if (input[DISKUSAGE].value > 100) {
                output[0] = input[FREEMEM];
            }
        }
        """, scope="mem")
        env.run(until=10.0)
        # Idle disk: no FREEMEM updates (but other modules unaffected).
        assert b.remote_value("alan", MetricId.FREEMEM) is None
        assert b.remote_value("alan", MetricId.LOADAVG) is not None

        # Hammer the disk; FREEMEM starts flowing.
        def disk_load():
            while True:
                yield cluster3["alan"].disk.write(MB(1))
                yield env.timeout(0.1)

        env.process(disk_load())
        env.run(until=20.0)
        entry = b.remote_value("alan", MetricId.FREEMEM)
        assert entry is not None and entry.timestamp > 10.0

    def test_filter_combines_app_level_constant(self, env, pair):
        """Conditions can bake in application-level thresholds
        (paper: integrating application- and system-level info)."""
        a, b = pair
        # An imagined app knows it needs 50 MB headroom:
        a.filters.deploy(f"""
        {{
            if (input[FREEMEM].value < {MB(50)}) {{
                output[0] = input[FREEMEM];
            }}
        }}
        """, scope="mem")
        env.run(until=5.0)
        assert b.remote_value("alan", MetricId.FREEMEM) is None

    def test_scoped_filter_cannot_leak_foreign_metrics(self, env,
                                                       pair):
        """A cpu-scoped filter outputting disk records must not cause
        disk publications under the cpu scope."""
        a, b = pair
        a.filters.deploy("""
        {
            output[0] = input[DISKUSAGE];
            output[1] = input[LOADAVG];
        }
        """, scope="cpu")
        env.run(until=5.0)
        # LOADAVG (cpu's own metric) flows via the filter...
        assert b.remote_value("alan", MetricId.LOADAVG) is not None
        # ...and DISKUSAGE still flows via the *disk module's* default
        # params, not via the cpu filter; both paths coexist cleanly.
        assert b.remote_value("alan", MetricId.DISKUSAGE) is not None

    def test_filter_plus_params_on_other_modules(self, env, pair):
        """Scoped filter on one module composes with thresholds on
        another."""
        from repro.dproc.params import AboveThreshold
        a, b = pair
        a.filters.deploy("{ int i = 0; }", scope="cpu")  # block cpu
        a.policies[MetricId.FREEMEM].add_threshold(
            AboveThreshold(1e18))  # block mem via params
        env.run(until=5.0)
        assert b.remote_value("alan", MetricId.LOADAVG) is None
        assert b.remote_value("alan", MetricId.FREEMEM) is None
        assert b.remote_value("alan", MetricId.DISKUSAGE) is not None

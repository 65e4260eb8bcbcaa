"""Unit tests for the metric namespace."""

from __future__ import annotations

import pytest

from repro.dproc import (METRIC_CONSTANTS, METRIC_FILES, MODULE_METRICS,
                         MetricId, metric_by_name)
from repro.errors import UnknownMetricError


class TestMetricIds:
    def test_filter_abi_indices_are_stable(self):
        """These values are the E-code input[] ABI — never renumber."""
        assert MetricId.LOADAVG == 0
        assert MetricId.FREEMEM == 1
        assert MetricId.DISKUSAGE == 2
        assert MetricId.CACHE_MISS == 3

    def test_constants_match_enum(self):
        assert METRIC_CONSTANTS["LOADAVG"] == 0
        assert set(METRIC_CONSTANTS) == {m.name for m in MetricId}

    def test_every_metric_has_a_file(self):
        assert set(METRIC_FILES) == set(MetricId)

    def test_file_names_unique(self):
        files = list(METRIC_FILES.values())
        assert len(files) == len(set(files))

    def test_every_metric_has_a_module(self):
        covered = {m for metrics in MODULE_METRICS.values()
                   for m in metrics}
        assert covered == set(MetricId)

    def test_no_metric_in_two_modules(self):
        seen = []
        for metrics in MODULE_METRICS.values():
            seen.extend(metrics)
        assert len(seen) == len(set(seen))


class TestLookup:
    def test_by_enum_name(self):
        assert metric_by_name("LOADAVG") is MetricId.LOADAVG
        assert metric_by_name("loadavg") is MetricId.LOADAVG

    def test_by_file_name(self):
        assert metric_by_name("net_bandwidth") is MetricId.NET_BANDWIDTH

    def test_whitespace_tolerated(self):
        assert metric_by_name("  freemem ") is MetricId.FREEMEM

    def test_unknown_rejected(self):
        with pytest.raises(UnknownMetricError):
            metric_by_name("bogus")

"""Unit tests for the units module."""

from __future__ import annotations

import pytest

from repro import units


class TestTime:
    def test_usec_msec_sec(self):
        assert units.usec(1) == 1e-6
        assert units.msec(1) == 1e-3
        assert units.minutes(2) == 120.0

    def test_round_trips(self):
        assert units.to_usec(units.usec(250)) == pytest.approx(250)
        assert units.msec(1.5) == pytest.approx(1.5e-3)


class TestSizes:
    def test_binary_sizes(self):
        assert units.KB(1) == 1024
        assert units.MB(1) == 1024 ** 2
        assert not hasattr(units, "kb") and not hasattr(units, "mb")

    def test_constants(self):
        assert units.PAGE_SIZE == 4096
        assert units.SECTOR_SIZE == 512
        assert units.ETHERNET_MTU == 1500


class TestBandwidth:
    def test_mbps_is_decimal_bits(self):
        # network convention: 100 Mbps = 100e6 bits/s = 12.5e6 B/s
        assert units.mbps(100) == 12.5e6
        assert units.mbps(0.1) == 12.5e3

    def test_to_mbps_round_trip(self):
        assert units.to_mbps(units.mbps(42.5)) == pytest.approx(42.5)


class TestPublicApi:
    """Export-integrity checks for every subpackage."""

    @pytest.mark.parametrize("module_name", [
        "repro", "repro.sim", "repro.ecode", "repro.kecho",
        "repro.dproc", "repro.smartpointer", "repro.workloads",
        "repro.harness", "repro.analysis", "repro.units",
        "repro.errors",
    ])
    def test_all_names_resolve(self, module_name):
        import importlib
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), \
                f"{module_name}.__all__ lists missing name {name!r}"

    def test_error_hierarchy_roots_at_repro_error(self):
        from repro import errors
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, Exception)
            assert issubclass(cls, errors.ReproError)

    def test_version(self):
        import repro
        assert repro.__version__.count(".") == 2

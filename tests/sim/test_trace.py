"""Unit tests for time-series tracing and windowed statistics."""

from __future__ import annotations

import math

import pytest

from repro.sim import CounterTrace, EwmaLoad, TimeSeries, WindowAverage


class TestTimeSeries:
    def test_record_and_iterate(self):
        ts = TimeSeries("x")
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert list(ts) == [(0.0, 1.0), (1.0, 2.0)]
        assert len(ts) == 2

    def test_non_monotonic_rejected(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 1.0)

    def test_last(self):
        ts = TimeSeries()
        ts.record(0, 10)
        ts.record(1, 20)
        assert ts.last() == 20

    def test_last_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSeries().last()

    def test_mean_with_window(self):
        ts = TimeSeries()
        for t, v in [(0, 0), (1, 10), (2, 20)]:
            ts.record(t, v)
        assert ts.mean() == pytest.approx(10.0)
        assert ts.mean(since=1.0) == pytest.approx(15.0)

    def test_mean_empty_window_raises(self):
        ts = TimeSeries()
        ts.record(0, 1)
        with pytest.raises(ValueError):
            ts.mean(since=5.0)

    def test_percentile(self):
        ts = TimeSeries()
        for i in range(101):
            ts.record(i, i)
        assert ts.percentile(50) == pytest.approx(50.0)
        assert ts.percentile(90) == pytest.approx(90.0)


class TestCounterTrace:
    def test_total_accumulates(self):
        c = CounterTrace()
        c.add(0.0, 2)
        c.add(1.0, 3)
        assert c.total == 5

    def test_negative_amount_rejected(self):
        c = CounterTrace()
        with pytest.raises(ValueError):
            c.add(0.0, -1)

    def test_non_monotonic_time_rejected(self):
        c = CounterTrace()
        c.add(2.0)
        with pytest.raises(ValueError):
            c.add(1.0)

    def test_count_between(self):
        c = CounterTrace()
        for t in range(10):
            c.add(float(t), 1.0)
        assert c.count_between(2.0, 5.0) == pytest.approx(3.0)

    def test_rate(self):
        c = CounterTrace()
        for t in range(10):
            c.add(float(t), 2.0)
        assert c.rate(now=9.0, window=3.0) == pytest.approx(2.0)

    def test_rate_requires_positive_window(self):
        with pytest.raises(ValueError):
            CounterTrace().rate(1.0, 0.0)

    def test_empty_counter_rate_is_zero(self):
        assert CounterTrace().rate(10.0, 5.0) == 0.0


class TestWindowAverage:
    def test_simple_mean(self):
        w = WindowAverage(window=10.0)
        w.record(0.0, 2.0)
        w.record(1.0, 4.0)
        assert w.value == pytest.approx(3.0)

    def test_old_samples_expire(self):
        w = WindowAverage(window=5.0)
        w.record(0.0, 100.0)
        w.record(10.0, 2.0)  # first sample is now out of window
        assert w.value == pytest.approx(2.0)
        assert len(w) == 1

    def test_empty_is_zero(self):
        assert WindowAverage(1.0).value == 0.0

    def test_window_change(self):
        w = WindowAverage(window=100.0)
        w.record(0.0, 10.0)
        w.set_window(1.0)
        w.record(50.0, 2.0)
        assert w.value == pytest.approx(2.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            WindowAverage(0.0)
        w = WindowAverage(1.0)
        with pytest.raises(ValueError):
            w.set_window(-1.0)


class TestEwmaLoad:
    def test_first_sample_anchors_at_boot_value(self):
        load = EwmaLoad()
        load.update(0.0, 3.0)
        assert load.loads == [0.0, 0.0, 0.0]
        load.update(60.0, 3.0)
        assert load.loads[0] > 0.0

    def test_decay_towards_new_value(self):
        load = EwmaLoad()
        load.update(0.0, 0.0)
        load.update(60.0, 4.0)
        one, five, fifteen = load.loads
        # After one 1-min period, the 1-min average moved most.
        assert one > five > fifteen > 0.0
        expect = 4.0 * (1 - math.exp(-1.0))
        assert one == pytest.approx(expect)

    def test_converges_to_constant_load(self):
        load = EwmaLoad()
        for i in range(4000):
            load.update(i * 5.0, 2.0)
        for value in load.loads:
            assert value == pytest.approx(2.0, rel=1e-3)

    def test_time_backwards_rejected(self):
        load = EwmaLoad()
        load.update(10.0, 1.0)
        with pytest.raises(ValueError):
            load.update(5.0, 1.0)

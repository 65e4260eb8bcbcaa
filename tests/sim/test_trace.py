"""Unit tests for time-series tracing and windowed statistics."""

from __future__ import annotations

import math

import pytest

from repro.sim import CounterTrace, EwmaLoad, WindowAverage


class TestCounterTrace:
    def test_total_accumulates(self):
        c = CounterTrace(64)
        c.add(0.0, 2)
        c.add(1.0, 3)
        assert c.total == 5

    def test_negative_amount_rejected(self):
        c = CounterTrace(64)
        with pytest.raises(ValueError):
            c.add(0.0, -1)

    def test_non_monotonic_time_rejected(self):
        c = CounterTrace(64)
        c.add(2.0)
        with pytest.raises(ValueError):
            c.add(1.0)

    def test_rejected_sample_leaves_trace_unchanged(self):
        c = CounterTrace(64)
        c.add(5.0, 1.0)
        with pytest.raises(ValueError):
            c.add(4.0, 1.0)
        assert list(c) == [(5.0, 1.0)]
        assert c.total == 1.0
        # An equal timestamp is not a step backwards.
        c.add(5.0, 2.0)
        assert c.total == 3.0

    def test_count_between(self):
        c = CounterTrace(64)
        for t in range(10):
            c.add(float(t), 1.0)
        assert c.count_between(2.0, 5.0) == pytest.approx(3.0)

    def test_rate(self):
        c = CounterTrace(64)
        for t in range(10):
            c.add(float(t), 2.0)
        assert c.rate(now=9.0, window=3.0) == pytest.approx(2.0)

    def test_rate_requires_positive_window(self):
        with pytest.raises(ValueError):
            CounterTrace(64).rate(1.0, 0.0)

    def test_empty_counter_rate_is_zero(self):
        assert CounterTrace(64).rate(10.0, 5.0) == 0.0

    def test_add_and_iterate(self):
        c = CounterTrace(64)
        c.add(0.0, 1.0)
        c.add(1.0, 2.0)
        assert list(c) == [(0.0, 1.0), (1.0, 2.0)]

    def test_mean_with_window(self):
        c = CounterTrace(64)
        for t, v in [(0, 0), (1, 10), (2, 20)]:
            c.add(t, v)
        assert c.mean() == pytest.approx(10.0)
        assert c.mean(since=1.0) == pytest.approx(15.0)

    def test_mean_empty_window_raises(self):
        c = CounterTrace(64)
        c.add(0, 1)
        with pytest.raises(ValueError):
            c.mean(since=5.0)

    def test_bound_is_required_and_positive(self):
        with pytest.raises(TypeError):
            CounterTrace()  # type: ignore[call-arg]
        with pytest.raises(ValueError):
            CounterTrace(0)

    def test_trimmed_trace_keeps_recent_windows_exact(self):
        """Past twice the bound the oldest samples go in one chunk;
        the total, iteration, ``mean`` and ``rate`` over what is left
        equal an untrimmed trace's answers."""
        bounded, full = CounterTrace(4), CounterTrace(1000)
        for t in range(9):
            for trace in (bounded, full):
                trace.add(float(t), float(t % 3))
        assert bounded.dropped_samples == 4
        assert list(bounded) == list(full)[4:]
        assert bounded.total == full.total
        assert bounded.mean(since=4.0) == full.mean(since=4.0)
        assert bounded.rate(8.0, 4.0) == full.rate(8.0, 4.0)

    def test_window_past_the_retained_samples_raises(self):
        """A window that needs a discarded sample raises instead of
        answering short; one that starts at the cut does not."""
        c = CounterTrace(2)
        for t in range(4):
            c.add(float(t), 1.0)  # the fourth add discards t=0 and 1
        assert c.count_between(1.0, 3.0) == 2.0
        assert c.mean(since=2.0) == 1.0
        with pytest.raises(ValueError, match="retained"):
            c.count_between(0.5, 3.0)
        with pytest.raises(ValueError, match="retained"):
            c.rate(3.0, 3.0)
        with pytest.raises(ValueError, match="retained"):
            c.mean(since=1.0)


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

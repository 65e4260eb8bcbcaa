"""Property-based tests for the dproc control plane."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dproc import (MetricId, METRIC_FILES, parse_control_text,
                         ProcFS, ProcFile)
from repro.dproc.control_file import parse_command
from repro.dproc.params import MetricPolicy
from repro.errors import ControlSyntaxError, ProcfsError
import pytest

FAST = settings(max_examples=80, deadline=None)

metric_names = st.sampled_from(
    ["*", "cpu", "mem", "disk", "net"]
    + [f for f in METRIC_FILES.values()])


class TestControlFileProperties:
    @FAST
    @given(metric_names,
           st.floats(min_value=0.01, max_value=1e4))
    def test_period_command_round_trip(self, metric, seconds):
        text = f"period {metric} {seconds:g}"
        (msg,) = parse_control_text(text)
        assert msg.metric == metric
        assert msg.value == pytest.approx(float(f"{seconds:g}"))

    @FAST
    @given(metric_names,
           st.sampled_from(["above", "below"]),
           st.floats(min_value=-1e6, max_value=1e6,
                     allow_nan=False))
    def test_bound_threshold_round_trip(self, metric, kind, bound):
        text = f"threshold {metric} {kind} {bound:g}"
        (msg,) = parse_control_text(text)
        rule = msg.value
        # The parsed rule behaves per its definition at the boundary's
        # two sides.
        b = float(f"{bound:g}")
        eps = max(1.0, abs(b)) * 1e-6
        if kind == "above":
            assert rule.should_send(b + eps, None)
            assert not rule.should_send(b - eps, None)
        else:
            assert rule.should_send(b - eps, None)
            assert not rule.should_send(b + eps, None)

    @FAST
    @given(st.lists(st.sampled_from(
        ["period cpu 2", "threshold mem below 5e7",
         "clear disk period", "threshold * change 15",
         "# comment", ""]), min_size=1, max_size=8))
    def test_multi_command_count(self, lines):
        text = "\n".join(lines)
        real = [ln for ln in lines
                if ln and not ln.startswith("#")]
        if not real:
            with pytest.raises(ControlSyntaxError):
                parse_control_text(text)
        else:
            msgs = parse_control_text(text)
            assert len(msgs) == len(real)

    @FAST
    @given(st.text(alphabet="abcdefgh *0123456789", min_size=1,
                   max_size=30))
    def test_garbage_never_crashes(self, text):
        """Arbitrary input either parses or raises ControlSyntaxError —
        never any other exception."""
        try:
            parse_control_text(text)
        except ControlSyntaxError:
            pass

    #: Control-file writes built from the grammar's own words, with
    #: any whitespace between them and any line break between lines:
    #: many parse, the rest fail in every way the grammar can.
    _gap = st.sampled_from([" ", "  ", "\t", " \x1f "])
    _metric = st.sampled_from(["*", "cpu", "loadavg", "MEM"])
    _number = st.sampled_from(["2", "0.5", "1e9", "15%", "-1", "inf"]) \
        | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    _line = st.one_of(
        st.tuples(st.sampled_from(["period", "PERIOD"]), _metric,
                  _number),
        st.tuples(st.just("threshold"), _metric,
                  st.sampled_from(["above", "below", "change"]),
                  _number),
        st.tuples(st.just("threshold"), _metric, st.just("range"),
                  _number, _number),
        st.tuples(st.just("clear"), _metric,
                  st.sampled_from(["period", "threshold"])),
        st.tuples(st.just("unfilter"), st.sampled_from(["f1", "x"])),
        st.tuples(st.just("#"), _metric),
    ).map(list)
    _filter = st.tuples(
        st.sampled_from(["*", "cpu"]),
        st.sampled_from([[], ["id=f1"], ["id="]]),
        st.text(max_size=30),
    ).map(lambda t: ["filter", t[0], *t[1], t[2]])
    writes = st.tuples(
        st.lists(st.tuples(_line, st.lists(_gap, min_size=5,
                                           max_size=5)), max_size=4),
        st.none() | st.tuples(_filter, st.lists(_gap, min_size=5,
                                                max_size=5)),
        st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\n\n"]),
    ).map(lambda t: t[2].join(
        "".join(w + g for w, g in zip(words, gaps))
        for words, gaps in t[0] + ([t[1]] if t[1] else [])))

    @settings(max_examples=300, deadline=None)
    @given(writes | st.text(max_size=40))
    def test_normalized_text_parses_to_the_same_command(self, text):
        """For any write the grammar accepts, each command's
        normalized text (what crosses the wire) parses back to that
        very command — at the target d-mon as at the writer."""
        try:
            commands = parse_control_text(text)
        except ControlSyntaxError:
            return
        for command in commands:
            assert parse_command(command.text) == command


class TestThresholdProperties:
    @FAST
    @given(st.floats(min_value=0.01, max_value=1e6),
           st.floats(min_value=0.01, max_value=1e6),
           st.floats(min_value=1.0, max_value=99.0))
    def test_change_threshold_scale_invariant(self, value, last, pct):
        """Percentage-change decisions are invariant under rescaling
        both readings (they are ratios)."""
        from repro.dproc.params import ChangeThreshold
        rule = ChangeThreshold(pct)
        for scale in (10.0, 0.001):
            assert rule.should_send(value, last) \
                == rule.should_send(value * scale, last * scale)

    @FAST
    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=0.0, max_value=1e3),
           st.floats(min_value=-1e6, max_value=1e6))
    def test_range_membership(self, lo, width, value):
        from repro.dproc.params import RangeThreshold
        rule = RangeThreshold(lo, lo + width)
        assert rule.should_send(value, None) \
            == (lo <= value <= lo + width)

    @FAST
    @given(st.floats(min_value=0.1, max_value=1e4),
           st.lists(st.floats(min_value=0.0, max_value=1e4),
                    min_size=1, max_size=20))
    def test_period_limits_send_rate(self, period, gaps):
        """A policy with period P never approves two sends closer
        than P."""
        policy = MetricPolicy()
        policy.set_period(period)
        now = 0.0
        last_sent_at = None
        for gap in gaps:
            now += gap
            if policy.should_send(1.0, now, 1.0, last_sent_at):
                if last_sent_at is not None:
                    assert now - last_sent_at >= period * (1 - 1e-6)
                last_sent_at = now


class TestProcfsProperties:
    names = st.text(alphabet="abcdefgh123", min_size=1, max_size=8)

    @FAST
    @given(st.lists(st.tuples(names, names, names),
                    min_size=1, max_size=10, unique=True))
    def test_mount_read_roundtrip(self, triples):
        fs = ProcFS()
        mounted = {}
        for a, b, c in triples:
            path = f"/{a}/{b}/{c}"
            if path in mounted:
                continue
            content = f"{a}-{b}-{c}\n"
            try:
                fs.mount(path, ProcFile(lambda s=content: s))
            except ProcfsError:
                continue  # conflicting prefix; acceptable outcome
            mounted[path] = content
        for path, content in mounted.items():
            assert fs.read(path) == content
            assert fs.exists(path)

    @FAST
    @given(names, names)
    def test_listdir_contains_mounted_children(self, parent, child):
        fs = ProcFS()
        fs.mount(f"/{parent}/{child}", ProcFile(lambda: ""))
        assert child in fs.listdir(f"/{parent}")

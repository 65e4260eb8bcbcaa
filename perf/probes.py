"""Isolated layer probes: ns per call of one public function each.

Run after a traced repeat, on objects that repeat built and on the
monitoring events it captured at ``ChannelEndpoint.submit``, so the
inputs are the ones the run really carried.  Each probe times five
batches and reports the median batch.
"""

from __future__ import annotations

import itertools
import random
from time import perf_counter

__all__ = ["run_all"]

#: Transport tag the KECho endpoints bind for the monitoring channel.
TAG = "kecho:dproc.monitor"


BATCHES = 5


def _ns_per_call(fn, iterations: int) -> float:
    """The median of ``BATCHES`` timed batches of ``iterations`` calls."""
    timings = []
    for _ in range(BATCHES):
        start = perf_counter()
        for _ in range(iterations):
            fn()
        timings.append((perf_counter() - start) / iterations * 1e9)
    return sorted(timings)[BATCHES // 2]


def _cycle(fn, items):
    """Call ``fn`` on the captured items in turn."""
    following = itertools.cycle(items).__next__
    return lambda: fn(following())


def _codec(events, n: int) -> dict:
    from repro.live.codec import (FrameDecoder, decode_frame,
                                  encode_batch, encode_frame)
    frames = [encode_frame(TAG, event) for event in events]
    member_count = min(len(frames), 16)
    members = frames[:member_count]
    batch = encode_batch(members)

    def feed():
        if len(FrameDecoder().feed(batch)) != member_count:
            raise AssertionError("BATCH did not unwrap to its members")

    return {
        "live.codec.encode_ns": _ns_per_call(
            _cycle(lambda event: encode_frame(TAG, event), events), n),
        # decode_frame takes the frame without its length prefix, as
        # FrameDecoder hands it over.
        "live.codec.decode_ns": _ns_per_call(
            _cycle(decode_frame, FrameDecoder().feed(b"".join(frames))),
            n),
        "live.codec.batch_encode_ns_per_frame": _ns_per_call(
            lambda: encode_batch(members), n) / member_count,
        "live.codec.feed_ns_per_frame": _ns_per_call(feed, n) / member_count,
        "live.codec.frame_bytes_mean":
            sum(len(f) for f in frames) / len(frames),
    }


def _dmon(dproc, now: float, n: int) -> dict:
    dmon = dproc.dmon
    modules = list(dmon.modules.values())

    def collect():
        for module in modules:
            module.collect(now)

    metric, value = next(iter(dmon.last_samples.items()))
    policy = dmon.policies[metric]
    return {
        "dproc.modules.collect_us": _ns_per_call(collect, n) / 1e3,
        "dproc.params.should_send_ns": _ns_per_call(
            lambda: policy.should_send(value, now, value, now - 1.0), n),
    }


def _ecode(dproc, now: float, seed: int, n: int) -> dict:
    from workloads import HALVING_FILTER

    from repro.dproc import METRIC_CONSTANTS, topk_source
    from repro.ecode import compile_filter
    halving = compile_filter(HALVING_FILTER, constants=METRIC_CONSTANTS)
    records = dproc.dmon.filters.input_array(dproc.dmon.last_samples,
                                             {}, now)
    # No workload runs the per-process module, so the keyed table is
    # drawn from the seed: 16 (pid, cpu, mem, io) rows, as PROC_MON's
    # default daemon population.
    rng = random.Random(seed)
    table = [(1000 + i, rng.random(), rng.random() * 1e8,
              rng.random() * 1e5) for i in range(16)]
    topk = compile_filter(topk_source(5, "cpu"),
                          constants=METRIC_CONSTANTS)
    return {
        "ecode.compile_us": _ns_per_call(
            lambda: compile_filter(HALVING_FILTER,
                                   constants=METRIC_CONSTANTS),
            n // 20) / 1e3,
        "ecode.eval_ns": _ns_per_call(lambda: halving.run(records), n),
        "ecode.sketch_eval_ns": _ns_per_call(
            lambda: topk.run(records, keyed=table), n),
    }


def _planes(n: int) -> dict:
    """The four instrumentation planes are off in every workload; these
    are the before/after rows for merging them into one spine."""
    from repro.obs.tsdb import Series
    from repro.stream.broker import ChannelStream
    from repro.telemetry import TelemetryRegistry
    from repro.tracing import TraceCollector
    stream = ChannelStream("probe", max_len=4096)
    series = Series("probe", capacity=240)
    tick = {"i": 0}

    def observe():
        tick["i"] += 1
        series.observe_idx(tick["i"] >> 6, 1.0)

    collector = TraceCollector(
        max_spans_per_trace=BATCHES * n + 1)
    root = collector.begin_trace("probe", name="probe", stage="probe",
                                 node="probe", start=0.0)
    context = root.context
    counter = TelemetryRegistry().counter("probe")
    return {
        "stream.append_ns": _ns_per_call(lambda: stream.append(
            kind="deliver", source="a", dest="b", time=1.0,
            submitted_at=1.0, size=64.0), n),
        "obs.observe_ns": _ns_per_call(observe, n),
        "tracing.record_span_ns": _ns_per_call(
            lambda: collector.record_span(
                context, name="probe", stage="probe", node="probe",
                start=0.0, end=0.0), n),
        "telemetry.inc_ns": _ns_per_call(counter.inc, n),
    }


def run_all(dproc, now: float, events, seed: int,
            iterations: int = 2000) -> dict:
    """Every probe; ``events`` are the captured monitoring events.

    The default is 5 x 2000 = 10,000 calls per probe (a twentieth of
    that for ``compile_filter``, the one slow call).
    """
    if not events:
        raise RuntimeError("the traced run captured no monitoring event")
    values = _codec(events, iterations)
    values.update(_dmon(dproc, now, iterations))
    values.update(_ecode(dproc, now, seed, iterations))
    values.update(_planes(iterations))
    return values

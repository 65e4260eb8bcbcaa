"""End-to-end tracing: 20-node scenario, determinism pins, CLI.

The determinism tests pin that the collector is reproducible (same
seed -> same sampled span trees); that tracing is passive (a traced
run is bit-identical to an untraced one) is pinned for every
instrument at once in ``tests/runtime/test_passivity.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.chaos import chaos_recovery
from repro.harness.tracecli import (main as trace_main,
                                    pick_showcase_trace,
                                    run_trace_scenario)
from repro.tracing import (TraceCollector, adaptation_audit,
                           latency_breakdown, to_chrome_trace)

CHAOS = dict(nodes=16, duration=30.0, seed=11)


@pytest.fixture(scope="module")
def scenario20() -> TraceCollector:
    """The acceptance scenario: 20 nodes, seed 1, full sampling."""
    return run_trace_scenario(nodes=20, seed=1, duration=30.0)


@pytest.fixture(scope="module")
def chaos_tracer():
    """The collector of a traced chaos run."""
    tracer = TraceCollector(seed=CHAOS["seed"], max_traces=16384)
    chaos_recovery(**CHAOS,
                   configure=lambda sc: sc.with_tracing(tracer))
    return tracer


class TestScenario:
    def test_all_pipeline_stages_traced(self, scenario20):
        stages = {span.stage for tree in scenario20.trees()
                  for span in tree.spans}
        assert {"dmon", "module", "dmon.param", "kecho", "transport",
                "delivery", "update", "control"} <= stages

    def test_breakdown_reaches_consumers(self, scenario20):
        report = latency_breakdown(scenario20)
        assert report["n_traces"] > 100
        assert report["end_to_end"]["p50"] > 0.0
        assert report["stages"]["transport"]["count"] > 0

    def test_audit_names_rule_and_trace(self, scenario20):
        """>=1 SmartPointer adaptation is linked to the exact metric
        event and threshold rule that triggered it."""
        audit = adaptation_audit(scenario20)
        assert audit, "no adaptation decisions recorded"
        resolved = [
            trig for entry in audit for trig in entry["triggers"]
            if trig.get("rule") and trig.get("trace_id") in scenario20]
        assert resolved, "no trigger resolved to a rule + trace"
        assert any(t["metric"] == "loadavg" for t in resolved)
        assert any("change 5" in t["rule"] for t in resolved)
        # The showcase picker prefers exactly such a trace.
        showcase = pick_showcase_trace(scenario20, audit)
        assert showcase in scenario20

    def test_perfetto_schema(self, scenario20):
        doc = json.loads(json.dumps(to_chrome_trace(scenario20)))
        assert set(doc) == {"traceEvents", "displayTimeUnit",
                            "otherData"}
        assert doc["otherData"]["n_traces"] == len(scenario20)
        assert len(doc["traceEvents"]) > 1000
        for event in doc["traceEvents"]:
            assert event["ph"] in ("M", "X")
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["args"]["trace_id"]


class TestDeterminism:
    def test_same_seed_same_span_trees(self):
        a = run_trace_scenario(nodes=10, seed=5, duration=12.0)
        b = run_trace_scenario(nodes=10, seed=5, duration=12.0)
        assert a.snapshot() == b.snapshot()

    def test_sampling_deterministic_and_subsetting(self):
        kwargs = dict(nodes=8, seed=5, duration=10.0)
        full = run_trace_scenario(**kwargs, sample_rate=1.0)
        s1 = run_trace_scenario(**kwargs, sample_rate=0.4)
        s2 = run_trace_scenario(**kwargs, sample_rate=0.4)
        assert s1.snapshot() == s2.snapshot()
        assert 0 < len(s1) < len(full)
        assert set(s1.trace_ids()) < set(full.trace_ids())
        assert s1.traces_sampled_out > 0


class TestDropAccounting:
    def test_faults_annotate_spans(self, chaos_tracer):
        """Loss / partition / crash surface as dropped spans carrying
        the fault kind — satellite 2."""
        tracer = chaos_tracer
        dropped = [span for tree in tracer.trees()
                   for span in tree.spans if span.status == "dropped"]
        assert dropped
        faults = {span.attrs.get("fault") for span in dropped}
        faults.discard(None)
        assert faults, "dropped spans lost their fault annotation"
        assert any(f == "partition" or f.startswith("crash:")
                   or f == "loss" for f in faults)


class TestCli:
    def test_chrome_export(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = trace_main(["--nodes", "6", "--seed", "3",
                         "--duration", "8", "--export", "chrome",
                         "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "critical-path latency breakdown" in printed
        assert "adaptation audit" in printed
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["source"] == "repro.tracing"

    def test_rejects_tiny_cluster(self):
        with pytest.raises(SystemExit):
            trace_main(["--nodes", "1"])

"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Not in ``testpaths``, so the tier-1 suite does not pay for it.  Runs
all five workloads at toy size through the real command line.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SIM = [w["name"] for w in BENCH["workloads"]
       if w["name"].startswith("sim_")]


def run(*args, check=True):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, check=check,
                          timeout=120)


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert any(m["name"] == "setup_s" for m in BENCH["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


def test_smoke_set_emits_every_metric(tmp_path):
    ledger_path = tmp_path / "ledger.json"
    run("--scale", "smoke", "--out", str(ledger_path))
    ledger = json.loads(ledger_path.read_text())
    assert list(ledger["workloads"]) == [w["name"]
                                         for w in BENCH["workloads"]]
    for name, entry in ledger["workloads"].items():
        assert entry["failures"] == [], name
        assert entry["ops_attempted"] > 0 and entry["ops_failed"] == 0
        for section in ("end_to_end", "per_layer"):
            assert list(entry[section]) == [m["name"]
                                            for m in BENCH[section]], name
        assert all(row["median"] != 0
                   for row in entry["end_to_end"].values()), name
    # Comparing a result with itself finds nothing worse.
    same = run("--compare", str(ledger_path), str(ledger_path))
    assert "worse rows: 0" in same.stdout
    assert "unresolved" not in same.stdout and "DIFFERS" not in same.stdout
    # A second run of the simulator workloads reproduces every
    # simulated statistic.
    for name in SIM:
        again = run("--scale", "smoke", "--workload", name)
        result = json.loads(again.stdout.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        assert (f"fingerprint {ledger['workloads'][name]['fingerprint']}"
                in again.stdout)


def test_traced_driver_line():
    done = run("--scale", "smoke", "--workload", "live_pair_n2",
               "--seed", "5", "--trace", "1")
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}

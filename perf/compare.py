"""``run.py --compare A.json B.json``: is ledger B no worse than A?

One row per (end-to-end metric, workload), judged by the bound and
direction ``BENCHMARK.json`` stores for the metric:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  either side's quartile spread is wider than the
  bound and the two sides' repeats overlap, so the row shows nothing;
* ``ok``          otherwise.

Exit code 1 on any ``worse`` row, on a higher share of failed
operations, or on a simulator fingerprint that differs between two
ledgers made with the same seed, budget and scale.
"""

from __future__ import annotations

import json

__all__ = ["compare"]


def _spread(row: dict) -> float:
    return (row["q3"] - row["q1"]) / abs(row["median"]) \
        if row["median"] else 0.0


def _judge(a: dict, b: dict, lower_is_better: bool,
           bound: float) -> str:
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"]) \
        if a["median"] else 0.0
    lo_a, hi_a = min(a["raw"]), max(a["raw"])
    lo_b, hi_b = min(b["raw"]), max(b["raw"])
    overlap = lo_b <= hi_a and lo_a <= hi_b
    if max(_spread(a), _spread(b)) > bound and overlap:
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare(path_a: str, path_b: str, bench: dict) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    same_inputs = all(a["context"][k] == b["context"][k]
                      for k in ("seed", "seconds", "scale"))
    bad = 0
    print(f"{'workload':22s} {'metric':24s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s}  verdict (bound)")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric in bench["end_to_end"]:
            row_a = entry_a["end_to_end"].get(metric["name"])
            row_b = entry_b["end_to_end"].get(metric["name"])
            if row_a is None or row_b is None:
                continue
            verdict = _judge(row_a, row_b, metric["better"] == "lower",
                             metric["bound"])
            bad += verdict == "worse"
            ratio = row_b["median"] / row_a["median"] \
                if row_a["median"] else float("nan")
            print(f"{name:22s} {metric['name']:24s} "
                  f"{row_a['median']:12.6g} {row_b['median']:12.6g} "
                  f"{ratio:7.3f}  {verdict} ({metric['bound']:g}, "
                  f"{metric['unit']}, base A)")
        share_a = entry_a["ops_failed"] / max(entry_a["ops_attempted"], 1)
        share_b = entry_b["ops_failed"] / max(entry_b["ops_attempted"], 1)
        if share_b > share_a:
            bad += 1
            print(f"{name:22s} failed operations rose: "
                  f"{entry_a['ops_failed']}/{entry_a['ops_attempted']} "
                  f"-> {entry_b['ops_failed']}/{entry_b['ops_attempted']}")
        if same_inputs and entry_a["fingerprint"] != entry_b["fingerprint"]:
            bad += 1
            print(f"{name:22s} simulator fingerprint DIFFERS: "
                  f"{entry_a['fingerprint']} -> {entry_b['fingerprint']}")
    print("worse rows:", bad)
    return 1 if bad else 0

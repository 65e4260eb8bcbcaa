"""The repo's benchmark: one record's journey, end to end and per layer.

    python3 perf/run.py --workload live_pair_n2 --seed 3     # one workload
    python3 perf/run.py --traced --out perf/out/ledger.json  # the whole set
    python3 perf/run.py --compare A.json B.json              # two ledgers

Each workload is repeated in fresh interpreters (``repeat.py``); every
metric is the median over the repeats that produced it.  End-to-end
numbers come only from untraced repeats; ``--traced`` (``--trace 1``)
adds repeats with spans and probes for the per-layer numbers and
reports what tracing cost.  The names, units, directions and bounds
live in ``BENCHMARK.json`` and nowhere else.

The last line of standard output of a single-workload run is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: (untraced, traced) repeats per pass.  The traced pass keeps one
#: untraced repeat as the base of ``perf.trace_overhead_frac``.
REPEATS = {"untraced": (3, 0), "traced": (1, 2), "ledger": (3, 2),
           "smoke": (1, 1)}
REPEAT_TIMEOUT = 150


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_repeats(workload: str, seed: int, seconds: float, smoke: bool,
                untraced: int, traced: int) -> list[dict]:
    results = []
    for flag in [0] * untraced + [1] * traced:
        command = [sys.executable, str(HERE / "repeat.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--smoke", str(int(smoke)),
                   "--traced", str(flag)]
        if flag:
            (HERE / "out").mkdir(exist_ok=True)
            command += ["--spans",
                        str(HERE / "out" / f"spans_{workload}.jsonl")]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=REPEAT_TIMEOUT, check=True)
        results.append(json.loads(done.stdout.splitlines()[-1]))
    return results


def summarise(values: list[float]) -> dict:
    """Median over repeats with quartiles, ``n`` and the raw values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "raw": values}


def aggregate(repeats: list[dict], bench: dict) -> dict:
    """Fold one workload's repeats into its ledger entry."""
    failures = [f for r in repeats for f in r["failures"]]
    fingerprints = sorted({r["fingerprint"] for r in repeats
                           if r["fingerprint"]})
    if len(fingerprints) > 1:
        failures.append(f"sim fingerprint differs between repeats: "
                        f"{fingerprints}")
    untraced = [r for r in repeats if not r["traced"]]
    traced = len(untraced) < len(repeats)

    def samples(of: list[dict]) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for repeat in of:
            for name, value in repeat["values"].items():
                out.setdefault(name, []).append(value)
        return out

    # No end-to-end number comes from a traced repeat; a per-layer one
    # is the median over every repeat that could measure it.
    sections = {"end_to_end": samples(untraced)}
    if traced:
        layers = sections["per_layer"] = samples(repeats)
        layers["perf.trace_overhead_frac"] = [
            statistics.median(layers["traced.cpu_us_per_record"])
            / statistics.median(layers["cpu_us_per_record"]) - 1.0]
    entry = {"end_to_end": {}, "per_layer": {}}
    for section, found in sections.items():
        for metric in bench[section]:
            name = metric["name"]
            if name not in found:
                failures.append(f"metric {name} was not produced")
                continue
            entry[section][name] = dict(summarise(found[name]),
                                        unit=metric["unit"])
    attempted = sum(r["attempted"] for r in untraced)
    entry.update({
        "ops_attempted": attempted,
        "ops_failed": attempted - sum(r["delivered"] for r in untraced),
        "fingerprint": fingerprints[0] if fingerprints else None,
        "failures": failures,
        "load_start": repeats[0]["load_start"],
        "load_end": repeats[-1]["load_end"],
    })
    return entry


def print_entry(workload: str, entry: dict) -> None:
    print(f"\n== {workload}: {entry['ops_attempted']} operations, "
          f"{entry['ops_failed']} failed; 1-min load "
          f"{entry['load_start']:.2f} -> {entry['load_end']:.2f}"
          + (f"; fingerprint {entry['fingerprint']}"
             if entry["fingerprint"] else ""))
    for section in ("end_to_end", "per_layer"):
        for name, row in entry[section].items():
            print(f"{name:42s} {row['median']:14.6g} {row['unit']:6s} "
                  f"[{row['q1']:.6g} .. {row['q3']:.6g}] n={row['n']}")
    for failure in entry["failures"]:
        print(f"CHECK FAILED: {failure}")


def context(args, repeats: tuple[int, int]) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "seed": args.seed, "seconds": args.seconds,
            "scale": args.scale, "untraced_repeats": repeats[0],
            "traced_repeats": repeats[1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget per workload "
                             "(default: run_seconds, 3 under smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="untraced repeats, then traced ones")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--out", default=None,
                        help="write the ledger (JSON) here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    bench = load_benchmark()
    if args.compare:
        from compare import compare
        return compare(*args.compare, bench)
    # A missing program is a failed run, not an empty result.
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print("perf/run.py: no program to measure under src/",
              file=sys.stderr)
        return 2

    smoke = args.scale == "smoke"
    if args.seconds is None:
        args.seconds = 3.0 if smoke else float(bench["run_seconds"])
    mode = ("smoke" if smoke else "ledger" if args.traced
            else "traced" if args.trace else "untraced")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {names}")
        names = [args.workload]
    nproc = os.cpu_count() or 1
    if os.getloadavg()[0] > 0.5 * nproc:
        print(f"warning: 1-min load average {os.getloadavg()[0]:.2f} "
              f"exceeds half of {nproc} CPUs; timings will be noisy",
              file=sys.stderr)

    started = time.perf_counter()
    ledger = {"context": context(args, REPEATS[mode]), "workloads": {}}
    for name in names:
        repeats = run_repeats(name, args.seed, args.seconds, smoke,
                              *REPEATS[mode])
        entry = aggregate(repeats, bench)
        ledger["workloads"][name] = entry
        print_entry(name, entry)
    ledger["context"]["wall_s"] = time.perf_counter() - started
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")

    correct = not any(e["failures"]
                      for e in ledger["workloads"].values())
    if len(names) == 1:
        entry = ledger["workloads"][names[0]]
        section = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({
            "correct": correct, "attempted": entry["ops_attempted"],
            "failed": entry["ops_failed"],
            "metrics": {name: {"value": row["median"],
                               "unit": row["unit"]}
                        for name, row in entry[section].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

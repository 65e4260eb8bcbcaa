"""Command-line runner: ``python -m repro.harness [fig...] [--full]``.

``python -m repro.harness trace [...]`` dispatches to the causal-
tracing subcommand (:mod:`repro.harness.tracecli`);
``python -m repro.harness live [...]`` runs the stack over real
asyncio localhost sockets (:mod:`repro.harness.livecli`);
``python -m repro.harness stream [...]`` tails, replays, reconciles
and trims the durable event stream (:mod:`repro.harness.streamcli`);
``python -m repro.harness obs [...]`` renders the time-series metrics
plane — health, sparkline dashboards, OpenMetrics/JSON export, live
watch (:mod:`repro.harness.obscli`).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

#: First argument → the module whose ``main(argv)`` takes the rest.
SUBCOMMANDS = {
    "trace": "repro.harness.tracecli",
    "live": "repro.harness.livecli",
    "stream": "repro.harness.streamcli",
    "obs": "repro.harness.obscli",
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        module = importlib.import_module(SUBCOMMANDS[argv[0]])
        return module.main(argv[1:])
    # The figure registry loads the simulator: only figure runs pay.
    from repro.harness.reporting import EXPERIMENTS, run_experiment
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the dproc paper's evaluation figures.")
    parser.add_argument("figures", nargs="*",
                        help=f"figure ids (default: all of "
                             f"{', '.join(EXPERIMENTS)})")
    parser.add_argument("--full", action="store_true",
                        help="run at the paper's full scale "
                             "(slower; default is a quick pass)")
    parser.add_argument("--plot", action="store_true",
                        help="additionally draw each figure as an "
                             "ASCII line chart")
    parser.add_argument("--save", metavar="DIR", default=None,
                        help="also write each result as JSON into DIR "
                             "(loadable with repro.analysis.load_result)")
    args = parser.parse_args(argv)
    targets = args.figures or list(EXPERIMENTS)
    for eid in targets:
        if eid not in EXPERIMENTS:
            parser.error(f"unknown figure {eid!r}")
    for eid in targets:
        start = time.perf_counter()
        result = run_experiment(eid, quick=not args.full)
        elapsed = time.perf_counter() - start
        print(result.table())
        if args.plot:
            from repro.harness.asciiplot import render_plot
            ys = [y for s in result.series for y in s.y if y > 0]
            log_y = bool(ys) and max(ys) / min(ys) > 100
            print()
            print(render_plot(result, log_y=log_y))
        if args.save:
            from pathlib import Path

            from repro.analysis import dump_result
            directory = Path(args.save)
            directory.mkdir(parents=True, exist_ok=True)
            path = dump_result(result, directory / f"{eid}.json")
            print(f"   [saved {path}]")
        print(f"   [{EXPERIMENTS[eid].paper_ref}; "
              f"ran in {elapsed:.1f}s wall]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

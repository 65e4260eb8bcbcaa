"""The one CLI skeleton every ``python -m repro.harness`` run command
hangs on: the shared run flags, declared once, and the one mapping
from them onto a :class:`repro.api.Scenario`.

A command calls :func:`add_run_options` with its own defaults and help
texts, adds the flags only it has, and gets its scenario from
:func:`build_scenario` (un-run: add instruments and hooks, then
``run``) or :func:`run_scenario` (finished; the chaos timeline under
``--faults``).  Nothing else under ``repro/harness`` decides where
workers run.
"""

from __future__ import annotations

import argparse
from typing import Callable, Optional

from repro.api import Scenario

__all__ = ["add_run_options", "build_scenario", "run_scenario"]


def add_run_options(parser: argparse.ArgumentParser, *,
                    nodes: tuple, seed: tuple, duration: tuple,
                    workers: Optional[str] = None,
                    backend: Optional[str] = None,
                    faults: Optional[str] = None) -> None:
    """Declare the shared run flags on ``parser``.

    ``nodes``/``seed``/``duration`` are the command's ``(default,
    help)``; ``workers``/``backend``/``faults`` are help texts, and a
    command that leaves one None does not take that flag.
    """
    parser.add_argument("--nodes", type=int, default=nodes[0],
                        help=nodes[1])
    parser.add_argument("--seed", type=int, default=seed[0],
                        help=seed[1])
    parser.add_argument("--duration", type=float, default=duration[0],
                        help=duration[1])
    if workers is not None:
        parser.add_argument("--workers", type=int, default=1,
                            help=workers)
    if backend is not None:
        parser.add_argument("--backend", choices=("sim", "live"),
                            default="sim", help=backend)
    if faults is not None:
        parser.add_argument("--faults", action="store_true",
                            help=faults)


def _place(scenario: Scenario, args, pool: Optional[dict] = None
           ) -> Scenario:
    """``--workers`` is the live node pool (``pool``: its other
    arguments); the simulator runs one kernel in this process."""
    workers = getattr(args, "workers", 1)
    if scenario.backend == "live":
        return scenario.with_node_pool(workers, **(pool or {}))
    if workers != 1:
        raise SystemExit(
            "--workers forks live node-pool processes and the "
            "simulator runs one kernel: add --backend live")
    return scenario


def build_scenario(args, *, pool: Optional[dict] = None,
                   **scenario_kwargs) -> Scenario:
    """The un-run scenario the shared flags describe."""
    scenario_kwargs.setdefault("backend", getattr(args, "backend", "sim"))
    return _place(Scenario(nodes=args.nodes, seed=args.seed,
                           **scenario_kwargs), args, pool)


def run_scenario(args, configure: Callable[[Scenario], object],
                 **scenario_kwargs) -> Scenario:
    """Run what the flags describe and return the finished scenario.

    ``configure(scenario)`` adds the command's instruments while the
    scenario is still un-run.  Under ``--faults`` the scenario is the
    chaos timeline's (:func:`repro.harness.chaos.chaos_recovery`).
    """
    if getattr(args, "faults", False):
        if getattr(args, "backend", "sim") != "sim":
            raise SystemExit("--faults needs the simulator's fault "
                             "injector; drop --backend live")
        from repro.harness.chaos import chaos_recovery
        return chaos_recovery(
            nodes=args.nodes, seed=args.seed, duration=args.duration,
            configure=lambda sc: configure(_place(sc, args))).scenario
    scenario = build_scenario(args, **scenario_kwargs)
    configure(scenario)
    return scenario.run(args.duration)

#!/usr/bin/env python
"""Wide-area grids: federating dproc sites over WAN links.

The paper's future work ("using dproc in wide-area grids") realised:
three clusters — two compute sites and a visualization site — exchange
condensed site summaries over slow WAN links, so a grid scheduler at
one site can pick the best remote site without any raw monitoring
traffic ever crossing the wide area.

Run:  python examples/wide_area_grid.py
"""

from __future__ import annotations

from repro.dproc import deploy_dproc
from repro.dproc.federation import GridFederation
from repro.sim import Environment, build_cluster
from repro.units import mbps, msec
from repro.workloads import AmbientActivity, Linpack


def make_site(env, federation, site, prefix, n_nodes):
    names = [f"{prefix}{i}" for i in range(n_nodes)]
    cluster = build_cluster(env, nodes=n_nodes, seed=17, names=names)
    dprocs = deploy_dproc(cluster)
    for node in cluster:
        AmbientActivity(node, intensity=0.4).start()
    for dp in dprocs.values():
        dp.dmon.modules["cpu"].configure("period", 5.0)
    return federation.add_site(site, cluster, dprocs, gateway=names[0])


def main() -> None:
    env = Environment()
    federation = GridFederation(env, summary_period=5.0)

    atlanta = make_site(env, federation, "atlanta", "atl", 4)
    oakridge = make_site(env, federation, "oakridge", "orn", 6)
    chicago = make_site(env, federation, "chicago", "chi", 2)

    # A little grid: Atlanta <-> Oak Ridge (fast regional link),
    # Atlanta <-> Chicago (slower national link).
    federation.connect("atlanta", "oakridge",
                       bandwidth=mbps(45), latency=msec(12))
    federation.connect("atlanta", "chicago",
                       bandwidth=mbps(10), latency=msec(40))
    federation.start()

    # Saturate Oak Ridge with a parallel job.
    for node in oakridge.cluster:
        for _ in range(2):
            Linpack(node).start()

    env.run(until=60.0)

    gw = atlanta.gateway_dproc
    print("grid view from Atlanta's gateway (/proc/grid):")
    print(f"{'site':>10} {'nodes':>5} {'mean load':>9} "
          f"{'free mem (GiB)':>14}")
    for site in sorted(federation.sites):
        nodes = gw.read(f"/proc/grid/{site}/n_nodes").strip()
        load = float(gw.read(f"/proc/grid/{site}/mean_loadavg"))
        free = float(gw.read(f"/proc/grid/{site}/total_free_bytes"))
        print(f"{site:>10} {nodes:>5} {load:9.2f} {free / 2**30:14.2f}")

    target = federation.least_loaded_site("atlanta")
    print(f"\na grid scheduler at Atlanta would place new work on: "
          f"{target}")

    link = federation._links["atlanta"][0]
    print(f"WAN bytes Atlanta<->OakRidge in 60 s: "
          f"{link.bytes_carried:.0f} B "
          f"(summaries only; raw monitoring stays on-site)")


if __name__ == "__main__":
    main()

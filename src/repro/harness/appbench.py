"""SmartPointer experiments: Figures 9-11 of the paper.

Three client scenarios from §4.2:

* **CPU-loaded client** (Fig 9a/9b) — linpack threads are started on
  the client one at a time; compare no filter / static filter / dynamic
  filter using dproc's CPU information.
* **Network-perturbed client** (Fig 10) — 3 MB events over a link
  shared with an Iperf UDP flood of increasing rate; the stream runs at
  ~30 Mbps so latency blows up past ~70 Mbps of perturbation unless the
  server adapts.
* **Hybrid client** (Fig 11) — combined CPU and network perturbation;
  compare dynamic filters driven by cpu-only, network-only, and hybrid
  (cpu+net+disk) monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.api import Scenario
from repro.dproc import DMonConfig
from repro.harness.experiment import FigureResult
from repro.sim import Environment, NodeConfig
from repro.smartpointer import (AdaptationPolicy, ClientCapabilities,
                                DynamicAdaptation, NoAdaptation,
                                SmartPointerClient, SmartPointerServer,
                                StaticAdaptation, StreamProfile,
                                Transform)
from repro.units import KB, MB
from repro.workloads import IperfPerturb, Linpack

__all__ = [
    "SmartPointerRig", "cpu_experiment_policies",
    "fig9a_latency_timeline", "fig9b_event_rate",
    "fig10_latency_vs_network", "fig11_hybrid_monitors",
]

#: Profile of the CPU experiment stream: 200 KB frames at 5 events/s,
#: 2.4 Mflop to render a full frame on the 17.4 Mflops client.
CPU_PROFILE = StreamProfile(base_size=KB(200), base_client_cost=2.4,
                            server_preprocess_cost=2.0)
CPU_RATE = 5.0

#: Profile of the network experiment: "the server sends much larger
#: events (3 MBytes) ... the client does very little processing".
NET_PROFILE = StreamProfile(base_size=MB(3), base_client_cost=0.05,
                            server_preprocess_cost=2.0)
NET_RATE = 1.25   # 3 MB * 1.25/s = 30 Mbps, the paper's stream rate

#: Profile of the hybrid experiment: both large and compute-heavy.
HYBRID_PROFILE = StreamProfile(base_size=MB(3), base_client_cost=2.4,
                               server_preprocess_cost=2.0)
HYBRID_RATE = 1.25

#: The CPU module's load-averaging window (s) on the rig's hosts.
CPU_AVG_PERIOD = 5.0


@dataclass
class SmartPointerRig:
    """A wired SmartPointer testbed: server, client, dproc, perturbers."""

    env: Environment
    cluster: object
    server: SmartPointerServer
    client: SmartPointerClient
    client_node: object
    iperf_nodes: tuple

    @classmethod
    def build(cls, policy: AdaptationPolicy,
              profile: StreamProfile, rate: float,
              seed: int = 0,
              shared_segment: bool = False,
              client_logs_to_disk: bool = False) -> "SmartPointerRig":
        """Construct the two-node (plus iperf pair) experiment rig.

        The server is a quad-CPU machine; the client single-CPU (the
        paper's clients range down to handhelds).  With
        ``shared_segment`` all four hosts sit behind one 100 Mbps
        segment, reproducing "two different nodes sharing a link
        between the former two".
        """
        scenario = Scenario(
            nodes=4, seed=seed,
            names=["server", "client", "iperf1", "iperf2"],
            node_configs=[NodeConfig(n_cpus=4), NodeConfig(n_cpus=1),
                          NodeConfig(n_cpus=1), NodeConfig(n_cpus=1)],
            dmon=DMonConfig(poll_interval=1.0),
            monitor_hosts=["server", "client"])
        if shared_segment:
            def share_segment(sc: Scenario) -> None:
                seg = sc.nodes.fabric.add_segment("shared")
                for port in sc.nodes.fabric.hosts.values():
                    port.segment = seg
            scenario.with_cluster_setup(share_segment)
        scenario.build()
        env = scenario.env
        cluster = scenario.nodes
        dprocs = scenario.dprocs
        # Responsive CPU averaging, as an adaptive application would
        # configure via the control file.
        dprocs["server"].write("/proc/cluster/client/control",
                               "period cpu 1")
        for dp in dprocs.values():
            dp.dmon.modules["cpu"].configure("period", CPU_AVG_PERIOD)
        client = SmartPointerClient(
            cluster["client"], logs_to_disk=client_logs_to_disk).start()
        server = SmartPointerServer(cluster["server"],
                                    dproc=dprocs["server"])
        server.add_client(
            "client", profile, rate=rate, policy=policy,
            caps=ClientCapabilities(
                mflops=cluster["client"].config.mflops_per_cpu,
                n_cpus=1,
                disk_rate=cluster["client"].config.disk_rate,
                logs_to_disk=client_logs_to_disk))
        return cls(env=env, cluster=cluster, server=server,
                   client=client, client_node=cluster["client"],
                   iperf_nodes=(cluster["iperf1"], cluster["iperf2"]))


def cpu_experiment_policies() -> dict[str, Callable[[], AdaptationPolicy]]:
    """The three §4.2 configurations for the CPU-loaded client."""
    return {
        "no filter": NoAdaptation,
        # The client-specified a-priori customization: halve the
        # client's rendering work by pre-rendering at the server.
        "static filter": lambda: StaticAdaptation(
            Transform(preprocess=0.5)),
        "dynamic filter": lambda: DynamicAdaptation(resources=("cpu",)),
    }


def fig9a_latency_timeline(duration: float = 2000.0,
                           thread_interval: float = 200.0,
                           sample_every: float = 20.0,
                           seed: int = 0) -> FigureResult:
    """Figure 9(a): latency vs time as linpack threads start."""
    result = FigureResult(
        experiment_id="fig9a",
        title="SmartPointer latency under increasing CPU load",
        xlabel="time (s)", ylabel="propagation + processing time (s)",
        expectation="latency climbs with each linpack thread for "
                    "no/static filters (paper: up to ~70 s); stays "
                    "~flat for the dynamic filter")
    for label, factory in cpu_experiment_policies().items():
        rig = SmartPointerRig.build(factory(), CPU_PROFILE, CPU_RATE,
                                    seed=seed)
        env = rig.env

        def loader():
            while env.now + thread_interval <= duration:
                yield env.timeout(thread_interval)
                Linpack(rig.client_node).start()

        env.process(loader())
        xs, ys = [], []
        t = sample_every
        while t <= duration:
            env.run(until=t)
            window_start = t - sample_every
            try:
                ys.append(rig.client.latencies.mean(since=window_start))
                xs.append(t)
            except ValueError:
                pass  # no events processed in this window
            t += sample_every
        result.add_series(label, xs, ys)
    return result


def fig9b_event_rate(threads: Iterable[int] = range(0, 10),
                     settle: float = 40.0,
                     measure: float = 60.0,
                     seed: int = 0) -> FigureResult:
    """Figure 9(b): processed events/s vs number of linpack threads."""
    result = FigureResult(
        experiment_id="fig9b",
        title="SmartPointer event rate under CPU load",
        xlabel="linpack threads", ylabel="events/s",
        expectation="the dynamic filter holds the full ~5 events/s; "
                    "static degrades beyond a few threads; no filter "
                    "degrades worst")
    threads = list(threads)
    for label, factory in cpu_experiment_policies().items():
        ys = []
        for k in threads:
            rig = SmartPointerRig.build(factory(), CPU_PROFILE,
                                        CPU_RATE, seed=seed)
            rig.env.run(until=settle)
            for _ in range(k):
                Linpack(rig.client_node).start()
            rig.env.run(until=settle + measure)
            ys.append(rig.client.event_rate(window=measure / 2))
        result.add_series(label, threads, ys)
    return result


def network_experiment_policies() -> dict[
        str, Callable[[], AdaptationPolicy]]:
    """The three §4.2 configurations for the network experiment."""
    return {
        "no filter": NoAdaptation,
        "static filter": lambda: StaticAdaptation(
            Transform(downsample=0.8)),
        "dynamic filter": lambda: DynamicAdaptation(resources=("net",)),
    }


def fig10_latency_vs_network(perturbations: Iterable[float] =
                             range(0, 100, 10),
                             settle: float = 30.0,
                             measure: float = 60.0,
                             seed: int = 0) -> FigureResult:
    """Figure 10: latency vs Iperf perturbation on a shared link."""
    result = FigureResult(
        experiment_id="fig10",
        title="SmartPointer latency under network perturbation",
        xlabel="network perturbation (Mbps)", ylabel="latency (s)",
        expectation="flat until ~70 Mbps (the stream needs 30 of the "
                    "100 Mbps link), then drastic increase for "
                    "no/static filters; the dynamic filter stays low")
    perturbations = list(perturbations)
    for label, factory in network_experiment_policies().items():
        ys = []
        for rate in perturbations:
            rig = SmartPointerRig.build(factory(), NET_PROFILE,
                                        NET_RATE, seed=seed,
                                        shared_segment=True)
            if rate > 0:
                IperfPerturb(rig.iperf_nodes[0], rig.iperf_nodes[1],
                             rate_mbps=rate).start()
            rig.env.run(until=settle + measure)
            ys.append(rig.client.latencies.mean(since=settle))
        result.add_series(label, perturbations, ys)
    return result


def hybrid_monitor_policies() -> dict[
        str, Callable[[], AdaptationPolicy]]:
    """The Figure 11 comparison: which resources the filter monitors."""
    return {
        "cpu monitor": lambda: DynamicAdaptation(resources=("cpu",)),
        "network monitor": lambda: DynamicAdaptation(
            resources=("net",)),
        "hybrid monitor": lambda: DynamicAdaptation(
            resources=("cpu", "net", "disk")),
    }


def fig11_hybrid_monitors(steps: Iterable[int] = range(1, 9),
                          settle: float = 30.0,
                          measure: float = 60.0,
                          seed: int = 0) -> FigureResult:
    """Figure 11: combined perturbation, single- vs multi-resource.

    At step k the client runs k linpack threads and the shared link
    carries 10·k Mbps of Iperf UDP — the paper's x-axis
    "1 linpack, 10 Mbps" ... "8 linpack, 80 Mbps".
    """
    result = FigureResult(
        experiment_id="fig11",
        title="Latency with combined CPU+network perturbation",
        xlabel="perturbation step (k linpack, 10k Mbps)",
        ylabel="latency (s)",
        expectation="the hybrid (cpu+net+disk) monitor outperforms "
                    "both single-resource monitors; single-resource "
                    "adaptation aggravates the other bottleneck")
    steps = list(steps)
    for label, factory in hybrid_monitor_policies().items():
        ys = []
        for k in steps:
            rig = SmartPointerRig.build(factory(), HYBRID_PROFILE,
                                        HYBRID_RATE, seed=seed,
                                        shared_segment=True,
                                        client_logs_to_disk=True)
            for _ in range(k):
                Linpack(rig.client_node).start()
            IperfPerturb(rig.iperf_nodes[0], rig.iperf_nodes[1],
                         rate_mbps=10.0 * k).start()
            rig.env.run(until=settle + measure)
            ys.append(rig.client.latencies.mean(since=settle))
        result.add_series(label, steps, ys)
    return result

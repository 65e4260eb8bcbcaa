"""Discrete-event cluster simulator substrate.

Replaces the paper's physical testbed (8 × quad Pentium Pro / switched
100 Mbps Ethernet / Linux 2.4) for the reproduction.  See DESIGN.md §2
for the substitution rationale.
"""

from repro.sim.core import AllOf, Environment, Process, SimEvent, Timeout
from repro.sim.cluster import Cluster, build_cluster
from repro.sim.cpu import CPU, CpuJob
from repro.sim.disk import Disk
from repro.sim.faults import FaultInjector, FaultPlane
from repro.sim.link import Flow, FlowKind, Link
from repro.sim.memory import Allocation, Memory
from repro.sim.network import Fabric, FixedFlowHandle, HostPort, \
    SharedSegment
from repro.sim.node import Node, NodeConfig
from repro.sim.power import Battery
from repro.sim.rng import RngHub
from repro.sim.stores import Resource, Store
from repro.sim.transport import Connection, Message, NetStack, Protocol
from repro.runtime.series import CounterTrace, EwmaLoad, WindowAverage

__all__ = [
    "AllOf", "Environment", "Process", "SimEvent", "Timeout",
    "Cluster", "build_cluster",
    "CPU", "CpuJob", "Disk", "Memory", "Allocation",
    "FaultInjector", "FaultPlane",
    "Flow", "FlowKind", "Link",
    "Fabric", "FixedFlowHandle", "HostPort", "SharedSegment",
    "Node", "NodeConfig",
    "Battery", "RngHub",
    "Resource", "Store",
    "Connection", "Message", "NetStack", "Protocol",
    "CounterTrace", "EwmaLoad", "WindowAverage",
]

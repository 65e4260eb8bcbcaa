"""repro — reproduction of the dproc distributed monitoring system.

"Resource-Aware Stream Management with the Customizable dproc
Distributed Monitoring Mechanisms", Agarwala, Poellabauer, Kong,
Schwan, Wolf — HPDC 2003.

Subpackages
-----------
``repro.sim``
    Discrete-event cluster simulator (CPUs, memory, disks, switched
    Ethernet, transport) standing in for the paper's physical testbed.
``repro.ecode``
    The E-code dynamic filter language: lexer, parser, type checker and
    code generator (compile-at-the-executing-host).
``repro.kecho``
    KECho kernel-level publish/subscribe event channels; the bus is
    the channel directory.
``repro.dproc``
    The paper's contribution: the d-mon coordinator, monitoring modules
    (CPU/MEM/DISK/NET/PMC), parameters, dynamic filters, and the
    ``/proc/cluster`` pseudo-filesystem interface.
``repro.smartpointer``
    The SmartPointer scientific-visualization stream application with
    resource-aware stream customization.
``repro.workloads``
    linpack / Iperf / ambient-activity load generators.
``repro.harness``
    One experiment per evaluation figure (4-11) plus ablations.
``repro.runtime``
    The backend-neutral runtime protocol (clock, transport, node
    group) plus the simulator adapter; ``repro.live`` is the asyncio
    socket backend behind the same protocol.
``repro.api``
    The :class:`~repro.api.Scenario` facade — one object that builds,
    wires and runs a whole monitored cluster on either backend.

Quick start::

    from repro import Scenario

    scenario = Scenario(nodes=8, seed=0).run(10.0)
    print(scenario.dprocs["alan"].read("/proc/cluster/maui/loadavg"))
"""

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # facade (repro.api)
    "Scenario", "ScenarioError",
    # simulator (repro.sim): the clock a sim run exposes as
    # ``scenario.env`` and the per-node hardware description
    "Environment", "NodeConfig",
    # toolkit surface (repro.dproc)
    "Dproc", "DMonConfig", "MetricId",
]

#: Lazy re-exports (PEP 562): importing ``repro`` stays cheap; the
#: heavy subpackages load on first attribute access.
_EXPORTS = {
    "Scenario": "repro.api",
    "ScenarioError": "repro.api",
    "Environment": "repro.sim",
    "NodeConfig": "repro.sim",
    "Dproc": "repro.dproc",
    "DMonConfig": "repro.dproc",
    "MetricId": "repro.dproc",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro' has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

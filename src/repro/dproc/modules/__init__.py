"""dproc monitoring modules (CPU, MEM, DISK, NET, PMC, BATTERY, SELF)."""

from repro.dproc.modules.base import KeyedSample, MonitoringModule
from repro.dproc.modules.battery_mon import BatteryMon
from repro.dproc.modules.cpu_mon import CpuMon
from repro.dproc.modules.disk_mon import DiskMon
from repro.dproc.modules.mem_mon import MemMon
from repro.dproc.modules.net_mon import NetMon
from repro.dproc.modules.pmc_mon import PmcMon
from repro.dproc.modules.proc_mon import ProcMon
from repro.dproc.modules.self_mon import SelfMon
from repro.errors import DprocError

__all__ = ["KeyedSample", "MonitoringModule",
           "BatteryMon", "CpuMon", "DiskMon", "MemMon", "NetMon",
           "PmcMon", "ProcMon", "SelfMon", "DEFAULT_MODULES",
           "SIM_MODULES", "sim_module_factory"]

#: The paper's standard module set, by name.
DEFAULT_MODULES = ("cpu", "mem", "disk", "net", "pmc")

#: module name -> the class that reads it from a simulated node.
SIM_MODULES = {
    "cpu": CpuMon,
    "mem": MemMon,
    "disk": DiskMon,
    "net": NetMon,
    "pmc": PmcMon,
    "proc": ProcMon,
    "dproc": SelfMon,
}


def sim_module_factory(name: str, node):
    """The simulator's ``module_factory`` for ``Dproc``: one module by
    its standard name."""
    try:
        cls = SIM_MODULES[name]
    except KeyError:
        raise DprocError(f"no standard module named {name!r}") from None
    return cls(node)

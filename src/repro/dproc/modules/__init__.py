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

__all__ = ["KeyedSample", "MonitoringModule",
           "BatteryMon", "CpuMon", "DiskMon", "MemMon", "NetMon",
           "PmcMon", "ProcMon", "SelfMon"]


def default_modules(node):
    """The paper's standard module set for one node."""
    return [CpuMon(node), MemMon(node), DiskMon(node), NetMon(node),
            PmcMon(node)]

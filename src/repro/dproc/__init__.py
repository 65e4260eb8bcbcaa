"""dproc: the paper's customizable distributed monitoring toolkit.

Public surface:

* :class:`Dproc` — per-node toolkit with the ``/proc/cluster``
  interface (a run's instances are built by :class:`repro.api.Scenario`);
* :class:`DMon` — the coordinator (register modules, parameters,
  dynamic filters, channels);
* :class:`MetricId` and the metric namespace;
* the parameter engine (:class:`MetricPolicy`, threshold rules);
* the monitoring modules (CPU/MEM/DISK/NET/PMC).
"""

from repro.dproc.aggregate import ClusterView
from repro.dproc.batch import RecordBatch
from repro.dproc.central import CentralCollector
from repro.dproc.control_api import (ControlRequest, FilterCommand,
                                     topk_filter, topk_source)
from repro.dproc.control_file import parse_control_text
from repro.dproc.dmon import (DMon, DMonConfig, PEER_DEAD, PEER_FRESH,
                              PEER_STALE, PEER_UNKNOWN, RemoteMetric)
from repro.dproc.filters import DeployedFilter, FilterManager
from repro.dproc.metrics import (METRIC_CONSTANTS, METRIC_FILES,
                                 MODULE_METRICS, MetricId, metric_by_name)
from repro.dproc.modules import (BatteryMon, CpuMon, DiskMon, KeyedSample,
                                 MemMon, MonitoringModule, NetMon, PmcMon,
                                 ProcMon)
from repro.dproc.params import (AboveThreshold, BelowThreshold,
                                ChangeThreshold, MetricPolicy,
                                RangeThreshold, ThresholdRule,
                                parse_threshold_spec)
from repro.dproc.procfs import DirTemplate, ProcFS, ProcFile, Roster
from repro.dproc.toolkit import Dproc

__all__ = [
    "ClusterView",
    "CentralCollector",
    "parse_control_text",
    "ControlRequest", "FilterCommand", "topk_filter", "topk_source",
    "DMon", "DMonConfig", "RecordBatch", "RemoteMetric",
    "PEER_FRESH", "PEER_STALE", "PEER_DEAD", "PEER_UNKNOWN",
    "DeployedFilter", "FilterManager",
    "METRIC_CONSTANTS", "METRIC_FILES", "MODULE_METRICS", "MetricId",
    "metric_by_name",
    "BatteryMon", "CpuMon", "DiskMon", "KeyedSample", "MemMon",
    "MonitoringModule", "NetMon", "PmcMon", "ProcMon",
    "AboveThreshold", "BelowThreshold", "ChangeThreshold", "MetricPolicy",
    "RangeThreshold", "ThresholdRule", "parse_threshold_spec",
    "ProcFS", "ProcFile", "DirTemplate", "Roster",
    "Dproc",
]

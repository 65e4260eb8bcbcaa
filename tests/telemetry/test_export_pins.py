"""Byte pins of what the telemetry registries export.

Every reader of a node's registry — the obs JSON and OpenMetrics
exports, ``registry.snapshot()`` and the dogfooded
``/proc/cluster/<self>/dproc/{channels,dmon}`` files — is pinned here
to the bytes it produced while every instrument was built when its
owner was.  An instrument that waits for its first write must read as
its zero everywhere, so none of these may move.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import Scenario
from repro.harness.obscli import main

OBS_ARGS = ["--nodes", "10", "--seed", "7", "--duration", "30",
            "--faults"]

#: sha256 of ``python -m repro.harness obs <OBS_ARGS> --export <fmt>``.
OBS_EXPORTS = {
    "json":
        "d6d0fc64f9b3b8aed638886d4d6b85b7a8726dc5cd04f6ea6945d4a653f96643",
    "openmetrics":
        "a040c2e1c8bdf51610d21179d3bee0f72d671bfa5cb21eafdff6bf2f0394f16e",
}

#: sha256 of every node's ``registry.snapshot()`` after a 16-node
#: ``Scenario`` ran to 10 s, as sorted JSON; 544 instruments in all.
SNAPSHOTS = \
    "fbcbc8e194822b9a392bb901afafb275046b45cb6f0c6ff003afb04d551fcca4"
SNAPSHOT_INSTRUMENTS = 544

_NO_CHANNEL = "count=0 mean=nan p50=nan p99=nan max=nan"

#: ``/proc/cluster/alan/dproc/channels`` of ``sc3`` as built.
CHANNELS_BUILT = "".join(
    f"kecho.dproc.{channel}.{line}\n"
    for channel in ("control", "monitor")
    for line in (f"delivery_seconds: {_NO_CHANNEL}",
                 "failed_deliveries: 0", f"fanout: {_NO_CHANNEL}",
                 "receives: 0", "rx_bytes: 0", "submit_seconds: 0",
                 "submits: 0", "tx_bytes: 0"))

#: ``/proc/cluster/alan/dproc/dmon`` of ``sc3`` as built.
DMON_BUILT = "".join(
    f"dmon.{name}: 0\n"
    for name in ("collect_seconds", "events_published", "filter_seconds",
                 "module.cpu.collect_seconds",
                 "module.disk.collect_seconds",
                 "module.mem.collect_seconds",
                 "module.net.collect_seconds",
                 "module.pmc.collect_seconds", "param_seconds", "polls",
                 "receive_seconds", "records_published", "submit_seconds"))

#: The same two files once ``sc3`` has run to 10 s.
CHANNELS_RUN = CHANNELS_BUILT.split("kecho.dproc.monitor.")[0] + (
    "kecho.dproc.monitor.delivery_seconds: count=30 mean=9.424e-05 "
    "p50=0.001 p99=0.001 max=0.00014136\n"
    "kecho.dproc.monitor.failed_deliveries: 0\n"
    "kecho.dproc.monitor.fanout: count=10 mean=2 p50=4 p99=4 max=2\n"
    "kecho.dproc.monitor.receives: 30\n"
    "kecho.dproc.monitor.rx_bytes: 5880\n"
    "kecho.dproc.monitor.submit_seconds: 0.00540846\n"
    "kecho.dproc.monitor.submits: 10\n"
    "kecho.dproc.monitor.tx_bytes: 3920\n")
DMON_RUN = (
    "dmon.collect_seconds: 0.00125\n"
    "dmon.events_published: 10\n"
    "dmon.filter_seconds: 0\n"
    + "".join(f"dmon.module.{module}.collect_seconds: 0.00025\n"
              for module in ("cpu", "disk", "mem", "net", "pmc"))
    + "dmon.param_seconds: 0.00026\n"
    "dmon.polls: 10\n"
    "dmon.receive_seconds: 0.00544234\n"
    "dmon.records_published: 130\n"
    "dmon.submit_seconds: 0.00540846\n")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("fmt", sorted(OBS_EXPORTS))
def test_obs_export_bytes(fmt, capsys):
    assert main(OBS_ARGS + ["--export", fmt]) == 0
    assert _sha256(capsys.readouterr().out) == OBS_EXPORTS[fmt]


def test_every_registry_snapshot_of_a_16_node_run():
    scenario = Scenario(nodes=16, seed=1).run_until(10.0)
    snapshots = {host: registry.snapshot()
                 for host, registry in scenario.registries.items()}
    assert sum(map(len, snapshots.values())) == SNAPSHOT_INSTRUMENTS
    assert _sha256(json.dumps(snapshots, sort_keys=True)) == SNAPSHOTS


def test_dproc_telemetry_files_as_built_and_after_a_run(sc3):
    alan = sc3.dprocs["alan"]

    def read(name: str) -> str:
        return alan.read(f"/proc/cluster/alan/dproc/{name}")

    assert read("channels") == CHANNELS_BUILT
    assert read("dmon") == DMON_BUILT
    sc3.run_until(10.0)
    assert read("channels") == CHANNELS_RUN
    assert read("dmon") == DMON_RUN

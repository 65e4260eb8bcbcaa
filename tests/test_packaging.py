"""What installing the package must bring along, and what importing
it must leave out."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_entry_points_load_neither_networkx_nor_scipy():
    """Neither networkx nor scipy is a dependency; no entry point may
    import them."""
    code = ("import repro.api, repro.live.runtime, repro.harness, sys; "
            "assert not {'networkx', 'scipy'} & set(sys.modules)")
    result = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr


def test_series_module_loads_without_numpy():
    """The windowed counters are standard library only; a numpy import
    here would come back on every backend that reads a counter."""
    code = ("import sys, repro.runtime.series; "
            "assert 'numpy' not in sys.modules")
    result = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr


def test_live_entry_points_load_neither_numpy_nor_the_simulator():
    """A live process simulates nothing: importing the facade, the
    toolkit, the live runtime and the ``live`` command, then running a
    live cluster, loads neither numpy nor any ``repro.sim`` module."""
    code = "\n".join([
        "import sys",
        "import repro.api, repro.dproc, repro.live.runtime",
        "import repro.harness.livecli",
        "from repro.api import Scenario",
        "Scenario(nodes=2, seed=0, backend='live').run(0.3)",
        "loaded = sorted(m for m in sys.modules",
        "                if m.split('.')[0] == 'numpy'",
        "                or m == 'repro.sim' or m.startswith('repro.sim.'))",
        "assert not loaded, loaded",
    ])
    result = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr


def test_every_third_party_import_is_a_declared_dependency():
    """Both ways: a declared dependency nothing imports would only
    make every install pay for it."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    declared = {re.split(r"[^A-Za-z0-9_.-]", dep, maxsplit=1)[0].lower()
                for dep in project["project"]["dependencies"]}
    imported = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    assert third_party and third_party == declared


#: Every settable value of the deployment-facing configuration.  A new
#: field or parameter fails here until it is added to this list, so the
#: diff that adds it shows the list growing; one that nothing sets
#: belongs in a module constant instead.
KNOBS = {
    "DMonConfig": ["poll_interval", "payload_padding", "metric_subset",
                   "subscribe_monitoring"],
    "NodeConfig": ["n_cpus", "mflops_per_cpu", "memory_bytes",
                   "disk_rate"],
    "BatchConfig": ["max_bytes", "max_delay"],
    "FlowConfig": ["high_watermark", "low_watermark", "max_deferred"],
    "Scenario.__init__": ["nodes", "seed", "backend", "dmon", "modules",
                          "monitor_hosts", "names", "node_configs"],
    "Scenario.with_cluster_setup": ["fn"],
    "Scenario.with_faults": ["configure"],
    "Scenario.with_node_pool": ["workers", "watchers", "batch"],
    "Scenario.with_observability": ["sample_interval", "rules",
                                    "scrape_port", "scrape_host"],
    "Scenario.with_setup": ["fn"],
    "Scenario.with_stream": [],
    "Scenario.with_tracing": ["collector", "kwargs"],
}


def test_settable_values_are_the_written_list():
    import dataclasses
    import inspect

    from repro.api import Scenario
    from repro.dproc.dmon import DMonConfig
    from repro.live.transport import BatchConfig, FlowConfig
    from repro.sim.node import NodeConfig

    found = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
             for cls in (DMonConfig, NodeConfig, BatchConfig, FlowConfig)}
    for name in vars(Scenario):
        if name == "__init__" or name.startswith("with_"):
            params = inspect.signature(getattr(Scenario, name)).parameters
            found[f"Scenario.{name}"] = list(params)[1:]
    assert found == KNOBS

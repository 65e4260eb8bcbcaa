"""What installing the package must bring along, and what importing
it must leave out."""

from __future__ import annotations

import ast
import importlib.util
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


def test_sim_path_loads_neither_numpy_nor_asyncio():
    """A simulation draws its node streams in Python: building and
    running a sim ``Scenario``, and the ``build_cluster`` + ``Dproc`` +
    ``KechoBus`` path the benchmark drives, loads no numpy, no asyncio
    and no ``repro.live`` module."""
    code = "\n".join([
        "import sys",
        "from repro.api import Scenario",
        "Scenario(nodes=8, seed=1).run(5.0)",
        "import repro.sim as sim",
        "from repro.dproc import Dproc",
        "from repro.kecho import KechoBus",
        "env = sim.Environment()",
        "cluster = sim.build_cluster(env, nodes=8, seed=1)",
        "bus = KechoBus()",
        "dprocs = [Dproc(node, bus) for node in cluster]",
        "for dproc in dprocs:",
        "    dproc.add_cluster_node(cluster.names[0])",
        "    dproc.start()",
        "env.run(until=5.0)",
        "assert dprocs[1].dmon.polls > 0",
        "loaded = sorted(m for m in sys.modules",
        "                if m.split('.')[0] in ('numpy', 'asyncio')",
        "                or m == 'repro.live' or m.startswith('repro.live.'))",
        "assert not loaded, loaded",
    ])
    result = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr


#: Imports each named module in a child forked from an interpreter that
#: has loaded nothing of the package (cheaper than starting a fresh
#: interpreter per module), two children at a time, and names the
#: modules that failed.
_IMPORT_EACH_FIRST = """
import importlib, os, sys, traceback
assert not [m for m in sys.modules if m.split('.')[0] == 'repro']
todo, running, failed = sys.argv[:0:-1], {}, []
while todo or running:
    if todo and len(running) < 2:
        name = todo.pop()
        pid = os.fork()
        if pid == 0:
            try:
                importlib.import_module(name)
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        running[pid] = name
        continue
    pid, status = os.wait()
    if status:
        failed.append(running[pid])
    del running[pid]
print(sorted(failed))
sys.exit(1 if failed else 0)
"""


def test_every_module_imports_first():
    """Any module of the package can be the first one a program
    imports: no import cycle only works when entered from one side."""
    modules = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts[
            :-1 if path.name == "__init__.py" else None])
        for path in (SRC / "repro").rglob("*.py"))
    assert "repro.kecho.event" in modules and "repro" in modules
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH_FIRST, *modules],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stdout + result.stderr[-4000:]


def _sim_imports_outside_type_checking(tree: ast.AST,
                                       package: str) -> list[int]:
    """Line numbers of ``repro.sim`` imports not under ``if
    TYPE_CHECKING:`` (``package`` resolves relative imports)."""
    found = []

    def walk(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.If):
            test = node.test
            name = getattr(test, "id", getattr(test, "attr", None))
            for child in node.body:
                walk(child, guarded or name == "TYPE_CHECKING")
            for child in node.orelse:
                walk(child, guarded)
            return
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package)]
        else:
            modules = []
        if not guarded and any(m == "repro.sim"
                               or m.startswith("repro.sim.")
                               for m in modules):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            walk(child, guarded)

    walk(tree, False)
    return found


def test_dproc_imports_the_simulator_only_for_type_checking():
    """The toolkit runs on both backends, so every ``repro.sim`` import
    under ``repro/dproc``, at module level or inside a function, sits
    under ``if TYPE_CHECKING:`` and no run of the toolkit needs the
    simulator."""
    offenders = {}
    for path in sorted((SRC / "repro" / "dproc").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        package = module if path.name == "__init__.py" \
            else module.rpartition(".")[0]
        lines = _sim_imports_outside_type_checking(
            ast.parse(path.read_text()), package)
        if lines:
            offenders[str(path.relative_to(SRC))] = lines
    assert offenders == {}


def _imported_packages() -> dict[str, list[str]]:
    """Each top-level package a module under ``src/`` imports, at
    module level or inside a function, with the modules importing it."""
    imported: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], []).append(
                    str(path.relative_to(SRC)))
    return imported


def test_every_third_party_import_is_a_declared_dependency():
    """Both ways: a declared dependency nothing imports would only
    make every install pay for it."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    declared = {re.split(r"[^A-Za-z0-9_.-]", dep, maxsplit=1)[0].lower()
                for dep in project["project"]["dependencies"]}
    imported = set(_imported_packages())
    # The scan sees the standard library the package does use.
    assert {"math", "asyncio", "struct"} <= imported
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    assert third_party == declared


def test_the_package_depends_on_nothing_and_imports_no_numpy():
    """numpy is the tests' oracle only: installing the package brings
    nothing along, and no module under ``src/`` imports numpy."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert project["project"]["dependencies"] == []
    assert "numpy" in project["project"]["optional-dependencies"]["test"]
    assert _imported_packages().get("numpy", []) == []


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
    "Scenario.__init__": ["nodes", "seed", "backend", "dmon", "modules",
                          "monitor_hosts", "watchers", "names",
                          "node_configs"],
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
    from repro.live.transport import BatchConfig
    from repro.sim.node import NodeConfig

    found = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
             for cls in (DMonConfig, NodeConfig, BatchConfig)}
    for name in vars(Scenario):
        if name == "__init__" or name.startswith("with_"):
            params = inspect.signature(getattr(Scenario, name)).parameters
            found[f"Scenario.{name}"] = list(params)[1:]
    assert found == KNOBS


#: What builds a run by hand.  A run is built by ``Scenario`` alone, so
#: no benchmark or example calls these.
HAND_WIRING = {"build_cluster", "deploy_dproc", "Dproc", "KechoBus"}


def test_benchmarks_and_examples_build_runs_through_scenario():
    calls = {}
    for folder in ("benchmarks", "examples"):
        for path in sorted((ROOT / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in HAND_WIRING:
                    calls.setdefault(str(path.relative_to(ROOT)),
                                     []).append(node.lineno)
    assert calls == {}


def test_the_package_exports_no_hand_wiring():
    import repro
    import repro.dproc

    assert not {"build_cluster", "deploy_dproc"} & set(repro.__all__)
    assert "deploy_dproc" not in repro.dproc.__all__
    assert not hasattr(repro.dproc, "deploy_dproc")

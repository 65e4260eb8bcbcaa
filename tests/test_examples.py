"""Every script in ``examples/`` runs, and shows what its docstring says.

Each case loads one script, calls its ``main()`` in this process and
checks the claim of the script's docstring on what it printed.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def number(pattern: str, out: str) -> float:
    match = re.search(pattern, out)
    assert match, f"{pattern!r} not in output:\n{out}"
    return float(match.group(1))


def check_quickstart(out: str) -> None:
    # alan sees all three nodes, its parameter write is logged in
    # maui's control file, and maui's load reaches alan.
    for host in ("alan", "maui", "etna"):
        assert f"  {host}/: " in out
    assert "period cpu 2" in out
    assert "threshold loadavg above 0.5" in out
    assert number(r"alan sees loadavg=([\d.]+)", out) > 2.0


def check_custom_filter(out: str) -> None:
    # The Figure 3 filter cuts idle traffic, lets the loaded host's
    # records through, and never fails.
    assert "deployed filter 'fig3' on maui" in out
    assert number(r"unfiltered: maui publishes ([\d.]+)", out) > 0
    assert number(r"filtered, idle: +([\d.]+)", out) == 0.0
    assert number(r"filtered, loaded: ([\d.]+)", out) > 0
    assert number(r"emitted (\d+) records", out) > 0
    assert number(r"(\d+) errors", out) == 0


def check_batch_scheduler(out: str) -> None:
    # The saturated node gets fewer jobs than every node with a free
    # CPU, and the queue drains.
    jobs = {host: int(n) for host, n in
            re.findall(r"^  (\w+): (\d+) jobs", out, re.MULTILINE)}
    assert set(jobs) == {"maui", "etna", "kilauea"}
    assert all(jobs["etna"] < n for host, n in jobs.items()
               if host != "etna")
    assert number(r"jobs left in queue: (\d+)", out) == 0


def check_mobile_client(out: str) -> None:
    # BATTERY_MON joins a running d-mon; the server hears the battery
    # only below 30 % and then throttles the stream.
    assert "'battery'" not in out.splitlines()[0]
    assert "'battery'" in out.splitlines()[1]
    rows = re.findall(r"^ +\d+ +([\d.]+) +[\d.]+ +(yes|no \(>30%\))",
                      out, re.MULTILINE)
    assert rows
    for level, reported in rows:
        if reported != "yes":
            assert float(level) > 30.0
    assert number(r"low battery reported at t=\d+s \(([\d.]+)%\)",
                  out) < 30.0
    assert "stream throttled" in out


def check_cluster_top(out: str) -> None:
    # dtop consumes every stream entry, and the alarms fire once each
    # on the loaded and the leaking nodes, in the order they crossed.
    match = re.search(r"stream: (\d+) entries, (\d+) consumed", out)
    assert match and int(match.group(1)) > 0
    assert match.group(1) == match.group(2)
    assert [line for line in out.splitlines() if "ALARM" in line] == [
        "  ! ALARM kilauea: loadavg 2.18 > 2.0 at t=14s",
        "  ! ALARM maui: loadavg 2.45 > 2.0 at t=15s",
        "  ! ALARM etna: free memory down to 129 MiB",
    ]
    assert re.search(r"least loaded node right now: (alan|etna)", out)


def check_obs_dashboard(out: str) -> None:
    # The loss window degrades the drop SLO, every degraded window is
    # attributed to the injected fault, and the cluster recovers.
    windows = re.findall(r"^  drop-burn on \w+: .*\[(.*)\]$", out,
                         re.MULTILINE)
    assert windows and set(windows) == {"injected loss"}
    assert "healthy: True" in out
    assert "repro_dmon_events_published_total" in out


def check_smartpointer_demo(out: str) -> None:
    # Without dproc the client falls behind; with it, the stream keeps
    # the full rate under the same load.
    plain, adaptive = out.split("--- dynamic filter")
    row = r"^ +\d+ +\d+ +([\d.]+) +([\d.]+) +[\d.]+$"
    plain_rows = re.findall(row, plain, re.MULTILINE)
    adaptive_rows = re.findall(row, adaptive, re.MULTILINE)
    assert len(plain_rows) == len(adaptive_rows) == 4
    assert float(plain_rows[-1][0]) < 2.5
    assert float(plain_rows[-1][1]) > 10.0
    for rate, latency in adaptive_rows:
        assert float(rate) == pytest.approx(5.0, rel=0.05)
        assert float(latency) < 1.0


CHECKS = {
    "quickstart": check_quickstart,
    "custom_filter": check_custom_filter,
    "batch_scheduler": check_batch_scheduler,
    "mobile_client": check_mobile_client,
    "cluster_top": check_cluster_top,
    "obs_dashboard": check_obs_dashboard,
    "smartpointer_demo": check_smartpointer_demo,
}


def test_every_example_is_checked():
    assert {p.stem for p in EXAMPLES.glob("*.py")} == set(CHECKS)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_example(name, capsys):
    CHECKS[name](run_example(name, capsys))

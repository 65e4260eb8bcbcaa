"""The one CLI skeleton: every run subcommand takes the shared flags
from ``repro.harness.cli`` with its own defaults."""

from __future__ import annotations

import pytest

from repro.harness.__main__ import main

#: subcommand → (argv that reaches its parser, nodes, seed, duration).
DEFAULTS = {
    "stream": (["stream", "tail"], 12, 7, 20.0),
    "obs": (["obs"], 12, 7, 30.0),
    "live": (["live"], 4, 0, 10.0),
    "trace": (["trace"], 20, 1, 30.0),
}


@pytest.mark.parametrize("command", DEFAULTS)
def test_help_and_defaults(command, monkeypatch, capsys):
    argv, nodes, seed, duration = DEFAULTS[command]
    with pytest.raises(SystemExit) as done:
        main(argv + ["--help"])
    assert done.value.code == 0
    assert "--nodes" in capsys.readouterr().out

    # Parsing no arguments yields the defaults the command always had.
    import argparse
    parsed = []
    parse_args = argparse.ArgumentParser.parse_args

    def capture(self, args=None, namespace=None):
        parsed.append(parse_args(self, args, namespace))
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(SystemExit):
        main(argv)
    (args,) = parsed
    assert (args.nodes, args.seed, args.duration) \
        == (nodes, seed, duration)


@pytest.mark.parametrize("argv", [
    ["obs", "--workers", "2", "--duration", "1"],
    ["obs", "--workers", "2", "--duration", "1", "--faults"],
], ids=["obs", "obs-faults"])
def test_workers_on_the_simulator_exits_naming_the_live_backend(argv):
    """``--workers`` is the live node pool; the simulator has one
    kernel and says so in one sentence instead of a traceback."""
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code not in (0, None)
    assert "live" in str(done.value.code)


def test_stream_takes_no_workers_flag(capsys):
    with pytest.raises(SystemExit) as done:
        main(["stream", "stats", "--workers", "2"])
    assert done.value.code == 2
    assert "--workers" in capsys.readouterr().err

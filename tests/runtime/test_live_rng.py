"""A live host's random stream is numpy's, drawn without numpy.

``LiveNode.rng`` places each d-mon's first poll.  It reproduces
``np.random.default_rng([seed, index])`` bit for bit, so a live
cluster's poll phases are those numpy gave it; numpy is only this
test's oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig
from repro.live.clock import AsyncClock
from repro.live.node import LiveNode
from repro.live.rng import HostRng

SEEDS = (0, 1, 7, 2**40 + 5)
SPANS = (1.0, 0.01, 0.5, 3.7, 1e9)


@pytest.mark.parametrize("seed", SEEDS)
def test_stagger_draws_equal_numpys(seed):
    clock = AsyncClock()
    for index in range(64):
        rng = LiveNode("alan", clock, seed=seed, index=index).rng
        oracle = np.random.default_rng([seed, index])
        for span in SPANS:
            assert rng.uniform(0, span) == oracle.uniform(0, span)


def test_uniform_keeps_numpys_bounds_and_type():
    rng, oracle = HostRng(3, 9), np.random.default_rng([3, 9])
    for _ in range(100):
        value = rng.uniform(-2.5, 4.0)
        assert type(value) is float
        assert value == oracle.uniform(-2.5, 4.0)
        assert -2.5 <= value < 4.0


def test_negative_entropy_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError):
        HostRng(-1, 0)


def test_live_dmon_first_poll_waits_numpys_offset(monkeypatch):
    """The first timeout each live d-mon yields — its stagger — is the
    first ``uniform(0, poll)`` of numpy's generator for its host."""
    seed, poll = 7, 0.4
    hosts: dict = {}
    offsets: dict = {}
    spawn, timeout = LiveNode.spawn, AsyncClock.timeout

    def spy_spawn(self, gen, name=""):
        task = spawn(self, gen, name)
        if name == "d-mon":
            hosts[task] = self.name
        return task

    def spy_timeout(self, delay, value=None):
        host = hosts.get(self.active_process)
        if host is not None:
            offsets.setdefault(host, delay)
        return timeout(self, delay, value)

    monkeypatch.setattr(LiveNode, "spawn", spy_spawn)
    monkeypatch.setattr(AsyncClock, "timeout", spy_timeout)
    scenario = Scenario(nodes=3, seed=seed, backend="live",
                        dmon=DMonConfig(poll_interval=poll)).run(0.2)
    names = scenario.nodes.names
    assert offsets == {
        name: np.random.default_rng([seed, index]).uniform(0, poll)
        for index, name in enumerate(names)}

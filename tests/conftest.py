"""Shared fixtures for the dproc reproduction test suite."""

from __future__ import annotations

import gc
import tracemalloc
from typing import Callable

import pytest

from repro.api import Scenario
from repro.sim import Environment, build_cluster


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden", action="store_true", default=False,
        help="rewrite the checked-in golden-trace files from the "
             "current code instead of comparing against them")


@pytest.fixture
def regen_golden(request) -> bool:
    """True when the run should regenerate golden files."""
    return bool(request.config.getoption("--regen-golden"))


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def cluster3(env):
    """A small 3-node cluster (alan/maui/etna, as in the paper)."""
    return build_cluster(env, nodes=3, seed=42)


@pytest.fixture
def sc3() -> Scenario:
    """``cluster3`` as a built sim ``Scenario``: dproc on every node."""
    return Scenario(nodes=3, seed=42).build()


@pytest.fixture
def cluster8(env):
    """The paper's full 8-node cluster."""
    return build_cluster(env, nodes=8, seed=42)


def history_bytes(device: Callable[[], Callable[[int], None]]) -> int:
    """Bytes 2,000 operations on a device retain beyond what 200 do.

    ``device()`` builds a fresh device and returns its ``churn(n)``.
    A device that keeps state, not history, retains the same either
    way; the constant-device-state tests allow 16 KB of noise.
    """
    def retained(operations: int) -> int:
        churn = device()
        churn(50)  # warm-up: lazily built structures, interned values
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            churn(operations)
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    return retained(2000) - retained(200)


def run_process(env: Environment, gen, until: float | None = None):
    """Run ``gen`` as a process and return its result."""
    proc = env.process(gen)
    if until is None:
        return env.run(proc)
    env.run(until)
    return proc


class Inbox:
    """A receive handler bound on one stack that a process can wait on.

    A send returns nothing, so a test that must wait for a delivery
    waits on the receiver: ``next()`` is an event that succeeds with
    the next :class:`~repro.sim.transport.Message` to arrive on ``tag``;
    ``messages`` keeps every arrival in order.
    """

    def __init__(self, stack, tag: str = "t") -> None:
        self.env = stack.env
        self.messages: list = []
        self._waiting: list = []
        stack.bind(tag, self._arrive)

    def _arrive(self, msg) -> None:
        self.messages.append(msg)
        waiting, self._waiting = self._waiting, []
        for event in waiting:
            event.succeed(msg)

    def next(self):
        event = self.env.event()
        self._waiting.append(event)
        return event

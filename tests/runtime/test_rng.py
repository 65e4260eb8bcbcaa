"""One random stream for both backends: numpy's, held in Python ints.

:class:`Pcg64Stream` must draw exactly what
``np.random.default_rng(SeedSequence([seed, tag]))`` draws, for every
method either backend calls and in any interleaving — ``random`` and
``uniform`` in Python, ``exponential``/``poisson``/``integers`` through
numpy's C code on the stream's own state.  numpy is only these tests'
oracle.
"""

from __future__ import annotations

import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.dproc import DMonConfig
from repro.runtime.rng import Pcg64Stream
from repro.sim.core import Environment
from repro.sim.node import Node

SRC = Path(__file__).resolve().parents[2] / "src"


def oracle(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def test_uniform_keeps_numpys_bounds_and_type():
    rng, numpy_rng = Pcg64Stream(3, 9), oracle(3, 9)
    for _ in range(100):
        value = rng.uniform(-2.5, 4.0)
        assert type(value) is float
        assert value == numpy_rng.uniform(-2.5, 4.0)
        assert -2.5 <= value < 4.0


def test_negative_entropy_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError):
        Pcg64Stream(-1, 0)


def test_every_draw_is_a_python_number():
    rng = Pcg64Stream(1, 2)
    assert type(rng.random()) is float
    assert type(rng.uniform(0, 3)) is float
    assert type(rng.exponential(2.0)) is float
    assert type(rng.poisson(4.0)) is int
    assert type(rng.integers(7)) is int
    assert type(rng.integers(3, 2**40)) is int


def test_a_refused_numpy_draw_leaves_the_stream_untouched():
    rng, numpy_rng = Pcg64Stream(5, 6), oracle(5, 6)
    rng.integers(7)
    numpy_rng.integers(7)
    with pytest.raises(ValueError):
        rng.exponential(-1.0)
    with pytest.raises(ValueError):
        rng.poisson(-2.0)
    with pytest.raises(ValueError):
        rng.integers(0)
    assert [rng.integers(7) for _ in range(3)] \
        == numpy_rng.integers(7, size=3).tolist()
    assert rng.random() == numpy_rng.random()


@pytest.mark.parametrize("low, high, refusal", [
    (0.0, float("inf"), OverflowError),
    (0.0, float("nan"), OverflowError),
    (float("-inf"), 0.0, OverflowError),
    (1.0, 0.0, ValueError),
    (0.0, -0.0, ValueError),
])
def test_uniform_refuses_what_numpy_refuses(low, high, refusal):
    rng, numpy_rng = Pcg64Stream(2, 3), oracle(2, 3)
    with pytest.raises(refusal):
        numpy_rng.uniform(low, high)
    with pytest.raises(refusal):
        rng.uniform(low, high)
    assert rng.random() == numpy_rng.random()


#: One call of each method, with the arguments the backends use and
#: the edges of numpy's algorithms: poisson's multiplication method
#: below 10 and PTRS above, integers' 32-bit buffered path (ranges up
#: to 2**32) and its 64-bit path.
DRAWS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), st.floats(-1e3, 1e3),
              st.floats(-1e3, 1e3)),
    st.tuples(st.just("exponential"), st.floats(0.0, 50.0)),
    st.tuples(st.just("poisson"), st.sampled_from(
        [0.0, 0.1, 2.5, 9.99, 10.0, 40.0])),
    st.tuples(st.just("integers"), st.sampled_from(
        [1, 2, 7, 2**31, 2**32, 2**32 + 1, 2**40])),
)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64), tag=st.integers(0, 2**32 - 1),
       runs=st.lists(st.tuples(DRAWS, st.integers(1, 5)), max_size=30))
def test_interleaved_draws_equal_numpys(seed, tag, runs):
    """Runs of 1-5 equal calls, interleaved: an odd run of 32-bit
    ``integers`` leaves half a 64-bit output buffered in
    ``has_uint32``/``uinteger``, which the next numpy draw must see and
    the Python draws must leave alone."""
    rng, numpy_rng = Pcg64Stream(seed, tag), oracle(seed, tag)
    for (method, *args), count in runs:
        for _ in range(count):
            try:
                expected = getattr(numpy_rng, method)(*args)
            except (ValueError, OverflowError) as refusal:
                with pytest.raises(type(refusal)):
                    getattr(rng, method)(*args)
            else:
                assert getattr(rng, method)(*args) == expected
    state = numpy_rng.bit_generator.state
    assert (rng.has_uint32, rng.uinteger) \
        == (state["has_uint32"], state["uinteger"])
    assert rng.integers(2**31) == numpy_rng.integers(2**31)
    assert rng.random() == numpy_rng.random()


def test_sim_dmon_first_poll_waits_numpys_offset(monkeypatch):
    """The first timeout each simulated d-mon yields — its stagger — is
    the first ``uniform(0, poll)`` of numpy's generator for the node's
    stream, ``node:<name>``."""
    seed, poll = 11, 0.7
    hosts: dict = {}
    offsets: dict = {}
    spawn, timeout = Node.spawn, Environment.timeout

    def spy_spawn(self, gen, name=None):
        proc = spawn(self, gen, name)
        if name == "d-mon":
            hosts[proc] = self.name
        return proc

    def spy_timeout(self, delay, value=None):
        host = hosts.get(self.active_process)
        if host is not None:
            offsets.setdefault(host, delay)
        return timeout(self, delay, value)

    monkeypatch.setattr(Node, "spawn", spy_spawn)
    monkeypatch.setattr(Environment, "timeout", spy_timeout)
    scenario = Scenario(nodes=16, seed=seed,
                        dmon=DMonConfig(poll_interval=poll)).run(1.0)
    names = scenario.nodes.names
    assert offsets == {
        name: oracle(seed, zlib.crc32(f"node:{name}".encode()))
        .uniform(0, poll) for name in names}


def test_numpy_loads_only_for_a_draw_numpy_defines():
    code = "\n".join([
        "import sys",
        "from repro.runtime.rng import Pcg64Stream",
        "rng = Pcg64Stream(1, 2)",
        "rng.random(); rng.uniform(0, 5)",
        "assert 'numpy' not in sys.modules",
        "rng.poisson(3.0)",
        "assert 'numpy' in sys.modules",
    ])
    result = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr

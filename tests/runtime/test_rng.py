"""One random stream for both backends: numpy's, held in Python ints.

:class:`Pcg64Stream` must draw exactly what
``np.random.default_rng(SeedSequence([seed, tag]))`` draws, for every
method either backend calls and in any interleaving — ``random``,
``uniform``, ``integers`` and ``poisson`` value for value, and
``exponential`` as the inversion ``-scale * log1p(-random())`` of
numpy's next ``random()``.  numpy is only these tests' oracle.
"""

from __future__ import annotations

import math
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


#: ``poisson``'s largest λ (numpy's ``POISSON_LAM_MAX``).
POISSON_LAM_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10

#: Draws numpy refuses, each with ValueError and without drawing.
REFUSED = [
    ("exponential", -1.0), ("exponential", -0.0),
    ("exponential", -math.inf),
    ("poisson", -2.0), ("poisson", math.nan), ("poisson", math.inf),
    ("poisson", math.nextafter(POISSON_LAM_MAX, math.inf)),
    ("integers", 0), ("integers", -3), ("integers", 5, 5),
    ("integers", 6, 5), ("integers", -2**63 - 1, 0),
    ("integers", 0, 2**63 + 1),
]


def test_a_refused_numpy_draw_leaves_the_stream_untouched():
    rng, numpy_rng = Pcg64Stream(5, 6), oracle(5, 6)
    rng.integers(7)
    numpy_rng.integers(7)
    for method, *args in REFUSED:
        with pytest.raises(ValueError) as numpy_refusal:
            getattr(numpy_rng, method)(*args)
        with pytest.raises(ValueError) as refusal:
            getattr(rng, method)(*args)
        assert str(refusal.value) == str(numpy_refusal.value)
    assert [rng.integers(7) for _ in range(3)] \
        == numpy_rng.integers(7, size=3).tolist()
    assert rng.random() == numpy_rng.random()


def test_the_edges_numpy_accepts_are_drawn():
    """numpy draws at its largest λ and from a NaN ``scale`` (it
    refuses a negative one only)."""
    rng, numpy_rng = Pcg64Stream(8, 1), oracle(8, 1)
    assert rng.poisson(POISSON_LAM_MAX) \
        == numpy_rng.poisson(POISSON_LAM_MAX)
    assert math.isnan(numpy_rng.exponential(math.nan))
    assert math.isnan(rng.exponential(math.nan))
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
    st.tuples(st.just("exponential"), st.floats(-5.0, 50.0)),
    st.tuples(st.just("poisson"), st.sampled_from(
        [0.0, 0.1, 2.5, 9.99, 10.0, 40.0])),
    st.tuples(st.just("integers"), st.sampled_from(
        [1, 2, 7, 2**31, 2**32, 2**32 + 1, 2**40])),
)


def numpy_draw(numpy_rng: np.random.Generator, method: str, *args):
    """numpy's draw; ``exponential`` is the inversion of numpy's next
    ``random()``, refused where numpy refuses it."""
    if method != "exponential":
        return getattr(numpy_rng, method)(*args)
    np.random.default_rng().exponential(*args)
    return -args[0] * math.log1p(-numpy_rng.random())


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64), tag=st.integers(0, 2**32 - 1),
       runs=st.lists(st.tuples(DRAWS, st.integers(1, 5)), max_size=30))
def test_interleaved_draws_equal_numpys(seed, tag, runs):
    """Runs of 1-5 equal calls, interleaved: an odd run of 32-bit
    ``integers`` leaves half a 64-bit output buffered in
    ``has_uint32``/``uinteger``, which the next numpy draw must see and
    the other draws must leave alone."""
    rng, numpy_rng = Pcg64Stream(seed, tag), oracle(seed, tag)
    for (method, *args), count in runs:
        for _ in range(count):
            try:
                expected = numpy_draw(numpy_rng, method, *args)
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


#: The ranges and means the bulk check draws: both ``integers``
#: paths (32-bit buffered up to 2**32, 64-bit above) with the full
#: 32-bit range and the no-draw range 1 (the full 64-bit range is drawn
#: too), and both ``poisson`` regimes (multiplication below 10, PTRS
#: from 10) with the no-draw mean 0.
BULK_HIGHS = (1, 7, 2**31, 2**32, 2**32 + 1, 2**40)
BULK_LAMS = (0.0, 0.1, 2.5, 9.99, 10.0, 40.0, 1e4)


def test_bulk_integers_and_poisson_equal_numpys_with_the_state():
    """1,024 ``(seed, tag)`` streams, each drawing every range and mean
    twice, the full int64 range and one exponential: every value, and
    each stream's final state, equal numpy's."""
    for seed in range(256):
        for tag in (0, 1, 0x9E3779B9, 2**32 - 1):
            rng, numpy_rng = Pcg64Stream(seed, tag), oracle(seed, tag)
            drawn = [rng.integers(high) for high in BULK_HIGHS * 2]
            drawn.append(rng.integers(-2**63, 2**63))
            drawn += [rng.poisson(lam) for lam in BULK_LAMS * 2]
            drawn.append(rng.exponential(2.0))
            expected = [int(numpy_rng.integers(high))
                        for high in BULK_HIGHS * 2]
            expected.append(int(numpy_rng.integers(-2**63, 2**63)))
            expected += [int(numpy_rng.poisson(lam))
                         for lam in BULK_LAMS * 2]
            expected.append(-2.0 * math.log1p(-numpy_rng.random()))
            assert drawn == expected, (seed, tag)
            state = numpy_rng.bit_generator.state
            assert (rng._state, rng.has_uint32, rng.uinteger) \
                == (state["state"]["state"], state["has_uint32"],
                    state["uinteger"]), (seed, tag)


def test_no_draw_loads_numpy():
    code = "\n".join([
        "import sys",
        "from repro.runtime.rng import Pcg64Stream",
        "rng = Pcg64Stream(1, 2)",
        "rng.random(); rng.uniform(0, 5); rng.exponential(2.0)",
        "rng.poisson(3.0); rng.poisson(40.0)",
        "rng.integers(7); rng.integers(2**40)",
        "assert 'numpy' not in sys.modules",
    ])
    result = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr

"""The paper's evaluation figures: shape checks and the archived series.

One test per entry of the harness's figure registry
(:data:`repro.harness.EXPERIMENTS`).  Each runs its figure once at the
registry's ``full`` scale, asserts the paper's qualitative *shape*
(orderings, crossovers, rough factors — the ``SHAPES`` table, one
function per figure) and compares the series with the archive in
``results/<id>.json``, which ``python -m repro.harness --full --save
results/`` regenerates.

Figures 6-8 read node 0 of one seeded run.  Their periodic rows do not
depend on the seed; the differential-filter row follows node 0's
ambient workload draw, so its assertions are stated on the mean of
``SEEDS`` runs at 8 nodes (``repro.analysis.replicate``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import load_result, replicate
from repro.harness import (EXPERIMENTS, fig6_submission_overhead,
                           fig7_submission_overhead_large,
                           fig8_receive_overhead, run_experiment)
from repro.harness.microbench import CONFIG_LABELS

RESULTS = Path(__file__).resolve().parent.parent / "results"
SEEDS = range(5)


def configs(result):
    """The §4.1 monitoring configurations of Figures 4-8: the 1 s
    period, the 2 s period, the differential filter."""
    return tuple(result.get(label) for label in CONFIG_LABELS)


def policies(result):
    """The three SmartPointer filter policies of Figures 9-10."""
    return (result.get("no filter"), result.get("static filter"),
            result.get("dynamic filter"))


def differential_mean(figure) -> float:
    """Cross-seed mean of the differential filter's cost at 8 nodes."""
    mean = replicate(lambda seed: figure(nodes=(8,), seed=seed), SEEDS)
    return mean.get("differential filter").y_at(8)


def fig4(result):
    """Mflops "decrease only slightly" with cluster size; the decrease
    "is less accentuated in the case of the differential filter"."""
    period1, period2, differential = configs(result)
    # Baseline: the unmonitored node delivers its rated 17.4 Mflops.
    assert period1.y_at(0) > 17.3
    # Monitoring costs cycles: the 1 s period at 8 nodes is the most
    # perturbed configuration.
    assert period1.y_at(8) < period1.y_at(0)
    assert period1.y_at(8) <= period2.y_at(8) + 0.01
    # The differential filter perturbs least (the paper's headline).
    assert differential.y_at(8) >= period1.y_at(8)
    assert differential.y_at(8) >= period2.y_at(8) - 0.01
    # "only slightly": the worst case stays within a few percent.
    assert period1.y_at(8) > 17.4 * 0.90


def fig5(result):
    """"the bandwidth drops by less than 0.5 % for an update period of
    1 s and remains constant for update periods of 2 s and the
    differential filter" (~96 Mbps baseline)."""
    period1, period2, differential = configs(result)
    # Iperf is CPU-limited just below the 100 Mbps wire.
    assert 95.0 < period1.y_at(0) < 97.5
    drop1 = period1.y_at(0) - period1.y_at(8)
    assert 0.0 < drop1 < period1.y_at(0) * 0.005
    assert period2.y_at(8) >= period1.y_at(8)
    assert differential.y_at(8) >= period1.y_at(8)
    drop_diff = differential.y_at(0) - differential.y_at(8)
    assert drop_diff < period1.y_at(0) * 0.002


def submission_shape(result, figure) -> float:
    """Figs 6-7: linear in the subscriber count, the 2 s period about
    half, the differential filter an order of magnitude cheaper.
    Returns the differential filter's cross-seed mean."""
    period1, period2, _ = configs(result)
    differential = differential_mean(figure)
    assert list(period1.y) == sorted(period1.y)
    assert period2.y_at(8) < period1.y_at(8) * 0.65
    assert differential < period1.y_at(8) * 0.15
    return differential


def fig6(result):
    """~1.8 ms at 8 nodes for the 1 s period; the differential filter
    "within 100 microseconds, even for 8 nodes"."""
    differential = submission_shape(result, fig6_submission_overhead)
    assert 1200 < result.get("update period=1s").y_at(8) < 2500
    assert differential < 300


def fig7(result):
    """"Although the overheads have increased, the results show a
    similar behavior as in Figure 6" (~5 ms at 8 nodes)."""
    submission_shape(result, fig7_submission_overhead_large)
    period1 = result.get("update period=1s")
    assert 3500 < period1.y_at(8) < 6500
    # 5 KB events cost strictly more per iteration than 88 B ones.
    small = fig6_submission_overhead(nodes=(8,))
    assert period1.y_at(8) > small.get("update period=1s").y_at(8) * 2


def fig8(result):
    """At 8 nodes "less than 1 ms in the case of an update period of
    2 s and the differential filter, and less than 2.2 ms when the
    update period is 1 s"."""
    period1, period2, _ = configs(result)
    differential = differential_mean(fig8_receive_overhead)
    # A 1-node cluster receives nothing.
    assert period1.y_at(1) == 0.0
    assert list(period1.y) == sorted(period1.y)
    assert 1200 < period1.y_at(8) < 2200
    assert period2.y_at(8) < 1200
    assert differential < 1000
    assert period1.y_at(8) > period2.y_at(8) > differential


def fig9a(result):
    """Latency climbs with every linpack thread without a filter, less
    with the static filter, and stays flat with the dynamic one."""
    none, static, dynamic = policies(result)
    assert none.y[-1] > 10.0
    assert none.y[-1] > none.y[0] * 20
    assert static.y[-1] < none.y[-1]
    assert static.y[-1] > 1.0
    assert max(dynamic.y) < 1.0
    assert dynamic.y[-1] < none.y[-1] / 20


def fig9b(result):
    """"in the dynamic filter case, the client is able to receive and
    process events at the same rate at which the server sent them"
    (5/s); static degrades under load; no filter performs worst."""
    none, static, dynamic = policies(result)
    for series in (none, static, dynamic):
        assert series.y_at(0) == pytest.approx(5.0, rel=0.1)
    for y in dynamic.y:
        assert y == pytest.approx(5.0, rel=0.15)
    assert none.y_at(8) < 2.0
    assert none.y_at(8) < static.y_at(8) < dynamic.y_at(8) * 1.05
    assert list(none.y) == sorted(none.y, reverse=True)


def fig10(result):
    """"The plot remains horizontal until 70 Mbps of perturbation"; past
    it latency explodes for no filter and (a step later) the static
    filter, while the dynamic filter shrinks the data and stays low."""
    none, static, dynamic = policies(result)
    for series in (none, static, dynamic):
        for x in (0, 30, 50, 60):
            assert series.y_at(x) < 1.0
    assert none.y_at(70) > 5.0
    assert none.y_at(90) > 10.0
    assert static.y_at(90) > 5.0
    assert static.y_at(80) < none.y_at(80)
    assert max(dynamic.y) < 2.0


def fig11(result):
    """"the performance is better when the filter uses more resource
    information ... adaptation based on only one resource can have a
    negative effect on the requirements of another resource"."""
    cpu, net, hybrid = (result.get("cpu monitor"),
                        result.get("network monitor"),
                        result.get("hybrid monitor"))
    for series in (cpu, net, hybrid):
        assert series.y_at(1) < 1.5
    # Never (materially) worse than either single-resource monitor,
    # and decisively better under pressure.
    for step in hybrid.x:
        assert hybrid.y_at(step) <= cpu.y_at(step) * 1.1
        assert hybrid.y_at(step) <= net.y_at(step) * 1.1
    for single in (cpu, net):
        assert hybrid.y_at(6) < single.y_at(6) / 2
        assert single.y_at(8) > hybrid.y_at(8) * 2


#: figure id -> shape check.  A figure cannot join the registry
#: without one (see ``test_every_figure_has_a_shape``).
SHAPES = {"fig4": fig4, "fig5": fig5, "fig6": fig6, "fig7": fig7,
          "fig8": fig8, "fig9a": fig9a, "fig9b": fig9b,
          "fig10": fig10, "fig11": fig11}


def test_every_figure_has_a_shape():
    assert set(SHAPES) == set(EXPERIMENTS)


@pytest.mark.parametrize("figure", EXPERIMENTS)
def test_figure(figure):
    result = run_experiment(figure)
    print()
    print(result.table())
    SHAPES[figure](result)
    assert result.series == load_result(RESULTS / f"{figure}.json").series

"""Regression: a restart epoch must clear persistent filter state.

Sketch-backed filters are stateful by design — count-min cells and
top-K weights accumulate across polls.  That persistence must not
survive a crash/reboot: a node that comes back mid-stream would
otherwise publish cumulative weights from *before* the crash, i.e.
monitoring history the failed epoch never actually observed.  The fix
under test is ``DMon.start()`` calling ``FilterManager.reset_state()``
on every epoch transition.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import topk_filter
from repro.dproc.dmon import DMonConfig

MODULES = ("cpu", "proc")
POLL = 0.5


@pytest.fixture
def sc():
    return Scenario(nodes=3, seed=42, dmon=DMonConfig(poll_interval=POLL),
                    modules=MODULES).build()


@pytest.fixture
def pair(sc):
    dprocs, names = sc.dprocs, sc.nodes.names
    observer, victim = dprocs[names[0]], dprocs[names[1]]
    observer.write(f"/proc/cluster/{names[1]}/control",
                   topk_filter(3, "cpu"))
    return observer, victim


def _sketch_state(dproc) -> bytes:
    deployed = dproc.dmon.filters.filter_for("proc")
    assert deployed is not None
    return deployed.compiled.sketch_state()


class TestEpochReset:
    def test_crash_mid_stream_clears_sketch_state(self, sc, pair):
        observer, victim = pair
        sc.run_until(3.0)
        assert _sketch_state(victim) != b"", \
            "filter should have accumulated sketch state before crash"
        victim.stop()
        sc.run_until(4.0)
        victim.start()
        # Immediately after reboot — before the first post-reboot
        # poll — the sketch space must be empty.
        assert _sketch_state(victim) == b""

    def test_post_reboot_topk_starts_from_scratch(self, sc, pair):
        observer, victim = pair
        sc.run_until(3.0)
        kind, rows = victim.dmon.last_procs
        assert kind == "top" and rows
        before = dict(rows)
        victim.stop()
        sc.run_until(4.0)
        victim.start()
        # One poll after reboot the published weights are single-epoch
        # accumulations: strictly below the pre-crash cumulative
        # weight of the same pid (which had ~6 polls of history).
        sc.run_until(4.0 + 2 * POLL)
        kind, rows = victim.dmon.last_procs
        assert kind == "top" and rows
        for pid, weight in rows.items():
            if pid in before:
                assert weight < before[pid], \
                    (pid, weight, before[pid])

    def test_filters_stay_deployed_across_reboot(self, sc, pair):
        """The reset drops *state*, not the filters themselves — a
        rebooted node resumes the customization it was given."""
        observer, victim = pair
        sc.run_until(3.0)
        deployed = victim.dmon.filters.filter_for("proc")
        invocations_before = deployed.invocations
        victim.stop()
        victim.start()
        sc.run_until(3.0 + 2 * POLL)
        again = victim.dmon.filters.filter_for("proc")
        assert again is deployed
        assert again.invocations > invocations_before
        assert again.errors == 0

    def test_stop_alone_does_not_clear_state(self, sc, pair):
        """State is cleared on the epoch *transition* (start), so a
        stopped node's state is still inspectable post-mortem."""
        observer, victim = pair
        sc.run_until(3.0)
        state = _sketch_state(victim)
        assert state != b""
        victim.stop()
        assert _sketch_state(victim) == state

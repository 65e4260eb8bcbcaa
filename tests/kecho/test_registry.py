"""KECho's channel directory: the bus's per-channel endpoint map.

The first ``connect`` to a name creates the channel, later ones join
it, and a channel's subscribers are its endpoints with a handler, in
attach order — the order every simulated fan-out walks.
"""

from __future__ import annotations

import pytest

from repro.errors import ChannelError
from repro.kecho import KechoBus


def _noop(event, trace):
    return None


@pytest.fixture
def bus():
    return KechoBus()


class TestRegistry:
    def test_first_open_creates(self, bus, cluster3):
        ep = bus.connect(cluster3["alan"], "monitor")
        assert ep.name == "monitor"
        assert bus.remote_subscribers("monitor", "maui") == []
        ep.subscribe(_noop)
        assert bus.remote_subscribers("monitor", "maui") == ["alan"]

    def test_second_open_finds_existing(self, bus, cluster3):
        first = bus.connect(cluster3["alan"], "monitor")
        second = bus.connect(cluster3["maui"], "monitor")
        first.subscribe(_noop)
        second.subscribe(_noop)
        assert bus.remote_subscribers("monitor", "etna") == \
            ["alan", "maui"]

    def test_reopen_same_host_idempotent(self, bus, cluster3):
        alan = cluster3["alan"]
        bus.connect(alan, "monitor").subscribe(_noop)
        assert bus.connect(alan, "monitor").is_subscriber
        assert bus.remote_subscribers("monitor", "etna") == ["alan"]

    def test_leave(self, bus, cluster3):
        alan = bus.connect(cluster3["alan"], "monitor")
        bus.connect(cluster3["maui"], "monitor").subscribe(_noop)
        alan.subscribe(_noop)
        alan.close()
        assert bus.remote_subscribers("monitor", "etna") == ["maui"]

    def test_empty_name_rejected(self, bus, cluster3):
        with pytest.raises(ChannelError):
            bus.connect(cluster3["alan"], "")

    def test_subscribers_in_attach_order(self, bus, cluster3):
        # Attach alan, maui, etna; subscribe in the reverse order.
        eps = [bus.connect(cluster3[h], "monitor")
               for h in ("alan", "maui", "etna")]
        for ep in reversed(eps):
            ep.subscribe(_noop)
        assert bus.remote_subscribers("monitor", "nobody") == \
            ["alan", "maui", "etna"]

    def test_reattach_after_close_goes_last(self, bus, cluster3):
        eps = {h: bus.connect(cluster3[h], "monitor")
               for h in ("alan", "maui", "etna")}
        for ep in eps.values():
            ep.subscribe(_noop)
        eps["alan"].close()
        bus.connect(cluster3["alan"], "monitor").subscribe(_noop)
        assert bus.remote_subscribers("monitor", "nobody") == \
            ["maui", "etna", "alan"]

    def test_unknown_channel_has_no_subscribers(self, bus, cluster3):
        assert bus.remote_subscribers("ghost", "alan") == []
        # A channel whose last endpoint closed has none either.
        bus.connect(cluster3["alan"], "monitor").close()
        assert bus.remote_subscribers("monitor", "maui") == []

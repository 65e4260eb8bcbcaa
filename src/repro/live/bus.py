"""LiveBus: KECho channel wiring over the socket-served registry.

The live bus *is* a :class:`repro.kecho.channel.KechoBus` — endpoints,
subscriptions, telemetry and submit accounting are byte-for-byte the
simulator's code — with the directory synchronised through a
:class:`~repro.live.registry.RegistryClient`:

* channel opens/leaves and subscriber sets are pushed to the registry
  server, so node runners in *other* processes see them;
* the merged directory (theirs + ours) answers
  :meth:`remote_subscribers`, so publishers fan out to every
  subscribed host on the machine, not just the local process;
* any remote directory change bumps ``subscription_version``, which
  invalidates the subscriber cache exactly like a local subscribe.
"""

from __future__ import annotations

from typing import Optional

from repro.kecho.channel import ChannelEndpoint, KechoBus
from repro.live.registry import RegistryClient

__all__ = ["LiveBus"]


class LiveBus(KechoBus):
    """A KechoBus whose directory lives on the registry socket."""

    def __init__(self) -> None:
        super().__init__()
        self.client: Optional[RegistryClient] = None
        self._pushing = False

    def attach_registry(self, client: RegistryClient) -> None:
        self.client = client
        client.on_change = self._on_remote_change

    # -- directory sync ----------------------------------------------------

    def _on_remote_change(self) -> None:
        # Invalidate subscriber caches; never push from here (the
        # push path is local-change only, or we would loop).
        KechoBus._subscriptions_changed(self)

    def _subscriptions_changed(self) -> None:
        super()._subscriptions_changed()
        self._push_subscribers()

    def _push_subscribers(self) -> None:
        client = self.client
        if client is None or self._pushing:
            return
        self._pushing = True
        try:
            by_channel: dict[str, list[str]] = {}
            names = set()
            for (name, host), ep in self._endpoints.items():
                names.add(name)
                if ep.handler is not None:
                    by_channel.setdefault(name, []).append(host)
            for name in sorted(names):
                subs = by_channel.get(name, [])
                if client.subscribers(name) != subs:
                    client.set_subscribers(name, subs)
        finally:
            self._pushing = False

    # -- KechoBus overrides ------------------------------------------------

    def connect(self, node, name: str) -> ChannelEndpoint:
        endpoint = super().connect(node, name)
        if self.client is not None:
            self.client.open_channel(name, node.name)
        return endpoint

    def _detach(self, endpoint: ChannelEndpoint) -> None:
        super()._detach(endpoint)
        if self.client is not None:
            self.client.leave_channel(endpoint.name,
                                      endpoint.node.name)

    def _subscribers(self, name: str) -> list[str]:
        try:
            local = super()._subscribers(name)
        except Exception:
            local = []
        if self.client is None:
            return local
        merged = list(local)
        local_hosts = {h for (_n, h) in self._endpoints}
        for host in self.client.subscribers(name):
            # Hosts of this process are authoritative locally; remote
            # processes' hosts come from the directory.
            if host not in merged and host not in local_hosts:
                merged.append(host)
        return merged

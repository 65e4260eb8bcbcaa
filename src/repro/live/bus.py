"""LiveBus: KECho channel wiring over the socket-served registry.

The live bus *is* a :class:`repro.kecho.channel.KechoBus` — endpoints,
subscriptions, telemetry and submit accounting are byte-for-byte the
simulator's code — with the directory synchronised through a
:class:`~repro.live.registry.RegistryClient`:

* on every local subscription change the bus pushes its whole
  channel → subscriber hosts mapping, so node runners in *other*
  processes see it (a channel whose last endpoint closed drops out);
* the directory answers :meth:`remote_subscribers` for hosts of other
  processes, so publishers fan out to every subscribed host on the
  machine, not just the local process;
* any remote directory change bumps ``subscription_version``, which
  invalidates the subscriber cache exactly like a local subscribe, so
  the merged list is built once per version, not on every submit.
"""

from __future__ import annotations

from typing import Optional

from repro.kecho.channel import KechoBus
from repro.live.registry import RegistryClient

__all__ = ["LiveBus"]


class LiveBus(KechoBus):
    """A KechoBus whose directory lives on the registry socket."""

    def __init__(self) -> None:
        super().__init__()
        self.client: Optional[RegistryClient] = None

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
        if self.client is not None:
            subscribers: dict[str, list[str]] = {}
            for name, endpoints in self._channels.items():
                hosts = [host for host, ep in endpoints.items()
                         if ep.handler is not None]
                if hosts:
                    subscribers[name] = hosts
            self.client.set_subscribers(subscribers)

    def _list_subscribers(self, name: str) -> list[str]:
        merged = super()._list_subscribers(name)
        if self.client is None:
            return merged
        local_hosts = {h for endpoints in self._channels.values()
                       for h in endpoints}
        for host in self.client.subscribers(name):
            # Hosts of this process are authoritative locally; remote
            # processes' hosts come from the directory.
            if host not in merged and host not in local_hosts:
                merged.append(host)
        return merged

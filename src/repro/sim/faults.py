"""Deterministic fault injection for the cluster simulator.

The paper's central fault-tolerance claim is that dproc's peer-to-peer
KECho channels "avoid central master collection points".  Testing that
claim needs failures richer than cleanly stopping a d-mon, so this
module provides them:

* **link partitions** — the host set is split into groups; messages
  crossing a group boundary are dropped (both at send time and for
  traffic already in flight when the partition lands);
* **probabilistic message loss** — a global probability, per-pair
  probabilities, and per-fabric-link probabilities compose (a message
  survives only if it survives every lossy element on its path);
* **delivery stalls** — extra seconds added to a delivery, modelling a
  degraded rather than severed path;
* **node crash / reboot** — a crashed host neither sends nor receives;
  registered handlers let higher layers (e.g. a dproc deployment) stop
  and restart their per-node services at the same instants.

Two classes split the work:

* :class:`FaultPlane` is pure queryable state, attached to the fabric
  as ``fabric.faults``; the transport layer consults it on every send
  and delivery.  With no plane attached (the default) the data path is
  untouched and — crucially for reproducibility — *no* extra RNG draws
  happen.
* :class:`FaultInjector` owns a plane, mutates it (immediately or on a
  schedule expressed in simulated time), and keeps a time-stamped
  :attr:`~FaultInjector.log` of every action.

Determinism: scheduled faults ride the simulator's event queue, and
loss sampling draws from the *sending node's* seeded RNG stream, so a
given master seed always yields the identical failure schedule, the
identical set of dropped messages, and the identical recovery trace.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.errors import FaultInjectionError

__all__ = ["FaultPlane", "FaultInjector", "FAULT_LOG_HISTORY"]

CrashHandler = Callable[[str], None]

#: Entries :attr:`FaultInjector.log` keeps: once it holds twice this
#: many, the oldest are cut in one chunk (as ``CounterTrace.add``
#: trims), so a long fault schedule retains fewer than twice the bound.
FAULT_LOG_HISTORY = 1024


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise FaultInjectionError(
            f"loss probability must be in [0, 1], got {p!r}")
    return p


class FaultPlane:
    """Queryable fault state consulted by the transport on every message.

    All mutators are idempotent and take effect instantly; scheduling
    lives in :class:`FaultInjector`.  Loss probabilities compose as
    independent drop chances: ``1 - (1-p_global)·(1-p_pair)·Π(1-p_link)``.
    """

    def __init__(self) -> None:
        #: Hosts currently crashed (neither send nor receive).
        self.down_hosts: set[str] = set()
        #: host -> partition group id; empty when no partition is active.
        self._group_of: dict[str, int] = {}
        self._default_loss = 0.0
        self._pair_loss: dict[tuple[str, str], float] = {}
        #: Loss keyed by :attr:`~repro.sim.link.Link.name`.
        self._link_loss: dict[str, float] = {}
        self._default_stall = 0.0
        self._pair_stall: dict[tuple[str, str], float] = {}

    # -- queries (transport hot path) ---------------------------------------

    @property
    def active(self) -> bool:
        """True when any fault is currently configured."""
        return bool(self.down_hosts or self._group_of
                    or self._default_loss or self._pair_loss
                    or self._link_loss or self._default_stall
                    or self._pair_stall)

    def partitioned(self, src: str, dst: str) -> bool:
        """True when an active partition separates the two hosts.

        Hosts not named in any partition group keep full connectivity.
        """
        groups = self._group_of
        if not groups:
            return False
        a = groups.get(src)
        b = groups.get(dst)
        return a is not None and b is not None and a != b

    def blocked(self, src: str, dst: str) -> bool:
        """Hard failure on the src→dst path (crash or partition)."""
        return (src in self.down_hosts or dst in self.down_hosts
                or self.partitioned(src, dst))

    def blocked_reason(self, src: str, dst: str) -> Optional[str]:
        """Which fault blocks the src→dst path (None when open).

        Used by trace-aware drop accounting: a failed hop span is
        annotated with the fault *kind*, not just "blocked".
        """
        if src in self.down_hosts:
            return f"crash:{src}"
        if dst in self.down_hosts:
            return f"crash:{dst}"
        if self.partitioned(src, dst):
            return "partition"
        return None

    def loss_probability(self, src: str, dst: str,
                         path: Sequence = ()) -> float:
        """Combined drop probability for one src→dst message.

        ``path`` is the sequence of fabric links the message traverses
        (used for per-link loss); pass the fabric's cached path tuple.
        """
        survive = (1.0 - self._default_loss) \
            * (1.0 - self._pair_loss.get((src, dst), 0.0))
        if self._link_loss:
            for link in path:
                p = self._link_loss.get(link.name)
                if p:
                    survive *= 1.0 - p
        return 1.0 - survive

    def extra_delay(self, src: str, dst: str) -> float:
        """Injected stall (seconds) for one src→dst delivery."""
        stall = self._pair_stall.get((src, dst))
        return self._default_stall if stall is None else stall

    # -- mutators ------------------------------------------------------------

    def set_loss(self, p: float, src: Optional[str] = None,
                 dst: Optional[str] = None) -> None:
        """Set message loss: global when src/dst omitted, else per-pair
        (directional).  ``p = 0`` clears the rule."""
        p = _check_probability(p)
        if src is None and dst is None:
            self._default_loss = p
        elif src is not None and dst is not None:
            if p == 0.0:
                self._pair_loss.pop((src, dst), None)
            else:
                self._pair_loss[(src, dst)] = p
        else:
            raise FaultInjectionError(
                "per-pair loss needs both src and dst")

    def set_link_loss(self, link_name: str, p: float) -> None:
        """Set loss on one fabric link (e.g. ``'alan:tx'``, ``'seg:s0'``)."""
        p = _check_probability(p)
        if p == 0.0:
            self._link_loss.pop(link_name, None)
        else:
            self._link_loss[link_name] = p

    def clear_loss(self) -> None:
        """Remove every loss rule (global, pair and link)."""
        self._default_loss = 0.0
        self._pair_loss.clear()
        self._link_loss.clear()

    def set_stall(self, seconds: float, src: Optional[str] = None,
                  dst: Optional[str] = None) -> None:
        """Add ``seconds`` of extra delay to deliveries (0 clears)."""
        seconds = float(seconds)
        if seconds < 0:
            raise FaultInjectionError(
                f"stall must be non-negative, got {seconds!r}")
        if src is None and dst is None:
            self._default_stall = seconds
        elif src is not None and dst is not None:
            if seconds == 0.0:
                self._pair_stall.pop((src, dst), None)
            else:
                self._pair_stall[(src, dst)] = seconds
        else:
            raise FaultInjectionError(
                "per-pair stall needs both src and dst")

    def set_partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Partition the listed hosts into isolated groups.

        Replaces any existing partition.  A host appearing in no group
        can still reach everyone.
        """
        group_of: dict[str, int] = {}
        for gid, group in enumerate(groups):
            for host in group:
                if host in group_of:
                    raise FaultInjectionError(
                        f"host {host!r} appears in two partition groups")
                group_of[host] = gid
        self._group_of = group_of

    def heal_partition(self) -> None:
        self._group_of = {}

    def mark_down(self, host: str) -> None:
        self.down_hosts.add(host)

    def mark_up(self, host: str) -> None:
        self.down_hosts.discard(host)


def _scope(src: Optional[str], dst: Optional[str]) -> str:
    """How the fault log names the links a rule covers."""
    return "all links" if src is None and dst is None \
        else f"{src}->{dst}"


def _check_window(start: float, end: Optional[float], what: str) -> None:
    if end is not None and end <= start:
        raise FaultInjectionError(what)


class FaultInjector:
    """Schedules deterministic faults against one cluster.

    Attaches a :class:`FaultPlane` to the cluster's fabric and mutates
    it, immediately or when the cluster's clock reaches a scheduled
    time.  Every executed action is appended to :attr:`log` as
    ``(sim_time, description)`` — two runs with the same seed produce
    identical logs.  The log keeps the most recent actions only
    (:data:`FAULT_LOG_HISTORY`).

    Crash/reboot callbacks let service layers participate: a dproc
    harness registers ``on_crash → dproc.stop()`` and ``on_reboot →
    dproc.start()`` so the monitored software dies and rejoins with the
    simulated hardware.
    """

    def __init__(self, cluster) -> None:
        """``cluster`` needs ``.env`` and ``.fabric`` (a
        :class:`~repro.sim.cluster.Cluster` or compatible)."""
        self.env = cluster.env
        self.fabric = cluster.fabric
        self.plane = self.fabric.faults = FaultPlane()
        #: Executed fault actions, oldest first: ``(sim_time,
        #: description)``, bounded by :data:`FAULT_LOG_HISTORY`.
        self.log: list[tuple[float, str]] = []
        self._crash_handlers: list[CrashHandler] = []
        self._reboot_handlers: list[CrashHandler] = []

    # -- handler registration -------------------------------------------------

    def on_crash(self, handler: CrashHandler) -> None:
        """Call ``handler(host)`` whenever a host crashes."""
        self._crash_handlers.append(handler)

    def on_reboot(self, handler: CrashHandler) -> None:
        """Call ``handler(host)`` whenever a host finishes rebooting."""
        self._reboot_handlers.append(handler)

    # -- immediate faults ------------------------------------------------------

    def set_link_loss(self, link_name: str, p: float) -> None:
        self._apply(None, f"loss {p:g} on link {link_name}",
                    lambda plane: plane.set_link_loss(link_name, p))

    def set_stall(self, seconds: float, src: Optional[str] = None,
                  dst: Optional[str] = None) -> None:
        self._apply(None, f"stall {seconds:g}s on {_scope(src, dst)}",
                    lambda plane: plane.set_stall(seconds, src, dst))

    def partition(self, *groups: Iterable[str]) -> None:
        """Partition hosts into the given isolated groups (immediate)."""
        self._partition(None, groups)

    def heal(self) -> None:
        self._heal(None)

    def crash(self, host: str) -> None:
        """Crash ``host`` now: it stops sending/receiving and its crash
        handlers run (abrupt — no clean shutdown is implied)."""
        self._crash(None, host)

    def reboot(self, host: str) -> None:
        """Bring a crashed ``host`` back and run its reboot handlers."""
        self._reboot(None, host)

    # -- scheduled faults ------------------------------------------------------
    #
    # Hosts, partition groups and windows are checked here, when the
    # fault is scheduled, not when its timer fires inside ``run``.

    def at(self, when: float, action: Callable[[], None]) -> None:
        """Run ``action`` at absolute simulated time ``when``."""
        _timer(self.env, when, action)

    def schedule_loss(self, at: float, p: float,
                      src: Optional[str] = None,
                      dst: Optional[str] = None,
                      until: Optional[float] = None) -> None:
        """Enable message loss at ``at``; clear it again at ``until``."""
        _check_window(at, until, "loss end time must be after its start")
        self._loss(at, p, src, dst)
        if until is not None:
            self._loss(until, 0.0, src, dst)

    def schedule_partition(self, at: float,
                           groups: Sequence[Iterable[str]],
                           heal_at: Optional[float] = None) -> None:
        _check_window(at, heal_at,
                      "heal time must be after the partition time")
        self._partition(at, groups)
        if heal_at is not None:
            self._heal(heal_at)

    def schedule_crash(self, at: float, host: str,
                       reboot_at: Optional[float] = None) -> None:
        _check_window(at, reboot_at,
                      "reboot time must be after the crash time")
        self._crash(at, host)
        if reboot_at is not None:
            self._reboot(reboot_at, host)

    # -- internals: one body per fault, ``when`` None = now -----------------

    def _loss(self, when, p, src, dst) -> None:
        self._apply(when, f"loss {p:g} on {_scope(src, dst)}",
                    lambda plane: plane.set_loss(p, src, dst))

    def _partition(self, when, groups) -> None:
        frozen = [tuple(g) for g in groups]
        for group in frozen:
            self._check_hosts(group, " in partition group")
        self._apply(when, "partition " + " | ".join(
                        ",".join(g) for g in frozen),
                    lambda plane: plane.set_partition(frozen))

    def _heal(self, when) -> None:
        self._apply(when, "partition healed", FaultPlane.heal_partition)

    def _crash(self, when, host) -> None:
        self._check_hosts([host])
        self._apply(when, f"crash {host}",
                    lambda plane: plane.mark_down(host),
                    host, self._crash_handlers)

    def _reboot(self, when, host) -> None:
        self._check_hosts([host])
        self._apply(when, f"reboot {host}",
                    lambda plane: plane.mark_up(host),
                    host, self._reboot_handlers)

    def _check_hosts(self, hosts, where: str = "") -> None:
        for host in hosts:
            if host not in self.fabric.hosts:
                raise FaultInjectionError(
                    f"unknown host {host!r}{where}")

    def _apply(self, when: Optional[float], text: str, mutate,
               host: Optional[str] = None, handlers=()) -> None:
        """Carry one fault out — ``mutate(plane)``, the log line, then
        ``handlers(host)`` — now (``when`` None) or on one timer at
        ``when``."""
        def act() -> None:
            mutate(self.plane)
            log = self.log
            log.append((self.env.now, text))
            if len(log) >= 2 * FAULT_LOG_HISTORY:
                del log[:len(log) - FAULT_LOG_HISTORY]
            for handler in handlers:
                handler(host)
        if when is None:
            act()
        else:
            _timer(self.env, when, act)


def _timer(env, when: float, action: Callable[[], None]) -> None:
    delay = when - env.now
    if delay < 0:
        raise FaultInjectionError(
            f"cannot schedule a fault at {when} (now is {env.now})")
    env.timeout(delay).add_callback(lambda _ev: action())

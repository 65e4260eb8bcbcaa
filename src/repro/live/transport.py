"""Per-node TCP transport: the live implementation of ``Transport``.

Each :class:`LiveStack` owns one real TCP server socket on localhost;
a connection to another host dials that host's server (address found
through the :class:`~repro.live.registry.RegistryClient` directory) and
writes length-prefixed codec frames.  The surface mirrors the
simulator's ``NetStack`` exactly — ``bind``/``unbind`` a tag handler,
``connect`` for a :class:`LiveConnection`, ``send_many`` for a
fan-out — so :class:`repro.kecho.channel.ChannelEndpoint` runs on it
unchanged.

Receiving is one :class:`asyncio.BufferedProtocol` per accepted
connection.  Every socket of every stack in the process is read into
one receive buffer of :data:`RX_BUFFER_BYTES` — held for the process's
life, so a read allocates nothing — and ``buffer_updated`` splits what
arrived by the frames' length prefixes: each whole frame's body is
copied out of the buffer once, and only a partial frame's tail is kept,
in the connection's :class:`~repro.live.codec.FrameDecoder`, until the
reads behind it complete it.  Each decoded
:class:`~repro.kecho.event.ChannelEvent` goes straight to the handler
bound for its tag — no reader task, no stream buffer and no
per-delivery wrapper.  A decoded event is that delivery's own copy.
A frame that does not decode counts ``net.rx_decode_errors``: one
that carries the codec's magic is skipped, since its length prefix
delimited it and the frames behind it are whole, while a length the
splitter refuses or a frame without the magic ends its connection
only.  EOF inside a frame counts ``net.rx_truncated`` and a tag nobody
bound counts ``net.undeliverable``.

Sending is the mirror image: one :class:`_PeerLink` protocol per
destination host, so every channel endpoint talking to the same host
rides one socket.  The link keeps one bounded queue of the frames that
have not left yet, and asyncio's own flow-control callbacks drive it:

* **connection pooling** — ``connect(dst, tag)`` returns a thin
  :class:`LiveConnection` facade over one pooled TCP link per
  destination host, so a 200-node cluster needs O(nodes × watchers)
  sockets instead of O(nodes × watchers × channels);
* **frame batching** — with a :class:`BatchConfig`, queued frames
  leave as runs of whole frames, one socket write each, flushed by
  size watermark (``max_bytes``) or time watermark (``max_delay``);
  the receiver splits a run by the frames' own length prefixes;
* **sender-side backpressure** — the transport's write-buffer
  watermarks (:data:`HIGH_WATERMARK`, :data:`LOW_WATERMARK`) call
  ``pause_writing`` and ``resume_writing``; a frame that cannot leave
  yet (dial in flight, or paused) waits in the queue, at most
  :data:`MAX_DEFERRED` of them, and the queue flushes on connect and
  on resume.  Past the bound the newest frame is *dropped* and
  reported to the sender's ``on_fail``, so the durable stream records
  the loss and reconciliation stays zero-discrepancy.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.errors import ChannelError, TransportError
from repro.kecho.event import ChannelEvent
from repro.live.codec import (MAGIC, FrameDecoder, decode_frame,
                              encode_batch, encode_frame)
from repro.runtime.protocol import OnFail

__all__ = ["LiveStack", "LiveConnection", "BatchConfig", "in_flight",
           "DIAL_TIMEOUT", "CLOSE_TIMEOUT", "RX_BUFFER_BYTES",
           "HIGH_WATERMARK", "LOW_WATERMARK", "MAX_DEFERRED"]

Resolver = Callable[[str], Optional[tuple[str, int]]]

#: The first two bytes of every frame body of this codec.
_MAGIC = MAGIC.to_bytes(2, "big")

#: Bytes of the one buffer every accepted socket is read into.
RX_BUFFER_BYTES = 64 * 1024

# One buffer serves every stack of the process.  That holds because a
# process runs its stacks on one event loop: each read is split, and
# every whole frame copied out, in ``buffer_updated`` before the loop
# makes the next read.  A second loop on another thread would need a
# buffer of its own.
_RX_BUFFER = memoryview(bytearray(RX_BUFFER_BYTES))

#: Longest wait, in seconds, for a localhost dial to connect.
DIAL_TIMEOUT = 5.0
#: Longest wait, in seconds, for a closed listener or connection to
#: finish closing.
CLOSE_TIMEOUT = 5.0

#: Sender-side backpressure, per link: pause the link when the socket
#: write buffer exceeds :data:`HIGH_WATERMARK` bytes; the transport
#: resumes it once the buffer is back below :data:`LOW_WATERMARK`.
HIGH_WATERMARK = 256 * 1024
LOW_WATERMARK = 64 * 1024
#: Frames queued while the dial is in flight or the link is paused;
#: overflow drops (and records) the newest frame instead of buffering
#: without bound.
MAX_DEFERRED = 1024


@dataclass(frozen=True)
class BatchConfig:
    """Frame-coalescing watermarks for one stack's outgoing links."""

    #: Flush when the coalesced frames reach this many bytes.
    max_bytes: int = 32 * 1024
    #: Flush at most this many seconds after the first queued frame.
    max_delay: float = 0.05


class _PeerLink(asyncio.Protocol):
    """The pooled TCP link to one destination host (lazily dialled).

    Every :class:`LiveConnection` to the same host delegates here.  One
    queue holds every frame that has not left yet: while the dial is
    in flight, while the kernel buffer is past the high watermark, or
    while a batch coalesces; :meth:`flush` writes it.  After a
    connection error every further send reports its frame lost (the
    publisher keeps running — delivery failure must never take d-mon
    down).
    """

    def __init__(self, stack: "LiveStack", dst: str) -> None:
        self.stack = stack
        self.dst = dst
        self.transport: Optional[asyncio.Transport] = None
        self.queue: deque[bytes] = deque()
        self._queued_bytes = 0
        self._dead = False
        self.paused = False
        #: Bytes handed to the socket so far.
        self.written = 0
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._opener = asyncio.ensure_future(self._open())

    async def _open(self) -> None:
        address = self.stack.resolve(self.dst)
        if address is None:
            self._dead = True
            return
        try:
            await asyncio.wait_for(
                asyncio.get_running_loop().create_connection(
                    lambda: self, address[0], address[1]),
                DIAL_TIMEOUT)
        except (OSError, asyncio.TimeoutError):
            self._dead = True

    # -- asyncio flow control ----------------------------------------------

    def connection_made(self, transport) -> None:
        transport.set_write_buffer_limits(high=HIGH_WATERMARK,
                                          low=LOW_WATERMARK)
        self.transport = transport
        self.flush()

    def pause_writing(self) -> None:
        if not self._dead:  # a closing link flushes past the watermark
            self.paused = True
            self.stack._t_pauses.inc()

    def resume_writing(self) -> None:
        self.paused = False
        self.stack._t_resumes.inc()
        self.flush()

    def connection_lost(self, exc) -> None:
        self._dead = True
        self.transport = None

    # -- send path ---------------------------------------------------------

    def send(self, frame: bytes) -> Optional[str]:
        """Queue one encoded frame; the reason it is known lost, or
        None."""
        if self._dead:
            return "link down"
        stack = self.stack
        queue = self.queue
        if self.transport is None or self.paused:
            # The frame cannot leave yet: the queue is bounded.
            if len(queue) >= MAX_DEFERRED:
                stack._t_drops.inc()
                return "backpressure"
            stack._t_deferred.inc()
        queue.append(frame)
        self._queued_bytes += len(frame)
        batch = stack.batch_config
        if batch is None or self._queued_bytes >= batch.max_bytes:
            self.flush()
        elif self._flush_handle is None:
            self._flush_handle = asyncio.get_running_loop().call_later(
                batch.max_delay, self.flush)
        return "link down" if self._dead else None

    def flush(self) -> None:
        """Write the queue until it empties or the link pauses, one run
        per write: one frame, or batched, whole frames until the run
        reaches ``max_bytes``."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        batch = self.stack.batch_config
        limit = 0 if batch is None else batch.max_bytes
        queue = self.queue
        while queue and self.transport is not None and not self.paused:
            run = [queue.popleft()]
            size = len(run[0])
            while queue and size < limit:
                run.append(queue.popleft())
                size += len(run[-1])
            self._queued_bytes -= size
            if len(run) > 1:
                self.stack._t_batches.inc()
                self.stack._t_batched_frames.inc(len(run))
            self._write(encode_batch(run))

    def _write(self, data: bytes) -> None:
        """One wire write (a run of whole frames)."""
        transport = self.transport
        if transport is None:
            return
        if transport.is_closing():
            # The peer hung up (teardown); asyncio would log every
            # further write as "socket.send() raised exception".
            self.connection_lost(None)
            return
        try:
            transport.write(data)
        except Exception:
            transport.abort()
            self.connection_lost(None)
            return
        self.written += len(data)
        self.stack._t_wire_frames.inc()
        self.stack._t_wire_bytes.inc(len(data))

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Hang up.  Best effort: what is queued goes to the kernel
        buffer first, past the high watermark too."""
        self._opener.cancel()
        self._dead = True
        self.paused = False
        self.flush()
        if self.transport is not None:
            self.transport.close()


class LiveConnection:
    """One logical connection to a remote host: a facade over the
    stack's pooled per-destination :class:`_PeerLink`."""

    def __init__(self, stack: "LiveStack", dst: str, tag: str) -> None:
        self.stack = stack
        self.dst = dst
        self.tag = tag
        self._link = stack._link_to(dst)
        self._closed = False

    def send(self, payload: Any, size: float,
             on_fail: Optional[OnFail] = None) -> None:
        """Encode and transmit one :class:`ChannelEvent`."""
        self.stack.send_many([self], payload, size, on_fail)

    def close(self) -> None:
        """Forget the connection (idempotent); the pooled link stays
        the stack's."""
        if not self._closed:
            self._closed = True
            self.stack.connections.remove(self)


class LiveStack:
    """One node's TCP endpoint: server socket + tagged dispatch."""

    def __init__(self, host: str, telemetry,
                 batch: Optional[BatchConfig] = None) -> None:
        self.host = host
        self.handlers: dict[str, Callable] = {}
        self.connections: list[LiveConnection] = []
        self.address: Optional[tuple[str, int]] = None
        #: Host-name → (ip, port) lookup; wired to the registry client
        #: by the runtime before any connection is made.
        self.resolve: Resolver = lambda host: None
        #: Outgoing frame batching; set before the first ``connect``
        #: (the runtime configures it from the scenario).
        self.batch_config = batch
        self._links: dict[str, _PeerLink] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        #: Accepted connections, so :meth:`stop` can end each one.
        self._inbound: set[_Inbound] = set()
        self._t_tx = telemetry.counter("net.tx_frame_bytes")
        self._t_rx = telemetry.counter("net.rx_frame_bytes")
        self._t_undeliverable = telemetry.counter("net.undeliverable")
        self._t_frames = telemetry.counter("net.tx_frames")
        self._t_wire_frames = telemetry.counter("net.tx_wire_frames")
        self._t_wire_bytes = telemetry.counter("net.tx_wire_bytes")
        self._t_batches = telemetry.counter("net.tx_batches")
        self._t_batched_frames = telemetry.counter(
            "net.tx_batched_frames")
        self._t_deferred = telemetry.counter(
            "net.backpressure_deferred")
        self._t_drops = telemetry.counter("net.backpressure_drops")
        self._t_pauses = telemetry.counter("net.backpressure_pauses")
        self._t_resumes = telemetry.counter("net.backpressure_resumes")
        self._t_truncated = telemetry.counter("net.rx_truncated")
        self._t_decode_errors = telemetry.counter("net.rx_decode_errors")

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Open the server socket (port 0 → ephemeral) and return it."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Inbound(self), "127.0.0.1", 0)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def stop(self) -> None:
        for conn in list(self.connections):
            conn.close()
        for link in self._links.values():
            link.close()
        self._links.clear()
        if self._server is not None:
            self._server.close()
            # The accepted connections end with the listening socket.
            for inbound in list(self._inbound):
                inbound.transport.close()
            await asyncio.wait_for(self._server.wait_closed(),
                                   CLOSE_TIMEOUT)
            self._server = None

    def flush(self) -> None:
        """Write every queued frame now, ahead of its batch timer."""
        for link in self._links.values():
            link.flush()

    # -- the Transport protocol -------------------------------------------

    def bind(self, tag: str, handler: Callable) -> None:
        if tag in self.handlers:
            raise TransportError(
                f"tag {tag!r} already bound on {self.host}")
        self.handlers[tag] = handler

    def unbind(self, tag: str) -> None:
        self.handlers.pop(tag, None)

    def connect(self, dst: str, tag: str) -> LiveConnection:
        conn = LiveConnection(self, dst, tag)
        self.connections.append(conn)
        return conn

    def send_many(self, conns: list, payload: Any, size: float,
                  on_fail: Optional[OnFail] = None) -> None:
        """Send one :class:`ChannelEvent` over each connection, in
        order.

        The only send body (``LiveConnection.send`` is a fan-out of
        one): the frame is encoded once per distinct tag and handed to
        every link, instead of once per target.  ``size`` is the
        simulator's wire model; here the frame's real length counts.
        A frame known lost — closed connection, dead link, or
        backpressure overflow — is reported once, as
        ``on_fail(dst, reason)`` before this call returns; a frame
        that dies later inside the kernel's socket buffer is the
        reconciler's to find.
        """
        if not isinstance(payload, ChannelEvent):
            raise TransportError(
                "live transport carries ChannelEvent frames only")
        frames: dict[str, bytes] = {}
        for conn in conns:
            if conn._closed:
                lost = "connection closed"
            elif conn._link._dead:
                lost = "link down"
            else:
                frame = frames.get(conn.tag)
                if frame is None:
                    frame = frames[conn.tag] = encode_frame(conn.tag,
                                                            payload)
                self._t_tx.inc(len(frame))
                self._t_frames.inc()
                lost = conn._link.send(frame)
            if lost is not None and on_fail is not None:
                on_fail(conn.dst, lost)

    # -- internals ---------------------------------------------------------

    def _link_to(self, dst: str) -> _PeerLink:
        link = self._links.get(dst)
        if link is None:
            link = self._links[dst] = _PeerLink(self, dst)
        return link


class _Inbound(asyncio.BufferedProtocol):
    """One accepted connection: the socket is read into the process's
    receive buffer, and frames decode and dispatch in
    ``buffer_updated``, with no reader task behind them."""

    def __init__(self, stack: "LiveStack") -> None:
        self.stack = stack
        #: None once a decode error has ended the connection.
        self.decoder: Optional[FrameDecoder] = FrameDecoder()
        self.transport: Optional[asyncio.Transport] = None
        #: Bytes read (and their whole frames dispatched) so far.
        self.received = 0

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.stack._inbound.add(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return _RX_BUFFER

    def buffer_updated(self, nbytes: int) -> None:
        decoder = self.decoder
        if decoder is None:
            return
        stack = self.stack
        stack._t_rx.inc(nbytes)
        self.received += nbytes
        # A stream that does not split into frames of ours ends this
        # connection only: after garbage the peer's framing cannot be
        # trusted, and the other sockets keep being served.  The
        # decoder copies each frame out of the shared buffer before
        # the next read reuses it.
        try:
            frames = decoder.feed(_RX_BUFFER[:nbytes])
        except ChannelError:
            self._refuse()
            return
        handlers = stack.handlers
        for frame in frames:
            try:
                tag, event = decode_frame(frame)
            except ChannelError:
                if frame[:2] != _MAGIC:
                    self._refuse()
                    return
                # A frame of ours with a bad body: counted and skipped.
                stack._t_decode_errors.inc()
                continue
            handler = handlers.get(tag)
            if handler is None:
                stack._t_undeliverable.inc()
                continue
            handler(event)

    def _refuse(self) -> None:
        self.stack._t_decode_errors.inc()
        self.decoder = None
        self.transport.close()

    def connection_lost(self, exc) -> None:
        self.stack._inbound.discard(self)
        if self.decoder is not None and self.decoder.pending_bytes:
            # Partial header/body at EOF: the peer died mid-frame.
            # Count it; the reconciler sees the missing delivery.
            self.stack._t_truncated.inc()


def in_flight(stacks: Iterable[LiveStack]) -> bool:
    """Whether a frame between two of ``stacks`` is still queued, or
    written but not yet read and dispatched by its receiver.

    Links to hosts outside ``stacks`` (another process's) and links
    that are down are not counted: nothing more can arrive from them.
    """
    stacks = list(stacks)
    hosts = {stack.host for stack in stacks}
    received = {inbound.transport.get_extra_info("peername"):
                inbound.received
                for stack in stacks for inbound in stack._inbound}
    for stack in stacks:
        for dst, link in stack._links.items():
            if dst not in hosts or link._dead:
                continue
            if link.queue:
                return True
            if link.transport is not None and link.written != \
                    received.get(link.transport.get_extra_info(
                        "sockname"), 0):
                return True
    return False

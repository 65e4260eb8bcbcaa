"""Live-backend scaling machinery: batching, backpressure, node pool.

Unit level: a :class:`_PeerLink` against fake transports pins the
coalescing watermarks and the pause/defer/drop flow-control ladder.
End to end: real sockets prove frames coalesce on the wire, a slow
consumer trips the high watermark and resumes after drain, a
multi-process node pool delivers every host's metrics, and a streamed
run reconciles clean (backpressure drops are attributed, never
silent).
"""

from __future__ import annotations

import asyncio
import logging

import pytest

from repro.dproc import MetricId, RecordBatch
from repro.dproc.dmon import CONTROL_CHANNEL, MONITOR_CHANNEL
from repro.kecho.control import ControlMessage
from repro.kecho.event import ChannelEvent
from repro.live import transport as live_transport
from repro.live.codec import FrameDecoder, decode_frame, encode_frame
from repro.live.transport import (BatchConfig, LiveStack, _PeerLink,
                                  in_flight)
from repro.telemetry import TelemetryRegistry
from tests.runtime.test_codec import unknown_metric_frames


class _FakeTransport:
    """A pretend kernel buffer that calls the protocol's flow control
    the way asyncio's transports do."""

    def __init__(self) -> None:
        self.protocol = None
        self.buffer = 0
        self.high = self.low = None
        self.paused = False
        self.closing = False
        self.writes: list[bytes] = []

    def set_write_buffer_limits(self, high=None, low=None) -> None:
        self.high, self.low = high, low

    def is_closing(self) -> bool:
        return self.closing

    def write(self, data: bytes) -> None:
        self.writes.append(data)
        self.buffer += len(data)
        if not self.paused and self.buffer > self.high:
            self.paused = True
            self.protocol.pause_writing()

    def drain(self) -> None:
        """The peer reads everything: back under the low watermark."""
        self.buffer = 0
        if self.paused:
            self.paused = False
            self.protocol.resume_writing()

    def close(self) -> None:
        self.closing = True


#: The tag every MONITOR frame travels on.
TAG = "kecho:" + MONITOR_CHANNEL


def _batch(i: int = 0) -> RecordBatch:
    """A one-record batch whose value is ``i``."""
    return RecordBatch((MetricId.LOADAVG,), (float(i),), 0.0)


def _event(i: int = 0) -> ChannelEvent:
    return ChannelEvent(channel=MONITOR_CHANNEL, source="s",
                        payload=_batch(i),
                        size=32.0, submitted_at=float(i))


def _number(body: bytes) -> int:
    """The value of the one record in a frame body."""
    return int(decode_frame(body)[1].payload.values[0])


def _big(nbytes: int) -> ChannelEvent:
    """An event whose frame is over ``nbytes`` long: a top-K table of
    12-byte rows."""
    batch = _batch()
    batch.proc_top = {pid: 1.0 for pid in range(nbytes // 12 + 1)}
    return ChannelEvent(channel=MONITOR_CHANNEL, source="s",
                        payload=batch, size=1.0, submitted_at=0.0)


def _frame(i: int = 0) -> bytes:
    return encode_frame(TAG, _event(i))


def _stack(batch=None) -> LiveStack:
    return LiveStack("alan", TelemetryRegistry("alan"), batch=batch)


def _net(stack: LiveStack, name: str) -> float:
    """The stack's ``net.<name>`` counter."""
    return stack.telemetry.value(f"net.{name}")


def _set_flow(monkeypatch, high: int, low: int, deferred: int) -> None:
    """Tighten the transport's backpressure bounds for one test."""
    monkeypatch.setattr(live_transport, "HIGH_WATERMARK", high)
    monkeypatch.setattr(live_transport, "LOW_WATERMARK", low)
    monkeypatch.setattr(live_transport, "MAX_DEFERRED", deferred)


def _complete_dial(link: _PeerLink, transport=None) -> _FakeTransport:
    """Connect ``link`` to a fake transport, as the dial would."""
    transport = transport or _FakeTransport()
    transport.protocol = link
    link.connection_made(transport)
    return transport


async def _link(stack: LiveStack, transport=None) -> _PeerLink:
    """A link with the dial cancelled; a fake transport, if given,
    completes the connect."""
    link = _PeerLink(stack, "maui")
    link._opener.cancel()
    await asyncio.sleep(0)
    if transport is not None:
        _complete_dial(link, transport)
    return link


async def _conn(stack: LiveStack, transport, dst: str = "maui"):
    """A connection whose pooled link writes to a fake transport."""
    conn = stack.connect(dst, tag=TAG)
    conn._link._opener.cancel()
    await asyncio.sleep(0)
    _complete_dial(conn._link, transport)
    return conn


class TestPeerLinkBatching:
    def test_a_run_is_its_frames_concatenated(self):
        """A batched link writes a run as the frames themselves, back
        to back: no header around them, byte for byte."""
        async def run():
            stack = _stack(batch=BatchConfig(max_bytes=1 << 30,
                                             max_delay=0.01))
            transport = _FakeTransport()
            link = await _link(stack, transport)
            for i in range(3):
                assert link.send(_frame(i)) is None
            await asyncio.sleep(0.05)
            return stack, transport
        stack, transport = asyncio.run(run())
        assert transport.writes == [b"".join(_frame(i) for i in range(3))]
        assert _net(stack, "tx_batches") == 1
        assert _net(stack, "tx_batched_frames") == 3
        assert _net(stack, "tx_wire_frames") == 1
        assert _net(stack, "tx_frames") == 0  # counted by LiveConnection

    def test_flush_on_byte_watermark(self):
        async def run():
            stack = _stack(batch=BatchConfig(
                max_bytes=len(_frame(0)) + 1, max_delay=60.0))
            transport = _FakeTransport()
            link = await _link(stack, transport)
            link.send(_frame(0))
            assert transport.writes == []          # still coalescing
            link.send(_frame(1))     # crosses max_bytes
            return transport
        transport = asyncio.run(run())
        assert len(transport.writes) == 1
        assert len(FrameDecoder().feed(transport.writes[0])) == 2

    def test_flush_on_time_watermark(self):
        async def run():
            stack = _stack(batch=BatchConfig(max_bytes=1 << 30,
                                             max_delay=0.01))
            transport = _FakeTransport()
            link = await _link(stack, transport)
            link.send(_frame(0))
            link.send(_frame(1))
            assert transport.writes == []
            await asyncio.sleep(0.05)
            return transport
        transport = asyncio.run(run())
        assert len(transport.writes) == 1
        assert len(FrameDecoder().feed(transport.writes[0])) == 2

    def test_single_frame_flushes_as_itself(self):
        async def run():
            stack = _stack(batch=BatchConfig(max_delay=0.01))
            transport = _FakeTransport()
            link = await _link(stack, transport)
            link.send(_frame(7))
            await asyncio.sleep(0.05)
            return stack, transport
        stack, transport = asyncio.run(run())
        assert len(transport.writes) == 1
        # A run of one frame is that frame.
        assert transport.writes[0] == _frame(7)
        assert _net(stack, "tx_batches") == 0

    def test_preconnect_frames_counted_once(self):
        async def run():
            stack = _stack()
            link = await _link(stack)
            link.send(_frame(0))
            link.send(_frame(1))
            assert _net(stack, "tx_wire_frames") == 0  # queued, not sent
            transport = _complete_dial(link)
            return stack, transport
        stack, transport = asyncio.run(run())
        assert len(transport.writes) == 2
        assert _net(stack, "tx_wire_frames") == 2

    def test_batched_preconnect_frames_leave_on_connect(self):
        """Frames that waited for the dial do not wait for the batch
        timer as well: the connect flushes them in one write."""
        async def run():
            stack = _stack(batch=BatchConfig(max_bytes=1 << 30,
                                             max_delay=60.0))
            link = await _link(stack)
            link.send(_frame(0))
            link.send(_frame(1))
            transport = _complete_dial(link)
            return transport
        transport = asyncio.run(run())
        assert len(transport.writes) == 1
        assert len(FrameDecoder().feed(transport.writes[0])) == 2

    def test_queued_frames_leave_in_super_frames_of_the_watermark(self):
        """A long queue (here: one that waited for the dial) flushes
        in runs of whole frames that stop once they reach
        ``max_bytes``, in order."""
        async def run():
            stack = _stack(batch=BatchConfig(
                max_bytes=3 * len(_frame(0)), max_delay=60.0))
            link = await _link(stack)
            for i in range(7):
                link.send(_frame(i))
            transport = _complete_dial(link)
            return transport
        transport = asyncio.run(run())
        batches = [[_number(b) for b in FrameDecoder().feed(w)]
                   for w in transport.writes]
        assert batches == [[0, 1, 2], [3, 4, 5], [6]]


class TestPeerLinkBackpressure:
    @pytest.fixture(autouse=True)
    def tight_flow(self, monkeypatch):
        _set_flow(monkeypatch, high=100, low=10, deferred=2)

    def test_pause_defer_resume_preserves_order(self):
        async def run():
            stack = _stack()
            transport = _FakeTransport()
            link = await _link(stack, transport)
            big = encode_frame(TAG, _big(200))
            link.send(big)          # buffer > high: pause
            assert link.paused
            assert _net(stack, "backpressure_pauses") == 1
            assert link.send(_frame(1)) is None  # deferred
            assert link.send(_frame(2)) is None
            assert _net(stack, "backpressure_deferred") == 2
            assert len(transport.writes) == 1     # nothing new on wire
            transport.drain()                  # resume_writing
            return stack, transport
        stack, transport = asyncio.run(run())
        assert _net(stack, "backpressure_resumes") == 1
        assert [_number(FrameDecoder().feed(w)[0])
                for w in transport.writes[1:]] == [1, 2]

    def test_overflow_drops_are_recorded_and_attributed(self):
        """Each frame dropped on overflow reaches the sender's
        ``on_fail`` exactly once, with its cause."""
        async def run():
            stack = _stack()
            conn = await _conn(stack, _FakeTransport())
            conn._link.paused = True           # as if past high water
            drops = []
            for i in (1, 2, 3):                # the third overflows
                conn.send(_event(i), 32.0, on_fail=lambda _payload, dst,
                          reason, i=i: drops.append((i, dst, reason)))
            return stack, drops
        stack, drops = asyncio.run(run())
        assert _net(stack, "backpressure_drops") == 1
        assert drops == [(3, "maui", "backpressure")]

    def test_frames_waiting_for_the_dial_are_bounded(self):
        """While the dial is in flight at most ``MAX_DEFERRED`` frames
        wait; the rest are dropped and counted."""
        async def run():
            stack = _stack()
            link = await _link(stack)
            return stack, [link.send(_frame(i)) for i in range(5)]
        stack, lost = asyncio.run(run())
        assert lost == [None, None] + ["backpressure"] * 3
        assert _net(stack, "backpressure_drops") == 3
        assert _net(stack, "backpressure_deferred") == 2

    def test_peer_hang_up_marks_the_link_down(self):
        async def run():
            stack = _stack()
            link = await _link(stack, _FakeTransport())
            link.connection_lost(None)
            return link.send(_frame(0))
        assert asyncio.run(run()) == "link down"

    def test_dead_link_fails_sends_without_raising(self):
        async def run():
            stack = _stack()
            conn = await _conn(stack, _FakeTransport())
            conn._link._dead = True
            drops = []
            conn.send(_event(0), 32.0,
                      on_fail=lambda _payload, *lost: drops.append(lost))
            return conn._link.send(_frame(0)), drops
        lost, drops = asyncio.run(run())
        assert lost == "link down"
        assert drops == [("maui", "link down")]


class TestFanOut:
    def test_send_many_encodes_one_frame_for_k_links(self, monkeypatch):
        from repro.live import transport
        encoded = []
        monkeypatch.setattr(
            transport, "encode_frame",
            lambda tag, event: (encoded.append(tag),
                                encode_frame(tag, event))[1])
        peers = ["maui", "etna", "fuji", "hood"]

        async def run():
            stack = _stack()
            conns = [await _conn(stack, _FakeTransport(), dst)
                     for dst in peers]
            lost = []
            stack.send_many(conns, _event(7), 32.0,
                            on_fail=lambda _payload, *fail: lost.append(fail))
            return stack, conns, lost
        stack, conns, lost = asyncio.run(run())
        assert encoded == [TAG]
        assert lost == []
        assert _net(stack, "tx_frames") == len(peers)
        for conn in conns:
            (body,) = FrameDecoder().feed(b"".join(
                conn._link.transport.writes))
            tag, event = decode_frame(body)
            assert (tag, event.channel, event.source,
                    event.payload.values, event.submitted_at) \
                == (TAG, MONITOR_CHANNEL, "s", (7.0,), 7.0)


class TestSlowConsumerLive:
    """Real sockets: a peer that stops reading trips the watermark."""

    def test_watermark_pause_and_resume(self, monkeypatch):
        _set_flow(monkeypatch, high=16 * 1024, low=4 * 1024, deferred=8)

        async def run():
            stack = _stack()
            gate = asyncio.Event()

            async def slow_peer(reader, writer):
                await gate.wait()              # ... then drain it all
                while await reader.read(1 << 16):
                    pass

            server = await asyncio.start_server(
                slow_peer, "127.0.0.1", 0)
            address = server.sockets[0].getsockname()[:2]
            stack.resolve = lambda host: address
            conn = stack.connect("maui", TAG)
            big = _big(65536)
            for _ in range(200):               # ~13 MB at the peer
                conn.send(big, size=1.0)
                await asyncio.sleep(0)
                if _net(stack, "backpressure_pauses"):
                    break
            assert _net(stack, "backpressure_pauses") >= 1, \
                "slow consumer never tripped the high watermark"
            gate.set()                         # peer starts reading
            for _ in range(200):
                await asyncio.sleep(0.02)
                if _net(stack, "backpressure_resumes"):
                    break
            assert _net(stack, "backpressure_resumes") >= 1, \
                "drain never resumed the link"
            await stack.stop()
            server.close()
            await server.wait_closed()
        asyncio.run(run())


class TestInFlightLive:
    """Real sockets: what teardown waits for before it closes."""

    def test_a_frame_is_in_flight_until_its_receiver_dispatched_it(self):
        async def run():
            sender = _stack(batch=BatchConfig(max_delay=60.0))
            receiver = LiveStack("maui", TelemetryRegistry("maui"))
            got = []
            receiver.bind(TAG, lambda event: got.append(event.payload))
            address = await receiver.start()
            sender.resolve = lambda host: address
            sender.connect("maui", TAG).send(_event(1), size=1.0)
            # Queued behind the batch timer, then written and unread.
            assert in_flight([sender, receiver])
            sender.flush()
            for _ in range(200):
                if not in_flight([sender, receiver]):
                    break
                await asyncio.sleep(0.005)
            assert [batch.values for batch in got] == [(1.0,)]
            assert not in_flight([sender, receiver])
            # A frame for another process's host is not waited for.
            sender.connect("etna", TAG).send(_event(2), size=1.0)
            assert not in_flight([sender, receiver])
            await sender.stop()
            await receiver.stop()
        asyncio.run(run())


class TestMalformedFrameLive:
    """Real sockets: a whole frame that does not decode is counted and
    skipped; its connection and every other keep delivering."""

    def test_decode_error_is_counted_and_contained(self, caplog):
        good, bad = unknown_metric_frames()
        received = []

        async def send(address, data: bytes):
            reader, writer = await asyncio.open_connection(*address)
            writer.write(data)
            await writer.drain()
            return reader, writer

        async def run():
            stack = _stack()
            stack.bind(TAG, lambda msg: received.append(msg.payload))
            address = await stack.start()
            reader, writer = await send(address, bad + good)
            # The frame behind the bad one is delivered ...
            for _ in range(500):
                if received:
                    break
                await asyncio.sleep(0.01)
            behind_bad_frame = len(received)
            writer.write_eof()
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            # ... and the stack keeps serving everyone else.
            reader, writer = await send(address, good)
            writer.write_eof()
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            await stack.stop()
            return stack, behind_bad_frame

        with caplog.at_level(logging.ERROR):
            stack, behind_bad_frame = asyncio.run(run())
        assert behind_bad_frame == 1
        assert _net(stack, "rx_decode_errors") == 1
        assert len(received) == 2
        assert [r for r in caplog.records
                if r.levelno >= logging.ERROR] == []


@pytest.mark.slow
class TestLiveEndToEnd:
    def test_batching_reduces_wire_frames(self):
        import math
        from repro.api import Scenario
        from repro.dproc import DMonConfig, MetricId
        sc = Scenario(nodes=3, seed=5, backend="live",
                      dmon=DMonConfig(poll_interval=0.2))
        sc.with_node_pool(1, batch=BatchConfig(max_delay=0.4))
        sc.run(2.5)
        wire = sc.runtime.wire_stats()
        assert wire["net.tx_batches"] > 0
        assert wire["net.tx_wire_frames"] < wire["net.tx_frames"]
        # Content got there: a remote loadavg is cached at node 0.
        observer = sc.dprocs[sc.nodes.names[0]]
        assert not math.isnan(observer.metric(sc.nodes.names[1],
                                              MetricId.LOADAVG))

    def test_node_pool_delivers_all_hosts(self):
        from repro.api import Scenario
        from repro.dproc import DMonConfig, MetricId
        import math
        sc = Scenario(nodes=8, seed=3, backend="live",
                      dmon=DMonConfig(poll_interval=0.25))
        sc.with_node_pool(2)
        sc.run(4.0)
        observer = sc.dprocs[sc.nodes.names[0]]
        missing = [host for host in observer.hosts()
                   if host != sc.nodes.names[0]
                   and math.isnan(observer.metric(host,
                                                  MetricId.LOADAVG))]
        assert not missing, f"no delivery from {missing}"
        overhead = sc.overhead()
        assert overhead["n_nodes"] == 8  # both processes merged
        assert sc.runtime.missing_hosts == ()

    def test_pooled_registries_are_cluster_wide(self):
        """The hosts a pool worker ran are in ``registries`` and in
        ``overhead()``, not only this process's slice."""
        from repro.api import Scenario
        from repro.dproc import DMonConfig
        sc = Scenario(nodes=4, seed=13, backend="live",
                      dmon=DMonConfig(poll_interval=0.25))
        sc.with_node_pool(2).run(2.0)
        local_hosts = set(sc.nodes.names)
        remote_hosts = set(sc.registries) - local_hosts
        assert len(local_hosts) == len(remote_hosts) == 2

        def total(counter, hosts):
            return sum(sc.registries[host].value(counter)
                       for host in hosts)

        receives = "kecho.dproc.monitor.receives"
        assert total(receives, local_hosts) > 0
        assert total(receives, remote_hosts) > 0
        published = "dmon.events_published"
        assert sc.overhead()["events_published"] == \
            total(published, local_hosts) + total(published, remote_hosts)

    def test_killed_pool_worker_is_reported_missing(self):
        """SIGKILL one of three workers mid-run: the run still ends on
        time, the dead worker's slice is named, the rest is reported."""
        import time
        from repro.api import Scenario
        from repro.dproc import DMonConfig
        duration = 3.0
        sc = Scenario(nodes=6, seed=1, backend="live",
                      dmon=DMonConfig(poll_interval=0.25))
        sc.with_node_pool(3)
        sc.with_setup(lambda sc: asyncio.get_event_loop().call_later(
            duration / 2, sc.runtime.pool._procs[0].kill))
        started = time.monotonic()
        sc.run(duration)
        assert time.monotonic() - started < duration + 5.0
        victims = tuple(sc.runtime.pool.slices[0])
        assert len(victims) == 2
        assert sc.runtime.missing_hosts == victims
        survivors = [name for name in sc._deployment().names
                     if name not in victims]
        assert sorted(sc.registries) == sorted(survivors)
        assert sc.overhead()["n_nodes"] == 4

    def test_pooled_cli_run_is_clean_and_leaves_no_traceback(self):
        """Every ``_serve`` task ends normally at teardown, including
        the ones parked on sockets another process still holds."""
        import os
        import subprocess
        import sys
        from pathlib import Path
        src = Path(__file__).resolve().parents[2] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro.harness", "live", "--nodes",
             "6", "--workers", "3", "--duration", "2", "--poll", "0.5"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr, result.stderr
        assert "\nmissing:\n" in result.stdout

    def test_streamed_live_run_reconciles_clean(self):
        from repro.api import Scenario
        from repro.dproc import DMonConfig
        from repro.stream import reconcile
        sc = Scenario(nodes=3, seed=9, backend="live",
                      dmon=DMonConfig(poll_interval=0.25))
        sc.with_node_pool(1, batch=BatchConfig(max_delay=0.3))
        sc.with_stream()
        sc.run(2.5)
        report = reconcile(sc.stream, sc.dprocs)
        assert report.ok, report.render()


class TestOneFailurePath:
    def test_dead_link_drop_reaches_the_stream(self):
        """A KECho copy the live stack knows is lost (the peer never
        resolves, so its link is dead) is counted in
        ``failed_deliveries`` and recorded in the stream, once each:
        the witnesses ``verify_stats`` compares agree."""
        from repro.kecho import KechoBus
        from repro.live.clock import AsyncClock
        from repro.live.node import LiveNode
        from repro.stream import DROP, StreamBroker, verify_stats

        async def run():
            clock = AsyncClock()
            clock.start()
            nodes = [LiveNode(name, clock, index=i)
                     for i, name in enumerate(("alan", "maui"))]
            bus = KechoBus()
            bus.stream = StreamBroker()
            eps = {node.name: bus.connect(node, CONTROL_CHANNEL)
                   for node in nodes}
            eps["maui"].subscribe(lambda e, t: None)
            msg = ControlMessage("maui", "unfilter f1")
            eps["alan"].submit(msg, size=32.0)      # dials the link
            await asyncio.sleep(0.01)               # no address: dead
            receipt = eps["alan"].submit(msg, size=32.0)
            for node in nodes:
                await node.stack.stop()
            return bus.stream, nodes, receipt
        stream, nodes, receipt = asyncio.run(run())
        assert nodes[0].telemetry.value(
            f"kecho.{CONTROL_CHANNEL}.failed_deliveries") == 1
        assert [(e.dest, e.fault, e.submitted_at)
                for e in stream.entries(CONTROL_CHANNEL)
                if e.kind == DROP] \
            == [("maui", "link down", receipt.event.submitted_at)]
        assert verify_stats(stream, nodes,
                            channels=[CONTROL_CHANNEL]) == []

"""Live-backend scaling machinery: batching, backpressure, node pool.

Unit level: a :class:`_PeerLink` against fake writers pins the
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

from repro.kecho.event import ChannelEvent
from repro.live.codec import FrameDecoder, decode_frame, encode_frame
from repro.live.transport import (BatchConfig, FlowConfig, LiveStack,
                                  _PeerLink)
from repro.telemetry import TelemetryRegistry
from tests.runtime.test_codec import unknown_metric_frames


class _FakeTransport:
    def __init__(self) -> None:
        self.buffer = 0
        self.closing = False
        self.limits = None

    def set_write_buffer_limits(self, high=None, low=None) -> None:
        self.limits = (high, low)

    def get_write_buffer_size(self) -> int:
        return self.buffer

    def is_closing(self) -> bool:
        return self.closing


class _FakeWriter:
    """Counts writes into a pretend kernel buffer that drain() empties."""

    def __init__(self) -> None:
        self.transport = _FakeTransport()
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.writes.append(data)
        self.transport.buffer += len(data)

    async def drain(self) -> None:
        await asyncio.sleep(0)
        self.transport.buffer = 0

    def close(self) -> None:
        self.transport.closing = True


def _event(i: int = 0) -> ChannelEvent:
    return ChannelEvent(channel="c", source="s", payload={"i": i},
                        size=32.0, submitted_at=float(i))


def _frame(i: int = 0) -> bytes:
    return encode_frame("t", _event(i))


def _stack(batch=None, flow=None) -> LiveStack:
    return LiveStack("alan", TelemetryRegistry("alan"), batch=batch,
                     flow=flow)


async def _link(stack: LiveStack, writer=None) -> _PeerLink:
    """A link with the dial replaced by a fake (or absent) writer."""
    link = _PeerLink(stack, "maui")
    link._opener.cancel()
    await asyncio.sleep(0)
    link._writer = writer
    return link


async def _conn(stack: LiveStack, writer, dst: str = "maui"):
    """A connection whose pooled link writes to a fake writer."""
    conn = stack.connect(dst, tag="t")
    conn._link._opener.cancel()
    await asyncio.sleep(0)
    conn._link._writer = writer
    return conn


class TestPeerLinkBatching:
    def test_flush_on_frame_watermark(self):
        async def run():
            stack = _stack(batch=BatchConfig(max_bytes=1 << 30,
                                             max_delay=60.0,
                                             max_frames=3))
            writer = _FakeWriter()
            link = await _link(stack, writer)
            for i in range(3):
                assert link.send(_frame(i)) is None
            return stack, writer
        stack, writer = asyncio.run(run())
        assert len(writer.writes) == 1
        bodies = FrameDecoder().feed(writer.writes[0])
        assert [decode_frame(b)[1].payload["i"]
                for b in bodies] == [0, 1, 2]
        assert stack._t_batches.value == 1
        assert stack._t_wire_frames.value == 1
        assert stack._t_frames.value == 0  # counted by LiveConnection

    def test_flush_on_byte_watermark(self):
        async def run():
            stack = _stack(batch=BatchConfig(
                max_bytes=len(_frame(0)) + 1, max_delay=60.0,
                max_frames=1000))
            writer = _FakeWriter()
            link = await _link(stack, writer)
            link.send(_frame(0))
            assert writer.writes == []          # still coalescing
            link.send(_frame(1))     # crosses max_bytes
            return writer
        writer = asyncio.run(run())
        assert len(writer.writes) == 1
        assert len(FrameDecoder().feed(writer.writes[0])) == 2

    def test_flush_on_time_watermark(self):
        async def run():
            stack = _stack(batch=BatchConfig(max_bytes=1 << 30,
                                             max_delay=0.01,
                                             max_frames=1000))
            writer = _FakeWriter()
            link = await _link(stack, writer)
            link.send(_frame(0))
            link.send(_frame(1))
            assert writer.writes == []
            await asyncio.sleep(0.05)
            return writer
        writer = asyncio.run(run())
        assert len(writer.writes) == 1
        assert len(FrameDecoder().feed(writer.writes[0])) == 2

    def test_single_frame_flushes_as_itself(self):
        async def run():
            stack = _stack(batch=BatchConfig(max_delay=0.01))
            writer = _FakeWriter()
            link = await _link(stack, writer)
            link.send(_frame(7))
            await asyncio.sleep(0.05)
            return stack, writer
        stack, writer = asyncio.run(run())
        assert len(writer.writes) == 1
        # No BATCH wrapper for a lone frame: bytes are the frame.
        assert writer.writes[0] == _frame(7)
        assert stack._t_batches.value == 0

    def test_preconnect_frames_counted_once(self):
        async def run():
            stack = _stack()
            link = await _link(stack, writer=None)
            link.send(_frame(0))
            link.send(_frame(1))
            assert stack._t_wire_frames.value == 0  # parked, not sent
            writer = _FakeWriter()
            link._writer = writer
            pending, link._pending = link._pending, []
            for data in pending:        # what _open() does on connect
                link._write_out(data)
            return stack, writer
        stack, writer = asyncio.run(run())
        assert len(writer.writes) == 2
        assert stack._t_wire_frames.value == 2


class TestPeerLinkBackpressure:
    FLOW = FlowConfig(high_watermark=100, low_watermark=10,
                      max_deferred=2)

    def test_pause_defer_resume_preserves_order(self):
        async def run():
            stack = _stack(flow=self.FLOW)
            writer = _FakeWriter()
            link = await _link(stack, writer)
            big = encode_frame("t", ChannelEvent(
                channel="c", source="s", payload={"x": "y" * 200},
                size=1.0, submitted_at=0.0))
            link.send(big)          # buffer > high: pause
            assert link.paused
            assert stack._t_pauses.value == 1
            assert link.send(_frame(1)) is None  # deferred
            assert link.send(_frame(2)) is None
            assert stack._t_deferred.value == 2
            assert len(writer.writes) == 1     # nothing new on wire
            await asyncio.sleep(0.01)          # drainer runs
            return stack, writer
        stack, writer = asyncio.run(run())
        assert stack._t_resumes.value == 1
        assert [decode_frame(FrameDecoder().feed(w)[0])[1]
                .payload.get("i") for w in writer.writes[1:]] == [1, 2]

    def test_overflow_drops_are_recorded_and_attributed(self):
        """Each frame dropped on overflow reaches the sender's
        ``on_fail`` exactly once, with its cause."""
        async def run():
            stack = _stack(flow=self.FLOW)
            conn = await _conn(stack, _FakeWriter())
            conn._link.paused = True           # as if past high water
            drops = []
            for i in (1, 2, 3):                # the third overflows
                conn.send(_event(i), 32.0, on_fail=lambda dst, reason,
                          i=i: drops.append((i, dst, reason)))
            return stack, drops
        stack, drops = asyncio.run(run())
        assert stack._t_drops.value == 1
        assert drops == [(3, "maui", "backpressure")]

    def test_dead_link_fails_sends_without_raising(self):
        async def run():
            stack = _stack()
            conn = await _conn(stack, _FakeWriter())
            conn._link._dead = True
            drops = []
            conn.send(_event(0), 32.0,
                      on_fail=lambda *lost: drops.append(lost))
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
            conns = [await _conn(stack, _FakeWriter(), dst)
                     for dst in peers]
            lost = []
            stack.send_many(conns, _event(7), 32.0,
                            on_fail=lambda *fail: lost.append(fail))
            return stack, conns, lost
        stack, conns, lost = asyncio.run(run())
        assert encoded == ["t"]
        assert lost == []
        assert stack._t_frames.value == len(peers)
        for conn in conns:
            (body,) = FrameDecoder().feed(b"".join(
                conn._link._writer.writes))
            tag, event = decode_frame(body)
            assert (tag, event.channel, event.source, event.payload,
                    event.submitted_at) == ("t", "c", "s", {"i": 7}, 7.0)


class TestSlowConsumerLive:
    """Real sockets: a peer that stops reading trips the watermark."""

    def test_watermark_pause_and_resume(self):
        async def run():
            stack = _stack(flow=FlowConfig(high_watermark=16 * 1024,
                                           low_watermark=4 * 1024,
                                           max_deferred=8))
            gate = asyncio.Event()

            async def slow_peer(reader, writer):
                await gate.wait()              # ... then drain it all
                while await reader.read(1 << 16):
                    pass

            server = await asyncio.start_server(
                slow_peer, "127.0.0.1", 0)
            address = server.sockets[0].getsockname()[:2]
            stack.resolve = lambda host: address
            conn = stack.connect("maui", "t")
            big = ChannelEvent(channel="c", source="s",
                               payload={"x": "y" * 65536}, size=1.0,
                               submitted_at=0.0)
            for _ in range(200):               # ~13 MB at the peer
                conn.send(big, size=1.0)
                await asyncio.sleep(0)
                if stack._t_pauses.value:
                    break
            assert stack._t_pauses.value >= 1, \
                "slow consumer never tripped the high watermark"
            gate.set()                         # peer starts reading
            for _ in range(200):
                await asyncio.sleep(0.02)
                if stack._t_resumes.value:
                    break
            assert stack._t_resumes.value >= 1, \
                "drain never resumed the link"
            await stack.stop()
            server.close()
            await server.wait_closed()
        asyncio.run(run())


class TestMalformedFrameLive:
    """Real sockets: a malformed frame ends its own connection only."""

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
            stack.bind("t", lambda msg: received.append(msg.payload))
            address = await stack.start()
            reader, writer = await send(address, bad + good)
            # The stack hangs up on the garbage ...
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            behind_bad_frame = len(received)
            # ... and keeps serving everyone else.
            reader, writer = await send(address, good)
            writer.write_eof()
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            await stack.stop()
            return stack, behind_bad_frame

        with caplog.at_level(logging.ERROR):
            stack, behind_bad_frame = asyncio.run(run())
        assert behind_bad_frame == 0
        assert stack._t_decode_errors.value == 1
        assert len(received) == 1
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

    def test_streamed_live_run_reconciles_clean(self, tmp_path):
        from repro.api import Scenario
        from repro.dproc import DMonConfig
        from repro.stream import reconcile
        sc = Scenario(nodes=3, seed=9, backend="live",
                      dmon=DMonConfig(poll_interval=0.25))
        sc.with_node_pool(1, batch=BatchConfig(max_delay=0.3))
        sc.with_stream(str(tmp_path / "stream"))
        sc.run(2.5)
        report = reconcile(sc.stream, sc.dprocs)
        assert report.ok, report.render()


class TestOneFailurePath:
    def test_dead_link_drop_reaches_the_stream(self):
        """A KECho copy the live stack knows is lost (the peer never
        resolves, so its link is dead) is on the receipt, counted in
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
            eps = {node.name: bus.connect(node, "monitor")
                   for node in nodes}
            eps["maui"].subscribe(lambda e: None)
            eps["alan"].submit({"i": 1}, size=32.0)  # dials the link
            await asyncio.sleep(0.01)                # no address: dead
            receipt = eps["alan"].submit({"i": 2}, size=32.0)
            for node in nodes:
                await node.stack.stop()
            return bus.stream, nodes, receipt
        stream, nodes, receipt = asyncio.run(run())
        assert receipt.failed_targets == ["maui"]
        assert [(e.dest, e.fault) for e in stream.entries("monitor")
                if e.kind == DROP] == [("maui", "link down")]
        assert verify_stats(stream, nodes, channels=["monitor"]) == []

"""The live receive buffer: one per stack, bounded, reused, and no
allocation per read.

Every accepted socket of a :class:`LiveStack` is read into the stack's
one buffer of :data:`RX_BUFFER_BYTES`; ``buffer_updated`` copies each
whole frame out of it and keeps only a partial frame's tail.
"""

from __future__ import annotations

import asyncio
import tracemalloc

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig, MetricId, RecordBatch
from repro.dproc.dmon import CONTROL_CHANNEL
from repro.kecho.control import ControlMessage
from repro.kecho.event import ChannelEvent
from repro.live.codec import MAX_FRAME_BYTES, encode_frame
from repro.live.transport import RX_BUFFER_BYTES, LiveStack, _Inbound
from repro.telemetry import TelemetryRegistry

TAG = "kecho:app"
CONTROL_TAG = "kecho:" + CONTROL_CHANNEL


def _frame(i: int, records: int = 1) -> bytes:
    batch = RecordBatch("maui", (MetricId.LOADAVG,) * records,
                        (float(i),) * records, float(i))
    return encode_frame(TAG, ChannelEvent(
        channel="app", source="maui", payload=batch, size=16.0,
        submitted_at=float(i)))


def _control_frame(length: int) -> tuple[bytes, int]:
    """A control frame whose length prefix reads exactly ``length``,
    and the length of its command."""
    def frame(command: str) -> bytes:
        return encode_frame(CONTROL_TAG, ChannelEvent(
            CONTROL_CHANNEL, "maui", ControlMessage("maui", "alan",
                                                    command), 1.0, 0.0))
    pad = length - (len(frame("")) - 4)
    data = frame("x" * pad)
    assert int.from_bytes(data[:4], "big") == length
    return data, pad


def _receiver(tag: str = TAG):
    telemetry = TelemetryRegistry("alan")
    stack = LiveStack("alan", telemetry)
    received = []
    stack.bind(tag, received.append)
    return stack, _Inbound(stack), received, telemetry


def _read(inbound: _Inbound, chunk: bytes) -> None:
    """What the transport does on one read: fill the protocol's buffer,
    then report how much arrived."""
    buf = inbound.get_buffer(-1)
    buf[:len(chunk)] = chunk
    inbound.buffer_updated(len(chunk))


def test_a_frame_cut_at_every_byte_decodes_once():
    frame = _frame(7)
    for cut in range(1, len(frame)):
        _, inbound, received, telemetry = _receiver()
        _read(inbound, frame[:cut])
        assert received == []
        _read(inbound, frame[cut:])
        assert [event.submitted_at for event in received] == [7.0]
        assert inbound.decoder.pending_bytes == 0
        assert telemetry.value("net.rx_decode_errors") == 0


def test_frames_byte_at_a_time_and_many_per_read():
    stream = b"".join(_frame(i) for i in range(5))
    _, inbound, received, _ = _receiver()
    for i in range(len(stream)):
        _read(inbound, stream[i:i + 1])
    _read(inbound, stream)
    assert [event.submitted_at for event in received] == \
        [float(i) for i in range(5)] * 2


@pytest.mark.parametrize("length", [RX_BUFFER_BYTES + 1, MAX_FRAME_BYTES])
def test_a_frame_longer_than_the_buffer_arrives(length):
    data, pad = _control_frame(length)
    _, inbound, received, telemetry = _receiver(CONTROL_TAG)
    for start in range(0, len(data), RX_BUFFER_BYTES):
        _read(inbound, data[start:start + RX_BUFFER_BYTES])
    (event,) = received
    assert event.payload.command == "x" * pad
    assert inbound.decoder.pending_bytes == 0
    assert telemetry.value("net.rx_frame_bytes") == len(data)


def test_a_frame_longer_than_the_buffer_arrives_over_a_socket():
    frame = _frame(3, records=3 * RX_BUFFER_BYTES // 10)
    assert len(frame) > 2 * RX_BUFFER_BYTES
    received = []

    async def run():
        stack = LiveStack("alan", TelemetryRegistry("alan"))
        stack.bind(TAG, received.append)
        address = await stack.start()
        _, writer = await asyncio.open_connection(*address)
        writer.write(frame + _frame(4))
        await writer.drain()
        for _ in range(500):
            if len(received) == 2:
                break
            await asyncio.sleep(0.01)
        writer.close()
        await stack.stop()

    asyncio.run(run())
    assert [len(event.payload.ids) for event in received] == \
        [3 * RX_BUFFER_BYTES // 10, 1]


def test_every_read_of_a_stack_lands_in_its_one_buffer():
    stack, first, _, _ = _receiver()
    second = _Inbound(stack)
    _, third, _, _ = _receiver()
    views = [first.get_buffer(-1), second.get_buffer(100),
             first.get_buffer(10 * RX_BUFFER_BYTES)]
    assert {id(view.obj) for view in views} == {id(views[0].obj)}
    assert all(len(view) == RX_BUFFER_BYTES for view in views)
    assert third.get_buffer(-1).obj is not views[0].obj


def test_a_live_window_allocates_no_read_buffer():
    """A second of a 2-node cluster at a 10 ms poll raises the traced
    heap's peak by less than one 256 KiB read block over where it
    started: reads land in the held buffer."""
    window: dict = {}

    def measure(scenario) -> None:
        loop = asyncio.get_running_loop()
        telemetry = scenario.nodes["alan"].telemetry

        def opens() -> None:
            window["rx"] = telemetry.value("net.rx_frame_bytes")
            window["start"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()

        def closes() -> None:
            window["peak"] = tracemalloc.get_traced_memory()[1]
            window["rx"] = telemetry.value("net.rx_frame_bytes") \
                - window["rx"]

        loop.call_later(0.5, opens)
        loop.call_later(1.5, closes)

    tracemalloc.start()
    try:
        scenario = Scenario(nodes=2, seed=1, backend="live",
                            dmon=DMonConfig(poll_interval=0.01))
        scenario.with_setup(measure).run(2.0)
    finally:
        tracemalloc.stop()
    # About a hundred 186-byte frames from maui arrived in the window.
    assert window["rx"] > 50 * 186
    assert window["peak"] - window["start"] < 256 * 1024

"""The live receive path over real sockets: what a rogue peer costs.

A raw socket sends a real :class:`LiveStack` each kind of bad input;
the stack counts it under the right counter, and a second,
well-behaved connection keeps delivering.  A stream that is not
frames of this codec ends its connection; a frame of the codec that
does not decode is skipped, and the frame behind it is delivered.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.dproc import MetricId, RecordBatch
from repro.kecho.event import ChannelEvent
from repro.live.codec import MAGIC, MAX_FRAME_BYTES, encode_frame
from repro.live.transport import LiveStack
from repro.telemetry import TelemetryRegistry

TAG = "kecho:app"


def _frame(i: int, tag: str = TAG) -> bytes:
    batch = RecordBatch("maui", (MetricId.LOADAVG,), (float(i),),
                        float(i))
    return encode_frame(tag, ChannelEvent(
        channel="app", source="maui", payload=batch, size=16.0,
        submitted_at=float(i)))


def _garbage() -> bytes:
    body = b"not a frame at all"
    return struct.pack(">I", len(body)) + body


def _old_magic() -> bytes:
    frame = _frame(1)
    assert frame[4:6] == struct.pack(">H", MAGIC)
    return frame[:4] + struct.pack(">H", 0xEC06) + frame[6:]


def _over_large() -> bytes:
    return struct.pack(">I", MAX_FRAME_BYTES + 1) + b"\x00" * 16


def _old_batch() -> bytes:
    """What a batched link used to write: a kind-4 super-frame (magic,
    kind, u32 member count) around one good frame."""
    body = struct.pack(">HBI", MAGIC, 4, 1) + _frame(1)
    return struct.pack(">I", len(body)) + body


def _bad_metric() -> bytes:
    """A whole frame of this codec whose one record names a metric id
    nobody defines."""
    frame = bytearray(_frame(1))
    # prefix, head, "app", "maui", two f64, the record count
    at = 4 + 4 + 5 + 6 + 16 + 2
    assert frame[at] == MetricId.LOADAVG
    frame[at] = 0xFF
    return bytes(frame)


def _cut_short() -> bytes:
    frame = _frame(1)
    return frame[:len(frame) // 2]


#: name -> (bytes the rogue sends, counter that must move, whether the
#: stack hangs up on the rogue before it closes its own side)
CASES = {
    "garbage": (_garbage, "net.rx_decode_errors", True),
    "old_magic": (_old_magic, "net.rx_decode_errors", True),
    "over_large": (_over_large, "net.rx_decode_errors", True),
    "kind_4": (_old_batch, "net.rx_decode_errors", False),
    "bad_metric": (_bad_metric, "net.rx_decode_errors", False),
    "cut_by_eof": (_cut_short, "net.rx_truncated", False),
    "unknown_tag": (lambda: _frame(1, tag="kecho:nobody"),
                    "net.undeliverable", False),
}

COUNTERS = ("net.rx_decode_errors", "net.rx_truncated",
            "net.undeliverable")


async def _until(predicate, timeout: float = 5.0) -> None:
    for _ in range(int(timeout / 0.01)):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition not reached")


@pytest.mark.parametrize("case", sorted(CASES))
def test_rogue_input_is_counted_and_contained(case):
    data, counter, hangs_up = CASES[case]
    telemetry = TelemetryRegistry("alan")
    received = []

    async def run():
        stack = LiveStack("alan", telemetry)
        stack.bind(TAG, received.append)
        address = await stack.start()
        rogue_reader, rogue = await asyncio.open_connection(*address)
        good_reader, good = await asyncio.open_connection(*address)
        good.write(_frame(0))
        await _until(lambda: len(received) == 1)
        rogue.write(data())
        await rogue.drain()
        if hangs_up:
            assert await asyncio.wait_for(rogue_reader.read(),
                                          5.0) == b""
        else:
            await asyncio.sleep(0.05)
            # The stack keeps the connection: a good frame behind a
            # whole frame it could not deliver is still delivered.
            if case != "cut_by_eof":
                rogue.write(_frame(2))
                await _until(lambda: len(received) == 2)
            rogue.write_eof()
            assert await asyncio.wait_for(rogue_reader.read(),
                                          5.0) == b""
        await _until(lambda: telemetry.value(counter) == 1)
        # The well-behaved connection keeps delivering.
        before = len(received)
        good.write(_frame(3) + _frame(4))
        await _until(lambda: len(received) == before + 2)
        for writer in (rogue, good):
            writer.close()
        await stack.stop()

    asyncio.run(run())
    assert {name: telemetry.value(name) for name in COUNTERS} == {
        name: float(name == counter) for name in COUNTERS}

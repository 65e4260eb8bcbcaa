"""Length-prefixed binary event codec for the live TCP data plane.

A PBIO-style format in the spirit of the paper's ECho heritage: a
packed layout both ends already know for the hot monitoring stream,
a self-describing body for the rare control message.  All integers and
floats are big-endian; ``str`` is a u16 byte length followed by UTF-8
bytes; ``[x]`` is present only when the named flag is set.

Every frame::

    u32   frame length (excluding these 4 bytes)
    u16   magic (0xEC06)
    u8    kind
    u8    flags
    str   channel
    [str  tag]           TAG: the transport dispatch tag
    str   source
    f64   submitted_at
    f64   declared size (bytes, the cost-model size)
    ...   kind-specific body

``MONITOR`` body — one d-mon poll, a
:class:`~repro.dproc.batch.RecordBatch` whose columns are packed as
they are::

    [str  host]          HOST
    u16   n              record count
    n×u16 metric ids     (the E-code filter ABI ids, decoded back to
                          :class:`MetricId`; an unknown id is an error)
    n×f64 values
    f64   timestamp      one for the poll; n×f64 when TS is set
    [u16 k, k×(u32 pid, f64 weight)         top-K pairs
     u16 m, m×(u32 pid, f64 cpu, mem, io)]  full per-process rows

The keyed per-process sections are written only when one of them has
a row; absent and zero-count sections both decode to a batch whose
``proc_top``/``procs`` are None.  :func:`decode_frame` returns the
columns as tuples: ``ts`` is one float, or a tuple when TS is set.
A default 13-record d-mon frame is 56 + 10·n = 186 bytes.

The three flags mark what a frame could not leave out.  The encoder
sets each from the event in hand, per frame, so every batch
round-trips f64-exact in record order:

* ``TAG`` (1) — the tag is not ``"kecho:" + channel`` (what every
  KECho endpoint binds), so it is carried.
* ``HOST`` (2) — the batch's host differs from the event's source
  (d-mon publishes as its own node), so it is carried.
* ``TS`` (4) — the batch has a timestamp column whose entries are not
  all equal, compared bit for bit on the packed f64 (0.0 and -0.0
  differ; a NaN equals itself), so each record carries its own.  A
  frame with no records has no timestamp to share and sets it too.

There is no per-connection string table: a frame is self-contained,
so one encoding serves every link of a fan-out, and a frame dropped
under backpressure or a reconnect needs no resync.  The strings left
(channel, source) are what such a table could still save — under two
bytes a record.

The other kind, ``CONTROL`` — one
:class:`~repro.kecho.control.ControlMessage` as a u32 length and a
compact JSON object of exactly three strings, ``sender``, ``target``
and ``command`` (one command's control-file text; control traffic is
rare, self-describing beats packed here).  It is a frame of the
control channel's own tag only — channel ``dproc.control``, no TAG
flag — on both ends, so no other channel's handler is handed a
control message.  Any other payload is not wire-encodable.

Coalescing adds no kind: a batched link writes a run of whole frames
in one socket write (:func:`encode_batch`), and the length prefixes
split it again on the far side like any other stretch of the stream.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Sequence

from repro.dproc.batch import RecordBatch
from repro.dproc.dmon import CONTROL_CHANNEL
from repro.dproc.metrics import MetricId
from repro.errors import ChannelError
from repro.kecho.control import ControlMessage
from repro.kecho.event import ChannelEvent

__all__ = ["encode_frame", "decode_frame", "encode_batch",
           "FrameDecoder", "MAGIC", "KIND_MONITOR", "KIND_CONTROL",
           "FLAG_TAG", "FLAG_HOST", "FLAG_TS",
           "MAX_FRAME_BYTES"]

MAGIC = 0xEC06
KIND_MONITOR = 1
KIND_CONTROL = 2

FLAG_TAG = 1
FLAG_HOST = 2
FLAG_TS = 4

#: Upper bound on one frame; protects the decoder from a corrupt or
#: hostile length prefix.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: The tag every KECho endpoint binds for a channel.
_TAG_PREFIX = "kecho:"

#: The JSON fields of a CONTROL body, in the order written.
_CONTROL_FIELDS = ("sender", "target", "command")
_METRICS = {int(metric): metric for metric in MetricId}

_TOP_ROW = struct.Struct(">Id")
_PROC_ROW = struct.Struct(">Iddd")
_HEAD = struct.Struct(">HBB")
_TIMES = struct.Struct(">dd")
_F64 = struct.Struct(">d")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ChannelError("string too long for wire format")
    return _U16.pack(len(raw)) + raw


def _str_at(buf: bytes, pos: int) -> tuple[str, int]:
    """The ``str`` at ``pos`` and the offset just past it."""
    start = pos + 2
    end = start + _U16.unpack_from(buf, pos)[0]
    if end > len(buf):
        raise ChannelError("truncated frame")
    return str(buf[start:end], "utf-8"), end


def _rows_at(buf: bytes, pos: int, row: struct.Struct):
    """The u16-counted ``row`` section at ``pos`` and the offset past it."""
    start = pos + 2
    end = start + _U16.unpack_from(buf, pos)[0] * row.size
    if end > len(buf):
        raise ChannelError("truncated frame")
    return row.iter_unpack(buf[start:end]), end


def _monitor_body(source: str,
                  batch: RecordBatch) -> tuple[int, list[bytes]]:
    """Flags and body parts of one MONITOR batch."""
    ids, ts = batch.ids, batch.ts
    top = batch.proc_top or {}
    procs = batch.procs or {}
    n = len(ids)
    if n > 0xFFFF or len(top) > 0xFFFF or len(procs) > 0xFFFF:
        raise ChannelError("too many records for wire format")
    flags = 0
    body = []
    if batch.host != source:
        flags |= FLAG_HOST
        body.append(_pack_str(batch.host))
    if isinstance(ts, (int, float)):
        times = _F64.pack(ts) if n else b""
        shared = n > 0
    else:
        times = struct.pack(f">{n}d", *ts)
        shared = n > 0 and times == times[:8] * n
        if shared:
            times = times[:8]
    if not shared:
        flags |= FLAG_TS
    body.append(struct.pack(f">H{n}H{n}d", n, *ids, *batch.values))
    body.append(times)
    if top or procs:
        body.append(_U16.pack(len(top)))
        body.extend(_TOP_ROW.pack(pid, top[pid]) for pid in sorted(top))
        body.append(_U16.pack(len(procs)))
        body.extend(_PROC_ROW.pack(pid, *procs[pid])
                    for pid in sorted(procs))
    return flags, body


def encode_frame(tag: str, event: ChannelEvent) -> bytes:
    """Encode one event (with its transport tag) as a complete frame."""
    payload = event.payload
    channel = event.channel
    flags = 0 if tag == _TAG_PREFIX + channel else FLAG_TAG
    if isinstance(payload, RecordBatch):
        kind = KIND_MONITOR
        monitor_flags, body = _monitor_body(event.source, payload)
        flags |= monitor_flags
    elif isinstance(payload, ControlMessage) and not flags \
            and channel == CONTROL_CHANNEL:
        kind = KIND_CONTROL
        doc = {name: getattr(payload, name) for name in _CONTROL_FIELDS}
        if not all(type(value) is str for value in doc.values()):
            raise ChannelError("control message fields must be strings")
        raw = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        body = [_U32.pack(len(raw)), raw]
    else:
        raise ChannelError(
            f"live payload is not wire-encodable: "
            f"{type(payload).__name__} on {tag!r}")
    frame = b"".join([
        _HEAD.pack(MAGIC, kind, flags),
        _pack_str(channel),
        _pack_str(tag) if flags & FLAG_TAG else b"",
        _pack_str(event.source),
        _TIMES.pack(event.submitted_at, event.size),
        *body,
    ])
    return _U32.pack(len(frame)) + frame


def decode_frame(frame: bytes) -> tuple[str, ChannelEvent]:
    """Decode one frame body (without length prefix) → (tag, event).

    Raises :class:`ChannelError` for every malformed frame.
    """
    # A frame is input from outside the program: whatever is wrong
    # with it (a field or column cut short, unknown metric id, bad
    # UTF-8 or JSON, a control message off the control tag or with a
    # missing, extra or non-string field) is a ChannelError to the
    # caller, never a bare struct.error or ValueError/TypeError.
    try:
        magic, kind, flags = _HEAD.unpack_from(frame)
        if magic != MAGIC:
            raise ChannelError(f"bad frame magic {magic:#x}")
        channel, pos = _str_at(frame, _HEAD.size)
        if flags & FLAG_TAG:
            tag, pos = _str_at(frame, pos)
        else:
            tag = _TAG_PREFIX + channel
        source, pos = _str_at(frame, pos)
        submitted_at, size = _TIMES.unpack_from(frame, pos)
        pos += _TIMES.size
        payload: Any
        if kind == KIND_MONITOR:
            if flags & FLAG_HOST:
                host, pos = _str_at(frame, pos)
            else:
                host = source
            (n,) = _U16.unpack_from(frame, pos)
            pos += 2
            if flags & FLAG_TS:
                cells = struct.unpack_from(f">{n}H{2 * n}d", frame, pos)
                ts = cells[2 * n:]
                pos += 18 * n
            else:
                cells = struct.unpack_from(f">{n}H{n}dd", frame, pos)
                ts = cells[-1]
                pos += 10 * n + 8
            payload = RecordBatch(
                host, tuple(map(_METRICS.__getitem__, cells[:n])),
                cells[n:2 * n], ts)
            if pos < len(frame):
                rows, pos = _rows_at(frame, pos, _TOP_ROW)
                payload.proc_top = dict(rows) or None
                rows, pos = _rows_at(frame, pos, _PROC_ROW)
                payload.procs = {pid: (cpu, mem, io)
                                 for pid, cpu, mem, io in rows} or None
        elif kind == KIND_CONTROL:
            if flags or channel != CONTROL_CHANNEL:
                raise ChannelError(
                    f"control message off the control tag: {tag!r}")
            start = pos + 4
            end = start + _U32.unpack_from(frame, pos)[0]
            if end > len(frame):
                raise ChannelError("truncated frame")
            doc = json.loads(str(frame[start:end], "utf-8"))
            if type(doc) is not dict or doc.keys() != set(_CONTROL_FIELDS) \
                    or not all(type(v) is str for v in doc.values()):
                raise ChannelError(
                    "control message body is not three strings: "
                    "sender, target, command")
            payload = ControlMessage(**doc)
        else:
            raise ChannelError(f"unknown frame kind {kind}")
    except (ValueError, TypeError, KeyError, RecursionError,
            struct.error) as exc:
        raise ChannelError(f"malformed frame body: {exc}") from exc
    return tag, ChannelEvent(channel, source, payload, size, submitted_at)


def encode_batch(frames: Sequence[bytes]) -> bytes:
    """One socket write of whole frames, each with its length prefix.

    ``frames`` are outputs of :func:`encode_frame`; their own prefixes
    are all the receiver needs to split the run again.
    """
    return b"".join(frames)


class FrameDecoder:
    """Incremental splitter: feed stream chunks, get whole frames.

    Zero-length and oversized frames are protocol errors.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered waiting for the rest of a frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data``; return every now-complete frame body."""
        buf = self._buf
        buf += data
        frames: list[bytes] = []
        pos, have = 0, len(buf)
        try:
            while have - pos >= 4:
                (length,) = _U32.unpack_from(buf, pos)
                if length == 0:
                    raise ChannelError("zero-length frame on the wire")
                if length > MAX_FRAME_BYTES:
                    raise ChannelError(
                        f"frame of {length} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte bound")
                end = pos + 4 + length
                if end > have:
                    break
                frames.append(bytes(buf[pos + 4:end]))
                pos = end
        finally:
            # Consumed frames leave the buffer once per call, also on
            # the way out of a protocol error.
            del buf[:pos]
        return frames

    def finish(self) -> None:
        """Assert a clean end-of-stream.

        Raises :class:`ChannelError` when the stream ended inside a
        frame — a partial length header or a truncated body.
        """
        if self._buf:
            raise ChannelError(
                f"stream ended mid-frame ({len(self._buf)} trailing "
                f"bytes buffered)")

"""Length-prefixed binary event codec for the live TCP data plane.

A PBIO-style format in the spirit of the paper's ECho heritage: fixed
binary layout for the hot monitoring stream, self-describing fall-backs
for everything else.  Every frame on the wire is::

    u32  frame length (big-endian, excluding these 4 bytes)
    u16  magic (0xEC05)
    u8   kind
    str  tag      (transport dispatch tag, e.g. "kecho:dproc.monitor")
    str  channel
    str  source
    f64  submitted_at
    f64  declared size (bytes, the cost-model size)
    ...  kind-specific body

where ``str`` is a u16 byte length followed by UTF-8 bytes.  Kinds:

* ``MONITOR`` — a d-mon metric event: host string then a u16 record
  count, each record ``(u16 metric id, f64 value, f64 timestamp)``.
  MetricId values are part of the E-code filter ABI, so the ids on the
  wire are the ABI ids and decode back to :class:`MetricId`.  Two
  optional trailing sections carry the keyed per-process stream: a u16
  count of ``(u32 pid, f64 weight)`` top-K pairs, then a u16 count of
  ``(u32 pid, f64 cpu, f64 mem, f64 io)`` full rows.  Frames without
  the sections (older peers) decode as zero rows, and zero-row
  sections decode to payloads without the keys — round-trip safe in
  both directions.
* ``CONTROL`` — one control message (SetParameter, ClearParameter,
  DeployFilter, RemoveFilter) as a compact JSON object (control
  traffic is rare; self-describing beats packed here).
* ``JSON`` — any other JSON-serialisable payload.
* ``BATCH`` — a super-frame coalescing many MONITOR/CONTROL/JSON
  frames into one socket write: magic + kind, a u32 member count,
  then each member as a complete length-prefixed frame.  The decoder
  unwraps batches transparently (``FrameDecoder.feed`` returns the
  member frame bodies), so :func:`decode_frame` never sees one;
  nesting is rejected.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Optional, Sequence

from repro.dproc.metrics import MetricId
from repro.errors import ChannelError
from repro.kecho.control import (ClearParameter, ControlMessage,
                                 DeployFilter, RemoveFilter,
                                 SetParameter)
from repro.kecho.event import ChannelEvent

__all__ = ["encode_frame", "decode_frame", "encode_batch",
           "FrameDecoder", "MAGIC", "KIND_MONITOR", "KIND_CONTROL",
           "KIND_JSON", "KIND_BATCH", "MAX_FRAME_BYTES",
           "MAX_BATCH_FRAMES"]

MAGIC = 0xEC05
KIND_MONITOR = 1
KIND_CONTROL = 2
KIND_JSON = 3
KIND_BATCH = 4

#: Upper bound on one frame; protects the decoder from a corrupt or
#: hostile length prefix.  A ``BATCH`` super-frame is bounded like any
#: other frame, so a batch can never smuggle more than this through.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Upper bound on members per ``BATCH`` super-frame.
MAX_BATCH_FRAMES = 4096

_CONTROL_TYPES = {cls.__name__: cls for cls in
                  (SetParameter, ClearParameter, DeployFilter,
                   RemoveFilter)}

_RECORD = struct.Struct(">Hdd")
_TOP_ROW = struct.Struct(">Id")
_PROC_ROW = struct.Struct(">Iddd")
_HEAD = struct.Struct(">HB")
_F64 = struct.Struct(">d")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ChannelError("string too long for wire format")
    return _U16.pack(len(raw)) + raw


class _Reader:
    """Cursor over one frame's bytes."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.buf):
            raise ChannelError("truncated frame")
        chunk = self.buf[self.pos:end]
        self.pos = end
        return chunk

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u16()).decode("utf-8")


def encode_frame(tag: str, event: ChannelEvent) -> bytes:
    """Encode one event (with its transport tag) as a complete frame."""
    payload = event.payload
    if (isinstance(payload, dict) and "host" in payload
            and "metrics" in payload):
        kind = KIND_MONITOR
        metrics = payload["metrics"]
        body = [_pack_str(payload["host"]),
                _U16.pack(len(metrics))]
        for metric, (value, ts) in metrics.items():
            body.append(_RECORD.pack(int(metric), float(value),
                                     float(ts)))
        top = payload.get("proc_top") or {}
        procs = payload.get("procs") or {}
        if len(top) > 0xFFFF or len(procs) > 0xFFFF:
            raise ChannelError("too many keyed rows for wire format")
        body.append(_U16.pack(len(top)))
        for pid in sorted(top):
            body.append(_TOP_ROW.pack(int(pid), float(top[pid])))
        body.append(_U16.pack(len(procs)))
        for pid in sorted(procs):
            cpu, mem, io = procs[pid]
            body.append(_PROC_ROW.pack(int(pid), float(cpu),
                                       float(mem), float(io)))
        body_bytes = b"".join(body)
    elif isinstance(payload, ControlMessage):
        kind = KIND_CONTROL
        doc = {"type": type(payload).__name__, "sender": payload.sender,
               "target": payload.target}
        for attr in ("metric", "parameter", "spec", "source",
                     "filter_id"):
            if hasattr(payload, attr):
                doc[attr] = getattr(payload, attr)
        raw = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        body_bytes = _U32.pack(len(raw)) + raw
    else:
        kind = KIND_JSON
        try:
            raw = json.dumps(payload,
                             separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise ChannelError(
                f"live payload is not wire-encodable: {exc}") from exc
        body_bytes = _U32.pack(len(raw)) + raw
    frame = b"".join([
        _HEAD.pack(MAGIC, kind),
        _pack_str(tag),
        _pack_str(event.channel),
        _pack_str(event.source),
        _F64.pack(float(event.submitted_at)),
        _F64.pack(float(event.size)),
        body_bytes,
    ])
    return _U32.pack(len(frame)) + frame


def decode_frame(frame: bytes) -> tuple[str, ChannelEvent]:
    """Decode one frame body (without length prefix) → (tag, event).

    Raises :class:`ChannelError` for every malformed frame.
    """
    reader = _Reader(frame)
    magic, kind = _HEAD.unpack(reader.take(_HEAD.size))
    if magic != MAGIC:
        raise ChannelError(f"bad frame magic {magic:#x}")
    if kind == KIND_BATCH:
        raise ChannelError(
            "BATCH super-frames must be unwrapped by FrameDecoder "
            "before decode_frame")
    # A frame is input from outside the program: whatever is wrong
    # with its body (unknown metric id, bad UTF-8 or JSON, a control
    # message with a missing or extra field) is a ChannelError to the
    # caller, never a bare ValueError/TypeError.
    try:
        tag = reader.string()
        channel = reader.string()
        source = reader.string()
        submitted_at = reader.f64()
        size = reader.f64()
        payload: Any
        if kind == KIND_MONITOR:
            host = reader.string()
            count = reader.u16()
            metrics: dict[MetricId, tuple[float, float]] = {}
            for _ in range(count):
                mid, value, ts = _RECORD.unpack(reader.take(_RECORD.size))
                metrics[MetricId(mid)] = (value, ts)
            payload = {"host": host, "metrics": metrics}
            if reader.pos < len(reader.buf):
                n_top = reader.u16()
                if n_top:
                    top: dict[int, float] = {}
                    for _ in range(n_top):
                        pid, weight = _TOP_ROW.unpack(
                            reader.take(_TOP_ROW.size))
                        top[pid] = weight
                    payload["proc_top"] = top
                n_procs = reader.u16()
                if n_procs:
                    procs: dict[int, tuple[float, float, float]] = {}
                    for _ in range(n_procs):
                        pid, cpu, mem, io = _PROC_ROW.unpack(
                            reader.take(_PROC_ROW.size))
                        procs[pid] = (cpu, mem, io)
                    payload["procs"] = procs
        elif kind == KIND_CONTROL:
            raw = reader.take(_U32.unpack(reader.take(4))[0])
            doc = json.loads(raw.decode("utf-8"))
            if not isinstance(doc, dict):
                raise ChannelError("control message body is not an object")
            cls = _CONTROL_TYPES.get(doc.pop("type", ""))
            if cls is None:
                raise ChannelError("unknown control message type on wire")
            payload = cls(**doc)
        elif kind == KIND_JSON:
            raw = reader.take(_U32.unpack(reader.take(4))[0])
            payload = json.loads(raw.decode("utf-8"))
        else:
            raise ChannelError(f"unknown frame kind {kind}")
    except (ValueError, TypeError, KeyError, RecursionError,
            struct.error) as exc:
        raise ChannelError(f"malformed frame body: {exc}") from exc
    event = ChannelEvent(channel=channel, source=source,
                         payload=payload, size=size,
                         submitted_at=submitted_at)
    return tag, event


def encode_batch(frames: Sequence[bytes]) -> bytes:
    """Coalesce complete length-prefixed frames into one super-frame.

    ``frames`` are outputs of :func:`encode_frame` (length prefix
    included); they are embedded verbatim, so unwrapping is the same
    splitting loop the decoder already runs on the outer stream.
    """
    if not frames:
        raise ChannelError("cannot encode an empty batch")
    if len(frames) > MAX_BATCH_FRAMES:
        raise ChannelError(
            f"batch of {len(frames)} frames exceeds the "
            f"{MAX_BATCH_FRAMES}-member bound")
    body = b"".join([_HEAD.pack(MAGIC, KIND_BATCH),
                     _U32.pack(len(frames))] + list(frames))
    if len(body) > MAX_FRAME_BYTES:
        raise ChannelError(
            f"batch of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound")
    return _U32.pack(len(body)) + body


class FrameDecoder:
    """Incremental splitter: feed stream chunks, get whole frames.

    ``BATCH`` super-frames are unwrapped transparently: ``feed``
    returns their member frame bodies in wire order, never the batch
    itself.  Zero-length frames, oversized frames/batches and nested
    batches are protocol errors.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered waiting for the rest of a frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data``; return every now-complete frame body."""
        self._buf.extend(data)
        frames: list[bytes] = []
        buf = self._buf
        while len(buf) >= 4:
            (length,) = _U32.unpack(bytes(buf[:4]))
            self._check_length(length)
            if len(buf) < 4 + length:
                break
            body = bytes(buf[4:4 + length])
            del buf[:4 + length]
            if (length >= _HEAD.size
                    and body[2] == KIND_BATCH
                    and _U16.unpack(body[:2])[0] == MAGIC):
                frames.extend(self._unwrap_batch(body))
            else:
                frames.append(body)
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

    @staticmethod
    def _check_length(length: int) -> None:
        if length == 0:
            raise ChannelError("zero-length frame on the wire")
        if length > MAX_FRAME_BYTES:
            raise ChannelError(
                f"frame of {length} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte bound")

    def _unwrap_batch(self, body: bytes) -> list[bytes]:
        """Split one BATCH super-frame body into member frame bodies."""
        reader = _Reader(body)
        reader.take(_HEAD.size)  # magic/kind validated by the caller
        (count,) = _U32.unpack(reader.take(4))
        if count == 0:
            raise ChannelError("empty BATCH super-frame")
        if count > MAX_BATCH_FRAMES:
            raise ChannelError(
                f"BATCH of {count} members exceeds the "
                f"{MAX_BATCH_FRAMES}-member bound")
        members: list[bytes] = []
        for _ in range(count):
            (length,) = _U32.unpack(reader.take(4))
            self._check_length(length)
            member = reader.take(length)
            if (length >= _HEAD.size
                    and member[2] == KIND_BATCH
                    and _U16.unpack(member[:2])[0] == MAGIC):
                raise ChannelError("nested BATCH super-frame")
            members.append(member)
        if reader.pos != len(body):
            raise ChannelError(
                f"BATCH has {len(body) - reader.pos} trailing bytes "
                f"after {count} members")
        return members

"""Length-prefixed binary event codec for the live TCP data plane.

A PBIO-style format in the spirit of the paper's ECho heritage: each
frame kind has one packed layout that both ends already know, and a
frame carries only what its receiver cannot work out.  All integers
and floats are big-endian; ``str`` is a u16 byte length followed by
UTF-8 bytes.

Every frame::

    u32   frame length (excluding these 4 bytes)
    u16   magic (0xEC08)
    u8    kind
    str   source
    f64   submitted_at
    f64   declared size (bytes, the cost-model size)
    ...   kind-specific body

d-mon speaks on two KECho channels, and the kind names the one a
frame belongs to: a ``MONITOR`` frame is an event of ``dproc.monitor``
on the tag ``kecho:dproc.monitor``, a ``CONTROL`` frame one of
``dproc.control`` on ``kecho:dproc.control``.  Neither the channel nor
the tag travels, so :func:`encode_frame` refuses a payload off its
kind's channel or tag, as it refuses a payload of neither kind.

``MONITOR`` body — one d-mon poll of the source's metrics, a
:class:`~repro.dproc.batch.RecordBatch` whose value column travels
sparse::

    u16   n              record count
    n×u8  metric ids     (the E-code filter ABI ids, decoded back to
                          :class:`MetricId`; an unknown id is an error)
    ⌈n/8⌉ zero bitmap    bit i % 8 of byte i // 8 (least significant
                          first) set: value i is +0.0 bit for bit and
                          is not carried; no bit past n may be set
    k×f64 values         the other k values, in record order
    f64   timestamp      the poll's
    [u16 k, k×(u32 pid, f64 weight)         top-K pairs
     u16 m, m×(u32 pid, f64 cpu, mem, io)]  full per-process rows

A -0.0 or a NaN is carried as it is.  The keyed per-process sections
are written only when one of them has a row; absent and zero-count
sections both decode to a batch whose ``proc_top``/``procs`` are None.
:func:`decode_frame` returns the columns as tuples.  The frame a d-mon
poll of n records publishes, from a source of s bytes with k non-zero
values, is 35 + s + n + ⌈n/8⌉ + 8·k bytes: at most 161 B for the
default 13 records and a 7-character name, 78 B from ``alan`` when
ten of the 13 cells are zero.

``CONTROL`` body — one :class:`~repro.kecho.control.ControlMessage`,
sent by the frame's source::

    str   target         the host whose d-mon applies it
    str   command        one command's control-file text

A frame ends at its last field: a byte past it is an error.  No
frame is longer than :data:`MAX_FRAME_BYTES`, the power of two above
the longest one the layouts allow (≈ 3.3 MB, a MONITOR frame with
every count at its u16 maximum); a longer length prefix is refused
before its body is read.

There is no per-connection string table: a frame is self-contained,
so one encoding serves every link of a fan-out, and a frame dropped
under backpressure or a reconnect needs no resync.  The one string a
default frame carries is its source — what such a table could save,
under half a byte a record for a short host name.  The receiver keeps
only caches of what bytes it has seen stand for: the
:class:`MetricId` tuple of each id column and the unpack format and
scatter of each ``(n, bitmap)``, for frames of at most
:data:`_CACHED_RECORDS` records whose value column is all there.
Each holds at most :data:`_CACHE_ENTRIES` and is emptied when full,
so whatever a peer sends they stay under about 2 MB together.

Coalescing adds no kind: a batched link writes a run of whole frames
in one socket write (:func:`encode_batch`), and the length prefixes
split it again on the far side like any other stretch of the stream.
"""

from __future__ import annotations

import struct
from math import copysign
from operator import itemgetter
from typing import Callable, Optional, Sequence

from repro.dproc.batch import RecordBatch
from repro.dproc.dmon import CONTROL_CHANNEL, MONITOR_CHANNEL
from repro.dproc.metrics import MetricId
from repro.errors import ChannelError
from repro.kecho.control import ControlMessage
from repro.kecho.event import ChannelEvent

__all__ = ["encode_frame", "decode_frame", "encode_batch",
           "FrameDecoder", "MAGIC", "KIND_MONITOR", "KIND_CONTROL",
           "MAX_FRAME_BYTES"]

MAGIC = 0xEC08
KIND_MONITOR = 1
KIND_CONTROL = 2

#: kind -> the (channel, tag) of its every frame: a d-mon channel and
#: the tag every KECho endpoint binds for it.
_ROUTES = {kind: (channel, "kecho:" + channel)
           for kind, channel in ((KIND_MONITOR, MONITOR_CHANNEL),
                                 (KIND_CONTROL, CONTROL_CHANNEL))}

_METRICS = {int(metric): metric for metric in MetricId}

#: Most entries each of the decode caches holds before it is emptied.
_CACHE_ENTRIES = 1024
#: Largest record count whose id column and layout are cached: every
#: d-mon poll fits (a batch has one record per metric, 20 at most).
_CACHED_RECORDS = 64

_TOP_ROW = struct.Struct(">Id")
_PROC_ROW = struct.Struct(">Iddd")
_HEAD = struct.Struct(">HB")
_TIMES = struct.Struct(">dd")
_F64 = struct.Struct(">d")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

#: The longest frame (length prefix excluded) each kind can have: a
#: 65,535-byte source, and a MONITOR body of 65,535 records, all
#: carried, with 65,535 top-K and 65,535 per-process rows, or a CONTROL
#: body of two 65,535-byte strings.
_LONGEST_FRAME = _HEAD.size + (2 + 0xFFFF) + _TIMES.size + max(
    2 + 0xFFFF * (1 + _F64.size) + (0xFFFF + 7) // 8 + _F64.size
    + 2 + 0xFFFF * _TOP_ROW.size + 2 + 0xFFFF * _PROC_ROW.size,
    2 * (2 + 0xFFFF))

#: Upper bound on one frame, the power of two above the longest frame
#: (4 MiB): a length prefix past it is refused before any of its body
#: is buffered, so a corrupt or hostile prefix cannot make a receiver
#: hold more than a frame can be.
MAX_FRAME_BYTES = 1 << _LONGEST_FRAME.bit_length()

#: A +0.0 to scatter into the zero cells: the last item of the tuple
#: a layout's scatter reads.
_ZERO = (0.0,)

#: id column bytes -> its MetricId tuple
_id_columns: dict[bytes, tuple[MetricId, ...]] = {}
#: (n, bitmap) -> (k, the Struct of k values and the timestamp, the
#: scatter or None)
_layouts: dict[tuple[int, bytes],
               tuple[int, struct.Struct, Optional[Callable]]] = {}


def _pack_str(text: str) -> bytes:
    try:
        raw = text.encode("utf-8")
    except AttributeError:
        raise ChannelError(f"not a string: {text!r}") from None
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


def _cache(cache: dict, key, value):
    """Keep ``value`` under ``key``, emptying a full cache first."""
    if len(cache) >= _CACHE_ENTRIES:
        cache.clear()
    cache[key] = value


def _ids(column: bytes) -> tuple[MetricId, ...]:
    """The MetricIds an id column names; an unknown id is refused."""
    try:
        ids = tuple(map(_METRICS.__getitem__, column))
    except KeyError as exc:
        raise ChannelError(f"unknown metric id {exc}") from None
    if len(column) <= _CACHED_RECORDS:
        _cache(_id_columns, column, ids)
    return ids


def _layout(n: int, bitmap: bytes, room: int):
    """How the values of an ``n``-record frame with ``bitmap`` unpack,
    given the ``room`` bytes the frame has for them: the carried count
    k, a Struct of k values and the timestamp, and the scatter that
    puts +0.0 back into the marked cells (None when no cell is
    marked)."""
    mask = int.from_bytes(bitmap, "little")
    if mask >> n:
        raise ChannelError("zero bitmap marks a cell past the records")
    k = n - mask.bit_count()
    if 8 * k > room:
        raise ChannelError("truncated frame")
    index, carried = [], 0
    for i in range(n):
        if mask >> i & 1:
            index.append(-1)
        else:
            index.append(carried)
            carried += 1
    if k == n:
        scatter = None
    elif n == 1:
        scatter = itemgetter(slice(-1, None))
    else:
        scatter = itemgetter(*index)
    layout = (k, struct.Struct(f">{k + 1}d"), scatter)
    if n <= _CACHED_RECORDS:
        _cache(_layouts, (n, bitmap), layout)
    return layout


def _monitor_body(batch: RecordBatch) -> list[bytes]:
    """The body parts of one MONITOR batch."""
    ids = batch.ids
    top = batch.proc_top or {}
    procs = batch.procs or {}
    n = len(ids)
    if n > 0xFFFF or len(top) > 0xFFFF or len(procs) > 0xFFFF:
        raise ChannelError("too many records for wire format")
    try:
        id_column = bytes(ids)
    except (ValueError, TypeError) as exc:
        raise ChannelError(f"metric id does not fit a u8: {exc}") from exc
    values = batch.values
    mask = 0
    if 0.0 in values:
        kept = []
        bit = 1
        for value in values:
            if value or copysign(1.0, value) < 0:
                kept.append(value)
            else:
                mask |= bit
            bit <<= 1
        values = kept
    body = [_U16.pack(n), id_column, mask.to_bytes((n + 7) >> 3, "little"),
            struct.pack(f">{len(values)}d", *values), _F64.pack(batch.ts)]
    if top or procs:
        body.append(_U16.pack(len(top)))
        body.extend(_TOP_ROW.pack(pid, top[pid]) for pid in sorted(top))
        body.append(_U16.pack(len(procs)))
        body.extend(_PROC_ROW.pack(pid, *procs[pid])
                    for pid in sorted(procs))
    return body


def encode_frame(tag: str, event: ChannelEvent) -> bytes:
    """Encode one event, which travels on the transport tag ``tag``,
    as a complete frame."""
    payload = event.payload
    if isinstance(payload, RecordBatch):
        kind = KIND_MONITOR
    elif isinstance(payload, ControlMessage):
        kind = KIND_CONTROL
    else:
        kind = None
    if kind is None or _ROUTES[kind] != (event.channel, tag):
        raise ChannelError(
            f"live payload is not wire-encodable: "
            f"{type(payload).__name__} on {event.channel!r}, {tag!r}")
    if kind == KIND_MONITOR:
        body = _monitor_body(payload)
    else:
        body = [_pack_str(payload.target), _pack_str(payload.command)]
    frame = b"".join([
        _HEAD.pack(MAGIC, kind),
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
    # with it (a field or column cut short, bytes past its last field,
    # an unknown metric id, a zero bitmap past the records, bad UTF-8)
    # is a ChannelError to the caller, never a bare struct.error or
    # ValueError.
    try:
        magic, kind = _HEAD.unpack_from(frame)
        if magic != MAGIC:
            raise ChannelError(f"bad frame magic {magic:#x}")
        route = _ROUTES.get(kind)
        if route is None:
            raise ChannelError(f"unknown frame kind {kind}")
        source, pos = _str_at(frame, _HEAD.size)
        submitted_at, size = _TIMES.unpack_from(frame, pos)
        pos += _TIMES.size
        payload: RecordBatch | ControlMessage
        if kind == KIND_MONITOR:
            (n,) = _U16.unpack_from(frame, pos)
            at_bitmap = pos + 2 + n
            pos = at_bitmap + ((n + 7) >> 3)
            if pos > len(frame):
                raise ChannelError("truncated frame")
            bitmap = frame[at_bitmap:pos]
            k, layout, scatter = _layouts.get((n, bitmap)) or _layout(
                n, bitmap, len(frame) - pos - 8)
            cells = layout.unpack_from(frame, pos)
            pos += layout.size
            values = cells[:k] if scatter is None \
                else scatter(cells + _ZERO)
            column = frame[at_bitmap - n:at_bitmap]
            ids = _id_columns.get(column) or _ids(column)
            payload = RecordBatch(ids, values, cells[k])
            if pos < len(frame):
                rows, pos = _rows_at(frame, pos, _TOP_ROW)
                payload.proc_top = dict(rows) or None
                rows, pos = _rows_at(frame, pos, _PROC_ROW)
                payload.procs = {pid: (cpu, mem, io)
                                 for pid, cpu, mem, io in rows} or None
        else:
            target, pos = _str_at(frame, pos)
            command, pos = _str_at(frame, pos)
            payload = ControlMessage(target, command)
        if pos != len(frame):
            raise ChannelError(
                f"{len(frame) - pos} bytes past the frame's last field")
    except (ValueError, TypeError, struct.error) as exc:
        raise ChannelError(f"malformed frame body: {exc}") from exc
    channel, tag = route
    return tag, ChannelEvent(channel, source, payload, size, submitted_at)


def _frame_length(buf, pos: int) -> int:
    """The length prefix at ``pos``, refused when zero or past
    :data:`MAX_FRAME_BYTES`."""
    (length,) = _U32.unpack_from(buf, pos)
    if length == 0:
        raise ChannelError("zero-length frame on the wire")
    if length > MAX_FRAME_BYTES:
        raise ChannelError(
            f"frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound")
    return length


def encode_batch(frames: Sequence[bytes]) -> bytes:
    """One socket write of whole frames, each with its length prefix.

    ``frames`` are outputs of :func:`encode_frame`; their own prefixes
    are all the receiver needs to split the run again.
    """
    return b"".join(frames)


class FrameDecoder:
    """Incremental splitter: feed stream chunks, get whole frames.

    A chunk may be a view of a buffer the caller reuses for the next
    read: each whole frame's body is copied straight out of it, once,
    and only a trailing partial frame is kept, until the chunks behind
    it complete it.  Zero-length and oversized frames are protocol
    errors.
    """

    def __init__(self) -> None:
        #: The partial frame (length prefix included) awaiting more.
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered waiting for the rest of a frame."""
        return len(self._buf)

    def feed(self, data) -> list[bytes]:
        """Absorb ``data`` (any bytes-like); return every now-complete
        frame body."""
        view = memoryview(data)
        have = len(view)
        buf = self._buf
        frames: list[bytes] = []
        pos = 0
        if buf:
            # Complete the held frame first: its prefix, then its body.
            if len(buf) < 4:
                pos = min(4 - len(buf), have)
                buf += view[:pos]
                if len(buf) < 4:
                    return frames
            end = 4 + _frame_length(buf, 0)
            take = min(end - len(buf), have - pos)
            buf += view[pos:pos + take]
            pos += take
            if len(buf) < end:
                return frames
            frames.append(bytes(buf[4:]))
            buf.clear()
        while have - pos >= 4:
            end = pos + 4 + _frame_length(view, pos)
            if end > have:
                break
            frames.append(bytes(view[pos + 4:end]))
            pos = end
        buf += view[pos:]
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

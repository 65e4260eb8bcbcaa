"""Wire codec: frame round-trips and the incremental decoder."""

from __future__ import annotations

import gc
import random
import struct
import tracemalloc

import pytest

from repro.dproc import (MODULE_METRICS, DMon, MetricId,
                         MonitoringModule, RecordBatch)
from repro.errors import ChannelError
from repro.kecho import KechoBus
from repro.kecho.control import ControlMessage
from repro.kecho.event import ChannelEvent
from repro.live import codec
from repro.live.codec import (FLAG_CHANNEL, FLAG_TAG, FrameDecoder,
                              KIND_CONTROL, MAGIC, MAX_FRAME_BYTES,
                              decode_frame, encode_batch,
                              encode_frame)

#: The magics of the layouts before this one: each is refused.
OLD_MAGICS = (0xEC05, 0xEC06)


def unknown_metric_frames() -> tuple[bytes, bytes]:
    """A valid one-record MONITOR frame (length prefix included) and
    the same frame with the record's u8 metric id overwritten by the
    first one no :class:`MetricId` has."""
    good = encode_frame("t", ChannelEvent(
        channel="c", source="s", size=32.0, submitted_at=0.0,
        payload=RecordBatch("s", (MetricId.LOADAVG,), (1.0,), 0.0)))
    # The frame ends with the record's columns: one u8 id, a one-byte
    # zero bitmap, one f64 value and the poll's f64 timestamp.
    at = len(good) - 18
    assert good[at:at + 2] == bytes([MetricId.LOADAVG, 0])
    return good, good[:at] + bytes([len(MetricId)]) + good[at + 1:]


def _numbered(i: int) -> ChannelEvent:
    """A one-record frame's event whose value is ``i``."""
    return ChannelEvent(
        channel="c", source="s", size=1.0, submitted_at=float(i),
        payload=RecordBatch("s", (MetricId.LOADAVG,), (float(i),), 0.0))


def _number(body: bytes) -> int:
    return int(decode_frame(body)[1].payload.values[0])


def _roundtrip(tag: str, event: ChannelEvent):
    frame = encode_frame(tag, event)
    bodies = FrameDecoder().feed(frame)
    assert len(bodies) == 1
    return decode_frame(bodies[0])


def _content(batch: RecordBatch) -> tuple:
    """Everything a batch says, comparable with ``==``."""
    return (batch.host, list(batch.records()), batch.proc_top,
            batch.procs)


class TestRoundTrip:
    def test_monitor_event(self):
        event = ChannelEvent(
            channel="dproc.monitor", source="maui",
            payload=RecordBatch("maui",
                                [MetricId.LOADAVG, MetricId.FREEMEM],
                                [1.5, 64e6], 2.0),
            size=88.0, submitted_at=2.0)
        tag, decoded = _roundtrip("kecho:dproc.monitor", event)
        assert tag == "kecho:dproc.monitor"
        assert decoded.channel == event.channel
        assert decoded.source == "maui"
        assert decoded.payload.host == "maui"
        assert list(decoded.payload.records()) == [
            (MetricId.LOADAVG, 1.5, 2.0), (MetricId.FREEMEM, 64e6, 2.0)]
        assert all(isinstance(m, MetricId) for m in decoded.payload.ids)
        # One timestamp on the wire comes back as one timestamp.
        assert decoded.payload.ts == 2.0

    def test_control_event(self):
        msg = ControlMessage("alan", "maui", "period cpu 2")
        event = ChannelEvent(channel="dproc.control", source="alan",
                             payload=msg, size=32.0, submitted_at=0.5)
        _, decoded = _roundtrip("kecho:dproc.control", event)
        assert decoded.payload == msg

    def test_filter_deploy_event(self):
        msg = ControlMessage(
            "alan", "maui",
            "filter * id=f1 { output[0] = input[LOADAVG]; }\n# ü\n")
        event = ChannelEvent(channel="dproc.control", source="alan",
                             payload=msg, size=64.0, submitted_at=1.0)
        _, decoded = _roundtrip("kecho:dproc.control", event)
        assert decoded.payload == msg

    def test_unencodable_payload_rejected(self):
        """A live payload is a record batch or a control message: a
        dict or any other object is refused, and so is a control
        message anywhere but the control channel's own tag."""
        msg = ControlMessage("alan", "maui", "unfilter f1")
        for payload, channel, tag in [
                (object(), "app", "custom:app"),
                ({"k": [1, 2]}, "app", "kecho:app"),
                (msg, "app", "kecho:app"),
                (msg, "dproc.control", "custom:dproc.control"),
                (ControlMessage("alan", "maui", None),
                 "dproc.control", "kecho:dproc.control")]:
            event = ChannelEvent(channel=channel, source="alan",
                                 payload=payload, size=1.0,
                                 submitted_at=0.0)
            with pytest.raises(ChannelError):
                encode_frame(tag, event)

    def test_control_frame_off_its_tag_is_refused(self):
        """A CONTROL frame decodes on the control channel's own tag
        only, so no other handler is handed a control message: it
        never carries a channel or a tag, and one that sets either
        flag is refused."""
        body = FrameDecoder().feed(encode_frame(
            "kecho:dproc.control", ChannelEvent(
                channel="dproc.control", source="alan", size=1.0,
                submitted_at=0.0,
                payload=ControlMessage("alan", "maui", "unfilter f1"))))[0]
        # magic, kind, no flags, then the source: no channel.
        assert body[:4] == struct.pack(">HBB", MAGIC, KIND_CONTROL, 0)
        assert body[4:10] == struct.pack(">H", 4) + b"alan"
        assert decode_frame(body)[0] == "kecho:dproc.control"
        for name in ("dproc.control", "dproc.monitor", "app"):
            carried = struct.pack(">H", len(name)) + name.encode()
            with pytest.raises(ChannelError, match="control tag"):
                decode_frame(body[:3] + bytes([FLAG_CHANNEL]) + carried
                             + body[4:])
        tag = struct.pack(">H", 3) + b"tag"
        with pytest.raises(ChannelError, match="control tag"):
            decode_frame(body[:3] + bytes([FLAG_TAG]) + tag + body[4:])


def _dmon_event(n: int) -> ChannelEvent:
    """What d-mon publishes for one poll of ``n`` metrics: one
    timestamp, host = source."""
    ids = list(MetricId)[:n]
    assert len(ids) == n
    return ChannelEvent(channel="dproc.monitor", source="node3",
                        payload=RecordBatch(
                            "node3", ids, [float(i) for i in range(n)],
                            12.5),
                        size=40.0 + 12.0 * n, submitted_at=12.5)


def _sparse_size(source: str, n: int, zeros: int) -> int:
    """The bytes of a d-mon poll's frame: n records from ``source``,
    ``zeros`` of them +0.0."""
    return 36 + len(source) + n + (n + 7) // 8 + 8 * (n - zeros)


class TestWireBudget:
    """The bytes a d-mon poll costs on the wire, so a format
    regression fails here and not only in the benchmark."""

    @pytest.mark.parametrize("n, zeros, size", [
        (1, 0, 51), (1, 1, 43), (4, 1, 70), (13, 0, 160), (13, 1, 152),
        (13, 5, 120), (13, 10, 80), (13, 13, 56), (20, 1, 216)])
    def test_dmon_frame_size_counts_carried_values(self, n, zeros, size):
        """36 + len(source) + n + ⌈n/8⌉ + 8 per value that is not
        +0.0: 13 records is the default module set, 160 bytes from
        ``node3`` with every cell carried."""
        event = _dmon_event(n)
        event.payload.values = [0.0 if i < zeros else i + 1.0
                                for i in range(n)]
        frame = encode_frame("kecho:dproc.monitor", event)
        assert len(frame) == size == _sparse_size("node3", n, zeros)
        tag, decoded = decode_frame(frame[4:])
        assert tag == "kecho:dproc.monitor"
        assert _content(decoded.payload) == _content(event.payload)

    def test_the_largest_default_frame_stays_under_the_ci_bound(self):
        """Every cell carried and a 7-character name: 162 B, under the
        165 B per frame CI's node-pool smoke asserts, where the
        previous layout's smallest default frame was 185 B."""
        event = _dmon_event(13)
        event.source = event.payload.host = "node999"
        event.payload.values = [float(i + 1) for i in range(13)]
        frame = encode_frame("kecho:dproc.monitor", event)
        assert len(frame) == _sparse_size("node999", 13, 0) == 162

    def test_each_redundancy_costs_its_bytes_only_when_present(self):
        event = _dmon_event(13)
        base = len(encode_frame("kecho:dproc.monitor", event))
        assert len(encode_frame("custom", event)) == base + 2 + 6
        event.channel = "app"
        assert len(encode_frame("kecho:app", event)) == base + 2 + 3
        assert len(encode_frame("custom", event)) == base + 2 + 3 + 2 + 6
        event = _dmon_event(13)
        event.payload.host = "other"
        assert len(encode_frame("kecho:dproc.monitor",
                                event)) == base + 2 + 5
        event = _dmon_event(13)
        event.payload.values[0] = 0.0
        event.payload.ts = (13.0,) + (12.5,) * 12
        assert len(encode_frame("kecho:dproc.monitor",
                                event)) == base + 12 * 8

    def test_previous_magic_is_refused(self):
        body = encode_frame("kecho:dproc.monitor", _dmon_event(1))[4:]
        assert body[:2] == struct.pack(">H", MAGIC)
        for old in OLD_MAGICS:
            with pytest.raises(ChannelError, match="magic"):
                decode_frame(struct.pack(">H", old) + body[2:])

    def test_every_metric_id_fits_a_u8(self):
        assert max(MetricId) < 0x100
        assert len(MetricId) == max(MetricId) + 1


#: What the live host modules cannot measure: +0.0 on any host.
UNMEASURED = {MetricId.NET_RTT, MetricId.NET_LOST, MetricId.NET_DELAY,
              MetricId.CACHE_MISS, MetricId.INSTRUCTIONS}

#: The frame a default d-mon poll of 13 records sends from ``alan`` at
#: t = 12.5 s, record i carrying 0.25 * (i + 1), or +0.0 for the five
#: metrics in :data:`UNMEASURED`: 119 B, eight values carried.
DEFAULT_POLL_FRAME = (
    "00000073ec0701000004616c616e4029000000000000406880000000000000"
    "0d0001020607040508090b0d030a401d3fd00000000000003fe00000000000"
    "003fe80000000000003ff00000000000003ff40000000000003ff800000000"
    "0000400000000000000040040000000000004029000000000000")

#: A frame that sets HOST and TS and carries both keyed sections
#: (NaN and -0.0 among the values, both carried as they are).
FLAGGED_FRAME = (
    "0000008fec070106000572656c617940100000000000004056000000000000"
    "00046d6175690003000105003ff800000000000080000000000000007ff800"
    "00000000004000000000000000400800000000000040080000000000000002"
    "0000006440080000000000000000006540040000000000000001000003e83f"
    "d0000000000000413e848000000000403e000000000000")


def _fixed_value(metric: MetricId, i: int) -> float:
    """Record ``i`` of the default poll: 0.25 * (i + 1), or +0.0."""
    return 0.0 if metric in UNMEASURED else 0.25 * (i + 1)


class _Fixed(MonitoringModule):
    """A default module's metrics with fixed values."""

    def __init__(self, node, name: str, first: int) -> None:
        super().__init__(node)
        self.name = name
        self._values = [_fixed_value(metric, first + i) for i, metric
                        in enumerate(MODULE_METRICS[name])]

    def metrics(self):
        return MODULE_METRICS[self.name]

    def collect(self, now):
        return self._values


class TestWireFence:
    """Bytes on the wire pinned: a layout change re-pins them on
    purpose."""

    def test_default_poll_frame_is_byte_identical(self, env, cluster3):
        dmon = DMon(cluster3["alan"], KechoBus())
        first = 0
        for name in ("cpu", "mem", "disk", "net", "pmc"):
            dmon.register_service(_Fixed(dmon.node, name, first))
            first += len(MODULE_METRICS[name])
        env.run(until=12.5)
        dmon.start()
        sent = []
        submit = dmon._monitor_ep.submit

        def capture(*args, **kwargs):
            receipt = submit(*args, **kwargs)
            sent.append(receipt.event)
            return receipt

        dmon._monitor_ep.submit = capture
        dmon.poll_once()
        (event,) = sent
        assert len(event.payload) == 13
        frame = encode_frame("kecho:dproc.monitor", event)
        assert frame.hex() == DEFAULT_POLL_FRAME

    def test_default_poll_frame_decodes_to_its_records(self):
        tag, event = decode_frame(bytes.fromhex(DEFAULT_POLL_FRAME)[4:])
        assert tag == "kecho:dproc.monitor"
        assert (event.source, event.submitted_at, event.size) == (
            "alan", 12.5, 196.0)
        ids = [m for name in ("cpu", "mem", "disk", "net", "pmc")
               for m in MODULE_METRICS[name]]
        assert len(bytes.fromhex(DEFAULT_POLL_FRAME)) == 119
        assert list(event.payload.records()) == [
            (m, _fixed_value(m, i), 12.5) for i, m in enumerate(ids)]

    def test_flagged_frame_decodes_to_its_records(self):
        tag, event = decode_frame(bytes.fromhex(FLAGGED_FRAME)[4:])
        batch = event.payload
        assert (tag, event.source, batch.host) == (
            "kecho:dproc.monitor", "relay", "maui")
        assert [(m, struct.pack(">d", v), ts)
                for m, v, ts in batch.records()] == [
            (MetricId.LOADAVG, struct.pack(">d", 1.5), 2.0),
            (MetricId.FREEMEM, struct.pack(">d", -0.0), 3.0),
            (MetricId.NET_RTT, struct.pack(">d", float("nan")), 3.0)]
        assert batch.proc_top == {100: 3.0, 101: 2.5}
        assert batch.procs == {1000: (0.25, 2e6, 30.0)}
        assert encode_frame(tag, event).hex() == FLAGGED_FRAME


class TestProcSections:
    """Optional keyed-stream sections on MONITOR frames."""

    def _monitor(self, batch: RecordBatch) -> ChannelEvent:
        return ChannelEvent(channel="dproc.monitor", source="maui",
                            payload=batch, size=88.0,
                            submitted_at=2.0)

    @staticmethod
    def _batch(**sections) -> RecordBatch:
        return RecordBatch("maui", (MetricId.LOADAVG,), (1.5,), 2.0,
                           **sections)

    def test_top_pairs_roundtrip(self):
        _, decoded = _roundtrip(
            "kecho:dproc.monitor",
            self._monitor(self._batch(proc_top={101: 2.5, 100: 3.0})))
        assert decoded.payload.proc_top == {101: 2.5, 100: 3.0}

    def test_full_rows_roundtrip(self):
        procs = {1000: (0.25, 2e6, 30.0), 1001: (0.125, 4e6, 0.0)}
        _, decoded = _roundtrip("kecho:dproc.monitor",
                                self._monitor(self._batch(procs=procs)))
        assert decoded.payload.procs == procs

    def test_absent_sections_stay_absent(self):
        batch = self._batch()
        _, decoded = _roundtrip("kecho:dproc.monitor",
                                self._monitor(batch))
        assert decoded.payload.proc_top is None
        assert decoded.payload.procs is None
        assert _content(decoded.payload) == _content(batch)

    def test_legacy_frame_without_sections_decodes(self):
        """A body that ends right after the record columns (what the
        encoder emits when no keyed row exists) and one that spells
        out two zero-count sections decode to the same batch."""
        batch = self._batch()
        body = FrameDecoder().feed(
            encode_frame("t", self._monitor(batch)))[0]
        # The id, a bitmap marking no zero, the value, the timestamp.
        assert body.endswith(struct.pack(">BBdd", MetricId.LOADAVG, 0,
                                         1.5, 2.0))
        for frame in (body, body + struct.pack(">HH", 0, 0)):
            _, decoded = decode_frame(frame)
            assert _content(decoded.payload) == _content(batch)

    def test_too_many_rows_rejected(self):
        batch = RecordBatch("maui", (), (), 2.0,
                            proc_top={pid: 1.0 for pid in range(0x10000)})
        with pytest.raises(ChannelError):
            encode_frame("t", self._monitor(batch))

    @pytest.mark.parametrize("batch", [
        RecordBatch("maui", (), (), 2.0,
                    procs={pid: (1.0, 2.0, 3.0)
                           for pid in range(0x10000)}),
        RecordBatch("maui", tuple(range(0x10000)), (1.0,) * 0x10000,
                    2.0),
    ], ids=["procs", "metrics"])
    def test_too_many_of_anything_counted_is_rejected(self, batch):
        """One more than a u16 count can say is a ChannelError for
        every section — the record count too, which feeds a format
        string and used to escape as a bare struct.error."""
        with pytest.raises(ChannelError):
            encode_frame("t", self._monitor(batch))


class TestIncrementalDecoder:
    def _frames(self, n: int) -> list[bytes]:
        return [encode_frame("t", _numbered(i)) for i in range(n)]

    def test_byte_at_a_time(self):
        stream = b"".join(self._frames(3))
        decoder = FrameDecoder()
        bodies = []
        for i in range(len(stream)):
            bodies.extend(decoder.feed(stream[i:i + 1]))
        assert [_number(b) for b in bodies] == [0, 1, 2]

    def test_multiple_frames_in_one_chunk(self):
        stream = b"".join(self._frames(4))
        assert len(FrameDecoder().feed(stream)) == 4

    def test_partial_frame_held_back(self):
        frame = self._frames(1)[0]
        decoder = FrameDecoder()
        assert decoder.feed(frame[:7]) == []
        assert len(decoder.feed(frame[7:])) == 1

    def test_oversize_length_prefix_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(ChannelError):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))


class TestBadFrames:
    def test_bad_magic(self):
        body = FrameDecoder().feed(encode_frame("t", _numbered(0)))[0]
        corrupt = struct.pack(">H", MAGIC ^ 0xFFFF) + body[2:]
        with pytest.raises(ChannelError):
            decode_frame(corrupt)

    def test_truncated_body(self):
        body = FrameDecoder().feed(encode_frame("t", _numbered(0)))[0]
        with pytest.raises(ChannelError):
            decode_frame(body[:-3])

    @pytest.mark.parametrize("raw", [
        b'{"sender":"a","target":"b","command":"x","bogus":1}',
        b'{"sender":"a","target":"b"}',
        b'["a","b","x"]',
        b'{"sender":"a","target":null,"command":"x"}',
        b'{"sender":"a","target":7,"command":"x"}',
        b'{"sender":"a","command":"x"}',
        b'{"x":',
        b"\xff\xfe",
        b"[" * 100_000,
    ], ids=["extra-field", "missing-field", "not-an-object",
            "null-target", "number-target", "no-target", "bad-json",
            "bad-utf8", "nested-too-deep"])
    def test_malformed_body_is_a_channel_error(self, raw):
        """Whatever is wrong inside the body, the caller sees
        ChannelError — not the ValueError/TypeError/RecursionError of
        the library that noticed."""
        body = FrameDecoder().feed(encode_frame(
            "kecho:dproc.control", ChannelEvent(
                channel="dproc.control", source="s", size=1.0,
                submitted_at=0.0,
                payload=ControlMessage("a", "b", "x"))))[0]
        # magic, kind, flags; the source's one character as a string
        # (the channel is implied); two f64: the JSON document's u32
        # length starts at byte 23.
        assert struct.unpack_from(">I", body, 23)[0] == len(body) - 27
        corrupt = body[:23] + struct.pack(">I", len(raw)) + raw
        with pytest.raises(ChannelError):
            decode_frame(corrupt)

    def test_unknown_metric_id_is_a_channel_error(self):
        good, bad = unknown_metric_frames()
        assert decode_frame(good[4:])[0] == "t"
        with pytest.raises(ChannelError):
            decode_frame(bad[4:])


class TestSparseRefusals:
    """A frame of the sparse layout is refused whole when its bytes
    disagree with what its count and bitmap say."""

    @staticmethod
    def _body(values, **sections) -> bytes:
        """A MONITOR body of LOADAVG.. records on d-mon's own tag."""
        ids = list(MetricId)[:len(values)]
        return encode_frame("kecho:dproc.monitor", ChannelEvent(
            "dproc.monitor", "maui", RecordBatch(
                "maui", ids, values, 2.0, **sections), 64.0, 2.0))[4:]

    #: The fixed part of ``_body``: head, "maui", two f64, count.
    AT_IDS = 4 + 6 + 16 + 2

    def test_the_fixed_part_is_where_the_tests_cut(self):
        body = self._body([0.0, 1.0, 0.0])
        at = self.AT_IDS
        assert struct.unpack_from(">H", body, at - 2)[0] == 3
        assert body[at:at + 4] == bytes([0, 1, 2, 0b101])
        assert len(body) == at + 4 + 8 + 8

    @pytest.mark.parametrize("n, bit", [(3, 3), (3, 7), (9, 9), (9, 15)])
    def test_a_bit_past_the_records_is_refused(self, n, bit):
        body = bytearray(self._body([1.0] * n))
        body[self.AT_IDS + n + bit // 8] |= 1 << bit % 8
        with pytest.raises(ChannelError):
            decode_frame(bytes(body))

    def test_a_value_column_shorter_than_the_clear_bits_is_refused(self):
        body = self._body([1.0, 2.0, 3.0])
        at = self.AT_IDS + 3 + 1
        # Drop the third value: the bitmap still says three are carried.
        with pytest.raises(ChannelError, match="malformed|truncated"):
            decode_frame(body[:at + 16] + body[at + 24:])
        # Clear bits over +0.0 cells the encoder would have left out:
        # the frame is shorter than the bitmap says.
        zeros = bytearray(self._body([0.0, 0.0, 3.0]))
        zeros[self.AT_IDS + 3] = 0
        with pytest.raises(ChannelError):
            decode_frame(bytes(zeros))

    @pytest.mark.parametrize("metric", [len(MetricId), 0xFF])
    def test_an_id_past_the_last_metric_is_refused(self, metric):
        body = bytearray(self._body([1.0, 0.0]))
        body[self.AT_IDS + 1] = metric
        with pytest.raises(ChannelError):
            decode_frame(bytes(body))

    def test_a_carried_zero_and_an_unset_bitmap_still_decode(self):
        """The encoder leaves every +0.0 out, but a frame that carries
        one under a clear bit says the same batch."""
        body = self._body([0.0, 2.0])
        at = self.AT_IDS + 2
        assert body[at] == 0b01
        carried = body[:at] + b"\x00" + struct.pack(">d", 0.0) \
            + body[at + 1:]
        _, decoded = decode_frame(carried)
        assert decoded.payload.values == (0.0, 2.0)


class TestDecodeCaches:
    """The receiver caches what an id column and a ``(n, bitmap)``
    stand for, but only for frames of d-mon's size, a bounded number
    of them, and only once the values are there to unpack."""

    @staticmethod
    def _frame(rng: random.Random, n: int, zeros: float) -> bytes:
        """A MONITOR body of ``n`` random ids, about ``zeros`` of its
        values +0.0."""
        ids = [rng.choice(list(MetricId)) for _ in range(n)]
        values = [0.0 if rng.random() < zeros else 1.0 for _ in range(n)]
        return encode_frame("kecho:dproc.monitor", ChannelEvent(
            "dproc.monitor", "maui", RecordBatch("maui", ids, values, 2.0),
            64.0, 2.0))[4:]

    @staticmethod
    def _retained(bodies) -> int:
        """Bytes still allocated after decoding ``bodies`` with empty
        caches, each frame dropped as it is decoded."""
        codec._id_columns.clear()
        codec._layouts.clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for body in bodies:
                decode_frame(body)
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def test_frames_past_dmons_size_leave_nothing_cached(self):
        rng = random.Random(5)
        bodies = (self._frame(rng, 3000, 0.9) for _ in range(40))
        assert self._retained(bodies) < 64 * 1024
        assert not codec._layouts and not codec._id_columns

    def test_ever_new_small_frames_keep_the_caches_bounded(self):
        rng = random.Random(6)
        bodies = (self._frame(rng, codec._CACHED_RECORDS, 0.5)
                  for _ in range(3 * codec._CACHE_ENTRIES))
        assert self._retained(bodies) < 3 * 1024 * 1024
        assert len(codec._layouts) <= codec._CACHE_ENTRIES
        assert len(codec._id_columns) <= codec._CACHE_ENTRIES

    @pytest.mark.parametrize("ts", [2.0, [1.0, 2.0, 3.0]],
                             ids=["one-timestamp", "ts-column"])
    def test_a_refused_short_value_column_caches_nothing(self, ts):
        body = encode_frame("kecho:dproc.monitor", ChannelEvent(
            "dproc.monitor", "maui", RecordBatch(
                "maui", list(MetricId)[:3], [1.0, 0.0, 3.0], ts),
            64.0, 2.0))[4:]
        assert decode_frame(body)[1].payload.values == (1.0, 0.0, 3.0)
        codec._id_columns.clear()
        codec._layouts.clear()
        with pytest.raises(ChannelError, match="truncated"):
            decode_frame(body[:-8])
        assert not codec._layouts and not codec._id_columns


class TestTrailingBytes:
    """A frame ends at its last field: bytes past it are refused."""

    @pytest.mark.parametrize("extra", [b"\x00" * 4 + b"\x07",
                                       b"\x00" * 6],
                             ids=["sections-then-a-byte",
                                  "sections-then-two-zeros"])
    def test_bytes_after_a_monitor_frame_are_refused(self, extra):
        """Two empty keyed sections and then more."""
        body = FrameDecoder().feed(encode_frame("t", _numbered(3)))[0]
        assert _number(body) == 3
        with pytest.raises(ChannelError, match="past the frame"):
            decode_frame(body + extra)

    def test_bytes_after_the_keyed_sections_are_refused(self):
        body = FrameDecoder().feed(encode_frame("t", ChannelEvent(
            "c", "s", RecordBatch("s", (MetricId.LOADAVG,), (1.0,), 0.0,
                                  proc_top={7: 1.0}), 1.0, 0.0)))[0]
        assert decode_frame(body)[1].payload.proc_top == {7: 1.0}
        with pytest.raises(ChannelError, match="past the frame"):
            decode_frame(body + b"\x00")

    def test_bytes_after_a_control_document_are_refused(self):
        body = FrameDecoder().feed(encode_frame(
            "kecho:dproc.control", ChannelEvent(
                "dproc.control", "alan",
                ControlMessage("alan", "maui", "unfilter f1"), 1.0,
                0.0)))[0]
        assert decode_frame(body)[1].payload.command == "unfilter f1"
        with pytest.raises(ChannelError, match="past the frame"):
            decode_frame(body + b"xyz")


class TestBatch:
    def _frames(self, n: int) -> list[bytes]:
        return [encode_frame("t", _numbered(i)) for i in range(n)]

    def test_batch_unwraps_in_order(self):
        batch = encode_batch(self._frames(5))
        bodies = FrameDecoder().feed(batch)
        assert [_number(b) for b in bodies] == [0, 1, 2, 3, 4]

    def test_mixed_stream_of_batches_and_singles(self):
        frames = self._frames(6)
        stream = (frames[0] + encode_batch(frames[1:4]) + frames[4]
                  + encode_batch(frames[5:]))
        bodies = FrameDecoder().feed(stream)
        assert [_number(b) for b in bodies] == [0, 1, 2, 3, 4, 5]

    def test_batch_byte_at_a_time(self):
        batch = encode_batch(self._frames(3))
        decoder = FrameDecoder()
        bodies = []
        for i in range(len(batch)):
            bodies.extend(decoder.feed(batch[i:i + 1]))
        assert len(bodies) == 3
        decoder.finish()

    def test_kind_4_is_an_unknown_kind(self):
        """The kind the old BATCH super-frame used is no kind at all:
        a frame that claims it is refused like any unknown kind."""
        body = self._frames(1)[0][4:]
        assert body[2] == 1  # MONITOR
        with pytest.raises(ChannelError, match="unknown frame kind 4"):
            decode_frame(body[:2] + bytes([4]) + body[3:])


class TestDecoderHardening:
    def test_zero_length_frame_rejected(self):
        with pytest.raises(ChannelError, match="zero-length"):
            FrameDecoder().feed(struct.pack(">I", 0))

    def test_finish_clean_at_frame_boundary(self):
        frame = encode_frame("t", _numbered(0))
        decoder = FrameDecoder()
        decoder.feed(frame)
        decoder.finish()  # no residue -> no error

    def test_finish_raises_on_partial_header(self):
        decoder = FrameDecoder()
        decoder.feed(b"\x00\x00")
        with pytest.raises(ChannelError, match="mid-frame"):
            decoder.finish()

    def test_finish_raises_on_partial_body(self):
        frame = encode_frame("t", _numbered(0))
        decoder = FrameDecoder()
        decoder.feed(frame[:-1])
        with pytest.raises(ChannelError, match="mid-frame"):
            decoder.finish()

    def test_pending_bytes_tracks_buffer(self):
        frame = encode_frame("t", _numbered(0))
        decoder = FrameDecoder()
        decoder.feed(frame[:10])
        assert decoder.pending_bytes == 10
        decoder.feed(frame[10:])
        assert decoder.pending_bytes == 0

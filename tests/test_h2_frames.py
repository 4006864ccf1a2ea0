"""Wire-format tests for HTTP/2 frames, including ORIGIN (RFC 8336)."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.h2 import (
    DataFrame,
    ErrorCode,
    GoAwayFrame,
    H2ConnectionError,
    HeadersFrame,
    OriginFrame,
    PingFrame,
    PriorityFrame,
    RstStreamFrame,
    SettingsFrame,
    UnknownFrame,
    WindowUpdateFrame,
)
from repro.h2.frames import (
    FLAG_ACK,
    FLAG_END_HEADERS,
    FLAG_END_STREAM,
    FLAG_PADDED,
    FRAME_HEADER_LEN,
    TYPE_ORIGIN,
    ContinuationFrame,
    consume_frames,
)


def parse(wire):
    """Run ``wire`` through the connection receive path; returns the
    parsed frames and the bytes left in the buffer."""
    buffer = bytearray(wire)
    frames = consume_frames(buffer)
    return frames, bytes(buffer)


def parse_one(wire):
    frames, rest = parse(wire)
    assert len(frames) == 1
    assert rest == b""
    return frames[0]


def roundtrip(frame):
    return parse_one(frame.serialize())


class TestFrameHeader:
    def test_header_layout(self):
        frame = DataFrame(stream_id=5, data=b"hello")
        wire = frame.serialize()
        length = int.from_bytes(wire[0:3], "big")
        assert length == 5
        assert wire[3] == 0x0  # DATA
        assert struct.unpack(">I", wire[5:9])[0] == 5

    def test_incomplete_buffer_returns_none(self):
        wire = DataFrame(stream_id=1, data=b"hello").serialize()
        frames, rest = parse(wire[:-1])
        assert frames == []
        assert rest == wire[:-1]

    def test_parse_frames_splits_stream(self):
        wire = (
            DataFrame(stream_id=1, data=b"a").serialize()
            + PingFrame().serialize()
        )
        frames, rest = parse(wire)
        assert len(frames) == 2
        assert rest == b""

    def test_parse_frames_keeps_partial_tail(self):
        wire = DataFrame(stream_id=1, data=b"a").serialize()
        partial = PingFrame().serialize()[:4]
        frames, rest = parse(wire + partial)
        assert len(frames) == 1
        assert rest == partial


class TestDataFrame:
    def test_roundtrip(self):
        frame = roundtrip(
            DataFrame(stream_id=3, flags=FLAG_END_STREAM, data=b"body")
        )
        assert isinstance(frame, DataFrame)
        assert frame.data == b"body"
        assert frame.end_stream

    def test_padding_stripped_on_parse(self):
        frame = roundtrip(DataFrame(stream_id=3, data=b"body", pad_length=7))
        assert frame.data == b"body"
        assert not frame.flags & FLAG_PADDED

    def test_flow_controlled_length_includes_padding(self):
        frame = DataFrame(stream_id=3, data=b"body", pad_length=7)
        assert frame.flow_controlled_length == 4 + 1 + 7

    def test_bad_padding_rejected(self):
        # pad length byte larger than remaining payload
        header = bytes([0, 0, 2, 0x0, FLAG_PADDED, 0, 0, 0, 3])
        with pytest.raises(H2ConnectionError):
            parse(header + bytes([200, 1]))


class TestHeadersFrame:
    def test_roundtrip(self):
        frame = roundtrip(
            HeadersFrame(
                stream_id=1,
                flags=FLAG_END_HEADERS | FLAG_END_STREAM,
                header_block=b"\x82",
            )
        )
        assert isinstance(frame, HeadersFrame)
        assert frame.header_block == b"\x82"
        assert frame.end_headers and frame.end_stream

    def test_priority_fields_skipped(self):
        from repro.h2.frames import FLAG_PRIORITY

        body = struct.pack(">IB", 3, 15) + b"\x82"
        header = bytes([0, 0, len(body), 0x1, FLAG_PRIORITY | FLAG_END_HEADERS,
                        0, 0, 0, 1])
        frame = parse_one(header + body)
        assert frame.header_block == b"\x82"


class TestControlFrames:
    def test_rst_roundtrip(self):
        frame = roundtrip(
            RstStreamFrame(stream_id=7, error_code=ErrorCode.CANCEL)
        )
        assert frame.error_code is ErrorCode.CANCEL

    def test_settings_roundtrip(self):
        frame = roundtrip(SettingsFrame(settings=((0x4, 1048576), (0x3, 100))))
        assert frame.settings == ((0x4, 1048576), (0x3, 100))

    def test_settings_ack_with_payload_rejected(self):
        header = bytes([0, 0, 6, 0x4, FLAG_ACK, 0, 0, 0, 0])
        with pytest.raises(H2ConnectionError):
            parse(header + b"\x00" * 6)

    def test_settings_bad_length_rejected(self):
        header = bytes([0, 0, 5, 0x4, 0, 0, 0, 0, 0])
        with pytest.raises(H2ConnectionError):
            parse(header + b"\x00" * 5)

    def test_ping_must_be_8_bytes(self):
        with pytest.raises(H2ConnectionError):
            PingFrame(opaque=b"short")

    def test_ping_roundtrip(self):
        frame = roundtrip(PingFrame(opaque=b"12345678", flags=FLAG_ACK))
        assert frame.opaque == b"12345678"
        assert frame.is_ack

    def test_goaway_roundtrip(self):
        frame = roundtrip(
            GoAwayFrame(last_stream_id=31,
                        error_code=ErrorCode.PROTOCOL_ERROR,
                        debug_data=b"why")
        )
        assert frame.last_stream_id == 31
        assert frame.error_code is ErrorCode.PROTOCOL_ERROR
        assert frame.debug_data == b"why"

    def test_window_update_roundtrip(self):
        frame = roundtrip(WindowUpdateFrame(stream_id=1, increment=65535))
        assert frame.increment == 65535

    def test_priority_roundtrip(self):
        frame = roundtrip(
            PriorityFrame(stream_id=5, dependency=3, weight=42,
                          exclusive=True)
        )
        assert frame.dependency == 3
        assert frame.weight == 42
        assert frame.exclusive

    def test_continuation_roundtrip(self):
        frame = roundtrip(
            ContinuationFrame(stream_id=1, flags=FLAG_END_HEADERS,
                              header_block=b"rest")
        )
        assert frame.header_block == b"rest"
        assert frame.end_headers

    def test_unknown_error_code_becomes_internal(self):
        header = bytes([0, 0, 4, 0x3, 0, 0, 0, 0, 1])
        frame = parse_one(header + struct.pack(">I", 0xDEAD))
        assert frame.error_code is ErrorCode.INTERNAL_ERROR


class TestOriginFrame:
    def test_roundtrip(self):
        origins = ("https://example.com", "https://cdn.example.com")
        frame = roundtrip(OriginFrame(origins=origins))
        assert isinstance(frame, OriginFrame)
        assert frame.origins == origins

    def test_wire_layout_matches_rfc8336(self):
        frame = OriginFrame(origins=("https://a.com",))
        wire = frame.serialize()
        assert wire[3] == TYPE_ORIGIN
        body = wire[FRAME_HEADER_LEN:]
        length = struct.unpack(">H", body[:2])[0]
        assert length == len("https://a.com")
        assert body[2 : 2 + length] == b"https://a.com"

    def test_empty_origin_set_is_valid(self):
        # RFC 8336 §2.2: empty set means "coalesce nothing new".
        frame = roundtrip(OriginFrame(origins=()))
        assert frame.origins == ()

    def test_origin_on_nonzero_stream_rejected_at_build(self):
        with pytest.raises(H2ConnectionError):
            OriginFrame(stream_id=3, origins=("https://a.com",))

    def test_origin_on_nonzero_stream_ignored_at_parse(self):
        # Hand-craft type 0xC on stream 3; parser surfaces UnknownFrame.
        body = struct.pack(">H", 13) + b"https://a.com"
        header = bytes([0, 0, len(body), TYPE_ORIGIN, 0, 0, 0, 0, 3])
        frame = parse_one(header + body)
        assert isinstance(frame, UnknownFrame)

    def test_truncated_entry_ignored_as_unknown(self):
        body = struct.pack(">H", 100) + b"short"
        header = bytes([0, 0, len(body), TYPE_ORIGIN, 0, 0, 0, 0, 0])
        frame = parse_one(header + body)
        assert isinstance(frame, UnknownFrame)

    def test_non_ascii_origin_ignored_as_unknown(self):
        raw = "https://ünicode.com".encode("utf-8")
        body = struct.pack(">H", len(raw)) + raw
        header = bytes([0, 0, len(body), TYPE_ORIGIN, 0, 0, 0, 0, 0])
        frame = parse_one(header + body)
        assert isinstance(frame, UnknownFrame)

    @given(
        st.lists(
            st.from_regex(r"https://[a-z]{1,20}\.[a-z]{2,5}", fullmatch=True),
            max_size=20,
        )
    )
    def test_any_origin_list_roundtrips(self, origins):
        frame = roundtrip(OriginFrame(origins=tuple(origins)))
        assert frame.origins == tuple(origins)


class TestUnknownFrame:
    def test_unknown_type_surfaced_not_crashed(self):
        header = bytes([0, 0, 3, 0xEE, 0x7, 0, 0, 0, 9])
        frame = parse_one(header + b"xyz")
        assert isinstance(frame, UnknownFrame)
        assert frame.raw_type == 0xEE
        assert frame.raw_payload == b"xyz"
        assert frame.stream_id == 9

    def test_unknown_frame_reserializes(self):
        frame = UnknownFrame(stream_id=9, raw_type=0xEE, raw_payload=b"xyz")
        reparsed = roundtrip(frame)
        assert isinstance(reparsed, UnknownFrame)
        assert reparsed.raw_payload == b"xyz"

"""Fuzz/property tests: parsers must never crash unexpectedly.

Wire parsers face attacker-controlled bytes; the only acceptable
failure mode is the protocol's own error type.  Hypothesis drives
random and structured-mutation inputs through the receive paths the
connections run -- ``consume_frames`` and ``consume_records`` on a
persistent buffer -- the HPACK decoder, and the HTTP/1.1 message
parser.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.h2 import (
    ErrorCode,
    H2Connection,
    H2ConnectionError,
    HpackDecoder,
    HpackError,
    Role,
)
from repro.h2.frames import (
    FRAME_HEADER_LEN,
    DataFrame,
    HeadersFrame,
    OriginFrame,
    PingFrame,
    SettingsFrame,
    consume_frames,
)
from repro.h2.http1 import parse_message
from repro.h2.tls_channel import RECORD_HEADER_LEN, consume_records

#: The initial SETTINGS_MAX_FRAME_SIZE (RFC 7540 §6.5.2).
MAX_FRAME_SIZE = 16384

#: The codes RFC 7540 assigns to malformed frames: a bad length
#: (§4.2) or padding longer than the payload (§6.1).
MALFORMED_FRAME_CODES = (ErrorCode.FRAME_SIZE_ERROR, ErrorCode.PROTOCOL_ERROR)


def consume(data):
    """Feed ``data`` to the frame receive path.

    Returns ``(frames, buffer)``, or ``(None, buffer)`` when the parser
    rejected the bytes.  Either way it checks the receive-path contract:
    the only error is a malformed-frame connection error, and a call
    that returns leaves less than one complete frame buffered.
    """
    buffer = bytearray(data)
    try:
        frames = consume_frames(buffer, max_length=MAX_FRAME_SIZE)
    except H2ConnectionError as error:
        assert error.code in MALFORMED_FRAME_CODES
        return None, buffer
    if len(buffer) >= FRAME_HEADER_LEN:
        length = int.from_bytes(buffer[:3], "big")
        assert FRAME_HEADER_LEN + length > len(buffer)
    return frames, buffer


class TestFrameParserFuzz:
    @given(st.binary(max_size=400))
    @settings(max_examples=300)
    def test_random_bytes_never_crash(self, data):
        _, buffer = consume(data)
        # Whatever parsed, the leftover must be a suffix of the input.
        assert data.endswith(buffer)

    @given(st.binary(max_size=200), st.integers(0, 60))
    @settings(max_examples=200)
    def test_truncated_valid_frames_buffer(self, payload, cut):
        wire = DataFrame(stream_id=1, data=payload).serialize()
        cut = min(cut, len(wire))
        frames, buffer = consume(wire[:-cut] if cut else wire)
        if cut == 0:
            assert len(frames) == 1
        else:
            assert frames == []
            assert buffer == wire[:-cut]

    @given(
        st.lists(
            st.sampled_from([
                DataFrame(stream_id=1, data=b"x"),
                HeadersFrame(stream_id=3, header_block=b"\x82"),
                PingFrame(),
                SettingsFrame(settings=((4, 65535),)),
                OriginFrame(origins=("https://a.com",)),
            ]),
            max_size=8,
        )
    )
    def test_concatenated_frames_all_parse(self, frames):
        wire = b"".join(frame.serialize() for frame in frames)
        parsed, buffer = consume(wire)
        assert len(parsed) == len(frames)
        assert buffer == b""

    @given(st.binary(min_size=9, max_size=100))
    @settings(max_examples=200)
    def test_mutated_headers_never_hang(self, data):
        # Force a frame-sized length prefix so the parser commits.
        body = data[9:]
        header = bytes([0, 0, len(body)]) + data[3:9]
        consume(header + body)


class TestHpackDecoderFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_random_blocks_raise_hpack_error_or_decode(self, block):
        decoder = HpackDecoder()
        try:
            headers = decoder.decode(block)
        except HpackError:
            return
        for name, value in headers:
            assert isinstance(name, str) and isinstance(value, str)


class TestTlsRecordFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_random_bytes_never_crash(self, data):
        buffer = bytearray(data)
        records = consume_records(buffer)
        if len(buffer) >= RECORD_HEADER_LEN:
            length = int.from_bytes(buffer[1:5], "big")
            assert RECORD_HEADER_LEN + length > len(buffer)
        reassembled = b"".join(
            bytes([t]) + len(p).to_bytes(4, "big") + p
            for t, p in records
        ) + buffer
        assert reassembled == data


class TestHttp1ParserFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_random_bytes_never_crash(self, data):
        try:
            message, rest = parse_message(data)
        except (ValueError, IndexError):
            # Malformed numerics in content-length / status lines are
            # surfaced as ValueError by design.
            return
        if message is None:
            assert rest == data


class TestConnectionFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_client_survives_garbage_or_fails_cleanly(self, data):
        client = H2Connection(Role.CLIENT)
        client.initiate()
        client.data_to_send()
        try:
            client.receive_data(data)
        except H2ConnectionError:
            # A GOAWAY must have been queued for the peer.
            assert client.data_to_send()

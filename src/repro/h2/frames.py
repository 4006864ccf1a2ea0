"""HTTP/2 frame wire format (RFC 7540 §4, §6) plus ORIGIN (RFC 8336).

Every frame serializes to and parses from the real byte layout:

    +-----------------------------------------------+
    |                 Length (24)                   |
    +---------------+---------------+---------------+
    |   Type (8)    |   Flags (8)   |
    +-+-------------+---------------+-------------------------------+
    |R|                 Stream Identifier (31)                      |
    +=+=============================================================+
    |                   Frame Payload (0...)                      ...
    +---------------------------------------------------------------+

The ORIGIN frame (type 0xC) payload is a sequence of Origin-Entry
fields, each a 16-bit length followed by that many bytes of
ASCII-serialized origin (RFC 8336 §2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.h2.errors import ErrorCode, H2ConnectionError

FRAME_HEADER_LEN = 9

#: The largest length the 24-bit frame header field can carry.
MAX_FRAME_LENGTH = 2**24 - 1

#: The 9-byte frame header packed as one struct: the first 32-bit word
#: carries ``(length << 8) | type``, which is exactly the wire layout of
#: the 24-bit length followed by the type octet.
_HEADER_STRUCT = struct.Struct(">IBI")

# Frame type codes.
TYPE_DATA = 0x0
TYPE_HEADERS = 0x1
TYPE_PRIORITY = 0x2
TYPE_RST_STREAM = 0x3
TYPE_SETTINGS = 0x4
TYPE_PUSH_PROMISE = 0x5
TYPE_PING = 0x6
TYPE_GOAWAY = 0x7
TYPE_WINDOW_UPDATE = 0x8
TYPE_CONTINUATION = 0x9
TYPE_ALTSVC = 0xA
TYPE_ORIGIN = 0xC  # RFC 8336
TYPE_CERTIFICATE = 0xD  # draft-ietf-httpbis-http2-secondary-certs

# Flag bits.
FLAG_END_STREAM = 0x1   # DATA, HEADERS
FLAG_ACK = 0x1          # SETTINGS, PING
FLAG_END_HEADERS = 0x4  # HEADERS, PUSH_PROMISE, CONTINUATION
FLAG_PADDED = 0x8       # DATA, HEADERS, PUSH_PROMISE
FLAG_PRIORITY = 0x20    # HEADERS
FLAG_TO_BE_CONTINUED = 0x1  # CERTIFICATE (secondary-certs draft)

#: The client connection preface (RFC 7540 §3.5).
CONNECTION_PREFACE = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"


@dataclass
class Frame:
    """Base frame; concrete classes define payload layout."""

    stream_id: int = 0
    flags: int = 0
    type_code: int = field(default=-1, init=False)

    def payload(self) -> bytes:
        raise NotImplementedError

    def serialize(self) -> bytes:
        out = bytearray()
        self.serialize_into(out)
        return bytes(out)

    def serialize_into(self, out: bytearray) -> None:
        """Append this frame's wire bytes to ``out`` without building an
        intermediate ``bytes`` object per frame."""
        body = self.payload()
        if len(body) > MAX_FRAME_LENGTH:
            raise H2ConnectionError(
                ErrorCode.FRAME_SIZE_ERROR,
                f"payload of {len(body)} bytes exceeds the 24-bit length",
            )
        out += _HEADER_STRUCT.pack(
            (len(body) << 8) | self.type_code,
            self.flags,
            self.stream_id & 0x7FFFFFFF,
        )
        out += body


@dataclass
class DataFrame(Frame):
    data: bytes = b""
    pad_length: int = 0

    def __post_init__(self) -> None:
        self.type_code = TYPE_DATA
        if self.pad_length:
            self.flags |= FLAG_PADDED

    @property
    def end_stream(self) -> bool:
        return bool(self.flags & FLAG_END_STREAM)

    def payload(self) -> bytes:
        if self.flags & FLAG_PADDED:
            return (
                struct.pack(">B", self.pad_length)
                + self.data
                + b"\x00" * self.pad_length
            )
        return self.data

    @property
    def flow_controlled_length(self) -> int:
        """DATA frames count their whole payload against the window."""
        return len(self.payload())


@dataclass
class HeadersFrame(Frame):
    header_block: bytes = b""
    pad_length: int = 0

    def __post_init__(self) -> None:
        self.type_code = TYPE_HEADERS
        if self.pad_length:
            self.flags |= FLAG_PADDED

    @property
    def end_stream(self) -> bool:
        return bool(self.flags & FLAG_END_STREAM)

    @property
    def end_headers(self) -> bool:
        return bool(self.flags & FLAG_END_HEADERS)

    def payload(self) -> bytes:
        if self.flags & FLAG_PADDED:
            return (
                struct.pack(">B", self.pad_length)
                + self.header_block
                + b"\x00" * self.pad_length
            )
        return self.header_block


@dataclass
class PriorityFrame(Frame):
    dependency: int = 0
    weight: int = 16
    exclusive: bool = False

    def __post_init__(self) -> None:
        self.type_code = TYPE_PRIORITY

    def payload(self) -> bytes:
        dep = self.dependency | (0x80000000 if self.exclusive else 0)
        return struct.pack(">IB", dep, self.weight - 1)


@dataclass
class RstStreamFrame(Frame):
    error_code: ErrorCode = ErrorCode.NO_ERROR

    def __post_init__(self) -> None:
        self.type_code = TYPE_RST_STREAM

    def payload(self) -> bytes:
        return struct.pack(">I", int(self.error_code))


@dataclass
class SettingsFrame(Frame):
    settings: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        self.type_code = TYPE_SETTINGS

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    def payload(self) -> bytes:
        if self.is_ack and self.settings:
            raise H2ConnectionError(
                ErrorCode.FRAME_SIZE_ERROR, "SETTINGS ACK must be empty"
            )
        return b"".join(
            struct.pack(">HI", identifier, value)
            for identifier, value in self.settings
        )


@dataclass
class PushPromiseFrame(Frame):
    promised_stream_id: int = 0
    header_block: bytes = b""

    def __post_init__(self) -> None:
        self.type_code = TYPE_PUSH_PROMISE

    def payload(self) -> bytes:
        return struct.pack(">I", self.promised_stream_id) + self.header_block


@dataclass
class PingFrame(Frame):
    opaque: bytes = b"\x00" * 8

    def __post_init__(self) -> None:
        self.type_code = TYPE_PING
        if len(self.opaque) != 8:
            raise H2ConnectionError(
                ErrorCode.FRAME_SIZE_ERROR,
                f"PING payload must be 8 bytes, got {len(self.opaque)}",
            )

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    def payload(self) -> bytes:
        return self.opaque


@dataclass
class GoAwayFrame(Frame):
    last_stream_id: int = 0
    error_code: ErrorCode = ErrorCode.NO_ERROR
    debug_data: bytes = b""

    def __post_init__(self) -> None:
        self.type_code = TYPE_GOAWAY

    def payload(self) -> bytes:
        return (
            struct.pack(">II", self.last_stream_id, int(self.error_code))
            + self.debug_data
        )


@dataclass
class WindowUpdateFrame(Frame):
    increment: int = 0

    def __post_init__(self) -> None:
        self.type_code = TYPE_WINDOW_UPDATE

    def payload(self) -> bytes:
        return struct.pack(">I", self.increment)


@dataclass
class ContinuationFrame(Frame):
    header_block: bytes = b""

    def __post_init__(self) -> None:
        self.type_code = TYPE_CONTINUATION

    @property
    def end_headers(self) -> bool:
        return bool(self.flags & FLAG_END_HEADERS)

    def payload(self) -> bytes:
        return self.header_block


@dataclass
class OriginFrame(Frame):
    """RFC 8336 ORIGIN frame.

    Sent by servers on stream 0 to advertise the *origin set*: the
    origins the server is authoritative for on this connection.  Flags
    are undefined and MUST be ignored; stream id MUST be 0.  Origins
    are ASCII serializations like ``https://images.example.com``.
    """

    origins: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.type_code = TYPE_ORIGIN
        if self.stream_id != 0:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                f"ORIGIN frame on stream {self.stream_id}; must be stream 0",
            )

    def payload(self) -> bytes:
        chunks = []
        for origin in self.origins:
            raw = origin.encode("ascii")
            if len(raw) > 0xFFFF:
                raise H2ConnectionError(
                    ErrorCode.FRAME_SIZE_ERROR,
                    f"origin {origin[:40]!r}... exceeds 65535 bytes",
                )
            chunks.append(struct.pack(">H", len(raw)) + raw)
        return b"".join(chunks)


@dataclass
class CertificateFrame(Frame):
    """Secondary-certificate CERTIFICATE frame (the §6.5 alternative).

    draft-ietf-httpbis-http2-secondary-certs: servers provide extra
    certificates on stream 0 *after* the handshake, so the TLS flight
    stays small while additional authority arrives on demand.  The
    payload here is a 1-byte cert id followed by a fragment of the
    serialized chain; ``TO_BE_CONTINUED`` (0x1) marks non-final
    fragments.
    """

    cert_id: int = 0
    fragment: bytes = b""

    def __post_init__(self) -> None:
        self.type_code = TYPE_CERTIFICATE
        if self.stream_id != 0:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                "CERTIFICATE frames belong on stream 0",
            )
        if not 0 <= self.cert_id <= 0xFF:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                f"cert id {self.cert_id} outside one byte",
            )

    @property
    def to_be_continued(self) -> bool:
        return bool(self.flags & FLAG_TO_BE_CONTINUED)

    def payload(self) -> bytes:
        return bytes([self.cert_id]) + self.fragment


@dataclass
class UnknownFrame(Frame):
    """A frame of a type this endpoint does not implement.

    RFC 7540 §4.1: implementations MUST ignore and discard unknown
    frame types.  The frame is still surfaced so tests (and the buggy
    middlebox model from paper §6.7) can observe it.
    """

    raw_type: int = 0xFF
    raw_payload: bytes = b""

    def __post_init__(self) -> None:
        self.type_code = self.raw_type

    def payload(self) -> bytes:
        return self.raw_payload


#: Types a compliant endpoint recognizes.
KNOWN_TYPES = frozenset(
    {
        TYPE_DATA,
        TYPE_HEADERS,
        TYPE_PRIORITY,
        TYPE_RST_STREAM,
        TYPE_SETTINGS,
        TYPE_PUSH_PROMISE,
        TYPE_PING,
        TYPE_GOAWAY,
        TYPE_WINDOW_UPDATE,
        TYPE_CONTINUATION,
    }
)

#: Types recognized by an ORIGIN-aware endpoint.
KNOWN_TYPES_WITH_ORIGIN = KNOWN_TYPES | {TYPE_ORIGIN}


def _strip_padding(flags: int, body: bytes, frame_type: str) -> bytes:
    if not flags & FLAG_PADDED:
        return body
    if not body:
        raise H2ConnectionError(
            ErrorCode.PROTOCOL_ERROR, f"padded {frame_type} with empty payload"
        )
    pad_length = body[0]
    data = body[1:]
    if pad_length > len(data):
        raise H2ConnectionError(
            ErrorCode.PROTOCOL_ERROR,
            f"{frame_type} pad length {pad_length} exceeds payload",
        )
    return data[: len(data) - pad_length]


def _parse_data(stream_id: int, flags: int, body: bytes) -> Frame:
    data = _strip_padding(flags, body, "DATA")
    return DataFrame(stream_id=stream_id, flags=flags & ~FLAG_PADDED,
                     data=data)


def _parse_headers(stream_id: int, flags: int, body: bytes) -> Frame:
    block = _strip_padding(flags, body, "HEADERS")
    if flags & FLAG_PRIORITY:
        if len(block) < 5:
            raise H2ConnectionError(
                ErrorCode.FRAME_SIZE_ERROR, "HEADERS priority too short"
            )
        block = block[5:]  # priority fields are parsed but unused
    return HeadersFrame(
        stream_id=stream_id,
        flags=flags & ~(FLAG_PADDED | FLAG_PRIORITY),
        header_block=block,
    )


def _parse_priority(stream_id: int, flags: int, body: bytes) -> Frame:
    if len(body) != 5:
        raise H2ConnectionError(
            ErrorCode.FRAME_SIZE_ERROR,
            f"PRIORITY payload must be 5 bytes, got {len(body)}",
        )
    dep_raw = struct.unpack(">I", body[0:4])[0]
    return PriorityFrame(
        stream_id=stream_id,
        dependency=dep_raw & 0x7FFFFFFF,
        weight=body[4] + 1,
        exclusive=bool(dep_raw & 0x80000000),
    )


def _parse_rst_stream(stream_id: int, flags: int, body: bytes) -> Frame:
    if len(body) != 4:
        raise H2ConnectionError(
            ErrorCode.FRAME_SIZE_ERROR,
            f"RST_STREAM payload must be 4 bytes, got {len(body)}",
        )
    return RstStreamFrame(
        stream_id=stream_id,
        error_code=_error_code(struct.unpack(">I", body)[0]),
    )


def _parse_settings(stream_id: int, flags: int, body: bytes) -> Frame:
    if len(body) % 6:
        raise H2ConnectionError(
            ErrorCode.FRAME_SIZE_ERROR,
            f"SETTINGS payload of {len(body)} not a multiple of 6",
        )
    if flags & FLAG_ACK and body:
        raise H2ConnectionError(
            ErrorCode.FRAME_SIZE_ERROR, "SETTINGS ACK with payload"
        )
    pairs = tuple(
        struct.unpack(">HI", body[i : i + 6])
        for i in range(0, len(body), 6)
    )
    return SettingsFrame(stream_id=stream_id, flags=flags, settings=pairs)


def _parse_push_promise(stream_id: int, flags: int, body: bytes) -> Frame:
    block = _strip_padding(flags, body, "PUSH_PROMISE")
    if len(block) < 4:
        raise H2ConnectionError(
            ErrorCode.FRAME_SIZE_ERROR, "PUSH_PROMISE too short"
        )
    return PushPromiseFrame(
        stream_id=stream_id,
        flags=flags & ~FLAG_PADDED,
        promised_stream_id=struct.unpack(">I", block[0:4])[0] & 0x7FFFFFFF,
        header_block=block[4:],
    )


def _parse_ping(stream_id: int, flags: int, body: bytes) -> Frame:
    return PingFrame(stream_id=stream_id, flags=flags, opaque=body)


def _parse_goaway(stream_id: int, flags: int, body: bytes) -> Frame:
    if len(body) < 8:
        raise H2ConnectionError(
            ErrorCode.FRAME_SIZE_ERROR, "GOAWAY too short"
        )
    last, code = struct.unpack(">II", body[0:8])
    return GoAwayFrame(
        stream_id=stream_id,
        last_stream_id=last & 0x7FFFFFFF,
        error_code=_error_code(code),
        debug_data=body[8:],
    )


def _parse_window_update(stream_id: int, flags: int, body: bytes) -> Frame:
    if len(body) != 4:
        raise H2ConnectionError(
            ErrorCode.FRAME_SIZE_ERROR,
            f"WINDOW_UPDATE payload must be 4 bytes, got {len(body)}",
        )
    return WindowUpdateFrame(
        stream_id=stream_id,
        increment=struct.unpack(">I", body)[0] & 0x7FFFFFFF,
    )


def _parse_continuation(stream_id: int, flags: int, body: bytes) -> Frame:
    return ContinuationFrame(stream_id=stream_id, flags=flags,
                             header_block=body)


def _parse_certificate(stream_id: int, flags: int, body: bytes) -> Frame:
    if stream_id != 0 or not body:
        return UnknownFrame(stream_id=stream_id, flags=flags,
                            raw_type=TYPE_CERTIFICATE, raw_payload=body)
    return CertificateFrame(
        stream_id=0, flags=flags, cert_id=body[0], fragment=body[1:],
    )


def _parse_origin_entry(stream_id: int, flags: int, body: bytes) -> Frame:
    return _parse_origin(stream_id, flags, body)


_FRAME_PARSERS = {
    TYPE_DATA: _parse_data,
    TYPE_HEADERS: _parse_headers,
    TYPE_PRIORITY: _parse_priority,
    TYPE_RST_STREAM: _parse_rst_stream,
    TYPE_SETTINGS: _parse_settings,
    TYPE_PUSH_PROMISE: _parse_push_promise,
    TYPE_PING: _parse_ping,
    TYPE_GOAWAY: _parse_goaway,
    TYPE_WINDOW_UPDATE: _parse_window_update,
    TYPE_CONTINUATION: _parse_continuation,
    TYPE_ORIGIN: _parse_origin_entry,
    TYPE_CERTIFICATE: _parse_certificate,
}


def _parse_body(frame_type: int, stream_id: int, flags: int,
                body: bytes) -> Frame:
    parser = _FRAME_PARSERS.get(frame_type)
    if parser is None:
        return UnknownFrame(stream_id=stream_id, flags=flags,
                            raw_type=frame_type, raw_payload=body)
    return parser(stream_id, flags, body)


def _parse_origin(stream_id: int, flags: int, body: bytes) -> Frame:
    """Parse an ORIGIN payload; malformed entries invalidate the frame.

    RFC 8336 §2.1: an ORIGIN frame on a non-zero stream, or with a
    malformed payload, MUST be ignored -- we surface those cases as
    :class:`UnknownFrame` so the connection treats them as no-ops.
    """
    if stream_id != 0:
        return UnknownFrame(stream_id=stream_id, flags=flags,
                            raw_type=TYPE_ORIGIN, raw_payload=body)
    origins: List[str] = []
    offset = 0
    while offset < len(body):
        if offset + 2 > len(body):
            return UnknownFrame(stream_id=stream_id, flags=flags,
                                raw_type=TYPE_ORIGIN, raw_payload=body)
        length = struct.unpack(">H", body[offset : offset + 2])[0]
        offset += 2
        if offset + length > len(body):
            return UnknownFrame(stream_id=stream_id, flags=flags,
                                raw_type=TYPE_ORIGIN, raw_payload=body)
        try:
            origins.append(body[offset : offset + length].decode("ascii"))
        except UnicodeDecodeError:
            return UnknownFrame(stream_id=stream_id, flags=flags,
                                raw_type=TYPE_ORIGIN, raw_payload=body)
        offset += length
    return OriginFrame(stream_id=0, flags=flags, origins=tuple(origins))


def consume_frames(
    buffer: bytearray, max_length: int = MAX_FRAME_LENGTH
) -> List[Frame]:
    """Parse complete frames out of a persistent receive buffer.

    Consumed bytes are deleted from ``buffer`` in place, so a connection
    keeps one reusable ``bytearray`` as its receive buffer; bytes of an
    incomplete trailing frame stay there for the next call.  A header whose
    length exceeds ``max_length`` (the local ``SETTINGS_MAX_FRAME_SIZE``)
    raises ``FRAME_SIZE_ERROR`` before its body is buffered (RFC 7540
    §4.2).
    """
    frames: List[Frame] = []
    offset = 0
    try:
        with memoryview(buffer) as view:
            total = len(view)
            while total - offset >= FRAME_HEADER_LEN:
                word, flags, stream_id = _HEADER_STRUCT.unpack_from(
                    view, offset
                )
                length = word >> 8
                if length > max_length:
                    raise H2ConnectionError(
                        ErrorCode.FRAME_SIZE_ERROR,
                        f"frame of {length} bytes exceeds "
                        f"SETTINGS_MAX_FRAME_SIZE {max_length}",
                    )
                end = offset + FRAME_HEADER_LEN + length
                if end > total:
                    break
                body = bytes(view[offset + FRAME_HEADER_LEN : end])
                frames.append(
                    _parse_body(word & 0xFF, stream_id & 0x7FFFFFFF,
                                flags, body)
                )
                offset = end
    finally:
        if offset:
            del buffer[:offset]
    return frames


def _error_code(value: int) -> ErrorCode:
    try:
        return ErrorCode(value)
    except ValueError:
        # Unknown error codes are treated as INTERNAL_ERROR (RFC 7540 §7).
        return ErrorCode.INTERNAL_ERROR

"""Events produced by :class:`~repro.h2.connection.H2Connection`.

Feeding received bytes into a connection yields a list of these; they
are the connection's only output channel besides queued outbound bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.h2.errors import ErrorCode

Header = Tuple[str, str]


@dataclass
class Event:
    """Base class for connection events."""


@dataclass
class RequestReceived(Event):
    stream_id: int
    headers: List[Header]
    end_stream: bool


@dataclass
class ResponseReceived(Event):
    stream_id: int
    headers: List[Header]
    end_stream: bool


@dataclass
class DataReceived(Event):
    stream_id: int
    data: bytes
    flow_controlled_length: int
    end_stream: bool


@dataclass
class StreamEnded(Event):
    stream_id: int


@dataclass
class StreamReset(Event):
    stream_id: int
    error_code: ErrorCode
    remote: bool = True


@dataclass
class SettingsReceived(Event):
    settings: Tuple[Tuple[int, int], ...]


@dataclass
class SettingsAcked(Event):
    pass


@dataclass
class OriginReceived(Event):
    """The server advertised its origin set (RFC 8336)."""

    origins: Tuple[str, ...]


@dataclass
class SecondaryCertificateReceived(Event):
    """A complete secondary certificate chain arrived (the §6.5
    alternative to large SANs)."""

    cert_id: int
    chain_data: bytes


@dataclass
class PingReceived(Event):
    opaque: bytes


@dataclass
class PingAcked(Event):
    opaque: bytes


@dataclass
class GoAwayReceived(Event):
    last_stream_id: int
    error_code: ErrorCode
    debug_data: bytes = b""


@dataclass
class WindowUpdated(Event):
    stream_id: int
    delta: int


@dataclass
class UnknownFrameReceived(Event):
    """A frame of unrecognized type arrived and was ignored (RFC 7540
    §4.1 mandates discarding it -- the behaviour the §6.7 middlebox
    got wrong)."""

    raw_type: int
    stream_id: int
    payload_length: int

"""HTTP/2 protocol substrate with ORIGIN frame support (RFC 7540 + 8336).

The package is layered sans-IO-first:

* :mod:`repro.h2.frames` -- wire format serialization/parsing,
  including the ORIGIN frame;
* :mod:`repro.h2.hpack` -- HPACK header compression (RFC 7541);
* :mod:`repro.h2.stream` / :mod:`repro.h2.connection` -- the protocol
  state machines (bytes in, events out);
* :mod:`repro.h2.tls_channel` -- the simulated TLS layer that carries
  frames over :mod:`repro.netsim` transports;
* :mod:`repro.h2.server` / :mod:`repro.h2.client` -- deployable
  endpoints; the server is the ORIGIN-frame implementation the paper
  contributed (§5.3).
"""

from repro.h2.errors import (
    ErrorCode,
    H2Error,
    H2ConnectionError,
    H2StreamError,
    HpackError,
)
from repro.h2.frames import (
    CONNECTION_PREFACE,
    CertificateFrame,
    DataFrame,
    Frame,
    GoAwayFrame,
    HeadersFrame,
    OriginFrame,
    PingFrame,
    PriorityFrame,
    PushPromiseFrame,
    RstStreamFrame,
    SettingsFrame,
    UnknownFrame,
    WindowUpdateFrame,
)
from repro.h2.hpack import HpackDecoder, HpackEncoder
from repro.h2.settings import SettingId, Settings
from repro.h2.stream import Stream, StreamState
from repro.h2.connection import H2Connection, Role
from repro.h2.server import H2Server, ServerConfig, ServerStats
from repro.h2.client import H2ClientSession, H2Response
from repro.h2.tls_channel import TlsClientConfig

__all__ = [
    "ErrorCode",
    "H2Error",
    "H2ConnectionError",
    "H2StreamError",
    "HpackError",
    "CONNECTION_PREFACE",
    "CertificateFrame",
    "DataFrame",
    "Frame",
    "GoAwayFrame",
    "HeadersFrame",
    "OriginFrame",
    "PingFrame",
    "PriorityFrame",
    "PushPromiseFrame",
    "RstStreamFrame",
    "SettingsFrame",
    "UnknownFrame",
    "WindowUpdateFrame",
    "HpackDecoder",
    "HpackEncoder",
    "SettingId",
    "Settings",
    "Stream",
    "StreamState",
    "H2Connection",
    "Role",
    "H2Server",
    "ServerConfig",
    "ServerStats",
    "H2ClientSession",
    "H2Response",
    "TlsClientConfig",
]

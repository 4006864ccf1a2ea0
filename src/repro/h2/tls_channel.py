"""Simulated TLS channel over a netsim transport.

Provides the handshake sequencing, certificate presentation, and record
framing that sit between TCP (:class:`~repro.netsim.transport.Transport`)
and HTTP/2.  Records use a 5-byte header (type + 32-bit length), like
TLS records:

* ``HELLO`` -- ClientHello carrying the (plaintext, unless ECH) SNI and
  the offered version;
* ``CERT`` -- server certificate chain, JSON-encoded and padded to the
  chain's realistic DER size so that transfer timing matches;
* ``KEYX`` -- TLS 1.2 client key exchange (adds the extra round trip);
* ``FINISHED`` -- handshake completion, either direction;
* ``APPDATA`` -- application bytes (HTTP/2 frames);
* ``ALERT`` -- fatal failure (e.g. certificate rejected).

Everything crosses the wire as real bytes, so an on-path interposer
(the §6.7 middlebox model) can parse records and inspect the HTTP/2
frames inside APPDATA without any side channel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.audit.log import NULL_AUDIT
from repro.audit.reasons import ReasonCode
from repro.netsim.transport import Transport
from repro.telemetry import NULL_TRACER
from repro.tlspki.ca import CertificateAuthority
from repro.tlspki.certificate import Certificate
from repro.tlspki.validation import TrustStore, validate_chain

# Record framing is shared with the QUIC-flavored session and the
# middlebox model; re-exported here for existing importers.
from repro.transport.framing import (  # noqa: F401
    REC_ALERT,
    REC_APPDATA,
    REC_CERT,
    REC_FINISHED,
    REC_HELLO,
    REC_KEYX,
    REC_SHELLO,
    REC_TICKET,
    RECORD_HEADER_LEN,
    consume_records,
    pack_record,
)


def serialize_chain(chain: Sequence[Certificate]) -> bytes:
    """JSON chain padded to the realistic wire size of the chain."""
    doc = [
        {
            "subject": c.subject,
            "san": list(c.san),
            "issuer": c.issuer,
            "serial": c.serial,
            "not_before": c.not_before,
            "not_after": c.not_after,
            "is_ca": c.is_ca,
            "public_key": c.public_key.hex(),
            "signature": c.signature.hex(),
        }
        for c in chain
    ]
    raw = json.dumps(doc).encode("utf-8")
    target = sum(c.size_bytes for c in chain)
    if len(raw) < target:
        raw += b"\x00" * (target - len(raw))
    return raw


def deserialize_chain(raw: bytes) -> List[Certificate]:
    text = raw.rstrip(b"\x00").decode("utf-8")
    return [
        Certificate(
            subject=doc["subject"],
            san=tuple(doc["san"]),
            issuer=doc["issuer"],
            serial=doc["serial"],
            not_before=doc["not_before"],
            not_after=doc["not_after"],
            is_ca=doc["is_ca"],
            public_key=bytes.fromhex(doc["public_key"]),
            signature=bytes.fromhex(doc["signature"]),
        )
        for doc in json.loads(text)
    ]


@dataclass
class TlsClientConfig:
    """What a client needs to complete and validate a handshake."""

    sni: str
    trust_store: TrustStore
    authorities: Sequence[CertificateAuthority]
    now: Callable[[], float]
    tls13: bool = True
    ech_enabled: bool = False
    alpn: Tuple[str, ...] = ("h2", "http/1.1")
    #: Shared session-ticket cache (sni -> (ticket, cached chain));
    #: presence of a ticket attempts TLS 1.3 resumption, which skips
    #: certificate transmission and validation entirely.
    session_cache: Optional[dict] = None
    #: Span tracer (:mod:`repro.telemetry`); None means no tracing.
    tracer: Optional[object] = None
    #: Decision-audit log (:mod:`repro.audit`); None means no audit.
    audit: Optional[object] = None


class TicketManager:
    """Server-side session tickets (opaque, in-process)."""

    def __init__(self) -> None:
        self._tickets: dict = {}
        self._counter = 0
        self.resumptions = 0

    def issue(self, sni: str) -> str:
        self._counter += 1
        ticket = f"ticket-{self._counter:08d}"
        self._tickets[ticket] = sni
        return ticket

    def validate(self, ticket: str, sni: str) -> bool:
        ok = self._tickets.get(ticket) == sni
        if ok:
            self.resumptions += 1
        return ok


class TlsChannelError(Exception):
    """Handshake failed (validation error or peer alert)."""


class TlsChannel:
    """One endpoint of the simulated TLS session."""

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self.transport.on_data = self._on_bytes
        self.established = False
        self.negotiated_alpn: Optional[str] = None
        self.on_app_data: Optional[Callable[[bytes], None]] = None
        self.on_established: Optional[Callable[[], None]] = None
        self.on_failed: Optional[Callable[[str], None]] = None
        self._buffer = bytearray()
        #: What an on-path observer saw in the clear ("" if ECH).
        self.observed_sni = ""

    def send_app(self, data: bytes) -> None:
        if not self.established:
            raise TlsChannelError("channel not established")
        self.transport.send(pack_record(REC_APPDATA, data))

    def close(self) -> None:
        if not self.transport.closed:
            self.transport.close()

    def _fail(self, reason: str) -> None:
        if not self.transport.closed:
            self.transport.send(
                pack_record(REC_ALERT, reason.encode("utf-8"))
            )
            self.transport.close()
        if self.on_failed is not None:
            self.on_failed(reason)

    def _on_bytes(self, data: bytes) -> None:
        self._buffer += data
        for record_type, payload in consume_records(self._buffer):
            self._on_record(record_type, payload)

    def _on_record(self, record_type: int, payload: bytes) -> None:
        raise NotImplementedError


class TlsClientChannel(TlsChannel):
    """Client side: sends the hello, validates the presented chain."""

    def __init__(self, transport: Transport, config: TlsClientConfig) -> None:
        super().__init__(transport)
        self.config = config
        self.server_chain: List[Certificate] = []
        self.resumed = False
        self.tracer = config.tracer if config.tracer is not None \
            else NULL_TRACER
        self.audit = config.audit if config.audit is not None \
            else NULL_AUDIT
        self._handshake_span = None

    def start(self) -> None:
        if self.tracer.enabled:
            self._handshake_span = self.tracer.begin(
                "tls.handshake", category="tls", sni=self.config.sni,
                tls13=self.config.tls13, ech=self.config.ech_enabled,
            )
        hello = {
            "sni": "" if self.config.ech_enabled else self.config.sni,
            "real_sni": self.config.sni,
            "tls13": self.config.tls13,
            "alpn": list(self.config.alpn),
        }
        cache = self.config.session_cache
        if cache is not None and self.config.tls13:
            cached = cache.get(self.config.sni)
            if cached is not None:
                hello["ticket"] = cached[0]
        self.observed_sni = hello["sni"]
        self.transport.send(
            pack_record(REC_HELLO, json.dumps(hello).encode("utf-8"))
        )

    def _on_record(self, record_type: int, payload: bytes) -> None:
        if record_type == REC_SHELLO:
            hello = json.loads(payload.decode("utf-8"))
            self.negotiated_alpn = hello.get("alpn")
        elif record_type == REC_CERT:
            self.server_chain = deserialize_chain(payload)
            validate_span = self.tracer.begin(
                "tls.validate", category="tls", sni=self.config.sni,
                chain_len=len(self.server_chain),
            ) if self.tracer.enabled else None
            result = validate_chain(
                self.server_chain,
                self.config.sni,
                self.config.now(),
                self.config.trust_store,
                self.config.authorities,
            )
            if validate_span is not None:
                self.tracer.end(validate_span, ok=result.ok)
            if not result.ok:
                self._fail("; ".join(result.errors))
                return
            if self.config.tls13:
                # Server's Finished rides with the cert flight in 1.3;
                # send ours and we are done.
                self.transport.send(pack_record(REC_FINISHED, b""))
                self._establish()
            else:
                self.transport.send(pack_record(REC_KEYX, b""))
        elif record_type == REC_FINISHED:
            if payload == b"resumed":
                # The server accepted our ticket: restore the cached
                # chain, skip validation, answer with our Finished.
                cache = self.config.session_cache or {}
                cached = cache.get(self.config.sni)
                if cached is not None:
                    self.server_chain = list(cached[1])
                self.resumed = True
                self.transport.send(pack_record(REC_FINISHED, b""))
                self._establish()
            elif not self.config.tls13:
                self._establish()
        elif record_type == REC_TICKET:
            cache = self.config.session_cache
            if cache is not None:
                cache[self.config.sni] = (
                    payload.decode("ascii"), list(self.server_chain),
                )
        elif record_type == REC_ALERT:
            self._end_handshake_span(
                ok=False, error=payload.decode("utf-8", "replace")
            )
            if self.audit.enabled:
                self.audit.record(
                    "tls", ReasonCode.TLS_HANDSHAKE_FAILED,
                    hostname=self.config.sni,
                    error=payload.decode("utf-8", "replace"),
                )
            if self.on_failed is not None:
                self.on_failed(payload.decode("utf-8", "replace"))
            self.close()
        elif record_type == REC_APPDATA:
            if self.on_app_data is not None:
                self.on_app_data(payload)

    def _fail(self, reason: str) -> None:
        self._end_handshake_span(ok=False, error=reason)
        if self.audit.enabled:
            self.audit.record("tls", ReasonCode.TLS_HANDSHAKE_FAILED,
                              hostname=self.config.sni, error=reason)
        super()._fail(reason)

    def _end_handshake_span(self, **attrs) -> None:
        span = self._handshake_span
        if span is not None and not span.finished:
            self.tracer.end(span, **attrs)

    def _establish(self) -> None:
        if self.established:
            return
        self.established = True
        if self.negotiated_alpn is None and self.config.alpn:
            self.negotiated_alpn = self.config.alpn[0]
        self._end_handshake_span(
            ok=True, resumed=self.resumed, alpn=self.negotiated_alpn,
        )
        if self.audit.enabled:
            self.audit.record(
                "tls",
                ReasonCode.TLS_SESSION_RESUMED if self.resumed
                else ReasonCode.TLS_FULL_HANDSHAKE,
                hostname=self.config.sni,
                alpn=self.negotiated_alpn or "",
            )
        if self.on_established is not None:
            self.on_established()


class TlsServerChannel(TlsChannel):
    """Server side: selects a chain by SNI and completes the handshake.

    ``chain_selector`` maps the SNI to the certificate chain to present
    (or ``None`` to refuse with an alert, like a server with no
    matching certificate).
    """

    def __init__(
        self,
        transport: Transport,
        chain_selector: Callable[[str], Optional[Sequence[Certificate]]],
        supported_alpn=("h2",),
        ticket_manager: Optional[TicketManager] = None,
    ) -> None:
        super().__init__(transport)
        self._chain_selector = chain_selector
        #: Either a protocol tuple or a callable ``sni -> tuple`` for
        #: per-hostname protocol support (mixed fleets behind one IP).
        self.supported_alpn = supported_alpn
        self.ticket_manager = ticket_manager
        self.client_sni = ""
        self.client_tls13 = True
        self.negotiated_alpn = None
        self.resumed = False
        #: The client's full ALPN offer, kept so the application layer
        #: can advertise upgrades (Alt-Svc) only to clients that asked.
        self.client_offered_alpn: Tuple[str, ...] = ()

    def _on_record(self, record_type: int, payload: bytes) -> None:
        if record_type == REC_HELLO:
            hello = json.loads(payload.decode("utf-8"))
            self.observed_sni = hello.get("sni", "")
            self.client_sni = hello.get("real_sni") or hello.get("sni", "")
            self.client_tls13 = bool(hello.get("tls13", True))
            offered = hello.get("alpn") or []
            self.client_offered_alpn = tuple(offered)
            supported = self.supported_alpn
            if callable(supported):
                supported = supported(self.client_sni)
            # Server preference order, restricted to the client's offer.
            self.negotiated_alpn = next(
                (p for p in supported if p in offered), None
            )
            if self.negotiated_alpn is None and offered:
                self._fail(
                    f"no common ALPN protocol (offered {offered}, "
                    f"supported {list(self.supported_alpn)})"
                )
                return
            self.transport.send(
                pack_record(
                    REC_SHELLO,
                    json.dumps({"alpn": self.negotiated_alpn}).encode(),
                )
            )
            ticket = hello.get("ticket")
            if (
                ticket
                and self.client_tls13
                and self.ticket_manager is not None
                and self.ticket_manager.validate(ticket, self.client_sni)
            ):
                # PSK resumption: no certificate flight at all.
                self.resumed = True
                self.transport.send(pack_record(REC_FINISHED, b"resumed"))
                return
            chain = self._chain_selector(self.client_sni)
            if chain is None:
                self._fail(f"no certificate for {self.client_sni!r}")
                return
            self.transport.send(
                pack_record(REC_CERT, serialize_chain(chain))
            )
            if self.client_tls13:
                # Finished accompanies the cert flight.
                pass
        elif record_type == REC_KEYX:
            self.transport.send(pack_record(REC_FINISHED, b""))
            self._establish()
        elif record_type == REC_FINISHED:
            # TLS 1.3 client Finished.
            self._establish()
        elif record_type == REC_ALERT:
            if self.on_failed is not None:
                self.on_failed(payload.decode("utf-8", "replace"))
            self.close()
        elif record_type == REC_APPDATA:
            if self.on_app_data is not None:
                self.on_app_data(payload)

    def _establish(self) -> None:
        if self.established:
            return
        self.established = True
        if self.ticket_manager is not None and not self.resumed:
            # Hand the client a ticket for next time (NewSessionTicket).
            self.transport.send(
                pack_record(
                    REC_TICKET,
                    self.ticket_manager.issue(self.client_sni).encode(),
                )
            )
        if self.on_established is not None:
            self.on_established()

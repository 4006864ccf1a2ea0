"""Unit tests for the protocol-agnostic session layer
(:mod:`repro.transport`): record framing, capability records,
endpoints, and the ``tcp-tls`` dialer."""

import numpy as np
import pytest

from repro.h2.client import H2ClientSession
from repro.netsim import EventLoop, Host, LatencyModel, LinkSpec, Network
from repro.tlspki import CertificateAuthority, TrustStore
from repro.transport.base import (
    DEFAULT_MAX_STREAMS,
    Dialer,
    Endpoint,
    Session,
    SessionCapabilities,
    capabilities_of,
)
from repro.transport.framing import (
    REC_APPDATA,
    REC_HELLO,
    consume_records,
    pack_record,
)
from repro.transport.tcp import DEFAULT_ALPN_OFFER, TcpTlsDialer


class TestFraming:
    def test_round_trip(self):
        buffer = bytearray(pack_record(REC_HELLO, b"hello")
                           + pack_record(REC_APPDATA, b"payload"))
        records = consume_records(buffer)
        assert records == [(REC_HELLO, b"hello"),
                           (REC_APPDATA, b"payload")]
        assert buffer == b""

    def test_partial_record_buffered(self):
        wire = pack_record(REC_APPDATA, b"x" * 100)
        buffer = bytearray(wire[:7])
        assert consume_records(buffer) == []
        assert buffer == wire[:7]
        buffer += wire[7:]
        assert consume_records(buffer) == [(REC_APPDATA, b"x" * 100)]
        assert buffer == b""

    def test_empty_payload(self):
        buffer = bytearray(pack_record(REC_HELLO, b""))
        assert consume_records(buffer) == [(REC_HELLO, b"")]
        assert buffer == b""

    def test_shared_with_tls_channel(self):
        # The h2 stack and the middlebox must keep speaking the same
        # wire format as the transport package.
        from repro.h2 import tls_channel

        assert tls_channel.pack_record is pack_record
        assert tls_channel.consume_records is consume_records


class TestSessionCapabilities:
    def test_defaults_are_h1_like(self):
        caps = SessionCapabilities()
        assert caps.alpn == "h2"
        assert caps.max_streams == 1
        assert not caps.can_multiplex
        assert not caps.resumable_across_hostnames
        assert not caps.zero_rtt

    def test_multiplex_follows_stream_budget(self):
        assert SessionCapabilities(max_streams=2).can_multiplex
        assert not SessionCapabilities(max_streams=1).can_multiplex

    def test_frozen(self):
        with pytest.raises(Exception):
            SessionCapabilities().max_streams = 5


class _DuckSession:
    def __init__(self, multiplex):
        self.can_multiplex = multiplex


class TestCapabilitiesOf:
    def test_duck_typed_h2(self):
        caps = capabilities_of(_DuckSession(multiplex=True))
        assert caps.can_multiplex
        assert caps.supports_origin_frame
        assert caps.max_streams == DEFAULT_MAX_STREAMS

    def test_duck_typed_h1(self):
        caps = capabilities_of(_DuckSession(multiplex=False))
        assert not caps.can_multiplex
        assert not caps.supports_origin_frame
        assert caps.alpn == "http/1.1"

    def test_explicit_record_wins(self):
        class Explicit:
            can_multiplex = False
            capabilities = SessionCapabilities(
                alpn="h3", zero_rtt=True, max_streams=7
            )

        caps = capabilities_of(Explicit())
        assert caps.alpn == "h3"
        assert caps.zero_rtt
        assert caps.max_streams == 7

    def test_base_session_class_exposes_record(self):
        assert isinstance(Session.capabilities, SessionCapabilities)


class TestEndpoint:
    def test_defaults(self):
        endpoint = Endpoint("www.a.com")
        assert endpoint == Endpoint("www.a.com", 443, "tcp-tls")

    def test_dialer_endpoint_carries_transport_name(self):
        class FakeDialer(Dialer):
            name = "carrier-pigeon"

        endpoint = FakeDialer().endpoint("www.a.com", 8443)
        assert endpoint.transport == "carrier-pigeon"
        assert endpoint.port == 8443


@pytest.fixture
def tls_world():
    latency = LatencyModel(default=LinkSpec(rtt_ms=20.0,
                                            bandwidth_bpms=1e6))
    network = Network(loop=EventLoop(), latency=latency)
    root = CertificateAuthority("Root CA", rng=np.random.default_rng(7))
    issuer = CertificateAuthority("Edge CA", parent=root,
                                  rng=np.random.default_rng(8))
    trust = TrustStore([root])
    edge = network.add_host(Host("edge", "us-east", ["10.0.0.1"]))
    client = network.add_host(Host("client", "us-east", ["10.8.0.1"]))

    from repro.h2 import H2Server, ServerConfig

    leaf = issuer.issue("www.example.com",
                        ("www.example.com", "static.example.com"))
    server = H2Server(network, edge, ServerConfig(
        chains=[issuer.chain_for(leaf)],
        serves=["www.example.com", "static.example.com"],
    ))
    server.listen("10.0.0.1")
    return network, client, trust, [root, issuer], server


class TestTcpTlsDialer:
    def test_default_offer_is_pre_h3(self):
        assert DEFAULT_ALPN_OFFER == ("h2", "http/1.1")

    def test_dial_produces_h2_session(self, tls_world):
        network, client, trust, authorities, server = tls_world
        dialer = TcpTlsDialer(network, client, trust, authorities)
        session = dialer.dial("www.example.com", "10.0.0.1")
        assert isinstance(session, H2ClientSession)
        session.connect()
        network.loop.run_until_idle()
        assert session.ready
        caps = capabilities_of(session)
        assert caps.alpn == "h2"
        assert caps.can_multiplex
        assert caps.supports_origin_frame
        assert not caps.resumable_across_hostnames

    def test_endpoint_name(self, tls_world):
        network, client, trust, authorities, _ = tls_world
        dialer = TcpTlsDialer(network, client, trust, authorities)
        assert dialer.endpoint("www.example.com", dialer.port) == \
            Endpoint("www.example.com", 443, "tcp-tls")

    def test_per_dial_tls13_override(self, tls_world):
        network, client, trust, authorities, _ = tls_world
        dialer = TcpTlsDialer(network, client, trust, authorities,
                              tls13=True)
        t13 = dialer.dial("www.example.com", "10.0.0.1")
        t12 = dialer.dial("www.example.com", "10.0.0.1", tls13=False)
        assert t13.tls_config.tls13 is True
        assert t12.tls_config.tls13 is False
        # The shared dialer default is untouched by the override.
        assert dialer.tls13 is True

"""End-to-end tests: H2 client and ORIGIN-frame server over netsim."""

import gc
import weakref

import numpy as np
import pytest

from repro.h2 import H2ClientSession, H2Server, ServerConfig, TlsClientConfig
from repro.h2.frames import (
    CONNECTION_PREFACE,
    SettingsFrame,
    WindowUpdateFrame,
    consume_frames,
)
from repro.h2.settings import SettingId
from repro.h2.tls_channel import TlsClientChannel
from repro.netsim import EventLoop, Host, LatencyModel, LinkSpec, Network
from repro.tlspki import CertificateAuthority, TrustStore


@pytest.fixture
def world():
    """A network with one CDN edge serving two hostnames and a client."""
    latency = LatencyModel(default=LinkSpec(rtt_ms=20.0, bandwidth_bpms=1e6))
    network = Network(loop=EventLoop(), latency=latency)
    root = CertificateAuthority("Root CA", rng=np.random.default_rng(7))
    issuer = CertificateAuthority("Edge CA", parent=root,
                                  rng=np.random.default_rng(8))
    trust = TrustStore([root])
    authorities = [root, issuer]

    edge_host = network.add_host(Host("edge", "us-east", ["10.0.0.1"]))
    client_host = network.add_host(Host("client", "us-east", ["10.8.0.1"]))

    leaf = issuer.issue(
        "www.example.com",
        ("www.example.com", "static.example.com", "thirdparty.cdn.com"),
    )
    config = ServerConfig(
        chains=[issuer.chain_for(leaf)],
        serves=["www.example.com", "static.example.com",
                "thirdparty.cdn.com"],
        origin_sets={
            "*": ("https://static.example.com", "https://thirdparty.cdn.com"),
        },
    )
    server = H2Server(network, edge_host, config)
    server.listen("10.0.0.1")

    def make_session(sni="www.example.com", origin_aware=True, tls13=True):
        tls = TlsClientConfig(
            sni=sni,
            trust_store=trust,
            authorities=authorities,
            now=network.loop.now,
            tls13=tls13,
        )
        return H2ClientSession(
            network, client_host, "10.0.0.1", tls,
            origin_aware=origin_aware,
        )

    return network, server, make_session, issuer


def run(network):
    network.loop.run_until_idle()


class TestHandshakeAndRequest:
    def test_simple_get(self, world):
        network, server, make_session, _ = world
        session = make_session()
        responses = []
        session.connect(
            on_ready=lambda: session.request(
                "www.example.com", "/", responses.append
            )
        )
        run(network)
        assert len(responses) == 1
        assert responses[0].status == 200
        assert b"served /" in responses[0].body
        assert server.stats.requests == 1
        assert server.stats.tls_handshakes == 1

    def test_certificate_chain_reaches_client(self, world):
        network, _, make_session, _ = world
        session = make_session()
        session.connect()
        run(network)
        assert session.ready
        leaf = session.leaf_certificate
        assert leaf is not None
        assert leaf.covers("www.example.com")
        assert leaf.covers("thirdparty.cdn.com")

    def test_unknown_sni_fails_handshake(self, world):
        network, _, make_session, _ = world
        session = make_session(sni="unknown.example.org")
        failures = []
        session.connect(on_failed=failures.append)
        run(network)
        assert failures
        assert not session.ready

    def test_tls13_is_faster_than_tls12(self, world):
        network, _, make_session, _ = world
        t13 = make_session(tls13=True)
        t13.connect()
        run(network)
        first_done = t13.connected_at

        t12 = make_session(sni="www.example.com", tls13=False)
        start = network.loop.now()
        t12.connect()
        run(network)
        t12_duration = t12.connected_at - start
        assert t12_duration > first_done  # one extra round trip

    def test_multiplexed_requests_on_one_connection(self, world):
        network, server, make_session, _ = world
        session = make_session()
        responses = []

        def go():
            session.request("www.example.com", "/a", responses.append)
            session.request("www.example.com", "/b", responses.append)
            session.request("static.example.com", "/c", responses.append)

        session.connect(on_ready=go)
        run(network)
        assert [r.status for r in responses] == [200, 200, 200]
        assert server.stats.connections == 1

    def test_client_advertises_chromium_windows(self, world, monkeypatch):
        network, server, make_session, _ = world
        flights = []
        original = TlsClientChannel.send_app

        def record(channel, data):
            flights.append(data)
            original(channel, data)

        monkeypatch.setattr(TlsClientChannel, "send_app", record)
        session = make_session()
        session.connect()
        run(network)
        assert flights[0].startswith(CONNECTION_PREFACE)
        buffer = bytearray(flights[0][len(CONNECTION_PREFACE):])
        frames = consume_frames(buffer)
        assert buffer == b""
        settings, update = frames[:2]
        assert isinstance(settings, SettingsFrame)
        assert (SettingId.INITIAL_WINDOW_SIZE, 6 * 2**20) in \
            settings.settings
        assert isinstance(update, WindowUpdateFrame)
        assert update.stream_id == 0
        assert update.increment == 15 * 2**20 - 65_535
        assert session.conn.connection_recv_window == 15 * 2**20


class TestOriginFrameEndToEnd:
    def test_client_receives_origin_set(self, world):
        network, server, make_session, _ = world
        session = make_session()
        received = []
        session.on_origin_received = received.append
        session.connect()
        run(network)
        assert received == [
            ("https://static.example.com", "https://thirdparty.cdn.com")
        ]
        assert session.origin_set_covers("thirdparty.cdn.com")
        assert not session.origin_set_covers("other.com")
        assert server.stats.origin_frames_sent == 1

    def test_origin_unaware_client_ignores_frame(self, world):
        network, _, make_session, _ = world
        session = make_session(origin_aware=False)
        received = []
        session.on_origin_received = received.append
        responses = []
        session.connect(
            on_ready=lambda: session.request(
                "www.example.com", "/", responses.append
            )
        )
        run(network)
        # Fail-open: no origin set, but traffic is unaffected.
        assert received == []
        assert session.origin_set == frozenset()
        assert responses and responses[0].status == 200

    def test_server_with_origin_disabled_sends_none(self, world):
        network, server, make_session, _ = world
        server.config.send_origin_frames = False
        session = make_session()
        received = []
        session.on_origin_received = received.append
        session.connect()
        run(network)
        assert received == []
        assert server.stats.origin_frames_sent == 0

    def test_coalesced_request_for_origin_set_member(self, world):
        """The paper's core mechanism: one connection serves the third
        party because ORIGIN + certificate SAN authorize it."""
        network, server, make_session, _ = world
        session = make_session()
        responses = []

        def go():
            session.request("www.example.com", "/", responses.append)
            # Same connection, different authority: SNI != Host, the
            # exact signal the passive pipeline flags (paper §5.2).
            session.request("thirdparty.cdn.com", "/lib.js", responses.append)

        session.connect(on_ready=go)
        run(network)
        assert [r.status for r in responses] == [200, 200]
        assert server.stats.connections == 1
        connection = server.connections[0]
        authorities = [authority for _, authority, _
                       in connection.request_log]
        assert "thirdparty.cdn.com" in authorities
        assert connection.sni == "www.example.com"


class TestMisdirectedRequest:
    def test_unserved_authority_gets_421(self, world):
        network, server, make_session, _ = world
        session = make_session()
        responses = []
        session.connect(
            on_ready=lambda: session.request(
                "not-on-this-server.com", "/", responses.append
            )
        )
        run(network)
        assert responses[0].status == 421
        assert server.stats.misdirected == 1

    def test_421_does_not_kill_connection(self, world):
        network, _, make_session, _ = world
        session = make_session()
        responses = []

        def go():
            session.request("not-on-this-server.com", "/",
                            responses.append)
            session.request("www.example.com", "/", responses.append)

        session.connect(on_ready=go)
        run(network)
        assert [r.status for r in responses] == [421, 200]


class TestResponsesNotRetained:
    def test_response_dies_with_its_callback(self, world):
        """The session hands each response to its callback and keeps
        no reference: once the callback returns, the body is garbage
        even though the connection stays open."""
        network, _, make_session, _ = world
        session = make_session()
        refs = []

        def keep_weakly(response):
            assert response.status == 200 and response.body
            refs.append(weakref.ref(response))

        session.connect(on_ready=lambda: session.request(
            "www.example.com", "/", keep_weakly))
        run(network)
        gc.collect()
        assert len(refs) == 1
        assert not session.closed and session.failed is None
        assert refs[0]() is None


class TestConnectionTiming:
    def test_connect_costs_tcp_plus_tls_rtts(self, world):
        network, _, make_session, _ = world
        session = make_session()
        session.connect()
        run(network)
        # TCP (1 RTT) + TLS 1.3 (1 RTT) = 2 x 20ms, plus serialization.
        assert session.connected_at == pytest.approx(40.0, abs=5.0)

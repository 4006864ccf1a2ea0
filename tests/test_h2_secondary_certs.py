"""Secondary certificate frames (§6.5's alternative to large SANs)."""

import numpy as np
import pytest

from repro.h2 import H2ClientSession, H2Server, ServerConfig, \
    TlsClientConfig, UnknownFrame
from repro.h2.frames import (
    CertificateFrame,
    FLAG_TO_BE_CONTINUED,
    TYPE_CERTIFICATE,
    consume_frames,
)
from repro.h2.tls_channel import serialize_chain
from repro.netsim import EventLoop, Host, LatencyModel, LinkSpec, Network
from repro.tlspki import CertificateAuthority, TrustStore


def parse_one(wire):
    buffer = bytearray(wire)
    (frame,) = consume_frames(buffer)
    assert buffer == b""
    return frame


class TestCertificateFrameWire:
    def test_roundtrip(self):
        frame = CertificateFrame(cert_id=3, fragment=b"chunk")
        parsed = parse_one(frame.serialize())
        assert isinstance(parsed, CertificateFrame)
        assert parsed.cert_id == 3
        assert parsed.fragment == b"chunk"
        assert not parsed.to_be_continued

    def test_continuation_flag(self):
        frame = CertificateFrame(cert_id=1, fragment=b"part",
                                 flags=FLAG_TO_BE_CONTINUED)
        parsed = parse_one(frame.serialize())
        assert parsed.to_be_continued

    def test_nonzero_stream_rejected_at_build(self):
        from repro.h2 import H2ConnectionError

        with pytest.raises(H2ConnectionError):
            CertificateFrame(stream_id=3, cert_id=1)

    def test_nonzero_stream_ignored_at_parse(self):
        body = bytes([1]) + b"x"
        header = bytes([0, 0, len(body), TYPE_CERTIFICATE, 0,
                        0, 0, 0, 5])
        parsed = parse_one(header + body)
        assert isinstance(parsed, UnknownFrame)


@pytest.fixture
def world():
    network = Network(
        loop=EventLoop(),
        latency=LatencyModel(default=LinkSpec(rtt_ms=20.0,
                                              bandwidth_bpms=1e5)),
    )
    ca = CertificateAuthority("SC CA", rng=np.random.default_rng(6))
    trust = TrustStore([ca])
    edge = network.add_host(Host("edge", "us", ["10.0.0.1"]))
    client_host = network.add_host(Host("client", "us", ["10.9.0.1"]))

    # The primary certificate covers only the site itself...
    primary = ca.issue("www.example.com", ())
    # ...while a *secondary* chain carries the third party.
    secondary = ca.chain_for(ca.issue("thirdparty.cdn.com", ()))
    config = ServerConfig(
        chains=[ca.chain_for(primary)],
        serves=["www.example.com", "thirdparty.cdn.com"],
        origin_sets={"*": ("https://thirdparty.cdn.com",)},
        secondary_chains={"*": [secondary]},
    )
    server = H2Server(network, edge, config)
    server.listen_all()

    def session(secondary_certs=True):
        tls = TlsClientConfig(
            sni="www.example.com", trust_store=trust, authorities=[ca],
            now=network.loop.now,
        )
        return H2ClientSession(
            network, client_host, "10.0.0.1", tls,
            secondary_certs=secondary_certs,
        )

    return network, server, session, ca, trust


class TestSecondaryCertsEndToEnd:
    def test_client_receives_and_validates_chain(self, world):
        network, _, session, _, _ = world
        client = session()
        received = []
        client.on_secondary_certificate = received.append
        client.connect()
        network.loop.run_until_idle()
        assert len(received) == 1
        assert received[0].subject == "thirdparty.cdn.com"
        assert client.certificate_covers("thirdparty.cdn.com")
        # The primary leaf alone does not cover it.
        assert not client.leaf_certificate.covers("thirdparty.cdn.com")

    def test_coalescing_via_secondary_authority(self, world):
        """ORIGIN set + secondary certificate = coalescing without
        touching the site's primary certificate at all."""
        network, server, session, _, _ = world
        client = session()
        responses = []

        def go():
            client.request("www.example.com", "/", responses.append)
            client.request("thirdparty.cdn.com", "/lib.js",
                           responses.append)

        client.connect(on_ready=go)
        network.loop.run_until_idle()
        assert [r.status for r in responses] == [200, 200]
        assert server.stats.connections == 1
        assert client.origin_set_covers("thirdparty.cdn.com")

    def test_unaware_client_ignores_certificate_frames(self, world):
        network, _, session, _, _ = world
        client = session(secondary_certs=False)
        responses = []
        client.connect(
            on_ready=lambda: client.request("www.example.com", "/",
                                            responses.append)
        )
        network.loop.run_until_idle()
        assert responses[0].status == 200  # fail-open
        assert client.secondary_chains == []
        assert not client.certificate_covers("thirdparty.cdn.com")

    def test_untrusted_secondary_chain_discarded(self, world):
        network, server, session, ca, trust = world
        rogue = CertificateAuthority("Rogue", rng=np.random.default_rng(9))
        rogue_chain = rogue.chain_for(rogue.issue("evil.example.net", ()))
        server.config.secondary_chains["*"] = [rogue_chain]
        client = session()
        client.connect()
        network.loop.run_until_idle()
        assert client.secondary_chains == []
        assert not client.certificate_covers("evil.example.net")

    def test_large_chain_fragments_and_reassembles(self, world):
        network, server, session, ca, _ = world
        from repro.tlspki import IssuancePolicy

        # Issue from the trusted CA so validation passes; lift its SAN
        # cap for this bulk certificate.
        ca.policy = IssuancePolicy(max_san_names=5000)
        names = tuple(f"alt{i:04d}.example.net" for i in range(1500))
        big_leaf = ca.issue("bulk.example.net", names)
        big_chain = ca.chain_for(big_leaf)
        assert len(serialize_chain(big_chain)) > 16_384  # > 1 frame
        server.config.secondary_chains["*"] = [big_chain]
        client = session()
        client.connect()
        network.loop.run_until_idle()
        assert len(client.secondary_chains) == 1
        assert client.certificate_covers("alt0001.example.net")

    def test_primary_handshake_stays_small(self, world):
        """The draft's point: the TLS flight carries only the primary
        certificate; extra authority arrives post-handshake."""
        network, server, session, ca, _ = world
        client = session()
        client.connect()
        network.loop.run_until_idle()
        primary_bytes = sum(c.size_bytes for c in client.server_chain)
        secondary_bytes = sum(
            sum(c.size_bytes for c in chain)
            for chain in client.secondary_chains
        )
        assert secondary_bytes > 0
        # Primary flight did not grow with the secondary authority.
        assert primary_bytes < primary_bytes + secondary_bytes
        assert not client.leaf_certificate.covers("thirdparty.cdn.com")

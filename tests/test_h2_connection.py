"""Tests for the sans-IO connection state machine."""

import pytest

from repro.h2 import (
    CONNECTION_PREFACE,
    ErrorCode,
    H2Connection,
    H2ConnectionError,
    OriginFrame,
    Role,
    StreamState,
    UnknownFrame,
)
from repro.h2 import events as ev
from repro.h2.frames import (
    ContinuationFrame,
    DataFrame,
    FLAG_END_HEADERS,
    GoAwayFrame,
    HeadersFrame,
    PingFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
    consume_frames,
)
from repro.h2.settings import MAX_WINDOW_SIZE, SettingId

REQUEST = [
    (":method", "GET"),
    (":scheme", "https"),
    (":authority", "www.example.com"),
    (":path", "/"),
]
RESPONSE = [(":status", "200"), ("content-type", "text/html")]


def pair(server_origin_set=(), client_origin_aware=True,
         server_origin_aware=True):
    """A connected (client, server) pair with settings exchanged."""
    client = H2Connection(Role.CLIENT, origin_aware=client_origin_aware)
    server = H2Connection(
        Role.SERVER,
        origin_aware=server_origin_aware,
        origin_set=server_origin_set,
    )
    client.initiate()
    server.initiate()
    client_events = pump(server, client)
    server_events = pump(client, server)
    # Flush the SETTINGS ACKs both ways.
    pump(server, client)
    pump(client, server)
    return client, server, client_events, server_events


def pump(sender, receiver):
    """Deliver the sender's queued bytes to the receiver."""
    data = sender.data_to_send()
    if not data:
        return []
    return receiver.receive_data(data)


class TestHandshake:
    def test_client_emits_preface(self):
        client = H2Connection(Role.CLIENT)
        client.initiate()
        assert client.data_to_send().startswith(CONNECTION_PREFACE)

    def test_server_rejects_bad_preface(self):
        server = H2Connection(Role.SERVER)
        server.initiate()
        with pytest.raises(H2ConnectionError):
            server.receive_data(b"GET / HTTP/1.1\r\n\r\n")

    def test_settings_exchange(self):
        _, _, client_events, server_events = pair()
        assert any(isinstance(e, ev.SettingsReceived) for e in client_events)
        assert any(isinstance(e, ev.SettingsReceived) for e in server_events)

    def test_double_initiate_rejected(self):
        client = H2Connection(Role.CLIENT)
        client.initiate()
        with pytest.raises(H2ConnectionError):
            client.initiate()

    def test_preface_accepted_in_pieces(self):
        client = H2Connection(Role.CLIENT)
        server = H2Connection(Role.SERVER)
        client.initiate()
        server.initiate()
        data = client.data_to_send()
        assert server.receive_data(data[:10]) == []
        events = server.receive_data(data[10:])
        assert any(isinstance(e, ev.SettingsReceived) for e in events)


class TestRequestResponse:
    def test_get_roundtrip(self):
        client, server, _, _ = pair()
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        server_events = pump(client, server)
        requests = [e for e in server_events
                    if isinstance(e, ev.RequestReceived)]
        assert len(requests) == 1
        assert requests[0].headers == REQUEST
        assert requests[0].end_stream

        server.send_headers(stream_id, RESPONSE)
        server.send_data(stream_id, b"<html></html>", end_stream=True)
        client_events = pump(server, client)
        assert any(isinstance(e, ev.ResponseReceived) for e in client_events)
        data = [e for e in client_events if isinstance(e, ev.DataReceived)]
        assert data[0].data == b"<html></html>"
        assert any(isinstance(e, ev.StreamEnded) for e in client_events)

    def test_client_stream_ids_are_odd_and_increasing(self):
        client, _, _, _ = pair()
        ids = [client.get_next_stream_id() for _ in range(3)]
        assert ids == [1, 3, 5]

    def test_multiplexed_requests(self):
        client, server, _, _ = pair()
        sid_a = client.get_next_stream_id()
        sid_b = client.get_next_stream_id()
        client.send_headers(sid_a, REQUEST, end_stream=True)
        client.send_headers(sid_b, REQUEST, end_stream=True)
        events = pump(client, server)
        received = [e.stream_id for e in events
                    if isinstance(e, ev.RequestReceived)]
        assert received == [sid_a, sid_b]
        # Respond in reverse order; streams are independent.
        server.send_headers(sid_b, RESPONSE, end_stream=True)
        server.send_headers(sid_a, RESPONSE, end_stream=True)
        client_events = pump(server, client)
        done = [e.stream_id for e in client_events
                if isinstance(e, ev.StreamEnded)]
        assert done == [sid_b, sid_a]

    def test_stream_states_progress(self):
        client, server, _, _ = pair()
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        assert client.stream(stream_id).state is StreamState.HALF_CLOSED_LOCAL
        pump(client, server)
        assert server.stream(stream_id).state is StreamState.HALF_CLOSED_REMOTE
        server.send_headers(stream_id, RESPONSE, end_stream=True)
        assert server.stream(stream_id).state is StreamState.CLOSED
        pump(server, client)
        assert client.stream(stream_id).state is StreamState.CLOSED

    def test_large_body_chunked_to_max_frame_size(self):
        client, server, _, _ = pair()
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        pump(client, server)
        body = b"x" * 40_000  # > 2 frames at 16KB
        server.send_headers(stream_id, RESPONSE)
        server.send_data(stream_id, body, end_stream=True)
        events = pump(server, client)
        chunks = [e.data for e in events if isinstance(e, ev.DataReceived)]
        assert len(chunks) == 3
        assert b"".join(chunks) == body


class TestOrigin:
    def test_server_advertises_origin_set_on_initiate(self):
        origins = ("https://example.com", "https://cdn.example.com")
        client, server, client_events, _ = pair(server_origin_set=origins)
        received = [e for e in client_events
                    if isinstance(e, ev.OriginReceived)]
        assert len(received) == 1
        assert received[0].origins == origins
        assert client.remote_origin_set == set(origins)

    def test_send_origin_replaces_set(self):
        client, server, _, _ = pair(server_origin_set=("https://a.com",))
        server.send_origin(("https://b.com",))
        pump(server, client)
        assert client.remote_origin_set == {"https://b.com"}

    def test_client_cannot_send_origin(self):
        client, _, _, _ = pair()
        with pytest.raises(H2ConnectionError):
            client.send_origin(("https://a.com",))

    def test_unaware_client_ignores_origin(self):
        client, server, client_events, _ = pair(
            server_origin_set=("https://a.com",),
            client_origin_aware=False,
        )
        assert not any(isinstance(e, ev.OriginReceived)
                       for e in client_events)
        unknown = [e for e in client_events
                   if isinstance(e, ev.UnknownFrameReceived)]
        assert len(unknown) == 1
        assert client.remote_origin_set == set()

    def test_connection_survives_ignored_origin(self):
        # The fail-open behaviour §6.7's middlebox violated.
        client, server, _, _ = pair(
            server_origin_set=("https://a.com",),
            client_origin_aware=False,
        )
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        events = pump(client, server)
        assert any(isinstance(e, ev.RequestReceived) for e in events)


class TestUnknownFrames:
    def test_unknown_frame_ignored_with_event(self):
        client, server, _, _ = pair()
        wire = UnknownFrame(stream_id=0, raw_type=0xEE,
                            raw_payload=b"abc").serialize()
        events = client.receive_data(wire)
        assert len(events) == 1
        assert isinstance(events[0], ev.UnknownFrameReceived)
        assert events[0].raw_type == 0xEE

    def test_traffic_continues_after_unknown_frame(self):
        client, server, _, _ = pair()
        client.receive_data(
            UnknownFrame(stream_id=0, raw_type=0xEE).serialize()
        )
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        assert any(isinstance(e, ev.RequestReceived)
                   for e in pump(client, server))


class TestErrors:
    def test_data_on_stream_zero_is_fatal(self):
        client, _, _, _ = pair()
        wire = DataFrame(stream_id=0, data=b"x").serialize()
        with pytest.raises(H2ConnectionError):
            client.receive_data(wire)
        # A GOAWAY must have been queued.
        assert client.data_to_send()  # non-empty

    def test_data_for_unknown_stream_is_fatal(self):
        client, _, _, _ = pair()
        wire = DataFrame(stream_id=99, data=b"x").serialize()
        with pytest.raises(H2ConnectionError):
            client.receive_data(wire)

    def test_rst_stream_event(self):
        client, server, _, _ = pair()
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        pump(client, server)
        server.send_rst_stream(stream_id, ErrorCode.REFUSED_STREAM)
        events = pump(server, client)
        resets = [e for e in events if isinstance(e, ev.StreamReset)]
        assert resets[0].error_code is ErrorCode.REFUSED_STREAM
        assert client.stream(stream_id).closed

    def test_goaway_event(self):
        client, server, _, _ = pair()
        server.send_goaway(ErrorCode.ENHANCE_YOUR_CALM, debug=b"slow down")
        events = pump(server, client)
        goaways = [e for e in events if isinstance(e, ev.GoAwayReceived)]
        assert goaways[0].error_code is ErrorCode.ENHANCE_YOUR_CALM
        assert goaways[0].debug_data == b"slow down"

    def test_cannot_send_after_goaway(self):
        client, _, _, _ = pair()
        client.send_goaway()
        with pytest.raises(H2ConnectionError):
            client.send_headers(client.get_next_stream_id(), REQUEST)

    def test_oversized_frame_header_is_fatal(self):
        # A 16 MiB length header must not be buffered while the body
        # trickles in: RFC 7540 §4.2 makes it a FRAME_SIZE_ERROR.
        client, _, _, _ = pair()
        header = (2**24 - 1).to_bytes(3, "big") + bytes([0x0, 0x0]) + \
            (1).to_bytes(4, "big")
        with pytest.raises(H2ConnectionError) as raised:
            client.receive_data(header + b"x" * 100)
        assert raised.value.code is ErrorCode.FRAME_SIZE_ERROR
        assert goaway_code(client) is ErrorCode.FRAME_SIZE_ERROR

    def test_zero_window_update_is_fatal(self):
        client, _, _, _ = pair()
        wire = WindowUpdateFrame(stream_id=0, increment=0).serialize()
        with pytest.raises(H2ConnectionError):
            client.receive_data(wire)

    def test_interleaved_frame_during_continuation_is_fatal(self):
        client, server, _, _ = pair()
        from repro.h2.hpack import HpackEncoder
        block = HpackEncoder().encode(REQUEST)
        headers = HeadersFrame(stream_id=1, flags=0, header_block=block[:3])
        ping = PingFrame()
        with pytest.raises(H2ConnectionError):
            server.receive_data(headers.serialize() + ping.serialize())

    def test_continuation_completes_header_block(self):
        client, server, _, _ = pair()
        from repro.h2.hpack import HpackEncoder
        block = HpackEncoder().encode(REQUEST)
        first = HeadersFrame(stream_id=1, flags=0, header_block=block[:3])
        rest = ContinuationFrame(stream_id=1, flags=FLAG_END_HEADERS,
                                 header_block=block[3:])
        events = server.receive_data(first.serialize() + rest.serialize())
        requests = [e for e in events if isinstance(e, ev.RequestReceived)]
        assert requests and requests[0].headers == REQUEST


def open_response(client, server):
    """A stream whose response headers the server has sent."""
    stream_id = client.get_next_stream_id()
    client.send_headers(stream_id, REQUEST, end_stream=True)
    pump(client, server)
    server.send_headers(stream_id, RESPONSE)
    return stream_id


def window_updates(events):
    return [(e.stream_id, e.delta) for e in events
            if isinstance(e, ev.WindowUpdated)]


def goaway_code(endpoint):
    """The error code of the GOAWAY ``endpoint`` has queued."""
    frames = consume_frames(bytearray(endpoint.data_to_send()))
    goaways = [f for f in frames if isinstance(f, GoAwayFrame)]
    assert len(goaways) == 1
    return goaways[0].error_code


class TestFlowControl:
    def test_send_window_decrements(self):
        client, server, _, _ = pair()
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        pump(client, server)
        before = server.connection_send_window
        server.send_headers(stream_id, RESPONSE)
        server.send_data(stream_id, b"x" * 1000, end_stream=True)
        assert server.connection_send_window == before - 1000

    def test_receiver_replenishes_windows(self):
        client, server, _, _ = pair()
        stream_id = open_response(client, server)
        half = 65_535 // 2
        # Down to just above half of either window: no update yet.
        server.send_data(stream_id, b"x" * (65_535 - half - 1))
        pump(server, client)
        assert window_updates(pump(client, server)) == []
        # One more byte reaches half: one update per window restores
        # each to its 65,535-byte target.
        server.send_data(stream_id, b"x")
        pump(server, client)
        assert client.connection_recv_window == 65_535
        assert client.stream(stream_id).recv_window == 65_535
        assert window_updates(pump(client, server)) == [
            (0, 65_535 - half), (stream_id, 65_535 - half),
        ]
        # Both windows reach half again on the stream's last byte: the
        # closed stream gets no update, the connection does.
        server.send_data(stream_id, b"x" * (65_535 - half - 1))
        server.send_data(stream_id, b"x", end_stream=True)
        pump(server, client)
        assert client.stream(stream_id).closed
        assert window_updates(pump(client, server)) == [(0, 65_535 - half)]

    def test_peer_initial_window_change_adjusts_open_streams(self):
        client, server, _, _ = pair()
        stream_id = open_response(client, server)
        server.receive_data(WindowUpdateFrame(
            stream_id=0, increment=100_000).serialize())
        server.send_data(stream_id, b"x" * 70_000, end_stream=True)
        # The stream window is exhausted; the rest waits in the queue.
        assert server.stream(stream_id).send_window == 0
        # The client raises INITIAL_WINDOW_SIZE by 34,465 bytes: the
        # open stream's send window grows by as much and the queue
        # drains (RFC 7540 §6.9.2).
        server.receive_data(SettingsFrame(
            settings=((SettingId.INITIAL_WINDOW_SIZE, 100_000),)
        ).serialize())
        assert server.stream(stream_id).send_window == 100_000 - 70_000
        events = pump(server, client)
        assert sum(e.flow_controlled_length for e in events
                   if isinstance(e, ev.DataReceived)) == 70_000
        assert any(isinstance(e, ev.StreamEnded) for e in events)

    def test_initial_window_change_overflowing_a_stream_is_fatal(self):
        client, server, _, _ = pair()
        stream_id = open_response(client, server)
        client.send_window_update(stream_id, MAX_WINDOW_SIZE - 65_535)
        pump(client, server)
        assert server.stream(stream_id).send_window == MAX_WINDOW_SIZE
        with pytest.raises(H2ConnectionError) as raised:
            server.receive_data(SettingsFrame(
                settings=((SettingId.INITIAL_WINDOW_SIZE, 65_536),)
            ).serialize())
        assert raised.value.code is ErrorCode.FLOW_CONTROL_ERROR
        assert goaway_code(server) is ErrorCode.FLOW_CONTROL_ERROR

    def test_stream_window_update_overflow_resets_the_stream(self):
        client, server, _, _ = pair()
        stream_id = open_response(client, server)
        events = server.receive_data(WindowUpdateFrame(
            stream_id=stream_id, increment=MAX_WINDOW_SIZE
        ).serialize())
        resets = [e for e in events if isinstance(e, ev.StreamReset)]
        assert resets[0].error_code is ErrorCode.FLOW_CONTROL_ERROR
        assert server.stream(stream_id).closed
        client_events = pump(server, client)
        assert any(isinstance(e, ev.StreamReset)
                   and e.error_code is ErrorCode.FLOW_CONTROL_ERROR
                   for e in client_events)

    def test_connection_window_update_overflow_is_fatal(self):
        _, server, _, _ = pair()
        with pytest.raises(H2ConnectionError) as raised:
            server.receive_data(WindowUpdateFrame(
                stream_id=0, increment=MAX_WINDOW_SIZE
            ).serialize())
        assert raised.value.code is ErrorCode.FLOW_CONTROL_ERROR
        assert goaway_code(server) is ErrorCode.FLOW_CONTROL_ERROR

    def test_ping_is_acked(self):
        client, server, _, _ = pair()
        client.send_ping(b"abcdefgh")
        events = pump(client, server)
        assert any(isinstance(e, ev.PingReceived) for e in events)
        client_events = pump(server, client)
        acks = [e for e in client_events if isinstance(e, ev.PingAcked)]
        assert acks[0].opaque == b"abcdefgh"

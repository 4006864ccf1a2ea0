"""HTTP/2 connection state machine.

Sans-IO design: bytes in via :meth:`H2Connection.receive_data` (which
returns events), bytes out via :meth:`data_to_send`.  The transport --
simulated TLS over :mod:`repro.netsim` here -- is someone else's job,
which keeps the protocol core synchronously testable.

ORIGIN frame behaviour (RFC 8336):

* a server constructed with ``origin_set`` advertises it right after
  its SETTINGS frame;
* a client surfaces :class:`~repro.h2.events.OriginReceived` and keeps
  the accumulated origin set on :attr:`remote_origin_set`;
* endpoints built with ``origin_aware=False`` treat ORIGIN as an
  unknown frame and ignore it, which is the spec-mandated fail-open
  the paper relies on (§4.3, §6.7).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.h2 import frames as fr
from repro.h2 import events as ev
from repro.h2.errors import (
    ErrorCode,
    H2ConnectionError,
    H2StreamError,
    HpackError,
)
from repro.h2.hpack import HpackDecoder, HpackEncoder
from repro.h2.settings import MAX_WINDOW_SIZE, SettingId, Settings
from repro.h2.stream import Stream, StreamState

Header = Tuple[str, str]


class Role(enum.Enum):
    CLIENT = "client"
    SERVER = "server"


class H2Connection:
    """One endpoint of an HTTP/2 connection."""

    def __init__(
        self,
        role: Role,
        origin_aware: bool = True,
        origin_set: Sequence[str] = (),
        secondary_certs_aware: bool = False,
    ) -> None:
        self.role = role
        self.origin_aware = origin_aware
        self.secondary_certs_aware = secondary_certs_aware
        #: Reassembly buffers for fragmented CERTIFICATE frames.
        self._certificate_buffers: Dict[int, bytearray] = {}
        #: Origins this endpoint will advertise (server only).
        self.local_origin_set: Tuple[str, ...] = tuple(origin_set)
        #: Origins the peer has advertised on this connection.
        self.remote_origin_set: Set[str] = set()
        self.local_settings = Settings()
        self.remote_settings = Settings()
        self._streams: Dict[int, Stream] = {}
        self._next_stream_id = 1 if role is Role.CLIENT else 2
        self._highest_remote_stream = 0
        self._outbound = bytearray()
        self._recv_buffer = bytearray()
        self._preface_remaining = (
            fr.CONNECTION_PREFACE if role is Role.SERVER else b""
        )
        self._encoder = HpackEncoder()
        self._decoder = HpackDecoder()
        self._initiated = False
        self._goaway_sent = False
        self._expected_continuation: Optional[Tuple[int, bytearray, bool]] = None
        self.connection_send_window = self.remote_settings.initial_window_size
        self.connection_recv_window = self.local_settings.initial_window_size
        #: The largest connection receive window this endpoint has
        #: opened; lazy replenishment restores the window to it.
        self._connection_recv_target = self.connection_recv_window
        #: DATA blocked on flow control, drained as windows reopen.
        self._send_queue: Deque[Tuple[int, bytes, bool]] = deque()

    # -- lifecycle --------------------------------------------------------

    def initiate(self, settings: Sequence[Tuple[int, int]] = ()) -> None:
        """Send the preface (client) and initial SETTINGS.

        A server with a configured origin set sends its ORIGIN frame
        immediately after SETTINGS, on stream 0, as RFC 8336 suggests
        doing "as early as possible".
        """
        if self._initiated:
            raise H2ConnectionError(
                ErrorCode.INTERNAL_ERROR, "connection already initiated"
            )
        self._initiated = True
        if self.role is Role.CLIENT:
            self._outbound += fr.CONNECTION_PREFACE
        self._send_frame(fr.SettingsFrame(settings=tuple(settings)))
        for identifier, value in settings:
            self.local_settings.apply(identifier, value)
        if self.role is Role.SERVER and self.origin_aware and self.local_origin_set:
            self.send_origin(self.local_origin_set)

    def data_to_send(self) -> bytes:
        """Drain queued outbound bytes."""
        data = bytes(self._outbound)
        self._outbound.clear()
        return data

    def stream(self, stream_id: int) -> Optional[Stream]:
        return self._streams.get(stream_id)

    # -- sending ------------------------------------------------------------

    def get_next_stream_id(self) -> int:
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        return stream_id

    def _get_or_create_stream(self, stream_id: int) -> Stream:
        stream = self._streams.get(stream_id)
        if stream is None:
            stream = Stream(
                stream_id,
                send_window=self.remote_settings.initial_window_size,
                recv_window=self.local_settings.initial_window_size,
            )
            self._streams[stream_id] = stream
        return stream

    def send_headers(
        self,
        stream_id: int,
        headers: Sequence[Header],
        end_stream: bool = False,
    ) -> None:
        if self._goaway_sent:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "connection is going away"
            )
        stream = self._get_or_create_stream(stream_id)
        stream.send_headers(end_stream)
        block = self._encoder.encode(headers)
        flags = fr.FLAG_END_HEADERS | (
            fr.FLAG_END_STREAM if end_stream else 0
        )
        self._send_frame(
            fr.HeadersFrame(stream_id=stream_id, flags=flags,
                            header_block=block)
        )

    def send_data(
        self, stream_id: int, data: bytes, end_stream: bool = False
    ) -> None:
        """Send DATA, queueing whatever flow control will not yet admit.

        Queued bytes drain automatically as WINDOW_UPDATE frames arrive;
        callers never see flow-control errors for well-behaved peers.
        """
        stream = self._streams.get(stream_id)
        if stream is None:
            raise H2StreamError(
                stream_id, ErrorCode.STREAM_CLOSED, "no such stream"
            )
        self._send_queue.append((stream_id, data, end_stream))
        self._drain_send_queue()

    def _drain_send_queue(self) -> None:
        """Emit as much queued DATA as the current windows admit.

        Entries blocked only on their *stream* window are rotated to
        the back so one stalled stream cannot head-of-line-block the
        rest of the connection.
        """
        queue = self._send_queue
        if not queue:
            return
        max_frame = self.remote_settings.max_frame_size
        streams = self._streams
        skipped = 0
        while queue and skipped < len(queue):
            stream_id, data, end_stream = queue[0]
            stream = streams.get(stream_id)
            if stream is None or stream.closed:
                queue.popleft()
                continue
            if data and self.connection_send_window <= 0:
                return  # nothing can move until a connection update
            if data and stream.send_window <= 0:
                queue.rotate(-1)
                skipped += 1
                continue
            budget = min(self.connection_send_window, stream.send_window)
            chunk = data[: min(budget, max_frame)] if data else b""
            rest = data[len(chunk):]
            last = not rest
            stream.send_data(len(chunk), end_stream and last)
            self.connection_send_window -= len(chunk)
            flags = fr.FLAG_END_STREAM if (end_stream and last) else 0
            self._send_frame(
                fr.DataFrame(stream_id=stream_id, flags=flags, data=chunk)
            )
            skipped = 0
            if rest:
                queue[0] = (stream_id, rest, end_stream)
            else:
                queue.popleft()

    def send_origin(self, origins: Sequence[str]) -> None:
        """Advertise an origin set (server, stream 0)."""
        if self.role is not Role.SERVER:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                "only servers send ORIGIN frames (RFC 8336 §2)",
            )
        self.local_origin_set = tuple(origins)
        self._send_frame(fr.OriginFrame(origins=tuple(origins)))

    def send_rst_stream(
        self, stream_id: int, code: ErrorCode = ErrorCode.CANCEL
    ) -> None:
        stream = self._get_or_create_stream(stream_id)
        stream.reset(code)
        self._send_frame(
            fr.RstStreamFrame(stream_id=stream_id, error_code=code)
        )

    def send_goaway(
        self, code: ErrorCode = ErrorCode.NO_ERROR, debug: bytes = b""
    ) -> None:
        self._goaway_sent = True
        self._send_frame(
            fr.GoAwayFrame(
                last_stream_id=self._highest_remote_stream,
                error_code=code,
                debug_data=debug,
            )
        )

    def send_ping(self, opaque: bytes = b"\x00" * 8) -> None:
        self._send_frame(fr.PingFrame(opaque=opaque))

    def send_window_update(self, stream_id: int, increment: int) -> None:
        if stream_id:
            stream = self._streams.get(stream_id)
            if stream is not None:
                stream.replenish_recv_window(increment)
        else:
            self.connection_recv_window += increment
            if self.connection_recv_window > self._connection_recv_target:
                self._connection_recv_target = self.connection_recv_window
        self._send_frame(
            fr.WindowUpdateFrame(stream_id=stream_id, increment=increment)
        )

    def _send_frame(self, frame: fr.Frame) -> None:
        frame.serialize_into(self._outbound)

    # -- receiving ------------------------------------------------------------

    def receive_data(self, data: bytes) -> List[ev.Event]:
        """Feed wire bytes; returns the events they produced.

        Protocol violations raise :class:`H2ConnectionError` after
        queueing a GOAWAY, mirroring how a real endpoint fails.
        """
        events: List[ev.Event] = []
        buffer = self._recv_buffer
        buffer += data
        if self._preface_remaining:
            take = min(len(buffer), len(self._preface_remaining))
            if buffer[:take] != self._preface_remaining[:take]:
                raise H2ConnectionError(
                    ErrorCode.PROTOCOL_ERROR, "bad connection preface"
                )
            self._preface_remaining = self._preface_remaining[take:]
            del buffer[:take]
        try:
            parsed = fr.consume_frames(
                buffer, self.local_settings.max_frame_size
            )
            for frame in parsed:
                events.extend(self._handle_frame(frame))
        except H2ConnectionError as error:
            self.send_goaway(error.code)
            raise
        return events

    def _handle_frame(self, frame: fr.Frame) -> List[ev.Event]:
        if self._expected_continuation is not None and not isinstance(
            frame, fr.ContinuationFrame
        ):
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                "interleaved frame while expecting CONTINUATION",
            )
        handler = _FRAME_DISPATCH.get(frame.__class__)
        if handler is not None:
            return handler(self, frame)
        # Frame subclasses (e.g. from tests) fall back to isinstance
        # resolution against the same handlers.
        for frame_class, isinstance_handler in _FRAME_DISPATCH.items():
            if isinstance(frame, frame_class):
                return isinstance_handler(self, frame)
        raise H2ConnectionError(
            ErrorCode.INTERNAL_ERROR, f"unhandled frame {frame!r}"
        )

    def _on_goaway(self, frame: fr.GoAwayFrame) -> List[ev.Event]:
        return [
            ev.GoAwayReceived(
                last_stream_id=frame.last_stream_id,
                error_code=frame.error_code,
                debug_data=frame.debug_data,
            )
        ]

    def _on_priority(self, frame: fr.PriorityFrame) -> List[ev.Event]:
        return []  # parsed, scheduling hints unused

    def _on_push_promise(self, frame: fr.PushPromiseFrame) -> List[ev.Event]:
        if not self.local_settings.enable_push:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "push is disabled"
            )
        return []

    def _on_unknown(self, frame: fr.UnknownFrame) -> List[ev.Event]:
        # RFC 7540 §4.1: ignore and discard.
        return [
            ev.UnknownFrameReceived(
                raw_type=frame.raw_type,
                stream_id=frame.stream_id,
                payload_length=len(frame.raw_payload),
            )
        ]

    def _on_data(self, frame: fr.DataFrame) -> List[ev.Event]:
        if frame.stream_id == 0:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "DATA on stream 0"
            )
        stream = self._streams.get(frame.stream_id)
        if stream is None:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                f"DATA for unknown stream {frame.stream_id}",
            )
        length = frame.flow_controlled_length
        if length > self.connection_recv_window:
            raise H2ConnectionError(
                ErrorCode.FLOW_CONTROL_ERROR,
                "connection receive window overflow",
            )
        self.connection_recv_window -= length
        try:
            stream.receive_data(length, frame.end_stream)
        except H2StreamError as error:
            self.send_rst_stream(frame.stream_id, error.code)
            return [ev.StreamReset(frame.stream_id, error.code, remote=False)]
        events: List[ev.Event] = [
            ev.DataReceived(
                stream_id=frame.stream_id,
                data=frame.data,
                flow_controlled_length=length,
                end_stream=frame.end_stream,
            )
        ]
        # Replenish lazily, as browsers and python-hyper/h2's
        # WindowManager do: once a window has fallen to half its
        # target, one WINDOW_UPDATE restores it in full.  A stream
        # that has ended takes no more DATA, so it gets no update.
        if length:
            target = self._connection_recv_target
            if self.connection_recv_window <= target // 2:
                self.send_window_update(
                    0, target - self.connection_recv_window
                )
            target = self.local_settings.initial_window_size
            if not frame.end_stream and stream.recv_window <= target // 2:
                self.send_window_update(
                    frame.stream_id, target - stream.recv_window
                )
        if frame.end_stream:
            events.append(ev.StreamEnded(frame.stream_id))
        return events

    def _on_headers(self, frame: fr.HeadersFrame) -> List[ev.Event]:
        if frame.stream_id == 0:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "HEADERS on stream 0"
            )
        if not frame.end_headers:
            self._expected_continuation = (
                frame.stream_id,
                bytearray(frame.header_block),
                frame.end_stream,
            )
            return []
        return self._complete_headers(
            frame.stream_id, bytes(frame.header_block), frame.end_stream
        )

    def _on_continuation(self, frame: fr.ContinuationFrame) -> List[ev.Event]:
        if self._expected_continuation is None:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "unexpected CONTINUATION"
            )
        stream_id, block, end_stream = self._expected_continuation
        if frame.stream_id != stream_id:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                f"CONTINUATION for stream {frame.stream_id}, "
                f"expected {stream_id}",
            )
        block += frame.header_block
        if not frame.end_headers:
            self._expected_continuation = (stream_id, block, end_stream)
            return []
        self._expected_continuation = None
        return self._complete_headers(stream_id, bytes(block), end_stream)

    def _complete_headers(
        self, stream_id: int, block: bytes, end_stream: bool
    ) -> List[ev.Event]:
        try:
            headers = self._decoder.decode(block)
        except HpackError as error:
            raise H2ConnectionError(
                ErrorCode.COMPRESSION_ERROR, str(error)
            ) from error
        remote_initiated = (stream_id % 2 == 1) == (self.role is Role.SERVER)
        if remote_initiated and stream_id > self._highest_remote_stream:
            self._highest_remote_stream = stream_id
        stream = self._get_or_create_stream(stream_id)
        try:
            stream.receive_headers(end_stream)
        except H2StreamError as error:
            self.send_rst_stream(stream_id, error.code)
            return [ev.StreamReset(stream_id, error.code, remote=False)]
        if self.role is Role.SERVER:
            events: List[ev.Event] = [
                ev.RequestReceived(stream_id, headers, end_stream)
            ]
        else:
            events = [ev.ResponseReceived(stream_id, headers, end_stream)]
        if end_stream:
            events.append(ev.StreamEnded(stream_id))
        return events

    def _on_settings(self, frame: fr.SettingsFrame) -> List[ev.Event]:
        if frame.is_ack:
            return [ev.SettingsAcked()]
        for identifier, value in frame.settings:
            previous_window = self.remote_settings.initial_window_size
            self.remote_settings.apply(identifier, value)
            if identifier == SettingId.HEADER_TABLE_SIZE:
                self._encoder.set_max_table_size(value)
            elif identifier == SettingId.INITIAL_WINDOW_SIZE:
                self._adjust_stream_send_windows(value - previous_window)
        self._send_frame(fr.SettingsFrame(flags=fr.FLAG_ACK))
        self._drain_send_queue()
        return [ev.SettingsReceived(settings=frame.settings)]

    def _adjust_stream_send_windows(self, delta: int) -> None:
        """Apply a change of the peer's INITIAL_WINDOW_SIZE to every
        open stream's send window (RFC 7540 §6.9.2)."""
        for stream in self._streams.values():
            if stream.closed:
                continue
            stream.send_window += delta
            if stream.send_window > MAX_WINDOW_SIZE:
                raise H2ConnectionError(
                    ErrorCode.FLOW_CONTROL_ERROR,
                    f"INITIAL_WINDOW_SIZE change overflows the send "
                    f"window of stream {stream.stream_id}",
                )

    def _on_rst(self, frame: fr.RstStreamFrame) -> List[ev.Event]:
        if frame.stream_id == 0:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "RST_STREAM on stream 0"
            )
        stream = self._streams.get(frame.stream_id)
        if stream is None:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                f"RST_STREAM for idle stream {frame.stream_id}",
            )
        stream.reset(frame.error_code)
        return [ev.StreamReset(frame.stream_id, frame.error_code)]

    def _on_ping(self, frame: fr.PingFrame) -> List[ev.Event]:
        if frame.is_ack:
            return [ev.PingAcked(opaque=frame.opaque)]
        self._send_frame(
            fr.PingFrame(flags=fr.FLAG_ACK, opaque=frame.opaque)
        )
        return [ev.PingReceived(opaque=frame.opaque)]

    def _on_window_update(self, frame: fr.WindowUpdateFrame) -> List[ev.Event]:
        if frame.increment == 0:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "WINDOW_UPDATE with zero increment"
            )
        if frame.stream_id == 0:
            window = self.connection_send_window + frame.increment
            if window > MAX_WINDOW_SIZE:
                raise H2ConnectionError(
                    ErrorCode.FLOW_CONTROL_ERROR,
                    "WINDOW_UPDATE overflows the connection send window",
                )
            self.connection_send_window = window
        else:
            stream = self._streams.get(frame.stream_id)
            if stream is not None and not stream.closed:
                try:
                    stream.window_update(frame.increment)
                except H2StreamError as error:
                    self.send_rst_stream(frame.stream_id, error.code)
                    return [ev.StreamReset(frame.stream_id, error.code,
                                           remote=False)]
        self._drain_send_queue()
        return [ev.WindowUpdated(frame.stream_id, frame.increment)]

    def send_certificate(self, cert_id: int, chain_data: bytes) -> None:
        """Provide a secondary certificate chain on stream 0 (server),
        fragmenting to the peer's max frame size."""
        if self.role is not Role.SERVER:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                "only servers provide secondary certificates here",
            )
        max_fragment = self.remote_settings.max_frame_size - 1
        chunks = [
            chain_data[i : i + max_fragment]
            for i in range(0, len(chain_data), max_fragment)
        ] or [b""]
        for index, chunk in enumerate(chunks):
            last = index == len(chunks) - 1
            flags = 0 if last else fr.FLAG_TO_BE_CONTINUED
            self._send_frame(
                fr.CertificateFrame(flags=flags, cert_id=cert_id,
                                    fragment=chunk)
            )

    def _on_certificate(self, frame: fr.CertificateFrame) -> List[ev.Event]:
        if not self.secondary_certs_aware:
            # Fail-open, exactly like an unknown frame type.
            return [
                ev.UnknownFrameReceived(
                    raw_type=fr.TYPE_CERTIFICATE,
                    stream_id=frame.stream_id,
                    payload_length=len(frame.payload()),
                )
            ]
        buffer = self._certificate_buffers.setdefault(
            frame.cert_id, bytearray()
        )
        buffer += frame.fragment
        if frame.to_be_continued:
            return []
        chain_data = bytes(self._certificate_buffers.pop(frame.cert_id))
        return [
            ev.SecondaryCertificateReceived(
                cert_id=frame.cert_id, chain_data=chain_data
            )
        ]

    def _on_origin(self, frame: fr.OriginFrame) -> List[ev.Event]:
        if not self.origin_aware:
            # Fail-open: an ORIGIN-unaware endpoint must treat the
            # frame as unknown and ignore it.
            return [
                ev.UnknownFrameReceived(
                    raw_type=fr.TYPE_ORIGIN,
                    stream_id=frame.stream_id,
                    payload_length=len(frame.payload()),
                )
            ]
        if self.role is Role.SERVER:
            # Clients don't send ORIGIN; ignore per RFC 8336 §2.
            return []
        # RFC 8336 §2.3: the frame replaces the origin set.
        self.remote_origin_set = set(frame.origins)
        return [ev.OriginReceived(origins=frame.origins)]


#: Exact-type frame dispatch, ordered like the original isinstance
#: chain so the subclass fallback in ``_handle_frame`` resolves the
#: same way the chain did.
_FRAME_DISPATCH = {
    fr.DataFrame: H2Connection._on_data,
    fr.HeadersFrame: H2Connection._on_headers,
    fr.ContinuationFrame: H2Connection._on_continuation,
    fr.SettingsFrame: H2Connection._on_settings,
    fr.RstStreamFrame: H2Connection._on_rst,
    fr.PingFrame: H2Connection._on_ping,
    fr.GoAwayFrame: H2Connection._on_goaway,
    fr.WindowUpdateFrame: H2Connection._on_window_update,
    fr.OriginFrame: H2Connection._on_origin,
    fr.CertificateFrame: H2Connection._on_certificate,
    fr.PriorityFrame: H2Connection._on_priority,
    fr.PushPromiseFrame: H2Connection._on_push_promise,
    fr.UnknownFrame: H2Connection._on_unknown,
}

"""Per-stream state machine (RFC 7540 §5.1)."""

from __future__ import annotations

import enum
from typing import Optional

from repro.h2.errors import ErrorCode, H2StreamError
from repro.h2.settings import MAX_WINDOW_SIZE


class StreamState(enum.Enum):
    IDLE = "idle"
    OPEN = "open"
    HALF_CLOSED_LOCAL = "half-closed (local)"
    HALF_CLOSED_REMOTE = "half-closed (remote)"
    CLOSED = "closed"


class Stream:
    """One HTTP/2 stream with its state and flow-control windows."""

    def __init__(
        self,
        stream_id: int,
        send_window: int,
        recv_window: int,
    ) -> None:
        if stream_id <= 0:
            raise ValueError(f"invalid stream id {stream_id}")
        self.stream_id = stream_id
        self.state = StreamState.IDLE
        self.send_window = send_window
        self.recv_window = recv_window
        self.reset_code: Optional[ErrorCode] = None
        self.headers_received = False
        self.trailers_received = False

    # -- sending ------------------------------------------------------------

    def send_headers(self, end_stream: bool) -> None:
        if self.state is StreamState.IDLE:
            self.state = (
                StreamState.HALF_CLOSED_LOCAL if end_stream
                else StreamState.OPEN
            )
        elif self.state in (StreamState.OPEN, StreamState.HALF_CLOSED_REMOTE):
            # Trailers, or a response on a half-closed-remote stream.
            if end_stream:
                self._close_local()
        else:
            raise H2StreamError(
                self.stream_id, ErrorCode.STREAM_CLOSED,
                f"cannot send HEADERS in state {self.state.value}",
            )

    def send_data(self, nbytes: int, end_stream: bool) -> None:
        if self.state not in (StreamState.OPEN, StreamState.HALF_CLOSED_REMOTE):
            raise H2StreamError(
                self.stream_id, ErrorCode.STREAM_CLOSED,
                f"cannot send DATA in state {self.state.value}",
            )
        if nbytes > self.send_window:
            raise H2StreamError(
                self.stream_id, ErrorCode.FLOW_CONTROL_ERROR,
                f"DATA of {nbytes} bytes exceeds send window "
                f"{self.send_window}",
            )
        self.send_window -= nbytes
        if end_stream:
            self._close_local()

    def _close_local(self) -> None:
        if self.state is StreamState.OPEN:
            self.state = StreamState.HALF_CLOSED_LOCAL
        elif self.state is StreamState.HALF_CLOSED_REMOTE:
            self.state = StreamState.CLOSED

    # -- receiving ------------------------------------------------------------

    def receive_headers(self, end_stream: bool) -> None:
        if self.state is StreamState.IDLE:
            self.state = (
                StreamState.HALF_CLOSED_REMOTE if end_stream
                else StreamState.OPEN
            )
        elif self.state in (StreamState.OPEN, StreamState.HALF_CLOSED_LOCAL):
            if self.headers_received:
                self.trailers_received = True
            if end_stream:
                self._close_remote()
        else:
            raise H2StreamError(
                self.stream_id, ErrorCode.STREAM_CLOSED,
                f"HEADERS received in state {self.state.value}",
            )
        self.headers_received = True

    def receive_data(self, nbytes: int, end_stream: bool) -> None:
        if self.state not in (StreamState.OPEN, StreamState.HALF_CLOSED_LOCAL):
            raise H2StreamError(
                self.stream_id, ErrorCode.STREAM_CLOSED,
                f"DATA received in state {self.state.value}",
            )
        if nbytes > self.recv_window:
            raise H2StreamError(
                self.stream_id, ErrorCode.FLOW_CONTROL_ERROR,
                f"peer overflowed receive window by "
                f"{nbytes - self.recv_window} bytes",
            )
        self.recv_window -= nbytes
        if end_stream:
            self._close_remote()

    def _close_remote(self) -> None:
        if self.state is StreamState.OPEN:
            self.state = StreamState.HALF_CLOSED_REMOTE
        elif self.state is StreamState.HALF_CLOSED_LOCAL:
            self.state = StreamState.CLOSED

    # -- reset / windows ------------------------------------------------------

    def reset(self, code: ErrorCode) -> None:
        self.state = StreamState.CLOSED
        self.reset_code = code

    def window_update(self, delta: int) -> None:
        if delta <= 0:
            raise H2StreamError(
                self.stream_id, ErrorCode.PROTOCOL_ERROR,
                f"WINDOW_UPDATE increment must be positive, got {delta}",
            )
        if self.send_window + delta > MAX_WINDOW_SIZE:
            raise H2StreamError(
                self.stream_id, ErrorCode.FLOW_CONTROL_ERROR,
                f"WINDOW_UPDATE of {delta} overflows send window "
                f"{self.send_window}",
            )
        self.send_window += delta

    def replenish_recv_window(self, delta: int) -> None:
        self.recv_window += delta

    @property
    def closed(self) -> bool:
        return self.state is StreamState.CLOSED

    def __repr__(self) -> str:
        return f"Stream({self.stream_id}, {self.state.value})"

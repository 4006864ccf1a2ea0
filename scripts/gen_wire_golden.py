#!/usr/bin/env python
"""Generate the golden wire-bytes corpus under tests/data/.

The corpus freezes the byte layout produced by the H2 framing, HPACK,
and record-framing layers at the moment it was generated.  The
hot-path optimizations (zero-copy framing, memoized HPACK) must keep
every one of these byte sequences identical -- tests/test_wire_golden.py
replays the corpus against the live code.

Run from the repo root:

    PYTHONPATH=src python scripts/gen_wire_golden.py

Regenerating rewrites the frozen reference; only do that when the wire
format itself intentionally changes (never for a performance PR).
"""

from __future__ import annotations

import json
import pathlib

from repro.h2 import frames as fr
from repro.h2.errors import ErrorCode
from repro.h2.hpack import HpackDecoder, HpackEncoder
from repro.transport.framing import (
    REC_APPDATA,
    REC_CERT,
    REC_FINISHED,
    REC_HELLO,
    REC_TICKET,
    consume_records,
    pack_record,
)

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"


def frame_corpus():
    """A spread of every frame type, including edge cases."""
    specs = [
        ("data-plain", fr.DataFrame, dict(stream_id=1, data=b"hello world")),
        ("data-empty-end", fr.DataFrame,
         dict(stream_id=3, flags=fr.FLAG_END_STREAM, data=b"")),
        ("data-padded", fr.DataFrame,
         dict(stream_id=5, data=b"padded payload", pad_length=7)),
        ("data-large", fr.DataFrame,
         dict(stream_id=7, data=bytes(range(256)) * 64)),
        ("headers-plain", fr.HeadersFrame,
         dict(stream_id=1, flags=fr.FLAG_END_HEADERS,
              header_block=b"\x82\x87\x84")),
        ("headers-end-stream", fr.HeadersFrame,
         dict(stream_id=9, flags=fr.FLAG_END_HEADERS | fr.FLAG_END_STREAM,
              header_block=b"\x88\x0f\x10\x0a2147483647")),
        ("headers-padded", fr.HeadersFrame,
         dict(stream_id=11, flags=fr.FLAG_END_HEADERS,
              header_block=b"\x82", pad_length=3)),
        ("priority", fr.PriorityFrame,
         dict(stream_id=13, dependency=9, weight=200, exclusive=True)),
        ("rst-stream", fr.RstStreamFrame,
         dict(stream_id=15, error_code=ErrorCode.REFUSED_STREAM)),
        ("settings", fr.SettingsFrame,
         dict(settings=((1, 65536), (3, 1000), (4, 6291456), (5, 16384)))),
        ("settings-ack", fr.SettingsFrame, dict(flags=fr.FLAG_ACK)),
        ("push-promise", fr.PushPromiseFrame,
         dict(stream_id=1, flags=fr.FLAG_END_HEADERS,
              promised_stream_id=2, header_block=b"\x82\x84")),
        ("ping", fr.PingFrame, dict(opaque=b"\x01\x02\x03\x04\x05\x06\x07\x08")),
        ("ping-ack", fr.PingFrame,
         dict(flags=fr.FLAG_ACK, opaque=b"deadbeef")),
        ("goaway", fr.GoAwayFrame,
         dict(last_stream_id=31, error_code=ErrorCode.ENHANCE_YOUR_CALM,
              debug_data=b"calm down")),
        ("window-update-conn", fr.WindowUpdateFrame, dict(increment=1048576)),
        ("window-update-stream", fr.WindowUpdateFrame,
         dict(stream_id=17, increment=65535)),
        ("continuation", fr.ContinuationFrame,
         dict(stream_id=19, flags=fr.FLAG_END_HEADERS,
              header_block=b"\x0f\x0d\x0233")),
        ("origin", fr.OriginFrame,
         dict(origins=("https://example.com",
                       "https://images.example.com",
                       "https://static.example-cdn.net"))),
        ("origin-empty", fr.OriginFrame, dict(origins=())),
        ("certificate", fr.CertificateFrame,
         dict(cert_id=3, fragment=b'{"chain": "fragment-one"}')),
        ("certificate-continued", fr.CertificateFrame,
         dict(flags=fr.FLAG_TO_BE_CONTINUED, cert_id=3,
              fragment=b'{"chain": "fragme')),
        ("unknown", fr.UnknownFrame,
         dict(stream_id=21, flags=0x5, raw_type=0xB0,
              raw_payload=b"mystery bytes")),
    ]
    vectors = []
    for name, cls, kwargs in specs:
        frame = cls(**kwargs)
        wire = frame.serialize()
        buffer = bytearray(wire)
        (reparsed,) = fr.consume_frames(buffer)
        assert not buffer, name
        vectors.append({
            "name": name,
            "cls": cls.__name__,
            "kwargs": {
                key: value.hex() if isinstance(value, bytes)
                else int(value) if isinstance(value, ErrorCode)
                else list(value) if isinstance(value, tuple)
                else value
                for key, value in kwargs.items()
            },
            "hex": wire.hex(),
            # Padding / priority flags are consumed by the parser, so a
            # parse->serialize round trip may legally differ from the
            # original wire bytes; freeze what the current code produces.
            "reparse_hex": reparsed.serialize().hex(),
        })
    return vectors


def hpack_corpus():
    """Stateful encode/decode session with dynamic-table churn."""
    blocks = [
        # Typical first request on a connection.
        [(":method", "GET"), (":scheme", "https"),
         (":authority", "www.example.com"), (":path", "/"),
         ("accept", "text/html"), ("user-agent", "repro-crawler/1.0")],
        # Repeat visit: dynamic table should now carry authority etc.
        [(":method", "GET"), (":scheme", "https"),
         (":authority", "www.example.com"), (":path", "/style.css"),
         ("accept", "text/css"), ("user-agent", "repro-crawler/1.0")],
        # Response-style block.
        [(":status", "200"), ("content-type", "text/html; charset=utf-8"),
         ("content-length", "5120"), ("server", "repro-origin"),
         ("alt-svc", 'h3=":443"; ma=86400')],
        # Never-index headers must stay literal.
        [(":method", "POST"), (":scheme", "https"),
         (":authority", "api.example.com"), (":path", "/submit"),
         ("cookie", "session=abc123; theme=dark"),
         ("authorization", "Bearer tok_secret_value")],
        # Mixed-case names (encoder lowercases), repeated custom headers.
        [(":method", "GET"), (":scheme", "https"),
         (":authority", "cdn.example-provider.net"),
         (":path", "/asset/9f8e7d6c.js"),
         ("X-Custom-Tag", "alpha"), ("x-custom-tag", "alpha")],
        # Second hit of the custom header: indexed from dynamic table.
        [(":method", "GET"), (":scheme", "https"),
         (":authority", "cdn.example-provider.net"),
         (":path", "/asset/1a2b3c4d.css"), ("x-custom-tag", "alpha")],
        # Long value forcing multi-byte integer length.
        [(":status", "304"), ("etag", '"' + "f" * 200 + '"'),
         ("cache-control", "public, max-age=31536000, immutable")],
    ]
    encoder = HpackEncoder()
    decoder = HpackDecoder()
    vectors = []
    for headers in blocks:
        wire = encoder.encode(headers)
        decoded = decoder.decode(wire)
        vectors.append({
            "headers": [list(h) for h in headers],
            "hex": wire.hex(),
            "decoded": [list(h) for h in decoded],
        })
    return {
        "blocks": vectors,
        "final_encoder_table_size": encoder.table.size,
        "final_decoder_table_size": decoder.table.size,
        "final_table_len": len(encoder.table),
    }


def record_corpus():
    """TLS/QUIC record framing vectors, including a coalesced stream."""
    records = [
        (REC_HELLO, b'{"sni": "www.example.com", "alpn": ["h2"]}'),
        (REC_CERT, b'{"chain": ["leaf", "intermediate"]}' + b" " * 40),
        (REC_FINISHED, b""),
        (REC_TICKET, b'{"ticket": "0123456789abcdef"}'),
        (REC_APPDATA, bytes(range(200))),
    ]
    vectors = []
    stream = b""
    for rec_type, payload in records:
        wire = pack_record(rec_type, payload)
        stream += wire
        vectors.append({
            "type": rec_type,
            "payload": payload.hex(),
            "hex": wire.hex(),
        })
    buffer = bytearray(stream)
    parsed = consume_records(buffer)
    assert not buffer and len(parsed) == len(records)
    return {"records": vectors, "stream_hex": stream.hex()}


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    corpus = {
        "comment": "Frozen pre-optimization wire bytes; see "
                   "scripts/gen_wire_golden.py",
        "frames": frame_corpus(),
        "hpack": hpack_corpus(),
        "tls_records": record_corpus(),
    }
    out = DATA_DIR / "wire_golden.json"
    out.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {out} ({out.stat().st_size} bytes)")


if __name__ == "__main__":
    main()

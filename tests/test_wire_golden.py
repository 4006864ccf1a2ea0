"""Golden wire-bytes tests.

``tests/data/wire_golden.json`` freezes the exact bytes the H2
framing, HPACK, and record-framing layers produced before the
hot-path optimizations landed.  These tests replay the corpus against
the live code in both directions (serialize and parse), so any
optimization that changes a single wire byte -- framing layout, HPACK
indexing decisions, record packing -- fails here rather than showing
up as a silently different crawl.

Regenerate the corpus with ``scripts/gen_wire_golden.py`` only when
the wire format itself intentionally changes.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.h2 import frames as fr
from repro.h2.hpack import HpackDecoder, HpackEncoder
from repro.transport.framing import consume_records, pack_record

DATA_PATH = (
    pathlib.Path(__file__).resolve().parent / "data" / "wire_golden.json"
)
CORPUS = json.loads(DATA_PATH.read_text())

FRAME_CLASSES = {
    cls.__name__: cls
    for cls in (
        fr.DataFrame, fr.HeadersFrame, fr.PriorityFrame,
        fr.RstStreamFrame, fr.SettingsFrame, fr.PushPromiseFrame,
        fr.PingFrame, fr.GoAwayFrame, fr.WindowUpdateFrame,
        fr.ContinuationFrame, fr.OriginFrame, fr.CertificateFrame,
        fr.UnknownFrame,
    )
}

#: kwargs fields that were hex-encoded bytes in the corpus.
_BYTES_FIELDS = {
    "data", "header_block", "opaque", "debug_data", "fragment",
    "raw_payload",
}


def _inflate_kwargs(doc: dict) -> dict:
    kwargs = {}
    for key, value in doc.items():
        if key in _BYTES_FIELDS:
            kwargs[key] = bytes.fromhex(value)
        elif isinstance(value, list):
            kwargs[key] = tuple(
                tuple(item) if isinstance(item, list) else item
                for item in value
            )
        else:
            kwargs[key] = value
    return kwargs


@pytest.mark.parametrize(
    "vector", CORPUS["frames"], ids=[v["name"] for v in CORPUS["frames"]]
)
def test_frame_serialization_is_frozen(vector):
    frame = FRAME_CLASSES[vector["cls"]](**_inflate_kwargs(vector["kwargs"]))
    assert frame.serialize().hex() == vector["hex"]


@pytest.mark.parametrize(
    "vector", CORPUS["frames"], ids=[v["name"] for v in CORPUS["frames"]]
)
def test_frame_serialize_into_matches_serialize(vector):
    frame = FRAME_CLASSES[vector["cls"]](**_inflate_kwargs(vector["kwargs"]))
    out = bytearray()
    frame.serialize_into(out)
    assert bytes(out).hex() == vector["hex"]


@pytest.mark.parametrize(
    "vector", CORPUS["frames"], ids=[v["name"] for v in CORPUS["frames"]]
)
def test_frame_parse_roundtrip_is_frozen(vector):
    buffer = bytearray.fromhex(vector["hex"])
    (parsed,) = fr.consume_frames(buffer)
    assert not buffer
    assert type(parsed).__name__ == vector["cls"]
    assert parsed.serialize().hex() == vector["reparse_hex"]


def test_frame_corpus_parses_as_one_buffer():
    """The whole corpus concatenated parses through the zero-copy
    consumer with nothing left over, in corpus order."""
    buffer = bytearray()
    for vector in CORPUS["frames"]:
        buffer.extend(bytes.fromhex(vector["hex"]))
    frames = fr.consume_frames(buffer)
    assert not buffer
    assert [type(f).__name__ for f in frames] == \
        [v["cls"] for v in CORPUS["frames"]]
    assert [f.serialize().hex() for f in frames] == \
        [v["reparse_hex"] for v in CORPUS["frames"]]


def test_hpack_session_bytes_are_frozen():
    """Replaying the 7-block stateful session must reproduce every
    encoded byte and every decode, plus the final table state."""
    doc = CORPUS["hpack"]
    encoder = HpackEncoder()
    decoder = HpackDecoder()
    for block in doc["blocks"]:
        headers = [tuple(h) for h in block["headers"]]
        wire = encoder.encode(headers)
        assert wire.hex() == block["hex"]
        decoded = decoder.decode(wire)
        assert [list(h) for h in decoded] == block["decoded"]
    assert encoder.table.size == doc["final_encoder_table_size"]
    assert decoder.table.size == doc["final_decoder_table_size"]
    assert len(encoder.table) == doc["final_table_len"]


def test_record_packing_is_frozen():
    doc = CORPUS["tls_records"]
    for vector in doc["records"]:
        wire = pack_record(vector["type"],
                           bytes.fromhex(vector["payload"]))
        assert wire.hex() == vector["hex"]


def test_record_stream_parses_both_ways():
    doc = CORPUS["tls_records"]
    buffer = bytearray.fromhex(doc["stream_hex"])
    consumed = consume_records(buffer)
    assert not buffer
    assert [(t, p.hex()) for t, p in consumed] == \
        [(v["type"], v["payload"]) for v in doc["records"]]


def test_partial_frame_stays_buffered():
    """A truncated tail must stay in the buffer for the next read --
    the zero-copy consumer's contract with the channel layer."""
    full = bytes.fromhex(CORPUS["frames"][0]["hex"])
    buffer = bytearray(full + full[: fr.FRAME_HEADER_LEN + 2])
    frames = fr.consume_frames(buffer)
    assert len(frames) == 1
    assert bytes(buffer) == full[: fr.FRAME_HEADER_LEN + 2]

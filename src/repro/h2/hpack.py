"""HPACK header compression (RFC 7541).

Implements the full static table, a size-bounded dynamic table, prefix
integer coding, and all four literal representations.  String literals
use the plain (non-Huffman) encoding; Huffman is an optional
space/speed trade-off that has no effect on protocol correctness, so
the decoder rejects Huffman-flagged strings explicitly rather than
mis-decoding them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.h2.errors import HpackError

#: RFC 7541 Appendix A, entries 1..61 (name, value).
STATIC_TABLE: Tuple[Tuple[str, str], ...] = (
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept-ranges", ""),
    ("accept", ""),
    ("access-control-allow-origin", ""),
    ("age", ""),
    ("allow", ""),
    ("authorization", ""),
    ("cache-control", ""),
    ("content-disposition", ""),
    ("content-encoding", ""),
    ("content-language", ""),
    ("content-length", ""),
    ("content-location", ""),
    ("content-range", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("expect", ""),
    ("expires", ""),
    ("from", ""),
    ("host", ""),
    ("if-match", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("if-range", ""),
    ("if-unmodified-since", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("max-forwards", ""),
    ("proxy-authenticate", ""),
    ("proxy-authorization", ""),
    ("range", ""),
    ("referer", ""),
    ("refresh", ""),
    ("retry-after", ""),
    ("server", ""),
    ("set-cookie", ""),
    ("strict-transport-security", ""),
    ("transfer-encoding", ""),
    ("user-agent", ""),
    ("vary", ""),
    ("via", ""),
    ("www-authenticate", ""),
)

_STATIC_FULL: Dict[Tuple[str, str], int] = {
    entry: i + 1 for i, entry in enumerate(STATIC_TABLE)
}
_STATIC_NAME: Dict[str, int] = {}
for _i, (_name, _value) in enumerate(STATIC_TABLE):
    _STATIC_NAME.setdefault(_name, _i + 1)

_STATIC_LEN = len(STATIC_TABLE)

#: Per-entry dynamic table overhead (RFC 7541 §4.1).
ENTRY_OVERHEAD = 32

#: Headers whose values must never enter compression state.
NEVER_INDEX = frozenset({"authorization", "proxy-authorization",
                         "cookie", "set-cookie"})


def encode_integer(value: int, prefix_bits: int, first_byte: int = 0) -> bytes:
    """Encode ``value`` with an N-bit prefix (RFC 7541 §5.1).

    ``first_byte`` carries the representation's pattern bits above the
    prefix (e.g. 0x80 for an indexed field).
    """
    if value < 0:
        raise HpackError(f"cannot encode negative integer {value}")
    limit = (1 << prefix_bits) - 1
    if value < limit:
        return bytes([first_byte | value])
    out = bytearray([first_byte | limit])
    value -= limit
    while value >= 128:
        out.append((value % 128) + 128)
        value //= 128
    out.append(value)
    return bytes(out)


def decode_integer(data: bytes, offset: int, prefix_bits: int) -> Tuple[int, int]:
    """Decode an N-bit-prefix integer; returns (value, new_offset)."""
    if offset >= len(data):
        raise HpackError("integer truncated at prefix byte")
    limit = (1 << prefix_bits) - 1
    value = data[offset] & limit
    offset += 1
    if value < limit:
        return value, offset
    shift = 0
    while True:
        if offset >= len(data):
            raise HpackError("integer continuation truncated")
        byte = data[offset]
        offset += 1
        value += (byte & 0x7F) << shift
        shift += 7
        if shift > 35:
            raise HpackError("integer overflows the decoder bound")
        if not byte & 0x80:
            return value, offset


def encode_string(text: str) -> bytes:
    """Length-prefixed plain string literal (H bit clear)."""
    raw = text.encode("utf-8")
    return encode_integer(len(raw), 7, 0x00) + raw


def decode_string(data: bytes, offset: int) -> Tuple[str, int]:
    if offset >= len(data):
        raise HpackError("string truncated at length byte")
    if data[offset] & 0x80:
        raise HpackError("Huffman-coded strings are not supported")
    length, offset = decode_integer(data, offset, 7)
    if offset + length > len(data):
        raise HpackError(
            f"string of {length} bytes truncated ({len(data) - offset} left)"
        )
    try:
        text = data[offset : offset + length].decode("utf-8")
    except UnicodeDecodeError as error:
        raise HpackError(f"undecodable string literal: {error}") from error
    return text, offset + length


class DynamicTable:
    """The FIFO dynamic table shared by encoder/decoder logic.

    Entries live in a newest-first list; ``find``/``find_name`` are
    O(1) through insertion-counter maps instead of linear scans.  Each
    insertion gets a monotonically increasing counter, so the entry at
    1-based index ``i`` has counter ``insert_count - i + 1``; a map
    hit whose counter has scrolled out of the live window is stale.
    """

    def __init__(self, max_size: int = 4096) -> None:
        self.max_size = max_size
        self._entries: List[Tuple[str, str]] = []
        self._counters: List[int] = []
        self._insert_count = 0
        self._find_map: Dict[Tuple[str, str], int] = {}
        self._name_map: Dict[str, int] = {}
        self._size = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def size(self) -> int:
        return self._size

    @staticmethod
    def entry_size(name: str, value: str) -> int:
        return len(name.encode()) + len(value.encode()) + ENTRY_OVERHEAD

    def _evict_last(self) -> None:
        name, value = self._entries.pop()
        counter = self._counters.pop()
        self._size -= self.entry_size(name, value)
        if self._find_map.get((name, value)) == counter:
            del self._find_map[(name, value)]
        if self._name_map.get(name) == counter:
            del self._name_map[name]

    def add(self, name: str, value: str) -> None:
        needed = self.entry_size(name, value)
        while self._entries and self._size + needed > self.max_size:
            self._evict_last()
        if needed <= self.max_size:
            self._insert_count += 1
            self._entries.insert(0, (name, value))
            self._counters.insert(0, self._insert_count)
            self._find_map[(name, value)] = self._insert_count
            self._name_map[name] = self._insert_count
            self._size += needed
        # An entry larger than the table empties it (RFC 7541 §4.4).

    def resize(self, new_max: int) -> None:
        self.max_size = new_max
        while self._entries and self._size > self.max_size:
            self._evict_last()

    def get(self, index: int) -> Tuple[str, str]:
        """1-based index into the dynamic portion of the address space."""
        if not 1 <= index <= len(self._entries):
            raise HpackError(f"dynamic table index {index} out of range")
        return self._entries[index - 1]

    def find(self, name: str, value: str) -> Optional[int]:
        counter = self._find_map.get((name, value))
        if counter is None:
            return None
        # The newest duplicate always outlives older ones (FIFO
        # eviction), so a live map hit is the first-scan match.
        return self._insert_count - counter + 1

    def find_name(self, name: str) -> Optional[int]:
        counter = self._name_map.get(name)
        if counter is None:
            return None
        return self._insert_count - counter + 1


Header = Tuple[str, str]

#: Memoized wire bytes for every exact static-table match -- these
#: never depend on connection state, so one table serves all encoders.
_STATIC_ENCODED: Dict[Header, bytes] = {
    entry: encode_integer(index, 7, 0x80)
    for entry, index in _STATIC_FULL.items()
}


class HpackEncoder:
    """Stateful header-block encoder for one connection direction."""

    def __init__(self, max_table_size: int = 4096) -> None:
        self._table = DynamicTable(max_table_size)

    @property
    def table(self) -> DynamicTable:
        return self._table

    def set_max_table_size(self, size: int) -> None:
        self._table.resize(size)

    def encode(self, headers: Iterable[Header]) -> bytes:
        out = bytearray()
        table = self._table
        for name, value in headers:
            name = name.lower()
            if name in NEVER_INDEX:
                # Literal never indexed (pattern 0001); never touches
                # dynamic state.
                out += self._literal(name, value, first_byte=0x10,
                                     prefix=4)
                continue
            static = _STATIC_ENCODED.get((name, value))
            if static is not None:
                out += static
                continue
            dynamic_index = table.find(name, value)
            if dynamic_index is not None:
                index = dynamic_index + _STATIC_LEN
                if index < 127:
                    out.append(0x80 | index)
                else:
                    out += encode_integer(index, 7, 0x80)
                continue
            # Literal with incremental indexing (pattern 01).
            out += self._literal(name, value, first_byte=0x40, prefix=6)
            table.add(name, value)
        return bytes(out)

    def _literal(
        self, name: str, value: str, first_byte: int, prefix: int
    ) -> bytes:
        name_index = 0
        static = _STATIC_NAME.get(name)
        if static is not None:
            name_index = static
        elif first_byte != 0x10:
            # Never-indexed literals avoid referencing dynamic state so
            # they survive re-encoding by proxies; others may use it.
            dynamic = self._table.find_name(name)
            if dynamic is not None:
                name_index = dynamic + len(STATIC_TABLE)
        out = bytearray(encode_integer(name_index, prefix, first_byte))
        if name_index == 0:
            out += encode_string(name)
        out += encode_string(value)
        return bytes(out)


class HpackDecoder:
    """Stateful header-block decoder for one connection direction."""

    def __init__(self, max_table_size: int = 4096) -> None:
        self._table = DynamicTable(max_table_size)
        #: Upper bound the decoder will let the encoder resize to.
        self._settings_max = max_table_size
        #: Interned (name, value) tuples: repeated literals across
        #: blocks share one object instead of reallocating per decode.
        self._interned: Dict[Header, Header] = {}

    @property
    def table(self) -> DynamicTable:
        return self._table

    def set_settings_max_table_size(self, size: int) -> None:
        self._settings_max = size
        if self._table.max_size > size:
            self._table.resize(size)

    def _lookup(self, index: int) -> Header:
        if index <= 0:
            raise HpackError("header index 0 is invalid")
        if index <= len(STATIC_TABLE):
            return STATIC_TABLE[index - 1]
        return self._table.get(index - len(STATIC_TABLE))

    def decode(self, block: bytes) -> List[Header]:
        headers: List[Header] = []
        offset = 0
        while offset < len(block):
            byte = block[offset]
            if byte & 0x80:  # indexed field
                index, offset = decode_integer(block, offset, 7)
                headers.append(self._lookup(index))
            elif byte & 0x40:  # literal with incremental indexing
                name, value, offset = self._decode_literal(block, offset, 6)
                pair = (name, value)
                pair = self._interned.setdefault(pair, pair)
                self._table.add(*pair)
                headers.append(pair)
            elif byte & 0x20:  # dynamic table size update
                new_size, offset = decode_integer(block, offset, 5)
                if new_size > self._settings_max:
                    raise HpackError(
                        f"table resize to {new_size} exceeds the "
                        f"settings bound {self._settings_max}"
                    )
                self._table.resize(new_size)
            else:  # literal without indexing (0000) or never indexed (0001)
                name, value, offset = self._decode_literal(block, offset, 4)
                pair = (name, value)
                headers.append(self._interned.setdefault(pair, pair))
        return headers

    def _decode_literal(
        self, block: bytes, offset: int, prefix: int
    ) -> Tuple[str, str, int]:
        name_index, offset = decode_integer(block, offset, prefix)
        if name_index:
            name, _ = self._lookup(name_index)
        else:
            name, offset = decode_string(block, offset)
        value, offset = decode_string(block, offset)
        return name, value, offset

"""PropertyID delimiter assignment (§3.3, footnote 4).

Each PropertyID in the graph is assigned a unique non-printable
delimiter and a lexicographic *order*; serialized property lists write
each value prepended by its PropertyID's delimiter, in order. Graphs
with up to 24 PropertyIDs use one-byte delimiters; larger graphs (up to
576) switch uniformly to two-byte delimiters so parsing stays
unambiguous.

Reserved control bytes (never assigned as property delimiters):

====  =======================================
0x00  Succinct sentinel
0x01  EdgeFile record-begin (the paper's ``$``)
0x1B  EdgeFile source/type separator (``#``)
0x1C  EdgeFile metadata field separator (``,``)
0x1D  end-of-record (the paper's ``‡``)
0x1E  reserved (never assigned)
====  =======================================
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.core.errors import GraphFormatError, TooManyProperties

SENTINEL = 0x00
EDGE_RECORD_BEGIN = 0x01
EDGE_TYPE_SEPARATOR = 0x1B
EDGE_FIELD_SEPARATOR = 0x1C
END_OF_RECORD = 0x1D

#: EdgeRecord metadata fields between the record header and the
#: timestamp block: etype, count, twidth, dwidth, pwidth, base (§3.3,
#: Figure 2).  The writer and parser must agree on this count.
EDGE_METADATA_FIELDS = 6

_POOL = list(range(0x02, 0x1A))  # 24 single-byte delimiters
MAX_SINGLE_BYTE_PROPERTIES = len(_POOL)
MAX_PROPERTIES = len(_POOL) * len(_POOL)

# Property values may use any byte >= 0x20 (plus none of the above).
MIN_VALUE_BYTE = 0x20
_CONTROL = b"\\x00-\\x%02x" % (MIN_VALUE_BYTE - 1)  # regex class body
_RESERVED_BYTE = re.compile(b"[%s]" % _CONTROL)


def validate_property_value(value: object) -> bytes:
    """Encode a property value, rejecting anything but a ``str`` that
    encodes to UTF-8 without reserved control bytes."""
    if not isinstance(value, str):
        raise GraphFormatError(f"property value {value!r} is not a str")
    try:
        encoded = value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise GraphFormatError(
            f"property value {value!r} is not valid UTF-8: {exc}"
        ) from None
    if _RESERVED_BYTE.search(encoded):
        raise GraphFormatError(
            f"property value {value!r} contains reserved control bytes"
        )
    return encoded


class DelimiterMap:
    """PropertyID -> (order, delimiter) map shared by a whole graph.

    The map is built once, from the full set of PropertyIDs occurring
    anywhere in the graph (nodes and edges), so that the same value
    serialization is searchable across every shard.
    """

    def __init__(self, property_ids: Iterable[str]) -> None:
        ordered = sorted(set(property_ids))
        if len(ordered) > MAX_PROPERTIES:
            raise TooManyProperties(
                f"{len(ordered)} PropertyIDs exceed the delimiter space "
                f"({MAX_PROPERTIES})"
            )
        self._ordered: List[str] = ordered
        self._two_byte = len(ordered) > MAX_SINGLE_BYTE_PROPERTIES
        self._delimiters: List[bytes] = []
        for index in range(len(ordered)):
            if self._two_byte:
                first, second = divmod(index, len(_POOL))
                self._delimiters.append(bytes([_POOL[first], _POOL[second]]))
            else:
                self._delimiters.append(bytes([_POOL[index]]))
        self._order: Dict[str, int] = {pid: i for i, pid in enumerate(ordered)}
        self._by_delimiter: Dict[bytes, str] = dict(zip(self._delimiters, ordered))
        # Values never hold a byte below MIN_VALUE_BYTE, so a serialized
        # field is exactly one delimiter plus the run of value bytes
        # after it: one C-level findall splits a whole payload.
        self._field = re.compile(
            b"([%s]{%d})([^%s]*)" % (_CONTROL, self.delimiter_width, _CONTROL)
        )

    def __len__(self) -> int:
        return len(self._ordered)

    def __contains__(self, property_id: str) -> bool:
        return property_id in self._order

    @property
    def uses_two_byte_delimiters(self) -> bool:
        return self._two_byte

    @property
    def delimiter_width(self) -> int:
        return 2 if self._two_byte else 1

    def property_ids(self) -> List[str]:
        """All PropertyIDs in lexicographic (serialization) order."""
        return list(self._ordered)

    def order_of(self, property_id: str) -> int:
        """Lexicographic rank of ``property_id``."""
        try:
            return self._order[property_id]
        except KeyError:
            raise GraphFormatError(f"unknown PropertyID {property_id!r}") from None

    def delimiter_of(self, property_id: str) -> bytes:
        """Delimiter bytes assigned to ``property_id``."""
        return self._delimiters[self.order_of(property_id)]

    def next_delimiter_after(self, property_id: str) -> bytes:
        """Delimiter of the lexicographically next PropertyID, or the
        end-of-record delimiter for the last one (used to bracket
        exact-value search patterns, §3.4)."""
        order = self.order_of(property_id)
        if order + 1 < len(self._delimiters):
            return self._delimiters[order + 1]
        return bytes([END_OF_RECORD])

    # ------------------------------------------------------------------
    # Serialization of property lists
    # ------------------------------------------------------------------

    def check_properties(self, properties: Mapping[str, object]) -> None:
        """Reject a PropertyList the serializers cannot write: an
        unknown PropertyID, or a value :func:`validate_property_value`
        rejects (``None`` is an absent value).  The write path calls
        this before logging an append, so a bad write fails at once
        instead of at the next freeze."""
        unknown = [pid for pid in properties if pid not in self._order]
        if unknown:
            raise GraphFormatError(f"unknown PropertyIDs {sorted(unknown)!r}")
        for value in properties.values():
            if value is not None:
                validate_property_value(value)

    def serialize_values(self, properties: Dict[str, str]) -> Tuple[bytes, List[int]]:
        """Serialize ``properties`` to delimiter-prefixed values.

        Returns ``(payload, lengths)`` where ``payload`` is the byte
        string ``delim(p0) v0 delim(p1) v1 ...`` over *all* PropertyIDs
        in order (absent ones contribute a bare delimiter, as in Fig. 1)
        and ``lengths[k]`` is the encoded length of the k-th value.
        """
        self.check_properties(properties)
        payload = bytearray()
        lengths: List[int] = []
        for property_id, delimiter in zip(self._ordered, self._delimiters):
            payload.extend(delimiter)
            value = properties.get(property_id)
            if value is None:
                lengths.append(0)
            else:
                encoded = value.encode("utf-8")
                payload.extend(encoded)
                lengths.append(len(encoded))
        return bytes(payload), lengths

    def serialize_sparse(self, properties: Dict[str, str]) -> bytes:
        """Serialize only the *present* properties (edge PropertyLists,
        §3.3: delimiter-separated values, boundaries marked by the
        delimiters themselves)."""
        self.check_properties(properties)
        payload = bytearray()
        for property_id in self._ordered:
            value = properties.get(property_id)
            if value is not None:
                payload.extend(self._delimiters[self._order[property_id]])
                payload.extend(value.encode("utf-8"))
        return bytes(payload)

    def parse_values(self, payload: bytes) -> Dict[str, str]:
        """Invert :meth:`serialize_values`' payload: field ``k`` is
        PropertyID ``k``; bare delimiters (absent values) are skipped."""
        return {
            property_id: value.decode("utf-8")
            for property_id, (_, value) in zip(
                self._ordered, self._field.findall(payload)
            )
            if value
        }

    def parse_sparse(self, payload: bytes) -> Dict[str, str]:
        """Invert :meth:`serialize_sparse`."""
        result: Dict[str, str] = {}
        for delimiter, value in self._field.findall(payload):
            property_id = self._by_delimiter.get(delimiter)
            if property_id is None:
                raise GraphFormatError(f"unassigned delimiter {delimiter!r}")
            result[property_id] = value.decode("utf-8")
        return result

    def serialized_size_bytes(self) -> int:
        """Footprint of the PropertyID -> (order, delimiter) map itself."""
        return sum(len(pid) + 1 + self.delimiter_width for pid in self._ordered)

"""EdgeFile: compressed storage for EdgeRecords (§3.3, Figure 2).

One record per (sourceID, EdgeType) pair::

    $src#etype,count,twidth,dwidth,pwidth,base,T_0...T_{M-1}D_0...D_{M-1}
        L_0...L_{M-1}P_0...P_{M-1}<EOR>

* ``$`` (0x01), ``#`` (0x1B) and ``,`` (0x1C) are the non-printable
  delimiters standing in for the figure's symbols; ``src``/``etype``
  are ASCII decimal.
* Metadata: edge count; ``twidth``/``dwidth`` -- the *per-record* fixed
  widths used for timestamps and destination IDs (the paper's TLength /
  DLength middle-ground: fixed-length within a record, sized to the
  record's maximum); ``pwidth`` -- fixed width of the per-edge
  property-list length fields; ``base`` -- this record's first edge's
  index in the shard-wide edge numbering (used by the deletion bitmap).
* Timestamps are stored in sorted order as zero-padded decimal, so
  lexicographic order equals numeric order and binary search works on
  raw ``extract`` calls.
* Destination IDs and property lists are ordered to match the i-th
  timestamp, avoiding any explicit mapping (§3.3).
"""

from __future__ import annotations

# zipg: hot-path

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.delimiters import (
    EDGE_FIELD_SEPARATOR,
    EDGE_METADATA_FIELDS,
    EDGE_RECORD_BEGIN,
    EDGE_TYPE_SEPARATOR,
    END_OF_RECORD,
    DelimiterMap,
)
from repro.core.errors import EdgeRecordNotFound
from repro.core.model import Edge, EdgeData
from repro.succinct.stats import AccessStats

if TYPE_CHECKING:
    from repro.core.deletes import DeletionIndex

_METADATA_PROBE_BYTES = 48  # covers typical header + metadata fields
_METADATA_PROBE_MAX = 256  # fallback for records with huge ids/counts


def _split_ints(raw: bytes, width: int, count: int) -> List[int]:
    """The ``count`` fixed-width ASCII decimal fields packed in ``raw``."""
    return [int(raw[k * width : (k + 1) * width]) for k in range(count)]


@dataclass
class EdgeRecordFragment:
    """A handle to one EdgeRecord inside one compressed EdgeFile.

    Produced by :meth:`EdgeFile.find_record`; all edge data is read
    lazily from the compressed file through the accessor methods.
    ``deletions`` is the owning shard's deletion bitmap, which
    :class:`~repro.core.shard.CompressedShard` sets on every fragment
    it hands out; without one (a bare EdgeFile) every edge is live.
    """

    edge_file: "EdgeFile"
    source: int
    edge_type: int
    edge_count: int
    timestamp_width: int
    destination_width: int
    plen_width: int
    base_edge_index: int
    timestamps_offset: int
    deletions: Optional["DeletionIndex"] = field(
        default=None, compare=False, repr=False
    )

    @property
    def destinations_offset(self) -> int:
        return self.timestamps_offset + self.edge_count * self.timestamp_width

    @property
    def plens_offset(self) -> int:
        return self.destinations_offset + self.edge_count * self.destination_width

    @property
    def properties_offset(self) -> int:
        return self.plens_offset + self.edge_count * self.plen_width

    # ------------------------------------------------------------------
    # Per-edge accessors (random access into the compressed file)
    # ------------------------------------------------------------------

    def _check_order(self, time_order: int) -> None:
        if not 0 <= time_order < self.edge_count:
            raise IndexError(
                f"TimeOrder {time_order} out of range [0, {self.edge_count})"
            )

    def timestamp_at(self, time_order: int) -> int:
        """Timestamp of the edge at ``time_order`` (ascending order)."""
        self._check_order(time_order)
        raw = self.edge_file._file.extract(
            self.timestamps_offset + time_order * self.timestamp_width,
            self.timestamp_width,
        )
        return int(raw)

    def destination_at(self, time_order: int) -> int:
        self._check_order(time_order)
        raw = self.edge_file._file.extract(
            self.destinations_offset + time_order * self.destination_width,
            self.destination_width,
        )
        return int(raw)

    def properties_at(self, time_order: int) -> Dict[str, str]:
        return self.edge_data_at(time_order).properties

    def edge_data_at(self, time_order: int, with_properties: bool = True) -> EdgeData:
        """The (destination, timestamp, PropertyList) triplet (§2.2)."""
        self._check_order(time_order)
        return self.edge_data_range(time_order, time_order + 1, with_properties)[0]

    def edge_data_range(
        self, begin: int, end: int, with_properties: bool = True
    ) -> List[EdgeData]:
        """The EdgeData triplets at TimeOrders ``[begin, end)``.

        At most two kernel calls for the whole range: one
        ``extract_batch`` reads the timestamps, the destinations and the
        property-length fields ``0..end`` (their prefix sum locates the
        payloads); one ``extract`` reads the payloads, which are
        contiguous (skipped when they are all empty).
        """
        if begin >= end:
            return []
        self._check_order(begin)
        self._check_order(end - 1)
        file = self.edge_file._file
        count = end - begin
        twidth, dwidth, pwidth = (
            self.timestamp_width, self.destination_width, self.plen_width
        )
        requests = [
            (self.timestamps_offset + begin * twidth, count * twidth),
            (self.destinations_offset + begin * dwidth, count * dwidth),
        ]
        if with_properties:
            requests.append((self.plens_offset, end * pwidth))
        raw = file.extract_batch(requests)
        timestamps = _split_ints(raw[0], twidth, count)
        destinations = _split_ints(raw[1], dwidth, count)
        if not with_properties:
            return [
                EdgeData(destination=d, timestamp=t, properties={})
                for d, t in zip(destinations, timestamps)
            ]
        lengths = _split_ints(raw[2], pwidth, end)
        skipped = sum(lengths[:begin])
        size = sum(lengths) - skipped
        payload = file.extract(self.properties_offset + skipped, size) if size else b""
        parse = self.edge_file._delimiters.parse_sparse
        out = []
        cursor = 0
        for destination, timestamp, length in zip(
            destinations, timestamps, lengths[begin:]
        ):
            out.append(EdgeData(
                destination=destination,
                timestamp=timestamp,
                properties=parse(payload[cursor : cursor + length]),
            ))
            cursor += length
        return out

    def time_range(self, t_low: Optional[int], t_high: Optional[int]) -> Tuple[int, int]:
        """TimeOrder range ``[begin, end)`` of edges with timestamp in
        ``[t_low, t_high)``; ``None`` bounds are wildcards.

        Binary search over the sorted fixed-width timestamps, one
        ``extract`` per probe (§3.4).
        """
        begin = 0 if t_low is None else self._lower_bound(t_low)
        end = self.edge_count if t_high is None else self._lower_bound(t_high)
        return (begin, end)

    # zipg: scalar-ok  (binary search: O(log M) probes by design, §3.4)
    def _lower_bound(self, timestamp: int) -> int:
        low, high = 0, self.edge_count
        while low < high:
            mid = (low + high) // 2
            if self.timestamp_at(mid) < timestamp:
                low = mid + 1
            else:
                high = mid
        return low

    def all_destinations(self) -> List[int]:
        """All destination IDs in time order (one sequential extract)."""
        raw = self.edge_file._file.extract(
            self.destinations_offset, self.edge_count * self.destination_width
        )
        return _split_ints(raw, self.destination_width, self.edge_count)

    def all_timestamps(self) -> List[int]:
        """All timestamps in time order (one sequential extract)."""
        raw = self.edge_file._file.extract(
            self.timestamps_offset, self.edge_count * self.timestamp_width
        )
        return _split_ints(raw, self.timestamp_width, self.edge_count)

    # ------------------------------------------------------------------
    # Lazy deletes (the owning shard's edge bitmap, §3.5)
    # ------------------------------------------------------------------

    def deleted(self, time_order: int) -> bool:
        """Whether the edge at ``time_order`` is lazily deleted."""
        deletions = self.deletions
        return deletions is not None and deletions.edge_deleted(
            self.base_edge_index + time_order
        )

    def deleted_count(self) -> int:
        """Number of this record's edges that are lazily deleted."""
        if self.deletions is None:
            return 0
        base = self.base_edge_index
        return self.deletions.deleted_edges_between(base, base + self.edge_count)

    def mark_deleted(self, time_order: int) -> None:
        """Lazily delete the edge at ``time_order`` in the shard's bitmap."""
        self.deletions.delete_edge(self.base_edge_index + time_order)


class EdgeFile:
    """Compressed edge store for one shard.

    Args:
        edges: mapping of (source, edge_type) -> edges (any order; they
            are sorted by timestamp at layout time).
        delimiters: the graph-wide delimiter map (edge properties use
            the same delimiter space as node properties).
        alpha: Succinct sampling rate.
        stats: optional shared access meter.
    """

    def __init__(
        self,
        edges: Dict[Tuple[int, int], Iterable[Edge]],
        delimiters: DelimiterMap,
        alpha: int = 32,
        stats: Optional[AccessStats] = None,
        width_policy: str = "per-record",
        encoding: str = "succinct",
    ) -> None:
        if width_policy not in ("per-record", "global"):
            raise ValueError("width_policy must be 'per-record' or 'global'")
        self._delimiters = delimiters
        # The paper's middle ground uses per-record fixed widths
        # (TLength/DLength); "global" is the ablation baseline that
        # sizes every record for the worst case in the whole file.
        self._global_widths: Optional[Tuple[int, int]] = None
        if width_policy == "global":
            all_edges = [e for bucket in edges.values() for e in bucket]
            twidth = max((len(str(e.timestamp)) for e in all_edges), default=1)
            dwidth = max((len(str(e.destination)) for e in all_edges), default=1)
            self._global_widths = (twidth, dwidth)
        buffer = bytearray()
        record_offsets: List[int] = []
        next_base = 0
        for (source, edge_type) in sorted(edges):
            bucket = sorted(
                edges[(source, edge_type)], key=lambda e: (e.timestamp, e.destination)
            )
            record_offsets.append(len(buffer))
            buffer.extend(self._serialize_record(source, edge_type, bucket, next_base))
            next_base += len(bucket)
        self._record_offsets = np.asarray(record_offsets, dtype=np.int64)
        self._num_edges = next_base
        from repro.succinct.encodings import build_flat_file

        self._file = build_flat_file(
            # Compression owns its input.  # zipg: owned-copy
            bytes(buffer), alpha=alpha, stats=stats, encoding=encoding
        )
        self.stats = self._file.stats

    # zipg: layout-writer[edge-record]
    def _serialize_record(
        self, source: int, edge_type: int, bucket: List[Edge], base: int
    ) -> bytes:
        timestamps = [edge.timestamp for edge in bucket]
        destinations = [edge.destination for edge in bucket]
        payloads = [self._delimiters.serialize_sparse(edge.properties) for edge in bucket]
        if self._global_widths is not None:
            twidth, dwidth = self._global_widths
        else:
            twidth = max(1, max((len(str(t)) for t in timestamps), default=1))
            dwidth = max(1, max((len(str(d)) for d in destinations), default=1))
        pwidth = max(1, max((len(str(len(p))) for p in payloads), default=1))

        metadata = (len(bucket), twidth, dwidth, pwidth, base)
        assert len(metadata) + 1 == EDGE_METADATA_FIELDS  # etype rides ahead

        out = bytearray()
        out.append(EDGE_RECORD_BEGIN)
        out.extend(str(source).encode("ascii"))
        out.append(EDGE_TYPE_SEPARATOR)
        out.extend(str(edge_type).encode("ascii"))
        out.append(EDGE_FIELD_SEPARATOR)
        for field in metadata:
            out.extend(str(field).encode("ascii"))
            out.append(EDGE_FIELD_SEPARATOR)
        for timestamp in timestamps:
            out.extend(str(timestamp).zfill(twidth).encode("ascii"))
        for destination in destinations:
            out.extend(str(destination).zfill(dwidth).encode("ascii"))
        for payload in payloads:
            out.extend(str(len(payload)).zfill(pwidth).encode("ascii"))
        for payload in payloads:
            out.extend(payload)
        out.append(END_OF_RECORD)
        return bytes(out)  # zipg: owned-copy

    # ------------------------------------------------------------------
    # Record lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of EdgeRecords in this file."""
        return len(self._record_offsets)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # zipg: layout-parser[edge-record]
    def _parse_record_at(self, offset: int) -> EdgeRecordFragment:
        """Parse the record header + metadata starting at ``offset``.

        A short probe covers typical records; records whose header and
        metadata exceed it (very large ids/counts) trigger one larger
        re-extract.
        """
        probe = self._file.extract(offset, _METADATA_PROBE_BYTES)
        if not probe or probe[0] != EDGE_RECORD_BEGIN:
            raise EdgeRecordNotFound(f"no EdgeRecord at offset {offset}")
        try:
            source, fields, position = self._parse_header(probe)
        except ValueError:
            probe = self._file.extract(offset, _METADATA_PROBE_MAX)
            source, fields, position = self._parse_header(probe)
        edge_type, count, twidth, dwidth, pwidth, base = fields
        return EdgeRecordFragment(
            edge_file=self,
            source=source,
            edge_type=edge_type,
            edge_count=count,
            timestamp_width=twidth,
            destination_width=dwidth,
            plen_width=pwidth,
            base_edge_index=base,
            timestamps_offset=offset + position,
        )

    # zipg: layout-parser[edge-record]
    @staticmethod
    def _parse_header(probe: bytes) -> Tuple[int, List[int], int]:
        type_sep = probe.index(EDGE_TYPE_SEPARATOR)
        source = int(probe[1:type_sep])
        fields: List[int] = []
        position = type_sep + 1
        for _ in range(EDGE_METADATA_FIELDS):
            end = probe.index(EDGE_FIELD_SEPARATOR, position)
            fields.append(int(probe[position:end]))
            position = end + 1
        return source, fields, position

    @obs.traced("edgefile.find_record", layer="edgefile")
    def find_record(self, source: int, edge_type: int) -> Optional[EdgeRecordFragment]:
        """The EdgeRecord for (source, edge_type), or None.

        Implemented as ``search($source#edge_type,)`` on the compressed
        file (§3.4); the trailing separator prevents prefix collisions
        (type 1 vs. type 10).
        """
        pattern = (
            bytes([EDGE_RECORD_BEGIN])
            + str(source).encode("ascii")
            + bytes([EDGE_TYPE_SEPARATOR])
            + str(edge_type).encode("ascii")
            + bytes([EDGE_FIELD_SEPARATOR])
        )
        offsets = self._file.search(pattern)
        if offsets.size == 0:
            return None
        return self._parse_record_at(int(offsets[0]))

    @obs.traced("edgefile.find_records", layer="edgefile")
    def find_records(self, source: int) -> List[EdgeRecordFragment]:
        """All EdgeRecords for ``source`` (wildcard edge type)."""
        pattern = (
            bytes([EDGE_RECORD_BEGIN])
            + str(source).encode("ascii")
            + bytes([EDGE_TYPE_SEPARATOR])
        )
        offsets = self._file.search(pattern)
        return [self._parse_record_at(int(offset)) for offset in offsets]

    @obs.traced("edgefile.records_of_type", layer="edgefile")
    def records_of_type(self, edge_type: int) -> List[EdgeRecordFragment]:
        """All EdgeRecords of ``edge_type`` regardless of source (used
        by regular path queries: ``get_edge_record(*, edgeType)``)."""
        pattern = (
            bytes([EDGE_TYPE_SEPARATOR])
            + str(edge_type).encode("ascii")
            + bytes([EDGE_FIELD_SEPARATOR])
        )
        matches = self._file.search(pattern)
        records = []
        for match in matches:
            index = int(np.searchsorted(self._record_offsets, int(match), side="right")) - 1
            records.append(self._parse_record_at(int(self._record_offsets[index])))
        return records

    # zipg: scalar-ok  (one verification probe per search hit)
    @obs.traced("edgefile.find_edges_by_property", layer="edgefile")
    def find_edges_by_property(
        self, property_id: str, value: str
    ) -> List[Tuple[EdgeRecordFragment, int]]:
        """Edges whose PropertyList has ``property_id == value``.

        The extension §3.3 flags ("ZipG currently does not support
        search on edge propertyLists, but can be trivially extended to
        do so using ideas similar to NodeFile"): one compressed search
        for the delimiter-prefixed value, then each hit is mapped to its
        record (offset directory) and its TimeOrder (length-prefix
        walk) and verified. Returns ``(fragment, time_order)`` pairs in
        file order.
        """
        pattern = self._delimiters.delimiter_of(property_id) + value.encode("utf-8")
        hits = []
        for offset in self._file.search(pattern):
            located = self._locate_edge(int(offset))
            if located is None:
                continue
            fragment, time_order = located
            if fragment.properties_at(time_order).get(property_id) == value:
                hits.append((fragment, time_order))
        return hits

    def _locate_edge(self, offset: int):
        """Map a flat-file offset inside a record's property payload to
        (fragment, time_order); None if the offset lies outside one."""
        index = int(np.searchsorted(self._record_offsets, offset, side="right")) - 1
        if index < 0:
            return None
        fragment = self._parse_record_at(int(self._record_offsets[index]))
        if offset < fragment.properties_offset:
            return None  # matched inside metadata/timestamps/destinations
        raw = self._file.extract(
            fragment.plens_offset, fragment.edge_count * fragment.plen_width
        )
        cursor = fragment.properties_offset
        for time_order in range(fragment.edge_count):
            width = fragment.plen_width
            length = int(raw[time_order * width : (time_order + 1) * width])
            if offset < cursor + length:
                return (fragment, time_order)
            cursor += length
        return None

    # ------------------------------------------------------------------
    # Binary serialization (§4.1)
    # ------------------------------------------------------------------

    def sections(self) -> dict:
        """Write-side sections (codec structures plus the record-offset
        directory); array payloads are zero-copy chunks, the codec a
        nested section dict."""
        from repro.succinct.serialize import array_chunks, pack_ints

        return {
            "meta": pack_ints(self._num_edges),
            "record_offsets": array_chunks(self._record_offsets),
            "file": self._file.sections(),
        }

    def to_bytes(self) -> bytes:
        """Serialize the compressed EdgeFile to one owned blob."""
        from repro.succinct.serialize import pack_sections

        return pack_sections(self.sections())

    @classmethod
    def from_bytes(cls, blob: bytes, delimiters: DelimiterMap,
                   stats: Optional[AccessStats] = None) -> "EdgeFile":
        """Reconstruct an EdgeFile serialized with :meth:`to_bytes`
        without copying payloads (views over ``blob``); the flat-file
        codec is rebuilt through its self-describing format tag."""
        from repro.succinct.encodings import decode_flat_file
        from repro.succinct.serialize import unpack_array, unpack_ints, unpack_sections

        sections = unpack_sections(blob)
        instance = cls.__new__(cls)
        instance._delimiters = delimiters
        instance._global_widths = None
        (instance._num_edges,) = unpack_ints(sections["meta"])
        instance._record_offsets = unpack_array(sections["record_offsets"])
        instance._file = decode_flat_file(sections["file"], stats=stats)
        instance.stats = instance._file.stats
        return instance

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------

    def original_size_bytes(self) -> int:
        return self._file.original_size_bytes()

    def serialized_size_bytes(self) -> int:
        return self._file.serialized_size_bytes() + self._record_offsets.nbytes

"""NodeFile: compressed storage for NodeIDs and node properties (§3.3).

Layout (Figure 1). Three data structures:

1. the graph-wide PropertyID -> (order, delimiter) map
   (:class:`~repro.core.delimiters.DelimiterMap`, shared, not owned
   here);
2. a flat unstructured file, compressed with Succinct, holding one
   record per node::

       <len_0><len_1>...<len_{P-1}><d_0>v_0<d_1>v_1...<d_{P-1}}>v_{P-1}<EOR>

   where ``len_k`` is the length of the k-th property value encoded in
   a *global fixed width* number of ASCII digits (the paper's ``len``),
   ``d_k`` is PropertyID k's delimiter, absent values contribute a bare
   delimiter (Fig. 1: Bob's missing age), and ``EOR`` is the
   end-of-record delimiter;
3. a two-dimensional array of sorted NodeIDs and the offset of each
   node's record in the flat file.

``get_node_property`` is two array lookups plus one small ``extract``
for the length prefix and one for the value itself; ``get_node_ids``
brackets the value between its PropertyID's delimiter and the next
lexicographically larger delimiter and runs Succinct ``search`` (§3.4),
one ``search_batch`` for all pairs of a query.
"""

from __future__ import annotations

# zipg: hot-path

import bisect
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.delimiters import END_OF_RECORD, DelimiterMap
from repro.core.errors import NodeNotFound
from repro.core.model import PropertyList
from repro.succinct.stats import AccessStats


class NodeFile:
    """Compressed node store for one shard.

    Args:
        nodes: mapping of NodeID -> PropertyList for the shard.
        delimiters: the graph-wide delimiter map.
        alpha: Succinct sampling rate.
        stats: optional shared access meter.
        encoding: flat-file codec tag (see
            :mod:`repro.succinct.encodings`).
    """

    # zipg: layout-writer[node-record]
    def __init__(
        self,
        nodes: Dict[int, PropertyList],
        delimiters: DelimiterMap,
        alpha: int = 32,
        stats: Optional[AccessStats] = None,
        encoding: str = "succinct",
    ) -> None:
        self._delimiters = delimiters
        serialized: Dict[int, tuple] = {
            node_id: delimiters.serialize_values(properties)
            for node_id, properties in nodes.items()
        }
        max_length = max(
            (length for _, lengths in serialized.values() for length in lengths),
            default=0,
        )
        self._len_width = max(1, len(str(max_length)))

        node_ids = sorted(serialized)
        offsets: List[int] = []
        buffer = bytearray()
        for node_id in node_ids:
            payload, lengths = serialized[node_id]
            offsets.append(len(buffer))
            for length in lengths:
                buffer.extend(str(length).zfill(self._len_width).encode("ascii"))
            buffer.extend(payload)
            buffer.append(END_OF_RECORD)
        self._node_ids = np.asarray(node_ids, dtype=np.int64)
        self._offsets = np.asarray(offsets, dtype=np.int64)
        from repro.succinct.encodings import build_flat_file

        self._file = build_flat_file(
            # Compression owns its input.  # zipg: owned-copy
            bytes(buffer), alpha=alpha, stats=stats, encoding=encoding
        )
        self.stats = self._file.stats
        # Query-time directory mirror (never built at load).
        self._node_id_list_cache: Optional[list] = None

    # ------------------------------------------------------------------
    # Directory
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._node_ids)

    @property
    def _node_id_list(self) -> list:
        """Plain-int mirror of the sorted NodeIDs, built on first use:
        a ``bisect`` on it beats ``np.searchsorted`` on one value."""
        if self._node_id_list_cache is None:
            self._node_id_list_cache = self._node_ids.tolist()
        return self._node_id_list_cache

    def __contains__(self, node_id: int) -> bool:
        ids = self._node_id_list
        index = bisect.bisect_left(ids, node_id)
        return index < len(ids) and ids[index] == node_id

    def node_ids(self) -> np.ndarray:
        return self._node_ids.copy()

    def node_index(self, node_id: int) -> int:
        """Position of ``node_id`` in the sorted NodeID array (also its
        position in the shard's node deletion bitmap)."""
        ids = self._node_id_list
        index = bisect.bisect_left(ids, node_id)
        if index >= len(ids) or ids[index] != node_id:
            raise NodeNotFound(node_id)
        return index

    def _record_span(self, node_id: int) -> Tuple[int, int]:
        """``(start, end)`` of the node's record without its EOR byte:
        the next record's offset (or the file end) bounds it."""
        self.stats.random_accesses += 1  # NodeID -> offset array lookup
        index = self.node_index(node_id)
        start = int(self._offsets[index])
        if index + 1 < len(self._offsets):
            return start, int(self._offsets[index + 1]) - 1
        return start, len(self._file) - 1

    def _record_indexes(self, offsets: np.ndarray) -> np.ndarray:
        """Directory position of the record holding each file offset,
        for all offsets in one ``searchsorted``."""
        return np.searchsorted(self._offsets, offsets, side="right") - 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get_property(self, node_id: int, property_id: str) -> Optional[str]:
        """Value of one property for ``node_id`` (None if unset)."""
        return self.get_properties_batch([node_id], [property_id])[0].get(property_id)

    # zipg: layout-parser[node-record]
    @obs.traced("nodefile.get_properties", layer="nodefile")
    def get_properties(
        self, node_id: int, property_ids: Optional[List[str]] = None
    ) -> PropertyList:
        """PropertyList of ``node_id`` (all properties, or a subset).

        The wildcard path reads the whole record with one ``extract``
        (its end is the next record's offset). The subset path is a
        one-node :meth:`get_properties_batch`: the length fields, then
        every requested value through one ``extract_batch`` call.
        """
        if property_ids is not None:
            return self.get_properties_batch([node_id], property_ids)[0]
        # Wildcard: the record's payload in one extract (it runs from
        # past the fixed-size length fields to the record's end) split
        # on its delimiters; a bare delimiter is an absent value
        # (Fig. 1), so the length fields need not be read.
        start, end = self._record_span(node_id)
        payload_start = start + len(self._delimiters) * self._len_width
        return self._delimiters.parse_values(
            self._file.extract(payload_start, end - payload_start)
        )

    # zipg: layout-parser[node-record]
    @obs.traced("nodefile.get_properties_batch", layer="nodefile")
    def get_properties_batch(
        self, node_ids: List[int], property_ids: List[str]
    ) -> List[PropertyList]:
        """``get_properties(node, property_ids)`` of every node, in
        order, from two ``extract_batch`` calls: one for the nodes'
        length fields (only up to the highest wanted property), one for
        all the wanted values."""
        results: List[PropertyList] = [{} for _ in node_ids]
        if not node_ids or not property_ids:
            return results
        width = self._len_width
        orders = [self._delimiters.order_of(pid) for pid in property_ids]
        top = max(orders) + 1
        self.stats.random_accesses += len(node_ids)  # NodeID -> offset lookups
        offsets = self._offsets
        records = [int(offsets[self.node_index(n)]) for n in node_ids]
        length_blocks = self._file.extract_batch(
            [(record, top * width) for record in records]
        )
        skip = len(self._delimiters) * width
        delim_width = self._delimiters.delimiter_width
        requests = []
        slots = []  # (result index, PropertyID) of each request
        for index, (record, block) in enumerate(zip(records, length_blocks)):
            for property_id, order in zip(property_ids, orders):
                length = int(block[order * width : (order + 1) * width])
                if length:
                    preceding = _sum_fields(block, order, width)
                    start = record + skip + preceding + (order + 1) * delim_width
                    requests.append((start, length))
                    slots.append((index, property_id))
        for (index, property_id), value in zip(
            slots, self._file.extract_batch(requests)
        ):
            results[index][property_id] = value.decode("utf-8")
        return results

    @obs.traced("nodefile.find_nodes", layer="nodefile")
    def find_nodes(self, properties: PropertyList) -> List[int]:
        """NodeIDs whose PropertyList matches every (pid, value) pair.

        Each pair becomes one search pattern with the value bracketed
        between its delimiter and the next one (§3.4). All patterns go
        to one ``search_batch`` (a pattern with no occurrence ends the
        search before any offset is resolved), every hit maps to its
        record in one ``searchsorted``, and the pairs' record sets
        intersect. An empty ``properties`` matches every node.
        """
        if not properties:
            return self._node_ids.tolist()
        patterns = [
            self._delimiters.delimiter_of(property_id)
            + value.encode("utf-8")
            + self._delimiters.next_delimiter_after(property_id)
            for property_id, value in properties.items()
        ]
        hits = self._file.search_batch(patterns)
        if not len(hits[0]):
            return []
        # A pattern hits a few dozen records per shard: plain-int sets
        # intersect them faster than numpy's per-call setup.
        indexes = self._record_indexes(np.concatenate(hits)).tolist()
        result: Optional[set] = None
        start = 0
        for offsets in hits:
            matches = set(indexes[start : start + len(offsets)])
            start += len(offsets)
            result = matches if result is None else result & matches
        ids = self._node_id_list
        return [ids[index] for index in sorted(result)]

    @obs.traced("nodefile.find_nodes_by_prefix", layer="nodefile")
    def find_nodes_by_prefix(self, property_id: str, prefix: str) -> List[int]:
        """NodeIDs whose ``property_id`` value *starts with* ``prefix``.

        The §3.3 layout makes this a one-search extension of exact
        matching: drop the closing delimiter from the pattern. An empty
        prefix matches every node that has the property set.
        """
        pattern = self._delimiters.delimiter_of(property_id) + prefix.encode("utf-8")
        offsets = self._file.search(pattern)
        node_ids = self._node_ids[np.unique(self._record_indexes(offsets))].tolist()
        if prefix == "":
            # A bare delimiter also matches absent values; verify.
            return [
                node_id
                for node_id, properties in zip(
                    node_ids, self.get_properties_batch(node_ids, [property_id])
                )
                if properties
            ]
        return node_ids

    # ------------------------------------------------------------------
    # Binary serialization (§4.1)
    # ------------------------------------------------------------------

    def sections(self) -> dict:
        """Write-side sections (codec structures plus the NodeID/offset
        directory and length-field width); array payloads are zero-copy
        chunks, the codec a nested section dict."""
        from repro.succinct.serialize import array_chunks, pack_ints

        return {
            "meta": pack_ints(self._len_width),
            "node_ids": array_chunks(self._node_ids),
            "offsets": array_chunks(self._offsets),
            "file": self._file.sections(),
        }

    def to_bytes(self) -> bytes:
        """Serialize the compressed NodeFile to one owned blob."""
        from repro.succinct.serialize import pack_sections

        return pack_sections(self.sections())

    @classmethod
    def from_bytes(cls, blob: bytes, delimiters: DelimiterMap,
                   stats: Optional[AccessStats] = None) -> "NodeFile":
        """Reconstruct a NodeFile serialized with :meth:`to_bytes`
        without re-running compression or copying payloads: the
        directory arrays are views over ``blob`` and the flat-file
        codec is rebuilt through its self-describing format tag."""
        from repro.succinct.encodings import decode_flat_file
        from repro.succinct.serialize import unpack_array, unpack_ints, unpack_sections

        sections = unpack_sections(blob)
        instance = cls.__new__(cls)
        instance._delimiters = delimiters
        (instance._len_width,) = unpack_ints(sections["meta"])
        instance._node_ids = unpack_array(sections["node_ids"])
        instance._offsets = unpack_array(sections["offsets"])
        instance._file = decode_flat_file(sections["file"], stats=stats)
        instance.stats = instance._file.stats
        instance._node_id_list_cache = None
        return instance

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------

    def original_size_bytes(self) -> int:
        return self._file.original_size_bytes()

    def serialized_size_bytes(self) -> int:
        """Compressed footprint: Succinct file + NodeID/offset arrays."""
        directory = self._node_ids.nbytes + self._offsets.nbytes
        return self._file.serialized_size_bytes() + directory


def _sum_fields(block: bytes, count: int, width: int) -> int:
    """Sum of the first ``count`` fixed-width ASCII decimal fields of
    ``block``, digit position by digit position: ``width`` strided
    slices instead of ``count`` integer parses."""
    end = count * width
    return sum(
        (sum(block[position:end:width]) - ord("0") * count) * 10 ** (width - 1 - position)
        for position in range(width)
    )

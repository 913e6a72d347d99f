"""Titan-like graph store: opaque KV rows over the LSM substrate.

Models the layout §3.3 contrasts ZipG against: the graph is mapped onto
a key-value abstraction where a vertex's properties and its entire
adjacency are *single opaque objects*. Fine-grained access is therefore
impossible: reading one property fetches and scans the whole property
blob, and any edge query fetches and scans the whole adjacency row and
filters (the exact behaviour §5.2 blames for Titan's throughput).

Rows:

* ``n:<id>``  -- property blob fragments (``P`` payload / ``D`` tombstone);
* ``e:<src>`` -- adjacency fragments, each a run of ``A``dd / ``R``emove
  edge operations with varint-coded fields (Titan's variable-length /
  delta encodings, footnote 7);
* ``i:<pid>=<value>`` -- global index fragments (``A``/``R`` + node id),
  Titan's composite-index analogue used by ``get_node_ids``.

Writes are tiny fragment appends (Cassandra's write-optimized path);
reads gather and replay fragments across SSTables.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.baselines.lsm import LSMStore
from repro.core.interface import GraphStoreInterface
from repro.core.model import EdgeData, GraphData, PropertyList
from repro.succinct.coding import varint_decode, varint_encode
from repro.succinct.stats import AccessStats
from repro.workloads.properties import INDEXED_PROPERTY_IDS


def _encode_str(value: str) -> bytes:
    data = value.encode("utf-8")
    return varint_encode(len(data)) + data


def _decode_str(blob: bytes, offset: int) -> Tuple[str, int]:
    length, offset = varint_decode(blob, offset)
    return blob[offset : offset + length].decode("utf-8"), offset + length


def _encode_props(properties: PropertyList) -> bytes:
    out = bytearray(varint_encode(len(properties)))
    for key, value in properties.items():
        out.extend(_encode_str(key))
        out.extend(_encode_str(value))
    return bytes(out)


def _decode_props(blob: bytes, offset: int = 0) -> Tuple[PropertyList, int]:
    count, offset = varint_decode(blob, offset)
    properties: PropertyList = {}
    for _ in range(count):
        key, offset = _decode_str(blob, offset)
        value, offset = _decode_str(blob, offset)
        properties[key] = value
    return properties, offset


class KVGraphStore(GraphStoreInterface):
    """A Titan-like distributed-capable graph store on a KV backend."""

    def __init__(self, compressed: bool = False, memtable_flush_bytes: int = 1 << 18,
                 indexed_properties=INDEXED_PROPERTY_IDS):
        self.name = "titan-compressed" if compressed else "titan"
        self.stats = AccessStats()
        self._indexed = None if indexed_properties is None else set(indexed_properties)
        self._lsm = LSMStore(
            compressed=compressed,
            memtable_flush_bytes=memtable_flush_bytes,
            stats=self.stats,
        )

    @classmethod
    def load(cls, graph: GraphData, compressed: bool = False) -> "KVGraphStore":
        """Bulk-load an input graph: one property row and one adjacency
        row per vertex, plus the global index rows."""
        store = cls(compressed=compressed)
        for node_id in graph.node_ids():
            properties = graph.node_properties(node_id)
            store._lsm.put(store._node_key(node_id), b"P" + _encode_props(properties))
            for pair in properties.items():
                if store._indexed is None or pair[0] in store._indexed:
                    store._lsm.put(store._index_key(pair), b"A" + varint_encode(node_id))
            adjacency = bytearray()
            for edge in graph.edges_of(node_id):  # sorted by timestamp
                adjacency.extend(
                    store._encode_add(edge.edge_type, edge.timestamp,
                                      edge.destination, edge.properties)
                )
            if adjacency:
                store._lsm.put(store._edge_key(node_id), bytes(adjacency))
        store._lsm.flush()
        store.reset_stats()
        return store

    # ------------------------------------------------------------------
    # Row key / fragment formats
    # ------------------------------------------------------------------

    @staticmethod
    def _node_key(node_id: int) -> bytes:
        return b"n:%d" % node_id

    @staticmethod
    def _edge_key(node_id: int) -> bytes:
        return b"e:%d" % node_id

    @staticmethod
    def _index_key(pair: Tuple[str, str]) -> bytes:
        return b"i:" + pair[0].encode("utf-8") + b"=" + pair[1].encode("utf-8")

    @staticmethod
    def _encode_add(edge_type: int, timestamp: int, destination: int,
                    properties: PropertyList) -> bytes:
        blob = _encode_props(properties)
        return (
            b"A"
            + varint_encode(edge_type)
            + varint_encode(timestamp)
            + varint_encode(destination)
            + varint_encode(len(blob))
            + blob
        )

    @staticmethod
    def _encode_remove(edge_type: int, destination: int) -> bytes:
        return b"R" + varint_encode(edge_type) + varint_encode(destination)

    # ------------------------------------------------------------------
    # Row replay (the opaque-object scans)
    # ------------------------------------------------------------------

    def _replay_node(self, node_id: int) -> Optional[PropertyList]:
        """Latest property blob, or None if absent/tombstoned."""
        latest: Optional[PropertyList] = None
        for fragment in self._lsm.get_fragments(self._node_key(node_id)):
            self.stats.sequential_bytes += len(fragment)  # scan the opaque value
            if fragment[:1] == b"D":
                latest = None
            else:
                latest, _ = _decode_props(fragment, 1)
        return latest

    def _replay_adjacency(self, node_id: int) -> List[Tuple[int, int, int, PropertyList]]:
        """The vertex's full adjacency: (edge_type, timestamp,
        destination, properties), sorted by (edge_type, timestamp).

        Every call fetches and scans the *entire* adjacency row -- the
        opaque-object cost ZipG's layout avoids.
        """
        edges: List[Tuple[int, int, int, PropertyList]] = []
        for fragment in self._lsm.get_fragments(self._edge_key(node_id)):
            self.stats.sequential_bytes += len(fragment)
            offset = 0
            while offset < len(fragment):
                tag = fragment[offset : offset + 1]
                offset += 1
                if tag == b"A":
                    edge_type, offset = varint_decode(fragment, offset)
                    timestamp, offset = varint_decode(fragment, offset)
                    destination, offset = varint_decode(fragment, offset)
                    blob_length, offset = varint_decode(fragment, offset)
                    properties, _ = _decode_props(fragment, offset)
                    offset += blob_length
                    edges.append((edge_type, timestamp, destination, properties))
                elif tag == b"R":
                    edge_type, offset = varint_decode(fragment, offset)
                    destination, offset = varint_decode(fragment, offset)
                    edges = [
                        e for e in edges if not (e[0] == edge_type and e[2] == destination)
                    ]
                else:
                    raise ValueError(f"corrupt adjacency fragment tag {tag!r}")
        edges.sort(key=lambda e: (e[0], e[1], e[2]))
        return edges

    def _replay_index(self, pair: Tuple[str, str]) -> Set[int]:
        members: Set[int] = set()
        for fragment in self._lsm.get_fragments(self._index_key(pair)):
            self.stats.sequential_bytes += len(fragment)
            node_id, _ = varint_decode(fragment, 1)
            if fragment[:1] == b"A":
                members.add(node_id)
            else:
                members.discard(node_id)
        return members

    # ------------------------------------------------------------------
    # Node queries
    # ------------------------------------------------------------------

    def get_node_property(self, node_id: int, property_ids="*") -> PropertyList:
        properties = self._replay_node(node_id)
        if properties is None:
            raise KeyError(f"node {node_id} not found")
        if property_ids == "*":
            return properties
        if isinstance(property_ids, str):
            wanted = {property_ids}
        else:
            wanted = set(property_ids)
        return {k: v for k, v in properties.items() if k in wanted}

    def get_node_ids(self, property_list: PropertyList) -> List[int]:
        """Global index lookup (Titan's composite indexes) for indexed
        PropertyIDs; full vertex scan otherwise."""
        result: Optional[Set[int]] = None
        for key, value in property_list.items():
            self.stats.searches += 1
            if self._indexed is None or key in self._indexed:
                members = self._replay_index((key, value))
            else:
                members = self._scan_for(key, value)
            result = members if result is None else result & members
            if not result:
                return []
        return sorted(result) if result is not None else []

    def _scan_for(self, key: str, value: str) -> Set[int]:
        """Full scan over every vertex property row (non-indexed
        predicate: Titan would do an OLAP scan here)."""
        matches: Set[int] = set()
        for row_key, fragment in self._lsm.scan_prefix(b"n:"):
            self.stats.sequential_bytes += len(fragment)
            node_id = int(row_key[2:])
            if fragment[:1] == b"D":
                matches.discard(node_id)
            else:
                properties, _ = _decode_props(fragment, 1)
                if properties.get(key) == value:
                    matches.add(node_id)
                else:
                    matches.discard(node_id)
        return matches

    def get_neighbor_ids(
        self, node_id: int, edge_type="*", property_list: Optional[PropertyList] = None
    ) -> List[int]:
        adjacency = self._replay_adjacency(node_id)
        if edge_type != "*":
            adjacency = [e for e in adjacency if e[0] == int(edge_type)]
        adjacency.sort(key=lambda e: (e[1], e[2]))  # time order
        destinations = [destination for _, _, destination, _ in adjacency]
        if not property_list:
            return destinations
        matches = []
        for destination in destinations:
            try:
                properties = self.get_node_property(destination, list(property_list))
            except KeyError:
                continue
            if all(properties.get(k) == v for k, v in property_list.items()):
                matches.append(destination)
        return matches

    # ------------------------------------------------------------------
    # Edge queries (full-row scan + filter, §5.2)
    # ------------------------------------------------------------------

    def _typed_edges(self, node_id: int, edge_type: int):
        return sorted(
            (e for e in self._replay_adjacency(node_id) if e[0] == edge_type),
            key=lambda e: (e[1], e[2]),
        )

    def edge_count(self, node_id: int, edge_type: int) -> int:
        return len(self._typed_edges(node_id, edge_type))

    def edges_in_time_range(
        self,
        node_id: int,
        edge_type: int,
        t_low: Optional[int],
        t_high: Optional[int],
        limit: Optional[int] = None,
        with_properties: bool = True,
    ) -> List[EdgeData]:
        edges = self._typed_edges(node_id, edge_type)
        selected = [
            e
            for e in edges
            if (t_low is None or e[1] >= t_low) and (t_high is None or e[1] < t_high)
        ]
        if limit is not None:
            selected = selected[:limit]
        return [
            EdgeData(destination, timestamp, properties if with_properties else {})
            for _, timestamp, destination, properties in selected
        ]

    def edges_from_index(
        self,
        node_id: int,
        edge_type: int,
        start_index: int,
        limit: Optional[int],
        with_properties: bool = True,
    ) -> List[EdgeData]:
        edges = self._typed_edges(node_id, edge_type)
        end = len(edges) if limit is None else min(len(edges), start_index + limit)
        return [
            EdgeData(destination, timestamp, properties if with_properties else {})
            for _, timestamp, destination, properties in edges[start_index:end]
        ]

    # ------------------------------------------------------------------
    # Updates (write-optimized fragment appends)
    # ------------------------------------------------------------------

    def append_node(self, node_id: int, properties: PropertyList) -> None:
        self._lsm.put(self._node_key(node_id), b"P" + _encode_props(properties))
        for pair in properties.items():
            if self._indexed is None or pair[0] in self._indexed:
                self._lsm.put(self._index_key(pair), b"A" + varint_encode(node_id))

    def append_edge(
        self,
        source: int,
        edge_type: int,
        destination: int,
        timestamp: int = 0,
        properties: Optional[PropertyList] = None,
    ) -> None:
        self._lsm.put(
            self._edge_key(source),
            self._encode_add(edge_type, timestamp, destination, properties or {}),
        )

    def delete_node(self, node_id: int) -> bool:
        # Read-before-write: index maintenance needs the old properties.
        properties = self._replay_node(node_id)
        if properties is None:
            return False
        for pair in properties.items():
            if self._indexed is None or pair[0] in self._indexed:
                self._lsm.put(self._index_key(pair), b"R" + varint_encode(node_id))
        self._lsm.put(self._node_key(node_id), b"D")
        return True

    def delete_edge(self, source: int, edge_type: int, destination: int) -> int:
        matching = sum(
            1
            for e in self._replay_adjacency(source)
            if e[0] == edge_type and e[2] == destination
        )
        if matching:
            self._lsm.put(self._edge_key(source), self._encode_remove(edge_type, destination))
        return matching

    def update_edge(
        self,
        source: int,
        edge_type: int,
        destination: int,
        timestamp: int = 0,
        properties: Optional[PropertyList] = None,
    ) -> None:
        """Cassandra-style blind update: write the remove marker and the
        new cell without reading the row first (the write-optimized path
        the paper credits Titan's update throughput to)."""
        self._lsm.put(self._edge_key(source), self._encode_remove(edge_type, destination))
        self.append_edge(source, edge_type, destination, timestamp, properties)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def storage_footprint_bytes(self) -> int:
        """SSTables + memtable, including index rows (Titan's secondary
        index overhead shows up here, as in Figure 5)."""
        return self._lsm.stored_bytes()

    def aggregate_stats(self) -> AccessStats:
        return self.stats

    def reset_stats(self) -> None:
        self.stats.reset()

    @property
    def lsm(self) -> LSMStore:
        return self._lsm

"""The single system-wide LogStore (§3.5).

All writes are directed to one *query-optimized* (rather than
memory-optimized) LogStore. Once its size crosses a threshold it is
compressed into a new immutable shard and a fresh LogStore is
instantiated. Being query-optimized means it keeps uncompressed dicts
plus an inverted index over property values, so reads against fresh
data are cheap; the price is a larger per-byte footprint, which is why
there is exactly one of these in the system.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.core.model import Edge, EdgeData, PropertyList
from repro.succinct.stats import AccessStats

#: The unit id of the LogStore (shards are ``>= 0``) in server RPCs,
#: replica-call chaos tags and errors.
LOGSTORE_UNIT = -1


class LogEdgeFragment:
    """Uniform edge-fragment view over the LogStore's edge lists.

    Mirrors :class:`repro.core.edgefile.EdgeRecordFragment`'s accessor
    API so the merged EdgeRecord can treat compressed and log fragments
    identically.
    """

    def __init__(
        self, store: "LogStore", source: int, edge_type: int, edges: List[Edge]
    ) -> None:
        self._store = store
        self.source = source
        self.edge_type = edge_type
        self._edges = edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def timestamp_at(self, time_order: int) -> int:
        self._store.stats.random_accesses += 1
        return self._edges[time_order].timestamp

    def destination_at(self, time_order: int) -> int:
        self._store.stats.random_accesses += 1
        return self._edges[time_order].destination

    def properties_at(self, time_order: int) -> PropertyList:
        self._store.stats.random_accesses += 1
        return dict(self._edges[time_order].properties)

    def edge_data_at(self, time_order: int, with_properties: bool = True) -> EdgeData:
        return self.edge_data_range(time_order, time_order + 1, with_properties)[0]

    def edge_data_range(
        self, begin: int, end: int, with_properties: bool = True
    ) -> List[EdgeData]:
        """EdgeData at TimeOrders ``[begin, end)`` (one metered touch)."""
        if begin >= end:
            return []
        if begin < 0 or end > len(self._edges):
            raise IndexError(
                f"TimeOrders [{begin}, {end}) out of range [0, {len(self._edges)})"
            )
        self._store.stats.random_accesses += 1
        return [
            EdgeData(
                destination=edge.destination,
                timestamp=edge.timestamp,
                properties=dict(edge.properties) if with_properties else {},
            )
            for edge in self._edges[begin:end]
        ]

    def time_range(self, t_low: Optional[int], t_high: Optional[int]) -> Tuple[int, int]:
        timestamps = [edge.timestamp for edge in self._edges]
        begin = 0 if t_low is None else bisect.bisect_left(timestamps, t_low)
        end = len(timestamps) if t_high is None else bisect.bisect_left(timestamps, t_high)
        self._store.stats.random_accesses += 2
        return (begin, end)

    def all_destinations(self) -> List[int]:
        self._store.stats.random_accesses += 1
        self._store.stats.sequential_bytes += 8 * len(self._edges)
        return [edge.destination for edge in self._edges]

    def all_timestamps(self) -> List[int]:
        self._store.stats.random_accesses += 1
        self._store.stats.sequential_bytes += 8 * len(self._edges)
        return [edge.timestamp for edge in self._edges]

    def deleted(self, time_order: int) -> bool:
        # LogStore deletes are physical (the store is mutable), so a
        # present edge is by definition live.
        return False

    def deleted_count(self) -> int:
        return 0


class LogStore:
    """Query-optimized uncompressed store for fresh writes.

    Maintains node PropertyLists, timestamp-sorted edge lists per
    (source, EdgeType), and an inverted index over (PropertyID, value)
    for ``get_node_ids``. Node deletes tombstone (appends revive); edge
    deletes are physical -- this store is the mutable one.
    """

    def __init__(self, stats: Optional[AccessStats] = None) -> None:
        self.stats = stats if stats is not None else AccessStats()
        self._nodes: Dict[int, PropertyList] = {}
        self._edges: Dict[Tuple[int, int], List[Edge]] = {}
        self._value_index: Dict[Tuple[str, str], Set[int]] = {}
        self._node_tombstones: Set[int] = set()
        self._size_bytes = 0

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def append_node(self, node_id: int, properties: PropertyList) -> None:
        """Append a node (or a fresh version of one) with its properties."""
        self.stats.writes += 1
        previous = self._nodes.get(node_id)
        if previous is not None:
            for key, value in previous.items():
                self._value_index.get((key, value), set()).discard(node_id)
            # A tombstoned previous version was already subtracted from
            # the size accounting when it was deleted.
            if node_id not in self._node_tombstones:
                self._size_bytes -= self._node_size(node_id, previous)
        self._nodes[node_id] = dict(properties)
        self._node_tombstones.discard(node_id)
        for key, value in properties.items():
            self._value_index.setdefault((key, value), set()).add(node_id)
        self._size_bytes += self._node_size(node_id, properties)

    def append_edge(self, edge: Edge) -> None:
        """Append one edge, keeping the record sorted by timestamp."""
        self.stats.writes += 1
        bucket = self._edges.setdefault((edge.source, edge.edge_type), [])
        keys = [(e.timestamp, e.destination) for e in bucket]
        bucket.insert(bisect.bisect_right(keys, (edge.timestamp, edge.destination)), edge)
        self._size_bytes += self._edge_size(edge)

    def delete_node(self, node_id: int) -> bool:
        """Tombstone a node held here; returns whether it was present.

        The dead payload no longer counts toward the freeze threshold or
        the footprint; :meth:`append_node` re-adds it on revive.
        """
        self.stats.writes += 1
        if node_id in self._nodes and node_id not in self._node_tombstones:
            self._node_tombstones.add(node_id)
            self._size_bytes -= self._node_size(node_id, self._nodes[node_id])
            return True
        return False

    def delete_edges(self, source: int, edge_type: int, destination: int) -> int:
        """Remove matching edges held here. The LogStore is the one
        *mutable* store in the system, so deletion is physical --
        tombstoning by (source, type, destination) would wrongly revive
        older duplicates when the same edge is later re-appended."""
        self.stats.writes += 1
        bucket = self._edges.get((source, edge_type), [])
        remaining = [edge for edge in bucket if edge.destination != destination]
        matching = len(bucket) - len(remaining)
        if matching:
            for edge in bucket:
                if edge.destination == destination:
                    self._size_bytes -= self._edge_size(edge)
            if remaining:
                self._edges[(source, edge_type)] = remaining
            else:
                del self._edges[(source, edge_type)]
        return matching

    # ------------------------------------------------------------------
    # Reads (mirroring the shard interface)
    # ------------------------------------------------------------------

    def has_node(self, node_id: int) -> bool:
        self.stats.random_accesses += 1
        return node_id in self._nodes

    def has_edge_bucket(self, source: int, edge_type: int) -> bool:
        """Whether any (source, edge_type) edges are physically present
        (routing-metadata probe; not metered as a storage touch)."""
        return bool(self._edges.get((source, edge_type)))

    def node_live(self, node_id: int) -> bool:
        return node_id in self._nodes and node_id not in self._node_tombstones

    @obs.traced("logstore.get_properties", layer="logstore")
    def get_properties(
        self, node_id: int, property_ids: Optional[List[str]] = None
    ) -> PropertyList:
        self.stats.random_accesses += 1
        properties = self._nodes[node_id]
        if property_ids is None:
            return dict(properties)
        return _subset(properties, property_ids)

    def get_properties_batch(
        self, node_ids: List[int], property_ids: List[str]
    ) -> List[PropertyList]:
        """``get_properties(node, property_ids)`` of every node, in order."""
        self.stats.random_accesses += len(node_ids)
        return [_subset(self._nodes[node_id], property_ids) for node_id in node_ids]

    def get_property(self, node_id: int, property_id: str) -> Optional[str]:
        self.stats.random_accesses += 1
        return self._nodes[node_id].get(property_id)

    @obs.traced("logstore.find_live_nodes", layer="logstore")
    def find_live_nodes(self, properties: PropertyList) -> List[int]:
        """NodeIDs matching all pairs, via the inverted index."""
        self.stats.searches += 1
        if not properties:
            return sorted(n for n in self._nodes if n not in self._node_tombstones)
        result: Optional[Set[int]] = None
        for pair in properties.items():
            matches = self._value_index.get(pair, set())
            result = set(matches) if result is None else result & matches
            if not result:
                return []
        return sorted(n for n in result if n not in self._node_tombstones)

    def edge_fragment(self, source: int, edge_type: int) -> Optional[LogEdgeFragment]:
        self.stats.random_accesses += 1
        bucket = self._edges.get((source, edge_type))
        if not bucket:
            return None
        return LogEdgeFragment(self, source, edge_type, bucket)

    def edge_fragments(self, source: int) -> List[LogEdgeFragment]:
        self.stats.random_accesses += 1
        return [
            LogEdgeFragment(self, source, edge_type, bucket)
            for (src, edge_type), bucket in sorted(self._edges.items())
            if src == source and bucket
        ]

    @obs.traced("logstore.find_edges_by_property", layer="logstore")
    def find_edges_by_property(
        self, property_id: str, value: str
    ) -> List[Tuple[int, int, EdgeData]]:
        """Live edges whose PropertyList matches; (source, edge_type,
        EdgeData) triples, mirroring the compressed shards' API."""
        self.stats.searches += 1
        results = []
        for (source, edge_type), bucket in sorted(self._edges.items()):
            for edge in bucket:
                if edge.properties.get(property_id) == value:
                    results.append((
                        source, edge_type,
                        EdgeData(edge.destination, edge.timestamp, dict(edge.properties)),
                    ))
        return results

    def fragments_of_type(self, edge_type: int) -> List[LogEdgeFragment]:
        self.stats.searches += 1
        return [
            LogEdgeFragment(self, src, etype, bucket)
            for (src, etype), bucket in sorted(self._edges.items())
            if etype == edge_type and bucket
        ]

    # ------------------------------------------------------------------
    # Freeze support
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self._nodes and not self._edges

    def live_contents(self) -> Tuple[Dict[int, PropertyList], Dict[Tuple[int, int], List[Edge]]]:
        """Live (non-tombstoned) contents, for compression into a shard.

        Tombstoned data is compacted away: deletes of data living in
        *other* shards were applied to those shards' bitmaps directly.
        """
        nodes = {
            node_id: dict(properties)
            for node_id, properties in self._nodes.items()
            if node_id not in self._node_tombstones
        }
        edges: Dict[Tuple[int, int], List[Edge]] = {
            key: list(bucket) for key, bucket in self._edges.items() if bucket
        }
        return nodes, edges

    # ------------------------------------------------------------------
    # Persistence payloads (used by repro.core.persistence)
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the full LogStore contents
        (including tombstones, which must survive a save/load cycle)."""
        return {
            "nodes": {str(k): v for k, v in self._nodes.items()},
            "edges": {
                f"{src}:{etype}": [
                    [e.source, e.destination, e.edge_type, e.timestamp, e.properties]
                    for e in bucket
                ]
                for (src, etype), bucket in self._edges.items()
            },
            "node_tombstones": sorted(self._node_tombstones),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "LogStore":
        """Rebuild a LogStore from :meth:`to_payload` output.

        Contents are replayed through the write API so the inverted
        index and freeze-threshold size accounting come out exactly as
        they were pre-save (tombstoned payload excluded)."""
        log = cls()
        nodes = payload["nodes"]
        assert isinstance(nodes, dict)
        for node_id, properties in nodes.items():
            log.append_node(int(node_id), dict(properties))
        edges = payload["edges"]
        assert isinstance(edges, dict)
        for rows in edges.values():
            for row in rows:
                source, destination, edge_type, timestamp, properties = row
                log.append_edge(
                    Edge(source, destination, edge_type, timestamp, dict(properties))
                )
        tombstones = payload["node_tombstones"]
        assert isinstance(tombstones, list)
        for node_id in tombstones:
            log.delete_node(int(node_id))
        log.stats.reset()
        return log

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------

    @staticmethod
    def _node_size(node_id: int, properties: PropertyList) -> int:
        return len(str(node_id)) + sum(len(k) + len(v) + 2 for k, v in properties.items())

    @staticmethod
    def _edge_size(edge: Edge) -> int:
        base = (
            len(str(edge.source))
            + len(str(edge.destination))
            + len(str(edge.edge_type))
            + len(str(edge.timestamp))
            + 4
        )
        return base + sum(len(k) + len(v) + 2 for k, v in edge.properties.items())

    def size_bytes(self) -> int:
        """Raw payload size (the freeze-threshold trigger)."""
        return self._size_bytes

    def serialized_size_bytes(self) -> int:
        """Memory footprint: query-optimized, so payload plus index
        overhead (the reason a per-server LogStore would waste memory)."""
        index_overhead = sum(
            len(k) + len(v) + 8 * len(nodes)
            for (k, v), nodes in self._value_index.items()
        )
        return self._size_bytes + index_overhead


def _subset(properties: PropertyList, property_ids: List[str]) -> PropertyList:
    """The set ``property_ids`` of ``properties``, in request order."""
    return {pid: properties[pid] for pid in property_ids if pid in properties}

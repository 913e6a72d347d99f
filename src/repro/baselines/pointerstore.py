"""Neo4j-like pointer-based graph store (§3.3's "flexibility" extreme).

Models the mechanisms the paper attributes Neo4j's behaviour to:

* fixed-size *node records* pointing at the head of a relationship
  chain and a property chain;
* *relationship records* forming per-node linked lists (doubly linked
  in Neo4j; we keep per-source chains), each with its own property
  chain;
* *property records* holding one key/value each, chained;
* global secondary indexes on (PropertyID, value) -- the storage
  overhead Figure 5 charges Neo4j for;
* every record dereference counts one ``random_access``: this is the
  pointer-chasing behaviour that turns into one SSD lookup per hop once
  the store no longer fits in memory (§5.2).

``tuned=True`` models Neo4j-Tuned: relationship chains are additionally
grouped by edge type (so type-filtered traversals skip unrelated
edges), timestamp lookups binary-search a per-chain sorted index
instead of scanning, and property reads short-circuit after the
requested keys are found.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Set, Tuple

from repro.core.interface import GraphStoreInterface
from repro.core.model import EdgeData, GraphData, PropertyList
from repro.succinct.stats import AccessStats
from repro.workloads.properties import INDEXED_PROPERTY_IDS

# On-disk record sizes modeled on Neo4j's store formats. Property
# values up to INLINE_VALUE_BYTES fit inside the fixed property record;
# longer values spill into the dynamic string store.
NODE_RECORD_BYTES = 15
RELATIONSHIP_RECORD_BYTES = 34
PROPERTY_RECORD_BYTES = 41
INLINE_VALUE_BYTES = 24
INDEX_ENTRY_OVERHEAD_BYTES = 48  # b-tree entry overhead per indexed value


class _PropertyRecord:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: str, value: str):
        self.key = key
        self.value = value
        self.next: Optional["_PropertyRecord"] = None


class _RelationshipRecord:
    __slots__ = ("source", "destination", "edge_type", "timestamp", "properties", "next")

    def __init__(self, source: int, destination: int, edge_type: int, timestamp: int):
        self.source = source
        self.destination = destination
        self.edge_type = edge_type
        self.timestamp = timestamp
        self.properties: Optional[_PropertyRecord] = None
        self.next: Optional["_RelationshipRecord"] = None


class _NodeRecord:
    __slots__ = (
        "node_id", "first_property", "first_relationship", "typed_chains",
        "ts_index", "deleted",
    )

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.first_property: Optional[_PropertyRecord] = None
        self.first_relationship: Optional[_RelationshipRecord] = None
        self.deleted = False
        # Tuned-only acceleration structures:
        self.typed_chains: Dict[int, List[_RelationshipRecord]] = {}
        self.ts_index: Dict[int, List[int]] = {}


class PointerGraphStore(GraphStoreInterface):
    """A Neo4j-like store; single machine only (as in the paper)."""

    def __init__(self, tuned: bool = False, indexed_properties=INDEXED_PROPERTY_IDS):
        self.name = "neo4j-tuned" if tuned else "neo4j"
        self._tuned = tuned
        self._nodes: Dict[int, _NodeRecord] = {}
        self._indexed = None if indexed_properties is None else set(indexed_properties)
        self._index: Dict[Tuple[str, str], Set[int]] = {}
        self._num_relationships = 0
        self._num_property_records = 0
        self.stats = AccessStats()

    @classmethod
    def load(cls, graph: GraphData, tuned: bool = False) -> "PointerGraphStore":
        """Bulk-load an input graph."""
        store = cls(tuned=tuned)
        for node_id in graph.node_ids():
            store.append_node(node_id, graph.node_properties(node_id))
        for edge in graph.all_edges():
            store.append_edge(
                edge.source, edge.edge_type, edge.destination, edge.timestamp,
                edge.properties,
            )
        store.reset_stats()
        return store

    # ------------------------------------------------------------------
    # Record traversal helpers (each hop is one storage touch)
    # ------------------------------------------------------------------

    def _node_record(self, node_id: int) -> _NodeRecord:
        self.stats.random_accesses += 1
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"node {node_id} not found") from None

    def _walk_properties(
        self, head: Optional[_PropertyRecord], wanted: Optional[Set[str]]
    ) -> PropertyList:
        result: PropertyList = {}
        record = head
        while record is not None:
            self.stats.random_accesses += 1  # pointer chase per property record
            if wanted is None or record.key in wanted:
                result[record.key] = record.value
                if self._tuned and wanted is not None and len(result) == len(wanted):
                    break
            record = record.next
        return result

    def _relationships(
        self, node: _NodeRecord, edge_type: Optional[int]
    ) -> List[_RelationshipRecord]:
        """Walk the relationship chain; tuned stores walk only the
        requested type's chain."""
        if self._tuned and edge_type is not None:
            chain = node.typed_chains.get(edge_type, [])
            self.stats.random_accesses += len(chain)
            return list(chain)
        records = []
        record = node.first_relationship
        while record is not None:
            self.stats.random_accesses += 1
            if edge_type is None or record.edge_type == edge_type:
                records.append(record)
            record = record.next
        if edge_type is None or not self._tuned:
            records.sort(key=lambda r: (r.timestamp, r.destination))
        return records

    # ------------------------------------------------------------------
    # Node queries
    # ------------------------------------------------------------------

    def get_node_property(self, node_id: int, property_ids="*") -> PropertyList:
        node = self._node_record(node_id)
        if node.deleted:
            raise KeyError(f"node {node_id} deleted")
        if property_ids == "*":
            wanted = None
        elif isinstance(property_ids, str):
            wanted = {property_ids}
        else:
            wanted = set(property_ids)
        return self._walk_properties(node.first_property, wanted)

    def get_node_ids(self, property_list: PropertyList) -> List[int]:
        """Uses the global secondary index for indexed PropertyIDs (the
        paper: Neo4j answers search queries from indexes, touching at
        most two partitions); non-indexed predicates fall back to a
        full property scan."""
        result: Optional[Set[int]] = None
        for key, value in property_list.items():
            self.stats.searches += 1
            if self._indexed is None or key in self._indexed:
                matches = self._index.get((key, value), set())
                self.stats.random_accesses += 1 + len(matches) // 64  # index pages
            else:
                matches = self._scan_for(key, value)
            result = set(matches) if result is None else result & matches
            if not result:
                return []
        if result is None:
            return sorted(node_id for node_id, n in self._nodes.items() if not n.deleted)
        return sorted(result)

    def _scan_for(self, key: str, value: str) -> Set[int]:
        """Full store scan for a non-indexed property predicate."""
        matches: Set[int] = set()
        for node_id, node in self._nodes.items():
            if node.deleted:
                continue
            properties = self._walk_properties(node.first_property, {key})
            if properties.get(key) == value:
                matches.add(node_id)
        return matches

    def get_neighbor_ids(
        self, node_id: int, edge_type="*", property_list: Optional[PropertyList] = None
    ) -> List[int]:
        self.stats.random_accesses += 1
        node = self._nodes.get(node_id)
        if node is None:
            return []  # no record, no associations (TAO semantics)
        etype = None if edge_type == "*" else int(edge_type)
        destinations = [r.destination for r in self._relationships(node, etype)]
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
    # Edge queries
    # ------------------------------------------------------------------

    def edge_count(self, node_id: int, edge_type: int) -> int:
        return len(self._edges_sorted(node_id, edge_type))

    def _edges_sorted(self, node_id: int, edge_type: int) -> List[_RelationshipRecord]:
        self.stats.random_accesses += 1
        node = self._nodes.get(node_id)
        if node is None:
            return []  # no record, no associations (TAO semantics)
        return self._relationships(node, edge_type)

    def edges_in_time_range(
        self,
        node_id: int,
        edge_type: int,
        t_low: Optional[int],
        t_high: Optional[int],
        limit: Optional[int] = None,
        with_properties: bool = True,
    ) -> List[EdgeData]:
        records = self._edges_sorted(node_id, edge_type)
        timestamps = [r.timestamp for r in records]
        begin = 0 if t_low is None else bisect.bisect_left(timestamps, t_low)
        end = len(records) if t_high is None else bisect.bisect_left(timestamps, t_high)
        if limit is not None:
            end = min(end, begin + limit)
        return [self._to_edge_data(r, with_properties) for r in records[begin:end]]

    def edges_from_index(
        self,
        node_id: int,
        edge_type: int,
        start_index: int,
        limit: Optional[int],
        with_properties: bool = True,
    ) -> List[EdgeData]:
        records = self._edges_sorted(node_id, edge_type)
        end = len(records) if limit is None else min(len(records), start_index + limit)
        return [self._to_edge_data(r, with_properties) for r in records[start_index:end]]

    def _to_edge_data(self, record: _RelationshipRecord, with_properties: bool) -> EdgeData:
        properties = (
            self._walk_properties(record.properties, None) if with_properties else {}
        )
        return EdgeData(record.destination, record.timestamp, properties)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def append_node(self, node_id: int, properties: PropertyList) -> None:
        # Pointer-based writes dirty multiple random locations: the node
        # record, one property record per value, and the index pages
        # (the paper's explanation for Neo4j's poor LinkBench writes).
        self.stats.writes += 1 + len(properties)
        node = self._nodes.get(node_id)
        if node is None:
            node = _NodeRecord(node_id)
            self._nodes[node_id] = node
        else:
            self._unindex_node(node)
            self._num_property_records -= self._count_property_records(node)
        node.deleted = False
        head: Optional[_PropertyRecord] = None
        for key, value in reversed(list(properties.items())):
            record = _PropertyRecord(key, value)
            record.next = head
            head = record
            self._num_property_records += 1
            self.stats.random_accesses += 1  # write touches a property record
        node.first_property = head
        for pair in properties.items():
            if self._indexed is None or pair[0] in self._indexed:
                self._index.setdefault(pair, set()).add(node_id)
                self.stats.random_accesses += 1  # index maintenance write

    def append_edge(
        self,
        source: int,
        edge_type: int,
        destination: int,
        timestamp: int = 0,
        properties: Optional[PropertyList] = None,
    ) -> None:
        self.stats.writes += 2 + len(properties or {})  # rel record + chain fixup
        node = self._nodes.setdefault(source, _NodeRecord(source))
        self._nodes.setdefault(destination, _NodeRecord(destination))
        record = _RelationshipRecord(source, destination, edge_type, timestamp)
        for key, value in reversed(list((properties or {}).items())):
            prop = _PropertyRecord(key, value)
            prop.next = record.properties
            record.properties = prop
            self._num_property_records += 1
            self.stats.random_accesses += 1
        # Insert at chain head (Neo4j prepends) -- plus pointer fixups.
        record.next = node.first_relationship
        node.first_relationship = record
        self._num_relationships += 1
        self.stats.random_accesses += 3  # node record + two pointer writes
        if self._tuned:
            chain = node.typed_chains.setdefault(edge_type, [])
            keys = [(r.timestamp, r.destination) for r in chain]
            chain.insert(
                bisect.bisect_right(keys, (timestamp, destination)), record
            )

    def delete_node(self, node_id: int) -> bool:
        """Delete the node's data (its PropertyList). Relationship
        records are independent (TAO separates objects from
        associations), so incident edges remain until assoc_del'd."""
        self.stats.writes += 1
        node = self._nodes.get(node_id)
        if node is None or node.deleted:
            return False
        self._unindex_node(node)
        # Deleting touches each of the node's property records.
        record = node.first_property
        while record is not None:
            self.stats.random_accesses += 1
            self._num_property_records -= 1
            record = record.next
        node.first_property = None
        node.deleted = True
        return True

    @staticmethod
    def _count_property_records(node: _NodeRecord) -> int:
        count = 0
        record = node.first_property
        while record is not None:
            count += 1
            record = record.next
        return count

    def delete_edge(self, source: int, edge_type: int, destination: int) -> int:
        self.stats.writes += 1
        node = self._nodes.get(source)
        if node is None:
            return 0
        deleted = 0
        previous: Optional[_RelationshipRecord] = None
        record = node.first_relationship
        while record is not None:
            self.stats.random_accesses += 1
            if record.edge_type == edge_type and record.destination == destination:
                if previous is None:
                    node.first_relationship = record.next
                else:
                    previous.next = record.next
                deleted += 1
                self._num_relationships -= 1
            else:
                previous = record
            record = record.next
        if self._tuned and edge_type in node.typed_chains:
            node.typed_chains[edge_type] = [
                r for r in node.typed_chains[edge_type] if r.destination != destination
            ]
        return deleted

    def _unindex_node(self, node: _NodeRecord) -> None:
        record = node.first_property
        while record is not None:
            if self._indexed is None or record.key in self._indexed:
                self._index.get((record.key, record.value), set()).discard(node.node_id)
            record = record.next

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def storage_footprint_bytes(self) -> int:
        """Record stores plus the secondary indexes (Figure 5's
        overhead source for Neo4j)."""
        records = (
            len(self._nodes) * NODE_RECORD_BYTES
            + self._num_relationships * RELATIONSHIP_RECORD_BYTES
            + self._num_property_records * PROPERTY_RECORD_BYTES
        )
        strings = 0

        def spill(value: str) -> int:
            # Values longer than the inline capacity go to the dynamic
            # string store, allocated in chained 128-byte blocks (as in
            # Neo4j's dynamic record format).
            excess = len(value) - INLINE_VALUE_BYTES
            if excess <= 0:
                return 0
            return ((excess + 119) // 120) * 128

        for node in self._nodes.values():
            prop = node.first_property
            while prop is not None:
                strings += spill(prop.value)
                prop = prop.next
            rel = node.first_relationship
            while rel is not None:
                p = rel.properties
                while p is not None:
                    strings += spill(p.value)
                    p = p.next
                rel = rel.next
        index = sum(
            len(k) + len(v) + INDEX_ENTRY_OVERHEAD_BYTES * max(1, len(nodes))
            for (k, v), nodes in self._index.items()
        )
        return records + strings + index

    def aggregate_stats(self) -> AccessStats:
        return self.stats

    def reset_stats(self) -> None:
        self.stats.reset()

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

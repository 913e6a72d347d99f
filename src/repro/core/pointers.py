"""Fanned-update pointers (§3.5, Figure 3).

As new data for a node is appended after its original shard was
compressed, the node's data becomes *fragmented* across shards. Update
pointers are stored only at the shard where the node first occurs and
chain together every later shard holding data for that node, so a query
touches exactly the shards it needs instead of broadcasting to all.

The pointers are kept uncompressed (updates are a small fraction of
real workloads, so the overhead is minimal).

Thread safety: concurrent queries read the tables while the ingest
path keeps appending, so every table is protected by one
non-reentrant lock.
Methods named ``*_locked`` assume the caller already holds it.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Set, Tuple

from repro import obs

#: Process-wide pointer-table lookup meter: one increment per
#: ``node_shards`` / ``edge_shards`` / ``all_edge_shards`` resolution.
_POINTER_LOOKUPS = obs.counter(
    "zipg_pointer_lookups_total", help="update-pointer table resolutions"
)

ACTIVE_LOGSTORE = -1
"""Pseudo shard id for the active LogStore; promoted to a concrete
shard id when the LogStore is frozen."""


class UpdatePointerTable:
    """Pointers from (NodeID, kind) to the shards holding newer data.

    ``kind`` distinguishes node-property fragments from edge fragments:
    edge pointers are per (NodeID, EdgeType) so an edge query follows
    only the shards that actually received edges of that type.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._node_pointers: Dict[int, List[int]] = {}
        self._edge_pointers: Dict[Tuple[int, int], List[int]] = {}

    # ------------------------------------------------------------------
    # Registration (called when a LogStore is frozen into a new shard)
    # ------------------------------------------------------------------

    def add_node_pointer(self, node_id: int, shard_id: int) -> None:
        with self._lock:
            shards = self._node_pointers.setdefault(node_id, [])
            if shard_id not in shards:
                shards.append(shard_id)

    def add_edge_pointer(self, node_id: int, edge_type: int, shard_id: int) -> None:
        with self._lock:
            shards = self._edge_pointers.setdefault((node_id, edge_type), [])
            if shard_id not in shards:
                shards.append(shard_id)

    def promote_node_active(self, node_id: int, shard_id: int) -> None:
        """Rewrite an ACTIVE_LOGSTORE node pointer to a concrete shard
        (called when the LogStore is frozen into that shard)."""
        with self._lock:
            shards = self._node_pointers.get(node_id)
            if shards and ACTIVE_LOGSTORE in shards:
                shards.remove(ACTIVE_LOGSTORE)
                if shard_id not in shards:
                    shards.append(shard_id)

    def promote_edge_active(self, node_id: int, edge_type: int, shard_id: int) -> None:
        """Edge-pointer analogue of :meth:`promote_node_active`."""
        with self._lock:
            shards = self._edge_pointers.get((node_id, edge_type))
            if shards and ACTIVE_LOGSTORE in shards:
                shards.remove(ACTIVE_LOGSTORE)
                if shard_id not in shards:
                    shards.append(shard_id)

    # ------------------------------------------------------------------
    # Pruning (called when the pointed-to data is physically gone)
    # ------------------------------------------------------------------

    def _remove_node_pointer_locked(self, node_id: int, shard_id: int) -> None:
        shards = self._node_pointers.get(node_id)
        if shards and shard_id in shards:
            shards.remove(shard_id)
            if not shards:
                del self._node_pointers[node_id]

    def _remove_edge_pointer_locked(
        self, node_id: int, edge_type: int, shard_id: int
    ) -> None:
        shards = self._edge_pointers.get((node_id, edge_type))
        if shards and shard_id in shards:
            shards.remove(shard_id)
            if not shards:
                del self._edge_pointers[(node_id, edge_type)]

    def remove_node_pointer(self, node_id: int, shard_id: int) -> None:
        """Drop one node pointer if present (no-op otherwise)."""
        with self._lock:
            self._remove_node_pointer_locked(node_id, shard_id)

    def remove_edge_pointer(self, node_id: int, edge_type: int, shard_id: int) -> None:
        """Drop one edge pointer if present (no-op otherwise)."""
        with self._lock:
            self._remove_edge_pointer_locked(node_id, edge_type, shard_id)

    def drop_active(self) -> None:
        """Remove every remaining ACTIVE_LOGSTORE pointer.

        Called at the end of a freeze, *after* pointers for the frozen
        contents were promoted: anything still pointing at the (about to
        be replaced) LogStore refers to data that did not survive --
        physically deleted edge buckets or tombstoned nodes -- and would
        otherwise route queries to a fresh empty LogStore forever.

        One lock acquisition covers the whole sweep so a concurrent
        reader sees either the pre-freeze or post-freeze table, never a
        half-swept one.
        """
        with self._lock:
            for node_id in list(self._node_pointers):
                self._remove_node_pointer_locked(node_id, ACTIVE_LOGSTORE)
            for (node_id, edge_type) in list(self._edge_pointers):
                self._remove_edge_pointer_locked(node_id, edge_type, ACTIVE_LOGSTORE)

    def remap(
        self,
        node_fn: Callable[[int, List[int]], List[int]],
        edge_fn: Callable[[Tuple[int, int], List[int]], List[int]],
    ) -> None:
        """Rewrite every pointer list through the given callbacks
        (compaction uses this to collapse frozen-shard ids).

        ``node_fn(node_id, shard_ids)`` / ``edge_fn(key, shard_ids)``
        return the replacement list; an empty result drops the entry.
        Runs under one lock acquisition so concurrent readers never see
        a partially rewritten table; the callbacks must not call back
        into this table.
        """
        with self._lock:
            for node_id in list(self._node_pointers):
                rewritten = node_fn(node_id, self._node_pointers[node_id])
                if rewritten:
                    self._node_pointers[node_id] = rewritten
                else:
                    del self._node_pointers[node_id]
            for key in list(self._edge_pointers):
                rewritten = edge_fn(key, self._edge_pointers[key])
                if rewritten:
                    self._edge_pointers[key] = rewritten
                else:
                    del self._edge_pointers[key]

    # ------------------------------------------------------------------
    # Serialization (see repro.core.persistence)
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, Dict[str, List[int]]]:
        """JSON-serializable snapshot of both pointer maps."""
        with self._lock:
            return {
                "nodes": {str(k): list(v) for k, v in self._node_pointers.items()},
                "edges": {
                    f"{n}:{t}": list(v)
                    for (n, t), v in self._edge_pointers.items()
                },
            }

    @classmethod
    def from_payload(cls, payload: Dict[str, Dict[str, List[int]]]) -> "UpdatePointerTable":
        """Rebuild a table from a :meth:`to_payload` snapshot."""
        table = cls()
        with table._lock:
            table._node_pointers = {
                int(k): list(v) for k, v in payload["nodes"].items()
            }
            table._edge_pointers = {
                (int(k.split(":")[0]), int(k.split(":")[1])): list(v)
                for k, v in payload["edges"].items()
            }
        return table

    # ------------------------------------------------------------------
    # Query-time chasing
    # ------------------------------------------------------------------

    def node_shards(self, node_id: int) -> List[int]:
        """Shards (in append order) with newer property data for the node."""
        _POINTER_LOOKUPS.inc()
        with self._lock:
            return list(self._node_pointers.get(node_id, []))

    def edge_shards(self, node_id: int, edge_type: int) -> List[int]:
        """Shards (in append order) with newer edges of this type."""
        _POINTER_LOOKUPS.inc()
        with self._lock:
            return list(self._edge_pointers.get((node_id, edge_type), []))

    def all_edge_shards(self, node_id: int) -> List[int]:
        """Union of edge-pointer targets across every edge type."""
        _POINTER_LOOKUPS.inc()
        shards: List[int] = []
        seen: Set[int] = set()
        with self._lock:
            for (pointer_node, _), targets in self._edge_pointers.items():
                if pointer_node != node_id:
                    continue
                for shard in targets:
                    if shard not in seen:
                        seen.add(shard)
                        shards.append(shard)
        return shards

    def fragment_count(self, node_id: int) -> int:
        """Number of *additional* shards the node's data spans (the
        home shard itself is not counted)."""
        with self._lock:
            shards: Set[int] = set(self._node_pointers.get(node_id, []))
            for (pointer_node, _), targets in self._edge_pointers.items():
                if pointer_node == node_id:
                    shards.update(targets)
            return len(shards)

    def tracked_nodes(self) -> Set[int]:
        with self._lock:
            nodes = set(self._node_pointers)
            nodes.update(node for node, _ in self._edge_pointers)
            return nodes

    def serialized_size_bytes(self) -> int:
        """Footprint of the (uncompressed) pointer tables."""
        with self._lock:
            node_bytes = sum(8 + 4 * len(v) for v in self._node_pointers.values())
            edge_bytes = sum(12 + 4 * len(v) for v in self._edge_pointers.values())
            return node_bytes + edge_bytes

"""System registry: ZipG and the four baselines behind one interface.

:class:`ZipGSystem` implements the evaluation interface *on the ZipG
API* exactly the way §4.2 does: ``assoc_range`` is Algorithm 1,
``assoc_get``/``assoc_time_range`` are Algorithms 2/3 -- each a handful
of lines over ``get_edge_record`` / ``get_time_range`` /
``get_edge_data``, the per-index loop read as one
``get_edge_data_range`` call.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.baselines.interface import GraphStoreInterface
from repro.baselines.kvgraph import KVGraphStore
from repro.baselines.pointerstore import PointerGraphStore
from repro.core.graph_store import ZipG
from repro.core.model import EdgeData, GraphData, PropertyList
from repro.succinct.stats import AccessStats

SYSTEMS = ("zipg", "neo4j", "neo4j-tuned", "titan", "titan-compressed")


class ZipGSystem(GraphStoreInterface):
    """ZipG exposed through the evaluation interface (Table 2 mapping)."""

    name = "zipg"

    def __init__(self, store: ZipG):
        self.store = store

    @classmethod
    def load(
        cls,
        graph: GraphData,
        num_shards: int = 4,
        alpha: int = 32,
        logstore_threshold_bytes: int = 1 << 20,
        extra_property_ids: Optional[Sequence[str]] = None,
        encoding: str = "succinct",
    ) -> "ZipGSystem":
        return cls(
            ZipG.compress(
                graph,
                num_shards=num_shards,
                alpha=alpha,
                logstore_threshold_bytes=logstore_threshold_bytes,
                extra_property_ids=extra_property_ids,
                encoding=encoding,
            )
        )

    # -- node queries ---------------------------------------------------

    def get_node_property(self, node_id: int, property_ids="*") -> PropertyList:
        return self.store.get_node_property(node_id, property_ids)

    def get_node_ids(self, property_list: PropertyList) -> List[int]:
        return self.store.get_node_ids(property_list)

    def get_neighbor_ids(
        self, node_id: int, edge_type="*", property_list: Optional[PropertyList] = None
    ) -> List[int]:
        return self.store.get_neighbor_ids(node_id, edge_type, property_list)

    # -- edge queries (Algorithms 1-3 of the paper) ----------------------

    def edge_count(self, node_id: int, edge_type: int) -> int:
        # assoc_count: the EdgeCount metadata via get_edge_record.
        return self.store.get_edge_record(node_id, edge_type).edge_count

    def edges_from_index(
        self,
        node_id: int,
        edge_type: int,
        start_index: int,
        limit: Optional[int],
        with_properties: bool = True,
    ) -> List[EdgeData]:
        # Algorithm 1: assoc_range(id, atype, idx, limit).
        record = self.store.get_edge_record(node_id, edge_type)
        end = record.edge_count if limit is None else min(record.edge_count, start_index + limit)
        return self.store.get_edge_data_range(record, start_index, end, with_properties)

    def edges_in_time_range(
        self,
        node_id: int,
        edge_type: int,
        t_low: Optional[int],
        t_high: Optional[int],
        limit: Optional[int] = None,
        with_properties: bool = True,
    ) -> List[EdgeData]:
        # Algorithm 3: assoc_time_range(id, atype, lo, hi, limit).
        record = self.store.get_edge_record(node_id, edge_type)
        begin, end = self.store.get_edge_range(record, t_low, t_high)
        if limit is not None:
            end = min(end, begin + limit)
        return self.store.get_edge_data_range(record, begin, end, with_properties)

    def assoc_get(
        self,
        node_id: int,
        edge_type: int,
        id2_set: Set[int],
        t_low: Optional[int],
        t_high: Optional[int],
    ) -> List[EdgeData]:
        # Algorithm 2: assoc_get(id1, atype, id2set, hi, lo). The
        # window's destinations come from one range read; properties
        # are fetched only for the edges that match.
        record = self.store.get_edge_record(node_id, edge_type)
        begin, end = self.store.get_edge_range(record, t_low, t_high)
        window = self.store.get_edge_data_range(
            record, begin, end, with_properties=False
        )
        return [
            self.store.get_edge_data(record, begin + offset)
            for offset, entry in enumerate(window)
            if entry.destination in id2_set
        ]

    # -- updates ----------------------------------------------------------

    def append_node(self, node_id: int, properties: PropertyList) -> None:
        self.store.append_node(node_id, properties)

    def append_edge(
        self,
        source: int,
        edge_type: int,
        destination: int,
        timestamp: int = 0,
        properties: Optional[PropertyList] = None,
    ) -> None:
        self.store.append_edge(source, edge_type, destination, timestamp, properties)

    def delete_node(self, node_id: int) -> bool:
        return self.store.delete_node(node_id)

    def delete_edge(self, source: int, edge_type: int, destination: int) -> int:
        return self.store.delete_edge(source, edge_type, destination)

    # -- accounting -------------------------------------------------------

    def storage_footprint_bytes(self) -> int:
        return self.store.storage_footprint_bytes()

    def aggregate_stats(self) -> AccessStats:
        return self.store.aggregate_stats()

    def reset_stats(self) -> None:
        self.store.reset_stats()


def build_system(
    name: str,
    graph: GraphData,
    num_shards: int = 4,
    alpha: int = 32,
    extra_property_ids: Optional[Sequence[str]] = None,
    logstore_threshold_bytes: int = 1 << 20,
) -> GraphStoreInterface:
    """Instantiate any of the five evaluated systems over ``graph``."""
    if name == "zipg":
        return ZipGSystem.load(
            graph,
            num_shards=num_shards,
            alpha=alpha,
            logstore_threshold_bytes=logstore_threshold_bytes,
            extra_property_ids=extra_property_ids,
        )
    if name == "neo4j":
        return PointerGraphStore.load(graph, tuned=False)
    if name == "neo4j-tuned":
        return PointerGraphStore.load(graph, tuned=True)
    if name == "titan":
        return KVGraphStore.load(graph, compressed=False)
    if name == "titan-compressed":
        return KVGraphStore.load(graph, compressed=True)
    raise ValueError(f"unknown system {name!r}; choose from {SYSTEMS}")

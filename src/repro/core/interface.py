"""The common query surface shared by ZipG and the baselines.

:class:`~repro.core.graph_store.ZipG` implements it directly (the TAO
calls are Algorithms 1-3 of §4.2, written on the Table 1 API), and so
do the clusters fronting a ZipG store and the baselines.  The
workload generators and the benchmark harness drive every system
through these methods, so a TAO/LinkBench/Graph Search query executes
the *same logical work* everywhere and only the storage architecture
differs -- which is exactly what the paper's evaluation varies.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Union

from repro.core.model import EdgeData, PropertyList
from repro.succinct.stats import AccessStats


class GraphStoreInterface(abc.ABC):
    """Abstract graph store: the operations the evaluation exercises."""

    #: human-readable system name used in benchmark tables
    name: str = "abstract"

    # -- node queries ---------------------------------------------------

    @abc.abstractmethod
    def get_node_property(
        self, node_id: int, property_ids: Union[str, Sequence[str]] = "*"
    ) -> PropertyList:
        """Properties of a node (TAO ``obj_get``)."""

    @abc.abstractmethod
    def get_node_ids(self, property_list: PropertyList) -> List[int]:
        """Nodes matching all property pairs (Graph Search GS3)."""

    @abc.abstractmethod
    def get_neighbor_ids(
        self,
        node_id: int,
        edge_type: Union[int, str] = "*",
        property_list: Optional[PropertyList] = None,
    ) -> List[int]:
        """Neighbors, optionally filtered by type and properties."""

    # -- edge queries ---------------------------------------------------

    @abc.abstractmethod
    def edge_count(self, node_id: int, edge_type: int) -> int:
        """TAO ``assoc_count``."""

    @abc.abstractmethod
    def edges_in_time_range(
        self,
        node_id: int,
        edge_type: int,
        t_low: Optional[int],
        t_high: Optional[int],
        limit: Optional[int] = None,
        with_properties: bool = True,
    ) -> List[EdgeData]:
        """TAO ``assoc_time_range``; wildcards via ``None`` bounds."""

    @abc.abstractmethod
    def edges_from_index(
        self,
        node_id: int,
        edge_type: int,
        start_index: int,
        limit: Optional[int],
        with_properties: bool = True,
    ) -> List[EdgeData]:
        """TAO ``assoc_range``: edges by TimeOrder starting at an index."""

    # -- updates ----------------------------------------------------------

    @abc.abstractmethod
    def append_node(self, node_id: int, properties: PropertyList) -> None:
        """TAO ``obj_add``."""

    @abc.abstractmethod
    def append_edge(
        self,
        source: int,
        edge_type: int,
        destination: int,
        timestamp: int = 0,
        properties: Optional[PropertyList] = None,
    ) -> None:
        """TAO ``assoc_add``."""

    @abc.abstractmethod
    def delete_node(self, node_id: int) -> bool:
        """TAO ``obj_del``."""

    @abc.abstractmethod
    def delete_edge(self, source: int, edge_type: int, destination: int) -> int:
        """TAO ``assoc_del``."""

    def update_node(self, node_id: int, properties: PropertyList) -> None:
        """TAO ``obj_update`` (delete + append by default)."""
        self.delete_node(node_id)
        self.append_node(node_id, properties)

    def update_edge(
        self,
        source: int,
        edge_type: int,
        destination: int,
        timestamp: int = 0,
        properties: Optional[PropertyList] = None,
    ) -> None:
        """TAO ``assoc_update`` (delete + append by default)."""
        self.delete_edge(source, edge_type, destination)
        self.append_edge(source, edge_type, destination, timestamp, properties)

    # -- accounting -------------------------------------------------------

    @abc.abstractmethod
    def storage_footprint_bytes(self) -> int:
        """Total bytes of the system's data representation (Figure 5)."""

    @abc.abstractmethod
    def aggregate_stats(self) -> AccessStats:
        """Merged access counters across the system's components."""

    @abc.abstractmethod
    def reset_stats(self) -> None:
        """Zero all access counters."""

"""Shared workload machinery: operations and sampling context."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.model import GraphData
from repro.workloads.properties import TIMESTAMP_BASE, TIMESTAMP_SPAN_SECONDS


@dataclass
class Operation:
    """One workload operation: a named closure over a graph store.

    ``run`` takes any object implementing
    :class:`~repro.core.interface.GraphStoreInterface` so the same
    operation stream can be replayed against every evaluated system.
    ``target`` is the primary NodeID the operation routes by (None for
    all-shard searches) -- clusters use it for server attribution.
    """

    name: str
    run: Callable
    target: "int | None" = None


@dataclass
class WorkloadContext:
    """Sampling state shared by the query-mix workloads."""

    node_ids: List[int]
    edge_samples: List[Tuple[int, int, int]]  # (source, edge_type, destination)
    num_edge_types: int
    rng: np.random.Generator
    node_skew: float = 0.0  # 0 = uniform; >1 = zipf-skewed hot nodes
    next_node_id: int = 0
    next_timestamp: int = TIMESTAMP_BASE + TIMESTAMP_SPAN_SECONDS
    added_nodes: List[int] = field(default_factory=list)

    @classmethod
    def from_graph(
        cls,
        graph: GraphData,
        rng: np.random.Generator,
        node_skew: float = 0.0,
        max_edge_samples: int = 2000,
    ) -> "WorkloadContext":
        node_ids = graph.node_ids()
        edge_samples = []
        for edge in graph.all_edges():
            edge_samples.append((edge.source, edge.edge_type, edge.destination))
            if len(edge_samples) >= max_edge_samples:
                break
        num_edge_types = 1 + max(
            (edge.edge_type for edge in graph.all_edges()), default=0
        )
        return cls(
            node_ids=node_ids,
            edge_samples=edge_samples,
            num_edge_types=num_edge_types,
            rng=rng,
            node_skew=node_skew,
            next_node_id=(max(node_ids) + 1) if node_ids else 0,
        )

    # -- samplers --------------------------------------------------------

    def sample_node(self) -> int:
        """A query-target node: uniform, or zipf-skewed toward low ids
        (the celebrities of the synthetic social graphs)."""
        if self.node_skew > 1.0:
            rank = int(self.rng.zipf(self.node_skew)) - 1
            return self.node_ids[min(rank, len(self.node_ids) - 1)]
        return self.node_ids[int(self.rng.integers(0, len(self.node_ids)))]

    def sample_edge_type(self) -> int:
        return int(self.rng.integers(0, self.num_edge_types))

    def sample_edge(self) -> Tuple[int, int, int]:
        index = int(self.rng.integers(0, len(self.edge_samples)))
        return self.edge_samples[index]

    def sample_time_window(self) -> Tuple[int, int]:
        """A [t_low, t_high) window inside the dataset's timestamp span."""
        start = TIMESTAMP_BASE + int(self.rng.integers(0, TIMESTAMP_SPAN_SECONDS // 2))
        width = int(self.rng.integers(3600, TIMESTAMP_SPAN_SECONDS // 2))
        return (start, start + width)

    def fresh_node_id(self) -> int:
        node_id = self.next_node_id
        self.next_node_id += 1
        self.added_nodes.append(node_id)
        return node_id

    def fresh_timestamp(self) -> int:
        self.next_timestamp += 1
        return self.next_timestamp


def sample_mix(rng: np.random.Generator, mix: Dict[str, float]) -> str:
    """Draw a query name according to a percentage mix (Table 2)."""
    names = list(mix)
    weights = np.asarray([mix[name] for name in names], dtype=np.float64)
    weights /= weights.sum()
    return names[int(rng.choice(len(names), p=weights))]


def assoc_get_generic(system, node_id, edge_type, id2_set, t_low, t_high):
    """Algorithm 2 on any system: use a native ``assoc_get`` when the
    system provides one (ZipG), otherwise filter a time-range scan."""
    native = getattr(system, "assoc_get", None)
    if native is not None:
        return native(node_id, edge_type, id2_set, t_low, t_high)
    return [
        entry
        for entry in system.edges_in_time_range(node_id, edge_type, t_low, t_high)
        if entry.destination in id2_set
    ]

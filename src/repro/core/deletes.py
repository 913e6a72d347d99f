"""Lazy deletes (§3.5).

ZipG implements deletes as *lazy deletes* with a bitmap indicating
whether or not a node or an edge has been deleted; updates are a delete
followed by an append. Each compressed shard owns two bitmaps: one over
its sorted node array, one over its shard-wide edge numbering (an
EdgeRecord's metadata carries the base index of its first edge).
"""

from __future__ import annotations

from repro.succinct.bitvector import BitVector


class DeletionIndex:
    """Per-shard node and edge deletion bitmaps.

    These stay *uncompressed* (like the update pointers): they are tiny
    and must support in-place writes without touching the immutable
    compressed files.
    """

    def __init__(self, num_nodes: int, num_edges: int) -> None:
        self._nodes = BitVector(num_nodes)
        self._edges = BitVector(num_edges)

    # Nodes ------------------------------------------------------------

    def delete_node(self, node_index: int) -> None:
        self._nodes.set(node_index)

    def node_deleted(self, node_index: int) -> bool:
        return self._nodes[node_index]

    def num_deleted_nodes(self) -> int:
        return self._nodes.count()

    # Edges ------------------------------------------------------------

    def delete_edge(self, edge_index: int) -> None:
        self._edges.set(edge_index)

    def edge_deleted(self, edge_index: int) -> bool:
        return self._edges[edge_index]

    def num_deleted_edges(self) -> int:
        return self._edges.count()

    def deleted_edges_between(self, begin: int, end: int) -> int:
        """Deleted edges with index in ``[begin, end)``: a rank
        difference, O(1) once the rank directory is built."""
        return self._edges.rank1(end) - self._edges.rank1(begin)

    def serialized_size_bytes(self) -> int:
        return self._nodes.serialized_size_bytes() + self._edges.serialized_size_bytes()

"""A compressed shard: NodeFile + EdgeFile + deletion bitmaps.

Shards are the unit of compression and placement (§4.1): the initial
graph is hash-partitioned into per-core shards, and every LogStore
freeze produces one more. A shard's compressed files are immutable;
only its deletion bitmaps mutate.
"""

from __future__ import annotations

# zipg: hot-path

from typing import Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.core.deletes import DeletionIndex
from repro.core.delimiters import DelimiterMap
from repro.core.edgefile import EdgeFile, EdgeRecordFragment
from repro.core.model import Edge, EdgeData, PropertyList
from repro.succinct.stats import AccessStats


class CompressedShard:
    """One immutable compressed shard plus its mutable deletion bitmaps.

    Args:
        shard_id: position in the store's shard list.
        nodes: NodeID -> PropertyList owned by this shard.
        edges: (source, edge_type) -> edges owned by this shard.
        delimiters: graph-wide delimiter map.
        alpha: Succinct sampling rate.
        encoding: flat-file codec tag for both files (see
            :mod:`repro.succinct.encodings`).
    """

    def __init__(
        self,
        shard_id: int,
        nodes: Dict[int, PropertyList],
        edges: Dict[Tuple[int, int], Iterable[Edge]],
        delimiters: DelimiterMap,
        alpha: int = 32,
        encoding: str = "succinct",
    ) -> None:
        from repro.core.nodefile import NodeFile  # local import: avoid cycle at module load

        self.shard_id = shard_id
        self.stats = AccessStats()
        self.node_file = NodeFile(
            nodes, delimiters, alpha=alpha, stats=self.stats, encoding=encoding
        )
        self.edge_file = EdgeFile(
            edges, delimiters, alpha=alpha, stats=self.stats, encoding=encoding
        )
        self.deletions = DeletionIndex(len(self.node_file), self.edge_file.num_edges)

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def has_node(self, node_id: int) -> bool:
        return node_id in self.node_file

    def node_live(self, node_id: int) -> bool:
        if node_id not in self.node_file:
            return False
        return not self.deletions.node_deleted(self.node_file.node_index(node_id))

    def get_properties(
        self, node_id: int, property_ids: Optional[List[str]] = None
    ) -> PropertyList:
        return self.node_file.get_properties(node_id, property_ids)

    def get_properties_batch(
        self, node_ids: List[int], property_ids: List[str]
    ) -> List[PropertyList]:
        return self.node_file.get_properties_batch(node_ids, property_ids)

    def get_property(self, node_id: int, property_id: str) -> Optional[str]:
        return self.node_file.get_property(node_id, property_id)

    def find_live_nodes(self, properties: PropertyList) -> List[int]:
        """Search, filtered through the node deletion bitmap."""
        with obs.span("shard.find_live_nodes", layer="shard", shard=self.shard_id):
            return [
                node_id
                for node_id in self.node_file.find_nodes(properties)
                if not self.deletions.node_deleted(self.node_file.node_index(node_id))
            ]

    def delete_node(self, node_id: int) -> bool:
        """Lazily delete; returns whether the node was live here."""
        if not self.node_live(node_id):
            return False
        self.deletions.delete_node(self.node_file.node_index(node_id))
        self.stats.writes += 1
        return True

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    # Every EdgeRecordFragment this shard hands out or reads carries
    # the shard's edge deletion bitmap.

    def edge_fragment(self, source: int, edge_type: int) -> Optional[EdgeRecordFragment]:
        fragment = self.edge_file.find_record(source, edge_type)
        if fragment is not None:
            fragment.deletions = self.deletions
        return fragment

    def edge_fragments(self, source: int) -> List[EdgeRecordFragment]:
        fragments = self.edge_file.find_records(source)
        for fragment in fragments:
            fragment.deletions = self.deletions
        return fragments

    def fragments_of_type(self, edge_type: int) -> List[EdgeRecordFragment]:
        fragments = self.edge_file.records_of_type(edge_type)
        for fragment in fragments:
            fragment.deletions = self.deletions
        return fragments

    # zipg: scalar-ok  (one decode per verified search hit)
    def find_edges_by_property(
        self, property_id: str, value: str
    ) -> List[Tuple[int, int, EdgeData]]:
        """Live edges whose PropertyList matches (edge-property search,
        the §3.3 extension). Returns (source, edge_type, EdgeData)."""
        with obs.span(
            "shard.find_edges_by_property", layer="shard", shard=self.shard_id
        ):
            results = []
            for fragment, time_order in self.edge_file.find_edges_by_property(
                property_id, value
            ):
                fragment.deletions = self.deletions
                if fragment.deleted(time_order):
                    continue
                results.append(
                    (fragment.source, fragment.edge_type,
                     fragment.edge_data_at(time_order))
                )
            return results

    def delete_edges(self, source: int, edge_type: int, destination: int) -> int:
        """Mark all live (source, edge_type, destination) edges deleted."""
        fragment = self.edge_fragment(source, edge_type)
        if fragment is None:
            return 0
        deleted = 0
        for index, candidate in enumerate(fragment.all_destinations()):
            if candidate == destination and not fragment.deleted(index):
                fragment.mark_deleted(index)
                deleted += 1
        if deleted:
            self.stats.writes += 1
        return deleted

    # ------------------------------------------------------------------
    # Binary serialization (§4.1)
    # ------------------------------------------------------------------

    def sections(self) -> dict:
        """Write-side sections: compressed files (nested section dicts)
        plus deletion bitmaps, all as zero-copy chunks suitable for
        :func:`repro.succinct.serialize.write_sections`."""
        from repro.succinct.serialize import array_chunks, pack_ints

        return {
            "meta": pack_ints(self.shard_id, len(self.node_file),
                              self.edge_file.num_edges),
            "node_file": self.node_file.sections(),
            "edge_file": self.edge_file.sections(),
            "deleted_nodes": array_chunks(
                self.deletions._nodes.blocks_for_write()
            ),
            "deleted_edges": array_chunks(
                self.deletions._edges.blocks_for_write()
            ),
        }

    def to_bytes(self) -> bytes:
        """Serialize the shard to one owned blob."""
        from repro.succinct.serialize import pack_sections

        return pack_sections(self.sections())

    @classmethod
    def from_bytes(cls, blob: bytes, delimiters: DelimiterMap) -> "CompressedShard":
        """Reconstruct a shard serialized with :meth:`to_bytes` -- no
        recompression, matching the paper's load-serialized-files model.

        ``blob`` may be any buffer (bytes or an ``mmap``): the
        compressed files become zero-copy views over it, so the caller
        must keep the buffer alive for the shard's lifetime. Only the
        deletion bitmaps are copied -- they are this shard's one piece
        of mutable state, and an ``ACCESS_READ`` map could not back
        them."""
        from repro.core.nodefile import NodeFile
        from repro.succinct.bitvector import BitVector
        from repro.succinct.serialize import unpack_array, unpack_ints, unpack_sections

        sections = unpack_sections(blob)
        shard_id, num_nodes, num_edges = unpack_ints(sections["meta"])
        instance = cls.__new__(cls)
        instance.shard_id = shard_id
        instance.stats = AccessStats()
        instance.node_file = NodeFile.from_bytes(
            sections["node_file"], delimiters, stats=instance.stats
        )
        instance.edge_file = EdgeFile.from_bytes(
            sections["edge_file"], delimiters, stats=instance.stats
        )
        instance.deletions = DeletionIndex(num_nodes, num_edges)
        instance.deletions._nodes = BitVector.from_blocks(
            num_nodes, unpack_array(sections["deleted_nodes"])
        )
        instance.deletions._edges = BitVector.from_blocks(
            num_edges, unpack_array(sections["deleted_edges"])
        )
        return instance

    # ------------------------------------------------------------------
    # Garbage-collection support
    # ------------------------------------------------------------------

    def live_contents(self) -> Tuple[Dict[int, PropertyList], Dict[Tuple[int, int], List[Edge]]]:
        """The shard's live (non-deleted) data, decoded from the
        compressed files -- the input to periodic garbage collection
        (§4.1) and to persistence."""
        nodes: Dict[int, PropertyList] = {}
        for node_id in self.node_file.node_ids().tolist():
            if self.node_live(node_id):
                nodes[node_id] = self.node_file.get_properties(node_id)
        edges: Dict[Tuple[int, int], List[Edge]] = {}
        for offset in self.edge_file._record_offsets.tolist():
            fragment = self.edge_file._parse_record_at(int(offset))
            fragment.deletions = self.deletions
            # One range read for the whole record instead of per-edge
            # random accesses (the batched decode path).
            live: List[Edge] = [
                Edge(fragment.source, data.destination, fragment.edge_type,
                     data.timestamp, data.properties)
                for order, data in enumerate(
                    fragment.edge_data_range(0, fragment.edge_count)
                )
                if not fragment.deleted(order)
            ]
            if live:
                edges[(fragment.source, fragment.edge_type)] = live
        return nodes, edges

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------

    def original_size_bytes(self) -> int:
        return self.node_file.original_size_bytes() + self.edge_file.original_size_bytes()

    def serialized_size_bytes(self) -> int:
        return (
            self.node_file.serialized_size_bytes()
            + self.edge_file.serialized_size_bytes()
            + self.deletions.serialized_size_bytes()
        )

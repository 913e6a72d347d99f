"""System registry: ZipG and the four baselines behind one interface.

ZipG implements :class:`~repro.core.interface.GraphStoreInterface`
itself (Algorithms 1-3 are :class:`~repro.core.graph_store.ZipG`
methods), so :class:`ZipGSystem` adds no query logic: it is the
harness's handle on a store, built with ``load`` like the baselines.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.kvgraph import KVGraphStore
from repro.baselines.pointerstore import PointerGraphStore
from repro.core.graph_store import ZipG
from repro.core.interface import GraphStoreInterface
from repro.core.model import GraphData

SYSTEMS = ("zipg", "neo4j", "neo4j-tuned", "titan", "titan-compressed")


class ZipGSystem(ZipG):
    """ZipG as a Table 2 system: ``load`` takes the options of
    :meth:`ZipG.compress`, and ``store`` is the store itself."""

    @classmethod
    def load(cls, graph: GraphData, **options) -> "ZipGSystem":
        return cls.compress(graph, **options)

    @property
    def store(self) -> "ZipGSystem":
        return self


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

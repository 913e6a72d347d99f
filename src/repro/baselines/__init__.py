"""Baseline graph stores the paper evaluates against.

* :class:`~repro.baselines.pointerstore.PointerGraphStore` -- a
  Neo4j-like pointer-based store (node table, relationship chains,
  property chains, global secondary indexes). ``tuned=True`` models the
  Neo4j-Tuned variant the authors produced with Neo4j engineers.
* :class:`~repro.baselines.kvgraph.KVGraphStore` -- a Titan-like store
  mapping the graph onto an opaque row-per-vertex key-value layout over
  a Cassandra-like LSM substrate (:mod:`repro.baselines.lsm`);
  ``compressed=True`` models Titan with LZ4 SSTable block compression
  (zlib here).

Both implement :class:`~repro.core.interface.GraphStoreInterface`,
the common query surface the workloads drive, and both meter their
storage touches through the shared
:class:`~repro.succinct.stats.AccessStats` so the benchmark memory
model can price their queries identically to ZipG's.
"""

from repro.baselines.kvgraph import KVGraphStore
from repro.baselines.lsm import LSMStore
from repro.baselines.pointerstore import PointerGraphStore

__all__ = ["KVGraphStore", "LSMStore", "PointerGraphStore"]

"""ZipG core: the paper's primary contribution.

* :mod:`repro.core.model` -- property-graph data model (§2.1) and the
  API value types (EdgeRecord / EdgeData / TimeOrder, §2.2).
* :mod:`repro.core.delimiters` -- per-propertyID delimiter assignment
  (§3.3, footnote 4).
* :mod:`repro.core.nodefile` / :mod:`repro.core.edgefile` -- the two
  flat-file layouts compressed with Succinct (§3.3, Figures 1 and 2).
* :mod:`repro.core.shard` -- one compressed shard (NodeFile + EdgeFile
  + deletion bitmaps).
* :mod:`repro.core.logstore` -- the single query-optimized LogStore
  (§3.5).
* :mod:`repro.core.pointers` -- fanned-update pointers (§3.5, Fig. 3).
* :mod:`repro.core.graph_store` -- the ZipG store implementing the
  Table 1 API on top of all of the above.
"""

from repro.core.errors import (
    EdgeRecordNotFound,
    GraphFormatError,
    ManifestCorruptError,
    ManifestMissingError,
    NodeNotFound,
    RecoveryError,
    ReplicaCallError,
    ShardCallError,
    SnapshotCorruptError,
    StoreVersionConflictError,
    UnsupportedVersionError,
    ZipGError,
)
from repro.core.executor import ShardExecutor, ShardResult
from repro.core.graph_store import ZipG
from repro.core.wal import WalRecord, WriteAheadLog
from repro.core.model import (
    WILDCARD,
    Edge,
    EdgeData,
    GraphData,
    PropertyList,
)

__all__ = [
    "Edge",
    "EdgeData",
    "EdgeRecordNotFound",
    "GraphData",
    "GraphFormatError",
    "ManifestCorruptError",
    "ManifestMissingError",
    "NodeNotFound",
    "PropertyList",
    "RecoveryError",
    "ReplicaCallError",
    "ShardCallError",
    "ShardExecutor",
    "ShardResult",
    "SnapshotCorruptError",
    "StoreVersionConflictError",
    "UnsupportedVersionError",
    "WILDCARD",
    "WalRecord",
    "WriteAheadLog",
    "ZipG",
    "ZipGError",
]

"""The serving ZipG cluster (§4.1, Figure 4).

Shards are placed on servers (:class:`ZipGCluster`), replicated or
erasure-coded with failover and replicated writes
(:class:`ReplicatedZipGCluster`), and neighbourhood queries can run as
explicit multi-level function shipping
(:class:`FunctionShippingAggregator`).

The Figure 9 simulator -- per-server busy time, ``run_operation`` and
the Titan cluster it is compared with -- is :mod:`repro.cluster.sim`;
it depends on the benchmark package, so it is not imported here.
"""

from repro.cluster.aggregator import (
    FunctionShippingAggregator,
    ShippingLevel,
    ShippingTrace,
)
from repro.cluster.cluster import ZipGCluster
from repro.cluster.replication import (
    PartialResult,
    ReplicatedZipGCluster,
    ShardError,
    ShardUnavailable,
)

__all__ = [
    "FunctionShippingAggregator",
    "PartialResult",
    "ReplicatedZipGCluster",
    "ShardError",
    "ShardUnavailable",
    "ShippingLevel",
    "ShippingTrace",
    "ZipGCluster",
]

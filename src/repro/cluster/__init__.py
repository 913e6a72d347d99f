"""The serving ZipG cluster (§4.1, Figure 4).

One serving class, :class:`ReplicatedZipGCluster`, places the store's
shards on servers, replicated (``replication_factor=1`` is plain
placement) or erasure-coded, with failover and replicated writes; its
per-server calls go through a transport.  Neighbourhood queries can run
as explicit multi-level function shipping
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
]

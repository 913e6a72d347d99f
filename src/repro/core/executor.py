"""Serial fan-out executor for multi-shard queries (§4.1).

All-shard operations (``get_node_ids``, ``find_edges``, the cluster
broadcast path) apply one function to many shards. The paper gets
shard parallelism from one core per shard *process*; in one Python
process a thread pool only buys cross-core wake-ups under the GIL
(the fan-out ran 4.2x slower than a serial loop over the already
vectorised shard kernels), so :meth:`ShardExecutor.map` is a plain
loop on the caller's thread. Shard spans therefore nest directly under
the query's span, and ``stats.counter += n`` increments never race.

Nothing here retries: a failed item propagates, or with
``partial=True`` comes back as a structured :class:`ShardResult` --
the degraded-query building block the replicated cluster uses, whose
replica failover (:meth:`ReplicatedZipGCluster._failover
<repro.cluster.replication.ReplicatedZipGCluster._failover>`) is the
one place a shard call is retried.  Every invocation passes through the
``executor.shard_call`` chaos site, so the fan-out is fault-injectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro import chaos


@dataclass
class ShardResult:
    """Outcome of one fanned-out work item (``partial=True`` mode)."""

    index: int
    ok: bool
    value: object = None
    error: Optional[BaseException] = None


class ShardExecutor:
    """Runs a query's per-shard work items one after another on the
    caller's thread."""

    def map(self, fn: Callable, items: Sequence, *,
            partial: bool = False) -> List:
        """``[fn(item) for item in items]``, in input order.

        The first failure propagates to the caller.  With
        ``partial=True`` the return value is a list of
        :class:`ShardResult` (one per item, input order) carrying
        either the value or the :class:`Exception`;
        :class:`~repro.chaos.SimulatedCrash` and other
        ``BaseException``\\ s still propagate."""
        outcomes = []
        for index, item in enumerate(items):
            try:
                chaos.kick(chaos.SITE_EXECUTOR_CALL, index=index)
                value = fn(item)
            except Exception as exc:
                if not partial:
                    raise
                outcomes.append(ShardResult(index, False, None, exc))
            else:
                outcomes.append(ShardResult(index, True, value))
        if partial:
            return outcomes
        return [outcome.value for outcome in outcomes]

"""Simulated ZipG and Titan clusters for Figure 9 (§4.1, §5.3).

:class:`SimulatedZipGCluster` is the serving
:class:`~repro.cluster.cluster.ZipGCluster` plus per-server
bookkeeping.  Because every shard meters its own storage touches, the
set of servers a query touched is read directly off the per-shard
counters -- no modeling guesswork.  Function shipping (Figure 4) makes
each remote step one *parallel* RPC fan-out, so a query's network
latency is counted in round trips, not per-server messages.

Titan placement: Cassandra hash-partitions rows; node-local queries
touch the row's server, while ``get_node_ids`` uses the global index
and touches at most two servers -- the §5.3 contrast with ZipG's
all-server broadcast for search queries.

Throughput accounts for per-server load imbalance, which is how
LinkBench's hot-node skew turns into Figure 9(b)'s sublinear scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set

from repro import obs
from repro.baselines.kvgraph import KVGraphStore
from repro.bench.memory_model import CostModel
from repro.cluster.cluster import ZipGCluster
from repro.core.graph_store import ZipG, _hash_partition
from repro.succinct.stats import AccessStats
from repro.workloads.base import Operation


@dataclass
class Server:
    """One simulated server: accumulated busy time and message count."""

    server_id: int
    busy_ns: float = 0.0
    messages: int = 0


class SimulatedZipGCluster(ZipGCluster):
    """A ZipG deployment whose queries are charged to simulated servers."""

    def __init__(self, store: ZipG, num_servers: int):
        super().__init__(store, num_servers)
        self.servers = [Server(i) for i in range(num_servers)]

    def _snapshot(self) -> List[AccessStats]:
        snaps = [shard.stats.snapshot() for shard in self.store.shards]
        snaps.append(self.store.logstore.stats.snapshot())
        return snaps

    def _attribute(self, before: List[AccessStats], cost_model: CostModel,
                   budget_total: int) -> Set[int]:
        """Charge each server for the work its shards just did; return
        the set of servers touched."""
        footprint = self.store.storage_footprint_bytes()
        touched: Set[int] = set()
        shards = self.store.shards
        for index, shard in enumerate(shards):
            if index < len(before):
                delta = shard.stats.delta_since(before[index])
            else:
                delta = shard.stats.snapshot()  # shard born mid-run (freeze)
            if delta.total_touches or delta.sequential_bytes or delta.npa_hops:
                server = self.server_of_shard(shard.shard_id)
                touched.add(server)
                self.servers[server].busy_ns += cost_model.query_latency_ns(
                    delta, footprint, budget_total
                )
        log_delta = self.store.logstore.stats.delta_since(before[-1])
        if log_delta.total_touches or log_delta.sequential_bytes:
            touched.add(self.logstore_server)
            self.servers[self.logstore_server].busy_ns += cost_model.query_latency_ns(
                log_delta, footprint, budget_total
            )
        return touched

    def run_operation(self, operation: Operation, cost_model: CostModel,
                      budget_total: int) -> float:
        """Execute one operation; returns its latency in ns (CPU/storage
        on the slowest path + network round trips)."""
        with obs.span("cluster.run_operation", layer="cluster",
                      op=type(operation).__name__):
            before = self._snapshot()
            total_before = self.store.aggregate_stats().snapshot()
            operation.run(self)
            touched = self._attribute(before, cost_model, budget_total)
            delta = self.store.aggregate_stats().delta_since(total_before)
            footprint = self.store.storage_footprint_bytes()
            storage_ns = cost_model.query_latency_ns(
                delta, footprint, budget_total
            )
            # Function shipping: client -> entry aggregator (1 RTT), plus
            # one parallel fan-out RTT if any other server was involved.
            round_trips = 1 + (1 if len(touched) > 1 else 0)
            for server in touched:
                self.servers[server].messages += 1
            return storage_ns + round_trips * cost_model.network_hop_ns


class TitanCluster(KVGraphStore):
    """A Titan deployment: rows hash-partitioned across servers."""

    def __init__(self, graph, num_servers: int, compressed: bool = False):
        if num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        loaded = KVGraphStore.load(graph, compressed=compressed)
        # Adopt the loaded store's internals (load() is a classmethod
        # constructor on the base class).
        self.__dict__.update(loaded.__dict__)
        self.num_servers = num_servers
        self.servers = [Server(i) for i in range(num_servers)]
        self._index_rotation = 0

    def server_of_node(self, node_id: int) -> int:
        """The server whose Cassandra token range owns the node's row."""
        return _hash_partition(node_id, self.num_servers)

    def run_operation(self, operation: Operation, cost_model: CostModel,
                      budget_total: int) -> float:
        """Execute one operation; returns its simulated latency in ns."""
        before = self.aggregate_stats().snapshot()
        operation.run(self)
        delta = self.aggregate_stats().delta_since(before)
        footprint = self.storage_footprint_bytes()
        storage_ns = cost_model.query_latency_ns(delta, footprint, budget_total)
        # Attribution: Cassandra routes by row key. Node-routed ops hit
        # the target's server; global-index searches touch at most two
        # servers (the paper's Titan-vs-ZipG contrast for GS3).
        if operation.target is not None:
            targets = [self.server_of_node(operation.target)]
        else:
            self._index_rotation += 1
            first = self._index_rotation % self.num_servers
            targets = list({first, (first + 1) % self.num_servers})
        share = storage_ns / len(targets)
        for target in targets:
            self.servers[target].busy_ns += share
            self.servers[target].messages += 1
        round_trips = 1
        return storage_ns + round_trips * cost_model.network_hop_ns


@dataclass
class DistributedResult:
    """Outcome of a distributed run (one bar of Figure 9)."""

    system: str
    workload: str
    operations: int
    avg_latency_us: float
    ideal_throughput_kops: float
    throughput_kops: float  # imbalance-adjusted
    load_imbalance: float  # max server busy / mean server busy
    servers_touched_per_op: float

    def row(self) -> str:
        """One formatted line for benchmark tables."""
        return (
            f"{self.system:<18} {self.workload:<14} "
            f"{self.throughput_kops:>9.1f} KOps "
            f"(ideal {self.ideal_throughput_kops:>8.1f}, "
            f"imbalance {self.load_imbalance:4.2f}x)"
        )


def run_distributed_workload(
    cluster,
    operations: Iterable[Operation],
    cost_model: CostModel,
    budget_total: int,
    cores_per_server: int = 8,
    workload_name: str = "mixed",
) -> DistributedResult:
    """Replay operations on a simulated cluster (Figure 9's setting:
    10 servers x 8 cores, budgets summed across servers).

    Throughput = total cores / avg latency, derated by the per-server
    load imbalance (a maximally-loaded server gates the pipeline --
    §5.3's LinkBench observation).
    """
    total_ns = 0.0
    count = 0
    for operation in operations:
        total_ns += cluster.run_operation(operation, cost_model, budget_total)
        count += 1
    avg_ns = total_ns / count if count else 0.0
    cores = cores_per_server * cluster.num_servers
    # Throughput is gated by server *busy* time, not end-to-end latency:
    # network round trips overlap across in-flight queries, so they add
    # latency but do not consume server cores.
    total_busy = sum(server.busy_ns for server in cluster.servers)
    busy_per_op = total_busy / count if count else 0.0
    ideal_kops = (cores / (busy_per_op * 1e-9)) / 1e3 if busy_per_op else 0.0
    busys = [server.busy_ns for server in cluster.servers]
    mean_busy = sum(busys) / len(busys) if busys else 0.0
    max_busy = max(busys) if busys else 0.0
    imbalance = (max_busy / mean_busy) if mean_busy > 0 else 1.0
    adjusted = ideal_kops / imbalance if imbalance > 0 else ideal_kops
    messages = sum(server.messages for server in cluster.servers)
    return DistributedResult(
        system=getattr(cluster, "name", type(cluster).__name__),
        workload=workload_name,
        operations=count,
        avg_latency_us=avg_ns / 1e3,
        ideal_throughput_kops=ideal_kops,
        throughput_kops=adjusted,
        load_imbalance=imbalance,
        servers_touched_per_op=messages / count if count else 0.0,
    )

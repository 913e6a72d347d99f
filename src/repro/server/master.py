"""The master (aggregator) role: clients in, cluster fan-out behind.

ZipG's deployment fronts the shard servers with an *aggregator*
(§4.1): clients speak to one endpoint, which routes node-local
operations, fans broadcast searches out across shards, and owns the
replication/failover state.  :class:`MasterServer` is that endpoint --
a :class:`~repro.server.shard_server.RpcServerBase` whose requests
dispatch against a
:class:`~repro.cluster.replication.ReplicatedZipGCluster` whose
transport points at the shard servers, so every query inherits replica
failover (``--retries`` extra passes per broadcast unit) and
``partial_results`` degradation unchanged.

The client-visible method surface is an explicit allowlist -- the
:class:`~repro.core.interface.GraphStoreInterface` query/update
methods plus a few admin verbs -- not ``getattr`` over everything, so
a client cannot reach into cluster internals by method name.
"""
# zipg: robust-path

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.server.shard_server import RpcServerBase

if TYPE_CHECKING:
    from repro.cluster.replication import ReplicatedZipGCluster

#: ``server`` tag the master stamps on frames and spans. Distinct from
#: every shard-server id (those are >= 0) so chaos rules matching
#: ``{"server": N}`` target exactly one process.
MASTER_SERVER_ID = -1

#: Query methods forwarded verbatim to the cluster.
READ_METHODS = frozenset({
    "assoc_get",
    "edge_count",
    "edges_from_index",
    "edges_in_time_range",
    "find_edges",
    "get_neighbor_ids",
    "get_node_ids",
    "get_node_property",
})

#: Mutations; on a replicated cluster these also replicate to the
#: shard servers (with LSN tracking for re-admission catch-up).
WRITE_METHODS = frozenset({
    "append_edge",
    "append_node",
    "delete_edge",
    "delete_node",
    "update_edge",
    "update_node",
})

#: Cluster-administration verbs (handled in :meth:`MasterServer._admin`).
ADMIN_METHODS = frozenset({
    "catching_up_servers",
    "down_servers",
    "fail_server",
    "ping",
    "recover_server",
    "topology",
})


class MasterServer(RpcServerBase):
    """Serve the client-facing query surface in front of a cluster."""

    role = "master"

    def __init__(self, cluster: "ReplicatedZipGCluster", host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__(server_id=MASTER_SERVER_ID, host=host, port=port)
        self.cluster = cluster

    # zipg: rpc-entry
    def _execute(self, method: str, args: List[object],
                 kwargs: Dict[str, object],
                 request: Dict[str, object]) -> object:
        if method in ADMIN_METHODS:
            return self._admin(method, args)
        if method not in READ_METHODS and method not in WRITE_METHODS:
            raise KeyError(f"unknown master method {method!r}")
        return getattr(self.cluster, method)(*args, **kwargs)

    # zipg: rpc-entry
    def _admin(self, method: str, args: List[object]) -> object:
        if method == "ping":
            return "pong"
        if method == "topology":
            return {
                "num_servers": self.cluster.num_servers,
                "replication_factor": self.cluster.replication_factor,
                "placement": self.cluster.placement,
                "num_shards": len(self.cluster.store.shards),
            }
        if method == "down_servers":
            return sorted(self.cluster.down_servers)
        if method == "catching_up_servers":
            # ec rebuilds are asynchronous: clients poll this (together
            # with down_servers) to observe re-admission.
            return sorted(self.cluster.catching_up_servers)
        if method == "fail_server":
            self.cluster.fail_server(int(args[0]))
            return True
        # recover_server: on a replicated cluster this runs WAL-tail
        # catch-up before re-admitting the replica to read rotation.
        self.cluster.recover_server(int(args[0]))
        return True

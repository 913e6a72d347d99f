"""The serving ZipG cluster (§4.1): placement and a transport.

ZipG placement: the store's shards round-robin across servers; the
single LogStore lives on one dedicated server (§3.5).  Per-server
operations dispatch through :attr:`ZipGCluster.transport` -- in-process
by default, or shard-server processes over sockets.  This class routes
nothing itself: every query runs on the store, and
:class:`~repro.cluster.replication.ReplicatedZipGCluster` adds replica
routing, failover and replicated writes on top.  The Fig. 9 simulator
(per-server busy time, ``run_operation``) is
:mod:`repro.cluster.sim`.
"""

from __future__ import annotations

from typing import Callable

from repro.core.graph_store import ZipG
from repro.core.interface import GraphStoreInterface


def _on_store(name: str) -> Callable:
    """A method that runs the store's method ``name``."""
    def forward(self, *args, **kwargs):
        return getattr(self.store, name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    return forward


class ZipGCluster(GraphStoreInterface):
    """A ZipG deployment across ``num_servers`` servers."""

    name = "zipg"

    def __init__(self, store: ZipG, num_servers: int):
        if num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        self.store = store
        self.num_servers = num_servers
        # Per-server dispatch seam; None means "in-process against the
        # shared store", materialized lazily by the `transport` property.
        self._transport = None

    # -- dispatch --------------------------------------------------------

    @property
    def transport(self):
        """The :class:`~repro.server.transport.Transport` every
        per-server operation dispatches through.

        Defaults to an in-process backend resolving against the shared
        local store (byte-identical to pre-serving-layer dispatch);
        assign a :class:`~repro.server.transport.SocketTransport` to
        route the same calls to real shard-server processes.  Created
        lazily -- and imported lazily, because the server package
        imports cluster types for its wire codec."""
        if self._transport is None:
            from repro.server.transport import InProcessTransport

            self._transport = InProcessTransport(self.store)
        return self._transport

    @transport.setter
    def transport(self, transport) -> None:
        self._transport = transport

    # -- placement -------------------------------------------------------

    def server_of_shard(self, shard_id: int) -> int:
        """Round-robin shard placement across the servers."""
        return shard_id % self.num_servers

    @property
    def logstore_server(self) -> int:
        """The dedicated LogStore server (§3.5); server 0 here."""
        return 0

    # -- what this class does not route runs on the store ------------
    # update_node / update_edge stay the interface's delete + append on
    # *this* object, so a replicating subclass replicates them.

    get_node_property = _on_store("get_node_property")
    get_node_ids = _on_store("get_node_ids")
    get_neighbor_ids = _on_store("get_neighbor_ids")
    find_edges = _on_store("find_edges")
    edge_count = _on_store("edge_count")
    edges_from_index = _on_store("edges_from_index")
    edges_in_time_range = _on_store("edges_in_time_range")
    assoc_get = _on_store("assoc_get")
    append_node = _on_store("append_node")
    append_edge = _on_store("append_edge")
    delete_node = _on_store("delete_node")
    delete_edge = _on_store("delete_edge")
    storage_footprint_bytes = _on_store("storage_footprint_bytes")
    aggregate_stats = _on_store("aggregate_stats")
    reset_stats = _on_store("reset_stats")

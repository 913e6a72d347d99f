"""Loopback harness: real sockets, one process, existing suites.

A :class:`LoopbackCluster` runs ``num_servers``
:class:`~repro.server.shard_server.ShardServer` listeners on
``127.0.0.1`` (threads, ephemeral ports) and hands back a
:class:`~repro.server.transport.SocketTransport` wired to them, so a
cluster built for in-process dispatch exercises the full framed RPC
path -- codec, pooling, ``rpc.*`` chaos sites, transport-error mapping
-- without subprocess management.  This is what ``ZIPG_TRANSPORT=
socket`` swaps into the resilient-cluster and chaos suites.

Two store modes:

* **shared** (default): every server fronts the *same* store object as
  the cluster.  Query semantics are byte-identical to in-process
  dispatch (same shards, same stats).  The servers are plain
  :class:`ShardServer`\\ s: an ``apply_write`` is acknowledged without
  being applied again because the master marked the shared store as
  holding the record (``ZipG.apply_replicated_record``).  Chaos
  injection composes because the injector is process-global.
* **replica factory**: ``replica_factory(server_id)`` builds a private
  store per server.  Writes then replicate for real over RPC, which is
  what the replica-divergence and catch-up-over-the-wire tests need.
"""
# zipg: robust-path

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.graph_store import ZipG
from repro.server.shard_server import ShardServer
from repro.server.transport import SocketTransport


class LoopbackCluster:
    """``num_servers`` localhost shard servers plus a wired transport."""

    def __init__(self, store: ZipG, num_servers: int,
                 replica_factory: Optional[Callable[[int], ZipG]] = None,
                 timeout_s: Optional[float] = 10.0) -> None:
        self.servers: List[ShardServer] = []
        for server_id in range(num_servers):
            server_store = (store if replica_factory is None
                            else replica_factory(server_id))
            server = ShardServer(server_store, server_id=server_id).start()
            self.servers.append(server)
        self.addresses: Dict[int, Tuple[str, int]] = {
            server.server_id: server.address for server in self.servers
        }
        self.transport = SocketTransport(self.addresses, timeout_s=timeout_s)

    def kill_server(self, server_id: int) -> None:
        """Hard-stop one server: connections reset, reconnects refused
        (the loopback analogue of kill -9)."""
        self.servers[server_id].stop()

    def close(self) -> None:
        self.transport.close()
        for server in self.servers:
            server.stop()

    def __enter__(self) -> "LoopbackCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

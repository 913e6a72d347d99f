"""``repro.server``: the real socket-based serving layer (§3, §4.1).

ZipG's deployment architecture is an *aggregator* fronting a set of
*shard servers*; queries enter at the aggregator and fan out to the
servers holding the touched shards.  This package realizes that
topology with actual OS processes and TCP sockets:

* :mod:`repro.server.ipc` -- length-prefixed binary framing, the one
  module allowed to do raw socket I/O (enforced by analysis rule
  RPC001);
* :mod:`repro.server.protocol` -- request/response envelopes, the
  value/exception codec, and :class:`RpcConnection`;
* :mod:`repro.server.transport` -- the :class:`Transport` interface
  the cluster layer dispatches through, with interchangeable
  in-process and socket backends;
* :mod:`repro.server.shard_server` / :mod:`repro.server.master` --
  the two server roles (``repro serve-shard`` / ``repro serve-master``);
* :mod:`repro.server.client` -- the thin client library speaking the
  master protocol;
* :mod:`repro.server.loopback` -- an in-test harness running shard
  servers on localhost threads so the socket backend can be swapped
  into existing suites (``ZIPG_TRANSPORT=socket``).

Failure semantics are inherited, not reinvented: transport failures
surface as retryable :class:`~repro.core.errors.TransportError`\\ s, so
the replicated cluster's failover loop (its one retry) and its
partial-results path behave identically over real network faults and
simulated ones.
"""

from repro.server.client import ZipGClient
from repro.server.loopback import LoopbackCluster
from repro.server.master import MasterServer
from repro.server.shard_server import ShardServer
from repro.server.transport import InProcessTransport, SocketTransport, Transport

__all__ = [
    "InProcessTransport",
    "LoopbackCluster",
    "MasterServer",
    "ShardServer",
    "SocketTransport",
    "Transport",
    "ZipGClient",
]

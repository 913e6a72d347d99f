"""The :class:`Transport` seam between the cluster layer and servers.

The replicated cluster dispatches every per-server operation through
``transport.call(server_id, method, args, unit=...)``.  Two backends
implement that contract:

* :class:`InProcessTransport` (the default) resolves the call against
  the shared local store -- exactly what the pre-serving-layer code
  did inline, so existing single-process deployments and tests are
  byte-identical.  No sockets, no codec, no ``rpc.*`` chaos sites.
* :class:`SocketTransport` speaks the :mod:`repro.server.ipc` framed
  protocol to real shard-server processes, pooling one
  :class:`~repro.server.protocol.RpcConnection` per in-flight call per
  server so concurrent callers never interleave frames on a socket.

One pooled round trip (check out, send, receive, check in) and its
failure mapping are written once, in :class:`_ConnectionPool`, for
both :class:`SocketTransport` and
:class:`~repro.server.client.ZipGClient` (the client of the master and
of the gateway).

Failure mapping is the heart of the seam: every transport-layer
failure -- connection refused, reset mid-call, torn or oversized
frame, socket timeout -- surfaces as a retryable
:class:`~repro.core.errors.TransportError`, so the cluster's replica
failover treats a dead network peer exactly like an injected
``replication.replica_call`` fault; the socket ``timeout_s`` is what
bounds a stalled call.  Exceptions raised *by the remote
operation* (e.g. ``NodeNotFound``) decode and re-raise as themselves;
:class:`~repro.chaos.SimulatedCrash` stays a ``BaseException`` and is
never swallowed into a retry.
"""
# zipg: robust-path

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.errors import TransportError
from repro.core.graph_store import ZipG
from repro.server import ipc, ops
from repro.server.protocol import RpcConnection, unpack_response


class Transport(ABC):
    """Dispatch surface for per-server operations."""

    @abstractmethod
    def call(self, server_id: int, method: str, args: List[object],
             unit: Optional[int] = None,
             kwargs: Optional[Dict[str, object]] = None) -> object:
        """Run ``method(*args, **kwargs)`` on ``server_id`` against the
        unit ``unit`` (see :func:`repro.server.ops.resolve_unit`)."""

    def close(self) -> None:
        """Release any held connections (idempotent)."""


class InProcessTransport(Transport):
    """All virtual servers answer from one shared local store.

    ``apply_write`` runs the same dedupe as on any replica: the master
    marked the shared store as holding each record it ships, so the
    record is acknowledged, not applied twice."""

    def __init__(self, store: ZipG) -> None:
        self.store = store

    def call(self, server_id: int, method: str, args: List[object],
             unit: Optional[int] = None,
             kwargs: Optional[Dict[str, object]] = None) -> object:
        return ops.run_op(self.store, method, list(args), kwargs=kwargs,
                          unit=unit)


class _ConnectionPool:
    """Idle :class:`RpcConnection`\\ s for one server address, and the
    one place transport-layer failures are counted and worded as
    :class:`TransportError`.

    Each round trip gets its own connection (created on demand), so
    concurrent calls never share a socket; clean round trips return the
    connection for reuse, failed ones close it -- a socket that just
    tore a frame has undefined stream state."""

    def __init__(self, server_id: int, host: str, port: int,
                 timeout_s: Optional[float]) -> None:
        self.server_id = server_id
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        #: How failure messages name the peer (the master is id -1).
        self.label = "master" if server_id < 0 else f"server {server_id}"
        self._lock = threading.Lock()
        self._idle: List[RpcConnection] = []
        self._shutdown = False

    def round_trip(self, method: str, args: List[object],
                   unit: Optional[int] = None,
                   kwargs: Optional[Dict[str, object]] = None,
                   extra: Optional[Dict[str, object]] = None) -> object:
        """One request/response on a pooled connection: the decoded
        value, the remote operation's own exception, or
        :class:`TransportError` for anything the wire did."""
        try:
            connection = self._checkout()
        except OSError as exc:
            self._count_failure("connect")
            raise TransportError(
                f"cannot connect to {self.label} "
                f"({self.host}:{self.port}): {exc}"
            ) from exc
        try:
            response = connection.round_trip(
                method, args, unit=unit, kwargs=kwargs,
                trace=obs.current_trace_context(), extra=extra,
            )
        except (OSError, ipc.FrameError) as exc:
            connection.close()
            self._count_failure(type(exc).__name__)
            raise TransportError(
                f"rpc {method!r} to {self.label} failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        except BaseException:
            # SimulatedCrash and friends: the stream state is unknown,
            # drop the connection, but let the crash keep flying.
            connection.close()
            raise
        self._checkin(connection)
        # Outside the mapping block: a *decoded remote* exception (e.g.
        # NodeNotFound raised by the operation itself) re-raises as its
        # own type, not as a transport failure.
        return unpack_response(response)

    def _count_failure(self, kind: str) -> None:
        obs.counter(
            "zipg_transport_failures_total",
            help="RPC calls that failed at the transport layer",
            labels={"server": str(self.server_id), "kind": kind},
        ).inc()

    def _checkout(self) -> RpcConnection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return RpcConnection.connect(
            self.host, self.port, timeout_s=self.timeout_s,
            tags={"server": self.server_id},
        )

    def _checkin(self, connection: RpcConnection) -> None:
        with self._lock:
            if not self._shutdown:
                self._idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        with self._lock:
            self._shutdown = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


class SocketTransport(Transport):
    """Framed RPC to real shard-server processes over TCP.

    Args:
        addresses: ``server_id -> (host, port)`` for every server the
            cluster may address.
        timeout_s: socket timeout per connection (connect and reads);
            ``None`` blocks indefinitely: a stalled server then stalls
            its caller, and nothing else bounds the call.
    """

    def __init__(self, addresses: Dict[int, Tuple[str, int]],
                 timeout_s: Optional[float] = 30.0) -> None:
        self.addresses = dict(addresses)
        self._pools = {
            server_id: _ConnectionPool(server_id, host, port, timeout_s)
            for server_id, (host, port) in self.addresses.items()
        }

    def call(self, server_id: int, method: str, args: List[object],
             unit: Optional[int] = None,
             kwargs: Optional[Dict[str, object]] = None) -> object:
        pool = self._pools.get(server_id)
        if pool is None:
            raise TransportError(f"no address for server {server_id}")
        return pool.round_trip(method, list(args), unit=unit, kwargs=kwargs)

    def close(self) -> None:
        for pool in self._pools.values():
            pool.close()

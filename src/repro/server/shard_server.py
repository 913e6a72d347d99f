"""Framed-RPC server machinery and the shard-server role.

:class:`RpcServerBase` is the one server loop of the serving stack;
the shard, master and gateway roles each supply only
:meth:`RpcServerBase._execute`.  Connections are accepted on a
listener thread and each connection gets one thread that reads a
request, executes it and writes the response before it reads the
next -- run to completion, no hand-off.  The contract that follows:
requests on one connection are answered in arrival order, and
concurrency is the number of connections (callers pool one connection
per in-flight call, see :class:`~repro.server.transport._ConnectionPool`);
a slow request delays only its own connection.

:class:`ShardServer` is the worker role: one local
:class:`~repro.core.graph_store.ZipG` replica answering the
:mod:`repro.server.ops` surface (the master role lives in
:mod:`repro.server.master`, the gateway role in
:mod:`repro.gateway.server`).

Failure semantics, from the server's side of the wire:

* an operation that raises an ``Exception`` becomes a structured error
  response -- the typed exception re-raises client-side;
* a peer that vanishes (reset, torn frame) kills only that
  connection's thread; the store and other connections are untouched;
* :class:`~repro.chaos.SimulatedCrash` out of a ``rpc.recv``,
  ``rpc.handle`` or ``rpc.send`` chaos rule (or any site a role's
  ``_execute`` passes) is a *process death model* -- it tears down
  the whole server (listener included), so clients observe exactly
  what a kill -9 produces: connection resets and refused reconnects.

Chaos sites: every request execution passes ``rpc.handle`` (tags:
``method``, ``server``); the framed reply goes out through
``rpc.send`` (a ``torn_write`` rule there models the server dying
mid-response, which clients see as a torn frame).
"""
# zipg: robust-path

from __future__ import annotations

import socket
import threading
from typing import Dict, List, Optional, Set, Tuple

from repro import chaos, obs
from repro.core.graph_store import ZipG
from repro.server import ipc, ops
from repro.server.protocol import (
    decode_value,
    make_error_response,
    make_response,
)

#: Accept-loop poll interval; bounds how long ``stop()`` can take.
_ACCEPT_TIMEOUT_S = 0.2


class RpcServerBase:
    """Thread-per-connection accept/read/execute loop for one
    framed-RPC listener.

    Args:
        server_id: this server's cluster id (stamped on spans, chaos
            tags, and metrics).
        host / port: bind address; port 0 picks a free port (read the
            chosen one off :attr:`address`).
    """

    #: Role tag used in thread names and metrics ("shard" / "master" /
    #: "gateway").
    role = "server"
    #: Each request's remote span is ``<span_prefix>.<method>`` in
    #: layer ``span_layer``.
    span_prefix = "rpc"
    span_layer = "server"

    def __init__(self, server_id: int = 0, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.server_id = server_id
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(_ACCEPT_TIMEOUT_S)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._connections: Set[socket.socket] = set()
        self._stopping = threading.Event()
        self._closed = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None

    def _execute(self, method: str, args: List[object],
                 kwargs: Dict[str, object],
                 request: Dict[str, object]) -> object:
        """Run one request (arguments already decoded; ``request`` is
        the raw envelope); subclasses implement dispatch."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "RpcServerBase":
        """Accept connections on a background thread; returns self."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"zipg-{self.role}{self.server_id}-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections on the calling thread until ``stop()``
        (the CLI ``serve-*`` entry points)."""
        self._accept_loop()

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has closed the listener."""
        return self._closed.is_set()

    def stop(self) -> None:
        """Stop accepting and drop every connection."""
        self._stopping.set()
        try:
            try:
                # A poll in accept() keeps the socket listening past
                # close(); shutdown() stops it at once.
                self._listener.shutdown(socket.SHUT_RDWR)
            finally:
                self._listener.close()
        except OSError:
            pass  # zipg: ignore[ROBUST001] - already closed
        with self._lock:
            connections, self._connections = list(self._connections), set()
        for sock in connections:
            _close_socket(sock)
        accept_thread = self._accept_thread
        if (accept_thread is not None and accept_thread.is_alive()
                and accept_thread is not threading.current_thread()):
            accept_thread.join(timeout=5.0)
        self._closed.set()

    def __enter__(self) -> "RpcServerBase":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Accept / read / execute
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _peer = self._listener.accept()
            except socket.timeout:
                continue  # zipg: ignore[ROBUST001] - accept poll tick
            except OSError:
                if self._stopping.is_set():
                    return
                raise
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            accepted = False
            with self._lock:
                if not self._stopping.is_set():
                    self._connections |= {sock}
                    accepted = True
            if not accepted:
                # Raced with stop(): this socket is not tracked, close
                # it ourselves and bail out.
                _close_socket(sock)
                return
            threading.Thread(
                target=self._connection_loop, args=(sock,),
                name=f"zipg-{self.role}{self.server_id}-conn", daemon=True,
            ).start()

    def _connection_loop(self, sock: socket.socket) -> None:
        """Serve one connection, a request at a time, until the peer
        goes away."""
        try:
            while not self._stopping.is_set():
                try:
                    request = ipc.recv_frame(sock, server=self.server_id)
                except (ipc.ConnectionClosed, OSError):
                    return  # peer hung up (or we are stopping)
                except chaos.SimulatedCrash:
                    self._crash()
                    return
                except ipc.FrameError as exc:
                    # Protocol violation: answer if the stream still
                    # works, then drop the connection -- framing state
                    # is unrecoverable after a bad prefix.
                    self._try_send(sock, make_error_response(-1, exc))
                    return
                self._handle(sock, request)
        finally:
            with self._lock:
                self._connections.discard(sock)
            _close_socket(sock)

    def _handle(self, sock: socket.socket,
                request: Dict[str, object]) -> None:
        request_id = request.get("id")
        if not isinstance(request_id, int):
            request_id = -1
        method = str(request.get("method", ""))
        trace = request.get("trace")
        try:
            chaos.kick(chaos.SITE_RPC_HANDLE,
                       method=method, server=self.server_id)
            with obs.remote_span(
                f"{self.span_prefix}.{method}",
                trace if isinstance(trace, dict) else None,
                layer=self.span_layer, method=method, server=self.server_id,
            ):
                args = [decode_value(arg) for arg in request.get("args", [])]
                kwargs = {
                    key: decode_value(value)
                    for key, value in (request.get("kwargs") or {}).items()
                }
                value = self._execute(method, args, kwargs, request)
            response = make_response(request_id, value)
        except chaos.SimulatedCrash:
            # kill -9 model: the whole process dies, not one request.
            self._crash()
            return
        except Exception as exc:
            obs.counter(
                "zipg_rpc_errors_total",
                help="RPC requests answered with an error response",
                labels={"method": method},
            ).inc()
            response = make_error_response(request_id, exc)
        self._try_send(sock, response)

    def _try_send(self, sock: socket.socket,
                  response: Dict[str, object]) -> None:
        try:
            ipc.send_frame(sock, response, server=self.server_id)
        except chaos.SimulatedCrash:
            self._crash()
        except (OSError, ipc.FrameError) as exc:
            # The peer is gone (or the response was torn); it retries
            # via its transport. Count it so dead-peer storms show up.
            obs.counter(
                "zipg_rpc_send_failures_total",
                help="RPC responses that could not be delivered",
                labels={"kind": type(exc).__name__},
            ).inc()
            _close_socket(sock)

    def _crash(self) -> None:
        """A ``SimulatedCrash`` fired server-side: die like a process.

        Every connection resets (clients get torn frames / resets) and
        the listener closes (reconnects are refused) -- observable
        behavior identical to the OS killing the server."""
        obs.counter(
            "zipg_rpc_simulated_crashes_total",
            help="server deaths injected at rpc.* sites",
            labels={"server": str(self.server_id), "role": self.role},
        ).inc()
        # The base stop, not a role's graceful one: a dead process
        # drains nothing.
        RpcServerBase.stop(self)


class ShardServer(RpcServerBase):
    """Serve one store replica's operations over framed TCP RPC.

    Args:
        store: the local store (a full replica in the replicated
            deployment, or the master's own store object in a loopback
            harness -- ``apply_write`` dedupes either way).
    """

    role = "shard"

    def __init__(self, store: ZipG, server_id: int = 0,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(server_id=server_id, host=host, port=port)
        self.store = store

    # zipg: rpc-entry
    def _execute(self, method: str, args: List[object],
                 kwargs: Dict[str, object],
                 request: Dict[str, object]) -> object:
        unit = request.get("unit")
        return ops.run_op(self.store, method, args, kwargs=kwargs,
                          unit=unit if isinstance(unit, int) else None)


def _close_socket(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass  # zipg: ignore[ROBUST001] - already closed

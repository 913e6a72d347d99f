"""The gateway's network face: framed RPC over an asyncio event loop.

A :class:`GatewayServer` listens on the same length-prefixed wire
protocol as the shard and master servers (:mod:`repro.server.ipc` /
:mod:`repro.server.protocol`), so the existing :class:`ZipGClient`
machinery speaks to it unchanged -- the only addition is an optional
``tenant`` field on the request envelope, stamped by
:class:`~repro.gateway.client.GatewayClient` and defaulted here.

Where :class:`~repro.server.shard_server.RpcServerBase` spends a
thread per connection, the gateway is a *front door*: thousands of
idle client connections must cost coroutines, not stacks.  Each
accepted connection is one reader coroutine; each request becomes one
task that runs :meth:`GatewayService.handle
<repro.gateway.service.GatewayService.handle>` to completion and
writes the response, so a parked request head-of-line-blocks nothing
(unlike the threaded servers, responses on one connection may
overtake; clients correlate by request id).

Failure semantics match the threaded servers deliberately:

* a request that raises becomes a structured error response (typed
  exceptions -- :class:`RetryAfter` included -- re-raise client-side);
* a vanished peer kills only its own reader;
* :class:`~repro.chaos.SimulatedCrash` out of a ``gateway.*`` or
  ``rpc.send`` chaos rule is a process death: the listener closes,
  every connection resets, nothing is half-alive.
"""
# zipg: gateway-path

from __future__ import annotations

import asyncio
import socket
import threading
from typing import Dict, Optional, Set, Tuple

from repro import chaos, obs
from repro.gateway.service import DEFAULT_TENANT, GatewayConfig, GatewayService
from repro.server import ipc
from repro.server.protocol import (
    decode_value,
    make_error_response,
    make_response,
)

#: The gateway's id in chaos tags / metrics (master is -1, shards >= 0).
GATEWAY_SERVER_ID = -2


class GatewayServer:
    """Serve the gateway pipeline over framed TCP RPC.

    Args:
        backend: the submission backend handed to
            :class:`GatewayService` (a cluster or a ``ZipGClient``).
        config: gateway tuning; defaults applied when omitted.
        host / port: bind address; port 0 picks a free port (read the
            chosen one off :attr:`address`).  The bind happens in the
            constructor -- before any event loop exists -- so callers
            learn the port without racing ``serve()``.
    """

    role = "gateway"

    def __init__(self, backend: object,
                 config: Optional[GatewayConfig] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.server_id = GATEWAY_SERVER_ID
        self.service = GatewayService(backend, config)
        self._sock = socket.create_server((host, port))
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]
        self._server: Optional["asyncio.AbstractServer"] = None
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        #: In-flight request tasks, and each connection's reader task
        #: with the writer that ends it; all reaped at shutdown.
        self._tasks: Set["asyncio.Task"] = set()
        self._readers: Dict["asyncio.Task", "asyncio.StreamWriter"] = {}
        self._stop_requested = threading.Event()
        # Created inside serve() so it binds the serving loop (3.9's
        # asyncio primitives capture a loop at construction).
        self._stopped: Optional["asyncio.Event"] = None
        self._crashed = False
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def serve(self) -> None:
        """Run the gateway on the calling task's event loop until
        :meth:`stop` (the CLI ``serve-gateway`` entry point)."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection, sock=self._sock
        )
        self._ready.set()
        stopped = self._stopped
        if self._stop_requested.is_set():
            # stop() raced serve(): honor it now that the loop exists.
            stopped.set()
        try:
            await stopped.wait()
        finally:
            await self._shutdown()

    def serve_forever(self) -> None:
        """Run the event loop on the calling thread until ``stop()``
        (the CLI ``serve-gateway`` entry point; matches the threaded
        servers' contract)."""
        asyncio.run(self.serve())

    def start(self) -> "GatewayServer":
        """Run :meth:`serve` on a dedicated background thread with its
        own event loop (in-process harnesses and tests); returns once
        the gateway is accepting."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.serve()),
            name=f"zipg-gateway{self.server_id}",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        return self

    def stop(self) -> None:
        """Request shutdown from any thread (idempotent)."""
        self._stop_requested.set()
        loop, stopped = self._loop, self._stopped
        if loop is not None and stopped is not None and loop.is_running():
            loop.call_soon_threadsafe(stopped.set)
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)

    @property
    def stopped(self) -> bool:
        return self._stop_requested.is_set() or self._crashed

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    async def _shutdown(self) -> None:
        """Close the listener, drain the service, reap the connection
        readers (and whatever requests a crash left in flight)."""
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except (OSError, RuntimeError):
                pass  # zipg: ignore[ROBUST001] - listener already gone
            self._server = None
        if not self._crashed:
            # Clean drain: admitted requests complete.  A crash skips
            # this -- a dead process drains nothing.
            await self.service.drain()
        # Readers are ended by EOF, not cancelled: asyncio's stream
        # machinery reports a cancelled connection callback on stderr
        # as an error.  Requests still here bypassed the drain (admin
        # verbs) or were left by a crash.
        readers = dict(self._readers)
        for writer in readers.values():
            writer.close()
        requests = list(self._tasks)
        for task in requests:
            task.cancel()
        await asyncio.gather(*readers, *requests, return_exceptions=True)
        # A remote backend's streams live on this loop and die with it.
        aclose = getattr(self.service.backend, "aclose", None)
        if aclose is not None:
            await aclose()

    def _crash(self) -> None:
        """A ``SimulatedCrash`` fired in the pipeline: die like a
        process -- listener closed, every connection reset."""
        if self._crashed:
            return
        self._crashed = True
        obs.counter(
            "zipg_rpc_simulated_crashes_total",
            help="server deaths injected at rpc.* sites",
            labels={"server": str(self.server_id), "role": self.role},
        ).inc()
        self._stop_requested.set()
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # Connection / request handling
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader: "asyncio.StreamReader",
                                writer: "asyncio.StreamWriter") -> None:
        send_lock = asyncio.Lock()
        self._readers[asyncio.current_task()] = writer
        try:
            while not self.stopped:
                try:
                    request = await ipc.recv_frame_async(
                        reader, server=self.server_id
                    )
                except (ipc.ConnectionClosed, OSError):
                    return  # peer hung up (or we are stopping)
                except chaos.SimulatedCrash:
                    self._crash()
                    return
                except ipc.FrameError as exc:
                    await self._try_send(writer, send_lock,
                                         make_error_response(-1, exc))
                    return
                task = asyncio.get_running_loop().create_task(
                    self._handle(writer, send_lock, request)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        finally:
            del self._readers[asyncio.current_task()]
            try:
                writer.close()
            except OSError:
                pass  # zipg: ignore[ROBUST001] - already closed

    async def _handle(self, writer: "asyncio.StreamWriter",
                      send_lock: "asyncio.Lock",
                      request: "dict") -> None:
        request_id = request.get("id")
        if not isinstance(request_id, int):
            request_id = -1
        method = str(request.get("method", ""))
        tenant = str(request.get("tenant") or DEFAULT_TENANT)
        trace = request.get("trace")
        try:
            with obs.remote_span(
                f"gateway.{method}",
                trace if isinstance(trace, dict) else None,
                layer="gateway", method=method, tenant=tenant,
                server=self.server_id,
            ):
                args = [decode_value(arg)
                        for arg in request.get("args", [])]
                kwargs = {
                    key: decode_value(value)
                    for key, value in (request.get("kwargs") or {}).items()
                }
                value = await self.service.handle(method, args, kwargs,
                                                  tenant=tenant)
            response = make_response(request_id, value)
        except chaos.SimulatedCrash:
            self._crash()
            return
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            obs.counter(
                "zipg_rpc_errors_total",
                help="RPC requests answered with an error response",
                labels={"method": method},
            ).inc()
            response = make_error_response(request_id, exc)
        await self._try_send(writer, send_lock, response)

    async def _try_send(self, writer: "asyncio.StreamWriter",
                        send_lock: "asyncio.Lock",
                        response: "dict") -> None:
        try:
            async with send_lock:
                await ipc.send_frame_async(writer, response,
                                           server=self.server_id)
        except chaos.SimulatedCrash:
            self._crash()
        except (OSError, ipc.FrameError) as exc:
            obs.counter(
                "zipg_rpc_send_failures_total",
                help="RPC responses that could not be delivered",
                labels={"kind": type(exc).__name__},
            ).inc()
            try:
                writer.close()
            except OSError:
                pass  # zipg: ignore[ROBUST001] - already closed

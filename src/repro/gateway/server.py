"""The gateway's network face: the third :class:`RpcServerBase` role.

A :class:`GatewayServer` listens on the same length-prefixed wire
protocol as the shard and master servers (:mod:`repro.server.ipc` /
:mod:`repro.server.protocol`), so the existing :class:`ZipGClient`
machinery speaks to it unchanged -- the only addition is an optional
``tenant`` field on the request envelope, stamped by
:class:`~repro.gateway.client.GatewayClient` and defaulted here.

It is served by the same loop as the other roles: a thread per
connection reads a request and runs :meth:`GatewayService.handle
<repro.gateway.service.GatewayService.handle>` to completion on that
thread -- admission, dispatch slot, backend call -- before it writes
the response and reads the next.  Failure semantics are the shared
loop's, plus:

* :meth:`GatewayServer.stop` drains the service first, so admitted
  requests complete and new ones see :class:`GatewayClosed`;
* :class:`~repro.chaos.SimulatedCrash` out of a ``gateway.*`` chaos
  rule is a process death like any other server-side crash -- no
  drain.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gateway.service import DEFAULT_TENANT, GatewayConfig, GatewayService
from repro.server.shard_server import RpcServerBase

#: The gateway's id in chaos tags / metrics (master is -1, shards >= 0).
GATEWAY_SERVER_ID = -2


class GatewayServer(RpcServerBase):
    """Serve the gateway pipeline over framed TCP RPC.

    Args:
        backend: the backend handed to :class:`GatewayService` (a
            cluster or a ``ZipGClient``).
        config: gateway tuning; defaults applied when omitted.
        host / port: bind address; port 0 picks a free port (read the
            chosen one off :attr:`address`).
    """

    role = "gateway"
    span_prefix = "gateway"
    span_layer = "gateway"

    def __init__(self, backend: object,
                 config: Optional[GatewayConfig] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(server_id=GATEWAY_SERVER_ID, host=host, port=port)
        self.service = GatewayService(backend, config)

    # zipg: rpc-entry
    def _execute(self, method: str, args: List[object],
                 kwargs: Dict[str, object],
                 request: Dict[str, object]) -> object:
        tenant = str(request.get("tenant") or DEFAULT_TENANT)
        return self.service.handle(method, args, kwargs, tenant=tenant)

    def stop(self) -> None:
        """Drain the service (admitted requests complete), then stop
        accepting and drop every connection."""
        if not self._stopping.is_set():  # a crashed gateway drains nothing
            self.service.drain()
        super().stop()

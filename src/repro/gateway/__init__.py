"""The query gateway: admission-controlled front door (§5).

ZipG's interactive-serving story assumes the store is never driven
past saturation; this package is the layer that makes that assumption
true.  A :class:`GatewayServer` fronts a cluster (or a remote master
via :class:`~repro.server.client.ZipGClient`) with per-tenant token
buckets, bounded queues with structured backpressure
(:class:`~repro.core.errors.RetryAfter`), load shedding that degrades
broadcast reads to the cluster's ``partial_results=True`` path, and
coalescing of identical in-flight reads.  It is the third role of the
one thread-per-connection RPC server loop
(:class:`~repro.server.shard_server.RpcServerBase`): a request runs to
completion on the connection thread that read it, through to the
backend call.

Layering: ``gateway`` sits above ``cluster`` and ``server`` and below
``cli``/``bench``; nothing below imports it.
"""

from repro.gateway.admission import AdmissionController, TokenBucket
from repro.gateway.client import GatewayClient
from repro.gateway.router import SHEDDABLE_METHODS, Route, resolve
from repro.gateway.server import GATEWAY_SERVER_ID, GatewayServer
from repro.gateway.service import (
    DEFAULT_TENANT,
    GatewayConfig,
    GatewayService,
)

__all__ = [
    "AdmissionController",
    "DEFAULT_TENANT",
    "GATEWAY_SERVER_ID",
    "GatewayClient",
    "GatewayConfig",
    "GatewayServer",
    "GatewayService",
    "Route",
    "SHEDDABLE_METHODS",
    "TokenBucket",
    "resolve",
]

"""The gateway service: admission -> dispatch slot -> batch -> backend.

One :class:`GatewayService` fronts a backend exposing the awaitable
seam ``await backend.call_async(method, *args, **kwargs)`` -- a remote
:class:`~repro.server.client.ZipGClient` (asyncio streams on this
loop) or a local :class:`~repro.cluster.cluster.ZipGCluster` (its
submission pool, awaited); the service never knows which.  A request
runs to completion in the task that called :meth:`GatewayService.handle`:

1. **route** -- classify the method (:mod:`repro.gateway.router`);
   admin verbs bypass admission entirely;
2. **admit** -- chaos site ``gateway.admit``, then the tenant's token
   bucket + bounded queue (:mod:`repro.gateway.admission`); overflow
   and rate-limit rejections raise :class:`RetryAfter` here, *before*
   the request consumes any backend capacity;
3. **slot** -- at most ``dispatchers`` admitted requests are at the
   backend at once.  A request that finds a free slot goes straight
   on; otherwise it parks in its tenant's FIFO until a finishing
   request hands its slot over, round-robin across tenants, so one hot
   tenant's backlog cannot starve another's single request;
4. **batch** -- identical in-flight reads coalesce: one flight issues
   the backend call, riders await its result (the async face of
   :class:`~repro.perf.coalesce.SingleFlight`);
5. **dispatch** -- chaos site ``gateway.dispatch``, then the backend
   seam.  Reads flagged for degradation go out with
   ``partial_results=True`` instead of failing -- a shed that returns
   data.

The whole pipeline is event-loop confined: admission state is only
touched from coroutines, so there are no locks, and the backend seam
is the only place work may leave the loop.  This module is marked
``gateway-path``; analysis rule GATE001 rejects anything here that
would block the loop or hand a request to a thread.
"""
# zipg: gateway-path

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import chaos, obs
from repro.core.errors import GatewayClosed, RetryAfter
from repro.gateway.admission import AdmissionController
from repro.gateway.router import Route, resolve

#: Tenant label applied when a request carries none.
DEFAULT_TENANT = "default"


@dataclass
class GatewayConfig:
    """Tuning knobs for one gateway instance."""

    #: Sustained per-tenant admission rate (requests/second).
    tenant_rate: float = 500.0
    #: Per-tenant burst allowance (token-bucket capacity).
    tenant_burst: float = 100.0
    #: Per-tenant queue bound -- the hard backpressure edge.
    queue_depth: int = 64
    #: Fraction of ``queue_depth`` past which sheddable reads degrade
    #: to ``partial_results=True``.
    shed_threshold: float = 0.75
    #: Dispatch slots: admitted requests at the backend at once (and so
    #: the width of a remote backend's connection pool).
    dispatchers: int = 8


class _TenantMetrics:
    """One tenant's metric handles, resolved once: looking a series up
    by its label set costs more than recording into it."""

    def __init__(self, tenant: str) -> None:
        self._tenant = tenant
        labels = {"tenant": tenant}
        self.admitted = obs.counter(
            "zipg_gateway_admitted_total",
            help="requests past admission control", labels=labels)
        self.queued = obs.counter(
            "zipg_gateway_queued_total",
            help="admitted requests parked in a tenant queue", labels=labels)
        self.batched = obs.counter(
            "zipg_gateway_batched_total",
            help="reads coalesced onto an identical in-flight call",
            labels=labels)
        self.depth = obs.gauge(
            "zipg_gateway_queue_depth",
            help="requests currently parked per tenant queue", labels=labels)
        self.latency = obs.histogram(
            "zipg_gateway_latency_seconds",
            help="admitted-request latency through the gateway",
            labels=labels)
        self._shed: Dict[str, object] = {}

    def shed(self, mode: str):
        counter = self._shed.get(mode)
        if counter is None:
            counter = self._shed[mode] = obs.counter(
                "zipg_gateway_shed_total",
                help="requests shed by the gateway, by mode",
                labels={"tenant": self._tenant, "mode": mode})
        return counter


class GatewayService:
    """Admission-controlled async front door over an awaitable backend.

    Args:
        backend: anything with ``async call_async(method, *args,
            **kwargs)``.
        config: admission/queue/dispatch tuning.
        clock: injectable monotonic clock (tests drive the buckets).
    """

    def __init__(self, backend: object, config: Optional[GatewayConfig] = None,
                 clock=time.monotonic) -> None:
        self.backend = backend
        self.config = config or GatewayConfig()
        self._clock = clock
        self._admission = AdmissionController(
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            queue_depth=self.config.queue_depth,
            shed_threshold=self.config.shed_threshold,
            clock=clock,
        )
        self._handles: Dict[str, _TenantMetrics] = {}
        self._read_flights: Dict[Tuple[object, ...], "asyncio.Future"] = {}
        # Dispatch slots in use.  Invariant: a slot is free only while
        # nothing is parked -- a finishing request hands its slot to
        # the next parked one instead of freeing it.
        self._busy = 0
        self._draining = False
        self._drained: Optional["asyncio.Future"] = None

    def _tenant_metrics(self, tenant: str) -> _TenantMetrics:
        metrics = self._handles.get(tenant)
        if metrics is None:
            metrics = self._handles[tenant] = _TenantMetrics(tenant)
        return metrics

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def drain(self) -> None:
        """Stop admitting and finish every admitted request.

        New requests see :class:`GatewayClosed` immediately; admitted
        work -- at the backend or parked -- completes normally (a
        drain is a handover, not an amputation).  Returns once every
        dispatch slot is free, which by the slot invariant means the
        queues are empty too.
        """
        self._draining = True
        while self._busy:
            if self._drained is None or self._drained.done():
                self._drained = asyncio.get_running_loop().create_future()
            await self._drained

    @property
    def draining(self) -> bool:
        return self._draining

    def queue_depths(self) -> Dict[str, int]:
        return self._admission.depths()

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    async def handle(self, method: str, args: Optional[list] = None,
                     kwargs: Optional[dict] = None,
                     tenant: str = DEFAULT_TENANT) -> object:
        """Run one request through the full pipeline; returns the
        backend's result or raises its typed exception.

        Raises :class:`RetryAfter` when admission sheds the request
        and :class:`GatewayClosed` once :meth:`drain` has begun.
        """
        route = resolve(method)
        call_args = tuple(args or ())
        call_kwargs = dict(kwargs or {})
        with obs.span("gateway.handle", layer="gateway", method=method,
                      tenant=tenant):
            if not route.admission:
                # Admin verbs bypass admission: an operator must be
                # able to inspect an overloaded (or draining) gateway.
                return await self._submit(route, call_args, call_kwargs,
                                          tenant)
            started = self._clock()
            metrics = self._tenant_metrics(tenant)
            degrade = self._admit(route, tenant, metrics)
            if self._busy < self.config.dispatchers:
                self._busy += 1
            else:
                await self._park(tenant, metrics)
            try:
                if degrade:
                    call_kwargs["partial_results"] = True
                    metrics.shed("degrade").inc()
                result = await self._submit(route, call_args, call_kwargs,
                                            tenant)
            finally:
                self._release_slot()
            metrics.latency.observe(self._clock() - started)
            return result

    def _admit(self, route: Route, tenant: str,
               metrics: _TenantMetrics) -> bool:
        """Admission for one request; returns its degrade flag."""
        chaos.kick(chaos.SITE_GATEWAY_ADMIT, tenant=tenant,
                   method=route.method)
        if self._draining:
            raise GatewayClosed("gateway is draining; not admitting")
        try:
            degrade = self._admission.admit(tenant, route.sheddable)
        except RetryAfter as exc:
            metrics.shed(f"reject_{exc.reason}").inc()
            raise
        metrics.admitted.inc()
        return degrade

    # ------------------------------------------------------------------
    # Dispatch slots
    # ------------------------------------------------------------------

    async def _park(self, tenant: str, metrics: _TenantMetrics) -> None:
        """Every slot is busy: wait in the tenant's queue until a
        finishing request hands this one its slot."""
        waiter = asyncio.get_running_loop().create_future()
        metrics.depth.set(self._admission.park(tenant, waiter))
        metrics.queued.inc()
        try:
            await waiter
        except asyncio.CancelledError:
            # The client went away.  Still parked: the cancelled
            # waiter marks the entry abandoned and the hand-over skips
            # it.  Handed a slot in the same instant: pass it on.
            if not waiter.cancelled():
                self._release_slot()
            raise

    def _release_slot(self) -> None:
        """Hand the caller's slot to the next parked request,
        round-robin across tenants, or free it."""
        while True:
            parked = self._admission.next_parked()
            if parked is None:
                self._busy -= 1
                if not self._busy and self._drained is not None \
                        and not self._drained.done():
                    self._drained.set_result(None)
                return
            tenant, waiter = parked
            self._tenant_metrics(tenant).depth.set(
                self._admission.queue_depth_of(tenant))
            if not waiter.done():
                waiter.set_result(None)
                return

    # ------------------------------------------------------------------
    # The backend call
    # ------------------------------------------------------------------

    async def _submit(self, route: Route, args: tuple, kwargs: dict,
                      tenant: str) -> object:
        """One backend call, deduplicating identical in-flight reads."""
        chaos.kick(chaos.SITE_GATEWAY_DISPATCH, tenant=tenant,
                   method=route.method)
        if route.kind == "admin":
            if route.method == "ping":
                # The caller is probing *this* process's liveness, and
                # the wire contract is the literal "pong".
                return "pong"
            if not callable(getattr(self.backend, route.method, None)):
                # Cluster backends carry no RPC admin surface (a remote
                # ZipGClient backend forwards these end-to-end instead).
                return self._admin_local(route.method)
        key = self._flight_key(route, args, kwargs)
        if key is None:
            return await self.backend.call_async(route.method, *args,
                                                 **kwargs)
        flight = self._read_flights.get(key)
        if flight is None:
            flight = asyncio.ensure_future(
                self._fly(key, route.method, args, kwargs))
            self._read_flights[key] = flight
        else:
            # Ride the in-flight call: no second backend submission.
            self._tenant_metrics(tenant).batched.inc()
        # Shielded: one waiter going away must not cancel the call the
        # others are riding on.
        return await asyncio.shield(flight)

    async def _fly(self, key: Tuple[object, ...], method: str, args: tuple,
                   kwargs: dict) -> object:
        try:
            return await self.backend.call_async(method, *args, **kwargs)
        finally:
            del self._read_flights[key]

    def _admin_local(self, method: str) -> object:
        """The non-callable admin verbs, answered from cluster state
        (mirrors :meth:`repro.server.master.MasterServer._admin`)."""
        backend = self.backend
        if method == "topology":
            return {
                "num_servers": getattr(backend, "num_servers", 1),
                "replication_factor": getattr(
                    backend, "replication_factor", 1
                ),
                "num_shards": len(backend.store.shards),
            }
        if method == "down_servers":
            return sorted(getattr(backend, "down_servers", ()))
        raise KeyError(
            f"admin method {method!r} is not supported by "
            f"{type(backend).__name__}"
        )

    @staticmethod
    def _flight_key(route: Route, args: tuple,
                    kwargs: dict) -> Optional[Tuple[object, ...]]:
        """Coalescing key for reads; ``None`` for writes/admin (every
        write must reach the store exactly as many times as issued)."""
        if route.kind != "read":
            return None
        try:
            key = (route.method, args, tuple(sorted(kwargs.items())))
            hash(key)  # dict-valued args only fail at hash time
            return key
        except TypeError:
            # Unhashable argument (a dict-valued property list):
            # canonicalize through repr rather than skip coalescing.
            return (route.method, repr(args),
                    repr(sorted(kwargs.items())))

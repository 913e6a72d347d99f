"""The gateway service: admission -> dispatch slot -> batch -> backend.

One :class:`GatewayService` fronts a backend -- a remote
:class:`~repro.server.client.ZipGClient` or a local
:class:`~repro.cluster.replication.ReplicatedZipGCluster` -- and calls it as
``getattr(backend, method)(*args, **kwargs)``; the service never knows
which.  A request runs to completion on the thread that called
:meth:`GatewayService.handle` (in a served gateway, the connection
thread that read it):

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
4. **batch** -- identical in-flight reads coalesce through a
   :class:`~repro.perf.coalesce.SingleFlight`: one leader calls the
   backend, riders wait for its result;
5. **dispatch** -- chaos site ``gateway.dispatch``, then the backend
   call.  Reads flagged for degradation go out with
   ``partial_results=True`` instead of failing -- a shed that returns
   data.

One lock guards admission, the slot count and the per-tenant metric
handles; it is never held across a backend call or a wait.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import chaos, obs
from repro.core.errors import GatewayClosed, RetryAfter
from repro.gateway.admission import AdmissionController
from repro.gateway.router import Route, resolve
from repro.perf.coalesce import SingleFlight

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
    """Admission-controlled front door over a synchronous backend;
    safe to call from many threads at once.

    Args:
        backend: the object whose query/update methods requests call.
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
        self._lock = threading.Lock()
        #: Signalled (under ``_lock``) when the last busy slot frees.
        self._slots_idle = threading.Condition(self._lock)
        self._handles: Dict[str, _TenantMetrics] = {}
        self._coalescer = SingleFlight()
        # Dispatch slots in use.  Invariant: a slot is free only while
        # nothing is parked -- a finishing request hands its slot to
        # the next parked one instead of freeing it.
        self._busy = 0
        self._draining = False

    def _tenant_metrics_locked(self, tenant: str) -> _TenantMetrics:
        metrics = self._handles.get(tenant)
        if metrics is None:
            metrics = self._handles[tenant] = _TenantMetrics(tenant)
        return metrics

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Stop admitting and finish every admitted request.

        New requests see :class:`GatewayClosed` immediately; admitted
        work -- at the backend or parked -- completes normally (a
        drain is a handover, not an amputation).  Returns once every
        dispatch slot is free, which by the slot invariant means the
        queues are empty too.
        """
        with self._lock:
            self._draining = True
            while self._busy:
                self._slots_idle.wait()

    @property
    def draining(self) -> bool:
        return self._draining

    def queue_depths(self) -> Dict[str, int]:
        with self._lock:
            return self._admission.depths()

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def handle(self, method: str, args: Optional[list] = None,
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
                chaos.kick(chaos.SITE_GATEWAY_DISPATCH, tenant=tenant,
                           method=method)
                return self._admin(route.method, call_args, call_kwargs)
            started = self._clock()
            metrics, degrade = self._take_slot(route, tenant)
            try:
                if degrade:
                    call_kwargs["partial_results"] = True
                chaos.kick(chaos.SITE_GATEWAY_DISPATCH, tenant=tenant,
                           method=method)
                result = self._call(route, call_args, call_kwargs, metrics)
            finally:
                self._release_slot()
            metrics.latency.observe(self._clock() - started)
            return result

    def _take_slot(self, route: Route,
                   tenant: str) -> Tuple[_TenantMetrics, bool]:
        """Admit one request and take a dispatch slot, parked in the
        tenant's FIFO while every slot is busy; returns the tenant's
        metrics and the request's degrade flag."""
        chaos.kick(chaos.SITE_GATEWAY_ADMIT, tenant=tenant,
                   method=route.method)
        with self._lock:
            metrics = self._tenant_metrics_locked(tenant)
            if self._draining:
                raise GatewayClosed("gateway is draining; not admitting")
            try:
                degrade = self._admission.admit(tenant, route.sheddable)
            except RetryAfter as exc:
                metrics.shed(f"reject_{exc.reason}").inc()
                raise
            metrics.admitted.inc()
            if degrade:
                metrics.shed("degrade").inc()
            if self._busy < self.config.dispatchers:
                self._busy += 1
                return metrics, degrade
            handed_slot = threading.Event()
            metrics.depth.set(self._admission.park(tenant, handed_slot))
            metrics.queued.inc()
        handed_slot.wait()
        return metrics, degrade

    def _release_slot(self) -> None:
        """Hand the caller's slot to the next parked request,
        round-robin across tenants, or free it."""
        with self._lock:
            parked = self._admission.next_parked()
            if parked is None:
                self._busy -= 1
                if not self._busy:
                    self._slots_idle.notify_all()
                return
            tenant, handed_slot = parked
            self._tenant_metrics_locked(tenant).depth.set(
                self._admission.queue_depth_of(tenant))
        handed_slot.set()

    # ------------------------------------------------------------------
    # The backend call
    # ------------------------------------------------------------------

    def _call(self, route: Route, args: tuple, kwargs: dict,
              metrics: _TenantMetrics) -> object:
        """One backend call, deduplicating identical in-flight reads."""
        handler = getattr(self.backend, route.method)
        key = self._flight_key(route, args, kwargs)
        if key is None:
            return handler(*args, **kwargs)
        return self._coalescer.do(key, lambda: handler(*args, **kwargs),
                                on_shared=metrics.batched.inc)

    def _admin(self, method: str, args: tuple, kwargs: dict) -> object:
        """Admin verbs: ``ping`` probes *this* process (the wire
        contract is the literal "pong"); the rest go to the backend,
        or are answered from cluster state when the backend has no
        RPC admin surface (mirrors
        :meth:`repro.server.master.MasterServer._admin`)."""
        if method == "ping":
            return "pong"
        handler = getattr(self.backend, method, None)
        if callable(handler):
            return handler(*args, **kwargs)
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
        """Coalescing key for reads; ``None`` for writes (every write
        must reach the store exactly as many times as issued)."""
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

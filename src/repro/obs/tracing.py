"""Per-query trace spans with layer attribution (tentpole of repro.obs).

A :class:`Span` marks one timed region of the query path and carries a
``layer`` tag attributing it to a storage layer (``graph_store`` ->
``shard`` -> ``nodefile``/``edgefile`` -> ``succinct`` kernels, or
``logstore`` / ``pointer`` hops). Spans nest through a
:mod:`contextvars` context variable, so each thread and each asyncio
task sees its own current span.

Tracing is **off by default** and the disabled path costs nothing:
``@obs.traced`` methods are bound to their undecorated functions until
:meth:`Tracer.enable` swaps the span wrappers in (see
:class:`_TracedSite`), and inline ``span()`` sites are a single
attribute check returning a shared no-op span. When enabled, a
``sample_rate`` knob (0 < rate <= 1) decides *per root span* whether a
trace is recorded; unsampled roots still occupy the context slot so
their children know to stay quiet.

On every sampled span finish the tracer folds the span into aggregate
state: a per-span-name duration histogram (in the shared
:class:`~repro.obs.metrics.MetricsRegistry`) and per-layer
exclusive-time/op accumulators -- "exclusive" meaning the span's wall
time minus its direct children's, so one microsecond of work is
attributed to exactly one layer.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, TypeVar

from repro.obs.metrics import MetricsRegistry

F = TypeVar("F", bound=Callable[..., Any])

# Trace/span identity: a per-process random prefix plus a counter is
# unique across the master + shard-server processes of one deployment
# without the cost of a fresh urandom read per span.
_ID_PREFIX = os.urandom(4).hex()
_ID_COUNTER = itertools.count(1)


def _new_id() -> str:
    return f"{_ID_PREFIX}-{next(_ID_COUNTER):x}"

_current_span: "contextvars.ContextVar[Optional[_SpanBase]]" = contextvars.ContextVar(
    "zipg_current_span", default=None
)

#: Span-duration histogram name in the metrics registry (labelled by
#: span name, recorded in microseconds).
SPAN_HISTOGRAM = "zipg_span_duration_us"
LAYER_TIME_COUNTER = "zipg_layer_time_us_total"
LAYER_OPS_COUNTER = "zipg_layer_ops_total"


class _SpanBase:
    """Shared interface so null/unsampled spans are substitutable."""

    __slots__ = ()

    recording = False

    def tag(self, **tags: object) -> None:
        """Attach tags after creation (no-op unless recording)."""

    def __enter__(self) -> "_SpanBase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


class NullSpan(_SpanBase):
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()


NULL_SPAN = NullSpan()


class _UnsampledSpan(_SpanBase):
    """Root placeholder for traces the sampler skipped: occupies the
    context slot so descendants do not masquerade as new roots."""

    __slots__ = ("_token",)

    def __enter__(self) -> "_UnsampledSpan":
        self._token = _current_span.set(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        _current_span.reset(self._token)


class Span(_SpanBase):
    """One timed, tagged node of a trace tree."""

    __slots__ = (
        "name", "tags", "start_ns", "end_ns", "children",
        "trace_id", "span_id",
        "_tracer", "_parent", "_token", "_lock",
    )

    recording = True

    def __init__(self, tracer: "Tracer", name: str, tags: Dict[str, object],
                 parent: Optional["Span"]):
        self.name = name
        self.tags = tags
        self.start_ns = 0
        self.end_ns = 0
        self.children: List[Span] = []
        #: Roots mint a new trace id; children inherit. RPC requests
        #: carry ``{"trace_id", "span_id"}`` so a server-side
        #: :meth:`Tracer.remote_span` joins the caller's trace.
        self.trace_id = _new_id() if parent is None else parent.trace_id
        self.span_id = _new_id()
        self._tracer = tracer
        self._parent = parent
        self._lock = threading.Lock()

    @property
    def layer(self) -> str:
        return str(self.tags.get("layer", "other"))

    @property
    def duration_ns(self) -> int:
        return max(0, self.end_ns - self.start_ns)

    @property
    def exclusive_ns(self) -> int:
        """Wall time not covered by direct children.

        Fan-out children run concurrently, so their summed time can
        exceed the parent's wall clock; exclusive time clamps at zero
        rather than going negative.
        """
        return max(0, self.duration_ns - sum(c.duration_ns for c in self.children))

    def tag(self, **tags: object) -> None:
        self.tags.update(tags)

    def __enter__(self) -> "Span":
        if self._parent is not None:
            with self._parent._lock:
                self._parent.children.append(self)
        self._token = _current_span.set(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end_ns = time.perf_counter_ns()
        _current_span.reset(self._token)
        self._tracer._finish(self)

    # -- introspection ---------------------------------------------------

    def walk(self) -> List["Span"]:
        """This span plus every descendant, depth-first."""
        out: List[Span] = [self]
        for child in self.children:
            out.extend(child.walk())
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable trace tree."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "tags": {k: v for k, v in self.tags.items()},
            "duration_us": self.duration_ns / 1e3,
            "exclusive_us": self.exclusive_ns / 1e3,
            "children": [child.to_dict() for child in self.children],
        }


class _TracedSite:
    """The product of :meth:`Tracer.traced`.

    Used on a method, ``__set_name__`` records the owning class and
    installs the **undecorated** function while tracing is off, so the
    disabled fast path costs literally nothing -- no wrapper frame, no
    flag check. :meth:`Tracer.enable` swaps the span wrapper in at
    every recorded site; :meth:`Tracer.disable` restores the plain
    functions. Decorating a free function (no class body) skips
    ``__set_name__`` and calls dispatch through :meth:`__call__`, which
    keeps the one-attribute-check fast path.
    """

    def __init__(self, tracer: "Tracer", fn: Callable[..., Any],
                 span_name: str, tags: Dict[str, object]) -> None:
        self.fn = fn
        self.owner: Optional[type] = None
        self.attr_name = ""

        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object) -> object:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(span_name, **tags):
                return fn(*args, **kwargs)

        wrapper.__zipg_span__ = span_name  # type: ignore[attr-defined]
        self.wrapper = wrapper
        self.__zipg_span__ = span_name
        self.__name__ = fn.__name__
        self.__qualname__ = fn.__qualname__
        self.__doc__ = fn.__doc__
        self.__wrapped__ = fn
        self._tracer = tracer
        tracer._register_site(self)

    def __set_name__(self, owner: type, name: str) -> None:
        self.owner = owner
        self.attr_name = name
        self.install(self._tracer.enabled)

    def install(self, enabled: bool) -> None:
        """(Re)bind the owning class attribute for the given state."""
        if self.owner is not None:
            setattr(self.owner, self.attr_name,
                    self.wrapper if enabled else self.fn)

    def __call__(self, *args: object, **kwargs: object) -> object:
        return self.wrapper(*args, **kwargs)


class Tracer:
    """Factory and aggregator for spans. One per process (see
    :mod:`repro.obs`); all state is guarded for fan-out threads."""

    def __init__(self, registry: MetricsRegistry, max_traces: int = 64):
        self.enabled = False
        self.sample_rate = 1.0
        self._registry = registry
        self._lock = threading.Lock()
        self._sample_accumulator = 0.0
        self._sites: List[_TracedSite] = []
        self.traces: Deque[Span] = deque(maxlen=max_traces)
        self.dropped_traces = 0

    # -- control ---------------------------------------------------------

    def _register_site(self, site: _TracedSite) -> None:
        with self._lock:
            self._sites.append(site)

    def enable(self, sample_rate: float = 1.0) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        self.sample_rate = sample_rate
        self.enabled = True
        with self._lock:
            for site in self._sites:
                site.install(True)

    def disable(self) -> None:
        self.enabled = False
        with self._lock:
            for site in self._sites:
                site.install(False)

    def reset(self) -> None:
        """Clear retained traces and the sampler (keeps enabled state;
        the aggregate counters live in the registry and reset with it)."""
        with self._lock:
            self.traces.clear()
            self.dropped_traces = 0
            self._sample_accumulator = 0.0

    # -- span creation ---------------------------------------------------

    def span(self, name: str, **tags: object) -> _SpanBase:
        """A context manager timing one region: ``with tracer.span(...)``.

        Returns the shared :data:`NULL_SPAN` when tracing is disabled or
        the enclosing trace is unsampled, a placeholder when this would
        start a new root the sampler skipped, and a live :class:`Span`
        otherwise.
        """
        if not self.enabled:
            return NULL_SPAN
        parent = _current_span.get()
        if parent is None:
            if not self._sample_root():
                return _UnsampledSpan()
            return Span(self, name, tags, None)
        if not parent.recording:
            return NULL_SPAN
        assert isinstance(parent, Span)
        return Span(self, name, tags, parent)

    def _sample_root(self) -> bool:
        if self.sample_rate >= 1.0:
            return True
        with self._lock:
            self._sample_accumulator += self.sample_rate
            if self._sample_accumulator >= 1.0:
                self._sample_accumulator -= 1.0
                return True
            self.dropped_traces += 1
            return False

    def traced(self, name: Optional[str] = None, **tags: object) -> Callable[[F], F]:
        """Decorator form of :meth:`span`.

        On methods this costs *nothing* while tracing is off: the
        returned :class:`_TracedSite` installs the undecorated function
        on the owning class and :meth:`enable`/:meth:`disable` swap the
        span wrapper in and out. On free functions the disabled fast
        path is one attribute check on top of the wrapped call.
        """

        def decorator(fn: F) -> F:
            span_name = name if name is not None else fn.__qualname__
            return _TracedSite(self, fn, span_name, dict(tags))  # type: ignore[return-value]

        return decorator

    def current(self) -> Optional[_SpanBase]:
        return _current_span.get()

    def current_context(self) -> Optional[Dict[str, str]]:
        """The active span's wire-propagable identity.

        ``None`` when tracing is off or the enclosing trace is not
        being recorded -- callers attach it to outbound RPC requests
        only when there is something to join."""
        span = _current_span.get()
        if isinstance(span, Span):
            return {"trace_id": span.trace_id, "span_id": span.span_id}
        return None

    def remote_span(self, name: str,
                    context: Optional[Dict[str, str]] = None,
                    **tags: object) -> _SpanBase:
        """A server-side span continuing a caller's trace.

        With no ``context`` this is plain :meth:`span`. With one, the
        span adopts the caller's ``trace_id`` and tags the remote
        parent span id -- and bypasses the root sampler, because the
        *caller* already made the sampling decision when it recorded
        the context."""
        if not self.enabled:
            return NULL_SPAN
        if not context:
            return self.span(name, **tags)
        parent = _current_span.get()
        span = Span(self, name, dict(tags),
                    parent if isinstance(parent, Span) else None)
        span.trace_id = str(context.get("trace_id", span.trace_id))
        span.tag(remote_parent=str(context.get("span_id", "")))
        return span

    # -- aggregation -----------------------------------------------------

    def _finish(self, span: Span) -> None:
        layer = span.layer
        self._registry.histogram(
            SPAN_HISTOGRAM, help="span wall time", labels={"span": span.name}
        ).observe(span.duration_ns / 1e3)
        self._registry.counter(
            LAYER_TIME_COUNTER, help="exclusive span time per layer",
            labels={"layer": layer},
        ).inc(span.exclusive_ns / 1e3)
        self._registry.counter(
            LAYER_OPS_COUNTER, help="spans per layer", labels={"layer": layer}
        ).inc()
        if span._parent is None:
            with self._lock:
                self.traces.append(span)

    def layer_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-layer exclusive wall time (us) and span counts, read off
        the registry's layer counters."""
        out: Dict[str, Dict[str, float]] = {}
        for metric in self._registry.metrics():
            name = getattr(metric, "name", "")
            if name not in (LAYER_TIME_COUNTER, LAYER_OPS_COUNTER):
                continue
            labels = dict(metric.labels)  # type: ignore[attr-defined]
            layer = labels.get("layer", "other")
            entry = out.setdefault(layer, {"time_us": 0.0, "spans": 0.0})
            if name == LAYER_TIME_COUNTER:
                entry["time_us"] += metric.value  # type: ignore[attr-defined]
            else:
                entry["spans"] += metric.value  # type: ignore[attr-defined]
        return out

    def span_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name latency summary from the registry histograms."""
        out: Dict[str, Dict[str, float]] = {}
        for histogram in self._registry.histograms(SPAN_HISTOGRAM):
            labels = dict(histogram.labels)
            out[labels.get("span", "?")] = histogram.snapshot()
        return out

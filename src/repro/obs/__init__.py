"""``repro.obs``: zero-dependency tracing + metrics for the query path.

The subsystem has three pieces:

* **Spans** (:mod:`repro.obs.tracing`) -- ``with obs.span("shard.find",
  layer="shard", shard=3):`` builds per-query trace trees with wall
  time and layer attribution, nested through a context variable.
  Off by default; ``enable_tracing(sample_rate)`` turns it on.
* **Metrics registry** (:mod:`repro.obs.metrics`) -- named counters,
  gauges, and fixed-bucket latency histograms (p50/p95/p99). The
  per-engine :class:`~repro.succinct.stats.AccessStats` counters
  publish into the same registry through collectors, so storage
  touches and timings share one thread-safe surface.
* **Exporters** (:mod:`repro.obs.export`) -- Prometheus text and JSON,
  surfaced by ``repro stats`` and the bench harness's ``BENCH_*.json``
  artifacts.

This module owns the process-wide singletons. Everything here is
importable from anywhere in the tree (it depends on nothing outside
the standard library), so core modules instrument themselves with
``from repro import obs`` ... ``obs.span(...)`` / ``@obs.traced(...)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence, TypeVar

from repro.obs.export import json_snapshot, prometheus_text
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import (
    LAYER_OPS_COUNTER,
    LAYER_TIME_COUNTER,
    NULL_SPAN,
    SPAN_HISTOGRAM,
    NullSpan,
    Span,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullSpan",
    "Span",
    "Tracer",
    "DEFAULT_BUCKETS",
    "LAYER_OPS_COUNTER",
    "LAYER_TIME_COUNTER",
    "NULL_SPAN",
    "SPAN_HISTOGRAM",
    "counter",
    "current_trace_context",
    "disable_tracing",
    "enable_tracing",
    "gauge",
    "get_registry",
    "get_tracer",
    "histogram",
    "json_snapshot",
    "prometheus_text",
    "remote_span",
    "reset",
    "snapshot",
    "span",
    "traced",
    "tracing_enabled",
]

_REGISTRY = MetricsRegistry()
_TRACER = Tracer(_REGISTRY)

_F = TypeVar("_F", bound=Callable[..., object])


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def span(name: str, **tags: object):
    """Open a span on the global tracer (no-op unless tracing is on)."""
    return _TRACER.span(name, **tags)


def traced(name: Optional[str] = None, **tags: object) -> Callable[[_F], _F]:
    """Decorator: wrap a function in a span on the global tracer."""
    return _TRACER.traced(name, **tags)


def current_trace_context() -> Optional[Dict[str, str]]:
    """The active span's ``{"trace_id", "span_id"}`` for RPC requests
    (``None`` unless a recorded span is open)."""
    return _TRACER.current_context()


def remote_span(name: str, context: Optional[Dict[str, str]] = None,
                **tags: object):
    """Open a server-side span continuing a remote caller's trace."""
    return _TRACER.remote_span(name, context, **tags)


def counter(name: str, help: str = "",
            labels: Optional[Mapping[str, str]] = None) -> Counter:
    return _REGISTRY.counter(name, help=help, labels=labels)


def gauge(name: str, help: str = "",
          labels: Optional[Mapping[str, str]] = None) -> Gauge:
    return _REGISTRY.gauge(name, help=help, labels=labels)


def histogram(name: str, help: str = "",
              buckets: Optional[Sequence[float]] = None,
              labels: Optional[Mapping[str, str]] = None) -> Histogram:
    return _REGISTRY.histogram(name, help=help, buckets=buckets, labels=labels)


def enable_tracing(sample_rate: float = 1.0) -> None:
    """Turn span recording on (``sample_rate`` of root spans kept)."""
    _TRACER.enable(sample_rate)


def disable_tracing() -> None:
    _TRACER.disable()


def tracing_enabled() -> bool:
    return _TRACER.enabled


def reset() -> None:
    """Zero every metric and drop retained traces (for bench / tests)."""
    _REGISTRY.reset()
    _TRACER.reset()


def snapshot() -> Dict[str, object]:
    """JSON-serializable snapshot of the registry."""
    return _REGISTRY.snapshot()

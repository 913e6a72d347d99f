"""Zero-dependency metrics registry: counters, gauges, histograms.

One process-wide :class:`MetricsRegistry` (see :mod:`repro.obs`) holds
every named metric the query path emits, so the Succinct access
counters (:class:`repro.succinct.stats.AccessStats`, published through
*collectors*), the pointer-chase counters, and the span-duration
histograms all surface through a single thread-safe object that the
exporters (:mod:`repro.obs.export`), ``repro stats``, and
``ZipG.snapshot_metrics()`` read.

Metric identity is ``(name, labels)``: two ``counter()`` calls with the
same name and labels return the same instance, so call sites do not
need to coordinate registration. Histograms use fixed bucket bounds
(default: an exponential microsecond ladder) and estimate percentiles
by linear interpolation inside the winning bucket -- accurate enough
for p50/p95/p99 gating without storing raw samples.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

LabelPairs = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds. Unit-agnostic; span latencies
#: are recorded in microseconds, so the ladder spans 1us .. 1s.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2.5, 5, 10, 25, 50, 100, 250, 500,
    1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000,
)

#: A collector returns a flat ``{metric_name: value}`` mapping that is
#: merged additively into the registry's counters at collection time,
#: or ``None`` to unregister itself (e.g. its subject was collected).
Collector = Callable[[], Optional[Mapping[str, float]]]


def _label_pairs(labels: Mapping[str, str]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.help = help
        self.labels: LabelPairs = _label_pairs(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.help = help
        self.labels: LabelPairs = _label_pairs(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self.set(0.0)


class Histogram:
    """A fixed-bucket latency histogram with percentile estimation.

    ``observe()`` is O(log buckets); percentiles interpolate linearly
    inside the selected bucket, clamping the open-ended overflow bucket
    at the maximum observed value.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ):
        self.name = name
        self.help = help
        self.labels: LabelPairs = _label_pairs(labels or {})
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds: Tuple[float, ...] = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow (+Inf) bucket
        self._sum = 0.0
        self._count = 0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # Binary search for the first bound >= value.
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._counts[lo] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, +Inf last."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        cumulative = 0
        for bound, count in zip(self.bounds, counts):
            cumulative += count
            out.append((bound, cumulative))
        out.append((math.inf, cumulative + counts[-1]))
        return out

    def percentile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            total = self._count
            counts = list(self._counts)
            maximum = self._max
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0.0
        lower = 0.0
        for index, count in enumerate(counts):
            if count:
                upper = self.bounds[index] if index < len(self.bounds) else maximum
                upper = min(upper, maximum)
                if cumulative + count >= target:
                    fraction = (target - cumulative) / count
                    return lower + (max(upper, lower) - lower) * fraction
                cumulative += count
            if index < len(self.bounds):
                lower = min(self.bounds[index], maximum)
        return maximum

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.sum,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "max": self._max,
        }

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0
            self._max = 0.0


Metric = object  # Counter | Gauge | Histogram (3.9-compatible alias)


class MetricsRegistry:
    """Thread-safe get-or-create home for every named metric.

    Besides directly-owned metrics, the registry aggregates
    *collectors*: callables that expose externally-maintained counters
    (the per-shard :class:`AccessStats` objects keep their unlocked
    hot-path increments; a collector publishes their totals here at
    read time, so the hot path pays nothing for the shared registry).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelPairs], object] = {}
        self._collectors: List[Collector] = []

    # -- get-or-create ---------------------------------------------------

    def _get_or_create(self, cls: type, name: str, help: str,
                       labels: Optional[Mapping[str, str]], **kwargs: object) -> object:
        key = (name, _label_pairs(labels or {}))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, help=help, labels=labels, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {type(metric).__name__}"
                )
            return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        metric = self._get_or_create(Counter, name, help, labels)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "",
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        metric = self._get_or_create(Gauge, name, help, labels)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  labels: Optional[Mapping[str, str]] = None) -> Histogram:
        metric = self._get_or_create(Histogram, name, help, labels, buckets=buckets)
        assert isinstance(metric, Histogram)
        return metric

    # -- collectors ------------------------------------------------------

    def register_collector(self, collector: Collector) -> Collector:
        with self._lock:
            self._collectors.append(collector)
        return collector

    def collected_counters(self) -> Dict[str, float]:
        """Additive merge of every live collector's counter mapping."""
        with self._lock:
            collectors = list(self._collectors)
        merged: Dict[str, float] = {}
        dead: List[Collector] = []
        for collector in collectors:
            sample = collector()
            if sample is None:
                dead.append(collector)
                continue
            for name, value in sample.items():
                merged[name] = merged.get(name, 0.0) + float(value)
        if dead:
            with self._lock:
                for collector in dead:
                    if collector in self._collectors:
                        self._collectors.remove(collector)
        return merged

    # -- reading ---------------------------------------------------------

    def metrics(self) -> List[object]:
        with self._lock:
            return list(self._metrics.values())

    def histograms(self, name: Optional[str] = None) -> List[Histogram]:
        out = [m for m in self.metrics() if isinstance(m, Histogram)]
        if name is not None:
            out = [m for m in out if m.name == name]
        return out

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable view of every metric and collector."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, float]] = {}
        for metric in self.metrics():
            key = _render_key(metric.name, metric.labels)  # type: ignore[attr-defined]
            if isinstance(metric, Counter):
                counters[key] = counters.get(key, 0.0) + metric.value
            elif isinstance(metric, Gauge):
                gauges[key] = metric.value
            elif isinstance(metric, Histogram):
                histograms[key] = metric.snapshot()
        for name, value in self.collected_counters().items():
            counters[name] = counters.get(name, 0.0) + value
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def reset(self) -> None:
        """Zero every owned metric (collectors are left registered --
        their subjects own their own reset)."""
        for metric in self.metrics():
            metric.reset()  # type: ignore[attr-defined]


def _render_key(name: str, labels: Iterable[Tuple[str, str]]) -> str:
    pairs = list(labels)
    if not pairs:
        return name
    inner = ",".join(f"{k}={v}" for k, v in pairs)
    return f"{name}{{{inner}}}"

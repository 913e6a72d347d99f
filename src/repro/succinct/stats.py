"""Access instrumentation shared by all storage engines.

Every storage engine in this repository (Succinct-backed shards, the
Neo4j-like pointer store, the Titan-like KV store, the LogStore) counts
the logical *storage touches* it performs. The benchmark memory model
(:mod:`repro.bench.memory_model`) converts those touches into simulated
latency, classifying each as in-memory or spilled to SSD depending on
the engine's measured footprint versus the configured memory budget.

Thread safety: the plain ``stats.counter += n`` increments on the hot
paths are *not* atomic, so a single :class:`AccessStats` instance must
only be mutated from one thread at a time. The shard fan-out
(:class:`repro.core.executor.ShardExecutor`) is a plain loop on the
query's own thread, so it never splits one query's increments across threads;
cross-thread aggregation goes through the locked :meth:`merge`,
:meth:`add`, :meth:`snapshot` and :meth:`reset` methods.
"""
# zipg: single-writer

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass
class AccessStats:
    """Counters for logical storage operations.

    Attributes:
        random_accesses: point lookups into a storage structure. In a
            deployed system each is a potential page fetch; this is the
            unit the memory model charges SSD latency against.
        sequential_bytes: bytes read sequentially (scans, extracts).
        npa_hops: Succinct NPA dereferences (CPU cost of operating on
            the compressed representation; proportional to ``alpha``).
            Counts *logical* hops regardless of whether they were issued
            one at a time or through a vectorized kernel.
        npa_batched_hops: the subset of ``npa_hops`` performed inside a
            vectorized (numpy lockstep) kernel rather than a scalar
            Python loop. ``npa_hops - npa_batched_hops`` is the scalar
            residue; a well-batched workload drives it toward zero.
        batch_kernel_calls: number of vectorized kernel invocations
            (one batched ``extract``/``search``/``extract_batch`` call
            issues one or two of these, amortizing many hops each).
        searches: substring/index search operations issued.
        writes: record appends/mutations.
        decompressed_bytes: bytes run through block decompression (CPU
            cost of compressed baselines such as Titan-Compressed).
    """

    random_accesses: int = 0
    sequential_bytes: int = 0
    npa_hops: int = 0
    npa_batched_hops: int = 0
    batch_kernel_calls: int = 0
    searches: int = 0
    writes: int = 0
    decompressed_bytes: int = 0

    def __post_init__(self) -> None:
        # Not a dataclass field: excluded from eq/repr, never serialized.
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self.random_accesses = 0
            self.sequential_bytes = 0
            self.npa_hops = 0
            self.npa_batched_hops = 0
            self.batch_kernel_calls = 0
            self.searches = 0
            self.writes = 0
            self.decompressed_bytes = 0

    def snapshot(self) -> "AccessStats":
        """A copy of the current counter values."""
        with self._lock:
            return AccessStats(
                random_accesses=self.random_accesses,
                sequential_bytes=self.sequential_bytes,
                npa_hops=self.npa_hops,
                npa_batched_hops=self.npa_batched_hops,
                batch_kernel_calls=self.batch_kernel_calls,
                searches=self.searches,
                writes=self.writes,
                decompressed_bytes=self.decompressed_bytes,
            )

    def delta_since(self, earlier: "AccessStats") -> "AccessStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return AccessStats(
            random_accesses=self.random_accesses - earlier.random_accesses,
            sequential_bytes=self.sequential_bytes - earlier.sequential_bytes,
            npa_hops=self.npa_hops - earlier.npa_hops,
            npa_batched_hops=self.npa_batched_hops - earlier.npa_batched_hops,
            batch_kernel_calls=self.batch_kernel_calls - earlier.batch_kernel_calls,
            searches=self.searches - earlier.searches,
            writes=self.writes - earlier.writes,
            decompressed_bytes=self.decompressed_bytes - earlier.decompressed_bytes,
        )

    def merge(self, other: "AccessStats") -> None:
        """Accumulate ``other`` into this instance (thread-safe).

        ``other`` is snapshotted under *its* lock first, so a concurrent
        writer on ``other`` cannot produce a torn read; the two locks
        are never held together, so no acquisition-order edge exists.
        """
        source = other.snapshot()
        with self._lock:
            self.random_accesses += source.random_accesses
            self.sequential_bytes += source.sequential_bytes
            self.npa_hops += source.npa_hops
            self.npa_batched_hops += source.npa_batched_hops
            self.batch_kernel_calls += source.batch_kernel_calls
            self.searches += source.searches
            self.writes += source.writes
            self.decompressed_bytes += source.decompressed_bytes

    def add(self, **deltas: int) -> None:
        """Atomically add named counter deltas (for cross-thread use)."""
        with self._lock:
            for name, amount in deltas.items():
                setattr(self, name, getattr(self, name) + amount)

    def to_metrics(self, prefix: str = "") -> "dict[str, float]":
        """The counters as a flat ``{name: value}`` mapping, snapshotted
        under the lock -- the shape metric-registry collectors emit."""
        source = self.snapshot()
        return {
            f"{prefix}random_accesses_total": float(source.random_accesses),
            f"{prefix}sequential_bytes_total": float(source.sequential_bytes),
            f"{prefix}npa_hops_total": float(source.npa_hops),
            f"{prefix}npa_batched_hops_total": float(source.npa_batched_hops),
            f"{prefix}batch_kernel_calls_total": float(source.batch_kernel_calls),
            f"{prefix}searches_total": float(source.searches),
            f"{prefix}writes_total": float(source.writes),
            f"{prefix}decompressed_bytes_total": float(source.decompressed_bytes),
        }

    @property
    def scalar_npa_hops(self) -> int:
        """NPA hops issued one at a time outside any batched kernel."""
        return self.npa_hops - self.npa_batched_hops

    @property
    def total_touches(self) -> int:
        """All operations that may touch storage."""
        return self.random_accesses + self.searches + self.writes

"""The memory-budgeted, segmented-LRU hot-set cache.

Design notes
------------

**Byte budget, not entry count.** ZipG's contract is a fixed memory
envelope (§2); an entry-count cap would let a handful of megabyte
adjacency lists blow through it. Every entry is charged its estimated
payload size (:func:`estimate_size`) plus a fixed
:data:`ENTRY_OVERHEAD_BYTES` for the key, the OrderedDict slot, and the
bookkeeping tuple. The invariant ``bytes <= budget_bytes`` holds at
every instant the lock is released.

**Segmented LRU.** Two LRU segments (the Secondary-Level Replacement
policy from the 1994 SLRU paper, as used by memcached and Caffeine):
new entries land in *probation*; a hit while on probation promotes the
entry to *protected*. One-touch scan traffic therefore washes through
probation without displacing the re-referenced hot set sitting in
protected. Protected is capped at :data:`PROTECTED_FRACTION` of the
budget; overflow demotes protected-LRU entries back to probation's MRU end
rather than dropping them.

**Epoch-keyed invalidation.** The cache itself knows nothing about
invalidation. Its one owner, :meth:`repro.core.graph_store.ZipG.enable_cache`,
embeds the store's generation counter (:class:`~repro.perf.epoch.Epoch`)
in each key; a mutation bumps the epoch, so stale generations simply
stop being referenced and age out under budget pressure. O(1) per
mutation, no key scans, no TTLs.

**Single-flight loads.** :meth:`HotSetCache.get_or_load` guarantees at
most one loader runs per key at a time: concurrent misses on a hot key
join the leader's :class:`~repro.perf.coalesce.SingleFlight` instead of
stampeding the compressed store. The leader caches the value *before*
its flight is unpublished, so a caller arriving at any moment finds
either the flight or the entry. Loaders run outside the cache lock.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import weakref
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.perf.coalesce import SingleFlight

# Charged per entry on top of the payload estimate: key tuple, two
# OrderedDict links, and the (value, nbytes) slot.
ENTRY_OVERHEAD_BYTES = 96

#: Share of the budget the protected segment may hold before its LRU
#: tail is demoted back to probation.
PROTECTED_FRACTION = 0.8

_MISS = object()


def estimate_size(value: object) -> int:
    """Estimate the resident payload size of ``value`` in bytes.

    Exact for the types the store actually caches (bytes, str, ints,
    numpy arrays, dataclasses such as ``EdgeData``, and containers of
    those); ``sys.getsizeof`` is the fallback for anything exotic.
    Containers and dataclass fields are charged recursively, so a
    ``find_edges`` result pays for every edge's property dict.
    """
    if value is None:
        return 8
    if isinstance(value, (bytes, bytearray)):
        return len(value) + 48
    if isinstance(value, str):
        return len(value) + 56
    if isinstance(value, bool):
        return 28
    if isinstance(value, (int, float)):
        return 32
    if isinstance(value, np.ndarray):
        return int(value.nbytes) + 96
    if isinstance(value, dict):
        return 64 + sum(
            estimate_size(k) + estimate_size(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return 56 + sum(estimate_size(item) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return 56 + sum(
            estimate_size(getattr(value, field.name))
            for field in dataclasses.fields(value)
        )
    try:
        return int(sys.getsizeof(value))
    except TypeError:
        return 256


class HotSetCache:
    """Thread-safe segmented-LRU cache under a byte budget.

    All segment and counter state is guarded by ``self._lock``; loader
    callables passed to :meth:`get_or_load` execute outside it.

    Args:
        budget_bytes: hard ceiling on cached payload + per-entry
            overhead. Must be positive.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        self.budget_bytes = int(budget_bytes)
        self.protected_bytes = int(self.budget_bytes * PROTECTED_FRACTION)
        self._lock = threading.Lock()
        # key -> (value, nbytes); insertion order is LRU order
        # (oldest first), move_to_end on touch.
        self._probation: "OrderedDict[Hashable, Tuple[object, int]]"
        self._probation = OrderedDict()
        self._protected: "OrderedDict[Hashable, Tuple[object, int]]"
        self._protected = OrderedDict()
        self._loads = SingleFlight()
        self._bytes = 0
        self._protected_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        _publish_cache_metrics(self)

    # -- reads ---------------------------------------------------------

    def get(self, key: Hashable) -> Tuple[bool, object]:
        """Look up ``key``; returns ``(hit, value)``.

        The two-tuple (rather than a sentinel return) lets callers
        cache ``None`` results.
        """
        with self._lock:
            value = self._get_locked(key)
            if value is _MISS:
                self._misses += 1
                return False, None
            self._hits += 1
            return True, value

    def _get_locked(self, key: Hashable) -> object:
        entry = self._protected.get(key)
        if entry is not None:
            self._protected.move_to_end(key)
            return entry[0]
        entry = self._probation.pop(key, None)
        if entry is None:
            return _MISS
        # Second touch: promote to protected, demoting its LRU tail
        # back to probation if the segment overflows.
        self._protected[key] = entry
        self._protected_bytes += entry[1]
        cap = self.protected_bytes
        while self._protected_bytes > cap and len(self._protected) > 1:
            demoted_key, demoted = self._protected.popitem(last=False)
            self._protected_bytes -= demoted[1]
            self._probation[demoted_key] = demoted
        return entry[0]

    # -- writes --------------------------------------------------------

    def put(self, key: Hashable, value: object) -> bool:
        """Insert ``key`` -> ``value``; returns False if it cannot fit.

        Entries larger than the whole budget are rejected rather than
        flushing the cache to admit one oversized value.
        """
        nbytes = estimate_size(value) + ENTRY_OVERHEAD_BYTES
        if nbytes > self.budget_bytes:
            return False
        with self._lock:
            self._remove_locked(key)
            self._probation[key] = (value, nbytes)
            self._bytes += nbytes
            self._evict_locked()
            return True

    def _remove_locked(self, key: Hashable) -> None:
        entry = self._probation.pop(key, None)
        if entry is None:
            entry = self._protected.pop(key, None)
            if entry is not None:
                self._protected_bytes -= entry[1]
        if entry is not None:
            self._bytes -= entry[1]

    def _evict_locked(self) -> None:
        total = self.budget_bytes
        while self._bytes > total:
            if self._probation:
                _, entry = self._probation.popitem(last=False)
            elif self._protected:
                _, entry = self._protected.popitem(last=False)
                self._protected_bytes -= entry[1]
            else:  # pragma: no cover - bytes>0 implies an entry exists
                self._bytes = 0
                return
            self._bytes -= entry[1]
            self._evictions += 1

    def get_or_load(self, key: Hashable, loader: Callable[[], object]) -> object:
        """Return the cached value, loading (once) on a miss.

        Concurrent callers missing on the same key share one loader
        execution: the first becomes the leader, the rest block on its
        completion and receive the same object. Loader exceptions --
        including :class:`BaseException` crash faults -- propagate to
        every waiter and cache nothing.
        """
        with self._lock:
            value = self._get_locked(key)
            if value is not _MISS:
                self._hits += 1
                return value

        def load() -> object:
            # Re-check under the flight: a previous leader may have
            # cached the value between our miss and this flight.
            with self._lock:
                value = self._get_locked(key)
                if value is not _MISS:
                    self._hits += 1
                    return value
                self._misses += 1
            value = loader()
            self.put(key, value)
            return value

        return self._loads.do(key, load)

    # -- management ----------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._probation.clear()
            self._protected.clear()
            self._bytes = 0
            self._protected_bytes = 0

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._probation) + len(self._protected)

    def stats(self) -> Dict[str, Union[int, float]]:
        """A point-in-time snapshot of the cache counters."""
        with self._lock:
            hits = self._hits
            misses = self._misses
            lookups = hits + misses
            return {
                "hits": hits,
                "misses": misses,
                "evictions": self._evictions,
                "coalesced_loads": self._loads.shared,
                "bytes": self._bytes,
                "entries": len(self._probation) + len(self._protected),
                "budget_bytes": self.budget_bytes,
                "hit_ratio": (hits / lookups) if lookups else 0.0,
            }


def _publish_cache_metrics(cache: HotSetCache) -> None:
    """Register a weakref collector exporting ``zipg_cache_*`` counters.

    Same pattern as ``graph_store._publish_store_metrics``: the
    collector holds only a weak reference and unregisters itself (by
    returning ``None``) once the cache is garbage collected, so
    building many stores in tests does not leak collectors. Multiple
    live caches merge additively.
    """
    ref = weakref.ref(cache)

    def _collect() -> Optional[Dict[str, float]]:
        live = ref()
        if live is None:
            return None
        snap = live.stats()
        return {
            "zipg_cache_hits_total": float(snap["hits"]),
            "zipg_cache_misses_total": float(snap["misses"]),
            "zipg_cache_evictions_total": float(snap["evictions"]),
            "zipg_cache_bytes_total": float(snap["bytes"]),
            "zipg_cache_coalesced_loads_total": float(
                snap["coalesced_loads"]
            ),
        }

    obs.get_registry().register_collector(_collect)

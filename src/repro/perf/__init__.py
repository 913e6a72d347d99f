"""``repro.perf``: the memory-budgeted hot-set cache and request
coalescing layer (PR 5).

ZipG's pitch is serving interactive queries *from the compressed
representation* within a fixed memory budget (§2, §5). Repeated
TAO/LinkBench reads nevertheless re-run the same searches and
re-decode the same records from scratch; this package spends a small,
strictly byte-accounted slice of the budget to make those hot reads
cheap without touching the memory-efficiency story:

* :class:`~repro.perf.cache.HotSetCache` -- a thread-safe segmented-LRU
  cache with a byte budget, per-entry byte accounting, and
  ``zipg_cache_*`` metrics published through :mod:`repro.obs`.
* :class:`~repro.perf.epoch.Epoch` -- the store's monotone generation
  counter. Cache keys embed it, so a mutation invalidates in O(1) (the
  stale generation simply becomes unreachable garbage the LRU evicts)
  -- never a key scan.
* :mod:`~repro.perf.coalesce` -- single-flight request sharing
  (:class:`~repro.perf.coalesce.SingleFlight`) so concurrent identical
  queries execute once.

See ``docs/CACHING.md`` for the budget model and wiring.
"""

from __future__ import annotations

from repro.perf.cache import (
    ENTRY_OVERHEAD_BYTES,
    PROTECTED_FRACTION,
    HotSetCache,
    estimate_size,
)
from repro.perf.coalesce import SingleFlight
from repro.perf.epoch import Epoch

__all__ = [
    "ENTRY_OVERHEAD_BYTES",
    "Epoch",
    "HotSetCache",
    "PROTECTED_FRACTION",
    "SingleFlight",
    "estimate_size",
]

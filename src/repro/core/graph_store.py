"""The ZipG graph store: Table 1's API on compressed shards (§3, §4).

A :class:`ZipG` instance owns:

* the initial hash-partitioned compressed shards (§4.1);
* additional compressed shards produced by LogStore freezes;
* the single active query-optimized :class:`~repro.core.logstore.LogStore`;
* one :class:`~repro.core.pointers.UpdatePointerTable` per *initial*
  shard -- a node's pointers live at the shard its NodeID hashes to, so
  queries route by hash and then follow pointers to exactly the shards
  holding that node's fragments (fanned updates, §3.5).

Reads execute directly on the compressed representation; writes go to
the LogStore, which is frozen into a new compressed shard when it
crosses the size threshold.
"""

from __future__ import annotations

# zipg: query-api
# zipg: cache-backed

import bisect
import threading
import weakref
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type,
    TypeVar, Union,
)

from repro import obs
from repro.core.delimiters import DelimiterMap
from repro.core.errors import NodeNotFound, RecoveryError
from repro.core.executor import ShardExecutor
from repro.core.interface import GraphStoreInterface
from repro.core.logstore import LogStore
from repro.core.model import Edge, EdgeData, GraphData, PropertyList, WILDCARD
from repro.core.pointers import ACTIVE_LOGSTORE, UpdatePointerTable
from repro.core.shard import CompressedShard
from repro.perf.cache import HotSetCache
from repro.perf.epoch import Epoch
from repro.succinct.stats import AccessStats

EdgeTypeArg = Union[int, str]  # an EdgeType or the WILDCARD string
_Store = TypeVar("_Store", bound="ZipG")
_T = TypeVar("_T")

_KNUTH = 2654435761


def _hash_partition(node_id: int, num_shards: int) -> int:
    """Hash-partitioning of NodeIDs onto shards (§4.1)."""
    return ((node_id * _KNUTH) & 0xFFFFFFFF) % num_shards


def _publish_store_metrics(store: "ZipG") -> None:
    """Expose the store's access counters through the shared metrics
    registry (weakly -- the collector unregisters itself once the store
    is collected, so building many stores does not leak)."""
    ref = weakref.ref(store)

    def _collect() -> Optional[Dict[str, float]]:
        live = ref()
        if live is None:
            return None
        metrics = live.aggregate_stats().to_metrics(prefix="zipg_access_")
        metrics["zipg_pointer_hops_total"] = float(live._pointer_hops)
        return metrics

    obs.get_registry().register_collector(_collect)


def merge_node_hits(hits_per_unit: Iterable[List[int]]) -> List[int]:
    """One node search's answer from its per-unit hits (LogStore and
    shards): the sorted union.  The store's own search and the
    cluster's broadcast both merge through it."""
    result: set = set()
    for hits in hits_per_unit:
        result.update(hits)
    return sorted(result)


def merge_edge_hits(
    hits_per_unit: Iterable[List[Tuple[int, int, EdgeData]]]
) -> List[Tuple[int, int, EdgeData]]:
    """One edge-property search's answer from its per-unit hits: every
    ``(source, edge_type, EdgeData)`` hit, sorted by (source,
    edge_type, timestamp, destination)."""
    results = [hit for hits in hits_per_unit for hit in hits]
    results.sort(key=lambda hit: (hit[0], hit[1], hit[2].timestamp, hit[2].destination))
    return results


class EdgeRecord:
    """A merged view over every fragment of a (NodeID, EdgeType) record.

    For un-updated records this is a single compressed fragment and all
    accessors delegate directly (the common case the paper optimizes
    for). Records fragmented across shards by updates present a single
    timestamp-ordered TimeOrder space spanning all live fragments.
    """

    def __init__(
        self, node_id: int, edge_type: EdgeTypeArg, fragments: Sequence
    ) -> None:
        self.node_id = node_id
        self.edge_type = edge_type
        self.fragments = list(fragments)
        # (ts, dst, frag, local) -- dst in the sort key matches the
        # (timestamp, destination) order used by the EdgeFile bucket
        # sort and the LogStore insertion point, so timestamp ties
        # resolve identically across fragment boundaries.
        self._index: Optional[List[Tuple[int, int, int, int]]] = None
        self._direct: Optional[bool] = None

    @property
    def is_empty(self) -> bool:
        return self.edge_count == 0

    @property
    def num_fragments(self) -> int:
        return len(self.fragments)

    def _resolve_layout(self) -> None:
        if self._direct is not None:
            return
        if len(self.fragments) == 1 and self.fragments[0].deleted_count() == 0:
            self._direct = True
            return
        self._direct = False
        merged: List[Tuple[int, int, int, int]] = []
        for fragment_index, fragment in enumerate(self.fragments):
            # One batched timestamp/destination read per fragment, not
            # one random access per edge.
            timestamps = fragment.all_timestamps()
            destinations = fragment.all_destinations()
            for local in range(fragment.edge_count):
                if not fragment.deleted(local):
                    merged.append(
                        (
                            timestamps[local],
                            destinations[local],
                            fragment_index,
                            local,
                        )
                    )
        merged.sort()
        self._index = merged

    @property
    def edge_count(self) -> int:
        """Number of live edges across all fragments."""
        self._resolve_layout()
        if self._direct:
            return self.fragments[0].edge_count
        return len(self._index)

    def _locate(self, time_order: int) -> Tuple:
        self._resolve_layout()
        if self._direct:
            return (self.fragments[0], time_order)
        if not 0 <= time_order < len(self._index):
            raise IndexError(f"TimeOrder {time_order} out of range")
        _, _, fragment_index, local = self._index[time_order]
        return (self.fragments[fragment_index], local)

    def timestamp_at(self, time_order: int) -> int:
        """Timestamp of the live edge at ``time_order``."""
        fragment, local = self._locate(time_order)
        return fragment.timestamp_at(local)

    def destination_at(self, time_order: int) -> int:
        """Destination NodeID of the live edge at ``time_order``."""
        fragment, local = self._locate(time_order)
        return fragment.destination_at(local)

    def data_at(self, time_order: int, with_properties: bool = True) -> EdgeData:
        """The EdgeData triplet of the live edge at ``time_order``."""
        return self.data_range(time_order, time_order + 1, with_properties)[0]

    def data_range(
        self, begin: int, end: int, with_properties: bool = True
    ) -> List[EdgeData]:
        """EdgeData of the live edges at TimeOrders ``[begin, end)``.

        One range read per fragment the window touches: a fragment's
        share of the window is read from its first to its last wanted
        edge (deleted edges in between are read and dropped).
        """
        self._resolve_layout()
        if self._direct:
            return self.fragments[0].edge_data_range(begin, end, with_properties)
        if begin >= end:
            return []
        if begin < 0 or end > len(self._index):
            raise IndexError(
                f"TimeOrders [{begin}, {end}) out of range [0, {len(self._index)})"
            )
        window = self._index[begin:end]
        # Per fragment, its wanted local indices in ascending order (the
        # merged index is sorted and each fragment is time-ordered).
        wanted: Dict[int, List[int]] = {}
        for _, _, fragment_index, local in window:
            wanted.setdefault(fragment_index, []).append(local)
        decoded: Dict[Tuple[int, int], EdgeData] = {}
        for fragment_index, locals_ in wanted.items():
            first = locals_[0]
            read = self.fragments[fragment_index].edge_data_range(
                first, locals_[-1] + 1, with_properties
            )
            for local in locals_:
                decoded[(fragment_index, local)] = read[local - first]
        return [decoded[(entry[2], entry[3])] for entry in window]

    def time_range(
        self, t_low: Optional[int] = None, t_high: Optional[int] = None
    ) -> Tuple[int, int]:
        """TimeOrders ``[begin, end)`` with timestamp in ``[t_low, t_high)``."""
        self._resolve_layout()
        if self._direct:
            return self.fragments[0].time_range(t_low, t_high)
        timestamps = [entry[0] for entry in self._index]
        begin = 0 if t_low is None else bisect.bisect_left(timestamps, t_low)
        end = len(timestamps) if t_high is None else bisect.bisect_left(timestamps, t_high)
        return (begin, end)

    def destinations(self) -> List[int]:
        """All live destination IDs, in time order."""
        self._resolve_layout()
        if self._direct:
            return self.fragments[0].all_destinations()
        return [entry[1] for entry in self._index]


class ReplicaMark:
    """The last record a store holds from a master's replication log:
    the master's stream id and the record's LSN. Check, apply and
    advance run under one lock, so a resend that races the first apply
    waits for it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._last_stream = 0
        self._last_lsn = 0

    def apply_once(self, stream: int, lsn: int, apply: Callable[[], None]) -> bool:
        """Run ``apply`` unless record ``lsn`` of ``stream`` is at or
        below the mark; True if it ran."""
        with self._lock:
            if stream == self._last_stream and lsn <= self._last_lsn:
                return False
            apply()
            self._last_stream, self._last_lsn = stream, lsn
            return True

    def hold(self, stream: int, lsn: int) -> None:
        """Mark records up to ``lsn`` of ``stream`` as held: the master
        logged them on this very store."""
        with self._lock:
            self._last_stream, self._last_lsn = stream, lsn


class ZipG(GraphStoreInterface):
    """A single-logical-store ZipG instance (Table 1 API).

    Build one with :meth:`compress`. The TAO calls of §4.2
    (Algorithms 1-3) are methods here, written on the Table 1 API, so
    the store implements :class:`GraphStoreInterface` itself. The
    cluster layer (:mod:`repro.cluster`) places this store's shards on
    servers; all query logic lives here.
    """

    name = "zipg"

    def __init__(
        self,
        delimiters: DelimiterMap,
        shards: List[CompressedShard],
        alpha: int,
        logstore_threshold_bytes: int,
        encoding: str = "succinct",
    ) -> None:
        self._delimiters = delimiters
        self._num_initial = len(shards)
        self._shards = list(shards)
        self._pointer_tables = [UpdatePointerTable() for _ in shards]
        self._logstore = LogStore()
        self._alpha = alpha
        self._threshold = logstore_threshold_bytes
        # Flat-file codec new shards (LogStore freezes, compaction) are
        # built with; recorded in the v4 store manifest.
        self.encoding = encoding
        # How this store's shards arrived in memory ("memory" =
        # compressed in-process, "eager" / "mmap" = load_store modes)
        # and how many bytes are memory-mapped rather than resident.
        self.load_mode = "memory"
        self.mapped_bytes = 0
        # mmap keepalive: load_store(mode="mmap") parks its open maps
        # here because every shard holds zero-copy views into them.
        self._mmaps: List[object] = []
        self.executor = ShardExecutor()
        self.freeze_count = 0
        # Optional write-ahead log (repro.core.wal): attached by the
        # persistence layer; every mutation is logged before it is
        # applied so a crash loses at most the in-flight record.
        self._wal: Optional[object] = None
        # The records _wal_log collects while logged() runs.
        self._logged: Optional[List[Tuple[str, List]]] = None
        # Pointer hops actually followed by queries on this store (the
        # §3.5 fragmentation cost the per-layer breakdown attributes).
        self._pointer_hops = 0
        # Store-level epoch: bumped by every mutation (append, delete,
        # freeze, compaction -- WAL replay routes through the same
        # _apply_* methods). Every cache key embeds it.
        self.epoch = Epoch()
        # Optional hot-set cache (repro.perf); see enable_cache().
        self._cache: Optional[HotSetCache] = None
        # Erasure-coded fragment stores this process serves, keyed by
        # server id (repro.ec; attached by the cluster layer or the
        # serve-shard CLI).  The ec_fetch_fragment / ec_store_fragment
        # RPC ops resolve through this mapping; empty means this
        # process holds no fragments.
        self.ec_fragment_stores: Dict[int, object] = {}
        # Which master records this store already holds (see
        # apply_replicated_record).
        self.replica_mark = ReplicaMark()
        _publish_store_metrics(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def compress(
        cls: Type[_Store],
        graph: GraphData,
        num_shards: int = 4,
        alpha: int = 32,
        logstore_threshold_bytes: int = 1 << 20,
        extra_property_ids: Optional[Sequence[str]] = None,
        encoding: str = "succinct",
    ) -> _Store:
        """Compress ``graph`` into a ZipG store (the paper's
        ``g = compress(graph)``).

        Args:
            graph: the input property graph.
            num_shards: initial shard count (default one per core in
                the paper; a small constant here).
            alpha: Succinct sampling rate (space/latency knob).
            logstore_threshold_bytes: LogStore size that triggers a
                freeze into a new compressed shard.
            extra_property_ids: PropertyIDs that future appends may use
                but which do not occur in the initial graph (the
                delimiter map is immutable once built).
            encoding: flat-file codec for every shard (see
                :mod:`repro.succinct.encodings`; ``"succinct"`` is the
                paper's representation, ``"offsets"`` the Log(Graph)-
                style fixed-width ablation codec).
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        property_ids = set(graph.all_property_ids())
        if extra_property_ids:
            property_ids.update(extra_property_ids)
        delimiters = DelimiterMap(property_ids)

        node_parts: List[Dict[int, PropertyList]] = [dict() for _ in range(num_shards)]
        edge_parts: List[Dict[Tuple[int, int], List[Edge]]] = [
            dict() for _ in range(num_shards)
        ]
        for node_id in graph.node_ids():
            shard = _hash_partition(node_id, num_shards)
            node_parts[shard][node_id] = graph.node_properties(node_id)
            for edge_type in graph.edge_types_of(node_id):
                edge_parts[shard][(node_id, edge_type)] = graph.edges_of(
                    node_id, edge_type
                )
        shards = [
            CompressedShard(i, node_parts[i], edge_parts[i], delimiters,
                            alpha=alpha, encoding=encoding)
            for i in range(num_shards)
        ]
        return cls(delimiters, shards, alpha, logstore_threshold_bytes,
                   encoding=encoding)

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------

    @property
    def num_initial_shards(self) -> int:
        return self._num_initial

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> List[CompressedShard]:
        return list(self._shards)

    @property
    def logstore(self) -> LogStore:
        return self._logstore

    @property
    def delimiters(self) -> DelimiterMap:
        return self._delimiters

    # ------------------------------------------------------------------
    # Hot-set cache (repro.perf)
    # ------------------------------------------------------------------

    @property
    def cache(self) -> Optional[HotSetCache]:
        return self._cache

    def enable_cache(self, budget_bytes: int) -> HotSetCache:
        """Front four query results with a byte-budgeted hot-set cache.

        ``get_node_property``, ``get_neighbor_ids``, ``get_node_ids``
        and ``find_edges`` answer from one private :class:`HotSetCache`
        whose keys embed :attr:`epoch`, so every mutation invalidates in
        O(1). Nothing below this API is cached. The cache never holds
        more than ``budget_bytes``.

        Args:
            budget_bytes: total byte budget (a useful rule of thumb is
                <= 10% of :meth:`storage_footprint_bytes`).
        """
        self._cache = HotSetCache(budget_bytes)
        return self._cache

    def disable_cache(self) -> None:
        """Drop the cache; reads revert to the uncached paths
        (byte-identical behavior)."""
        self._cache = None

    def route(self, node_id: int) -> int:
        """Initial shard a NodeID hashes to (query entry point)."""
        return _hash_partition(node_id, self._num_initial)

    def _table(self, node_id: int) -> UpdatePointerTable:
        return self._pointer_tables[self.route(node_id)]

    def _node_locations_newest_first(self, node_id: int) -> List:
        """Stores that may hold property data for ``node_id``."""
        with obs.span("pointer.node_chase", layer="pointer"):
            shard_ids = self._table(node_id).node_shards(node_id)
        self._pointer_hops += len(shard_ids)
        locations: List = [self._shards[self.route(node_id)]]
        for shard_id in shard_ids:
            locations.append(
                self._logstore if shard_id == ACTIVE_LOGSTORE else self._shards[shard_id]
            )
        locations.reverse()  # home first + chronological pointers -> newest first
        return locations

    def _edge_locations(self, node_id: int, edge_type: EdgeTypeArg) -> List:
        """Stores that may hold edge fragments for (node, type)."""
        table = self._table(node_id)
        with obs.span("pointer.edge_chase", layer="pointer"):
            if edge_type == WILDCARD:
                shard_ids = table.all_edge_shards(node_id)
            else:
                shard_ids = table.edge_shards(node_id, int(edge_type))
        self._pointer_hops += len(shard_ids)
        locations: List = [self._shards[self.route(node_id)]]
        for shard_id in shard_ids:
            locations.append(
                self._logstore if shard_id == ACTIVE_LOGSTORE else self._shards[shard_id]
            )
        return locations

    # ------------------------------------------------------------------
    # Node queries (Table 1)
    # ------------------------------------------------------------------

    @obs.traced("graph_store.get_node_property", layer="graph_store")
    def get_node_property(
        self, node_id: int, property_ids: Union[str, Sequence[str]] = WILDCARD
    ) -> PropertyList:
        """Properties of ``node_id``: all of them (wildcard), one, or a
        subset. Raises :class:`NodeNotFound` if no live version exists."""
        if property_ids == WILDCARD:
            wanted = None
        elif isinstance(property_ids, str):
            wanted = [property_ids]
        else:
            wanted = list(property_ids)
        cache = self._cache
        if cache is None:
            return self._node_properties(node_id, wanted)
        key = self._node_key(node_id, wanted)
        # Callers own their PropertyList: hand out a copy so the cached
        # dict cannot be mutated behind the cache's back.
        return dict(
            cache.get_or_load(key, lambda: self._node_properties(node_id, wanted))
        )

    def _node_key(self, node_id: int, wanted: Optional[List[str]]) -> Tuple:
        """Cache key of ``get_node_property(node_id, wanted)``."""
        return ("gs.node", self.epoch.value, node_id,
                None if wanted is None else tuple(wanted))

    # zipg: span-free  (always runs under get_node_property's span)
    def _node_properties(
        self, node_id: int, wanted: Optional[List[str]]
    ) -> PropertyList:
        location = self._live_node_location(node_id)
        if location is None:
            raise NodeNotFound(node_id)
        return location.get_properties(node_id, wanted)

    def _live_node_location(self, node_id: int) -> Optional[object]:
        """The newest store holding a live version of ``node_id``, or
        None if there is none."""
        for location in self._node_locations_newest_first(node_id):
            if location.node_live(node_id):
                return location
        return None

    # zipg: span-free  (always runs under get_neighbor_ids's span)
    def _live_nodes_properties(
        self, node_ids: List[int], wanted: List[str]
    ) -> Dict[int, PropertyList]:
        """``get_node_property(node, wanted)`` of every live node among
        ``node_ids``; nodes without a live version are left out.

        Cache hits come from the ``gs.node`` keys. The misses are
        grouped by the store that holds their newest live version, and
        each group is read with one batched probe.
        """
        cache = self._cache
        found: Dict[int, PropertyList] = {}
        groups: Dict[object, List[int]] = {}
        for node_id in dict.fromkeys(node_ids):
            if cache is not None:
                hit, properties = cache.get(self._node_key(node_id, wanted))
                if hit:
                    found[node_id] = properties
                    continue
            location = self._live_node_location(node_id)
            if location is not None:
                groups.setdefault(location, []).append(node_id)
        for location, members in groups.items():
            batch = location.get_properties_batch(members, wanted)
            for node_id, properties in zip(members, batch):
                found[node_id] = properties
                if cache is not None:
                    cache.put(self._node_key(node_id, wanted), properties)
        return found

    @obs.traced("graph_store.has_node", layer="graph_store")
    def has_node(self, node_id: int) -> bool:
        """Whether a live version of ``node_id`` exists anywhere."""
        return self._live_node_location(node_id) is not None

    @obs.traced("graph_store.get_node_ids", layer="graph_store")
    def get_node_ids(self, property_list: PropertyList) -> List[int]:
        """NodeIDs whose properties match every pair in ``property_list``.

        The one query that must touch *all* shards (§4.1 footnote 5);
        the shard searches run one after another through the store's
        executor.
        """
        cache = self._cache
        if cache is None:
            return self._search_nodes(property_list)
        key = ("gs.nodeids", self.epoch.value, tuple(sorted(property_list.items())))
        return list(
            cache.get_or_load(key, lambda: self._search_nodes(property_list))
        )

    # zipg: span-free  (always runs under get_node_ids's span)
    def _search_nodes(self, property_list: PropertyList) -> List[int]:
        locations: List = [self._logstore] + self._shards
        return merge_node_hits(self.executor.map(
            lambda location: location.find_live_nodes(property_list), locations
        ))

    @obs.traced("graph_store.get_neighbor_ids", layer="graph_store")
    def get_neighbor_ids(
        self,
        node_id: int,
        edge_type: EdgeTypeArg = WILDCARD,
        property_list: Optional[PropertyList] = None,
    ) -> List[int]:
        """Destinations of ``node_id``'s edges of ``edge_type``,
        optionally filtered by destination-node properties.

        Implemented join-free (§2.2): fetch neighbors, then probe the
        neighbors' properties by random access -- one batched probe per
        store that holds some of them. The result keeps the neighbor
        order and duplicates.
        """
        cache = self._cache
        if cache is None:
            destinations = self.get_edge_record(node_id, edge_type).destinations()
        else:
            key = ("gs.nbr", self.epoch.value, node_id, edge_type)
            destinations = list(
                cache.get_or_load(
                    key,
                    lambda: self.get_edge_record(node_id, edge_type).destinations(),
                )
            )
        if not property_list:
            return destinations
        found = self._live_nodes_properties(destinations, list(property_list))
        return [
            destination
            for destination in destinations
            if destination in found
            and all(found[destination].get(k) == v for k, v in property_list.items())
        ]

    # ------------------------------------------------------------------
    # Edge queries (Table 1)
    # ------------------------------------------------------------------

    @obs.traced("graph_store.get_edge_record", layer="graph_store")
    def get_edge_record(self, node_id: int, edge_type: EdgeTypeArg = WILDCARD) -> EdgeRecord:
        """The merged EdgeRecord for (node, type) -- or for all types
        when ``edge_type`` is the wildcard."""
        fragments = []
        for location in self._edge_locations(node_id, edge_type):
            if edge_type == WILDCARD:
                fragments.extend(location.edge_fragments(node_id))
            else:
                fragment = location.edge_fragment(node_id, int(edge_type))
                if fragment is not None:
                    fragments.append(fragment)
        return EdgeRecord(node_id, edge_type, fragments)

    @obs.traced("graph_store.get_edge_range", layer="graph_store")
    def get_edge_range(
        self,
        record: EdgeRecord,
        t_low: Optional[int] = None,
        t_high: Optional[int] = None,
    ) -> Tuple[int, int]:
        """TimeOrder range of edges with timestamps in ``[t_low, t_high)``
        (wildcards via ``None``)."""
        return record.time_range(t_low, t_high)

    @obs.traced("graph_store.get_edge_data", layer="graph_store")
    def get_edge_data(
        self, record: EdgeRecord, time_order: int, with_properties: bool = True
    ) -> EdgeData:
        """The (destination, timestamp, PropertyList) triplet at
        ``time_order`` within ``record``."""
        return record.data_at(time_order, with_properties)

    @obs.traced("graph_store.get_edge_data_range", layer="graph_store")
    def get_edge_data_range(
        self,
        record: EdgeRecord,
        begin: int,
        end: int,
        with_properties: bool = True,
    ) -> List[EdgeData]:
        """The triplets at TimeOrders ``[begin, end)`` within ``record``
        -- equal to ``get_edge_data`` over each index, read as one
        batched range per fragment."""
        return record.data_range(begin, end, with_properties)

    # ------------------------------------------------------------------
    # TAO calls on the Table 1 API (§4.2, Algorithms 1-3)
    # ------------------------------------------------------------------

    @obs.traced("graph_store.edge_count", layer="graph_store")
    def edge_count(self, node_id: int, edge_type: int) -> int:
        """TAO ``assoc_count``: the EdgeCount metadata of the record."""
        return self.get_edge_record(node_id, edge_type).edge_count

    @obs.traced("graph_store.edges_from_index", layer="graph_store")
    def edges_from_index(
        self,
        node_id: int,
        edge_type: int,
        start_index: int,
        limit: Optional[int],
        with_properties: bool = True,
    ) -> List[EdgeData]:
        """Algorithm 1, ``assoc_range(id, atype, idx, limit)``: up to
        ``limit`` edges by TimeOrder from ``start_index``."""
        record = self.get_edge_record(node_id, edge_type)
        end = record.edge_count if limit is None else min(record.edge_count, start_index + limit)
        return self.get_edge_data_range(record, start_index, end, with_properties)

    @obs.traced("graph_store.assoc_get", layer="graph_store")
    def assoc_get(
        self,
        node_id: int,
        edge_type: int,
        id2_set: Set[int],
        t_low: Optional[int],
        t_high: Optional[int],
    ) -> List[EdgeData]:
        """Algorithm 2, ``assoc_get(id1, atype, id2set, hi, lo)``: the
        window's edges to ``id2_set``. Its destinations come from one
        range read; properties are fetched only for the edges that
        match."""
        record = self.get_edge_record(node_id, edge_type)
        begin, end = self.get_edge_range(record, t_low, t_high)
        window = self.get_edge_data_range(record, begin, end, with_properties=False)
        return [
            self.get_edge_data(record, begin + offset)
            for offset, entry in enumerate(window)
            if entry.destination in id2_set
        ]

    @obs.traced("graph_store.edges_in_time_range", layer="graph_store")
    def edges_in_time_range(
        self,
        node_id: int,
        edge_type: int,
        t_low: Optional[int],
        t_high: Optional[int],
        limit: Optional[int] = None,
        with_properties: bool = True,
    ) -> List[EdgeData]:
        """Algorithm 3, ``assoc_time_range(id, atype, lo, hi, limit)``:
        edges with timestamps in ``[t_low, t_high)`` (wildcards via
        ``None``), at most ``limit`` of them."""
        record = self.get_edge_record(node_id, edge_type)
        begin, end = self.get_edge_range(record, t_low, t_high)
        if limit is not None:
            end = min(end, begin + limit)
        return self.get_edge_data_range(record, begin, end, with_properties)

    @obs.traced("graph_store.find_edges", layer="graph_store")
    def find_edges(
        self, property_id: str, value: str
    ) -> List[Tuple[int, int, EdgeData]]:
        """All live edges whose PropertyList has ``property_id == value``
        (the §3.3 edge-property-search extension; like ``get_node_ids``
        it touches every shard plus the LogStore).

        Returns ``(source, edge_type, EdgeData)`` triples sorted by
        (source, edge_type, timestamp, destination).
        """
        cache = self._cache
        if cache is None:
            return self._search_edges(property_id, value)
        key = ("gs.edges", self.epoch.value, property_id, value)
        return list(
            cache.get_or_load(
                key, lambda: self._search_edges(property_id, value)
            )
        )

    # zipg: span-free  (always runs under find_edges's span)
    def _search_edges(
        self, property_id: str, value: str
    ) -> List[Tuple[int, int, EdgeData]]:
        locations: List = self._shards + [self._logstore]
        return merge_edge_hits(self.executor.map(
            lambda location: location.find_edges_by_property(property_id, value),
            locations,
        ))

    # ------------------------------------------------------------------
    # Updates (Table 1)
    # ------------------------------------------------------------------

    def attach_wal(self, wal: object) -> None:
        """Attach a :class:`repro.core.wal.WriteAheadLog`: from now on
        every mutation is durably logged before it is applied."""
        self._wal = wal

    @property
    def wal(self) -> Optional[object]:
        return self._wal

    def _wal_log(self, op: str, args: List) -> None:
        if self._logged is not None:
            self._logged.append((op, args))
        if self._wal is not None:
            self._wal.append_record(op, args)  # type: ignore[attr-defined]

    def logged(self, write: Callable[[], _T]) -> Tuple[_T, List[Tuple[str, List]]]:
        """Run ``write`` (update-API calls on this store) and return its
        result with the ``(op, args)`` records it logged -- auto-freezes
        included -- for a replicated cluster to ship."""
        records: List[Tuple[str, List]] = []
        self._logged = records
        try:
            result = write()
        finally:
            self._logged = None
        return result, records

    @obs.traced("graph_store.append_node", layer="graph_store")
    def append_node(self, node_id: int, properties: PropertyList) -> None:
        """Append a (new version of a) node with its PropertyList.

        A PropertyList the next freeze could not serialize raises
        :class:`GraphFormatError` before anything is logged or applied."""
        properties = dict(properties)
        self._delimiters.check_properties(properties)
        self._wal_log("node", [node_id, properties])
        self._apply_append_node(node_id, properties)
        self._maybe_freeze()

    def _apply_append_node(self, node_id: int, properties: PropertyList) -> None:
        self.epoch.bump()
        self._logstore.append_node(node_id, properties)
        self._table(node_id).add_node_pointer(node_id, ACTIVE_LOGSTORE)

    @obs.traced("graph_store.append_edge", layer="graph_store")
    def append_edge(
        self,
        source: int,
        edge_type: int,
        destination: int,
        timestamp: int = 0,
        properties: Optional[PropertyList] = None,
    ) -> None:
        """Append one edge to the (source, edge_type) EdgeRecord
        (a bad PropertyList raises as in :meth:`append_node`)."""
        properties = dict(properties or {})
        self._delimiters.check_properties(properties)
        self._wal_log("edge", [source, edge_type, destination, timestamp, properties])
        self._apply_append_edge(source, edge_type, destination, timestamp, properties)
        self._maybe_freeze()

    def _apply_append_edge(
        self,
        source: int,
        edge_type: int,
        destination: int,
        timestamp: int,
        properties: PropertyList,
    ) -> None:
        self.epoch.bump()
        self._logstore.append_edge(
            Edge(source, destination, edge_type, timestamp, dict(properties))
        )
        self._table(source).add_edge_pointer(source, edge_type, ACTIVE_LOGSTORE)

    @obs.traced("graph_store.delete_node", layer="graph_store")
    def delete_node(self, node_id: int) -> bool:
        """Lazily delete every live version of ``node_id``."""
        self._wal_log("del_node", [node_id])
        return self._apply_delete_node(node_id)

    def _apply_delete_node(self, node_id: int) -> bool:
        self.epoch.bump()
        deleted = False
        for location in self._node_locations_newest_first(node_id):
            deleted = location.delete_node(node_id) or deleted
        return deleted

    @obs.traced("graph_store.delete_edge", layer="graph_store")
    def delete_edge(self, source: int, edge_type: int, destination: int) -> int:
        """Lazily delete all (source, edge_type, destination) edges.

        LogStore edge deletes are *physical*; if they emptied the
        (source, edge_type) bucket, the ACTIVE_LOGSTORE pointer is
        pruned so queries stop routing to a store that holds nothing
        (and ``node_fragment_count`` stops overcounting).
        """
        self._wal_log("del_edge", [source, edge_type, destination])
        return self._apply_delete_edge(source, edge_type, destination)

    def _apply_delete_edge(self, source: int, edge_type: int, destination: int) -> int:
        self.epoch.bump()
        deleted = 0
        for location in self._edge_locations(source, edge_type):
            deleted += location.delete_edges(source, edge_type, destination)
        if not self._logstore.has_edge_bucket(source, edge_type):
            self._table(source).remove_edge_pointer(
                source, edge_type, ACTIVE_LOGSTORE
            )
        return deleted

    def apply_wal_record(self, op: str, args: List) -> None:
        """Apply one replayed WAL record (recovery path).

        Replay bypasses WAL logging and the freeze threshold: freezes
        replay *only* where a ``freeze`` record appears, which is where
        they actually happened (auto-freezes logged one too)."""
        if op == "node":
            node_id, properties = args
            self._apply_append_node(int(node_id), dict(properties))
        elif op == "edge":
            source, edge_type, destination, timestamp, properties = args
            self._apply_append_edge(int(source), int(edge_type), int(destination),
                                    int(timestamp), dict(properties))
        elif op == "del_node":
            self._apply_delete_node(int(args[0]))
        elif op == "del_edge":
            source, edge_type, destination = args
            self._apply_delete_edge(int(source), int(edge_type), int(destination))
        elif op == "freeze":
            self._apply_freeze()
        elif op == "compact":
            self._apply_compact()
        else:
            raise RecoveryError(f"unknown WAL record op {op!r}")

    def apply_replicated_record(
        self, stream: int, lsn: int, op: str, args: List
    ) -> bool:
        """Apply record ``lsn`` of master ``stream``'s replication log
        once; True if it was applied now.

        A record at or below the last LSN held from the same stream is
        skipped: its ack was lost and catch-up resent it (possibly while
        the first apply still runs, hence the lock), or this is the
        master's own store, which holds what it logged
        (:meth:`ReplicaMark.hold`). A new stream (a restarted master
        numbers its writes from 1 again) starts a new mark."""
        return self.replica_mark.apply_once(
            stream, lsn, lambda: self.apply_wal_record(op, args)
        )

    @obs.traced("graph_store.update_node", layer="graph_store")
    def update_node(self, node_id: int, properties: PropertyList) -> None:
        """Update = delete followed by append (§2.2)."""
        self.delete_node(node_id)
        self.append_node(node_id, properties)

    @obs.traced("graph_store.update_edge", layer="graph_store")
    def update_edge(
        self,
        source: int,
        edge_type: int,
        destination: int,
        timestamp: int = 0,
        properties: Optional[PropertyList] = None,
    ) -> None:
        """Update an edge: delete then append (§2.2)."""
        self.delete_edge(source, edge_type, destination)
        self.append_edge(source, edge_type, destination, timestamp, properties)

    # ------------------------------------------------------------------
    # LogStore freeze (fanned updates, §3.5)
    # ------------------------------------------------------------------

    def _maybe_freeze(self) -> None:
        if self._logstore.size_bytes() >= self._threshold:
            self.freeze_logstore()

    def freeze_logstore(self) -> Optional[CompressedShard]:
        """Compress the active LogStore into a new immutable shard and
        promote its ACTIVE pointers to the new shard id.

        Pointers still marked ACTIVE after promotion refer to data that
        did not survive the freeze (physically deleted edge buckets,
        tombstoned nodes); they are dropped rather than left dangling at
        the fresh, empty LogStore.
        """
        self._wal_log("freeze", [])
        return self._apply_freeze()

    def _apply_freeze(self) -> Optional[CompressedShard]:
        self.epoch.bump()
        nodes, edges = self._logstore.live_contents()
        new_shard: Optional[CompressedShard] = None
        if nodes or edges:
            shard_id = len(self._shards)
            new_shard = CompressedShard(
                shard_id, nodes, edges, self._delimiters, alpha=self._alpha,
                encoding=self.encoding,
            )
            self._shards.append(new_shard)
            for node_id in nodes:
                self._table(node_id).promote_node_active(node_id, shard_id)
            for (source, edge_type) in edges:
                self._table(source).promote_edge_active(source, edge_type, shard_id)
        for table in self._pointer_tables:
            table.drop_active()
        # The fresh LogStore keeps the old one's meter, so the store's
        # access counters never go backwards at a freeze.
        self._logstore = LogStore(stats=self._logstore.stats)
        self.freeze_count += 1
        return new_shard

    # ------------------------------------------------------------------
    # Garbage collection (§4.1: the compressed structures are immutable
    # "except periodic garbage collection")
    # ------------------------------------------------------------------

    def compact_frozen_shards(self) -> int:
        """Merge every post-initial (frozen) shard into one, physically
        dropping lazily-deleted data and collapsing fragmentation.

        Node versions collapse to the newest live one; update pointers
        are rewritten so each node needs at most one frozen-shard hop
        afterwards. Returns the number of shards reclaimed.
        """
        self._wal_log("compact", [])
        return self._apply_compact()

    def _apply_compact(self) -> int:
        self.epoch.bump()
        frozen = self._shards[self._num_initial :]
        if not frozen:
            return 0
        merged_nodes: Dict[int, PropertyList] = {}
        merged_edges: Dict[Tuple[int, int], List[Edge]] = {}
        for shard in frozen:  # chronological: later shards hold newer versions
            nodes, edges = shard.live_contents()
            merged_nodes.update(nodes)
            for key, bucket in edges.items():
                merged_edges.setdefault(key, []).extend(bucket)

        new_shard_id = self._num_initial
        new_shards = self._shards[: self._num_initial]
        # The dropped shards' meters fold into whatever survives them,
        # so the store's access counters never go backwards here either.
        heir = self._logstore.stats
        if merged_nodes or merged_edges:
            merged_shard = CompressedShard(
                new_shard_id, merged_nodes, merged_edges, self._delimiters,
                alpha=self._alpha, encoding=self.encoding,
            )
            new_shards.append(merged_shard)
            heir = merged_shard.stats
        for shard in frozen:
            heir.merge(shard.stats)
        reclaimed = len(self._shards) - len(new_shards)
        self._shards = new_shards

        def rewrite(shard_ids: List[int], present: bool) -> List[int]:
            rewritten: List[int] = []
            for shard_id in shard_ids:
                if shard_id == ACTIVE_LOGSTORE:
                    rewritten.append(ACTIVE_LOGSTORE)
                elif shard_id >= self._num_initial:
                    if present and new_shard_id not in rewritten:
                        rewritten.append(new_shard_id)
                elif shard_id not in rewritten:
                    rewritten.append(shard_id)
            return rewritten

        for table in self._pointer_tables:
            table.remap(
                lambda node_id, shards: rewrite(shards, node_id in merged_nodes),
                lambda key, shards: rewrite(shards, key in merged_edges),
            )
        return reclaimed

    # ------------------------------------------------------------------
    # Introspection: fragmentation, footprint, stats
    # ------------------------------------------------------------------

    def node_fragment_count(self, node_id: int) -> int:
        """Number of shards (incl. the active LogStore) the node's data
        currently spans -- Appendix A's fragmentation metric."""
        pointer_fragments = self._table(node_id).fragment_count(node_id)
        home = self._shards[self.route(node_id)]
        home_has_data = home.has_node(node_id)
        return pointer_fragments + (1 if home_has_data else 0)

    def storage_footprint_bytes(self) -> int:
        """Total memory footprint of the store's representation."""
        total = sum(shard.serialized_size_bytes() for shard in self._shards)
        total += sum(table.serialized_size_bytes() for table in self._pointer_tables)
        total += self._logstore.serialized_size_bytes()
        total += self._delimiters.serialized_size_bytes()
        return total

    def aggregate_stats(self) -> AccessStats:
        """Merged access counters across every shard and the LogStore."""
        merged = AccessStats()
        for shard in self._shards:
            merged.merge(shard.stats)
        merged.merge(self._logstore.stats)
        return merged

    def reset_stats(self) -> None:
        """Zero every shard's and the LogStore's access counters."""
        for shard in self._shards:
            shard.stats.reset()
        self._logstore.stats.reset()

    def snapshot_metrics(self) -> Dict[str, Dict]:
        """Machine-readable metrics snapshot for the bench harness.

        All values are monotone counters, so two snapshots bracketing a
        workload can be diffed field-by-field. ``time_us`` fields are
        zero unless tracing was enabled for the interval (span wall time
        is only measured when spans record).
        """
        access = self.aggregate_stats()
        layer_times = obs.get_tracer().layer_breakdown()

        def _time_us(*layers: str) -> float:
            return sum(layer_times.get(layer, {}).get("time_us", 0.0)
                       for layer in layers)

        logstore_stats = self._logstore.stats.snapshot()
        return {
            "access": access.to_metrics(),
            "layers": {
                "succinct": {
                    "ops": float(access.total_touches
                                 - logstore_stats.total_touches),
                    "npa_hops": float(access.npa_hops),
                    "time_us": _time_us(
                        "succinct", "shard", "nodefile", "edgefile"
                    ),
                },
                "logstore": {
                    "ops": float(logstore_stats.total_touches),
                    "time_us": _time_us("logstore"),
                },
                "pointer": {
                    "ops": float(self._pointer_hops),
                    "time_us": _time_us("pointer"),
                },
                "graph_store": {
                    "time_us": _time_us("graph_store", "other"),
                },
            },
            "storage": {
                "load_mode": self.load_mode,
                "encoding": self.encoding,
                "mmap_bytes": float(self.mapped_bytes),
            },
        }

"""Replication-based fault tolerance and load balancing (§4.1).

"ZipG currently uses traditional replication-based techniques for
fault tolerance; an application can specify the desired number of
replicas per shard. Queries are load balanced evenly across multiple
replicas."

Each shard is placed on ``replication_factor`` consecutive servers.
A server is *live* when it is neither down nor replaying a missed
oplog tail.  Every per-server read goes through one failover loop
(:meth:`ReplicatedZipGCluster._failover`); callers differ only in the
ordered candidate servers they hand it:

* a shard unit: its live replicas, starting at this read's rotation
  slot (:meth:`ReplicatedZipGCluster.call_on_shard`);
* the LogStore unit (:data:`LOGSTORE_UNIT`, unreplicated, §3.5): its
  server if live -- while that server is down *or catching up* the
  unit is :class:`ShardUnavailable`;
* ``get_node_property``: the owning shard's live replicas.

Each attempt passes the ``replication.replica_call`` chaos site.  A
call that raises fails over to the next candidate
(``zipg_replica_failovers_total``); no candidate is
:class:`ShardUnavailable`, every candidate failing is
:class:`~repro.core.errors.ReplicaCallError` with the
``(server, exception)`` attempts.  ``NodeNotFound`` is an answer, not
a failure: reads only reach caught-up servers, so the first one's miss
is re-raised as is.  This loop is the one place a shard call is
retried: a broadcast unit whose candidates all failed gets up to
``retries`` more passes, each over the live servers at that moment;
point reads make one pass.  The broadcast queries (``get_node_ids`` /
``find_edges``) accept ``partial_results=True`` and then return a
:class:`PartialResult`: the merged value from the units that answered
plus one :class:`ShardError` per unit that did not.

Per-server operations dispatch through ``self.transport`` (in-process
by default, or shard-server processes over sockets); transport
failures surface as retryable
:class:`~repro.core.errors.TransportError`\\ s, so both behave alike.

Writes replicate: each record the local store logged for a mutation
(:meth:`ZipG.logged`) gets the next cluster LSN and ships to every live
server as an ``apply_write`` RPC tagged with this cluster's random
stream id.  Servers dedupe by (stream, LSN) -- the local store is marked
as holding the records first -- so a resend, or a server fronting the
master's own store, applies nothing twice.  The oplog keeps only what
some server has not acknowledged; only catch-up reads it.
:meth:`ReplicatedZipGCluster.recover_server` holds a returning server
out of rotation (``catching_up_servers``) until its missed tail is
replayed; a failed replay sends it back to down.  Rotation,
down-server, and catch-up state share one lock; writes and catch-up
serialize on a write lock taken *before* it.

**Erasure-coded placement** (``placement="ec"``, :mod:`repro.ec`):
each immutable snapshot file is split into ``k`` data + ``m`` parity
fragments spread round-robin across the servers instead of whole-shard
copies (the hot oplog tail stays fully replicated).  A shard unit
routes to its single owning server; when that fails, the cluster
reconstructs the shard from any ``k`` surviving fragments
(``zipg_ec_reconstructions_total``, ``ec.decode`` span) once, shares
the live shard's deletion bitmap with it, and answers *completely*.  The
pointer tables and hot tail live on every server, so the LogStore unit
and ``get_node_property`` list every other live server after their
owners.  Recovery is the same catch-up, then a rate-limited
*background* rebuild of the server's missing fragments (``ec.rebuild``
chaos site), a top-up replay, and only then re-admission.  Lock order:
``_write_lock`` or ``_ec_lock`` before ``_state_lock``.
"""
# zipg: query-api

from __future__ import annotations

import secrets
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import chaos, obs
from repro.core.errors import (
    FragmentCorruptError, NodeNotFound, ReconstructionFailed, ReplicaCallError,
)
from repro.core.graph_store import ZipG, merge_edge_hits, merge_node_hits
from repro.core.interface import GraphStoreInterface
from repro.core.logstore import LOGSTORE_UNIT
from repro.core.model import PropertyList
from repro.core.shard import CompressedShard
from repro.ec import ErasureCodedSnapshots
from repro.perf.coalesce import SingleFlight


def _count_shared_fanout() -> None:
    obs.counter(
        "zipg_executor_coalesced_fanouts_total",
        help="fan-outs that joined an identical in-flight fan-out",
    ).inc()


def _catching_up_gauge():
    return obs.gauge(
        "zipg_replicas_catching_up",
        help="recovered replicas still replaying missed writes",
    )


def _on_store(name: str) -> Callable:
    """A method that runs the store's method ``name``."""
    def forward(self, *args, **kwargs):
        return getattr(self.store, name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    return forward


class ShardUnavailable(RuntimeError):
    """No live server can answer for a required unit (a shard or the
    LogStore): every one is down or catching up."""


@dataclass
class ShardError:
    """One shard's structured failure inside a degraded query."""

    shard_id: int
    error: BaseException
    servers_tried: List[int] = field(default_factory=list)


@dataclass
class PartialResult:
    """Outcome of a ``partial_results=True`` broadcast query."""

    value: object
    errors: List[ShardError]
    attempted: int

    @property
    def complete(self) -> bool:
        return not self.errors


class ReplicatedZipGCluster(GraphStoreInterface):
    """The serving ZipG cluster: the store's shards placed on servers,
    with per-shard replication.

    Args:
        store: the logical ZipG store.
        num_servers: cluster size (>= 1).
        replication_factor: replicas per shard (the paper's app-chosen
            knob). Must not exceed ``num_servers``.
        retries: extra :meth:`_failover` passes a broadcast unit makes
            over its live candidates after every one of them failed
            (point reads make one pass).
        placement: ``"replication"`` (whole-shard copies, the paper's
            scheme) or ``"ec"`` (erasure-coded snapshot fragments;
            forces ``replication_factor`` to 1 -- redundancy comes
            from parity, not copies).
        ec_snapshots: the encoded snapshot handle
            (:class:`repro.ec.ErasureCodedSnapshots`); required with
            ``placement="ec"``.  Its shard files must hold the store's
            shards (a reconstruction takes the live deletion bitmap).
        rebuild_rate_bytes_s: throttle for the background fragment
            rebuild (None = unthrottled).
    """

    name = "zipg"

    def __init__(self, store: ZipG, num_servers: int,
                 replication_factor: int = 2, retries: int = 0,
                 placement: str = "replication",
                 ec_snapshots: Optional[ErasureCodedSnapshots] = None,
                 rebuild_rate_bytes_s: Optional[float] = None):
        if num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        if placement not in ("replication", "ec"):
            raise ValueError(f"unknown placement {placement!r}")
        if placement == "ec":
            if ec_snapshots is None:
                raise ValueError("placement='ec' requires ec_snapshots")
            # Fragments are the redundancy; each shard serves from its
            # one owning server and loss is covered by reconstruction.
            replication_factor = 1
        elif ec_snapshots is not None:
            raise ValueError("ec_snapshots is only valid with placement='ec'")
        if not 1 <= replication_factor <= num_servers:
            raise ValueError("replication_factor must be in [1, num_servers]")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.store = store
        self.num_servers = num_servers
        # Per-server dispatch seam; None until the `transport` property
        # materializes the in-process default.
        self._transport = None
        self.placement = placement
        self.replication_factor = replication_factor
        self.retries = retries
        self.rebuild_rate_bytes_s = rebuild_rate_bytes_s
        self._ec = ec_snapshots
        # Reconstructed shards, decoded once: shard_id -> shard.
        self._ec_lock = threading.Lock()
        self._ec_shards: Dict[int, CompressedShard] = {}
        self._rebuild_threads: Dict[int, threading.Thread] = {}
        self._rebuild_errors: Dict[int, BaseException] = {}
        if self._ec is not None and not store.ec_fragment_stores:
            # In-process deployment: this process fronts every server's
            # fragment directory.  Socket shard servers attach only
            # their own (see `repro serve-shard --ec-dir`).
            store.ec_fragment_stores = dict(self._ec.fragment_stores())
        self._state_lock = threading.Lock()
        self._down: Set[int] = set()
        self._rotation: Dict[int, int] = {}
        # Replicated-write state: this cluster's stream id (servers
        # dedupe records per stream), a monotone cluster LSN, the
        # (lsn, op, args) records some server has not acknowledged,
        # what each server has acknowledged, and which servers are
        # replaying a missed tail (held out of read rotation). Lock
        # order: _write_lock before _state_lock, never the reverse.
        self._write_lock = threading.Lock()
        self._stream = secrets.randbits(62)
        self._commit_lsn = 0
        self._oplog: deque = deque()
        self._applied_lsn: Dict[int, int] = {
            server: 0 for server in range(num_servers)
        }
        self._catching_up: Set[int] = set()
        # Identical concurrent broadcasts share one fan-out.
        self._broadcast_flights = SingleFlight()

    # ------------------------------------------------------------------
    # Dispatch and placement
    # ------------------------------------------------------------------

    @property
    def transport(self):
        """The :class:`~repro.server.transport.Transport` every
        per-server operation dispatches through.

        Defaults to an in-process backend resolving against the local
        store; assign a :class:`~repro.server.transport.SocketTransport`
        to route the same calls to real shard-server processes.
        Created lazily -- and imported lazily, because the server
        package imports cluster types for its wire codec."""
        if self._transport is None:
            from repro.server.transport import InProcessTransport

            self._transport = InProcessTransport(self.store)
        return self._transport

    @transport.setter
    def transport(self, transport) -> None:
        self._transport = transport

    @property
    def logstore_server(self) -> int:
        """The dedicated LogStore server (§3.5); server 0 here."""
        return 0

    def replica_servers(self, shard_id: int) -> List[int]:
        """Servers holding a replica of ``shard_id`` (primary first)."""
        primary = shard_id % self.num_servers
        return [
            (primary + offset) % self.num_servers
            for offset in range(self.replication_factor)
        ]

    def _live_locked(self, servers: Iterable[int]) -> List[int]:
        """``servers``, in order, that reads and writes may reach: not
        down, not replaying a missed tail.  Caller holds
        ``_state_lock``."""
        down, catching_up = self._down, self._catching_up
        return [s for s in servers if s not in down and s not in catching_up]

    def live_replicas(self, shard_id: int) -> List[int]:
        """Replicas reads may route to: not down, not mid-catch-up."""
        with self._state_lock:
            return self._live_locked(self.replica_servers(shard_id))

    def server_of_shard(self, shard_id: int) -> int:
        """Round-robin read routing over the shard's live replicas."""
        live = self._route(shard_id, self.replica_servers(shard_id))
        if not live:
            raise ShardUnavailable(f"no live replica for shard {shard_id}")
        return live[0]

    def _route(self, unit: int, owners: Sequence[int],
               spill: bool = False) -> List[int]:
        """The servers one call on ``unit`` tries, in order: the live
        ``owners`` starting at this call's rotation turn, then -- with
        ``spill`` -- every other live server.  One atomic snapshot of
        the live set."""
        with self._state_lock:
            live = self._live_locked(owners)
            turn = self._rotation.get(unit, 0)
            self._rotation[unit] = turn + 1
            rest = self._live_locked(
                s for s in range(self.num_servers) if s not in owners
            ) if spill else []
        if len(live) > 1:
            turn %= len(live)
            live = live[turn:] + live[:turn]
        return live + rest

    def _failover(self, unit: int, candidates: List[int],
                  fn: Callable[[int], object]) -> object:
        """Run ``fn(server)`` on the first candidate that answers.

        Each attempt kicks the ``replication.replica_call`` chaos site;
        a raising candidate fails over to the next one
        (``zipg_replica_failovers_total``).  No candidate at all is
        :class:`ShardUnavailable`; every candidate failing is
        :class:`ReplicaCallError` with the ``(server, exception)``
        attempts.  :class:`NodeNotFound` is an answer -- candidates are
        caught up, so the first one's miss is authoritative."""
        if not candidates:
            what = "the logstore" if unit == LOGSTORE_UNIT else f"shard {unit}"
            raise ShardUnavailable(f"no live replica for {what}")
        attempts: List[Tuple[int, BaseException]] = []
        for server in candidates:
            if attempts:
                obs.counter(
                    "zipg_replica_failovers_total",
                    help="replica calls retried on the next live replica",
                ).inc()
            try:
                chaos.kick(chaos.SITE_REPLICA_CALL, shard=unit, server=server)
                return fn(server)
            except NodeNotFound:
                raise
            except Exception as exc:
                attempts.append((server, exc))
        raise ReplicaCallError(unit, attempts)

    # ------------------------------------------------------------------
    # Failures and re-admission
    # ------------------------------------------------------------------

    def fail_server(self, server_id: int) -> None:
        """Mark a server down; its shards fail over to surviving replicas."""
        if not 0 <= server_id < self.num_servers:
            raise IndexError(f"server {server_id} out of range")
        with self._state_lock:
            self._down.add(server_id)

    def recover_server(self, server_id: int) -> None:
        """Re-admit a server to read rotation -- after catch-up.

        The server is held out of rotation (``catching_up_servers``,
        and the catching-up gauge) while its missed oplog tail is
        replayed (``apply_write`` RPCs through the transport), so no
        read reaches a replica missing acknowledged writes.  Holding
        the write lock freezes the commit LSN, so "caught up" is
        exact.  A server whose replay fails goes back to down.

        Under ``placement="ec"`` the replay is followed by a
        rate-limited *background* rebuild of the server's missing
        fragments (``ec_store_fragment``), a top-up replay of the
        writes made meanwhile, and only then re-admission -- see
        :meth:`wait_for_rebuild`."""
        if not 0 <= server_id < self.num_servers:
            raise IndexError(f"server {server_id} out of range")
        with self._write_lock:
            with self._state_lock:
                if (server_id not in self._down
                        or server_id in self._rebuild_threads):
                    return
                self._down.discard(server_id)
                if (self._ec is None and self._applied_lsn.get(server_id, 0)
                        >= self._commit_lsn):
                    return  # missed nothing: straight back into rotation
                self._catching_up.add(server_id)
                self._rebuild_errors.pop(server_id, None)
            _catching_up_gauge().inc()
            caught_up = self._catch_up_locked(server_id, admit=self._ec is None)
            if self._ec is None or not caught_up:
                return
            thread = threading.Thread(
                target=self._rebuild_and_admit, args=(server_id,),
                name=f"zipg-ec-rebuild-{server_id}", daemon=True,
            )
            with self._state_lock:
                self._rebuild_threads[server_id] = thread
        thread.start()

    def _catch_up_locked(self, server_id: int, admit: bool) -> bool:
        """Replay the held-out server's missed tail (caller holds
        ``_write_lock``); on success re-admit it if ``admit``, on
        failure send it back to down.  True if the replay succeeded."""
        try:
            self._replay_tail_locked(server_id)
        except Exception as exc:
            # Still unreachable / mid-crash: back to down rather than
            # serving reads from a stale replica.
            obs.counter(
                "zipg_replica_catchup_failures_total",
                help="recover_server catch-ups that could not replay",
            ).inc()
            self._end_catch_up(server_id, exc)
            return False
        if admit:
            self._end_catch_up(server_id, None)
        return True

    def _end_catch_up(self, server_id: int,
                      error: Optional[BaseException]) -> None:
        """Release the hold-out: re-admit, or (``error``) mark down
        and record why (a later ``recover_server`` retries)."""
        with self._state_lock:
            self._catching_up.discard(server_id)
            self._rebuild_threads.pop(server_id, None)
            if error is not None:
                self._down.add(server_id)
                self._rebuild_errors[server_id] = error
        _catching_up_gauge().inc(-1)

    def _replay_tail_locked(self, server_id: int) -> None:
        """Ship every oplog record past the server's applied LSN."""
        applied = self._applied_lsn.get(server_id, 0)
        for lsn, op, args in self._oplog:
            if lsn <= applied:
                continue
            self.transport.call(server_id, "apply_write", [lsn, op, args],
                                kwargs={"stream": self._stream})
            self._applied_lsn[server_id] = lsn
        self._trim_oplog_locked()

    def _trim_oplog_locked(self) -> None:
        """Drop the records every server has acknowledged."""
        acknowledged = min(self._applied_lsn.values())
        while self._oplog and self._oplog[0][0] <= acknowledged:
            self._oplog.popleft()

    def _rebuild_and_admit(self, server_id: int) -> None:
        """Background half of ec recovery: rebuild the server's
        fragments, then catch up on the writes made meanwhile and
        re-admit.  A rebuild failure -- including a
        :class:`~repro.chaos.SimulatedCrash` from the ``ec.rebuild``
        site -- sends the server back to down."""
        try:
            self._rebuild_fragments(server_id)
        except BaseException as exc:  # SimulatedCrash is a BaseException
            obs.counter(
                "zipg_ec_rebuild_failures_total",
                help="background fragment rebuilds that died mid-flight",
                labels={"server": str(server_id)},
            ).inc()
            self._end_catch_up(server_id, exc)
            return
        with self._write_lock:
            admitted = self._catch_up_locked(server_id, admit=True)
        if admitted:
            # Healthy topology again: reconstructed stand-ins are no
            # longer needed (and would pin memory).
            with self._ec_lock:
                self._ec_shards.clear()

    # ------------------------------------------------------------------
    # Erasure-coded placement: degraded reads + background rebuild
    # ------------------------------------------------------------------

    def _ec_skip_servers(self) -> Tuple[int, ...]:
        """Servers reconstruction must not use as fragment sources."""
        with self._state_lock:
            live = self._live_locked(range(self.num_servers))
        return tuple(s for s in range(self.num_servers) if s not in live)

    def _ec_fetch(self, server: int, name: str, index: int) -> bytes:
        """Fetch one fragment over the transport (degraded reads pull
        from whichever servers still answer)."""
        data = self.transport.call(
            server, "ec_fetch_fragment", [server, name, index]
        )
        if not isinstance(data, (bytes, bytearray)):
            raise FragmentCorruptError(
                f"server {server} returned {type(data).__name__} for "
                f"fragment {name!r}[{index}]"
            )
        return bytes(data)

    def _ec_reconstructed_shard(self, shard_id: int) -> CompressedShard:
        """A served-from-parity stand-in for a shard whose server is
        down, decoded once from any ``k`` live fragments.  It shares
        the live shard's deletion bitmap, which holds every committed
        delete (appends live in the replicated LogStore, and freezes
        only *create* shards); a decoded shard whose counts differ
        from the live one is refused, as the bitmap would misindex."""
        if self._ec is None:
            raise ReconstructionFailed("cluster has no erasure-coded snapshots")
        with self._ec_lock:
            shard = self._ec_shards.get(shard_id)
            if shard is None:
                name = self._ec.shard_file(shard_id)
                blob = self._ec.reconstruct_file(
                    name, self._ec_fetch, skip_servers=self._ec_skip_servers()
                )
                shard = CompressedShard.from_bytes(blob, self.store.delimiters)
                live = self.store.shards[shard_id]
                decoded = (len(shard.node_file), shard.edge_file.num_edges)
                expected = (len(live.node_file), live.edge_file.num_edges)
                if decoded != expected:
                    raise ReconstructionFailed(
                        f"{name}: decoded shard has (nodes, edges) "
                        f"{decoded}, the live shard {expected}"
                    )
                shard.deletions = live.deletions
                self._ec_shards[shard_id] = shard
            return shard

    def _rebuild_fragments(self, server_id: int) -> int:
        """Re-create the server's missing fragments from the survivors,
        throttled to ``rebuild_rate_bytes_s``; returns how many were
        rebuilt (verified-intact fragments are skipped -- a bounce is
        not a disk loss)."""
        assert self._ec is not None
        manifest = self._ec.manifest
        rate = self.rebuild_rate_bytes_s
        started = time.monotonic()
        sent = 0
        rebuilt = 0
        with obs.span("ec.rebuild", layer="ec", server=server_id):
            for name, index in manifest.server_fragments(server_id):
                info = manifest.files[name].fragments[index]
                chaos.kick(chaos.SITE_EC_REBUILD, file=name, fragment=index,
                           server=server_id)
                try:
                    present = bool(self.transport.call(
                        server_id, "ec_has_fragment",
                        [server_id, name, index, info.crc32, info.bytes],
                    ))
                except Exception:
                    present = False  # probe failed -> rebuild it anyway
                if present:
                    continue
                fragment = self._ec.rebuild_fragment(
                    name, index, self._ec_fetch,
                    skip_servers=self._ec_skip_servers(),
                )
                self.transport.call(
                    server_id, "ec_store_fragment",
                    [server_id, name, index, fragment],
                )
                rebuilt += 1
                sent += len(fragment)
                if rate:
                    # Pace the stream: sleep until the bytes shipped so
                    # far fit under the configured rate.
                    deficit = sent / rate - (time.monotonic() - started)
                    if deficit > 0:
                        time.sleep(deficit)
        obs.counter(
            "zipg_ec_rebuilt_fragments_total",
            help="fragments re-encoded onto recovering servers",
        ).inc(rebuilt)
        return rebuilt

    def wait_for_rebuild(self, server_id: int,
                         timeout_s: Optional[float] = None) -> bool:
        """Block until the server's background rebuild finishes (or no
        rebuild is running); True unless the wait timed out."""
        with self._state_lock:
            thread = self._rebuild_threads.get(server_id)
        if thread is None:
            return True
        thread.join(timeout_s)
        return not thread.is_alive()

    def rebuild_error(self, server_id: int) -> Optional[BaseException]:
        """Why the server's last catch-up or rebuild failed (None if
        it did not)."""
        with self._state_lock:
            return self._rebuild_errors.get(server_id)

    @property
    def down_servers(self) -> Set[int]:
        with self._state_lock:
            return set(self._down)

    @property
    def catching_up_servers(self) -> Set[int]:
        with self._state_lock:
            return set(self._catching_up)

    @property
    def commit_lsn(self) -> int:
        with self._write_lock:
            return self._commit_lsn

    def applied_lsn(self, server_id: int) -> int:
        """The last replicated write ``server_id`` has acknowledged."""
        return self._applied_lsn.get(server_id, 0)

    def is_available(self) -> bool:
        """True if every shard still has at least one live replica."""
        return all(self.live_replicas(s.shard_id) for s in self.store.shards)

    def storage_footprint_bytes(self) -> int:
        """Bytes the deployment stores under its placement mode.

        Replication multiplies the single-copy footprint by
        ``replication_factor``; erasure coding keeps one served copy
        and adds only the parity fragments -- ``(k+m)/k`` of the
        *snapshot* bytes instead of a whole-store multiplier.  Either
        way the result is published as the mode-labeled
        ``zipg_storage_footprint_bytes`` gauge, so the overhead claim
        is observable at runtime."""
        single = self.store.storage_footprint_bytes()
        if self._ec is not None:
            manifest = self._ec.manifest
            footprint = single + manifest.storage_bytes() - manifest.data_bytes()
            mode = "ec"
        else:
            footprint = single * self.replication_factor
            mode = "replication"
        obs.gauge(
            "zipg_storage_footprint_bytes",
            help="bytes stored cluster-wide under the active placement",
            labels={"mode": mode},
        ).set(footprint)
        return footprint

    # ------------------------------------------------------------------
    # Replicated writes
    # ------------------------------------------------------------------

    def _replicate(self, write: Callable[[], Any]) -> Any:
        """Run one mutation on the local store, then replicate it.

        Each record the store logged (:meth:`ZipG.logged`: the
        mutation, then any auto-freeze) gets the next cluster LSN,
        lands in the oplog, and ships to every live server as an
        ``apply_write`` RPC -- replicas freeze exactly where the master
        froze, so shard inventories stay aligned.  A server that fails
        its ``apply_write`` is marked down (``recover_server`` will
        replay its tail); the local result is returned regardless --
        writes are master-durable, replication is for availability."""
        with self._write_lock:
            result, records = self.store.logged(write)
            first_lsn = self._commit_lsn + 1
            self._commit_lsn += len(records)
            self.store.replica_mark.hold(self._stream, self._commit_lsn)
            with self._state_lock:
                targets = self._live_locked(range(self.num_servers))
            dead: Set[int] = set()
            for lsn, (op, args) in enumerate(records, first_lsn):
                self._oplog.append((lsn, op, args))
                for server in targets:
                    if server in dead:
                        continue
                    try:
                        self.transport.call(
                            server, "apply_write", [lsn, op, args],
                            kwargs={"stream": self._stream},
                        )
                        self._applied_lsn[server] = lsn
                    except Exception:
                        # The replica missed this write: it must not
                        # serve reads until recover_server replays it.
                        dead.add(server)
                        obs.counter(
                            "zipg_replication_write_failures_total",
                            help="apply_write RPCs that failed "
                                 "(server marked down)",
                            labels={"server": str(server)},
                        ).inc()
            if dead:
                with self._state_lock:
                    self._down.update(dead)
            self._trim_oplog_locked()
        return result

    @obs.traced("replication.append_node", layer="cluster")
    def append_node(self, node_id: int, properties) -> None:
        self._replicate(lambda: self.store.append_node(node_id, properties))

    @obs.traced("replication.append_edge", layer="cluster")
    def append_edge(self, source: int, edge_type: int, destination: int,
                    timestamp: int = 0, properties=None) -> None:
        self._replicate(lambda: self.store.append_edge(
            source, edge_type, destination, timestamp, properties))

    @obs.traced("replication.delete_node", layer="cluster")
    def delete_node(self, node_id: int) -> bool:
        return self._replicate(lambda: self.store.delete_node(node_id))

    @obs.traced("replication.delete_edge", layer="cluster")
    def delete_edge(self, source: int, edge_type: int, destination: int) -> int:
        return self._replicate(
            lambda: self.store.delete_edge(source, edge_type, destination))

    # ------------------------------------------------------------------
    # Resilient shard calls
    # ------------------------------------------------------------------

    def call_on_shard(self, shard_id: int, fn: Callable[[int], object]) -> object:
        """Run ``fn(server)`` against ``shard_id``'s live replicas,
        starting at this read's rotation slot, through
        :meth:`_failover`."""
        return self._failover(
            shard_id, self._route(shard_id, self.replica_servers(shard_id)), fn
        )

    def _unit_call(self, unit: int, method: str, wire_args: List) -> object:
        """Route one broadcast unit's op through up to ``1 + retries``
        passes of :meth:`_failover`, each over the unit's live servers
        at that moment; the last pass's error is the unit's.

        The LogStore unit lives unreplicated on ``logstore_server``
        (§3.5); under ec its hot tail is on every server, so the other
        live servers follow it.  Under ec a shard unit no server could
        answer falls back to fragment reconstruction -- a *complete*
        answer, not a ``ShardError``: ``method`` is one of the two
        broadcast ops, which the reconstructed shard answers itself."""
        transport = self.transport
        if unit == LOGSTORE_UNIT:
            owners, spill = [self.logstore_server], self._ec is not None
        else:
            owners, spill = self.replica_servers(unit), False

        def call(server: int) -> object:
            return transport.call(server, method, wire_args, unit=unit)

        passes_left = self.retries
        try:
            while True:
                try:
                    return self._failover(
                        unit, self._route(unit, owners, spill), call
                    )
                except ReplicaCallError:
                    if not passes_left:
                        raise
                    passes_left -= 1
        except (ShardUnavailable, ReplicaCallError):
            if self._ec is None or unit == LOGSTORE_UNIT:
                raise
            shard = self._ec_reconstructed_shard(unit)
            return getattr(shard, method)(*wire_args)

    def _broadcast(self, title: str, method: str, wire_args: List,
                   merge: Callable, partial_results: bool, args_key=None):
        """Fan one search out over the LogStore + every shard with
        replica failover, collecting per-unit outcomes.

        ``method(*wire_args)`` runs on each unit *through the
        transport* (see :func:`repro.server.ops.run_op`), so the same
        fan-out works in-process and against socket shard servers;
        ``merge(values)`` combines the successful hits.  When
        ``args_key`` (a hashable digest of the query arguments) is
        given, identical concurrent broadcasts share one fan-out
        through the cluster's :class:`~repro.perf.SingleFlight` -- the
        store epoch in the key keeps a fan-out from being shared across
        a mutation."""
        units = [LOGSTORE_UNIT] + [shard.shard_id for shard in self.store.shards]

        # zipg: span-free  (always runs under the replication.broadcast span)
        def fan_out():
            return self.store.executor.map(
                lambda unit: self._unit_call(unit, method, wire_args),
                units,
                partial=True,
            )

        with obs.span("replication.broadcast", layer="cluster", query=title):
            if args_key is None:
                outcomes = fan_out()
            else:
                outcomes = self._broadcast_flights.do(
                    ("broadcast", id(self), self.store.epoch.value,
                     title, args_key, bool(partial_results)),
                    fan_out, on_shared=_count_shared_fanout,
                )
        errors: List[ShardError] = []
        values: List = []
        for outcome, unit in zip(outcomes, units):
            if outcome.ok:
                values.append(outcome.value)
                continue
            error = outcome.error
            tried = (
                [server for server, _ in error.attempts]
                if isinstance(error, ReplicaCallError)
                else []
            )
            errors.append(ShardError(unit, error, tried))
        if errors:
            obs.counter(
                "zipg_degraded_queries_total",
                help="broadcast queries answered from a subset of shards",
                labels={"query": title},
            ).inc()
        if not partial_results:
            for shard_error in errors:
                raise shard_error.error
            return merge(values)
        return PartialResult(merge(values), errors, attempted=len(units))

    # ------------------------------------------------------------------
    # Degradable broadcast queries
    # ------------------------------------------------------------------

    @obs.traced("replication.get_node_ids", layer="cluster")
    def get_node_ids(self, property_list: PropertyList,
                     partial_results: bool = False):
        """All-shard node search with replica failover; see
        :meth:`_broadcast` for the ``partial_results`` contract."""
        return self._broadcast(
            "get_node_ids", "find_live_nodes", [dict(property_list)],
            merge_node_hits, partial_results,
            args_key=tuple(sorted(property_list.items())),
        )

    @obs.traced("replication.find_edges", layer="cluster")
    def find_edges(self, property_id: str, value: str,
                   partial_results: bool = False):
        """All-shard edge-property search with replica failover."""
        return self._broadcast(
            "find_edges", "find_edges_by_property", [property_id, value],
            merge_edge_hits, partial_results,
            args_key=(property_id, value),
        )

    @obs.traced("replication.get_node_property", layer="cluster")
    def get_node_property(self, node_id: int, property_ids="*") -> PropertyList:
        """Node-property read through :meth:`_failover` over the owning
        shard's live replicas; a miss raises :class:`NodeNotFound`.

        Under ec placement this is a *store-level* op (it walks the
        replicated pointer tables and hot tail), so every other live
        server follows the owner rather than reconstructing."""
        shard_id = self.store.route(node_id)
        wire_args = [node_id, property_ids]
        transport = self.transport
        return self._failover(
            shard_id,
            self._route(shard_id, self.replica_servers(shard_id),
                        spill=self._ec is not None),
            lambda server: transport.call(server, "get_node_property",
                                          wire_args),
        )

    # ------------------------------------------------------------------
    # What this class does not route runs on the store
    # ------------------------------------------------------------------
    # Algorithms 1-3 run on the master's own store; update_node /
    # update_edge stay the interface's delete + append on *this* object,
    # so they replicate.

    get_neighbor_ids = _on_store("get_neighbor_ids")
    edge_count = _on_store("edge_count")
    edges_from_index = _on_store("edges_from_index")
    edges_in_time_range = _on_store("edges_in_time_range")
    assoc_get = _on_store("assoc_get")
    aggregate_stats = _on_store("aggregate_stats")
    reset_stats = _on_store("reset_stats")

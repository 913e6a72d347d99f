"""Replication-based fault tolerance and load balancing (§4.1).

"ZipG currently uses traditional replication-based techniques for
fault tolerance; an application can specify the desired number of
replicas per shard. Queries are load balanced evenly across multiple
replicas."

Each shard is placed on ``replication_factor`` consecutive servers.
Reads rotate round-robin over a shard's *live* replicas; failing a
server re-routes its shards' reads to the surviving replicas, and a
shard whose replicas are all down makes queries raise
:class:`ShardUnavailable`.

Degraded-query semantics on top of that placement:

* :meth:`ReplicatedZipGCluster.call_on_shard` tries a shard's live
  replicas in rotation order; a replica call that raises fails over to
  the next live replica (``zipg_replica_failovers_total``) and only
  raises :class:`~repro.core.errors.ReplicaCallError` -- carrying every
  ``(server, exception)`` attempt -- once *all* live replicas failed.
* The broadcast queries (``get_node_ids`` / ``find_edges``) accept
  ``partial_results=True``: instead of raising on the first exhausted
  shard they return a :class:`PartialResult` with the merged value from
  the shards that answered plus one structured :class:`ShardError` per
  shard that did not.
* Replica calls pass through the ``replication.replica_call`` chaos
  site, so :mod:`repro.chaos` can fail chosen servers deterministically.

Per-server operations dispatch through the cluster's
:class:`~repro.server.transport.Transport` (``self.transport``): the
default in-process backend answers from the shared local store exactly
as the pre-serving-layer code did, and a socket backend routes the
same ``(method, args, unit)`` triples to real shard-server processes
-- failover, retries, deadlines, and ``partial_results`` degradation
apply identically to both because transport failures surface as
retryable :class:`~repro.core.errors.TransportError`\\ s.

Writes replicate: each mutation is applied locally, assigned a
monotone cluster LSN, recorded in an in-memory oplog (the WAL record
vocabulary), and shipped to every live server as an ``apply_write``
RPC.  A server that misses writes while down is *not* re-admitted to
read rotation by :meth:`ReplicatedZipGCluster.recover_server` until
its missed oplog tail has been replayed -- re-admitting immediately
(the old behavior) let reads route to a replica that was missing
acknowledged writes.  Replicas mid-catch-up are counted by the
``zipg_replicas_catching_up`` gauge.

Rotation, down-server, and catch-up state are guarded by one lock:
concurrent callers (gateway submissions, server connections) query
while ``fail_server`` runs on another thread.  Writes and
catch-up serialize on a separate write lock (always taken *before*
the state lock) so the oplog and the commit LSN stay consistent.

**Erasure-coded placement** (``placement="ec"``, :mod:`repro.ec`):
instead of ``replication_factor`` whole-shard copies, each immutable
snapshot file is split into ``k`` data + ``m`` parity fragments spread
round-robin across the servers (the hot oplog tail stays fully
replicated exactly as above).  Shard-unit reads route to the single
owning server; when it is down, the cluster reconstructs the shard
from any ``k`` surviving fragments (``zipg_ec_reconstructions_total``,
``ec.decode`` span) and answers *completely* -- no ``partial_results``
degradation for single-server loss.  Reconstructions replay the
post-snapshot oplog deletes before serving, so degraded reads stay
epoch-fresh.  ``recover_server`` replays the missed oplog tail, then
re-creates the returning server's missing fragments in a rate-limited
background rebuild (``ec.rebuild`` chaos site) and only then re-admits
it -- the same catching-up hold-out replication uses.  Lock order:
``_ec_lock`` before ``_write_lock`` before ``_state_lock``.
"""
# zipg: query-api

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import chaos, obs
from repro.cluster.cluster import ZipGCluster
from repro.core.errors import FragmentCorruptError, ReconstructionFailed, ReplicaCallError
from repro.core.graph_store import ZipG
from repro.core.model import PropertyList
from repro.core.shard import CompressedShard
from repro.ec import ErasureCodedSnapshots
from repro.perf.coalesce import SingleFlight


def _count_shared_fanout() -> None:
    obs.counter(
        "zipg_executor_coalesced_fanouts_total",
        help="fan-outs that joined an identical in-flight fan-out",
    ).inc()


class ShardUnavailable(RuntimeError):
    """Every replica of a required shard is down."""


#: Pseudo shard id used to tag replica-call chaos sites and errors for
#: the (unreplicated, §3.5) LogStore server.
LOGSTORE_UNIT = -1


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


class ReplicatedZipGCluster(ZipGCluster):
    """A ZipG cluster with per-shard replication.

    Args:
        store: the logical ZipG store.
        num_servers: cluster size.
        replication_factor: replicas per shard (the paper's app-chosen
            knob). Must not exceed ``num_servers``.
        retries: extra per-shard attempts the broadcast fan-out makes
            on top of replica failover (passed to ``executor.map``).
        backoff_s: base exponential backoff between those retries.
        deadline_s: cooperative per-shard-call deadline.
        placement: ``"replication"`` (whole-shard copies, the paper's
            scheme) or ``"ec"`` (erasure-coded snapshot fragments;
            forces ``replication_factor`` to 1 -- redundancy comes
            from parity, not copies).
        ec_snapshots: the encoded snapshot handle
            (:class:`repro.ec.ErasureCodedSnapshots`); required with
            ``placement="ec"``.  The snapshot must reflect the store's
            state at cluster construction -- reconstruction replays
            only the *cluster's* oplog on top of it.
        rebuild_rate_bytes_s: throttle for the background fragment
            rebuild (None = unthrottled).
    """

    def __init__(self, store: ZipG, num_servers: int,
                 replication_factor: int = 2, retries: int = 0,
                 backoff_s: float = 0.0,
                 deadline_s: Optional[float] = None,
                 placement: str = "replication",
                 ec_snapshots: Optional[ErasureCodedSnapshots] = None,
                 rebuild_rate_bytes_s: Optional[float] = None):
        super().__init__(store, num_servers, retries=retries,
                         backoff_s=backoff_s, deadline_s=deadline_s)
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
        self.placement = placement
        self.replication_factor = replication_factor
        self.rebuild_rate_bytes_s = rebuild_rate_bytes_s
        self._ec = ec_snapshots
        # Reconstructed-shard cache: shard_id -> [shard, oplog records
        # already replayed onto it].  _ec_lock may acquire _write_lock /
        # _state_lock; never the reverse.
        self._ec_lock = threading.Lock()
        self._ec_shards: Dict[int, List] = {}
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
        # Replicated-write state: a monotone cluster LSN, the in-memory
        # oplog of (lsn, op, args) in WAL vocabulary, what each server
        # has acknowledged, and which servers are replaying a missed
        # tail (held out of read rotation). Lock order: _write_lock
        # before _state_lock, never the reverse.
        self._write_lock = threading.Lock()
        self._commit_lsn = 0
        self._oplog: List[Tuple[int, str, List]] = []
        self._applied_lsn: Dict[int, int] = {
            server: 0 for server in range(num_servers)
        }
        self._catching_up: Set[int] = set()
        # Identical concurrent broadcasts share one fan-out.
        self._broadcast_flights = SingleFlight(on_shared=_count_shared_fanout)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def replica_servers(self, shard_id: int) -> List[int]:
        """Servers holding a replica of ``shard_id`` (primary first)."""
        primary = shard_id % self.num_servers
        return [
            (primary + offset) % self.num_servers
            for offset in range(self.replication_factor)
        ]

    def live_replicas(self, shard_id: int) -> List[int]:
        """Replicas reads may route to: not down, not mid-catch-up."""
        with self._state_lock:
            out = self._down | self._catching_up
        return [s for s in self.replica_servers(shard_id) if s not in out]

    def server_of_shard(self, shard_id: int) -> int:
        """Round-robin read routing over the shard's live replicas."""
        live, turn = self._route(shard_id)
        if not live:
            raise ShardUnavailable(f"no live replica for shard {shard_id}")
        return live[turn % len(live)]

    def _route(self, shard_id: int) -> Tuple[List[int], int]:
        """Atomically snapshot the live replicas and claim a rotation
        turn for one read of ``shard_id``."""
        with self._state_lock:
            out = self._down | self._catching_up
            live = [
                s for s in self.replica_servers(shard_id)
                if s not in out
            ]
            turn = self._rotation.get(shard_id, 0)
            self._rotation[shard_id] = turn + 1
        return live, turn

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------

    def fail_server(self, server_id: int) -> None:
        """Mark a server down; its shards fail over to surviving replicas."""
        if not 0 <= server_id < self.num_servers:
            raise IndexError(f"server {server_id} out of range")
        with self._state_lock:
            self._down.add(server_id)

    def recover_server(self, server_id: int) -> None:
        """Re-admit a server to read rotation -- after catch-up.

        A server that missed replicated writes while down first
        replays its missed oplog tail (``apply_write`` RPCs through
        the transport); until the replay finishes it stays out of read
        rotation (``zipg_replicas_catching_up``), because serving
        reads from a replica missing acknowledged writes is the bug
        this method used to have.  A server whose replay fails stays
        down.  Holding the write lock freezes the commit LSN for the
        duration, so "caught up" is exact, not racy.

        Under ``placement="ec"`` the oplog replay is followed by a
        rate-limited *background* fragment rebuild: the returning
        server's missing fragments are re-encoded from the survivors
        and pushed to it (``ec_store_fragment``), and only then is the
        server re-admitted -- see :meth:`wait_for_rebuild`."""
        if not 0 <= server_id < self.num_servers:
            raise IndexError(f"server {server_id} out of range")
        if self._ec is not None:
            self._ec_recover_server(server_id)
            return
        with self._write_lock:
            with self._state_lock:
                if server_id not in self._down:
                    return
                behind = self._applied_lsn.get(server_id, 0) < self._commit_lsn
                self._down.discard(server_id)
                if behind:
                    self._catching_up.add(server_id)
            if not behind:
                return
            gauge = obs.gauge(
                "zipg_replicas_catching_up",
                help="recovered replicas still replaying missed writes",
            )
            gauge.inc()
            try:
                self._replay_tail_locked(server_id)
            except Exception:
                # Replay failed (server still unreachable / mid-crash):
                # the server goes back to down rather than serving
                # reads from a stale replica.
                obs.counter(
                    "zipg_replica_catchup_failures_total",
                    help="recover_server catch-ups that could not replay",
                ).inc()
                with self._state_lock:
                    self._down.add(server_id)
            finally:
                with self._state_lock:
                    self._catching_up.discard(server_id)
                gauge.inc(-1)

    def _replay_tail_locked(self, server_id: int) -> None:
        """Ship every oplog record past the server's applied LSN."""
        applied = self._applied_lsn.get(server_id, 0)
        for lsn, op, args in self._oplog:
            if lsn <= applied:
                continue
            self.transport.call(server_id, "apply_write", [lsn, op, list(args)])
            self._applied_lsn[server_id] = lsn

    # ------------------------------------------------------------------
    # Erasure-coded placement: degraded reads + background rebuild
    # ------------------------------------------------------------------

    def _catchup_gauge(self):
        return obs.gauge(
            "zipg_replicas_catching_up",
            help="recovered replicas still replaying missed writes",
        )

    def _ec_skip_servers(self) -> Tuple[int, ...]:
        """Servers reconstruction must not use as fragment sources."""
        with self._state_lock:
            return tuple(self._down | self._catching_up)

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
        down: decode the shard's snapshot file from any ``k`` live
        fragments, then replay the post-snapshot oplog deletes so the
        reconstruction is epoch-fresh (appends live in the replicated
        LogStore, and freezes only ever *create* shards, so deletes
        are the only mutations an encoded shard can miss)."""
        if self._ec is None:
            raise ReconstructionFailed("cluster has no erasure-coded snapshots")
        with self._ec_lock:
            entry = self._ec_shards.get(shard_id)
            if entry is None:
                name = self._ec.shard_file(shard_id)
                blob = self._ec.reconstruct_file(
                    name, self._ec_fetch, skip_servers=self._ec_skip_servers()
                )
                entry = [
                    CompressedShard.from_bytes(blob, self.store.delimiters),
                    0,
                ]
                self._ec_shards[shard_id] = entry
            shard, replayed = entry
            with self._write_lock:
                tail = self._oplog[replayed:]
            for _lsn, op, args in tail:
                if op == "del_node":
                    shard.delete_node(int(args[0]))
                elif op == "del_edge":
                    shard.delete_edges(int(args[0]), int(args[1]),
                                       int(args[2]))
            entry[1] = replayed + len(tail)
            return shard

    def _ec_degraded_op(self, shard_id: int, method: str,
                        wire_args: List) -> object:
        """Answer one shard-unit op from a reconstructed shard."""
        shard = self._ec_reconstructed_shard(shard_id)
        if method == "find_live_nodes":
            return shard.find_live_nodes(dict(wire_args[0]))
        if method == "find_edges_by_property":
            return shard.find_edges_by_property(str(wire_args[0]),
                                                str(wire_args[1]))
        raise ReconstructionFailed(
            f"no degraded dispatch for shard op {method!r}"
        )

    def _shard_unit_call(self, shard_id: int, method: str,
                         wire_args: List) -> object:
        """Route one shard-unit op with replica failover; under ec
        placement a shard whose server(s) cannot answer falls back to
        fragment reconstruction -- a *complete* answer, not a
        ``ShardError``."""
        transport = self.transport
        try:
            return self.call_on_shard(
                shard_id,
                lambda server: transport.call(
                    server, method, wire_args, unit=shard_id
                ),
            )
        except (ShardUnavailable, ReplicaCallError):
            if self._ec is None:
                raise
            return self._ec_degraded_op(shard_id, method, wire_args)

    def _ec_any_server_call(self, shard_id: int, method: str,
                            wire_args: List, exclude: Set[int],
                            unit: Optional[int] = None) -> object:
        """Store-level fallback: the pointer tables and hot tail are
        replicated on every server, so a store-routed op a down owner
        cannot answer is retried on the remaining live servers."""
        with self._state_lock:
            out = self._down | self._catching_up
        candidates = [
            server for server in range(self.num_servers)
            if server not in out and server not in exclude
        ]
        attempts: List[Tuple[int, BaseException]] = []
        for server in candidates:
            try:
                chaos.kick(chaos.SITE_REPLICA_CALL,
                           shard=shard_id, server=server)
                return self.transport.call(server, method, wire_args,
                                           unit=unit)
            except Exception as exc:
                attempts.append((server, exc))
        raise ReplicaCallError(shard_id, attempts)

    def _ec_recover_server(self, server_id: int) -> None:
        """ec-placement recovery: synchronous oplog catch-up, then a
        background fragment rebuild; re-admission happens only when
        both are done (the server stays in the catching-up hold-out
        throughout, so reads never route to it early)."""
        with self._write_lock:
            with self._state_lock:
                if server_id not in self._down:
                    return
                if server_id in self._rebuild_threads:
                    return
                self._down.discard(server_id)
                self._catching_up.add(server_id)
                self._rebuild_errors.pop(server_id, None)
            self._catchup_gauge().inc()
            try:
                self._replay_tail_locked(server_id)
            except Exception:
                obs.counter(
                    "zipg_replica_catchup_failures_total",
                    help="recover_server catch-ups that could not replay",
                ).inc()
                with self._state_lock:
                    self._down.add(server_id)
                    self._catching_up.discard(server_id)
                self._catchup_gauge().inc(-1)
                return
        thread = threading.Thread(
            target=self._rebuild_and_admit, args=(server_id,),
            name=f"zipg-ec-rebuild-{server_id}", daemon=True,
        )
        with self._state_lock:
            self._rebuild_threads[server_id] = thread
        thread.start()

    def _rebuild_and_admit(self, server_id: int) -> None:
        """Background half of ec recovery: rebuild the server's
        fragments, top up its oplog tail, re-admit.  Any failure --
        including a :class:`~repro.chaos.SimulatedCrash` from the
        ``ec.rebuild`` site -- sends the server back to down (a later
        ``recover_server`` retries from scratch)."""
        try:
            self._rebuild_fragments(server_id)
        except BaseException as exc:  # SimulatedCrash is a BaseException
            with self._state_lock:
                self._rebuild_errors[server_id] = exc
            obs.counter(
                "zipg_ec_rebuild_failures_total",
                help="background fragment rebuilds that died mid-flight",
                labels={"server": str(server_id)},
            ).inc()
            self._finish_rebuild(server_id, admit=False)
            return
        # Writes kept flowing during the rebuild; ship the tail the
        # server missed while held out before letting reads route to it.
        with self._write_lock:
            try:
                self._replay_tail_locked(server_id)
            except Exception as exc:
                with self._state_lock:
                    self._rebuild_errors[server_id] = exc
                obs.counter(
                    "zipg_replica_catchup_failures_total",
                    help="recover_server catch-ups that could not replay",
                ).inc()
                self._finish_rebuild(server_id, admit=False)
                return
            self._finish_rebuild(server_id, admit=True)
        # Healthy topology again: reconstructed stand-ins are no longer
        # needed (and would pin memory).
        with self._ec_lock:
            self._ec_shards.clear()

    def _finish_rebuild(self, server_id: int, admit: bool) -> None:
        with self._state_lock:
            self._catching_up.discard(server_id)
            if not admit:
                self._down.add(server_id)
            self._rebuild_threads.pop(server_id, None)
        self._catchup_gauge().inc(-1)

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
        """Why the server's last rebuild failed (None if it did not)."""
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
        single = super().storage_footprint_bytes()
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

    def _replicated_write(self, op: str, args: List,
                          apply_fn: Callable[[], object]) -> object:
        """Apply one mutation locally, then replicate it.

        The mutation gets the next cluster LSN, lands in the oplog,
        and ships to every live server as an ``apply_write`` RPC in
        WAL vocabulary.  Auto-freezes triggered by the local apply are
        detected via the store's ``freeze_count`` delta and replicate
        as explicit ``freeze`` records -- replicas replay freezes
        exactly where the master froze, never on their own thresholds,
        so shard inventories stay aligned.  A server that fails its
        ``apply_write`` is marked down (``recover_server`` will replay
        its tail); the local result is returned regardless -- writes
        are master-durable, replication is for availability."""
        with self._write_lock:
            freeze_before = self.store.freeze_count
            result = apply_fn()
            records: List[Tuple[str, List]] = [(op, list(args))]
            for _ in range(self.store.freeze_count - freeze_before):
                records.append(("freeze", []))
            with self._state_lock:
                targets = [
                    server for server in range(self.num_servers)
                    if server not in self._down
                    and server not in self._catching_up
                ]
            dead: Set[int] = set()
            for record_op, record_args in records:
                self._commit_lsn += 1
                lsn = self._commit_lsn
                self._oplog.append((lsn, record_op, record_args))
                for server in targets:
                    if server in dead:
                        continue
                    try:
                        self.transport.call(
                            server, "apply_write",
                            [lsn, record_op, list(record_args)],
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
        return result

    @obs.traced("replication.append_node", layer="cluster")
    def append_node(self, node_id: int, properties) -> None:
        properties = dict(properties)
        self._replicated_write(
            "node", [node_id, properties],
            lambda: self.store.append_node(node_id, properties),
        )

    @obs.traced("replication.append_edge", layer="cluster")
    def append_edge(self, source: int, edge_type: int, destination: int,
                    timestamp: int = 0, properties=None) -> None:
        properties = dict(properties or {})
        self._replicated_write(
            "edge", [source, edge_type, destination, timestamp, properties],
            lambda: self.store.append_edge(source, edge_type, destination,
                                           timestamp, properties),
        )

    @obs.traced("replication.delete_node", layer="cluster")
    def delete_node(self, node_id: int) -> bool:
        return bool(self._replicated_write(
            "del_node", [node_id],
            lambda: self.store.delete_node(node_id),
        ))

    @obs.traced("replication.delete_edge", layer="cluster")
    def delete_edge(self, source: int, edge_type: int, destination: int) -> int:
        return int(self._replicated_write(
            "del_edge", [source, edge_type, destination],
            lambda: self.store.delete_edge(source, edge_type, destination),
        ))

    # ------------------------------------------------------------------
    # Resilient shard calls
    # ------------------------------------------------------------------

    def call_on_shard(self, shard_id: int, fn: Callable[[int], object]) -> object:
        """Run ``fn(server)`` against ``shard_id``, failing over across
        its live replicas.

        Replicas are tried once each, starting at this read's rotation
        slot. A replica whose call raises is skipped in favor of the
        next one (``zipg_replica_failovers_total``); once every live
        replica failed, :class:`ReplicaCallError` carries the full
        ``(server, exception)`` attempt list. No live replica at all is
        :class:`ShardUnavailable` -- the shard's data is simply gone.
        """
        live, turn = self._route(shard_id)
        if not live:
            raise ShardUnavailable(f"no live replica for shard {shard_id}")
        attempts: List[Tuple[int, BaseException]] = []
        for offset in range(len(live)):
            server = live[(turn + offset) % len(live)]
            try:
                chaos.kick(chaos.SITE_REPLICA_CALL,
                           shard=shard_id, server=server)
                return fn(server)
            except Exception as exc:
                attempts.append((server, exc))
                if offset < len(live) - 1:
                    obs.counter(
                        "zipg_replica_failovers_total",
                        help="replica calls retried on the next live replica",
                    ).inc()
        raise ReplicaCallError(shard_id, attempts)

    def _call_on_logstore(self, fn: Callable[[int], object]) -> object:
        """The LogStore lives unreplicated on one server (§3.5): its
        server being down makes the call fail outright."""
        server = self.logstore_server
        if server in self.down_servers:
            raise ShardUnavailable(
                f"logstore server {server} is down (logstore is unreplicated)"
            )
        chaos.kick(chaos.SITE_REPLICA_CALL, shard=LOGSTORE_UNIT, server=server)
        return fn(server)

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
        units: List = [None] + list(self.store.shards)
        transport = self.transport

        def run(unit):
            if unit is None:
                try:
                    return self._call_on_logstore(
                        lambda server: transport.call(
                            server, method, wire_args, unit=LOGSTORE_UNIT
                        )
                    )
                except Exception:
                    # Under ec placement the hot tail is replicated to
                    # every server, so the unreplicated-LogStore rule
                    # softens: any live server can answer for it.
                    if self._ec is None:
                        raise
                    return self._ec_any_server_call(
                        LOGSTORE_UNIT, method, wire_args,
                        exclude={self.logstore_server},
                        unit=LOGSTORE_UNIT,
                    )
            return self._shard_unit_call(unit.shard_id, method, wire_args)

        # zipg: span-free  (always runs under the replication.broadcast span)
        def fan_out():
            return self.store.executor.map(
                run,
                units,
                retries=self.retries,
                backoff_s=self.backoff_s,
                deadline_s=self.deadline_s,
                partial=True,
            )

        with obs.span("replication.broadcast", layer="cluster", query=title):
            if args_key is None:
                outcomes = fan_out()
            else:
                outcomes = self._broadcast_flights.do(
                    ("broadcast", id(self), self.store.epoch.value,
                     title, args_key, bool(partial_results)),
                    fan_out,
                )
        errors: List[ShardError] = []
        values: List = []
        for outcome, unit in zip(outcomes, units):
            if outcome.ok:
                values.append(outcome.value)
                continue
            shard_id = LOGSTORE_UNIT if unit is None else unit.shard_id
            error = outcome.error
            tried = (
                [server for server, _ in error.attempts]
                if isinstance(error, ReplicaCallError)
                else []
            )
            errors.append(ShardError(shard_id, error, tried))
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
        def merge(values):
            result: set = set()
            for hits in values:
                result.update(hits)
            return sorted(result)

        return self._broadcast(
            "get_node_ids", "find_live_nodes", [dict(property_list)],
            merge, partial_results,
            args_key=tuple(sorted(property_list.items())),
        )

    @obs.traced("replication.find_edges", layer="cluster")
    def find_edges(self, property_id: str, value: str,
                   partial_results: bool = False):
        """All-shard edge-property search with replica failover."""
        def merge(values):
            results = [hit for hits in values for hit in hits]
            results.sort(key=lambda hit: (hit[0], hit[1],
                                          hit[2].timestamp,
                                          hit[2].destination))
            return results

        return self._broadcast(
            "find_edges", "find_edges_by_property", [property_id, value],
            merge, partial_results,
            args_key=(property_id, value),
        )

    @obs.traced("replication.get_node_property", layer="cluster")
    def get_node_property(self, node_id: int, property_ids="*") -> PropertyList:
        """Node-property read routed through the owning shard's live
        replicas (failover instead of failing on the first dead one).

        Under ec placement this is a *store-level* op (it walks the
        replicated pointer tables and hot tail), so a down owner fails
        over to any other live server rather than reconstructing."""
        shard_id = self.store.route(node_id)
        wire_args = [node_id, property_ids]
        try:
            return self.call_on_shard(
                shard_id,
                lambda server: self.transport.call(
                    server, "get_node_property", wire_args
                ),
            )
        except (ShardUnavailable, ReplicaCallError):
            if self._ec is None:
                raise
            return self._ec_any_server_call(
                shard_id, "get_node_property", wire_args,
                exclude=set(self.replica_servers(shard_id)),
            )

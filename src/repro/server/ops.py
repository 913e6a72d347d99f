"""The shard-server operation registry.

One table maps RPC method names to executions against a local
:class:`~repro.core.graph_store.ZipG` store.  Both transport backends
run through it -- :class:`~repro.server.transport.InProcessTransport`
calls :func:`run_op` directly, and a
:class:`~repro.server.shard_server.ShardServer` calls it per request
-- so the two deployments cannot drift apart on semantics.

Unit addressing: requests carry an optional ``unit`` identifying which
storage unit the operation targets --

* ``None``       -- a store-level operation (node-routed reads, writes);
* ``-1``         -- the LogStore (:data:`LOGSTORE_UNIT`, §3.5);
* ``shard_id >= 0`` -- one compressed shard.

``apply_write`` is the replication op: the master ships each record
its store logged, ``(lsn, op, args)`` in WAL vocabulary, with its
``stream`` id, and the server applies it once via
``ZipG.apply_replicated_record``.  A server fronting the master's own
store object (the in-process backend, the loopback harness's shared
mode) needs no special case: the master marked that store as holding
the record before shipping it, so the same dedupe acknowledges it
without applying it again.
"""
# zipg: robust-path

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.graph_store import ZipG
from repro.core.logstore import LOGSTORE_UNIT


def resolve_unit(store: ZipG, unit: Optional[int]) -> object:
    """The storage unit ``unit`` addresses within ``store``.

    ``None`` is the store itself, :data:`LOGSTORE_UNIT` the LogStore,
    and any other value a shard id (which must exist)."""
    if unit is None:
        return store
    if unit == LOGSTORE_UNIT:
        return store.logstore
    for shard in store.shards:
        if shard.shard_id == unit:
            return shard
    raise KeyError(f"no shard {unit} on this server")


_HANDLERS: Dict[str, Callable] = {}


def _op(name: str) -> Callable[[Callable], Callable]:
    def register(fn: Callable) -> Callable:
        _HANDLERS[name] = fn
        return fn

    return register


# zipg: rpc-entry
def run_op(store: ZipG, method: str, args: List[object],
            kwargs: Optional[Dict[str, object]] = None,
            unit: Optional[int] = None) -> object:
    """Run one RPC method against the local store.

    Raises :class:`KeyError` for unknown methods (the server turns
    that into a structured error response)."""
    handler = _HANDLERS.get(method)
    if handler is None:
        raise KeyError(f"unknown RPC method {method!r}")
    return handler(_Context(store, unit), *args, **(kwargs or {}))


class _Context:
    """What a handler gets: the store and the addressed unit."""

    __slots__ = ("store", "unit")

    def __init__(self, store: ZipG, unit: Optional[int]) -> None:
        self.store = store
        self.unit = unit


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------


@_op("ping")
def _ping(ctx: _Context) -> str:
    return "pong"


@_op("find_live_nodes")
def _find_live_nodes(ctx: _Context, property_list: Dict[str, str]) -> List[int]:
    """Node search on one unit (the broadcast fan-out's per-unit op)."""
    return resolve_unit(ctx.store, ctx.unit).find_live_nodes(
        dict(property_list)
    )


@_op("find_edges_by_property")
def _find_edges_by_property(ctx: _Context, property_id: str, value: str):
    """Edge-property search on one unit."""
    return resolve_unit(ctx.store, ctx.unit).find_edges_by_property(
        property_id, value
    )


@_op("get_node_property")
def _get_node_property(ctx: _Context, node_id: int, property_ids: object = "*"):
    if isinstance(property_ids, list):
        property_ids = tuple(property_ids)
    return ctx.store.get_node_property(node_id, property_ids)


def _fragment_store(ctx: _Context, server_id: int):
    """The fragment store this process serves for ``server_id``.

    In-process deployments attach every server's store to the shared
    ZipG object; a socket shard-server process attaches only its own,
    so a fetch addressed to a server that does not hold the fragment
    directory fails loudly (and the reconstruction treats it as an
    erasure)."""
    stores = ctx.store.ec_fragment_stores
    store = stores.get(int(server_id)) if stores else None
    if store is None:
        raise KeyError(f"server {server_id} serves no ec fragment store")
    return store


@_op("ec_fetch_fragment")
def _ec_fetch_fragment(ctx: _Context, server_id: int, name: str,
                       index: int) -> bytes:
    """One erasure-coded fragment's raw payload (degraded-read path).

    Integrity is the *caller's* job -- the EC manifest (which this
    server may not hold) has the fragment CRC, and the reconstruction
    verifies every fetched fragment against it."""
    return _fragment_store(ctx, server_id).read(str(name), int(index))


@_op("ec_store_fragment")
def _ec_store_fragment(ctx: _Context, server_id: int, name: str,
                       index: int, data: bytes) -> int:
    """Persist one rebuilt fragment onto this server (rebuild path);
    returns the byte count as the ack."""
    _fragment_store(ctx, server_id).write(
        str(name), int(index), bytes(data), site="ec.rebuild"
    )
    return len(data)


@_op("ec_has_fragment")
def _ec_has_fragment(ctx: _Context, server_id: int, name: str, index: int,
                     crc32: int, num_bytes: int) -> bool:
    """Whether this server holds a verified copy of the fragment --
    lets the rebuild skip fragments that survived the outage intact
    (a server bounce is not a disk loss)."""
    return bool(
        _fragment_store(ctx, server_id).has(
            str(name), int(index), int(crc32), int(num_bytes)
        )
    )


@_op("apply_write")
def _apply_write(ctx: _Context, lsn: int, op: str, args: List[object],
                 stream: int) -> int:
    """Apply one replicated mutation; returns the LSN as the ack.

    Uses the WAL replay path (``apply_wal_record``): replicas must not
    re-log or auto-freeze -- freezes replicate as explicit ``freeze``
    records from the master, keeping shard inventories aligned.

    ``stream`` names the sending master process. A record the store
    already holds from that stream (its ack was lost and the master's
    catch-up resent it, or the store *is* the master's) is acknowledged
    without being applied twice (``ZipG.apply_replicated_record``)."""
    lsn = int(lsn)
    ctx.store.apply_replicated_record(int(stream), lsn, op, args)
    return lsn

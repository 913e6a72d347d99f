"""Thin client library for the master's RPC surface.

A :class:`ZipGClient` mirrors the
:class:`~repro.baselines.interface.GraphStoreInterface` query/update
methods one-to-one, so workload :class:`~repro.workloads.base.Operation`
objects (the TAO mix included) run against it unchanged --
``operation.run(client)`` issues real RPCs instead of local calls.

The client is deliberately *thin*: no retries, no failover, no
routing.  Those are the master's job (it owns the replication state);
the client's only failure semantic is mapping transport-layer problems
-- refused connections, resets, torn frames, timeouts -- to
:class:`~repro.core.errors.TransportError` so callers can distinguish
"the wire broke" from a typed remote error (which decodes and
re-raises as itself, e.g. ``NodeNotFound``).

Connections are pooled per client, one per in-flight call, so a
client instance is safe to share across threads -- a gateway fronting
a remote master calls one from every connection thread.
"""
# zipg: robust-path

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.model import PropertyList
from repro.server.transport import _ConnectionPool


class ZipGClient:
    """Speak the master protocol from anywhere on the network."""

    def __init__(self, host: str, port: int,
                 timeout_s: Optional[float] = 30.0) -> None:
        self.host = host
        self.port = port
        self._rpc_pool = _ConnectionPool(-1, host, port, timeout_s)
        #: Envelope-level fields stamped on every request this client
        #: sends (the gateway client sets ``{"tenant": ...}`` here).
        self._request_extra: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _call(self, method: str, *args: object, **kwargs: object) -> object:
        return self._rpc_pool.round_trip(
            method, list(args), kwargs=kwargs or None,
            extra=self._request_extra or None,
        )

    def close(self) -> None:
        self._rpc_pool.close()

    def __enter__(self) -> "ZipGClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Admin
    # ------------------------------------------------------------------

    def ping(self) -> bool:
        return self._call("ping") == "pong"

    def topology(self) -> Dict[str, int]:
        return self._call("topology")

    def fail_server(self, server_id: int) -> bool:
        return bool(self._call("fail_server", server_id))

    def recover_server(self, server_id: int) -> bool:
        return bool(self._call("recover_server", server_id))

    def down_servers(self) -> List[int]:
        return list(self._call("down_servers"))

    def catching_up_servers(self) -> List[int]:
        """Servers held out of read rotation mid-catch-up (under ec
        placement this includes the background fragment rebuild)."""
        return list(self._call("catching_up_servers"))

    # ------------------------------------------------------------------
    # Queries (GraphStoreInterface surface)
    # ------------------------------------------------------------------

    def get_node_property(self, node_id: int, property_ids="*") -> PropertyList:
        if isinstance(property_ids, tuple):
            property_ids = list(property_ids)
        return self._call("get_node_property", node_id, property_ids)

    def get_node_ids(self, property_list: PropertyList,
                     partial_results: bool = False):
        if partial_results:
            return self._call("get_node_ids", dict(property_list),
                              partial_results=True)
        return self._call("get_node_ids", dict(property_list))

    def find_edges(self, property_id: str, value: str,
                   partial_results: bool = False):
        if partial_results:
            return self._call("find_edges", property_id, value,
                              partial_results=True)
        return self._call("find_edges", property_id, value)

    def get_neighbor_ids(self, node_id: int, edge_type="*",
                         property_list: Optional[PropertyList] = None) -> List[int]:
        return self._call("get_neighbor_ids", node_id, edge_type,
                          dict(property_list) if property_list else None)

    def edge_count(self, node_id: int, edge_type: int) -> int:
        return self._call("edge_count", node_id, edge_type)

    def edges_from_index(self, node_id: int, edge_type: int,
                         start_index: int, limit: Optional[int],
                         with_properties: bool = True):
        return self._call("edges_from_index", node_id, edge_type,
                          start_index, limit, with_properties)

    def edges_in_time_range(self, node_id: int, edge_type: int,
                            t_low: Optional[int], t_high: Optional[int],
                            limit: Optional[int] = None,
                            with_properties: bool = True):
        return self._call("edges_in_time_range", node_id, edge_type,
                          t_low, t_high, limit, with_properties)

    def assoc_get(self, node_id: int, edge_type: int, id2_set: Set[int],
                  t_low: Optional[int], t_high: Optional[int]):
        return self._call("assoc_get", node_id, edge_type, set(id2_set),
                          t_low, t_high)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def append_node(self, node_id: int, properties: PropertyList) -> None:
        self._call("append_node", node_id, dict(properties))

    def append_edge(self, source: int, edge_type: int, destination: int,
                    timestamp: int = 0,
                    properties: Optional[PropertyList] = None) -> None:
        self._call("append_edge", source, edge_type, destination,
                   timestamp, dict(properties or {}))

    def delete_node(self, node_id: int) -> bool:
        return bool(self._call("delete_node", node_id))

    def delete_edge(self, source: int, edge_type: int, destination: int) -> int:
        return int(self._call("delete_edge", source, edge_type, destination))

    def update_node(self, node_id: int, properties: PropertyList) -> None:
        self._call("update_node", node_id, dict(properties))

    def update_edge(self, source: int, edge_type: int, destination: int,
                    timestamp: int = 0,
                    properties: Optional[PropertyList] = None) -> None:
        self._call("update_edge", source, edge_type, destination,
                   timestamp, dict(properties or {}))

"""Multi-level function shipping (§4.1, Figure 4).

Each ZipG server hosts an aggregator. A query like "friends of Alice
who live in Ithaca" decomposes exactly as in Figure 4:

* level 0 -- the client reaches the entry aggregator;
* level 1 -- "Friends of Alice?" executes on the server owning Alice's
  shard;
* level 2 -- one sub-query per server owning a friend's data ("Carol &
  Dan's cities?", "Bob's city?"), shipped in parallel;
* the aggregator intersects/filters and returns.

:class:`FunctionShippingAggregator` executes that plan explicitly over
a :class:`~repro.cluster.replication.ReplicatedZipGCluster`, recording
the shipping trace (levels, per-level target servers, message counts)
so the communication structure is observable -- and charges one network
round trip per level, since each level's sub-queries run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.errors import NodeNotFound
from repro.core.model import PropertyList


@dataclass
class ShippingLevel:
    """One level of the function-shipping tree."""

    description: str
    target_servers: List[int]

    @property
    def messages(self) -> int:
        return len(self.target_servers)


@dataclass
class ShippingTrace:
    """The full decomposition of one query (Figure 4 rendered as data)."""

    entry_server: int
    levels: List[ShippingLevel] = field(default_factory=list)

    @property
    def round_trips(self) -> int:
        # Client -> entry aggregator, plus one parallel fan-out per level.
        return 1 + len(self.levels)

    @property
    def total_messages(self) -> int:
        return 1 + sum(level.messages for level in self.levels)


class FunctionShippingAggregator:
    """Executes neighborhood queries via explicit function shipping."""

    def __init__(self, cluster, entry_server: int = 0):
        self._cluster = cluster
        self._entry_server = entry_server

    def neighbor_filter_query(
        self,
        node_id: int,
        edge_type,
        property_list: Optional[PropertyList] = None,
    ):
        """"Friends of ``node_id`` [matching ``property_list``]".

        Returns ``(destinations, trace)``; the result is identical to
        ``get_neighbor_ids`` (the trace only *describes* where the work
        ran).
        """
        store = self._cluster.store
        trace = ShippingTrace(entry_server=self._entry_server)

        # Level 1: the edge fetch runs on the server(s) owning the
        # queried node's fragments.
        edge_servers = self._edge_servers(node_id, edge_type)
        record = store.get_edge_record(node_id, edge_type)
        destinations = record.destinations()
        trace.levels.append(ShippingLevel(
            f"edges of node {node_id}", edge_servers
        ))
        if not property_list:
            return destinations, trace

        # Level 2: property probes ship to each destination's server,
        # grouped so every server receives exactly one sub-query.
        by_server: Dict[int, List[int]] = {}
        for destination in destinations:
            server = self._cluster.server_of_shard(store.route(destination))
            by_server.setdefault(server, []).append(destination)
        trace.levels.append(ShippingLevel(
            f"property probes for {len(destinations)} neighbors",
            sorted(by_server),
        ))

        matches: List[int] = []
        for destination in destinations:  # preserve time order
            try:
                properties = store.get_node_property(destination, list(property_list))
            except NodeNotFound:
                continue  # neighbor deleted mid-query  # zipg: ignore[ROBUST001]
            if all(properties.get(k) == v for k, v in property_list.items()):
                matches.append(destination)
        return matches, trace

    def _edge_servers(self, node_id: int, edge_type) -> List[int]:
        store = self._cluster.store
        servers = set()
        for location in store._edge_locations(node_id, edge_type):
            shard_id = getattr(location, "shard_id", None)
            if shard_id is None:
                servers.add(self._cluster.logstore_server)
            else:
                servers.add(self._cluster.server_of_shard(shard_id))
        return sorted(servers)

    def two_hop_query(
        self,
        node_id: int,
        edge_type,
        property_list: Optional[PropertyList] = None,
    ):
        """Friends-of-friends [matching properties]: a three-level tree
        (the "multi-level function shipping" case -- sub-queries are
        themselves decomposed and forwarded)."""
        store = self._cluster.store
        friends, trace = self.neighbor_filter_query(node_id, edge_type, None)

        # Level 2: each friend's server computes that friend's neighbors.
        second_hop: List[int] = []
        servers = set()
        for friend in friends:
            servers.add(self._cluster.server_of_shard(store.route(friend)))
            second_hop.extend(store.get_edge_record(friend, edge_type).destinations())
        trace.levels.append(ShippingLevel(
            f"second hop from {len(friends)} friends", sorted(servers)
        ))

        unique = sorted(set(second_hop) - {node_id})
        if not property_list:
            return unique, trace

        # Level 3: property filter on the second-hop frontier.
        probe_servers = sorted({
            self._cluster.server_of_shard(store.route(n)) for n in unique
        })
        trace.levels.append(ShippingLevel(
            f"property probes for {len(unique)} second-hop nodes", probe_servers
        ))
        matches = []
        for candidate in unique:
            try:
                properties = store.get_node_property(candidate, list(property_list))
            except NodeNotFound:
                continue  # candidate deleted mid-query  # zipg: ignore[ROBUST001]
            if all(properties.get(k) == v for k, v in property_list.items()):
                matches.append(candidate)
        return matches, trace

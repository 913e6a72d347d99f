"""Offline analytics over the serving store.

The paper's introduction contrasts ZipG with batch-processing systems
(GraphLab, GraphX, GraphChi); these helpers show the other direction a
downstream user inevitably wants -- running light analytics directly on
the compressed serving store via its public neighbor queries, no
export/ETL step. All functions take any
:class:`~repro.core.interface.GraphStoreInterface` implementor.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def out_degree_distribution(system, node_ids: Sequence[int]) -> Dict[int, int]:
    """Histogram: out-degree -> number of nodes."""
    histogram: Dict[int, int] = {}
    for node in node_ids:
        degree = len(system.get_neighbor_ids(node, "*"))
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def pagerank(
    system,
    node_ids: Sequence[int],
    damping: float = 0.85,
    iterations: int = 20,
    tolerance: float = 1e-8,
) -> Dict[int, float]:
    """Power-iteration PageRank over the store's wildcard adjacency.

    Dangling mass is redistributed uniformly; ranks sum to 1.
    """
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    nodes = list(node_ids)
    if not nodes:
        return {}
    count = len(nodes)
    adjacency: Dict[int, List[int]] = {
        node: [d for d in system.get_neighbor_ids(node, "*") if d in set(nodes)]
        for node in nodes
    }
    ranks = {node: 1.0 / count for node in nodes}
    for _ in range(iterations):
        dangling = sum(ranks[n] for n in nodes if not adjacency[n])
        incoming = {node: 0.0 for node in nodes}
        for node in nodes:
            neighbors = adjacency[node]
            if not neighbors:
                continue
            share = ranks[node] / len(neighbors)
            for neighbor in neighbors:
                incoming[neighbor] += share
        base = (1.0 - damping) / count + damping * dangling / count
        updated = {node: base + damping * incoming[node] for node in nodes}
        delta = sum(abs(updated[n] - ranks[n]) for n in nodes)
        ranks = updated
        if delta < tolerance:
            break
    return ranks


def weakly_connected_components(system, node_ids: Sequence[int]) -> List[List[int]]:
    """Connected components treating every edge as undirected.

    Built on forward neighbor queries only: the reverse direction is
    derived by one adjacency pass (the store does not index in-edges,
    like ZipG itself).
    """
    nodes = list(node_ids)
    node_set = set(nodes)
    undirected: Dict[int, set] = {node: set() for node in nodes}
    for node in nodes:
        for neighbor in system.get_neighbor_ids(node, "*"):
            if neighbor in node_set:
                undirected[node].add(neighbor)
                undirected[neighbor].add(node)
    seen: set = set()
    components: List[List[int]] = []
    for node in nodes:
        if node in seen:
            continue
        stack = [node]
        component = []
        seen.add(node)
        while stack:
            current = stack.pop()
            component.append(current)
            for neighbor in undirected[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        components.append(sorted(component))
    components.sort(key=lambda c: (-len(c), c[0]))
    return components


def count_triangles(system, node_ids: Sequence[int]) -> int:
    """Number of undirected triangles among ``node_ids``."""
    nodes = list(node_ids)
    node_set = set(nodes)
    undirected: Dict[int, set] = {node: set() for node in nodes}
    for node in nodes:
        for neighbor in system.get_neighbor_ids(node, "*"):
            if neighbor in node_set and neighbor != node:
                undirected[node].add(neighbor)
                undirected[neighbor].add(node)
    triangles = 0
    for a in nodes:
        for b in undirected[a]:
            if b <= a:
                continue
            for c in undirected[a] & undirected[b]:
                if c > b:
                    triangles += 1
    return triangles

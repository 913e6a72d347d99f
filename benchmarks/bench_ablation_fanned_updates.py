"""Ablation: fanned-update pointers vs broadcast-to-all-shards (§3.5).

After a stream of updates fragments nodes across shards, compare the
shards touched per edge query when following update pointers against
the broadcast alternative (query every shard). The paper's argument:
most queries need only a small subset of shards, so broadcast wastes
CPU on every other shard.
"""

from conftest import EXTRA_PROPERTY_IDS

from repro.bench.datasets import build_dataset
from repro.bench.reporting import format_table
from repro.core import ZipG
from repro.workloads import LinkBenchWorkload

NUM_SHARDS = 16
QUERIES = 200


def prepare_store():
    graph = build_dataset("linkbench-small")
    store = ZipG.compress(
        graph, num_shards=NUM_SHARDS, alpha=32,
        logstore_threshold_bytes=8000,
        extra_property_ids=list(EXTRA_PROPERTY_IDS),
    )
    workload = LinkBenchWorkload(graph, seed=5)
    for operation in workload.operations(2500):  # fragment the store
        operation.run(store)
    return store, graph


def measure(store, graph):
    node_ids = graph.node_ids()
    rng_nodes = node_ids[:QUERIES]
    # Fanned updates: shards actually consulted per (node, type) query.
    pointered = 0.0
    for node in rng_nodes:
        pointered += len(store._edge_locations(node, 0))
    pointered /= QUERIES
    broadcast = store.num_shards  # every shard, every query
    # Storage cost of the pointer tables that buy this saving.
    pointer_bytes = sum(
        table.serialized_size_bytes() for table in store._pointer_tables
    )
    return pointered, broadcast, pointer_bytes


def test_ablation_fanned_updates(benchmark):
    def run():
        store, graph = prepare_store()
        return measure(store, graph) + (store.freeze_count, store.storage_footprint_bytes())

    pointered, broadcast, pointer_bytes, freezes, footprint = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print(format_table(
        "Ablation: fanned updates vs broadcast",
        ["strategy", "shards touched/query"],
        [
            ("update pointers", f"{pointered:.2f}"),
            ("broadcast", f"{broadcast}"),
        ],
    ))
    print(f"pointer-table overhead: {pointer_bytes} bytes; freezes: {freezes}")

    assert freezes >= 2  # fragmentation actually happened
    # Pointers touch a small fraction of what broadcast would.
    assert pointered < 0.3 * broadcast
    # And their storage overhead is tiny relative to the store (§3.5:
    # "the overhead of storing and updating these pointers is minimal").
    assert pointer_bytes < 0.05 * footprint

#!/usr/bin/env python3
"""A simulated distributed ZipG deployment (§4.1, Figure 4).

Places shards across simulated servers, routes a TAO query stream
through function-shipping aggregators, and reports per-server load,
messages and the throughput scaling relative to a single server --
the Figure 9 experiment in miniature.

Run:  python examples/distributed_cluster.py
"""

import numpy as np

from repro.bench.harness import run_mixed_workload
from repro.bench.memory_model import CostModel
from repro.bench.systems import ZipGSystem
from repro.cluster.sim import SimulatedZipGCluster, run_distributed_workload
from repro.core import ZipG
from repro.workloads import TAOWorkload
from repro.workloads.graphs import social_graph
from repro.workloads.properties import TAOPropertyModel

NUM_SERVERS = 6
CORES_PER_SERVER = 8
SINGLE_SERVER_CORES = 32
OPERATIONS = 400


def main() -> None:
    graph = social_graph(200, avg_degree=8, seed=5, property_scale=0.3)
    extra = TAOPropertyModel(np.random.default_rng(0)).property_ids() + ["payload"]
    cost_model = CostModel()
    budget = 4 * graph.on_disk_size_bytes()

    store = ZipG.compress(graph, num_shards=NUM_SERVERS * 2, alpha=32,
                          extra_property_ids=extra)
    cluster = SimulatedZipGCluster(store, NUM_SERVERS)
    print(f"cluster: {NUM_SERVERS} servers x {CORES_PER_SERVER} cores, "
          f"{store.num_shards} shards (2 per server), "
          f"LogStore on server {cluster.logstore_server}\n")

    workload = TAOWorkload(graph, seed=3)
    result = run_distributed_workload(
        cluster, workload.operations(OPERATIONS), cost_model, budget,
        cores_per_server=CORES_PER_SERVER, workload_name="tao",
    )

    print(f"{'server':>8}{'busy (ms)':>12}{'messages':>10}")
    for server in cluster.servers:
        print(f"{server.server_id:>8}{server.busy_ns / 1e6:>12.2f}{server.messages:>10}")

    print(f"\ndistributed: {result.throughput_kops:,.0f} KOps "
          f"(imbalance {result.load_imbalance:.2f}x, "
          f"{result.servers_touched_per_op:.2f} servers touched per op)")

    single = ZipGSystem.load(graph, num_shards=4, alpha=32, extra_property_ids=extra)
    single_result = run_mixed_workload(
        single, TAOWorkload(graph, seed=3).operations(OPERATIONS),
        cost_model, budget, cores=SINGLE_SERVER_CORES,
    )
    scaling = result.throughput_kops / single_result.throughput_kops
    print(f"single 32-core server: {single_result.throughput_kops:,.0f} KOps")
    print(f"distributed scaling: {scaling:.2f}x "
          f"(cores grew {NUM_SERVERS * CORES_PER_SERVER / SINGLE_SERVER_CORES:.2f}x)")


if __name__ == "__main__":
    main()

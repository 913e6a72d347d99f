"""Figure 9: distributed-cluster throughput (10 servers x 8 cores).

Paper shape: (a) TAO -- ZipG's distributed throughput scales roughly
with the core count (10x8 cores = 2.5x the 32-core single server);
Titan also gains (more aggregate memory). (b) LinkBench -- ZipG scales
*sub*-linearly: hot-node skew concentrates load on a few servers.
(c) Graph Search -- Titan's global-index search confines GS3 to <=2
servers while ZipG broadcasts to all, so Titan's search scaling looks
relatively better.
"""

from conftest import (
    COST_MODEL,
    EXTRA_PROPERTY_IDS,
    cached_system,
    dataset_budget,
    workload_for,
    graph_search_workload,
)

from repro.bench.datasets import build_dataset
from repro.bench.harness import run_mixed_workload
from repro.bench.reporting import format_table
from repro.cluster.sim import SimulatedZipGCluster, TitanCluster, run_distributed_workload
from repro.core import ZipG

NUM_SERVERS = 10
CORES_PER_SERVER = 8
SINGLE_SERVER_CORES = 32
OPS = 250


def build_zipg_cluster(dataset_name):
    graph = build_dataset(dataset_name)
    store = ZipG.compress(
        graph, num_shards=NUM_SERVERS * 2, alpha=32,
        extra_property_ids=list(EXTRA_PROPERTY_IDS),
    )
    return SimulatedZipGCluster(store, NUM_SERVERS)


def cluster_budget(dataset_name) -> int:
    # 10 x m3.2xlarge ~ 300 GB vs one r3.8xlarge's 244 GB: scale the
    # single-server budget by the same 300/244 factor.
    return int(dataset_budget(dataset_name) * 300 / 244)


def test_figure9_distributed(benchmark):
    def run():
        results = {}
        for workload_name, dataset_name in (
            ("tao", "twitter"),
            ("linkbench", "linkbench-medium"),
            ("graph-search", "twitter"),
        ):
            if workload_name == "graph-search":
                make_ops = lambda seed: graph_search_workload(dataset_name, seed=seed).operations(OPS)
            else:
                make_ops = lambda seed: workload_for(dataset_name, seed=seed).operations(OPS)
            zipg_cluster = build_zipg_cluster(dataset_name)
            titan_cluster = TitanCluster(build_dataset(dataset_name), NUM_SERVERS)
            titan_c_cluster = TitanCluster(
                build_dataset(dataset_name), NUM_SERVERS, compressed=True
            )
            results[workload_name] = {
                "zipg-distributed": run_distributed_workload(
                    zipg_cluster, make_ops(5), COST_MODEL,
                    cluster_budget(dataset_name), CORES_PER_SERVER, workload_name,
                ),
                "titan-distributed": run_distributed_workload(
                    titan_cluster, make_ops(5), COST_MODEL,
                    cluster_budget(dataset_name), CORES_PER_SERVER, workload_name,
                ),
                "titan-c-distributed": run_distributed_workload(
                    titan_c_cluster, make_ops(5), COST_MODEL,
                    cluster_budget(dataset_name), CORES_PER_SERVER, workload_name,
                ),
                "zipg-single": run_mixed_workload(
                    cached_system("zipg", dataset_name), make_ops(5), COST_MODEL,
                    dataset_budget(dataset_name), cores=SINGLE_SERVER_CORES,
                    workload_name=workload_name,
                ),
            }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for workload_name, cells in results.items():
        rows.append([
            workload_name,
            f"{cells['zipg-distributed'].throughput_kops:.0f}",
            f"{cells['titan-distributed'].throughput_kops:.0f}",
            f"{cells['titan-c-distributed'].throughput_kops:.0f}",
            f"{cells['zipg-single'].throughput_kops:.0f}",
            f"{cells['zipg-distributed'].load_imbalance:.2f}x",
        ])
    print(format_table(
        "Figure 9: distributed cluster (10 servers x 8 cores)",
        ["workload", "zipg-dist", "titan-dist", "titan-c-dist",
         "zipg-single(32c)", "zipg imbalance"],
        rows,
    ))

    tao = results["tao"]
    linkbench = results["linkbench"]
    search = results["graph-search"]
    # (a) TAO: distributed ZipG gains over the single 32-core server,
    # in the direction of the 2.5x core-count increase.
    tao_scaling = tao["zipg-distributed"].throughput_kops / tao["zipg-single"].throughput_kops
    assert tao_scaling > 1.2, f"TAO distributed scaling {tao_scaling:.2f}"
    # (b) LinkBench: skew concentrates load -> worse imbalance than TAO,
    # hence sub-proportional scaling.
    assert (
        linkbench["zipg-distributed"].load_imbalance
        > tao["zipg-distributed"].load_imbalance
    )
    lb_scaling = (
        linkbench["zipg-distributed"].throughput_kops
        / linkbench["zipg-single"].throughput_kops
    )
    assert lb_scaling < tao_scaling
    # (c) Graph Search: ZipG's broadcast search spreads work across all
    # servers while Titan's index confines it -- Titan touches fewer
    # servers per op.
    assert (
        search["titan-distributed"].servers_touched_per_op
        < search["zipg-distributed"].servers_touched_per_op
    )
    # ZipG still leads in absolute terms at this (twitter) scale, and
    # Titan uncompressed stays above Titan-Compressed (footnote 7).
    assert tao["zipg-distributed"].throughput_kops > tao["titan-distributed"].throughput_kops
    assert (
        tao["titan-distributed"].throughput_kops
        > tao["titan-c-distributed"].throughput_kops
    )

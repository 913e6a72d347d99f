"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``                       -- version + registry overview
* ``datasets``                   -- the Table 4 dataset inventory
* ``footprint [--dataset D]``    -- Figure 5's ratios for one dataset
* ``workload [--dataset D] [--workload W] [--ops N]``
                                 -- run a workload across all systems
* ``query --file PATH "ZIPQL"``  -- compress a graph file and query it
* ``verify-store PATH``          -- offline store-integrity audit
                                    (manifest, CRCs, WAL tail; non-zero
                                    exit on any issue)
* ``ec-encode --file PATH --ec-root DIR --num-servers N``
                                 -- erasure-code a graph's snapshot into
                                    per-server fragment directories
* ``serve-shard (--file PATH | --store-root DIR [--load-mode mmap])
  --server-id N [--port P] [--ec-dir DIR]``
                                 -- run one shard-server process, either
                                    compressing a graph file or serving
                                    a saved snapshot (optionally
                                    memory-mapped, zero-copy)
* ``serve-master --file PATH --shard ID=HOST:PORT ...``
                                 -- run the client-facing master
* ``serve-gateway --master-port P``
                                 -- run the admission-controlled gateway
                                    in front of a master

The graph file format accepted by ``query`` and the ``serve-*``
commands is the canonical text form used for raw-size accounting:
``N <id> <pid>=<value>;...`` node lines and ``E <src> <dst> <type>
<ts>`` edge lines.

The serving commands print one ``LISTENING <host> <port>`` line on
stdout once the socket is bound (``--port 0`` picks a free port), then
serve until killed -- the contract process supervisors and the e2e
tests rely on.  Every server process must be seeded from the *same*
graph file: replicas start identical and stay aligned through the
master's LSN-stamped ``apply_write`` replication stream.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import repro
from repro.bench.datasets import DATASETS, build_dataset, memory_budget_bytes
from repro.bench.harness import run_mixed_workload
from repro.bench.memory_model import CostModel
from repro.bench.systems import SYSTEMS, build_system
from repro.core import GraphData, ZipG
from repro.query import QueryEngine
from repro.workloads import GraphSearchWorkload, LinkBenchWorkload, TAOWorkload

_EXTRA_IDS = (
    ["city", "interest"] + [f"attr{i:02d}" for i in range(38)] + ["payload", "data"]
)


def _cmd_info(_args) -> int:
    print(f"repro-zipg {repro.__version__}")
    print(f"systems:  {', '.join(SYSTEMS)}")
    print(f"datasets: {', '.join(DATASETS)}")
    print("workloads: tao, linkbench, graph-search")
    return 0


def _cmd_datasets(_args) -> int:
    print(f"{'dataset':<20}{'nodes':>8}{'edges':>8}{'raw MB':>10}{'budget MB':>11}")
    for name in DATASETS:
        graph = build_dataset(name)
        budget = memory_budget_bytes(name, graph)
        print(f"{name:<20}{graph.num_nodes:>8}{graph.num_edges:>8}"
              f"{graph.on_disk_size_bytes() / 1e6:>10.2f}{budget / 1e6:>11.2f}")
    return 0


def _cmd_footprint(args) -> int:
    graph = build_dataset(args.dataset)
    raw = graph.on_disk_size_bytes()
    print(f"{args.dataset}: raw {raw / 1e6:.2f} MB")
    for name in ("neo4j", "titan", "titan-compressed", "zipg"):
        system = build_system(name, graph, extra_property_ids=_EXTRA_IDS)
        footprint = system.storage_footprint_bytes()
        print(f"  {name:<18} {footprint / 1e6:8.2f} MB  ({footprint / raw:5.2f}x raw)")
    return 0


def _make_workload(name: str, graph, seed: int):
    if name == "tao":
        return TAOWorkload(graph, seed=seed)
    if name == "linkbench":
        return LinkBenchWorkload(graph, seed=seed)
    if name == "graph-search":
        return GraphSearchWorkload(graph, seed=seed)
    raise SystemExit(f"unknown workload {name!r}")


def _cmd_workload(args) -> int:
    graph = build_dataset(args.dataset)
    budget = memory_budget_bytes(args.dataset, graph)
    cost_model = CostModel()
    print(f"{args.workload} x {args.ops} ops on {args.dataset} "
          f"(budget {budget / 1e6:.2f} MB):")
    for name in SYSTEMS:
        system = build_system(name, graph, extra_property_ids=_EXTRA_IDS)
        workload = _make_workload(args.workload, graph, args.seed)
        result = run_mixed_workload(
            system, workload.operations(args.ops), cost_model, budget,
            workload_name=args.workload,
        )
        print(" ", result.row())
    return 0


def _load_graph_file(path: str) -> GraphData:
    graph = GraphData()
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if fields[0] == "N":
                properties = {}
                for pair in fields[2:]:
                    for item in pair.split(";"):
                        if item:
                            key, _, value = item.partition("=")
                            properties[key] = value
                graph.add_node(int(fields[1]), properties)
            elif fields[0] == "E":
                timestamp = int(fields[4]) if len(fields) > 4 else 0
                edge_type = int(fields[3]) if len(fields) > 3 else 0
                graph.add_edge(int(fields[1]), int(fields[2]), edge_type, timestamp)
            else:
                raise SystemExit(f"{path}:{line_number}: unknown record {fields[0]!r}")
    return graph


def _cmd_experiments(args) -> int:
    from repro.bench.report import run_report

    run_report(datasets=args.datasets or None, ops=args.ops)
    return 0


def _cmd_check(args) -> int:
    from repro.analysis.__main__ import main as analysis_main

    forwarded = list(args.paths)
    if args.json:
        forwarded.append("--json")
    if args.rules:
        forwarded.extend(["--rules", args.rules])
    return analysis_main(forwarded)


def _cmd_stats(args) -> int:
    """Run a traced workload on ZipG and dump the observability state."""
    from repro import obs

    graph = build_dataset(args.dataset)
    system = build_system(
        "zipg", graph, num_shards=args.shards, extra_property_ids=_EXTRA_IDS
    )
    workload = _make_workload(args.workload, graph, args.seed)
    budget = memory_budget_bytes(args.dataset, graph)
    cache = None
    if args.cache_budget:
        cache = system.store.enable_cache(args.cache_budget)

    obs.reset()
    obs.enable_tracing(args.sample_rate)
    try:
        run_mixed_workload(
            system, workload.operations(args.ops), CostModel(), budget,
            workload_name=args.workload,
        )
    finally:
        obs.disable_tracing()

    if args.format == "prometheus":
        print(obs.prometheus_text(obs.get_registry()), end="")
    elif args.format == "json":
        print(obs.json_snapshot(obs.get_registry(), obs.get_tracer(), indent=2))
    else:
        tracer = obs.get_tracer()
        print(f"{args.workload} x {args.ops} ops on {args.dataset} "
              f"(sample rate {args.sample_rate}):")
        print(f"{'layer':<14}{'spans':>10}{'time ms':>12}")
        for layer, values in sorted(tracer.layer_breakdown().items()):
            print(f"{layer:<14}{values['spans']:>10.0f}"
                  f"{values['time_us'] / 1e3:>12.2f}")
        print(f"\n{'span':<32}{'count':>8}{'p50 us':>10}{'p95 us':>10}"
              f"{'p99 us':>10}")
        for name, summary in sorted(tracer.span_summary().items()):
            print(f"{name:<32}{summary['count']:>8.0f}{summary['p50']:>10.1f}"
                  f"{summary['p95']:>10.1f}{summary['p99']:>10.1f}")
        storage = system.store.snapshot_metrics()["storage"]
        print(f"\nstorage: load_mode={storage['load_mode']} "
              f"encoding={storage['encoding']} "
              f"mmap_bytes={storage['mmap_bytes']:.0f}")
        if cache is not None:
            snap = cache.stats()
            print(f"\nhot-set cache (budget {snap['budget_bytes']} B):")
            print(f"  zipg_cache_hits_total      {snap['hits']}")
            print(f"  zipg_cache_misses_total    {snap['misses']}")
            print(f"  zipg_cache_evictions_total {snap['evictions']}")
            print(f"  zipg_cache_bytes_total     {snap['bytes']}")
            print(f"  hit ratio                  {snap['hit_ratio']:.3f}")
    return 0


def _cmd_query(args) -> int:
    graph = _load_graph_file(args.file)
    store = ZipG.compress(graph, num_shards=args.shards, alpha=args.alpha)
    engine = QueryEngine(store, graph.node_ids())
    result = engine.execute(args.zipql)
    print("\t".join(result.columns))
    for row in result:
        print("\t".join(str(row[column]) for column in result.columns))
    print(f"({len(result)} rows)", file=sys.stderr)
    return 0


def _cmd_verify_store(args) -> int:
    from repro.core.persistence import verify_store

    report = verify_store(args.root, ec_root=args.ec_root)
    if args.json:
        import json

        print(json.dumps(report.to_payload(), indent=2))
    else:
        checked = f"{report.files_checked} snapshot file(s)"
        if args.ec_root:
            checked += f", {report.fragments_checked} fragment(s)"
        status = "OK" if report.ok else f"{len(report.issues)} ISSUE(S)"
        print(f"{args.root}: {status} "
              f"(generation {report.generation}, {checked}, "
              f"{report.wal_records} WAL record(s))")
        for issue in report.issues:
            print(f"  [{issue.kind}] {issue.detail}")
    return 0 if report.ok else 1


def _cmd_ec_encode(args) -> int:
    """Erasure-code a graph's committed snapshot for an ec cluster.

    Builds the store the same deterministic way the ``serve-*``
    commands do, snapshots it under ``<ec-root>/snapshot``, and splits
    every snapshot file into ``k+m`` placed fragments under
    ``<ec-root>/server-<id>/``."""
    import os

    from repro.core.persistence import save_store
    from repro.ec import ErasureCodedSnapshots

    graph = _load_graph_file(args.file)
    store = ZipG.compress(graph, num_shards=args.shards, alpha=args.alpha)
    snapshot_root = os.path.join(args.ec_root, "snapshot")
    save_store(store, snapshot_root)
    snaps = ErasureCodedSnapshots.encode_snapshot(
        snapshot_root, args.ec_root, num_servers=args.num_servers,
        k=args.k, m=args.m,
    )
    manifest = snaps.manifest
    ratio = (manifest.storage_bytes() / manifest.data_bytes()
             if manifest.data_bytes() else 0.0)
    print(f"ENCODED {args.ec_root} generation={manifest.generation} "
          f"k={manifest.k} m={manifest.m} files={len(manifest.files)} "
          f"fragment_bytes={manifest.storage_bytes()} "
          f"overhead={ratio:.3f}x", flush=True)
    return 0


def _parse_shard_address(text: str) -> tuple:
    """``"2=127.0.0.1:7002"`` -> ``(2, ("127.0.0.1", 7002))``."""
    server, eq, hostport = text.partition("=")
    host, colon, port = hostport.rpartition(":")
    if not eq or not colon or not host:
        raise SystemExit(
            f"bad --shard {text!r} (expected ID=HOST:PORT)"
        )
    try:
        return int(server), (host, int(port))
    except ValueError:
        raise SystemExit(
            f"bad --shard {text!r} (expected ID=HOST:PORT)"
        ) from None


def _serve(server) -> int:
    """Announce the bound address, then serve until interrupted."""
    host, port = server.address
    print(f"LISTENING {host} {port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass  # clean shutdown on ^C
    finally:
        server.stop()
    return 0


def _cmd_serve_shard(args) -> int:
    from repro.server.shard_server import ShardServer

    if (args.file is None) == (args.store_root is None):
        raise SystemExit("serve-shard needs exactly one of --file "
                         "(compress a graph) or --store-root (serve a "
                         "saved snapshot)")
    if args.store_root is not None:
        from repro.core.persistence import load_store

        store = load_store(args.store_root, mode=args.load_mode)
        print(f"LOADED {args.store_root} mode={store.load_mode} "
              f"encoding={store.encoding} shards={store.num_shards} "
              f"mmap_bytes={store.mapped_bytes}", flush=True)
    else:
        graph = _load_graph_file(args.file)
        store = ZipG.compress(graph, num_shards=args.shards, alpha=args.alpha)
    if args.ec_dir:
        from repro.ec import FragmentStore

        # This process answers ec_fetch_fragment / ec_store_fragment
        # for its own server id only; fragments for other servers live
        # in other processes.
        store.ec_fragment_stores = {
            args.server_id: FragmentStore(args.ec_dir)
        }
    server = ShardServer(
        store, server_id=args.server_id, host=args.host, port=args.port,
    )
    return _serve(server)


def _cmd_serve_master(args) -> int:
    from repro.cluster.replication import ReplicatedZipGCluster
    from repro.server.master import MasterServer
    from repro.server.transport import SocketTransport

    graph = _load_graph_file(args.file)
    addresses = dict(_parse_shard_address(item) for item in args.shard)
    num_servers = max(addresses) + 1
    missing = [s for s in range(num_servers) if s not in addresses]
    if missing:
        raise SystemExit(f"missing --shard entries for servers {missing}")
    store = ZipG.compress(graph, num_shards=args.shards, alpha=args.alpha)
    ec_snapshots = None
    if args.placement == "ec":
        from repro.ec import ErasureCodedSnapshots

        if not args.ec_root:
            raise SystemExit("--placement ec requires --ec-root "
                             "(see `repro ec-encode`)")
        ec_snapshots = ErasureCodedSnapshots(args.ec_root)
    cluster = ReplicatedZipGCluster(
        store, num_servers,
        replication_factor=min(args.replication, num_servers),
        retries=args.retries,
        placement=args.placement, ec_snapshots=ec_snapshots,
        rebuild_rate_bytes_s=args.rebuild_rate_bytes_s,
    )
    cluster.transport = SocketTransport(addresses, timeout_s=args.timeout_s)
    server = MasterServer(cluster, host=args.host, port=args.port)
    return _serve(server)


def _cmd_serve_gateway(args) -> int:
    from repro.gateway import GatewayConfig, GatewayServer
    from repro.server.client import ZipGClient

    backend = ZipGClient(args.master_host, args.master_port,
                         timeout_s=args.timeout_s)
    config = GatewayConfig(
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        queue_depth=args.queue_depth,
        shed_threshold=args.shed_threshold,
        dispatchers=args.dispatchers,
    )
    server = GatewayServer(backend, config, host=args.host, port=args.port)
    try:
        return _serve(server)
    finally:
        backend.close()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="ZipG reproduction command line"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("info", help="version and registry overview")
    commands.add_parser("datasets", help="Table 4 dataset inventory")

    footprint = commands.add_parser("footprint", help="Figure 5 ratios")
    footprint.add_argument("--dataset", default="orkut", choices=list(DATASETS))

    workload = commands.add_parser("workload", help="run a workload on all systems")
    workload.add_argument("--dataset", default="orkut", choices=list(DATASETS))
    workload.add_argument("--workload", default="tao",
                          choices=["tao", "linkbench", "graph-search"])
    workload.add_argument("--ops", type=int, default=200)
    workload.add_argument("--seed", type=int, default=0)

    experiments = commands.add_parser(
        "experiments", help="compact end-to-end evaluation report"
    )
    experiments.add_argument("--datasets", nargs="*", choices=list(DATASETS))
    experiments.add_argument("--ops", type=int, default=150)

    check = commands.add_parser(
        "check", help="run the repo-specific static checker (repro.analysis)"
    )
    check.add_argument("paths", nargs="*", default=["src/repro"],
                       help="files or directories to scan")
    check.add_argument("--json", action="store_true",
                       help="emit findings as JSON")
    check.add_argument("--rules", help="comma-separated rule ids to run")

    stats = commands.add_parser(
        "stats", help="run a traced workload and dump metrics/spans"
    )
    stats.add_argument("--dataset", default="orkut", choices=list(DATASETS))
    stats.add_argument("--workload", default="tao",
                       choices=["tao", "linkbench", "graph-search"])
    stats.add_argument("--ops", type=int, default=200)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--shards", type=int, default=4)
    stats.add_argument("--sample-rate", type=float, default=1.0,
                       help="trace sampling rate in (0, 1]")
    stats.add_argument("--cache-budget", type=int, default=0,
                       help="enable the hot-set cache with this byte "
                            "budget (0 = cache off)")
    stats.add_argument("--format", default="summary",
                       choices=["summary", "prometheus", "json"])

    query = commands.add_parser("query", help="compress a graph file and run ZipQL")
    query.add_argument("--file", required=True, help="graph file (N/E lines)")
    query.add_argument("--shards", type=int, default=2)
    query.add_argument("--alpha", type=int, default=16)
    query.add_argument("zipql", help="the ZipQL query text")

    verify_store = commands.add_parser(
        "verify-store", help="offline store-integrity audit"
    )
    verify_store.add_argument("root", help="store root to audit")
    verify_store.add_argument("--ec-root", default=None,
                              help="also verify the erasure-coding "
                                   "manifest and fragments under this "
                                   "directory")
    verify_store.add_argument("--json", action="store_true",
                              help="emit the typed report as JSON")

    ec_encode = commands.add_parser(
        "ec-encode", help="erasure-code a graph's snapshot into placed "
                          "fragments"
    )
    ec_encode.add_argument("--file", required=True,
                           help="graph file (N/E lines)")
    ec_encode.add_argument("--ec-root", required=True,
                           help="output directory (snapshot/, server-*/ "
                                "and ec-manifest.json land here)")
    ec_encode.add_argument("--num-servers", type=int, required=True,
                           help="servers to spread fragments across")
    ec_encode.add_argument("--k", type=int, default=4,
                           help="data fragments per file")
    ec_encode.add_argument("--m", type=int, default=2,
                           help="parity fragments per file")
    ec_encode.add_argument("--shards", type=int, default=2)
    ec_encode.add_argument("--alpha", type=int, default=16)

    serve_shard = commands.add_parser(
        "serve-shard", help="run one shard-server process"
    )
    serve_shard.add_argument("--file", default=None,
                             help="graph file (N/E lines) to compress "
                                  "at startup (exclusive with "
                                  "--store-root)")
    serve_shard.add_argument("--store-root", default=None,
                             help="saved store root to serve instead of "
                                  "compressing --file (see save_store)")
    serve_shard.add_argument("--load-mode", default="eager",
                             choices=["eager", "mmap"],
                             help="with --store-root: read shard files "
                                  "into memory (eager) or memory-map "
                                  "them zero-copy (mmap)")
    serve_shard.add_argument("--server-id", type=int, required=True,
                             help="this server's cluster id")
    serve_shard.add_argument("--host", default="127.0.0.1")
    serve_shard.add_argument("--port", type=int, default=0,
                             help="0 picks a free port (see LISTENING line)")
    serve_shard.add_argument("--shards", type=int, default=2)
    serve_shard.add_argument("--alpha", type=int, default=16)
    serve_shard.add_argument("--ec-dir", default=None,
                             help="this server's erasure-coded fragment "
                                  "directory (from `repro ec-encode`; "
                                  "enables the ec_* fragment RPCs)")

    serve_master = commands.add_parser(
        "serve-master", help="run the client-facing master process"
    )
    serve_master.add_argument("--file", required=True,
                              help="graph file (N/E lines)")
    serve_master.add_argument("--shard", action="append", required=True,
                              metavar="ID=HOST:PORT",
                              help="one shard-server address (repeatable; "
                                   "ids must cover 0..N-1)")
    serve_master.add_argument("--host", default="127.0.0.1")
    serve_master.add_argument("--port", type=int, default=0,
                              help="0 picks a free port (see LISTENING line)")
    serve_master.add_argument("--shards", type=int, default=2)
    serve_master.add_argument("--alpha", type=int, default=16)
    serve_master.add_argument("--replication", type=int, default=2,
                              help="replicas per shard (capped at the "
                                   "server count)")
    serve_master.add_argument("--retries", type=int, default=1,
                              help="extra failover passes a broadcast "
                                   "unit makes over its live replicas")
    serve_master.add_argument("--timeout-s", type=float, default=30.0,
                              help="per-connection socket timeout to shards")
    serve_master.add_argument("--placement", default="replication",
                              choices=["replication", "ec"],
                              help="fault-tolerance scheme: whole-shard "
                                   "replicas or erasure-coded fragments")
    serve_master.add_argument("--ec-root", default=None,
                              help="erasure-coding root holding "
                                   "ec-manifest.json (required with "
                                   "--placement ec)")
    serve_master.add_argument("--rebuild-rate-bytes-s", type=float,
                              default=None,
                              help="throttle for background fragment "
                                   "rebuilds (default: unthrottled)")

    serve_gateway = commands.add_parser(
        "serve-gateway", help="run the admission-controlled query gateway"
    )
    serve_gateway.add_argument("--master-host", default="127.0.0.1",
                               help="the master server to front")
    serve_gateway.add_argument("--master-port", type=int, required=True)
    serve_gateway.add_argument("--host", default="127.0.0.1")
    serve_gateway.add_argument("--port", type=int, default=0,
                               help="0 picks a free port (see LISTENING line)")
    serve_gateway.add_argument("--tenant-rate", type=float, default=500.0,
                               help="sustained per-tenant admissions/second")
    serve_gateway.add_argument("--tenant-burst", type=float, default=100.0,
                               help="per-tenant token-bucket capacity")
    serve_gateway.add_argument("--queue-depth", type=int, default=64,
                               help="per-tenant queue bound")
    serve_gateway.add_argument("--shed-threshold", type=float, default=0.75,
                               help="queue fraction past which sheddable "
                                    "reads degrade to partial results")
    serve_gateway.add_argument("--dispatchers", type=int, default=8,
                               help="dispatch slots: admitted requests at the "
                                    "backend at once")
    serve_gateway.add_argument("--timeout-s", type=float, default=30.0,
                               help="per-connection socket timeout to the "
                                    "master")

    args = parser.parse_args(argv)
    handler = {
        "info": _cmd_info,
        "datasets": _cmd_datasets,
        "footprint": _cmd_footprint,
        "workload": _cmd_workload,
        "experiments": _cmd_experiments,
        "check": _cmd_check,
        "stats": _cmd_stats,
        "query": _cmd_query,
        "verify-store": _cmd_verify_store,
        "ec-encode": _cmd_ec_encode,
        "serve-shard": _cmd_serve_shard,
        "serve-master": _cmd_serve_master,
        "serve-gateway": _cmd_serve_gateway,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

"""Erasure-coded placement on the cluster: degraded reads + rebuild.

The issue's robustness contract: with ``placement="ec"`` (k=4, m=2
fragments over 3 servers), losing any single server must yield
*complete* answers -- reconstruction from surviving fragments, not
``partial_results`` degradation -- and ``recover_server`` must rebuild
the returning server's lost fragments in the background before
re-admitting it.  With ``ZIPG_TRANSPORT=socket`` the same suites run
over real loopback RPC (fragments ride the wire as tagged base64).
"""

import pytest

from conftest import (
    TransportHook,
    chaos_seeds,
    contract_probe,
    contract_rows,
    outcome_under,
    socket_transport_enabled,
)
from repro import chaos, obs
from repro.chaos import ChaosInjector, FaultRule, SimulatedCrash
from repro.cluster import PartialResult, ReplicatedZipGCluster
from repro.cluster.replication import LOGSTORE_UNIT
from repro.core import GraphData, NodeNotFound, ZipG
from repro.core.errors import ReconstructionFailed
from repro.core.persistence import save_store
from repro.ec import ErasureCodedSnapshots

NUM_SERVERS = 3
_loopbacks = []


@pytest.fixture(autouse=True)
def no_leftover_injector():
    yield
    chaos.uninstall()
    while _loopbacks:
        _loopbacks.pop().close()


def reconstruction_count(snaps) -> float:
    """Sum of the per-file ``zipg_ec_reconstructions_total`` children."""
    return sum(
        obs.counter("zipg_ec_reconstructions_total",
                    labels={"file": name}).value
        for name in snaps.manifest.files
    )


def build_graph(num_nodes: int = 24) -> GraphData:
    graph = GraphData()
    for i in range(num_nodes):
        graph.add_node(i, {"name": f"n{i}", "kind": "x" if i % 2 else "y"})
        graph.add_edge(i, (i + 1) % 24, 0, timestamp=i,
                       properties={"w": str(i % 3)})
    return graph


def build_ec_cluster(tmp_path, cache_budget=0, snapshot_nodes=24, **kwargs):
    """A 3-server ec-placement cluster over a freshly encoded snapshot
    (of a graph with ``snapshot_nodes`` nodes; any other count than the
    store's 24 encodes files that do not match the store's shards)."""
    store = ZipG.compress(build_graph(), num_shards=4, alpha=8,
                          logstore_threshold_bytes=1 << 20)
    if cache_budget:
        store.enable_cache(cache_budget)
    root = str(tmp_path / "snap")
    ec_root = str(tmp_path / "ec")
    snapshot = store
    if snapshot_nodes != 24:
        snapshot = ZipG.compress(build_graph(snapshot_nodes), num_shards=4,
                                 alpha=8)
    save_store(snapshot, root)
    snaps = ErasureCodedSnapshots.encode_snapshot(
        root, ec_root, num_servers=NUM_SERVERS
    )
    cluster = ReplicatedZipGCluster(store, num_servers=NUM_SERVERS,
                                    placement="ec", ec_snapshots=snaps,
                                    **kwargs)
    if socket_transport_enabled():
        from repro.server.loopback import LoopbackCluster

        loopback = LoopbackCluster(store, NUM_SERVERS)
        _loopbacks.append(loopback)
        cluster.transport = loopback.transport
    return cluster, store, snaps


class TestConstruction:
    def test_ec_forces_single_replica(self, tmp_path):
        cluster, _, _ = build_ec_cluster(tmp_path)
        assert cluster.placement == "ec"
        assert cluster.replication_factor == 1

    def test_ec_requires_snapshots(self):
        store = ZipG.compress(build_graph(), num_shards=2, alpha=8)
        with pytest.raises(ValueError, match="requires ec_snapshots"):
            ReplicatedZipGCluster(store, num_servers=3, placement="ec")

    def test_snapshots_require_ec(self, tmp_path):
        cluster, store, snaps = build_ec_cluster(tmp_path)
        with pytest.raises(ValueError, match="only valid"):
            ReplicatedZipGCluster(store, num_servers=3, ec_snapshots=snaps)

    def test_footprint_counts_parity_not_copies(self, tmp_path):
        cluster, store, snaps = build_ec_cluster(tmp_path)
        single = store.storage_footprint_bytes()
        footprint = cluster.storage_footprint_bytes()
        parity = snaps.manifest.storage_bytes() - snaps.manifest.data_bytes()
        assert footprint == single + parity
        # The acceptance gate's shape: the stored redundancy is ~1.5x
        # the snapshot, far below even a 2-replica layout.
        assert snaps.manifest.storage_bytes() < 2 * snaps.manifest.data_bytes()
        gauge = obs.gauge("zipg_storage_footprint_bytes",
                          labels={"mode": "ec"})
        assert gauge.value == footprint


class TestDegradedReads:
    @pytest.mark.parametrize("down", [0, 1, 2])
    def test_single_server_loss_reads_stay_complete(self, tmp_path, down):
        """Any one dead server: plain reads succeed and equal the
        healthy answers (server 0 also owns the LogStore unit, so this
        covers the replicated-hot-tail fallback too)."""
        cluster, store, snaps = build_ec_cluster(tmp_path)
        expected_nodes = store.get_node_ids({"kind": "x"})
        expected_edges = store.find_edges("w", "1")
        before = reconstruction_count(snaps)
        cluster.fail_server(down)
        assert cluster.get_node_ids({"kind": "x"}) == expected_nodes
        assert cluster.find_edges("w", "1") == expected_edges
        if down != cluster.logstore_server or any(
            shard.shard_id % NUM_SERVERS == down for shard in store.shards
        ):
            assert reconstruction_count(snaps) > before

    def test_partial_results_come_back_complete(self, tmp_path):
        cluster, store, _ = build_ec_cluster(tmp_path)
        expected = store.get_node_ids({"kind": "x"})
        cluster.fail_server(1)
        partial = cluster.get_node_ids({"kind": "x"}, partial_results=True)
        assert isinstance(partial, PartialResult)
        assert partial.complete and not partial.errors
        assert partial.value == expected

    def test_get_node_property_fails_over_to_any_server(self, tmp_path):
        cluster, store, _ = build_ec_cluster(tmp_path)
        for down in range(NUM_SERVERS):
            cluster.fail_server(down)
            for node_id in (0, 3, 7, 11):
                assert cluster.get_node_property(node_id, "name") == \
                    {"name": f"n{node_id}"}
            cluster.recover_server(down)
            assert cluster.wait_for_rebuild(down, timeout_s=60)

    def test_two_server_loss_exceeds_the_code_budget(self, tmp_path):
        """k=4,m=2 over 3 servers tolerates exactly one loss; a second
        one degrades to structured errors, not wrong answers."""
        cluster, _, _ = build_ec_cluster(tmp_path)
        cluster.fail_server(1)
        cluster.fail_server(2)
        partial = cluster.get_node_ids({"kind": "x"}, partial_results=True)
        assert isinstance(partial, PartialResult)
        assert partial.errors

    def test_decode_chaos_surfaces_as_shard_error(self, tmp_path):
        cluster, _, _ = build_ec_cluster(tmp_path)
        cluster.fail_server(1)
        injector = ChaosInjector(seed=101, rules=[
            FaultRule(site=chaos.SITE_EC_DECODE),
        ])
        with chaos.injected(injector):
            partial = cluster.get_node_ids({"kind": "x"},
                                           partial_results=True)
        assert isinstance(partial, PartialResult)
        assert partial.errors  # injected decode failure, typed not raised


class TestFailoverContract:
    @pytest.mark.parametrize("unit,condition,seed,expected",
                             contract_rows({}))
    def test_one_affected_server(self, tmp_path, unit, condition, seed,
                                 expected):
        """Under ec every unit stays complete with one server out:
        shard units reconstruct, the LogStore unit and the
        node-property read move on to another live server."""
        cluster, store, _ = build_ec_cluster(tmp_path)
        cluster.append_node(99, {"name": "late", "kind": "x"})
        server, probe, answer = contract_probe(cluster, store, unit)
        outcome = outcome_under(cluster, condition, server, probe, seed,
                                catch_up_call="ec_has_fragment")
        assert expected is None
        assert outcome == answer

    def test_miss_is_node_not_found_after_one_rpc(self, tmp_path):
        cluster, _, _ = build_ec_cluster(tmp_path)
        hook = TransportHook(cluster)
        with pytest.raises(NodeNotFound):
            cluster.get_node_property(999, "name")
        assert [method for _s, method, _u, _c in hook.calls] == \
            ["get_node_property"]

    def test_logstore_unit_never_reads_a_rebuilding_server(self, tmp_path):
        """While the LogStore's server is held out for a throttled
        rebuild, the LogStore unit is answered by another live server,
        never by the one still catching up."""
        cluster, store, snaps = build_ec_cluster(
            tmp_path, rebuild_rate_bytes_s=512 * 1024.0
        )
        server = cluster.logstore_server
        cluster.fail_server(server)
        snaps.store_for(server).wipe()
        cluster.append_node(99, {"name": "late", "kind": "x"})
        expected = store.get_node_ids({"kind": "x"})
        during = []

        def query_mid_rebuild(target, method):
            if (target == server and method == "ec_store_fragment"
                    and not during):
                during.append(cluster.get_node_ids({"kind": "x"}))

        hook = TransportHook(cluster, on_call=query_mid_rebuild)
        cluster.recover_server(server)
        assert cluster.wait_for_rebuild(server, timeout_s=60)
        assert cluster.rebuild_error(server) is None
        assert during == [expected]
        logstore_calls = [(target, catching_up)
                          for target, _method, unit, catching_up in hook.calls
                          if unit == LOGSTORE_UNIT]
        assert any(server in catching_up for _t, catching_up in logstore_calls)
        assert all(target not in catching_up
                   for target, catching_up in logstore_calls)


class TestEpochFreshness:
    def test_degraded_reads_reflect_writes_with_cache(self, tmp_path):
        """fail -> reconstruct -> mutate -> reconstruct -> rebuild ->
        re-admit, with the hot-set cache enabled throughout: every read
        reflects the writes of its moment (epoch-keyed invalidation
        covers reconstructed stand-ins too)."""
        cluster, store, snaps = build_ec_cluster(tmp_path,
                                                 cache_budget=1 << 20)
        victims = [n for n in range(24) if store.route(n) % NUM_SERVERS == 1]
        assert victims, "need nodes owned by server 1"
        target = victims[0]
        healthy = cluster.get_node_ids({"kind": "x"})
        cluster.fail_server(1)
        # First degraded read builds the reconstruction.
        assert cluster.get_node_ids({"kind": "x"}) == healthy
        # Mutations while degraded: a delete on the dead server's shard
        # must disappear from the *next* degraded read (oplog replay
        # onto the cached reconstruction), an append must show up.
        assert cluster.delete_node(target)
        cluster.append_node(99, {"name": "n99", "kind": "x"})
        after_writes = cluster.get_node_ids({"kind": "x"})
        assert target not in after_writes
        assert 99 in after_writes
        assert 99 in cluster.get_node_ids({"kind": "x"})
        # Rebuild + re-admit; the healthy path agrees with the degraded
        # answers.
        snaps.store_for(1).wipe()
        cluster.recover_server(1)
        assert cluster.wait_for_rebuild(1, timeout_s=60)
        assert cluster.rebuild_error(1) is None
        assert not cluster.down_servers
        assert not cluster.catching_up_servers
        assert cluster.get_node_ids({"kind": "x"}) == after_writes


    def test_delete_after_reconstruction_shows_in_next_degraded_read(
            self, tmp_path):
        """No cache: the reconstructed stand-in shares the live shard's
        deletion bitmap, so node and edge deletes made after it was
        decoded show in the next degraded read."""
        cluster, store, _ = build_ec_cluster(tmp_path)
        owned = [n for n in range(24) if store.route(n) % NUM_SERVERS == 1]
        node = owned[0]
        source = next(n for n in owned if n % 3 == 1)  # its edge has w=1
        kind = "x" if node % 2 else "y"
        cluster.fail_server(1)
        assert node in cluster.get_node_ids({"kind": kind})
        assert any(hit[0] == source for hit in cluster.find_edges("w", "1"))
        assert cluster.delete_node(node)
        assert cluster.delete_edge(source, 0, source + 1) == 1
        degraded = cluster.get_node_ids({"kind": kind})
        assert node not in degraded
        assert degraded == store.get_node_ids({"kind": kind})
        degraded_edges = cluster.find_edges("w", "1")
        assert all(hit[0] != source for hit in degraded_edges)
        assert degraded_edges == store.find_edges("w", "1")

    def test_mismatched_decoded_shard_is_refused(self, tmp_path):
        """A snapshot whose shard holds other records than the live
        shard cannot take the live deletion bitmap: the degraded read
        refuses it instead of answering from misindexed bits."""
        cluster, store, _ = build_ec_cluster(tmp_path, snapshot_nodes=30)
        cluster.fail_server(1)
        with pytest.raises(ReconstructionFailed, match="live shard"):
            cluster.get_node_ids({"kind": "x"})
        partial = cluster.get_node_ids({"kind": "x"}, partial_results=True)
        assert [error.shard_id for error in partial.errors] == [1]
        assert isinstance(partial.errors[0].error, ReconstructionFailed)


class TestOplogBound:
    def test_oplog_holds_only_unacknowledged_records(self, tmp_path):
        """Under ec too, the oplog is empty while every server keeps
        up, holds exactly a downed server's missed records, and is
        empty again once recovery (catch-up, rebuild, top-up) ends."""
        cluster, _, snaps = build_ec_cluster(tmp_path)
        for i in range(10):
            cluster.append_node(100 + i, {"name": f"a{i}", "kind": "x"})
        assert cluster.commit_lsn == 10
        assert len(cluster._oplog) == 0
        cluster.fail_server(1)
        for i in range(5):
            cluster.append_node(200 + i, {"name": f"b{i}", "kind": "y"})
        assert [lsn for lsn, _op, _args in cluster._oplog] == \
            list(range(11, 16))
        snaps.store_for(1).wipe()
        cluster.recover_server(1)
        assert cluster.wait_for_rebuild(1, timeout_s=60)
        assert cluster.rebuild_error(1) is None
        assert not cluster.down_servers
        assert cluster.applied_lsn(1) == cluster.commit_lsn == 15
        assert len(cluster._oplog) == 0


class TestRebuild:
    def test_wiped_server_rebuilds_and_readmits(self, tmp_path):
        cluster, store, snaps = build_ec_cluster(tmp_path)
        manifest = snaps.manifest
        counter = obs.counter("zipg_ec_rebuilt_fragments_total")
        before = counter.value
        cluster.fail_server(1)
        wiped = snaps.store_for(1).wipe()
        assert wiped > 0
        cluster.recover_server(1)
        assert cluster.wait_for_rebuild(1, timeout_s=60)
        assert cluster.rebuild_error(1) is None
        assert not cluster.down_servers
        assert counter.value - before == wiped
        victim = snaps.store_for(1)
        for name, index in manifest.server_fragments(1):
            info = manifest.files[name].fragments[index]
            assert victim.has(name, index, info.crc32, info.bytes)

    def test_intact_fragments_are_skipped(self, tmp_path):
        """A bounce is not a disk loss: nothing to re-encode."""
        cluster, _, _ = build_ec_cluster(tmp_path)
        counter = obs.counter("zipg_ec_rebuilt_fragments_total")
        before = counter.value
        cluster.fail_server(2)
        cluster.recover_server(2)
        assert cluster.wait_for_rebuild(2, timeout_s=60)
        assert counter.value == before
        assert not cluster.down_servers

    def test_rate_limited_rebuild_completes(self, tmp_path):
        cluster, _, snaps = build_ec_cluster(
            tmp_path, rebuild_rate_bytes_s=512 * 1024.0
        )
        cluster.fail_server(1)
        snaps.store_for(1).wipe()
        cluster.recover_server(1)
        assert cluster.wait_for_rebuild(1, timeout_s=120)
        assert cluster.rebuild_error(1) is None
        assert not cluster.down_servers

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_crash_during_rebuild_then_retry(self, tmp_path, seed):
        """A crash at the ec.rebuild site sends the server back to
        down with a recorded error; a later recover_server retries
        from scratch and succeeds."""
        cluster, store, snaps = build_ec_cluster(tmp_path)
        expected = store.get_node_ids({"kind": "x"})
        cluster.fail_server(1)
        snaps.store_for(1).wipe()
        injector = ChaosInjector(seed=seed, rules=[
            FaultRule(site=chaos.SITE_EC_REBUILD, fault="crash", times=1),
        ])
        with chaos.injected(injector):
            cluster.recover_server(1)
            assert cluster.wait_for_rebuild(1, timeout_s=60)
        assert 1 in cluster.down_servers
        assert isinstance(cluster.rebuild_error(1), SimulatedCrash)
        # Degraded reads keep working while the server is back down.
        assert cluster.get_node_ids({"kind": "x"}) == expected
        # Chaos gone: the retry completes and clears the error.
        cluster.recover_server(1)
        assert cluster.wait_for_rebuild(1, timeout_s=60)
        assert cluster.rebuild_error(1) is None
        assert not cluster.down_servers
        assert cluster.get_node_ids({"kind": "x"}) == expected

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_torn_rebuild_write_never_serves_garbage(self, tmp_path, seed):
        """Torn fragment writes during rebuild: the temp+rename commit
        means a torn write leaves no fragment behind, so the rebuild
        fails loudly instead of planting a corrupt fragment."""
        cluster, _, snaps = build_ec_cluster(tmp_path)
        manifest = snaps.manifest
        cluster.fail_server(1)
        snaps.store_for(1).wipe()
        # No `times` bound: the rule also matches (and is ignored by)
        # the per-fragment progress kick, so it must stay armed until
        # it reaches an actual fragment write.
        injector = ChaosInjector(seed=seed, rules=[
            FaultRule(site=chaos.SITE_EC_REBUILD, fault="torn_write"),
        ])
        with chaos.injected(injector):
            cluster.recover_server(1)
            assert cluster.wait_for_rebuild(1, timeout_s=60)
        assert 1 in cluster.down_servers
        assert cluster.rebuild_error(1) is not None
        victim = snaps.store_for(1)
        for name, index in manifest.server_fragments(1):
            info = manifest.files[name].fragments[index]
            # Either never written (crash before commit) or verified.
            try:
                data = victim.read(name, index, info.crc32, info.bytes)
            except Exception:
                continue
            assert len(data) == info.bytes

    def test_concurrent_recover_calls_coalesce(self, tmp_path):
        cluster, _, snaps = build_ec_cluster(tmp_path)
        cluster.fail_server(1)
        snaps.store_for(1).wipe()
        cluster.recover_server(1)
        cluster.recover_server(1)  # second call is a no-op, not a race
        assert cluster.wait_for_rebuild(1, timeout_s=60)
        assert not cluster.down_servers

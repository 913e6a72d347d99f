"""The async query gateway: admission, shedding, batching, drain.

Most tests drive :class:`GatewayService` directly with a fake clock
(deterministic token buckets) and a hand-completed backend
(deterministic queue/dispatch interleavings); a final group goes over
real sockets through :class:`GatewayServer` / :class:`GatewayClient`
to pin the wire semantics -- typed ``RetryAfter`` with its hint
intact, ``GatewayClosed`` after drain, partial results under
degradation.
"""

import asyncio
import re
import threading

import pytest

from conftest import chaos_seeds
from repro import chaos, obs
from repro.obs.metrics import Counter, Gauge
from repro.chaos import ChaosInjector, FaultRule
from repro.cluster import ReplicatedZipGCluster
from repro.core import GraphData, ZipG
from repro.core.errors import GatewayClosed, RetryAfter, TransportError
from repro.gateway import (
    GatewayClient,
    GatewayConfig,
    GatewayServer,
    GatewayService,
    TokenBucket,
    resolve,
)
from repro.gateway.admission import AdmissionController
from repro.server import LoopbackCluster, MasterServer, ZipGClient


@pytest.fixture(autouse=True)
def clean_slate():
    obs.reset()
    yield
    chaos.uninstall()
    obs.reset()


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class ManualBackend:
    """call_async() stays in flight until the test completes it."""

    def __init__(self):
        self.calls = []
        self.pending = []

    async def call_async(self, method, *args, **kwargs):
        future = asyncio.get_running_loop().create_future()
        self.calls.append((method, args, kwargs))
        self.pending.append(future)
        return await future

    def complete_all(self, result="done"):
        for future in self.pending:
            if not future.done():
                future.set_result(result)


class EchoBackend:
    """call_async() answers at once with the call signature."""

    def __init__(self):
        self.calls = []

    async def call_async(self, method, *args, **kwargs):
        self.calls.append((method, args, kwargs))
        return (method, args, tuple(sorted(kwargs.items())))


def run(coro):
    return asyncio.run(coro)


async def settle(ticks=20):
    """Let every runnable task run until it parks again."""
    for _ in range(ticks):
        await asyncio.sleep(0)


async def pump(backend, waiters, result="done"):
    """Complete ManualBackend calls as dispatch issues them.

    A finishing request hands its slot to a parked one, which only
    then reaches the backend, so keep completing until every waiter
    settles.
    """
    for _ in range(2000):
        backend.complete_all(result)
        if all(w.done() for w in waiters):
            return
        await asyncio.sleep(0)
    raise AssertionError("waiters never settled")


def spawn(service, method, args, tenant):
    return asyncio.ensure_future(service.handle(method, args, tenant=tenant))


def counter_total(name):
    return sum(m.value for m in obs.get_registry().metrics()
               if isinstance(m, Counter) and m.name == name)


def gauge_values(name):
    return [m.value for m in obs.get_registry().metrics()
            if isinstance(m, Gauge) and m.name == name]


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [True, True, True, False]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        bucket.try_take(), bucket.try_take()
        assert not bucket.try_take()
        # A hair past one token's worth of time at 10/s (0.1 exactly
        # loses to float rounding in monotonic-delta arithmetic).
        clock.advance(0.101)
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_burst_caps_accumulation(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_time_to_token(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1.0, clock=clock)
        assert bucket.time_to_token() == 0.0
        bucket.try_take()
        assert bucket.time_to_token() == pytest.approx(0.25)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


class TestRouter:
    def test_read_write_admin_classification(self):
        assert resolve("get_neighbor_ids").kind == "read"
        assert resolve("append_edge").kind == "write"
        assert resolve("ping").kind == "admin"

    def test_admin_bypasses_admission(self):
        assert not resolve("topology").admission
        assert resolve("edge_count").admission

    def test_only_broadcast_reads_are_sheddable(self):
        assert resolve("get_node_ids").sheddable
        assert resolve("find_edges").sheddable
        assert not resolve("get_neighbor_ids").sheddable
        assert not resolve("append_node").sheddable

    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError):
            resolve("drop_all_tables")


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TestAdmission:
    def make(self, clock, rate=100.0, burst=50.0, depth=4, shed=0.75):
        return AdmissionController(
            tenant_rate=rate, tenant_burst=burst, queue_depth=depth,
            shed_threshold=shed, clock=clock,
        )

    def admit_and_park(self, controller, tenant="t", sheddable=False):
        """An admitted request that found every dispatch slot busy."""
        degrade = controller.admit(tenant, sheddable)
        controller.park(tenant, object())
        return degrade

    def test_queue_full_rejection_carries_retry_hint(self):
        clock = FakeClock()
        controller = self.make(clock, rate=2.0, depth=4)
        for _ in range(4):
            self.admit_and_park(controller)
        with pytest.raises(RetryAfter) as info:
            controller.admit("t", False)
        assert info.value.reason == "queue_full"
        # 4 queued at 2 admissions/s: the earliest useful retry is ~2s.
        assert info.value.retry_after_s == pytest.approx(2.0)

    def test_unparked_admissions_do_not_fill_the_queue(self):
        # Requests dispatched at once never touch the queue, so only
        # the bucket limits them.
        clock = FakeClock()
        controller = self.make(clock, depth=1)
        for _ in range(10):
            controller.admit("t", False)
        assert controller.queue_depth_of("t") == 0

    def test_rate_limit_rejection_carries_time_to_token(self):
        clock = FakeClock()
        controller = self.make(clock, rate=4.0, burst=1.0, depth=100)
        controller.admit("t", False)
        with pytest.raises(RetryAfter) as info:
            controller.admit("t", False)
        assert info.value.reason == "rate_limit"
        assert info.value.retry_after_s == pytest.approx(0.25)

    def test_degrade_flag_past_shed_threshold(self):
        clock = FakeClock()
        controller = self.make(clock, depth=4, shed=0.5)
        flags = [self.admit_and_park(controller, sheddable=True)
                 for _ in range(4)]
        # Depth at admit time: 0, 1, 2, 3 against a threshold of 2.
        assert flags == [False, False, True, True]

    def test_unsheddable_methods_never_degrade(self):
        clock = FakeClock()
        controller = self.make(clock, depth=2, shed=0.5)
        assert not self.admit_and_park(controller)
        assert not self.admit_and_park(controller)

    def test_tenants_do_not_share_buckets_or_queues(self):
        clock = FakeClock()
        controller = self.make(clock, rate=100.0, burst=2.0, depth=100)
        self.admit_and_park(controller, tenant="hot")
        self.admit_and_park(controller, tenant="hot")
        with pytest.raises(RetryAfter):
            controller.admit("hot", False)
        # The quiet tenant's bucket is untouched by the hot tenant.
        self.admit_and_park(controller, tenant="quiet")
        assert controller.queue_depth_of("hot") == 2
        assert controller.queue_depth_of("quiet") == 1

    def test_round_robin_across_tenants(self):
        clock = FakeClock()
        controller = self.make(clock, depth=100)
        for _ in range(3):
            self.admit_and_park(controller, tenant="hot")
        self.admit_and_park(controller, tenant="quiet")
        order = []
        while True:
            parked = controller.next_parked()
            if parked is None:
                break
            order.append(parked[0])
        assert order == ["hot", "quiet", "hot", "hot"]
        assert controller.depths() == {"hot": 0, "quiet": 0}


# ----------------------------------------------------------------------
# The service pipeline
# ----------------------------------------------------------------------


def config(**overrides):
    settings = dict(tenant_rate=1000.0, tenant_burst=1000.0, queue_depth=64)
    settings.update(overrides)
    return GatewayConfig(**settings)


class TestGatewayService:
    def test_request_flows_end_to_end(self):
        async def scenario():
            service = GatewayService(EchoBackend(), config(dispatchers=2))
            result = await service.handle("edge_count", [7, 0], tenant="a")
            await service.drain()
            return result

        assert run(scenario()) == ("edge_count", (7, 0), ())

    def test_free_slot_dispatches_without_parking(self):
        async def scenario():
            backend = EchoBackend()
            service = GatewayService(backend, config(dispatchers=1))
            for i in range(5):
                await service.handle("append_node", [i, {}], tenant="a")
            await service.drain()
            return len(backend.calls)

        assert run(scenario()) == 5
        assert counter_total("zipg_gateway_admitted_total") == 5
        assert counter_total("zipg_gateway_queued_total") == 0

    def test_queue_full_sheds_with_retry_after(self):
        async def scenario():
            backend = ManualBackend()
            service = GatewayService(backend, config(
                queue_depth=3, dispatchers=1))
            # One request holds the only slot; three more fill the queue.
            waiters = [spawn(service, "edge_count", [i, 0], "a")
                       for i in range(4)]
            await settle()
            depth = service.queue_depths()["a"]
            with pytest.raises(RetryAfter) as info:
                await service.handle("edge_count", [99, 0], tenant="a")
            await pump(backend, waiters)
            await service.drain()
            return info.value, depth, len(backend.calls)

        shed, depth, calls = run(scenario())
        assert shed.reason == "queue_full"
        assert shed.retry_after_s > 0
        assert depth == 3
        assert calls == 4  # the shed request never reached the backend
        assert counter_total("zipg_gateway_queued_total") == 3

    def test_rate_limit_sheds_until_the_bucket_refills(self):
        async def scenario():
            clock = FakeClock()
            service = GatewayService(EchoBackend(), config(
                tenant_rate=4.0, tenant_burst=2.0, dispatchers=1),
                clock=clock)
            for i in range(2):
                await service.handle("append_node", [i, {}], tenant="a")
            with pytest.raises(RetryAfter) as info:
                await service.handle("append_node", [2, {}], tenant="a")
            clock.advance(0.3)  # more than one token's worth at 4/s
            await service.handle("append_node", [3, {}], tenant="a")
            await service.drain()
            return info.value

        shed = run(scenario())
        assert shed.reason == "rate_limit"
        assert shed.retry_after_s == pytest.approx(0.25)

    def test_hot_tenant_cannot_starve_quiet_tenant(self):
        async def order_scenario():
            backend = ManualBackend()
            service = GatewayService(backend, config(dispatchers=1))
            hot = [spawn(service, "get_node_property", [i, "*"], "hot")
                   for i in range(20)]
            await settle()
            quiet = spawn(service, "get_node_property", [777, "*"], "quiet")
            await pump(backend, [quiet, *hot])
            await service.drain()
            return [args[0] for _, args, _ in backend.calls]

        order = run(order_scenario())
        # Behind the request in flight and one hot hand-over at most.
        assert order.index(777) <= 2
        assert sorted(order) == sorted([*range(20), 777])

    def test_identical_reads_coalesce_onto_one_backend_call(self):
        async def scenario():
            backend = ManualBackend()
            service = GatewayService(backend, config(dispatchers=8))
            waiters = [spawn(service, "edge_count", [5, 0], "a")
                       for _ in range(6)]
            other = spawn(service, "edge_count", [6, 0], "a")
            await settle()  # the riders pile up on the one flight
            calls_in_flight = len(backend.calls)
            await pump(backend, [*waiters, other], result=42)
            results = await asyncio.gather(*waiters)
            await service.drain()
            return results, calls_in_flight

        results, calls = run(scenario())
        assert results == [42] * 6
        assert calls == 2  # one flight per distinct read
        assert counter_total("zipg_gateway_batched_total") == 5

    def test_riders_outlive_a_cancelled_leader(self):
        async def scenario():
            backend = ManualBackend()
            service = GatewayService(backend, config(dispatchers=4))
            leader = spawn(service, "edge_count", [5, 0], "a")
            await settle()
            rider = spawn(service, "edge_count", [5, 0], "a")
            await settle()
            leader.cancel()
            await pump(backend, [rider], result=7)
            await service.drain()
            return rider.result(), len(backend.calls)

        assert run(scenario()) == (7, 1)

    def test_writes_never_coalesce(self):
        async def scenario():
            backend = ManualBackend()
            service = GatewayService(backend, config(dispatchers=4))
            waiters = [spawn(service, "append_edge", [1, 0, 2, 0, {}], "a")
                       for _ in range(4)]
            await pump(backend, waiters, result=None)
            await service.drain()
            return len(backend.calls)

        assert run(scenario()) == 4

    def test_degraded_reads_dispatch_with_partial_results(self):
        async def scenario():
            backend = ManualBackend()
            service = GatewayService(backend, config(
                queue_depth=4, shed_threshold=0.5, dispatchers=1),
                clock=FakeClock())
            # One in flight, four parked at depths 0..3.
            waiters = [spawn(service, "find_edges", ["kind", str(i)], "a")
                       for i in range(5)]
            await pump(backend, waiters)
            await service.drain()
            return backend.calls

        calls = run(scenario())
        degraded = [kwargs for _, _, kwargs in calls
                    if kwargs.get("partial_results")]
        # Depths 2 and 3 sat past the 0.5 * 4 threshold at admit time.
        assert len(degraded) == 2
        assert counter_total("zipg_gateway_shed_total") == 2

    def test_admin_bypasses_a_full_queue(self):
        async def scenario():
            backend = ManualBackend()
            service = GatewayService(backend, config(
                queue_depth=1, dispatchers=1))
            waiters = [spawn(service, "edge_count", [i, 0], "a")
                       for i in range(2)]
            await settle()
            with pytest.raises(RetryAfter):
                await service.handle("edge_count", [2, 0], tenant="a")
            # Admin still answers (local shim: ManualBackend has no ping).
            pong = await service.handle("ping", [], tenant="a")
            await pump(backend, waiters)
            await service.drain()
            return pong

        assert run(scenario()) == "pong"

    def test_clean_drain_completes_parked_work(self):
        async def scenario():
            backend = ManualBackend()
            service = GatewayService(backend, config(
                queue_depth=16, dispatchers=2))
            waiters = [spawn(service, "edge_count", [i, 0], f"t{i % 3}")
                       for i in range(9)]
            await settle()  # two at the backend, seven parked
            parked = sum(service.queue_depths().values())
            drainer = asyncio.ensure_future(service.drain())
            await settle()
            assert not drainer.done()
            # Drain must not reject parked work: complete the backend
            # and every waiter resolves with its result.
            await pump(backend, waiters, result="ok")
            results = await asyncio.gather(*waiters)
            await drainer
            with pytest.raises(GatewayClosed):
                await service.handle("edge_count", [0, 0], tenant="t0")
            return results, parked, service.queue_depths()

        results, parked, depths = run(scenario())
        assert results == ["ok"] * 9
        assert parked == 7
        assert all(depth == 0 for depth in depths.values())

    def test_drain_of_an_idle_service_returns_at_once(self):
        async def scenario():
            service = GatewayService(EchoBackend(), config())
            await asyncio.wait_for(service.drain(), timeout=1.0)
            return service.draining

        assert run(scenario())

    def test_abandoned_parked_request_is_skipped(self):
        async def scenario():
            backend = ManualBackend()
            service = GatewayService(backend, config(dispatchers=1))
            first = spawn(service, "edge_count", [1, 0], "a")
            await settle()
            gone = spawn(service, "edge_count", [2, 0], "a")
            last = spawn(service, "edge_count", [3, 0], "a")
            await settle()
            gone.cancel()  # its client hung up while it was parked
            await pump(backend, [first, last])
            await asyncio.wait_for(service.drain(), timeout=1.0)
            return [args[0] for _, args, _ in backend.calls]

        assert run(scenario()) == [1, 3]

    def test_slot_handed_to_a_vanishing_client_is_passed_on(self):
        async def scenario():
            backend = ManualBackend()
            service = GatewayService(backend, config(dispatchers=1))
            first = spawn(service, "edge_count", [1, 0], "a")
            await settle()
            gone = spawn(service, "edge_count", [2, 0], "a")
            await settle()
            # The client hangs up in the very instant the finishing
            # request hands it the slot: after the hand-over, before
            # the parked task resumes.
            release = service._release_slot

            def release_then_hang_up():
                release()
                service._release_slot = release
                gone.cancel()

            service._release_slot = release_then_hang_up
            await pump(backend, [first, gone])
            assert gone.cancelled()
            # The only slot must be free again, not leaked: the next
            # request dispatches and the drain completes.
            after = spawn(service, "append_node", [9, {}], "a")
            await pump(backend, [after])
            await asyncio.wait_for(service.drain(), timeout=1.0)
            return [method for method, _, _ in backend.calls]

        assert run(scenario()) == ["edge_count", "append_node"]

    def test_shed_metrics_and_depth_gauge(self):
        async def scenario():
            backend = ManualBackend()
            service = GatewayService(backend, config(
                queue_depth=2, dispatchers=1))
            waiters = [spawn(service, "edge_count", [i, 0], "m")
                       for i in range(3)]
            await settle()
            parked_gauge = max(gauge_values("zipg_gateway_queue_depth"))
            for _ in range(3):
                with pytest.raises(RetryAfter):
                    await service.handle("edge_count", [9, 0], tenant="m")
            await pump(backend, waiters)
            await service.drain()
            return parked_gauge

        assert run(scenario()) == 2
        assert counter_total("zipg_gateway_shed_total") == 3
        assert counter_total("zipg_gateway_admitted_total") == 3
        depths = gauge_values("zipg_gateway_queue_depth")
        assert depths and all(value == 0 for value in depths)


# ----------------------------------------------------------------------
# Shed-path chaos: structured failures only
# ----------------------------------------------------------------------


class TestGatewayChaos:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_admit_faults_stay_structured(self, seed):
        async def scenario():
            backend = EchoBackend()
            service = GatewayService(backend, GatewayConfig(
                tenant_rate=1000.0, tenant_burst=1000.0,
                queue_depth=64, dispatchers=2))
            outcomes = {"ok": 0, "shed": 0}
            for i in range(40):
                try:
                    await service.handle("edge_count", [i, 0], tenant="c")
                    outcomes["ok"] += 1
                except RetryAfter:
                    outcomes["shed"] += 1
            await service.drain()
            return outcomes

        injector = ChaosInjector(seed=seed, rules=[
            FaultRule(site=chaos.SITE_GATEWAY_ADMIT, fault="error",
                      probability=0.4,
                      error=RetryAfter("chaos shed", 0.01, "injected")),
        ])
        with chaos.injected(injector):
            outcomes = run(scenario())
        # Deterministic per seed; every request either succeeded or
        # shed with the typed error -- nothing leaked unstructured.
        assert outcomes["ok"] + outcomes["shed"] == 40
        assert outcomes["shed"] > 0

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_dispatch_faults_surface_per_request(self, seed):
        async def scenario():
            backend = EchoBackend()
            service = GatewayService(backend, GatewayConfig(
                tenant_rate=1000.0, tenant_burst=1000.0,
                queue_depth=64, dispatchers=2))
            ok = failed = 0
            for i in range(30):
                try:
                    await service.handle("append_node", [i, {}], tenant="c")
                    ok += 1
                except KeyError:
                    failed += 1
            await service.drain()
            return ok, failed, len(backend.calls)

        injector = ChaosInjector(seed=seed, rules=[
            FaultRule(site=chaos.SITE_GATEWAY_DISPATCH, fault="error",
                      probability=0.3, error=KeyError),
        ])
        with chaos.injected(injector):
            ok, failed, calls = run(scenario())
        assert ok + failed == 30
        assert failed > 0
        # A dispatch-site fault costs the backend nothing.
        assert calls == ok


# ----------------------------------------------------------------------
# Over the wire
# ----------------------------------------------------------------------


def make_cluster():
    graph = GraphData()
    for i in range(16):
        graph.add_node(i, {"name": f"n{i}", "kind": "x" if i % 2 else "y"})
        graph.add_edge(i, (i + 1) % 16, 0, timestamp=i)
    store = ZipG.compress(graph, num_shards=2, alpha=8,
                          logstore_threshold_bytes=1 << 20)
    return ReplicatedZipGCluster(store, num_servers=2, replication_factor=1)


class TestGatewayWire:
    def test_queries_writes_and_admin_round_trip(self):
        cluster = make_cluster()
        try:
            with GatewayServer(cluster, GatewayConfig(
                    tenant_rate=1000.0, tenant_burst=500.0,
                    queue_depth=64, dispatchers=4)) as server:
                host, port = server.address
                with GatewayClient(host, port, tenant="alice") as client:
                    assert client.ping()
                    assert client.topology()["num_shards"] == 2
                    assert client.get_neighbor_ids(0) == [1]
                    client.append_edge(0, 0, 5, timestamp=99)
                    assert sorted(client.get_neighbor_ids(0)) == [1, 5]
                    assert len(client.get_node_ids({"kind": "x"})) == 8
        finally:
            cluster.close_submitter()

    def test_retry_after_decodes_with_hint(self):
        cluster = make_cluster()
        try:
            with GatewayServer(cluster, GatewayConfig(
                    tenant_rate=0.001, tenant_burst=1.0,
                    queue_depth=2, dispatchers=1)) as server:
                host, port = server.address
                with GatewayClient(host, port, tenant="bob") as client:
                    assert client.edge_count(0, 0) == 1
                    with pytest.raises(RetryAfter) as info:
                        for _ in range(3):
                            client.edge_count(0, 0)
                    assert info.value.retry_after_s > 0
                    assert info.value.reason == "rate_limit"
        finally:
            cluster.close_submitter()

    def test_tenants_are_isolated_over_the_wire(self):
        cluster = make_cluster()
        try:
            with GatewayServer(cluster, GatewayConfig(
                    tenant_rate=0.001, tenant_burst=2.0,
                    queue_depth=64, dispatchers=2)) as server:
                host, port = server.address
                with GatewayClient(host, port, tenant="hog") as hog, \
                        GatewayClient(host, port, tenant="fair") as fair:
                    shed = 0
                    for _ in range(4):
                        try:
                            hog.edge_count(0, 0)
                        except RetryAfter:
                            shed += 1
                    assert shed >= 2  # the hog exhausted its own bucket
                    # A different tenant's bucket is untouched.
                    assert fair.edge_count(0, 0) == 1
        finally:
            cluster.close_submitter()


# ----------------------------------------------------------------------
# Run to completion: gateway -> master -> shard servers, no hand-offs
# ----------------------------------------------------------------------


class ServedStack:
    """Two loopback shard servers, a master in front of them, and a
    gateway whose backend is a ``ZipGClient`` of that master -- the
    ``serve-*`` topology in one process."""

    def __init__(self, **gateway_config):
        # Shard fan-out is serial: every thread left is a serving
        # thread, so the census below is exact.
        self.cluster = make_cluster()
        self.loopback = LoopbackCluster(self.cluster.store, num_servers=2)
        self.cluster.transport = self.loopback.transport
        self.master = MasterServer(self.cluster).start()
        self.backend = ZipGClient(*self.master.address, timeout_s=10.0)
        self.gateway = GatewayServer(
            self.backend, config(**gateway_config)).start()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.gateway.stop()
        self.backend.close()
        self.master.stop()
        self.loopback.close()


class TestRunToCompletion:
    def mixed_calls(self, client, count):
        for i in range(count):
            node = i % 16
            assert client.get_neighbor_ids(node) == [(node + 1) % 16]
            assert client.edge_count(node, 0) == 1
            assert client.get_node_property(node)["name"] == f"n{node}"
            if i % 10 == 0:
                assert len(client.get_node_ids({"kind": "x"})) == 8
                client.update_node(node, {"name": f"n{node}",
                                          "kind": "x" if node % 2 else "y"})

    def test_no_per_request_threads_anywhere_on_the_path(self):
        with ServedStack() as stack:
            with GatewayClient(*stack.gateway.address, tenant="census") \
                    as client:
                self.mixed_calls(client, 10)  # pools and fan-out warm up
                before = sorted(t.name for t in threading.enumerate())
                self.mixed_calls(client, 50)  # 200+ calls
                after = sorted(t.name for t in threading.enumerate())
        # No submission pool in the client, no worker pool (names end
        # _N) in the servers: a request stays on the thread that read it.
        handoff = re.compile(r"zipg-client-submit|zipg-(shard|master)-?\d+_\d+")
        assert [name for name in after if handoff.search(name)] == []
        assert after == before  # and nothing grows with the call count

    def test_master_killed_mid_call_is_a_typed_transport_error(self):
        injector = ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_RPC_HANDLE, fault="latency",
                      latency_s=0.5, match={"method": "edge_count",
                                            "server": -1}),
        ])
        with ServedStack() as stack:
            with GatewayClient(*stack.gateway.address, tenant="k") as client:
                assert client.edge_count(0, 0) == 1
                killer = threading.Timer(0.1, stack.master.stop)
                with chaos.injected(injector):
                    killer.start()
                    with pytest.raises(TransportError) as info:
                        client.edge_count(0, 0)
                    killer.join()
                assert "master" in str(info.value)
                # The gateway itself is fine; the master stays dead.
                assert client.ping()
                with pytest.raises(TransportError):
                    client.edge_count(0, 0)

    def test_async_client_reconnects_across_event_loops(self):
        with ServedStack() as stack:
            client = ZipGClient(*stack.master.address, timeout_s=5.0)
            try:
                for _ in range(2):  # a fresh loop each: streams are per-loop
                    assert run(client.call_async("edge_count", 0, 0)) == 1
                with pytest.raises(KeyError):
                    run(client.call_async("drop_all_tables"))
            finally:
                client.close()

    def test_async_client_timeout_is_a_transport_error(self):
        injector = ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_RPC_HANDLE, fault="latency",
                      latency_s=0.5, match={"method": "edge_count",
                                            "server": -1}),
        ])
        with ServedStack() as stack:
            client = ZipGClient(*stack.master.address, timeout_s=0.1)
            try:
                with chaos.injected(injector):
                    with pytest.raises(TransportError) as info:
                        run(client.call_async("edge_count", 0, 0))
                assert "TimeoutError" in str(info.value)
                assert run(self.call_then_aclose(client, "ping")) == "pong"
            finally:
                client.close()

    @staticmethod
    async def call_then_aclose(client, method, *args):
        try:
            return await client.call_async(method, *args)
        finally:
            await client.aclose()

"""The query gateway: admission, shedding, batching, drain.

Most tests drive :class:`GatewayService` directly with a fake clock
(deterministic token buckets) and a hand-completed backend: each
request runs on its own thread, as on a served gateway's connection
threads, and each backend call parks until the test releases it
(deterministic queue/dispatch interleavings).  A final group goes over
real sockets through :class:`GatewayServer` / :class:`GatewayClient`
to pin the wire semantics -- typed ``RetryAfter`` with its hint
intact, ``GatewayClosed`` after drain, partial results under
degradation.
"""

import re
import socket
import sys
import threading
import time

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
    """Every call parks on its own ``threading.Event`` until the test
    releases it; after :meth:`release` calls answer at once."""

    def __init__(self):
        self.calls = []
        self._cond = threading.Condition()
        self._parked = []
        self._released = False
        self._result = None

    def __getattr__(self, method):
        if method.startswith("_"):
            raise AttributeError(method)

        def call(*args, **kwargs):
            done = threading.Event()
            with self._cond:
                self.calls.append((method, args, kwargs))
                if self._released:
                    done.set()
                else:
                    self._parked.append(done)
                self._cond.notify_all()
            assert done.wait(10), "backend call never released"
            return self._result

        return call

    def wait_for_calls(self, count):
        with self._cond:
            assert self._cond.wait_for(lambda: len(self.calls) >= count,
                                       timeout=5)

    def release(self, result="done"):
        """Answer every parked call, and every later one at once."""
        with self._cond:
            self._result = result
            self._released = True
            parked, self._parked = self._parked, []
        for done in parked:
            done.set()


class EchoBackend:
    """Every call answers at once with its call signature."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, method):
        if method.startswith("_"):
            raise AttributeError(method)

        def call(*args, **kwargs):
            self.calls.append((method, args, kwargs))
            return (method, args, tuple(sorted(kwargs.items())))

        return call


class Request(threading.Thread):
    """One ``service.handle`` call on its own thread -- a stand-in for
    a served gateway's connection thread."""

    def __init__(self, service, method, args, tenant):
        super().__init__(daemon=True)
        self.call = (service, method, args, tenant)
        self.value = self.error = None

    def run(self):
        service, method, args, tenant = self.call
        try:
            self.value = service.handle(method, args, tenant=tenant)
        except BaseException as exc:
            self.error = exc

    def result(self):
        self.join(5)
        assert not self.is_alive(), "request never finished"
        if self.error is not None:
            raise self.error
        return self.value


def spawn(service, method, args, tenant):
    request = Request(service, method, args, tenant)
    request.start()
    return request


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def parked_count(service):
    return sum(service.queue_depths().values())


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
        service = GatewayService(EchoBackend(), config(dispatchers=2))
        result = service.handle("edge_count", [7, 0], tenant="a")
        service.drain()
        assert result == ("edge_count", (7, 0), ())

    def test_free_slot_dispatches_without_parking(self):
        backend = EchoBackend()
        service = GatewayService(backend, config(dispatchers=1))
        for i in range(5):
            service.handle("append_node", [i, {}], tenant="a")
        service.drain()
        assert len(backend.calls) == 5
        assert counter_total("zipg_gateway_admitted_total") == 5
        assert counter_total("zipg_gateway_queued_total") == 0

    def test_queue_full_sheds_with_retry_after(self):
        backend = ManualBackend()
        service = GatewayService(backend, config(queue_depth=3,
                                                 dispatchers=1))
        # One request holds the only slot; three more fill the queue.
        requests = [spawn(service, "edge_count", [i, 0], "a")
                    for i in range(4)]
        backend.wait_for_calls(1)
        wait_until(lambda: parked_count(service) == 3)
        depth = service.queue_depths()["a"]
        with pytest.raises(RetryAfter) as info:
            service.handle("edge_count", [99, 0], tenant="a")
        backend.release()
        assert [r.result() for r in requests] == ["done"] * 4
        service.drain()
        shed = info.value
        assert shed.reason == "queue_full"
        assert shed.retry_after_s > 0
        assert depth == 3
        assert len(backend.calls) == 4  # the shed request never reached it
        assert counter_total("zipg_gateway_queued_total") == 3

    def test_rate_limit_sheds_until_the_bucket_refills(self):
        clock = FakeClock()
        service = GatewayService(EchoBackend(), config(
            tenant_rate=4.0, tenant_burst=2.0, dispatchers=1), clock=clock)
        for i in range(2):
            service.handle("append_node", [i, {}], tenant="a")
        with pytest.raises(RetryAfter) as info:
            service.handle("append_node", [2, {}], tenant="a")
        clock.advance(0.3)  # more than one token's worth at 4/s
        service.handle("append_node", [3, {}], tenant="a")
        service.drain()
        assert info.value.reason == "rate_limit"
        assert info.value.retry_after_s == pytest.approx(0.25)

    def test_hot_tenant_cannot_starve_quiet_tenant(self):
        backend = ManualBackend()
        service = GatewayService(backend, config(dispatchers=1))
        hot = [spawn(service, "get_node_property", [i, "*"], "hot")
               for i in range(20)]
        backend.wait_for_calls(1)
        wait_until(lambda: parked_count(service) == 19)
        quiet = spawn(service, "get_node_property", [777, "*"], "quiet")
        wait_until(lambda: parked_count(service) == 20)
        backend.release()
        for request in [quiet, *hot]:
            request.result()
        service.drain()
        order = [args[0] for _, args, _ in backend.calls]
        # Behind the request in flight and one hot hand-over at most.
        assert order.index(777) <= 2
        assert sorted(order) == sorted([*range(20), 777])

    def test_identical_reads_coalesce_onto_one_backend_call(self):
        backend = ManualBackend()
        service = GatewayService(backend, config(dispatchers=8))
        requests = [spawn(service, "edge_count", [5, 0], "a")
                    for _ in range(6)]
        other = spawn(service, "edge_count", [6, 0], "a")
        # The riders pile up on the one flight.
        wait_until(lambda: counter_total("zipg_gateway_batched_total") == 5)
        backend.wait_for_calls(2)
        calls_in_flight = len(backend.calls)
        backend.release(42)
        results = [r.result() for r in requests]
        other.result()
        service.drain()
        assert results == [42] * 6
        assert calls_in_flight == 2  # one flight per distinct read
        assert len(backend.calls) == 2
        assert counter_total("zipg_gateway_batched_total") == 5

    def test_writes_never_coalesce(self):
        backend = ManualBackend()
        service = GatewayService(backend, config(dispatchers=4))
        requests = [spawn(service, "append_edge", [1, 0, 2, 0, {}], "a")
                    for _ in range(4)]
        backend.wait_for_calls(4)  # all four at the backend at once
        backend.release(None)
        for request in requests:
            request.result()
        service.drain()
        assert len(backend.calls) == 4

    def test_degraded_reads_dispatch_with_partial_results(self):
        backend = ManualBackend()
        service = GatewayService(backend, config(
            queue_depth=4, shed_threshold=0.5, dispatchers=1),
            clock=FakeClock())
        # One in flight, four parked at depths 0..3.
        requests = [spawn(service, "find_edges", ["kind", str(i)], "a")
                    for i in range(5)]
        backend.wait_for_calls(1)
        wait_until(lambda: parked_count(service) == 4)
        backend.release()
        for request in requests:
            request.result()
        service.drain()
        degraded = [kwargs for _, _, kwargs in backend.calls
                    if kwargs.get("partial_results")]
        # Depths 2 and 3 sat past the 0.5 * 4 threshold at admit time.
        assert len(degraded) == 2
        assert counter_total("zipg_gateway_shed_total") == 2

    def test_admin_bypasses_a_full_queue(self):
        backend = ManualBackend()
        service = GatewayService(backend, config(queue_depth=1,
                                                 dispatchers=1))
        requests = [spawn(service, "edge_count", [i, 0], "a")
                    for i in range(2)]
        backend.wait_for_calls(1)
        wait_until(lambda: parked_count(service) == 1)
        with pytest.raises(RetryAfter):
            service.handle("edge_count", [2, 0], tenant="a")
        # Admin still answers: ping is this process's own liveness.
        assert service.handle("ping", [], tenant="a") == "pong"
        backend.release()
        for request in requests:
            request.result()
        service.drain()

    def test_clean_drain_completes_parked_work(self):
        backend = ManualBackend()
        service = GatewayService(backend, config(queue_depth=16,
                                                 dispatchers=2))
        requests = [spawn(service, "edge_count", [i, 0], f"t{i % 3}")
                    for i in range(9)]
        backend.wait_for_calls(2)
        wait_until(lambda: parked_count(service) == 7)
        drainer = threading.Thread(target=service.drain, daemon=True)
        drainer.start()
        wait_until(lambda: service.draining)
        drainer.join(0.05)
        assert drainer.is_alive()
        # Drain must not reject parked work: release the backend and
        # every request resolves with its result.
        backend.release("ok")
        assert [r.result() for r in requests] == ["ok"] * 9
        drainer.join(5)
        assert not drainer.is_alive()
        with pytest.raises(GatewayClosed):
            service.handle("edge_count", [0, 0], tenant="t0")
        assert all(depth == 0 for depth in service.queue_depths().values())

    def test_drain_of_an_idle_service_returns_at_once(self):
        service = GatewayService(EchoBackend(), config())
        drainer = threading.Thread(target=service.drain, daemon=True)
        drainer.start()
        drainer.join(1.0)
        assert not drainer.is_alive()
        assert service.draining

    def test_many_threads_keep_the_slot_invariant(self):
        """Stress: more request threads than cores, a tiny switch
        interval, and a lost update to the slot count would show up as
        more than ``dispatchers`` calls at the backend at once, a
        request that never finishes, or a drain that never returns."""
        lock = threading.Lock()
        in_flight = [0, 0]  # now, peak

        class CountingBackend:
            def edge_count(self, node, etype):
                with lock:
                    in_flight[0] += 1
                    in_flight[1] = max(in_flight)
                time.sleep(0)
                with lock:
                    in_flight[0] -= 1
                return node

        service = GatewayService(CountingBackend(), config(
            dispatchers=3, queue_depth=1000))
        threads, calls = 16, 50

        def client(offset):
            for i in range(calls):
                assert service.handle("edge_count", [offset + i, 0],
                                      tenant=f"t{offset % 3}") == offset + i

        workers = [threading.Thread(target=client, args=(k * calls,))
                   for k in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        drainer = threading.Thread(target=service.drain, daemon=True)
        drainer.start()
        drainer.join(5)
        assert not drainer.is_alive()
        assert in_flight[1] <= 3
        assert counter_total("zipg_gateway_admitted_total") == threads * calls
        assert all(d == 0 for d in service.queue_depths().values())

    def test_shed_metrics_and_depth_gauge(self):
        backend = ManualBackend()
        service = GatewayService(backend, config(queue_depth=2,
                                                 dispatchers=1))
        requests = [spawn(service, "edge_count", [i, 0], "m")
                    for i in range(3)]
        backend.wait_for_calls(1)
        wait_until(lambda: parked_count(service) == 2)
        parked_gauge = max(gauge_values("zipg_gateway_queue_depth"))
        for _ in range(3):
            with pytest.raises(RetryAfter):
                service.handle("edge_count", [9, 0], tenant="m")
        backend.release()
        for request in requests:
            request.result()
        service.drain()
        assert parked_gauge == 2
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
        service = GatewayService(EchoBackend(), GatewayConfig(
            tenant_rate=1000.0, tenant_burst=1000.0,
            queue_depth=64, dispatchers=2))
        outcomes = {"ok": 0, "shed": 0}
        injector = ChaosInjector(seed=seed, rules=[
            FaultRule(site=chaos.SITE_GATEWAY_ADMIT, fault="error",
                      probability=0.4,
                      error=RetryAfter("chaos shed", 0.01, "injected")),
        ])
        with chaos.injected(injector):
            for i in range(40):
                try:
                    service.handle("edge_count", [i, 0], tenant="c")
                    outcomes["ok"] += 1
                except RetryAfter:
                    outcomes["shed"] += 1
        service.drain()
        # Deterministic per seed; every request either succeeded or
        # shed with the typed error -- nothing leaked unstructured.
        assert outcomes["ok"] + outcomes["shed"] == 40
        assert outcomes["shed"] > 0

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_dispatch_faults_surface_per_request(self, seed):
        backend = EchoBackend()
        service = GatewayService(backend, GatewayConfig(
            tenant_rate=1000.0, tenant_burst=1000.0,
            queue_depth=64, dispatchers=2))
        ok = failed = 0
        injector = ChaosInjector(seed=seed, rules=[
            FaultRule(site=chaos.SITE_GATEWAY_DISPATCH, fault="error",
                      probability=0.3, error=KeyError),
        ])
        with chaos.injected(injector):
            for i in range(30):
                try:
                    service.handle("append_node", [i, {}], tenant="c")
                    ok += 1
                except KeyError:
                    failed += 1
        service.drain()
        assert ok + failed == 30
        assert failed > 0
        # A dispatch-site fault costs the backend nothing.
        assert len(backend.calls) == ok


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

    def test_retry_after_decodes_with_hint(self):
        cluster = make_cluster()
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

    def test_tenants_are_isolated_over_the_wire(self):
        cluster = make_cluster()
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
        # No worker pool anywhere (pool threads are named <prefix>_<n>):
        # a request stays on the thread that read it...
        assert [name for name in after
                if re.match(r"zipg-.*_\d+$", name)] == []
        # ...server threads track connections -- one client connection
        # to the gateway, one pooled gateway connection to the master --
        # and nothing grows with the call count.
        assert after.count("zipg-gateway-2-conn") == 1
        assert after.count("zipg-master-1-conn") == 1
        assert after == before

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

    @staticmethod
    def slow_edge_count():
        return ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_RPC_HANDLE, fault="latency",
                      latency_s=0.5, match={"method": "edge_count",
                                            "server": -1}),
        ])

    def test_client_timeout_is_a_transport_error(self):
        with ServedStack() as stack:
            with ZipGClient(*stack.master.address, timeout_s=0.1) as client:
                with chaos.injected(self.slow_edge_count()):
                    with pytest.raises(TransportError) as info:
                        client.edge_count(0, 0)
                assert isinstance(info.value.__cause__, socket.timeout)
                assert "master" in str(info.value)

    def test_client_reconnects_after_a_transport_error(self):
        with ServedStack() as stack:
            with ZipGClient(*stack.master.address, timeout_s=0.1) as client:
                with chaos.injected(self.slow_edge_count()):
                    with pytest.raises(TransportError):
                        client.edge_count(0, 0)
                # The timed-out connection was dropped, not reused: the
                # next calls dial a fresh one and answer normally...
                assert client.ping()
                assert client.edge_count(0, 0) == 1
                # ...and a typed remote error leaves that connection in
                # service.
                with pytest.raises(KeyError):
                    client._call("drop_all_tables")
                assert client.edge_count(1, 0) == 1

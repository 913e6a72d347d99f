"""RPC framing edge cases, the server loop's contract, and socket chaos.

The framing tests drive :mod:`repro.server.ipc` over socketpairs --
torn frames, oversized prefixes, undecodable payloads.  The
arrival-order tests pin the contract of the one server loop, for each
of its three roles (shard, master, gateway): one connection is
answered in arrival order, a slow request delays only its own
connection, and a crash at any server-side ``rpc.*`` site kills the
whole server.  The chaos matrix runs the replicated cluster over the
socket transport with seeded ``rpc.send`` / ``rpc.recv`` fault rules
and asserts every failure stays structured.
"""

import socket
import struct
import sys
import threading
import time

import pytest

from conftest import chaos_seeds
from repro import chaos
from repro.chaos import ChaosInjector, FaultRule
from repro.cluster import ReplicatedZipGCluster
from repro.core import GraphData, ZipG
from repro.core.errors import ShardCallError, TransportError
from repro.gateway import GatewayServer
from repro.server import MasterServer, ipc
from repro.server.loopback import LoopbackCluster
from repro.server.protocol import make_request, unpack_response
from repro.server.shard_server import ShardServer


@pytest.fixture(autouse=True)
def no_leftover_injector():
    yield
    chaos.uninstall()


def make_store():
    graph = GraphData()
    for i in range(16):
        graph.add_node(i, {"name": f"n{i}", "kind": "x" if i % 2 else "y"})
        graph.add_edge(i, (i + 1) % 16, 0, timestamp=i)
    return ZipG.compress(graph, num_shards=2, alpha=8,
                         logstore_threshold_bytes=1 << 20)


def pair():
    left, right = socket.socketpair()
    return left, right


#: The roles of the one server loop.
ROLES = ["shard", "master", "gateway"]


def make_server(role):
    store = make_store()
    if role == "shard":
        return ShardServer(store, server_id=0)
    cluster = ReplicatedZipGCluster(store, num_servers=2,
                                    replication_factor=1)
    if role == "master":
        return MasterServer(cluster)
    return GatewayServer(cluster)


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def ping_latency_rule(latency_s):
    """Delay the first ping any server handles."""
    return FaultRule(site=chaos.SITE_RPC_HANDLE, fault="latency",
                     latency_s=latency_s, times=1,
                     match={"method": "ping"})


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


class TestFraming:
    def test_roundtrip(self):
        left, right = pair()
        message = {"id": 7, "method": "ping", "args": [1, "a", None]}
        ipc.send_frame(left, message)
        assert ipc.recv_frame(right) == message
        left.close(), right.close()

    def test_clean_close_between_frames(self):
        left, right = pair()
        left.close()
        with pytest.raises(ipc.ConnectionClosed):
            ipc.recv_frame(right)
        right.close()

    def test_torn_header(self):
        left, right = pair()
        left.sendall(b"\x00\x00")  # zipg: ignore[RPC001] - crafting a torn frame
        left.close()
        with pytest.raises(ipc.TornFrame):
            ipc.recv_frame(right)
        right.close()

    def test_torn_payload(self):
        left, right = pair()
        frame = ipc.encode_frame({"id": 1})
        left.sendall(frame[:-2])  # zipg: ignore[RPC001] - crafting a torn frame
        left.close()
        with pytest.raises(ipc.TornFrame):
            ipc.recv_frame(right)
        right.close()

    def test_oversized_prefix_rejected_before_allocation(self):
        left, right = pair()
        huge = struct.pack(">I", ipc.MAX_FRAME_BYTES + 1)
        left.sendall(huge)  # zipg: ignore[RPC001] - crafting a hostile prefix
        with pytest.raises(ipc.FrameTooLarge):
            # The reject happens on the 4 header bytes alone: no payload
            # was ever sent, so a buggy reader would block allocating.
            ipc.recv_frame(right)
        left.close(), right.close()

    def test_oversized_payload_rejected_on_send(self):
        with pytest.raises(ipc.FrameTooLarge):
            ipc.encode_frame({"blob": "x" * (ipc.MAX_FRAME_BYTES + 1)})

    def test_undecodable_payload(self):
        left, right = pair()
        bad = b"\xff\xfe not json"
        left.sendall(  # zipg: ignore[RPC001] - crafting a corrupt frame
            struct.pack(">I", len(bad)) + bad
        )
        with pytest.raises(ipc.FrameError):
            ipc.recv_frame(right)
        left.close(), right.close()

    def test_non_object_payload(self):
        left, right = pair()
        bad = b"[1, 2, 3]"
        left.sendall(  # zipg: ignore[RPC001] - crafting a non-object frame
            struct.pack(">I", len(bad)) + bad
        )
        with pytest.raises(ipc.FrameError):
            ipc.recv_frame(right)
        left.close(), right.close()


# ----------------------------------------------------------------------
# The server loop's contract, per role
# ----------------------------------------------------------------------


class TestArrivalOrder:
    @pytest.mark.parametrize("role", ROLES)
    def test_one_connection_is_answered_in_arrival_order(self, role):
        """A server runs each request to completion on its connection's
        thread: a fast request behind a slow one waits its turn."""
        injector = ChaosInjector(rules=[ping_latency_rule(0.1)])
        with make_server(role) as server:
            sock = socket.create_connection(server.address, timeout=5.0)
            with chaos.injected(injector):
                begin = time.monotonic()
                ipc.send_frame(sock, make_request(1, "ping", []))
                ipc.send_frame(sock, make_request(2, "ping", []))
                first = ipc.recv_frame(sock)
                second = ipc.recv_frame(sock)
                elapsed = time.monotonic() - begin
            sock.close()
        assert (first["id"], second["id"]) == (1, 2)
        assert unpack_response(first) == unpack_response(second) == "pong"
        assert elapsed >= 0.1  # the second waited behind the first

    @pytest.mark.parametrize("role", ROLES)
    def test_slow_request_delays_only_its_own_connection(self, role):
        """Concurrency is the number of connections: a 0.3 s stall on
        connection A costs a ping on connection B nothing."""
        rule = ping_latency_rule(0.3)
        with make_server(role) as server:
            slow = socket.create_connection(server.address, timeout=5.0)
            fast = socket.create_connection(server.address, timeout=5.0)
            with chaos.injected(ChaosInjector(rules=[rule])):
                ipc.send_frame(slow, make_request(1, "ping", []))
                assert wait_until(lambda: rule.fired == 1)
                begin = time.monotonic()
                ipc.send_frame(fast, make_request(2, "ping", []))
                assert unpack_response(ipc.recv_frame(fast)) == "pong"
                fast_elapsed = time.monotonic() - begin
                assert unpack_response(ipc.recv_frame(slow)) == "pong"
            slow.close()
            fast.close()
        assert fast_elapsed < 0.3  # did not wait for the slow one

    @pytest.mark.parametrize("role", ROLES)
    def test_crash_at_rpc_recv_kills_the_whole_server(self, role,
                                                      monkeypatch):
        """A crash rule at the server's ``rpc.recv`` is a process death,
        like one at ``rpc.handle`` or ``rpc.send``: the listener goes
        with the connection, and nothing escapes as a thread traceback."""
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        with make_server(role) as server:
            injector = ChaosInjector(rules=[
                FaultRule(site=chaos.SITE_RPC_RECV, fault="crash",
                          match={"server": server.server_id}),
            ])
            with chaos.injected(injector):
                # The connection thread's first read fires the rule.
                sock = socket.create_connection(server.address,
                                                timeout=5.0)
                assert wait_until(lambda: server.stopped)
                sock.close()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(server.address, timeout=5.0)
        assert escaped == []


    def test_stopped_only_once_the_listener_is_closed(self):
        """``stopped`` promises refused reconnects, so it must not turn
        true before the listener is closed: with the close slowed down,
        a server mid-``stop()`` is not yet stopped."""

        class SlowClose:
            def __init__(self, listener):
                self.listener = listener
                self.closing = threading.Event()

            def accept(self):
                return self.listener.accept()

            def shutdown(self, how):
                self.listener.shutdown(how)

            def close(self):
                self.closing.set()
                time.sleep(0.5)
                self.listener.close()

        server = ShardServer(make_store(), server_id=0)
        slow = SlowClose(server._listener)
        server._listener = slow
        server.start()
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        assert slow.closing.wait(5.0)
        assert not server.stopped
        stopper.join(5.0)
        assert server.stopped
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(server.address, timeout=5.0)

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="shutdown() of a listening socket is Linux")
    def test_stop_refuses_while_the_listener_is_still_referenced(self):
        """The accept thread's poll keeps the listening socket alive
        for up to one accept tick after ``close()``, and a connect in
        that window completes.  A second reference (a ``dup``) pins the
        same state deterministically: after ``stop()`` the server must
        refuse anyway."""
        with ShardServer(make_store(), server_id=0) as server:
            held = server._listener.dup()
            try:
                server.stop()
                assert server.stopped
                with pytest.raises(ConnectionRefusedError):
                    socket.create_connection(server.address, timeout=5.0)
            finally:
                held.close()


# ----------------------------------------------------------------------
# Resets map to retryable transport errors
# ----------------------------------------------------------------------


class TestResetMapping:
    def test_dead_server_maps_to_transport_error(self):
        store = make_store()
        with LoopbackCluster(store, num_servers=2) as loopback:
            assert loopback.transport.call(0, "ping", []) == "pong"
            loopback.kill_server(0)
            with pytest.raises(TransportError) as info:
                for _ in range(3):  # pooled connection may absorb one
                    loopback.transport.call(0, "ping", [])
            # Retryable by contract: the executor and replica failover
            # only retry ShardCallError subclasses.
            assert isinstance(info.value, ShardCallError)
            # The other server is untouched.
            assert loopback.transport.call(1, "ping", []) == "pong"

    def test_mid_call_crash_resets_and_stays_structured(self):
        """A server that dies *while handling* a request (crash rule at
        ``rpc.handle``) produces a reset the client sees as a
        TransportError, never a raw socket exception."""
        store = make_store()
        injector = ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_RPC_HANDLE, fault="crash", times=1,
                      match={"method": "ping"}),
        ])
        with LoopbackCluster(store, num_servers=2) as loopback:
            with chaos.injected(injector):
                with pytest.raises(TransportError):
                    loopback.transport.call(0, "ping", [])
            # The whole server died (kill -9 model): reconnects refused.
            with pytest.raises(TransportError):
                loopback.transport.call(0, "ping", [])
            assert loopback.transport.call(1, "ping", []) == "pong"

    def test_torn_response_maps_to_transport_error(self):
        """A response torn mid-frame (server dying in ``rpc.send``)
        surfaces as TransportError, not a hang or a decode crash."""
        store = make_store()
        injector = ChaosInjector(rules=[
            # after=1: the first matching rpc.send hit is the client's
            # own request frame; the second is server 0's response.
            FaultRule(site=chaos.SITE_RPC_SEND, fault="torn_write",
                      keep_bytes=3, after=1, times=1, match={"server": 0}),
        ])
        with LoopbackCluster(store, num_servers=2) as loopback:
            with chaos.injected(injector):
                with pytest.raises(TransportError):
                    loopback.transport.call(0, "ping", [])


# ----------------------------------------------------------------------
# Socket-backend chaos matrix
# ----------------------------------------------------------------------


class TestSocketChaosMatrix:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_broadcasts_degrade_structurally_under_wire_faults(self, seed):
        """Seeded wire faults (receive resets + send latency) against
        the socket transport: every degraded broadcast stays a
        structured PartialResult whose value is a subset of the truth,
        and the cluster answers exactly once the faults stop."""
        store = make_store()
        cluster = ReplicatedZipGCluster(store, num_servers=2,
                                        replication_factor=2, retries=1)
        expected = store.get_node_ids({"kind": "x"})
        with LoopbackCluster(store, num_servers=2) as loopback:
            cluster.transport = loopback.transport
            rules = [
                FaultRule(site=chaos.SITE_RPC_RECV, probability=0.2,
                          error=ConnectionResetError),
                FaultRule(site=chaos.SITE_RPC_SEND, fault="latency",
                          probability=0.1, latency_s=0.001),
            ]
            with chaos.injected(ChaosInjector(seed=seed, rules=rules)):
                for _ in range(5):
                    result = cluster.get_node_ids({"kind": "x"},
                                                  partial_results=True)
                    assert set(result.value) <= set(expected)
                    for error in result.errors:
                        assert isinstance(error.error, Exception)
                        if error.shard_id >= 0:  # logstore unit has none
                            assert error.servers_tried
            # Faults gone: replicas recover on the next checkout.
            for server in list(cluster.down_servers):
                cluster.recover_server(server)
            healed = cluster.get_node_ids({"kind": "x"},
                                          partial_results=True)
            assert sorted(healed.value) == sorted(expected)
            assert healed.complete

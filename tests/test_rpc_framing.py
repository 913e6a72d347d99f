"""RPC framing edge cases, pipelined connections, and socket chaos.

The framing tests drive :mod:`repro.server.ipc` over socketpairs --
torn frames, oversized prefixes, undecodable payloads.  The pipelining
tests pin the client's id correlation (a gateway may answer one
connection out of order) and the threaded servers' contract: one
connection is answered in arrival order, and a slow request delays
only its own connection.  The chaos matrix runs the replicated cluster over the
socket transport with seeded ``rpc.send`` / ``rpc.recv`` fault rules
and asserts every failure stays structured.
"""

import socket
import struct
import threading
import time

import pytest

from conftest import chaos_seeds
from repro import chaos
from repro.chaos import ChaosInjector, FaultRule
from repro.cluster import ReplicatedZipGCluster
from repro.core import GraphData, ZipG
from repro.core.errors import ShardCallError, TransportError
from repro.server import ipc
from repro.server.loopback import LoopbackCluster
from repro.server.protocol import (
    RpcConnection,
    make_request,
    make_response,
    unpack_response,
)
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
# Pipelining / interleaved responses
# ----------------------------------------------------------------------


class TestInterleavedResponses:
    def test_out_of_order_responses_buffered(self):
        """Responses answered in reverse order still resolve by id."""
        client_sock, server_sock = pair()
        connection = RpcConnection(client_sock)

        def responder():
            first = ipc.recv_frame(server_sock)
            second = ipc.recv_frame(server_sock)
            ipc.send_frame(server_sock, make_response(second["id"], "late"))
            ipc.send_frame(server_sock, make_response(first["id"], "early"))

        thread = threading.Thread(target=responder)
        thread.start()
        first_id = connection.send_request("a", [])
        second_id = connection.send_request("b", [])
        assert unpack_response(connection.recv_response(first_id)) == "early"
        assert unpack_response(connection.recv_response(second_id)) == "late"
        thread.join()
        connection.close()
        server_sock.close()

    def test_one_connection_is_answered_in_arrival_order(self):
        """A server runs each request to completion on its connection's
        thread: a fast request behind a slow one waits its turn."""
        store = make_store()
        injector = ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_RPC_HANDLE, fault="latency",
                      latency_s=0.1, match={"method": "shard_inventory"}),
        ])
        with ShardServer(store, server_id=0, apply_writes=False) as server:
            sock = socket.create_connection(server.address, timeout=5.0)
            with chaos.injected(injector):
                ipc.send_frame(sock, make_request(1, "shard_inventory", []))
                ipc.send_frame(sock, make_request(2, "ping", []))
                first = ipc.recv_frame(sock)
                second = ipc.recv_frame(sock)
            sock.close()
        assert (first["id"], second["id"]) == (1, 2)
        assert len(unpack_response(first)["shards"]) == store.num_shards
        assert unpack_response(second) == "pong"

    def test_slow_request_delays_only_its_own_connection(self):
        """Concurrency is the number of connections: a 0.3 s stall on
        connection A costs a ping on connection B nothing."""
        store = make_store()
        injector = ChaosInjector(rules=[
            FaultRule(site=chaos.SITE_RPC_HANDLE, fault="latency",
                      latency_s=0.3, match={"method": "shard_inventory"}),
        ])
        with ShardServer(store, server_id=0, apply_writes=False) as server:
            slow = RpcConnection.connect(*server.address, timeout_s=5.0)
            fast = RpcConnection.connect(*server.address, timeout_s=5.0)
            with chaos.injected(injector):
                slow_id = slow.send_request("shard_inventory", [])
                begin = time.monotonic()
                assert fast.call("ping", []) == "pong"
                fast_elapsed = time.monotonic() - begin
                inventory = unpack_response(slow.recv_response(slow_id))
            assert fast_elapsed < 0.3  # did not wait for the slow one
            assert len(inventory["shards"]) == store.num_shards
            slow.close()
            fast.close()


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

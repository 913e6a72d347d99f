"""End-to-end gateway serving: real processes, full wire path.

Extends the master/shard deployment of ``test_socket_serving`` with a
``serve-gateway`` process fronting the master: two shard servers, one
master, one gateway, four separate Python processes.  A TAO-style mix
runs through :class:`GatewayClient` with answers checked against an
in-process store built from the same graph file; then one shard dies
by SIGKILL and the mix keeps answering through the master's failover
-- the gateway neither notices nor cares.  Shedding stays structured
over the wire (a tight-bucket gateway rejects with a typed
:class:`RetryAfter` carrying its hint), degraded reads come back as
:class:`PartialResult`, and every surviving process shuts down cleanly
on SIGINT -- the gateway with a client still connected, exit 0 and
nothing on stderr.
"""

import signal

import pytest

from repro.bench.systems import ZipGSystem
from repro.cluster import PartialResult
from repro.core.errors import RetryAfter
from repro.gateway import GatewayClient

from test_socket_serving import (
    Deployment,
    build_graph,
    read_listening,
    run_tao_mix,
    spawn,
    write_graph_file,
)

NUM_SHARDS = 2
ALPHA = 8


class GatewayDeployment(Deployment):
    """Shards + master + a generously-provisioned gateway in front."""

    def __init__(self, graph_file):
        super().__init__(graph_file)
        host, port = self.master_address
        gateway = spawn(
            "serve-gateway", "--master-host", host,
            "--master-port", str(port), "--port", "0",
            "--tenant-rate", "500", "--tenant-burst", "100",
            "--queue-depth", "64",
        )
        self.procs["gateway"] = gateway
        self.gateway_address = read_listening(gateway)

    def spawn_strict_gateway(self):
        """A second gateway against the same master whose bucket is
        nearly empty: two requests of burst, then structured shedding."""
        host, port = self.master_address
        gateway = spawn(
            "serve-gateway", "--master-host", host,
            "--master-port", str(port), "--port", "0",
            "--tenant-rate", "0.001", "--tenant-burst", "2",
            "--queue-depth", "4", "--dispatchers", "1",
        )
        self.procs["strict-gateway"] = gateway
        return read_listening(gateway)


@pytest.fixture
def deployment(tmp_path):
    graph_file = tmp_path / "graph.txt"
    write_graph_file(build_graph(), graph_file)
    deployment = GatewayDeployment(graph_file)
    try:
        yield deployment
    finally:
        deployment.close()


def test_gateway_mix_survives_shard_sigkill(deployment):
    graph = build_graph()
    system = ZipGSystem.load(graph, num_shards=NUM_SHARDS, alpha=ALPHA)
    host, port = deployment.gateway_address
    with GatewayClient(host, port, tenant="e2e", timeout_s=30.0) as client:
        # The gateway answers its own ping; topology forwards through
        # the gateway's backend client to the master.
        assert client.ping()
        topology = client.topology()
        assert topology["num_servers"] == 2
        assert topology["replication_factor"] == 2

        # Phase 1: the full TAO mix through four processes, every
        # answer identical to the in-process store.
        run_tao_mix(client, system)

        # Writes traverse gateway -> master -> both replicas.
        client.append_node(500, {"name": "added", "kind": "x"})
        client.append_edge(0, 1, 500, timestamp=999)
        system.append_node(500, {"name": "added", "kind": "x"})
        system.append_edge(0, 1, 500, timestamp=999)
        assert client.get_node_property(500) == \
            {"name": "added", "kind": "x"}
        assert 500 in client.get_neighbor_ids(0)

        # Phase 2: SIGKILL one shard server.  Failover is the master's
        # job; through the gateway the mix's answers do not change.
        deployment.procs["shard1"].kill()
        deployment.reap(deployment.procs["shard1"])
        run_tao_mix(client, system)

        # Degraded reads stay structured end to end: a PartialResult
        # decodes through gateway and client, complete because the
        # surviving server holds a full replica.
        partial = client.get_node_ids({"kind": "x"}, partial_results=True)
        assert isinstance(partial, PartialResult)
        assert partial.complete
        assert partial.value == system.get_node_ids({"kind": "x"})

        # A write quarantines the dead server; admin state flows
        # through the gateway untouched.
        client.append_node(501, {"name": "late", "kind": "y"})
        system.append_node(501, {"name": "late", "kind": "y"})
        assert client.down_servers() == [1]
        run_tao_mix(client, system)

    # Phase 3: a near-zero-rate gateway sheds with the typed error and
    # its retry hint intact across process and wire boundaries.
    strict_host, strict_port = deployment.spawn_strict_gateway()
    with GatewayClient(strict_host, strict_port, tenant="greedy",
                       timeout_s=30.0) as greedy:
        results = {"ok": 0}
        shed = None
        for _ in range(4):
            try:
                greedy.edge_count(0, 0)
                results["ok"] += 1
            except RetryAfter as exc:
                shed = exc
        assert results["ok"] == 2  # exactly the burst allowance
        assert shed is not None
        assert shed.reason == "rate_limit"
        assert shed.retry_after_s > 0

    # Phase 4: every survivor exits 0 on SIGINT (supervisor contract);
    # the gateways drain before their processes exit -- quietly, even
    # with a client connection still open (its reader is reaped, not
    # left for the event loop's teardown to report as an error).
    assert deployment.interrupt("strict-gateway") == 0
    with GatewayClient(host, port, tenant="e2e", timeout_s=30.0) as client:
        assert client.ping()
        gateway = deployment.procs["gateway"]
        gateway.send_signal(signal.SIGINT)
        _stdout, stderr = gateway.communicate(timeout=15)
        assert gateway.returncode == 0
        assert stderr == ""
    assert deployment.interrupt("master") == 0
    assert deployment.interrupt("shard0") == 0

"""One server process of the benchmark topology.

``python serve.py ROLE --workload NAME ...`` builds the role's server
from the public classes -- the CLI's ``serve-*`` commands load graphs
from a ``--file`` format that cannot carry edge properties or the
extra PropertyIDs the write ops need -- prints the CLI's
``LISTENING <host> <port>`` line and serves until SIGINT.  The process
also stops when its stdin reaches EOF, which happens when the launcher
dies for any reason, so a killed benchmark leaves no orphan servers.
"""

import _bootstrap  # noqa: F401  (sys.path side effect)

import argparse
import contextlib
import os
import signal
import sys
import threading
from typing import Dict, List, Tuple

from workloads import WORKLOADS, load_graph, load_system

from repro.cluster.replication import ReplicatedZipGCluster
from repro.gateway import GatewayConfig, GatewayServer
from repro.server.client import ZipGClient
from repro.server.master import MasterServer
from repro.server.shard_server import ShardServer
from repro.server.transport import SocketTransport

#: Admission provisioned far above a closed-loop client's rate: the
#: benchmark measures the request path, and any shed is a failure.
GATEWAY_CONFIG = GatewayConfig(
    tenant_rate=1e6, tenant_burst=1e6, queue_depth=1024
)


def parse_address(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host, int(port)


def build_server(args: argparse.Namespace, stack: contextlib.ExitStack):
    """The role's server; what it holds open is closed by ``stack``."""
    if args.role == "gateway":
        backend = stack.enter_context(ZipGClient(*parse_address(args.master)))
        return GatewayServer(backend, GATEWAY_CONFIG)
    workload = WORKLOADS[args.workload]
    store = load_system(workload, load_graph(workload)).store
    if args.role == "shard":
        return ShardServer(store, server_id=args.server_id)
    addresses: Dict[int, Tuple[str, int]] = {
        server_id: parse_address(address)
        for server_id, address in enumerate(args.shard)
    }
    cluster = ReplicatedZipGCluster(
        store, len(addresses), replication_factor=2, retries=1
    )
    cluster.transport = SocketTransport(addresses)
    stack.callback(cluster.transport.close)
    return MasterServer(cluster)


def _interrupt_at_stdin_eof() -> None:
    # Raw reads: a daemon thread parked inside the buffered stdin
    # object would abort interpreter shutdown.
    while os.read(sys.stdin.fileno(), 4096):
        pass
    os.kill(os.getpid(), signal.SIGINT)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=["shard", "master", "gateway"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--server-id", type=int, default=0)
    parser.add_argument("--shard", action="append", default=[],
                        help="HOST:PORT of shard server 0, 1, ... (master)")
    parser.add_argument("--master", help="HOST:PORT of the master (gateway)")
    args = parser.parse_args(argv)
    # A launcher that itself runs with SIGINT ignored (a shell's
    # background job) would pass that on; SIGINT is the stop signal.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    threading.Thread(target=_interrupt_at_stdin_eof, daemon=True).start()
    with contextlib.ExitStack() as stack:
        server = build_server(args, stack)
        stack.callback(server.stop)
        host, port = server.address
        print(f"LISTENING {host} {port}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass  # the clean-shutdown signal
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

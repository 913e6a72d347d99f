"""Launch and tear down the served topology: two shard-server
processes, a master (replication 2) and a gateway, each a
``serve.py`` child on a loopback port it picks itself.

Every child runs in its own process group with stderr captured to a
file; :meth:`Topology.close` interrupts the groups (SIGINT, the
servers' clean-shutdown signal), waits, and kills whatever is left, and
it runs on any failure during launch, so no run leaves servers behind.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

from repro.gateway import GatewayClient

_SERVE = str(Path(__file__).with_name("serve.py"))
LISTEN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
TENANT = "bench"

Address = Tuple[str, int]


class TopologyError(RuntimeError):
    """A server process failed to come up."""


def _flag(address: Address) -> str:
    return f"{address[0]}:{address[1]}"


class Topology:
    """The four live server processes of one served workload.

    ``setup_s`` is the wall time from the first spawn to the first
    broadcast read answered through the gateway -- a request that
    crosses the gateway, the master and both shard servers.
    """

    def __init__(self, workload_name: str, log_dir: Path) -> None:
        self._log_dir = log_dir
        self._procs: Dict[str, subprocess.Popen] = {}
        started = time.perf_counter()
        try:
            for server_id in (0, 1):
                self._spawn(f"shard{server_id}", "shard", "--workload",
                            workload_name, "--server-id", str(server_id))
            self.shard_addresses = [
                self._listening(f"shard{server_id}") for server_id in (0, 1)
            ]
            shard_flags = [
                flag for address in self.shard_addresses
                for flag in ("--shard", _flag(address))
            ]
            self._spawn("master", "master", "--workload", workload_name,
                        *shard_flags)
            self.master_address = self._listening("master")
            self._spawn("gateway", "gateway", "--master",
                        _flag(self.master_address))
            self.gateway_address = self._listening("gateway")
            with self.gateway_client() as client:
                if not client.ping():
                    raise TopologyError("gateway did not answer ping")
                client.get_node_ids({"city": "Ithaca"})
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def gateway_client(self) -> GatewayClient:
        return GatewayClient(*self.gateway_address, tenant=TENANT)

    def _spawn(self, label: str, *serve_args: str) -> None:
        """Start one ``serve.py`` child: own session (so own process
        group), stderr to ``<label>.stderr``, stdin held open (the
        child stops at EOF, i.e. if this process dies)."""
        with open(self._log_dir / f"{label}.stderr", "wb") as stderr:
            self._procs[label] = subprocess.Popen(
                [sys.executable, _SERVE, *serve_args],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
                start_new_session=True,
            )

    def _listening(self, label: str) -> Address:
        """The address on the child's ``LISTENING <host> <port>`` line."""
        stdout = self._procs[label].stdout
        ready, _, _ = select.select([stdout], [], [], LISTEN_TIMEOUT_S)
        words = stdout.readline().decode().split() if ready else []
        if len(words) != 3 or words[0] != "LISTENING":
            stderr = (self._log_dir / f"{label}.stderr").read_text()
            raise TopologyError(
                f"{label} did not announce its address (got {words!r}); "
                f"stderr:\n{stderr[-2000:]}"
            )
        return words[1], int(words[2])

    def close(self) -> None:
        """Stop every child, front to back, and wait for each."""
        procs, self._procs = list(self._procs.values())[::-1], {}
        for proc in procs:
            _signal_group(proc, signal.SIGINT)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for proc in procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                _signal_group(proc, signal.SIGKILL)
                proc.wait()
            proc.stdin.close()
            proc.stdout.close()

    def __enter__(self) -> "Topology":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _signal_group(proc: subprocess.Popen, signum: int) -> None:
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signum)
        except ProcessLookupError:
            pass  # exited between the poll and the signal

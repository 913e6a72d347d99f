"""Dependencies point one way: core <- cluster <- server/gateway.

The serving modules must import without the benchmark package, the
workload generators or the baseline stores (which bring the LSM store,
RPQ and traversal with them).  The check runs in a fresh interpreter,
so modules other tests imported into this one do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SERVING_MODULES = (
    "repro.server.master",
    "repro.server.shard_server",
    "repro.server.client",
    "repro.server.transport",
    "repro.gateway",
    "repro.cluster.replication",
)

FORBIDDEN_PACKAGES = (
    "repro.bench",
    "repro.workloads",
    "repro.baselines.kvgraph",
    "repro.baselines.lsm",
    "repro.baselines.pointerstore",
)


def test_serving_modules_import_no_benchmark_code():
    code = "".join(f"import {module}\n" for module in SERVING_MODULES)
    code += "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True, timeout=120,
    )
    loaded = json.loads(completed.stdout)
    leaked = [
        module for module in loaded
        if any(module == package or module.startswith(package + ".")
               for package in FORBIDDEN_PACKAGES)
    ]
    assert leaked == []

"""Put the repository's ``src`` on ``sys.path`` for the benchmark's
entry points (imported first by each), so the one command in
``BENCHMARK.json`` needs no ``PYTHONPATH``."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_SRC = REPO_ROOT / "src"

if not (_SRC / "repro").is_dir():
    sys.exit(f"benchmarks/e2e: no program to measure ({_SRC / 'repro'} is missing)")
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

"""Repeatability self-check: run the whole benchmark several times on
the same code and require the sets to agree within the benchmark's
own bounds.

    python3 benchmarks/e2e/repeat.py --sets 2 --runs 3 --out results.json

Each set runs every workload ``--runs`` times (fresh process each,
seeds ``--seed``, ``--seed``+1, ...) and takes the median of each
end-to-end metric.  For every workload x metric the script prints each
set's median, the largest relative gap between a set and the first,
and the bound from ``BENCHMARK.json``; it exits non-zero if a gap
exceeds its bound.  ``--traced`` adds one per-layer run per workload to
the JSON written to ``--out``.
"""

import _bootstrap

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

_RUN = str(Path(__file__).with_name("run.py"))
CONTRACT = json.loads((_bootstrap.REPO_ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> Dict[str, object]:
    """One ``run.py`` process; its result line, parsed."""
    command = [sys.executable, _RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", str(CONTRACT["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stdout[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def metric_values(result: Dict[str, object]) -> Dict[str, float]:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def median_set(workload: str, seeds: List[int]) -> Dict[str, float]:
    """Median of each end-to-end metric over one run per seed."""
    runs = [metric_values(run_once(workload, seed, trace=0)) for seed in seeds]
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3, help="runs per set")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, help="write the numbers here as JSON")
    args = parser.parse_args(argv)

    seeds = list(range(args.seed, args.seed + args.runs))
    bounds = {entry["name"]: entry["bound"] for entry in CONTRACT["end_to_end"]}
    report: Dict[str, object] = {
        "sets": args.sets, "seeds": seeds,
        "run_seconds": CONTRACT["run_seconds"], "workloads": {},
    }
    exceeded = 0
    for workload in (entry["name"] for entry in CONTRACT["workloads"]):
        sets = [median_set(workload, seeds) for _ in range(args.sets)]
        entry: Dict[str, object] = {"end_to_end_sets": sets}
        print(f"-- {workload}")
        for name, bound in bounds.items():
            values = [one[name] for one in sets]
            gap = max(abs(value - values[0]) / values[0] for value in values)
            over = gap > bound
            exceeded += over
            print(f"  {name:<16} " + "  ".join(f"{v:>12.6g}" for v in values)
                  + f"  gap {gap:7.4f}  bound {bound:5.2f}"
                  + ("  EXCEEDED" if over else ""))
        if args.traced:
            entry["per_layer"] = metric_values(run_once(workload, args.seed, trace=1))
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

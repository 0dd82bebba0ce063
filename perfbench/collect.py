"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py [--out FILE]

Every workload in BENCHMARK.json runs once per seed in SEEDS.  For each
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the bound in
BENCHMARK.json.  Traced runs with TRACE_SEEDS give the median of each
per-layer metric.  ``--out`` writes everything, with the environment and
the failing requests, as JSON; baseline.json was written that way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_SEEDS = range(1, 3)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    lines = done.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"seed": seed, "wall_s": time.perf_counter() - started, "env": env,
            "failing": [line for line in done.stderr.splitlines() if line.startswith("FAILED")],
            **json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(name, seed, spec["run_seconds"], 0) for seed in SEEDS]
        entry = {
            "runs": len(runs),
            "run_wall_s": max(r["wall_s"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "failing": sorted({line for r in runs for line in r["failing"]}),
            "env": runs[0]["env"],
            "end_to_end": {},
        }
        print(f"{name}: {len(runs)} runs, longest {entry['run_wall_s']:.1f} s, "
              f"failed {entry['failed']}/{entry['attempted']}, correct {entry['correct']}")
        for metric in spec["end_to_end"]:
            stats = spread([r["metrics"][metric["name"]]["value"] for r in runs])
            entry["end_to_end"][metric["name"]] = stats
            flag = "" if stats["spread"] < metric["bound"] / 3 else "  <-- above bound/3"
            print(f"  {metric['name']:12s} median {stats['median']:.5g} {metric['unit']}  "
                  f"spread {stats['spread']:.3f} (bound {metric['bound']}){flag}")
        traced = [run_once(name, seed, spec["run_seconds"], 1) for seed in TRACE_SEEDS]
        entry["per_layer"] = {
            m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced)
            for m in spec["per_layer"]
        }
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the chiralpotts order-parameter pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding ``src/chiralpotts``.  The seed
fixes the request list of the workload (see workloads.py).  Each pass
sends that whole list, one request after another, in a fresh interpreter
(perfbench/worker.py), so the program's caches start empty every pass.
Passes repeat while another one fits in ``--seconds``; a few extra
interpreters are started only to time set-up.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it makes pairs of an untraced and a traced pass, both in
the same request order, and prints the per-layer metrics, derived from
the span rows the traced passes write out.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Failing requests are listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, requests_for  # noqa: E402

SETUP_PROBES = 3
MIN_PASSES = 2
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"
COMMANDS = ("order", "identity", "appendix", "psi1", "oracle", "correlate")
ORACLE_TOL = 1e-8


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    # BLAS is pinned through the CLI's own THREADS variable: the worker
    # runs the CLI group callback, which copies it into these variables
    # before numpy loads, so values inherited from the caller are dropped.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["THREADS"] = BLAS_THREADS
    return env


def git_revision() -> str:
    """The checked-out commit, read from .git without running git (a
    benchmark checkout may have no .git at all)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    for line in (git / "packed-refs").read_text().splitlines() if (git / "packed-refs").is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return ref


def spawn(workload: str, requests: list | None, traced: bool, deadline: float) -> dict:
    """Start one worker.  Returns its set-up time, its wall time and, for
    a pass, its result; with ``requests`` None it only sets up."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
    if requests is None:
        cmd.append("--setup-only")
    if traced:
        cmd.append("--trace")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    watchdog = threading.Timer(max(deadline - started, 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        if ready.strip() != "ready":
            raise BenchError(f"worker for {workload} did not get ready")
        if requests is not None:
            proc.stdin.write(json.dumps(requests) + "\n")
        proc.stdin.close()
        lines = proc.stdout.read().splitlines()
        proc.wait()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker for {workload} exited with {proc.returncode}")
        return {"setup_s": setup_s, "wall_s": time.perf_counter() - started,
                "result": json.loads(lines[-1]), "traced": traced}
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def nearest_rank(values: list[float], share: float) -> float:
    """The smallest sample with at least ``share`` of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)), 1) - 1]


def request_medians(results: list[dict], cmd: str | None = None) -> list[float]:
    """Each request's wall time as the median over the passes, so that
    neither a stall of the machine in one pass nor the request's place in
    one pass's order moves the figures.  Pooled over the passes, the 90th
    percentile would jump between two kinds of request from seed to
    seed."""
    times: dict[int, list[float]] = {}
    for result in results:
        for op in result["ops"]:
            if cmd is None or op["cmd"] == cmd:
                times.setdefault(op["id"], []).append(op["s"])
    return [statistics.median(t) for t in times.values()]


def end_to_end(setups: list[float], passes: list[dict]) -> dict:
    plain = [p["result"] for p in passes if not p["traced"]]
    times = request_medians(plain)
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in plain),
        "op_s.p50": statistics.median(times),
        "op_s.p90": nearest_rank(times, 0.9),
        # The peak depends on the request order, which changes from pass
        # to pass; the run's peak is the largest.
        "peak_rss_mb": max(r["rss_mb"] for r in plain),
    }


def _traced_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    rows = result["trace"]["spans"]
    names = spans.summarize(rows)
    counters = result["trace"]["counters"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    calls = get("drinfeld.solve_roots", "calls")
    misses = counters.get("drinfeld.solve_roots.misses", 0)
    out = {
        "drinfeld.solve_roots.s": get("drinfeld.solve_roots", "s"),
        "drinfeld.solve_roots.calls": calls,
        "drinfeld.solve_roots.hit_ratio": (calls - misses) / calls if calls else 0.0,
        "drinfeld.roots_solved": counters.get("drinfeld.roots_solved", 0),
        "drinfeld.root_transforms.self_s": get("drinfeld.root_transforms", "self_s"),
        "drinfeld.lambda_counts.s": get("drinfeld.lambda_counts", "s"),
        "formfactor.dhat_det.s": get("formfactor.dhat_det", "s"),
        "formfactor.dhat_closed.s": get("formfactor.dhat_closed", "s"),
        "formfactor.couplings.self_s": get("formfactor.couplings", "self_s"),
        "formfactor.order_param_sq.self_s": get("formfactor.order_param_sq", "self_s"),
        "formfactor.overlap_product_closed.s": get("formfactor.overlap_product_closed", "s"),
        "formfactor.psi1_brute.self_s": get("formfactor.psi1_brute", "self_s"),
        "formfactor.orthogonality_margin": counters.get("formfactor.orthogonality_margin", 0.0),
        "combi.calG_table.s": get("combi.calG_table", "s"),
        "combi.calG_table.calls": get("combi.calG_table", "calls"),
        "combi.table_configs": counters.get("combi.table_configs", 0),
        "combi.identity_check.self_s": get("combi.identity_check", "self_s"),
        "combi.uqp_check.self_s": get("combi.uqp_check", "self_s"),
        "combi.uqp_rows": counters.get("combi.uqp_rows", 0),
        "combi.ibi_check.s": get("combi.ibi_check", "s"),
        "combi.gen_function_pair.s": get("combi.gen_function_pair", "s"),
        "lattice.build_sector_transfer.s": get("lattice.build_sector_transfer", "s"),
        "lattice.sector_spectrum.self_s": get("lattice.sector_spectrum", "self_s"),
        "lattice.eig.s": get("lattice.eig", "s"),
        "lattice.eigh.s": get("lattice.eigh", "s"),
        "lattice.build_hamiltonian.s": get("lattice.build_hamiltonian", "s"),
        "lattice.pair_correlation.s": get("lattice.pair_correlation", "s"),
        "lattice.max_sector_dim": counters.get("lattice.max_sector_dim", 0),
        "lattice.dense_bytes": counters.get("lattice.dense_bytes", 0),
        "cli.self_s": sum(entry["self_s"] for name, entry in names.items()
                          if name.startswith("request.") and name != "request.psi1"),
        "cli.report_bytes": sum(op["report_bytes"] for op in result["ops"]),
    }
    cover = spans.request_cover(rows).values()
    out["trace.coverage"] = statistics.median(c / d for d, c in cover if d > 0)
    return out


def trace_overhead(passes: list[dict]) -> float:
    """What tracing adds to a pass: per request, the median over the pairs
    of its traced minus its untraced time, summed over the requests.  The
    two passes of a pair send the requests in the same order.  Where the
    tracer costs less than the passes vary, this comes out near zero or
    below it."""
    diffs: dict[int, list[float]] = {}
    for plain, traced in zip(passes[::2], passes[1::2]):
        untraced = {op["id"]: op["s"] for op in plain["result"]["ops"]}
        for op in traced["result"]["ops"]:
            diffs.setdefault(op["id"], []).append(op["s"] - untraced[op["id"]])
    return sum(statistics.median(d) for d in diffs.values())


def per_layer(passes: list[dict]) -> dict:
    traced = [_traced_metrics(p["result"]) for p in passes if p["traced"]]
    metrics = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    plain = [p["result"] for p in passes if not p["traced"]]
    metrics["trace.overhead_s"] = trace_overhead(passes)
    for cmd in COMMANDS:
        times = request_medians(plain, cmd)
        metrics[f"{cmd}_s.p50"] = statistics.median(times) if times else 0.0
    ops = [op for p in passes for op in p["result"]["ops"]]
    metrics["failed_ops"] = sum(op["failure"] is not None for op in ops) / len(ops)
    # The samples op_s.p50 and op_s.p90 are taken over: one per request.
    metrics["op_samples"] = len(request_medians(plain))
    worst = max((op.get("oracle_worst", 0.0) for op in ops), default=0.0)
    metrics["lattice.oracle_margin"] = math.log10(worst / ORACLE_TOL) if worst > 0 else 0.0
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list, dict]:
    """Set-up probes, then passes while another one fits in ``seconds``;
    at least two passes.  With tracing, every second pass is traced and
    repeats the order of the untraced pass before it."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    setups, passes = [], []
    env = None
    for _ in range(SETUP_PROBES):
        probe = spawn(workload, None, False, deadline)
        setups.append(probe["setup_s"])
        env = probe["result"]
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - started
        # A traced run stops only between pairs, and only if no further
        # pair fits.
        step = 2 if trace else 1
        if len(passes) % step == 0 and len(passes) >= MIN_PASSES \
                and elapsed + step * longest > seconds:
            break
        traced = trace and len(passes) % 2 == 1
        order = len(passes) // 2 if trace else len(passes)
        one = spawn(workload, requests_for(workload, seed, order), traced, deadline)
        passes.append(one)
        setups.append(one["setup_s"])
        longest = max(longest, one["wall_s"])
    return setups, passes, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops and reaps its worker (see spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "chiralpotts" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no chiralpotts checkout with BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    setups, passes, env = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    values = per_layer(passes) if args.trace else end_to_end(setups, passes)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")

    ops = [op for p in passes for op in p["result"]["ops"]]
    failures: dict[str, int] = {}
    for op in ops:
        if op["failure"] is not None:
            key = f"{op['cmd']} {' '.join(map(str, op['args']))}: {op['failure']}"
            failures[key] = failures.get(key, 0) + 1
    for key, count in failures.items():
        print(f"FAILED x{count} {key}", file=sys.stderr)

    print("env " + json.dumps(dict(env, revision=git_revision()), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(ops)} requests, {len(setups)} set-ups")
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": not any(op["wrong"] for op in ops),
        "attempted": len(ops),
        "failed": sum(op["failure"] is not None for op in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)

"""One pass of a workload in a fresh interpreter.

Started by run.py.  It imports every layer the workload uses, prints one
``ready`` line, reads the request list as one JSON line on stdin, sends
the requests one after another through the ``chiralpotts`` click entry
point (psi1 as the library pair), checks every output after the timed
window and prints one JSON line with the timings and verdicts and, when
traced, every span row and counter of the pass.

    python3 perfbench/worker.py --workload NAME [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_layers(lattice: bool):
    sys.path.insert(0, str(ROOT / "src"))
    import chiralpotts.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"chiralpotts came from {cli.__file__}, not from {ROOT / 'src'}")
    # The CLI's own group callback applies THREADS to the BLAS variables;
    # it has to run before numpy loads.
    cli.main.callback()
    if lattice:
        import chiralpotts.lattice  # noqa: F401
    return cli


def _run_request(cli, runner, request: dict) -> dict:
    outcome = {"cmd": request["cmd"], "exit_code": 0, "error": None}
    if request["cmd"] == "psi1":
        from chiralpotts import formfactor

        try:
            outcome["brute"] = formfactor.psi1_brute(*request["args"])
            outcome["closed"] = formfactor.psi1_closed(*request["args"])
        except Exception as exc:  # a crash is a failed request, not a stop
            outcome["error"] = repr(exc)
        return outcome
    result = runner.invoke(cli.main, [request["cmd"], *request["args"]])
    outcome["exit_code"] = result.exit_code
    outcome["stdout"] = result.stdout
    stderr = result.stderr.splitlines()
    outcome["fail_lines"] = [line for line in stderr if line.startswith("FAIL")] or stderr[-1:]
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        outcome["error"] = repr(result.exception)
    return outcome


def _check(request: dict, outcome: dict) -> dict:
    """Verdict of one request: failure reason, whether the output was a
    wrong answer given as a success, and the oracle's worst difference."""
    import verify
    from chiralpotts.formfactor import couplings, order_param_sq, overlap_product_closed
    from workloads import option

    verdict = {"failure": verify.program_failure(outcome), "wrong": False}
    if verdict["failure"] is not None:
        return verdict
    cmd = request["cmd"]
    if cmd == "psi1":
        mismatch = verify.psi1_mismatch(outcome["brute"], outcome["closed"])
    else:
        report = verify.parse_report(outcome)
        N, L = int(option(request, "--N")), int(option(request, "--L"))
        kp = option(request, "--kp")
        if cmd == "order":
            closed = order_param_sq(N, int(option(request, "--r")), kp, L, method="closed")
            mismatch = verify.order_mismatch(report, closed)
        elif cmd == "correlate":
            r = int(option(request, "--r"))
            average = sum(
                float(overlap_product_closed(couplings(N, L, Q=q, P=(q - r) % N, kp=kp)))
                for q in range(N)
            ) / N
            mismatch = verify.correlate_mismatch(report, average)
        elif cmd == "oracle":
            verdict["oracle_worst"] = verify.oracle_worst(report)
            mismatch = None
        else:
            mismatch = None
    if mismatch is not None:
        verdict["failure"] = mismatch
        verdict["wrong"] = True
    return verdict


def environment(lattice: bool) -> dict:
    import mpmath

    env = {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "THREADS": os.environ.get("THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy_loaded_by_workload": lattice,
    }
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env.update(numpy=numpy.__version__, scipy=scipy.__version__,
               blas=f"{blas.get('name')} {blas.get('version')}")
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once ready and print the environment")
    args = parser.parse_args()

    from workloads import USES_LATTICE

    lattice = args.workload in USES_LATTICE
    cli = _import_layers(lattice)
    from click.testing import CliRunner

    runner = CliRunner()
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps(environment(lattice)), flush=True)
        return 0
    requests = json.loads(sys.stdin.readline())

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        tracer.active = True
    outcomes, times = [], []
    window = time.perf_counter()
    for index, request in enumerate(requests):
        started = time.perf_counter()
        if tracer is not None:
            tracer.request = index
            root = tracer.begin(f"request.{request['cmd']}")
        try:
            outcomes.append(_run_request(cli, runner, request))
        finally:
            if tracer is not None:
                tracer.end(root)
        times.append(time.perf_counter() - started)
    run_s = time.perf_counter() - window
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False

    ops = []
    for request, outcome, seconds in zip(requests, outcomes, times):
        verdict = _check(request, outcome)
        verdict.update(id=request["id"], cmd=request["cmd"], args=request["args"], s=seconds,
                       report_bytes=len(outcome.get("stdout") or ""))
        ops.append(verdict)
    result = {"run_s": run_s, "ops": ops, "rss_mb": rss_mb}
    if tracer is not None:
        result["trace"] = {"spans": tracer.spans, "counters": tracer.counters}
    print(json.dumps(result, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

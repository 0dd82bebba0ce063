"""Tests of the benchmark itself: request generation, the verifier, a
tiny end-to-end pass and the refusal to run outside a checkout."""

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from chiralpotts import cli  # noqa: E402
from chiralpotts.drinfeld import lambda_counts  # noqa: E402
from chiralpotts.formfactor import order_param_sq  # noqa: E402


def _inputs(requests):
    return sorted((r["id"], r["cmd"], r["args"]) for r in requests)


def _size(request):
    """What a request costs, whatever the seed: command, N and L."""
    if request["cmd"] == "psi1":
        return ("psi1", *request["args"][:2])
    return (request["cmd"], workloads.option(request, "--N"), workloads.option(request, "--L"))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_requests_and_never_sizes(name):
    first = workloads.requests_for(name, 11)
    assert first == workloads.requests_for(name, 11)
    later = workloads.requests_for(name, 11, pass_index=1)
    assert _inputs(later) == _inputs(first) and later != first
    other = workloads.requests_for(name, 12)
    assert other != first
    assert Counter(map(_size, other)) == Counter(map(_size, first))
    for request in first:
        kp = workloads.option(request, "--kp")
        if kp is not None:
            assert 0.05 < float(kp) < 0.95


def test_root_count_matches_counting_polynomial():
    for N, L in [(2, 9), (3, 4), (3, 5), (4, 6)]:
        for Q in range(N):
            assert workloads.root_count(N, L, Q) == lambda_counts(N, L, Q).m


@pytest.fixture(scope="module")
def order_case():
    args = ["order", "--N", "3", "--L", "6", "--r", "1", "--kp", "0.4", "--method", "det"]
    result = CliRunner().invoke(cli.main, args)
    outcome = {"cmd": "order", "exit_code": result.exit_code, "stdout": result.stdout}
    return outcome, order_param_sq(3, 1, "0.4", 6, method="closed")


def test_verifier_accepts_a_good_order_report(order_case):
    outcome, closed = order_case
    assert verify.program_failure(outcome) is None
    assert verify.order_mismatch(verify.parse_report(outcome), closed) is None


def test_verifier_rejects_a_perturbed_order_value(order_case):
    outcome, closed = order_case
    report = verify.parse_report(outcome)
    value = report["per_sector"][1]["dhat"]["value"]
    report["per_sector"][1]["dhat"]["value"] = str(float(value) * (1 + 1e-9))
    assert "dhat Q=1" in verify.order_mismatch(report, closed)
    report = verify.parse_report(outcome)
    report["finite_L"]["value"] = "0.5"
    assert "finite_L" in verify.order_mismatch(report, closed)


def test_verifier_rejects_nonzero_exit_and_missing_report(order_case):
    outcome, _ = order_case
    failing = dict(outcome, exit_code=4, fail_lines=["FAIL ('recursion', 0)"])
    assert verify.program_failure(failing) == "exit 4: FAIL ('recursion', 0)"
    assert verify.program_failure(dict(outcome, stdout="")) == "missing report"
    assert verify.program_failure(dict(outcome, stdout="wrote x.json\n")) == "missing report"
    passless = json.loads(outcome["stdout"])
    passless["pass"] = False
    assert verify.program_failure(dict(outcome, stdout=json.dumps(passless)))


def test_verifier_checks_psi1_and_correlation_endpoints():
    assert verify.psi1_mismatch("0.25", "0.25") is None
    assert verify.psi1_mismatch("0.25", "0.2500001") is not None
    table = {"separations": [{"ell": 0, "value": "1.0"}, {"ell": 64, "value": "0.75"}]}
    assert verify.correlate_mismatch(table, 0.75) is None
    assert verify.correlate_mismatch(table, 0.7501) is not None
    table["separations"][0]["value"] = "0.999"
    assert verify.correlate_mismatch(table, 0.75) is not None


def test_oracle_margin_comes_from_the_report():
    report = {"pairs": [{"abs_diff": "3.0e-12"}, {"abs_diff": "2.5e-11"}]}
    assert verify.oracle_worst(report) == 2.5e-11


def test_trace_overhead_pairs_passes_by_request():
    def one(times, traced):
        ops = [{"id": i, "s": s} for i, s in times.items()]
        return {"traced": traced, "result": {"ops": ops}}

    passes = [one({0: 1.0, 1: 2.0}, False), one({1: 2.5, 0: 1.1}, True),
              one({0: 1.2, 1: 2.0}, False), one({0: 1.4, 1: 2.1}, True),
              one({0: 9.0, 1: 9.0}, False)]  # no traced partner: ignored
    assert run.trace_overhead(passes) == pytest.approx(0.15 + 0.3)


TINY = [dict(request, id=index) for index, request in enumerate([
    {"cmd": "order", "args": ["--N", "3", "--L", "6", "--r", "2", "--kp", "0.3", "--method", "det"]},
    {"cmd": "identity", "args": ["--N", "3", "--L", "3"]},
    {"cmd": "appendix", "args": ["--N", "3", "--L", "3"]},
    {"cmd": "psi1", "args": [3, 3, 0, 1, 0, 0]},
    {"cmd": "oracle", "args": ["--N", "2", "--L", "4", "--kp", "0.5"]},
    {"cmd": "correlate", "args": ["--N", "2", "--L", "4", "--kp", "0.5", "--r", "1", "--ell", "64"]},
])]


def test_tiny_passes_give_every_metric():
    deadline = time.perf_counter() + 120
    passes = [run.spawn("lattice-oracle", TINY, traced, deadline) for traced in (False, True)]
    ops = [op for p in passes for op in p["result"]["ops"]]
    assert [op["failure"] for op in ops] == [None] * len(ops)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([p["setup_s"] for p in passes], passes)
    layers = run.per_layer(passes)
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)
    assert all(e2e[m["name"]] > 0 for m in spec["end_to_end"])
    assert layers["combi.calG_table.calls"] == 3  # identity, appendix, psi1
    assert layers["lattice.eig.s"] > 0 and layers["lattice.max_sector_dim"] == 8
    assert layers["failed_ops"] == 0.0
    rows = passes[1]["result"]["trace"]["spans"]
    assert {row[0] for row in rows if row[3] < 0} == {f"request.{r['cmd']}" for r in TINY}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

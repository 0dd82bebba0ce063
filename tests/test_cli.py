"""Command-line reports: determinism, exit codes, formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chiralpotts import cli, formfactor


@pytest.fixture
def runner():
    return CliRunner()


def _strip_timestamp(text):
    return "\n".join(
        line for line in text.splitlines() if "generated_at" not in line
    )


def _json_of(result):
    return json.loads(result.output)


# ---------------------------------------------------------------------------
# report shape and determinism


def test_identity_report_shape(runner):
    result = runner.invoke(cli.main, ["identity", "--N", "3", "--L", "3"])
    assert result.exit_code == 0
    report = _json_of(result)
    assert report["schema"] == 1
    assert report["command"] == "identity"
    assert report["config"] == {
        "N": 3, "L": 3, "command": "identity", "format": "json",
    }
    assert report["pass"] is True
    assert report["symmetric"] is True


def test_reports_are_byte_identical_modulo_timestamp(runner):
    args = ["formfactor", "--N", "3", "--L", "4", "--Q", "0", "--P", "2",
            "--kp", "0.5", "--prec", "128"]
    first = runner.invoke(cli.main, args)
    second = runner.invoke(cli.main, args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert _strip_timestamp(first.output) == _strip_timestamp(second.output)


def test_kp_decimal_string_survives_verbatim(runner):
    result = runner.invoke(cli.main, [
        "order", "--N", "3", "--L", "3", "--r", "1", "--kp", "0.3",
        "--prec", "128",
    ])
    assert result.exit_code == 0
    assert _json_of(result)["config"]["kp"] == "0.3"


def test_appendix_small_case_is_exhaustive(runner):
    result = runner.invoke(cli.main, ["appendix", "--N", "2", "--L", "3"])
    assert result.exit_code == 0
    report = _json_of(result)
    assert report["pass"] is True
    assert report["alternating_sum_exhaustive"] is True


def test_drinfeld_roots_carry_residuals(runner):
    result = runner.invoke(cli.main, [
        "drinfeld", "--N", "3", "--L", "4", "--Q", "0", "--prec", "128",
    ])
    assert result.exit_code == 0
    report = _json_of(result)
    assert report["projection_matches_counts"] is True
    for root in report["roots"]:
        assert root["precision_bits"] == 128
        assert float(root["residuals"]["polynomial_value"]) < 1e-30


def test_order_payload_records_per_sector_rows(runner):
    result = runner.invoke(cli.main, [
        "order", "--N", "3", "--L", "4", "--r", "1", "--kp", "0.5",
        "--prec", "128", "--method", "det",
    ])
    assert result.exit_code == 0
    report = _json_of(result)
    assert [row["Q"] for row in report["per_sector"]] == [0, 1, 2]
    # sectors disagree at finite width; the spread must be reported, small,
    # and nonnegative
    spread = float(report["finite_L"]["residuals"]["sector_spread"])
    assert 0 <= spread < 0.05
    assert float(report["abs_error"]) < 1e-3


def test_out_option_writes_file(runner, tmp_path):
    target = tmp_path / "report.json"
    result = runner.invoke(cli.main, [
        "identity", "--N", "2", "--L", "3", "--out", str(target),
    ])
    assert result.exit_code == 0
    assert f"wrote {target}" in result.output
    assert json.loads(target.read_text())["pass"] is True


# ---------------------------------------------------------------------------
# exit codes


def test_invalid_kp_exits_two(runner):
    result = runner.invoke(cli.main, [
        "order", "--N", "3", "--L", "3", "--r", "1", "--kp", "1.5",
    ])
    assert result.exit_code == 2


def test_unordered_sweep_widths_exit_two(runner):
    result = runner.invoke(cli.main, [
        "sweep", "--N", "3", "--r", "1", "--kp", "0.5",
        "--L", "6", "--L", "4",
    ])
    assert result.exit_code == 2


def test_equal_sectors_exit_two(runner):
    result = runner.invoke(cli.main, [
        "formfactor", "--N", "3", "--L", "4", "--Q", "1", "--P", "1",
        "--kp", "0.5",
    ])
    assert result.exit_code == 2


def test_csv_without_table_exits_two(runner):
    result = runner.invoke(cli.main, [
        "identity", "--N", "2", "--L", "3", "--format", "csv",
    ])
    assert result.exit_code == 2


def _assert_usage_error(result, option):
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and f"'{option}'" in errors[0]


def test_precision_below_floor_exits_two(runner):
    result = runner.invoke(cli.main, [
        "drinfeld", "--N", "3", "--L", "4", "--Q", "0", "--prec", "64",
    ])
    _assert_usage_error(result, "--prec")


def test_zero_width_exits_two(runner):
    result = runner.invoke(cli.main, [
        "order", "--N", "3", "--L", "0", "--r", "1", "--kp", "0.5",
    ])
    _assert_usage_error(result, "--L")


def test_identity_width_without_table_rows_exits_two(runner):
    result = runner.invoke(cli.main, ["identity", "--N", "3", "--L", "1"])
    _assert_usage_error(result, "--L")


def test_negative_separation_exits_two(runner):
    result = runner.invoke(cli.main, [
        "correlate", "--N", "2", "--L", "3", "--kp", "0.5", "--r", "1",
        "--ell", "-1",
    ])
    _assert_usage_error(result, "--ell")


def test_empty_alternating_sum_sample_exits_two(runner):
    # without the range check the sampled identity ran on no pairs and passed
    result = runner.invoke(cli.main, [
        "appendix", "--N", "3", "--L", "5", "--samples", "0",
    ])
    _assert_usage_error(result, "--samples")


def test_oracle_equal_sectors_exit_before_the_lattice_run(runner, monkeypatch):
    from chiralpotts import lattice

    def no_spectra(*args, **kwargs):
        raise AssertionError("the lattice spectra were built for a usage error")

    monkeypatch.setattr(lattice, "ground_state", no_spectra)
    result = runner.invoke(cli.main, [
        "oracle", "--N", "3", "--L", "7", "--kp", "0.5", "--Q", "1", "--P", "1",
    ])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "distinct sectors" in errors[0]


def test_route_differences_carry_working_precision(runner):
    # the report prints 58 digits of 192 bits; a difference taken at
    # 53 bits is off from the 17th digit on
    inp = formfactor.couplings(3, 6, Q=0, P=2, kp="0.5", precision=192)
    with mpmath.workprec(inp.working):
        expected = abs(formfactor.dhat_closed(inp) - formfactor.dhat_det(inp)[0])
    single = runner.invoke(cli.main, [
        "formfactor", "--N", "3", "--L", "6", "--Q", "0", "--P", "2", "--kp", "0.5",
    ])
    order = runner.invoke(cli.main, [
        "order", "--N", "3", "--L", "6", "--r", "1", "--kp", "0.5", "--method", "all",
    ])
    assert single.exit_code == 0 and order.exit_code == 0
    sector = _json_of(order)["per_sector"][0]
    assert (sector["Q"], sector["P"]) == (0, 2)
    for printed in (
        _json_of(single)["overlap"]["residuals"]["closed_vs_det"],
        sector["dhat"]["residuals"]["route_det"],
    ):
        with mpmath.workprec(inp.working):
            assert abs(mpmath.mpf(printed) - expected) < expected * mpmath.mpf(10) ** -50


def test_size_guard_exits_three_with_route_hint(runner):
    result = runner.invoke(cli.main, [
        "order", "--N", "3", "--L", "24", "--r", "1", "--kp", "0.5",
        "--method", "sum",
    ])
    assert result.exit_code == 3
    assert "use --method det for large widths" in result.output


@pytest.mark.parametrize("argv", [
    "order --N 3 --L 24 --r 1 --kp 0.5 --method all",
    "order --N 3 --L 24 --r 1 --kp 0.5 --method sum",
    "formfactor --N 3 --L 24 --Q 0 --P 1 --kp 0.5 --method sum",
    "sweep --N 3 --r 1 --kp 0.5 --L 24 --method sum",
], ids=["order-all", "order-sum", "formfactor-sum", "sweep-sum"])
def test_size_guard_hint_is_written_once(runner, argv):
    # the subset-sum route's guard names the determinant route once, and
    # no command adds a second hint of its own
    result = runner.invoke(cli.main, argv.split())
    assert result.exit_code == 3
    assert result.output.count("use ") == 1, result.output
    assert "use --method det for large widths" in result.output


@pytest.mark.parametrize("argv", [
    "order --N 2 --L 4 --r 1 --kp 1e-80",
    "formfactor --N 3 --L 6 --Q 0 --P 2 --kp 1e-70",
    "drinfeld --N 3 --L 6 --Q 1 --kp 1e-90",
    "oracle --N 2 --L 4 --kp 1e-9",
    "correlate --N 2 --L 4 --kp 1e-9 --r 1",
])
def test_typed_error_exits_four_without_traceback(runner, argv):
    # each modulus passes the (0, 1) range check, then trips a typed error
    result = runner.invoke(cli.main, argv.split())
    assert result.exit_code == 4, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(("DomainError: ", "CurveMismatchError: "))


@pytest.mark.parametrize("argv, double", [
    ("oracle --N 2 --L 3 --kp 1e-400", "0.0"),
    ("oracle --N 2 --L 3 --kp 1e-330", "0.0"),
    ("oracle --N 2 --L 3 --kp 0.99999999999999999999", "1.0"),
    ("correlate --N 2 --L 3 --kp 1e-400 --r 1", "0.0"),
    ("correlate --N 2 --L 3 --kp 0.99999999999999999999 --r 1", "1.0"),
])
def test_lattice_modulus_rounding_out_of_range_exits_two(runner, argv, double):
    # inside (0, 1) exactly, but the float lattice would get 0.0 or 1.0
    result = runner.invoke(cli.main, argv.split())
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1, result.stderr
    assert f"rounds to {double}, outside (0, 1)" in errors[0]


@pytest.mark.parametrize("argv", [
    "oracle --N 2 --L 3 --kp 1/3",
    "correlate --N 2 --L 3 --kp 1/3 --r 1",
    "order --N 2 --L 3 --r 1 --kp 0.99999999999999999999",
])
def test_modulus_range_check_is_exact(runner, argv):
    # the lattice reads 1/3 as its nearest double, as order does at --prec;
    # 1 - 1e-20 lies inside (0, 1) although no double below 1 is that close
    result = runner.invoke(cli.main, argv.split())
    assert result.exit_code == 0, (result.output, result.exception)
    assert _json_of(result)["config"]["kp"] == argv.split("--kp ")[1].split()[0]


def test_huge_modulus_exponent_is_read_without_expanding_it(runner):
    # as a Fraction, 1e-999999999 would expand a billion-digit power of ten
    result = runner.invoke(cli.main, [
        "order", "--N", "2", "--L", "3", "--r", "1", "--kp", "1e-999999999",
    ])
    assert result.exit_code == 4, (result.output, result.exception)
    assert result.stderr.startswith("DomainError: ")
    result = runner.invoke(cli.main, [
        "oracle", "--N", "2", "--L", "3", "--kp", "1e999999999",
    ])
    assert result.exit_code == 2
    assert "must lie strictly inside (0, 1)" in result.stderr


@pytest.mark.parametrize("argv", [
    "order --N 2 --L 3 --r 1 --kp 0.5_0",
    "order --N 2 --L 3 --r 1 --kp 0.4_5",
    "oracle --N 2 --L 3 --kp 0.4_5",
])
def test_modulus_takes_the_syntax_of_the_computations(runner, argv):
    # Decimal reads 0.5_0 and 0.4_5 as 0.5 and 0.45; mpmath refuses the
    # first and reads the second as 0.045, so the --prec routes would
    # compute at another modulus than the lattice and the report's string
    result = runner.invoke(cli.main, argv.split())
    assert result.exit_code == 2, (result.output, result.exception)
    assert "must be a decimal number" in result.stderr


def test_modulus_underscores_outside_the_fraction_pass(runner):
    result = runner.invoke(cli.main, [
        "order", "--N", "2", "--L", "3", "--r", "1", "--kp", "1_000e-4",
    ])
    assert result.exit_code == 0, (result.output, result.exception)


def test_verification_failure_exits_four(runner, monkeypatch):
    monkeypatch.setattr(cli, "ORACLE_TOL", 0.0)
    result = runner.invoke(cli.main, [
        "oracle", "--N", "2", "--L", "3", "--kp", "0.5",
        "--Q", "0", "--P", "1",
    ])
    assert result.exit_code == 4
    assert "FAIL" in result.output


@pytest.mark.parametrize("command, width", [
    ("order", ["--L", "4"]),
    ("sweep", ["--L", "3", "--L", "4", "--format", "json"]),
])
def test_route_disagreement_exits_four(runner, monkeypatch, command, width):
    # at tolerance 0 every nonzero route difference is a disagreement
    monkeypatch.setattr(formfactor, "ROUTE_TOL", 0.0)
    result = runner.invoke(cli.main, [
        command, "--N", "3", "--r", "1", "--kp", "0.5", "--prec", "128",
        "--method", "all", *width,
    ])
    assert result.exit_code == 4
    fails = [line for line in result.stderr.splitlines() if line.startswith("FAIL")]
    pairs = ("'closed', 'det'", "'closed', 'sum'", "'det', 'sum'")
    assert fails and all(any(pair in line for pair in pairs) for line in fails)


# Valid argument vectors over small sizes, half of them with one value
# replaced by a malformed or out-of-range one.
_BAD = st.sampled_from(["-1", "0", "1", "1.5", "nan", "x", ""])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from([
        "identity", "appendix", "drinfeld", "formfactor", "order", "sweep",
        "oracle", "correlate",
    ]))
    # oracle and correlate diagonalize dense sector blocks of dimension
    # N^(L-1); every other command, appendix included, draws N up to 4
    on_lattice = command in ("oracle", "correlate")
    n = draw(st.integers(2, 3 if on_lattice else 4))
    widths = draw(st.lists(
        st.integers(1, 3 if on_lattice else 4), min_size=1, max_size=2, unique=True
    ))
    if command != "sweep":
        widths = widths[:1]
    options = [("--N", n)] + [("--L", width) for width in sorted(widths)]
    if command in ("drinfeld", "formfactor"):
        options.append(("--Q", draw(st.integers(0, n - 1))))
    if command == "formfactor":
        options.append(("--P", draw(st.integers(0, n - 1))))
    if command in ("order", "sweep", "correlate"):
        options.append(("--r", draw(st.integers(1, n - 1))))
    if command not in ("identity", "appendix"):
        # 1e-80 and 1e-400 lie inside (0, 1) but far enough out to trip
        # typed errors, or to round to 0.0 on the float lattice; 0.999999
        # is a modulus close to 1 that every command runs
        options.append(("--kp", draw(st.sampled_from(
            ["0.2", "0.5", "0.8", "1e-80", "0.999999", "1e-400", "1/3"]
        ))))
    if command in ("drinfeld", "formfactor", "order", "sweep", "oracle"):
        options.append(("--prec", draw(st.sampled_from([128, 192]))))
    if command in ("formfactor", "order", "sweep"):
        options.append(("--method", draw(st.sampled_from(formfactor.METHODS))))
    if command == "appendix":
        options.append(("--samples", draw(st.integers(1, 5))))
    options.append(("--format", draw(st.sampled_from(["json", "csv"]))))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(options) - 1))
        options[k] = (options[k][0], draw(_BAD))
    return [command] + [str(item) for option in options for item in option]


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_any_argument_vector_exits_by_contract(runner, argv):
    result = runner.invoke(cli.main, argv)
    assert result.exit_code in (0, 2, 3, 4), (argv, result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    assert "Traceback" not in result.output


# ---------------------------------------------------------------------------
# tabular artifacts


def test_sweep_csv_columns_and_monotone_errors(runner):
    result = runner.invoke(cli.main, [
        "sweep", "--N", "2", "--r", "1", "--kp", "0.6",
        "--L", "3", "--L", "5", "--prec", "128",
    ])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "L,m,mp,finite_L,limit,abs_error,runtime_ms"
    assert len(lines) == 3
    errors = [float(line.split(",")[5]) for line in lines[1:]]
    assert errors[0] > errors[1]


def test_sweep_json_drops_runtimes(runner):
    result = runner.invoke(cli.main, [
        "sweep", "--N", "2", "--r", "1", "--kp", "0.6",
        "--L", "3", "--L", "5", "--prec", "128", "--format", "json",
    ])
    assert result.exit_code == 0
    report = _json_of(result)
    assert report["abs_error_monotone"] is True
    assert all("runtime_ms" not in row for row in report["rows"])


def test_single_width_sweep_matches_order_command(runner):
    sweep = runner.invoke(cli.main, [
        "sweep", "--N", "3", "--r", "1", "--kp", "0.5", "--L", "4",
        "--prec", "128", "--format", "json",
    ])
    order = runner.invoke(cli.main, [
        "order", "--N", "3", "--L", "4", "--r", "1", "--kp", "0.5",
        "--prec", "128", "--method", "det",
    ])
    assert sweep.exit_code == 0 and order.exit_code == 0
    row = _json_of(sweep)["rows"][0]
    report = _json_of(order)
    assert row["finite_L"] == report["finite_L"]["value"]
    assert row["limit"] == report["limit"]["value"]


def test_oracle_csv_is_the_comparison_table(runner):
    result = runner.invoke(cli.main, [
        "oracle", "--N", "2", "--L", "3", "--kp", "0.5", "--format", "csv",
    ])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "Q,P,lattice,closed,abs_diff"
    assert len(lines) == 3
    assert all(float(line.split(",")[4]) < 1e-8 for line in lines[1:])


def test_oracle_reaches_past_the_dense_cap(runner):
    # N^(L-1) = 8192 is twice the dense cap: only the sparse route runs here
    result = runner.invoke(cli.main, [
        "oracle", "--N", "2", "--L", "14", "--kp", "0.4",
    ])
    assert result.exit_code == 0, result.output
    report = _json_of(result)
    assert report["pass"] is True
    for row in report["pairs"]:
        residuals = row["lattice"]["residuals"]
        assert set(residuals) == {"eigen_residual", "dominance"}
        assert all(float(value) < 1e-8 for value in residuals.values())


def test_oracle_size_guard_refuses_before_building(runner, monkeypatch):
    from chiralpotts import lattice

    def no_build(*args, **kwargs):
        raise AssertionError("the edge basis was enumerated past the size guard")

    monkeypatch.setattr(lattice, "edge_configs", no_build)
    monkeypatch.setattr(lattice, "_spin_grid", no_build)
    result = runner.invoke(cli.main, ["oracle", "--N", "2", "--L", "40", "--kp", "0.5"])
    assert result.exit_code == 3, result.output
    assert "over the cap" in result.stderr


def test_unconverged_arpack_exits_four_without_traceback(runner, monkeypatch):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    result = runner.invoke(cli.main, ["oracle", "--N", "2", "--L", "4", "--kp", "0.5"])
    assert result.exit_code == 4, result.output
    assert result.stderr.startswith("DegenerateMaxEigenvalueError: ")


def test_oracle_pair_solves_only_its_two_sectors(runner, monkeypatch):
    from chiralpotts import lattice

    solved = []
    ground_state = lattice.ground_state

    def counted(N, L, Q, kp):
        solved.append(Q)
        return ground_state(N, L, Q, kp)

    monkeypatch.setattr(lattice, "ground_state", counted)
    result = runner.invoke(cli.main, [
        "oracle", "--N", "4", "--L", "4", "--kp", "0.5", "--Q", "0", "--P", "2",
    ])
    assert result.exit_code == 0, result.output
    assert sorted(solved) == sorted(
        lattice.transfer_block_of_charge(4, 4, c) for c in (0, 2)
    )


def test_correlate_json_table_and_limit(runner):
    result = runner.invoke(cli.main, [
        "correlate", "--N", "3", "--L", "3", "--kp", "0.5", "--r", "1",
        "--ell", "48",
    ])
    assert result.exit_code == 0
    report = _json_of(result)
    assert len(report["separations"]) == 49
    # completeness of the biorthogonal basis holds only to rounding
    assert abs(float(report["separations"][0]["value"]) - 1.0) < 1e-12
    assert float(report["final_deviation"]) < 1e-8


def test_correlate_runs_no_arpack(runner, monkeypatch):
    # each chain ground state is the lowest level of the dense momentum
    # blocks that the spectrum is solved in
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("ARPACK was called")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", refuse)
    result = runner.invoke(cli.main, [
        "correlate", "--N", "3", "--L", "4", "--kp", "0.5", "--r", "1",
    ])
    assert result.exit_code == 0, result.output


def test_correlate_csv_dumps_spectra(runner):
    result = runner.invoke(cli.main, [
        "correlate", "--N", "2", "--L", "3", "--kp", "0.5", "--r", "1",
        "--format", "csv",
    ])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "Q,j,eigenvalue_modulus,overlap_with_maxQ"
    # one row per eigenvector of each bra sector: 2 sectors of dimension 4
    assert len(lines) == 9


EXACT_LAYER_RUN = """
import sys
from click.testing import CliRunner
from chiralpotts import cli, formfactor

runner = CliRunner()
for args in (
    ["identity", "--N", "3", "--L", "4"],
    ["appendix", "--N", "3", "--L", "3"],
    ["appendix", "--N", "4", "--L", "4"],
    ["order", "--N", "3", "--L", "4", "--r", "1", "--kp", "0.5", "--method", "det"],
):
    print(runner.invoke(cli.main, args).exit_code)
formfactor.psi1_brute(3, 4, 0, 1, 0, 0)
print(sorted(name for name in ("numpy", "scipy") if name in sys.modules))
"""


def test_exact_layer_never_loads_numpy():
    # only chiralpotts.lattice may import numpy or scipy: the exact suites
    # and the determinant route stay small and quick to start without them
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", EXACT_LAYER_RUN],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:5] == ["0", "0", "0", "0", "[]"], proc.stdout

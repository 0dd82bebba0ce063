"""Reproducible command-line runs over every check and computation.

Reports are JSON by default (CSV where a table is the natural artifact)
and byte-identical across repeated runs of the same configuration except
for the generated_at timestamp.  High-precision numbers are serialized
as decimal strings so nothing round-trips through binary floats.

Exit codes: 0 success, 2 invalid configuration, 3 size guard, 4
verification failure (the failing tuples are printed to stderr) or any
other typed error from `errors` (one line on stderr).

The lattice module is imported inside the commands that need it, after
the optional THREADS environment variable has been applied, so the BLAS
pool can be capped before numpy first loads.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from decimal import Decimal
from fractions import Fraction

import click
import mpmath

from .combi import appendix_suite, identity_check
from .drinfeld import (
    MIN_PRECISION,
    drinfeld_projection,
    lambda_counts,
    root_transforms,
    solve_roots,
)
from .errors import ChiralPottsError, SizeGuardError
from .formfactor import (
    METHODS,
    couplings,
    dhat_routes,
    order_param_sq,
    overlap_product_closed,
)

ORACLE_TOL = 1e-8
FLOAT_BITS = 53

# Argument ranges; a value outside them exits 2 like any other usage error.
STATES = click.IntRange(min=2)
WIDTH = click.IntRange(min=1)
# The exact overlap table has (N-1)(L-1) rows, so the exact suites need L >= 2.
SUITE_WIDTH = click.IntRange(min=2)
PRECISION = click.IntRange(min=MIN_PRECISION)


@dataclass(frozen=True)
class RunConfig:
    """One validated run: the command plus every parameter it consumes."""

    command: str
    N: int
    L: int | None = None
    Q: int | None = None
    P: int | None = None
    r: int | None = None
    kp: str | None = None
    prec: int | None = None
    method: str | None = None
    out: str | None = None
    format: str = "json"

    def public(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _kp_number(kp: str) -> Fraction | Decimal:
    """--kp read exactly, in the syntax of mpmath, which every computation
    reads it with: a ratio as two Python ints (so 1 / 3 and 1/+3 pass), a
    decimal as a Decimal, whose exponent is never expanded (1e-999999999).
    mpmath counts an underscore after the point as a digit (0.4_5 reads
    0.045), so such a string is refused."""
    mpmath.mpf(kp)
    if "_" in kp.partition(".")[2].lower().partition("e")[0]:
        raise ValueError("underscore after the point")
    num, ratio, den = kp.partition("/")
    return Fraction(int(num), int(den)) if ratio else Decimal(kp)


class Modulus(click.ParamType):
    """--kp, checked exactly to lie inside (0, 1) and passed on verbatim;
    on the float lattice its nearest double must lie inside too."""

    name = "kp"

    def __init__(self, lattice: bool = False) -> None:
        self.lattice = lattice

    def convert(self, value, param, ctx):
        try:
            number = _kp_number(value)
            inside = 0 < number < 1  # a Decimal NaN raises here
        except (ArithmeticError, ValueError):
            self.fail(f"must be a decimal number, got {value!r}", param, ctx)
        if not inside:
            self.fail(f"must lie strictly inside (0, 1), got {value}", param, ctx)
        if self.lattice and not 0 < float(number) < 1:
            self.fail(f"{value} rounds to {float(number)!r}, outside (0, 1)", param, ctx)
        return value


def _check_sector(name: str, value: int | None, N: int) -> None:
    if value is not None and not 0 <= value < N:
        raise click.UsageError(f"--{name} must lie in [0, {N}), got {value}")


def _check_offset(offset: int, n: int) -> None:
    if not 1 <= offset < n:
        raise click.UsageError(f"--r must lie in [1, {n}), got {offset}")


def _dps(bits: int) -> int:
    return max(int(bits * 0.30103) + 2, 17)


def _num(value, bits: int) -> str:
    if isinstance(value, float):
        return repr(value)
    if not isinstance(value, mpmath.mpf):
        with mpmath.workprec(bits):
            value = mpmath.mpf(value)
    return mpmath.nstr(value, _dps(bits), strip_zeros=False)


def _rec(value, bits: int, **residuals) -> dict:
    return {
        "value": _num(value, bits),
        "precision_bits": bits,
        "residuals": {k: _num(v, bits) for k, v in residuals.items()},
    }


def _emit(config: RunConfig, payload: dict, csv_rows: list[dict] | None = None):
    if config.format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=list(csv_rows[0].keys()), lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(csv_rows)
        text = buffer.getvalue()
    else:
        report = {
            "schema": 1,
            "command": config.command,
            "config": config.public(),
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        report.update(payload)
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if config.out:
        with open(config.out, "w") as handle:
            handle.write(text)
        click.echo(f"wrote {config.out}")
    else:
        click.echo(text, nl=False)


def _verification_failed(failures: list) -> None:
    for item in failures:
        click.echo(f"FAIL {item}", err=True)
    sys.exit(4)


class _Main(click.Group):
    """The command group; maps a typed error escaping any command to its
    exit code: 3 for the size guard, 4 for every other one."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SizeGuardError as exc:
            click.echo(str(exc), err=True)
            sys.exit(3)
        except ChiralPottsError as exc:
            click.echo(f"{type(exc).__name__}: {exc}", err=True)
            sys.exit(4)


@click.group(cls=_Main)
def main():
    """Exact and numerical toolkit for the superintegrable chiral Potts
    order parameter."""
    threads = os.environ.get("THREADS")
    if threads and "numpy" not in sys.modules:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


# ---------------------------------------------------------------------------
# exact suites


@main.command()
@click.option("--N", "n", type=STATES, required=True)
@click.option("--L", "width", type=SUITE_WIDTH, required=True)
@click.option("--out", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
def identity(n, width, out, fmt):
    """Exact overlap-table identity over all sectors and indices."""
    config = RunConfig(command="identity", N=n, L=width, out=out, format=fmt)
    report = identity_check(n, width)
    payload = {
        "dim": report["dim"],
        "n_configs": report["n_configs"],
        "checked": report["checked"],
        "symmetric": report["symmetric"],
        "pass": report["ok"],
    }
    _emit(config, payload)
    if not report["ok"]:
        _verification_failed(report["failures"])


@main.command()
@click.option("--N", "n", type=STATES, required=True)
@click.option("--L", "width", type=SUITE_WIDTH, required=True)
@click.option("--samples", type=click.IntRange(min=1), default=40, show_default=True,
              help="Seeded sample size for the alternating-sum identity "
                   "when exhaustive enumeration is too large.")
@click.option("--out", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
def appendix(n, width, samples, out, fmt):
    """Exact generating-function, recursion and alternating-sum checks."""
    config = RunConfig(command="appendix", N=n, L=width, out=out, format=fmt)
    report = appendix_suite(n, width, samples)
    payload = {
        "genfun_checked": report["genfun_checked"],
        "recursion_checked": report["recursion_checked"],
        "alternating_sum_checked": report["alternating_sum_checked"],
        "alternating_sum_exhaustive": report["alternating_sum_exhaustive"],
        "pass": report["ok"],
    }
    _emit(config, payload)
    if not report["ok"]:
        _verification_failed(report["failures"])


# ---------------------------------------------------------------------------
# root data and form factors


@main.command()
@click.option("--N", "n", type=STATES, required=True)
@click.option("--L", "width", type=WIDTH, required=True)
@click.option("--Q", "charge", type=int, required=True)
@click.option("--kp", type=Modulus(), default=None,
              help="Modulus; include to report the transformed root data.")
@click.option("--prec", type=PRECISION, default=192, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
def drinfeld(n, width, charge, kp, prec, out, fmt):
    """Sector counting polynomial, certified roots, optional transforms."""
    _check_sector("Q", charge, n)
    config = RunConfig(
        command="drinfeld", N=n, L=width, Q=charge, kp=kp, prec=prec,
        out=out, format=fmt,
    )
    poly = lambda_counts(n, width, charge)
    # raises CountingInvariantError unless it is n times the counts
    drinfeld_projection(n, width, charge)
    roots = solve_roots(poly, precision=prec)
    with mpmath.workprec(2 * prec):
        residuals = []
        for root in roots:
            value = mpmath.mpf(0)
            for coeff in reversed(poly.lam):
                value = value * root + coeff
            residuals.append(abs(value))
    payload = {
        "polynomial": poly.to_json(),
        "projection_matches_counts": True,
        "roots": [
            _rec(root, prec, polynomial_value=res)
            for root, res in zip(roots, residuals)
        ],
        "pass": True,
    }
    if kp is not None:
        payload["transforms"] = root_transforms(poly, kp, prec).to_json()
    _emit(config, payload)


@main.command()
@click.option("--N", "n", type=STATES, required=True)
@click.option("--L", "width", type=WIDTH, required=True)
@click.option("--Q", "charge", type=int, required=True)
@click.option("--P", "charge_p", type=int, required=True)
@click.option("--kp", type=Modulus(), required=True)
@click.option("--prec", type=PRECISION, default=192, show_default=True)
@click.option("--method", type=click.Choice(METHODS),
              default="all", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
def formfactor(n, width, charge, charge_p, kp, prec, method, out, fmt):
    """Squared form factor of one sector pair by the requested routes."""
    _check_sector("Q", charge, n)
    _check_sector("P", charge_p, n)
    if charge == charge_p:
        raise click.UsageError("--Q and --P must name distinct sectors")
    config = RunConfig(
        command="formfactor", N=n, L=width, Q=charge, P=charge_p, kp=kp,
        prec=prec, method=method, out=out, format=fmt,
    )
    inp = couplings(n, width, Q=charge, P=charge_p, kp=kp, precision=prec)
    run = dhat_routes(inp, method)
    residuals = dict(run.differences)
    if run.orthogonality is not None:
        residuals["orthogonality"] = run.orthogonality
    with mpmath.workprec(inp.working):
        overlap = inp.cc_product * run.preferred**2
        overlap_alt = overlap_product_closed(inp)
        rearranged = abs(overlap - overlap_alt)
    payload = {
        "m": inp.m,
        "mp": inp.mp,
        "swapped": inp.swapped,
        "cc_product": _num(inp.cc_product, prec),
        "dhat": {name: _rec(value, prec) for name, value in run.values.items()},
        "overlap": _rec(overlap, prec, rearranged_product=rearranged, **residuals),
        "pass": not run.failures,
    }
    _emit(config, payload)
    if run.failures:
        _verification_failed([(a, b, _num(d, prec)) for a, b, d in run.failures])


@main.command()
@click.option("--N", "n", type=STATES, required=True)
@click.option("--L", "width", type=WIDTH, required=True)
@click.option("--r", "offset", type=int, required=True)
@click.option("--kp", type=Modulus(), required=True)
@click.option("--prec", type=PRECISION, default=192, show_default=True)
@click.option("--method", type=click.Choice(METHODS),
              default="closed", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
def order(n, width, offset, kp, prec, method, out, fmt):
    """Squared magnetization of charge r at one width, plus its limit."""
    _check_offset(offset, n)
    config = RunConfig(
        command="order", N=n, L=width, r=offset, kp=kp, prec=prec,
        method=method, out=out, format=fmt,
    )
    result, failures = _order_run(n, offset, kp, width, prec, method)
    _emit(config, _order_payload(result, prec))
    if failures:
        _verification_failed(failures)


def _order_run(n, offset, kp, width, prec, method) -> tuple[dict, list[tuple]]:
    """`order_param_sq`, and (Q, P, route, route, difference) for each route
    pair apart by more than ROUTE_TOL."""
    result = order_param_sq(n, offset, kp, width, precision=prec, method=method)
    failures = [
        (entry["Q"], entry["P"], a, b, _num(diff, prec))
        for entry in result["per_sector"]
        for a, b, diff in entry["route_failures"]
    ]
    return result, failures


def _order_payload(result: dict, prec: int) -> dict:
    per_sector = []
    for entry in result["per_sector"]:
        with mpmath.workprec(2 * prec):
            route_residuals = {
                f"route_{k}": abs(v - entry["dhat"]) for k, v in entry["routes"].items()
            }
        row = {
            "Q": entry["Q"],
            "P": entry["P"],
            "m": entry["m"],
            "mp": entry["mp"],
            "swapped": entry["swapped"],
            "cc_product": _num(entry["cc_product"], prec),
            "dhat": _rec(
                entry["dhat"], prec,
                **route_residuals,
                **({"orthogonality": entry["orthogonality_residual"]}
                   if "orthogonality_residual" in entry else {}),
            ),
            "value": _num(entry["value"], prec),
            "ratio_low": _num(entry["r_low"], prec),
            "ratio_low_limit": _num(entry["r_low_limit"], prec),
            "ratio_high": _num(entry["r_high"], prec),
            "ratio_high_limit": _num(entry["r_high_limit"], prec),
        }
        per_sector.append(row)
    return {
        "per_sector": per_sector,
        "finite_L": _rec(result["finite_L"], prec, sector_spread=result["spread"]),
        "limit": _rec(result["limit"], prec),
        "abs_error": _num(result["abs_error"], prec),
    }


# ---------------------------------------------------------------------------
# lattice oracle


@main.command()
@click.option("--N", "n", type=STATES, required=True)
@click.option("--L", "width", type=WIDTH, required=True)
@click.option("--kp", type=Modulus(lattice=True), required=True)
@click.option("--Q", "charge", type=int, default=None,
              help="Restrict to one bra sector (requires --P).")
@click.option("--P", "charge_p", type=int, default=None)
@click.option("--prec", type=PRECISION, default=192, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def oracle(n, width, kp, charge, charge_p, prec, out, fmt):
    """Lattice overlap products against the closed form, pair by pair.

    Each product is |<g_Q|g_P>|^2 of sparse chain ground states, each
    certified as the dominant vector of the matrix-free transfer product;
    only the sectors of the requested pairs are solved.
    """
    _check_sector("Q", charge, n)
    _check_sector("P", charge_p, n)
    if (charge is None) != (charge_p is None):
        raise click.UsageError("--Q and --P must be given together")
    if charge is not None and charge == charge_p:
        raise click.UsageError("--Q and --P must name distinct sectors")
    config = RunConfig(
        command="oracle", N=n, L=width, Q=charge, P=charge_p, kp=kp,
        prec=prec, out=out, format=fmt,
    )
    from . import lattice

    if charge is None:
        pairs = [(q, p) for q in range(n) for p in range(n) if p != q]
        charges = range(n)
    else:
        pairs = [(charge, charge_p)]
        charges = (charge, charge_p)
    sectors = lattice.certified_ground_states(n, width, float(_kp_number(kp)), charges)
    residual = max(cert.eigen_residual for _, cert in sectors.values())
    dominance = max(cert.dominance for _, cert in sectors.values())
    records, rows, failures = [], [], []
    # couplings puts a pair into charge order, so (Q, P) and (P, Q) share it
    closed_forms = {}
    for q, p in pairs:
        lat = lattice.ground_overlap(sectors[q][0], sectors[p][0])
        key = (min(q, p), max(q, p))
        if key not in closed_forms:
            closed_forms[key] = overlap_product_closed(
                couplings(n, width, Q=q, P=p, kp=kp, precision=prec)
            )
        closed = closed_forms[key]
        diff = abs(lat - float(closed))
        record = {"Q": q, "P": p,
                  "lattice": _rec(lat, FLOAT_BITS, eigen_residual=residual,
                                  dominance=dominance),
                  "closed": _rec(closed, prec), "abs_diff": _num(diff, FLOAT_BITS)}
        records.append(record)
        rows.append({**record, "lattice": record["lattice"]["value"],
                     "closed": record["closed"]["value"]})
        # strict, as in the acceptance gate; a NaN difference fails too
        if not diff < ORACLE_TOL:
            failures.append((q, p, record["abs_diff"]))
    payload = {
        "pairs": records,
        "tolerance": repr(ORACLE_TOL),
        "pass": not failures,
    }
    _emit(config, payload, csv_rows=rows)
    if failures:
        _verification_failed(failures)


@main.command()
@click.option("--N", "n", type=STATES, required=True)
@click.option("--L", "width", type=WIDTH, required=True)
@click.option("--kp", type=Modulus(lattice=True), required=True)
@click.option("--r", "offset", type=int, required=True)
@click.option("--ell", type=click.IntRange(min=0), default=64, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              help="CSV emits the spectral dump instead of the separation table.")
def correlate(n, width, kp, offset, ell, out, fmt):
    """Pair correlation against separation, with its large-distance limit.

    The JSON table records every separation up to --ell; the CSV format
    dumps per-sector spectra: one row per contributing eigenvector with
    its eigenvalue modulus and its overlap weight with the dominant
    vector of the bra sector.
    """
    _check_offset(offset, n)
    config = RunConfig(
        command="correlate", N=n, L=width, r=offset, kp=kp, out=out, format=fmt,
    )
    from . import lattice

    kp_float = float(_kp_number(kp))
    spectra = lattice.product_spectra(n, width, kp_float)
    if fmt == "csv":
        csv_rows = []
        for q in range(n):
            p = (q - offset) % n
            forward, backward = lattice.spectral_overlaps(spectra, q, p)
            weights = (forward * backward).real
            moduli = abs(spectra[p].eigenvalues)
            csv_rows += [
                {"Q": q, "j": j, "eigenvalue_modulus": repr(float(modulus)),
                 "overlap_with_maxQ": repr(float(weight))}
                for j, (modulus, weight) in enumerate(zip(moduli, weights))
            ]
        _emit(config, {}, csv_rows=csv_rows)
        return
    table = [
        {"ell": sep, "value": _num(value, FLOAT_BITS)}
        for sep, value in enumerate(
            lattice.correlation_table(spectra, offset, range(ell + 1))
        )
    ]
    limit = sum(
        lattice.overlap_product(n, width, kp_float, q, (q - offset) % n,
                                spectra=spectra)
        for q in range(n)
    ) / n
    deviation = abs(float(table[-1]["value"]) - limit)
    payload = {
        "separations": table,
        "limit": _rec(limit, FLOAT_BITS),
        "final_deviation": repr(deviation),
    }
    _emit(config, payload)


@main.command()
@click.option("--N", "n", type=STATES, required=True)
@click.option("--r", "offset", type=int, required=True)
@click.option("--kp", type=Modulus(), required=True)
@click.option("--L", "widths", type=WIDTH, multiple=True, required=True,
              help="Repeat for each width, ascending.")
@click.option("--prec", type=PRECISION, default=192, show_default=True)
@click.option("--method", type=click.Choice(METHODS),
              default="det", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv",
              show_default=True)
def sweep(n, offset, kp, widths, prec, method, out, fmt):
    """Magnetization convergence across widths; one row per width.

    The reported m and m' are the root counts of the charge-0 pair.
    Runtimes appear only in the CSV artifact so the JSON stays
    reproducible byte for byte.
    """
    _check_offset(offset, n)
    if list(widths) != sorted(set(widths)):
        raise click.UsageError("--L values must be strictly ascending")
    config = RunConfig(
        command="sweep", N=n, r=offset, kp=kp, prec=prec, method=method,
        out=out, format=fmt,
    )
    rows = []
    errors = []
    failures = []
    for width in widths:
        started = time.perf_counter()
        result, width_failures = _order_run(n, offset, kp, width, prec, method)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        failures.extend((width, *f) for f in width_failures)
        lead = result["per_sector"][0]
        errors.append(result["abs_error"])
        rows.append({
            "L": width,
            "m": lead["m"],
            "mp": lead["mp"],
            "finite_L": _num(result["finite_L"], prec),
            "limit": _num(result["limit"], prec),
            "abs_error": _num(result["abs_error"], prec),
            "runtime_ms": f"{elapsed_ms:.1f}",
        })
    monotone = all(a >= b for a, b in zip(errors, errors[1:]))
    payload = {
        "rows": [{k: v for k, v in row.items() if k != "runtime_ms"}
                 for row in rows],
        "abs_error_monotone": monotone,
    }
    _emit(config, payload, csv_rows=rows)
    if failures:
        _verification_failed(failures)


if __name__ == "__main__":
    main()

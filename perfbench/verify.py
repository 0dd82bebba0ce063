"""Checks on every request's output.

A request fails when the program reports a failure (a nonzero exit, an
exception, a missing report or ``"pass": false``) or when its output
disagrees with a reference.  The second kind is a wrong answer given as
a success; it also makes the run incorrect.

The worker computes the references after the timed window: the closed
amplitude route for ``order``, the sector-averaged closed overlap
product for the far end of a ``correlate`` table, and ``psi1_closed``
for the single-excitation pair.  ``oracle`` compares the lattice with
the closed products itself and says so in ``"pass"``; its report's
``abs_diff`` column gives the oracle margin.
"""

from __future__ import annotations

import json

import mpmath

ROUTE_TOL = mpmath.mpf("1e-10")
ENDPOINT_TOL = 1e-10
CORRELATE_TOL = 1e-8
PSI1_TOL = mpmath.mpf("1e-10")
COMPARE_BITS = 400


def program_failure(outcome: dict) -> str | None:
    """Why the program itself reported failure, or None."""
    if outcome.get("error"):
        return f"raised {outcome['error']}"
    if outcome["cmd"] == "psi1":
        return None
    if outcome["exit_code"] != 0:
        detail = "; ".join(outcome.get("fail_lines", [])) or "nothing on stderr"
        return f"exit {outcome['exit_code']}: {detail}"
    report = parse_report(outcome)
    if report is None:
        return "missing report"
    if report.get("pass") is False:
        return "report says pass: false"
    return None


def parse_report(outcome: dict) -> dict | None:
    try:
        report = json.loads(outcome.get("stdout") or "")
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def _diff(a, b):
    with mpmath.workprec(COMPARE_BITS):
        return abs(mpmath.mpf(a) - mpmath.mpf(b))


def order_mismatch(report: dict, closed: dict) -> str | None:
    """Compare an ``order`` report with ``order_param_sq(method="closed")``."""
    pairs = [("finite_L", report["finite_L"]["value"], closed["finite_L"])]
    if len(report["per_sector"]) != len(closed["per_sector"]):
        return "sector count differs from the closed route"
    for row, ref in zip(report["per_sector"], closed["per_sector"]):
        pairs.append((f"dhat Q={row['Q']}", row["dhat"]["value"], ref["dhat"]))
    for what, value, ref in pairs:
        diff = _diff(value, ref)
        if not diff <= ROUTE_TOL:
            return f"{what} off the closed route by {mpmath.nstr(diff, 5)}"
    return None


def correlate_mismatch(report: dict, closed_average: float) -> str | None:
    """g(0) must be 1 and g(ell) the sector-averaged closed overlap product."""
    table = report["separations"]
    first = float(table[0]["value"])
    last = float(table[-1]["value"])
    if not abs(first - 1.0) <= ENDPOINT_TOL:
        return f"g(0) = {first!r}, not 1 within {ENDPOINT_TOL}"
    if not abs(last - closed_average) <= CORRELATE_TOL:
        return f"g({table[-1]['ell']}) = {last!r} is off the closed average {closed_average!r}"
    return None


def oracle_worst(report: dict) -> float:
    """The largest |lattice - closed| the oracle report gives."""
    return max(float(row["abs_diff"]) for row in report["pairs"])


def psi1_mismatch(brute, closed) -> str | None:
    diff = _diff(brute, closed)
    if not diff <= PSI1_TOL:
        return f"brute and closed differ by {mpmath.nstr(diff, 5)}"
    return None

"""Seeded request lists for the benchmark workloads.

A request is a plain dict: ``{"cmd": name, "args": [...], "id": n}``.  For the CLI
commands ``args`` is the argument vector handed to the ``chiralpotts``
click entry point; for ``psi1`` it is ``[N, L, Q, P, j, ell]``, the
arguments of the library pair ``psi1_brute``/``psi1_closed``.

The sizes of every workload are fixed.  The seed picks only the moduli
(decimal strings), the charges r and the order of the requests in each
pass, so two seeds exercise the same amount of work on different inputs.

Why each workload exists (see README.md for the metric table):

* ``sweep-widths``: cold ``order --method det`` at distinct (N, L).  No
  two requests share a sector polynomial, so every root solve is a miss
  and ``drinfeld.solve_roots`` carries most of the time.
* ``exact-suite``: the exact layer (``combi`` with ``cyclo``) through
  ``identity``, ``appendix`` and the single-excitation pair, which build
  the same overlap table three different ways.
* ``lattice-oracle``: the numerical layer.  ``oracle`` needs only the
  dominant eigenpair of each sector block, ``correlate`` the full
  spectrum, so a matrix-free oracle moves the first and not the second.
"""

from __future__ import annotations

import random

SWEEP_SIZES = ((3, 12), (3, 18), (3, 30), (2, 20), (2, 30), (4, 20))
EXACT_IDENTITY = ((3, 6), (4, 6))
# (4, 4) is the request with the known kernel_vs_closed defect: it stays
# at this size so the defect keeps showing in the failure count.
EXACT_APPENDIX = ((3, 4), (4, 4))
EXACT_PSI1 = (3, 4)
ORACLE_SIZES = ((2, 10), (3, 6), (4, 5))
CORRELATE_SIZES = ((2, 9), (3, 6), (4, 5))
CORRELATE_ELL = 64

KP_RANGE = (0.05, 0.95)
# g(64) reaches its limit only at the rate (w_2/w_1)^64, and the gap
# closes as k' approaches 1: at N=4, L=5, k'=0.9 the far endpoint is off
# by 2e-8, past the 1e-8 check.  Correlation moduli stay below 0.8,
# where the measured deviation is at most 2e-10.
CORRELATE_KP_RANGE = (0.05, 0.8)

WORKLOADS = ("sweep-widths", "exact-suite", "lattice-oracle")
USES_LATTICE = {"lattice-oracle"}


def _modulus(rng: random.Random, bounds=KP_RANGE) -> str:
    low, high = bounds
    while True:
        text = f"{rng.uniform(low, high):.6f}"
        if low < float(text) < high:
            return text


def _order(N, L, r, kp):
    return {"cmd": "order", "args": [
        "--N", str(N), "--L", str(L), "--r", str(r), "--kp", kp,
        "--method", "det",
    ]}


def root_count(N: int, L: int, Q: int) -> int:
    """Degree of the sector-Q counting polynomial: the level totals
    nN + Q run up to (N-1)L."""
    return ((N - 1) * L - Q) // N


def _sweep(rng):
    return [_order(N, L, rng.randrange(1, N), _modulus(rng)) for N, L in SWEEP_SIZES]


def _exact(rng):
    requests = [
        {"cmd": "identity", "args": ["--N", str(N), "--L", str(L)]}
        for N, L in EXACT_IDENTITY
    ]
    requests += [
        {"cmd": "appendix", "args": ["--N", str(N), "--L", str(L)]}
        for N, L in EXACT_APPENDIX
    ]
    N, L = EXACT_PSI1
    requests += [
        {"cmd": "psi1", "args": [N, L, Q, P, j, ell]}
        for Q in range(N)
        for P in range(N)
        if P != Q
        for j in range(root_count(N, L, Q))
        for ell in range(root_count(N, L, P))
    ]
    return requests


def _lattice(rng):
    requests = [
        {"cmd": "oracle", "args": ["--N", str(N), "--L", str(L), "--kp", _modulus(rng)]}
        for N, L in ORACLE_SIZES
    ]
    requests += [
        {"cmd": "correlate", "args": [
            "--N", str(N), "--L", str(L), "--kp", _modulus(rng, CORRELATE_KP_RANGE),
            "--r", str(rng.randrange(1, N)), "--ell", str(CORRELATE_ELL),
        ]}
        for N, L in CORRELATE_SIZES
    ]
    return requests


_BUILDERS = {
    "sweep-widths": _sweep,
    "exact-suite": _exact,
    "lattice-oracle": _lattice,
}


def requests_for(workload: str, seed: int, pass_index: int = 0) -> list[dict]:
    """The request list of one workload for one pass.  The seed picks the
    inputs, and the seed with the pass index picks the order: a request's
    place in a session can change its cost, so each pass of a run takes
    another order.  ``id`` names a request across the passes."""
    if workload not in _BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    requests = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    for index, request in enumerate(requests):
        request["id"] = index
    random.Random(f"{workload}:{seed}:{pass_index}").shuffle(requests)
    return requests


def option(request: dict, name: str) -> str | None:
    """Value of a CLI option in a request, or None."""
    args = request["args"]
    return args[args.index(name) + 1] if name in args else None

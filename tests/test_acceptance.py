"""Acceptance gate: eight checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
alongside the pytest status.  Every check states its tolerance inline; a
failure prints the offending tuple before asserting.
"""

import random
import time

import mpmath
import numpy as np
import pytest

from chiralpotts.combi import appendix_suite, identity_check
from chiralpotts.drinfeld import (
    drinfeld_projection,
    lambda_counts,
    solve_roots,
)
from chiralpotts.formfactor import (
    _kernel_matrix,
    couplings,
    dhat_det,
    dhat_routes,
    kernel_orthogonality_residual,
    order_param_sq,
    overlap_product_closed,
    psi1_brute,
    psi1_closed,
)
from chiralpotts import lattice

MODULI = ("0.2", "0.5", "0.8")


def _verdict(name, ok, detail):
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def _ordered_pairs(N):
    return [(Q, P) for Q in range(N) for P in range(N) if P != Q]


def test_1_overlap_identity_suite_exact():
    # exact integer equality of the pairing-table identity, all sectors
    # and indices, N in {2,3,4}, L up to 6; runtime target 60 s
    started = time.perf_counter()
    checked = 0
    for N in (2, 3, 4):
        for L in range(2, 7):
            report = identity_check(N, L)
            assert report["ok"] and report["symmetric"], (N, L)
            checked += report["checked"]
    elapsed = time.perf_counter() - started
    _verdict(
        "1 identity suite",
        elapsed < 60,
        f"{checked} exact identities, N<=4, L<=6, {elapsed:.1f}s (target 60s)",
    )


def test_2_generating_function_suite_exact():
    # closed generating function vs definition for every configuration,
    # recursion consistency, and the alternating-sum identity, N<=3, L<=5
    genfun = recursion = alternating = 0
    for N in (2, 3):
        for L in range(2, 6):
            report = appendix_suite(N, L, samples=40)
            assert report["ok"], (N, L, report["failures"])
            genfun += report["genfun_checked"]
            recursion += report["recursion_checked"]
            alternating += report["alternating_sum_checked"]
    _verdict(
        "2 generating functions",
        True,
        f"{genfun} closed forms, {recursion} recursion rows, "
        f"{alternating} alternating sums, all exact",
    )


def test_3_single_excitation_closed_form():
    # brute-force single-excitation overlap equals its closed form for
    # every root index pair at N=3, L in 3..6, tolerance 1e-10; the
    # transpose relation holds to the same tolerance
    tol = mpmath.mpf(10) ** -10
    checked = transposed = 0
    with mpmath.workprec(400):
        for L in range(3, 7):
            counts = {Q: lambda_counts(3, L, Q).m for Q in range(3)}
            for Q, P in _ordered_pairs(3):
                brute = {}
                for j in range(counts[Q]):
                    for ell in range(counts[P]):
                        b = psi1_brute(3, L, Q, P, j, ell)
                        c = psi1_closed(3, L, Q, P, j, ell)
                        assert abs(b - c) < tol, (L, Q, P, j, ell)
                        brute[j, ell] = b
                        checked += 1
                zq = solve_roots(lambda_counts(3, L, Q))
                zp = solve_roots(lambda_counts(3, L, P))
                for j in range(counts[Q]):
                    for ell in range(counts[P]):
                        lhs = psi1_brute(3, L, P, Q, ell, j)
                        rhs = zq[j] / zp[ell] * brute[j, ell]
                        assert abs(lhs - rhs) < tol, (L, Q, P, j, ell)
                        transposed += 1
    _verdict(
        "3 single-excitation overlaps",
        True,
        f"{checked} closed-form and {transposed} transpose checks "
        "at N=3, L<=6, tolerance 1e-10",
    )


def test_4_three_route_amplitude_agreement():
    # subset sum, determinant and closed product agree pairwise within
    # 1e-10 on every sector pair at N=3, L<=9, three moduli; the
    # determinant is invariant under random coupling sign flips and
    # under the kernel sign choice to 1e-12
    route_tol = mpmath.mpf(10) ** -10
    flip_tol = mpmath.mpf(10) ** -12
    rng = random.Random(0xF11B)
    routes_checked = flips_checked = 0
    for L in range(2, 10):
        for kp in MODULI:
            for Q, P in _ordered_pairs(3):
                inp = couplings(3, L, Q=Q, P=P, kp=kp, precision=192)
                with mpmath.workprec(inp.working):
                    run = dhat_routes(inp, "all")
                    assert len(run.differences) == 3, (L, kp, Q, P)
                    for diff in run.differences.values():
                        assert diff < route_tol, (L, kp, Q, P)
                    det = run.values["det"]
                    routes_checked += 1
                    det_flipped, _ = dhat_det(inp, eps=-1)
                    assert abs(det - det_flipped) < flip_tol, (L, kp, Q, P)
                    signs = [rng.choice((1, -1)) for _ in range(inp.m)]
                    signs_p = [rng.choice((1, -1)) for _ in range(inp.mp)]
                    B = _kernel_matrix(inp)
                    flipped = mpmath.matrix(inp.m, inp.mp)
                    for i in range(inp.m):
                        for j in range(inp.mp):
                            flipped[i, j] = signs[i] * B[i, j] * signs_p[j]
                    if inp.m:
                        M = (mpmath.eye(inp.m)
                             + mpmath.diag(inp.u) * flipped
                             * mpmath.diag(inp.up) * flipped.T)
                        val = mpmath.det(M)
                        val = val.real if isinstance(val, mpmath.mpc) else val
                        assert abs(det - val) < flip_tol, (L, kp, Q, P)
                    flips_checked += 1
    _verdict(
        "4 three-route amplitudes",
        True,
        f"{routes_checked} sector pairs agree pairwise to 1e-10; "
        f"{flips_checked} sign-flip and kernel-sign checks to 1e-12",
    )


def test_5_lattice_oracle_agreement():
    # numerically diagonalized cylinder overlaps equal the closed-form
    # coupling-and-amplitude product within 1e-8 for N in {2,3},
    # L in {3,4,5}, every ordered sector pair, three moduli; target 5 min
    started = time.perf_counter()
    tol = 1e-8
    worst = 0.0
    checked = 0
    for N in (2, 3):
        for L in (3, 4, 5):
            for kp in MODULI:
                spectra = lattice.product_spectra(N, L, float(kp))
                for Q, P in _ordered_pairs(N):
                    lat = lattice.overlap_product(
                        N, L, float(kp), Q, P, spectra=spectra
                    )
                    closed = overlap_product_closed(
                        couplings(N, L, Q=Q, P=P, kp=kp, precision=192)
                    )
                    diff = abs(lat - float(closed))
                    worst = max(worst, diff)
                    assert diff < tol, (N, L, kp, Q, P, diff)
                    checked += 1
    elapsed = time.perf_counter() - started
    _verdict(
        "5 lattice oracle",
        elapsed < 300,
        f"{checked} sector pairs, worst |lattice - closed| = {worst:.2e} "
        f"(tolerance 1e-8), {elapsed:.1f}s (target 300s)",
    )


def test_6_magnetization_limit_convergence():
    # the finite-width squared magnetization approaches its closed-form
    # limit strictly monotonically over L in {9,18,30,60} with the L=60
    # error below 1e-2, for N=3, r in {1,2}, three moduli; the two-state
    # case reproduces the quartic-root law the same way
    widths = (9, 18, 30, 60)
    rows = []
    for N, offsets in ((3, (1, 2)), (2, (1,))):
        for r in offsets:
            for kp in MODULI:
                errors = []
                for L in widths:
                    res = order_param_sq(N, r, kp, L, precision=192,
                                         method="det")
                    errors.append(res["abs_error"])
                assert all(a > b for a, b in zip(errors, errors[1:])), \
                    (N, r, kp, [float(e) for e in errors])
                assert errors[-1] < mpmath.mpf(10) ** -2, (N, r, kp)
                rows.append((N, r, kp, float(errors[-1])))
    with mpmath.workprec(192):
        ising = order_param_sq(2, 1, "0.6", 60, precision=192, method="det")
        known = (1 - mpmath.mpf("0.6") ** 2) ** mpmath.mpf("0.25")
        assert abs(ising["limit"] - known) < mpmath.mpf(10) ** -40
    worst = max(row[3] for row in rows)
    _verdict(
        "6 limit convergence",
        True,
        f"{len(rows)} sweeps strictly decreasing over L={list(widths)}, "
        f"worst final error {worst:.2e} (bound 1e-2); two-state limit "
        "matches the quartic-root law",
    )


def test_7_correlation_endpoints():
    # pair correlation at separation zero is 1 within 1e-10 and at
    # separation 64 equals the sector-averaged overlap product within
    # 1e-8, at N=3, L=4, k'=0.5
    N, L, kp = 3, 4, 0.5
    spectra = lattice.product_spectra(N, L, kp)
    results = []
    for r in (1, 2):
        at_zero = lattice.pair_correlation(N, L, kp, r, 0, spectra=spectra)
        assert abs(at_zero - 1.0) < 1e-10, (r, at_zero)
        at_far = lattice.pair_correlation(N, L, kp, r, 64, spectra=spectra)
        average = sum(
            lattice.overlap_product(N, L, kp, Q, (Q - r) % N, spectra=spectra)
            for Q in range(N)
        ) / N
        assert abs(at_far - average) < 1e-8, (r, at_far, average)
        results.append((r, abs(at_zero - 1.0), abs(at_far - average)))
    _verdict(
        "7 correlation endpoints",
        True,
        "; ".join(
            f"r={r}: |g(0)-1|={z:.1e} (tol 1e-10), "
            f"|g(64)-avg|={f:.1e} (tol 1e-8)"
            for r, z, f in results
        ),
    )


def test_8_structural_invariants():
    # dual-route sector counting, the degree law, reciprocal root pairing
    # between opposite sectors, commutator and Hermiticity diagnostics,
    # and the determinant kernel's orthogonality identity
    projections = 0
    for N in (2, 3, 4):
        for L in range(2, 9):
            for Q in range(N):
                poly = lambda_counts(N, L, Q)
                assert drinfeld_projection(N, L, Q) == tuple(
                    N * v for v in poly.lam
                ), (N, L, Q)
                assert poly.m == ((N - 1) * L - Q) // N, (N, L, Q)
                projections += 1
    pair_tol = mpmath.mpf(10) ** -(192 // 4)
    paired = 0
    for N, L in ((2, 4), (2, 6), (3, 3), (3, 6), (4, 4), (4, 8)):
        for P in range(1, N):
            a = solve_roots(lambda_counts(N, L, P), precision=192)
            b = solve_roots(lambda_counts(N, L, N - P), precision=192)
            assert len(a) == len(b), (N, L, P)
            with mpmath.workprec(384):
                recip = sorted(1 / z for z in b)
                for x, y in zip(a, recip):
                    assert abs(x - y) < pair_tol, (N, L, P)
                    paired += 1
    report = lattice.diagnostics(3, 4, 0.5)
    comm = max(max(report.tt_commutators), max(report.th_commutators))
    assert comm < 1e-10, comm
    herm = 0.0
    for Q in range(3):
        h = lattice.build_hamiltonian(3, 4, Q, 0.5).mat
        herm = max(herm, np.linalg.norm(h - h.conj().T) / np.linalg.norm(h))
    assert herm < 1e-10, herm
    orth = mpmath.mpf(0)
    for Q, P in _ordered_pairs(3):
        inp = couplings(3, 6, Q=Q, P=P, kp="0.5", precision=192)
        orth = max(orth, kernel_orthogonality_residual(inp))
    assert orth < mpmath.mpf(10) ** -8, orth
    _verdict(
        "8 structural invariants",
        True,
        f"{projections} dual-route counts and degrees exact; {paired} "
        f"reciprocal roots paired to 1e-48; commutators {comm:.1e} and "
        f"Hermiticity {herm:.1e} under 1e-10; kernel orthogonality "
        f"{mpmath.nstr(orth, 2)} under 1e-8",
    )

"""Form-factor routes: subset sum, determinant, closed products."""

import dataclasses
import decimal
import itertools

import mpmath
import pytest

from chiralpotts.drinfeld import lambda_counts
from chiralpotts import combi, drinfeld, formfactor
from chiralpotts.errors import (
    DomainError,
    IdentityViolationError,
    OrthogonalityViolationError,
    SingularConfigurationError,
    SizeGuardError,
)
from chiralpotts.formfactor import (
    ROUTE_TOL,
    _kernel_matrix,
    couplings,
    dhat_closed,
    dhat_det,
    dhat_routes,
    dhat_sum,
    kernel_orthogonality_residual,
    order_param_sq,
    overlap_product_closed,
    psi1_brute,
    psi1_closed,
    psi_closed,
    rapidity_ratio,
    rapidity_ratio_limit,
)


def _pairs(N, rs=(1,)):
    for Q in range(N):
        for r in rs:
            yield Q, (Q - r) % N


def test_couplings_normalization_and_ranges():
    inp = couplings(3, 5, Q=2, P=1, kp="0.5")
    assert inp.swapped
    assert (inp.Q, inp.P) == (1, 2)
    assert inp.mp - inp.m in (0, 1)
    assert all(0 < u < 1 for u in inp.u)
    assert all(u > 0 for u in inp.up)


def test_coupling_relation_violation_raises_domain_error(monkeypatch):
    # rapidities off their roots by 2^-60 relative break b = -z a far above 2^-192
    exact = formfactor.root_transforms

    def shifted(poly, kp, precision):
        data = exact(poly, kp, precision)
        with mpmath.workprec(2 * precision):
            lam = tuple(v * (1 + mpmath.mpf(2) ** -60) for v in data.lam)
        return dataclasses.replace(data, lam=lam)

    monkeypatch.setattr(formfactor, "root_transforms", shifted)
    with pytest.raises(DomainError):
        couplings(3, 5, Q=0, P=1, kp="0.5")


def _with_bra_root_near_ket_root(offset):
    """A root_transforms stand-in for the pair (Q, P) = (0, 1) of (3, 5):
    the bra sector's second root is moved to the ket sector's first root
    times 1 + offset, and the list re-sorted."""
    exact = drinfeld.root_transforms

    def transforms(poly, kp, precision):
        data = exact(poly, kp, precision)
        if poly.Q != 0:
            return data
        target = exact(lambda_counts(poly.N, poly.L, 1), kp, precision).z[0]
        with mpmath.workprec(2 * precision):
            moved = target * (1 + offset)
        z = tuple(sorted((data.z[0], moved) + data.z[2:]))
        return dataclasses.replace(data, z=z)

    return transforms


def test_shared_root_raises_singular_configuration(monkeypatch):
    # within 2^-precision of a ket root, a bra root counts as shared; the
    # merged root lists put the two next to each other
    monkeypatch.setattr(
        formfactor, "root_transforms", _with_bra_root_near_ket_root(mpmath.mpf(2) ** -220)
    )
    with pytest.raises(SingularConfigurationError):
        couplings(3, 5, Q=0, P=1, kp="0.5")
    with pytest.raises(SingularConfigurationError):
        couplings(3, 5, Q=1, P=0, kp="0.5")
    # 2^-100 relative is far outside the tolerance: the relation check,
    # which runs next, is what refuses the moved root
    monkeypatch.setattr(
        formfactor, "root_transforms", _with_bra_root_near_ket_root(mpmath.mpf(2) ** -100)
    )
    with pytest.raises(DomainError):
        couplings(3, 5, Q=0, P=1, kp="0.5")


def test_shared_root_check_survives_optimize_flag(run_optimized):
    run_optimized("test_formfactor.py::test_shared_root_raises_singular_configuration")


def test_couplings_rejects_equal_charges():
    with pytest.raises(ValueError):
        couplings(3, 4, Q=1, P=1, kp="0.5")


def test_per_root_cc_factor_frozen():
    # single bra root at z = -1: lambda = sqrt(1 + k'^2), and the cc
    # factor ((lambda+1)^2 - k'^2)/(4 lambda) comes out (1+lambda)/(2 lambda)
    inp = couplings(2, 2, Q=0, P=1, kp="0.5")
    assert inp.m == 0 and inp.mp == 1
    assert abs(inp.cc_product - mpmath.mpf("0.9472135955")) < 1e-9


def test_order_param_two_state_width_two_hand_value():
    res = order_param_sq(2, 1, "0.5", 2)
    assert abs(res["finite_L"] - mpmath.mpf("0.9472135955")) < 1e-9


def test_psi_closed_empty_subsets():
    inp = couplings(3, 5, Q=0, P=2, kp="0.5")
    assert psi_closed(inp, (), ()) == 1


def test_psi_closed_validation():
    inp = couplings(3, 5, Q=0, P=2, kp="0.5")
    with pytest.raises(ValueError):
        psi_closed(inp, (0,), ())
    with pytest.raises(ValueError):
        psi_closed(inp, (0, 0), (0, 1))
    with pytest.raises(ValueError):
        psi_closed(inp, (inp.m,), (0,))


def _psi_closed_angular(inp, W, Wp):
    """The overlap of `psi_closed` through the cosine variables
    c = -(1+z)/(1-z): the cross ratios of c differences times the
    correction prod_bra (c'-1)^(m'-m) / prod_ket (c-1)^(m'-m), an
    independently derived form of the z-variable product."""
    c, cp = inp.roots_ket.c, inp.roots_bra.c
    V = [i for i in range(inp.m) if i not in W]
    Vp = [j for j in range(inp.mp) if j not in Wp]
    gap = inp.mp - inp.m
    val = mpmath.mpf(1)
    for i in W:
        for j in Vp:
            val *= c[i] - cp[j]
    for i in V:
        for j in Wp:
            val *= c[i] - cp[j]
    for i in W:
        for j in V:
            val /= c[j] - c[i]
    for i in Vp:
        for j in Wp:
            val /= cp[j] - cp[i]
    for j in Wp:
        val *= (cp[j] - 1) ** gap
    for i in W:
        val /= (c[i] - 1) ** gap
    return val


def test_psi_closed_angular_route_agrees():
    for Q, P in ((0, 1), (0, 2), (1, 2)):
        inp = couplings(3, 6, Q=Q, P=P, kp="0.5")
        with mpmath.workprec(inp.working):
            for n in range(min(inp.m, inp.mp) + 1):
                for W in itertools.combinations(range(inp.m), n):
                    for Wp in itertools.combinations(range(inp.mp), n):
                        a = psi_closed(inp, W, Wp)
                        b = _psi_closed_angular(inp, W, Wp)
                        assert abs(a - b) < mpmath.mpf(10) ** -40


def _dhat_sum_hatted(inp):
    """D as the subset sum over the hatted couplings, built from the
    rapidities: -(lam-1-k')/(lam+1-k') per ket root and
    (lam-1+k')/(lam+1+k') per bra root, with each subset term carrying
    the extra factor prod_W 1/z times prod_Wp z'."""
    kp = mpmath.mpf(inp.kp)
    uh = [-(lam - 1 - kp) / (lam + 1 - kp) for lam in inp.roots_ket.lam]
    uph = [(lam - 1 + kp) / (lam + 1 + kp) for lam in inp.roots_bra.lam]
    z, zp = inp.roots_ket.z, inp.roots_bra.z
    total = mpmath.mpf(0)
    for n in range(inp.m + 1):
        for W in itertools.combinations(range(inp.m), n):
            for Wp in itertools.combinations(range(inp.mp), n):
                term = psi_closed(inp, W, Wp)
                for i in W:
                    term *= uh[i] / z[i]
                for j in Wp:
                    term *= uph[j] * zp[j]
                total += term
    return total


def test_dhat_routes_agree_small():
    for kp in ("0.2", "0.5", "0.8"):
        for L in (4, 5, 6):
            for Q, P in _pairs(3, rs=(1, 2)):
                inp = couplings(3, L, Q=Q, P=P, kp=kp)
                with mpmath.workprec(inp.working):
                    run = dhat_routes(inp, "all")
                    assert len(run.differences) == 3 and not run.failures
                    for diff in run.differences.values():
                        assert diff < mpmath.mpf(10) ** -40
                    h = _dhat_sum_hatted(inp)
                    assert abs(h - run.values["closed"]) < mpmath.mpf(10) ** -40
                    assert run.orthogonality < mpmath.mpf(10) ** -40


def test_dhat_det_sign_choices_cancel():
    inp = couplings(3, 7, Q=0, P=1, kp="0.7")
    with mpmath.workprec(inp.working):
        a, _ = dhat_det(inp, eps=1)
        b, _ = dhat_det(inp, eps=-1)
        assert abs(a - b) < mpmath.mpf(10) ** -50


def test_dhat_sum_guard():
    inp = couplings(3, 20, Q=0, P=2, kp="0.5")
    assert inp.mp == 13
    with pytest.raises(SizeGuardError):
        dhat_sum(inp)


def test_kernel_orthogonality_small():
    for L in (5, 8):
        for Q, P in _pairs(3):
            inp = couplings(3, L, Q=Q, P=P, kp="0.4")
            resid = kernel_orthogonality_residual(inp)
            assert resid < mpmath.mpf(10) ** -40


def _gram_residual_mpmath(inp):
    """Largest entry deviation of B B^T from the identity, with B the
    complex mpmath kernel matrix; couplings keep m <= m', so B B^T is
    the square of the smaller side."""
    with mpmath.workprec(inp.working):
        B = _kernel_matrix(inp)
        G = B * B.T
        resid = mpmath.mpf(0)
        for i in range(inp.m):
            for k in range(inp.m):
                resid = max(resid, abs(G[i, k] - (1 if i == k else 0)))
        return resid


def _dhat_det_mpmath(inp):
    """det(1 + diag(u) B diag(u') B^T) on the complex mpmath kernel."""
    if inp.m == 0:
        return mpmath.mpf(1)
    with mpmath.workprec(inp.working):
        B = _kernel_matrix(inp)
        val = mpmath.det(
            mpmath.eye(inp.m) + mpmath.diag(inp.u) * B * mpmath.diag(inp.up) * B.T
        )
        return val.real if isinstance(val, mpmath.mpc) else val


@pytest.mark.parametrize(
    "N, widths", [(2, (3, 8, 12)), (3, (4, 9, 12)), (4, (5, 8, 12)), (5, (4, 8, 12))]
)
def test_real_det_matches_complex_mpmath_det(N, widths):
    # the decimal route against complex mpmath arithmetic on the same kernel
    for L in widths:
        for kp in ("0.2", "0.5", "0.8"):
            for Q, P in itertools.permutations(range(N), 2):
                inp = couplings(N, L, Q=Q, P=P, kp=kp)
                value, _ = dhat_det(inp)
                want = _dhat_det_mpmath(inp)
                with mpmath.workprec(inp.working):
                    assert abs(value - want) < mpmath.mpf(10) ** -50 * abs(want), (L, kp, Q, P)


def _real_kernel_loop(inp, eps=1):
    """f^2, S and C of `formfactor._real_kernel` by the direct O(m^2 m')
    sums S_ik = sum_j f'_j^2 K_ij K_kj and C_ik = sum_j u'_j f'_j^2 K_ij K_kj,
    in the current decimal context."""
    to_dec = formfactor._to_decimal
    z = [to_dec(v) for v in inp.roots_ket.z]
    zp = [to_dec(v) for v in inp.roots_bra.z]
    up = [to_dec(v) for v in inp.up]
    f2, fp2 = formfactor._squared_weights(inp, eps, z, zp)
    vp2 = [a * b for a, b in zip(up, fp2)]
    K = [[1 / (zi - zj) for zj in zp] for zi in z]
    S = [[None] * inp.m for _ in range(inp.m)]
    C = [[None] * inp.m for _ in range(inp.m)]
    for i, row in enumerate(K):
        row_s = [a * b for a, b in zip(row, fp2)]
        row_c = [a * b for a, b in zip(row, vp2)]
        for k in range(i, inp.m):
            S[i][k] = S[k][i] = sum(a * b for a, b in zip(row_s, K[k]))
            C[i][k] = C[k][i] = sum(a * b for a, b in zip(row_c, K[k]))
    return f2, S, C


@pytest.mark.parametrize("N, L", [(3, 12), (4, 20), (3, 60)])
def test_cauchy_form_sums_match_the_direct_loop(N, L):
    # every entry within 2^-(working - 20) of the largest one
    for Q, P in itertools.combinations(range(N), 2):
        inp = couplings(N, L, Q=Q, P=P, kp="0.5")
        with decimal.localcontext(formfactor._decimal_context(inp)):
            f2, S, C = formfactor._real_kernel(inp, 1)
            f2_loop, S_loop, C_loop = _real_kernel_loop(inp)
            assert f2 == f2_loop
            for got, want in ((S, S_loop), (C, C_loop)):
                scale = max(abs(v) for row in want for v in row)
                tol = scale * decimal.Decimal(2) ** -(inp.working - 20)
                for row, row_want in zip(got, want, strict=True):
                    for a, b in zip(row, row_want, strict=True):
                        assert abs(a - b) <= tol, (N, L, Q, P)


def test_real_det_is_blind_to_the_kernel_sign():
    # eps flips the sign of every squared weight, which cancels in pairs
    for L, Q, P in ((7, 0, 1), (8, 2, 0), (9, 1, 2)):
        inp = couplings(3, L, Q=Q, P=P, kp="0.3")
        assert dhat_det(inp, eps=1) == dhat_det(inp, eps=-1)
        assert kernel_orthogonality_residual(inp, eps=-1) == dhat_det(inp)[1]


def test_real_det_rejects_other_kernel_signs():
    inp = couplings(3, 5, Q=0, P=1, kp="0.5")
    for eps in (0, 2):
        with pytest.raises(ValueError):
            dhat_det(inp, eps=eps)
        with pytest.raises(ValueError):
            kernel_orthogonality_residual(inp, eps=eps)


def test_orthogonality_residual_matches_mpmath_gram():
    for N, L, kp in ((2, 9, "0.7"), (3, 8, "0.4"), (4, 7, "0.5"), (5, 6, "0.2")):
        for Q, P in _pairs(N):
            inp = couplings(N, L, Q=Q, P=P, kp=kp)
            resid = kernel_orthogonality_residual(inp)
            want = _gram_residual_mpmath(inp)
            with mpmath.workprec(inp.working):
                assert want > 0
                assert abs(resid - want) < mpmath.mpf(10) ** -30 * want, (N, L, Q, P)


def test_elimination_without_a_pivot_gives_zero():
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=40)):
        assert formfactor._det_in_place([[D(0), D(1)], [D(0), D(2)]]) == 0
        assert formfactor._det_in_place([[D(1), D(2)], [D(4), D(4)]]) == -4
        assert formfactor._det_in_place([]) == 1


def test_real_det_without_ket_roots_is_one():
    for N, L, Q, P in ((2, 2, 0, 1), (2, 1, 0, 1)):
        inp = couplings(N, L, Q=Q, P=P, kp="0.5")
        assert inp.m == 0
        assert dhat_det(inp) == (1, 0)


def test_nudged_bra_root_breaks_orthogonality():
    # a relative 1e-40 shift of one bra root moves the Gram by about 1e-40,
    # far above the 2^-160 threshold at 320 bits
    inp = couplings(3, 7, Q=0, P=1, kp="0.5", precision=320)
    assert dhat_det(inp)[1] < mpmath.mpf(2) ** -160
    z = list(inp.roots_bra.z)
    with mpmath.workprec(inp.working):
        z[1] *= 1 + mpmath.mpf(10) ** -40
    nudged = dataclasses.replace(inp, roots_bra=dataclasses.replace(inp.roots_bra, z=tuple(z)))
    with pytest.raises(OrthogonalityViolationError):
        dhat_det(nudged)
    # this nudge shows most in an off-diagonal Gram entry
    resid = kernel_orthogonality_residual(nudged)
    want = _gram_residual_mpmath(nudged)
    with mpmath.workprec(inp.working):
        assert abs(resid - want) < mpmath.mpf(10) ** -30 * want


def test_orthogonality_check_survives_optimize_flag(run_optimized):
    run_optimized("test_formfactor.py::test_nudged_bra_root_breaks_orthogonality")


def test_det_route_reaches_width_240():
    res = order_param_sq(3, 1, "0.5", 240, method="det")
    for e in res["per_sector"]:
        inp = couplings(3, 240, Q=e["Q"], P=e["P"], kp="0.5")
        with mpmath.workprec(inp.working):
            assert abs(e["dhat"] - dhat_closed(inp)) < ROUTE_TOL, (e["Q"], e["P"])
            assert e["orthogonality_residual"] < mpmath.mpf(2) ** -96


def test_overlap_product_identity_both_gaps():
    # gap 0 and gap 1 pairs both satisfy the R-ratio rearrangement
    for L, Q, P in ((4, 0, 1), (5, 0, 2), (6, 1, 2), (7, 0, 1)):
        inp = couplings(3, L, Q=Q, P=P, kp="0.6")
        with mpmath.workprec(inp.working):
            lhs = overlap_product_closed(inp)
            rhs = inp.cc_product * dhat_closed(inp) ** 2
            assert abs(lhs - rhs) < mpmath.mpf(10) ** -40


def test_psi1_brute_matches_closed_exhaustive_small():
    for L in (3, 4):
        for Q, P in _pairs(3, rs=(1, 2)):
            mq = lambda_counts(3, L, Q).m
            mp_ = lambda_counts(3, L, P).m
            for j in range(mq):
                for ell in range(mp_):
                    b = psi1_brute(3, L, Q, P, j, ell)
                    c = psi1_closed(3, L, Q, P, j, ell)
                    assert abs(b - c) < mpmath.mpf(10) ** -40


def test_psi1_transpose_relation():
    from chiralpotts.drinfeld import sector_roots

    with mpmath.workprec(400):
        for Q, P in _pairs(3, rs=(1, 2)):
            zq = sector_roots(3, 4, Q)
            zp = sector_roots(3, 4, P)
            for j in range(len(zq)):
                for ell in range(len(zp)):
                    lhs = psi1_brute(3, 4, P, Q, ell, j)
                    rhs = zq[j] / zp[ell] * psi1_brute(3, 4, Q, P, j, ell)
                    assert abs(lhs - rhs) < mpmath.mpf(10) ** -40


def test_psi1_precision_insensitive():
    # the single-excitation overlap involves no coupling constant; raising
    # the precision must reproduce the same number, not merely a nearby one
    a = psi1_brute(3, 5, 0, 2, 1, 0, precision=128)
    b = psi1_brute(3, 5, 0, 2, 1, 0, precision=256)
    assert abs(a - b) < mpmath.mpf(10) ** -35


def test_psi1_kernel_mismatch_raises_typed_error(monkeypatch):
    # one unit added to the (a, b) = (0, 0) table entry moves the power sum
    # by exactly 1 while the two-pole form stays put
    table = combi.calG_table(3, 4)
    entries = [list(row) for row in table.entries]
    entries[0][1] += 1
    broken = dataclasses.replace(table, entries=tuple(map(tuple, entries)))
    monkeypatch.setattr(combi, "calG_table", lambda N, L: broken)
    with pytest.raises(IdentityViolationError):
        psi1_brute(3, 4, 0, 1, 0, 0)


def test_psi1_kernel_check_survives_optimize_flag(run_optimized):
    run_optimized("test_formfactor.py::test_psi1_kernel_mismatch_raises_typed_error")


def test_psi1_index_validation():
    with pytest.raises(ValueError):
        psi1_brute(3, 3, 0, 1, 5, 0)
    with pytest.raises(ValueError):
        psi1_closed(3, 3, 0, 1, 0, 5)


def test_order_param_validation():
    with pytest.raises(ValueError):
        order_param_sq(3, 0, "0.5", 4)
    with pytest.raises(ValueError):
        order_param_sq(3, 3, "0.5", 4)
    with pytest.raises(ValueError):
        order_param_sq(3, 1, "0.5", 4, method="bogus")


def test_order_param_methods_consistent():
    res = order_param_sq(3, 1, "0.5", 6, method="all")
    for e in res["per_sector"]:
        routes = e["routes"]
        assert abs(routes["sum"] - routes["closed"]) < mpmath.mpf(10) ** -40
        assert abs(routes["det"] - routes["closed"]) < mpmath.mpf(10) ** -40
        assert "orthogonality_residual" in e


def test_order_param_charge_symmetry():
    # r and N - r give the same squared magnetization
    a = order_param_sq(3, 1, "0.5", 9)
    b = order_param_sq(3, 2, "0.5", 9)
    assert abs(a["finite_L"] - b["finite_L"]) < mpmath.mpf(10) ** -40
    assert abs(a["limit"] - b["limit"]) < mpmath.mpf(10) ** -40


def test_order_param_converges_three_state():
    errs = []
    for L in (6, 9, 12):
        res = order_param_sq(3, 1, "0.5", L)
        errs.append(res["abs_error"])
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < mpmath.mpf(10) ** -8


def test_order_param_ising_cross_check():
    # finite-size error decays like k'^(2L), so the width grows with k'
    for kp, L in (("0.2", 8), ("0.5", 16), ("0.8", 48)):
        res = order_param_sq(2, 1, kp, L)
        with mpmath.workprec(200):
            ising = (1 - mpmath.mpf(kp) ** 2) ** mpmath.mpf("0.25")
        assert abs(res["finite_L"] - ising) < 1e-8
        assert abs(res["limit"] - ising) < mpmath.mpf(10) ** -50


def test_rapidity_ratio_approaches_limit():
    inp9 = couplings(3, 9, Q=0, P=2, kp="0.5")
    inp30 = couplings(3, 30, Q=0, P=2, kp="0.5")
    with mpmath.workprec(inp30.working):
        kpv = mpmath.mpf("0.5")
        err9 = abs(
            rapidity_ratio(inp9, 1 - kpv) - rapidity_ratio_limit(inp9, "low")
        )
        err30 = abs(
            rapidity_ratio(inp30, 1 - kpv) - rapidity_ratio_limit(inp30, "low")
        )
        assert err30 < err9
        assert err30 < 1e-10
        err9h = abs(
            rapidity_ratio(inp9, 1 + kpv) - rapidity_ratio_limit(inp9, "high")
        )
        err30h = abs(
            rapidity_ratio(inp30, 1 + kpv) - rapidity_ratio_limit(inp30, "high")
        )
        assert err30h < err9h
        assert err30h < 1e-10

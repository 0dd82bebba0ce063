"""Sector counting polynomials, certified roots, and root transforms."""

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cycpoly
from chiralpotts import drinfeld
from chiralpotts.drinfeld import (
    DrinfeldPoly,
    drinfeld_projection,
    lambda_counts,
    root_transforms,
    sector_roots,
    solve_roots,
)
from chiralpotts.errors import (
    CountingInvariantError,
    DomainError,
    NonRealRootError,
    RootClusterTooTightError,
)


def test_counts_three_state_degrees():
    ms = [lambda_counts(3, 3, Q).m for Q in range(3)]
    assert ms == [2, 1, 1]


def test_counts_three_state_width_two():
    assert lambda_counts(3, 2, 0).lam == (1, 2)


def test_counts_validation():
    with pytest.raises(ValueError):
        lambda_counts(3, 3, 3)
    with pytest.raises(ValueError):
        lambda_counts(1, 3, 0)


def _wrong_block(change):
    """A lambda_block stand-in that returns the true counts passed
    through `change`."""
    true_block = drinfeld.lambda_block

    def block(N, L, Q):
        return change(true_block(N, L, Q))

    return block


def test_counting_invariants_raise_typed_errors(monkeypatch):
    # (3, 4, 0) has counts (1, 16, 10): each change breaks one invariant,
    # and the swap keeps degree, top and total so only the projection sees it
    for change in (
        lambda lam: lam[:-1],
        lambda lam: lam[:-1] + (0,),
        lambda lam: lam[:-1] + (lam[-1] + 1,),
    ):
        monkeypatch.setattr(drinfeld, "lambda_block", _wrong_block(change))
        with pytest.raises(CountingInvariantError):
            lambda_counts(3, 4, 0)
    monkeypatch.setattr(
        drinfeld, "lambda_block", _wrong_block(lambda lam: (lam[1], lam[0]) + lam[2:])
    )
    with pytest.raises(CountingInvariantError):
        drinfeld_projection(3, 4, 0)


def test_counting_invariants_survive_optimize_flag(run_optimized):
    run_optimized("test_drinfeld.py::test_counting_invariants_raise_typed_errors")


def test_projection_two_state_hand_value():
    assert drinfeld_projection(2, 2, 0) == (2, 2)


def test_projection_matches_polynomial_oracle():
    # the vector expansion against the same sum of products over Cyc
    for N in (2, 3, 4):
        for L in range(1, 5):
            for Q in range(N):
                expansion = cycpoly.projection_poly(N, L, Q)
                assert all(
                    c.is_zero() for k, c in enumerate(expansion.coeffs) if (k - Q) % N
                ), (N, L, Q)
                want = tuple(c.as_int() for c in expansion.coeffs[Q::N])
                assert drinfeld_projection(N, L, Q) == want, (N, L, Q)


def test_projection_matches_counts_small():
    # equality with N * counts is asserted inside; this drives the sweep
    for N in (2, 3, 4):
        for L in range(1, 7):
            for Q in range(N):
                out = drinfeld_projection(N, L, Q)
                assert out[0] > 0


def test_coefficient_reversal_between_partner_sectors():
    # reversing every site value sends total s to (N-1)L - s, so the
    # counts of sector P reversed are the counts of ((N-1)L - P) mod N
    for N in (2, 3, 4):
        for L in range(1, 7):
            for P in range(N):
                partner = ((N - 1) * L - P) % N
                a = lambda_counts(N, L, P).lam
                b = lambda_counts(N, L, partner).lam
                assert b == tuple(reversed(a))


def test_roots_empty_for_degree_zero():
    poly = lambda_counts(2, 1, 1)
    assert poly.m == 0
    assert solve_roots(poly) == ()


def test_root_two_state_width_two():
    poly = lambda_counts(2, 2, 0)
    assert poly.lam == (1, 1)
    (z,) = solve_roots(poly)
    assert abs(z + 1) < mpmath.mpf(10) ** -50


def test_root_three_state_width_two():
    (z,) = solve_roots(lambda_counts(3, 2, 0))
    assert abs(z + mpmath.mpf(1) / 2) < mpmath.mpf(10) ** -50


def test_roots_ascending_negative_simple():
    for N, L in ((2, 6), (3, 5), (3, 6), (4, 4)):
        for Q in range(N):
            poly = lambda_counts(N, L, Q)
            roots = solve_roots(poly)
            assert len(roots) == poly.m
            assert all(z < 0 for z in roots)
            assert all(a < b for a, b in zip(roots, roots[1:]))


def test_roots_residuals_at_elevated_precision():
    poly = lambda_counts(3, 9, 0)
    roots = solve_roots(poly, precision=256)
    with mpmath.workprec(300):
        for z in roots:
            val = sum(c * z**n for n, c in enumerate(poly.lam))
            scale = sum(abs(c) * abs(z) ** n for n, c in enumerate(poly.lam))
            assert abs(val) / scale < mpmath.mpf(2) ** -128


def test_roots_moderate_width_chain():
    poly = lambda_counts(3, 18, 0)
    roots = solve_roots(poly)
    assert len(roots) == 12
    assert all(z < 0 for z in roots)


def test_roots_cache_returns_same_object():
    a = solve_roots(lambda_counts(3, 4, 1))
    b = solve_roots(lambda_counts(3, 4, 1))
    assert a is b


def test_roots_precision_floor():
    with pytest.raises(ValueError):
        solve_roots(lambda_counts(2, 2, 0), precision=64)


def test_non_real_roots_detected():
    fake = DrinfeldPoly(N=2, L=0, Q=0, lam=(1, 0, 1))
    with pytest.raises(NonRealRootError):
        solve_roots(fake)


def test_root_cluster_detected():
    fake = DrinfeldPoly(N=2, L=0, Q=1, lam=(1, 2, 1))
    with pytest.raises(RootClusterTooTightError):
        solve_roots(fake)


def test_mislabelled_polynomial_is_refused():
    # the bracket scan reads (N, L, Q) while the certificate reads the
    # coefficients; a polynomial whose labels do not match them must be
    # refused with a typed error, never solved wrongly
    fake = DrinfeldPoly(N=3, L=6, Q=0, lam=lambda_counts(3, 5, 0).lam)
    with pytest.raises(RootClusterTooTightError):
        solve_roots(fake)


def test_certificate_rejects_what_it_cannot_prove():
    poly = lambda_counts(3, 12, 0)
    roots = solve_roots(poly)
    assert drinfeld._certificate_failure(poly.lam, roots, 192) is None
    with mpmath.workprec(240):
        nudged = roots[:3] + (roots[3] * (1 + mpmath.mpf(2) ** -80),) + roots[4:]
    assert "residual" in drinfeld._certificate_failure(poly.lam, nudged, 192)
    swapped = (roots[1], roots[0]) + roots[2:]
    assert "ascending" in drinfeld._certificate_failure(poly.lam, swapped, 192)
    assert "probe" in drinfeld._certificate_failure(poly.lam, roots[:-1], 192)


def _merged_sector_labels(N, L):
    """Sector labels of all roots of width L merged in ascending order."""
    merged = sorted(
        (z, Q) for Q in range(N) for z in solve_roots(lambda_counts(N, L, Q))
    )
    return [Q for _, Q in merged]


def test_roots_interlace_across_sectors():
    # merged in ascending order, the roots of one width run through the
    # sectors cyclically with the charge falling by one each step, so any
    # two sectors interlace
    for N in (2, 3, 4):
        for L in (6, 10, 15, 20):
            labels = _merged_sector_labels(N, L)
            assert all((a - b) % N == 1 for a, b in zip(labels, labels[1:]))


def test_roots_interlace_between_consecutive_widths():
    for N in (3, 4):
        for L in (6, 10, 15, 20):
            for Q in range(N):
                merged = sorted(
                    [(z, 0) for z in solve_roots(lambda_counts(N, L, Q))]
                    + [(z, 1) for z in solve_roots(lambda_counts(N, L + 1, Q))]
                )
                labels = [w for _, w in merged]
                assert all(a != b for a, b in zip(labels, labels[1:]))


def test_roots_agree_with_polyroots():
    # mpmath.polyroots at more than twice the precision, as an independent
    # oracle for the bracket-and-polish solver
    precision = 192
    for N in (2, 3, 4):
        for L in (5, 12, 18):
            for Q in range(N):
                poly = lambda_counts(N, L, Q)
                roots = solve_roots(poly, precision)
                with mpmath.workprec(2 * precision + 60):
                    oracle = sorted(
                        mpmath.re(r)
                        for r in mpmath.polyroots(
                            poly.lam[::-1], maxsteps=200, extraprec=precision
                        )
                    )
                    for z, w in zip(roots, oracle, strict=True):
                        assert abs(z - w) <= abs(w) * mpmath.mpf(2) ** -(precision - 8)


def test_reciprocal_roots_pair_at_width_sixty():
    a = solve_roots(lambda_counts(3, 60, 1))
    b = solve_roots(lambda_counts(3, 60, 2))
    assert len(a) == len(b) == 39
    with mpmath.workprec(240):
        for x, y in zip(a, sorted(1 / z for z in b)):
            assert abs(x - y) <= abs(x) * mpmath.mpf(2) ** -184


def test_reciprocal_roots_pair_opposite_sectors_when_length_divisible():
    # with N | L, the partner of sector P is N - P, so the reciprocals of
    # one sector's roots are the other's
    for N, L in ((2, 4), (3, 3), (3, 6), (4, 4)):
        for P in range(1, N):
            a = solve_roots(lambda_counts(N, L, P))
            b = solve_roots(lambda_counts(N, L, N - P))
            assert len(a) == len(b)
            recip = sorted(1 / z for z in b)
            for x, y in zip(a, recip):
                assert abs(x - y) < mpmath.mpf(2) ** -48


def test_transforms_frozen_lambda_value():
    poly = lambda_counts(2, 2, 0)
    data = root_transforms(poly, "0.5")
    assert data.m == 1
    assert abs(data.z[0] + 1) < mpmath.mpf(10) ** -50
    assert abs(data.lam[0] - 1.118033988) < 1e-9
    with mpmath.workprec(200):
        assert abs(data.lam[0] - mpmath.sqrt(mpmath.mpf("1.25"))) < mpmath.mpf(2) ** -180


def test_transforms_ranges_across_couplings():
    with mpmath.workprec(360):
        for kp in ("0.2", "0.5", "0.8"):
            kpv = mpmath.mpf(kp)
            for Q in range(3):
                data = root_transforms(lambda_counts(3, 5, Q), kp)
                for lam in data.lam:
                    assert (1 - kpv) < lam < (1 + kpv)
                for c in data.c:
                    assert -1 < c < 1
                for z, w in zip(data.z, data.w):
                    assert abs(z * w - 1) < mpmath.mpf(2) ** -150
                assert data.consistency_residual < mpmath.mpf(10) ** -40


def test_transforms_theta_inverts():
    data = root_transforms(lambda_counts(3, 4, 1), "0.3")
    with mpmath.workprec(360):
        kpv = mpmath.mpf("0.3")
        for lam, theta in zip(data.lam, data.theta):
            e2t = mpmath.exp(2 * theta)
            assert abs((lam + 1 - kpv) / (lam - 1 + kpv) - e2t) < mpmath.mpf(2) ** -150


def test_transforms_coupling_validation():
    poly = lambda_counts(2, 2, 0)
    with pytest.raises(DomainError):
        root_transforms(poly, "1.5")
    with pytest.raises(DomainError):
        root_transforms(poly, "0")


def test_sector_roots_shortcut():
    assert sector_roots(3, 2, 0) == solve_roots(lambda_counts(3, 2, 0))


@settings(deadline=None, max_examples=60)
@given(
    N=st.integers(min_value=2, max_value=6),
    L=st.integers(min_value=1, max_value=40),
    log_x=st.floats(min_value=-12.0, max_value=12.0),
    data=st.data(),
)
def test_identity_scan_sign_is_exact_where_resolved(N, L, log_x, data):
    # a double-precision sign from the projection identity is either
    # declined (0) or equal to the exact sign of the integer polynomial
    Q = data.draw(st.integers(min_value=0, max_value=N - 1))
    x = 10.0**log_x
    sign = drinfeld._identity_sign(N, L, Q, x)
    if sign:
        lam = lambda_counts(N, L, Q).lam
        assert sign == drinfeld._exact_sign(lam, *drinfeld._dyadic(-x))


def _newton_exact(coeffs, z0, precision):
    """Newton iteration as `drinfeld._newton` runs it, with value and
    slope evaluated exactly on the homogenised integer form at every
    step; returns the root and its grid."""
    bits = precision + 40
    a, k = drinfeld._dyadic(z0)
    grid = max(bits - (abs(a).bit_length() - k), 0)
    a = a << (grid - k) if grid >= k else a >> (k - grid)
    slope = tuple(n * c for n, c in enumerate(coeffs))[1:]
    for _ in range(40):
        denominator = drinfeld._scaled_value(slope, a, grid)
        if denominator == 0:
            break
        step = drinfeld._scaled_value(coeffs, a, grid) // denominator
        a -= step
        if abs(step) < 1 << 20:
            break
    with mpmath.workprec(bits + 2):
        return mpmath.ldexp(a, -grid), grid


@pytest.mark.parametrize("N, L", [(3, 30), (2, 30), (4, 20), (5, 12), (6, 10), (3, 60)])
def test_fixed_point_newton_matches_exact_newton(N, L):
    # from the same start, the fixed-point polish lands on the root the
    # exact-arithmetic iteration gives, to the grid unit; that includes
    # the roots z = -1 and -3 of (2, 30), which lie on the grid
    for Q in range(N):
        poly = lambda_counts(N, L, Q)
        for bracket in drinfeld._brackets(poly):
            z0 = -drinfeld._bisect(poly, *bracket)
            want, grid = _newton_exact(poly.lam, z0, 192)
            got = drinfeld._newton(poly.lam, z0, 192)
            with mpmath.workprec(2 * grid):
                assert abs(got - want) <= 2 * mpmath.mpf(2) ** -grid, (N, L, Q)
                assert got == want, (N, L, Q)


@settings(deadline=None, max_examples=40)
@given(
    N=st.integers(min_value=2, max_value=6),
    L=st.integers(min_value=2, max_value=60),
    offset=st.integers(min_value=-(1 << 40), max_value=1 << 40),
    data=st.data(),
)
def test_fixed_point_step_is_the_exact_floor(N, L, offset, data):
    # at grid points near a root and far from it, the step taken from the
    # fixed-point values equals the floor of the exact integer Newton step
    Q = data.draw(st.integers(min_value=0, max_value=N - 1))
    poly = lambda_counts(N, L, Q)
    assume(poly.m > 0)
    root = data.draw(st.sampled_from(solve_roots(poly)))
    a, grid = drinfeld._dyadic(root)
    a += offset
    slope = tuple(n * c for n, c in enumerate(poly.lam))[1:]
    want = drinfeld._scaled_value(poly.lam, a, grid) // drinfeld._scaled_value(slope, a, grid)
    assert drinfeld._newton_step(poly.lam, slope, a, grid) == want


@settings(deadline=None, max_examples=40)
@given(
    N=st.integers(min_value=2, max_value=6),
    L=st.integers(min_value=2, max_value=40),
    data=st.data(),
)
def test_polish_stays_inside_its_bracket(N, L, data):
    Q = data.draw(st.integers(min_value=0, max_value=N - 1))
    poly = lambda_counts(N, L, Q)
    assume(poly.m > 0)
    x_lo, x_hi, sign_lo = data.draw(st.sampled_from(drinfeld._brackets(poly)))
    for narrow in (drinfeld._bisect, drinfeld._geometric_bisect):
        x = narrow(poly, x_lo, x_hi, sign_lo)
        assert x_lo <= x <= x_hi, narrow.__name__
    root = drinfeld._newton(poly.lam, -x, 192)
    assert -x_hi < root < -x_lo


@settings(deadline=None, max_examples=30)
@given(
    N=st.integers(min_value=2, max_value=4),
    L=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_projection_identity_property(N, L, data):
    Q = data.draw(st.integers(min_value=0, max_value=N - 1))
    out = drinfeld_projection(N, L, Q)
    counts = lambda_counts(N, L, Q)
    assert out == tuple(N * v for v in counts.lam)

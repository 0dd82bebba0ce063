"""Form-factor evaluation of the order parameter.

The squared magnetization of charge r splits over bra/ket sector pairs
(Q, P = Q - r mod N).  Each pair contributes a scalar prefactor (the
cc product) times the square of an overlap amplitude D, and D itself is
computable three independent ways: a sum over paired root subsets, a
Cauchy-kernel determinant, and a closed product over root rapidities.
The three routes share nothing beyond the roots, which is what makes
their agreement a meaningful check.

Sector roles are normalized so the bra sector Q carries m' roots and
the ket sector P carries m, with m' - m in {0, 1}; the overlap product
is symmetric under swapping the roles, so the normalization loses
nothing.  Every route works at twice the root precision: the sum and
closed routes in mpmath, the determinant in stdlib `decimal` with as
many digits plus ten guard digits.
"""

from __future__ import annotations

import decimal
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import mpmath

from .combi import lambda_block
from .drinfeld import RootData, lambda_counts, root_transforms, sector_roots
from .errors import (
    CountingInvariantError,
    DomainError,
    IdentityViolationError,
    OrthogonalityViolationError,
    SingularConfigurationError,
    SizeGuardError,
)

SUBSET_SUM_CAP = 12
# Largest difference between two routes' values of D that counts as agreement.
ROUTE_TOL = 1e-10
METHODS = ("sum", "det", "closed", "all")


def _pval(coeffs, x):
    """Evaluate an ascending-coefficient polynomial in the arithmetic of x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _pder(coeffs, x):
    """Evaluate its derivative."""
    acc = 0
    for n in range(len(coeffs) - 1, 0, -1):
        acc = acc * x + n * coeffs[n]
    return acc


@dataclass(frozen=True)
class FormFactorInput:
    """Everything one sector pair needs: transformed roots of both
    sectors, the ket couplings u and bra couplings u', and the scalar cc
    product."""

    N: int
    L: int
    Q: int
    P: int
    kp: str
    precision: int
    swapped: bool
    roots_ket: RootData
    roots_bra: RootData
    u: tuple[mpmath.mpf, ...]
    up: tuple[mpmath.mpf, ...]
    cc_product: mpmath.mpf

    @property
    def m(self) -> int:
        return self.roots_ket.m

    @property
    def mp(self) -> int:
        return self.roots_bra.m

    @property
    def working(self) -> int:
        return 2 * self.precision


def _root_couplings(roots: RootData, kpv, tol):
    """Per root (a, b) = ((lam-1+k')/(lam+1+k'), -(lam-1-k')/(lam+1-k')),
    the ket and bra couplings, checked against their relation b = -z a."""
    out = []
    for z, lam in zip(roots.z, roots.lam):
        a = (lam - 1 + kpv) / (lam + 1 + kpv)
        b = -(lam - 1 - kpv) / (lam + 1 - kpv)
        if not abs(b + z * a) < tol * abs(b):
            raise DomainError(
                "couplings at z = %s break b = -z a by %s"
                % (mpmath.nstr(z, 10), mpmath.nstr(abs(b + z * a), 5))
            )
        out.append((a, b))
    return out


def couplings(
    N: int, L: int, Q: int, P: int, kp, precision: int = 192
) -> FormFactorInput:
    """Build the sector-pair input.  Roles are swapped if needed so the
    bra charge is the smaller label; root counts decrease weakly with
    the charge, so this also puts the larger root count m' on the bra
    side with a gap m' - m in {0, 1}, which is checked.  The charge
    rule matters on its own: for pairs with equal root counts only the
    charge-ordered orientation reproduces the physical overlap, the
    other one is a different (finite) quantity."""
    kp_str = str(kp)
    if P == Q:
        raise ValueError("sector pair needs distinct charges")
    swapped = P < Q
    if swapped:
        Q, P = P, Q
    roots_ket = root_transforms(lambda_counts(N, L, P), kp_str, precision)
    roots_bra = root_transforms(lambda_counts(N, L, Q), kp_str, precision)
    gap = roots_bra.m - roots_ket.m
    if gap not in (0, 1):
        raise CountingInvariantError("root-count gap m' - m = %d is not 0 or 1" % gap)
    with mpmath.workprec(2 * precision):
        kpv = mpmath.mpf(kp_str)
        tol = mpmath.mpf(2) ** (-precision)
        # a ket and a bra root closer than tol are neighbours once merged
        merged = sorted([(z, 0) for z in roots_ket.z] + [(z, 1) for z in roots_bra.z])
        for (z, side), (zp, side_p) in zip(merged, merged[1:]):
            if side != side_p and abs(z - zp) < tol:
                raise SingularConfigurationError(
                    "sectors %d and %d share the root %s"
                    % (P, Q, mpmath.nstr(z, 10))
                )
        u = tuple(a for a, _ in _root_couplings(roots_ket, kpv, tol))
        up = tuple(b for _, b in _root_couplings(roots_bra, kpv, tol))
        cc = mpmath.mpf(1)
        for lam in roots_ket.lam + roots_bra.lam:
            cc *= ((lam + 1) ** 2 - kpv**2) / (4 * lam)
    return FormFactorInput(
        N=N,
        L=L,
        Q=Q,
        P=P,
        kp=kp_str,
        precision=precision,
        swapped=swapped,
        roots_ket=roots_ket,
        roots_bra=roots_bra,
        u=u,
        up=up,
        cc_product=cc,
    )


# ---------------------------------------------------------------------------
# subset overlap amplitudes


def _validate_subsets(inp: FormFactorInput, W, Wp):
    W, Wp = tuple(sorted(W)), tuple(sorted(Wp))
    if len(set(W)) != len(W) or len(set(Wp)) != len(Wp):
        raise ValueError("subset indices must be distinct")
    if len(W) != len(Wp):
        raise ValueError("paired subsets must have equal size")
    if W and not 0 <= W[0] <= W[-1] < inp.m:
        raise ValueError("ket subset out of range")
    if Wp and not 0 <= Wp[0] <= Wp[-1] < inp.mp:
        raise ValueError("bra subset out of range")
    return W, Wp


def psi_closed(inp: FormFactorInput, W, Wp):
    """Closed product form of the vacuum overlap selected by the ket
    subset W and bra subset Wp; it pairs with the couplings u, u'."""
    W, Wp = _validate_subsets(inp, W, Wp)
    z, zp = inp.roots_ket.z, inp.roots_bra.z
    V = [i for i in range(inp.m) if i not in W]
    Vp = [j for j in range(inp.mp) if j not in Wp]
    with mpmath.workprec(inp.working):
        val = mpmath.mpf(1)
        for i in W:
            for j in Vp:
                val *= z[i] - zp[j]
        for i in Wp:
            for j in V:
                val *= zp[i] - z[j]
        for i in W:
            for j in V:
                val /= z[i] - z[j]
        for i in Wp:
            for j in Vp:
                val /= zp[i] - zp[j]
        return val


def dhat_sum(inp: FormFactorInput):
    """Overlap amplitude D as the coupling-weighted sum over equal-size
    subset pairs.  Exponential in m', so capped; past the cap the
    determinant route is the intended tool."""
    if inp.mp > SUBSET_SUM_CAP:
        raise SizeGuardError(
            "subset sum over %d bra roots exceeds the cap of %d; "
            "use --method det for large widths"
            % (inp.mp, SUBSET_SUM_CAP)
        )
    with mpmath.workprec(inp.working):
        total = mpmath.mpf(0)
        for n in range(inp.m + 1):
            for W in itertools.combinations(range(inp.m), n):
                weight = mpmath.mpf(1)
                for i in W:
                    weight *= inp.u[i]
                for Wp in itertools.combinations(range(inp.mp), n):
                    term = weight * psi_closed(inp, W, Wp)
                    for j in Wp:
                        term *= inp.up[j]
                    total += term
        return total


# ---------------------------------------------------------------------------
# determinant route


def _kernel_matrix(inp: FormFactorInput, eps: int = 1):
    """Cauchy-kernel matrix B with rows on ket roots and columns on bra
    roots, as complex mpmath entries.  The f weights are principal square
    roots; every choice of branch and of eps cancels from the determinant,
    which the tests exercise.  `dhat_det` never builds B: it works with
    the real squares of the weights, and B stays as the complex-arithmetic
    reference the tests rebuild that determinant from."""
    with mpmath.workprec(inp.working):
        z, zp = inp.roots_ket.z, inp.roots_bra.z
        f2, fp2 = _squared_weights(inp, eps, z, zp)
        f = [mpmath.sqrt(mpmath.mpc(v)) for v in f2]
        fp = [mpmath.sqrt(mpmath.mpc(v)) for v in fp2]
        B = mpmath.zeros(inp.m, inp.mp)
        for i in range(inp.m):
            for j in range(inp.mp):
                B[i, j] = f[i] * fp[j] / (z[i] - zp[j])
        return B


def _squared_weights(inp: FormFactorInput, eps: int, z, zp):
    """Squared kernel weights f_i^2 = eps lam_bra(z_i)/lam_ket'(z_i) on the
    ket roots and f'_j^2 = -eps lam_ket(z'_j)/lam_bra'(z'_j) on the bra
    roots, each polynomial scaled by its leading coefficient.  Both are
    real, and evaluated in the arithmetic of the roots z, z' passed in."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    lam_ket = lambda_block(inp.N, inp.L, inp.P)
    lam_bra = lambda_block(inp.N, inp.L, inp.Q)
    f2 = [
        eps * (_pval(lam_bra, zi) / lam_bra[-1]) / (_pder(lam_ket, zi) / lam_ket[-1])
        for zi in z
    ]
    fp2 = [
        -eps * (_pval(lam_ket, zj) / lam_ket[-1]) / (_pder(lam_bra, zj) / lam_bra[-1])
        for zj in zp
    ]
    return f2, fp2


def _decimal_context(inp: FormFactorInput) -> decimal.Context:
    """Decimal context carrying the working precision plus ten guard digits."""
    return decimal.Context(prec=math.ceil(inp.working * math.log10(2)) + 10)


def _to_decimal(x) -> decimal.Decimal:
    """The mpf x = man 2^exp, taken exactly and rounded once by the
    current decimal context."""
    sign, man, exp, _ = x._mpf_
    if sign:
        man = -man
    if exp >= 0:
        return +decimal.Decimal(man << exp)
    return decimal.Decimal(man) / decimal.Decimal(1 << -exp)


def _to_mpf(x: decimal.Decimal, working: int) -> mpmath.mpf:
    """The decimal x rounded once to an mpf of `working` bits."""
    with mpmath.workprec(working):
        return mpmath.mpf(str(x))


def _real_kernel(inp: FormFactorInput, eps: int):
    """Real form of the Cauchy kernel B = F K F', K_ij = 1/(z_i - z'_j),
    in the current decimal context: the squared ket weights f^2 and the
    symmetric m x m sums S_ik = sum_j f'_j^2 K_ij K_kj and
    C_ik = sum_j u'_j f'_j^2 K_ij K_kj.  Then B B^T = F S F and
    Y B Y' B^T = Y F C F.

    Off the diagonal both take the Cauchy form: K_ij K_kj =
    (K_ij - K_kj)/(z_k - z_i) gives S_ik = (h_i - h_k)/(z_k - z_i) with
    h_i = sum_j f'_j^2 K_ij, and C_ik the same with u'_j f'_j^2, so the
    sums cost O(m m' + m^2).  The diagonals stay sum_j f'_j^2 K_ij^2."""
    z = [_to_decimal(v) for v in inp.roots_ket.z]
    zp = [_to_decimal(v) for v in inp.roots_bra.z]
    up = [_to_decimal(v) for v in inp.up]
    f2, fp2 = _squared_weights(inp, eps, z, zp)
    vp2 = [a * b for a, b in zip(up, fp2)]
    S = [[None] * inp.m for _ in range(inp.m)]
    C = [[None] * inp.m for _ in range(inp.m)]
    h, g = [], []
    for i, zi in enumerate(z):
        row = [1 / (zi - zj) for zj in zp]
        row_s = [a * b for a, b in zip(row, fp2)]
        row_c = [a * b for a, b in zip(row, vp2)]
        S[i][i] = sum(map(operator.mul, row_s, row))
        C[i][i] = sum(map(operator.mul, row_c, row))
        h.append(sum(row_s))
        g.append(sum(row_c))
    for i, zi in enumerate(z):
        for k in range(i + 1, inp.m):
            gap = z[k] - zi
            S[i][k] = S[k][i] = (h[i] - h[k]) / gap
            C[i][k] = C[k][i] = (g[i] - g[k]) / gap
    return f2, S, C


def _gram_residual(f2, S) -> decimal.Decimal:
    """Largest entry deviation of the Gram B B^T = F S F from the identity:
    |f_i^2 S_ii - 1| on the diagonal, sqrt|f_i^2 f_k^2| |S_ik| off it."""
    diag = decimal.Decimal(0)
    off_sq = decimal.Decimal(0)
    for i, row in enumerate(S):
        diag = max(diag, abs(f2[i] * row[i] - 1))
        for k in range(i + 1, len(row)):
            off_sq = max(off_sq, abs(f2[i] * f2[k]) * row[k] * row[k])
    return max(diag, off_sq.sqrt())


def _det_in_place(M) -> decimal.Decimal:
    """Determinant by elimination with partial pivoting in the current
    decimal context; M (a list of rows) is overwritten.  A column without
    a nonzero pivot makes the determinant zero, and an empty M gives 1."""
    det = decimal.Decimal(1)
    n = len(M)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(M[r][c]))
        if not M[p][c]:
            return decimal.Decimal(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            det = -det
        pivot = M[c][c]
        det *= pivot
        tail = M[c][c + 1:]
        for r in range(c + 1, n):
            factor = M[r][c] / pivot
            M[r][c + 1:] = [a - factor * b for a, b in zip(M[r][c + 1:], tail)]
    return det


def kernel_orthogonality_residual(inp: FormFactorInput, eps: int = 1):
    """Orthogonality residual of the Cauchy-kernel matrix of `inp`, from
    the same real computation `dhat_det` certifies with."""
    with decimal.localcontext(_decimal_context(inp)):
        f2, S, _ = _real_kernel(inp, eps)
        return _to_mpf(_gram_residual(f2, S), inp.working)


def dhat_det(inp: FormFactorInput, eps: int = 1):
    """Overlap amplitude D as det(1 + Y B Y' B^T) with Y, Y' the diagonal
    coupling matrices and B = F K F' the Cauchy kernel.  No complex
    number is formed: with the real squares of the weights, Sylvester's
    identity det(1 + F A F) = det(1 + A F^2) turns the matrix into
    1 + Y C F^2 (see `_real_kernel`).  The kernel's orthogonality
    identity B B^T = 1 is verified first from the same sums; a
    violation means the working precision cannot support the evaluation.

    The sums and the elimination run in stdlib `decimal` at
    ceil(working * log10 2) + 10 digits, 126 at the default precision;
    the mpf inputs enter exactly and the results return as mpf at the
    working precision.  Returns (value, orthogonality_residual)."""
    with decimal.localcontext(_decimal_context(inp)):
        f2, S, C = _real_kernel(inp, eps)
        resid = _to_mpf(_gram_residual(f2, S), inp.working)
        with mpmath.workprec(inp.working):
            if resid > mpmath.mpf(2) ** (-inp.precision // 2):
                raise OrthogonalityViolationError(
                    "kernel orthogonality residual %s at %d bits"
                    % (mpmath.nstr(resid, 5), inp.precision)
                )
        u = [_to_decimal(v) for v in inp.u]
        M = [
            [(i == k) + u[i] * c * f2[k] for k, c in enumerate(row)]
            for i, row in enumerate(C)
        ]
        value = _det_in_place(M)
    return _to_mpf(value, inp.working), resid


# ---------------------------------------------------------------------------
# closed product route


def _delta_ratio(lam_ket, lam_bra):
    """Ratio of the double alternant of the rapidities to that of their
    squares.  Ordering drops out because both alternants flip together."""
    num = mpmath.mpf(1)
    den = mpmath.mpf(1)
    m, mp_ = len(lam_ket), len(lam_bra)
    for i in range(m):
        for j in range(i + 1, m):
            num *= lam_ket[i] - lam_ket[j]
            den *= lam_ket[i] ** 2 - lam_ket[j] ** 2
    for i in range(mp_):
        for j in range(i + 1, mp_):
            num *= lam_bra[j] - lam_bra[i]
            den *= lam_bra[j] ** 2 - lam_bra[i] ** 2
    for li in lam_ket:
        for lj in lam_bra:
            num /= li - lj
            den /= li**2 - lj**2
    return num / den


def dhat_closed(inp: FormFactorInput):
    """Overlap amplitude D as a closed product over rapidities, split on
    the root-count gap (0 or 1, as `couplings` checks)."""
    lam_ket, lam_bra = inp.roots_ket.lam, inp.roots_bra.lam
    with mpmath.workprec(inp.working):
        kpv = mpmath.mpf(inp.kp)
        val = _delta_ratio(lam_ket, lam_bra)
        if inp.mp == inp.m:
            for li, lj in zip(lam_ket, lam_bra):
                val *= 2 / ((1 + kpv + li) * (1 - kpv + lj))
        else:
            for li in lam_ket:
                val *= 2 / ((1 + li) ** 2 - kpv**2)
        return val


def rapidity_ratio(inp: FormFactorInput, lam_arg):
    """R(lam): product over ket rapidities of (lam + lam_i)/2 divided by
    the same product over bra rapidities."""
    with mpmath.workprec(inp.working):
        val = mpmath.mpf(1)
        for li in inp.roots_ket.lam:
            val *= (lam_arg + li) / 2
        for lj in inp.roots_bra.lam:
            val /= (lam_arg + lj) / 2
        return val


def rapidity_ratio_limit(inp: FormFactorInput, which: str):
    """Large-L limit of R at the arguments 1 -+ k', driven by the root
    count gap and the integer charge difference of the normalized pair;
    reported for convergence diagnostics."""
    with mpmath.workprec(inp.working):
        kpv = mpmath.mpf(inp.kp)
        expo = mpmath.mpf(inp.P - inp.Q) / inp.N
        if which == "low":
            return (1 - kpv) ** (inp.m - inp.mp + expo)
        if which == "high":
            return (1 + kpv) ** (-expo)
        raise ValueError("which must be 'low' or 'high'")


def overlap_product_closed(inp: FormFactorInput):
    """The full squared form factor of the pair through the R-ratio
    identity, an algebraic rearrangement of cc * D^2 that exercises the
    rapidities a second way."""
    with mpmath.workprec(inp.working):
        kpv = mpmath.mpf(inp.kp)
        r_low = rapidity_ratio(inp, 1 - kpv)
        r_high = rapidity_ratio(inp, 1 + kpv)
        val = r_low / r_high if inp.mp == inp.m else 1 / (r_low * r_high)
        for lj in inp.roots_bra.lam:
            val *= rapidity_ratio(inp, lj)
        for li in inp.roots_ket.lam:
            val /= rapidity_ratio(inp, li)
        return val


# ---------------------------------------------------------------------------
# single-excitation overlaps


def _excitation_roots(N, L, Q, P, j, ell, precision):
    """Roots of the bra sector Q and the ket sector P, with the excited
    root indices j and ell checked against them."""
    roots_bra = sector_roots(N, L, Q, precision)
    roots_ket = sector_roots(N, L, P, precision)
    if not 0 <= j < len(roots_bra):
        raise ValueError("bra root index out of range")
    if not 0 <= ell < len(roots_ket):
        raise ValueError("ket root index out of range")
    return roots_bra, roots_ket


def psi1_closed(N: int, L: int, Q: int, P: int, j: int, ell: int, precision: int = 192):
    """Closed form of the single-excitation overlap: the cross-ratio
    product over both root families, times the transpose factor
    z_ket/z_bra when the bra charge is the larger label.  Carries no
    dependence on k' at all."""
    roots_bra, roots_ket = _excitation_roots(N, L, Q, P, j, ell, precision)
    with mpmath.workprec(2 * precision):
        zq = roots_bra[j]
        zp = roots_ket[ell]
        val = mpmath.mpf(1)
        for k, z in enumerate(roots_bra):
            if k != j:
                val *= (zp - z) / (zq - z)
        for k, z in enumerate(roots_ket):
            if k != ell:
                val *= (zq - z) / (zp - z)
        if P < Q:
            val *= zp / zq
        return val


def psi1_brute(N: int, L: int, Q: int, P: int, j: int, ell: int, precision: int = 192):
    """Vacuum overlap of one bra excitation (sector Q, root j) against
    one ket excitation (sector P, root ell), evaluated from the exact
    integer pairing table with no closed form in sight.  The generating
    kernel is summed twice, as a double power sum and as its two-pole
    partial-fraction form, and the two must agree."""
    from .combi import calG_table

    table = calG_table(N, L)
    roots_bra, roots_ket = _excitation_roots(N, L, Q, P, j, ell, precision)
    lam_bra = lambda_block(N, L, Q)
    lam_ket = lambda_block(N, L, P)
    with mpmath.workprec(2 * precision):
        zq = roots_bra[j]
        zp = roots_ket[ell]
        S = mpmath.mpf(0)
        for a in range(len(roots_bra)):
            for b in range(len(roots_ket)):
                S += zq**a * zp**b * table.entry(a * N + Q, b * N + P)
        # the two-pole form of the kernel holds for ket charge >= bra
        # charge; the other ordering goes through the kernel's symmetry
        # under swapping arguments together with charges
        if P >= Q:
            closed = zq * _pval(lam_ket, zp) * _pder(lam_bra, zq) / (zq - zp)
            closed += zq * _pval(lam_bra, zp) * _pval(lam_ket, zq) / (zq - zp) ** 2
        else:
            closed = zp * _pval(lam_bra, zq) * _pder(lam_ket, zp) / (zp - zq)
            closed += zp * _pval(lam_ket, zq) * _pval(lam_bra, zp) / (zp - zq) ** 2
        scale = sum(
            abs(zq) ** a * abs(zp) ** b * abs(table.entry(a * N + Q, b * N + P))
            for a in range(len(roots_bra))
            for b in range(len(roots_ket))
        )
        if not abs(S - closed) < scale * mpmath.mpf(2) ** (-precision // 2):
            raise IdentityViolationError(
                "single-excitation kernel: power sum and two-pole form differ "
                "by %s at N=%d, L=%d, Q=%d, P=%d, j=%d, ell=%d"
                % (mpmath.nstr(abs(S - closed), 5), N, L, Q, P, j, ell)
            )
        beta_bra = -(mpmath.mpf(lam_bra[0]) / (lam_bra[-1] * zq))
        for k, zk in enumerate(roots_bra):
            if k != j:
                beta_bra /= zq - zk
        beta_ket = -(mpmath.mpf(lam_ket[0]) / (lam_ket[-1] * zp))
        for k, zk in enumerate(roots_ket):
            if k != ell:
                beta_ket /= zp - zk
        return -beta_bra * beta_ket * zp * S / (lam_bra[0] * lam_ket[0])


# ---------------------------------------------------------------------------
# route dispatch


class RouteRun(NamedTuple):
    """D of one sector pair by each route run, in the order of preference
    closed, det, sum; the kernel residual if det ran; |a - b| for each
    route pair under "a_vs_b"; and (a, b, |a - b|) above ROUTE_TOL."""

    values: dict
    orthogonality: mpmath.mpf | None
    differences: dict
    failures: tuple

    @property
    def preferred(self):
        return next(iter(self.values.values()))


def dhat_routes(inp: FormFactorInput, method: str) -> RouteRun:
    """Run the route `method` names, or all three, on one sector pair and
    compare them pairwise at the working precision of `inp`."""
    if method not in METHODS:
        raise ValueError("method must be sum, det, closed or all")
    values = {}
    orthogonality = None
    with mpmath.workprec(inp.working):
        if method in ("closed", "all"):
            values["closed"] = dhat_closed(inp)
        if method in ("det", "all"):
            values["det"], orthogonality = dhat_det(inp)
        if method in ("sum", "all"):
            values["sum"] = dhat_sum(inp)
        differences = {}
        failures = []
        for a, b in itertools.combinations(values, 2):
            diff = abs(values[a] - values[b])
            differences[f"{a}_vs_{b}"] = diff
            if diff > ROUTE_TOL:
                failures.append((a, b, diff))
    return RouteRun(values, orthogonality, differences, tuple(failures))


# ---------------------------------------------------------------------------
# order parameter


def order_param_sq(
    N: int, r: int, kp, L: int, precision: int = 192, method: str = "closed"
) -> dict:
    """Squared magnetization of charge r at width L: the sector average
    of cc * D^2 over bra charges Q, with P = Q - r mod N.  Returns the
    per-sector values, their average and spread, the large-L limit
    (1 - k'^2)^(r(N-r)/N^2), and R-ratio diagnostics per sector."""
    if not 1 <= r < N:
        raise ValueError("charge r must satisfy 1 <= r < N")
    kp_str = str(kp)
    per_sector = []
    values = []
    for Q in range(N):
        P = (Q - r) % N
        inp = couplings(N, L, Q=Q, P=P, kp=kp_str, precision=precision)
        run = dhat_routes(inp, method)
        with mpmath.workprec(inp.working):
            entry = {
                "Q": Q,
                "P": P,
                "m": inp.m,
                "mp": inp.mp,
                "swapped": inp.swapped,
                "cc_product": inp.cc_product,
            }
            if run.orthogonality is not None:
                entry["orthogonality_residual"] = run.orthogonality
            d = run.preferred
            entry["dhat"] = d
            entry["routes"] = run.values
            entry["route_failures"] = run.failures
            value = inp.cc_product * d**2
            entry["value"] = value
            entry["r_low"] = rapidity_ratio(inp, 1 - mpmath.mpf(kp_str))
            entry["r_high"] = rapidity_ratio(inp, 1 + mpmath.mpf(kp_str))
            entry["r_low_limit"] = rapidity_ratio_limit(inp, "low")
            entry["r_high_limit"] = rapidity_ratio_limit(inp, "high")
        per_sector.append(entry)
        values.append(value)
    with mpmath.workprec(2 * precision):
        kpv = mpmath.mpf(kp_str)
        finite = sum(values) / N
        limit = (1 - kpv**2) ** (mpmath.mpf(r * (N - r)) / N**2)
        spread = max(values) - min(values)
    return {
        "N": N,
        "L": L,
        "r": r,
        "kp": kp_str,
        "precision": precision,
        "method": method,
        "per_sector": per_sector,
        "finite_L": finite,
        "limit": limit,
        "spread": spread,
        "abs_error": abs(finite - limit),
    }

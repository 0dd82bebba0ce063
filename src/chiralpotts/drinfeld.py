"""Charge-sector counting polynomials and their certified real roots.

Each sector Q carries an integer polynomial lambda_Q(z) whose coefficient
n counts the site configurations of total nN + Q; its m roots drive every
form factor.  `solve_roots` finds them in three steps.

1. Bracket.  lambda_Q(-x) is scanned for sign changes on a log-x grid in
   double precision through the O(N) projection identity

       lambda_Q(z) = (N t^Q)^-1 sum_n omega^(-nQ) ((1 - z)/(1 - t omega^n))^L,
       t^N = z,

   which `drinfeld_projection` proves exactly.  A grid sign is accepted
   only where the value clears its rounding bound; elsewhere it is taken
   exactly from the integer coefficients.
2. Polish.  Each bracket is narrowed in double precision by Illinois
   regula falsi on the identity value (geometric bisection where the
   identity cannot resolve an endpoint), then Newton-refined at
   precision + 40 bits with a fixed-point Horner on the integer
   coefficients, truncated to that grid at every step.
3. Certify.  Exact integer sign evaluation at m+1 dyadic probes (a
   Cauchy bound, the midpoints between consecutive roots, and 0) proves
   there are m simple real negative roots, one per probe interval; each
   root's relative residual is then checked exactly against
   2^(-precision/2).

Realness is never assumed.  A scan without exactly m brackets, or a
failed certificate, goes to an exact Sturm classification of the integer
polynomial, which names the failure: a repeated root, or fewer than m
real negative roots.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn

import mpmath

from .combi import lambda_block
from .cyclo import CycNum, rotate, times_binomial
from .errors import (
    CountingInvariantError,
    DomainError,
    NonRealRootError,
    RootClusterTooTightError,
)


@dataclass(frozen=True)
class DrinfeldPoly:
    """Integer counts polynomial of one charge sector: coefficient n is
    the number of site configurations with total nN + Q."""

    N: int
    L: int
    Q: int
    lam: tuple[int, ...]

    @property
    def m(self) -> int:
        """Polynomial degree."""
        return len(self.lam) - 1

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "L": self.L,
            "Q": self.Q,
            "m": self.m,
            "coefficients": [str(c) for c in self.lam],
        }


def lambda_counts(N: int, L: int, Q: int) -> DrinfeldPoly:
    """Counting polynomial of sector Q, with its structural facts checked:
    the degree matches floor(((N-1)L - Q)/N), the top coefficient is
    nonzero, and the coefficients total N^(L-1)."""
    if N < 2 or L < 1 or not 0 <= Q < N:
        raise ValueError("need N >= 2, L >= 1, 0 <= Q < N")
    lam = lambda_block(N, L, Q)
    poly = DrinfeldPoly(N=N, L=L, Q=Q, lam=lam)
    where = "sector (N=%d, L=%d, Q=%d)" % (N, L, Q)
    if poly.m != ((N - 1) * L - Q) // N:
        raise CountingInvariantError("%s has degree %d" % (where, poly.m))
    if lam[-1] == 0:
        raise CountingInvariantError("%s has a zero top coefficient" % where)
    if sum(lam) != N ** (L - 1):
        raise CountingInvariantError("%s counts do not total N^(L-1)" % where)
    return poly


def drinfeld_projection(N: int, L: int, Q: int) -> tuple[int, ...]:
    """Expand  t^(-Q) sum_n omega^(-nQ) [(1 - t^N)/(1 - t omega^n)]^L
    exactly, check that only powers t^(mN) survive after the shift, and
    return the coefficient list in w = t^N.  The result must be exactly
    N times the counting polynomial, which is checked."""
    order = 2 * N
    size = (N - 1) * L + 1
    total = [[0] * order for _ in range(size)]
    for n in range(N):
        # (1 - t^N)/(1 - t omega^n) = prod_{i != n} (1 - t omega^i), exactly,
        # on vectors over zeta, where omega^i = zeta^(2i)
        power = [[1] + [0] * (order - 1)] + [[0] * order for _ in range(size - 1)]
        for _ in range(L):
            for i in range(N):
                if i != n:
                    times_binomial(power, 1, 2 * i, -1)
        for dst, vec in zip(total, power):
            for t, v in enumerate(rotate(vec, -2 * n * Q)):
                dst[t] += v
    coeffs = [CycNum(order, vec) for vec in total]
    for k, c in enumerate(coeffs):
        if not c.is_zero() and (k - Q) % N != 0:
            raise CountingInvariantError("projection kept power %d outside class %d" % (k, Q))
    out = tuple(c.as_int() for c in coeffs[Q::N])
    counts = lambda_counts(N, L, Q)
    if out != tuple(N * v for v in counts.lam):
        raise CountingInvariantError(
            "projection of sector (N=%d, L=%d, Q=%d) is not N times its counts" % (N, L, Q)
        )
    return out


# ---------------------------------------------------------------------------
# root solving: bracket, polish, certify

# Smallest supported root precision in bits.
MIN_PRECISION = 128
# Sign scans refine their log-x grid this many times before giving up.
_SCAN_REFINEMENTS = 3
_EPS = 2.0**-52


def _scaled_value(coeffs: tuple[int, ...], a: int, k: int) -> int:
    """2^(k m) p(a / 2^k) as an exact integer, for the ascending integer
    coefficients of p of degree m (Horner on the homogenised form)."""
    acc = 0
    for i, c in enumerate(reversed(coeffs)):
        acc = acc * a + (c << (k * i))
    return acc


def _dyadic(x) -> tuple[int, int]:
    """(a, k) with x = a / 2^k exactly and k >= 0, for a float or mpf."""
    if isinstance(x, float):
        a, den = x.as_integer_ratio()
        return a, den.bit_length() - 1
    man, exp = x.man_exp
    if x < 0:
        man = -man
    return (man << exp, 0) if exp >= 0 else (man, -exp)


def _exact_sign(coeffs: tuple[int, ...], a: int, k: int) -> int:
    value = _scaled_value(coeffs, a, k)
    return (value > 0) - (value < 0)


def _identity_value(
    N: int, L: int, Q: int, x: float, top: float | None = None
) -> tuple[float, float, float]:
    """(value, bound, top): e^(-top) N |t|^Q lambda_Q(-x) from the
    projection identity in double precision, the bound its rounding error
    is measured against, and the scale top.

    With t = x^(1/N) e^(i pi/N), the identity gives N |t|^Q lambda_Q(-x)
    as the real part of sum_n exp(l_n), l_n = L log((1+x)/(1 - t omega^n))
    - i Q pi (2n+1)/N.  The terms are scaled by e^(-top), top the largest
    Re l_n unless given, and each carries a rounding error of a few ulps
    of |l_n| + L in its exponent."""
    radius = x ** (1.0 / N)
    log1x = math.log1p(x)
    logs = []
    for n in range(N):
        angle = math.pi * (2 * n + 1) / N
        one_minus_t = complex(1.0 - radius * math.cos(angle), -radius * math.sin(angle))
        logs.append(L * (log1x - cmath.log(one_minus_t)) - 1j * Q * angle)
    if top is None:
        top = max(l.real for l in logs)
    value = 0.0
    bound = 0.0
    for l in logs:
        term = cmath.exp(l - top)
        value += term.real
        bound += abs(term) * (abs(l) + abs(top) + (N + 4) * (L + 2))
    return value, bound, top


def _resolved(value: float, bound: float) -> bool:
    """Whether an identity value clears its rounding bound."""
    return abs(value) > 8 * _EPS * bound


def _identity_sign(N: int, L: int, Q: int, x: float) -> int:
    """Sign of lambda_Q(-x) from the projection identity in double
    precision, or 0 where the value does not clear its rounding bound."""
    value, bound, _ = _identity_value(N, L, Q, x)
    if not _resolved(value, bound):
        return 0
    return 1 if value > 0 else -1


def _sign_at(poly: DrinfeldPoly, x: float) -> int:
    """Sign of lambda_Q(-x): from the identity where it is resolved,
    otherwise exactly from the coefficients."""
    sign = _identity_sign(poly.N, poly.L, poly.Q, x)
    return sign if sign else _exact_sign(poly.lam, *_dyadic(-x))


def _brackets(poly: DrinfeldPoly) -> list[tuple[float, float, int]] | None:
    """Intervals (x_lo, x_hi, sign at x_lo) of x = -z holding one sign
    change each, ascending in x, or None unless exactly m are found.

    The scan runs between c_0/(2 c_1) and 2 c_(m-1)/c_m: when all m roots
    are real and negative, the sum of the root moduli is c_(m-1)/c_m and
    the sum of their inverses c_1/c_0, which bounds every root."""
    lam, m = poly.lam, poly.m
    if any(c <= 0 for c in lam):
        return None
    lo, hi = lam[0] / lam[1] / 2, 2 * lam[-2] / lam[-1]
    span = math.log(hi / lo)
    points = math.ceil(span * (m + 1) / 2) + 2
    for _ in range(_SCAN_REFINEMENTS):
        found = []
        last, last_sign = lo, _sign_at(poly, lo)
        for j in range(1, points + 1):
            x = lo * math.exp(span * j / points)
            sign = _sign_at(poly, x)
            if sign == 0:  # x is a root exactly; the next point brackets it
                continue
            if sign != last_sign:
                found.append((last, x, last_sign))
            last, last_sign = x, sign
        if len(found) == m:
            return found
        if len(found) > m:
            return None
        points *= 4
    return None


# Regula falsi stops once its bracket is this narrow, relative to x.
_FALSI_WIDTH = 2.0**-44


def _bisect(poly: DrinfeldPoly, x_lo: float, x_hi: float, sign_lo: int) -> float:
    """A point of the bracket near its root, in double precision.

    Illinois regula falsi on the identity value, scaled by one top for the
    whole bracket, until the bracket is 2^-44 wide relative to x or the
    sign at the new point is unresolved.  Where the identity cannot
    resolve an endpoint, geometric bisection takes over, stopping where
    the sign can no longer be resolved."""
    N, L, Q = poly.N, poly.L, poly.Q
    f_hi, bound_hi, top = _identity_value(N, L, Q, x_hi)
    f_lo, bound_lo, _ = _identity_value(N, L, Q, x_lo, top)
    up = sign_lo > 0
    if not (
        _resolved(f_lo, bound_lo) and (f_lo > 0) == up
        and _resolved(f_hi, bound_hi) and (f_hi > 0) != up
    ):
        return _geometric_bisect(poly, x_lo, x_hi, sign_lo)
    x, kept = math.sqrt(x_lo * x_hi), 0
    for _ in range(64):
        if x_hi - x_lo <= _FALSI_WIDTH * x_hi:
            break
        x = (x_lo * f_hi - x_hi * f_lo) / (f_hi - f_lo)
        if not x_lo < x < x_hi:
            x = math.sqrt(x_lo * x_hi)
            if not x_lo < x < x_hi:
                break
        value, bound, _ = _identity_value(N, L, Q, x, top)
        if not _resolved(value, bound):
            break
        # Illinois: an endpoint kept twice running has its value halved
        if (value > 0) == up:
            x_lo, f_lo = x, value
            if kept < 0:
                f_hi /= 2
            kept = -1
        else:
            x_hi, f_hi = x, value
            if kept > 0:
                f_lo /= 2
            kept = 1
    return x


def _geometric_bisect(poly: DrinfeldPoly, x_lo: float, x_hi: float, sign_lo: int) -> float:
    """Geometric bisection of a bracket in double precision, stopping
    where the identity can no longer resolve the sign."""
    for _ in range(64):
        mid = math.sqrt(x_lo * x_hi)
        if not x_lo < mid < x_hi:
            break
        sign = _identity_sign(poly.N, poly.L, poly.Q, mid)
        if sign == 0:
            return mid
        if sign == sign_lo:
            x_lo = mid
        else:
            x_hi = mid
    return math.sqrt(x_lo * x_hi)


def _fixed_value(coeffs: tuple[int, ...], a: int, grid: int) -> int:
    """About 2^grid p(a / 2^grid): Horner on the fixed-point grid, each
    step truncated back to `grid` fraction bits, so the numbers keep
    about grid + log2 |p| bits instead of m grid."""
    acc = 0
    for c in reversed(coeffs):
        acc = ((acc * a) >> grid) + (c << grid)
    return acc


# Value and slope of a Newton step are taken this many bits below the grid.
_GUARD_BITS = 24


def _newton_step(coeffs, slope, a: int, grid: int) -> int | None:
    """floor(2^grid p(x) / p'(x)) at x = a / 2^grid, the step of exact
    integer Newton, or None where p'(x) = 0.

    Value and slope come from the fixed-point Horner `_fixed_value`,
    `_GUARD_BITS` below the grid.  Each truncation error is at most
    sum_(i<m) |x|^i fine units, below the power of two `error`, and the
    step is taken from them only when every value within those errors
    floors to the same integer; otherwise, which happens near a root
    that sits on the grid, value and slope are evaluated exactly."""
    fine = grid + _GUARD_BITS
    at = a << _GUARD_BITS
    value = _fixed_value(coeffs, at, fine)
    denominator = _fixed_value(slope, at, fine)
    growth = max(0.0, math.log2(abs(a) or 1) - grid)
    error = 1 << (math.ceil(math.log2(len(coeffs)) + len(slope) * growth) + 2)
    if abs(denominator) > error:
        floors = {
            (v << grid) // d
            for v in (value - error, value + error)
            for d in (denominator - error, denominator + error)
        }
        if len(floors) == 1:
            return floors.pop()
    denominator = _scaled_value(slope, a, grid)
    if denominator == 0:
        return None
    return _scaled_value(coeffs, a, grid) // denominator


def _newton(coeffs: tuple[int, ...], z0: float, precision: int) -> mpmath.mpf:
    """Newton iteration from z0 on a fixed-point grid of precision + 40
    significant bits at the magnitude of z0, until the step falls below
    2^-(precision + 20) relative.  Each step is the floor of the exact
    integer Newton step, taken from fixed-point Horner values wherever
    their truncation errors cannot change it (`_newton_step`), so the
    numbers keep about grid + log2 |p| bits instead of m grid.  The
    exact certificate of `solve_roots` alone decides whether the root
    stands."""
    bits = precision + 40
    a, k = _dyadic(z0)
    grid = max(bits - (abs(a).bit_length() - k), 0)
    a = a << (grid - k) if grid >= k else a >> (k - grid)
    slope = tuple(n * c for n, c in enumerate(coeffs))[1:]
    for _ in range(40):
        step = _newton_step(coeffs, slope, a, grid)
        if step is None:  # a critical point: the certificate will refuse it
            break
        a -= step
        if abs(step) < 1 << 20:
            break
    with mpmath.workprec(bits + 2):
        return mpmath.ldexp(a, -grid)


def _certificate_failure(
    coeffs: tuple[int, ...], roots: tuple[mpmath.mpf, ...], precision: int
) -> str | None:
    """Why the ascending `roots` fail their exact certificate, or None.

    Probes: an integer Cauchy bound, the exact dyadic midpoints between
    consecutive roots, and 0; the sign of p at probe i must be (-1)^(m-i).
    Then each root must be negative with relative residual
    |p(z)| / sum |c_n| |z|^n at most 2^(-precision/2), both in exact
    integer arithmetic."""
    m = len(coeffs) - 1
    if any(a >= b for a, b in zip(roots, roots[1:])):
        return "the roots are not strictly ascending"
    cauchy = 1 + -(-max(abs(c) for c in coeffs) // abs(coeffs[-1]))
    points = [_dyadic(z) for z in roots]
    probes = [(-cauchy, 0)]
    for (a, k), (b, j) in zip(points, points[1:]):
        scale = max(k, j)
        probes.append(((a << (scale - k)) + (b << (scale - j)), scale + 1))
    probes.append((0, 0))
    for i, (a, k) in enumerate(probes):
        if _exact_sign(coeffs, a, k) != (-1 if (m - i) % 2 else 1):
            return "could not separate the roots near probe %d" % i
    magnitudes = tuple(abs(c) for c in coeffs)
    half = -(-precision // 2)
    for (a, k), z in zip(points, roots):
        if a >= 0:
            return "root %s is not negative" % mpmath.nstr(z, 10)
        residual = abs(_scaled_value(coeffs, a, k))
        if residual << half > _scaled_value(magnitudes, -a, k):
            return "residual of root %s exceeds 2^-%d" % (mpmath.nstr(z, 10), half)
    return None


def _primitive(poly: list[Fraction]) -> list[Fraction]:
    """The same polynomial scaled by a positive rational to coprime
    integer coefficients, so a Sturm chain keeps small numbers."""
    den = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * den) for c in poly]
    g = math.gcd(*ints)
    return [Fraction(c // g) for c in ints]


def _remainder(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b, both descending coefficient lists."""
    a = list(a)
    while len(a) >= len(b):
        factor = a[0] / b[0]
        for i in range(len(b)):
            a[i] -= factor * b[i]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def _classify(poly: DrinfeldPoly, reason: str) -> NoReturn:
    """Raise the exact reason why the roots of `poly` could not be
    certified: a repeated root (gcd(p, p') is not constant), a root at 0
    or fewer than m distinct negative real roots (Sturm count), or, when
    neither holds, a numerical separation failure described by `reason`."""
    where = "sector (N=%d, L=%d, Q=%d)" % (poly.N, poly.L, poly.Q)
    p = [Fraction(c) for c in reversed(poly.lam)]
    while len(p) > 1 and p[0] == 0:  # a zero top coefficient lowers the degree
        p.pop(0)
    d = len(p) - 1
    chain = [p, _primitive([c * (d - i) for i, c in enumerate(p[:-1])] or [Fraction(1)])]
    while True:
        rest = _remainder(chain[-2], chain[-1])
        if not rest:
            break
        chain.append(_primitive([-c for c in rest]))
    if len(chain[-1]) > 1:
        raise RootClusterTooTightError("%s has a repeated root" % where)
    if poly.lam[0] == 0:
        raise NonRealRootError("%s has the root z = 0, which is not negative" % where)

    def variations(signs):
        signs = [s for s in signs if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_minus_infinity = variations(
        (1 if q[0] > 0 else -1) * (-1) ** (len(q) - 1) for q in chain
    )
    at_zero = variations((q[-1] > 0) - (q[-1] < 0) for q in chain)
    negative = at_minus_infinity - at_zero
    if negative < poly.m:
        raise NonRealRootError(
            "%s has %d real negative roots out of %d" % (where, negative, poly.m)
        )
    raise RootClusterTooTightError("%s: %s; raise the precision" % (where, reason))


@functools.lru_cache(maxsize=256)
def solve_roots(poly: DrinfeldPoly, precision: int = 192) -> tuple[mpmath.mpf, ...]:
    """All m roots of the counts polynomial, ascending, at `precision`
    bits.

    Brackets come from a double-precision sign scan of lambda_Q(-x)
    through the projection identity; each is narrowed by regula falsi
    and then Newton-polished on a fixed-point grid of precision + 40
    bits.  Every returned root is
    certified exactly: alternating signs at m+1 dyadic probes prove m
    simple real negative roots, one between each pair of probes, and
    each root's relative residual is at most 2^(-precision/2).  When the
    scan or the certificate fails, an exact Sturm classification raises
    RootClusterTooTightError for a repeated root (or a separation the
    working precision cannot resolve) and NonRealRootError when fewer
    than m roots are real and negative."""
    if precision < MIN_PRECISION:
        raise ValueError("precision below %d bits is not supported" % MIN_PRECISION)
    if poly.m == 0:
        return ()
    brackets = _brackets(poly)
    if brackets is None:
        _classify(poly, "the sign scan did not find %d brackets" % poly.m)
    roots = tuple(
        _newton(poly.lam, -_bisect(poly, *bracket), precision)
        for bracket in reversed(brackets)
    )
    failure = _certificate_failure(poly.lam, roots, precision)
    if failure is not None:
        _classify(poly, failure)
    return roots


# ---------------------------------------------------------------------------
# root transforms


@dataclass(frozen=True)
class RootData:
    """Transformed root records of one sector at one k'.

    z holds the polynomial's own roots (ascending); these are the
    variables every formula downstream consumes.  w = 1/z is kept as
    comparison data for the reciprocal-sector pairing.  Per root:
    c = -(1+z)/(1-z) in (-1,1), lam = sqrt(1 + k'^2 + 2k'(1+z)/(1-z))
    in (1-k', 1+k'), and exp(2 theta) = (lam+1-k')/(lam-1+k'), with
    theta computed when read."""

    N: int
    L: int
    Q: int
    kp: str
    precision: int
    z: tuple[mpmath.mpf, ...]
    w: tuple[mpmath.mpf, ...]
    c: tuple[mpmath.mpf, ...]
    lam: tuple[mpmath.mpf, ...]
    consistency_residual: mpmath.mpf

    @property
    def m(self) -> int:
        return len(self.z)

    @property
    def theta(self) -> tuple[mpmath.mpf, ...]:
        with mpmath.workprec(2 * self.precision):
            kpv = mpmath.mpf(self.kp)
            return tuple(
                mpmath.log((lam + 1 - kpv) / (lam - 1 + kpv)) / 2 for lam in self.lam
            )

    def to_json(self) -> dict:
        dps = int(self.precision * 0.301)
        return {
            "N": self.N,
            "L": self.L,
            "Q": self.Q,
            "kp": self.kp,
            "precision_bits": self.precision,
            "z": [mpmath.nstr(v, dps) for v in self.z],
            "w": [mpmath.nstr(v, dps) for v in self.w],
            "c": [mpmath.nstr(v, dps) for v in self.c],
            "lambda": [mpmath.nstr(v, dps) for v in self.lam],
            "theta": [mpmath.nstr(v, dps) for v in self.theta],
            "consistency_residual": mpmath.nstr(self.consistency_residual, 5),
        }


@functools.lru_cache(maxsize=256)
def root_transforms(
    poly: DrinfeldPoly, kp, precision: int = 192
) -> RootData:
    """Solve the sector polynomial and map every root z to its derived
    quantities, verifying the hyperbolic-parametrization consistency
    relation  exp(2t) + exp(-2t) = k' + 1/k' - (1-k')^2 z/k'  per root.
    Cached: a sector serves as ket in one pair and as bra in another."""
    roots = solve_roots(poly, precision)
    kp_str = str(kp)
    with mpmath.workprec(2 * precision):
        kpv = mpmath.mpf(kp_str)
        if not 0 < kpv < 1:
            raise DomainError("k' must lie in (0,1), got %s" % kp_str)
        zs, ws, cs, lams = [], [], [], []
        worst = mpmath.mpf(0)
        for z in roots:
            ratio = (1 + z) / (1 - z)
            arg = 1 + kpv**2 + 2 * kpv * ratio
            if arg <= 0:
                raise DomainError(
                    "lambda^2 = %s is not positive at z = %s"
                    % (mpmath.nstr(arg, 8), mpmath.nstr(z, 8))
                )
            lam = mpmath.sqrt(arg)
            if not (1 - kpv) < lam < (1 + kpv):
                raise DomainError(
                    "lambda = %s outside (1-k', 1+k') at z = %s"
                    % (mpmath.nstr(lam, 8), mpmath.nstr(z, 8))
                )
            c = -ratio
            if not -1 < c < 1:
                raise DomainError("c = %s outside (-1,1)" % mpmath.nstr(c, 8))
            e2t = (lam + 1 - kpv) / (lam - 1 + kpv)
            check = e2t + 1 / e2t - (kpv + 1 / kpv - (1 - kpv) ** 2 * z / kpv)
            worst = max(worst, abs(check))
            zs.append(z)
            ws.append(1 / z)
            cs.append(c)
            lams.append(lam)
        digits = int(precision * 0.301)
        if worst > mpmath.mpf(10) ** (-(digits - 8)):
            raise DomainError(
                "consistency residual %s too large" % mpmath.nstr(worst, 5)
            )
    return RootData(
        N=poly.N,
        L=poly.L,
        Q=poly.Q,
        kp=kp_str,
        precision=precision,
        z=tuple(zs),
        w=tuple(ws),
        c=tuple(cs),
        lam=tuple(lams),
        consistency_residual=worst,
    )


def sector_roots(N: int, L: int, Q: int, precision: int = 192) -> tuple[mpmath.mpf, ...]:
    """Convenience: certified roots of sector Q at the given precision."""
    return solve_roots(lambda_counts(N, L, Q), precision)

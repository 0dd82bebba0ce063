"""Dense polynomials over Z[zeta] with canonical CycNum coefficients: the
test oracles for the generating functions that the library expands on
integer vectors.

Every product here reduces each coefficient to its canonical form, so
these oracles share none of the vector code they check: `gen_poly`
multiplies the per-site binomial factors, `closed_gen_poly` the truncated
series of the closed form, and `projection_poly` the products behind
`drinfeld_projection`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from chiralpotts.combi import EdgeConfig
from chiralpotts.cyclo import CycNum, gauss_binom


def _trim(coeffs: tuple[CycNum, ...]) -> tuple[CycNum, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1].is_zero():
        end -= 1
    return coeffs[:end]


@dataclass(frozen=True)
class CycPoly:
    """Dense polynomial in one formal variable over Z[zeta]."""

    order: int
    coeffs: tuple[CycNum, ...]

    def __init__(self, order: int, coeffs=()) -> None:
        tup = tuple(coeffs)
        for c in tup:
            if c.order != order:
                raise ValueError("coefficient order mismatch")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", _trim(tup))

    @staticmethod
    def one(order: int) -> CycPoly:
        return CycPoly(order, (CycNum.integer(1, order),))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> CycNum:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return CycNum.zero(self.order)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: CycPoly) -> CycPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        return CycPoly(self.order, tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def mul(self, other: CycPoly, max_degree: int | None = None) -> CycPoly:
        """Product, optionally truncated to max_degree (inclusive)."""
        if self.is_zero() or other.is_zero():
            return CycPoly(self.order, ())
        top = self.degree + other.degree
        if max_degree is not None:
            top = min(top, max_degree)
        out = [CycNum.zero(self.order) for _ in range(top + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            jmax = top - i
            for j, b in enumerate(other.coeffs[: jmax + 1]):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return CycPoly(self.order, out)

    def __mul__(self, other):
        if isinstance(other, (CycNum, int)):
            return CycPoly(self.order, tuple(c * other for c in self.coeffs))
        if isinstance(other, CycPoly):
            return self.mul(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> CycPoly:
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = CycPoly.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, x: CycNum) -> CycNum:
        acc = CycNum.zero(self.order)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def pochhammer(shift: Fraction | int, count: int, N: int) -> CycPoly:
    """The q-Pochhammer polynomial prod_{i=0}^{count-1} (1 - omega^(shift+i) t)
    with q = omega; `shift` may be a half-integer (omega^(1/2) = zeta)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    twice = Fraction(shift) * 2
    if twice.denominator != 1:
        raise ValueError("shift must be an integer or half-integer")
    twice = int(twice)
    order = 2 * N
    one = CycNum.integer(1, order)
    poly = CycPoly(order, (one,))
    for i in range(count):
        poly = poly * CycPoly(order, (one, -CycNum.zeta_pow(twice + 2 * i, order)))
    return poly


def site_factor(N: int, n_j: int, phase: int) -> CycPoly:
    """sum_{n'=0}^{N-1-n_j} [n_j + n' choose n'] (omega^phase t)^n'."""
    order = 2 * N
    return CycPoly(order, [
        gauss_binom(n_j + d, d, N) * CycNum.omega_pow(d * phase, order)
        for d in range(N - n_j)
    ])


def gen_poly(config: EdgeConfig, sums: tuple[int, ...]) -> CycPoly:
    """The product of the site factors with the given phases: the weight
    generating function for the left sums, its dual for the right sums."""
    poly = CycPoly.one(2 * config.N)
    for n_j, phase in zip(config.n, sums):
        poly = poly * site_factor(config.N, n_j, phase)
    return poly


def closed_gen_poly(config: EdgeConfig) -> CycPoly:
    """(1 - t^N)^(L-1) / prod_j (1 - t omega^(left_sum_j)), expanded as a
    power series truncated at degree (N-1)L - N."""
    N, L = config.N, config.L
    order = 2 * N
    top = (N - 1) * L - N
    one = CycNum.integer(1, order)
    numer = CycPoly(order, (one,) + (CycNum.zero(order),) * (N - 1) + (-one,))
    closed = CycPoly.one(order)
    for _ in range(L - 1):
        closed = closed.mul(numer, max_degree=top)
    for phase in config.left_sums:
        series = CycPoly(
            order, tuple(CycNum.omega_pow(k * phase, order) for k in range(top + 1))
        )
        closed = closed.mul(series, max_degree=top)
    return closed


def projection_poly(N: int, L: int, Q: int) -> CycPoly:
    """sum_n omega^(-nQ) [prod_{i != n} (1 - t omega^i)]^L, unshifted."""
    order = 2 * N
    one = CycNum.integer(1, order)
    total = CycPoly(order, ())
    for n in range(N):
        base = CycPoly.one(order)
        for i in range(N):
            if i != n:
                base = base * CycPoly(order, (one, -CycNum.omega_pow(i, order)))
        total = total + (base**L) * CycNum.omega_pow(-n * Q, order)
    return total

"""The tests' reference arithmetic in Z[zeta] and dense polynomials over
it: the oracles for the integer-vector code of the library.

`Cyc` is the ring of cyclotomic integers on canonical CycNum values, with
its own multiplication loop, so these oracles share none of the vector
code they check: `gauss_binom` gives the canonical Gaussian binomials,
`gen_poly` multiplies the per-site binomial factors, `closed_gen_poly`
the truncated series of the closed form, and `projection_poly` the
products behind `drinfeld_projection`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from chiralpotts.combi import EdgeConfig
from chiralpotts.cyclo import CycNum, binomial_vector, spread


class Cyc(CycNum):
    """A canonical CycNum with the ring operations of Z[zeta].

    It compares equal to any CycNum of the same order and coefficients and
    hashes alike; Python tries a subclass's reflected __eq__ first, so a
    library value and an oracle value compare directly either way round."""

    __hash__ = CycNum.__hash__

    def __eq__(self, other):
        if not isinstance(other, CycNum):
            return NotImplemented
        return (self.order, self.coeffs) == (other.order, other.coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int) -> Cyc:
        return Cyc(order, ())

    @staticmethod
    def integer(value: int, order: int) -> Cyc:
        return Cyc(order, (value,))

    @staticmethod
    def zeta_pow(e: int, order: int) -> Cyc:
        """zeta^e (e may be negative; exponent taken mod order)."""
        vec = [0] * order
        vec[e % order] = 1
        return Cyc(order, vec)

    @staticmethod
    def omega_pow(e: int, order: int) -> Cyc:
        """omega^e = zeta^(2e)."""
        return Cyc.zeta_pow(2 * e, order)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: CycNum) -> None:
        if self.order != other.order:
            raise ValueError("mixed cyclotomic orders %d and %d" % (self.order, other.order))

    def __add__(self, other):
        if isinstance(other, int):
            other = Cyc.integer(other, self.order)
        if not isinstance(other, CycNum):
            return NotImplemented
        self._check(other)
        return Cyc(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = Cyc.integer(other, self.order)
        if not isinstance(other, CycNum):
            return NotImplemented
        self._check(other)
        return Cyc(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> Cyc:
        return Cyc(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyc(self.order, tuple(a * other for a in self.coeffs))
        if not isinstance(other, CycNum):
            return NotImplemented
        self._check(other)
        n = self.order
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        k = i + j
                        out[k - n if k >= n else k] += a * b
        return Cyc(n, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Cyc:
        if e < 0:
            raise ValueError("negative powers are not defined in the integer ring")
        result = Cyc.integer(1, self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> Cyc:
        """Complex conjugation, zeta -> zeta^(-1)."""
        n = self.order
        vec = [0] * n
        for k, c in enumerate(self.coeffs):
            if c:
                vec[(-k) % n] += c
        return Cyc(n, vec)

    def embed(self, precision: int = 53) -> mpmath.mpc:
        """Numeric value with zeta = exp(i pi / N), N = order / 2,
        at `precision` bits."""
        with mpmath.workprec(precision + 10):
            n = self.order
            total = mpmath.mpc(0)
            for k, c in enumerate(self.coeffs):
                if c:
                    total += c * mpmath.expjpi(mpmath.mpf(2 * k) / n)
            return +total


def gauss_binom(a: int, b: int, N: int) -> Cyc:
    """The Gaussian binomial [a choose b] at omega = exp(2 pi i / N) in
    Z[zeta], the canonical form of `binomial_vector`; 0 outside 0 <= b <= a."""
    return Cyc(2 * N, spread(binomial_vector(a, b, N)))


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
        return CycPoly(order, (Cyc.integer(1, order),))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> CycNum:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Cyc.zero(self.order)

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
        out = [Cyc.zero(self.order) for _ in range(top + 1)]
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
        acc = Cyc.zero(self.order)
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
    one = Cyc.integer(1, order)
    poly = CycPoly(order, (one,))
    for i in range(count):
        poly = poly * CycPoly(order, (one, -Cyc.zeta_pow(twice + 2 * i, order)))
    return poly


def site_factor(N: int, n_j: int, phase: int) -> CycPoly:
    """sum_{n'=0}^{N-1-n_j} [n_j + n' choose n'] (omega^phase t)^n'."""
    order = 2 * N
    return CycPoly(order, [
        gauss_binom(n_j + d, d, N) * Cyc.omega_pow(d * phase, order)
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
    one = Cyc.integer(1, order)
    numer = CycPoly(order, (one,) + (Cyc.zero(order),) * (N - 1) + (-one,))
    closed = CycPoly.one(order)
    for _ in range(L - 1):
        closed = closed.mul(numer, max_degree=top)
    for phase in config.left_sums:
        series = CycPoly(
            order, tuple(Cyc.omega_pow(k * phase, order) for k in range(top + 1))
        )
        closed = closed.mul(series, max_degree=top)
    return closed


def projection_poly(N: int, L: int, Q: int) -> CycPoly:
    """sum_n omega^(-nQ) [prod_{i != n} (1 - t omega^i)]^L, unshifted."""
    order = 2 * N
    one = Cyc.integer(1, order)
    total = CycPoly(order, ())
    for n in range(N):
        base = CycPoly.one(order)
        for i in range(N):
            if i != n:
                base = base * CycPoly(order, (one, -Cyc.omega_pow(i, order)))
        total = total + (base**L) * Cyc.omega_pow(-n * Q, order)
    return total

"""Exact integer-vector arithmetic in the cyclotomic integers Z[zeta].

Here zeta is a primitive 2N-th root of unity and omega = zeta^2 is the
primitive N-th root the clock model is built on.  Working with the 2N-th
root (instead of the N-th) keeps half-integer powers omega^(n^2/2) = zeta^(n^2)
exactly representable, which the alternating-sum identities need.

Every computation runs on unreduced integer vectors over omega or zeta,
and every helper on those vectors lives here, the Gaussian binomials at
omega among them.  A vector becomes a CycNum only to be compared: the
canonical form of the vector modulo the cyclotomic polynomial Phi_2N,
with equality, hashing and a few predicates, but no arithmetic of its
own.  All coefficients are Python ints, so nothing overflows, and the
module needs nothing beyond the standard library.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

# Cyclotomic orders kept memoized; a run uses the order 2N and its divisors.
CACHE_SIZE = 64


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense lists, constant term first)


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials; the divisor must be monic
    (or at least divide every leading coefficient it meets, which holds in
    the cyclotomic construction)."""
    num = list(num)
    quo = [0] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        c, r = divmod(num[-1], den[-1])
        if r != 0:
            raise ArithmeticError("non-exact polynomial division")
        shift = len(num) - len(den)
        quo[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return quo, num


@functools.lru_cache(maxsize=CACHE_SIZE)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial Phi_n, constant first.

    Built by the divisor construction: (x^n - 1) / prod_{d|n, d<n} Phi_d.

    >>> cyclotomic_poly(4)
    (1, 0, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    if n < 1:
        raise ValueError("cyclotomic_poly needs n >= 1")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, list(cyclotomic_poly(d)))
            if rem:
                raise ArithmeticError("Phi_%d does not divide x^%d - 1" % (d, n))
    return tuple(poly)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _reduction_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """Canonical vectors (length `order`) for zeta^k mod Phi_order,
    one row per k in [0, order)."""
    phi = cyclotomic_poly(order)
    d = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    for k in range(d):
        row = [0] * order
        row[k] = 1
        rows.append(tuple(row))
    for k in range(d, order):
        prev = rows[k - 1]
        shifted = [0] + list(prev[: order - 1])
        lead = shifted[d] if d < order else 0
        if lead:
            # x^d = -(phi[0] + ... + phi[d-1] x^(d-1))
            shifted[d] = 0
            for i in range(d):
                shifted[i] -= lead * phi[i]
        rows.append(tuple(shifted))
    return tuple(rows)


def _canonical(order: int, vec: list[int]) -> tuple[int, ...]:
    """Reduce a coefficient vector (indices taken mod `order` already)
    to the canonical representative modulo Phi_order, padded to length order."""
    rows = _reduction_rows(order)
    deg_phi = len(cyclotomic_poly(order)) - 1
    out = list(vec[:deg_phi]) + [0] * (order - deg_phi)
    for k in range(deg_phi, order):
        c = vec[k]
        if c:
            row = rows[k]
            for i in range(deg_phi):
                if row[i]:
                    out[i] += c * row[i]
    return tuple(out)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycNum:
    """A cyclotomic integer in Z[zeta], zeta = exp(i pi / N), order = 2N,
    kept as a comparison key: the library sums and multiplies on vectors.

    coeffs always holds the canonical (Phi_2N-reduced) form, padded with
    zeros to length `order`, so equality and hashing are structural.
    """

    order: int
    coeffs: tuple[int, ...]

    def __init__(self, order: int, coeffs) -> None:
        if order < 2:
            raise ValueError("order must be at least 2")
        vec = [0] * order
        for k, c in enumerate(coeffs):
            if c:
                vec[k % order] += c
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", _canonical(order, vec))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational_int(self) -> bool:
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        """The rational integer this element equals; raises if it has a
        nonvanishing cyclotomic part."""
        if not self.is_rational_int():
            raise ValueError("CycNum %r is not a rational integer" % (self.coeffs,))
        return self.coeffs[0]

    def __repr__(self) -> str:
        if self.is_rational_int():
            return "CycNum<%d>(%d)" % (self.order, self.coeffs[0])
        terms = " + ".join(
            "%d*z^%d" % (c, k) for k, c in enumerate(self.coeffs) if c
        )
        return "CycNum<%d>(%s)" % (self.order, terms)


# ---------------------------------------------------------------------------
# integer vectors over omega and zeta
#
# An element of Z[omega] or Z[zeta] is an integer vector in Z[x]/(x^n - 1)
# for the root of unity x it is a polynomial in (n = N for omega, 2N for
# zeta), where a power of x is an index rotation.  Vectors stay unreduced
# through every sum and product and become canonical CycNums only to be
# compared.  A polynomial in the formal variable t is a list of such
# vectors, constant first, whose fixed length truncates every product.


def rotate(vec, e: int) -> tuple[int, ...]:
    """vec times x^e in Z[x]/(x^len(vec) - 1)."""
    e %= len(vec)
    return tuple(vec[-e:] + vec[:-e]) if e else tuple(vec)


def cyclic_mul(a, b) -> list[int]:
    """Product in Z[x]/(x^n - 1), n = len(a) = len(b)."""
    n = len(a)
    out = [0] * n
    for k, c in enumerate(b):
        if c:
            for t, v in enumerate(a):
                if v:
                    out[(t + k) % n] += c * v
    return out


def add_term(acc: dict, key, term) -> None:
    """acc[key] += term for integer vectors; a new key takes a copy, so
    the caller may pass a vector it still holds."""
    vec = acc.get(key)
    if vec is None:
        acc[key] = list(term)
    else:
        for t, v in enumerate(term):
            vec[t] += v


def spread(vec) -> list[int]:
    """A vector over omega as a vector over zeta; omega -> zeta^2 is a ring
    homomorphism Z[y]/(y^N - 1) -> Z[x]/(x^(2N) - 1), so the value is kept."""
    return [c for v in vec for c in (v, 0)]


def in_zeta(vec) -> CycNum:
    """A vector over omega as its canonical element of Z[zeta]."""
    return CycNum(2 * len(vec), spread(vec))


def trimmed(coeffs) -> tuple[CycNum, ...]:
    """CycNum coefficients of a polynomial with its trailing zeros trimmed.
    Vectors that agree in Z[zeta] may differ as vectors (by multiples of
    Phi_2N), so polynomials are compared only in this form."""
    out = list(coeffs)
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


def times_binomial(poly: list[list[int]], step: int, e: int, sign: int) -> None:
    """poly *= 1 + sign x^e t^step, in place and truncated at len(poly)."""
    n = len(poly[0])
    for k in range(len(poly) - 1, step - 1, -1):
        dst = poly[k]
        for t, v in enumerate(poly[k - step]):
            if v:
                dst[(t + e) % n] += sign * v


def times_geometric(poly: list[list[int]], e: int) -> None:
    """poly *= 1 / (1 - x^e t) = sum_k x^(ke) t^k, in place and truncated
    at len(poly): one running recursion c_k += x^e c_(k-1)."""
    n = len(poly[0])
    for k in range(1, len(poly)):
        dst = poly[k]
        for t, v in enumerate(poly[k - 1]):
            if v:
                dst[(t + e) % n] += v


# ---------------------------------------------------------------------------
# Gaussian binomials at omega


@functools.lru_cache(maxsize=CACHE_SIZE)
def binomial_rows(N: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """rows[a][b] = [a choose b] at omega for 0 <= b <= a < N, as vectors
    over omega, by the q-Pascal recursion [a, b] = [a-1, b-1] + omega^b
    [a-1, b], so no division ever happens."""
    one = (1,) + (0,) * (N - 1)
    rows = [(one,)]
    for a in range(1, N):
        prev = rows[-1]
        middle = (tuple(prev[b - 1][t] + prev[b][(t - b) % N] for t in range(N))
                  for b in range(1, a))
        rows.append((one, *middle, one))
    return tuple(rows)


def binomial_vector(a: int, b: int, N: int) -> tuple[int, ...]:
    """[a choose b] at omega = exp(2 pi i / N) as a vector over omega, zero
    outside 0 <= b <= a.  Rows a >= N follow from the q-Lucas theorem at a
    primitive N-th root of unity (Desarmenien 1982): [a choose b] =
    C(a div N, b div N) [a mod N choose b mod N], zero if b mod N > a mod N.

    >>> binomial_vector(5, 0, 3)
    (1, 0, 0)
    >>> binomial_vector(4, 2, 2)
    (2, 0)
    >>> binomial_vector(6, 3, 3)  # C(2, 1) [0 choose 0]
    (2, 0, 0)
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if a < 0:
        raise ValueError("need a >= 0")
    (a_high, a_low), (b_high, b_low) = divmod(a, N), divmod(b, N)
    if not 0 <= b <= a or b_low > a_low:
        return (0,) * N
    scale = math.comb(a_high, b_high)
    return tuple(scale * c for c in binomial_rows(N)[a_low][b_low])


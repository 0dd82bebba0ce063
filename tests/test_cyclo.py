"""Tests for exact cyclotomic arithmetic and Gaussian binomials.

The Gaussian binomial oracle here is deliberately independent of the
q-Pascal recursion used in the implementation: it counts partitions in a
b x (a-b) box by a first-part DP, then specializes q -> omega.
"""

import doctest
import functools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralpotts import cyclo
from chiralpotts.cyclo import (
    CycNum,
    cyclotomic_poly,
    times_binomial,
    times_geometric,
)

from cycpoly import Cyc, CycPoly, gauss_binom, pochhammer


# ---------------------------------------------------------------------------
# oracle: Gaussian binomial as box-partition generating polynomial


@functools.lru_cache(maxsize=None)
def _box_poly(rows: int, cols: int) -> tuple[int, ...]:
    """Coefficient list (by partition size) of the generating polynomial of
    partitions with at most `rows` parts, each part at most `cols`."""
    if rows == 0 or cols == 0:
        return (1,)
    # condition on the largest part k
    out = [0] * (rows * cols + 1)
    for k in range(cols + 1):
        sub = _box_poly(rows - 1, k)
        for s, c in enumerate(sub):
            out[s + k] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def box_gauss_binom(a: int, b: int, N: int) -> CycNum:
    """[a choose b]_omega via box partitions: sum_s p(s) omega^s."""
    if b < 0 or b > a:
        return Cyc.zero(2 * N)
    vec = [0] * (2 * N)
    for s, c in enumerate(_box_poly(b, a - b)):
        vec[(2 * s) % (2 * N)] += c
    return CycNum(2 * N, vec)


def factored_gauss_binom(a: int, b: int, N: int) -> complex:
    """Numeric q-factorial-quotient evaluation with paired limits at the
    root of unity: [a choose b] = prod_i (1 - q^(a-b+i)) / (1 - q^i)."""
    q = complex(mpmath.expjpi(mpmath.mpf(2) / N))
    val = complex(1)
    for i in range(1, b + 1):
        m = a - b + i
        if m % N == 0 and i % N == 0:
            # 0/0 pair: take d/dq of both factors
            val *= (m / i) * q ** (m - i)
        elif i % N == 0:
            raise ZeroDivisionError("unpaired vanishing denominator")
        else:
            val *= (1 - q**m) / (1 - q**i)
    return val


# ---------------------------------------------------------------------------
# cyclotomic polynomial construction


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(10) == (1, -1, 1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_zeta_is_primitive_root():
    # zeta^(2N) = 1 and zeta^N = -1 in every order we use
    for N in range(2, 7):
        order = 2 * N
        z = Cyc.zeta_pow(1, order)
        assert (z ** order).as_int() == 1
        assert (z ** N).as_int() == -1


def test_omega_sum_vanishes():
    # 1 + omega + ... + omega^(N-1) = 0
    for N in range(2, 8):
        total = Cyc.zero(2 * N)
        for n in range(N):
            total = total + Cyc.omega_pow(n, 2 * N)
        assert total.is_zero()


def test_canonical_idempotent():
    x = CycNum(6, (1, 2, 3, 4, 5, 6))
    again = CycNum(6, x.coeffs)
    assert x == again
    assert hash(x) == hash(again)


def test_oracle_values_compare_with_library_values():
    # a Cyc and a CycNum of equal value are equal either way round and hash
    # alike, so a set or dict mixes them; unequal values, including those of
    # another order, differ either way round, so no != assertion holds vacuously
    for N in range(2, 6):
        order = 2 * N
        omega = Cyc.omega_pow(1, order)
        oracle = (1 + omega) ** 2
        library = CycNum(order, [1, 0, 2, 0, 1])
        assert oracle == library and library == oracle
        assert not oracle != library and not library != oracle
        assert hash(oracle) == hash(library)
        assert len({oracle, library}) == 1
        other = CycNum(order, [1, 0, 2, 0, 2])
        assert oracle != other and other != oracle
        assert not oracle == other and not other == oracle
        assert Cyc.integer(1, order) != CycNum(order + 2, [1])
        assert CycNum(order + 2, [1]) != Cyc.integer(1, order)


EXACT_LAYER_IMPORT = """
import sys
import chiralpotts.cyclo, chiralpotts.combi
print(sorted(name for name in ("mpmath", "numpy", "scipy") if name in sys.modules))
"""


def test_exact_layer_imports_only_the_standard_library():
    # cyclo and combi compute and compare on integer vectors alone
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", EXACT_LAYER_IMPORT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ---------------------------------------------------------------------------
# embedding


def embed_complex(x: Cyc, precision: int = 53) -> mpmath.mpc:
    """Evaluate a Cyc at zeta = exp(i pi / N) in binary precision bits."""
    if precision < 53:
        raise ValueError("precision below 53 bits is not supported")
    return x.embed(precision)


def test_embed_examples():
    one_plus_omega = Cyc.integer(1, 6) + Cyc.omega_pow(1, 6)
    val = embed_complex(one_plus_omega)
    assert abs(val - mpmath.mpc(0.5, 0.8660254037844386)) < 1e-12

    seven = Cyc.integer(7, 8)
    assert abs(embed_complex(seven) - 7) < 1e-15

    for N in (2, 3, 4, 5):
        total = Cyc.zero(2 * N)
        for n in range(N):
            total = total + Cyc.omega_pow(n, 2 * N)
        assert abs(embed_complex(total)) < 1e-15


def test_embed_rejects_low_precision():
    with pytest.raises(ValueError):
        embed_complex(Cyc.integer(1, 4), precision=10)


@settings(max_examples=60)
@given(
    st.integers(min_value=2, max_value=6),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12),
)
def test_embed_is_ring_hom(N, avec, bvec):
    order = 2 * N
    x = Cyc(order, avec)
    y = Cyc(order, bvec)
    ex, ey = x.embed(80), y.embed(80)
    assert abs((x * y).embed(80) - ex * ey) < 1e-12
    assert abs((x + y).embed(80) - (ex + ey)) < 1e-12


@settings(max_examples=40)
@given(
    st.integers(min_value=2, max_value=6),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12),
)
def test_conjugate_matches_embedding(N, avec):
    x = Cyc(2 * N, avec)
    assert abs(x.conjugate().embed(80) - mpmath.conj(x.embed(80))) < 1e-12


# ---------------------------------------------------------------------------
# Gaussian binomials


def test_gauss_binom_spec_examples():
    assert gauss_binom(5, 0, 3).as_int() == 1
    expect = Cyc.integer(1, 6) + Cyc.omega_pow(1, 6)
    assert gauss_binom(2, 1, 3) == expect
    assert gauss_binom(4, 2, 2).as_int() == 2


def test_gauss_binom_numeric_oracle():
    for a, b, N in [(5, 0, 3), (2, 1, 3), (4, 2, 2), (6, 3, 3), (7, 2, 4)]:
        got = complex(gauss_binom(a, b, N).embed(80))
        want = factored_gauss_binom(a, b, N)
        assert abs(got - want) < 1e-12, (a, b, N)


def test_gauss_binom_out_of_range():
    assert gauss_binom(3, -1, 3).is_zero()
    assert gauss_binom(3, 4, 3).is_zero()


@settings(max_examples=80)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
)
def test_gauss_binom_against_box_partitions(N, a, b):
    assert gauss_binom(a, b, N) == box_gauss_binom(a, b, N)


@pytest.mark.parametrize("N", range(2, 7))
def test_gauss_binom_grid_against_box_partitions(N):
    # every row below N, and past it the q-Lucas carry [a choose b] =
    # C(a div N, b div N) [a mod N choose b mod N], up to a = 3N
    for a in range(3 * N + 1):
        for b in range(a + 1):
            assert gauss_binom(a, b, N) == box_gauss_binom(a, b, N), (N, a, b)


def test_module_examples_run():
    failed, attempted = doctest.testmod(cyclo)
    assert failed == 0 and attempted >= 5


@settings(max_examples=60)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=10),
)
def test_gauss_binom_pascal(N, a, b):
    lhs = gauss_binom(a, b, N)
    rhs = gauss_binom(a - 1, b - 1, N) + Cyc.omega_pow(b, 2 * N) * gauss_binom(
        a - 1, b, N
    )
    assert lhs == rhs


@settings(max_examples=60)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_gauss_binom_vanishes_past_period(N, n, nn):
    # [n + n' choose n'] = 0 once n + n' reaches N (both below N):
    # this is what truncates all the finite sums downstream.
    n, nn = n % N, nn % N
    value = gauss_binom(n + nn, nn, N)
    if n + nn >= N:
        assert value.is_zero()
    else:
        assert not value.is_zero()


# ---------------------------------------------------------------------------
# the CycPoly and Pochhammer oracles of the tests


def test_poly_mul_and_truncate():
    order = 6
    one = Cyc.integer(1, order)
    om = Cyc.omega_pow(1, order)
    p = CycPoly(order, (one, om))          # 1 + om t
    q = CycPoly(order, (one, -om, one))    # 1 - om t + t^2
    full = p.mul(q)
    assert full.degree == 3
    assert full.coeff(0) == one
    assert full.coeff(3) == om
    cut = p.mul(q, max_degree=1)
    assert cut.degree <= 1
    assert cut.coeff(0) == full.coeff(0)
    assert cut.coeff(1) == full.coeff(1)


def test_poly_evaluate_hom():
    order = 8
    om = Cyc.omega_pow(1, order)
    p = CycPoly(order, (Cyc.integer(3, order), om, om * om))
    q = CycPoly(order, (om, Cyc.integer(-1, order)))
    x = Cyc.zeta_pow(3, order)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)


def test_pochhammer_spec_examples():
    order = 4
    empty = pochhammer(Fraction(1, 2), 0, 2)
    assert empty.degree == 0
    assert empty.coeff(0).as_int() == 1

    half_two = pochhammer(Fraction(1, 2), 2, 2)
    assert half_two.degree == 2
    assert half_two.coeff(0).as_int() == 1
    assert half_two.coeff(1).is_zero()
    assert half_two.coeff(2).as_int() == 1
    del order


def test_pochhammer_full_cycle_collapses():
    # (omega^(1/2 + P) t; omega)_N = 1 + t^N for every integer P
    for N in (2, 3, 4, 5):
        for P in range(N):
            poly = pochhammer(Fraction(1, 2) + P, N, N)
            assert poly.degree == N
            assert poly.coeff(0).as_int() == 1
            assert poly.coeff(N).as_int() == 1
            for k in range(1, N):
                assert poly.coeff(k).is_zero(), (N, P, k)


def test_pochhammer_rejects_bad_shift():
    with pytest.raises(ValueError):
        pochhammer(Fraction(1, 3), 2, 3)


# ---------------------------------------------------------------------------
# polynomials over integer vectors


def test_vector_factors_match_the_polynomial_oracle():
    # a product of (1 + s zeta^e t^m) factors and a truncated 1/(1 - zeta^e t)
    # on unreduced vectors, against the same products over Cyc
    order, size = 6, 9
    vectors = [[1] + [0] * (order - 1)] + [[0] * order for _ in range(size - 1)]
    oracle = CycPoly.one(order)
    one = Cyc.integer(1, order)
    for step, e, sign in [(1, 1, -1), (3, 0, 1), (2, 5, -1), (1, 4, 1)]:
        times_binomial(vectors, step, e, sign)
        factor = [one] + [Cyc.zero(order)] * (step - 1) + [sign * Cyc.zeta_pow(e, order)]
        oracle = oracle * CycPoly(order, factor)
    assert CycPoly(order, [CycNum(order, v) for v in vectors]) == oracle
    times_geometric(vectors, 2)
    series = CycPoly(order, [Cyc.zeta_pow(2 * k, order) for k in range(size)])
    assert CycPoly(order, [CycNum(order, v) for v in vectors]) == oracle.mul(
        series, max_degree=size - 1
    )

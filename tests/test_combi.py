"""Tests for edge-configuration combinatorics.

The coefficient oracle here enumerates the defining sum directly with
itertools.product, independent of the per-site polynomial product of
`cycpoly.gen_poly`; that product and the closed form of `cycpoly`, both
over the oracle ring `cycpoly.Cyc`, are the oracles of the vector
generating functions in `combi`.  The exchange-kernel oracles are two
recursions over the n_i, one with prefix sums and one with suffix sums,
independent of the site transfer in `combi`; the correction oracle sums
the first over every configuration pair.  The overlap-table oracle
enumerates every configuration of total N and multiplies its generating
functions, independent of the table's site transfer.  The small overlap-table
values were worked out by hand (L = 4, two-state case) and are frozen."""

import functools
import itertools
import random

import pytest

import cycpoly
from chiralpotts import combi
from chiralpotts.combi import (
    EdgeConfig,
    appendix_suite,
    calG_table,
    gen_function_pair,
    ibi_check,
    identity_check,
    lambda_block,
    level_counts,
    uqp_check,
)
from chiralpotts.cyclo import CycNum, cyclotomic_poly, in_zeta, trimmed
from cycpoly import Cyc, gauss_binom
from chiralpotts.errors import CountingInvariantError, SizeGuardError


# ---------------------------------------------------------------------------
# oracle


def compositions(total: int, length: int, max_part: int):
    """All tuples of `length` entries in [0, max_part] summing to `total`,
    in lexicographic order."""
    if total < 0:
        return
    if length == 0:
        if total == 0:
            yield ()
        return
    lo = max(0, total - max_part * (length - 1))
    hi = min(max_part, total)
    for first in range(lo, hi + 1):
        for rest in compositions(total - first, length - 1, max_part):
            yield (first,) + rest


def k_coeffs_enum(config: EdgeConfig, max_degree: int):
    """Direct enumeration of the defining sums for K and Kbar."""
    N, L = config.N, config.L
    order = 2 * N
    K = [Cyc.zero(order) for _ in range(max_degree + 1)]
    Kbar = [Cyc.zero(order) for _ in range(max_degree + 1)]
    for nprime in itertools.product(*(range(N - nj) for nj in config.n)):
        degree = sum(nprime)
        if degree > max_degree:
            continue
        w = Cyc.integer(1, order)
        wbar = Cyc.integer(1, order)
        for j in range(L):
            binom = gauss_binom(config.n[j] + nprime[j], nprime[j], N)
            w = w * binom * Cyc.omega_pow(nprime[j] * config.left_sums[j], order)
            wbar = wbar * binom * Cyc.omega_pow(
                nprime[j] * config.right_sums[j], order
            )
        K[degree] = K[degree] + w
        Kbar[degree] = Kbar[degree] + wbar
    return K, Kbar


def k_coeffs(
    config: EdgeConfig, max_degree: int | None = None
) -> tuple[list[Cyc], list[Cyc]]:
    """Coefficient lists (K, Kbar) of the weight generating function and
    its dual, up to max_degree inclusive (default: the full degree)."""
    top = config.max_degree
    if max_degree is None:
        max_degree = top
    if not 0 <= max_degree <= top:
        raise ValueError("max_degree must lie in [0, %d]" % top)
    g = cycpoly.gen_poly(config, config.left_sums)
    gbar = cycpoly.gen_poly(config, config.right_sums)
    return (
        [g.coeff(m) for m in range(max_degree + 1)],
        [gbar.coeff(m) for m in range(max_degree + 1)],
    )


def calG_table_enum(N: int, L: int) -> tuple[tuple[int, ...], ...]:
    """The overlap table's entries by enumerating every configuration of
    total N and multiplying its coefficient lists."""
    dim = (N - 1) * L - N + 1
    order = 2 * N
    acc = [[Cyc.zero(order) for _ in range(dim)] for _ in range(dim)]
    for n in compositions(N, L, N - 1):
        config = EdgeConfig(N, L, n)
        K, Kbar = k_coeffs(config)
        for a in range(dim):
            ka = Kbar[a]
            if ka.is_zero():
                continue
            row = acc[a]
            for b in range(dim):
                if not K[b].is_zero():
                    row[b] = row[b] + ka * K[b]
    return tuple(tuple(acc[a][b].as_int() for b in range(dim)) for a in range(dim))


def all_configs(N, L):
    for n in itertools.product(range(N), repeat=L):
        yield EdgeConfig(N, L, n)


@functools.lru_cache(maxsize=None)
def _configs_with_total(N, L, total):
    return tuple(compositions(total, L, N - 1))


def _exchange_sums(mu: tuple[int, ...], lam: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Partial sums of both kernels: mu over the sites strictly before i,
    lam over the sites strictly after i."""
    if len(lam) != len(mu):
        raise ValueError("mu and lam must have the same length")
    mu_prefix = [0, *itertools.accumulate(mu)][: len(mu)]
    lam_suffix = [0, *itertools.accumulate(reversed(lam))][: len(lam)][::-1]
    return mu_prefix, lam_suffix


def exchange_sum(n: int, mu: tuple[int, ...], lam: tuple[int, ...], N: int) -> Cyc:
    """sum over {n_i >= 0, sum n_i = n} of
    prod_i [mu_i choose n_i] [n_i + lam_i choose n_i]
    omega^(n_i (mu_prefix_i - n_prefix_i + lam_suffix_i))."""
    mu_prefix, lam_suffix = _exchange_sums(mu, lam)
    L = len(mu)
    order = 2 * N
    site_cap = [min(mu[i], N - 1 - lam[i]) for i in range(L)]
    tail_cap = [0] * (L + 1)
    for i in range(L - 1, -1, -1):
        tail_cap[i] = tail_cap[i + 1] + site_cap[i]

    total = Cyc.zero(order)

    def recurse(i: int, remaining: int, n_prefix: int, partial: Cyc) -> None:
        nonlocal total
        if i == L:
            if remaining == 0:
                total = total + partial
            return
        lo = max(0, remaining - tail_cap[i + 1])
        for ni in range(lo, min(site_cap[i], remaining) + 1):
            w = gauss_binom(mu[i], ni, N) * gauss_binom(ni + lam[i], ni, N)
            if w.is_zero():
                continue
            if ni:
                w = w * Cyc.omega_pow(
                    ni * (mu_prefix[i] - n_prefix + lam_suffix[i]), order
                )
            recurse(i + 1, remaining - ni, n_prefix + ni, partial * w)

    recurse(0, n, 0, Cyc.integer(1, order))
    return total


def exchange_sum_dual(n: int, lam: tuple[int, ...], mu: tuple[int, ...], N: int) -> Cyc:
    """The dual kernel: sum over {n_i, sum = n} of
    prod_i [lam_i choose n_i] [n_i + mu_i choose n_i]
    omega^(n_i (lam_suffix_i - n_suffix_i + mu_prefix_i))."""
    mu_prefix, lam_suffix = _exchange_sums(mu, lam)
    L = len(mu)
    order = 2 * N

    total = Cyc.zero(order)

    def recurse(i: int, remaining: int, partial: Cyc, n_so_far: list[int]) -> None:
        nonlocal total
        if i == L:
            if remaining == 0:
                # suffix sums of n are only known once the whole tuple is fixed
                phase = 0
                nsuf = 0
                for k in range(L - 1, -1, -1):
                    phase += n_so_far[k] * (lam_suffix[k] - nsuf + mu_prefix[k])
                    nsuf += n_so_far[k]
                total = total + partial * Cyc.omega_pow(phase, order)
            return
        cap = min(lam[i], remaining, N - 1 - mu[i])
        for ni in range(cap + 1):
            w = gauss_binom(lam[i], ni, N) * gauss_binom(ni + mu[i], ni, N)
            n_so_far.append(ni)
            recurse(i + 1, remaining - ni, partial * w, n_so_far)
            n_so_far.pop()

    recurse(0, n, Cyc.integer(1, order), [])
    return total


def correction_from_exchange_enum(N, L, Q, P, ell, j):
    """The correction term of the table recursion, summed over
    P-N < k <= Q, with the exchange sum evaluated on every configuration
    pair separately."""
    order = 2 * N
    total = Cyc.zero(order)
    for k in range(P - N + 1, Q + 1):
        mu_total = (ell + 1) * N + Q + P - k
        lam_total = j * N + k
        if not 0 <= mu_total <= (N - 1) * L:
            continue
        if not 0 <= lam_total <= (N - 1) * L:
            continue
        mus = _configs_with_total(N, L, mu_total)
        lams = _configs_with_total(N, L, lam_total)
        inner = Cyc.zero(order)
        if P - k == 0:
            # the order-0 exchange sum is 1 for every configuration pair
            inner = Cyc.integer(len(mus) * len(lams), order)
        else:
            for mu in mus:
                for lam in lams:
                    inner = inner + exchange_sum(P - k, mu, lam, N)
        prefactor = gauss_binom(N - P + Q, Q - k, N) * Cyc.omega_pow(
            k * k - k * P, order
        )
        total = total + prefactor * inner
    return total


# ---------------------------------------------------------------------------
# enumeration helpers


def test_compositions_order_and_count():
    got = list(compositions(3, 3, 2))
    assert got == sorted(got)
    assert len(got) == level_counts(3, 3)[3] == 7
    assert all(sum(c) == 3 and max(c) <= 2 for c in got)


def test_level_counts_total():
    for N, L in [(2, 5), (3, 4), (4, 3)]:
        counts = level_counts(N, L)
        assert len(counts) == (N - 1) * L + 1
        assert sum(counts) == N**L
        assert counts == counts[::-1]


def test_lambda_block_shapes():
    for N, L in [(2, 4), (3, 5), (4, 4)]:
        for Q in range(N):
            block = lambda_block(N, L, Q)
            assert len(block) == ((N - 1) * L - Q) // N + 1
            # each charge sector holds exactly N^(L-1) configurations
            assert sum(block) == N ** (L - 1)
    with pytest.raises(ValueError):
        lambda_block(3, 4, 3)


# ---------------------------------------------------------------------------
# EdgeConfig and coefficient extraction


def test_edge_config_partial_sums():
    c = EdgeConfig(3, 4, (1, 2, 0, 2))
    assert c.left_sums == (0, 1, 3, 3)
    assert c.right_sums == (4, 2, 2, 0)
    assert c.total == 5
    assert c.max_degree == 2 * 4 - 5


def test_edge_config_rejects_bad_input():
    with pytest.raises(ValueError):
        EdgeConfig(3, 3, (0, 1))
    with pytest.raises(ValueError):
        EdgeConfig(3, 3, (0, 3, 1))


def test_k_coeffs_against_enumeration():
    for N, L in [(2, 3), (2, 4), (3, 3), (3, 4), (4, 2)]:
        for config in all_configs(N, L):
            K, Kbar = k_coeffs(config)
            K2, Kbar2 = k_coeffs_enum(config, config.max_degree)
            assert K == K2, (N, L, config.n)
            assert Kbar == Kbar2, (N, L, config.n)


def test_k_coeffs_max_degree_validation():
    c = EdgeConfig(3, 3, (1, 1, 1))
    K, Kbar = k_coeffs(c, max_degree=1)
    assert len(K) == len(Kbar) == 2
    with pytest.raises(ValueError):
        k_coeffs(c, max_degree=c.max_degree + 1)
    with pytest.raises(ValueError):
        k_coeffs(c, max_degree=-1)


def test_dual_is_conjugate_at_total_N():
    # for configurations of total N the dual coefficients are the
    # complex conjugates of the direct ones
    for N, L in [(2, 4), (3, 3), (3, 4), (4, 3)]:
        for n in compositions(N, L, N - 1):
            config = EdgeConfig(N, L, n)
            K, Kbar = k_coeffs(config)
            assert all(kb == k.conjugate() for k, kb in zip(K, Kbar))


def test_gen_function_pair_agrees():
    for N, L in [(2, 3), (2, 5), (3, 3), (3, 4), (4, 3)]:
        for n in compositions(N, L, N - 1):
            config = EdgeConfig(N, L, n)
            definition, closed = gen_function_pair(config)
            assert definition == closed, (N, L, n)
            assert len(definition) - 1 <= (N - 1) * L - N


@pytest.mark.parametrize("N, L", [(2, 3), (2, 5), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3)])
def test_gen_function_pair_matches_polynomial_oracle(N, L):
    for n in compositions(N, L, N - 1):
        config = EdgeConfig(N, L, n)
        definition, closed = gen_function_pair(config)
        assert definition == cycpoly.gen_poly(config, config.left_sums).coeffs, n
        assert closed == cycpoly.closed_gen_poly(config).coeffs, n


def test_zeta_vectors_compare_in_the_ring():
    # two vectors over zeta that differ by a multiple of Phi_2N are one
    # element of Z[zeta]; a unit apart they are not
    for N in (2, 3, 4, 5, 6):
        order = 2 * N
        a = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, 5, -8][:order]
        phi = cyclotomic_poly(order)
        for shift in range(order - len(phi) + 1):
            b = list(a)
            for i, c in enumerate(phi):
                b[shift + i] += 7 * c
            assert b != a
            assert trimmed([CycNum(order, a)]) == trimmed([CycNum(order, b)])
        for k in range(order):
            b = list(a)
            b[k] += 1
            assert trimmed([CycNum(order, a)]) != trimmed([CycNum(order, b)])
    # a coefficient that vanishes in Z[zeta] is trimmed even when its vector is not zero
    assert trimmed([CycNum(6, [1]), CycNum(6, [1, 0, 1, 0, 1, 0])]) == (CycNum(6, [1]),)


def test_appendix_suite_reports_wrong_phases(monkeypatch):
    # a closed-form site factor one phase off and a Pochhammer product
    # shifted by one power of omega must both show up as failures; the
    # checks below are explicit so that they keep their teeth under -O
    times_geometric, times_binomial = combi.times_geometric, combi.times_binomial
    monkeypatch.setattr(combi, "times_geometric", lambda poly, e: times_geometric(poly, e + 1))
    monkeypatch.setattr(
        combi,
        "times_binomial",
        lambda poly, step, e, sign: times_binomial(poly, step, e + 2 if step == 1 else e, sign),
    )
    for N, L in [(2, 3), (3, 3)]:
        report = appendix_suite(N, L, samples=40)
        kinds = {failure[0] for failure in report["failures"]}
        if report["ok"] or kinds != {"genfun", "alternating_sum"}:
            pytest.fail("wrong phases went unreported at (%d, %d): %r" % (N, L, kinds))


def test_appendix_checks_survive_optimize_flag(run_optimized):
    run_optimized("test_combi.py::test_appendix_suite_reports_wrong_phases")


def test_gen_function_pair_needs_total_N():
    with pytest.raises(ValueError):
        gen_function_pair(EdgeConfig(3, 3, (1, 1, 0)))


# ---------------------------------------------------------------------------
# overlap table


def test_table_hand_values_two_state():
    # worked out by hand: N = 2, L = 4, six configurations of total 2,
    # generating functions (1+t)^2 (x3), 1 - t^2 (x2), (1-t)^2 (x1)
    table = calG_table(2, 4)
    assert table.dim == 3
    assert table.entry(0, 0) == 6
    assert table.entry(0, 1) == 4
    assert table.entry(1, 1) == 16
    assert table.entry(0, 2) == 2
    assert table.entry(1, 2) == 4
    assert table.entry(2, 2) == 6
    assert table.entry(3, 0) == 0  # out of range
    assert table.n_configs == 6


def test_table_against_exchange_kernel():
    # entry(a, b) must equal the order-N exchange sum totalled over all
    # configuration pairs with sums a + N and b
    for N, L in [(2, 4), (3, 3), (3, 4)]:
        table = calG_table(N, L)
        order = 2 * N
        for a in range(table.dim):
            for b in range(table.dim):
                acc = Cyc.zero(order)
                for mu in compositions(a + N, L, N - 1):
                    for lam in compositions(b, L, N - 1):
                        acc = acc + exchange_sum(N, mu, lam, N)
                assert acc.as_int() == table.entry(a, b), (N, L, a, b)
                kernel = combi._exchange_orders(N, L)[N].get((a + N, b), (0,) * N)
                assert in_zeta(kernel) == acc, (N, L, a, b)


@pytest.mark.parametrize("N, L", [
    (N, L) for N, top in [(2, 10), (3, 8), (4, 7), (5, 6), (6, 5)] for L in range(2, top + 1)
])
def test_table_transfer_matches_enumeration(N, L):
    table = calG_table(N, L)
    assert table.entries == calG_table_enum(N, L)
    assert table.n_configs == len(_configs_with_total(N, L, N))


def test_table_counts_its_configurations(monkeypatch):
    counts = list(level_counts(3, 4))
    counts[3] += 1
    monkeypatch.setattr(combi, "level_counts", lambda N, L: tuple(counts))
    with pytest.raises(CountingInvariantError):
        calG_table.__wrapped__(3, 4)


def test_table_rejects_too_small_width():
    for N, L in [(2, 1), (3, 1), (4, 1)]:
        with pytest.raises(ValueError):
            calG_table(N, L)


def test_table_is_built_once_per_size():
    assert calG_table(3, 4) is calG_table(3, 4)
    assert calG_table.cache_info().maxsize == combi.CACHE_SIZE
    assert combi._exchange_orders.cache_info().maxsize == combi.CACHE_SIZE


def test_table_size_guard():
    with pytest.raises(SizeGuardError):
        calG_table(5, 64)


# ---------------------------------------------------------------------------
# identity checks


def test_identity_check_small():
    for N, L in [(2, 2), (2, 5), (3, 3), (3, 5), (4, 3)]:
        report = identity_check(N, L)
        assert report["ok"], report
        assert report["checked"] > 0
        assert report["symmetric"]


def test_uqp_check_small():
    for N, L in [(2, 3), (2, 4), (3, 3)]:
        report = uqp_check(N, L)
        assert report["ok"], report


@pytest.mark.parametrize("N, L", [(2, 4), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4)])
def test_correction_transfer_matches_pair_enumeration(N, L):
    dim = (N - 1) * L - N + 1
    for a in range(dim):
        ell, Q = divmod(a, N)
        for b in range(dim):
            j, P = divmod(b, N)
            if P < Q:
                continue
            got = combi._correction_from_exchange(N, L, Q, P, ell, j)
            assert got == correction_from_exchange_enum(N, L, Q, P, ell, j), (Q, P, ell, j)


def test_correction_closed_values_are_pinned():
    # entries where the terms P-N < k < 0 of the correction are nonzero: the
    # exchange-kernel form must equal these closed values, in level
    # degeneracies, at four, five and six states
    pinned = {
        (4, 3): [(0, 5, 136)],
        (4, 4): [(0, 5, 1136), (4, 5, 616)],
        (5, 4): [(0, 6, 3316), (0, 7, 3515), (0, 11, 2689), (5, 7, 1780)],
        (6, 3): [(0, 7, 651), (0, 8, 618), (0, 9, 526), (1, 8, 702), (6, 8, 75)],
    }
    for (N, L), entries in pinned.items():
        lam = combi._level_table(N, L)
        for row, col, value in entries:
            (ell, Q), (j, P) = divmod(row, N), divmod(col, N)
            assert combi._correction_from_counts(lam, Q, P, ell, j) == value
            kernel = combi._correction_from_exchange(N, L, Q, P, ell, j)
            assert kernel == Cyc.integer(value, 2 * N), (N, L, row, col, kernel)
            if (N, L) == (4, 4):
                assert correction_from_exchange_enum(N, L, Q, P, ell, j) == kernel
        assert uqp_check(N, L)["ok"], (N, L)


def test_uqp_check_reports_a_wrong_shift_entry(monkeypatch):
    # the order-N kernels enter only the fourth statement, at the shift
    # entry (a + 2N, b - N) of cell (a, b): one unit added to the kernel
    # that cell (0, N) reads must fail that cell alone, by that statement
    N, L = 3, 4
    orders = combi._exchange_orders(N, L)
    top = dict(orders[N])
    vec = top[2 * N, 0]
    top[2 * N, 0] = (vec[0] + 1, *vec[1:])
    monkeypatch.setattr(combi, "_exchange_orders", lambda N, L: (*orders[:N], top))
    report = uqp_check(N, L)
    failed = [(f["row"], f["col"], sorted(f)) for f in report["failures"]]
    if report["ok"] or failed != [(0, N, ["col", "row", "shift_entry"])]:
        pytest.fail("wrong shift entry went unreported: %r" % (report["failures"],))


def test_uqp_check_larger_sizes():
    for N, L in [(2, 12), (3, 8)]:
        report = uqp_check(N, L)
        assert report["ok"], report["failures"]


def test_exchange_table_order_zero_counts_pairs():
    # the order-0 exchange sum is 1 for every configuration pair, and
    # every pair of totals is reached
    counts = level_counts(3, 4)
    table = combi._exchange_orders(3, 4)[0]
    assert len(table) == len(counts) ** 2
    for (M, T), vec in table.items():
        assert in_zeta(vec).as_int() == counts[M] * counts[T]


def test_exchange_sum_order_zero_is_one():
    assert exchange_sum(0, (1, 2, 0), (2, 0, 1), 3).as_int() == 1
    assert exchange_sum_dual(0, (1, 2, 0), (2, 0, 1), 3).as_int() == 1
    assert in_zeta(combi._pair_kernels((1, 2, 0), (2, 0, 1), 3)[0]).as_int() == 1


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_exchange_sums_match_both_recursions(N):
    # every order, direct and dual orientation: the dual kernel of
    # (lam, mu) is the direct kernel of the reversed pair
    rng = random.Random(N)
    zero = Cyc.zero(2 * N)
    for L in range(1, 6):
        for _ in range(20):
            mu = tuple(rng.randrange(N) for _ in range(L))
            lam = tuple(rng.randrange(N) for _ in range(L))
            direct = [in_zeta(vec) for vec in combi._pair_kernels(mu, lam, N)]
            dual = [in_zeta(vec) for vec in combi._pair_kernels(lam[::-1], mu[::-1], N)]
            assert len(direct) == sum(mu) + 1 and len(dual) == sum(lam) + 1
            for n in range((N - 1) * L + 1):
                got = direct[n] if n < len(direct) else zero
                assert got == exchange_sum(n, mu, lam, N), (mu, lam, n)
                got = dual[n] if n < len(dual) else zero
                assert got == exchange_sum_dual(n, lam, mu, N), (mu, lam, n)


def test_ibi_check_cases():
    # both orientations of the (1 + t^N) power, two- and three-state
    cases = [
        (2, 3, (1, 1, 1), (1, 0, 0)),
        (2, 4, (1, 1, 0, 1), (0, 1, 0, 0)),
        (3, 3, (2, 2, 1), (1, 0, 1)),
        (3, 3, (1, 1, 1), (2, 2, 2)),  # negative power, cross-multiplied
        (3, 4, (2, 0, 2, 1), (0, 1, 1, 0)),
        (4, 3, (3, 2, 2), (1, 2, 0)),
    ]
    for N, L, mu, lam in cases:
        report = ibi_check(N, L, mu, lam)
        assert report["ok"], report


def test_ibi_check_exhaustive_small():
    N, L = 3, 3
    for mu in itertools.product(range(N), repeat=L):
        if sum(mu) < N:
            continue
        for lam in itertools.product(range(N), repeat=L):
            assert ibi_check(N, L, mu, lam)["ok"], (mu, lam)


def test_ibi_check_validation():
    with pytest.raises(ValueError):
        ibi_check(3, 3, (1, 0, 0), (0, 0, 0))  # sum(mu) below N
    with pytest.raises(ValueError):
        ibi_check(3, 3, (1, 1, 1), (0, 0))
    with pytest.raises(ValueError):
        ibi_check(3, 3, (1, 1, 3), (0, 0, 0))

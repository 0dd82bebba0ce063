"""Exact combinatorics of edge configurations on a ring of L sites.

An edge configuration assigns n_j in [0, N-1] to each site.  Its weight
generating function g(t) collects Gaussian-binomial weights with phases
driven by the left partial sums of the configuration; the dual function
gbar(t) uses right partial sums.  Summing the coefficient products of
gbar and g over all configurations with total N builds an integer matrix
(the overlap table) whose entries factor into products of level
degeneracies.  The table and the exchange kernels of the appendix are
both built by left-to-right site transfers over integer vectors in
Z[omega], never by listing configurations; the generating functions and
the alternating-sum polynomials are products on the same vectors, over
zeta where omega^(1/2) appears.  The three check routines at the bottom
verify that factorization and the polynomial exchange identities behind
it, exactly, each coefficient compared in canonical form in Z[zeta].
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .cyclo import (CycNum, add_term, binomial_rows, binomial_vector, cyclic_mul, in_zeta,
                    rotate, spread, times_binomial, times_geometric, trimmed)
from .errors import CountingInvariantError, SizeGuardError

# Largest number of total-N configurations an overlap table may sum over.
# The transfer does not visit them one by one; the bound on their count
# still decides which sizes are refused (exit 3).
ENUM_GUARD = 10**7
# Entries per memoized table; an exact suite keeps one overlap table and one
# exchange transfer per (N, L), and one site-factor table per N.
CACHE_SIZE = 512
# Alternating-sum pairs checked exhaustively up to this count, else sampled.
EXHAUSTIVE_PAIRS = 4096
SAMPLE_SEED = 0x5EED


# ---------------------------------------------------------------------------
# level counts


@functools.lru_cache(maxsize=CACHE_SIZE)
def level_counts(N: int, L: int) -> tuple[int, ...]:
    """Number of configurations in [0, N-1]^L with total s, for every s
    from 0 to (N-1)L; the coefficient list of ((1 - x^N)/(1 - x))^L."""
    counts = [1]
    for _ in range(L):
        new = [0] * (len(counts) + N - 1)
        for s, c in enumerate(counts):
            for k in range(N):
                new[s + k] += c
        counts = new
    return tuple(counts)


def lambda_block(N: int, L: int, Q: int) -> tuple[int, ...]:
    """Degeneracies (Lambda^Q_0, ..., Lambda^Q_m) of the charge-Q levels:
    Lambda^Q_n counts configurations with total nN + Q.  The block length
    is m_Q + 1 with m_Q = floor(((N-1)L - Q) / N)."""
    if not 0 <= Q < N:
        raise ValueError("Q must lie in [0, N)")
    all_counts = level_counts(N, L)
    return tuple(all_counts[s] for s in range(Q, (N - 1) * L + 1, N))


# ---------------------------------------------------------------------------
# edge configurations and their generating functions


@dataclass(frozen=True)
class EdgeConfig:
    """A site occupation tuple n with 0 <= n_j <= N-1, plus its cached
    left partial sums (everything strictly before j) and right partial
    sums (everything strictly after j)."""

    N: int
    L: int
    n: tuple[int, ...]
    left_sums: tuple[int, ...]
    right_sums: tuple[int, ...]

    def __init__(self, N: int, L: int, n) -> None:
        n = tuple(n)
        if len(n) != L:
            raise ValueError("configuration length differs from L")
        if any(not 0 <= v < N for v in n):
            raise ValueError("entries must lie in [0, N-1]")
        total = 0
        left = []
        for v in n:
            left.append(total)
            total += v
        right = tuple(total - left[j] - n[j] for j in range(L))
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "left_sums", tuple(left))
        object.__setattr__(self, "right_sums", right)

    @property
    def total(self) -> int:
        return sum(self.n)

    @property
    def max_degree(self) -> int:
        """Degree of the weight generating function."""
        return (self.N - 1) * self.L - self.total


def gen_function_pair(config: EdgeConfig) -> tuple[tuple[CycNum, ...], tuple[CycNum, ...]]:
    """(definition, closed form) of the weight generating function for a
    configuration of total N, as CycNum coefficients with trailing zeros
    trimmed.  The definition multiplies the per-site binomial factors
    sum_d [n_j + d choose d] (omega^(left_sum_j) t)^d; the closed form
    expands

        (1 - t^N)^(L-1) / prod_j (1 - t omega^(left_sum_j))

    as a power series truncated at degree (N-1)L - N, the degree of the
    definition.  Both are built on integer vectors over omega and must
    agree coefficient by coefficient in Z[zeta]."""
    N, L = config.N, config.L
    if config.total != N:
        raise ValueError("closed form needs a configuration of total N")
    top = (N - 1) * L - N
    factors = _site_factors(N)
    definition = [[1] + [0] * (N - 1)]
    for n_j, phase in zip(config.n, config.left_sums):
        factor = factors[n_j][phase % N]
        product = [[0] * N for _ in range(min(len(definition) + len(factor) - 1, top + 1))]
        for i, vec in enumerate(definition):
            for d, f in enumerate(factor[: len(product) - i]):
                dst = product[i + d]
                for t, v in enumerate(cyclic_mul(vec, f) if d else vec):
                    dst[t] += v
        definition = product

    closed = [[0] * N for _ in range(top + 1)]
    for i in range(min(L - 1, top // N) + 1):
        closed[i * N][0] = (-1) ** i * math.comb(L - 1, i)
    for phase in config.left_sums:
        times_geometric(closed, phase)
    return trimmed(map(in_zeta, definition)), trimmed(map(in_zeta, closed))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _site_factors(N: int) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
    """factors[n][phase][d] = [n+d choose d] omega^(d phase) over omega: the
    site factor sum_d [n+d choose d] (omega^phase t)^d, zero once n + d >= N."""
    rows = binomial_rows(N)
    return tuple(tuple(tuple(rotate(rows[n + d][d], d * phase) for d in range(N - n))
                       for phase in range(N)) for n in range(N))


# ---------------------------------------------------------------------------
# the overlap table


@dataclass(frozen=True)
class GTable:
    """Symmetric integer table indexed by 0..dim-1, dim = (N-1)L - N + 1:
    entry(a, b) sums the degree-a dual coefficient times the degree-b
    coefficient over all configurations of total N."""

    N: int
    L: int
    entries: tuple[tuple[int, ...], ...]
    n_configs: int

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, a: int, b: int) -> int:
        if 0 <= a < self.dim and 0 <= b < self.dim:
            return self.entries[a][b]
        return 0


@functools.lru_cache(maxsize=CACHE_SIZE)
def calG_table(N: int, L: int) -> GTable:
    """Build the full overlap table once per (N, L), by a left-to-right
    site transfer over its definition.

    The states are (prefix total p, degree of gbar, degree of g), each
    holding an integer vector in Z[y]/(y^N - 1), y = omega.  A site with
    value n multiplies by gbar's factor sum_d [n+d choose d] omega^(d r) s^d,
    where r = N - p - n is its right sum once the total is N, and then by
    g's factor with phase p; the entries are the p = N states.  Checks
    integrality of every entry (each is a rational integer even though
    the summands are cyclotomic), the number of configurations the
    transfer reaches against `level_counts` and the symmetry of the table."""
    dim = (N - 1) * L - N + 1
    if dim < 1:
        raise ValueError("L is too small for total N")
    n_configs = level_counts(N, L)[N]
    if n_configs > ENUM_GUARD:
        raise SizeGuardError(
            "overlap table needs %d configurations (guard %d)" % (n_configs, ENUM_GUARD)
        )
    factor = _site_factors(N)
    states: dict[tuple[int, int, int], list[int]] = {(0, 0, 0): [1] + [0] * (N - 1)}
    paths = [1] + [0] * N  # prefixes of each total p
    for site in range(L):
        # the sites after this one must be able to fill the total up to N
        room = (N - 1) * (L - 1 - site)
        values = [range(max(0, N - p - room), min(N - 1, N - p) + 1) for p in range(N + 1)]
        # gbar's factor first, into states that remember n, then g's: one
        # vector product per factor term instead of one per pair of terms
        half: dict[tuple[int, int, int, int], list[int]] = {}
        for (p, a, b), vec in states.items():
            for n in values[p]:
                for d, f in enumerate(factor[n][(N - p - n) % N]):
                    add_term(half, (p, n, a + d, b), cyclic_mul(vec, f) if d else vec)
        states = {}
        for (p, n, a, b), vec in half.items():
            for d, f in enumerate(factor[n][p % N]):
                add_term(states, (p + n, a, b + d), cyclic_mul(vec, f) if d else vec)
        reached = [0] * (N + 1)
        for p, count in enumerate(paths):
            for n in values[p]:
                reached[p + n] += count
        paths = reached
    if paths[N] != n_configs:
        raise CountingInvariantError(
            "transfer reached %d configurations of total %d, counted %d"
            % (paths[N], N, n_configs)
        )
    acc = [[0] * dim for _ in range(dim)]
    for (p, a, b), vec in states.items():
        if p == N:
            acc[a][b] = in_zeta(vec).as_int()
    entries = tuple(map(tuple, acc))
    for a in range(dim):
        for b in range(a):
            if entries[a][b] != entries[b][a]:
                raise CountingInvariantError(
                    "overlap table is not symmetric at (%d, %d)" % (a, b)
                )
    return GTable(N=N, L=L, entries=entries, n_configs=n_configs)


# ---------------------------------------------------------------------------
# exchange sums (the polynomial kernels of the appendix identities)
#
# The order-n exchange kernel of a configuration pair (mu, lam) is the sum
# over {n_i >= 0, sum n_i = n} of
#     prod_i [mu_i choose n_i] [n_i + lam_i choose n_i]
#     omega^(n_i (mu_prefix_i - n_prefix_i + lam_suffix_i)),
# with prefix sums over the sites strictly before i and suffix sums over
# those strictly after.  The dual kernel of the appendix swaps the roles
# (lam and the n with suffix sums, mu with prefix sums); reversing the
# sites turns suffix sums into prefix sums, so the dual kernel of
# (lam, mu) is the kernel of (lam[::-1], mu[::-1]).


def _exchange_transfer(
    N: int, sites: list[tuple[tuple[int, ...], tuple[int, ...]]], n_top: int
) -> dict[tuple[int, int, int], tuple[int, ...]]:
    """{(M, T, n): the order-n exchange kernel summed over every pair with
    sum(mu) = M and sum(lam) = T} for all n <= n_top, where site i offers
    the values sites[i] = (mu_i values, lam_i values).

    Writing lam_suffix_i = T - lam_prefix_i - lam_i, site i contributes
    omega^(n_i (mu_prefix_i - n_prefix_i - lam_prefix_i - lam_i)) and the
    factor omega^(nT) leaves the sum, so a left-to-right transfer over
    the states (mu prefix, lam prefix, n prefix) yields every total pair.
    The states hold integer vectors in Z[y]/(y^N - 1), y = omega, where a
    phase is an index rotation."""
    binom = binomial_rows(N)
    factors = _site_factors(N)
    # [n_i + lam_i choose n_i] omega^(-n_i lam_i), zero once n_i + lam_i >= N
    lam_weight = [[factors[li][-li % N][ni] for li in range(N - ni)] for ni in range(N)]
    states: dict[tuple[int, int, int], list[int]] = {(0, 0, 0): [1] + [0] * (N - 1)}
    for mus, lams in sites:
        new: dict[tuple[int, int, int], list[int]] = {}
        ni_cap = min(max(mus), N - 1 - min(lams))
        for (mp, lp, np_), vec in states.items():
            for ni in range(min(ni_cap, n_top - np_) + 1):
                shifted = rotate(vec, ni * (mp - np_ - lp))
                for mi in mus:
                    if mi < ni:
                        continue
                    by_mu = cyclic_mul(shifted, binom[mi][ni]) if ni else shifted
                    for li in lams:
                        if li >= N - ni:
                            continue
                        term = cyclic_mul(by_mu, lam_weight[ni][li]) if ni else by_mu
                        add_term(new, (mp + mi, lp + li, np_ + ni), term)
        states = new
    return {(M, T, n): rotate(vec, n * T) for (M, T, n), vec in states.items()}


@functools.lru_cache(maxsize=CACHE_SIZE)
def _exchange_orders(N: int, L: int) -> tuple[dict[tuple[int, int], tuple[int, ...]], ...]:
    """orders[n][M, T]: the order-n exchange kernel summed over every pair
    with sum(mu) = M and sum(lam) = T, as a vector over omega, for every
    n <= N from one transfer whose sites offer all of [0, N)."""
    every = tuple(range(N))
    orders: tuple[dict, ...] = tuple({} for _ in range(N + 1))
    for (M, T, n), vec in _exchange_transfer(N, [(every, every)] * L, N).items():
        orders[n][M, T] = vec
    return orders


def _pair_kernels(mu: tuple[int, ...], lam: tuple[int, ...], N: int) -> list[tuple[int, ...]]:
    """The exchange kernel of one configuration pair at every order n in
    [0, sum(mu)], as vectors over omega, from one transfer whose sites
    offer the pair's values."""
    if len(lam) != len(mu):
        raise ValueError("mu and lam must have the same length")
    kernels = [(0,) * N] * (sum(mu) + 1)
    sites = [((m,), (l,)) for m, l in zip(mu, lam)]
    for (_, _, n), vec in _exchange_transfer(N, sites, sum(mu)).items():
        kernels[n] = vec
    return kernels


# ---------------------------------------------------------------------------
# check routines


def _level_table(N: int, L: int) -> list[tuple[int, ...]]:
    """Lambda^C_m as lam[C][m] for every charge C, zero-padded to twice the
    longest block, past the largest index l + 1 + j the table checks use."""
    blocks = [lambda_block(N, L, C) for C in range(N)]
    width = 2 * len(blocks[0])
    return [block + (0,) * (width - len(block)) for block in blocks]


def identity_check(N: int, L: int) -> dict:
    """Verify, for every row index lN + Q and column index jN + P with
    P >= Q, that the overlap table entry equals

        sum_{m=0}^{j} [ (l-m) Lam^Q_{l+1+j-m} Lam^P_m
                        + (j-m+1) Lam^Q_m Lam^P_{l+1+j-m} ]

    and that the table is symmetric (`calG_table` checks it, which
    settles P < Q).  Exact integer comparison throughout."""
    table = calG_table(N, L)
    lam = _level_table(N, L)
    checked = 0
    failures: list[dict] = []
    for a in range(table.dim):
        ell, Q = divmod(a, N)
        for b in range(table.dim):
            j, P = divmod(b, N)
            if P < Q:
                continue
            rhs = 0
            for m in range(j + 1):
                rhs += (ell - m) * lam[Q][ell + 1 + j - m] * lam[P][m]
                rhs += (j - m + 1) * lam[Q][m] * lam[P][ell + 1 + j - m]
            checked += 1
            if rhs != table.entry(a, b):
                failures.append(
                    {"row": a, "col": b, "table": table.entry(a, b), "identity": rhs}
                )
    return {
        "N": N,
        "L": L,
        "dim": table.dim,
        "n_configs": table.n_configs,
        "checked": checked,
        "symmetric": True,
        "failures": failures,
        "ok": not failures,
    }


def _recursion_term(N: int, L: int, Q: int, P: int, ell: int, j: int, k: int) -> tuple:
    """[N-P+Q choose Q-k] omega^(k^2 - kP) times the exchange kernel of
    order P - k summed over every configuration pair with totals
    (l+1)N + Q + P - k and jN + k (`_exchange_orders`), as a vector over
    omega; zero where no pair has those totals."""
    inner = _exchange_orders(N, L)[P - k].get(((ell + 1) * N + Q + P - k, j * N + k))
    if inner is None:
        return (0,) * N
    return rotate(cyclic_mul(inner, binomial_vector(N - P + Q, Q - k, N)), k * k - k * P)


def _correction_from_exchange(N: int, L: int, Q: int, P: int, ell: int, j: int) -> CycNum:
    """The correction term of the table recursion, evaluated from the
    exchange kernels: the sum of `_recursion_term` over P-N < k <= Q.  The
    q-binomial is nonzero for every k in [P-N, Q]; the term k = P-N, of
    exchange order N, is the recursion's shift entry and is not part of
    the correction."""
    terms = [_recursion_term(N, L, Q, P, ell, j, k) for k in range(P - N + 1, Q + 1)]
    return in_zeta([sum(column) for column in zip(*terms)])


def _correction_from_counts(lam, Q: int, P: int, ell: int, j: int) -> int:
    """The closed form of the same correction term, a plain integer:
    sum_{n=0}^{j} Lam^Q_n Lam^P_{l+1+j-n} - sum_{n=0}^{j-1} Lam^P_n Lam^Q_{l+1+j-n},
    with lam the table of `_level_table`."""
    first = sum(lam[Q][n] * lam[P][ell + 1 + j - n] for n in range(j + 1))
    second = sum(lam[P][n] * lam[Q][ell + 1 + j - n] for n in range(j))
    return first - second


def uqp_check(N: int, L: int) -> dict:
    """Verify four exact statements about the table recursion, for all
    P >= Q and all (l, j) in range:

      1. the exchange-kernel form of the correction term equals its
         closed form in level degeneracies (a rational integer);
      2. the recursion  entry(lN+Q, jN+P) = (l-j) Lam^Q_{l+1} Lam^P_j
         + entry((l+1)N+Q, (j-1)N+P) + correction  holds on the table;
      3. for P = Q the correction collapses to Lam^Q_{l+1} Lam^Q_j;
      4. the recursion term k = P-N, of exchange order N, is the shift
         entry  entry((l+1)N+Q, (j-1)N+P)."""
    table = calG_table(N, L)
    lam = _level_table(N, L)
    checked = 0
    failures: list[dict] = []
    for a in range(table.dim):
        ell, Q = divmod(a, N)
        for b in range(table.dim):
            j, P = divmod(b, N)
            if P < Q:
                continue
            kernel = _correction_from_exchange(N, L, Q, P, ell, j)
            closed = _correction_from_counts(lam, Q, P, ell, j)
            shifted = table.entry(a + N, b - N)
            recursion = (ell - j) * lam[Q][ell + 1] * lam[P][j] + shifted + closed
            checked += 1
            problems = {}
            if not kernel.is_rational_int() or kernel.as_int() != closed:
                problems["kernel_vs_closed"] = (repr(kernel), closed)
            if recursion != table.entry(a, b):
                problems["recursion"] = (recursion, table.entry(a, b))
            if P == Q and closed != lam[Q][ell + 1] * lam[Q][j]:
                problems["equal_charge_product"] = closed
            shift = in_zeta(_recursion_term(N, L, Q, P, ell, j, P - N))
            if not shift.is_rational_int() or shift.as_int() != shifted:
                problems["shift_entry"] = (repr(shift), shifted)
            if problems:
                failures.append({"row": a, "col": b, **problems})
    return {
        "N": N,
        "L": L,
        "dim": table.dim,
        "checked": checked,
        "failures": failures,
        "ok": not failures,
    }


def ibi_check(N: int, L: int, mu, lam) -> dict:
    """Verify the two-sided alternating-sum identity for one pair of
    configurations: with S_mu(t) and S_lam(t) the alternating exchange
    polynomials, and totals  sum(mu) = (l+1)N + Q,  sum(lam) = jN + P,

        S_mu(t) = (omega^(1/2+P) t; omega)_(N-P+Q) (1 + t^N)^(l-j) S_lam(t).

    A negative power of (1 + t^N) is handled by cross multiplication."""
    mu, lam = tuple(mu), tuple(lam)
    if len(mu) != L or len(lam) != L:
        raise ValueError("configurations must have length L")
    if any(not 0 <= v < N for v in mu + lam):
        raise ValueError("entries must lie in [0, N-1]")
    if sum(mu) < N:
        raise ValueError("sum(mu) must be at least N")
    ell, Q = divmod(sum(mu) - N, N)
    j, P = divmod(sum(lam), N)
    order = 2 * N
    count = N - P + Q
    power = ell - j
    size = max(sum(mu) + 1 + N * max(0, -power), sum(lam) + 1 + count + N * max(0, power))

    def alternating(mu, lam):
        # sum_n (-1)^n omega^(n^2/2) (exchange kernel)_n t^n over zeta,
        # with (-1)^n omega^(n^2/2) = zeta^(n^2 + nN)
        poly = [list(rotate(spread(vec), n * n + n * N)) for n, vec in
                enumerate(_pair_kernels(mu, lam, N))]
        return poly + [[0] * order for _ in range(size - len(poly))]

    lhs = alternating(mu, lam)
    # the dual kernel is the direct one on the reversed pair
    rhs = alternating(lam[::-1], mu[::-1])
    for i in range(count):
        # (omega^(1/2+P) t; omega)_count, omega^(1/2+P+i) = zeta^(1+2P+2i)
        times_binomial(rhs, 1, 1 + 2 * P + 2 * i, -1)
    for _ in range(abs(power)):
        times_binomial(rhs if power > 0 else lhs, N, 0, 1)
    lhs = trimmed(CycNum(order, vec) for vec in lhs)
    rhs = trimmed(CycNum(order, vec) for vec in rhs)
    equal = lhs == rhs
    return {
        "N": N,
        "L": L,
        "mu": list(mu),
        "lam": list(lam),
        "ell": ell,
        "Q": Q,
        "j": j,
        "P": P,
        "lhs_degree": len(lhs) - 1,
        "rhs_degree": len(rhs) - 1,
        "ok": equal,
    }


def appendix_suite(N: int, L: int, samples: int) -> dict:
    """The appendix identities at one size: the closed generating function
    of every configuration of total N, the table recursion (`uqp_check`)
    and the alternating-sum identity (`ibi_check`) on all (mu, lam) pairs,
    or on `samples` pairs drawn with SAMPLE_SEED past EXHAUSTIVE_PAIRS.
    Returns the count of each check and the failing tuples."""
    # every configuration, grouped by total and lexicographic within a total
    by_total: list[list[tuple[int, ...]]] = [[] for _ in range(N * L + 1)]
    for digits in itertools.product(range(N), repeat=L):
        by_total[sum(digits)].append(digits)
    failures: list[tuple] = []
    for digits in by_total[N]:
        definition, closed = gen_function_pair(EdgeConfig(N, L, digits))
        if definition != closed:
            failures.append(("genfun", digits))
    recursion = uqp_check(N, L)
    failures.extend(("recursion", f) for f in recursion["failures"])
    configs = [digits for group in by_total[: N * (L - 1) + 1] for digits in group]
    upper = configs[sum(map(len, by_total[:N])):]
    exhaustive = len(upper) * len(configs) <= EXHAUSTIVE_PAIRS
    if exhaustive:
        pairs = [(mu, lam) for mu in upper for lam in configs]
    else:
        rng = random.Random(SAMPLE_SEED)
        pairs = [(rng.choice(upper), rng.choice(configs)) for _ in range(samples)]
    for mu, lam in pairs:
        if not ibi_check(N, L, mu, lam)["ok"]:
            failures.append(("alternating_sum", mu, lam))
    return {
        "genfun_checked": len(by_total[N]),
        "recursion_checked": recursion["checked"],
        "alternating_sum_checked": len(pairs),
        "alternating_sum_exhaustive": exhaustive,
        "failures": failures,
        "ok": not failures,
    }

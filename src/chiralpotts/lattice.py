"""Brute-force lattice oracle: transfer matrices and spin chain at small L.

Everything here works in the edge basis: a row of L spins taken modulo a
global shift is encoded by the differences n_j of adjacent spins, giving
N^(L-1) states per charge sector.  Two routes share that basis.

The oracle route needs one vector per sector.  The chain Hamiltonian is
assembled as a sparse CSR block and its ground state g_Q is taken by
Lanczos iteration (ARPACK); the overlap product of sectors Q and P is
then |<g_Q|g_P>|^2.  Each ground state is certified against the two-row
transfer operator T_Q That_Q, applied matrix-free as L site-local
contractions on the spin basis: g must be an eigenvector of it (the
eigen-residual) and must be its dominant one.  The spin basis is the
direct sum of the N charge sectors and T That is block-diagonal in it,
so one Arnoldi run from a fixed random spin vector tests every sector
of a request at once: each sector is scaled by the inverse of its
ground state's eigenvalue, and the run has to land in the span of the
ground states.  This route is capped by memory, not by the dense
dimension cap.

Both routes pass between the spin basis and the charge sectors the same
way: one cached permutation puts the spin rows in (leading spin, edge
class) order (`_spin_grid`), and one N x N Fourier matrix over the
leading spin (`_fourier`) separates or recombines the sectors.

The correlation route needs the whole spectrum.  The dense layers of
the row transfer matrix T come from the same site-local ring
contraction as the certificate, applied to one unit vector per edge
class, and are Fourier-transformed over the leading spin into charge
blocks T_Q.  The second factor is That_Q = S_Q T_Q, S_Q the row
translation, so on row momentum m of an exact momentum basis the
product is exp(2 pi i m / L) times the square of the projected T_Q (L
blocks of about N^(L-1)/L states instead of one of N^(L-1)).  Each
block is solved in the eigenbasis of the Hermitian chain block that
commutes with it: one `eigh` of the chain block, then a general `eig`
with left and right vectors only on each cluster of (near-)degenerate
chain levels, after checking that the transfer block couples no two
clusters.  A single level is its own biorthonormal pair; a cluster's
left vectors are biorthonormalized by one small solve, and its levels
taken as biorthogonal Rayleigh quotients.  The lowest chain level is
the ground state that the dominant transfer vector must match, so this
route runs no Lanczos.  Each spectrum is kept in those blocks, and the
finite-separation pair correlation is a sum over them.

All arithmetic is float64/complex128; the observables compared against
the high-precision route carry comfortably more headroom than the 1e-8
agreement targets.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    CurveMismatchError,
    DegenerateMaxEigenvalueError,
    DomainError,
    EigenbasisMismatchError,
    IdentityViolationError,
    OrthogonalityViolationError,
    SizeGuardError,
)

# Dense blocks (transfer layers, biorthogonal spectra) stop at this
# sector dimension; the sparse oracle route is capped by SPARSE_BYTES_CAP.
EDGE_DIM_CAP = 4096
SPARSE_BYTES_CAP = 2**30
CURVE_TOL = 1e-12
SPIN_CHECK_DIM_CAP = 243
DEGENERACY_RTOL = 1e-9
# Chain levels closer than this fraction of the sector block's norm are
# solved as one cluster, and a transfer block may couple different
# clusters by at most TRANSFER_COUPLING_RTOL of its norm (derivation in
# `_solve_in_hamiltonian_basis`).
HAMILTONIAN_CLUSTER_RTOL = 1e-4
TRANSFER_COUPLING_RTOL = 1e-10
# Largest 1 - |cos| between the dominant transfer vector and the chain
# ground state, and largest relative eigen-residual of the ground state
# under the transfer operator.
EIGENBASIS_TOL = 1e-8
# Lanczos/Arnoldi basis size: ARPACK's default ncv for k <= 9.
KRYLOV_VECTORS = 20
# Seed of the fixed random start vector of every ARPACK run, so reports
# repeat byte for byte.
START_SEED = 20100304


# ---------------------------------------------------------------------------
# rapidity points on the spectral curve


@dataclass(frozen=True)
class RapidityPoint:
    """One point (x, y, mu) on the genus-(N-1) curve at modulus k'.

    The curve relations are k x^N = 1 - k'/mu^N and k y^N = 1 - k' mu^N
    with k = sqrt(1 - k'^2); they imply x^N + y^N = k (1 + x^N y^N).
    """

    N: int
    kp: float
    x: complex
    y: complex
    mu: complex

    @property
    def k(self) -> float:
        return _complement(self.kp)

    def curve_residual(self) -> float:
        """Largest absolute residual of the three curve relations."""
        xn = self.x**self.N
        yn = self.y**self.N
        mun = self.mu**self.N
        k = self.k
        return max(
            abs(k * xn - 1.0 + self.kp / mun),
            abs(k * yn - 1.0 + self.kp * mun),
            abs(xn + yn - k * (1.0 + xn * yn)),
        )


def _check_modulus(kp: float) -> float:
    kp = float(kp)
    if not 0.0 < kp < 1.0:
        raise ValueError(f"modulus k' must lie in (0, 1), got {kp}")
    return kp


def _complement(kp: float) -> float:
    """k = sqrt(1 - k'^2), factored to keep its precision as k' -> 1."""
    return float(np.sqrt((1.0 - kp) * (1.0 + kp)))


def superintegrable_point(N: int, kp: float) -> RapidityPoint:
    """Vertical rapidity with mu = 1 and x = y on the positive real branch."""
    kp = _check_modulus(kp)
    xp = ((1.0 - kp) / _complement(kp)) ** (1.0 / N)
    point = RapidityPoint(N=N, kp=kp, x=complex(xp), y=complex(xp), mu=1.0 + 0.0j)
    residual = point.curve_residual()
    if residual > 1e-15:
        raise CurveMismatchError(
            f"superintegrable point residual {residual:.3e} at N={N}, k'={kp}"
        )
    return point


def horizontal_point(N: int, kp: float, t: float) -> RapidityPoint:
    """Generic real rapidity with x^N = t k, parametrized by t in (0, 1).

    For every t the triple (x, y, mu) is real positive and satisfies the
    curve relations identically; t = (1-k')/k^2 recovers the
    superintegrable point.  Above that value (x_q > x_p) the weights are
    in the physical regime and the dominant two-row eigenvector is the
    chain ground state; below it the shared eigenbasis survives but the
    modulus ordering changes, so observables default to the physical side
    via `physical_point`.
    With g = 1 - t, 1 - k^2 t = g + t k'^2 keeps y^N and mu^N free of
    cancellation as t -> 1.
    """
    kp = _check_modulus(kp)
    if not 0.0 < t < 1.0:
        raise ValueError(f"branch parameter t must lie in (0, 1), got {t}")
    k, g = _complement(kp), 1.0 - t
    xn, yn, mun = t * k, k * g / (g + t * kp * kp), kp / (g + t * kp * kp)
    x, y, mu = (complex(z ** (1.0 / N)) for z in (xn, yn, mun))
    point = RapidityPoint(N=N, kp=kp, x=x, y=y, mu=mu)
    residual = point.curve_residual()
    if residual > 1e-14:
        raise CurveMismatchError(
            f"horizontal point residual {residual:.3e} at N={N}, k'={kp}, t={t}"
        )
    return point


def physical_point(N: int, kp: float, fraction: float = 0.5) -> RapidityPoint:
    """Horizontal rapidity a given fraction into the physical window.

    The window runs from the superintegrable value t = (1-k')/k^2
    (excluded) to t = 1 (excluded); any interior fraction gives a generic
    rapidity whose dominant sector eigenvectors are the chain ground
    states.  A k' so small that the window is empty in double precision
    raises DomainError.
    """
    kp = _check_modulus(kp)
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"window fraction must lie in (0, 1), got {fraction}")
    t_super = 1.0 / (1.0 + kp)
    t = t_super + fraction * (1.0 - t_super)
    if not t_super < t < 1.0:
        raise DomainError(
            f"physical window ({t_super!r}, 1) is empty in double precision at k'={kp}"
        )
    return horizontal_point(N, kp, t)


def boltzmann_weights(
    p: RapidityPoint, q: RapidityPoint
) -> tuple[np.ndarray, np.ndarray]:
    """Weight families W_pq(n) and Wbar_pq(n) for n in [0, N-1].

    Both are normalized to 1 at n = 0 and extended by the product formula
        W(n)    = (mu_p/mu_q)^n  prod_{j<=n} (y_q - w^j x_p)/(y_p - w^j x_q),
        Wbar(n) = (mu_p mu_q)^n  prod_{j<=n} (w x_p - w^j x_q)/(y_q - w^j y_p),
    with w = exp(2 pi i / N).  Periodicity over a full period is exact on
    the curve; its residual is checked and doubles as an off-curve guard.

    Raises:
        CurveMismatchError: moduli differ, or a full-period product strays
            from 1 beyond tolerance.
    """
    if p.N != q.N:
        raise CurveMismatchError(f"rank mismatch: N={p.N} vs N={q.N}")
    if abs(p.kp - q.kp) > CURVE_TOL:
        raise CurveMismatchError(f"modulus mismatch: k'={p.kp} vs k'={q.kp}")
    omega = np.exp(2j * np.pi / p.N)
    wj = [omega**n for n in range(1, p.N + 1)]
    w, ratio_w, bad_w = _weight_family(
        p.mu / q.mu, [q.y - x * p.x for x in wj], [p.y - x * q.x for x in wj], "weight"
    )
    wbar, ratio_wbar, bad_wbar = _weight_family(
        p.mu * q.mu, [omega * p.x - x * q.x for x in wj], [q.y - x * p.y for x in wj],
        "conjugate-weight",
    )
    if bad_w or bad_wbar:
        raise CurveMismatchError(
            "weight periodicity failed: "
            f"|W period - 1| = {abs(ratio_w - 1.0):.3e}, "
            f"|Wbar period - 1| = {abs(ratio_wbar - 1.0):.3e}"
        )
    return w, wbar


def _weight_family(scale, nums, dens, label: str) -> tuple[np.ndarray, complex, bool]:
    """Entries 0..N-1 of one weight family, entry n being entry n-1 times
    scale * nums[n-1] / dens[n-1]; the product over the full period; and
    whether that product strays from 1.  A vanishing numerator (q = p
    collapses the conjugate family to a delta) zeroes every later entry
    and leaves periodicity trivially true; with live entries a vanishing
    denominator is a genuine singularity."""
    values = np.zeros(len(nums), dtype=complex)
    values[0] = 1.0
    ratio = 1.0 + 0.0j
    for n, (num, den) in enumerate(zip(nums, dens), start=1):
        if abs(num) < 1e-13:
            return values, ratio, False
        if abs(den) < 1e-13:
            raise CurveMismatchError(
                f"singular {label} denominator at n={n} (coincident rapidities)"
            )
        ratio *= scale * num / den
        if n < len(nums):
            values[n] = ratio
    return values, ratio, abs(ratio - 1.0) > 1e-10


# ---------------------------------------------------------------------------
# edge-basis enumeration


def edge_dim(N: int, L: int) -> int:
    """Sector dimension N^(L-1), after the size guard."""
    dim = N ** (L - 1)
    if dim > EDGE_DIM_CAP:
        raise SizeGuardError(
            f"edge basis dimension {dim} exceeds cap {EDGE_DIM_CAP} (N={N}, L={L})"
        )
    return dim


def digit_rows(N: int, width: int) -> np.ndarray:
    """All N^width rows of `width` base-N digits, row i holding the digits
    of i least significant first: the encoding of spin rows and edge digits."""
    return (np.arange(N**width)[:, None] // N ** np.arange(width)) % N


def sparse_bytes(N: int, L: int) -> int:
    """Estimated peak bytes of the sparse oracle route at (N, L): the
    largest of its three phases, which do not overlap.

    With dim = N^(L-1) states and at most dim ((N-1)L + 1) Hamiltonian
    nonzeros: building the block peaks at about 160 bytes per nonzero
    (COO triplets, the CSR block and the copies of its adjoint check;
    154 measured at (2,16), (3,10) and (4,8)); Lanczos holds the CSR block
    (24 per nonzero) and the Krylov basis (16 (KRYLOV_VECTORS + 4) per
    state); the certificate runs Arnoldi over the spin space, so per spin
    row of N^L it holds a Krylov basis (16 (KRYLOV_VECTORS + 4)), the
    auxiliary-spin work tensor (32 N), the cached 8-byte permutation of
    `_spin_grid`, the lifted vector (16) and the charge mixing's two
    gathered copies (32), for which the estimate allows 24 L + 64 bytes;
    552, 575, 622 and 677 bytes per spin row measured (tracemalloc) at
    (2,12), (3,9), (4,7) and (5,5), against 800, 760, 744 and 728.  At
    small N^L, where fixed costs dominate, the margin vanishes: a whole
    oracle request at (4,5) peaked at 712.6 KB against 712.7 KB.  The
    cap binds only far above those sizes, so no request past it is
    admitted.  Python integers, so a request far past the cap is refused
    without allocating anything.
    """
    dim = N ** (L - 1)
    nonzeros = dim * ((N - 1) * L + 1)
    krylov = 16 * (KRYLOV_VECTORS + 4)
    return max(
        160 * nonzeros,
        24 * nonzeros + krylov * dim,
        N**L * (krylov + 24 * L + 64 + 32 * N),
    )


def _check_sparse_bytes(N: int, L: int) -> None:
    need = sparse_bytes(N, L)
    if need > SPARSE_BYTES_CAP:
        raise SizeGuardError(
            f"sparse oracle at N={N}, L={L} needs about {need} bytes, "
            f"over the cap of {SPARSE_BYTES_CAP}"
        )


def edge_configs(N: int, L: int) -> np.ndarray:
    """All edge configurations as a (N^(L-1), L) int array.

    Row index i encodes the first L-1 digits of i base N (least significant
    digit first); the last entry closes the ring so the digits sum to 0
    modulo N.  Callers apply their own size guard.
    """
    dim = N ** (L - 1)
    configs = np.empty((dim, L), dtype=np.int64)
    configs[:, : L - 1] = digit_rows(N, L - 1)
    configs[:, L - 1] = (-configs[:, : L - 1].sum(axis=1)) % N
    return configs


def edge_index(N: int, config: np.ndarray) -> int | np.ndarray:
    """Flat index of one configuration (inverse of `edge_configs` rows), or
    the indices of a stack of configurations along the last axis."""
    config = np.asarray(config)
    L = config.shape[-1]
    flat = (config[..., : L - 1] % N) @ N ** np.arange(L - 1)
    return int(flat) if np.ndim(flat) == 0 else flat


@functools.lru_cache(maxsize=1)
def _spin_grid(N: int, L: int) -> np.ndarray:
    """The spin rows of `digit_rows(N, L)` in (leading spin, edge class)
    order: entry m N^(L-1) + i is the row with sigma_1 = m whose edges
    sigma_j - sigma_(j+1) have the flat index i of `edge_index`.  So
    u[grid].reshape(N, N^(L-1)) splits a spin vector by leading spin,
    and its first N^(L-1) entries are the sigma_1 = 0 rows, one per edge
    class.  Read-only, kept for the latest (N, L)."""
    lead, edges = np.divmod(np.arange(N**L), N ** (L - 1))
    spins, grid = lead, lead.copy()
    for j in range(1, L):
        edges, edge = np.divmod(edges, N)
        spins = (spins - edge) % N
        grid += spins * N**j
    grid.flags.writeable = False
    return grid


def _fourier(N: int) -> np.ndarray:
    """F[Q, m] = omega^(Q m) with omega = exp(2 pi i / N); the exponent is
    reduced mod N, so row -Q mod N holds the phases omega^(-Q m)."""
    return np.exp(2j * np.pi / N) ** (np.outer(np.arange(N), np.arange(N)) % N)


def _translation(N: int, L: int, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """The charge-Q row translation S_Q as a gather: (S_Q v)[e] =
    phase[e] v[rows[e]], with rows[e] the flat index of roll(e) =
    (e_2, ..., e_L, e_1), the edges of the spin row translated by one
    site, and phase[e] = omega^(Q e_1)."""
    configs = edge_configs(N, L)
    rows = np.asarray(edge_index(N, np.roll(configs, -1, axis=1)))
    return rows, np.exp(2j * np.pi / N) ** ((Q * configs[:, 0]) % N)


# ---------------------------------------------------------------------------
# transfer matrices


@dataclass(frozen=True, eq=False)
class SectorMatrix:
    """Charge-sector block of a row operator in the edge basis.

    `op` is the block as built: a dense array for the transfer matrices,
    a scipy CSR array for the chain Hamiltonian.  `mat` is the dense
    block, converted from CSR on each access under the dense cap.
    """

    N: int
    L: int
    Q: int
    kp: float
    op: object = field(repr=False)

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    @property
    def mat(self) -> np.ndarray:
        if isinstance(self.op, np.ndarray):
            return self.op
        edge_dim(self.N, self.L)
        return self.op.toarray()


def _site_kernel(q: RapidityPoint) -> np.ndarray:
    """kernel[t, b, c] = W(b - t) Wbar(c - t), the one-site factor of T
    (upper spin t over lower spins b and c), with the weights between the
    rank-N superintegrable point and q."""
    N = q.N
    w, wbar = boltzmann_weights(superintegrable_point(N, q.kp), q)
    s = np.arange(N)
    return w[(s[None, :, None] - s[:, None, None]) % N] * wbar[
        (s[None, None, :] - s[:, None, None]) % N
    ]


@functools.lru_cache(maxsize=1)
def _transfer_blocks(q: RapidityPoint, L: int) -> np.ndarray:
    """Charge blocks T_Q of the row transfer matrix, stacked over Q.

    Block Q is the sum over m with phase omega^(-mQ) of the layers T(m),
    whose entry [i, j] is the spin-basis element of T from a ket row of
    edge class j and leading spin m to a bra row of edge class i and
    leading spin 0.  The ring of `_ring_apply` maps the unit vector of
    the sigma_1 = 0 row of class j to column j of T; by shift invariance
    its row of class i and leading spin m' = -m is entry [m, i, j], so
    block Q sums the rows of leading spin m' with phase omega^(Q m'): one
    gather by `_spin_grid` and one product with `_fourier` per batch.
    Columns go N^(L-4) at a time, and at least N, so the ring's work
    tensor (N^(L+1) numbers per column) stays within one layer from L = 4
    on.  The read-only blocks of the latest rapidity and width are kept
    and shared by its sectors.  For spin dimensions up to
    SPIN_CHECK_DIM_CAP the identity (T That)_Q = T_Q S_Q T_Q
    (`build_sector_transfer`) is verified in every sector against one
    spin-basis product (CurveMismatchError otherwise); larger builds rely
    on the same check at small sizes.
    """
    N = q.N
    dim = edge_dim(N, L)
    kernel = _site_kernel(q)
    grid = _spin_grid(N, L)
    fourier = _fourier(N)
    blocks = np.empty((N, dim, dim), dtype=complex)
    batch = N ** max(L - 4, 1)
    for start in range(0, dim, batch):
        cols = slice(start, start + batch)
        kets = grid[:dim][cols]
        units = np.zeros((N**L, len(kets)), dtype=complex)
        units[kets, np.arange(len(kets))] = 1.0
        image = _ring_apply(kernel, units, N, L)[grid].reshape(N, dim, -1)
        blocks[:, :, cols] = np.tensordot(fourier, image, axes=1)
    if N**L <= SPIN_CHECK_DIM_CAP:
        t_spin, t_hat_spin = spin_transfer(q, L)
        # bra rows of leading spin 0 against ket rows by (leading spin, class)
        product = (t_spin @ t_hat_spin)[grid[:dim]][:, grid].reshape(dim, N, dim)
        for Q in range(N):
            target = np.tensordot(product, fourier[-Q % N], axes=([1], [0]))
            rows, phase = _translation(N, L, Q)
            got = blocks[Q] @ (phase[:, None] * blocks[Q][rows])
            residual = np.max(np.abs(got - target)) / max(1.0, np.max(np.abs(target)))
            if residual > 1e-12:
                raise CurveMismatchError(
                    f"sector product check failed: residual {residual:.3e} "
                    f"at N={N}, L={L}, Q={Q}"
                )
    blocks.flags.writeable = False
    return blocks


def spin_transfer(q: RapidityPoint, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Full spin-basis transfer matrices T and That, each N^L by N^L.

    Row/column indices run over spin rows encoded by `digit_rows` (site 1
    least significant).  Intended for small-size cross-checks; the
    production route is the sector construction.
    """
    N = q.N
    if N**L > 2187:
        raise SizeGuardError(f"spin basis dimension {N**L} too large for checks")
    p = superintegrable_point(N, q.kp)
    w, wbar = boltzmann_weights(p, q)
    spins = digit_rows(N, L)
    t = np.empty((N**L, N**L), dtype=complex)
    t_hat = np.empty((N**L, N**L), dtype=complex)
    for row in range(N**L):
        sig_bra = spins[row]
        diff = (spins - sig_bra) % N
        diff_up = (np.roll(spins, -1, axis=1) - sig_bra) % N
        t[row, :] = (w[diff] * wbar[diff_up]).prod(axis=1)
        # bra row of That is the lower spin row sigma''.
        diff_right = (spins - np.roll(sig_bra, -1)) % N
        t_hat[row, :] = (wbar[diff] * w[diff_right]).prod(axis=1)
    return t, t_hat


def build_sector_transfer(
    q: RapidityPoint, L: int, Q: int
) -> tuple[SectorMatrix, SectorMatrix]:
    """Charge-Q blocks (T_Q, That_Q) of the two row transfer matrices at q.

    T_Q is a read-only view of the checked blocks of `_transfer_blocks`;
    That_Q = S_Q T_Q is one translation gather of it (`_translation`):
    the That row prod_j Wbar(s_j - s''_j) W(s_j - s''_(j+1)) of
    `spin_transfer` is the T row of the translated bra row.

    Raises:
        SizeGuardError: N^(L-1) above the cap.
        CurveMismatchError: the sector product check failed.
    """
    if not 0 <= Q < q.N:
        raise ValueError(f"sector index Q={Q} outside [0, {q.N})")
    t = _transfer_blocks(q, L)[Q]
    rows, phase = _translation(q.N, L, Q)
    t_hat = t[rows]
    t_hat *= phase[:, None]
    return tuple(SectorMatrix(N=q.N, L=L, Q=Q, kp=q.kp, op=op) for op in (t, t_hat))


# ---------------------------------------------------------------------------
# spin chain Hamiltonian


def build_hamiltonian(N: int, L: int, Q: int, kp: float) -> SectorMatrix:
    """Charge-Q block of the Z_N clock chain sharing the transfer eigenbasis.

    The chain is
        H = - sum_j sum_n [ k' 2/(1 - w^n) X_j^n + 2/(1 - w^(-n)) Z_j^n Z_{j+1}^(-n) ],
    periodic, w = exp(2 pi i / N), with X the unit spin raise and Z the
    clock phase.  This is the unique weighting of the two term families
    that commutes with the transfer matrices built at the same modulus
    (measured to machine precision; the variant with k' moved onto the
    clock term, or with the shift coefficients conjugated, does not).  In
    the edge basis the clock term is diagonal and the shift at site 1
    wraps around the ring with the sector phase omega^(Qn).  The block is
    a scipy CSR array with at most (N-1)L + 1 entries per column.

    Raises:
        SizeGuardError: the sparse route's estimated bytes above the cap.
        IdentityViolationError: the block differs from its adjoint.
    """
    import scipy.sparse

    kp = _check_modulus(kp)
    if not 0 <= Q < N:
        raise ValueError(f"sector index Q={Q} outside [0, {N})")
    _check_sparse_bytes(N, L)
    configs = edge_configs(N, L)
    dim = configs.shape[0]
    omega = np.exp(2j * np.pi / N)
    coeff_clock = np.array(
        [0.0] + [2.0 / (1.0 - omega**-n) for n in range(1, N)], dtype=complex
    )
    coeff_shift = np.array(
        [0.0] + [2.0 / (1.0 - omega**n) for n in range(1, N)], dtype=complex
    )
    # clock-clock part: diagonal in the edge digits
    clock = np.zeros(N, dtype=complex)
    for residue in range(N):
        clock[residue] = sum(
            coeff_clock[n] * omega ** (n * residue) for n in range(1, N)
        )
    diagonal = -clock[configs].sum(axis=1)
    # spin-shift part: moves n units of charge from edge j-1 to edge j.
    # Repeated targets within a column are summed by the CSR conversion.
    steps = [(n, j) for n in range(1, N) for j in range(L)]
    targets = np.empty((dim, len(steps)), dtype=np.int64)
    values = np.empty(len(steps), dtype=complex)
    for k, (n, j) in enumerate(steps):
        moved = configs.copy()
        moved[:, j] = (moved[:, j] + n) % N
        moved[:, (j - 1) % L] = (moved[:, (j - 1) % L] - n) % N
        targets[:, k] = edge_index(N, moved)
        phase = omega ** ((Q * n) % N) if j == 0 else 1.0
        values[k] = -kp * coeff_shift[n] * phase
    # free the enumeration before the COO triplets are built
    del configs, moved
    columns = np.arange(dim)
    ham = scipy.sparse.coo_array(
        (
            np.concatenate([diagonal, np.tile(values, dim)]),
            (
                np.concatenate([columns, targets.ravel()]),
                np.concatenate([columns, np.repeat(columns, len(steps))]),
            ),
        ),
        shape=(dim, dim),
    ).tocsr()
    hermiticity = abs(ham - ham.conj().T).max()
    if not hermiticity <= 1e-12 * max(1.0, abs(ham).max()):
        raise IdentityViolationError(
            f"Hamiltonian block deviates from its adjoint by {hermiticity:.3e} "
            f"in sector Q={Q} (N={N}, L={L})"
        )
    return SectorMatrix(N=N, L=L, Q=Q, kp=kp, op=ham)


def _start_vector(dim: int) -> np.ndarray:
    """The fixed random complex start vector of every ARPACK run."""
    rng = np.random.default_rng(START_SEED)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


@dataclass(frozen=True, eq=False)
class GroundState:
    """Normalised ground state of one charge block of the chain.

    Q is the Fourier block label, as for `build_hamiltonian`.
    """

    N: int
    L: int
    Q: int
    kp: float
    vector: np.ndarray = field(repr=False)


def ground_state(N: int, L: int, Q: int, kp: float) -> GroundState:
    """Lowest eigenvector of the sparse chain block by ARPACK Lanczos
    (`eigsh`, smallest algebraic eigenvalue, tol 1e-14), started from a
    fixed random vector.  Blocks too small for ARPACK (k >= dim - 1 for a
    complex block) are solved densely.

    Raises:
        SizeGuardError: the sparse route's estimated bytes above the cap.
        DegenerateMaxEigenvalueError: ARPACK did not converge.
    """
    import scipy.sparse.linalg

    ham = build_hamiltonian(N, L, Q, kp)
    dim = ham.dim
    if dim <= 2:
        _, states = scipy.linalg.eigh(ham.op.toarray())
    else:
        try:
            _, states = scipy.sparse.linalg.eigsh(
                ham.op, k=1, which="SA", tol=1e-14,
                ncv=min(dim, KRYLOV_VECTORS), v0=_start_vector(dim),
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise DegenerateMaxEigenvalueError(
                f"Lanczos did not converge on the chain block Q={Q} "
                f"(N={N}, L={L})"
            ) from exc
    vector = states[:, 0]
    return GroundState(
        N=N, L=L, Q=Q, kp=ham.kp, vector=vector / np.linalg.norm(vector)
    )


# ---------------------------------------------------------------------------
# matrix-free transfer certificate


def _ring_apply(kernel: np.ndarray, u: np.ndarray, N: int, L: int) -> np.ndarray:
    """out[tau] = sum_sigma prod_j kernel[tau_j, sigma_j, sigma_(j+1)] u[sigma]
    over spin rows in `digit_rows` order, with sigma_(L+1) = sigma_1.  Any
    trailing axes of u are a batch: each column is contracted on its own.

    The sites are contracted one at a time, sigma_j -> tau_j, keeping
    sigma_(j+1) for the next step.  The ring is closed by keeping sigma_1
    as an auxiliary batch axis until the last site needs it, so every
    step works on N^(L+1) numbers per column.  The work tensor holds,
    slowest first, the auxiliary spin, the two spins of the next step, the
    finished taus (latest first), the untouched spins and the batch; each
    step is one batched matrix product followed by moving the next spin up
    front.
    """
    if L == 1:
        return np.einsum("tss,s...->t...", kernel, u)
    # axis k holds sigma_(k+1), the last the flattened batch
    sites = u.reshape(N**L, -1).reshape((N,) * L + (-1,), order="F")
    first = kernel.transpose(1, 2, 0)  # [a, n, t] = kernel[t, a, n]
    if L == 2:
        y = first[..., None] * sites[:, :, None, :]
    else:
        order = (0, 2, 1) + tuple(range(3, L + 1))
        y = first[:, None, :, :, None] * sites.transpose(order).reshape(N, N, N, 1, -1)
    step = kernel.transpose(2, 0, 1)  # [n, t, s] = kernel[t, s, n]
    for j in range(2, L):
        y = np.matmul(step, y.reshape(N, N, N, -1))
        if j < L - 1:
            y = y.reshape(N, N, N**j, N, -1).transpose(0, 3, 1, 2, 4)
    last = kernel.transpose(0, 2, 1).reshape(N, N * N)  # [t, (a, s)]
    return (last @ y.reshape(N * N, -1)).reshape(u.shape)


def _ring_pair(kernel: np.ndarray, u: np.ndarray, N: int, L: int) -> np.ndarray:
    """T That u for one spin-basis vector u.

    The spin-basis matrices of `spin_transfer` factor over the sites:
    T[s', s] = prod_j W(s_j - s'_j) Wbar(s_(j+1) - s'_j) is the ring of
    `_ring_apply` with the kernel of `_site_kernel`, and That is the same
    ring followed by a one-site translation of the output row (its bra
    spin s''_(j+1) takes the factors of tau_j).  Both commute with the
    global spin shift, so each charge sector is mapped into itself.
    """
    shifted = _ring_apply(kernel, u, N, L).reshape(N, -1).T.ravel()
    return _ring_apply(kernel, shifted, N, L)


def sector_product_operator(
    q: RapidityPoint, L: int, Q: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free charge-Q block of T That: v -> T_Q That_Q v.

    A sector vector is lifted to the spin basis with phases
    omega^(-Q sigma_1) by `_spin_grid`, `_ring_pair` applies both
    operators there, and the rows with sigma_1 = 0, one per edge class,
    are read back, as in the sector check of `_transfer_blocks`.

    Raises:
        SizeGuardError: the sparse route's estimated bytes above the cap.
        CurveMismatchError: q is not a valid rapidity at its modulus.
    """
    N = q.N
    if not 0 <= Q < N:
        raise ValueError(f"sector index Q={Q} outside [0, {N})")
    _check_sparse_bytes(N, L)
    kernel = _site_kernel(q)
    grid = _spin_grid(N, L)
    phase = _fourier(N)[-Q % N, :, None]
    dim = N ** (L - 1)

    def apply(v: np.ndarray) -> np.ndarray:
        lifted = np.empty(N**L, dtype=complex)
        # v times phase, in this order: under FMA the reverse order moves
        # the eigen-residuals in their last digit
        lifted[grid] = (np.asarray(v).ravel() * phase).ravel()
        return _ring_pair(kernel, lifted, N, L)[grid[:dim]]

    return apply


@dataclass(frozen=True)
class TransferCertificate:
    """How closely a chain ground state g passed the transfer test.

    eigen_residual is |T That g - lam g| / |lam g| with lam = <g, T That g>;
    dominance is 1 - |cos| between g and the charge component of its
    sector in the dominant vector that Arnoldi reached from a random
    start (see `certify_ground_states`).
    """

    eigen_residual: float
    dominance: float


def _dominance(lead: np.ndarray, ground: np.ndarray, where: str) -> float:
    """1 - |cos| between a dominant transfer vector and the normalised chain
    ground state; EigenbasisMismatchError above EIGENBASIS_TOL, also for
    a zero or NaN vector."""
    norm = np.linalg.norm(lead)
    cosine = abs(np.vdot(lead, ground)) / norm if norm else 0.0
    dominance = float(1.0 - cosine)
    if not dominance <= EIGENBASIS_TOL:
        raise EigenbasisMismatchError(
            f"dominant transfer eigenvector deviates from the chain "
            f"ground state by 1 - |cos| = {dominance:.3e} {where}"
        )
    # rounding can put |cos| a few ulps above 1
    return max(0.0, dominance)


def certify_ground_states(states, q: RapidityPoint) -> list[TransferCertificate]:
    """Check that each g_Q is the dominant eigenvector of T_Q That_Q at
    rapidity q, all sectors in one Arnoldi run; certificates in the order
    of `states`, whose sectors must be distinct.

    First each g_Q must be an eigenvector: lam_Q = <g_Q, T_Q That_Q g_Q>
    and the eigen-residual come from `sector_product_operator`.  The
    residual alone does not suffice: off the physical window g is still
    an eigenvector of the transfer product, just not its dominant one.

    Dominance is tested on the spin space, the direct sum of the N charge
    sectors, where T That is block-diagonal (`_ring_pair`).  The operator
    M is T That followed by a charge mixing that scales the charge-Q
    component by 1/lam_Q for each named Q and drops the unnamed ones:
    the spin rows are gathered by (leading spin, edge class) with
    `_spin_grid`, mixed by one N x N matrix (lift diag(c) split, split
    being `_fourier` / N), and scattered back.  Every g_Q is dominant in
    its sector exactly when the dominant eigenvalue of M is 1 with its
    eigenvectors in the span of the lifted g_Q.  So ARPACK's Arnoldi
    iteration (`eigs`, largest modulus) runs once from a fixed random
    spin vector, never from the g_Q, whose span is invariant and would
    be returned untested, and each named charge component of the vector
    it returns must be parallel to g_Q (`_dominance`).  The sectors are
    checked by decreasing share of that vector, so a failure names the
    sector that holds most of it: an excited g_Q pulls the whole vector
    into sector Q and leaves the other components empty.

    ARPACK stops once a Ritz residual is at most tol |theta|.  At tol = 0
    it would stall on the cluster of N scaled copies of 1, which agree
    only to about 1e-14 since the Rayleigh quotients are only that
    accurate.  tol = DEGENERACY_RTOL EIGENBASIS_TOL^(1/2) = 1e-13 moves
    1 - |cos| of a sector component by at most about (tol / gamma)^2 / 2
    <= 5e-9, below EIGENBASIS_TOL, wherever the relative gap gamma to the
    sector's next level is at least DEGENERACY_RTOL; below that gap the
    dense route already refuses.  Below ARPACK's minimum dimension (k >=
    N^L - 1) M is applied to the identity and solved densely.

    Raises:
        ValueError: states of another rank or width than the first, a
            sector outside [0, N), or two states of one sector.
        EigenbasisMismatchError: residual or 1 - |cos| above EIGENBASIS_TOL.
        DegenerateMaxEigenvalueError: Arnoldi did not converge.
    """
    import scipy.sparse.linalg

    states = list(states)
    if not states:
        return []
    N, L = q.N, states[0].L
    sectors = [state.Q for state in states]
    if len(set(sectors)) < len(sectors) or any(
        (state.N, state.L) != (N, L) or not 0 <= state.Q < N for state in states
    ):
        raise ValueError(f"need one state per sector at N={N}, L={L}, got {sectors}")
    _check_sparse_bytes(N, L)
    residuals, scale = [], np.zeros(N, dtype=complex)
    for state in states:
        ground = state.vector
        image = sector_product_operator(q, L, state.Q)(ground)
        eigenvalue = complex(np.vdot(ground, image))
        residual = float(np.linalg.norm(image - eigenvalue * ground) / abs(eigenvalue))
        if not residual <= EIGENBASIS_TOL:
            raise EigenbasisMismatchError(
                f"chain ground state is no transfer eigenvector: relative "
                f"residual {residual:.3e} in sector Q={state.Q} (N={N}, L={L})"
            )
        residuals.append(residual)
        scale[state.Q] = 1.0 / eigenvalue
    kernel = _site_kernel(q)
    grid = _spin_grid(N, L)
    split = _fourier(N) / N
    mixing = N * split.conj().T @ (scale[:, None] * split)

    def apply(u: np.ndarray) -> np.ndarray:
        image = _ring_pair(kernel, np.asarray(u).ravel(), N, L)
        image[grid] = (mixing @ image[grid].reshape(N, -1)).ravel()
        return image

    where = f"(N={N}, L={L})"
    size = N**L
    if size <= 2:
        dense = np.column_stack([apply(column) for column in np.eye(size)])
        values, vectors = scipy.linalg.eig(dense)
        top = vectors[:, np.argmax(np.abs(values))]
    else:
        operator = scipy.sparse.linalg.LinearOperator(
            (size, size), matvec=apply, dtype=complex
        )
        try:
            _, vectors = scipy.sparse.linalg.eigs(
                operator, k=1, which="LM", tol=DEGENERACY_RTOL * EIGENBASIS_TOL**0.5,
                ncv=min(size, KRYLOV_VECTORS), v0=_start_vector(size),
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise DegenerateMaxEigenvalueError(
                f"Arnoldi found no isolated dominant transfer eigenvalue over "
                f"sectors {sectors} {where}"
            ) from exc
        top = vectors[:, 0]
    components = split @ top[grid].reshape(N, -1)
    dominance = {}
    for state in sorted(states, key=lambda state: -np.linalg.norm(components[state.Q])):
        dominance[state.Q] = _dominance(
            components[state.Q], state.vector, f"in sector Q={state.Q} {where}"
        )
    return [
        TransferCertificate(eigen_residual=residual, dominance=dominance[state.Q])
        for state, residual in zip(states, residuals)
    ]


# ---------------------------------------------------------------------------
# dense biorthogonal spectra


@dataclass(frozen=True, eq=False)
class SectorSpectrum:
    """Biorthonormal eigensystem of one sector operator X, kept in the
    blocks of a sparse unitary U that it was solved in.

    Block b spans the columns of U from starts[b] on; right[b][:, i] and
    left[b][i] are paired eigenvectors of U_b^H X U_b, left[b] @ right[b]
    = identity, whose edge-basis forms U_b right[b][:, i] and left[b][i]
    U_b^H are lifted for the dominant pair only.  eigenvalues are sorted
    by modulus descending, eigenvalues[j] being the level of column
    order[j].  biorth_residual is the largest entry of |left[b] @ right[b]
    - identity|; across blocks the product vanishes as U is unitary.
    """

    N: int
    L: int
    Q: int
    kp: float
    eigenvalues: np.ndarray = field(repr=False)
    basis: object = field(repr=False)
    starts: np.ndarray = field(repr=False)
    right: tuple = field(repr=False)
    left: tuple = field(repr=False)
    order: np.ndarray = field(repr=False)
    biorth_residual: float

    def dominant(self) -> tuple[np.ndarray, np.ndarray]:
        """The lifted dominant pair: right column r_0 and left row l_0."""
        column = self.order[0]
        b = np.searchsorted(self.starts, column, side="right") - 1
        i = column - self.starts[b]
        u = self.basis[:, self.starts[b]:self.starts[b] + len(self.right[b])]
        return u @ self.right[b][:, i], u.conj() @ self.left[b][i]

    def overlaps(self, left: np.ndarray, right: np.ndarray) -> tuple:
        """left . r_j and l_j . right for every level j in eigenvalue order,
        as (left U)_b right[b] and left[b] (U^H right)_b."""
        row = self.basis.T @ left
        column = self.basis.conj().T @ right
        blocks = list(zip(self.starts, self.right, self.left))
        forward = np.concatenate([row[s:s + len(vr)] @ vr for s, vr, _ in blocks])
        backward = np.concatenate([vl @ column[s:s + len(vl)] for s, _, vl in blocks])
        return forward[self.order], backward[self.order]


def _check_translation_invariance(block: SectorMatrix) -> None:
    """Raise IdentityViolationError unless the block X commutes with the
    row translation S_Q of `_translation` to 1e-12 of its largest entry.
    S_Q is a permutation with unit phases, so S_Q X S_Q^H - X =
    (S_Q X - X S_Q) S_Q^H has the same entries up to order and phase, and
    S_Q X S_Q^H is one index gather of X, taken in row blocks of at most
    2^18 entries (4 MiB) so that no dense copy of X is made."""
    N, L, Q = block.N, block.L, block.Q
    rows, phase = _translation(N, L, Q)
    mat = block.mat

    def deviation(part: slice) -> float:
        gathered = mat[np.ix_(rows[part], rows)]
        gathered *= phase[part, None]
        gathered *= phase.conj()
        gathered -= mat[part]
        return np.max(np.abs(gathered))

    step = max(1, 2**18 // len(mat))
    parts = [slice(start, start + step) for start in range(0, len(mat), step)]
    # np.max of the block maxima keeps a NaN, so that the check fails
    worst = np.max([deviation(part) for part in parts])
    largest = np.max([np.max(np.abs(mat[part])) for part in parts])
    if not worst <= 1e-12 * largest:
        raise IdentityViolationError(
            f"sector block breaks translation invariance by {worst:.3e} "
            f"in sector Q={Q} (N={N}, L={L})"
        )


def _momentum_basis(N: int, L: int, Q: int) -> tuple[object, np.ndarray]:
    """Unitary eigenbasis U of the charge-Q row translation S_Q (see
    `_translation`), as a sparse CSC array with its columns sorted by row
    momentum, and the L + 1 column offsets of the momentum blocks:
    S_Q U[:, offsets[m]:offsets[m+1]] is that block times exp(2 pi i m / L).

    An orbit of e under roll, of period d and one-period edge sum s,
    carries momentum m iff m d N = Q s L (mod N L); that vector has entry
    exp(2 pi i ((m k N - Q (e_1 + ... + e_k) L) mod N L) / (N L)) / sqrt(d)
    at roll^k(e), e being the orbit's least flat index.  The integer
    exponents keep U unitary to rounding.
    """
    import scipy.sparse

    configs = edge_configs(N, L)
    target, _ = _translation(N, L, Q)
    dim = len(configs)
    states = np.arange(dim)
    # rolled[k] is roll^k(e) and partial[k] is e_1 + ... + e_k
    rolled = np.empty((L + 1, dim), dtype=np.int64)
    partial = np.zeros((L + 1, dim), dtype=np.int64)
    rolled[0] = states
    for k in range(L):
        rolled[k + 1] = target[rolled[k]]
        partial[k + 1] = partial[k] + configs[rolled[k], 0]
    period = L // np.count_nonzero(rolled[:L] == states, axis=0)
    to_rep = np.argmin(rolled[:L], axis=0)
    # e = roll^position(rep) for the representative rep = roll^to_rep(e)
    position = (period - to_rep) % period
    prefix = partial[to_rep + position, states] - partial[to_rep, states]
    total = partial[period, states]
    allowed = (np.arange(L) * period[:, None] * N - Q * total[:, None] * L) % (N * L) == 0
    rows, momentum = np.nonzero(allowed)
    keys = momentum * dim + rolled[to_rep, states][rows]
    columns = np.unique(keys)
    exponent = (momentum * position[rows] * N - Q * prefix[rows] * L) % (N * L)
    basis = scipy.sparse.csc_array(
        (
            np.exp(2j * np.pi * exponent / (N * L)) / np.sqrt(period[rows]),
            (rows, np.searchsorted(columns, keys)),
        ),
        shape=(dim, dim),
    )
    return basis, np.searchsorted(columns // dim, np.arange(L + 1))


def _by_modulus(values: np.ndarray) -> np.ndarray:
    """Order of eigenvalues by modulus descending, then by angle."""
    return np.lexsort((np.angle(values), -np.abs(values)))


def _solve_in_hamiltonian_basis(
    transfer: np.ndarray, hamiltonian: np.ndarray, norm: float, where: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]:
    """Eigensystem of one momentum block B of T_Q, solved in the
    eigenbasis of the Hermitian block H of the chain Hamiltonian, which
    commutes with it: mu, the right eigenvectors as columns and the
    biorthonormal left eigenvectors as rows (B right = right diag(mu),
    left B = diag(mu) left, left right = identity), and the lowest level
    of H with its eigenvector.

    With H = V diag(E) V^H from `eigh`, C = V^H B V obeys C_ij (E_j -
    E_i) = 0, so B couples only levels of equal E.  Sorted levels less
    than HAMILTONIAN_CLUSTER_RTOL norm apart form one cluster, norm
    being the largest absolute row sum of the whole sector's H_Q, which
    bounds ||H|| (a block whose levels all lie near 0 must not shrink
    the scale).  A singleton i is an eigenvector by itself, with mu =
    C_ii, right V_i and left V_i^H, biorthonormal as V is unitary.  On
    each cluster of two or more levels `eig` solves C with left and
    right vectors vl and vr; the left rows solve (vl^H vr) left = vl^H,
    and each mu is its biorthogonal Rayleigh quotient on the cluster's
    block of C, whose error is second order in the vectors' (eig's own
    mu is off by up to 1e-14).  A singular cluster Gram matrix vl^H vr
    raises OrthogonalityViolationError.  No eigenvalue of B is lost by
    merging levels that are not degenerate, so the rule may merge too
    many, never too few.

    The rule follows from the coupling bound.  `eigh` is backward
    stable, so V diagonalizes H up to a perturbation of order eps ||H||
    (eps = 2.2e-16), and the built B and H commute up to rounding of
    order eps ||B|| ||H||.  So (E_j - E_i) C_ij is about 3 eps ||B||
    ||H|| at most, and between levels at least tau ||H|| apart (tau =
    HAMILTONIAN_CLUSTER_RTOL = 1e-4) |C_ij| is about 3 eps ||B|| / tau
    = 6.7e-12 ||B|| at most: fifteen times below the bound
    TRANSFER_COUPLING_RTOL ||C||_F, as ||B|| <= ||C||_F, the Frobenius
    norm.  A B that does not commute with H, such as a transfer block
    at another modulus, couples levels at order ||B||.  Any coupling
    between two clusters above the bound, or a NaN, raises
    EigenbasisMismatchError.
    """
    # divide and conquer (zheevd): about 30% faster than the default here
    levels, vectors = scipy.linalg.eigh(hamiltonian, driver="evd")
    rotated = vectors.conj().T @ transfer @ vectors
    apart = np.diff(levels) > HAMILTONIAN_CLUSTER_RTOL * norm
    cluster = np.concatenate(([0], np.cumsum(apart)))
    coupling = np.max(np.abs(rotated[cluster[:, None] != cluster[None, :]]), initial=0.0)
    size = np.linalg.norm(rotated)
    if not coupling <= TRANSFER_COUPLING_RTOL * size:
        raise EigenbasisMismatchError(
            f"transfer block couples levels of the chain Hamiltonian by "
            f"{coupling:.3e} against its norm {size:.3e} {where}"
        )
    mu = np.diagonal(rotated).copy()
    right, left = vectors.copy(), vectors.conj().T
    starts = np.flatnonzero(np.concatenate(([True], apart)))
    for start, stop in zip(starts, np.append(starts[1:], len(levels))):
        if stop - start > 1:
            part = slice(start, stop)
            _, vl, vr = scipy.linalg.eig(rotated[part, part], left=True, right=True)
            try:
                rows = np.linalg.solve(vl.conj().T @ vr, vl.conj().T)
            except np.linalg.LinAlgError as exc:
                raise OrthogonalityViolationError(
                    f"singular biorthogonal cluster of size {stop - start} {where}"
                ) from exc
            mu[part] = np.sum(rows * (rotated[part, part] @ vr).T, axis=1)
            right[:, part] = vectors[:, part] @ vr
            left[part] = rows @ vectors[:, part].conj().T
    return mu, right, left, float(levels[0]), vectors[:, 0]


def sector_spectrum(block: SectorMatrix) -> SectorSpectrum:
    """Full biorthogonal spectrum of the two-row evolution operator
    T_Q That_Q of one sector, from T_Q = block.mat.  The dominant right
    eigenvector is checked to be proportional to the ground state of the
    sector Hamiltonian at the same modulus, which is the shared-eigenbasis
    property everything downstream relies on.

    T_Q is checked to commute with the row translation S_Q, and That_Q =
    S_Q T_Q (`build_sector_transfer`); on the momentum block m of
    `_momentum_basis`, where S_Q is exp(2 pi i m / L), the operator is
    therefore exp(2 pi i m / L) B_m^2 with B_m = U_m^H T_Q U_m.  The
    chain block H_Q of `build_hamiltonian` commutes with S_Q too, and
    with T_Q; each B_m is diagonalized, with biorthonormal left and
    right vectors, in the eigenbasis of H_m = U_m^H H_Q U_m
    (`_solve_in_hamiltonian_basis`).  The chain ground state is the
    lowest level of the H_m over all blocks.

    Raises:
        IdentityViolationError: T_Q breaks translation invariance.
        EigenbasisMismatchError: T_Q couples different levels of H_Q, or
            the dominant vector is not the chain ground state.
        DegenerateMaxEigenvalueError: top two eigenvalue moduli coincide.
        OrthogonalityViolationError: biorthonormalization failed.
    """
    _check_translation_invariance(block)
    where = f"in sector Q={block.Q} (N={block.N}, L={block.L})"
    basis, offsets = _momentum_basis(block.N, block.L, block.Q)
    adjoint = basis.conj().T.tocsr()
    chain = build_hamiltonian(block.N, block.L, block.Q, block.kp).op
    norm = float(abs(chain).sum(axis=1).max())
    starts, right, left, values, residuals, grounds = [], [], [], [], [], []
    for m, (start, stop) in enumerate(zip(offsets[:-1], offsets[1:])):
        if start == stop:
            continue
        rows, columns = adjoint[start:stop], basis[:, start:stop]
        projected = (rows @ block.mat) @ columns
        ham = (rows @ chain @ columns).toarray()
        mu, vr, vl, level, vector = _solve_in_hamiltonian_basis(projected, ham, norm, where)
        grounds.append((level, columns @ vector))
        starts.append(start)
        right.append(vr)
        left.append(vl)
        values.append(np.exp(2j * np.pi * m / block.L) * mu**2)
        residuals.append(np.max(np.abs(vl @ vr - np.eye(stop - start))))
    values = np.concatenate(values)
    order = _by_modulus(values)
    values = values[order]
    if len(values) > 1:
        top, second = abs(values[0]), abs(values[1])
        if top - second <= DEGENERACY_RTOL * top:
            raise DegenerateMaxEigenvalueError(
                f"top eigenvalue moduli {top:.12e} and {second:.12e} coincide {where}"
            )
    # np.max keeps a NaN, so that the check fails
    biorth = float(np.max(residuals))
    if not biorth <= 1e-8:
        raise OrthogonalityViolationError(
            f"biorthonormality residual {biorth:.3e} in sector Q={block.Q}"
        )
    spectrum = SectorSpectrum(
        N=block.N, L=block.L, Q=block.Q, kp=block.kp, eigenvalues=values,
        basis=basis, starts=np.array(starts), right=tuple(right), left=tuple(left),
        order=order, biorth_residual=biorth,
    )
    ground = min(grounds, key=lambda entry: entry[0])[1]
    _dominance(spectrum.dominant()[0], ground, where)
    return spectrum


def transfer_block_of_charge(N: int, L: int, charge: int) -> int:
    """Fourier-block index holding the states of a given counting charge.

    The spin-shift Fourier label of the transfer blocks and the charge
    label of the counting polynomials differ by L mod N: adding one unit
    to every edge variable moves the configuration total by L while the
    spin picture is blind to it.  Measured fingerprint: the dominant-
    eigenvector overlap products of Fourier blocks (Q+L, P+L) equal the
    closed-form values for charges (Q, P), for every sector pair, size
    and modulus probed.
    """
    return (charge + L) % N


def certified_ground_states(
    N: int, L: int, kp: float, charges
) -> dict[int, tuple[GroundState, TransferCertificate]]:
    """Sparse ground state and transfer certificate of each named charge.

    Keys are counting charges; each state belongs to the Fourier block
    `transfer_block_of_charge(N, L, charge)`.  Only the named sectors are
    solved, and one `certify_ground_states` run certifies them all at the
    midpoint of the physical window.
    """
    q = physical_point(N, kp)
    states = {
        charge: ground_state(N, L, transfer_block_of_charge(N, L, charge), kp)
        for charge in charges
    }
    certificates = certify_ground_states(states.values(), q)
    return dict(zip(states, zip(states.values(), certificates)))


def ground_overlap(a: GroundState, b: GroundState) -> float:
    """|<g_a|g_b>|^2 of two normalised ground states: the overlap product
    (l_Q . r_P)(l_P . r_Q) of `overlap_product` once the dominant
    transfer vectors are known to be these ground states."""
    return float(abs(np.vdot(a.vector, b.vector)) ** 2)


def product_spectra(
    N: int,
    L: int,
    kp: float,
    q: RapidityPoint | None = None,
) -> list[SectorSpectrum]:
    """Spectra of T_Q That_Q for every charge sector at one rapidity.

    The list is indexed by counting charge; entry Q is the spectrum of
    the Fourier block `transfer_block_of_charge(N, L, Q)` (the .Q field
    on each spectrum records that underlying block label).  Defaults to
    the midpoint of the physical window; pass an explicit point of the
    same rank and modulus (CurveMismatchError otherwise) to probe
    q-independence.
    """
    if q is None:
        q = physical_point(N, kp)
    elif q.N != N or abs(q.kp - kp) > CURVE_TOL:
        raise CurveMismatchError(f"rapidity N={q.N}, k'={q.kp} is off N={N}, k'={kp}")
    blocks = [transfer_block_of_charge(N, L, charge) for charge in range(N)]
    return [sector_spectrum(build_sector_transfer(q, L, Q)[0]) for Q in blocks]


# ---------------------------------------------------------------------------
# overlap observables


def _real_part(value: complex, what: str, tol: float = 1e-9) -> float:
    if abs(value.imag) > tol * max(1.0, abs(value.real)):
        raise OrthogonalityViolationError(
            f"{what} came out non-real: {value!r}"
        )
    return float(value.real)


def overlap_product(
    N: int,
    L: int,
    kp: float,
    Q: int,
    P: int,
    spectra: list[SectorSpectrum] | None = None,
) -> float:
    """Product of the two cross overlaps of dominant sector eigenvectors.

    Returns (l_Q . r_P)(l_P . r_Q) for the modulus-largest eigenvectors of
    the two-row evolution operators in sectors Q and P.  The product is
    invariant under rescaling any individual eigenvector, which is the
    only normalization freedom the biorthogonal systems leave.
    """
    if spectra is None:
        spectra = product_spectra(N, L, kp)
    forward, backward = spectral_overlaps(spectra, Q % N, P % N)
    return _real_part(forward[0] * backward[0], f"overlap product (Q={Q}, P={P})")


def pair_correlation(
    N: int,
    L: int,
    kp: float,
    r: int,
    ell: int,
    spectra: list[SectorSpectrum] | None = None,
) -> float:
    """Charge-r pair correlation across 2*ell rows of the cylinder: one
    entry of `correlation_table`, after checking ell and r."""
    if ell < 0:
        raise ValueError(f"separation index must be nonnegative, got {ell}")
    if not 0 < r < N:
        raise ValueError(f"charge offset r={r} outside (0, {N})")
    if spectra is None:
        spectra = product_spectra(N, L, kp)
    return correlation_table(spectra, r, [ell])[0]


def correlation_table(
    spectra: list[SectorSpectrum], r: int, separations
) -> list[float]:
    """Charge-r pair correlation at each separation ell, from the spectra
    of every charge sector.

    Averages, over the charge sectors Q, the spectral sums
        sum_j (w^P_j / w^P_max)^ell (l_Q . r^P_j)(l^P_j . r_Q),
    with P = Q - r mod N and w the two-row eigenvalues.  The overlaps and
    eigenvalue ratios are formed once for all separations.  Separation
    zero returns 1 by biorthogonal completeness; large separations
    approach the average of the dominant-overlap products.

    At intermediate separations the spectral sum is genuinely complex for
    N > 2, because the chiral weights themselves are complex away from the
    two-state case.  The real part is returned: the imaginary component is
    small (about 1e-3 at the sizes this module reaches), it vanishes at
    separation zero by completeness, and it vanishes again at large
    separation because the dominant overlap products are real.
    """
    N = len(spectra)
    terms = []
    for Q in range(N):
        P = (Q - r) % N
        forward, backward = spectral_overlaps(spectra, Q, P)
        terms.append((spectra[P].eigenvalues / spectra[P].eigenvalues[0], forward, backward))
    table = []
    for ell in separations:
        total = 0.0 + 0.0j
        for ratios, forward, backward in terms:
            total += np.sum(ratios**ell * forward * backward)
        table.append(float(total.real) / N)
    return table


def spectral_overlaps(spectra: list[SectorSpectrum], Q: int, P: int) -> tuple:
    """forward[j] = l_Q . r^P_j and backward[j] = l^P_j . r_Q for every level
    j of sector P; their product is its weight in the pair correlation."""
    right_q, left_q = spectra[Q].dominant()
    return spectra[P].overlaps(left_q, right_q)


# ---------------------------------------------------------------------------
# consistency diagnostics


def relative_commutator(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of [a, b] scaled by the norms of the factors."""
    return float(
        np.linalg.norm(a @ b - b @ a)
        / (np.linalg.norm(a) * np.linalg.norm(b))
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    """Consistency measurements for one (N, L, kp) lattice.

    gaps:
        per charge, 1 - top_Q/top_0 for the dominant two-row eigenvalue
        moduli; the signs wobble at small L because the sector maxima
        interleave, so the headline degeneracy figure is max_abs_gap.
    tt_commutators / th_commutators:
        per charge, relative commutator of the transfer matrix at two
        distinct physical rapidities, and against the sector Hamiltonian.
    partition_sector_max:
        Z(M) / sum_Q top_Q^{2M} - 1 for each power in partition_powers,
        Z(M) the full eigenvalue power sum over all sectors; decays to
        zero as the subdominant states die off.
    partition_degenerate:
        Z(M) / (N top_0^{2M}) - 1; additionally pretends the sector
        maxima are degenerate, so at fixed L it only dips toward zero
        (around the power where excited states have decayed but the
        inter-sector splitting has not yet compounded) and drifts away
        again for larger M.
    """

    N: int
    L: int
    kp: float
    gaps: tuple[float, ...]
    max_abs_gap: float
    tt_commutators: tuple[float, ...]
    th_commutators: tuple[float, ...]
    partition_powers: tuple[int, ...]
    partition_sector_max: tuple[float, ...]
    partition_degenerate: tuple[float, ...]


def diagnostics(N: int, L: int, kp: float) -> DiagnosticsReport:
    """Measure the integrability and degeneracy fingerprints at one size.

    Commutators are evaluated per charge sector at two distinct points
    of the physical rapidity window, all blocks of one point before the
    next; spectra reuse the default midpoint.  Pure measurement: nothing
    here raises beyond the size guard and the solver contracts.
    """
    q_low = physical_point(N, kp, fraction=0.35)
    q_high = physical_point(N, kp, fraction=0.65)
    blocks = [transfer_block_of_charge(N, L, charge) for charge in range(N)]
    t_low = [build_sector_transfer(q_low, L, block)[0].mat for block in blocks]
    tt, th = [], []
    for t, block in zip(t_low, blocks):
        t_high, _ = build_sector_transfer(q_high, L, block)
        tt.append(relative_commutator(t, t_high.mat))
        th.append(relative_commutator(t, build_hamiltonian(N, L, block, kp).mat))
    spectra = product_spectra(N, L, kp)
    top = [abs(spec.eigenvalues[0]) for spec in spectra]
    gaps = [1.0 - top_q / top[0] for top_q in top]
    powers = (1, 2, 4, 8, 16, 32)
    sector_max, degenerate = [], []
    for m in powers:
        z = sum(np.sum(np.abs(s.eigenvalues) ** (2 * m)) for s in spectra)
        lead = sum(t ** (2 * m) for t in top)
        sector_max.append(float(z / lead - 1.0))
        degenerate.append(float(z / (N * top[0] ** (2 * m)) - 1.0))
    return DiagnosticsReport(
        N=N,
        L=L,
        kp=kp,
        gaps=tuple(gaps),
        max_abs_gap=max(abs(g) for g in gaps),
        tt_commutators=tuple(tt),
        th_commutators=tuple(th),
        partition_powers=powers,
        partition_sector_max=tuple(sector_max),
        partition_degenerate=tuple(degenerate),
    )

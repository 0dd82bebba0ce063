"""Lattice oracle: curve points, weights, sector blocks, spectra, overlaps."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralpotts import lattice
from chiralpotts.errors import (
    CurveMismatchError,
    DegenerateMaxEigenvalueError,
    DomainError,
    EigenbasisMismatchError,
    IdentityViolationError,
    OrthogonalityViolationError,
    SizeGuardError,
)
from chiralpotts.formfactor import couplings, overlap_product_closed
from chiralpotts.lattice import (
    RapidityPoint,
    boltzmann_weights,
    build_hamiltonian,
    build_sector_transfer,
    certified_ground_states,
    certify_ground_states,
    correlation_table,
    diagnostics,
    digit_rows,
    edge_configs,
    edge_dim,
    edge_index,
    ground_overlap,
    ground_state,
    horizontal_point,
    overlap_product,
    pair_correlation,
    physical_point,
    product_spectra,
    relative_commutator,
    sector_product_operator,
    sector_spectrum,
    spin_transfer,
    superintegrable_point,
    transfer_block_of_charge,
)

KP_GRID = (0.2, 0.5, 0.8)


# ---------------------------------------------------------------------------
# curve points and weights


def test_superintegrable_point_hand_value():
    p = superintegrable_point(2, 0.6)
    # k = 0.8, x = y = ((1 - 0.6)/0.8)^(1/2) = sqrt(0.5)
    assert abs(p.k - 0.8) < 1e-15
    assert abs(p.x - np.sqrt(0.5)) < 1e-15
    assert abs(p.y - np.sqrt(0.5)) < 1e-15
    assert p.mu == 1.0


def test_superintegrable_point_small_at_large_modulus():
    xs = [abs(superintegrable_point(3, kp).x) for kp in (0.2, 0.5, 0.9)]
    assert xs[0] > xs[1] > xs[2]
    assert xs[-1] < 0.7


def test_curve_residuals_on_grid():
    for N in (2, 3):
        for kp in KP_GRID:
            assert superintegrable_point(N, kp).curve_residual() < 1e-15
            assert physical_point(N, kp).curve_residual() < 1e-14
            assert horizontal_point(N, kp, 0.9).curve_residual() < 1e-14
    # log grids toward k' = 0, where y^N = (k - x^N)/(1 - k x^N) would
    # cancel as t -> 1, and toward k' = 1, where sqrt(1 - k'^2) would;
    # both constructions raise CurveMismatchError past these bounds
    for N in (2, 3, 4, 5, 6):
        for kp in np.concatenate([
            np.logspace(-8, np.log10(0.044), 40), 1.0 - np.logspace(-12, -1, 120)
        ]):
            assert superintegrable_point(N, kp).curve_residual() < 1e-15
            assert physical_point(N, kp).curve_residual() < 1e-14


def test_modulus_and_branch_validation():
    with pytest.raises(ValueError):
        superintegrable_point(3, 0.0)
    with pytest.raises(ValueError):
        superintegrable_point(3, 1.0)
    with pytest.raises(ValueError):
        horizontal_point(3, 0.5, 1.2)
    with pytest.raises(ValueError):
        physical_point(3, 0.5, fraction=0.0)
    # at k' = 1e-80 the window (1/(1+k'), 1) is empty in double precision
    with pytest.raises(DomainError):
        physical_point(2, 1e-80)


def test_weights_mismatched_points_rejected():
    p = superintegrable_point(3, 0.5)
    with pytest.raises(CurveMismatchError):
        boltzmann_weights(p, superintegrable_point(2, 0.5))
    with pytest.raises(CurveMismatchError):
        boltzmann_weights(p, superintegrable_point(3, 0.6))


def test_weights_at_equal_rapidities_collapse():
    p = superintegrable_point(3, 0.5)
    w, wbar = boltzmann_weights(p, p)
    assert np.allclose(w, 1.0, atol=1e-13)
    # conjugate family concentrates at n = 0
    assert abs(wbar[0] - 1.0) < 1e-13
    assert np.max(np.abs(wbar[1:])) < 1e-13


def weights_positive(w: np.ndarray, wbar: np.ndarray) -> bool:
    """Whether both families are real and nonnegative.

    True in the two-state case on the physical branch; for more states the
    weights are complex away from special loci, so this is reported rather
    than enforced.
    """
    return bool(
        max(np.max(np.abs(w.imag)), np.max(np.abs(wbar.imag))) < 1e-12
        and min(np.min(w.real), np.min(wbar.real)) > -1e-12
    )


def test_weights_two_state_real_and_physical():
    p = superintegrable_point(2, 0.5)
    q = physical_point(2, 0.5)
    w, wbar = boltzmann_weights(p, q)
    assert abs(w[1].imag) < 1e-13 and abs(wbar[1].imag) < 1e-13
    assert weights_positive(w, wbar)


def test_weight_full_period_products_are_unit():
    p = superintegrable_point(3, 0.2)
    q = physical_point(3, 0.2, fraction=0.3)
    omega = np.exp(2j * np.pi / 3)
    ratio_w = (p.mu / q.mu) ** 3
    ratio_wbar = (p.mu * q.mu) ** 3
    for j in range(1, 4):
        ratio_w *= (q.y - omega**j * p.x) / (p.y - omega**j * q.x)
        ratio_wbar *= (omega * p.x - omega**j * q.x) / (q.y - omega**j * p.y)
    assert abs(ratio_w - 1.0) < 1e-12
    assert abs(ratio_wbar - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# edge basis


def test_edge_dim_guard():
    assert edge_dim(3, 8) == 3**7
    with pytest.raises(SizeGuardError):
        edge_dim(3, 9)
    # the sparse Hamiltonian is built past the dense cap, but its dense
    # view is refused there
    ham = build_hamiltonian(3, 9, 0, 0.5)
    with pytest.raises(SizeGuardError):
        ham.mat


def test_spin_transfer_guard():
    q = physical_point(3, 0.5)
    with pytest.raises(SizeGuardError):
        spin_transfer(q, 8)


@settings(deadline=None, max_examples=40)
@given(
    N=st.integers(min_value=2, max_value=4),
    L=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_edge_config_round_trip_property(N, L, data):
    i = data.draw(st.integers(min_value=0, max_value=N ** (L - 1) - 1))
    config = edge_configs(N, L)[i]
    assert config.sum() % N == 0
    assert edge_index(N, config) == i


# ---------------------------------------------------------------------------
# sector blocks against an independently assembled small case


def _hand_weights(p, q):
    """Literal product-formula weights, plain complex arithmetic."""
    N = p.N
    omega = complex(np.exp(2j * np.pi / N))
    w, wbar = [1.0 + 0.0j], [1.0 + 0.0j]
    for n in range(1, N):
        w.append(
            w[-1] * (p.mu / q.mu) * (q.y - omega**n * p.x) / (p.y - omega**n * q.x)
        )
        wbar.append(
            wbar[-1]
            * (p.mu * q.mu)
            * (omega * p.x - omega**n * q.x)
            / (q.y - omega**n * p.y)
        )
    return w, wbar


def test_hand_assembled_sector_blocks_two_state_width_two():
    N, L, kp = 2, 2, 0.5
    p = superintegrable_point(N, kp)
    q = horizontal_point(N, kp, 0.8)
    w, wbar = _hand_weights(p, q)

    def t_entry(bra, ket):
        val = 1.0 + 0.0j
        for j in range(L):
            val *= w[(ket[j] - bra[j]) % N]
            val *= wbar[(ket[(j + 1) % L] - bra[j]) % N]
        return val

    def t_hat_entry(bra, ket):
        val = 1.0 + 0.0j
        for j in range(L):
            val *= wbar[(ket[j] - bra[j]) % N]
            val *= w[(ket[j] - bra[(j + 1) % L]) % N]
        return val

    for Q in range(N):
        t_block = np.zeros((N, N), dtype=complex)
        t_hat_block = np.zeros((N, N), dtype=complex)
        for n_bra in range(N):
            bra = (0, (-n_bra) % N)
            for n_ket in range(N):
                for m in range(N):
                    ket = (m, (m - n_ket) % N)
                    phase = np.exp(-2j * np.pi * m * Q / N)
                    t_block[n_bra, n_ket] += phase * t_entry(bra, ket)
                    t_hat_block[n_bra, n_ket] += phase * t_hat_entry(bra, ket)
        got_t, got_t_hat = build_sector_transfer(q, L, Q)
        assert np.allclose(got_t.mat, t_block, atol=1e-13)
        assert np.allclose(got_t_hat.mat, t_hat_block, atol=1e-13)


def spin_row_classes(N: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Per spin row of `digit_rows(N, L)`, the flat index of its edge
    configuration (adjacent spin differences) and its leading spin."""
    spins = digit_rows(N, L)
    edges = (spins - np.roll(spins, -1, axis=1)) % N
    return edge_index(N, edges), spins[:, 0]


@pytest.mark.parametrize("N, L", [(2, 5), (3, 4), (4, 3)])
def test_spin_grid_orders_rows_by_leading_spin_and_edge_class(N, L):
    flat, lead = spin_row_classes(N, L)
    grid = lattice._spin_grid(N, L)
    assert not grid.flags.writeable
    assert np.array_equal(lead[grid] * N ** (L - 1) + flat[grid], np.arange(N**L))


def spin_block_roundtrip_residual(N: int, L: int, q: RapidityPoint) -> float:
    """Reassemble the spin-basis transfer matrix from all charge blocks.

    Returns the largest entrywise deviation between T and the inverse
    Fourier combination (1/N) sum_Q omega^(Q m) T_Q, relative to the
    largest entry of T.
    """
    t_spin, _ = spin_transfer(q, L)
    flat, lead = spin_row_classes(N, L)
    omega = np.exp(2j * np.pi / N)
    blocks = [build_sector_transfer(q, L, Q)[0].mat for Q in range(N)]
    rebuilt = np.zeros_like(t_spin)
    for row in range(N**L):
        m = (lead - lead[row]) % N
        for Q in range(N):
            rebuilt[row] += omega ** (m * Q) * blocks[Q][flat[row], flat] / N
    return float(np.max(np.abs(rebuilt - t_spin)) / np.max(np.abs(t_spin)))


def test_fourier_round_trip():
    for N, L in ((2, 3), (3, 3), (3, 4)):
        q = physical_point(N, 0.5)
        assert spin_block_roundtrip_residual(N, L, q) < 1e-12


def _spin_shift(N, L):
    dim = N**L
    shifted = ((digit_rows(N, L) + 1) % N) @ N ** np.arange(L)
    op = np.zeros((dim, dim))
    op[shifted, np.arange(dim)] = 1.0
    return op


def test_spin_shift_and_translation_commutation():
    N, L = 3, 3
    q = physical_point(N, 0.5)
    t, t_hat = spin_transfer(q, L)
    shift = _spin_shift(N, L)
    assert relative_commutator(t, shift) < 1e-12
    assert relative_commutator(t_hat, shift) < 1e-12
    # translation: cyclically relabel the sites
    dim = N**L
    rotated = digit_rows(N, L) @ N ** ((np.arange(L) + 1) % L)
    trans = np.zeros((dim, dim))
    trans[rotated, np.arange(dim)] = 1.0
    assert relative_commutator(t, trans) < 1e-12


def test_transfer_matrices_commute_with_each_other():
    q = physical_point(3, 0.5)
    t, t_hat = spin_transfer(q, 3)
    assert relative_commutator(t, t_hat) < 1e-12


def test_sector_index_validation():
    q = physical_point(3, 0.5)
    with pytest.raises(ValueError):
        build_sector_transfer(q, 3, 3)
    with pytest.raises(CurveMismatchError):
        product_spectra(3, 3, 0.6, q=q)


# ---------------------------------------------------------------------------
# the dense transfer blocks


def _prefix_sums(configs: np.ndarray, N: int) -> np.ndarray:
    """Partial sums n_1 + ... + n_{J-1} per site J, reduced mod N."""
    dim, L = configs.shape
    sums = np.zeros((dim, L), dtype=np.int64)
    np.cumsum(configs[:, : L - 1], axis=1, out=sums[:, 1:])
    return sums % N


def loop_transfer_layers(q: RapidityPoint, L: int) -> tuple[np.ndarray, np.ndarray]:
    """The layers built one bra row at a time as Boltzmann-weight products
    over prefix sums of the edge digits: the builder the ring contraction
    replaced, kept as its oracle."""
    N = q.N
    p = superintegrable_point(N, q.kp)
    w, wbar = boltzmann_weights(p, q)
    dim = edge_dim(N, L)
    configs = edge_configs(N, L)
    prefix = _prefix_sums(configs, N)
    layers = np.empty((N, dim, dim), dtype=complex)
    layers_hat = np.empty((N, dim, dim), dtype=complex)
    for row in range(dim):
        # delta[J] = prefix(ket column) - prefix(bra row), per column.
        delta = prefix - prefix[row]
        for m in range(N):
            shift = (m - delta) % N
            layers[m, row, :] = (w[shift] * wbar[(shift - configs) % N]).prod(axis=1)
            layers_hat[m, row, :] = (
                wbar[shift] * w[(shift + configs[row]) % N]
            ).prod(axis=1)
    return layers, layers_hat


@pytest.mark.parametrize(
    "N, L",
    [(2, 1), (3, 1), (2, 2), (3, 2), (4, 3), (5, 3), (2, 9), (3, 6), (4, 5), (2, 11), (3, 7)],
)
def test_ring_layers_equal_row_loop(N, L):
    # the sizes run past the spin check, where That_Q = S_Q T_Q is the
    # identity the spectra rely on; np.fft.fft sums with omega^(-mQ)
    q = physical_point(N, 0.5)
    layers, layers_hat = (np.fft.fft(x, axis=0) for x in loop_transfer_layers(q, L))
    blocks = lattice._transfer_blocks(q, L)
    assert blocks.shape == layers.shape and not blocks.flags.writeable
    assert np.max(np.abs(blocks - layers)) <= 1e-13 * np.max(np.abs(layers))
    for Q in range(N):
        _, t_hat = build_sector_transfer(q, L, Q)
        assert np.max(np.abs(t_hat.mat - layers_hat[Q])) <= 1e-13 * np.max(np.abs(layers_hat[Q]))


@pytest.mark.parametrize("N, L", [(2, 1), (2, 2), (3, 2), (2, 5), (3, 4), (4, 3)])
def test_batched_ring_equals_column_applies(N, L):
    kernel = lattice._site_kernel(physical_point(N, 0.5))
    rng = np.random.default_rng(11)
    u = rng.standard_normal((N**L, 2, 3)) + 1j * rng.standard_normal((N**L, 2, 3))
    got = lattice._ring_apply(kernel, u, N, L)
    assert got.shape == u.shape
    for a in range(2):
        for b in range(3):
            column = lattice._ring_apply(kernel, u[:, a, b].copy(), N, L)
            assert np.max(np.abs(got[:, a, b] - column)) <= 1e-14 * np.max(np.abs(column))


def test_dense_blocks_do_not_go_through_the_ring(monkeypatch):
    def ring(*args):
        raise AssertionError("the dense build applied the ring")

    monkeypatch.setattr(lattice, "_ring_apply", ring)
    lattice._transfer_blocks.cache_clear()
    for N, L in [(3, 4), (4, 5)]:
        product_spectra(N, L, 0.5)


def test_block_build_holds_at_most_one_layer_besides_the_blocks():
    # a batch of N^(L-1) / N^2 columns over N^L bra rows is 1/N of a layer,
    # and at most two such arrays are live at once (the site product and
    # its gather, then the gather and its Fourier transform): 2/3 of a
    # layer at N = 3, 0.67 measured
    q = physical_point(3, 0.5)
    lattice._transfer_blocks(q, 7)
    lattice._transfer_blocks.cache_clear()
    tracemalloc.start()
    try:
        blocks = lattice._transfer_blocks(q, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    layer = blocks[0].nbytes
    assert peak <= blocks.nbytes + layer, (peak - blocks.nbytes) / layer


def test_product_spectra_build_the_layers_once():
    lattice._transfer_blocks.cache_clear()
    product_spectra(3, 4, 0.5)
    assert lattice._transfer_blocks.cache_info().misses == 1


def test_layers_are_kept_for_one_rapidity_only():
    product_spectra(3, 4, 0.5)
    product_spectra(3, 4, 0.6)
    assert lattice._transfer_blocks.cache_info().currsize == 1


def test_sector_blocks_are_read_only_views_of_the_cache():
    q = physical_point(3, 0.5)
    t_block, t_hat_block = build_sector_transfer(q, 4, 1)
    assert t_block.mat.base is lattice._transfer_blocks(q, 4)
    with pytest.raises(ValueError):
        t_block.mat[0, 0] = 0.0
    assert t_hat_block.mat.base is None


def test_product_spectra_and_table_stay_within_ten_mib():
    # the parent, which held both factors and each sector's lifted left
    # and right eigenvector matrices, peaked at 19.1 MiB here
    lattice._transfer_blocks.cache_clear()
    tracemalloc.start()
    try:
        spectra = product_spectra(4, 5, 0.5)
        correlation_table(spectra, 1, range(65))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


def test_corrupted_site_kernel_fails_the_sector_product_check(monkeypatch):
    kernel = lattice._site_kernel

    def corrupted(q):
        out = kernel(q)
        out[0, 1, 2] *= 1.01
        return out

    monkeypatch.setattr(lattice, "_site_kernel", corrupted)
    lattice._transfer_blocks.cache_clear()
    with pytest.raises(CurveMismatchError, match="sector product check failed"):
        build_sector_transfer(physical_point(3, 0.5), 3, 0)


def test_sector_product_check_survives_optimize_flag(run_optimized):
    run_optimized(
        "test_lattice.py::test_corrupted_site_kernel_fails_the_sector_product_check"
    )


# ---------------------------------------------------------------------------
# Hamiltonian


def _clock_pair(N):
    omega = np.exp(2j * np.pi / N)
    x = np.zeros((N, N), dtype=complex)
    x[(np.arange(N) + 1) % N, np.arange(N)] = 1.0
    z = np.diag(omega ** np.arange(N))
    return x, z


def _site_op(op, j, N, L):
    mats = [np.eye(N, dtype=complex)] * L
    mats[j] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(m, out)
    return out


def _spin_hamiltonian(N, L, kp):
    """Independent spin-basis assembly from explicit clock matrices."""
    omega = np.exp(2j * np.pi / N)
    x, z = _clock_pair(N)
    dim = N**L
    ham = np.zeros((dim, dim), dtype=complex)
    for j in range(L):
        for n in range(1, N):
            ham -= kp * (2.0 / (1.0 - omega**n)) * _site_op(
                np.linalg.matrix_power(x, n), j, N, L
            )
            zz = _site_op(np.linalg.matrix_power(z, n), j, N, L) @ _site_op(
                np.linalg.matrix_power(z, N - n), (j + 1) % L, N, L
            )
            ham -= (2.0 / (1.0 - omega**-n)) * zz
    return ham


def test_hamiltonian_blocks_match_spin_projection():
    # sector eigenvalues must coincide with the spin-basis chain restricted
    # to the matching shift eigenspace, assembled through unrelated machinery
    for N, L in ((2, 2), (3, 2), (2, 3)):
        kp = 0.5
        ham_spin = _spin_hamiltonian(N, L, kp)
        shift = _spin_shift(N, L)
        omega = np.exp(2j * np.pi / N)
        for Q in range(N):
            projector = sum(
                omega ** (-Q * k) * np.linalg.matrix_power(shift, k)
                for k in range(N)
            ) / N
            basis = scipy.linalg.orth(projector, rcond=1e-9)
            assert basis.shape[1] == N ** (L - 1)
            restricted = basis.conj().T @ ham_spin @ basis
            expected = np.sort(scipy.linalg.eigvalsh(restricted))
            got = np.sort(scipy.linalg.eigvalsh(build_hamiltonian(N, L, Q, kp).mat))
            assert np.allclose(got, expected, atol=1e-10)


def test_hamiltonian_hermitian_and_commutes_with_transfer():
    for N, L in ((2, 4), (3, 3)):
        kp = 0.5
        q = physical_point(N, kp)
        for Q in range(N):
            ham = build_hamiltonian(N, L, Q, kp)
            assert np.max(np.abs(ham.mat - ham.mat.conj().T)) < 1e-12
            t_block, _ = build_sector_transfer(q, L, Q)
            assert relative_commutator(t_block.mat, ham.mat) < 1e-10


def test_non_hermitian_hamiltonian_raises_typed_error(monkeypatch):
    # every shifted configuration lands on the first row, so the block
    # stops being its own adjoint
    monkeypatch.setattr(
        lattice, "edge_index", lambda N, config: np.zeros(len(config), dtype=np.int64)
    )
    with pytest.raises(IdentityViolationError):
        build_hamiltonian(3, 3, 0, 0.5)


def test_hermiticity_check_survives_optimize_flag(run_optimized):
    run_optimized("test_lattice.py::test_non_hermitian_hamiltonian_raises_typed_error")


# ---------------------------------------------------------------------------
# spectra


def test_sector_spectrum_contracts():
    N, L, kp = 3, 4, 0.5
    q = physical_point(N, kp)
    for Q in range(N):
        spec = sector_spectrum(build_sector_transfer(q, L, Q)[0])
        mods = np.abs(spec.eigenvalues)
        assert np.all(mods[:-1] >= mods[1:] - 1e-12)
        assert spec.biorth_residual < 1e-10


def _whole_block_spectrum(block, pair):
    """Reference route: one dense eig of the whole product block, sorted
    by modulus, with one linear solve per degenerate cluster, kept as a
    one-block spectrum on the identity basis."""
    values, vl, vr = scipy.linalg.eig(block.mat @ pair.mat, left=True, right=True)
    order = np.lexsort((np.angle(values), -np.abs(values)))
    values, right, left = values[order], vr[:, order], vl[:, order].conj().T
    scale = np.max(np.abs(values))
    start = 0
    while start < len(values):
        stop = start + 1
        while stop < len(values) and abs(values[stop] - values[start]) <= 1e-9 * scale:
            stop += 1
        cluster = slice(start, stop)
        left[cluster] = np.linalg.solve(left[cluster] @ right[:, cluster], left[cluster])
        start = stop
    dim = len(values)
    return lattice.SectorSpectrum(
        N=block.N, L=block.L, Q=block.Q, kp=block.kp, eigenvalues=values,
        basis=scipy.sparse.eye_array(dim, format="csc"), starts=np.array([0]),
        right=(right,), left=(left,), order=np.arange(dim), biorth_residual=0.0,
    )


# (3,6) and (4,5) solve clusters of up to 12 chain levels with one eig each
@pytest.mark.parametrize(
    "N, L", [(2, 1), (2, 2), (3, 2), (3, 4), (2, 6), (4, 4), (2, 9), (3, 6), (4, 5)]
)
def test_momentum_blocks_equal_the_whole_block_route(N, L):
    kp = 0.5
    q = physical_point(N, kp)
    spectra = product_spectra(N, L, kp)
    reference = [
        _whole_block_spectrum(*build_sector_transfer(q, L, transfer_block_of_charge(N, L, c)))
        for c in range(N)
    ]
    for new, old in zip(spectra, reference):
        distance = np.abs(new.eigenvalues[:, None] - old.eigenvalues[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(distance)
        assert np.max(distance[rows, cols]) <= 1e-12 * abs(old.eigenvalues[0])
        assert new.biorth_residual < 1e-10
    for r in range(1, N):
        got = correlation_table(spectra, r, range(65))
        want = correlation_table(reference, r, range(65))
        assert np.max(np.abs(np.subtract(got, want))) < 1e-13
    for Q in range(N):
        for P in range(N):
            got = overlap_product(N, L, kp, Q, P, spectra=spectra)
            want = overlap_product(N, L, kp, Q, P, spectra=reference)
            assert abs(got - want) < 1e-13


def _translation(N, L, Q):
    """Dense S_Q: (S_Q v)[e] = omega^(Q e_1) v[roll(e)] in the edge basis."""
    configs = edge_configs(N, L)
    op = np.zeros((len(configs), len(configs)), dtype=complex)
    for row, config in enumerate(configs):
        op[row, edge_index(N, np.roll(config, -1))] = np.exp(2j * np.pi * Q * config[0] / N)
    return op


@pytest.mark.parametrize("N, L", [(2, 2), (2, 4), (3, 4), (4, 4), (2, 6), (3, 6), (3, 1)])
def test_momentum_basis_diagonalizes_the_row_translation(N, L):
    q = physical_point(N, 0.5)
    for Q in range(N):
        basis, offsets = lattice._momentum_basis(N, L, Q)
        u = basis.toarray()
        dim = len(u)
        assert offsets[0] == 0 and offsets[-1] == dim
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-14
        momenta = np.repeat(np.arange(L), np.diff(offsets))
        shift = _translation(N, L, Q)
        assert np.max(np.abs(shift @ u - u * np.exp(2j * np.pi * momenta / L))) < 1e-14
        # a column spans one orbit; those of period d < L take part too
        assert L == 1 or np.min(np.diff(basis.indptr)) < L
        # the chain block too: the spectra are solved in its momentum blocks
        for block in (*build_sector_transfer(q, L, Q), build_hamiltonian(N, L, Q, 0.5)):
            assert relative_commutator(block.mat, shift) < 1e-14


def test_translation_breaking_kernel_raises_typed_error(monkeypatch):
    # past the spin check (N^L = 256), a kernel that is not covariant
    # under the global spin shift makes blocks that break translation
    kernel = lattice._site_kernel

    def corrupted(q):
        out = kernel(q)
        out[0, 1, 2] *= 1.01
        return out

    monkeypatch.setattr(lattice, "_site_kernel", corrupted)
    lattice._transfer_blocks.cache_clear()
    try:
        t_block, _ = build_sector_transfer(physical_point(4, 0.5), 4, 1)
        with pytest.raises(IdentityViolationError, match="translation invariance"):
            sector_spectrum(t_block)
    finally:
        lattice._transfer_blocks.cache_clear()


def test_translation_check_survives_optimize_flag(run_optimized):
    run_optimized("test_lattice.py::test_translation_breaking_kernel_raises_typed_error")


def test_transfer_block_at_another_modulus_raises_typed_error():
    # the chain block at k' = 0.6 does not commute with T_Q built at 0.5,
    # so in its eigenbasis T_Q couples different levels
    t_block, _ = build_sector_transfer(physical_point(3, 0.5), 4, 1)
    with pytest.raises(EigenbasisMismatchError, match="couples levels"):
        sector_spectrum(dataclasses.replace(t_block, kp=0.6))


def test_coupling_check_survives_optimize_flag(run_optimized):
    run_optimized("test_lattice.py::test_transfer_block_at_another_modulus_raises_typed_error")


def test_translation_check_runs_in_row_blocks():
    # dimension 1024 takes four blocks of 256 rows; a defect or a NaN in
    # the last one must still fail, and no dense copy of X may be made
    dim = 2**10
    block = lattice.SectorMatrix(N=2, L=11, Q=0, kp=0.5, op=np.eye(dim, dtype=complex))
    tracemalloc.start()
    try:
        lattice._check_translation_invariance(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak  # the dense gather and its abs took 24 MiB
    for defect in (1e-9, np.nan):
        op = np.eye(dim, dtype=complex)
        op[dim - 1, 3] = defect
        with pytest.raises(IdentityViolationError, match="translation invariance"):
            lattice._check_translation_invariance(dataclasses.replace(block, op=op))


def test_singular_cluster_raises_typed_error(monkeypatch):
    # eig runs only on clusters of chain levels: an exactly degenerate
    # pair at (2,4), clusters of up to 10 levels at (3,6); a zero left
    # vector makes the cluster's Gram matrix exactly singular
    eig = scipy.linalg.eig

    def rank_deficient(a, **kwargs):
        values, left, right = eig(a, **kwargs)
        left[:, -1] = 0.0
        return values, left, right

    monkeypatch.setattr(scipy.linalg, "eig", rank_deficient)
    for N, L in ((2, 4), (3, 6)):
        with pytest.raises(
            OrthogonalityViolationError,
            match=rf"singular biorthogonal cluster of size \d+ in sector Q=\d \(N={N}, L={L}\)",
        ):
            product_spectra(N, L, 0.5)


def test_singular_cluster_check_survives_optimize_flag(run_optimized):
    run_optimized("test_lattice.py::test_singular_cluster_raises_typed_error")


@pytest.mark.parametrize("N, L, kp", [(2, 9, 0.5), (3, 6, 0.3), (4, 5, 0.7)])
def test_dominant_eigenvalue_is_the_matrix_free_rayleigh_quotient(N, L, kp):
    # exp(2 pi i m / L) mu^2 from a plain eig of the momentum block is off
    # by 9e-15 to 1.5e-14 here; the biorthogonal Rayleigh quotient is not
    q = physical_point(N, kp)
    for spec in product_spectra(N, L, kp):
        right, left = spec.dominant()
        quotient = (left @ sector_product_operator(q, L, spec.Q)(right)) / (left @ right)
        assert abs(spec.eigenvalues[0] - quotient) <= 4e-15 * abs(quotient)


def test_ground_match_verified_through_width_five():
    # the shared-eigenbasis identification is checked inside, so passing
    # construction is the assertion
    for L in (3, 4, 5):
        product_spectra(3, L, 0.5)


def test_equal_rapidity_product_is_degenerate():
    p = superintegrable_point(2, 0.5)
    t_block, _ = build_sector_transfer(p, 4, 0)
    with pytest.raises(DegenerateMaxEigenvalueError):
        sector_spectrum(t_block)


def test_unphysical_branch_detected():
    kp = 0.5
    q = horizontal_point(2, kp, 0.5 / (1.0 + kp))
    with pytest.raises(EigenbasisMismatchError):
        product_spectra(2, 3, kp, q=q)


def test_spectra_are_rapidity_independent():
    N, L, kp = 3, 4, 0.5
    low = product_spectra(N, L, kp, q=physical_point(N, kp, fraction=0.35))
    high = product_spectra(N, L, kp, q=physical_point(N, kp, fraction=0.65))
    for spec_a, spec_b in zip(low, high):
        a = spec_a.dominant()[0]
        b = spec_b.dominant()[0]
        cosine = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert 1.0 - cosine < 1e-8


def test_charge_to_block_translation():
    assert [transfer_block_of_charge(3, 4, c) for c in range(3)] == [1, 2, 0]
    assert [transfer_block_of_charge(3, 3, c) for c in range(3)] == [0, 1, 2]
    spectra = product_spectra(3, 4, 0.5)
    assert [s.Q for s in spectra] == [1, 2, 0]


# ---------------------------------------------------------------------------
# sparse ground states and the matrix-free transfer certificate


def test_ground_state_is_the_lowest_normalised_level():
    for N, L in ((2, 1), (2, 2), (3, 2), (3, 4)):
        for Q in range(N):
            state = ground_state(N, L, Q, 0.5)
            ham = build_hamiltonian(N, L, Q, 0.5).mat
            lowest = scipy.linalg.eigvalsh(ham)[0]
            g = state.vector
            scale = max(1.0, abs(lowest))
            assert abs(np.vdot(g, ham @ g).real - lowest) < 1e-12 * scale
            assert np.linalg.norm(ham @ g - lowest * g) < 1e-10 * scale
            assert abs(np.linalg.norm(g) - 1.0) < 1e-14


@pytest.mark.parametrize("N, L", [(2, 1), (2, 2), (3, 2), (2, 5), (3, 4), (4, 3)])
def test_matrix_free_operator_equals_block_product(N, L):
    q = physical_point(N, 0.5)
    rng = np.random.default_rng(7)
    for Q in range(N):
        t_block, t_hat_block = build_sector_transfer(q, L, Q)
        v = rng.standard_normal(t_block.dim) + 1j * rng.standard_normal(t_block.dim)
        expected = t_block.mat @ t_hat_block.mat @ v
        got = sector_product_operator(q, L, Q)(v)
        assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("N, L", [(2, 6), (3, 4), (3, 5), (4, 4)])
def test_sparse_overlaps_equal_dense_biorthogonal_products(N, L):
    kp = 0.5
    spectra = product_spectra(N, L, kp)
    sectors = certified_ground_states(N, L, kp, range(N))
    for Q in range(N):
        for P in range(N):
            if P == Q:
                continue
            dense = overlap_product(N, L, kp, Q, P, spectra=spectra)
            sparse = ground_overlap(sectors[Q][0], sectors[P][0])
            assert abs(sparse - dense) < 1e-12, (Q, P)
    for _, cert in sectors.values():
        assert cert.eigen_residual < 1e-12
        assert cert.dominance < 1e-12


def test_unphysical_branch_detected_by_the_sparse_route():
    # off the physical window the ground state is still a transfer
    # eigenvector, so only the dominance check catches it
    kp = 0.5
    q = horizontal_point(2, kp, 0.5 / (1.0 + kp))
    for Q in range(2):
        with pytest.raises(EigenbasisMismatchError, match=r"1 - \|cos\|"):
            certify_ground_states([ground_state(2, 6, Q, kp)], q)


def test_sparse_dominance_check_survives_optimize_flag(run_optimized):
    run_optimized("test_lattice.py::test_unphysical_branch_detected_by_the_sparse_route")


def test_excited_state_fails_the_batch_certificate_in_its_sector():
    # the second level of H_Q is a common eigenvector of H_Q and T That,
    # but not the dominant one: it passes the eigen-residual and pulls
    # the whole Arnoldi vector into its sector, leaving the others empty
    kp = 0.5
    for N, L in ((3, 4), (4, 4)):
        q = physical_point(N, kp)
        for Q in range(N):
            states = [ground_state(N, L, P, kp) for P in range(N)]
            _, levels = scipy.linalg.eigh(build_hamiltonian(N, L, Q, kp).mat)
            states[Q] = dataclasses.replace(states[Q], vector=levels[:, 1])
            with pytest.raises(EigenbasisMismatchError, match=rf"1 - \|cos\|.* Q={Q} "):
                certify_ground_states(states, q)


def test_excited_state_check_survives_optimize_flag(run_optimized):
    run_optimized(
        "test_lattice.py::test_excited_state_fails_the_batch_certificate_in_its_sector"
    )


def test_batch_certificate_of_two_sectors_matches_the_full_request():
    kp = 0.5
    full = certified_ground_states(4, 5, kp, range(4))
    pair = certified_ground_states(4, 5, kp, (1, 3))
    assert set(pair) == {1, 3}
    for charge, (_, cert) in pair.items():
        assert cert.eigen_residual == full[charge][1].eigen_residual
        assert cert.dominance <= 1e-12


def test_batch_certificate_rejects_repeated_sectors():
    state = ground_state(2, 3, 0, 0.5)
    with pytest.raises(ValueError, match="one state per sector"):
        certify_ground_states([state, state], physical_point(2, 0.5))


@pytest.mark.parametrize("N, L", [(2, 12), (3, 7)])
def test_certified_ground_states_stay_within_the_memory_estimate(N, L):
    certified_ground_states(N, 2, 0.5, range(N))  # imports and caches
    tracemalloc.start()
    try:
        certified_ground_states(N, L, 0.5, range(N))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < lattice.sparse_bytes(N, L), peak


# ---------------------------------------------------------------------------
# overlaps and correlations


def test_overlap_self_is_unity():
    spectra = product_spectra(3, 3, 0.5)
    for Q in range(3):
        assert abs(overlap_product(3, 3, 0.5, Q, Q, spectra=spectra) - 1.0) < 1e-12


def test_overlap_rescaling_invariance():
    N, L, kp = 2, 3, 0.5
    spectra = product_spectra(N, L, kp)
    base = overlap_product(N, L, kp, 0, 1, spectra=spectra)
    spec = spectra[1]
    column = spec.order[0]
    b = np.searchsorted(spec.starts, column, side="right") - 1
    right, left = list(spec.right), list(spec.left)
    right[b], left[b] = right[b].copy(), left[b].copy()
    right[b][:, column - spec.starts[b]] *= 7.3 - 2.0j
    left[b][column - spec.starts[b]] /= 7.3 - 2.0j
    rescaled = dataclasses.replace(spec, right=tuple(right), left=tuple(left))
    assert abs(overlap_product(N, L, kp, 0, 1, spectra=[spectra[0], rescaled]) - base) < 1e-13


def test_overlap_matches_closed_form_small_case():
    lat = overlap_product(2, 2, 0.5, 0, 1)
    ff = float(overlap_product_closed(couplings(2, 2, 0, 1, "0.5")))
    assert abs(lat - ff) < 1e-8


def test_overlap_matches_closed_form_three_state():
    spectra = product_spectra(3, 4, 0.5)
    for Q, P in ((0, 1), (1, 2), (2, 0)):
        lat = overlap_product(3, 4, 0.5, Q, P, spectra=spectra)
        ff = float(overlap_product_closed(couplings(3, 4, Q, P, "0.5")))
        assert abs(lat - ff) < 1e-8


def test_overlap_approaches_square_lattice_magnetization():
    kp = 0.6
    target = (1.0 - kp * kp) ** 0.25
    errors = [
        abs(overlap_product(2, L, kp, 0, 1) - target) for L in (3, 4, 5, 6)
    ]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3


def test_pair_correlation_completeness_and_limit():
    N, L, kp = 2, 3, 0.5
    spectra = product_spectra(N, L, kp)
    assert abs(pair_correlation(N, L, kp, 1, 0, spectra=spectra) - 1.0) < 1e-10
    target = sum(
        overlap_product(N, L, kp, Q, (Q - 1) % N, spectra=spectra) for Q in range(N)
    ) / N
    assert abs(pair_correlation(N, L, kp, 1, 64, spectra=spectra) - target) < 1e-10


def test_correlation_table_repeats_the_per_separation_sum():
    N, L, kp = 3, 4, 0.5
    spectra = product_spectra(N, L, kp)
    for r in (1, 2):
        want = []
        for ell in range(65):
            total = 0.0 + 0.0j
            for Q in range(N):
                P = (Q - r) % N
                forward, backward = lattice.spectral_overlaps(spectra, Q, P)
                ratios = spectra[P].eigenvalues / spectra[P].eigenvalues[0]
                total += np.sum(ratios**ell * forward * backward)
            want.append(float(total.real) / N)
        assert correlation_table(spectra, r, range(65)) == want
        assert [pair_correlation(N, L, kp, r, ell, spectra=spectra) for ell in range(65)] == want


def test_pair_correlation_validation():
    with pytest.raises(ValueError):
        pair_correlation(3, 3, 0.5, 0, 1)
    with pytest.raises(ValueError):
        pair_correlation(3, 3, 0.5, 3, 1)
    with pytest.raises(ValueError):
        pair_correlation(3, 3, 0.5, 1, -1)


# ---------------------------------------------------------------------------
# diagnostics


def test_diagnostics_residuals_and_dominance():
    rep = diagnostics(3, 4, 0.5)
    assert max(rep.tt_commutators) < 1e-10
    assert max(rep.th_commutators) < 1e-10
    devs = rep.partition_sector_max
    assert all(a > b for a, b in zip(devs, devs[1:]) if a > 1e-14)
    assert devs[-1] < 1e-9
    # degenerate-form ratio dips toward zero before sector splitting
    assert min(abs(d) for d in rep.partition_degenerate) < 5e-2
    json.dumps(dataclasses.asdict(rep))


def test_diagnostics_gap_shrinks_with_width():
    gaps = [diagnostics(3, L, 0.5).max_abs_gap for L in (3, 4, 5)]
    assert gaps[0] > gaps[1] > gaps[2]

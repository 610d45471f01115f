"""Unitary encodings and their generators, checked against finite differences."""

import tracemalloc

import numpy as np
import pytest

from conftest import count_calls, random_density, random_hermitian_matrix
from metrocommute import operator_core
from metrocommute.conditions import NORM_KINDS, ProblemStack, classify, classify_stack
from metrocommute.encoding import (
    COMMUTE_TOL,
    LocalEncoding,
    LocalSpin,
    encode,
    encode_stack,
    evolve,
    hamiltonian_checks,
    hamiltonian_dim,
    hamiltonian_set,
)
from metrocommute.operator_core import ValidationError, dagger, matrix_exp_i
from metrocommute.states import (
    density_from_eigpairs,
    density_matrix,
    white_noise_state,
    white_noise_vectors,
    white_noise_weights,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def _fd_generator(hams, theta, i, step=1e-6):
    """i U(theta)^dag dU/dtheta_i by central differences on the raw unitary."""

    def u_at(t):
        k = sum(tv * h for tv, h in zip(t, hams))
        return matrix_exp_i(k, sign=-1)

    tp = np.array(theta, dtype=float)
    tm = tp.copy()
    tp[i] += step
    tm[i] -= step
    du = (u_at(tp) - u_at(tm)) / (2 * step)
    g = 1j * dagger(u_at(theta)) @ du
    return (g + dagger(g)) / 2.0


def test_hamiltonian_set_flags_commutation():
    assert hamiltonian_set([np.diag([1.0, -1.0]), np.diag([2.0, 0.0])]).commuting
    assert not hamiltonian_set([SX, SZ]).commuting


def test_hamiltonian_set_validation_messages():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="Hamiltonian 1 is not Hermitian"):
        hamiltonian_set([SZ, bad])
    with pytest.raises(ValidationError, match="mismatched dimensions"):
        hamiltonian_set([SZ, np.eye(3)])
    with pytest.raises(ValidationError, match="empty"):
        hamiltonian_set([])
    # the shapes alone, as hamiltonian_set checks them first: a LocalSpin is
    # read by its dimension, and a matrix's values are not checked
    assert hamiltonian_dim([SZ, bad]) == 2
    assert hamiltonian_dim([LocalSpin(40, 0, SZ), LocalSpin(40, 39, SX)]) == 2**40
    for hams, message in (
        ([SZ, np.eye(3)], "mismatched dimensions"),
        ([LocalSpin(40, 0, SZ), np.eye(2)], "mismatched dimensions"),
        ([], "empty"),
        ([SZ, np.zeros((2, 3))], "Hamiltonian 1 must be square"),
    ):
        with pytest.raises(ValidationError, match=message):
            hamiltonian_dim(hams)


def test_hamiltonian_checks_check_a_stack_as_hamiltonian_set_checks_each():
    rng = np.random.default_rng(4)
    sets = np.stack([[random_hermitian_matrix(rng, 3) for _ in range(2)] for _ in range(5)])
    sets[1, 1, 0, 1] += 1e-3  # Hamiltonian 1 of the second set is skewed
    sets[3, 0, 2, 2] = np.nan  # Hamiltonian 0 of the fourth is not finite
    sets[3, 1, 0, 1] += 1e-3
    for start in range(5):
        expected = None
        for k, hams in enumerate(sets[start:]):
            try:
                hamiltonian_set(list(hams))
            except ValidationError as err:
                expected = (k, str(err))
                break
        assert hamiltonian_checks(sets[start:]) == expected
    assert hamiltonian_checks(sets[1:2]) == (0, "Hamiltonian 1 is not Hermitian within tolerance 1e-10")
    assert hamiltonian_checks(sets[3:4]) == (0, "Hamiltonian 0 has non-finite entries")
    assert hamiltonian_checks(sets[4:]) is None


def test_encode_unitary_and_theta_check():
    hs = hamiltonian_set([SX, SZ])
    pt = encode(hs, [0.3, -0.7])
    assert np.allclose(pt.U @ dagger(pt.U), np.eye(2), atol=1e-12)
    with pytest.raises(ValidationError, match="2 Hamiltonians"):
        encode(hs, [0.3])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_and_classify_reject_non_finite_theta(bad):
    hs = hamiltonian_set([SX, SZ])
    rho = density_matrix(np.diag([0.75, 0.25]))
    for run in (lambda: encode(hs, [bad, 0.0]), lambda: classify(rho, hs, theta=[0.0, bad])):
        with pytest.raises(ValidationError, match="theta has non-finite entries"):
            run()


def test_encode_rejects_theta_whose_k_overflows():
    hs = hamiltonian_set([SX, SZ])
    with pytest.raises(ValidationError, match="overflows"):
        encode(hs, [1e308, 1e308])


def test_encode_does_not_validate_k_again(monkeypatch):
    rng = np.random.default_rng(63)
    hs = hamiltonian_set([random_hermitian_matrix(rng, 5) for _ in range(3)])
    checks = count_calls(monkeypatch, operator_core.require_hermitian)
    eigs = count_calls(monkeypatch, operator_core.hermitian_eig)
    theta = rng.normal(size=3)
    pt = encode(hs, theta)
    assert checks == eigs == []
    # eigh's ascending order, reversed: kappa descending, w its eigenvectors
    k = sum(t * h for t, h in zip(theta, hs.hams))
    assert np.all(np.diff(pt.kappa) <= 0)
    assert np.max(np.abs(k @ pt.w - pt.w * pt.kappa)) < 1e-12


def test_generators_equal_hamiltonians_when_commuting():
    h1 = np.kron(SZ, np.eye(2))
    h2 = np.kron(np.eye(2), SZ)
    hs = hamiltonian_set([h1, h2])
    assert hs.commuting
    pt = encode(hs, [0.4, 1.3])
    assert np.allclose(pt.generators[0], h1, atol=1e-12)
    assert np.allclose(pt.generators[1], h2, atol=1e-12)


def test_generators_match_finite_differences_noncommuting():
    rng = np.random.default_rng(10)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        hams = [random_hermitian_matrix(rng, d) for _ in range(3)]
        hs = hamiltonian_set(hams)
        theta = rng.normal(size=3)
        pt = encode(hs, theta)
        for i in range(3):
            fd = _fd_generator(hams, theta, i)
            assert np.max(np.abs(pt.generators[i] - fd)) < 1e-7


def test_generators_at_zero_are_hamiltonians():
    rng = np.random.default_rng(11)
    hams = [random_hermitian_matrix(rng, 3) for _ in range(2)]
    pt = encode(hamiltonian_set(hams), [0.0, 0.0])
    assert np.allclose(pt.U, np.eye(3), atol=1e-12)
    for g, h in zip(pt.generators, hams):
        assert np.allclose(g, h, atol=1e-10)


def test_generators_at_tiny_theta_match_first_order_expansion():
    # G_i = H_i + (i/2)[K, H_i] + O(|K|^2 |H_i|) with K = sum_j theta_j H_j;
    # at |theta| ~ 1e-8 the phase differences straddle 1e-8, where the ratio
    # (exp(ix) - 1)/(ix) cancels, and the quadratic term is below 1e-15
    rng = np.random.default_rng(13)
    hams = [random_hermitian_matrix(rng, 4) for _ in range(3)]
    hs = hamiltonian_set(hams)
    assert not hs.commuting
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    for size in np.linspace(5e-9, 1e-8, 6):
        theta = size * direction
        k = sum(t * h for t, h in zip(theta, hams))
        pt = encode(hs, theta)
        for g, h in zip(pt.generators, hams):
            expected = h + 0.5j * (k @ h - h @ k)
            assert np.max(np.abs(g - expected)) <= 1e-12 * np.linalg.norm(h)


def test_evolve_conjugates_and_preserves_spectrum():
    rng = np.random.default_rng(12)
    rho = density_matrix(random_density(rng, 4, rank=2))
    hs = hamiltonian_set([random_hermitian_matrix(rng, 4)])
    pt = encode(hs, [0.8])
    out = evolve(rho, pt)
    assert np.allclose(out.matrix, pt.U @ rho.matrix @ dagger(pt.U), atol=1e-12)
    assert np.allclose(out.spectrum.eigenvalues, rho.spectrum.eigenvalues)
    assert out.spectrum.rank == rho.spectrum.rank
    # eigenvectors stay an eigenbasis of the evolved matrix
    v = out.spectrum.eigenvectors
    recon = (v * out.spectrum.eigenvalues) @ dagger(v)
    assert np.allclose(recon, out.matrix, atol=1e-12)


def test_evolve_dimension_mismatch():
    rho = density_matrix(np.eye(2) / 2)
    pt = encode(hamiltonian_set([np.eye(3)]), [0.1])
    with pytest.raises(ValidationError, match="dimensions differ"):
        evolve(rho, pt)


PAULI = (SX, np.array([[0, -1j], [1j, 0]]), SZ)


def _block(axis):
    return sum(a * p for a, p in zip(axis, PAULI))


def _local_set(rng, sites, on, axes=None):
    """LocalSpins on `sites` qubits, one on each qubit of `on`, with random
    axes unless given."""
    if axes is None:
        axes = rng.normal(size=(len(on), 3))
    return [LocalSpin(sites, s, _block(a)) for s, a in zip(on, axes)]


def _gens(w, x):
    return w[..., None, :, :] @ x @ dagger(w)[..., None, :, :]


def _dense_arrays(enc):
    """encode_stack's (kappa, w, x), which a product form's LocalEncoding
    builds from its blocks when they are read."""
    return (enc.kappa, enc.w, enc.x) if isinstance(enc, LocalEncoding) else enc


# (sites, qubit of each Hamiltonian, axes or None for random ones, theta scale)
LOCAL_CASES = {
    "one site": (3, [1, 1, 1], None, 1.0),
    # distinct sites commute; qubit 1 is idle
    "distinct sites": (3, [2, 0], None, 1.0),
    "shared sites": (4, [0, 0, 3, 3], None, 1.0),
    "all sites": (3, [0, 1, 2], None, 1.0),
    "theta = 0": (3, [0, 0, 2], None, 0.0),
    # two parallel blocks on qubit 1, qubits 0 and 2 idle: K has two
    # eigenvalues, each four-fold
    "repeated eigenvalues": (3, [1, 1], [[0.3, -0.4, 1.2], [0.6, -0.8, 2.4]], 1.0),
    # a shared and a distinct site, qubits 0 and 3 idle
    "two idle sites": (4, [2, 2, 1], None, 1.0),
}

# the parts of a product-form point that are built only when read
POINT_BUILT_ON_READ = {"kappa", "w", "elems", "U", "generator_stack"}


def _assert_same_classification(rep_p, rep_d):
    """The reports of one problem given in product form and densely agree:
    flags and ranks exactly, the SLD rows, W, QFIM, norms and scale within
    1e-12 x scale."""
    tol = 1e-12 * rep_d.scale
    assert rep_p.flags == rep_d.flags
    assert rep_p.scale == pytest.approx(rep_d.scale, rel=1e-13)
    for kind, norm in rep_d.norms.items():
        assert abs(rep_p.norms[kind] - norm) <= tol
    for a, b in (
        (rep_p.slds.rows, rep_d.slds.rows),
        (rep_p.W.entries, rep_d.W.entries),
        (rep_p.qfim.matrix, rep_d.qfim.matrix),
    ):
        assert np.max(np.abs(a - b)) <= tol
    assert np.max(np.abs(rep_p.qfim.matrix - rep_d.qfim.matrix)) < 1e-12
    assert rep_p.qfim.rank == rep_d.qfim.rank
    assert (rep_p.E is None) == (rep_d.E is None)
    if rep_d.E is not None:
        assert rep_p.E == pytest.approx(rep_d.E, rel=1e-10, abs=1e-13)


def _assert_point_matches_dense(pt, dense):
    """A product-form point builds its generators, U, kappa and elems when
    they are read, equal to the dense encode's within 1e-13; elems in the
    point's own eigenbasis of K, which a degenerate K does not fix."""
    assert not POINT_BUILT_ON_READ & vars(pt).keys()
    assert (pt.dim, pt.m) == (dense.dim, dense.m)
    assert np.max(np.abs(pt.generator_stack - dense.generator_stack)) < 1e-13
    assert np.max(np.abs(pt.U - dense.U)) < 1e-13
    assert np.max(np.abs(pt.kappa - dense.kappa)) < 1e-13
    assert np.max(np.abs(pt.elems - dagger(pt.w) @ dense.generator_stack @ pt.w)) < 1e-13
    assert POINT_BUILT_ON_READ <= vars(pt).keys()


@pytest.mark.parametrize("case", list(LOCAL_CASES))
def test_product_encoding_matches_the_dense_encoding(case):
    sites, on, axes, size = LOCAL_CASES[case]
    rng = np.random.default_rng(sorted(LOCAL_CASES).index(case))
    spins = _local_set(rng, sites, on, axes)
    product = hamiltonian_set(spins)
    dense = hamiltonian_set([h.matrix() for h in spins])
    assert product.local is not None and dense.local is None
    assert (product.dim, product.m) == (dense.dim, dense.m)
    theta = size * rng.normal(size=len(on))
    kp, wp, xp = _dense_arrays(encode_stack(product.batch, theta))
    kd, wd, xd = encode_stack(dense.batch, theta)
    assert np.all(np.diff(kp[0]) <= 0)
    assert np.max(np.abs(kp - kd)) < 1e-13
    assert np.max(np.abs(_gens(wp, xp) - _gens(wd, xd))) < 1e-13
    if size == 0.0:
        # U = I: w = I and X_i = H_i exactly
        assert np.array_equal(wp[0], np.eye(product.dim)) and np.array_equal(xp[0], dense.stack)
    d = product.dim
    for rank in (1, 2, d // 2, d):
        rho = density_matrix(random_density(rng, d, rank=rank))
        rep_p, rep_d = (classify(rho, hs, theta=theta) for hs in (product, dense))
        assert "stack" not in vars(product)
        assert rep_p.rank == rank
        _assert_same_classification(rep_p, rep_d)
        _assert_point_matches_dense(rep_p.point, encode(dense, theta))


def test_a_product_set_at_several_thetas_matches_the_dense_set():
    rng = np.random.default_rng(31)
    sites = 3
    spins = hamiltonian_set(_local_set(rng, sites, [0, 0, 2])).local
    dense = spins.matrices()[None]
    thetas = rng.normal(size=(4, 3))
    thetas[2] = 0.0
    rho = density_matrix(random_density(rng, 2**sites, rank=5)).spectrum
    lam, vectors = rho.eigenvalues[None], rho.eigenvectors[None]
    for th in thetas:
        kp, wp, xp = _dense_arrays(encode_stack(spins, th))
        kd, wd, xd = encode_stack(dense, th)
        assert kp.shape == kd.shape and wp.shape == wd.shape and xp.shape == xd.shape
        assert np.max(np.abs(kp - kd)) < 1e-13
        assert np.max(np.abs(_gens(wp, xp) - _gens(wd, xd))) < 1e-13
        runs = [
            classify_stack(ProblemStack(n=1, rank=5, lam=lam, vectors=vectors, hams=h, theta=th))
            for h in (spins, dense)
        ]
        assert np.array_equal(runs[0].flags, runs[1].flags)
        assert np.max(np.abs(runs[0].norms - runs[1].norms)) <= 1e-12 * np.max(runs[1].scale)
        assert np.max(np.abs(runs[0].f - runs[1].f)) < 1e-12
        assert np.allclose(runs[0].E, runs[1].E, rtol=1e-10, atol=1e-13, equal_nan=True)


def test_a_stacked_white_noise_sweep_on_a_product_set_matches_the_dense_set():
    # N > 1 points of one white_noise state swept over p, sharing one (1, d, d)
    # basis and one product-form set
    rng = np.random.default_rng(53)
    sites = 4
    d = 2**sites
    product = hamiltonian_set(_local_set(rng, sites, [1, 1, 3]))
    spins, dense = product.local, product.local.matrices()[None]
    theta = rng.normal(size=3)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    ps = np.linspace(0.1, 0.9, 5)
    lam, vectors = white_noise_vectors(psi).spectra(np.array([white_noise_weights(p, d) for p in ps]))
    assert lam.shape == (5, d) and vectors.shape == (1, d, d)
    runs = [
        classify_stack(ProblemStack(n=5, rank=d, lam=lam, vectors=vectors, hams=h, theta=theta))
        for h in (spins, dense)
    ]
    assert runs[0].rows.shape == (5, 3, d, d)
    tol = 1e-12 * np.max(runs[1].scale)
    assert np.array_equal(runs[0].flags, runs[1].flags)
    for name in ("norms", "scale", "rows", "w_stack", "f"):
        assert np.max(np.abs(getattr(runs[0], name) - getattr(runs[1], name))) <= tol
    assert np.allclose(runs[0].E, runs[1].E, rtol=1e-10, atol=1e-13, equal_nan=True)
    # each stacked point is the one-point classify of its own state
    for k, p in enumerate(ps):
        rep = classify(white_noise_state(psi, p), product, theta=theta)
        assert np.max(np.abs(runs[0].norms[k] - [rep.norms[kind] for kind in NORM_KINDS])) <= tol
        assert np.max(np.abs(runs[0].rows[k] - rep.slds.rows)) <= tol


def test_classify_on_a_large_local_set_builds_no_dense_stack():
    rng = np.random.default_rng(37)
    sites = 8
    hs = hamiltonian_set(_local_set(rng, sites, [2, 2, 5]))
    vecs, _ = np.linalg.qr(rng.normal(size=(2**sites, 4)) + 1j * rng.normal(size=(2**sites, 4)))
    rho = density_from_eigpairs(zip([0.4, 0.3, 0.2, 0.1], vecs.T))
    theta = rng.normal(size=3)
    report = classify(rho, hs, theta=theta)
    assert "stack" not in vars(hs)
    assert report.dim == hs.dim == 256
    # the point holds the 2 x 2 blocks; w and elems are built when read
    assert not POINT_BUILT_ON_READ & vars(report.point).keys()
    # one classify of a rank-32 state at d = 256, m = 3 builds no (m, d, d)
    # stack: its tracemalloc peak stays under 12 MiB
    vecs, _ = np.linalg.qr(rng.normal(size=(2**sites, 32)) + 1j * rng.normal(size=(2**sites, 32)))
    rho_32 = density_from_eigpairs(zip(rng.dirichlet(np.ones(32)), vecs.T))
    classify(rho_32, hs, theta=theta)
    tracemalloc.start()
    try:
        classify(rho_32, hs, theta=theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    assert not hs.commuting and "stack" not in vars(hs)
    # a route reads the dense Hamiltonians: built on first read
    assert np.array_equal(hs.hams[1], LocalSpin(sites, 2, hs.local.blocks[1]).matrix())
    assert "stack" in vars(hs)
    _assert_point_matches_dense(report.point, encode(hamiltonian_set(hs.hams), theta))


def test_lists_that_are_not_one_register_of_local_spins_are_checked_densely():
    rng = np.random.default_rng(41)
    spins = _local_set(rng, 2, [0, 1])
    mixed = hamiltonian_set([spins[0], spins[1].matrix()])
    assert mixed.local is None
    assert np.array_equal(mixed.stack, hamiltonian_set(spins).stack)
    # a LocalSpin's dimension is compared before it is built
    for hams in ([spins[0], LocalSpin(12, 0, SZ)], [np.eye(4), LocalSpin(12, 0, SZ)]):
        with pytest.raises(ValidationError, match="mismatched dimensions"):
            hamiltonian_set(hams)


def _commuting_loop(mats, copies=1.0, site=None):
    """The commutation test as a literal loop over the pairs i < j, the
    reference the pair-axis test is pinned to: on a product-form set, `mats`
    are the 2 x 2 blocks, pairs on distinct sites are skipped, and the dense
    norms are the blocks' times sqrt(copies)."""
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if site is not None and site[i] != site[j]:
                continue
            a, b = mats[i], mats[j]
            bound = COMMUTE_TOL * max(1.0, np.linalg.norm(a) * np.linalg.norm(b) * copies)
            if np.linalg.norm(a @ b - b @ a) * np.sqrt(copies) > bound:
                return False
    return True


def test_the_commutation_flag_of_a_local_set_is_the_dense_one():
    rng = np.random.default_rng(43)
    near_parallel = []
    for sites in (1, 2, 4):
        for _ in range(8):
            on = rng.integers(0, sites, size=3)
            if rng.random() < 0.3:
                on[:] = on[0]
            axes = rng.normal(size=(3, 3))
            # a tilt of 1e-13 to 1e-7 straddles COMMUTE_TOL
            tilt = 10.0 ** rng.uniform(-13, -7)
            axes[1] = rng.uniform(0.5, 2.0) * axes[0] + tilt * rng.normal(size=3)
            pair = _local_set(rng, sites, on[:2], axes[:2])
            for hams in (
                _local_set(rng, sites, on),
                _local_set(rng, sites, on, axes),
                pair,
                _local_set(rng, sites, list(range(sites))),
                # m = 1, whose pair axis is empty, and m = 4
                pair[:1],
                pair + _local_set(rng, sites, on[1:], axes[1:]),
            ):
                dense = [h.matrix() for h in hams]
                product = hamiltonian_set(hams)
                spins = product.local
                # each form is pinned, bit for bit, to the literal loop
                local = _commuting_loop(spins.blocks, 2.0 ** (sites - 1), spins.site)
                assert product.commuting == local
                assert hamiltonian_set(dense).commuting == _commuting_loop(dense)
                assert product.commuting == _commuting_loop(dense)
            if on[0] == on[1]:
                near_parallel.append(hamiltonian_set(pair).commuting)
    assert any(near_parallel) and not all(near_parallel)

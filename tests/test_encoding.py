"""Unitary encodings and their generators, checked against finite differences."""

import numpy as np
import pytest

from conftest import random_density, random_hermitian_matrix
from metrocommute.encoding import encode, evolve, hamiltonian_set
from metrocommute.operator_core import ValidationError, dagger, matrix_exp_i
from metrocommute.states import density_matrix

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


def test_encode_unitary_and_theta_check():
    hs = hamiltonian_set([SX, SZ])
    pt = encode(hs, [0.3, -0.7])
    assert np.allclose(pt.U @ dagger(pt.U), np.eye(2), atol=1e-12)
    with pytest.raises(ValidationError, match="2 Hamiltonians"):
        encode(hs, [0.3])


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

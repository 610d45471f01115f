"""SLD construction by two routes, copy-space SLDs, and classical Fisher
information, cross-checked against finite-difference state derivatives."""

import numpy as np
import pytest

from conftest import literal_sld_elems, random_density, random_hermitian_matrix, spectral_cases
from metrocommute.encoding import LocalSpin, encode, hamiltonian_set
from metrocommute.operator_core import ValidationError, dagger, tensor
from metrocommute.sld import (
    cfim,
    nu_copy_sld,
    sld_encoded,
    sld_lyapunov,
    sld_rotated,
    sld_row_stack,
)
from metrocommute.states import density_matrix, povm_set, tensor_power


def _problem(rng, d, rank, m=2):
    rho = density_matrix(random_density(rng, d, rank=rank))
    hs = hamiltonian_set([random_hermitian_matrix(rng, d) for _ in range(m)])
    theta = rng.normal(size=m)
    pt = encode(hs, theta)
    return rho, hs, theta, pt


def _fd_drho_encoded(rho, hs, theta, i, step=1e-6):
    """Central-difference derivative of the encoded state along parameter i."""
    tp = np.array(theta, dtype=float)
    tm = tp.copy()
    tp[i] += step
    tm[i] -= step
    up = encode(hs, tp).U
    um = encode(hs, tm).U
    return (up @ rho.matrix @ dagger(up) - um @ rho.matrix @ dagger(um)) / (2 * step)


@pytest.mark.parametrize("form", ["dense", "local_spin"])
def test_rows_on_a_shared_basis_match_single_problems_bit_for_bit(form):
    # the sweep layout: N weight rows on one (1, d, d) basis and one encoding
    # give a (1, m, r, d) product that the (N, 1, r, d) coefficients scale
    # into one new (N, m, r, d) array; each problem's rows equal those of its
    # own call, whose product is scaled in place, and those of a stack that
    # repeats the basis
    rng = np.random.default_rng(34)
    d, rank, n, m = 8, 3, 5, 3
    if form == "dense":
        hams = [random_hermitian_matrix(rng, d) for _ in range(m)]
    else:
        hams = [LocalSpin(3, s, random_hermitian_matrix(rng, 2)) for s in (0, 2, 2)]
    hs = hamiltonian_set(hams)
    assert (hs.local is None) == (form == "dense")
    enc = encode(hs, rng.normal(size=m))
    v = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0][None]
    lam = np.zeros((n, d))
    lam[:, :rank] = np.sort(rng.random((n, rank)))[:, ::-1]
    lam /= lam.sum(axis=1, keepdims=True)
    rows = sld_row_stack(lam, rank, v, enc)
    assert rows.shape == (n, m, rank, d)
    for k in range(n):
        assert np.array_equal(rows[k], sld_row_stack(lam[k : k + 1], rank, v, enc)[0])
    assert np.array_equal(rows, sld_row_stack(lam, rank, np.repeat(v, n, axis=0), enc))


def test_slds_hermitian_and_support_gauge():
    rng = np.random.default_rng(20)
    rho, _, _, pt = _problem(rng, 5, rank=2)
    slds = sld_rotated(rho.spectrum, pt)
    pi_ker = rho.spectrum.kernel_projector
    for l in slds.ops:
        assert np.allclose(l, dagger(l), atol=1e-12)
        # kernel-kernel block fixed to zero by the gauge choice
        assert np.max(np.abs(pi_ker @ l @ pi_ker)) < 1e-12


def test_fused_rows_match_the_literal_eigenbasis_slds():
    # l_i = 2i coeff o (V^dag G_i V) from the computational-basis generators
    for label, rho, hams, theta in spectral_cases(28):
        spec = rho.spectrum
        pt = encode(hamiltonian_set(hams), theta)
        slds = sld_rotated(spec, pt)
        r = spec.rank
        assert slds.rows.shape == (len(hams), r, spec.dim), label
        literals = literal_sld_elems(spec, pt.generators)
        for g, elem, literal in zip(pt.generators, slds.elems, literals):
            dev = np.max(np.abs(elem - literal))
            assert dev < 1e-12 * max(1.0, np.linalg.norm(g)), (label, dev)
        assert not np.any(slds.elems[:, r:, r:]), label


def test_sld_defining_equation_full_rank():
    # U L U^dag solves d(rho_theta) = (L' rho_theta + rho_theta L') / 2
    rng = np.random.default_rng(21)
    for _ in range(4):
        rho, hs, theta, pt = _problem(rng, 4, rank=4)
        slds = sld_rotated(rho.spectrum, pt)
        rho_t = pt.U @ rho.matrix @ dagger(pt.U)
        for i, l_enc in enumerate(sld_encoded(slds, pt)):
            drho = _fd_drho_encoded(rho, hs, theta, i)
            resid = (l_enc @ rho_t + rho_t @ l_enc) / 2 - drho
            assert np.max(np.abs(resid)) < 1e-7


def test_sld_defining_equation_rank_deficient():
    # the kernel-kernel block of both sides vanishes, so the defining
    # equation holds globally even though that block of L is gauge-fixed
    rng = np.random.default_rng(22)
    rho, hs, theta, pt = _problem(rng, 4, rank=2)
    slds = sld_rotated(rho.spectrum, pt)
    rho_t = pt.U @ rho.matrix @ dagger(pt.U)
    for i, l_enc in enumerate(sld_encoded(slds, pt)):
        drho = _fd_drho_encoded(rho, hs, theta, i)
        resid = (l_enc @ rho_t + rho_t @ l_enc) / 2 - drho
        assert np.max(np.abs(resid)) < 1e-7


def test_lyapunov_route_matches_rotated_route():
    rng = np.random.default_rng(23)
    for rank in (4, 2):
        rho, hs, theta, pt = _problem(rng, 4, rank=rank)
        slds = sld_rotated(rho.spectrum, pt)
        # rotated-frame derivative: i [rho, G_i] is the frame-fixed generator form
        for g, l_rot in zip(pt.generators, slds.ops):
            drho = 1j * (rho.matrix @ g - g @ rho.matrix)
            drho = (drho + dagger(drho)) / 2.0
            l_lyap = sld_lyapunov(rho, drho)
            assert np.max(np.abs(l_lyap - l_rot)) < 1e-9


def test_lyapunov_validation():
    rho = density_matrix(np.diag([0.7, 0.3]))
    with pytest.raises(ValidationError, match="trace-zero"):
        sld_lyapunov(rho, np.diag([1.0, 0.0]))
    with pytest.raises(ValidationError, match="not Hermitian"):
        sld_lyapunov(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_nu_copy_sld_additive_structure():
    rng = np.random.default_rng(25)
    rho, _, _, pt = _problem(rng, 3, rank=3)
    slds = sld_rotated(rho.spectrum, pt)
    two = nu_copy_sld(slds, 2)
    eye = np.eye(3)
    for l1, l2 in zip(slds.ops, two.ops):
        expected = tensor(l1, eye) + tensor(eye, l1)
        assert np.max(np.abs(l2 - expected)) < 1e-10  # full rank: no gauge fixup
    assert nu_copy_sld(slds, 1) is slds
    with pytest.raises(ValidationError, match="nu must be"):
        nu_copy_sld(slds, 5)


def test_nu_copy_sld_kernel_gauge():
    rng = np.random.default_rng(26)
    rho, _, _, pt = _problem(rng, 3, rank=2)
    slds = sld_rotated(rho.spectrum, pt)
    two = nu_copy_sld(slds, 2)
    pi_ker = tensor_power(rho, 2).spectrum.kernel_projector
    for l in two.ops:
        assert np.max(np.abs(pi_ker @ l @ pi_ker)) < 1e-10
        assert np.allclose(l, dagger(l), atol=1e-12)


def test_cfim_against_probability_derivatives():
    rng = np.random.default_rng(27)
    rho, hs, theta, pt = _problem(rng, 3, rank=3)
    rho_t = density_matrix(pt.U @ rho.matrix @ dagger(pt.U))
    slds_enc = sld_encoded(sld_rotated(rho.spectrum, pt), pt)
    basis = np.linalg.eigh(random_hermitian_matrix(rng, 3))[1]
    povm = povm_set([np.outer(basis[:, k], basis[:, k].conj()) for k in range(3)])
    out = cfim(rho_t, povm, slds_enc)

    step = 1e-6
    m = len(theta)
    grads = np.zeros((m, 3))
    for i in range(m):
        drho = _fd_drho_encoded(rho, hs, theta, i, step)
        grads[i] = [np.trace(drho @ e).real for e in povm.effects]
    probs = np.array([np.trace(rho_t.matrix @ e).real for e in povm.effects])
    expected = sum(
        np.outer(grads[:, w], grads[:, w]) / p for w, p in enumerate(probs) if p > 1e-12
    )
    assert np.max(np.abs(out.matrix - expected)) < 1e-5
    assert np.allclose(out.probabilities, probs, atol=1e-12)
    assert out.probabilities.sum() == pytest.approx(1.0, abs=1e-10)


def test_cfim_drops_zero_probability_outcomes():
    rho = density_matrix(np.diag([1.0, 0.0]))
    povm = povm_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    hs = hamiltonian_set([np.array([[0, 1], [1, 0]], dtype=complex)])
    pt = encode(hs, [0.0])
    slds = sld_rotated(rho.spectrum, pt)
    out = cfim(rho, povm, slds)
    assert np.all(np.isfinite(out.matrix))


def test_dimension_mismatch_rejected():
    rho = density_matrix(np.eye(2) / 2)
    pt = encode(hamiltonian_set([np.eye(3)]), [0.1])
    with pytest.raises(ValidationError, match="dimensions differ"):
        sld_rotated(rho.spectrum, pt)

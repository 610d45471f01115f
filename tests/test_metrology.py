"""QFIM, scalar precision bounds, the incompatibility measure, the
quantum-classical Fisher ordering, and copy additivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import QFIM_SPOTS, random_density, random_hermitian_matrix, sub_cutoff_state
from metrocommute.conditions import classify
from metrocommute.encoding import encode, hamiltonian_set
from metrocommute.examples import example_configuration
from metrocommute.metrology import (
    CONDITION_LIMIT,
    SINGULAR_MESSAGE,
    incompatibility,
    incompatibility_stack,
    qcr_scalar,
    qfim,
    qfim_additivity,
    verify_fc_order,
)
from metrocommute.operator_core import ValidationError, dagger
from metrocommute.sld import sld_encoded, sld_rotated
from metrocommute.states import bell_diagonal, density_matrix, povm_set


def _problem(rng, d, rank, m=2):
    rho = density_matrix(random_density(rng, d, rank=rank))
    hs = hamiltonian_set([random_hermitian_matrix(rng, d) for _ in range(m)])
    theta = rng.normal(size=m)
    pt = encode(hs, theta)
    return rho, hs, theta, pt


def _fd_drho_encoded(rho, hs, theta, i, step=1e-6):
    tp = np.array(theta, dtype=float)
    tm = tp.copy()
    tp[i] += step
    tm[i] -= step
    up = encode(hs, tp).U
    um = encode(hs, tm).U
    return (up @ rho.matrix @ dagger(up) - um @ rho.matrix @ dagger(um)) / (2 * step)


def test_qfim_symmetric_psd_with_rank():
    rng = np.random.default_rng(50)
    rho, _, _, pt = _problem(rng, 4, 3, m=3)
    f = qfim(rho, sld_rotated(rho.spectrum, pt))
    assert np.allclose(f.matrix, f.matrix.T, atol=1e-12)
    assert np.linalg.eigvalsh(f.matrix).min() > -1e-10
    assert f.rank == 3
    assert np.isfinite(f.condition_number)


def test_qfim_against_derivative_identity():
    # F_ij = Re tr[d_i(rho_theta) L_j'] with L' the encoded-frame SLDs and
    # the derivative taken by finite differences: an independent route
    rng = np.random.default_rng(51)
    for rank in (4, 2):
        rho, hs, theta, pt = _problem(rng, 4, rank)
        slds = sld_rotated(rho.spectrum, pt)
        f = qfim(rho, slds).matrix
        l_enc = sld_encoded(slds, pt)
        m = len(theta)
        expected = np.zeros((m, m))
        for i in range(m):
            drho = _fd_drho_encoded(rho, hs, theta, i)
            for j in range(m):
                expected[i, j] = np.trace(drho @ l_enc[j]).real
        expected = (expected + expected.T) / 2
        assert np.max(np.abs(f - expected)) < 1e-6


def _bures_qfim(rho, hams, h):
    """QFIM at theta = 0 from the Bures metric, with plain numpy only.

    1 - sqrt(Fid(rho, U rho U^dag)) = theta^T F theta / 8 + O(h^4) for
    U = exp(-i sum_i theta_i H_i), so the diagonal comes from theta = h e_i
    and the off-diagonal entries by polarisation at theta = h (e_i + e_j).
    sqrt(Fid) is taken as the nuclear norm ||sqrt(rho) U sqrt(rho)||_1: the
    square roots of the eigenvalues of sqrt(rho) sigma sqrt(rho) lose the
    O(h^2) signal on rank-deficient states.
    """
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T

    def scaled_infidelity(theta):
        k, kv = np.linalg.eigh(sum(t * hm for t, hm in zip(theta, hams)))
        u = (kv * np.exp(-1j * k)) @ kv.conj().T
        root_fid = np.linalg.svd(root @ u @ root, compute_uv=False).sum()
        return 8.0 * (1.0 - root_fid) / h**2

    steps = h * np.eye(len(hams))
    f = np.diag([scaled_infidelity(s) for s in steps])
    for i in range(len(hams)):
        for j in range(i + 1, len(hams)):
            both = scaled_infidelity(steps[i] + steps[j])
            f[i, j] = f[j, i] = (both - f[i, i] - f[j, j]) / 2.0
    return f


def _spot_problem(ex_id):
    params, reference = QFIM_SPOTS[ex_id]
    rho, hs = example_configuration(ex_id, params)
    return rho, hs, reference


@pytest.mark.parametrize("ex_id", sorted(QFIM_SPOTS))
def test_bures_metric_anchors_spot_references(ex_id):
    # two steps agree with each other and with the criterion-2 reference; a
    # factor-2 error in a reference would show as a deviation of 0.375 or more
    rho, hs, reference = _spot_problem(ex_id)
    coarse = _bures_qfim(rho.matrix, hs.hams, 1e-3)
    fine = _bures_qfim(rho.matrix, hs.hams, 1e-4)
    assert np.max(np.abs(coarse - fine)) <= 1e-5
    assert np.max(np.abs(coarse - reference)) <= 1e-5
    assert np.max(np.abs(fine - reference)) <= 1e-5


@pytest.mark.parametrize("ex_id", sorted(QFIM_SPOTS))
def test_qfim_matches_bures_metric_at_spots(ex_id):
    rho, hs, _ = _spot_problem(ex_id)
    f = qfim(rho, sld_rotated(rho.spectrum, encode(hs, np.zeros(hs.m)))).matrix
    assert np.max(np.abs(f - _bures_qfim(rho.matrix, hs.hams, 1e-4))) <= 1e-5


def test_qfim_reads_a_raw_matrix_state_as_cut():
    # density_matrix of a pure state plus 5e-11: qfim reads the state's
    # matrix, which carries the cut spectrum that classify reads
    rng = np.random.default_rng(3)
    rho = density_matrix(sub_cutoff_state(rng, [5e-11]))
    hs = hamiltonian_set([np.diag(rng.normal(size=4)) for _ in range(2)])
    theta = rng.normal(size=2)
    rep = classify(rho, hs, theta=theta)
    f = qfim(rho, sld_rotated(rho.spectrum, encode(hs, theta)))
    assert np.max(np.abs(f.matrix - rep.qfim.matrix)) <= 1e-14 * rep.scale


def test_qfim_accepts_raw_operator_list():
    rng = np.random.default_rng(52)
    rho, _, _, pt = _problem(rng, 3, 3)
    slds = sld_rotated(rho.spectrum, pt)
    f1 = qfim(rho, slds).matrix
    f2 = qfim(rho, list(slds.ops)).matrix
    assert np.array_equal(f1, f2)


def test_qcr_scalar_literal_arithmetic():
    # trace of the inverse: [[2, -1.2], [-1.2, 2]] has det 2.56, so
    # tr F^-1 = (2 + 2) / 2.56 = 1.5625
    f = np.array([[2.0, -1.2], [-1.2, 2.0]])
    assert qcr_scalar(f) == pytest.approx(1.5625, abs=1e-12)
    weight = np.diag([2.0, 1.0])
    expected = np.trace(np.linalg.inv(f) @ weight)
    assert qcr_scalar(f, weight) == pytest.approx(expected, abs=1e-12)


def test_qcr_scalar_validation():
    f = np.eye(2)
    with pytest.raises(ValidationError, match="shape mismatch"):
        qcr_scalar(f, np.eye(3))
    with pytest.raises(ValidationError, match="symmetric"):
        qcr_scalar(f, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValidationError, match="positive definite"):
        qcr_scalar(f, np.diag([1.0, -1.0]))
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValidationError, match=SINGULAR_MESSAGE):
        qcr_scalar(singular)


def test_incompatibility_zero_iff_weak_condition():
    # entangled-basis mixtures with local generators have W = 0, hence E = 0
    rng = np.random.default_rng(53)
    w = rng.dirichlet(np.ones(4))
    sym = np.array([w[0], w[1], w[2], w[3]])
    bd = bell_diagonal(sym / sym.sum(), 2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0])
    hs = hamiltonian_set([np.kron(sx, np.eye(2)), np.kron(sz, np.eye(2))])
    pt = encode(hs, [0.0, 0.0])
    slds = sld_rotated(bd.rho.spectrum, pt)
    f = qfim(bd.rho, slds)
    from metrocommute.conditions import weak_direct

    w_mat = weak_direct(bd.rho, slds)
    if np.isfinite(f.condition_number) and f.condition_number < 1e12:
        out = incompatibility(f, w_mat)
        assert out.e_value == pytest.approx(0.0, abs=1e-9)
        assert out.sandwich_factor == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_incompatibility_bounded_by_one(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    rho, _, _, pt = _problem(rng, d, d)
    slds = sld_rotated(rho.spectrum, pt)
    f = qfim(rho, slds)
    if not np.isfinite(f.condition_number) or f.condition_number > 1e10:
        return
    from metrocommute.conditions import weak_direct

    out = incompatibility(f, weak_direct(rho, slds))
    assert -1e-12 <= out.e_value <= 1.0 + 1e-9
    assert out.sandwich_factor == pytest.approx(1.0 + out.e_value)


def _hermitian_e(f, w):
    """E by a Hermitian route: with F = C C^T (Cholesky) and W = iA, A real
    antisymmetric, C^-1 W C^-T is Hermitian and similar to F^-1 W."""
    c = np.linalg.cholesky(f)
    x = np.linalg.solve(c, np.linalg.solve(c, w).T).T
    return 0.5 * np.max(np.abs(np.linalg.eigvalsh(x)))


def test_incompatibility_matches_the_hermitian_route():
    # both routes lose about cond(F) ulps, so the deviation is held to
    # 16 eps cond(F); the worst, at 0.9 CONDITION_LIMIT, is 6.5e-6 relative
    tol = 16 * np.finfo(float).eps
    rng = np.random.default_rng(61)
    for d, rank, m in ((3, 2, 2), (4, 2, 3), (5, 3, 4), (6, 6, 2), (8, 8, 4), (16, 5, 3)) * 3:
        rho = density_matrix(random_density(rng, d, rank=rank))
        hs = hamiltonian_set([random_hermitian_matrix(rng, d) for _ in range(m)])
        rep = classify(rho, hs, theta=rng.normal(size=m))
        f = rep.qfim
        assert abs(rep.E - _hermitian_e(f.matrix, rep.W.entries)) <= tol * f.condition_number
    # QFIMs conditioned up to just below the limit, with W = i F^1/2 K F^1/2
    # in F's eigenbasis, so that E = (1/2) max |eig(iK)|
    for cond in (1e6, 1e9, 1e11, 0.9 * CONDITION_LIMIT):
        for m in (2, 3, 4):
            o, _ = np.linalg.qr(rng.normal(size=(m, m)))
            s = np.logspace(0, -np.log10(cond), m)
            f = (o * s) @ o.T
            f = (f + f.T) / 2.0
            k = rng.normal(size=(m, m))
            half = o * np.sqrt(s)
            w = 1j * (half @ (k - k.T) @ half.T)
            e = incompatibility_stack(f[None], w[None])[0]
            assert abs(e - _hermitian_e(f, w)) <= tol * cond * e, (cond, m)
            exact = 0.5 * np.max(np.abs(np.linalg.eigvalsh(1j * (k - k.T))))
            assert e == pytest.approx(exact, rel=tol * cond), (cond, m)


def test_incompatibility_singular_message():
    with pytest.raises(ValidationError, match=SINGULAR_MESSAGE):
        incompatibility(np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros((2, 2)))


def test_condition_limit_refuses_positive_definite_ill_conditioned_qfims():
    w = np.array([[0.0, 0.3j], [-0.3j, 0.0]])
    below, beyond = np.diag([1.0, 10.0 / CONDITION_LIMIT]), np.diag([1.0, 0.1 / CONDITION_LIMIT])
    assert incompatibility(below, w).e_value > 0
    assert qcr_scalar(below) > 0
    for refused in (lambda: incompatibility(beyond, w), lambda: qcr_scalar(beyond)):
        with pytest.raises(ValidationError, match=SINGULAR_MESSAGE):
            refused()
    # the stacked form marks the refused QFIM and evaluates the others
    e = incompatibility_stack(np.stack([below, beyond, np.eye(2)]), np.stack([w] * 3))
    assert np.isnan(e[1]) and not np.isnan(e[0])
    assert e[2] == pytest.approx(0.15)  # (1/2) max |eig(W)| at F = 1


def test_fisher_order_random_povm():
    rng = np.random.default_rng(54)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        rho, _, _, pt = _problem(rng, d, d)
        slds = sld_rotated(rho.spectrum, pt)
        effects = []
        raw = [np.abs(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for _ in range(3)]
        mats = [r @ r.conj().T for r in raw]
        total = sum(mats)
        vals, vecs = np.linalg.eigh(total)
        inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
        effects = [inv_sqrt @ m0 @ inv_sqrt for m0 in mats]
        povm = povm_set(effects)
        ok, witness = verify_fc_order(rho, povm, slds)
        assert ok, witness


def test_single_parameter_sld_eigenbasis_saturates():
    rng = np.random.default_rng(55)
    rho, _, _, pt = _problem(rng, 4, 4, m=1)
    slds = sld_rotated(rho.spectrum, pt)
    f_q = qfim(rho, slds).matrix
    vals, vecs = np.linalg.eigh(slds.ops[0])
    povm = povm_set([np.outer(vecs[:, k], vecs[:, k].conj()) for k in range(4)])
    from metrocommute.sld import cfim

    f_c = cfim(rho, povm, slds).matrix
    assert abs(f_q[0, 0] - f_c[0, 0]) < 1e-9


def test_qfim_additivity_two_and_three_copies():
    rng = np.random.default_rng(56)
    rho, _, _, pt = _problem(rng, 3, 2)
    assert qfim_additivity(rho, pt, 2) < 1e-10
    assert qfim_additivity(rho, pt, 3) < 1e-10


def test_qfim_condition_number_infinite_when_singular():
    # one Hamiltonian proportional to another makes the QFIM rank 1
    rng = np.random.default_rng(57)
    h = random_hermitian_matrix(rng, 3)
    hs = hamiltonian_set([h, 2 * h])
    rho = density_matrix(random_density(rng, 3))
    pt = encode(hs, [0.0, 0.0])
    f = qfim(rho, sld_rotated(rho.spectrum, pt))
    assert f.rank == 1
    assert not np.isfinite(f.condition_number)
    with pytest.raises(ValidationError, match=SINGULAR_MESSAGE):
        qcr_scalar(f)

"""Density-matrix construction, spectral data, state families, and POVMs."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, sub_cutoff_state
from metrocommute import states
from metrocommute.operator_core import ValidationError, partial_trace, tensor
from metrocommute.states import (
    EigpairVectors,
    bell_diagonal,
    density_from_eigpairs,
    density_matrix,
    eigpair_weight_rows,
    povm_set,
    state_marginal,
    tensor_power,
    transpose_invariant,
    white_noise_state,
)


def test_density_matrix_valid_full_rank():
    rng = np.random.default_rng(0)
    rho = density_matrix(random_density(rng, 4))
    assert rho.dim == 4
    assert rho.spectrum.rank == 4
    assert np.all(np.diff(rho.spectrum.eigenvalues) <= 1e-14)  # descending
    v = rho.spectrum.eigenvectors
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)
    recon = (v * rho.spectrum.eigenvalues) @ v.conj().T
    assert np.allclose(recon, rho.matrix, atol=1e-12)


def _first_error(build, items):
    """(index, message) of the first item that build rejects, or None."""
    for k, item in enumerate(items):
        try:
            build(item)
        except ValidationError as err:
            return k, str(err)
    return None


def test_density_matrix_checks_in_order_with_one_message_each():
    rng = np.random.default_rng(3)
    good = random_density(rng, 3, 2)
    skew = good.copy()
    skew[0, 1] += 1e-3
    trace = np.diag([0.5, 0.4, 0.0]).astype(complex)
    negative = np.diag([1.1, -0.1, 0.0]).astype(complex)
    nonfinite = skew.copy()
    nonfinite[2, 2] = np.inf
    skew_trace = skew * 0.9
    negative_trace = negative * 2.0
    for mat, message in [
        (nonfinite, "density matrix has non-finite entries"),
        (skew, "density matrix is not Hermitian within tolerance 1e-10"),
        (skew_trace, "density matrix is not Hermitian within tolerance 1e-10"),
        (trace, "density matrix trace 0.9 differs from 1 beyond 1e-10"),
        (negative_trace, "density matrix trace 2.0 differs from 1 beyond 1e-10"),
        (negative, "density matrix not positive semidefinite: min eigenvalue -1.000e-01"),
        # entries near overflow: the symmetrized part stays finite, so the
        # trace is 0 and the eigenvalues +-1e308, not NaN
        (np.diag([1.5e308, -1.5e308]), "density matrix trace 0.0 differs from 1 beyond 1e-10"),
        (
            np.array([[0.5, 1e308], [1e308, 0.5]]),
            "density matrix not positive semidefinite: min eigenvalue -1.000e+308",
        ),
    ]:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            density_matrix(mat)
    rho = density_matrix(good)
    vals, vecs = np.linalg.eigh(good)
    assert np.allclose(rho.spectrum.uncut, vals[::-1], atol=1e-15)


def test_eigpair_weight_rows_check_a_stack_as_each_state_checks_its_weights():
    vectors = EigpairVectors(np.eye(4)[:3])
    rows = [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.7, -0.1, 0.4], [0.5, 0.5, 0.5]]
    for start in range(len(rows)):
        weights, failure = eigpair_weight_rows(rows[start:])
        assert failure == _first_error(vectors.state, rows[start:])
    weights, failure = eigpair_weight_rows(rows[:2])
    assert failure is None
    vals, vecs = vectors.spectra(weights)
    assert vecs.shape == (2, 4, 4)  # two weight orders
    for k, row in enumerate(rows[:2]):
        rho = vectors.state(row)
        assert np.array_equal(vals[k], rho.spectrum.uncut)
        assert np.array_equal(vecs[k], rho.spectrum.eigenvectors)
    # one weight order: one shared basis
    assert vectors.spectra(weights[:1].repeat(3, axis=0))[1].shape == (1, 4, 4)
    assert vectors.size_error(3) is None
    assert vectors.size_error(2) == "2 weights for 3 eigpair vectors"


@pytest.mark.parametrize(
    "weight, message",
    [(0.0, r"weights sum to .*0\.0\)?, not 1 within 1e-10"), (-0.5, r"negative weight .*-0\.5")],
)
def test_eigpairs_whose_weights_clip_to_zero_fail_without_a_warning(weight, message):
    # every weight clips to zero, so the weights' total is zero; the check
    # fails before any 0 / 0 reaches numpy, whose RuntimeWarning the suite
    # turns into an error
    with pytest.raises(ValidationError, match=message):
        density_from_eigpairs([(weight, [1.0, 0.0])])
    weights, failure = eigpair_weight_rows([[0.5, 0.5], [weight, 0.0]])
    assert failure[0] == 1 and re.search(message, failure[1])
    assert weights[0].tolist() == [0.5, 0.5]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigpair_weights_must_be_finite(bad):
    message = f"non-finite weight {float(bad)!r}"
    weights, failure = eigpair_weight_rows([[0.5, 0.5], [0.5, bad], [-0.5, 1.5]])
    assert failure == (1, message)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        density_from_eigpairs([(0.5, [1.0, 0.0]), (bad, [0.0, 1.0])])


@pytest.mark.parametrize(
    "big, unit",
    [([1e200, 0.0], [1.0, 0.0]), ([0.0, -1e200j], [0.0, -1j]), ([3e307, 4e307], [3.0, 4.0])],
)
def test_eigpair_vectors_whose_norm_overflows_normalize_to_their_direction(big, unit):
    # the norm overflows to inf; the vector is divided by its largest part
    # first, with no RuntimeWarning (the suite turns those into errors)
    vectors = EigpairVectors([big, [1.0, 1.0]])
    assert np.array_equal(vectors.v, EigpairVectors([unit, [1.0, 1.0]]).v)


@pytest.mark.parametrize(
    "vectors, message",
    [
        ([[1.0, np.inf]], "eigpair vectors have non-finite entries"),
        ([[1.0, 0.0], [np.nan, 0.0]], "eigpair vectors have non-finite entries"),
        ([[1.0, 0.0], [0.0, 0.0]], "zero vector in eigpairs"),
        ([[1e-13, 0.0]], "zero vector in eigpairs"),
        ([[1.0, 0.0], [1.0, 0.0, 0.0]], "eigpair vectors have mismatched dimensions"),
        ([], "no eigpair vectors"),
    ],
)
def test_eigpair_vectors_are_checked_once_without_a_warning(vectors, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        EigpairVectors(vectors)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 64),
    k=st.integers(2, 8),
    scale=st.sampled_from([1e-6, 1.0, 1e150, 1e300]),
)
def test_non_orthonormal_eigpair_states_pass_density_matrix(seed, d, k, scale):
    # unit vectors and checked weights make sum_k w_k |v_k><v_k| Hermitian,
    # of unit trace within about k eps and PSD within about d eps, so
    # density_matrix's checks, which EigpairVectors.spectra does not run,
    # cannot fail on it; a scale of 1e150 or more overflows the norms
    rng = np.random.default_rng(seed)
    raw = (rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))) * scale
    raw[-1] = raw[0] + 1e-6 * raw[-1]  # nearly parallel to the first
    weights = rng.dirichlet(np.full(k, 0.3))
    vectors = EigpairVectors(raw)
    assert not vectors.orthonormal
    rho = vectors.state(weights, rank_tol=0.0)
    density_matrix(rho.matrix)
    # the matrix it diagonalized passes density_matrix with its spectrum
    w = eigpair_weight_rows([weights])[0][0]
    mat = (vectors.v * w) @ vectors.v.conj().T
    checked = density_matrix((mat + mat.conj().T) / 2.0)
    assert np.allclose(checked.spectrum.uncut, rho.spectrum.uncut, rtol=0.0, atol=1e-14)


def test_eigpair_weight_messages_print_plain_floats():
    assert eigpair_weight_rows([[0.7, -0.2, 0.5]])[1] == (0, "negative weight -0.2")
    assert eigpair_weight_rows([[0.7, 0.2]])[1] == (
        0,
        "weights sum to 0.8999999999999999, not 1 within 1e-10",
    )


def test_density_matrix_trace_error_names_value():
    with pytest.raises(ValidationError, match="trace 0.9"):
        density_matrix(np.diag([0.5, 0.4]))


def test_density_matrix_rejects_negative_eigenvalue():
    mat = np.array([[0.9, 0.5], [0.5, 0.1]])
    with pytest.raises(ValidationError, match="not positive semidefinite"):
        density_matrix(mat)


def test_density_matrix_rejects_non_hermitian():
    mat = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(ValidationError, match="not Hermitian"):
        density_matrix(mat)


def test_density_matrix_rank_detection():
    rho = density_matrix(np.diag([0.5, 0.5, 0.0, 0.0]))
    assert rho.spectrum.rank == 2
    assert np.allclose(rho.spectrum.eigenvalues[:2], [0.5, 0.5])


def test_eigpairs_orthonormal_kept_and_kernel_completed():
    v1 = np.array([1, 0, 0, 0], dtype=complex)
    v2 = np.array([0, 1, 0, 0], dtype=complex)
    rho = density_from_eigpairs([(0.75, v1), (0.25, v2)])
    assert rho.spectrum.rank == 2
    assert np.allclose(rho.spectrum.eigenvalues, [0.75, 0.25, 0.0, 0.0])
    full = rho.spectrum.eigenvectors
    assert np.allclose(full.conj().T @ full, np.eye(4), atol=1e-12)


def test_eigpairs_matrix_is_built_on_first_read():
    rng = np.random.default_rng(60)
    for d, r in ((4, 3), (9, 2), (64, 16), (256, 32)):
        z = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        v, _ = np.linalg.qr(z)
        w = rng.dirichlet(np.ones(r))
        rho = density_from_eigpairs(zip(w, v.T))
        assert "matrix" not in vars(rho)
        assert rho.dim == d and rho.rank == r
        # the kernel completion makes [V_s, V_ker] unitary
        full = rho.spectrum.eigenvectors
        assert np.max(np.abs(full.conj().T @ full - np.eye(d))) < 1e-13
        order = np.argsort(w)[::-1]
        vs, ws = v[:, order], w[order]
        old = (vs * ws) @ vs.conj().T
        old = (old + old.conj().T) / 2.0
        assert np.max(np.abs(rho.matrix - old)) < 1e-15
        assert "matrix" in vars(rho)


def test_density_matrix_builds_its_matrix_from_the_cut_spectrum():
    mat = random_density(np.random.default_rng(61), 5)
    rho = density_matrix(mat)
    assert "matrix" not in vars(rho)
    assert np.max(np.abs(rho.matrix - mat)) < 1e-15
    # weight below the cutoff is cut from the matrix as from the spectrum
    tail = density_matrix(sub_cutoff_state(np.random.default_rng(62), [5e-11]))
    assert tail.rank == 1
    assert np.trace(tail.matrix).real == pytest.approx(1.0 - 5e-11, abs=1e-15)


def test_a_cutoff_at_or_above_every_eigenvalue_leaves_no_state():
    # every constructor and with_rank_tol cut in one place, which requires
    # a state of rank at least 1
    e0, e1 = np.eye(2)
    message = "rank_tol 0.6 leaves no support: the largest eigenvalue is 0.6"
    with pytest.raises(ValidationError, match=re.escape(message)):
        density_from_eigpairs([(0.6, e0), (0.4, e1)], rank_tol=0.6)
    with pytest.raises(ValidationError, match=re.escape(message)):
        density_matrix(np.diag([0.6, 0.4]), rank_tol=0.6)
    rho = density_from_eigpairs([(0.6, e0), (0.4, e1)])
    with pytest.raises(ValidationError, match=re.escape(message)):
        states.with_rank_tol(rho, 0.6)
    assert states.with_rank_tol(rho, 0.5).rank == 1


def test_eigpairs_non_orthogonal_rediagonalized():
    v1 = np.array([1, 0], dtype=complex)
    v2 = np.array([1, 1], dtype=complex) / np.sqrt(2)
    rho = density_from_eigpairs([(0.5, v1), (0.5, v2)])
    assert np.trace(rho.matrix) == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12


def test_eigpairs_weight_validation():
    v = np.array([1, 0], dtype=complex)
    with pytest.raises(ValidationError, match="sum to"):
        density_from_eigpairs([(0.5, v)])
    with pytest.raises(ValidationError, match="negative weight"):
        density_from_eigpairs([(-0.2, v), (1.2, v)])
    with pytest.raises(ValidationError, match="zero vector"):
        density_from_eigpairs([(1.0, np.zeros(2))])


def test_white_noise_spectrum():
    p, d = 0.6, 4
    psi = np.zeros(d)
    psi[0] = 1.0
    rho = white_noise_state(psi, p)
    vals = np.sort(np.linalg.eigvalsh(rho.matrix))
    assert vals[-1] == pytest.approx(p + (1 - p) / d)
    assert np.allclose(vals[:-1], (1 - p) / d)


def test_white_noise_normalizes_input_vector():
    rho1 = white_noise_state([2.0, 0.0], 0.5)
    rho2 = white_noise_state([1.0, 0.0], 0.5)
    assert np.allclose(rho1.matrix, rho2.matrix)


def test_white_noise_domain():
    with pytest.raises(ValidationError, match="outside"):
        white_noise_state([1, 0], 1.5)


def test_bell_diagonal_qubit_basis_states():
    # weight on (m, n) = (0, 0) alone is the canonical maximally entangled ket
    bd = bell_diagonal([1.0], 2)
    phi_plus = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert np.allclose(bd.rho.matrix, np.outer(phi_plus, phi_plus.conj()), atol=1e-12)
    assert bd.is_real


def test_bell_diagonal_marginals_maximally_mixed():
    rng = np.random.default_rng(1)
    w = rng.dirichlet(np.ones(9))
    bd = bell_diagonal(w, 3)
    for keep in (0, 1):
        marg = state_marginal(bd.rho, (3, 3), [keep])
        assert np.allclose(marg.matrix, np.eye(3) / 3, atol=1e-10)


def test_bell_diagonal_real_flag_matches_transpose_invariance():
    # symmetrized weights w(m, n) = w(-m mod d, n) give a transpose-invariant state
    rng = np.random.default_rng(2)
    raw = rng.dirichlet(np.ones(9)).reshape(3, 3)
    sym = (raw + raw[(-np.arange(3)) % 3, :]) / 2.0
    bd = bell_diagonal(sym.reshape(-1), 3)
    assert bd.is_real
    assert transpose_invariant(bd.rho)
    asym = np.zeros(9)
    asym[3] = 1.0  # (m, n) = (1, 0) alone: breaks the symmetry for d = 3
    bd2 = bell_diagonal(asym, 3)
    assert not bd2.is_real
    assert not transpose_invariant(bd2.rho)


def test_bell_basis_and_real_flag_match_their_loops():
    # reference loops: ket (m, n) is (1/sqrt(d)) sum_j w^{mj} |j>|j-n mod d>,
    # and the state is real iff weight(m, n) = weight(-m mod d, n)
    rng = np.random.default_rng(4)
    for d in (2, 3, 5):
        omega = np.exp(2j * np.pi / d)
        kets = np.zeros((d * d, d * d), dtype=complex)
        for m in range(d):
            for n in range(d):
                for j in range(d):
                    kets[m * d + n, j * d + (j - n) % d] = omega ** (m * j)
        kets /= np.sqrt(d)
        assert np.array_equal(states._hw_bell_vectors(d).v, EigpairVectors(kets).v)
        for w in (rng.dirichlet(np.ones(d * d)), np.full(d * d, 1.0 / d**2)):
            real = all(
                abs(w[m * d + n] - w[(-m % d) * d + n]) <= 1e-12 for m in range(d) for n in range(d)
            )
            assert bell_diagonal(w, d).is_real == real


def test_bell_diagonal_pads_and_validates():
    bd = bell_diagonal([0.5, 0.5], 3)
    assert bd.weights.size == 9
    assert bd.rho.spectrum.rank == 2
    with pytest.raises(ValidationError, match="exceed"):
        bell_diagonal(np.ones(5) / 5, 2)
    # NaN and the infinities once raised a bare ValueError or OverflowError
    for d in (1, 2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="integer d"):
            bell_diagonal([1.0], d)


def test_tensor_power():
    rng = np.random.default_rng(3)
    rho = density_matrix(random_density(rng, 3))
    r2 = tensor_power(rho, 2)
    assert r2.dim == 9
    assert np.allclose(r2.matrix, np.kron(rho.matrix, rho.matrix), atol=1e-12)
    assert tensor_power(rho, 1) is rho
    with pytest.raises(ValidationError, match="nu must be"):
        tensor_power(rho, 4)
    big = density_matrix(np.eye(9) / 9)
    with pytest.raises(ValidationError, match="cap"):
        tensor_power(big, 3)


def test_povm_validation():
    up = np.diag([1.0, 0.0])
    down = np.diag([0.0, 1.0])
    povm = povm_set([up, down])
    assert len(povm.effects) == 2
    with pytest.raises(ValidationError, match="sum to the identity"):
        povm_set([up, up])
    with pytest.raises(ValidationError, match="not positive semidefinite"):
        povm_set([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])])
    with pytest.raises(ValidationError, match="empty"):
        povm_set([])


def test_state_marginal_matches_partial_trace():
    rng = np.random.default_rng(4)
    rho = density_matrix(random_density(rng, 6))
    marg = state_marginal(rho, (2, 3), [1])
    assert np.allclose(marg.matrix, partial_trace(rho.matrix, (2, 3), [1]), atol=1e-12)


def test_products_and_marginals_of_a_cut_state_keep_its_trace():
    # two weights of 5e-11 are cut from a pure state, which leaves trace
    # 1 - 1e-10; its product and marginal carry that trace rather than
    # facing the unit-trace check of an outside matrix
    rho = density_matrix(sub_cutoff_state(np.random.default_rng(5), [5e-11, 5e-11]))
    assert rho.rank == 1
    kept = 1.0 - 1e-10
    two = tensor_power(rho, 2)
    assert two.rank == 1
    assert np.trace(two.matrix).real == pytest.approx(kept**2, abs=1e-15)
    marg = state_marginal(rho, [2, 2], [0])
    assert np.trace(marg.matrix).real == pytest.approx(kept, abs=1e-15)
    assert np.max(np.abs(marg.matrix - partial_trace(rho.matrix, [2, 2], [0]))) < 1e-15


def test_tensor_utility_reexport_consistency():
    a = np.eye(2)
    b = np.ones((2, 2))
    assert np.allclose(tensor(a, b), np.kron(a, b))

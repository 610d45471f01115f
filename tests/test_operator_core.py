"""Dense linear-algebra primitives: tensor products, partial trace, SWAP,
trace norm, Hermitian eigendecomposition, and matrix exponentials."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_hermitian_matrix
from metrocommute.operator_core import (
    ValidationError,
    commutator,
    dagger,
    eigh_descending,
    first_failure,
    frobenius_rows,
    hermitian_eig,
    hermitian_rows,
    is_hermitian,
    is_psd,
    matrix_exp_i,
    partial_trace,
    require_hermitian,
    swap_operator,
    tensor,
    trace_norm,
)


def test_tensor_two_factors():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1], [1, 0]], dtype=complex)
    expected = np.kron(a, b)
    assert np.array_equal(tensor(a, b), expected)


def test_tensor_three_factors_associative():
    rng = np.random.default_rng(0)
    a, b, c = (random_hermitian_matrix(rng, d) for d in (2, 3, 2))
    assert np.allclose(tensor(a, b, c), np.kron(np.kron(a, b), c))


def test_tensor_is_bitwise_kron_for_two_three_and_eight_factors():
    rng = np.random.default_rng(62)
    for dims in ((2, 2), (2, 3, 2), (2,) * 8):
        ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims]
        expected = ops[0]
        for op in ops[1:]:
            expected = np.kron(expected, op)
        assert np.array_equal(tensor(*ops), expected)
    rect = [rng.normal(size=(2, 3)), rng.normal(size=(4, 1))]
    assert np.array_equal(tensor(*rect), np.kron(*rect).astype(complex))


def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    ra = random_density(rng, 2)
    rb = random_density(rng, 3)
    rho = np.kron(ra, rb)
    assert np.allclose(partial_trace(rho, (2, 3), [0]), ra, atol=1e-12)
    assert np.allclose(partial_trace(rho, (2, 3), [1]), rb, atol=1e-12)
    # keeping both sites in order is the identity
    assert np.allclose(partial_trace(rho, (2, 3), [0, 1]), rho, atol=1e-12)


def test_partial_trace_preserves_trace_three_factors():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 12)
    for keep in range(3):
        marg = partial_trace(rho, (2, 3, 2), [keep])
        assert marg.shape == ((2, 3, 2)[keep],) * 2
        assert np.trace(marg) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
def test_swap_trick(seed, d):
    # tr[S (A x B)] = tr(AB) for every operator pair
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    s = swap_operator(d)
    lhs = np.trace(s @ np.kron(a, b))
    assert lhs == pytest.approx(np.trace(a @ b), abs=1e-10)


def test_swap_operator_involution():
    s = swap_operator(3)
    assert np.allclose(s @ s, np.eye(9))
    assert np.allclose(s, s.conj().T)
    # NaN and the infinities once raised a bare ValueError or OverflowError
    for d in (1, 2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="integer d"):
            swap_operator(d)


def test_trace_norm_matches_singular_values():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert trace_norm(x) == pytest.approx(np.linalg.svd(x, compute_uv=False).sum())


def test_trace_norm_hermitian_is_abs_eig_sum():
    rng = np.random.default_rng(4)
    h = random_hermitian_matrix(rng, 4)
    assert trace_norm(h) == pytest.approx(np.abs(np.linalg.eigvalsh(h)).sum())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), sign=st.sampled_from([1, -1]))
def test_matrix_exp_i_unitary_and_spectral(seed, d, sign):
    rng = np.random.default_rng(seed)
    k = random_hermitian_matrix(rng, d)
    u = matrix_exp_i(k, sign=sign)
    assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-10)
    vals, vecs = np.linalg.eigh(k)
    expected = (vecs * np.exp(sign * 1j * vals)) @ vecs.conj().T
    assert np.allclose(u, expected, atol=1e-10)


def test_matrix_exp_i_inverse_signs():
    rng = np.random.default_rng(5)
    k = random_hermitian_matrix(rng, 4)
    assert np.allclose(matrix_exp_i(k, 1) @ matrix_exp_i(k, -1), np.eye(4), atol=1e-12)


def test_hermitian_eig_descending_and_reconstructs():
    rng = np.random.default_rng(6)
    h = random_hermitian_matrix(rng, 6)
    vals, vecs = hermitian_eig(h)
    assert np.all(np.diff(vals) <= 1e-14)
    assert np.allclose(vecs.conj().T @ vecs, np.eye(6), atol=1e-12)
    assert np.allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-12)


def test_require_hermitian_message():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="probe is not Hermitian within tolerance"):
        require_hermitian(bad, "probe")


def test_is_hermitian_holds_at_every_finite_scale():
    # above ||a||_F ~ 1.3e154 both Frobenius norms overflow; the test must
    # neither accept every such matrix nor warn (RuntimeWarnings are errors here)
    assert not is_hermitian(np.array([[0, 1e160], [0, 0]]))
    assert not is_hermitian(np.array([[0.0, 1e308], [-1e308, 0.0]]))
    # finite complex entries whose modulus exceeds the largest float
    z = 1.5e308 + 1.5e308j
    assert not is_hermitian(np.array([[0, z], [0, 0]]))
    assert is_hermitian(np.array([[1e308, z], [np.conj(z), -1e308]]))
    rng = np.random.default_rng(8)
    h = random_hermitian_matrix(rng, 4)
    assert is_hermitian(h * 1e160) and is_hermitian(h * 1e300)
    skew = h.copy()
    skew[0, 1] += 1e-6 * np.linalg.norm(h)
    assert not is_hermitian(skew * 1e160)
    assert is_hermitian(skew * 1e160, tol=1e-5)
    # non-finite entries fail at any scale
    assert not is_hermitian(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    assert not is_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError, match="probe is not Hermitian"):
        require_hermitian(np.array([[0, 1e160], [0, 0]]), "probe")
    with pytest.raises(ValidationError, match="probe is not Hermitian"):
        require_hermitian(np.array([[0, z], [0, 0]]), "probe")


def test_stacked_norms_and_hermitian_tests_match_the_single_ones():
    # the stacked forms agree with the single ones bit for bit, the
    # overflowing scales included
    rng = np.random.default_rng(9)
    h = np.stack([random_hermitian_matrix(rng, 4) for _ in range(6)])
    h[1, 0, 1] += 1e-6
    h[2] *= 1e160
    h[3] = [[0, 1e160, 0, 0], [0] * 4, [0] * 4, [0] * 4]
    h[4, 0, 0] = np.nan
    stacks = (h, h.reshape(3, 2, 4, 4), 1j * (h.imag - np.swapaxes(h.imag, 1, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in stacks:
            flat = a.reshape(-1, 4, 4)
            norms = frobenius_rows(a).reshape(-1)
            singles = np.array([np.linalg.norm(x) for x in flat])
            assert np.array_equal(norms, singles, equal_nan=True)
    for a in stacks[:2]:
        flat = a.reshape(-1, 4, 4)
        assert hermitian_rows(a).reshape(-1).tolist() == [is_hermitian(x) for x in flat]
    assert hermitian_rows(h).tolist() == [True, False, True, False, False, True]
    # a stack of one matrix, as a one-Hamiltonian set checks it, takes the
    # stacked test too
    for k, x in enumerate(h):
        assert hermitian_rows(x[None, None]).tolist() == [[is_hermitian(x)]], k


def test_eigh_descending_is_the_argsort_order_of_eigh():
    # the reference: eigh's eigenpairs in the reversed argsort order of their
    # eigenvalues, tied ones included
    rng = np.random.default_rng(63)
    tied = [np.eye(20) / 20, np.diag([0.5, 0.25, 0.25, 0.0, 0.0]), random_density(rng, 6, 2)]
    for m in [*tied, random_hermitian_matrix(rng, 5), np.stack([random_density(rng, 4, r) for r in (1, 2, 4)])]:
        vals, vecs = np.linalg.eigh(m)
        order = np.argsort(vals, axis=-1)[..., ::-1]
        got_vals, got_vecs = eigh_descending(m)
        assert np.array_equal(got_vals, np.take_along_axis(vals, order, -1))
        assert np.array_equal(got_vecs, np.take_along_axis(vecs, order[..., None, :], -1))
        assert got_vecs.flags.c_contiguous


def test_first_failure_is_the_first_failing_item_and_its_first_check():
    first = np.array([False, False, True, True])
    second = np.array([False, True, True, False])
    checks = [(first, lambda k: f"first {k}"), (second, lambda k: f"second {k}")]
    assert first_failure(checks) == (1, "second 1")
    assert first_failure(checks[:1]) == (2, "first 2")
    second[1] = False
    assert first_failure(checks) == (2, "first 2")
    assert first_failure([(np.zeros(3, dtype=bool), str)]) is None


def test_require_hermitian_rejects_non_square():
    with pytest.raises(ValidationError):
        require_hermitian(np.zeros((2, 3)), "probe")


def test_is_psd():
    assert is_psd(np.diag([1.0, 0.0]), tol=1e-12)
    assert not is_psd(np.diag([1.0, -1e-6]), tol=1e-9)


def test_commutator_antisymmetric_traceless():
    rng = np.random.default_rng(7)
    a = random_hermitian_matrix(rng, 4)
    b = random_hermitian_matrix(rng, 4)
    c = commutator(a, b)
    assert np.allclose(c, -commutator(b, a))
    assert np.trace(c) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(dagger(c), -c)  # [H1, H2] is anti-Hermitian


def test_validation_error_is_value_error():
    assert issubclass(ValidationError, ValueError)

"""Dense complex matrix primitives shared by every other module.

All operators are plain numpy arrays (complex128, row-major). Functions here
are pure and make no assumptions beyond what they validate; everything above
this module (states, encodings, condition matrices) builds on these few
primitives, and the closed-form oracles in the examples module are allowed to
share nothing else with the pipeline.

Every pairwise quantity (the W/P/O/S condition matrices, the QFIM's upper
triangle, the commutation test of a Hamiltonian set) runs on one pair axis:
_pairs(m) indexes the parameter pairs i < j, and _pair_matrix places one
value per pair into an antisymmetric m x m array.
"""

import math
from functools import cache
from itertools import combinations

import numpy as np

HERM_TOL = 1e-10


class ValidationError(ValueError):
    """Invalid input (bad matrix, bad parameters, malformed descriptor)."""


def _is_whole(x):
    """Whether the real number x has no fractional part; NaN and the
    infinities have none to test, and are not whole."""
    try:
        return int(x) == x
    except (ValueError, OverflowError):
        return False


def dagger(a):
    """Conjugate transpose of a matrix, or of every matrix in a stack (the
    last two axes)."""
    return np.conj(a.swapaxes(-1, -2)) if a.ndim > 2 else np.conj(a.T)


def as_square_array(a, name="matrix"):
    """Coerce to a square complex128 ndarray, validating its shape only."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValidationError(f"{name} must have dim >= 1")
    return m


def as_square_matrix(a, name="matrix"):
    """Coerce to a square complex128 ndarray, validating shape and finiteness."""
    m = as_square_array(a, name)
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} has non-finite entries")
    return m


def is_hermitian(a, tol=HERM_TOL):
    """Whether ||a - a^dag||_F <= tol max(1, ||a||_F), at any finite scale:
    when either norm overflows, both are taken of a / s, s the largest real
    or imaginary part in modulus (finite for finite a, unlike max_ij |a_ij|),
    and the bound is scaled to match. Non-finite entries fail."""
    a = np.asarray(a)
    with np.errstate(over="ignore", invalid="ignore"):
        skew, size = np.linalg.norm(a - dagger(a)), np.linalg.norm(a)
        if math.isinf(skew) or math.isinf(size):
            s = max(np.max(np.abs(a.real)), np.max(np.abs(a.imag)))
            a = a / s
            skew, size = np.linalg.norm(a - dagger(a)), np.linalg.norm(a)
            return bool(skew <= tol * max(1.0 / s, size))
    return bool(skew <= tol * max(1.0, size))


def frobenius_rows(a):
    """||a_k||_F for each matrix of a stack (..., r, c), summed as
    np.linalg.norm sums it (a dot product of the real parts plus one of the
    imaginary parts), so each entry equals np.linalg.norm(a_k) bit for bit."""
    flat = a.reshape(-1, 1, a.shape[-2] * a.shape[-1])
    re, im = flat.real, flat.imag
    sq = re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)
    return np.sqrt(sq).reshape(a.shape[:-2])


def hermitian_rows(a, tol=HERM_TOL):
    """is_hermitian of each matrix of a stack (..., d, d), as a bool array;
    a matrix whose norms overflow takes is_hermitian's rescaled test, and so
    does a stack of one matrix, which np.linalg.norm sums faster."""
    if a.size == a.shape[-1] * a.shape[-2]:
        return np.full(a.shape[:-2], is_hermitian(a.reshape(a.shape[-2:]), tol))
    with np.errstate(over="ignore", invalid="ignore"):
        skew, size = frobenius_rows(a - dagger(a)), frobenius_rows(a)
        ok = skew <= tol * np.maximum(1.0, size)
    overflow = np.isinf(skew) | np.isinf(size)
    if overflow.any():
        for k in zip(*np.nonzero(overflow)):
            ok[k] = is_hermitian(a[k], tol)
    return ok


@cache
def _pairs(m):
    """Index arrays (first, second) of the parameter pairs i < j, in
    itertools.combinations order, as the rows of one (2, pairs) array:
    indexing a stack with it puts the factors (x_i, x_j) of every pair on a
    leading axis of two. Cached per m, and so read-only."""
    pairs = np.array(list(combinations(range(m), 2)), dtype=int).reshape(-1, 2).T
    pairs.flags.writeable = False
    return pairs


def _pair_matrix(vals, m):
    """The antisymmetric (m, m, ...) array whose (i, j) entry is vals[k] and
    whose (j, i) entry is -vals[k], for the k-th pair i < j of _pairs(m), and
    whose diagonal is zero; vals is (pairs, ...)."""
    out = np.zeros((m, m, *vals.shape[1:]), dtype=vals.dtype)
    i, j = _pairs(m)
    out[i, j] = vals
    out[j, i] = -vals
    return out


def first_failure(checks):
    """(k, message) for the first item k of a stack that fails a check, or
    None when every item passes.

    checks are (mask, message) pairs in the order one item runs them: mask
    flags the items that fail, and message(k) is item k's error text. Item k
    is the first that any check flags, and its message is that of the first
    check that flags it, so a stack fails as a loop over its items would.
    """
    masks = np.array([mask for mask, _ in checks])
    if not masks.any():
        return None
    k = int(np.argmax(masks.any(axis=0)))
    return k, checks[int(np.argmax(masks[:, k]))][1](k)


def require_hermitian(a, name="matrix", tol=HERM_TOL):
    m = as_square_matrix(a, name)
    if not is_hermitian(m, tol):
        raise ValidationError(f"{name} is not Hermitian within tolerance {tol}")
    return m


def hermitian_eig(h):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (vals, vecs) with vals real in descending order and vecs[:, k]
    the orthonormal eigenvector for vals[k]. Raises ValidationError for
    non-Hermitian input.
    """
    m = require_hermitian(h, "hermitian_eig input")
    return eigh_descending((m + dagger(m)) / 2.0)


def eigh_descending(m):
    """hermitian_eig without its check: the eigenpairs of m, or of each
    matrix of a stack, eigenvalues descending, from the lower triangle of m,
    which the caller guarantees to be Hermitian."""
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals, axis=-1)[..., ::-1]
    if (order == np.arange(vals.shape[-1] - 1, -1, -1)).all():
        # eigh's ascending order reversed: the same copies, without indexing
        return vals[..., ::-1].copy(), vecs[..., ::-1].copy()
    return np.take_along_axis(vals, order, -1), np.take_along_axis(vecs, order[..., None, :], -1)


def matrix_exp_i(k, sign=1):
    """exp(sign * 1j * K) for Hermitian K, via the spectral decomposition.

    Exact for Hermitian inputs; the only matrix exponential needed anywhere.
    """
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    vals, vecs = hermitian_eig(k)
    phases = np.exp(1j * sign * vals)
    return (vecs * phases) @ dagger(vecs)


def swap_operator(d):
    """SWAP on C^d x C^d: S(|x>|y>) = |y>|x>."""
    if not _is_whole(d) or d < 2:
        raise ValidationError("swap_operator needs integer d >= 2")
    d = int(d)
    s = np.zeros((d * d, d * d), dtype=complex)
    for x in range(d):
        for y in range(d):
            s[y * d + x, x * d + y] = 1.0
    return s


def trace_norm(x):
    """Sum of singular values of x."""
    x = as_square_matrix(x, "trace_norm input")
    return float(np.sum(np.linalg.svd(x, compute_uv=False)))


def is_psd(x, tol):
    """True iff the Hermitian matrix x has min eigenvalue >= -tol."""
    m = require_hermitian(x, "is_psd input")
    return bool(np.linalg.eigvalsh(m).min() >= -tol)


def commutator(a, b):
    return a @ b - b @ a


def tensor(*ops):
    """Kronecker product of the given operators, left to right, or of each
    matrix of stacks of them: the last two axes are the matrix, and any
    leading axes broadcast.

    Each step is the broadcast outer product a[..., i, k, j, l] = a_ij b_kl
    reshaped to (..., rows_a rows_b, cols_a cols_b): the same products as
    np.kron, without its general-rank bookkeeping.
    """
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        b = np.asarray(op, dtype=complex)
        (p, q), (s, t) = out.shape[-2:], b.shape[-2:]
        out = out[..., :, None, :, None] * b[..., None, :, None, :]
        out = out.reshape(*out.shape[:-4], p * s, q * t)
    return out


def partial_trace(rho, dims, keep):
    """Trace out all sites except those in `keep`.

    rho acts on the tensor product of len(dims) sites with local dimensions
    dims; keep is an iterable of site indices to retain (output ordered by
    ascending site index).
    """
    dims = [int(d) for d in dims]
    rho = np.asarray(rho, dtype=complex)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValidationError(
            f"partial_trace: operator shape {rho.shape} does not match dims {dims}"
        )
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValidationError("partial_trace: keep indices out of range")
    n = len(dims)
    t = rho.reshape(dims + dims)
    # drop highest site first so remaining axis numbers stay valid
    for a in sorted((x for x in range(n) if x not in keep), reverse=True):
        t = np.trace(t, axis1=a, axis2=a + n)
        n -= 1
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)

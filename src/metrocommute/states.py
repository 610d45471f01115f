"""Density matrices held by their spectral data (the matrix itself is built
on first read), plus the state families used throughout the library
(white-noise mixtures, Bell-diagonal states, tensor powers).

Numerical rank is decided by RANK_TOL (absolute, legitimate because traces are
one), or by a state's own rank_tol. Every constructor cuts the spectrum there,
in _spectral_from_eig: eigenvalues at or below the cutoff, round-off negatives
included, are set to exact zeros, so no formula downstream cuts again, and
every formula in the conditions module branches hard on lambda = 0 versus
lambda > 0. A cutoff at or above the largest eigenvalue would leave no
support and raises ValidationError there, so every state has rank at least
1. A state's matrix is built from its cut spectrum, and its trace is
the weight kept on its support. So tensor_power and state_marginal, which
build from a state, take the eigenpairs of the product or marginal without
the unit-trace check that density_matrix puts on an outside matrix.

An eigpair state is built from its EigpairVectors, the one place that
checks vectors: it stacks them once, requires them non-empty, of one
dimension, finite and nonzero, normalizes them together and checks their Gram
matrix once. A state on them can then fail only on its weights; states that
share the vectors but not the weights (the points of a sweep over a weight)
check only those, and share the completed basis of each descending-weight
order. A white-noise mixture p |psi><psi| + (1 - p) I / dim is such a state:
weights [a, b, ..., b] on white_noise_vectors(psi), the vector psi and an
orthonormal completion; so is a Bell-diagonal state, weights on the d*d
maximally entangled kets.

The checks and spectra also come stacked, for the points of a sweep:
eigpair_weight_rows checks a stack of weight rows, reporting the first row
that fails with that row's own message, and EigpairVectors.spectra gives the
spectra of a stack of checked weights. On non-orthogonal vectors it
diagonalizes the matrices sum_k w_k |v_k><v_k|, which are Hermitian, of unit
trace and positive semidefinite up to round-off, so density_matrix's checks
cannot fail on them and are not run.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operator_core import (
    ValidationError,
    _is_whole,
    as_square_matrix,
    dagger,
    eigh_descending,
    first_failure,
    frobenius_rows,
    partial_trace,
    require_hermitian,
    tensor,
)

RANK_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
# the largest dimension of a state that a family or example builds from its
# parameters; checked before anything of that size is allocated
MAX_DIM = 4096
# the largest estimate of what one problem adds to a classify
# (conditions.point_bytes) that a descriptor or example may ask for; checked
# once its dimension and m are known, before its state is built
MAX_POINT_BYTES = 2**30


@dataclass(eq=False)
class SpectralData:
    """Eigen-data of a density matrix.

    eigenvalues: descending, length dim; invariant, checked on construction
        (ArithmeticError): the first rank lie above rank_tol and the rest are
        exact zeros
    eigenvectors: columns, orthonormal, completing the full space
    rank: number of eigenvalues above rank_tol
    uncut: the eigenvalues as the state was built, before the cut at
        rank_tol; only with_rank_tol reads them, to recount at another
        cutoff. _spectral_from_eig fills it; otherwise it is the eigenvalues
    support_projector / kernel_projector: sum to the identity; each is built
        on first read, so a caller that never reads them pays nothing
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int
    rank_tol: float

    def __post_init__(self):
        vals, r = self.eigenvalues, self.rank
        if vals[r:].any() or not (vals[:r] > self.rank_tol).all():
            raise ArithmeticError(
                f"spectrum not cut at rank {r} and rank_tol {self.rank_tol:.3e}"
            )

    @cached_property
    def uncut(self):
        return self.eigenvalues

    @cached_property
    def support_projector(self):
        vs = self.eigenvectors[:, : self.rank]
        return vs @ dagger(vs)

    @cached_property
    def kernel_projector(self):
        return np.eye(self.eigenvectors.shape[0]) - self.support_projector

    @property
    def dim(self):
        return self.eigenvectors.shape[0]


class DensityMatrix:
    """A state held by its spectral data; the matrix is built from the cut
    spectrum on first read, so every route reads the same weight."""

    def __init__(self, *, spectrum):
        self.spectrum = spectrum

    @cached_property
    def matrix(self):
        spec = self.spectrum
        live = spec.eigenvalues != 0.0
        v = spec.eigenvectors[:, live]
        mat = (v * spec.eigenvalues[live]) @ dagger(v)
        return (mat + dagger(mat)) / 2.0

    @property
    def dim(self):
        return self.spectrum.dim

    @property
    def rank(self):
        return self.spectrum.rank


def _spectral_from_eig(vals, vecs, rank_tol):
    """SpectralData of descending eigenvalues vals cut at rank_tol, which
    must leave the state a support: its largest eigenvalue must lie above
    rank_tol."""
    if not vals[0] > rank_tol:
        raise ValidationError(
            f"rank_tol {float(rank_tol)!r} leaves no support: "
            f"the largest eigenvalue is {float(vals[0])!r}"
        )
    live = vals > rank_tol
    spec = SpectralData(np.where(live, vals, 0.0), vecs, int(np.count_nonzero(live)), rank_tol)
    spec.uncut = vals  # fills the cached property
    return spec


def _cut_state(mat, rank_tol):
    """The state of mat, its eigenpairs cut at rank_tol. mat is exactly
    Hermitian, so it is not checked again: density_matrix has checked and
    symmetrized it, and the products and marginals of a state's matrix
    (which is symmetrized) are exactly Hermitian too."""
    vals, vecs = eigh_descending(mat)
    return DensityMatrix(spectrum=_spectral_from_eig(vals, vecs, rank_tol))


def density_matrix(mat, rank_tol=RANK_TOL):
    """Validate and wrap a raw matrix as a DensityMatrix.

    Requires, in this order, finite entries, Hermiticity within 1e-10, and
    for its symmetrized part unit trace within 1e-10 and positive
    semidefiniteness within 1e-10. The symmetrized part is summed in halves,
    so entries near overflow stay finite, and a NaN trace or eigenvalue
    fails.
    """
    m = require_hermitian(mat, "density matrix")
    sym = m / 2.0 + dagger(m) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        tr = float(np.trace(sym).real)
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValidationError(f"density matrix trace {tr!r} differs from 1 beyond {TRACE_TOL}")
    vals, vecs = eigh_descending(sym)
    if not vals[-1] >= -PSD_TOL:
        raise ValidationError(
            f"density matrix not positive semidefinite: min eigenvalue {vals[-1]:.3e}"
        )
    return DensityMatrix(spectrum=_spectral_from_eig(vals, vecs, rank_tol))


def with_rank_tol(rho, rank_tol):
    """rho cut at rank_tol instead of its own cutoff (rho itself when it is
    cut there already). The eigenvalues as the state was built are cut
    again, so a lower cutoff recovers weight that the first cut set to zero.
    The eigenvectors are shared; the matrix is built from the cut spectrum on
    first read."""
    spec = rho.spectrum
    if rank_tol == spec.rank_tol:
        return rho
    return DensityMatrix(spectrum=_spectral_from_eig(spec.uncut, spec.eigenvectors, rank_tol))


def _orthonormal_completion(v):
    """The unitary (d, d) [v, completion] of the orthonormal columns of v
    (d, r), r <= d: v written over the first r columns of v's complete QR,
    whose other columns span the orthogonal complement of v."""
    q = np.linalg.qr(v, mode="complete")[0]
    q[:, : v.shape[1]] = v
    return q


def eigpair_weight_rows(rows):
    """(weights, failure) for a stack of eigpair weight rows (n, k): each row
    finite, nonnegative and summing to 1 within TRACE_TOL (renormalized
    silently inside that window); failure is None or (i, message) for the
    first row that breaks this."""
    weights = np.array(rows, dtype=float)
    finite = np.isfinite(weights)
    # a failed row (non-finite, overflowing, or all its weights clipped to
    # zero) sums and divides without a warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        low = weights.min(axis=1)
        clipped = np.maximum(weights, 0.0)
        total = clipped.sum(axis=1)
        failure = first_failure(
            [
                (
                    ~finite.all(axis=1),
                    lambda i: f"non-finite weight {float(weights[i][~finite[i]][0])!r}",
                ),
                (low < -1e-12, lambda i: f"negative weight {float(low[i])!r}"),
                (
                    np.abs(total - 1.0) > TRACE_TOL,
                    lambda i: f"weights sum to {float(total[i])!r}, not 1 within {TRACE_TOL}",
                ),
            ]
        )
        return clipped / total[:, None], failure


class EigpairVectors:
    """The vectors of an eigpair list, checked and normalized once, with
    their Gram matrix checked once; `state(weights)` builds the state of any
    weights on them, and can fail only on the weights.

    The vectors, a sequence of vectors or a (k, d) array of them as rows
    (read as it is and never changed), must be non-empty, of one dimension,
    finite and nonzero (norm at least 1e-12). They are normalized together,
    into one new (k, d) array whose transpose is `v`, each by its norm as
    np.linalg.norm gives it; a vector whose norm overflows is first divided
    by its largest real or imaginary part in modulus. Mutually orthonormal
    vectors are kept as the spectral basis, with the kernel completed
    orthonormally; the basis [v, completion] is built once per
    descending-weight order and shared, read-only, by the states of that
    order. Non-orthogonal vectors are legal, in which case the operator is
    assembled and re-diagonalized.
    """

    def __init__(self, vectors):
        if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
            # the vectors as rows of one array, taken as they are
            rows = vectors.astype(complex, copy=False)
        else:
            rows = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
            if len({v.size for v in rows}) > 1:
                raise ValidationError("eigpair vectors have mismatched dimensions")
            rows = np.array(rows)
        if not len(rows):
            raise ValidationError("no eigpair vectors")
        with np.errstate(over="ignore", invalid="ignore"):
            norms = frobenius_rows(rows[:, None, :])
        # one test when every norm is finite and at least 1e-12
        if not 1e-12 <= norms.min() <= norms.max() < np.inf:
            if not np.isfinite(rows).all():
                raise ValidationError("eigpair vectors have non-finite entries")
            big = np.isinf(norms)
            if big.any():
                parts = np.maximum(np.abs(rows[big].real), np.abs(rows[big].imag))
                rows = rows.copy()  # the caller's array stays as it was
                rows[big] /= parts.max(axis=1, keepdims=True)
                norms[big] = frobenius_rows(rows[big][:, None, :])
            if norms.min() < 1e-12:
                raise ValidationError("zero vector in eigpairs")
        # a new array: the rows given are not changed; v is its (d, k) view
        rows = rows / norms[:, None]
        self.v = rows.T
        # one unit vector is orthonormal; more are when their Gram matrix is I
        self.orthonormal = len(rows) == 1 or (
            np.abs(dagger(self.v) @ self.v - np.eye(len(rows))).max() <= 1e-10
        )
        self._bases = {}  # descending-weight order (bytes) -> [v, completion]

    def state(self, weights, rank_tol=RANK_TOL):
        """The state sum_k w_k |v_k><v_k|, cut at rank_tol; the weights are
        checked as eigpair_weight_rows checks a row, then their count."""
        rows, failure = eigpair_weight_rows([[float(w) for w in weights]])
        error = failure[1] if failure else self.size_error(rows.shape[1])
        if error:
            raise ValidationError(error)
        vals, vecs = self.spectra(rows)
        return DensityMatrix(spectrum=_spectral_from_eig(vals[0], vecs[0], rank_tol))

    def size_error(self, count):
        """The message for `count` weights on these vectors, or None when
        the count matches."""
        k = self.v.shape[1]
        return None if count == k else f"{count} weights for {k} eigpair vectors"

    def _basis(self, order):
        """[v, completion] for one descending-weight order, built once and
        shared read-only."""
        full = self._bases.get(order.tobytes())
        if full is None:
            full = self.v.take(order, axis=1)
            if full.shape[1] < full.shape[0]:
                full = _orthonormal_completion(full)
            full.flags.writeable = False
            self._bases[order.tobytes()] = full
        return full

    def spectra(self, weights):
        """(vals, vecs) of the states with each row of checked weights (n, k),
        one weight per vector: vals (n, d) descending and uncut, vecs their
        eigenvectors, (1, d, d) when every row has one descending-weight
        order of orthonormal vectors and (n, d, d) otherwise. Non-orthogonal
        vectors give the eigenpairs of each symmetrized matrix
        sum_k w_k |v_k><v_k|, which density_matrix would pass unchanged."""
        v = self.v
        if not self.orthonormal:
            mats = (v * weights[:, None, :]) @ dagger(v)
            return eigh_descending((mats + dagger(mats)) / 2.0)
        order = np.argsort(weights, axis=1)[:, ::-1]
        vals = np.zeros((len(weights), v.shape[0]))
        if (order == order[0]).all():
            vals[:, : v.shape[1]] = weights[:, order[0]]
            return vals, self._basis(order[0])[None]
        vals[:, : v.shape[1]] = np.take_along_axis(weights, order, 1)
        return vals, np.stack([self._basis(o) for o in order])


# an eigpair list as its weights and its vectors: one (k, d) array of rows,
# or a list of vectors
Eigpairs = namedtuple("Eigpairs", "weights vectors")


def density_from_eigpairs(pairs, rank_tol=RANK_TOL):
    """Build a state from (weight, vector) pairs, or from an Eigpairs, whose
    (k, d) array of vectors EigpairVectors takes as it is.

    The vectors are checked first (EigpairVectors), then the weights: they
    must be finite, nonnegative and sum to 1 within 1e-10 (renormalized
    silently inside that window, rejected beyond it). Mutually orthonormal
    vectors are kept as the spectral basis, with the kernel completed
    orthonormally; non-orthogonal vectors are legal, in which case the
    operator is assembled and re-diagonalized.
    """
    if not isinstance(pairs, Eigpairs):
        pairs = list(pairs)
        pairs = Eigpairs([w for w, _ in pairs], [v for _, v in pairs])
    if not len(pairs.weights):
        raise ValidationError("density_from_eigpairs needs at least one pair")
    return EigpairVectors(pairs.vectors).state(pairs.weights, rank_tol)


def white_noise_state(psi, p):
    """p * |psi><psi| + (1 - p) * identity / dim, dim the size of psi."""
    vectors = white_noise_vectors(psi)
    return vectors.state(white_noise_weights(p, vectors.v.shape[0]))


def white_noise_weights(p, dim):
    """The eigenvalues [p + (1 - p) / dim, (1 - p) / dim, ...] of
    white_noise_state, in the order of white_noise_vectors, p checked: a
    (dim,) array at one p, and (n, dim) at a 1-D array of n values of p."""
    q = np.asarray(p, dtype=float)
    # written so that NaN fails too
    if not ((0.0 <= q) & (q <= 1.0)).all():
        raise ValidationError(f"mixing weight p={p!r} outside [0, 1]")
    noise = (1.0 - q) / dim
    weights = np.repeat(noise[..., None], dim, axis=-1)
    weights[..., 0] = q + noise
    return weights


def white_noise_vectors(psi):
    """The EigpairVectors of psi, normalized, followed by an orthonormal
    completion: the eigenbasis of every a |psi><psi| + b (I - |psi><psi|),
    whose weights are [a, b, ..., b]."""
    v = EigpairVectors([psi]).v
    return EigpairVectors(list(_orthonormal_completion(v).T))


def _hw_bell_vectors(d):
    """The EigpairVectors of the d*d kets (1/sqrt(d)) sum_j w^{mj} |j>|j-n mod d>,
    w = exp(2 pi i / d), in lexicographic (m, n) order."""
    omega = np.exp(2j * np.pi / d)
    m, n = np.divmod(np.arange(d * d), d)
    j = np.arange(d)
    kets = np.zeros((d * d, d * d), dtype=complex)
    kets[np.arange(d * d)[:, None], j * d + (j - n[:, None]) % d] = (
        omega ** (m[:, None] * j) / np.sqrt(d)
    )
    return EigpairVectors(kets)


@dataclass(eq=False)
class BellDiagonal:
    rho: DensityMatrix
    is_real: bool
    weights: np.ndarray  # as given, padded to d*d; lexicographic (m, n) order


def bell_dim(d):
    """d^2, the dimension of bell_diagonal(., d), checked before anything is
    built: d must be an integer >= 2 with d^2 <= MAX_DIM."""
    if not _is_whole(d) or d < 2:
        raise ValidationError("bell_diagonal needs integer d >= 2")
    if d * d > MAX_DIM:
        raise ValidationError(f"bell_diagonal needs d^2 <= {MAX_DIM}, got d = {int(d)}")
    return int(d) ** 2


def bell_diagonal(weights, d):
    """Mixture of the d*d maximally entangled basis states on C^d x C^d.

    Basis vectors are indexed lexicographically by (m, n), m major, built by
    shift-and-phase unitaries acting on the first factor of the canonical
    maximally entangled state; (0, 0) is (1/sqrt(d)) sum_j |jj>. Fewer than
    d*d weights are padded with zeros. The report flag `is_real` records
    whether the resulting operator equals its transpose, which holds iff
    weight(m, n) = weight((-m) mod d, n).
    """
    bell_dim(d)
    d = int(d)
    w = np.array([float(x) for x in weights])
    if w.size > d * d:
        raise ValidationError(f"{w.size} weights exceed d^2 = {d * d}")
    w = np.concatenate([w, np.zeros(d * d - w.size)])
    rho = _hw_bell_vectors(d).state(w)
    table = w.reshape(d, d)
    real = bool(np.all(np.abs(table - table[-np.arange(d) % d]) <= 1e-12))
    return BellDiagonal(rho=rho, is_real=real, weights=w)


def tensor_power(rho, nu):
    """rho tensored with itself nu times, nu in {1, 2, 3}, dim capped at 256."""
    if nu not in (1, 2, 3):
        raise ValidationError(f"nu must be 1, 2, or 3, got {nu!r}")
    if rho.dim ** nu > 256:
        raise ValidationError(f"tensor_power dimension {rho.dim ** nu} exceeds cap 256")
    if nu == 1:
        return rho
    return _cut_state(tensor(*([rho.matrix] * nu)), rho.spectrum.rank_tol)


@dataclass(eq=False)
class PovmSet:
    effects: list


def povm_set(effects):
    """Validate a list of effects: each PSD within 1e-10, summing to identity."""
    mats = [require_hermitian(e, f"POVM effect {i}") for i, e in enumerate(effects)]
    if not mats:
        raise ValidationError("empty POVM")
    dim = mats[0].shape[0]
    if any(m.shape[0] != dim for m in mats):
        raise ValidationError("POVM effects have mismatched dimensions")
    for i, m in enumerate(mats):
        if np.linalg.eigvalsh((m + dagger(m)) / 2).min() < -PSD_TOL:
            raise ValidationError(f"POVM effect {i} is not positive semidefinite")
    total = sum(mats)
    if np.linalg.norm(total - np.eye(dim)) > 1e-10 * max(1.0, np.sqrt(dim)):
        raise ValidationError("POVM effects do not sum to the identity")
    return PovmSet(effects=mats)


def state_marginal(rho, dims, keep):
    """Partial trace of a DensityMatrix over the complement of `keep`."""
    return _cut_state(partial_trace(rho.matrix, dims, keep), rho.spectrum.rank_tol)


def transpose_invariant(rho, tol=1e-10):
    """Whether rho equals its transpose (entrywise real operator)."""
    mat = as_square_matrix(rho.matrix if isinstance(rho, DensityMatrix) else rho)
    return bool(np.linalg.norm(mat - mat.T) <= tol * max(1.0, np.linalg.norm(mat)))

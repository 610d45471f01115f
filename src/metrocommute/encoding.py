"""Unitary parameter encodings U(theta) = exp(-i sum_i theta_i H_i) and the
generators that drive every derivative downstream.

The generator of parameter i at a point theta is the Hermitian operator
G_i = i U(theta)^dag dU/dtheta_i. For commuting Hamiltonian sets G_i = H_i
identically; in general G_i is the average of H_i conjugated along the flow,
which has a closed form in the eigenbasis w of K = sum_j theta_j H_j:

    <a| G_i |b> = <a| H_i |b> * phi(kappa_a - kappa_b),
    phi(x) = (exp(ix) - 1) / (ix),  phi(0) = 1,

with kappa the eigenvalues of K. phi has a removable singularity at 0 and
the ratio loses digits near it, so phi is evaluated as
exp(ix/2) sin(x/2) / (x/2), which needs no threshold. The closed form is the
production path; finite differences exist only as a test oracle.

An EncodingPoint holds the generators in that eigenbasis, X_i = w^dag G_i w,
together with (kappa, w): the SLDs need only X_i and one change of basis, so
the unitary U and the stack of computational-basis generators
G_i = w X_i w^dag are built on first read.

encode_stack evaluates N encodings of one shape at once, with a leading
(N, ...) axis and one batched eigh; encode is its N = 1 case.
hamiltonian_set checks one Hamiltonian list through hamiltonian_checks,
which checks a stack of them.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operator_core import (
    HERM_TOL,
    ValidationError,
    as_square_array,
    dagger,
    first_failure,
    hermitian_rows,
)
from .states import DensityMatrix, SpectralData

COMMUTE_TOL = 1e-10


def _pairwise_commuting(mats):
    """Whether every pair commutes within COMMUTE_TOL relative to the norms."""
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            bound = COMMUTE_TOL * max(
                1.0, np.linalg.norm(mats[i]) * np.linalg.norm(mats[j])
            )
            if np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i]) > bound:
                return False
    return True


@dataclass(eq=False)
class HamiltonianSet:
    """Validated Hamiltonians, held as one (m, d, d) stack; `hams` lists
    them as views of it, and `commuting` is computed on first read."""

    stack: np.ndarray

    @property
    def hams(self):
        return list(self.stack)

    @property
    def dim(self):
        return self.stack.shape[1]

    @property
    def m(self):
        return len(self.stack)

    @cached_property
    def commuting(self):
        return _pairwise_commuting(self.hams)


def hamiltonian_set(hams):
    """Validate a list of Hermitian Hamiltonians of one dimension: the
    shapes first, then hamiltonian_checks of the list as a stack of one.
    Pairwise commutation is flagged by the set's `commuting` property."""
    mats = [as_square_array(h, f"Hamiltonian {i}") for i, h in enumerate(hams)]
    if not mats:
        raise ValidationError("empty Hamiltonian list")
    if any(h.shape != mats[0].shape for h in mats):
        raise ValidationError("Hamiltonians have mismatched dimensions")
    stack = np.stack(mats)
    failure = hamiltonian_checks(stack[None])
    if failure:
        raise ValidationError(failure[1])
    return HamiltonianSet(stack=stack)


def hamiltonian_checks(hams):
    """The checks of hamiltonian_set past the shapes, for a stack of
    Hamiltonian lists (n, m, d, d): None, or (k, message) for the first list
    k with a Hamiltonian that has non-finite entries or is not Hermitian,
    named with its index."""
    # a matrix with non-finite entries is not Hermitian either
    bad = ~hermitian_rows(hams)

    def message(k):
        i = int(np.argmax(bad[k]))
        if not np.isfinite(hams[k, i]).all():
            return f"Hamiltonian {i} has non-finite entries"
        return f"Hamiltonian {i} is not Hermitian within tolerance {HERM_TOL}"

    return first_failure([(bad.any(axis=1), message)])


@dataclass(eq=False)
class EncodingPoint:
    """The encoding at one theta, held in the eigenbasis of K.

    kappa, w: eigenvalues (descending) and eigenvectors of K
    elems: (m, d, d) stack of X_i = w^dag G_i w
    U, generator_stack: exp(-i K) and the (m, d, d) stack of the G_i, built
        on first read; generators lists the G_i as views of that stack
    """

    theta: np.ndarray
    kappa: np.ndarray
    w: np.ndarray
    elems: np.ndarray

    @property
    def dim(self):
        return self.w.shape[0]

    @property
    def m(self):
        return len(self.elems)

    @cached_property
    def U(self):
        return (self.w * np.exp(-1j * self.kappa)) @ dagger(self.w)

    @cached_property
    def generator_stack(self):
        gens = self.w @ self.elems @ dagger(self.w)
        return (gens + dagger(gens)) / 2.0

    @property
    def generators(self):
        return list(self.generator_stack)


def _phi(x):
    # (exp(ix) - 1) / (ix) = exp(ix/2) sin(x/2) / (x/2), free of cancellation
    # near 0; np.sinc(y) = sin(pi y) / (pi y) fills the removable singularity
    x = np.asarray(x, dtype=float)
    return np.exp(0.5j * x) * np.sinc(x / (2.0 * np.pi))


def checked_theta(h_set, theta):
    """theta as a flat array of finite floats, one entry per Hamiltonian."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != h_set.m:
        raise ValidationError(
            f"theta has {theta.size} entries for {h_set.m} Hamiltonians"
        )
    if not np.all(np.isfinite(theta)):
        raise ValidationError(f"theta has non-finite entries: {theta.tolist()}")
    return theta


def encode_stack(hams, thetas):
    """The encoding kernel for N problems of one shape.

    hams: (N, m, d, d) Hamiltonians; thetas: (N, m). Returns (kappa, w, x):
    the eigenvalues of K = sum_i theta_i H_i in descending order, (N, d), its
    eigenvectors, (N, d, d), and the eigenbasis generators
    X_i = herm((w^dag H_i w) o phi(kappa_a - kappa_b)), (N, m, d, d). The
    Hamiltonians are validated and theta finite (checked_theta), so the
    symmetrised K is checked only for overflow before it goes to eigh;
    reversing eigh's ascending order gives the descending kappa.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k = sum(thetas[:, i, None, None] * hams[:, i] for i in range(hams.shape[1]))
        k = (k + dagger(k)) / 2.0
    if not np.all(np.isfinite(k)):
        raise ValidationError("K = sum_i theta_i H_i overflows: theta is too large")
    try:
        kappa, w = np.linalg.eigh(k)
    except np.linalg.LinAlgError as err:
        raise ValidationError(f"eigendecomposition of K = sum_i theta_i H_i: {err}") from None
    kappa = np.ascontiguousarray(kappa[:, ::-1])
    w = np.ascontiguousarray(w[:, :, ::-1])
    phase = _phi(kappa[:, :, None] - kappa[:, None, :])
    x = dagger(w)[:, None] @ hams @ w[:, None]
    x *= phase[:, None]
    # dagger allocates one conjugated copy; += adds it without a second temporary
    x += dagger(x)
    x *= 0.5
    return kappa, w, x


def encode(h_set, theta):
    """Evaluate the encoding at theta: the eigenpairs of K and all m
    generators in its eigenbasis (encode_stack at N = 1)."""
    theta = checked_theta(h_set, theta)
    kappa, w, x = encode_stack(h_set.stack[None], theta[None])
    return EncodingPoint(theta=theta, kappa=kappa[0], w=w[0], elems=x[0])


def evolve(rho, pt):
    """Conjugate a state by the encoding unitary, preserving its spectrum;
    the matrix is built from the rotated eigenvectors on first read."""
    if rho.dim != pt.dim:
        raise ValidationError("state and encoding dimensions differ")
    old = rho.spectrum
    spec = SpectralData(
        eigenvalues=old.eigenvalues.copy(),
        eigenvectors=pt.U @ old.eigenvectors,
        rank=old.rank,
        rank_tol=old.rank_tol,
    )
    return DensityMatrix(spectrum=spec)

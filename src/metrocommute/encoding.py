"""Unitary parameter encodings U(theta) = exp(-i sum_i theta_i H_i) and the
generators that drive every derivative downstream.

The generator of parameter i at a point theta is the Hermitian operator
G_i = i U(theta)^dag dU/dtheta_i. For commuting Hamiltonian sets G_i = H_i
identically; in general G_i is the average of H_i conjugated along the flow,
which has a closed form in the eigenbasis of K = sum_j theta_j H_j:

    <a| G_i |b> = <a| H_i |b> * phi(kappa_a - kappa_b),
    phi(x) = (exp(ix) - 1) / (ix),  phi(0) = 1,

with kappa the eigenvalues of K. phi has a removable singularity at 0 and
the ratio loses digits near it, so phi is evaluated as
exp(ix/2) sin(x/2) / (x/2), which needs no threshold. The closed form is the
production path; finite differences exist only as a test oracle.
"""

from dataclasses import dataclass

import numpy as np

from .operator_core import (
    ValidationError,
    dagger,
    hermitian_eig,
    require_hermitian,
)

COMMUTE_TOL = 1e-10


@dataclass(eq=False)
class HamiltonianSet:
    hams: list
    commuting: bool

    @property
    def dim(self):
        return self.hams[0].shape[0]

    @property
    def m(self):
        return len(self.hams)


def hamiltonian_set(hams):
    """Validate a list of Hermitian Hamiltonians and flag pairwise commutation."""
    mats = [require_hermitian(h, f"Hamiltonian {i}") for i, h in enumerate(hams)]
    if not mats:
        raise ValidationError("empty Hamiltonian list")
    dim = mats[0].shape[0]
    if any(h.shape[0] != dim for h in mats):
        raise ValidationError("Hamiltonians have mismatched dimensions")
    commuting = True
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            bound = COMMUTE_TOL * max(
                1.0, np.linalg.norm(mats[i]) * np.linalg.norm(mats[j])
            )
            if np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i]) > bound:
                commuting = False
    return HamiltonianSet(hams=mats, commuting=commuting)


@dataclass(eq=False)
class EncodingPoint:
    theta: np.ndarray
    U: np.ndarray
    generators: list

    @property
    def dim(self):
        return self.U.shape[0]

    @property
    def m(self):
        return len(self.generators)


def _phi(x):
    # (exp(ix) - 1) / (ix) = exp(ix/2) sin(x/2) / (x/2), free of cancellation
    # near 0; np.sinc(y) = sin(pi y) / (pi y) fills the removable singularity
    x = np.asarray(x, dtype=float)
    return np.exp(0.5j * x) * np.sinc(x / (2.0 * np.pi))


def encode(h_set, theta):
    """Evaluate the encoding at theta: the unitary and all m generators."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != h_set.m:
        raise ValidationError(
            f"theta has {theta.size} entries for {h_set.m} Hamiltonians"
        )
    k = sum(t * h for t, h in zip(theta, h_set.hams))
    kappa, v = hermitian_eig(k)
    u = (v * np.exp(-1j * kappa)) @ dagger(v)
    phase = _phi(kappa[:, None] - kappa[None, :])
    gens = []
    for h in h_set.hams:
        g = v @ ((dagger(v) @ h @ v) * phase) @ dagger(v)
        gens.append((g + dagger(g)) / 2.0)
    return EncodingPoint(theta=theta, U=u, generators=gens)


def evolve(rho, pt):
    """Conjugate a state by the encoding unitary, preserving its spectrum."""
    from .states import DensityMatrix, SpectralData

    if rho.dim != pt.dim:
        raise ValidationError("state and encoding dimensions differ")
    u = pt.U
    mat = u @ rho.matrix @ dagger(u)
    mat = (mat + dagger(mat)) / 2.0
    old = rho.spectrum
    spec = SpectralData(
        eigenvalues=old.eigenvalues.copy(),
        eigenvectors=u @ old.eigenvectors,
        rank=old.rank,
        rank_tol=old.rank_tol,
    )
    return DensityMatrix(matrix=mat, spectrum=spec)

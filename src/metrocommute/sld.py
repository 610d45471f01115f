"""Symmetric logarithmic derivatives by two independent routes, copy-space
SLDs, and classical Fisher information for a fixed measurement.

The primary route works in the frame rotated back by the encoding unitary,
where the SLD of parameter i has matrix elements

    <k| L_i |l> = 2i (lam_k - lam_l) / (lam_k + lam_l) <k| G_i |l>

over eigenpairs of the initial state with lam_k + lam_l above the rank cutoff
(G_i the encoding generator). The kernel-kernel block is not determined by the
defining equation and is fixed to zero; every rho-sandwiched quantity is
invariant under that gauge choice.
"""

from dataclasses import dataclass, field

import numpy as np

from .operator_core import ValidationError, dagger, require_hermitian, tensor
from .states import RANK_TOL


@dataclass(eq=False)
class SldSet:
    """Rotated-frame SLD operators plus the eigenbasis tables they came from.

    ops: list of m Hermitian operators
    spec: SpectralData of the state the SLDs belong to
    elems: the same m operators in that state's eigenbasis, V^dag L_i V with V
        = spec.eigenvectors; condition_operators_direct reads only these
    eta, gamma: coefficient tables (lam_k - lam_l)/(lam_k + lam_l) and
        -4 (lam_k - lam_l) lam_k lam_l / (lam_k + lam_l)^2 over support pairs
    """

    ops: list
    spec: object
    elems: list = None
    eta: np.ndarray = None
    gamma: np.ndarray = None


def _support_values(spec):
    lam = spec.eigenvalues.copy()
    lam[lam <= spec.rank_tol] = 0.0
    return lam


def sld_rotated(spec, pt):
    """SLDs in the rotated frame from spectral data and an encoding point."""
    if spec.dim != pt.dim:
        raise ValidationError("spectral data and encoding dimensions differ")
    lam = _support_values(spec)
    v = spec.eigenvectors
    denom = lam[:, None] + lam[None, :]
    live = denom > spec.rank_tol
    coeff = np.zeros_like(denom)
    coeff[live] = (lam[:, None] - lam[None, :])[live] / denom[live]
    r = spec.rank
    lam_s = lam[:r]
    ds = lam_s[:, None] + lam_s[None, :]
    eta = (lam_s[:, None] - lam_s[None, :]) / ds
    gamma = -4.0 * (lam_s[:, None] - lam_s[None, :]) * (lam_s[:, None] * lam_s[None, :]) / ds**2
    vh = dagger(v)
    elems = [2j * coeff * (vh @ g @ v) for g in pt.generators]
    ops = [v @ l @ vh for l in elems]
    return SldSet(ops=ops, spec=spec, elems=elems, eta=eta, gamma=gamma)


def sld_lyapunov(rho_theta, drho, rank_tol=None):
    """Solve drho = (L rho + rho L) / 2 for Hermitian trace-zero drho.

    Solved elementwise in the eigenbasis of rho_theta with 2 / (lam_k + lam_l)
    coefficients; element pairs whose eigenvalue sum is at or below the rank
    cutoff are set to zero (same gauge as the rotated route).
    """
    drho = require_hermitian(drho, "drho")
    if abs(np.trace(drho)) > 1e-9 * max(1.0, np.linalg.norm(drho)):
        raise ValidationError("drho must be trace-zero")
    spec = rho_theta.spectrum
    if rank_tol is None:
        rank_tol = spec.rank_tol
    lam = _support_values(spec)
    v = spec.eigenvectors
    denom = lam[:, None] + lam[None, :]
    live = denom > rank_tol
    elem = dagger(v) @ drho @ v
    l_eig = np.zeros_like(elem)
    l_eig[live] = 2.0 * elem[live] / denom[live]
    out = v @ l_eig @ dagger(v)
    return (out + dagger(out)) / 2.0


def nu_copy_sld(slds, nu):
    """SLDs of the nu-fold product state, additive over copy slots.

    L on copy space = sum over positions of 1 x ... x L_i x ... x 1, with the
    product state's kernel-kernel block then zeroed to match the gauge of the
    single-copy construction.
    """
    from .states import tensor_power, DensityMatrix

    if nu not in (1, 2, 3):
        raise ValidationError(f"nu must be 1, 2, or 3, got {nu!r}")
    if nu == 1:
        return slds
    spec = slds.spec
    rho_small = DensityMatrix(
        matrix=(spec.eigenvectors * spec.eigenvalues) @ dagger(spec.eigenvectors),
        spectrum=spec,
    )
    big = tensor_power(rho_small, nu)
    eye = np.eye(spec.dim)
    pi_ker = big.spectrum.kernel_projector
    v = big.spectrum.eigenvectors
    ops = []
    for l in slds.ops:
        total = np.zeros((spec.dim**nu, spec.dim**nu), dtype=complex)
        for pos in range(nu):
            factors = [eye] * nu
            factors[pos] = l
            total = total + tensor(*factors)
        total = total - pi_ker @ total @ pi_ker
        ops.append((total + dagger(total)) / 2.0)
    elems = [dagger(v) @ l @ v for l in ops]
    return SldSet(ops=ops, spec=big.spectrum, elems=elems)


@dataclass(eq=False)
class CfimResult:
    matrix: np.ndarray
    probabilities: np.ndarray


P_FLOOR = 1e-12


def cfim(rho_theta, povm, slds_ops):
    """Classical Fisher information of the POVM outcome distribution.

    slds_ops: SLD operators in the same frame as rho_theta (a list or an
    SldSet). Outcomes with probability at or below 1e-12 are dropped.
    """
    ops = slds_ops.ops if isinstance(slds_ops, SldSet) else list(slds_ops)
    rho = rho_theta.matrix
    m = len(ops)
    probs = np.array([np.trace(rho @ e).real for e in povm.effects])
    grads = np.zeros((m, len(povm.effects)))
    for i, l in enumerate(ops):
        rl = rho @ l
        grads[i] = [np.trace(rl @ e).real for e in povm.effects]
    fc = np.zeros((m, m))
    for w, p in enumerate(probs):
        if p <= P_FLOOR:
            continue
        fc += np.outer(grads[:, w], grads[:, w]) / p
    fc = (fc + fc.T) / 2.0
    return CfimResult(matrix=fc, probabilities=probs)


def sld_encoded(slds, pt):
    """Rotate SLDs into the encoded frame: L -> U L U^dag."""
    u = pt.U
    return [u @ l @ dagger(u) for l in slds.ops]

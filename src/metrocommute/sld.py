"""Symmetric logarithmic derivatives by two independent routes, copy-space
SLDs, and classical Fisher information for a fixed measurement.

The primary route works in the frame rotated back by the encoding unitary,
where the SLD of parameter i has matrix elements

    <k| L_i |l> = 2i (lam_k - lam_l) / (lam_k + lam_l) <k| G_i |l>

over eigenpairs of the initial state with lam_k + lam_l > 0 (G_i the encoding
generator; the spectrum is cut where the state is built, so the kernel
eigenvalues are exact zeros). The kernel-kernel block is not determined by the
defining equation and is fixed to zero; every rho-sandwiched quantity is
invariant under that gauge choice.

The gauge also carries the speed: with eigenvalues in descending order and r
the rank, the eigenbasis SLD l_i = V^dag L_i V is fixed by its r support rows
R_i = l_i[:r, :], the rest being the mirrored block R_i[:, r:]^dag. The rows
need V_r^dag G_i V, which sld_row_stack, the one SLD kernel, takes from
encode_stack's result in the form it has, with no computational-basis
generator:

  - a dense set's (kappa, w, x), through one shared change of basis
    T = w^dag V (w the eigenvectors of K): R_i = 2i coeff[:r] o
    (T[:, :r]^dag X_i T), 2 r d^2 per parameter;
  - a product form's encoding.LocalEncoding, with no eigenbasis of K: G_i is
    a 2 x 2 block g_i on one qubit, so R_i = 2i coeff[:r] o ((g_i V_r)^dag
    V), where g_i V_r mixes the two halves of the (d, r) support columns
    that differ in that qubit's bit, 4 d r per parameter, before one product
    with V, 2 r d^2.

sld_row_stack computes the rows of N problems of one shape and rank at
once; classify_stack calls it for N problems and sld_rotated for one, on
the encoding point's `enc`. The full l_i and the operators L_i are built on
first read.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .encoding import LocalEncoding
from .operator_core import ValidationError, dagger, require_hermitian, tensor
from .states import DensityMatrix, tensor_power


@dataclass(eq=False)
class SldSet:
    """Eigenbasis SLD rows of one state.

    spec: SpectralData of the state the SLDs belong to
    rows: (m, r, d) stack of the support rows R_i = l_i[:r, :] of the SLDs in
        that state's eigenbasis V = spec.eigenvectors, r = spec.rank
    elems: the full l_i = V^dag L_i V, (m, d, d), zero on the kernel-kernel
        block; built on first read
    op_stack: the m Hermitian operators L_i = V l_i V^dag, (m, d, d); built
        on first read, and `ops` lists them as views of it
    """

    spec: object
    rows: np.ndarray

    @cached_property
    def elems(self):
        m, r, d = self.rows.shape
        out = np.zeros((m, d, d), dtype=complex)
        out[:, :r] = self.rows
        out[:, r:, :r] = dagger(self.rows[:, :, r:])
        return out

    @cached_property
    def op_stack(self):
        v = self.spec.eigenvectors
        return v @ self.elems @ dagger(v)

    @property
    def ops(self):
        return list(self.op_stack)


def sld_row_stack(lam, rank, v, enc):
    """The SLD kernel for N problems of one shape and one rank r.

    lam: (N, d) state eigenvalues (descending and cut: the kernel ones are
    exact zeros); v: (N, d, d) state eigenvectors; enc: encode_stack's
    result, (kappa, w, x) with a leading axis of N, or of 1 when the
    problems share it, or a LocalEncoding (shared by all N). Returns the
    support rows R_i = 2i coeff[:r] o (V_r^dag G_i V) as (N, m, r, d): for a
    dense (kappa, w, x), from the eigenvectors w of K and the eigenbasis
    generators x, as T[:, :r]^dag X_i T with T = w^dag V; for a
    LocalEncoding on d = 2^q, as (g_i V_r)^dag V from the 2 x 2 blocks g_i
    of its generators.
    Every support row has lam_k above the cutoff, so no pair is dropped.

    Qubit 0 is the leftmost tensor factor, so in the C-order (d, r) columns
    V_r qubit s is the axis of two of their (2^s, 2, 2^(q-1-s) r) view,
    which g_i mixes.
    """
    lam_s = lam[:, :rank, None]
    coeff = (lam_s - lam[:, None]) / (lam_s + lam[:, None])
    if not isinstance(enc, LocalEncoding):
        _, w, x = enc
        t = dagger(w) @ v
        return 2j * coeff[:, None] * (dagger(t[:, :, :rank])[:, None] @ x @ t[:, None])
    generators = enc.generators
    cols = np.ascontiguousarray(v[:, :, :rank])
    n = len(cols)
    # one contiguous (N, d, r) stack per parameter, so each reshape is a view
    gv = np.empty((len(generators.site), *cols.shape), dtype=complex)
    for out, s, g in zip(gv, generators.site.tolist(), generators.blocks):
        a = cols.reshape(n, 2**s, 2, -1)
        b = out.reshape(n, 2**s, 2, -1)
        b[:, :, 0] = g[0, 0] * a[:, :, 0] + g[0, 1] * a[:, :, 1]
        b[:, :, 1] = g[1, 0] * a[:, :, 0] + g[1, 1] * a[:, :, 1]
    np.conj(gv, out=gv)
    return 2j * coeff[:, None] * (gv.transpose(1, 0, 3, 2) @ v[:, None])


def sld_rotated(spec, pt):
    """SLDs in the rotated frame from spectral data and an encoding point
    (sld_row_stack at N = 1, on the point's `enc` in either form)."""
    if spec.dim != pt.dim:
        raise ValidationError("spectral data and encoding dimensions differ")
    rows = sld_row_stack(spec.eigenvalues[None], spec.rank, spec.eigenvectors[None], pt.enc)
    return SldSet(spec=spec, rows=rows[0])


def sld_lyapunov(rho_theta, drho):
    """Solve drho = (L rho + rho L) / 2 for Hermitian trace-zero drho.

    Solved elementwise in the eigenbasis of rho_theta with 2 / (lam_k + lam_l)
    coefficients; the kernel-kernel elements, whose eigenvalue sum is zero
    in the cut spectrum, are set to zero (same gauge as the rotated route).
    """
    drho = require_hermitian(drho, "drho")
    if abs(np.trace(drho)) > 1e-9 * max(1.0, np.linalg.norm(drho)):
        raise ValidationError("drho must be trace-zero")
    spec = rho_theta.spectrum
    lam = spec.eigenvalues
    v = spec.eigenvectors
    denom = lam[:, None] + lam[None, :]
    live = denom > 0.0
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
    if nu not in (1, 2, 3):
        raise ValidationError(f"nu must be 1, 2, or 3, got {nu!r}")
    if nu == 1:
        return slds
    spec = slds.spec
    big = tensor_power(DensityMatrix(spectrum=spec), nu)
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
    stack = np.stack(ops)
    out = SldSet(spec=big.spectrum, rows=dagger(v[:, : big.rank]) @ stack @ v)
    out.op_stack = stack  # already built here; fills the cached property
    return out


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

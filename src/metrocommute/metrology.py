"""Quantum Fisher information, the scalar precision bound, the
incompatibility measure derived from W, and ordering/additivity checks.

The QFIM is F_ij = (1/2) tr[rho (L_i L_j + L_j L_i)]. Near-singular QFIMs are
refused rather than pseudo-inverted: a singular F means the parameters are not
jointly identifiable at this point, which some of the worked examples hit by
construction, and that must surface as an explicit error rather than a number.

qfim is the real part of the state trace tr[(rho L_i) L_j] over the pairs
i <= j (_state_traces), every pair at once; conditions.weak_direct is its
imaginary part over the pairs i < j.

qfim_stack and incompatibility_stack work on stacks of m x m matrices with a
leading (N, ...) axis; qfim_result and incompatibility are their N = 1 cases.
Both read the QFIMs' eigenvalues, which a caller that has them passes in, and
a QfimResult keeps them, so that qcr_scalar decides invertibility from the
same eigvalsh call: a classify diagonalizes its QFIM once.
"""

from dataclasses import dataclass

import numpy as np

from .operator_core import ValidationError, _pairs, is_hermitian
from .sld import SldSet, cfim, nu_copy_sld, sld_rotated
from .states import DensityMatrix

CONDITION_LIMIT = 1e12
SINGULAR_MESSAGE = "parameters not jointly identifiable"


@dataclass(eq=False)
class QfimResult:
    matrix: np.ndarray
    rank: int
    condition_number: float
    eigenvalues: np.ndarray  # ascending, as np.linalg.eigvalsh gives them


def _state_traces(rho, ops, pairs):
    """tr[(rho L_i) L_j] for each index pair (i, j), a column of the (2, k)
    array pairs, from a stack of operators: one product rho L_i and one
    elementwise sum tr[A B] = sum_kl A_kl B_lk per pair, every pair at once."""
    d = ops.shape[-1]
    l_i, l_j = ops[pairs]
    return ((rho.matrix @ l_i) * np.swapaxes(l_j, 1, 2)).reshape(-1, d * d).sum(axis=1)


def qfim(rho, slds):
    """F_ij = (1/2) tr[rho (L_i L_j + L_j L_i)], with rank and conditioning.

    For Hermitian L_i this is Re tr[(rho L_i) L_j], the state trace whose
    imaginary part is conditions.weak_direct, over the pairs i <= j.
    """
    ops = slds.op_stack if isinstance(slds, SldSet) else np.array(list(slds))
    m = len(ops)
    # the pairs i < j of m + 1 indices, each j less one, are the pairs i <= j
    # of m in row-major order: np.triu_indices(m) from the cached pair index,
    # without building it on every call
    pairs = _pairs(m + 1) - [[0], [1]]
    i, j = pairs
    f = np.zeros((m, m))
    f[i, j] = f[j, i] = _state_traces(rho, ops, pairs).real
    return qfim_result(f)


def qfim_result(f):
    """Wrap a real symmetric QFIM matrix with its numerical rank and
    condition number (inf when rank-deficient)."""
    return qfim_stack(np.asarray(f, dtype=float)[None])[0]


def qfim_stack(f, eigs=None):
    """qfim_result for each real symmetric QFIM in a stack f of shape (N, m, m),
    from their eigenvalues eigs (N, m), np.linalg.eigvalsh(f) when None."""
    if eigs is None:
        eigs = np.linalg.eigvalsh(f)
    top, low = np.maximum(eigs[:, -1], 0.0), eigs[:, 0]
    rank = np.sum(eigs > 1e-12 * np.maximum(1.0, top)[:, None], axis=1)
    full = (rank == f.shape[1]) & (low > 0)
    cond = np.full(len(f), np.inf)
    cond[full] = top[full] / low[full]
    return [
        QfimResult(matrix=fk, rank=int(rk), condition_number=float(ck), eigenvalues=ek)
        for fk, rk, ck, ek in zip(f, rank, cond, eigs)
    ]


def _as_qfim_matrix(f):
    return f.matrix if isinstance(f, QfimResult) else np.asarray(f, dtype=float)


def _invertible(eigs):
    """Whether each QFIM, given by its ascending eigenvalues (last axis), is
    positive definite and conditioned below CONDITION_LIMIT. A ratio that
    overflows (a smallest eigenvalue near the bottom of the float range) is
    infinite, and fails."""
    top, low = eigs[..., -1], eigs[..., 0]
    with np.errstate(over="ignore"):
        return (low > 0) & (top / np.where(low > 0, low, 1.0) < CONDITION_LIMIT)


def _checked_weight(weight, m, name="weight matrix"):
    """The weight matrix M of tr[M F^-1] for m parameters, as a float array:
    the identity when weight is None, else m x m (a shape error names the
    field, `name`), symmetric within operator_core.is_hermitian's scale-safe
    test (which non-finite entries fail) and positive definite. Its
    symmetric part is summed in halves, so entries near overflow stay
    finite, and a NaN eigenvalue fails. The one check of a weight's shape,
    for a descriptor's weight_matrix, --weight and qcr_scalar alike."""
    if weight is None:
        return np.eye(m)
    weight = np.asarray(weight, dtype=float)
    if weight.shape != (m, m):
        raise ValidationError(f"{name}: expected shape ({m}, {m}), got {weight.shape}")
    if not is_hermitian(weight):
        raise ValidationError("weight matrix must be symmetric")
    if not np.linalg.eigvalsh(weight / 2 + weight.T / 2).min() > 0:
        raise ValidationError("weight matrix must be positive definite")
    return weight


def qcr_scalar(f_q, weight=None):
    """tr[M F^-1]: the scalar precision bound for weight matrix M.

    M defaults to the identity and must be real symmetric positive definite
    (_checked_weight). Raises a validation error mentioning joint
    identifiability when F is singular or conditioned beyond 1e12, and one
    when the bound overflows. A QfimResult's eigenvalues decide that; a bare
    matrix is diagonalized here.
    """
    fm = _as_qfim_matrix(f_q)
    weight = _checked_weight(weight, fm.shape[0])
    eigs = f_q.eigenvalues if isinstance(f_q, QfimResult) else np.linalg.eigvalsh(fm)
    if not _invertible(eigs):
        raise ValidationError(SINGULAR_MESSAGE)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(np.trace(np.linalg.solve(fm, weight)))
    if not np.isfinite(bound):
        raise ValidationError("tr[M F^-1] overflows: the weight matrix is too large")
    return bound


@dataclass(eq=False)
class IncompatibilityResult:
    e_value: float
    sandwich_factor: float


def incompatibility(f_q, w):
    """E = (1/2) max |eig(F^-1 W)|, in [0, 1]; zero exactly on WC states.

    w may be a ScalarConditionMatrix or a raw complex antisymmetric matrix.
    Raises a validation error mentioning joint identifiability when F is
    singular or conditioned beyond 1e12 (incompatibility_stack at N = 1).
    """
    w_entries = np.asarray(getattr(w, "entries", w), dtype=complex)
    e = float(incompatibility_stack(_as_qfim_matrix(f_q)[None], w_entries[None])[0])
    if np.isnan(e):
        raise ValidationError(SINGULAR_MESSAGE)
    return IncompatibilityResult(e_value=e, sandwich_factor=1.0 + e)


def incompatibility_stack(f, w, eigs=None):
    """E for each pair of a QFIM stack f and a W stack w, both (N, m, m);
    NaN where F is singular or conditioned beyond CONDITION_LIMIT, as
    decided from the QFIMs' eigenvalues eigs (N, m), np.linalg.eigvalsh(f)
    when None."""
    ok = _invertible(np.linalg.eigvalsh(f) if eigs is None else eigs)
    e = np.full(len(f), np.nan)
    if ok.any():
        x = np.linalg.solve(f[ok], w[ok])
        e[ok] = 0.5 * np.max(np.abs(np.linalg.eigvals(x)), axis=1)
    return e


def verify_fc_order(rho, povm, slds):
    """Check F_Q - F_C is positive semidefinite; returns (ok, witness).

    witness is the minimum eigenvalue of F_Q - F_C; ok means it clears the
    -1e-9 floor.
    """
    f_q = qfim(rho, slds)
    f_c = cfim(rho, povm, slds)
    gap = f_q.matrix - f_c.matrix
    witness = float(np.linalg.eigvalsh((gap + gap.T) / 2).min())
    return witness >= -1e-9, witness


def qfim_additivity(rho, pt, nu):
    """Relative deviation between F on nu copies and nu times F on one copy.

    Falls back to the absolute deviation when the single-copy F vanishes
    (maximally mixed states).
    """
    if nu not in (2, 3):
        raise ValidationError(f"nu must be 2 or 3, got {nu!r}")
    slds = sld_rotated(rho.spectrum, pt)
    f_one = qfim(rho, slds).matrix
    slds_nu = nu_copy_sld(slds, nu)
    # nu_copy_sld has cut the product state: its spectrum is the state's
    f_nu = qfim(DensityMatrix(spectrum=slds_nu.spec), slds_nu).matrix
    ref = np.linalg.norm(nu * f_one)
    dev = np.linalg.norm(f_nu - nu * f_one)
    if ref <= 1e-15:
        return float(dev)
    return float(dev / ref)

"""Commutativity condition matrices of an encoded state, by independent
routes, plus the support/kernel decomposition of the operator conditions and
the saturation-hierarchy classifier.

Conventions used throughout (rotated frame, lam the state eigenvalues,
G_i the encoding generators, h^(i) their eigenbasis elements):

  W_ij  = tr[rho (L_i L_j - L_j L_i)]          scalar, antisymmetric, imaginary
  P_ij  = Pi (L_i L_j - L_j L_i) Pi            support-sandwiched operator
  O_ij  = (L_i L_j - L_j L_i) Pi               one-sided operator
  S_ij  = L_i L_j - L_j L_i                    full commutator
  p_ij  = tr |sqrt(rho) (L_i L_j - L_j L_i) sqrt(rho)|

The four flags satisfy SC => OC => PC => WC; rank-deficient states are where
they genuinely differ. W admits three more routes besides the direct trace:
a support-pair decomposition W = Gamma + Delta, a rank-two fast path, and a
spectral kernel route; all must agree to 1e-9. Delta and the truncated series
are defined by traces on the doubled space C^d x C^d and evaluated on d x d
matrices through tr[SWAP (A x B)] = tr[A B].
"""

from dataclasses import dataclass

import numpy as np

from .encoding import encode
from .metrology import QfimResult, qfim
from .operator_core import ValidationError, commutator, dagger
from .sld import sld_rotated


@dataclass(eq=False)
class ScalarConditionMatrix:
    entries: np.ndarray
    kind: str

    @property
    def norm(self):
        return float(np.linalg.norm(self.entries))


@dataclass(eq=False)
class OperatorConditionMatrix:
    entries: list  # m x m nested list of dim x dim arrays
    kind: str

    @property
    def m(self):
        return len(self.entries)

    @property
    def norm(self):
        """Frobenius norm over all blocks."""
        return float(
            np.sqrt(sum(np.linalg.norm(b) ** 2 for row in self.entries for b in row))
        )

    def entry(self, i, j):
        return self.entries[i][j]


def _antisymmetric_operator_matrix(m, dim, fill, kind):
    """Assemble an m x m operator matrix from fill(i, j) for i < j."""
    zero = np.zeros((dim, dim), dtype=complex)
    entries = [[zero.copy() for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            block = fill(i, j)
            entries[i][j] = block
            entries[j][i] = -block
    return OperatorConditionMatrix(entries=entries, kind=kind)


def weak_direct(rho, slds):
    """W_ij = tr[rho (L_i L_j - L_j L_i)] from the state and its SLDs."""
    ops = slds.ops
    m = len(ops)
    w = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            val = 2j * np.trace(rho.matrix @ ops[i] @ ops[j]).imag
            w[i, j] = val
            w[j, i] = -val
    return ScalarConditionMatrix(entries=w, kind="W")


def _rho_from_spec(spec):
    v = spec.eigenvectors
    return (v * spec.eigenvalues) @ dagger(v)


def _antisymmetric(upper):
    """The antisymmetric matrix with the strict upper triangle of `upper`."""
    u = np.triu(upper, 1)
    return u - u.T


def _trace_products(a, b):
    """The m x m matrix tr[a_i b_j] of two stacks of m square matrices."""
    m = len(a)
    return a.reshape(m, -1) @ b.transpose(0, 2, 1).reshape(m, -1).T


def _eigenbasis_elements(v, pt):
    """h^(i) = V^dag G_i V for every generator, stacked as (m, r, r)."""
    return np.stack([dagger(v) @ g @ v for g in pt.generators])


def _pair_sum(c, h):
    """4 sum_{k,l} c_kl (h^(i)_kl h^(j)_lk - h^(j)_kl h^(i)_lk) for all i, j."""
    x = _trace_products(c * h, h)
    return 4.0 * (x - x.T)


def _gamma_matrix(spec, pt):
    g = np.stack(pt.generators)
    t = _trace_products(_rho_from_spec(spec) @ g, g)
    return _antisymmetric(4.0 * (2j * t.imag))


def weak_decomposed(spec, pt):
    """W split into Gamma (state-independent commutator part) and Delta.

    Gamma_ij = 4 tr[rho (G_i G_j - G_j G_i)]. Delta is the support-pair sum

        Delta_ij = 4 sum_{k<l} gamma_kl tr[ SWAP (Pi_k x Pi_l)
                                            (G_i x G_j - G_j x G_i) ],

    gamma_kl = -4 (lam_k - lam_l) lam_k lam_l / (lam_k + lam_l)^2, evaluated
    on d x d matrices through tr[SWAP (A x B)] = tr[A B]: each trace is
    h^(i)_kl h^(j)_lk - h^(j)_kl h^(i)_lk with h^(i) = V_s^dag G_i V_s.

    Returns (Gamma, Delta, W) with W = Gamma + Delta.
    """
    gam = _gamma_matrix(spec, pt)
    r = spec.rank
    lam = spec.eigenvalues[:r, None]
    mu = lam.T
    gkl = -4.0 * (lam - mu) * lam * mu / (lam + mu) ** 2
    h = _eigenbasis_elements(spec.eigenvectors[:, :r], pt)
    delta = _pair_sum(np.triu(gkl, 1), h)
    w = gam + delta
    return (
        ScalarConditionMatrix(entries=gam, kind="Gamma"),
        ScalarConditionMatrix(entries=delta, kind="Delta"),
        ScalarConditionMatrix(entries=w, kind="W"),
    )


def weak_rank_two(spec, pt):
    """Rank-two fast path for Delta, with gamma_12 = 4 (1 - 2 lam) lam (1 - lam).

    lam is the larger eigenvalue. The single support pair's doubled-space
    trace tr[SWAP (Pi_1 x Pi_2)(G_i x G_j)] = tr[Pi_1 G_i Pi_2 G_j] is
    h^(i)_12 h^(j)_21. Raises for states whose rank is not 2.
    """
    if spec.rank != 2:
        raise ValidationError(f"weak_rank_two needs a rank-2 state, got rank {spec.rank}")
    lam = spec.eigenvalues[0]
    g12 = 4.0 * (1.0 - 2.0 * lam) * lam * (1.0 - lam)
    h = _eigenbasis_elements(spec.eigenvectors[:, :2], pt)
    delta = _pair_sum(np.array([[0.0, g12], [0.0, 0.0]]), h)
    return ScalarConditionMatrix(entries=delta, kind="Delta")


def weak_integral(spec, pt):
    """Spectral kernel route for W.

    In the state eigenbasis, with kernel eigenvalues treated as exact zeros,

        W_ij = 4 sum_{k,l} c_kl ( h^(i)_kl h^(j)_lk - h^(j)_kl h^(i)_lk ),
        c_kl = lam_k (lam_k - lam_l)^2 / (lam_k + lam_l)^2,

    pairs with lam_k + lam_l at or below the rank cutoff dropped. The
    antisymmetrized kernel c_kl - c_lk = (lam_k - lam_l)^3 / (lam_k + lam_l)^2
    makes this an independent all-pairs route (support and cross pairs alike).
    """
    lam = spec.eigenvalues.copy()
    lam[lam <= spec.rank_tol] = 0.0
    denom = (lam[:, None] + lam[None, :]) ** 2
    live = denom > spec.rank_tol**2
    c = np.zeros_like(denom)
    num = lam[:, None] * (lam[:, None] - lam[None, :]) ** 2
    c[live] = num[live] / denom[live]
    h = _eigenbasis_elements(spec.eigenvectors, pt)
    return ScalarConditionMatrix(entries=_pair_sum(c, h), kind="W")


def weak_series_truncation(spec, pt, alpha):
    """Truncated basis-independent series approximant to W.

    Evaluates 4 tr[SWAP W_alpha (G_i x G_j)] with W_alpha the partial sum

        W_alpha = sum_{x=0}^alpha D^3 M^(2x),
        D = rho x 1 - 1 x rho,  M = 1 x 1 - rho x 1 - 1 x rho.

    By tr[SWAP (R A x S B)] = tr[R A S B], rho x 1 and 1 x rho act on G_i as
    left and right multiplication by rho, so D is A -> rho A - A rho, M is
    A -> A - rho A - A rho, and each entry is 4 tr[W_alpha(G_i) G_j] on
    d x d matrices, with no eigendecomposition. Exact when rho has half-unit
    spectral sums on all contributing pairs -- qubits in particular, whose
    only off-diagonal pair sums to one -- and otherwise an approximant that
    a full-rank qutrit spot check shows closer to W at alpha = 1 than at 0
    in Frobenius norm (not asserted universally).
    """
    if alpha not in (0, 1):
        raise ValidationError(f"alpha must be 0 or 1, got {alpha!r}")
    rho = _rho_from_spec(spec)
    g = np.stack(pt.generators)
    w = g
    for _ in range(3):
        w = rho @ w - w @ rho
    if alpha == 1:
        mw = w - rho @ w - w @ rho
        w = w + (mw - rho @ mw - mw @ rho)
    out = _antisymmetric(4.0 * _trace_products(w, g))
    return ScalarConditionMatrix(entries=out, kind=f"W_alpha{alpha}")


@dataclass(eq=False)
class ConditionOperators:
    S: OperatorConditionMatrix
    O: OperatorConditionMatrix
    P: OperatorConditionMatrix


def condition_operators_direct(spec, slds):
    """S, O, P from the SLD commutators and the support projector.

    Postconditions verified on exit: P equals Pi O (structural) and
    tr[rho P_ij] reproduces W_ij from the direct trace.
    """
    ops = slds.ops
    m = len(ops)
    d = spec.dim
    pi = spec.support_projector
    s_mat = _antisymmetric_operator_matrix(
        m, d, lambda i, j: commutator(ops[i], ops[j]), "S"
    )
    o_mat = _antisymmetric_operator_matrix(
        m, d, lambda i, j: s_mat.entry(i, j) @ pi, "O"
    )
    p_mat = _antisymmetric_operator_matrix(
        m, d, lambda i, j: pi @ o_mat.entry(i, j), "P"
    )
    rho = _rho_from_spec(spec)
    scale = max(1.0, max((np.linalg.norm(l) ** 2 for l in ops), default=1.0))
    for i in range(m):
        for j in range(i + 1, m):
            w_direct = np.trace(rho @ s_mat.entry(i, j))
            w_from_p = np.trace(rho @ p_mat.entry(i, j))
            if abs(w_direct - w_from_p) > 1e-9 * scale:
                raise ArithmeticError(
                    "postcondition tr[rho P] = W violated at "
                    f"({i},{j}): {abs(w_direct - w_from_p):.3e}"
                )
    return ConditionOperators(S=s_mat, O=o_mat, P=p_mat)


@dataclass(eq=False)
class SupportKernelTerms:
    """Support/kernel split of the operator conditions.

    P = I_ss + I_ss_prime; O = P + I_ks; S = O + I_sk + I_kk. The named terms
    live on the support-support, support-kernel, kernel-support, and
    kernel-kernel blocks respectively.
    """

    i_ss: OperatorConditionMatrix
    i_ss_prime: OperatorConditionMatrix
    i_sk: OperatorConditionMatrix
    i_ks: OperatorConditionMatrix
    i_kk: OperatorConditionMatrix
    P: OperatorConditionMatrix
    O: OperatorConditionMatrix
    S: OperatorConditionMatrix


def support_kernel_decomposition(spec, pt, check=True):
    """Decompose P, O, S into support/kernel interference terms.

    Works entirely from the positive spectrum and the kernel projector. With
    eta_kl = (lam_k - lam_l)/(lam_k + lam_l) over support pairs and
    D^k_ij = G_i Pi_k G_j - G_j Pi_k G_i, the five terms are assembled
    per parameter pair and summed into P, O, S; when `check` is set the
    reassembled operators are verified against the direct SLD-commutator
    route before returning. Pi_k = v_k v_k^dag makes every D^k the rank-two
    a_k b_k^dag - b_k a_k^dag (a = G_i V, b = G_j V, V the support
    eigenvectors), so each term is d x r columns times r x r support blocks,
    e.g. sum_k Pi_k sum_l eta_kl D^l = V [(eta o h^(i)) b^dag - (eta o h^(j)) a^dag]
    with h^(i) = V^dag G_i V and o the entrywise product.
    """
    r = spec.rank
    d = spec.dim
    m = pt.m
    lam = spec.eigenvalues[:r, None]
    mu = lam.T
    v = spec.eigenvectors[:, :r]
    vh = dagger(v)
    pi_ker = spec.kernel_projector
    eta = (lam - mu) / (lam + mu)
    weight = 4.0 * (lam * mu) / (lam + mu) ** 2
    gv = [g @ v for g in pt.generators]
    h = [vh @ x for x in gv]
    kgv = [pi_ker @ x for x in gv]

    def build(i, j):
        a, b, ka, kb = gv[i], gv[j], kgv[i], kgv[j]
        h_i, h_j = h[i], h[j]
        eh_i, eh_j = eta * h_i, eta * h_j
        # scalar coefficient matrix in the support basis: off the diagonal
        # V^dag D^rho V plus the eta-weighted pairs, on it the weighted
        # diagonals (V^dag D^l V)_kk
        c = h_i @ h_j - h_j @ h_i + eh_i @ eh_j - eh_j @ eh_i
        np.fill_diagonal(c, np.sum(weight * (h_i * h_j.T - h_j * h_i.T), axis=1))
        # sum_k Pi_k (sum_l eta_kl D^l) Pi_ker, less its left factor V
        mix = eh_i @ dagger(kb) - eh_j @ dagger(ka)
        parts = {
            "I_ss": 4.0 * v @ (dagger(a) @ b - dagger(b) @ a) @ vh,
            "I_ss_prime": -4.0 * (v @ c @ vh),
            "I_sk": -4.0 * (v @ mix),
            "I_ks": 4.0 * (ka @ eh_j - kb @ eh_i) @ vh,
            "I_kk": 4.0 * (ka @ dagger(kb) - kb @ dagger(ka)),
        }
        parts["P"] = parts["I_ss"] + parts["I_ss_prime"]
        parts["O"] = parts["P"] + parts["I_ks"]
        parts["S"] = parts["O"] + parts["I_sk"] + parts["I_kk"]
        return parts

    pairs = {(i, j): build(i, j) for i in range(m) for j in range(i + 1, m)}
    out = SupportKernelTerms(
        *(
            _antisymmetric_operator_matrix(m, d, lambda i, j: pairs[i, j][kind], kind)
            for kind in ("I_ss", "I_ss_prime", "I_sk", "I_ks", "I_kk", "P", "O", "S")
        )
    )
    if check:
        direct = condition_operators_direct(spec, sld_rotated(spec, pt))
        scale = max(1.0, max(np.linalg.norm(g) ** 2 for g in pt.generators))
        for name, mine, ref in (
            ("P", out.P, direct.P),
            ("O", out.O, direct.O),
            ("S", out.S, direct.S),
        ):
            dev = _block_deviation(mine, ref)
            if dev > 1e-9 * scale:
                raise ArithmeticError(
                    f"support/kernel reassembly of {name} deviates by {dev:.3e}"
                )
    return out


def _block_deviation(a, b):
    return float(
        np.sqrt(
            sum(
                np.linalg.norm(x - y) ** 2
                for row_a, row_b in zip(a.entries, b.entries)
                for x, y in zip(row_a, row_b)
            )
        )
    )


def rank_two_ss_prime(spec, pt):
    """Closed rank-two form of the I_ss_prime term.

    -4 [ P1 D^1 P1 + P2 D^2 P2 + P1 D^rho P2 + P2 D^rho P1
         + 4 lam (1 - lam) (P1 D^2 P1 + P2 D^1 P2) ],   lam the larger eigenvalue.
    """
    if spec.rank != 2:
        raise ValidationError(f"rank_two_ss_prime needs rank 2, got {spec.rank}")
    lam = spec.eigenvalues[0]
    v = spec.eigenvectors
    p1 = np.outer(v[:, 0], np.conj(v[:, 0]))
    p2 = np.outer(v[:, 1], np.conj(v[:, 1]))

    def fill(i, j):
        g_i, g_j = pt.generators[i], pt.generators[j]
        d1 = g_i @ p1 @ g_j - g_j @ p1 @ g_i
        d2 = g_i @ p2 @ g_j - g_j @ p2 @ g_i
        drho = d1 + d2
        return -4.0 * (
            p1 @ d1 @ p1
            + p2 @ d2 @ p2
            + p1 @ drho @ p2
            + p2 @ drho @ p1
            + 4.0 * lam * (1.0 - lam) * (p1 @ d2 @ p1 + p2 @ d1 @ p2)
        )

    return _antisymmetric_operator_matrix(pt.m, spec.dim, fill, "I_ss_prime")


def rank_two_ks(spec, pt):
    """Closed rank-two form of the kernel-support term:
    4 (1 - 2 lam) [ Pi_ker D^2 P1 - Pi_ker D^1 P2 ], lam the larger eigenvalue.
    """
    if spec.rank != 2:
        raise ValidationError(f"rank_two_ks needs rank 2, got {spec.rank}")
    lam = spec.eigenvalues[0]
    v = spec.eigenvectors
    p1 = np.outer(v[:, 0], np.conj(v[:, 0]))
    p2 = np.outer(v[:, 1], np.conj(v[:, 1]))
    pi_ker = spec.kernel_projector

    def fill(i, j):
        g_i, g_j = pt.generators[i], pt.generators[j]
        d1 = g_i @ p1 @ g_j - g_j @ p1 @ g_i
        d2 = g_i @ p2 @ g_j - g_j @ p2 @ g_i
        return 4.0 * (1.0 - 2.0 * lam) * (pi_ker @ d2 @ p1 - pi_ker @ d1 @ p2)

    return _antisymmetric_operator_matrix(pt.m, spec.dim, fill, "I_ks")


def pc_trace_norm(rho, slds):
    """p_ij = tr |sqrt(rho) (L_i L_j - L_j L_i) sqrt(rho)|.

    Frame-invariant: rho and the SLDs just need to live in the same frame.
    Entrywise zero exactly when the corresponding support-sandwiched
    commutator block vanishes.
    """
    spec = rho.spectrum
    lam = np.clip(spec.eigenvalues, 0.0, None)
    v = spec.eigenvectors
    sqrt_rho = (v * np.sqrt(lam)) @ dagger(v)
    ops = slds.ops
    m = len(ops)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            x = sqrt_rho @ commutator(ops[i], ops[j]) @ sqrt_rho
            val = float(np.sum(np.linalg.svd(x, compute_uv=False)))
            out[i, j] = val
            out[j, i] = val
    return ScalarConditionMatrix(entries=out, kind="p")


@dataclass(eq=False)
class ClassificationReport:
    norms: dict
    flags: dict
    hierarchy_consistent: bool
    converse_failures: list
    tolerance: float
    scale: float
    theta: np.ndarray
    rank: int
    dim: int
    W: ScalarConditionMatrix
    qfim: QfimResult


CHAIN = ["SC", "OC", "PC", "WC"]


def classify(rho, h_set, theta=None, tol=1e-8):
    """Evaluate all four conditions and place the state in the hierarchy.

    The zero test for each condition is frobenius_norm <= tol * scale with
    scale = max(1, (max_i ||G_i||_F)^2), matching the degree-2 homogeneity of
    every condition matrix in the generators. The report also carries W and
    the QFIM, both from the one SLD set, so callers need no second pass.
    """
    if theta is None:
        theta = np.zeros(h_set.m)
    pt = encode(h_set, theta)
    if rho.dim != pt.dim:
        raise ValidationError("state and Hamiltonian dimensions differ")
    slds = sld_rotated(rho.spectrum, pt)
    w = weak_direct(rho, slds)
    ops = condition_operators_direct(rho.spectrum, slds)
    norms = {
        "W": float(w.norm),
        "P": float(ops.P.norm),
        "O": float(ops.O.norm),
        "S": float(ops.S.norm),
    }
    scale = float(max(1.0, max(np.linalg.norm(g) for g in pt.generators) ** 2))
    flags = {
        "WC": bool(norms["W"] <= tol * scale),
        "PC": bool(norms["P"] <= tol * scale),
        "OC": bool(norms["O"] <= tol * scale),
        "SC": bool(norms["S"] <= tol * scale),
    }
    consistent = (
        (not flags["SC"] or flags["OC"])
        and (not flags["OC"] or flags["PC"])
        and (not flags["PC"] or flags["WC"])
    )
    converse_failures = []
    if flags["WC"] and not flags["PC"]:
        converse_failures.append("WC without PC")
    if flags["PC"] and not flags["OC"]:
        converse_failures.append("PC without OC")
    if flags["OC"] and not flags["SC"]:
        converse_failures.append("OC without SC")
    return ClassificationReport(
        norms=norms,
        flags=flags,
        hierarchy_consistent=consistent,
        converse_failures=converse_failures,
        tolerance=tol,
        scale=scale,
        theta=np.asarray(theta, dtype=float),
        rank=rho.rank,
        dim=rho.dim,
        W=w,
        qfim=qfim(rho, slds),
    )

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
a support-pair decomposition W = Gamma + Delta on a doubled space, a rank-two
fast path, and a spectral kernel route; all must agree to 1e-9.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import encode
from .metrology import QfimResult, qfim
from .operator_core import ValidationError, commutator, dagger, swap_operator, tensor
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


def _gamma_matrix(spec, pt):
    rho = _rho_from_spec(spec)
    m = pt.m
    g = pt.generators
    gam = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            val = 4.0 * (2j * np.trace(rho @ g[i] @ g[j]).imag)
            gam[i, j] = val
            gam[j, i] = -val
    return gam


def weak_decomposed(spec, pt):
    """W split into Gamma (state-independent commutator part) and Delta.

    Gamma_ij = 4 tr[rho (G_i G_j - G_j G_i)]. Delta is evaluated literally on
    the doubled space: for support eigenpairs k < l,

        Delta_ij = 4 sum_{k<l} gamma_kl tr[ SWAP (Pi_k x Pi_l)
                                            (G_i x G_j - G_j x G_i) ],

    gamma_kl = -4 (lam_k - lam_l) lam_k lam_l / (lam_k + lam_l)^2.

    Returns (Gamma, Delta, W) with W = Gamma + Delta.
    """
    m = pt.m
    d = spec.dim
    gam = _gamma_matrix(spec, pt)
    delta = np.zeros((m, m), dtype=complex)
    r = spec.rank
    if r >= 2:
        lam = spec.eigenvalues[:r]
        v = spec.eigenvectors
        swap = swap_operator(d)
        sandwiches = {}
        for k in range(r):
            pk = np.outer(v[:, k], np.conj(v[:, k]))
            for l in range(k + 1, r):
                pl = np.outer(v[:, l], np.conj(v[:, l]))
                sandwiches[(k, l)] = swap @ tensor(pk, pl)
        for i in range(m):
            for j in range(i + 1, m):
                a = tensor(pt.generators[i], pt.generators[j])
                a = a - tensor(pt.generators[j], pt.generators[i])
                total = 0.0 + 0.0j
                for (k, l), sand in sandwiches.items():
                    gkl = (
                        -4.0
                        * (lam[k] - lam[l])
                        * lam[k]
                        * lam[l]
                        / (lam[k] + lam[l]) ** 2
                    )
                    total += gkl * np.einsum("ab,ba->", sand, a)
                delta[i, j] = 4.0 * total
                delta[j, i] = -4.0 * total
    w = gam + delta
    return (
        ScalarConditionMatrix(entries=gam, kind="Gamma"),
        ScalarConditionMatrix(entries=delta, kind="Delta"),
        ScalarConditionMatrix(entries=w, kind="W"),
    )


def weak_rank_two(spec, pt):
    """Rank-two fast path for Delta, with gamma_12 = 4 (1 - 2 lam) lam (1 - lam).

    lam is the larger eigenvalue. Raises for states whose rank is not 2.
    """
    if spec.rank != 2:
        raise ValidationError(f"weak_rank_two needs a rank-2 state, got rank {spec.rank}")
    lam = spec.eigenvalues[0]
    v = spec.eigenvectors
    d = spec.dim
    m = pt.m
    g12 = 4.0 * (1.0 - 2.0 * lam) * lam * (1.0 - lam)
    p1 = np.outer(v[:, 0], np.conj(v[:, 0]))
    p2 = np.outer(v[:, 1], np.conj(v[:, 1]))
    sand = swap_operator(d) @ tensor(p1, p2)
    delta = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            a = tensor(pt.generators[i], pt.generators[j])
            a = a - tensor(pt.generators[j], pt.generators[i])
            val = 4.0 * g12 * np.einsum("ab,ba->", sand, a)
            delta[i, j] = val
            delta[j, i] = -val
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
    v = spec.eigenvectors
    h = [dagger(v) @ g @ v for g in pt.generators]
    m = pt.m
    w = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            val = 4.0 * (
                np.einsum("kl,kl,lk->", c, h[i], h[j])
                - np.einsum("kl,kl,lk->", c, h[j], h[i])
            )
            w[i, j] = val
            w[j, i] = -val
    return ScalarConditionMatrix(entries=w, kind="W")


def weak_series_truncation(spec, pt, alpha):
    """Truncated basis-independent series approximant to W.

    Evaluates 4 tr[SWAP W_alpha (G_i x G_j)] with W_alpha the partial sum

        W_alpha = sum_{x=0}^alpha D^3 M^(2x),
        D = rho x 1 - 1 x rho,  M = 1 x 1 - rho x 1 - 1 x rho,

    computed as factored products (the two tensor factors commute, so this
    equals the explicit polynomial expansions). Exact when rho has half-unit
    spectral sums on all contributing pairs -- qubits in particular, whose
    only off-diagonal pair sums to one -- and otherwise an approximant that
    a full-rank qutrit spot check shows closer to W at alpha = 1 than at 0
    in Frobenius norm (not asserted universally).
    """
    if alpha not in (0, 1):
        raise ValidationError(f"alpha must be 0 or 1, got {alpha!r}")
    rho = _rho_from_spec(spec)
    d = spec.dim
    eye = np.eye(d)
    big_d = tensor(rho, eye) - tensor(eye, rho)
    w_op = np.linalg.matrix_power(big_d, 3)
    if alpha == 1:
        mm = np.eye(d * d) - tensor(rho, eye) - tensor(eye, rho)
        w_op = w_op + w_op @ (mm @ mm)
    swap = swap_operator(d)
    sw = swap @ w_op
    m = pt.m
    out = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            val = 4.0 * np.einsum("ab,ba->", sw, tensor(pt.generators[i], pt.generators[j]))
            out[i, j] = val
            out[j, i] = -val
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


def _pair_d_ops(gi, gj, projectors):
    return [gi @ pk @ gj - gj @ pk @ gi for pk in projectors]


def support_kernel_decomposition(spec, pt, check=True):
    """Decompose P, O, S into support/kernel interference terms.

    Works entirely from the positive spectrum and the two projectors. With
    eta_kl = (lam_k - lam_l)/(lam_k + lam_l) over support pairs and
    D^k_ij = G_i Pi_k G_j - G_j Pi_k G_i, the five terms are assembled
    per parameter pair and summed into P, O, S; when `check` is set the
    reassembled operators are verified against the direct SLD-commutator
    route before returning.
    """
    r = spec.rank
    d = spec.dim
    m = pt.m
    lam = spec.eigenvalues[:r]
    v = spec.eigenvectors[:, :r]
    pi_sup = spec.support_projector
    pi_ker = spec.kernel_projector
    projectors = [np.outer(v[:, k], np.conj(v[:, k])) for k in range(r)]
    eta = (lam[:, None] - lam[None, :]) / (lam[:, None] + lam[None, :])
    weight = 4.0 * (lam[:, None] * lam[None, :]) / (lam[:, None] + lam[None, :]) ** 2

    def build(i, j):
        g_i, g_j = pt.generators[i], pt.generators[j]
        d_ops = _pair_d_ops(g_i, g_j, projectors)
        d_rho = g_i @ pi_sup @ g_j - g_j @ pi_sup @ g_i
        d_elems = [dagger(v) @ dk @ v for dk in d_ops]
        drho_elems = dagger(v) @ d_rho @ v

        # support-support commutator term
        i_ss = 4.0 * pi_sup @ commutator(g_i, g_j) @ pi_sup

        # scalar coefficient matrix in the support basis
        c = np.zeros((r, r), dtype=complex)
        for k in range(r):
            c[k, k] += d_elems[k][k, k]
            for l in range(r):
                if l == k:
                    continue
                c[k, l] += drho_elems[k, l]
                c[k, k] += weight[k, l] * d_elems[l][k, k]
                for mm in range(r):
                    if mm == k or mm == l:
                        continue
                    c[k, l] -= eta[k, mm] * eta[l, mm] * d_elems[mm][k, l]
        i_ss_prime = -4.0 * (v @ c @ dagger(v))

        i_sk = np.zeros((d, d), dtype=complex)
        i_ks = np.zeros((d, d), dtype=complex)
        for k in range(r):
            mix = np.zeros((d, d), dtype=complex)
            for l in range(r):
                if l == k:
                    continue
                mix = mix + eta[k, l] * d_ops[l]
            i_sk = i_sk - 4.0 * projectors[k] @ mix @ pi_ker
            i_ks = i_ks - 4.0 * pi_ker @ mix @ projectors[k]
        i_kk = 4.0 * pi_ker @ d_rho @ pi_ker
        return i_ss, i_ss_prime, i_sk, i_ks, i_kk

    kinds = ["I_ss", "I_ss_prime", "I_sk", "I_ks", "I_kk"]
    zero = np.zeros((d, d), dtype=complex)
    blocks = {kind: [[zero.copy() for _ in range(m)] for _ in range(m)] for kind in kinds}
    p_entries = [[zero.copy() for _ in range(m)] for _ in range(m)]
    o_entries = [[zero.copy() for _ in range(m)] for _ in range(m)]
    s_entries = [[zero.copy() for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            parts = build(i, j)
            for kind, part in zip(kinds, parts):
                blocks[kind][i][j] = part
                blocks[kind][j][i] = -part
            p_ij = parts[0] + parts[1]
            o_ij = p_ij + parts[3]
            s_ij = o_ij + parts[2] + parts[4]
            p_entries[i][j], p_entries[j][i] = p_ij, -p_ij
            o_entries[i][j], o_entries[j][i] = o_ij, -o_ij
            s_entries[i][j], s_entries[j][i] = s_ij, -s_ij
    out = SupportKernelTerms(
        i_ss=OperatorConditionMatrix(blocks["I_ss"], "I_ss"),
        i_ss_prime=OperatorConditionMatrix(blocks["I_ss_prime"], "I_ss_prime"),
        i_sk=OperatorConditionMatrix(blocks["I_sk"], "I_sk"),
        i_ks=OperatorConditionMatrix(blocks["I_ks"], "I_ks"),
        i_kk=OperatorConditionMatrix(blocks["I_kk"], "I_kk"),
        P=OperatorConditionMatrix(p_entries, "P"),
        O=OperatorConditionMatrix(o_entries, "O"),
        S=OperatorConditionMatrix(s_entries, "S"),
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

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
they genuinely differ. S, O and P are evaluated in the state eigenbasis V,
where Pi = diag(1_r, 0): with c = V^dag S_ij V, V^dag O_ij V is c[:, :r] and
V^dag P_ij V is c[:r, :r], so their norms need no d x d operator and the
operators in the original frame are built only when read. The SLDs vanish
on the kernel-kernel block, so every product l_i l_j is formed from their r
support rows.

The S, O and P norms are sums of squared commutator entries
(_commutator_norms, which only classify_stack runs). Each pair product
x = l_i l_j is formed once (_pair_products), as many pairs at a time as one
problem's products fit in PAIR_BLOCK_BYTES: a d = 256 problem holds one
pair's 1 MiB product at a time, and a small-d sweep batch is one block. The squares of c = x - x^dag
are summed from the real and imaginary parts of x, (Re x - Re x^T)^2 +
(Im x + Im x^T)^2, into one real buffer, so no conjugated copy is made, no
product outlives its block, a problem's memory does not grow with the
number of pairs, and the report's norms are their one copy.
ConditionOperators is a view that holds only an SldSet: it builds the
commutators of every pair (_commutators, the same products and the same
formula for c) and the operators only when they are read.

classify takes W and the QFIM from the same eigenbasis SLDs, as the
imaginary and real parts of Q_ij = tr[rho l_i l_j]; weak_direct and
metrology.qfim compute both in the computational basis from the operators
L_i, as the imaginary and real parts of one state trace tr[(rho L_i) L_j]
(metrology._state_traces), and are classify's anchors. classify_stack
evaluates a ProblemStack, N problems of one (dim, m, rank), through the
stacked kernels (encode_stack, sld_row_stack, the blocked norm kernel, Q
and incompatibility_stack) with a leading (N, ...) axis. sld_row_stack is
the one SLD kernel of both Hamiltonian forms, so a product-form set gets
its SLD rows with no d x d encoding basis there and in sld_rotated alike;
classify_stack tells the forms apart only for the scale. It returns the
norms, flags and E as arrays, which a sweep formats directly. classify
builds the one-problem stack of its state and Hamiltonians, and its report
is a view of the same arrays; condition_operators_direct is the view on an
SLD set that sld_rotated built.

An operator condition matrix (S, O, P, the support/kernel terms and their
rank-two closed forms) is one (m, m, d, d) array, antisymmetric in (i, j).
Every route, scalar or operator, computes all parameter pairs i < j at once,
on the one pair axis of operator_core (_pairs, in itertools.combinations
order), with no loop over pairs; weak_direct, pc_trace_norm and
_operator_matrix (a (pairs, d, d) stack) place their pair values in the
m x m matrix through operator_core._pair_matrix. ConditionOperators and
SupportKernelTerms give pair stacks and build each m x m matrix only when it
is read; support_kernel_decomposition's check compares the pair stacks of P,
O and S with those of the direct SLD route.

W admits three more routes besides the direct trace: a support-pair
decomposition W = Gamma + Delta, a rank-two fast path, and a spectral kernel
route; all must agree to 1e-9. Delta and the truncated series
are defined by traces on the doubled space C^d x C^d and evaluated on d x d
matrices through tr[SWAP (A x B)] = tr[A B].
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .encoding import EncodingPoint, LocalEncoding, checked_theta, encode_stack
from .metrology import QfimResult, _state_traces, incompatibility_stack, qfim_stack
from .operator_core import ValidationError, _pair_matrix, _pairs, dagger, frobenius_rows
from .sld import SldSet, sld_row_stack, sld_rotated
from .states import MAX_POINT_BYTES

# chunk_size sizes a ProblemStack for one classify_stack call so that its
# estimated peak memory (point_bytes per problem) stays within this
CHUNK_BYTES = 16 * 2**20

# the S/O/P norm kernel forms the pair products of as many pairs at a time as
# one problem's products fit in this many bytes, and at least one: a d = 256
# problem goes one 1 MiB pair at a time, and a small-d sweep batch is one block
PAIR_BLOCK_BYTES = 2**20


@dataclass(eq=False)
class ScalarConditionMatrix:
    entries: np.ndarray
    kind: str

    @property
    def norm(self):
        return float(np.linalg.norm(self.entries))


@dataclass(eq=False)
class OperatorConditionMatrix:
    """An m x m matrix of d x d operators: entries is (m, m, d, d),
    antisymmetric in (i, j) with zero diagonal blocks."""

    entries: np.ndarray
    kind: str

    @property
    def m(self):
        return len(self.entries)

    @property
    def norm(self):
        """Frobenius norm over all blocks, summed block by block in row-major
        order: a flat norm of entries rounds differently and would change
        the last bits of the norms the examples print."""
        return float(
            np.sqrt(sum(np.linalg.norm(b) ** 2 for row in self.entries for b in row))
        )

    def entry(self, i, j):
        return self.entries[i, j]


def _operator_property(kind):
    """A cached property: the m x m operator matrix of `kind`, built from its
    owner's pair_stack(kind) on first read."""
    return cached_property(lambda self: _operator_matrix(self.pair_stack(kind), self.m, kind))


def _operator_matrix(pairs, m, kind):
    """The m x m operator matrix of a (pairs, d, d) stack, placed by
    _pair_matrix: block (i, j) is the stack's pair i < j, block (j, i) its
    negative."""
    return OperatorConditionMatrix(entries=_pair_matrix(pairs, m), kind=kind)


def weak_direct(rho, slds):
    """W_ij = tr[rho (L_i L_j - L_j L_i)] from the state and its SLDs.

    The L_i are Hermitian, so tr[rho L_j L_i] is the conjugate of
    tr[rho L_i L_j] and W_ij = 2i Im tr[(rho L_i) L_j]: the state trace whose
    real part is metrology.qfim, over the pairs i < j.
    """
    ops = slds.op_stack
    m = len(ops)
    vals = 2j * _state_traces(rho, ops, _pairs(m)).imag
    return ScalarConditionMatrix(entries=_pair_matrix(vals, m), kind="W")


def _rho_from_spec(spec):
    v = spec.eigenvectors
    return (v * spec.eigenvalues) @ dagger(v)


def _trace_products(a, b):
    """The m x m matrix tr[a_i b_j] of two stacks of m square matrices."""
    m = len(a)
    return a.reshape(m, -1) @ b.transpose(0, 2, 1).reshape(m, -1).T


def _eigenbasis_elements(v, pt):
    """h^(i) = V^dag G_i V for every generator, stacked as (m, r, r)."""
    return dagger(v) @ pt.generator_stack @ v


def _support_columns(v, pt):
    """(G_i V, h^(i) = V^dag G_i V, Pi_ker G_i V = G_i V - V h^(i)) for the
    orthonormal support columns V, each stacked over the generators."""
    gv = pt.generator_stack @ v
    h = dagger(v) @ gv
    return gv, h, gv - v @ h


def _pair_sum(c, h):
    """4 sum_{k,l} c_kl (h^(i)_kl h^(j)_lk - h^(j)_kl h^(i)_lk) for all i, j."""
    x = _trace_products(c * h, h)
    return 4.0 * (x - x.T)


def _gamma_matrix(spec, pt):
    g = pt.generator_stack
    t = _trace_products(_rho_from_spec(spec) @ g, g)
    m = len(t)
    return _pair_matrix(4.0 * (2j * t.imag[tuple(_pairs(m))]), m)


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

    In the state eigenbasis, whose kernel eigenvalues are exact zeros,

        W_ij = 4 sum_{k,l} c_kl ( h^(i)_kl h^(j)_lk - h^(j)_kl h^(i)_lk ),
        c_kl = lam_k (lam_k - lam_l)^2 / (lam_k + lam_l)^2,

    kernel-kernel pairs (lam_k + lam_l = 0) dropped. The
    antisymmetrized kernel c_kl - c_lk = (lam_k - lam_l)^3 / (lam_k + lam_l)^2
    makes this an independent all-pairs route (support and cross pairs alike).
    """
    lam = spec.eigenvalues
    denom = (lam[:, None] + lam[None, :]) ** 2
    num = lam[:, None] * (lam[:, None] - lam[None, :]) ** 2
    c = np.divide(num, denom, out=np.zeros_like(denom), where=denom > 0.0)
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
    g = pt.generator_stack
    w = g
    for _ in range(3):
        w = rho @ w - w @ rho
    if alpha == 1:
        mw = w - rho @ w - w @ rho
        w = w + (mw - rho @ mw - mw @ rho)
    m = len(g)
    out = _pair_matrix(4.0 * _trace_products(w, g)[tuple(_pairs(m))], m)
    return ScalarConditionMatrix(entries=out, kind=f"W_alpha{alpha}")


@dataclass(eq=False)
class ConditionOperators:
    """S, O and P of one SLD set, a view on its eigenbasis rows that holds
    nothing else: their norms are the report's (ClassificationReport.norms).

    comm[k] is c = V^dag S_ij V = l_i l_j - l_j l_i for the k-th pair i < j
    in row-major order, with l_i the SLDs in the state eigenbasis V =
    slds.spec.eigenvectors and r the rank, so V^dag O_ij V = c[:, :r] and
    V^dag P_ij V = c[:r, :r]; it is built from slds.rows on first read, and
    so are the operator matrices S, O and P in the frame of the SLDs.
    """

    slds: SldSet

    @property
    def m(self):
        return len(self.slds.rows)

    @cached_property
    def comm(self):
        return _commutators(self.slds.rows, _pairs(self.m))

    def pair_stack(self, kind):
        """The (pairs, d, d) stack of S, O or P in the frame of the SLDs: the
        pair blocks i < j of that operator matrix."""
        v, r = self.slds.spec.eigenvectors, self.slds.spec.rank
        rows, cols = {"S": (None, None), "O": (None, r), "P": (r, r)}[kind]
        return v[:, :rows] @ self.comm[:, :rows, :cols] @ dagger(v[:, :cols])

    S = _operator_property("S")
    O = _operator_property("O")
    P = _operator_property("P")


def _pair_products(rows, pairs):
    """x = l_i l_j for the pairs (first, second) of SLD support rows
    (..., m, r, d), as (..., pairs, d, d). The l_i vanish on the
    kernel-kernel block, so l_i l_j is R_i^dag R_j plus R_i[:, r:]
    R_j[:, r:]^dag on the support-support block, d^2 r per pair."""
    first, second = pairs
    r = rows.shape[-2]
    x = dagger(rows[..., first, :, :]) @ rows[..., second, :, :]
    x[..., :r, :r] += rows[..., first, :, r:] @ dagger(rows[..., second, :, r:])
    return x


def _commutators(rows, pairs):
    """c = l_i l_j - l_j l_i for the pairs (first, second) of SLD support
    rows (..., m, r, d), as (..., pairs, d, d): c = x - x^dag, the
    commutator of the two Hermitian l's, for x = l_i l_j (_pair_products),
    written part by part as Re x - Re x^T and Im x + Im x^T, with no
    conjugated copy of x."""
    x = _pair_products(rows, pairs)
    c = np.empty_like(x)
    np.subtract(x.real, np.swapaxes(x.real, -1, -2), out=c.real)
    np.add(x.imag, np.swapaxes(x.imag, -1, -2), out=c.imag)
    return c


def _pairs_per_block(dim):
    """How many of one problem's (dim, dim) complex pair products the norm
    kernel holds at a time: as many as fit in PAIR_BLOCK_BYTES, and at
    least one."""
    return max(1, PAIR_BLOCK_BYTES // (16 * dim * dim))


def _commutator_norms(rows):
    """The S, O and P norms, each (N,), of N problems' SLD support rows
    (N, m, r, d). The pair products x = l_i l_j (_pair_products) are formed
    _pairs_per_block(d) pairs at a time, so a problem's blocks do not
    depend on the stack it is in. The squared entries of the commutators,
    (Re x - Re x^T)^2 + (Im x + Im x^T)^2, are summed into one real buffer,
    with Re x, which is then spent, holding the imaginary squares. Each
    problem's part of a block, and of its support columns and its
    support-support block (copied, at most k d r reals for k pairs), is
    summed in one contiguous reduction, so the order of its sums does not
    depend on the stack either. Neither the product nor the buffer outlives
    its block."""
    n, m, r, d = rows.shape
    pairs = _pairs(m)
    size = _pairs_per_block(d)
    sums = np.zeros((3, n))
    for k in range(0, pairs.shape[1], size):
        x = _pair_products(rows, pairs[:, k : k + size])
        re, im = x.real, x.imag
        sq = re - np.swapaxes(re, -1, -2)
        sq *= sq
        np.add(im, np.swapaxes(im, -1, -2), out=re)
        re *= re
        sq += re
        del x, re, im
        sums += [b.reshape(n, -1).sum(axis=1) for b in (sq, sq[..., :r], sq[..., :r, :r])]
        del sq
    # every pair appears twice in the m x m matrix, once with each sign
    return dict(zip("SOP", np.sqrt(2.0 * sums)))


def condition_operators_direct(spec, slds):
    """S, O, P from the SLD commutators, cut to the support of the state.

    The view on the eigenbasis SLD rows slds.rows, R_i = l_i[:r, :], in the
    basis of spec, which must have the dimension and rank of slds.spec; no
    commutator is built until an operator is read.
    """
    shapes = (spec.dim, spec.rank), (slds.spec.dim, slds.spec.rank)
    if shapes[0] != shapes[1]:
        raise ValidationError("spectrum (dim, rank) %s differs from the SLD set's %s" % shapes)
    return ConditionOperators(slds)


@dataclass(eq=False)
class SupportKernelTerms:
    """Support/kernel split of the operator conditions.

    P = I_ss + I_ss_prime; O = P + I_ks; S = O + I_sk + I_kk. The named terms
    live on the support-support, support-kernel, kernel-support, and
    kernel-kernel blocks respectively. `stacks` maps each kind ("I_ss",
    "I_ss_prime", "I_sk", "I_ks", "I_kk", "P", "O", "S") to its (pairs, d, d)
    stack of the blocks i < j; each field (i_ss, ..., S) is the m x m
    OperatorConditionMatrix of one stack, built on first read.
    """

    stacks: dict
    m: int

    def pair_stack(self, kind):
        return self.stacks[kind]

    i_ss = _operator_property("I_ss")
    i_ss_prime = _operator_property("I_ss_prime")
    i_sk = _operator_property("I_sk")
    i_ks = _operator_property("I_ks")
    i_kk = _operator_property("I_kk")
    P = _operator_property("P")
    O = _operator_property("O")
    S = _operator_property("S")


def support_kernel_decomposition(spec, pt, check=True):
    """Decompose P, O, S into support/kernel interference terms.

    Works entirely from the positive spectrum and its eigenvectors. With
    eta_kl = (lam_k - lam_l)/(lam_k + lam_l) over support pairs and
    D^k_ij = G_i Pi_k G_j - G_j Pi_k G_i, the five terms are assembled
    for all parameter pairs at once and summed into P, O, S; when `check` is
    set, the reassembled P, O and S pair stacks are verified against those of
    the direct SLD-commutator route (sld_rotated, then one _commutators pass
    over every pair) within 1e-9 * scale before returning, scale =
    max(1, max_i ||G_i||_F^2). A pair stack holds each pair once, so its
    deviation is that over the m x m matrix divided by sqrt(2). Pi_k = v_k v_k^dag makes every D^k the rank-two
    a_k b_k^dag - b_k a_k^dag (a = G_i V, b = G_j V, V the support
    eigenvectors), so each term is d x r columns times r x r support blocks,
    e.g. sum_k Pi_k sum_l eta_kl D^l = V [(eta o h^(i)) b^dag - (eta o h^(j)) a^dag]
    with h^(i) = V^dag G_i V and o the entrywise product; the kernel columns
    Pi_ker a are a - V h^(i).
    """
    r = spec.rank
    m = pt.m
    lam = spec.eigenvalues[:r, None]
    mu = lam.T
    v = spec.eigenvectors[:, :r]
    vh = dagger(v)
    eta = (lam - mu) / (lam + mu)
    weight = 4.0 * (lam * mu) / (lam + mu) ** 2
    gv, h, kgv = _support_columns(v, pt)
    # each stack holds its (i, j) pair factors on a leading axis of two, so
    # x @ y[::-1] is (x_i y_j, x_j y_i): both orders of a pair in one product
    pairs = _pairs(m)
    ab, kab, hij = gv[pairs], kgv[pairs], h[pairs]
    kab_h, ehij = dagger(kab), eta * hij
    # scalar coefficient matrices in the support basis: off the diagonal
    # V^dag D^rho V plus the eta-weighted pairs, on it the weighted
    # diagonals (V^dag D^l V)_kk
    hh, ee = hij @ hij[::-1], ehij @ ehij[::-1]
    c = hh[0] - hh[1] + ee[0] - ee[1]
    diag = hij * np.swapaxes(hij[::-1], -1, -2)
    c[:, range(r), range(r)] = (weight * (diag[0] - diag[1])).sum(axis=2)
    ss = dagger(ab) @ ab[::-1]
    # sum_k Pi_k (sum_l eta_kl D^l) Pi_ker, less its left factor V
    mix = ehij @ kab_h[::-1]
    ks = kab @ ehij[::-1]
    kk = kab @ kab_h[::-1]
    parts = {
        "I_ss": 4.0 * v @ (ss[0] - ss[1]) @ vh,
        "I_ss_prime": -4.0 * (v @ c @ vh),
        "I_sk": -4.0 * (v @ (mix[0] - mix[1])),
        "I_ks": 4.0 * (ks[0] - ks[1]) @ vh,
        "I_kk": 4.0 * (kk[0] - kk[1]),
    }
    parts["P"] = parts["I_ss"] + parts["I_ss_prime"]
    parts["O"] = parts["P"] + parts["I_ks"]
    parts["S"] = parts["O"] + parts["I_sk"] + parts["I_kk"]
    out = SupportKernelTerms(stacks=parts, m=m)
    if check:
        direct = condition_operators_direct(spec, sld_rotated(spec, pt))
        scale = max(1.0, *(np.vdot(g, g).real for g in pt.generator_stack))
        for name in ("P", "O", "S"):
            # each pair is two blocks of the m x m matrix, one of each sign
            dev = np.sqrt(2.0) * np.linalg.norm(out.pair_stack(name) - direct.pair_stack(name))
            if dev > 1e-9 * scale:
                raise ArithmeticError(
                    f"support/kernel reassembly of {name} deviates by {dev:.3e}"
                )
    return out


def rank_two_ss_prime(spec, pt):
    """Closed rank-two form of the I_ss_prime term.

    -4 [ P1 D^1 P1 + P2 D^2 P2 + P1 D^rho P2 + P2 D^rho P1
         + 4 lam (1 - lam) (P1 D^2 P1 + P2 D^1 P2) ],   lam the larger eigenvalue.

    Every term is v_a (v_a^dag D^k v_b) v_b^dag, so the sum is V C V^dag with
    V the two support vectors and C the 2 x 2 matrix of those elements,
    built from h^(i) = V^dag G_i V: e[k][a, b] = h^(i)_ak h^(j)_kb -
    h^(j)_ak h^(i)_kb is v_a^dag D^k_ij v_b. O(d^2) per pair, every pair at
    once.
    """
    if spec.rank != 2:
        raise ValidationError(f"rank_two_ss_prime needs rank 2, got {spec.rank}")
    lam = spec.eigenvalues[0]
    v = spec.eigenvectors[:, :2]
    h = _eigenbasis_elements(v, pt)
    q = 4.0 * lam * (1.0 - lam)
    first, second = _pairs(pt.m)
    h_i, h_j = h[first], h[second]
    e1, e2 = (
        h_i[:, :, k, None] * h_j[:, None, k] - h_j[:, :, k, None] * h_i[:, None, k]
        for k in (0, 1)
    )
    c = e1 + e2  # D^rho = D^1 + D^2 on the off-diagonal blocks
    c[:, 0, 0] = e1[:, 0, 0] + q * e2[:, 0, 0]
    c[:, 1, 1] = e2[:, 1, 1] + q * e1[:, 1, 1]
    return _operator_matrix(-4.0 * (v @ c @ dagger(v)), pt.m, "I_ss_prime")


def rank_two_ks(spec, pt):
    """Closed rank-two form of the kernel-support term:
    4 (1 - 2 lam) [ Pi_ker D^2 P1 - Pi_ker D^1 P2 ], lam the larger eigenvalue.

    Pi_ker D^k P_b = (Pi_ker G_i v_k h^(j)_kb - Pi_ker G_j v_k h^(i)_kb) v_b^dag,
    with the kernel columns Pi_ker G v = G v - V h: O(d^2) per pair, every
    pair at once.
    """
    if spec.rank != 2:
        raise ValidationError(f"rank_two_ks needs rank 2, got {spec.rank}")
    lam = spec.eigenvalues[0]
    v = spec.eigenvectors[:, :2]
    _, h, k = _support_columns(v, pt)
    first, second = _pairs(pt.m)
    h_i, h_j, k_i, k_j = h[first], h[second], k[first], k[second]
    # the columns of Pi_ker D^2 P1 and Pi_ker D^1 P2 before v_1^dag, v_2^dag
    col_21 = k_i[:, :, 1] * h_j[:, 1, 0, None] - k_j[:, :, 1] * h_i[:, 1, 0, None]
    col_12 = k_i[:, :, 0] * h_j[:, 0, 1, None] - k_j[:, :, 0] * h_i[:, 0, 1, None]
    cols = np.stack([col_21, -col_12], axis=2)
    return _operator_matrix(4.0 * (1.0 - 2.0 * lam) * (cols @ dagger(v)), pt.m, "I_ks")


def pc_trace_norm(rho, slds):
    """p_ij = tr |sqrt(rho) (L_i L_j - L_j L_i) sqrt(rho)|.

    Frame-invariant: rho and the SLDs just need to live in the same frame.
    Entrywise zero exactly when the corresponding support-sandwiched
    commutator block vanishes.
    """
    spec = rho.spectrum
    v = spec.eigenvectors
    sqrt_rho = (v * np.sqrt(spec.eigenvalues)) @ dagger(v)
    ops = slds.op_stack
    m = len(ops)
    # (L_i L_j, L_j L_i) of every pair in one product
    ab = ops[_pairs(m)]
    prod = ab @ ab[::-1]
    x = sqrt_rho @ (prod[0] - prod[1]) @ sqrt_rho
    vals = np.linalg.svd(x, compute_uv=False).sum(axis=-1)
    # a sum of singular values is nonnegative, and so is each (j, i) entry
    return ScalarConditionMatrix(entries=np.abs(_pair_matrix(vals, m)), kind="p")


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
    E: float | None  # None when the QFIM is singular
    point: EncodingPoint
    slds: SldSet
    operators: ConditionOperators


CHAIN = ["SC", "OC", "PC", "WC"]


def _state_product_stack(lam, rows):
    """Q_ij = tr[rho l_i l_j] = sum_k lam_k (l_i l_j)_kk for N problems of one
    shape: lam (N, d) eigenvalues, rows (N, m, r, d) SLD support rows.

    Row k < r of l_i is R_i[k]; the kernel eigenvalues k >= r are exact
    zeros, so Q is one m x m contraction over the support rows.
    """
    n, m, r, _ = rows.shape
    return (lam[:, None, :r, None] * rows).reshape(n, m, -1) @ dagger(rows.reshape(n, m, -1))


def _verdict(flags):
    """(hierarchy_consistent, converse_failures) of the four flags.

    Each adjacent pair (a, b) of CHAIN is an implication a => b: the
    hierarchy is consistent when none fails, and b without a is a converse
    failure, listed from the weakest pair up."""
    pairs = list(zip(CHAIN, CHAIN[1:]))
    consistent = all(flags[b] or not flags[a] for a, b in pairs)
    converse_failures = [
        f"{b} without {a}" for a, b in reversed(pairs) if flags[b] and not flags[a]
    ]
    return consistent, converse_failures


@dataclass(eq=False)
class ProblemStack:
    """n problems of one (dim, m, rank) as stacked arrays, the input of
    classify_stack. An array whose leading axis has length 1 is shared by
    all n problems.

    lam: (n or 1, d) cut eigenvalues, descending: the first `rank` above the
        state's cutoff, the rest exact zeros
    vectors: (n or 1, d, d) state eigenvectors
    hams: (n or 1, m, d, d) validated Hamiltonians, or one shared set in
        product form (encoding.LocalSpinStack)
    theta: (m,) the finite encoding point (checked_theta) all n share
    """

    n: int
    rank: int
    lam: np.ndarray
    vectors: np.ndarray
    hams: np.ndarray
    theta: np.ndarray


# the report's flags in JSON order, and the norm each one tests
FLAG_KINDS = list(reversed(CHAIN))
NORM_KINDS = [kind[0] for kind in FLAG_KINDS]


@dataclass(eq=False)
class StackedClassification:
    """classify_stack's arrays for n problems.

    norms: (n, 4) in NORM_KINDS order (W, P, O, S); flags: (n, 4) bool in
    FLAG_KINDS order (WC, PC, OC, SC); scale: (n,); E: (n,), NaN where the
    QFIM is singular. The rest are the kernel arrays that the reports view:
    the `encoding`, encode_stack's result (kappa, w, x), with a leading axis
    of 1 when every problem shares it, or a product form's LocalEncoding,
    and per problem the SLD rows, W (`w_stack`), the QFIM matrices `f` and
    their ascending eigenvalues `f_eigs`, which E was decided from.
    No pair commutator is kept: a report's ConditionOperators builds them
    from the SLD rows when they are read.
    """

    norms: np.ndarray
    flags: np.ndarray
    scale: np.ndarray
    E: np.ndarray
    encoding: object
    rows: np.ndarray
    w_stack: np.ndarray
    f: np.ndarray
    f_eigs: np.ndarray


def classify_stack(stack, tol=1e-8):
    """The stacked classify kernel: every problem of a ProblemStack in one
    pass of encode_stack, sld_row_stack (on either form of the encoding),
    the blocked S/O/P norms, Q, and incompatibility_stack. A Hamiltonian
    set that the problems share is encoded once. Only the scale depends on
    the form: the Frobenius norms of the G_i come from the X_i of a dense
    set and from the 2 x 2 blocks of a product form's generators. Returns a
    StackedClassification; each problem's norms, flags and E are those
    classify gives for it.
    """
    # products of finite Hamiltonians can still overflow, from the encoded
    # generators on: check the products, norms and scales once, before
    # anything reads them
    with np.errstate(over="ignore", invalid="ignore"):
        enc = encode_stack(stack.hams, stack.theta)
        rows = sld_row_stack(stack.lam, stack.rank, stack.vectors, enc)
        if isinstance(enc, LocalEncoding):
            gens = enc.generators
            # G_i is g_i on one qubit and the identity on the q - 1 others,
            # so ||G_i||_F^2 = 2^(q-1) ||g_i||_F^2
            blocks, copies = gens.blocks[None], 2.0 ** (gens.sites - 1)
        else:
            # ||G_i||_F^2 read from the eigenbasis generators X_i, by unitary
            # invariance
            blocks, copies = enc[2], 1.0
        op_norms = _commutator_norms(rows)
        q = _state_product_stack(stack.lam, rows)
        w_stack = 1j * (q.imag - np.swapaxes(q.imag, 1, 2))
        w_norms = frobenius_rows(w_stack)
        # each matrix of blocks viewed as reals, dotted with itself
        flat = blocks.reshape(*blocks.shape[:2], 1, -1).view(float)
        squares = np.max(flat @ np.swapaxes(flat, 2, 3), axis=(1, 2, 3))
        scales = np.maximum(1.0, copies * squares)
    if not all(np.all(np.isfinite(a)) for a in (q, w_norms, scales, *op_norms.values())):
        raise ValidationError("the condition matrices overflow: the Hamiltonians are too large")
    f = (q.real + np.swapaxes(q.real, 1, 2)) / 2.0
    f_eigs = np.linalg.eigvalsh(f)
    n = stack.n
    norms = np.stack([w_norms, *(op_norms[kind] for kind in NORM_KINDS[1:])], axis=1)
    norms = np.broadcast_to(norms, (n, 4))
    scale = np.broadcast_to(scales, (n,))
    # a zero_tol near the largest float makes the bound infinite: every norm
    # passes its zero test
    with np.errstate(over="ignore"):
        bound = tol * scale[:, None]
    return StackedClassification(
        norms=norms,
        flags=norms <= bound,
        scale=scale,
        E=np.broadcast_to(incompatibility_stack(f, w_stack, f_eigs), (n,)),
        encoding=enc,
        rows=rows,
        w_stack=w_stack,
        f=f,
        f_eigs=f_eigs,
    )


def _report(spec, theta, res, tol):
    """The ClassificationReport of a checked one-problem stack, from its
    classify_stack arrays."""
    e = float(res.E[0])
    slds = SldSet(spec=spec, rows=res.rows[0])
    flags = dict(zip(FLAG_KINDS, map(bool, res.flags[0])))
    consistent, converse_failures = _verdict(flags)
    return ClassificationReport(
        norms=dict(zip(NORM_KINDS, map(float, res.norms[0]))),
        flags=flags,
        hierarchy_consistent=consistent,
        converse_failures=converse_failures,
        tolerance=tol,
        scale=float(res.scale[0]),
        theta=theta,
        rank=spec.rank,
        dim=spec.dim,
        W=ScalarConditionMatrix(entries=res.w_stack[0], kind="W"),
        qfim=qfim_stack(res.f, res.f_eigs)[0],
        E=None if np.isnan(e) else e,
        point=EncodingPoint(theta, res.encoding),
        slds=slds,
        operators=ConditionOperators(slds),
    )


def point_bytes(dim, m):
    """Estimated peak bytes one resolved problem adds to a classify_stack
    call: 16 dim^2 bytes times 4 m + 6 + 4 k, counting the problem's own
    Hamiltonians and eigenvectors, the stacked generators and their
    temporaries, and one block of k pair products with the copies of their
    factors' rows and the real buffer of their squares. k is the number of
    pairs the norm kernel takes at a time for one problem
    (_pairs_per_block), at most m (m - 1) / 2, in a stack of any size.
    tracemalloc puts the cost of one problem at 0.42 to 0.87 of this estimate
    for dim 32 to 128, m 1 to 6 and rank 1 to dim."""
    pairs = min(m * (m - 1) // 2, _pairs_per_block(dim))
    return 16 * dim * dim * (4 * m + 6 + 4 * pairs)


def check_point_bytes(dim, m):
    """Raise ValidationError when one problem of dimension dim with m
    parameters would pass MAX_POINT_BYTES at point_bytes' estimate."""
    need = point_bytes(dim, m)
    if need > MAX_POINT_BYTES:
        raise ValidationError(
            f"a problem of dimension {dim} with m = {m} parameters needs an estimated "
            f"{need / 2**20:.1f} MiB to classify, past the {MAX_POINT_BYTES / 2**20:.1f} MiB limit"
        )


def chunk_size(dim, m):
    """How many problems of dimension dim with m parameters one classify_stack
    call may take within CHUNK_BYTES (at least one)."""
    return max(1, CHUNK_BYTES // point_bytes(dim, m))


def classify(rho, h_set, theta=None, tol=1e-8):
    """Evaluate all four conditions and place the state in the hierarchy.

    The zero test for each condition is frobenius_norm <= tol * scale with
    scale = max(1, (max_i ||G_i||_F)^2), matching the degree-2 homogeneity
    of every condition matrix in the generators; ||G_i||_F is read from the
    eigenbasis generators X_i, by unitary invariance, or, for a product-form
    set, from the 2 x 2 block g_i of each G_i on its qubit, as
    ||G_i||_F^2 = 2^(q-1) ||g_i||_F^2 on q qubits. A product-form set's SLD
    rows come from those blocks too (sld_row_stack), and its report's point
    holds its LocalEncoding, with no eigenbasis of K.
    The report also carries W and the QFIM, both from the one SLD set
    through Q_ij = tr[rho l_i l_j]: W = 2i Im Q and F = Re Q, and
    E = (1/2) max |eig(F^-1 W)| (None when the QFIM is singular).
    weak_direct and qfim compute W and F in the computational basis and
    serve as their independent anchors. The report keeps the encoding
    point, SLD set and condition operators of that pass, so callers need no
    second pass. The P, O and S norms come from the eigenbasis commutators,
    at most PAIR_BLOCK_BYTES of pair products (or one pair) at a time, and
    `report.norms` is their one copy; no commutator is kept, and none is
    built again until `report.operators`, a view on the report's SLD set,
    is asked for one.
    This is classify_stack at N = 1.
    """
    theta = checked_theta(h_set, np.zeros(h_set.m) if theta is None else theta)
    if rho.dim != h_set.dim:
        raise ValidationError("state and Hamiltonian dimensions differ")
    spec = rho.spectrum
    stack = ProblemStack(
        n=1,
        rank=spec.rank,
        lam=spec.eigenvalues[None],
        vectors=spec.eigenvectors[None],
        hams=h_set.batch,
        theta=theta,
    )
    return _report(spec, theta, classify_stack(stack, tol), tol)

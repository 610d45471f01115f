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

The Hamiltonian form is decided here alone. encode_stack returns one of two
encoding types, and both answer the same members: dim and m;
support_elements(v, rank), the elements V_r^dag G_i V that the SLD rows need
(sld.sld_row_stack); square_norms(), max_i ||G_i||_F^2 per problem (the
classifier's scale); and, for a one-problem encoding (encode's, a report's
point), U and the (m, d, d) stack of generators G_i, built on first read. A
DenseEncoding holds, for a dense set, (kappa, w) and the generators in that
eigenbasis, X_i = w^dag G_i w; the SLDs need only X_i and one change of
basis.

encode_stack evaluates N encodings of one shape at one theta at once, with
a leading (N, ...) axis and one batched eigh; encode is its N = 1 case.
hamiltonian_set checks one Hamiltonian list: its shapes through
hamiltonian_dim, which reads a LocalSpin's dimension without building it,
and its values through hamiltonian_checks, which checks a stack of lists.
A set's `commuting` flag is one tolerance test of every pair at once, on
the pair axis of operator_core (_pairwise_commuting), with Frobenius norms
from frobenius_rows; a product-form set is tested on its 2 x 2 blocks.

Product form. A LocalSpin is a 2 x 2 Hermitian block on one qubit of a
register, the identity on the others (the local_spin descriptor family).
hamiltonian_set keeps a list of them on one register in product form, a
LocalSpinStack, and builds the dense (m, d, d) stack only when it is read.
encode_stack encodes a product form without any d x d matrix, into a
LocalEncoding: K = sum_i theta_i H_i is a sum of 2 x 2 terms k_s = u_s e_s
u_s^dag, one per qubit, so G_i is the 2 x 2 block g_i = u_s x_i u_s^dag on
qubit s = site_i, x_i = herm((u_s^dag a_i u_s) o phi(e_s[p] - e_s[q])), and
the identity elsewhere. It holds the g_i as a LocalSpinStack (`local`),
from which its support_elements and square_norms are read; no eigenbasis
of K is ever built for a product form, and U (the Kronecker product of the
exp(-i k_s)) and the dense generators are built only when read.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .operator_core import (
    HERM_TOL,
    ValidationError,
    _pairs,
    as_square_array,
    dagger,
    first_failure,
    frobenius_rows,
    hermitian_rows,
    tensor,
)
from .states import DensityMatrix, SpectralData

COMMUTE_TOL = 1e-10


def _pairwise_commuting(mats, copies=1.0, site=None):
    """Whether every pair of a stack of matrices commutes within COMMUTE_TOL
    relative to the product of their Frobenius norms, all pairs on one pair
    axis. A product-form set passes its 2 x 2 blocks, `copies` = 2^(n-1) on
    n qubits and their `site`s: terms on distinct qubits commute, and on one
    qubit the dense commutator and each dense norm are the block's times
    sqrt(copies)."""
    first, second = _pairs(len(mats))
    a, b = mats[first], mats[second]
    norms = frobenius_rows(mats)
    # fmax, like max(1.0, x), keeps the bound at COMMUTE_TOL where x is NaN
    bound = COMMUTE_TOL * np.fmax(1.0, norms[first] * norms[second] * copies)
    same = True if site is None else site[first] == site[second]
    return not (same & (frobenius_rows(a @ b - b @ a) * np.sqrt(copies) > bound)).any()


_EYE2 = np.eye(2, dtype=complex)


class LocalSpin(NamedTuple):
    """One Hamiltonian in product form: the 2 x 2 Hermitian `block` on qubit
    `site` of `sites`, the identity on the others (qubit 0 is the leftmost
    tensor factor). Its dimension 2^sites is known before any matrix."""

    sites: int
    site: int
    block: np.ndarray

    @property
    def dim(self):
        return 2**self.sites

    def matrix(self):
        return tensor(*(self.block if k == self.site else _EYE2 for k in range(self.sites)))


@dataclass(eq=False)
class LocalSpinStack:
    """One set of m LocalSpin Hamiltonians (or the generators of a
    LocalEncoding) on one register of `sites` qubits: site (m,) ints and
    blocks (m, 2, 2)."""

    sites: int
    site: np.ndarray
    blocks: np.ndarray

    def matrices(self):
        """The set's dense (m, d, d) stack."""
        return np.stack([LocalSpin(self.sites, s, b).matrix() for s, b in zip(self.site, self.blocks)])


class HamiltonianSet:
    """Validated Hamiltonians. A dense set holds its (m, d, d) `stack`. A set
    of LocalSpins on one register holds its product form `local`, a
    LocalSpinStack, and builds `stack` on first read. `batch` is
    the set as encode_stack's stack of one, in the set's own form; `hams`
    lists the dense Hamiltonians as views of `stack`, and `commuting` is
    computed on first read."""

    def __init__(self, stack=None, local=None):
        if stack is not None:
            self.stack = stack
        self.local = local

    @cached_property
    def stack(self):
        return self.local.matrices()

    @property
    def batch(self):
        return self.stack[None] if self.local is None else self.local

    @property
    def hams(self):
        return list(self.stack)

    @property
    def dim(self):
        return self.stack.shape[1] if self.local is None else 2**self.local.sites

    @property
    def m(self):
        return len(self.stack) if self.local is None else len(self.local.site)

    @cached_property
    def commuting(self):
        if self.local is None:
            return _pairwise_commuting(self.stack)
        spins = self.local
        return _pairwise_commuting(spins.blocks, 2.0 ** (spins.sites - 1), spins.site)


def hamiltonian_dim(hams):
    """The one dimension of a list of Hamiltonians, read from its shapes
    alone: each matrix square, a LocalSpin read by its dim without being
    built, and the list non-empty and of one dimension."""
    dims = {
        h.dim if isinstance(h, LocalSpin) else as_square_array(h, f"Hamiltonian {i}").shape[0]
        for i, h in enumerate(hams)
    }
    if not dims:
        raise ValidationError("empty Hamiltonian list")
    if len(dims) > 1:
        raise ValidationError("Hamiltonians have mismatched dimensions")
    return dims.pop()


def hamiltonian_set(hams):
    """Validate a list of Hermitian Hamiltonians of one dimension.

    The shapes are checked first (hamiltonian_dim). A list of LocalSpins,
    on one register since it has one dimension, is kept in product form: a
    block of a finite real axis is Hermitian by construction, so nothing is
    checked or built. Any other list is checked densely, by
    hamiltonian_checks of the list as a stack of one. Pairwise commutation
    is flagged by the set's `commuting` property."""
    hams = list(hams)
    hamiltonian_dim(hams)
    if all(isinstance(h, LocalSpin) for h in hams):
        site = np.array([h.site for h in hams])
        blocks = np.array([h.block for h in hams], dtype=complex)
        return HamiltonianSet(local=LocalSpinStack(hams[0].sites, site, blocks))
    stack = np.stack([h.matrix() if isinstance(h, LocalSpin) else h for h in hams], dtype=complex)
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


K_OVERFLOW = "K = sum_i theta_i H_i overflows: theta is too large"


def encode_stack(hams, theta):
    """The encoding kernel for N problems of one shape at one theta.

    hams: (N, m, d, d) Hamiltonians, N = 1 for a shared set, or one set in
    product form (a LocalSpinStack), whose encoding is returned as its
    LocalEncoding; theta: (m,), finite (checked_theta). Returns the
    DenseEncoding (kappa, w, x): the eigenvalues of K = sum_i theta_i H_i in
    descending order, (N, d), its eigenvectors, (N, d, d), and the
    eigenbasis generators X_i = herm((w^dag H_i w) o phi(kappa_a - kappa_b)),
    (N, m, d, d). The Hamiltonians are validated, so the symmetrised K is
    checked only for overflow before it goes to eigh; reversing eigh's
    ascending order gives the descending kappa.
    """
    if isinstance(hams, LocalSpinStack):
        return _encode_local(hams, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        k = sum(theta[i] * hams[:, i] for i in range(hams.shape[1]))
        k = (k + dagger(k)) / 2.0
    if not np.all(np.isfinite(k)):
        raise ValidationError(K_OVERFLOW)
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
    return DenseEncoding(kappa, w, x)


def _max_square_norms(blocks):
    """max_i ||b_i||_F^2 of each problem of an (N, m, ...) stack of matrices:
    each matrix viewed as reals, dotted with itself."""
    flat = blocks.reshape(*blocks.shape[:2], 1, -1).view(float)
    return np.max(flat @ np.swapaxes(flat, 2, 3), axis=(1, 2, 3))


@dataclass(eq=False)
class DenseEncoding:
    """encode_stack's result for N dense problems (N = 1 when they share one
    set): kappa (N, d), the eigenvalues of K in descending order, w
    (N, d, d), its eigenvectors, and x (N, m, d, d), the generators in that
    eigenbasis, X_i = w^dag G_i w.

    U and generators, exp(-i K) and the (m, d, d) stack of the G_i =
    w X_i w^dag, are those of problem 0, built on first read; only a
    one-problem encoding (encode's, a report's point) is read for them.
    """

    kappa: np.ndarray
    w: np.ndarray
    x: np.ndarray

    @property
    def dim(self):
        return self.w.shape[-1]

    @property
    def m(self):
        return self.x.shape[1]

    def support_elements(self, v, rank):
        """V_r^dag G_i V for state eigenvectors v (N, d, d), (N, m, r, d):
        T[:, :r]^dag X_i T through one shared change of basis T = w^dag V,
        2 r d^2 per parameter."""
        t = dagger(self.w) @ v
        return dagger(t[:, :, :rank])[:, None] @ self.x @ t[:, None]

    def square_norms(self):
        """max_i ||G_i||_F^2 per problem, read from the X_i by unitary
        invariance."""
        return _max_square_norms(self.x)

    @cached_property
    def U(self):
        return (self.w[0] * np.exp(-1j * self.kappa[0])) @ dagger(self.w[0])

    @cached_property
    def generators(self):
        gens = self.w[0] @ self.x[0] @ dagger(self.w[0])
        return (gens + dagger(gens)) / 2.0


@dataclass(eq=False)
class LocalEncoding:
    """A LocalSpinStack encoded at one theta, in product form, with no
    eigenbasis of K; shared by every problem it is classified with.

    On each qubit s, k_s = sum_{i: site_i = s} theta_i a_i = u_s e_s u_s^dag
    (eigh, ascending; an idle qubit has k_s = 0 and u_s = I), and G_i is the
    2 x 2 block g_i = herm(u_s x_i u_s^dag) on qubit s = site_i, with
    x_i = herm((u_s^dag a_i u_s) o phi(e_s[p] - e_s[q])).

    local: the G_i in product form, a LocalSpinStack of the blocks g_i
    e, u: (q, 2) eigenvalues and (q, 2, 2) eigenvectors of the k_s
    U, generators: exp(-i K), the Kronecker product of the exp(-i k_s), and
        the dense (m, d, d) stack of the G_i, built on first read
    """

    local: LocalSpinStack
    e: np.ndarray
    u: np.ndarray

    @property
    def dim(self):
        return 2**self.local.sites

    @property
    def m(self):
        return len(self.local.site)

    def support_elements(self, v, rank):
        """V_r^dag G_i V for state eigenvectors v (N, d, d), (N, m, r, d), as
        (g_i V_r)^dag V: g_i V_r mixes the two halves of the (d, r) support
        columns that differ in qubit site_i's bit, 4 d r per parameter,
        before one product with V, 2 r d^2.

        Qubit 0 is the leftmost tensor factor, so in the C-order (d, r)
        columns V_r qubit s is the axis of two of their (2^s, 2, 2^(q-1-s) r)
        view, which g_i mixes.
        """
        cols = np.ascontiguousarray(v[:, :, :rank])
        n = len(cols)
        # one contiguous (N, d, r) stack per parameter, so each reshape is a view
        gv = np.empty((self.m, *cols.shape), dtype=complex)
        for out, s, g in zip(gv, self.local.site.tolist(), self.local.blocks):
            a = cols.reshape(n, 2**s, 2, -1)
            b = out.reshape(n, 2**s, 2, -1)
            b[:, :, 0] = g[0, 0] * a[:, :, 0] + g[0, 1] * a[:, :, 1]
            b[:, :, 1] = g[1, 0] * a[:, :, 0] + g[1, 1] * a[:, :, 1]
        np.conj(gv, out=gv)
        return gv.transpose(1, 0, 3, 2) @ v[:, None]

    def square_norms(self):
        """max_i ||G_i||_F^2, (1,): G_i is g_i on one qubit and the identity
        on the q - 1 others, so ||G_i||_F^2 = 2^(q-1) ||g_i||_F^2."""
        return 2.0 ** (self.local.sites - 1) * _max_square_norms(self.local.blocks[None])

    @cached_property
    def U(self):
        return tensor(*((self.u * np.exp(-1j * self.e)[:, None, :]) @ dagger(self.u)))

    @cached_property
    def generators(self):
        return self.local.matrices()


def _encode_local(spins, theta):
    """encode_stack of a LocalSpinStack: its LocalEncoding, with no d x d
    matrix. K overflows when a k_s or a sum of finite site eigenvalues
    does. Each e_s is ascending, so every such sum, added site by site, lies
    between the two it checks: that of the e_s[0] and that of the e_s[1]."""
    with np.errstate(over="ignore", invalid="ignore"):
        ks = np.zeros((spins.sites, 2, 2), dtype=complex)
        np.add.at(ks, spins.site, theta[:, None, None] * spins.blocks)
        ks = (ks + dagger(ks)) / 2.0
    if not np.all(np.isfinite(ks)):
        raise ValidationError(K_OVERFLOW)
    e, u = np.linalg.eigh(ks)
    with np.errstate(over="ignore", invalid="ignore"):
        ends = np.zeros(2)
        for e_s in e:
            ends = ends + e_s
    if not np.all(np.isfinite(ends)):
        raise ValidationError(K_OVERFLOW)
    es, us = e[spins.site], u[spins.site]
    x = dagger(us) @ spins.blocks @ us * _phi(es[:, :, None] - es[:, None, :])
    g = us @ ((x + dagger(x)) / 2.0) @ dagger(us)
    return LocalEncoding(LocalSpinStack(spins.sites, spins.site, (g + dagger(g)) / 2.0), e, u)


def encode(h_set, theta):
    """The encoding at theta (encode_stack at N = 1): a dense set's
    DenseEncoding, or a product form's LocalEncoding."""
    return encode_stack(h_set.batch, checked_theta(h_set, theta))


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

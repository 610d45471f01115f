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
the identity elsewhere. Its `generators` are that LocalSpinStack, which
sld.sld_local_row_stack reads with no eigenbasis of K. The dense path's
(kappa, w, x) are built from the blocks on first read: the eigenvalues of K
are the Kronecker sum of the e_s, its eigenvectors the Kronecker product of
the u_s, and each row of X_i has two entries. An EncodingPoint of a product
form holds only its LocalEncoding and builds kappa, w, elems, U and the
generators when they are read.
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


class EncodingPoint:
    """The encoding at one theta, held in the eigenbasis of K.

    kappa, w: eigenvalues (descending) and eigenvectors of K
    elems: (m, d, d) stack of X_i = w^dag G_i w
    U, generator_stack: exp(-i K) and the (m, d, d) stack of the G_i, built
        on first read; generators lists the G_i as views of that stack
    local: the LocalEncoding of a product-form set, or None. A product-form
        point holds only that, and builds kappa, w and elems from its blocks
        on first read too.
    """

    def __init__(self, theta, kappa=None, w=None, elems=None, local=None):
        self.theta, self.local = theta, local
        if local is None:
            self.kappa, self.w, self.elems = kappa, w, elems

    @cached_property
    def kappa(self):
        return self.local.kappa[0]

    @cached_property
    def w(self):
        return self.local.w[0]

    @cached_property
    def elems(self):
        return self.local.x[0]

    @property
    def dim(self):
        return self.w.shape[0] if self.local is None else 2**self.local.spins.sites

    @property
    def m(self):
        return len(self.elems) if self.local is None else len(self.local.spins.site)

    @cached_property
    def U(self):
        if self.local is not None:
            # exp(-i K) is the Kronecker product of the exp(-i k_s)
            e, u = self.local.e, self.local.u
            return tensor(*((u * np.exp(-1j * e)[:, None, :]) @ dagger(u)))
        return (self.w * np.exp(-1j * self.kappa)) @ dagger(self.w)

    @cached_property
    def generator_stack(self):
        if self.local is not None:
            return self.local.generators.matrices()
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


K_OVERFLOW = "K = sum_i theta_i H_i overflows: theta is too large"


def encode_stack(hams, theta):
    """The encoding kernel for N problems of one shape at one theta.

    hams: (N, m, d, d) Hamiltonians, N = 1 for a shared set, or one set in
    product form (a LocalSpinStack), whose encoding is returned as its
    LocalEncoding; theta: (m,), finite (checked_theta). Returns (kappa, w,
    x): the eigenvalues of K = sum_i theta_i H_i in descending order,
    (N, d), its eigenvectors, (N, d, d), and the eigenbasis generators
    X_i = herm((w^dag H_i w) o phi(kappa_a - kappa_b)), (N, m, d, d). The
    Hamiltonians are validated, so the symmetrised K is checked only for
    overflow before it goes to eigh; reversing eigh's ascending order gives
    the descending kappa.
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
    return kappa, w, x


@dataclass(eq=False)
class LocalEncoding:
    """A LocalSpinStack encoded at one theta, in product form.

    On each qubit s, k_s = sum_{i: site_i = s} theta_i a_i = u_s e_s u_s^dag
    (eigh, ascending; an idle qubit has k_s = 0 and u_s = I).

    spins: the encoded LocalSpinStack
    e, u: (q, 2) eigenvalues and (q, 2, 2) eigenvectors of the k_s
    blocks: (m, 2, 2) x_i = herm((u_s^dag a_i u_s) o phi(e_s[p] - e_s[q])),
        the block of X_i in the eigenbasis u_s of its site s = site_i
    total: (d,) eigenvalues of K in the Kronecker order of the u_s: basis
        state b has sum_s e_s[bit_s(b)]
    generators: the G_i in product form, a LocalSpinStack of the blocks
        g_i = herm(u_s x_i u_s^dag)
    kappa, w, x: encode_stack's arrays of the dense path, (1, d), (1, d, d)
        and (1, m, d, d), built on first read. A stable descending sort of
        total gives kappa and the order of w's columns; X_i couples only
        basis states that differ at most in bit s, where it is x_i, so each
        row has two entries, placed in the sorted basis.
    """

    spins: LocalSpinStack
    e: np.ndarray
    u: np.ndarray
    blocks: np.ndarray
    total: np.ndarray

    @cached_property
    def generators(self):
        us = self.u[self.spins.site]
        g = us @ self.blocks @ dagger(us)
        return LocalSpinStack(self.spins.sites, self.spins.site, (g + dagger(g)) / 2.0)

    @cached_property
    def _order(self):
        return np.argsort(-self.total, kind="stable")

    @cached_property
    def kappa(self):
        return self.total[self._order][None]

    @cached_property
    def w(self):
        return tensor(*self.u)[:, self._order][None]

    @cached_property
    def x(self):
        q, order = self.spins.sites, self._order
        d = 2**q
        rows = np.arange(d)
        position = np.empty(d, dtype=int)
        position[order] = rows
        x = np.zeros((1, len(self.blocks), d, d), dtype=complex)
        for i, s in enumerate(self.spins.site.tolist()):
            shift = q - 1 - s
            bit = (order >> shift) & 1
            x[0, i, rows, rows] = self.blocks[i, bit, bit]
            x[0, i, rows, position[order ^ (1 << shift)]] = self.blocks[i, bit, 1 - bit]
        return x


def _encode_local(spins, theta):
    """encode_stack of a LocalSpinStack: its LocalEncoding, with no d x d
    matrix. K overflows when a k_s or a sum of finite site eigenvalues
    does."""
    with np.errstate(over="ignore", invalid="ignore"):
        ks = np.zeros((spins.sites, 2, 2), dtype=complex)
        np.add.at(ks, spins.site, theta[:, None, None] * spins.blocks)
        ks = (ks + dagger(ks)) / 2.0
    if not np.all(np.isfinite(ks)):
        raise ValidationError(K_OVERFLOW)
    e, u = np.linalg.eigh(ks)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.zeros(1)
        for e_s in e:
            total = (total[:, None] + e_s).reshape(-1)
    if not np.all(np.isfinite(total)):
        raise ValidationError(K_OVERFLOW)
    es, us = e[spins.site], u[spins.site]
    blocks = dagger(us) @ spins.blocks @ us * _phi(es[:, :, None] - es[:, None, :])
    return LocalEncoding(spins, e, u, (blocks + dagger(blocks)) / 2.0, total)


def encoding_point(theta, enc):
    """The EncodingPoint of the first problem of encode_stack's result `enc`
    at theta."""
    if isinstance(enc, LocalEncoding):
        return EncodingPoint(theta, local=enc)
    kappa, w, x = enc
    return EncodingPoint(theta, kappa[0], w[0], x[0])


def encode(h_set, theta):
    """Evaluate the encoding at theta: the eigenpairs of K and all m
    generators in its eigenbasis (encode_stack at N = 1)."""
    theta = checked_theta(h_set, theta)
    return encoding_point(theta, encode_stack(h_set.batch, theta))


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

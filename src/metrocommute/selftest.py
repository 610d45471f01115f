"""Seeded randomized property suites over the whole library.

Each suite draws reproducible random problems (states of every rank, generators,
encoding points, measurements), checks one invariant, and reports the number of
violations plus the worst deviation it saw. The same helpers and suites back
the command-line self-test and the release gate, which only differ in draw
counts.

Most suites are one per-draw check that returns a deviation, and one gate
judges them all: a draw violates unless its deviation is at most the
suite's tol, so a NaN deviation is a violation and prints as worst=nan.
Routes are combined within a draw by np.max, which keeps a NaN. The chain
and trace-norm suites judge flags, not a deviation; a NaN norm is a
violation in both.
"""

from dataclasses import dataclass

import numpy as np

from .conditions import (
    classify,
    condition_operators_direct,
    pc_trace_norm,
    support_kernel_decomposition,
    weak_decomposed,
    weak_direct,
    weak_integral,
    weak_rank_two,
)
from .encoding import encode, evolve, hamiltonian_set
from .examples import (
    _real_entangled_draw,
    _spin_entangled_draw,
    _weak,
    example_configuration,
)
from .metrology import qfim, qfim_additivity, verify_fc_order
from .operator_core import ValidationError, dagger
from .sld import cfim, sld_encoded, sld_rotated
from .states import density_from_eigpairs, povm_set, white_noise_state


@dataclass(eq=False)
class SuiteResult:
    name: str
    draws: int
    violations: int
    worst: float
    note: str = ""

    def line(self):
        out = (
            f"{self.name:<30s} draws={self.draws:<4d} "
            f"violations={self.violations:<3d} worst={self.worst:.3e}"
        )
        if self.note:
            out += f"  ({self.note})"
        return out


# ---------------------------------------------------------------------------
# reproducible draw helpers
# ---------------------------------------------------------------------------


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + dagger(a)) / 2.0


def random_unitary(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, d, rank):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(a)
    weights = rng.dirichlet(np.ones(rank))
    return density_from_eigpairs(
        list(zip(weights, [q[:, k] for k in range(rank)]))
    )


def random_povm(rng, d, n):
    mats = []
    for _ in range(n):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append(a @ dagger(a))
    total = sum(mats)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ dagger(vecs)
    return povm_set([inv_sqrt @ m @ inv_sqrt for m in mats])


def _draw_problem(rng, max_dim=32, max_m=3):
    d = int(rng.integers(2, max_dim + 1))
    rank = int(rng.integers(1, d + 1))
    m = int(rng.integers(2, max_m + 1))
    rho = random_state(rng, d, rank)
    hs = hamiltonian_set([random_hermitian(rng, d) for _ in range(m)])
    return rho, hs, rng.normal(size=m)


def _matched_ex8(rng):
    """EX8 at random local fields with a_x b_z = a_z b_x, where P = 0."""
    ax, az = rng.uniform(0.3, 1.0, size=2)
    scale = float(rng.uniform(0.5, 1.5))
    return example_configuration(
        "EX8",
        {
            "lam1": float(rng.uniform(0.1, 0.4)),
            "lam2": float(rng.uniform(0.1, 0.4)),
            "ax": float(ax),
            "az": float(az),
            "bx": float(scale * ax),
            "bz": float(scale * az),
        },
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _gate(name, devs, tol):
    """The result of a suite from its per-draw deviations.

    A draw violates unless its deviation is at most tol, and worst is the
    largest deviation, so a NaN deviation both violates and prints as nan.
    """
    devs = np.asarray(devs, dtype=float)
    violations = int(np.sum(~(devs <= tol)))
    return SuiteResult(name, devs.size, violations, float(np.max(devs, initial=0.0)))


def _suite(name, stream, tol):
    """Make a per-draw check (rng, k, draws) -> deviation, for draw k of
    draws, into the suite (seed, draws, tol=tol) -> SuiteResult. The suite
    draws from default_rng([seed, stream]) and takes the check's name and
    docstring; _gate judges the deviations."""

    def make(check):
        def suite(seed, draws, tol=tol):
            rng = np.random.default_rng([seed, stream])
            return _gate(name, [check(rng, k, draws) for k in range(draws)], tol)

        suite.__name__ = suite.__qualname__ = check.__name__
        suite.__doc__ = check.__doc__
        return suite

    return make


@_suite("route agreement", 1, 1e-9)
def suite_route_agreement(rng, *_):
    """All independent W routes agree: direct, support-pair, spectral kernel,
    classify's eigenbasis W, and the rank-two fast path where it applies; and
    classify's QFIM agrees with the computational-basis qfim."""
    rho, hs, theta = _draw_problem(rng)
    rep = classify(rho, hs, theta=theta)
    pt, slds = rep.point, rep.slds
    w_direct = weak_direct(rho, slds).entries
    gamma, delta, w_dec = weak_decomposed(rho.spectrum, pt)
    diffs = [
        w_direct - w_dec.entries,
        w_direct - weak_integral(rho.spectrum, pt).entries,
        w_direct - rep.W.entries,
        qfim(rho, slds).matrix - rep.qfim.matrix,
    ]
    if rho.rank == 2:
        # the fast path computes the Delta piece of the decomposition
        d_r2 = weak_rank_two(rho.spectrum, pt).entries
        diffs += [d_r2 - delta.entries, w_direct - (gamma.entries + d_r2)]
    # np.max, not max: max(a, nan) is a
    return np.max([np.max(np.abs(diff)) for diff in diffs])


def _max_block_norm(entries):
    """The largest Frobenius norm of the d x d blocks of an (m, m, d, d) array."""
    return float(np.max(np.linalg.norm(entries, axis=(2, 3))))


@_suite("support/kernel reassembly", 2, 1e-9)
def suite_reassembly(rng, *_):
    """Support/kernel terms reassemble the operator conditions exactly:
    P = I_ss + I_ss', O = P + I_ks, S = O + I_sk + I_kk, against the direct
    commutator construction."""
    rho, hs, theta = _draw_problem(rng)
    pt = encode(hs, theta)
    ops = condition_operators_direct(rho.spectrum, sld_rotated(rho.spectrum, pt))
    terms = support_kernel_decomposition(rho.spectrum, pt, check=False)
    p_sum = terms.i_ss.entries + terms.i_ss_prime.entries
    o_sum = p_sum + terms.i_ks.entries
    s_sum = o_sum + terms.i_sk.entries + terms.i_kk.entries
    return np.max(
        [
            _max_block_norm(mat.entries - ref)
            for mat, ref in (
                (ops.P, p_sum),
                (ops.O, o_sum),
                (ops.S, s_sum),
                (terms.P, p_sum),
                (terms.O, o_sum),
                (terms.S, s_sum),
            )
        ]
    )


@_suite("structural identities", 3, 1e-9)
def suite_structure(rng, *_):
    """Structural identities P = Pi O and W_ij = tr[rho P_ij]."""
    rho, hs, theta = _draw_problem(rng)
    slds = sld_rotated(rho.spectrum, encode(hs, theta))
    ops = condition_operators_direct(rho.spectrum, slds)
    w = weak_direct(rho, slds).entries
    pi = rho.spectrum.support_projector
    w_from_p = np.trace(rho.matrix @ ops.P.entries, axis1=2, axis2=3)
    return np.max(
        [
            _max_block_norm(ops.P.entries - pi @ ops.O.entries),
            np.max(np.abs(w - w_from_p)),
        ]
    )


def _special_configurations(rng, k):
    """Rotating menu of constructions that light up nontrivial flag patterns."""
    pick = k % 4
    if pick == 0:
        return example_configuration("EX7", {"lam": float(rng.uniform(0.1, 0.45))})
    if pick == 1:
        return _matched_ex8(rng)
    if pick == 2:
        return example_configuration("EX9", {"lam": float(rng.uniform(0.1, 0.9))})
    return example_configuration("EX10", {"lam": float(rng.uniform(0.3, 0.9))})


def suite_chain(seed, draws, tol=1e-8):
    """SC => OC => PC => WC with zero violations, on generic draws interleaved
    with constructions that realize every distinct flag pattern. A draw also
    violates when the norms break ||W|| <= ||P|| <= ||O|| <= ||S|| by more
    than 1e-12 * scale, or when one of them is NaN: |tr[rho P_ij]| <=
    ||rho||_F ||P_ij||_F bounds the first, and P and O are blocks of O and S."""
    rng = np.random.default_rng([seed, 4])
    violations = 0
    patterns = set()
    for k in range(draws):
        if k % 2 == 0:
            rho, hs, _ = _draw_problem(rng)
        else:
            rho, hs = _special_configurations(rng, k // 2)
        report = classify(rho, hs, tol=tol)
        patterns.add(tuple(report.flags[c] for c in ("WC", "PC", "OC", "SC")))
        chain = [report.norms[kind] for kind in "WPOS"]
        holds = all(a <= b + 1e-12 * report.scale for a, b in zip(chain, chain[1:]))
        violations += not (holds and report.hierarchy_consistent)
    return SuiteResult(
        "hierarchy chain",
        draws,
        violations,
        0.0,
        note=f"{len(patterns)} distinct flag patterns",
    )


@_suite("qubit purity identity", 5, 1e-10)
def suite_qubit_identity(rng, *_):
    """Single-qubit identity W = (2 tr[rho^2] - 1) Gamma at every encoding."""
    rank = int(rng.integers(1, 3))
    rho = random_state(rng, 2, rank)
    hs = hamiltonian_set([random_hermitian(rng, 2), random_hermitian(rng, 2)])
    pt = encode(hs, rng.uniform(-1.0, 1.0, size=2))
    w12 = weak_direct(rho, sld_rotated(rho.spectrum, pt)).entries[0, 1]
    g1, g2 = pt.generators
    gamma12 = 4.0 * np.trace(rho.matrix @ (g1 @ g2 - g2 @ g1))
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
    return abs(w12 - (2.0 * purity - 1.0) * gamma12)


@_suite("white-noise closed form", 6, 1e-9)
def suite_white_noise(rng, *_):
    """White-noise closed form W_12 = 4 p^3 D^2 / (p (D-2) + 2)^2 <[H1,H2]>."""
    d = int(rng.integers(2, 10))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    p = float(rng.uniform(0.05, 0.95))
    rho = white_noise_state(psi, p)
    h1, h2 = random_hermitian(rng, d), random_hermitian(rng, d)
    pt = encode(hamiltonian_set([h1, h2]), np.zeros(2))
    w12 = weak_direct(rho, sld_rotated(rho.spectrum, pt)).entries[0, 1]
    closed = (
        4.0 * p**3 * d**2 / (p * (d - 2.0) + 2.0) ** 2
    ) * (psi.conj() @ (h1 @ h2 - h2 @ h1) @ psi)
    return abs(w12 - closed)


@_suite("fisher ordering", 7, 1e-9)
def suite_fisher_order(rng, *_):
    """F_C <= F_Q as an operator inequality for every POVM: the deviation is
    minus the least eigenvalue of F_Q - F_C."""
    d = int(rng.integers(2, 7))
    rank = int(rng.integers(1, d + 1))
    rho = random_state(rng, d, rank)
    m = int(rng.integers(1, 4))
    hs = hamiltonian_set([random_hermitian(rng, d) for _ in range(m)])
    pt = encode(hs, rng.normal(size=m))
    slds = sld_rotated(rho.spectrum, pt)
    povm = random_povm(rng, d, int(rng.integers(2, 6)))
    _, witness = verify_fc_order(evolve(rho, pt), povm, sld_encoded(slds, pt))
    return -witness


@_suite("single-parameter saturation", 8, 1e-8)
def suite_saturation(rng, *_):
    """Measuring the SLD eigenbasis saturates the single-parameter bound."""
    d = int(rng.integers(2, 7))
    rank = int(rng.integers(1, d + 1))
    rho = random_state(rng, d, rank)
    hs = hamiltonian_set([random_hermitian(rng, d)])
    pt = encode(hs, rng.normal(size=1))
    rho_theta = evolve(rho, pt)
    l_enc = sld_encoded(sld_rotated(rho.spectrum, pt), pt)[0]
    _, vecs = np.linalg.eigh(l_enc)
    povm = povm_set([np.outer(vecs[:, k], vecs[:, k].conj()) for k in range(d)])
    f_q = qfim(rho_theta, [l_enc]).matrix[0, 0]
    f_c = cfim(rho_theta, povm, [l_enc]).matrix[0, 0]
    return abs(f_q - f_c)


@_suite("two-copy additivity", 9, 1e-8)
def suite_additivity(rng, *_):
    """Two-copy additivity F(rho x rho) = 2 F(rho), relative deviation."""
    d = int(rng.integers(2, 5))
    rank = int(rng.integers(1, d + 1))
    rho = random_state(rng, d, rank)
    m = int(rng.integers(2, 4))
    hs = hamiltonian_set([random_hermitian(rng, d) for _ in range(m)])
    return qfim_additivity(rho, encode(hs, rng.normal(size=m)), 2)


def suite_pc_indicator(seed, draws, tol=1e-8):
    """The trace-norm indicator vanishes exactly when P does.

    Half the draws are generic rank-deficient problems (P generically
    nonzero); the other half are matched-knob constructions with P = 0 by
    design, so both directions of the equivalence are exercised. A NaN norm
    is a violation.
    """
    rng = np.random.default_rng([seed, 10])
    worst_zero_side = 0.0
    violations = 0
    for k in range(draws):
        if k % 2 == 0:
            d = int(rng.integers(3, 7))
            rho = random_state(rng, d, d - 1)
            hs = hamiltonian_set([random_hermitian(rng, d), random_hermitian(rng, d)])
        else:
            rho, hs = _matched_ex8(rng)
        pt = encode(hs, np.zeros(hs.m))
        slds = sld_rotated(rho.spectrum, pt)
        ops = condition_operators_direct(rho.spectrum, slds)
        tn = pc_trace_norm(rho, slds)
        scale_norm = max(1.0, max(np.linalg.norm(l) ** 2 for l in slds.ops))
        p_zero = ops.P.norm <= tol * scale_norm
        tn_zero = tn.norm <= tol * scale_norm
        if p_zero != tn_zero or np.isnan([ops.P.norm, tn.norm]).any():
            violations += 1
        if p_zero:
            worst_zero_side = max(worst_zero_side, tn.norm)
    return SuiteResult("trace-norm indicator", draws, violations, worst_zero_side)


@_suite("basis independence", 11, 1e-9)
def suite_basis_independence(rng, *_):
    """Condition norms and the QFIM are invariant under a global basis change."""
    d = int(rng.integers(2, 7))
    rank = int(rng.integers(1, d + 1))
    rho = random_state(rng, d, rank)
    m = int(rng.integers(2, 4))
    hams = [random_hermitian(rng, d) for _ in range(m)]
    v = random_unitary(rng, d)
    rho_rot = density_from_eigpairs(
        [
            (float(rho.spectrum.eigenvalues[k]), v @ rho.spectrum.eigenvectors[:, k])
            for k in range(rho.rank)
        ]
    )
    rep = classify(rho, hamiltonian_set(hams))
    rep_rot = classify(rho_rot, hamiltonian_set([v @ h @ dagger(v) for h in hams]))
    return np.max(
        [np.max(np.abs(rep.qfim.matrix - rep_rot.qfim.matrix))]
        + [abs(rep.norms[key] - rep_rot.norms[key]) for key in ("W", "P", "O", "S")]
    )


@_suite("real entangled-basis mixtures", 12, 1e-9)
def suite_real_bell_diagonal(rng, k, draws):
    """Real maximally-entangled-basis mixtures with real local generators
    satisfy the weak condition, in d = 2 and d = 3."""
    bd, hs = _real_entangled_draw(rng, 2 if k < max(draws // 2, 1) else 3)
    return _weak(bd.rho, hs).norm


@_suite("spin entangled-basis mixtures", 13, 1e-9)
def suite_spin_bell_diagonal(rng, *_):
    """Two-qubit maximally-entangled-basis mixtures satisfy the weak condition
    for arbitrary local spin directions."""
    bd, hs = _spin_entangled_draw(rng)
    return _weak(bd.rho, hs).norm


ALL_SUITES = [
    suite_route_agreement,
    suite_reassembly,
    suite_structure,
    suite_chain,
    suite_qubit_identity,
    suite_white_noise,
    suite_fisher_order,
    suite_saturation,
    suite_additivity,
    suite_pc_indicator,
    suite_basis_independence,
    suite_real_bell_diagonal,
    suite_spin_bell_diagonal,
]


def run_selftest(seed, draws):
    """Run every suite; returns (summary text, total violation count).

    The summary is a pure function of (seed, draws): identical inputs give
    byte-identical output.
    """
    if draws < 1:
        raise ValidationError("draws must be >= 1")
    results = [suite(seed, draws) for suite in ALL_SUITES]
    total = sum(r.violations for r in results)
    lines = [f"self-test seed={seed} draws={draws}"]
    lines.extend(r.line() for r in results)
    lines.append(f"total violations: {total}")
    return "\n".join(lines) + "\n", total

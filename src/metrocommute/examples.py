"""Worked-example reports with closed-form oracles.

Every runner evaluates its configurations by two paths. The pipeline path
builds each configuration once (through the state and Hamiltonian halves of
its `_EXAMPLES` entry for the single-configuration examples) and runs it through
the generic machinery (states -> encoding -> sld -> conditions -> metrology),
one `classify` or `_weak` pass per configuration. The oracle path evaluates
example-specific closed forms written directly against numpy, sharing only
operator_core primitives with the pipeline, so agreement between the two is
evidence rather than tautology.

EX2, EX3, EX4, EX5 and EX9 also check a closed form over a grid of one
parameter. A grid check runs on the path that the `sweep` command prints
(`_sweep`: descriptors.resolve_halves, resolve_grid and
conditions.classify_stack, stacked over the grid) and evaluates its closed
form once on the whole grid. Each single-point W_12 check stays on
weak_direct (`_weak`), so both routes are anchored to the closed forms.

Each runner states its claims once, as check records (name, expected,
computed, provenance). A report passes when every expected value matches its
computed counterpart to PASS_TOL. Yes/no claims are encoded as 1.0 / 0.0 so
they flow through the same deviation gate. Values that are informational
only (not scored) live in the extras dict.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .conditions import (
    check_point_bytes,
    classify,
    classify_stack,
    support_kernel_decomposition,
    weak_direct,
)
from .encoding import encode, hamiltonian_set
from .metrology import qcr_scalar
from .operator_core import ValidationError, dagger, matrix_exp_i, tensor
from .sld import sld_rotated
from .states import (
    MAX_DIM,
    EigpairVectors,
    density_from_eigpairs,
    density_matrix,
    state_marginal,
    white_noise_vectors,
    white_noise_weights,
    bell_diagonal,
)

PASS_TOL = 1e-8

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)
EYE3 = np.eye(3, dtype=complex)

# Qutrit generator pair used by several examples: an off-diagonal coupling of
# levels 0 and 1 and a traceless diagonal on the same block, both with
# Frobenius norm sqrt(3).
COUPLER_01 = np.sqrt(1.5) * np.array(
    [[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex
)
COUPLER_01_ANTI = np.sqrt(1.5) * np.array(
    [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex
)
DIAG_01 = np.sqrt(1.5) * np.diag([1.0, -1.0, 0.0]).astype(complex)
DIAG_112 = np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(2.0)


@dataclass(eq=False)
class ExampleReport:
    id: str
    parameters: dict
    expected: dict
    provenance: dict
    computed: dict
    extras: dict
    max_abs_error: float
    passed: bool
    # check name -> deviation, for the checks beyond PASS_TOL; not in as_dict
    failures: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "id": self.id,
            "parameters": _jsonable(self.parameters),
            "expected": _jsonable(self.expected),
            "provenance": dict(self.provenance),
            "computed": _jsonable(self.computed),
            "extras": _jsonable(self.extras),
            "max_abs_error": float(self.max_abs_error),
            "pass": bool(self.passed),
        }


def _jsonable(value):
    """Recursively convert numbers/arrays to JSON-ready structures.

    Complex scalars become [re, im]; complex arrays become nested lists of
    [re, im] pairs; real arrays become nested lists of floats.
    """
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [_jsonable(v) for v in value]
        return value.tolist()
    if isinstance(value, str) or value is None:
        return value
    return str(value)


def _deviation(expected, computed):
    a = np.asarray(expected, dtype=complex)
    b = np.asarray(computed, dtype=complex)
    if a.shape != b.shape:
        raise ValidationError("expected and computed shapes differ")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def _finish(example_id, parameters, checks, extras=None):
    """The report of `checks`, records (name, expected, computed, provenance)
    whose order is the key order of the report's dicts."""
    deviations = {name: _deviation(exp, got) for name, exp, got, _ in checks}
    # written so that a NaN deviation fails its check
    failures = {name: dev for name, dev in deviations.items() if not dev <= PASS_TOL}
    return ExampleReport(
        id=example_id,
        parameters=dict(parameters),
        expected={name: exp for name, exp, _, _ in checks},
        provenance={name: why for name, _, _, why in checks},
        computed={name: got for name, _, got, _ in checks},
        extras=dict(extras or {}),
        max_abs_error=float(np.max([0.0, *deviations.values()])),
        passed=not failures,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# random draw helpers (seeded; used by the batch-style reports)
# ---------------------------------------------------------------------------


def _rand_ket(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _rand_herm(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + dagger(a)) / 2.0
    return h / np.linalg.norm(h)


def _rand_orthonormal(rng, d, count):
    a = rng.normal(size=(d, count)) + 1j * rng.normal(size=(d, count))
    q, _ = np.linalg.qr(a)
    return [q[:, k] for k in range(count)]


def _fd_generators(hams, theta, step=1e-5):
    """Local generators by central finite differences of the evolution.

    G_i = i U(theta)^dag dU/dtheta_i, evaluated without the series expansion
    the pipeline uses, so it is an independent route to the same operators.
    """
    k0 = sum(t * h for t, h in zip(theta, hams))
    u0 = matrix_exp_i(k0, sign=-1)
    gens = []
    for h in hams:
        up = matrix_exp_i(k0 + step * h, sign=-1)
        um = matrix_exp_i(k0 - step * h, sign=-1)
        g = 1j * dagger(u0) @ ((up - um) / (2.0 * step))
        gens.append((g + dagger(g)) / 2.0)
    return gens


def _weak(rho, hs, theta=None):
    """W from one encode and SLD pass, for runners that read nothing else.

    Runners that read more than W call `classify` and take W, the QFIM and
    the operators from its report.
    """
    pt = encode(hs, np.zeros(hs.m) if theta is None else theta)
    return weak_direct(rho, sld_rotated(rho.spectrum, pt))


def _sweep(example_id, p, name, grid):
    """(lam, norms, W, F) of the example at p with `name` at each grid value,
    on the path that `sweep` prints (cli.cmd_sweep): the cut eigenvalues
    (n, d), the W, P, O, S norms (n, 4), W (n, m, m) and the QFIM (n, m, m)."""
    # descriptors imports this module, so it is imported on first use
    from .descriptors import _parse_fields, resolve_grid, resolve_halves

    desc = _parse_fields({"state": {"family": "example", "params": {**p, "id": example_id}}})
    parts = []
    for stack in resolve_grid(desc, name, [float(v) for v in grid], resolve_halves(desc)):
        res = classify_stack(stack, desc.zero_tol)
        arrays = (stack.lam, res.norms, res.w_stack, res.f)
        parts.append([np.broadcast_to(a, (stack.n, *a.shape[1:])) for a in arrays])
    return [np.concatenate(column) for column in zip(*parts)]


def _reals(*values):
    """Parameter values as float arrays: 0-d at one point, and (n,) for the
    one that a sweep passes as its n values."""
    return [np.asarray(v, dtype=float) for v in values]


def _weight_rows(*weights):
    """Weights, float arrays of which at most one is not 0-d, as one weight
    row (k,) at one point, or n rows (n, k) at n; each entry is copied as it
    is."""
    lead = max((w.shape for w in weights), key=len)
    rows = np.empty((*lead, len(weights)))
    for k, w in enumerate(weights):
        rows[..., k] = w
    return rows


def _hamiltonian_lists(*hams):
    """Hamiltonians, (d, d) arrays or (n, d, d) stacks of them, as the list
    of one point (m, d, d), or of each of n points (n, m, d, d)."""
    lead = max((h.shape[:-2] for h in hams), key=len)
    lists = np.empty((*lead, len(hams), *hams[0].shape[-2:]), dtype=complex)
    for k, h in enumerate(hams):
        lists[..., k, :, :] = h
    return lists


def _two_weights(x, name):
    """(x, 1 - x) for x in (0, 1), (2,) at one point and (n, 2) at n."""
    (x,) = _reals(x)
    # written so that NaN fails too
    if not ((0.0 < x) & (x < 1.0)).all():
        raise ValidationError(f"out-of-domain parameters: {name} must be in (0, 1)")
    return _weight_rows(x, 1.0 - x)


# ---------------------------------------------------------------------------
# EX1: single-qubit identity W = (2 tr[rho^2] - 1) Gamma
# ---------------------------------------------------------------------------


def _purity_identity(rho_mat, gens):
    """(2 tr[rho^2] - 1) Gamma_12 with Gamma_12 = 4 tr[rho [G_1, G_2]]: W_12
    of the qubit state rho_mat under the generators gens."""
    gamma12 = 4.0 * np.trace(rho_mat @ (gens[0] @ gens[1] - gens[1] @ gens[0]))
    purity = float(np.trace(rho_mat @ rho_mat).real)
    return (2.0 * purity - 1.0) * gamma12


def _run_ex1(p):
    rng, draws = _seeded_rng(p), _draws(p)
    worst = 0.0
    for k in range(draws):
        rank = 1 if k % 2 == 0 else 2
        if rank == 1:
            pairs = [(1.0, _rand_ket(rng, 2))]
        else:
            lam = float(rng.uniform(0.05, 0.95))
            basis = _rand_orthonormal(rng, 2, 2)
            pairs = [(lam, basis[0]), (1.0 - lam, basis[1])]
        rho = density_from_eigpairs(pairs)
        hams = [_rand_herm(rng, 2), _rand_herm(rng, 2)]
        theta = rng.uniform(-1.0, 1.0, size=2)
        w = _weak(rho, hamiltonian_set(hams), theta)
        # oracle: finite-difference generators, then the purity identity
        rho_mat = sum(wt * np.outer(v, v.conj()) for wt, v in pairs)
        closed = _purity_identity(rho_mat, _fd_generators(hams, theta))
        worst = max(worst, abs(w.entries[0, 1] - closed))
    checks = [
        ("worst_identity_deviation", 0.0, worst,
         "W_12 = (2 tr[rho^2] - 1) Gamma_12 for every qubit state; "
         "Gamma_12 = 4 tr[rho [G_1, G_2]] with G_i from central finite "
         "differences of the evolution"),
    ]
    return _finish("EX1", p, checks)


# ---------------------------------------------------------------------------
# EX2: white-noise mixture of a pure state
# ---------------------------------------------------------------------------


def _ex2_closed(p, dim, psi, hams):
    """W_12 of p |psi><psi| + (1 - p) 1/dim under the Hamiltonian pair hams,
    the closed form that EX2 and the self-test check."""
    comm = hams[0] @ hams[1] - hams[1] @ hams[0]
    pref = 4.0 * p**3 * dim**2 / (p * (dim - 2.0) + 2.0) ** 2
    return pref * (psi.conj() @ comm @ psi)


def _is_number(value):
    """Whether value is a real number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _whole_number(value):
    """value as an int when it is a real number with no fractional part,
    else None."""
    return int(value) if _is_number(value) and float(value).is_integer() else None


def _whole_parameter(p, name, least, domain):
    """Parameter `name` of p as an int: a whole number of at least `least`,
    else the out-of-domain error that `domain` words."""
    value = _whole_number(p[name])
    if value is None or value < least:
        raise ValidationError(f"out-of-domain parameters: {name} must be {domain}")
    return value


def _seeded_rng(p):
    """The generator of a seeded example, its seed a non-negative integer."""
    return np.random.default_rng(_whole_parameter(p, "seed", 0, "a non-negative integer"))


def _draws(p):
    """A seeded report's number of draws, an integer >= 1."""
    return _whole_parameter(p, "draws", 1, "an integer >= 1")


def _ex2_dim(p):
    """EX2's dim, an integer in 2..MAX_DIM whose problem (two Hamiltonians)
    is within the byte limit; both halves read it before they build."""
    dim = _whole_parameter(p, "dim", 2, "an integer >= 2")
    if dim > MAX_DIM:
        raise ValidationError(f"out-of-domain parameters: dim must be at most {MAX_DIM}")
    check_point_bytes(dim, 2)
    return dim


def _ex2_rng(p):
    """EX2's seeded generator (_seeded_rng) and its dim (_ex2_dim): the ket
    is its first draw and the Hamiltonian pair its next."""
    return _seeded_rng(p), _ex2_dim(p)


def _ex2_draw(p):
    """The seeded ket and Hamiltonian pair of EX2."""
    rng, dim = _ex2_rng(p)
    return _rand_ket(rng, dim), [_rand_herm(rng, dim), _rand_herm(rng, dim)]


def _ex2_noise(p):
    """EX2's p as a float array (_reals), each value in (0, 1]."""
    (noise,) = _reals(p["p"])
    if not ((0.0 < noise) & (noise <= 1.0)).all():
        raise ValidationError("out-of-domain parameters: p must be in (0, 1]")
    return noise


def _ex2_weights(p):
    return white_noise_weights(_ex2_noise(p), _ex2_dim(p))


def _ex2_vectors(p):
    return white_noise_vectors(_rand_ket(*_ex2_rng(p)))


def _ex2_hamiltonians(p):
    return _ex2_draw(p)[1]


def _run_ex2(p):
    psi, hams = _ex2_draw(p)
    dim, noise = psi.size, float(_ex2_noise(p))
    w12 = _weak(*example_configuration("EX2", p)).entries[0, 1]
    grid = np.linspace(0.1, 0.9, 9)
    w = _sweep("EX2", p, "p", grid)[2]
    sweep_worst = np.max(np.abs(w[:, 0, 1] - _ex2_closed(grid, dim, psi, hams)))
    checks = [
        ("W_12", _ex2_closed(noise, dim, psi, hams), w12,
         "W_12 = 4 p^3 D^2 / (p (D - 2) + 2)^2 <psi|[H_1, H_2]|psi> for "
         "rho = p |psi><psi| + (1 - p) 1/D"),
        ("p_sweep_worst", 0.0, float(sweep_worst),
         "same closed form, worst deviation over p in 0.1..0.9"),
    ]
    return _finish("EX2", p, checks)


# ---------------------------------------------------------------------------
# EX3: rank-two qutrit pair with tilted kets
# ---------------------------------------------------------------------------


def _pair_weights(p):
    """(lam, 1 - lam), the weights of the two-ket states."""
    return _two_weights(p["lam"], "lam")


def _tilted_kets(p):
    """The two alpha-tilted qutrit kets of EX3 and EX7.

    Domain: cot^2(alpha) <= 1 and cos(2 alpha + pi) >= 0, i.e. alpha in
    [pi/4, 3 pi/4]; outside it the kets cannot be orthogonal.
    """
    alpha = float(p["alpha"])
    # cot^2(alpha) is infinite where sin(alpha) = 0, which is out of the domain
    with np.errstate(divide="ignore", over="ignore"):
        cot2 = np.cos(alpha) ** 2 / np.sin(alpha) ** 2
    if cot2 > 1.0 + 1e-12:
        raise ValidationError(
            "out-of-domain parameters: cot^2(alpha) must be <= 1"
        )
    if np.cos(2.0 * alpha + np.pi) < -1e-12:
        raise ValidationError(
            "out-of-domain parameters: cos(2 alpha + pi) must be >= 0"
        )
    beta = 0.5 * (np.pi - np.arccos(np.clip(cot2, -1.0, 1.0)))
    return EigpairVectors(
        np.array(
            [
                np.sin(alpha) * np.sin(b),
                np.sin(alpha) * np.cos(b),
                np.cos(alpha),
            ],
            dtype=complex,
        )
        for b in (beta, -beta)
    )


def _ex3_closed(alpha, lam):
    h_lam = -6j * np.sqrt(3.0) * (1.0 - lam) * lam * (2.0 * lam - 1.0)
    radicand = np.maximum(np.cos(2.0 * alpha + np.pi) / np.sin(alpha) ** 4, 0.0)
    return h_lam * (1.0 - np.cos(4.0 * alpha)) * np.sqrt(radicand)


def _ex3_hamiltonians(p):
    return [COUPLER_01_ANTI, DIAG_112]


def _run_ex3(p):
    alpha, lam = float(p["alpha"]), float(p["lam"])
    w12 = _weak(*example_configuration("EX3", p)).entries[0, 1]
    grid = np.linspace(np.pi / 4 + 0.05, np.pi / 2 - 0.05, 9)
    w = _sweep("EX3", p, "alpha", grid)[2]
    sweep_worst = np.max(np.abs(w[:, 0, 1] - _ex3_closed(grid, lam)))
    checks = [
        ("W_12", _ex3_closed(alpha, lam), w12,
         "W_12 = h_lam (1 - cos 4 alpha) sqrt(cos(2 alpha + pi) / "
         "sin^4 alpha), h_lam = -6 i sqrt(3) (1 - lam) lam (2 lam - 1)"),
        ("alpha_sweep_worst", 0.0, float(sweep_worst),
         "same closed form, worst deviation over alpha in "
         "[pi/4 + 0.05, pi/2 - 0.05]"),
    ]
    return _finish("EX3", p, checks)


# ---------------------------------------------------------------------------
# EX4: two-qubit mixture of |00> and |++> under commuting local generators
# ---------------------------------------------------------------------------


def _ex4_weights(p):
    return _two_weights(p["p"], "p")


def _ex4_vectors(p):
    """|00> and |++>, which are not orthogonal: each state is assembled and
    diagonalized (EigpairVectors)."""
    v00 = np.zeros(4, dtype=complex)
    v00[0] = 1.0
    return EigpairVectors([v00, np.full(4, 0.5, dtype=complex)])


def _ex4_hamiltonians(p):
    return [tensor(PAULI_X, EYE2), tensor(EYE2, PAULI_Y)]


def _run_ex4(p):
    prob = float(p["p"])
    rho, hs = example_configuration("EX4", p)
    w12, lam_small = _weak(rho, hs).entries[0, 1], float(rho.spectrum.eigenvalues[1])

    def closed_w(pp):
        return -8j * (1.0 - pp) * pp**2

    def closed_lam(pp):
        return 0.5 * (1.0 - np.sqrt(1.0 - 3.0 * (1.0 - pp) * pp))

    grid = np.linspace(0.1, 0.9, 9)
    lam, _, w, _ = _sweep("EX4", p, "p", grid)
    sweep_worst = max(
        np.max(np.abs(w[:, 0, 1] - closed_w(grid))),
        np.max(np.abs(lam[:, 1] - closed_lam(grid))),
    )
    checks = [
        ("W_12", closed_w(prob), w12,
         "W_12 = -8 i (1 - p) p^2 although [H_1, H_2] = 0"),
        ("lambda_small", closed_lam(prob), lam_small,
         "smaller support eigenvalue (1 - sqrt(1 - 3 (1-p) p)) / 2"),
        ("p_sweep_worst", 0.0, float(sweep_worst),
         "both closed forms, worst deviation over p in 0.1..0.9"),
    ]
    return _finish("EX4", p, checks)


# ---------------------------------------------------------------------------
# EX5: three-qubit W-type pair under local sigma_z generators
# ---------------------------------------------------------------------------


def _w_type_kets():
    om = np.exp(2j * np.pi / 3.0)
    k = {}
    for idx, pos in (("001", 1), ("010", 2), ("100", 4)):
        v = np.zeros(8, dtype=complex)
        v[pos] = 1.0
        k[idx] = v
    psi1 = (k["001"] + om * k["010"] + om**2 * k["100"]) / np.sqrt(3.0)
    psi2 = (k["001"] + om**2 * k["010"] + om * k["100"]) / np.sqrt(3.0)
    return psi1, psi2


def _ex5_vectors(p):
    return EigpairVectors(_w_type_kets())


def _ex5_hamiltonians(p):
    return [
        tensor(PAULI_Z, EYE2, EYE2),
        tensor(EYE2, PAULI_Z, EYE2),
        tensor(EYE2, EYE2, PAULI_Z),
    ]


def _run_ex5(p):
    lam = float(p["lam"])

    def closed(ll):
        return 64j * (1.0 - ll) * ll * (1.0 - 2.0 * ll) / (3.0 * np.sqrt(3.0))

    w = _weak(*example_configuration("EX5", p)).entries
    grid = np.linspace(0.05, 0.95, 10)
    wg, cc = _sweep("EX5", p, "lam", grid)[2], closed(grid)
    sweep_worst = np.max(np.abs([wg[:, 0, 1] - cc, wg[:, 1, 2] - cc, wg[:, 0, 2] + cc]))
    pattern = "W_12 = W_23 = -W_13 = 64 i (1 - lam) lam (1 - 2 lam) / (3 sqrt(3))"
    checks = [
        ("W_12", closed(lam), w[0, 1], pattern),
        ("W_23", closed(lam), w[1, 2], pattern),
        ("W_13", -closed(lam), w[0, 2], pattern),
        ("lambda_sweep_worst", 0.0, float(sweep_worst),
         "same pattern, worst deviation over lam in 0.05..0.95"),
    ]
    return _finish("EX5", p, checks)


# ---------------------------------------------------------------------------
# EX6: two-qubit marginals of a W-type tripartite state
# ---------------------------------------------------------------------------


def _run_ex6(p):
    rng = _seeded_rng(p)
    psi1, _ = _w_type_kets()
    rho_abc = density_from_eigpairs([(1.0, psi1)])
    hs = hamiltonian_set([tensor(PAULI_X, EYE2), tensor(EYE2, PAULI_X)])
    norms = {}
    checks = []
    for keep, name in [((0, 1), "AB"), ((1, 2), "BC"), ((0, 2), "CA")]:
        w = _weak(state_marginal(rho_abc, [2, 2, 2], keep), hs)
        norms[name] = w.norm
        checks.append((f"{name}_wc_violated", 1.0, 1.0 if w.norm > 1e-6 else 0.0,
                       "every two-qubit marginal of the W-type ket has W != 0"))
    # contrast: marginals of a pure product state keep W = 0 exactly
    product = tensor(*[np.outer(v, v.conj()) for v in
                       (_rand_ket(rng, 2), _rand_ket(rng, 2), _rand_ket(rng, 2))])
    rho_prod = density_matrix(product)
    worst_prod = 0.0
    for keep in [(0, 1), (1, 2), (0, 2)]:
        w = _weak(state_marginal(rho_prod, [2, 2, 2], keep), hs)
        worst_prod = max(worst_prod, w.norm)
    checks.append(("product_marginals_wc_hold", 1.0, 1.0 if worst_prod < 1e-9 else 0.0,
                   "marginals of a pure product state are product states, so W = 0"))
    extras = {"marginal_W_norms": norms, "product_worst_W_norm": worst_prod}
    return _finish("EX6", p, checks, extras)


# ---------------------------------------------------------------------------
# EX7: rank-two qutrit pair with a two-knob diagonal/coupling generator
# ---------------------------------------------------------------------------


def _qutrit_coupling(p):
    """a COUPLER_01 + a' DIAG_01, EX7's first generator and EX9's local one:
    (3, 3) at one point and (n, 3, 3) at n."""
    a, a_prime = (x[..., None, None] for x in _reals(p["a"], p["a_prime"]))
    return a * COUPLER_01 + a_prime * DIAG_01


def _ex7_hamiltonians(p):
    return _hamiltonian_lists(_qutrit_coupling(p), DIAG_112)


def _run_ex7(p):
    alpha, lam, a = float(p["alpha"]), float(p["lam"]), float(p["a"])
    rho, hs = example_configuration("EX7", p)
    report = classify(rho, hs)
    ops = report.operators
    terms = support_kernel_decomposition(rho.spectrum, report.point)

    s_val = -12.0 * a * np.sqrt(3.0) * np.cos(alpha) ** 2 * np.cos(2.0 * alpha)
    t_val = (
        12.0
        * a
        * np.sin(alpha)
        * np.cos(alpha) ** 3
        * np.sqrt(max(6.0 - 6.0 * np.cos(alpha) ** 2 / np.sin(alpha) ** 2, 0.0))
    )
    p12_expect = np.array(
        [[0.0, s_val, t_val], [-s_val, 0.0, 0.0], [-t_val, 0.0, 0.0]],
        dtype=complex,
    )

    # alpha = pi/4 degeneration: P collapses, O keeps one kernel-column entry
    rho_q, hs_q = example_configuration("EX7", {**p, "alpha": np.pi / 4})
    report_q = classify(rho_q, hs_q)
    terms_q = support_kernel_decomposition(rho_q.spectrum, report_q.point)
    o12_expect = np.zeros((3, 3), dtype=complex)
    o12_expect[1, 2] = 3.0 * a * np.sqrt(3.0) * (1.0 - 2.0 * lam)

    # a = 0 leaves two commuting diagonal generators: S vanishes entirely
    report_a0 = classify(
        *example_configuration("EX7", {**p, "alpha": np.pi / 4, "a": 0.0, "a_prime": 1.0})
    )
    f_a0 = report_a0.qfim
    try:
        qcr_scalar(f_a0)
        singular_msg = ""
    except ValidationError as err:
        singular_msg = str(err)

    checks = [
        ("W_norm", 0.0, report.W.norm,
         "commuting generators on this family give W = 0 for all knobs"),
        ("P_12", p12_expect, ops.P.entry(0, 1),
         "P_12 = [[0, s, t], [-s, 0, 0], [-t, 0, 0]] with "
         "s = -12 a sqrt(3) cos^2(alpha) cos(2 alpha), "
         "t = 12 a sin(alpha) cos^3(alpha) sqrt(6 - 6 cot^2(alpha))"),
        ("P_norm_quarter", 0.0, report_q.operators.P.norm,
         "at alpha = pi/4 both s and t vanish, so P = 0"),
        ("O_12_quarter", o12_expect, report_q.operators.O.entry(0, 1),
         "at alpha = pi/4 the only surviving entry is "
         "[O_12]_{23} = 3 a sqrt(3) (1 - 2 lam)"),
        ("I_kk_norm_quarter", 0.0, terms_q.i_kk.norm,
         "kernel-kernel term vanishes for every (a, a')"),
        ("S_norm_axial", 0.0, report_a0.operators.S.norm,
         "a = 0 leaves two diagonal generators, hence S = 0"),
    ]
    extras = {
        "qfim_axial": f_a0.matrix,
        "qfim_axial_rank": f_a0.rank,
        "qcr_axial_error": singular_msg,
        "I_kk_norm": terms.i_kk.norm,
        "O_norm": ops.O.norm,
        "S_norm": ops.S.norm,
    }
    return _finish("EX7", p, checks, extras)


# ---------------------------------------------------------------------------
# EX8: rank-three two-qubit state, maximally entangled eigenbasis
# ---------------------------------------------------------------------------


# local fields with a_x b_z = a_z b_x, where P vanishes but O does not
_EX8_MATCHED = {"ax": 1.0, "az": 0.4, "bx": 1.0, "bz": 0.4}


def _ex8_weights(p):
    lam1, lam2 = _reals(p["lam1"], p["lam2"])
    # written so that NaN fails too
    if not ((lam1 > 0.0) & (lam2 > 0.0) & (lam1 + lam2 < 1.0)).all():
        raise ValidationError(
            "out-of-domain parameters: need lam1 > 0, lam2 > 0, lam1 + lam2 < 1"
        )
    return _weight_rows(lam1, lam2, 1.0 - lam1 - lam2)


def _ex8_vectors(p):
    b1 = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
    b2 = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2.0)
    b3 = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0)
    return EigpairVectors([b1, b2, b3])


def _local_field(x, z):
    """x X + z Z: (2, 2) at one point and (n, 2, 2) at n."""
    x, z = (c[..., None, None] for c in _reals(x, z))
    return x * PAULI_X + z * PAULI_Z


def _ex8_hamiltonians(p):
    return _hamiltonian_lists(
        tensor(_local_field(p["ax"], p["az"]), EYE2),
        tensor(EYE2, _local_field(p["bx"], p["bz"])),
    )


def _run_ex8(p):
    lam1, lam2 = float(p["lam1"]), float(p["lam2"])
    ax, az = float(p["ax"]), float(p["az"])
    bx, bz = float(p["bx"]), float(p["bz"])

    rho, hs = example_configuration("EX8", p)
    report = classify(rho, hs)
    ops = report.operators
    terms = support_kernel_decomposition(rho.spectrum, report.point)

    f_val = 4.0 * (1.0 - lam1) * lam1 * (ax * bz - az * bx) / (
        (1.0 - lam2) * (lam1 + lam2)
    )
    p_pattern = np.array(
        [[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 1], [0, -1, -1, 0]],
        dtype=complex,
    )
    g_val = 4.0 * lam1 * (1.0 - lam1 - 2.0 * lam2) * (ax * bz + az * bx) / (
        (1.0 - lam2) * (lam1 + lam2)
    )
    iks_expect = np.zeros((4, 4), dtype=complex)
    iks_expect[1, 0] = iks_expect[1, 3] = g_val
    iks_expect[2, 0] = iks_expect[2, 3] = -g_val

    # matched knobs a_x b_z = a_z b_x: P collapses while O survives
    ops_m = classify(*example_configuration("EX8", {**p, **_EX8_MATCHED})).operators

    # axial knobs a_z = b_z = 0: all four conditions hold
    report_x = classify(*example_configuration("EX8", {**p, "az": 0.0, "bz": 0.0}))
    f_x = report_x.qfim
    qcr_x = qcr_scalar(f_x)

    checks = [
        ("W_norm", 0.0, report.W.norm,
         "commuting local generators on this family give W = 0"),
        ("P_12", f_val * p_pattern, ops.P.entry(0, 1),
         "P_12 = f [[0,1,1,0],[-1,0,0,1],[-1,0,0,1],[0,-1,-1,0]], "
         "f = 4 (1 - lam1) lam1 (a_x b_z - a_z b_x) / "
         "((1 - lam2) (lam1 + lam2))"),
        ("I_ks_12", iks_expect, terms.i_ks.entry(0, 1),
         "kernel-support term carries g = 4 lam1 (1 - lam1 - 2 lam2) "
         "(a_x b_z + a_z b_x) / ((1 - lam2) (lam1 + lam2)) at entries "
         "(2,1), (2,4), -(3,1), -(3,4)"),
        ("I_kk_norm", 0.0, terms.i_kk.norm,
         "kernel-kernel term vanishes for every knob setting"),
        ("P_norm_matched", 0.0, ops_m.P.norm,
         "a_x b_z = a_z b_x forces f = 0, hence P = 0"),
        ("O_nonzero_matched", 1.0, 1.0 if ops_m.O.norm > 1e-6 else 0.0,
         "the kernel-support term keeps O != 0 there"),
        ("S_norm_axial", 0.0, report_x.operators.S.norm,
         "a_z = b_z = 0 gives commuting SLDs, hence S = 0"),
    ]
    extras = {
        "f": f_val,
        "g": g_val,
        "O_norm_matched": ops_m.O.norm,
        "qfim_axial": f_x.matrix,
        "qcr_axial": qcr_x,
    }
    return _finish("EX8", p, checks, extras)


# ---------------------------------------------------------------------------
# EX9: two-qutrit pair with identical local generators
# ---------------------------------------------------------------------------


def _ex9_vectors(p):
    def ket(i, j):
        v = np.zeros(9, dtype=complex)
        v[i * 3 + j] = 1.0
        return v

    psi1 = (ket(0, 1) + ket(1, 0)) / np.sqrt(2.0)
    psi2 = (ket(1, 2) + ket(2, 1)) / np.sqrt(2.0)
    return EigpairVectors([psi1, psi2])


def _ex9_hamiltonians(p):
    eta = _qutrit_coupling(p)
    return _hamiltonian_lists(tensor(eta, EYE3), tensor(EYE3, eta))


def _ex9_qfim_closed(lam):
    """The a = 0 QFIM at lam, or one per entry of an array lam."""
    return np.multiply.outer(1.5 * (1.0 + 3.0 * lam), np.array([[1.0, -1.0], [-1.0, 1.0]]))


def _run_ex9(p):
    lam = float(p["lam"])
    axial = {"a": 0.0, "a_prime": 1.0}
    rho, hs = example_configuration("EX9", p)
    report = classify(rho, hs)
    ops = report.operators
    terms = support_kernel_decomposition(rho.spectrum, report.point)

    report0 = classify(*example_configuration("EX9", {**p, **axial}))
    f0 = report0.qfim
    try:
        qcr_scalar(f0)
        singular = 0.0
    except ValidationError:
        singular = 1.0

    grid = np.linspace(0.05, 0.95, 10)
    norms = _sweep("EX9", p, "lam", grid)[1]
    f = _sweep("EX9", {**p, **axial}, "lam", grid)[3]
    # the W, P and O columns of the norms (conditions.NORM_KINDS)
    sweep_worst = max(np.max(norms[:, :3]), np.max(np.abs(f - _ex9_qfim_closed(grid))))

    one_sided = "one-sided condition holds for every (lam, a, a')"
    checks = [
        ("W_norm", 0.0, report.W.norm, one_sided),
        ("P_norm", 0.0, ops.P.norm, one_sided),
        ("O_norm", 0.0, ops.O.norm, one_sided),
        ("I_kk_nonzero", 1.0, 1.0 if terms.i_kk.norm > 1e-6 else 0.0,
         "only the kernel-kernel term survives when a != 0"),
        ("S_nonzero", 1.0, 1.0 if ops.S.norm > 1e-6 else 0.0,
         "S = I_kk != 0 when a != 0, so the strong condition fails"),
        ("S_norm_axial", 0.0, report0.operators.S.norm,
         "a = 0 gives commuting diagonal generators, S = 0"),
        ("qfim_axial", _ex9_qfim_closed(lam), f0.matrix,
         "F = (3 (1 + 3 lam) / 2) [[1, -1], [-1, 1]] at a = 0"),
        ("qfim_singular_axial", 1.0, singular,
         "that F is rank one, so the scalar bound is undefined"),
        ("lambda_sweep_worst", 0.0, float(sweep_worst),
         "W = P = O = 0 and the a = 0 closed form hold pointwise over lam"),
    ]
    extras = {"I_kk_norm": terms.i_kk.norm, "S_norm": ops.S.norm}
    return _finish("EX9", p, checks, extras)


# ---------------------------------------------------------------------------
# EX10: full-rank pseudo-pure two-qubit state, equal local generators
# ---------------------------------------------------------------------------


def _pseudo_pure_weights(p):
    """EX10, and OBS7 at its default dim: lam on psi and lam* on each vector
    of its completion (_pseudo_pure_vectors)."""
    lam, dim = _reals(p["lam"], p.get("dim", 4))
    if not (dim == 4).all():
        raise ValidationError(
            "out-of-domain parameters: dim must be 4 (two-qubit realization)"
        )
    # written so that NaN fails too
    if not ((0.0 < lam) & (lam < 1.0)).all():
        raise ValidationError("out-of-domain parameters: lam must be in (0, 1)")
    star = (1.0 - lam) / (dim - 1.0)
    return _weight_rows(lam, star, star, star)


def _pseudo_pure_vectors(p):
    return white_noise_vectors(np.array([0, 1, 1, 0], dtype=complex))


def _pseudo_pure_hamiltonians(p):
    """EX10, and OBS7 at its default local fields."""
    local = _local_field(p.get("ax", 1.0), p.get("az", 1.0))
    return _hamiltonian_lists(tensor(local, EYE2), tensor(EYE2, local))


def _p_o_s_spread(ops):
    """The larger of ||P_12 - S_12|| and ||O_12 - S_12||: zero where full
    rank makes the support projector trivial, so that P = O = S."""
    return max(
        float(np.linalg.norm(ops.P.entry(0, 1) - ops.S.entry(0, 1))),
        float(np.linalg.norm(ops.O.entry(0, 1) - ops.S.entry(0, 1))),
    )


def _run_ex10(p):
    lam = float(p["lam"])
    dim = int(p["dim"])
    ax, az = float(p["ax"]), float(p["az"])
    rho, hs = example_configuration("EX10", p)
    report = classify(rho, hs)
    ops, slds, pt, f = report.operators, report.slds, report.point, report.qfim

    lam_star = (1.0 - lam) / (dim - 1.0)
    ratio = (lam - lam_star) / (lam + lam_star)
    s_pattern = np.array(
        [[0, -1, 1, 0], [1, 0, 0, 1], [-1, 0, 0, -1], [0, -1, 1, 0]],
        dtype=complex,
    )
    s_expect = 4.0 * ratio**2 * ax * az * s_pattern
    psi = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0)
    pi_psi = np.outer(psi, psi.conj())
    sld_dev = max(
        float(
            np.linalg.norm(
                slds.ops[i]
                - 2j * ratio * (pi_psi @ pt.generators[i] - pt.generators[i] @ pi_psi)
            )
        )
        for i in range(2)
    )
    coincide = _p_o_s_spread(ops)

    checks = [
        ("W_norm", 0.0, report.W.norm,
         "equal local generators on the exchange-symmetric state give W = 0"),
        ("S_12", s_expect, ops.S.entry(0, 1),
         "S_12 = 4 ((lam - lam*) / (lam + lam*))^2 a_x a_z "
         "[[0,-1,1,0],[1,0,0,1],[-1,0,0,-1],[0,-1,1,0]], "
         "lam* = (1 - lam) / (D - 1)"),
        ("sld_deviation", 0.0, sld_dev,
         "L_i = 2 i ((lam - lam*) / (lam + lam*)) (Pi_psi G_i - G_i Pi_psi)"),
        ("full_rank", 1.0, 1.0 if rho.rank == dim else 0.0,
         "the state has full rank for every lam in (0, 1)"),
        ("E", 0.0, report.E, "W = 0 makes the incompatibility measure vanish exactly"),
        ("P_O_S_coincide", 0.0, coincide,
         "full rank collapses the hierarchy: P = O = S"),
        ("wc_flag", 1.0, 1.0 if report.flags["WC"] else 0.0, "weak condition holds"),
        ("sc_flag", 0.0, 1.0 if report.flags["SC"] else 0.0,
         "strong condition still fails: S != 0 despite W = 0"),
    ]
    extras = {
        "qfim": f.matrix,
        "qfim_condition_number": f.condition_number,
        "S_norm": ops.S.norm,
        "converse_failures": report.converse_failures,
        "lam_star": lam_star,
    }
    return _finish("EX10", p, checks, extras)


# ---------------------------------------------------------------------------
# OBS2: commuting generators do not imply the weak condition
# ---------------------------------------------------------------------------


def _run_obs2(p):
    rng = _seeded_rng(p)
    rho, hs = example_configuration("EX4", {"p": 0.5})
    w = _weak(rho, hs)
    w_pure = _weak(density_from_eigpairs([(1.0, _rand_ket(rng, 4))]), hs)
    checks = [
        ("hamiltonians_commute", 1.0, 1.0 if hs.commuting else 0.0,
         "[H_1, H_2] = 0 for local generators"),
        ("mixed_wc_violated", 1.0, 1.0 if w.norm > 1e-6 else 0.0,
         "the |00> / |++> mixture at p = 1/2 has W != 0"),
        ("W_norm", np.sqrt(2.0), w.norm,
         "|W_12| = 8 (1 - p) p^2 = 1 at p = 1/2, Frobenius norm sqrt(2)"),
        ("pure_wc_holds", 1.0, 1.0 if w_pure.norm < 1e-9 else 0.0,
         "pure states with commuting generators always give W = 0"),
    ]
    extras = {"pure_W_norm": w_pure.norm}
    return _finish("OBS2", p, checks, extras)


# ---------------------------------------------------------------------------
# OBS3: real maximally-entangled-basis mixtures with real local generators
# ---------------------------------------------------------------------------


def _symmetrized_weights(rng, d):
    raw = rng.dirichlet(np.ones(d * d)).reshape(d, d)
    sym = (raw + raw[(-np.arange(d)) % d, :]) / 2.0
    return (sym / sym.sum()).reshape(-1)


def _real_entangled_draw(rng, d):
    """A real mixture of the d = 2 or 3 maximally entangled basis (index-
    symmetrized weights at d = 3) with real local generators on each side."""
    if d == 2:
        weights = rng.dirichlet(np.ones(4))
    else:
        weights = _symmetrized_weights(rng, 3)
    bd = bell_diagonal(weights, d)
    eye = np.eye(d, dtype=complex)
    h_a = rng.normal(size=(d, d))
    h_a = (h_a + h_a.T) / 2.0
    h_b = rng.normal(size=(d, d))
    h_b = (h_b + h_b.T) / 2.0
    hams = [tensor(h_a.astype(complex), eye), tensor(eye, h_b.astype(complex))]
    return bd, hamiltonian_set(hams)


def _run_obs3(p):
    rng, draws = _seeded_rng(p), _draws(p)
    worst = {2: 0.0, 3: 0.0}
    all_real = True
    for d in (2, 3):
        for _ in range(draws):
            bd, hs = _real_entangled_draw(rng, d)
            all_real = all_real and bd.is_real
            worst[d] = max(worst[d], _weak(bd.rho, hs).norm)
    checks = [
        ("worst_W_norm_d2", 0.0, worst[2],
         "real mixtures of the d = 2 maximally entangled basis with real "
         "local generators always satisfy the weak condition"),
        ("worst_W_norm_d3", 0.0, worst[3],
         "d = 3 mixtures with index-symmetrized weights are real states; "
         "real local generators then give W = 0"),
        ("all_real", 1.0, 1.0 if all_real else 0.0,
         "every drawn state passes the realness check"),
    ]
    return _finish("OBS3", p, checks)


# ---------------------------------------------------------------------------
# OBS5: two-qubit maximally-entangled-basis mixtures, arbitrary spin axes
# ---------------------------------------------------------------------------


def _spin_entangled_draw(rng):
    """A two-qubit maximally-entangled-basis mixture with local spin
    generators along random axes, of random magnitude in [0.5, 2]."""
    bd = bell_diagonal(rng.dirichlet(np.ones(4)), 2)
    axes = []
    for _ in range(2):
        n = rng.normal(size=3)
        n = n / np.linalg.norm(n) * rng.uniform(0.5, 2.0)
        axes.append(n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)
    return bd, hamiltonian_set([tensor(axes[0], EYE2), tensor(EYE2, axes[1])])


def _run_obs5(p):
    rng, draws = _seeded_rng(p), _draws(p)
    worst = 0.0
    for _ in range(draws):
        bd, hs = _spin_entangled_draw(rng)
        worst = max(worst, _weak(bd.rho, hs).norm)
    checks = [
        ("worst_W_norm", 0.0, worst,
         "every two-qubit maximally-entangled-basis mixture satisfies the "
         "weak condition for arbitrary local spin directions and magnitudes"),
    ]
    return _finish("OBS5", p, checks)


# ---------------------------------------------------------------------------
# OBS6: all three converse implications of the hierarchy fail
# ---------------------------------------------------------------------------


def _run_obs6(p):
    # weak-but-not-partial: the qutrit pair at its generic knobs
    rho_a, hs_a = example_configuration(
        "EX7", {"alpha": np.pi / 3, "lam": 0.25, "a": 1.0, "a_prime": 1.0}
    )
    rep_a = classify(rho_a, hs_a)
    # partial-but-not-one-sided: the entangled triple at matched knobs
    rho_b, hs_b = example_configuration("EX8", {"lam1": 0.3, "lam2": 0.2, **_EX8_MATCHED})
    rep_b = classify(rho_b, hs_b)
    # one-sided-but-not-strong: the two-qutrit pair at its generic knobs
    rho_c, hs_c = example_configuration("EX9", {"lam": 1.0 / 3.0, "a": 1.0, "a_prime": 0.7})
    rep_c = classify(rho_c, hs_c)

    def witness(rep, holds, fails):
        return 1.0 if rep.flags[holds] and not rep.flags[fails] else 0.0

    checks = [
        ("wc_without_pc", 1.0, witness(rep_a, "WC", "PC"),
         "qutrit pair: W = 0 while P != 0"),
        ("pc_without_oc", 1.0, witness(rep_b, "PC", "OC"),
         "entangled triple at a_x b_z = a_z b_x: P = 0 while O != 0"),
        ("oc_without_sc", 1.0, witness(rep_c, "OC", "SC"),
         "two-qutrit pair: O = 0 while S != 0"),
        ("hamiltonians_commute", 1.0,
         1.0 if all(hs.commuting for hs in (hs_a, hs_b, hs_c)) else 0.0,
         "all three demonstrations use commuting generators"),
    ]
    extras = {
        "weak_without_partial_flags": rep_a.flags,
        "partial_without_one_sided_flags": rep_b.flags,
        "one_sided_without_strong_flags": rep_c.flags,
    }
    return _finish("OBS6", p, checks, extras)


# ---------------------------------------------------------------------------
# OBS7: a full-rank state where W = 0 but the SLDs do not commute
# ---------------------------------------------------------------------------


def _run_obs7(p):
    rho, hs = example_configuration("OBS7", p)
    report = classify(rho, hs)
    ops = report.operators
    coincide = _p_o_s_spread(ops)
    nonzero = "the SLD commutator itself stays nonzero"
    checks = [
        ("full_rank", 1.0, 1.0 if rho.rank == 4 else 0.0,
         "the pseudo-pure state has full rank"),
        ("wc_holds", 1.0, 1.0 if report.flags["WC"] else 0.0,
         "W = 0, so the scalar incompatibility measure vanishes"),
        ("sc_fails", 1.0, 1.0 if not report.flags["SC"] else 0.0, nonzero),
        ("S_nonzero", 1.0, 1.0 if ops.S.norm > 1e-6 else 0.0, nonzero),
        ("E", 0.0, report.E, "E = 0 exactly on weak-condition states"),
        ("projector_coincidence", 0.0, coincide,
         "full rank makes the support projector trivial, so P = O = S and "
         "the scalar condition is the only one that can differ"),
    ]
    extras = {
        "norms": report.norms,
        "flags": report.flags,
        "qfim_condition_number": report.qfim.condition_number,
    }
    return _finish("OBS7", p, checks, extras)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class Half(namedtuple("Half", "reads build")):
    """One half of a configuration, its state or its Hamiltonians: the
    parameter names it reads (a tuple) and p -> its value. A Hamiltonian
    half gives the list of matrices that hamiltonian_set checks, as an
    (m, d, d) array or a list. A state half gives a DensityMatrix, or a
    matrix that density_matrix checks and wraps; the only state half a
    sweep moves is an EigpairHalf (descriptors.sweepable_parameters).

    A Hamiltonian half that reads a parameter, and an EigpairHalf's weights
    half, also build a whole batch of a sweep: p then holds the swept
    parameter as a 1-D float array of n values, the others as scalars, and
    build gives the n Hamiltonian lists as one (n, m, d, d) array, or the n
    weight rows as one (n, k) array, each entry with the same
    floating-point operations as a one-point build. Such a build raises
    when any of the n points is out of its domain; the sweep then finds
    that point by resolving the values one by one. Halves whose parameter
    moves an eigpair state's vectors (EX2's dim and seed, EX3 and EX7's
    alpha) are built one point at a time."""


class EigpairHalf(namedtuple("EigpairHalf", "weights vectors")):
    """The state half of an eigpair state, built in two Halves: `weights`
    gives its weights and `vectors` its states.EigpairVectors. The weights
    are built first, so their domain check comes first. A sweep that leaves
    the vectors fixed builds the weights of a batch in one call (Half) and
    checks them at once; one that moves the vectors builds both at each
    point."""

    @property
    def reads(self):
        return self.weights.reads + self.vectors.reads


def build_state(state, p):
    """(rho, vectors): the DensityMatrix a state half gives at p, and the
    states.EigpairVectors it built (None unless the half is an
    EigpairHalf). An EigpairHalf builds its weights first."""
    if isinstance(state, EigpairHalf):
        weights = state.weights.build(p)
        vectors = state.vectors.build(p)
        return vectors.state(weights), vectors
    value = state.build(p)
    return density_matrix(value) if isinstance(value, np.ndarray) else value, None


_PAIR_WEIGHTS = Half(("lam",), _pair_weights)
_TILTED_PAIR = EigpairHalf(_PAIR_WEIGHTS, Half(("alpha",), _tilted_kets))
_PSEUDO_PURE = (
    EigpairHalf(Half(("dim", "lam"), _pseudo_pure_weights), Half((), _pseudo_pure_vectors)),
    Half(("ax", "az"), _pseudo_pure_hamiltonians),
)

# An example is its runner p -> ExampleReport, its default parameters, and,
# for the nine single-configuration examples, the one place they build their
# state and their Hamiltonians, as two halves of p, the merged parameters,
# each naming the parameters it reads, which is how a sweep knows the half its
# parameter moves (descriptors.resolve_grid). Runners build their own sweeps
# and variants through these halves too (example_configuration).
_Example = namedtuple("_Example", "run defaults state hamiltonians")

_EXAMPLES = {
    "EX1": _Example(_run_ex1, {"seed": 7, "draws": 100}, None, None),
    "EX2": _Example(
        _run_ex2,
        {"dim": 4, "p": 0.6, "seed": 11},
        EigpairHalf(Half(("dim", "p"), _ex2_weights), Half(("dim", "seed"), _ex2_vectors)),
        Half(("dim", "seed"), _ex2_hamiltonians),
    ),
    "EX3": _Example(
        _run_ex3,
        {"alpha": np.pi / 3, "lam": 0.25},
        _TILTED_PAIR,
        Half((), _ex3_hamiltonians),
    ),
    "EX4": _Example(
        _run_ex4,
        {"p": 0.5},
        EigpairHalf(Half(("p",), _ex4_weights), Half((), _ex4_vectors)),
        Half((), _ex4_hamiltonians),
    ),
    "EX5": _Example(
        _run_ex5,
        {"lam": 0.25},
        EigpairHalf(_PAIR_WEIGHTS, Half((), _ex5_vectors)),
        Half((), _ex5_hamiltonians),
    ),
    "EX6": _Example(_run_ex6, {"seed": 23}, None, None),
    "EX7": _Example(
        _run_ex7,
        {"alpha": np.pi / 3, "lam": 0.25, "a": 1.0, "a_prime": 1.0},
        _TILTED_PAIR,
        Half(("a", "a_prime"), _ex7_hamiltonians),
    ),
    "EX8": _Example(
        _run_ex8,
        {"lam1": 0.3, "lam2": 0.2, "ax": 1.0, "az": 0.3, "bx": 1.0, "bz": -0.5},
        EigpairHalf(Half(("lam1", "lam2"), _ex8_weights), Half((), _ex8_vectors)),
        Half(("ax", "az", "bx", "bz"), _ex8_hamiltonians),
    ),
    "EX9": _Example(
        _run_ex9,
        {"lam": 1.0 / 3.0, "a": 1.0, "a_prime": 0.7},
        EigpairHalf(_PAIR_WEIGHTS, Half((), _ex9_vectors)),
        Half(("a", "a_prime"), _ex9_hamiltonians),
    ),
    "EX10": _Example(_run_ex10, {"dim": 4, "lam": 0.6, "ax": 1.0, "az": 1.0}, *_PSEUDO_PURE),
    "OBS2": _Example(_run_obs2, {"seed": 29}, None, None),
    "OBS3": _Example(_run_obs3, {"seed": 31, "draws": 25}, None, None),
    "OBS5": _Example(_run_obs5, {"seed": 37, "draws": 25}, None, None),
    "OBS6": _Example(_run_obs6, {}, None, None),
    "OBS7": _Example(_run_obs7, {"lam": 0.6}, *_PSEUDO_PURE),
}

EXAMPLE_IDS = list(_EXAMPLES)


def default_parameters(example_id):
    if example_id not in _EXAMPLES:
        raise ValidationError(f"unknown example id: {example_id}")
    return dict(_EXAMPLES[example_id].defaults)


def _is_finite(value):
    """Whether a real number is finite as a float: an int too large for a
    float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _merged_parameters(example_id, params):
    """The example's defaults with `params` applied; unknown ids or names
    raise, and so does a value that is not a finite number where the default
    is. The builders of an example's halves read only these parameters, so
    every number they convert is a finite float."""
    merged = default_parameters(example_id)
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValidationError(
                f"unknown parameter {key!r} for {example_id}; "
                f"valid names: {sorted(merged)}"
            )
        if _is_number(merged[key]) and not _is_number(value):
            raise ValidationError(
                f"parameter {key!r} for {example_id}: expected a number, got {value!r}"
            )
        if _is_number(value) and not _is_finite(value):
            got = repr(value) if isinstance(value, float) else "an integer too large for a float"
            raise ValidationError(
                f"parameter {key!r} for {example_id}: expected a finite number, got {got}"
            )
        merged[key] = value
    return merged


def run_example(example_id, params=None):
    """Run one worked example, optionally overriding its default parameters."""
    merged = _merged_parameters(example_id, params)
    return _EXAMPLES[example_id].run(merged)


def run_all():
    return [run_example(ex_id) for ex_id in EXAMPLE_IDS]


def example_halves(example_id, params=None):
    """(p, state half, Hamiltonian half) of a single-configuration example, p
    its merged parameters; example_configuration builds them.

    Those are EX2..EX5, EX7..EX10 and OBS7; the batch-style reports (EX1,
    EX6, OBS2, OBS3, OBS5, OBS6) do not define a single configuration and are
    rejected.
    """
    p = _merged_parameters(example_id, params)
    ex = _EXAMPLES[example_id]
    if ex.state is None:
        raise ValidationError(
            f"example {example_id} does not define a single sweepable configuration"
        )
    return p, ex.state, ex.hamiltonians


def example_configuration(example_id, params=None):
    """State and Hamiltonian set of a single-configuration example, built
    from its halves (example_halves)."""
    p, state, hamiltonians = example_halves(example_id, params)
    return build_state(state, p)[0], hamiltonian_set(hamiltonians.build(p))

"""Shared test helpers (random problems, a call counter), criterion 2's QFIM
references, and the acceptance-criteria summary plugin.

test_acceptance.py records one line per criterion through record_criterion;
the terminal-summary hook prints the collected lines as a dedicated section
at the end of the pytest run, so the gate's verdicts are visible in one block
regardless of how many tests ran around them.
"""

import sys

import numpy as np

from metrocommute.conditions import ScalarConditionMatrix, weak_integral

_criterion_lines = {}


def count_calls(monkeypatch, func):
    """Record the positional arguments of every call to func, through every
    metrocommute module that holds it; len() of the result counts calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("metrocommute") and getattr(mod, func.__name__, None) is func:
            monkeypatch.setattr(mod, func.__name__, counted)
    return calls


def nan_weak_integral(spec, pt):
    """conditions.weak_integral with every entry NaN: a broken W route."""
    w = weak_integral(spec, pt)
    return ScalarConditionMatrix(entries=np.full_like(w.entries, np.nan), kind=w.kind)


def stacked_points(calls):
    """Problems passed through a stacked kernel: the leading axis of the first
    argument, summed over the recorded calls."""
    return sum(len(args[0]) for args in calls)


def broadcast_points(calls):
    """Problems a stacked kernel evaluated when its array arguments broadcast
    over the leading axis (an axis of 1 is shared): the longest leading axis
    of each call's arrays, summed over the recorded calls."""
    return sum(max(len(a) for a in args if isinstance(a, np.ndarray)) for args in calls)


def _ex8_axial_qfim(lam1, lam2):
    """EX8 with ax = bx = 1, az = bz = 0, from the spectral QFIM formula.

    X (x) I couples Phi+ to Psi+ and Phi- to -Psi-, I (x) X couples them with
    a plus sign, and Psi- carries no weight; the pure-state limit lam1 -> 1
    gives 4 Var(X (x) I) = 4 on the diagonal.
    """
    mu = 1.0 - lam1 - lam2
    g = (lam1 - mu) ** 2 / (lam1 + mu)
    return 4.0 * np.array([[g + lam2, g - lam2], [g - lam2, g + lam2]])


# Criterion-2 configurations (evaluated at theta = 0) and their QFIM
# references, each a closed form. test_metrology.py checks every reference
# against the Bures metric, built without the pipeline's own routes.
QFIM_SPOTS = {
    # tilted pair at the quarter angle: a qubit on span{|0>, |2>} with Bloch
    # vector (2 lam - 1) x and generators c_i Z, c = (sqrt(6)/4, 3/(2 sqrt(2))),
    # so F = 4 (2 lam - 1)^2 c c^T
    "EX7": (
        {"alpha": np.pi / 4, "lam": 0.25, "a": 0.0, "a_prime": 1.0},
        0.375 * np.array([[1.0, np.sqrt(3.0)], [np.sqrt(3.0), 3.0]]),
    ),
    # two-qubit entangled pair with axial local fields, see _ex8_axial_qfim
    "EX8": (
        {"lam1": 0.3, "lam2": 0.2, "ax": 1.0, "az": 0.0, "bx": 1.0, "bz": 0.0},
        _ex8_axial_qfim(0.3, 0.2),
    ),
    # noisy pair with axial knobs: 1.5 (1 + 3 lam) [[1, -1], [-1, 1]]
    "EX9": (
        {"lam": 1.0 / 3.0, "a": 0.0, "a_prime": 1.0},
        3.0 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
    ),
}


def record_criterion(num, name, passed, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    _criterion_lines[num] = line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for num in sorted(_criterion_lines):
            terminalreporter.write_line(_criterion_lines[num])


def random_density(rng, dim, rank=None):
    """Haar-basis random density matrix of the given rank (default: full)."""
    if rank is None:
        rank = dim
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    weights = rng.dirichlet(np.ones(rank))
    mat = (q[:, :rank] * weights) @ q[:, :rank].conj().T
    return (mat + mat.conj().T) / 2.0


def sub_cutoff_state(rng, tails):
    """Matrix of a random d = 4 pure state plus the weights `tails`, each
    below the default rank cutoff, on further random orthonormal vectors."""
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    w = np.array([1.0 - sum(tails), *tails])
    mat = (q[:, : w.size] * w) @ q[:, : w.size].conj().T
    return (mat + mat.conj().T) / 2.0


def random_hermitian_matrix(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2.0


def spectral_cases(seed, m=3):
    """(label, rho, Hamiltonians, theta) over d in {2, 3, 4, 27, 64} at ranks
    1, (d + 1) // 2 and d, plus a weight at 10x and at 0.1x RANK_TOL, which
    sits on either side of the rank cutoff (ranks 3 and 2). The 0.1x state
    is a cut state: its weight below the cutoff is an exact zero from
    construction, in its spectrum and in its matrix."""
    from metrocommute.states import RANK_TOL, density_from_eigpairs, density_matrix

    rng = np.random.default_rng(seed)
    for d in (2, 3, 4, 27, 64):
        for rank in sorted({1, (d + 1) // 2, d}):
            rho = density_matrix(random_density(rng, d, rank=rank))
            hams = [random_hermitian_matrix(rng, d) for _ in range(m)]
            yield f"{d}/{rank}", rho, hams, rng.normal(size=m)
    for t in (10.0, 0.1):
        weights = np.array([0.5, 0.3, t * RANK_TOL])
        z = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        q, _ = np.linalg.qr(z)
        rho = density_from_eigpairs(zip(weights / weights.sum(), q.T))
        hams = [random_hermitian_matrix(rng, 5) for _ in range(m)]
        yield f"5/cutoff x{t:g}", rho, hams, rng.normal(size=m)


def literal_sld_elems(spec, generators):
    """2i coeff o (V^dag G_i V) for every generator, stacked as (m, d, d): the
    eigenbasis SLDs built literally from computational-basis generators, with
    every pair whose eigenvalue sum is at or below the cutoff dropped."""
    lam = spec.eigenvalues.copy()
    lam[lam <= spec.rank_tol] = 0.0
    denom = lam[:, None] + lam[None, :]
    live = denom > spec.rank_tol
    coeff = np.zeros_like(denom)
    coeff[live] = (lam[:, None] - lam[None, :])[live] / denom[live]
    v = spec.eigenvectors
    return np.stack([2j * coeff * (v.conj().T @ g @ v) for g in generators])

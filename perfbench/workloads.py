"""Seeded inputs, request schedules and output checks of the three workloads.

Every workload is a closed loop driven by one client: `run` sends one request
and returns only when it has finished. A workload exposes

  warmup     one request of a fixed shape, run before timing
  cycles     the request schedule, a list of cycles; the timed phase runs
             them in turn and always finishes the cycle it started
  ops(req)   how many ops the request carries
  run(req)   the timed call into metrocommute's public entry points
  check(req, out)  untimed verification by a route other than the one that
             produced the output; returns a list of failure messages, one per
             failed op
  tag(req)   the ROADMAP item 1 shape ("9/5/3", "64/16/4") or None

The seed fixes every input: the same seed gives byte-identical descriptor
files and matrices. Shapes and their mix are fixed by the schedule, so the
cost of a cycle barely depends on the seed.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import metrocommute.cli as mc_cli
import metrocommute.conditions as mc_conditions
import metrocommute.descriptors as mc_descriptors
import metrocommute.encoding as mc_encoding
import metrocommute.sld as mc_sld
import metrocommute.states as mc_states

W_TOL = 1e-9  # route agreement, relative to the classifier's scale
ZERO_TOL = 1e-8  # the classifier's default zero test
E_SLACK = 1e-9  # rounding slack on E in [0, 1]

# The sweep CSV header is a frozen CLI contract; it is spelled out here, not
# imported, so that a change to it shows as a failed check.
SWEEP_HEADER = "parameter,value,W_norm,P_norm,O_norm,S_norm,WC,PC,OC,SC,E"
CLASSIFY_KEYS = (
    "dim",
    "rank",
    "theta",
    "norms",
    "flags",
    "hierarchy_consistent",
    "converse_failures",
    "scale",
    "tolerances",
    "qfim",
    "qfim_rank",
    "qfim_condition_number",
    "E",
    "qcr",
    "notices",
)
CHAIN = ("SC", "OC", "PC", "WC")

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def rng_for(seed, stream):
    """Independent generator per (seed, workload stream)."""
    return np.random.default_rng([int(seed), int(stream)])


def haar_columns(rng, d, r):
    """r orthonormal columns of a Haar-random d x d unitary."""
    z = (rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))) / math.sqrt(2)
    q, upper = np.linalg.qr(z)
    diag = np.diag(upper)
    return q * (diag / np.abs(diag))


def spectrum(rng, r, floor=1e-6):
    """A Dirichlet(1, ..., 1) spectrum, redrawn until every weight >= floor."""
    while True:
        w = rng.dirichlet(np.ones(r))
        if w.min() >= floor:
            return w


def gaussian_hermitian(rng, d):
    a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2.0
    return a + a.conj().T


def chain_holds(flags):
    """SC => OC => PC => WC for a dict of booleans."""
    return all(not flags[a] or flags[b] for a, b in zip(CHAIN, CHAIN[1:]))


def classifier_scale(pt):
    return max(1.0, max(np.linalg.norm(g) for g in pt.generators) ** 2)


def call_cli(argv):
    """metrocommute.cli.main in-process, as a shell user would call it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = mc_cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_failure(req_name, rc, err):
    return f"{req_name}: exit code {rc}: {err.strip()[:200]}"


# ---------------------------------------------------------------------------
# sweep-small
# ---------------------------------------------------------------------------

# (example id, swept parameter, low, high). Domains keep every grid point
# valid: EX8 needs lam1 + lam2 < 1 with lam2 = 0.2, the others need (0, 1).
SWEEP_FAMILIES = (
    ("EX8", "lam1", 0.05, 0.75),
    ("EX8", "az", -1.5, 1.5),
    ("EX8", "bz", -1.5, 1.5),
    ("EX4", "p", 0.05, 0.95),
    ("EX10", "lam", 0.05, 0.95),
    ("EX5", "lam", 0.05, 0.95),
    ("EX9", "lam", 0.05, 0.95),
)
SWEEP_SIZES = tuple(int(round(x)) for x in np.linspace(25, 50, 2 * len(SWEEP_FAMILIES)))


class SweepSmall:
    """`sweep` commands over small-d example families, half with --jobs 2."""

    name = "sweep-small"
    stream = 1

    def __init__(self, seed, workdir):
        self.rng = rng_for(seed, self.stream)
        self.files = {
            ex_id: str(Path(workdir) / f"sweep_{ex_id}.json")
            for ex_id in sorted({f[0] for f in SWEEP_FAMILIES})
        }
        self.descs = {}
        self.warmup = self._command(SWEEP_FAMILIES[0], 25, 1)
        self.cycles = None

    def write_files(self):
        for ex_id, path in self.files.items():
            Path(path).write_text(self._descriptor_text(ex_id))

    @staticmethod
    def _descriptor_text(ex_id):
        return json.dumps({"state": {"family": "example", "params": {"id": ex_id}}})

    def prepare(self):
        """Draw the schedule: every (family, jobs) slot once per cycle.

        Grid sizes rotate over the slots from cycle to cycle, so every run
        of at least len(SWEEP_SIZES) cycles, whatever its seed, holds the
        same mix of (family, jobs, size); the seed draws endpoints and order.
        """
        self.descs = {
            ex_id: mc_descriptors.parse_descriptor(self._descriptor_text(ex_id))
            for ex_id in self.files
        }
        slots = [(fam, jobs) for fam in SWEEP_FAMILIES for jobs in (1, 2)]
        self.cycles = []
        for c in range(len(SWEEP_SIZES)):
            cycle = [
                self._command(fam, SWEEP_SIZES[(k + c) % len(SWEEP_SIZES)], jobs)
                for k, (fam, jobs) in enumerate(slots)
            ]
            self.cycles.append([cycle[k] for k in self.rng.permutation(len(cycle))])

    def _command(self, family, n, jobs):
        ex_id, param, lo, hi = family
        a, b = sorted(round(float(x), 6) for x in self.rng.uniform(lo, hi, 2))
        # `--grid=` keeps argparse from reading a negative start as an option
        argv = ["sweep", self.files[ex_id], "--param", param, f"--grid={a!r}:{b!r}:{n}"]
        if jobs == 2:
            argv += ["--jobs", "2"]
        return {"argv": argv, "ex_id": ex_id, "param": param, "grid": (a, b, n)}

    @staticmethod
    def ops(req):
        return req["grid"][2]

    @staticmethod
    def tag(req):
        return None

    @staticmethod
    def run(req):
        return call_cli(req["argv"])

    def check(self, req, out):
        rc, text, err = out
        n = self.ops(req)
        label = f"sweep {req['ex_id']} {req['param']}"
        if rc != 0:
            return [cli_failure(label, rc, err)] * n
        lines = text.splitlines()
        if not lines or lines[0] != SWEEP_HEADER:
            return [f"{label}: CSV header {lines[:1]!r}"] * n
        rows = lines[1:]
        if len(rows) != n:
            return [f"{label}: {len(rows)} rows for {n} grid points"] * n
        desc = self.descs[req["ex_id"]]
        grid = np.linspace(*req["grid"])
        failures = []
        for value, row in zip(grid, rows):
            problem = self._check_row(desc, req["param"], float(value), row.split(","))
            if problem:
                failures.append(f"{label}={value:.6g}: {problem}")
        return failures

    @staticmethod
    def _check_row(desc, param, value, cells):
        if len(cells) != 11:
            return f"{len(cells)} columns"
        if cells[0] != param or not math.isclose(float(cells[1]), value, rel_tol=1e-11, abs_tol=1e-12):
            return f"row names {cells[0]}={cells[1]}"
        flags = dict(zip(("WC", "PC", "OC", "SC"), (c == "1" for c in cells[6:10])))
        if any(c not in ("0", "1") for c in cells[6:10]) or not chain_holds(flags):
            return f"flags {cells[6:10]} break SC=>OC=>PC=>WC"
        if cells[10] != "singular" and not -E_SLACK <= float(cells[10]) <= 1 + E_SLACK:
            return f"E={cells[10]} outside [0, 1]"
        rho, hs, theta, _ = mc_descriptors.resolve(
            mc_descriptors.with_parameter(desc, param, value)
        )
        pt = mc_encoding.encode(hs, theta)
        w_norm = np.linalg.norm(mc_conditions.weak_integral(rho.spectrum, pt).entries)
        if abs(float(cells[2]) - w_norm) > W_TOL * classifier_scale(pt):
            return f"W_norm {cells[2]} but weak_integral gives {w_norm:.12g}"
        return None


# ---------------------------------------------------------------------------
# classify-large
# ---------------------------------------------------------------------------

# A cycle is 24 descriptor files: 20 at d = 64 and 4 at d = 256, so the
# d = 64 : d = 256 ratio is 5 : 1 within every cycle. Ranks lie in [d/8, d/2].
CLASSIFY_D64 = (
    (8, 3), (9, 4), (10, 3), (12, 4), (13, 3), (14, 4), (16, 4), (16, 3),
    (16, 4), (18, 3), (19, 4), (20, 3), (22, 4), (23, 3), (24, 4), (26, 3),
    (27, 4), (28, 3), (30, 4), (32, 3),
)
CLASSIFY_D256 = ((32, 3), (64, 3), (96, 3), (128, 3))


class ClassifyLarge:
    """`classify FILE --json` on large eigpair-list descriptors."""

    name = "classify-large"
    stream = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        shapes = [(64, r, m) for r, m in CLASSIFY_D64] + [(256, r, m) for r, m in CLASSIFY_D256]
        self.shapes = {
            str(Path(workdir) / f"classify_{k:02d}_{d}_{r}_{m}.json"): (d, r, m)
            for k, (d, r, m) in enumerate(shapes)
        }
        self.warmup = next(
            {"path": path, "dim": d, "rank": r, "m": m}
            for path, (d, r, m) in self.shapes.items()
            if (d, r, m) == (64, 16, 4)
        )
        self.cycles = None
        self.expected = {}

    def _draw(self):
        """The seeded arrays behind every descriptor file, keyed by path."""
        rng = rng_for(self.seed, self.stream)
        problems = {}
        for path, (d, r, m) in self.shapes.items():
            nq = int(round(math.log2(d)))
            s0, s1 = (int(s) for s in rng.choice(nq, 2, replace=False))
            sites = [s0, s0, s1, s1][:m]  # shared sites: the generators do not commute
            problems[path] = {
                "path": path,
                "dim": d,
                "rank": r,
                "m": m,
                "weights": spectrum(rng, r),
                "vectors": haar_columns(rng, d, r),
                "spins": [(nq, s, rng.standard_normal(3)) for s in sites],
                "theta": rng.standard_normal(m),
            }
        return problems

    def write_files(self):
        for path, prob in self._draw().items():
            Path(path).write_text(json.dumps(self.descriptor(prob)))

    @staticmethod
    def descriptor(prob):
        def pairs(vec):
            return [[float(z.real), float(z.imag)] for z in vec]

        return {
            "state": [
                {"weight": float(w), "vector": pairs(prob["vectors"][:, k])}
                for k, w in enumerate(prob["weights"])
            ],
            "hamiltonians": [
                {
                    "family": "local_spin",
                    "params": {"sites": nq, "site": s, "axis": [float(a) for a in axis]},
                }
                for nq, s, axis in prob["spins"]
            ],
            "theta": [float(t) for t in prob["theta"]],
        }

    def prepare(self):
        """Fix the request order and the expected W norm of every file."""
        problems = self._draw()
        d64 = [p for p in problems.values() if p["dim"] == 64]
        d256 = [p for p in problems.values() if p["dim"] == 256]
        rng = rng_for(self.seed, self.stream + 100)
        d64 = [d64[k] for k in rng.permutation(len(d64))]
        d256 = [d256[k] for k in rng.permutation(len(d256))]
        cycle = []
        for k, big in enumerate(d256):
            cycle += d64[5 * k : 5 * k + 5] + [big]
        self.cycles = [[{key: p[key] for key in ("path", "dim", "rank", "m")} for p in cycle]]
        self.expected = {path: self._expected_w(p) for path, p in problems.items()}

    @staticmethod
    def _expected_w(prob):
        """||W|| by the spectral-kernel route, built without the descriptor."""
        rho = mc_states.density_from_eigpairs(list(zip(prob["weights"], prob["vectors"].T)))
        hams = []
        for nq, site, axis in prob["spins"]:
            local = sum(a * p for a, p in zip(axis, PAULI))
            out = np.eye(1, dtype=complex)
            for q in range(nq):
                out = np.kron(out, local if q == site else np.eye(2))
            hams.append(out)
        pt = mc_encoding.encode(mc_encoding.hamiltonian_set(hams), prob["theta"])
        w = mc_conditions.weak_integral(rho.spectrum, pt).entries
        return float(np.linalg.norm(w)), classifier_scale(pt)

    @staticmethod
    def ops(req):
        return 1

    @staticmethod
    def tag(req):
        shape = (req["dim"], req["rank"], req["m"])
        return "64/16/4" if shape == (64, 16, 4) else None

    @staticmethod
    def run(req):
        return call_cli(["classify", req["path"], "--json"])

    def check(self, req, out):
        rc, text, err = out
        label = f"classify {Path(req['path']).name}"
        if rc != 0:
            return [cli_failure(label, rc, err)]
        problem = self._check_payload(req, json.loads(text))
        return [f"{label}: {problem}"] if problem else []

    def _check_payload(self, req, payload):
        missing = [k for k in CLASSIFY_KEYS if k not in payload]
        if missing:
            return f"missing keys {missing}"
        if (payload["dim"], payload["rank"]) != (req["dim"], req["rank"]):
            return f"dim/rank {payload['dim']}/{payload['rank']}"
        flags, norms, scale = payload["flags"], payload["norms"], payload["scale"]
        zero_tol = payload["tolerances"]["zero_tol"]
        if not chain_holds(flags) or not payload["hierarchy_consistent"]:
            return f"flags {flags} break SC=>OC=>PC=>WC"
        for flag, key in (("WC", "W"), ("PC", "P"), ("OC", "O"), ("SC", "S")):
            if flags[flag] != (norms[key] <= zero_tol * scale):
                return f"flag {flag} disagrees with norm {norms[key]}"
        m = req["m"]
        pairs = np.array(payload["qfim"]["entries"], dtype=float).reshape(m, m, 2)
        qfim, size = pairs[..., 0], max(1.0, np.abs(pairs).max())
        if np.abs(pairs[..., 1]).max() > 0 or np.abs(qfim - qfim.T).max() > 1e-12 * size:
            return "QFIM not real symmetric"
        if np.linalg.eigvalsh(qfim).min() < -1e-10 * size:
            return "QFIM not positive semidefinite"
        e = payload["E"]
        if e is None:
            if not payload["notices"]:
                return "E missing without a notice"
        elif not -E_SLACK <= e <= 1 + E_SLACK:
            return f"E={e} outside [0, 1]"
        w_norm, w_scale = self.expected[req["path"]]
        if abs(norms["W"] - w_norm) > W_TOL * w_scale:
            return f"norms.W {norms['W']!r} but weak_integral gives {w_norm!r}"
        return None


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

ROUTES_DIMS = range(3, 17)
ROUTES_D27_RANKS = (1, 2, 3, 4)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def routes_shapes():
    """Every (d, r) with 3 <= d <= 16 and 1 <= r <= d, plus d = 27 at r <= 4.

    m alternates between 2 and 3 by the parity of d + r, which puts 9/5/3 in
    the set. The order interleaves cheap and costly shapes (a golden-ratio
    sequence over the shapes ranked by d^6 r^2, the cost of the doubled-space
    routes), so any stretch of the schedule carries a similar cost mix.
    """
    shapes = [(d, r) for d in ROUTES_DIMS for r in range(1, d + 1)]
    shapes += [(27, r) for r in ROUTES_D27_RANKS]
    shapes = [(d, r, 3 if (d + r) % 2 == 0 else 2) for d, r in shapes]
    ranked = sorted(shapes, key=lambda s: (s[0] ** 6 * max(s[1], 2) ** 2, s))
    keyed = sorted(range(len(ranked)), key=lambda k: (k * GOLDEN) % 1.0)
    return [ranked[k] for k in keyed]


class Routes:
    """Every independent route on seeded random problems, called directly."""

    name = "routes"
    stream = 3

    def __init__(self, seed, workdir):
        self.rng = rng_for(seed, self.stream)
        self.warmup = self._problem(9, 5, 3)
        self.cycles = None

    def write_files(self):
        """Routes problems live in memory only."""

    def prepare(self):
        self.cycles = [[self._problem(d, r, m) for d, r, m in routes_shapes()]]

    def _problem(self, d, r, m):
        weights = spectrum(self.rng, r)
        vectors = haar_columns(self.rng, d, r)
        rho = mc_states.density_from_eigpairs(list(zip(weights, vectors.T)))
        hs = mc_encoding.hamiltonian_set([gaussian_hermitian(self.rng, d) for _ in range(m)])
        theta = self.rng.standard_normal(m)
        return {"key": f"{d}/{r}/{m}", "rho": rho, "hs": hs, "theta": theta}

    @staticmethod
    def ops(req):
        return 1

    @staticmethod
    def tag(req):
        return req["key"] if req["key"] == "9/5/3" else None

    @staticmethod
    def run(req):
        c = mc_conditions
        rho = req["rho"]
        spec = rho.spectrum
        pt = mc_encoding.encode(req["hs"], req["theta"])
        slds = mc_sld.sld_rotated(spec, pt)
        out = {
            "pt": pt,
            "direct": c.weak_direct(rho, slds),
            "integral": c.weak_integral(spec, pt),
            "decomposed": c.weak_decomposed(spec, pt),
            "series0": c.weak_series_truncation(spec, pt, 0),
            "series1": c.weak_series_truncation(spec, pt, 1),
            "operators": c.condition_operators_direct(spec, slds),
            "support_kernel": c.support_kernel_decomposition(spec, pt, check=True),
            "p": c.pc_trace_norm(rho, slds),
        }
        if spec.rank == 2:
            out["rank_two"] = c.weak_rank_two(spec, pt)
            out["ss_prime"] = c.rank_two_ss_prime(spec, pt)
            out["ks"] = c.rank_two_ks(spec, pt)
        return out

    def check(self, req, out):
        problem = self._check(out)
        return [f"routes {req['key']}: {problem}"] if problem else []

    @staticmethod
    def _check(out):
        tol = W_TOL * classifier_scale(out["pt"])
        w = out["direct"].entries
        gamma, delta, w_dec = (x.entries for x in out["decomposed"])
        for name, other in (("weak_integral", out["integral"].entries), ("weak_decomposed", w_dec)):
            dev = np.abs(w - other).max()
            if dev > tol:
                return f"{name} deviates from weak_direct by {dev:.3e}"
        for alpha in (0, 1):
            series = out[f"series{alpha}"].entries
            if not np.all(np.isfinite(series)) or np.abs(series + series.T).max() > tol:
                return f"weak_series_truncation alpha={alpha} is not a finite antisymmetric matrix"
        if "rank_two" in out:
            skd = out["support_kernel"]
            pairs = (
                ("weak_rank_two", out["rank_two"].entries, delta),
                ("rank_two_ss_prime", out["ss_prime"].entries, skd.i_ss_prime.entries),
                ("rank_two_ks", out["ks"].entries, skd.i_ks.entries),
            )
            for name, closed, term in pairs:
                dev = np.abs(np.asarray(closed) - np.asarray(term)).max()
                if dev > tol:
                    return f"{name} deviates from its decomposition term by {dev:.3e}"
        p = out["p"].entries
        blocks = out["operators"].P.entries
        zero = ZERO_TOL * classifier_scale(out["pt"])
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if (p[i, j] <= zero) != (np.linalg.norm(blocks[i][j]) <= zero):
                    return f"p_{i}{j}={p[i, j]:.3e} and P_{i}{j} disagree on zero"
        return None


WORKLOADS = {cls.name: cls for cls in (SweepSmall, ClassifyLarge, Routes)}

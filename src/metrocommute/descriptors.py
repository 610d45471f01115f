"""Problem descriptors: the JSON input format of the command-line surface.

A descriptor names a state (raw matrix, eigpair list, or a named family), a
Hamiltonian list (raw matrices or named families), an optional encoding point
theta, an optional weight matrix for the scalar precision bound, and optional
tolerance overrides. Matrices are encoded as {"dim": n, "entries": [[re, im],
...]} with entries row-major; vectors as lists of [re, im] pairs.

Parsing is strict and fails with a field-precise message; parse followed by
serialize is idempotent on the canonical form. Eigpair vectors and raw
matrices are parsed once, into the complex arrays the descriptor keeps;
`serialize_descriptor` writes them back as [re, im] lists.

A family's params hold exactly the names it reads: a state family's are
those its state half reads, and local_spin's are sites, site and axis.

`resolve_grid` materializes a descriptor at each value of one swept family
parameter, as stacked arrays (conditions.ProblemStack) with no object per
point. A problem is built in two halves, the state and the Hamiltonians,
each naming the parameters it reads (examples.Half). `resolve_halves`
resolves the descriptor at its own parameters and keeps every half it
built; `resolve` is its one-point case, and a sweep shares the halves its
parameter does not reach (for a descriptor family, always the Hamiltonians)
with every point. A state that a sweep moves is an eigpair state
(examples.EigpairHalf), so a point builds its weights and, only where the
parameter moves them, its vectors, and never a matrix. A batch of points
holds one shape (weight count, vectors and Hamiltonians); it ends before the
first point whose shapes differ, which starts the next batch. Its checks run
over the whole batch and name only the first failing point, whose message
is the one resolve gives for it.
"""

import json
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .conditions import ProblemStack, chunk_size
from .encoding import checked_theta, hamiltonian_checks, hamiltonian_set
from .examples import (
    EXAMPLE_IDS,
    EYE2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    EigpairHalf,
    Half,
    build_state,
    example_halves,
)
from .operator_core import ValidationError, tensor
from .states import (
    RANK_TOL,
    bell_diagonal,
    density_from_eigpairs,
    eigpair_weight_rows,
    white_noise_vectors,
    white_noise_weights,
    with_rank_tol,
)

DEFAULT_ZERO_TOL = 1e-8

HAMILTONIAN_FAMILIES = ("local_spin",)
_LOCAL_SPIN_KEYS = ("sites", "site", "axis")


@dataclass(eq=False)
class ProblemDescriptor:
    """Parsed, validated problem input; `resolve` yields the live objects."""

    state_spec: object
    hamiltonian_specs: object
    theta: object
    weight: object
    rank_tol: float
    zero_tol: float


def _fail(path, message):
    raise ValidationError(f"{path}: {message}")


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _complex_pair(value, path):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        _fail(path, f"expected an [re, im] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def _pairs_array(items, path):
    """Complex array of a list of [re, im] pairs, item i named path[i].

    A list of two-element lists of plain int and float converts in one numpy
    call; anything else (tuples, float subclasses, or a bad item) goes
    through _complex_pair item by item, which names the first bad item.
    """
    if (
        set(map(type, items)) == {list}
        and set(map(len, items)) == {2}
        and set(map(type, chain.from_iterable(items))) <= {int, float}
    ):
        return np.array(items, dtype=float).view(complex).reshape(-1)
    return np.array(
        [_complex_pair(v, f"{path}[{i}]") for i, v in enumerate(items)],
        dtype=complex,
    )


def vector_from_json(value, path):
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list of [re, im] pairs")
    return _pairs_array(value, path)


def matrix_from_json(value, path):
    if not isinstance(value, dict):
        _fail(path, f"expected a matrix object, got {type(value).__name__}")
    extra = set(value) - {"dim", "entries"}
    if extra:
        _fail(path, f"unknown keys {sorted(extra)}")
    if "dim" not in value or "entries" not in value:
        _fail(path, 'matrix object needs keys "dim" and "entries"')
    dim = value["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        _fail(f"{path}.dim", f"expected a positive integer, got {dim!r}")
    entries = value["entries"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        got = len(entries) if isinstance(entries, list) else type(entries).__name__
        _fail(f"{path}.entries", f"expected {dim * dim} [re, im] pairs, got {got}")
    return _pairs_array(entries, f"{path}.entries").reshape(dim, dim)


def matrix_to_json(arr):
    a = np.asarray(arr, dtype=complex)
    return {
        "dim": int(a.shape[0]),
        "entries": [
            [float(v.real), float(v.imag)] for v in a.reshape(-1)
        ],
    }


def vector_to_json(vec):
    return [[float(v.real), float(v.imag)] for v in np.asarray(vec, dtype=complex)]


def positive_finite(value, path):
    """A tolerance: a number that must be positive and finite."""
    value = _number(value, path)
    # written so that NaN fails too
    if not 0 < value < np.inf:
        _fail(path, "must be positive and finite")
    return value


def weight_from_json(value, path="weight_matrix"):
    """The real weight matrix of a JSON matrix object."""
    weight = matrix_from_json(value, path)
    if np.max(np.abs(weight.imag)) > 1e-12:
        _fail(path, "must be real")
    return weight.real


def _canonical_params(params, path, known):
    """params with their values checked; a key outside `known` fails (known
    None: any key, for an example, whose parameters example_halves checks)."""
    if not isinstance(params, dict):
        _fail(path, f"expected a params object, got {type(params).__name__}")
    extra = set() if known is None else set(params) - set(known)
    if extra:
        _fail(path, f"unknown keys {sorted(extra)}")
    out = {}
    for key in sorted(params):
        value = params[key]
        if isinstance(value, str) or isinstance(value, int) and not isinstance(
            value, bool
        ):
            out[key] = value
        elif isinstance(value, float):
            out[key] = float(value)
        elif isinstance(value, list):
            out[key] = value
        else:
            _fail(f"{path}.{key}", f"unsupported parameter value {value!r}")
    return out


def _parse_state_spec(value, path="state"):
    """Validate and canonicalize the state part without resolving it: an
    eigpair list keeps each vector as a complex array, a raw matrix becomes
    one, and a family stays a {"family", "params"} object."""
    if isinstance(value, list):
        pairs = []
        for i, item in enumerate(value):
            here = f"{path}[{i}]"
            if not isinstance(item, dict) or set(item) != {"weight", "vector"}:
                _fail(here, 'eigpair needs exactly the keys "weight" and "vector"')
            weight = _number(item["weight"], f"{here}.weight")
            vec = vector_from_json(item["vector"], f"{here}.vector")
            pairs.append({"weight": weight, "vector": vec})
        if not pairs:
            _fail(path, "eigpair list is empty")
        return pairs
    if isinstance(value, dict) and "family" in value:
        family, families = value["family"], [*_FAMILY_STATES, "example"]
        if family not in families:
            _fail(f"{path}.family", f"unknown family {family!r}; known: {families}")
        extra = set(value) - {"family", "params"}
        if extra:
            _fail(path, f"unknown keys {sorted(extra)}")
        known = None if family == "example" else _FAMILY_STATES[family].reads
        params = _canonical_params(value.get("params", {}), f"{path}.params", known)
        return {"family": family, "params": params}
    if isinstance(value, dict):
        return matrix_from_json(value, path)
    _fail(path, "expected a matrix object, an eigpair list, or a family object")


def _parse_hamiltonian_spec(value, path):
    if isinstance(value, dict) and "family" in value:
        family = value["family"]
        if family not in HAMILTONIAN_FAMILIES:
            _fail(
                f"{path}.family",
                f"unknown family {family!r}; known: {list(HAMILTONIAN_FAMILIES)}",
            )
        extra = set(value) - {"family", "params"}
        if extra:
            _fail(path, f"unknown keys {sorted(extra)}")
        params = _canonical_params(value.get("params", {}), f"{path}.params", _LOCAL_SPIN_KEYS)
        return {"family": family, "params": params}
    if isinstance(value, dict):
        return matrix_from_json(value, path)
    _fail(path, "expected a matrix object or a family object")


def _parse_fields(source):
    """parse_descriptor without the final resolve: every field checked and
    canonicalized, the state and Hamiltonians not yet materialized."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as err:
            raise ValidationError(
                f"malformed JSON: {err.msg} (line {err.lineno}, column {err.colno})"
            ) from err
    else:
        data = source
    if not isinstance(data, dict):
        _fail("descriptor", f"expected an object, got {type(data).__name__}")
    known = {
        "state",
        "hamiltonians",
        "theta",
        "weight_matrix",
        "tolerances",
    }
    extra = set(data) - known
    if extra:
        _fail("descriptor", f"unknown keys {sorted(extra)}")
    if "state" not in data:
        _fail("descriptor", 'missing required key "state"')
    state_spec = _parse_state_spec(data["state"])

    is_example = (
        isinstance(state_spec, dict) and state_spec.get("family") == "example"
    )
    ham_specs = None
    if "hamiltonians" in data and data["hamiltonians"] is not None:
        if is_example:
            _fail(
                "hamiltonians",
                'must be omitted when the state family is "example" '
                "(the example supplies its own)",
            )
        raw = data["hamiltonians"]
        if not isinstance(raw, list) or not raw:
            _fail("hamiltonians", "expected a non-empty list")
        ham_specs = [
            _parse_hamiltonian_spec(v, f"hamiltonians[{i}]")
            for i, v in enumerate(raw)
        ]
    elif not is_example:
        _fail("descriptor", 'missing required key "hamiltonians"')

    theta = None
    if data.get("theta") is not None:
        raw = data["theta"]
        if not isinstance(raw, list):
            _fail("theta", "expected a list of reals")
        theta = [_number(v, f"theta[{i}]") for i, v in enumerate(raw)]

    weight = None
    if data.get("weight_matrix") is not None:
        weight = weight_from_json(data["weight_matrix"])

    rank_tol, zero_tol = RANK_TOL, DEFAULT_ZERO_TOL
    if data.get("tolerances") is not None:
        tols = data["tolerances"]
        if not isinstance(tols, dict):
            _fail("tolerances", "expected an object")
        extra = set(tols) - {"rank_tol", "zero_tol"}
        if extra:
            _fail("tolerances", f"unknown keys {sorted(extra)}")
        if "rank_tol" in tols:
            rank_tol = positive_finite(tols["rank_tol"], "tolerances.rank_tol")
        if "zero_tol" in tols:
            zero_tol = positive_finite(tols["zero_tol"], "tolerances.zero_tol")

    return ProblemDescriptor(
        state_spec=state_spec,
        hamiltonian_specs=ham_specs,
        theta=theta,
        weight=weight,
        rank_tol=rank_tol,
        zero_tol=zero_tol,
    )


def parse_descriptor(source):
    """Parse a descriptor from JSON text or an already-decoded dict.

    Raises ValidationError with a field-precise path on any defect; malformed
    JSON is reported with line and column.
    """
    desc = _parse_fields(source)
    resolve(desc)  # full validation up front: every parse yields usable objects
    return desc


def _white_noise_psi(params):
    if "psi" not in params or "p" not in params:
        _fail("state.params", 'white_noise needs "psi" and "p"')
    return vector_from_json(params["psi"], "state.params.psi")


def _white_noise_weights(params):
    dim = _white_noise_psi(params).size
    return white_noise_weights(_number(params["p"], "state.params.p"), dim)


def _white_noise_vectors(params):
    return white_noise_vectors(_white_noise_psi(params))


def _bell_diagonal(params):
    if "weights" not in params or "d" not in params:
        _fail("state.params", 'bell_diagonal needs "weights" and "d"')
    d = params["d"]
    if isinstance(d, bool) or not isinstance(d, int):
        _fail("state.params.d", f"expected an integer, got {d!r}")
    weights = [
        _number(v, f"state.params.weights[{i}]")
        for i, v in enumerate(params["weights"])
    ]
    return bell_diagonal(weights, d).rho


def _pure(params):
    if "vector" not in params:
        _fail("state.params", 'pure needs "vector"')
    vec = vector_from_json(params["vector"], "state.params.vector")
    norm = np.linalg.norm(vec)
    if norm <= 0:
        _fail("state.params.vector", "zero vector")
    return density_from_eigpairs([(1.0, vec / norm)])


def _maximally_mixed(params):
    if "dim" not in params:
        _fail("state.params", 'maximally_mixed needs "dim"')
    dim = params["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
        _fail("state.params.dim", f"expected an integer >= 2, got {dim!r}")
    return np.eye(dim, dtype=complex) / dim


# state family -> its state half, which reads the family's own parameters
_FAMILY_STATES = {
    "white_noise": EigpairHalf(
        Half(("psi", "p"), _white_noise_weights), Half(("psi",), _white_noise_vectors)
    ),
    "bell_diagonal": Half(("weights", "d"), _bell_diagonal),
    "pure": Half(("vector",), _pure),
    "maximally_mixed": Half(("dim",), _maximally_mixed),
}


def _halves(desc):
    """(params, state half, Hamiltonian half) of a descriptor, as
    examples.example_halves gives them: params are the family
    parameters (the merged ones for an example, none for an eigpair list or
    a raw matrix). Only the example family brings its own Hamiltonians;
    Hamiltonian specs read no state parameter."""
    spec = desc.state_spec
    params = {}
    if isinstance(spec, list):
        pairs = [(item["weight"], item["vector"]) for item in spec]
        state = Half((), lambda p: density_from_eigpairs(pairs))
    elif isinstance(spec, np.ndarray):
        state = Half((), lambda p: spec)
    else:
        family, params = spec["family"], spec.get("params", {})
        if family == "example":
            if "id" not in params:
                _fail("state.params", 'example needs "id"')
            ex_id = params["id"]
            if ex_id not in EXAMPLE_IDS:
                _fail("state.params.id", f"unknown example id: {ex_id}")
            overrides = {k: v for k, v in params.items() if k != "id"}
            return example_halves(ex_id, overrides)
        state = _FAMILY_STATES[family]
    specs = desc.hamiltonian_specs

    def hamiltonians(p):
        return [_resolve_hamiltonian(s, f"hamiltonians[{i}]") for i, s in enumerate(specs)]

    return params, state, Half((), hamiltonians)


def _resolve_hamiltonian(spec, path):
    if isinstance(spec, np.ndarray):
        return spec
    family = spec["family"]
    params = spec.get("params", {})
    if family == "local_spin":
        for key in _LOCAL_SPIN_KEYS:
            if key not in params:
                _fail(f"{path}.params", f'local_spin needs "{key}"')
        sites, site = params["sites"], params["site"]
        for name, val in (("sites", sites), ("site", site)):
            if isinstance(val, bool) or not isinstance(val, int):
                _fail(f"{path}.params.{name}", f"expected an integer, got {val!r}")
        if not 0 <= site < sites:
            _fail(f"{path}.params.site", f"site {site} outside 0..{sites - 1}")
        axis = params["axis"]
        if not isinstance(axis, list) or len(axis) != 3:
            _fail(f"{path}.params.axis", "expected [x, y, z] components")
        ax = [_number(v, f"{path}.params.axis[{i}]") for i, v in enumerate(axis)]
        local = ax[0] * PAULI_X + ax[1] * PAULI_Y + ax[2] * PAULI_Z
        return tensor(*(local if k == site else EYE2 for k in range(sites)))
    _fail(f"{path}.family", f"unknown family {family!r}")


def _problem_error(desc, state_dim, ham_dim, m):
    """The message of the first of _problem's checks that a state of
    dimension state_dim and m Hamiltonians of dimension ham_dim fail, or
    None."""
    size = m if desc.theta is None else len(desc.theta)
    if size != m:
        return f"theta: expected {m} entries, got {size}"
    if state_dim != ham_dim:
        return (
            f"descriptor: state dimension {state_dim} does not match "
            f"Hamiltonian dimension {ham_dim}"
        )
    if desc.weight is not None and desc.weight.shape != (m, m):
        return f"weight_matrix: expected shape ({m}, {m}), got {desc.weight.shape}"
    return None


def _problem(desc, rho, hs):
    """resolve's (rho, hs, theta, weight) of one built state and Hamiltonian
    set: the state cut at the descriptor's rank_tol, whatever its family
    (states.with_rank_tol), and theta and the weight checked against hs."""
    rho = with_rank_tol(rho, desc.rank_tol)
    error = _problem_error(desc, rho.dim, hs.dim, hs.m)
    if error:
        raise ValidationError(error)
    theta = np.zeros(hs.m) if desc.theta is None else np.asarray(desc.theta, dtype=float)
    return rho, hs, theta, desc.weight


# resolve_halves' result: the descriptor's family parameters, its state and
# Hamiltonian halves, the EigpairVectors its state half built (None unless an
# eigpair half) and resolve's (rho, hs, theta, weight)
Halves = namedtuple("Halves", "params state hamiltonians vectors problem")


def resolve_halves(desc):
    """resolve(desc), keeping what it built for resolve_grid: each half of
    the problem is built once, at the descriptor's own parameters, and every
    check of resolve runs, with its messages."""
    params, state, hamiltonians = _halves(desc)
    rho, vectors = build_state(state, params)
    hs = hamiltonian_set(hamiltonians.build(params))
    return Halves(params, state, hamiltonians, vectors, _problem(desc, rho, hs))


def resolve(desc):
    """Materialize (DensityMatrix, HamiltonianSet, theta, weight) from a
    descriptor: the one-point case of its halves, each built once."""
    return resolve_halves(desc).problem


def _runs(keys):
    """(i, j) for each run keys[i:j] of equal keys."""
    cuts = [k for k in range(1, len(keys)) if keys[k] != keys[k - 1]]
    return list(zip([0, *cuts], [*cuts, len(keys)]))


class _Grid:
    """The points of a sweep of `name` over a descriptor, resolved a batch at
    a time as ProblemStacks.

    A half that reads `name` is built at each point; the others are those of
    `halves`, shared by every point through a leading axis of length 1. A
    state that reads `name` is an EigpairHalf (sweepable_parameters): a point
    builds its weights, and its vectors only when they read `name`. The raw
    values of a batch (weight rows and Hamiltonian lists) are built point by
    point, and every point of a batch has the shapes of its first: its
    weight count, vector shape and Hamiltonian shapes. Every check that
    resolve runs on a point runs as one array operation over the batch and
    gives the batch's first failing point, whose message is resolve's.
    """

    def __init__(self, desc, name, halves):
        self.desc, self.name, self.params = desc, name, halves.params
        state, hamiltonians = halves.state, halves.hamiltonians
        rho, self.hs, theta = halves.problem[:3]
        self.state_of = None
        if name in state.reads:
            moves_vectors = name in state.vectors.reads

            def state_of(p):
                weights = state.weights.build(p)
                return weights, state.vectors.build(p) if moves_vectors else halves.vectors

            self.state_of = state_of
        self.shared_state = (rho.spectrum.uncut[None], rho.spectrum.eigenvectors[None])
        self.hams_of = hamiltonians.build if name in hamiltonians.reads else None
        self.shared_hams = self.hs.stack[None]
        self.theta = theta[None]

    def batch(self, values):
        """(stacks, count): the ProblemStacks of the first `count` values, in
        order, count at most conditions.chunk_size(dim, m) for the dim and m
        of the first point, and ending before the first point whose shapes
        differ from the first point's. Raises the ValidationError of the
        first point that fails, prefixed with "grid value name=v: ", before
        any point of the batch is classified; then that of a non-finite
        theta, which classify checks after resolve."""
        points, failures, count = [], [], len(values)
        while len(points) < count:
            p = {**self.params, self.name: values[len(points)]}
            try:
                state = None if self.state_of is None else self.state_of(p)
                hams = None if self.hams_of is None else self.hams_of(p)
            except ValidationError:
                failures.append(len(points))
                break
            shape = (
                None if state is None else (len(state[0]), state[1].v.shape),
                None if hams is None else tuple(map(np.shape, hams)),
            )
            if not points:
                first = shape
                dim = self.shared_state[1].shape[-1] if state is None else state[1].v.shape[0]
                ham = self.shared_hams[0] if hams is None else hams
                count = min(count, chunk_size(dim, len(ham)))
                if _problem_error(self.desc, dim, np.shape(ham[0])[-1], len(ham)):
                    failures.append(0)
                    break
            elif shape != first:
                break
            points.append((state, hams))
        if points:
            vals, vecs = self._states([s for s, _ in points], failures)
            hams = self._hamiltonians([h for _, h in points], failures)
        if failures:
            self._fail(values[min(failures)])
        checked_theta(self.hs, self.theta[0])
        return list(self._stacks(len(points), vals, vecs, hams)), len(points)

    def _states(self, states, failures):
        """(vals, vecs) of the built points: uncut descending eigenvalues and
        eigenvectors, each with a leading axis of the batch's length or of 1
        (shared), up to the first failing point, which joins `failures`."""
        if self.state_of is None:
            return self.shared_state
        weights, failure = eigpair_weight_rows([w for w, _ in states])
        if failure:
            failures.append(failure[0])
            weights = weights[: failure[0]]
        size_error = states[0][1].size_error(weights.shape[1])
        if size_error:
            failures.append(0)
        if size_error or not len(weights):
            return None, None
        vals, vecs, k = _spectra([v for _, v in states], weights)
        if k is not None:
            failures.append(k)
        return vals, vecs

    def _hamiltonians(self, hams, failures):
        """The built points' Hamiltonians with a leading axis of the batch's
        length or of 1 (shared); the first failing point joins `failures`."""
        if self.hams_of is None:
            return self.shared_hams
        stack = np.array(hams, dtype=complex)
        failure = hamiltonian_checks(stack)
        if failure:
            failures.append(failure[0])
        return stack

    def _stacks(self, n, vals, vecs, hams):
        """The ProblemStacks of the batch's n checked points: runs of one
        rank, each state cut at the descriptor's rank_tol."""
        live = vals > self.desc.rank_tol
        lam = np.where(live, vals, 0.0)
        ranks = np.broadcast_to(np.count_nonzero(live, axis=1), (n,)).tolist()
        for a, b in _runs(ranks):
            yield ProblemStack(
                n=b - a,
                rank=ranks[a],
                lam=_rows(lam, a, b),
                vectors=_rows(vecs, a, b),
                hams=_rows(hams, a, b),
                theta=self.theta,
            )

    def _fail(self, value):
        """Raise what resolve raises for the point at `value`, prefixed with
        "grid value name=v: "; a point that resolve passes but a batch check
        failed is a fault of the batch checks (ArithmeticError)."""
        where = f"grid value {self.name}={value:g}"
        try:
            resolve(with_parameter(self.desc, self.name, value))
        except ValidationError as err:
            raise ValidationError(f"{where}: {err}") from None
        raise ArithmeticError(f"{where}: a batch check fails a point that resolve passes")


def _spectra(vectors, weights):
    """(vals, vecs, k): EigpairVectors.spectra of checked weight rows, row i
    on vectors[i], in one call when every row has the same vectors, and k
    the first row that fails, or None."""
    if all(v is vectors[0] for v in vectors):
        vals, vecs, failure = vectors[0].spectra(weights)
        return vals, vecs, failure and failure[0]
    vals, vecs, failures = zip(*(v.spectra(w[None]) for v, w in zip(vectors, weights)))
    k = next((k for k, failure in enumerate(failures) if failure), None)
    return np.concatenate(vals), np.concatenate(vecs), k


def _rows(arr, a, b):
    """Points a..b of a batch's array; an array of one row, shared or the
    batch's only point, as it is."""
    return arr if len(arr) == 1 else arr[a:b]


def resolve_grid(desc, name, values, halves):
    """Yield the problems of with_parameter(desc, name, v) for each v of
    values, in order, as conditions.ProblemStacks: runs of consecutive
    points of one dim, m and rank.

    `halves` is resolve_halves(desc), so the descriptor itself has been
    resolved first, with resolve's messages. The name is checked once,
    before any point. A half that does not read `name` is the one built by
    resolve_halves, shared by every point; an eigpair state whose vectors
    do not read it checks only its weights per point, and orthonormal
    vectors give one shared eigenvector array per descending-weight order.
    Points are resolved in batches of one shape, at most
    conditions.chunk_size(dim, m) at a time, dim and m those of a batch's
    first point, each check over a batch as one array operation; the first
    point that fails raises what resolve raises for it, prefixed with
    "grid value name=v: ", before any stack of its batch is yielded.
    """
    _check_sweepable(desc, name)
    grid = _Grid(desc, name, halves)
    done = 0
    while done < len(values):
        stacks, count = grid.batch(values[done:])
        yield from stacks
        done += count


def _spec_to_json(spec):
    """A state or Hamiltonian spec with its parsed arrays as [re, im] lists."""
    if isinstance(spec, np.ndarray):
        return matrix_to_json(spec)
    if isinstance(spec, list):
        return [
            {"weight": item["weight"], "vector": vector_to_json(item["vector"])}
            for item in spec
        ]
    return spec


def serialize_descriptor(desc):
    """Canonical JSON-ready dict; parse(serialize(.)) is the identity."""
    out = {"state": _spec_to_json(desc.state_spec)}
    if desc.hamiltonian_specs is not None:
        out["hamiltonians"] = [_spec_to_json(s) for s in desc.hamiltonian_specs]
    if desc.theta is not None:
        out["theta"] = [float(v) for v in desc.theta]
    if desc.weight is not None:
        out["weight_matrix"] = matrix_to_json(desc.weight)
    out["tolerances"] = {
        "rank_tol": float(desc.rank_tol),
        "zero_tol": float(desc.zero_tol),
    }
    return out


def sweepable_parameters(desc):
    """Names that cmd_sweep may vary, with their values: the numeric params
    of a family state (an example's merged with its defaults) that its
    Hamiltonian half reads, or its state half if that is an EigpairHalf."""
    if not isinstance(desc.state_spec, dict):
        return {}
    params, state, hamiltonians = _halves(desc)
    reads = set(hamiltonians.reads)
    if isinstance(state, EigpairHalf):
        reads |= set(state.reads)
    return {
        k: float(v)
        for k, v in params.items()
        if k in reads and isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def _check_sweepable(desc, name):
    """Raise unless `name` is a sweepable parameter of the descriptor."""
    spec = desc.state_spec
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValidationError(
            "state: sweeps need a family-based state (raw matrices and "
            "eigpair lists have no named parameters)"
        )
    known = sweepable_parameters(desc)
    if name not in known:
        raise ValidationError(
            f"unknown parameter {name!r} for family {spec['family']!r}; "
            f"valid names: {sorted(known)}"
        )


def with_parameter(desc, name, value):
    """A copy of the descriptor with one family parameter replaced."""
    _check_sweepable(desc, name)
    spec = desc.state_spec
    params = {**spec.get("params", {}), name: float(value)}
    return replace(desc, state_spec={"family": spec["family"], "params": params})

"""Problem descriptors: the JSON input format of the command-line surface.

A descriptor names a state (raw matrix, eigpair list, or a named family), a
Hamiltonian list (raw matrices or named families), an optional encoding point
theta, an optional weight matrix for the scalar precision bound, and optional
tolerance overrides. Matrices are encoded as {"dim": n, "entries": [[re, im],
...]} with entries row-major; vectors as lists of [re, im] pairs.

Parsing is strict (an object that repeats a key is malformed JSON) and fails
with a field-precise message; parse followed by
serialize is idempotent on the canonical form. Every field is checked and
converted once, at parse (_parse_fields), into the typed value the
descriptor keeps: an eigpair list becomes its weights and one (r, d) complex
array of its vectors, read in one pass (item by item, and as a list of
arrays, when an item is not plainly typed or the lengths differ); raw
matrices, white_noise's psi and pure's vector become complex arrays;
white_noise's p and bell_diagonal's weights floats; maximally_mixed's dim,
bell_diagonal's d and local_spin's sites and site ints; local_spin's axis
three finite floats. So resolve and every point of a sweep only build.
`serialize_descriptor` writes the arrays back as [re, im] lists. An
example's overrides are checked against its defaults where they are merged
(examples._merged_parameters).

A family's params hold exactly the names it reads: a state family's are
those its state half reads, and local_spin's are sites, site and axis. A
local_spin Hamiltonian resolves to its product form (encoding.LocalSpin),
of dimension 2^sites, at most 2^MAX_SITES = states.MAX_DIM. The
maximally_mixed and bell_diagonal states, and EX2, check their dimension
against MAX_DIM before they build anything.

`resolve_halves` decides a problem's shapes before it builds anything, in
this order: the Hamiltonian specs resolve (LocalSpins and parsed matrices,
nothing dense) and their one dimension is read from their shapes
(encoding.hamiltonian_dim); the state's dimension is read from its spec
(_state_dim: an eigpair vector's length, a raw matrix's size, a
white_noise or pure vector's length, maximally_mixed's dim or
bell_diagonal's d^2, each within its cap); the two dimensions are
compared; the problem's estimated classify cost, conditions.point_bytes
of that dimension and the number of Hamiltonians, is checked against
states.MAX_POINT_BYTES (conditions.check_point_bytes); only then is the
state built and the Hamiltonian set checked (encoding.hamiltonian_set),
and theta and the weight checked against the set's m (the weight's shape,
symmetry and definiteness in metrology._checked_weight alone). An example
brings its own Hamiltonians, of its state's dimension, and skips the
comparison; EX2, the one example whose dim is a parameter, checks the
estimate with its dim, before either half is built. A sweep cannot change
m, and EX2's dim moves both halves together, so the grid's batches check
only what a point builds, and a swept dim past the estimate fails at its
point with EX2's message.

A field whose value fails only when it is built names its path too: a
white_noise psi or a pure vector that is not finite or is zero
(state.params.psi, state.params.vector), the first such vector of an
eigpair list (state[k].vector), and a bell_diagonal d out of range
(state.params.d, checked at parse).

`resolve_grid` materializes a descriptor at each value of one swept family
parameter, as stacked arrays (conditions.ProblemStack) with no object per
point. A problem is built in two halves, the state and the Hamiltonians,
each naming the parameters it reads (examples.Half). `resolve_halves`
resolves the descriptor at its own parameters and keeps every half it
built; `resolve` is its one-point case, and a sweep shares the halves its
parameter does not reach (for a descriptor family, always the Hamiltonians)
with every point. A state that a sweep moves is an eigpair state
(examples.EigpairHalf), and never a matrix. Where the parameter leaves the
vectors fixed, a batch builds each half the parameter moves in one call, on
the batch's values as one array; where it moves them, each point builds its
weights, vectors and Hamiltonians, and a batch of points holds one shape
(weight count, vectors and Hamiltonians), ending before the first point
whose shapes differ, which starts the next batch. Its checks run over the
whole batch; when one fails, or a batch build does, the first failing point
is named with the message that resolve gives for it.
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .conditions import ZERO_TOL, ProblemStack, check_point_bytes, chunk_size
from .encoding import LocalSpin, checked_theta, hamiltonian_checks, hamiltonian_dim, hamiltonian_set
from .examples import (
    EXAMPLE_IDS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    EigpairHalf,
    Half,
    build_state,
    example_halves,
)
from .metrology import _checked_weight
from .operator_core import ValidationError, as_square_matrix
from .states import (
    MAX_DIM,
    RANK_TOL,
    Eigpairs,
    EigpairVectors,
    bell_diagonal,
    bell_dim,
    density_from_eigpairs,
    eigpair_weight_rows,
    white_noise_vectors,
    white_noise_weights,
    with_rank_tol,
)

_LOCAL_SPIN_KEYS = ("sites", "site", "axis")
# the largest local_spin register, of dimension 2^MAX_SITES = MAX_DIM;
# checked before 2^sites is formed
MAX_SITES = MAX_DIM.bit_length() - 1


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


def _only(keys, path, known):
    """Fail on a key of `keys` outside `known`."""
    extra = set(keys) - set(known)
    if extra:
        _fail(path, f"unknown keys {sorted(extra)}")


def _unique_keys(pairs):
    """The dict of one JSON object's (key, value) pairs; a repeated key
    fails, where json would keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(f"malformed JSON: duplicate key {json.dumps(key)}")
            seen.add(key)
    return obj


def load_json(text):
    """The JSON value of text; malformed JSON, including an integer literal
    past Python's digit limit and an object with a repeated key, raises
    ValidationError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValidationError:
        raise
    except json.JSONDecodeError as err:
        raise ValidationError(
            f"malformed JSON: {err.msg} (line {err.lineno}, column {err.colno})"
        ) from err
    except ValueError as err:  # int() of a literal past sys.get_int_max_str_digits()
        raise ValidationError(f"malformed JSON: {str(err).split(':')[0]}") from err


def _number(value, path):
    """A JSON number as a float; an integer too large for a float fails."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        _fail(path, "expected a finite number, got an integer too large for a float")


def _complex_pair(value, path):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        _fail(path, f"expected an [re, im] pair, got {value!r}")
    return complex(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


def _plain_pairs(items):
    """Complex array of a list of two-element lists of plain int and float,
    converted in one numpy call, or None for any other list (tuples, float
    subclasses, a bad item, or an integer too large for a float)."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    # one flat list, scanned for types and converted, is faster than two
    # passes of a chain
    nums = list(chain.from_iterable(items))
    if not set(map(type, nums)) <= {int, float}:
        return None
    try:
        return np.fromiter(nums, float, len(nums)).view(complex)
    except OverflowError:
        return None


def _pairs_array(items, path):
    """Complex array of a list of [re, im] pairs, item i named path[i]: in
    one numpy call (_plain_pairs), or else through _complex_pair item by
    item, which names the first bad item."""
    out = _plain_pairs(items)
    if out is not None:
        return out
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
    _only(value, path, {"dim", "entries"})
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
    """The real weight matrix of a JSON matrix object, its entries finite.
    Its shape, symmetry and definiteness are checked against the problem
    where it is read (metrology._checked_weight, which qcr_scalar also
    runs)."""
    weight = as_square_matrix(matrix_from_json(value, path), path)
    if np.max(np.abs(weight.imag)) > 1e-12:
        _fail(path, "must be real")
    return weight.real


def _integer(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _numbers(value, path):
    """A non-empty list of numbers, as floats."""
    if not isinstance(value, list) or not value:
        _fail(path, f"expected a non-empty list of numbers, got {value!r}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _bell_d(value, path):
    """bell_diagonal's d as an int, in the range states.bell_dim admits."""
    d = _integer(value, path)
    _named(path, bell_dim, d)
    return d


def _mixed_dim(value, path):
    if isinstance(value, bool) or not isinstance(value, int) or value < 2:
        _fail(path, f"expected an integer >= 2, got {value!r}")
    if value > MAX_DIM:
        _fail(path, f"expected at most {MAX_DIM}, got {value}")
    return value


def _fields(family, fields):
    """The params parser of a state family whose params are exactly the
    names of `fields`, each required and typed, in the order listed, by
    fields[name](value, path)."""

    def parse(params, path):
        _only(params, path, fields)
        if not params.keys() >= fields.keys():
            _fail(path, f"{family} needs " + " and ".join(f'"{k}"' for k in fields))
        return {k: read(params[k], f"{path}.{k}") for k, read in fields.items()}

    return parse


def _local_spin_params(params, path):
    """local_spin's sites and site as ints, the register at most MAX_SITES
    qubits and the site on it, and its axis as three finite floats."""
    _only(params, path, _LOCAL_SPIN_KEYS)
    for key in _LOCAL_SPIN_KEYS:
        if key not in params:
            _fail(path, f'local_spin needs "{key}"')
    sites, site = (_integer(params[k], f"{path}.{k}") for k in ("sites", "site"))
    if sites > MAX_SITES:
        _fail(f"{path}.sites", f"expected at most {MAX_SITES} sites, got {sites}")
    if not 0 <= site < sites:
        _fail(f"{path}.site", f"site {site} outside 0..{sites - 1}")
    axis = params["axis"]
    if not isinstance(axis, list) or len(axis) != 3:
        _fail(f"{path}.axis", "expected [x, y, z] components")
    axis = [_number(v, f"{path}.axis[{i}]") for i, v in enumerate(axis)]
    for i, v in enumerate(axis):
        if not math.isfinite(v):
            _fail(f"{path}.axis[{i}]", f"expected a finite number, got {v!r}")
    return {"sites": sites, "site": site, "axis": axis}


# state family -> the parser of its params; an example's are checked where
# they are merged with its defaults (examples._merged_parameters)
_STATE_PARAMS = {
    "white_noise": _fields("white_noise", {"psi": vector_from_json, "p": _number}),
    "bell_diagonal": _fields("bell_diagonal", {"weights": _numbers, "d": _bell_d}),
    "pure": _fields("pure", {"vector": vector_from_json}),
    "maximally_mixed": _fields("maximally_mixed", {"dim": _mixed_dim}),
    "example": lambda params, path: dict(params),
}


def _family_spec(value, path, parsers):
    """A family object as {"family", "params"}, its params typed by the
    family's parser, parsers[family](params, path)."""
    family, known = value["family"], list(parsers)
    if family not in known:
        _fail(f"{path}.family", f"unknown family {family!r}; known: {known}")
    _only(value, path, {"family", "params"})
    params = value.get("params", {})
    if not isinstance(params, dict):
        _fail(f"{path}.params", f"expected a params object, got {type(params).__name__}")
    return {"family": family, "params": parsers[family](params, f"{path}.params")}


def _plain_eigpairs(value):
    """The states.Eigpairs of a non-empty eigpair list in one pass, its
    weights as floats and its vectors one (r, d) complex array, or None:
    every item an object of exactly "weight" and "vector", every weight a
    plain int or float, and the vectors non-empty lists of one length whose
    pairs _plain_pairs converts, all of them in one call."""
    keys = {"weight", "vector"}
    if set(map(type, value)) != {dict} or any(item.keys() != keys for item in value):
        return None
    weights = [item["weight"] for item in value]
    vectors = [item["vector"] for item in value]
    if not set(map(type, weights)) <= {int, float} or set(map(type, vectors)) != {list}:
        return None
    sizes = set(map(len, vectors))
    if len(sizes) > 1 or 0 in sizes:
        return None
    flat = _plain_pairs(list(chain.from_iterable(vectors)))
    if flat is None:
        return None
    try:
        return Eigpairs([float(w) for w in weights], flat.reshape(len(value), -1))
    except OverflowError:
        return None


def _parse_state_spec(value, path="state"):
    """Validate and type the state part without resolving it: an eigpair
    list becomes its Eigpairs, in one pass when _plain_eigpairs takes it and
    otherwise item by item, which names the first bad field; a raw matrix
    becomes a complex array, and a family a {"family", "params"} object of
    typed params."""
    if isinstance(value, list):
        if not value:
            _fail(path, "eigpair list is empty")
        pairs = _plain_eigpairs(value)
        if pairs is not None:
            return pairs
        weights, vectors = [], []
        for i, item in enumerate(value):
            here = f"{path}[{i}]"
            if not isinstance(item, dict) or set(item) != {"weight", "vector"}:
                _fail(here, 'eigpair needs exactly the keys "weight" and "vector"')
            weights.append(_number(item["weight"], f"{here}.weight"))
            vectors.append(vector_from_json(item["vector"], f"{here}.vector"))
        return Eigpairs(weights, vectors)
    if isinstance(value, dict) and "family" in value:
        return _family_spec(value, path, _STATE_PARAMS)
    if isinstance(value, dict):
        return matrix_from_json(value, path)
    _fail(path, "expected a matrix object, an eigpair list, or a family object")


def _parse_hamiltonian_spec(value, path):
    if isinstance(value, dict) and "family" in value:
        return _family_spec(value, path, {"local_spin": _local_spin_params})
    if isinstance(value, dict):
        return matrix_from_json(value, path)
    _fail(path, "expected a matrix object or a family object")


def _parse_fields(source):
    """parse_descriptor without the final resolve: every field checked and
    typed, once, the state and Hamiltonians not yet built."""
    data = load_json(source) if isinstance(source, str) else source
    if not isinstance(data, dict):
        _fail("descriptor", f"expected an object, got {type(data).__name__}")
    _only(data, "descriptor", {"state", "hamiltonians", "theta", "weight_matrix", "tolerances"})
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

    rank_tol, zero_tol = RANK_TOL, ZERO_TOL
    if data.get("tolerances") is not None:
        tols = data["tolerances"]
        if not isinstance(tols, dict):
            _fail("tolerances", "expected an object")
        _only(tols, "tolerances", {"rank_tol", "zero_tol"})
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


def _named(path, build, *args):
    """build(*args), a ValidationError it raises prefixed with the path of
    the field it was built from."""
    try:
        return build(*args)
    except ValidationError as err:
        _fail(path, str(err))


def _pure(params):
    return _named("state.params.vector", density_from_eigpairs, [(1.0, params["vector"])])


def _eigpair_state(pairs):
    """The state of a parsed eigpair list, its Eigpairs; when it fails on a
    vector, the first vector that fails alone is named as state[k].vector."""
    try:
        return density_from_eigpairs(pairs)
    except ValidationError:
        for k, vec in enumerate(pairs.vectors):
            _named(f"state[{k}].vector", EigpairVectors, [vec])
        raise


# state family -> its state half, which reads the family's own parameters,
# as _STATE_PARAMS typed them
_FAMILY_STATES = {
    "white_noise": EigpairHalf(
        Half(("psi", "p"), lambda p: white_noise_weights(p["p"], p["psi"].size)),
        Half(("psi",), lambda p: _named("state.params.psi", white_noise_vectors, p["psi"])),
    ),
    "bell_diagonal": Half(("weights", "d"), lambda p: bell_diagonal(p["weights"], p["d"]).rho),
    "pure": Half(("vector",), _pure),
    "maximally_mixed": Half(("dim",), lambda p: np.eye(p["dim"], dtype=complex) / p["dim"]),
}


def _local_spin(params):
    """The LocalSpin of a local_spin spec's typed params."""
    x, y, z = params["axis"]
    return LocalSpin(params["sites"], params["site"], x * PAULI_X + y * PAULI_Y + z * PAULI_Z)


def _halves(desc):
    """(params, state half, Hamiltonian half) of a descriptor, as
    examples.example_halves gives them: params are the family
    parameters (the merged ones for an example, none for an eigpair list or
    a raw matrix). Only the example family brings its own Hamiltonians;
    Hamiltonian specs read no state parameter, so they resolve here, once,
    to LocalSpins and their parsed matrices, with nothing dense built."""
    spec = desc.state_spec
    params = {}
    if isinstance(spec, Eigpairs):
        state = Half((), lambda p: _eigpair_state(spec))
    elif isinstance(spec, np.ndarray):
        state = Half((), lambda p: spec)
    else:
        family, params = spec["family"], spec["params"]
        if family == "example":
            if "id" not in params:
                _fail("state.params", 'example needs "id"')
            ex_id = params["id"]
            if ex_id not in EXAMPLE_IDS:
                _fail("state.params.id", f"unknown example id: {ex_id}")
            overrides = {k: v for k, v in params.items() if k != "id"}
            return example_halves(ex_id, overrides)
        state = _FAMILY_STATES[family]
    hams = [_local_spin(s["params"]) if isinstance(s, dict) else s for s in desc.hamiltonian_specs]
    return params, state, Half((), lambda p: hams)


def _state_dim(spec):
    """The dimension of a state spec other than an example's, read from the
    spec without building the state: an eigpair vector's length, a raw
    matrix's size, a white_noise or pure vector's length, a maximally_mixed
    dim or a bell_diagonal d^2, each within its cap (checked at parse)."""
    if not isinstance(spec, dict):  # a raw matrix or an eigpair list
        return len(spec) if isinstance(spec, np.ndarray) else spec.vectors[0].size
    family, params = spec["family"], spec["params"]
    if family == "maximally_mixed":
        return params["dim"]
    if family == "bell_diagonal":
        return params["d"] ** 2
    return params["psi" if family == "white_noise" else "vector"].size


def _problem(desc, rho, hs):
    """resolve's (rho, hs, theta, weight) of one built state and Hamiltonian
    set: the state cut at the descriptor's rank_tol, whatever its family
    (states.with_rank_tol), and theta's length and the weight checked
    against hs.m (metrology._checked_weight)."""
    rho = with_rank_tol(rho, desc.rank_tol)
    theta = np.zeros(hs.m) if desc.theta is None else np.asarray(desc.theta, dtype=float)
    if theta.size != hs.m:
        _fail("theta", f"expected {hs.m} entries, got {theta.size}")
    weight = None if desc.weight is None else _checked_weight(desc.weight, hs.m, "weight_matrix")
    return rho, hs, theta, weight


# resolve_halves' result: the descriptor's family parameters, its state and
# Hamiltonian halves, the EigpairVectors its state half built (None unless an
# eigpair half) and resolve's (rho, hs, theta, weight)
Halves = namedtuple("Halves", "params state hamiltonians vectors problem")


def resolve_halves(desc):
    """resolve(desc), keeping what it built for resolve_grid: each half of
    the problem is built once, at the descriptor's own parameters, and every
    check of resolve runs, with its messages.

    The shapes are decided before anything is built: the Hamiltonian specs
    resolve (_halves; LocalSpins and parsed matrices, nothing dense), their
    one dimension is read from their shapes (encoding.hamiltonian_dim), the
    state's dimension, read from its spec (_state_dim), must be that one,
    and the estimate of what the problem adds to a classify must be within
    MAX_POINT_BYTES (conditions.check_point_bytes). Only then is the state
    built and the Hamiltonian set checked. An example brings its own
    Hamiltonians and skips the comparison (EX2 checks its estimate itself)."""
    params, state, hamiltonians = _halves(desc)
    if desc.hamiltonian_specs is not None:
        hams = hamiltonians.build(params)
        dims = _state_dim(desc.state_spec), hamiltonian_dim(hams)
        if dims[0] != dims[1]:
            _fail("descriptor", "state dimension %s does not match Hamiltonian dimension %s" % dims)
        check_point_bytes(dims[1], len(hams))
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

    A half that reads `name` is built for each batch; the others are those
    of `halves`, shared by every point through a leading axis of length 1
    (a product-form Hamiltonian set is shared whole). A state that reads
    `name` is an EigpairHalf (sweepable_parameters). Where its vectors do
    not read `name`, each moving half is built once per batch, on the
    batch's values as one array (examples.Half), and every point has the
    descriptor's shapes. Where they do (EX2's dim and seed, EX3 and EX7's
    alpha), a point builds its weights, vectors and Hamiltonians on its
    own, and a batch ends before the first point whose weight count, vector
    shape or Hamiltonian shapes differ from its first point's. Every check
    of what a batch built runs as one array operation over the batch. When
    a build or a check fails, the batch's values are resolved one by one,
    in order, up to the first flagged point, and the first that fails
    raises resolve's message for it. theta, m and the weight are the
    descriptor's, which a sweep cannot change, and a point's state and
    Hamiltonians share their dimension (a descriptor family's never moves;
    EX2's dim moves both), so resolve_halves checked those once.
    """

    def __init__(self, desc, name, halves):
        self.desc, self.name, self.params = desc, name, halves.params
        state, hamiltonians = halves.state, halves.hamiltonians
        rho, self.hs, self.theta = halves.problem[:3]
        self.dim, self.vectors = rho.dim, halves.vectors
        moves_state = name in state.reads
        self.weights_of = state.weights.build if moves_state else None
        self.vectors_of = state.vectors.build if moves_state and name in state.vectors.reads else None
        self.shared_state = (rho.spectrum.uncut[None], rho.spectrum.eigenvectors[None])
        self.hams_of = hamiltonians.build if name in hamiltonians.reads else None
        self.shared_hams = self.hs.batch

    def batch(self, values):
        """(stacks, count): the ProblemStacks of the first `count` values, in
        order, count at most conditions.chunk_size(dim, m) for the dim and m
        of the first point, and, where the vectors move, ending before the
        first point whose shapes differ from the first point's. Raises the
        ValidationError of the first point that fails, prefixed with
        "grid value name=v: ", before any point of the batch is classified;
        then that of a non-finite theta, which classify checks after
        resolve."""
        if self.vectors_of is None:
            count = min(len(values), chunk_size(self.dim, self.hs.m))
            p = {**self.params, self.name: np.array(values[:count], dtype=float)}
            try:
                weights = None if self.weights_of is None else self.weights_of(p)
                hams = None if self.hams_of is None else self.hams_of(p)
            except ValidationError:
                self._fail(values[:count])
            vectors = self.vectors
        else:
            weights, vectors, hams = self._points(values)
            count = len(vectors)
        flagged = []
        if weights is None:
            vals, vecs = self.shared_state
        else:
            vals, vecs = self._states(weights, vectors, flagged)
        if hams is None:
            hams = self.shared_hams
        else:
            hams = np.asarray(hams, dtype=complex)
            failure = hamiltonian_checks(hams)
            if failure:
                flagged.append(failure[0])
        if flagged:
            self._fail(values[: min(flagged) + 1])
        checked_theta(self.hs, self.theta)
        return list(self._stacks(count, vals, vecs, hams)), count

    def _points(self, values):
        """(weight rows, vectors, Hamiltonian lists) of the points of a sweep
        that moves the vectors, each point built on its own: as many as
        chunk_size admits for the first point's dim, up to the first point
        whose shapes differ from the first point's. A point that fails to
        build fails the batch there."""
        rows, vectors, hams = [], [], []
        count = len(values)
        while len(vectors) < count:
            p = {**self.params, self.name: values[len(vectors)]}
            try:
                w, v = self.weights_of(p), self.vectors_of(p)
                h = None if self.hams_of is None else self.hams_of(p)
            except ValidationError:
                self._fail(values[: len(vectors) + 1])
            shape = len(w), v.v.shape, None if h is None else tuple(map(np.shape, h))
            if not vectors:
                first = shape
                count = min(count, chunk_size(v.v.shape[0], self.hs.m))
            elif shape != first:
                break
            rows.append(w)
            vectors.append(v)
            hams.append(h)
        return rows, vectors, None if self.hams_of is None else hams

    def _states(self, weights, vectors, flagged):
        """(vals, vecs) of a batch's weight rows on its vectors, one
        states.EigpairVectors for every point or one per point: uncut
        descending eigenvalues and eigenvectors, with a leading axis of the
        batch's length or of 1 (shared), up to the first failing point,
        which joins `flagged`. The vectors were checked when built, so a
        point can fail only on its weights: their values, their count, or a
        largest eigenvalue at or below the descriptor's rank_tol, which
        leaves no support."""
        rows, failure = eigpair_weight_rows(weights)
        if failure:
            flagged.append(failure[0])
            rows = rows[: failure[0]]
        shared = not isinstance(vectors, list)
        if (vectors if shared else vectors[0]).size_error(rows.shape[1]):
            flagged.append(0)
            return None, None
        if not len(rows):
            return None, None
        if shared:
            vals, vecs = vectors.spectra(rows)
        else:
            vals, vecs = zip(*(v.spectra(w[None]) for v, w in zip(vectors, rows)))
            vals, vecs = np.concatenate(vals), np.concatenate(vecs)
        empty = ~(vals[:, 0] > self.desc.rank_tol)
        if empty.any():
            flagged.append(int(np.argmax(empty)))
        return vals, vecs

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
                hams=hams if self.hams_of is None else _rows(hams, a, b),
                theta=self.theta,
            )

    def _fail(self, values):
        """Raise what resolve raises for the first of `values` that it fails,
        prefixed with "grid value name=v: ". When it fails none of them, a
        batch build or check failed points that resolve passes, a fault of
        the batch (ArithmeticError, naming the last value)."""
        for value in values:
            where = f"grid value {self.name}={value:g}"
            try:
                resolve(with_parameter(self.desc, self.name, value))
            except ValidationError as err:
                raise ValidationError(f"{where}: {err}") from None
        raise ArithmeticError(f"{where}: a batch check fails a point that resolve passes")


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
    if isinstance(spec, Eigpairs):
        return [
            {"weight": w, "vector": vector_to_json(v)} for w, v in zip(spec.weights, spec.vectors)
        ]
    params = spec["params"].items()
    params = {k: vector_to_json(v) if isinstance(v, np.ndarray) else v for k, v in params}
    return {"family": spec["family"], "params": params}


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
    if not isinstance(spec, dict):
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
    params = {**spec["params"], name: float(value)}
    return replace(desc, state_spec={"family": spec["family"], "params": params})

"""Descriptor JSON parsing: strictness, field-precise errors, canonical
serialization, and sweep parameter plumbing."""

import json

import numpy as np
import pytest

from metrocommute import conditions, descriptors
from metrocommute.descriptors import (
    _complex_pair,
    matrix_from_json,
    matrix_to_json,
    parse_descriptor,
    resolve,
    resolve_grid,
    serialize_descriptor,
    sweepable_parameters,
    vector_from_json,
    with_parameter,
)
from metrocommute.examples import EigpairHalf, Half
from metrocommute.operator_core import ValidationError

SZ_JSON = {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [-1, 0]]}
SX_JSON = {"dim": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}
MIXED = {"state": {"family": "maximally_mixed", "params": {"dim": 2}}}


def _desc(**over):
    data = {**MIXED, "hamiltonians": [SZ_JSON, SX_JSON]}
    data.update(over)
    return data


def test_parse_resolve_basic():
    desc = parse_descriptor(json.dumps(_desc()))
    rho, hs, theta, weight = resolve(desc)
    assert rho.dim == 2
    assert hs.m == 2
    assert np.array_equal(theta, np.zeros(2))
    assert weight is None


def test_malformed_json_reports_position():
    with pytest.raises(ValidationError, match=r"malformed JSON: .* \(line 1, column"):
        parse_descriptor("{not json")


def test_unknown_top_level_key():
    with pytest.raises(ValidationError, match="descriptor: unknown keys \\['stat'\\]"):
        parse_descriptor(json.dumps({"stat": {}}))


def test_missing_state_and_hamiltonians():
    with pytest.raises(ValidationError, match='missing required key "state"'):
        parse_descriptor(json.dumps({"hamiltonians": [SZ_JSON]}))
    with pytest.raises(ValidationError, match='missing required key "hamiltonians"'):
        parse_descriptor(json.dumps(MIXED))


def test_example_family_forbids_hamiltonians():
    data = {
        "state": {"family": "example", "params": {"id": "EX4"}},
        "hamiltonians": [SZ_JSON],
    }
    with pytest.raises(ValidationError, match="must be omitted"):
        parse_descriptor(json.dumps(data))


def test_example_family_resolves_with_overrides():
    data = {"state": {"family": "example", "params": {"id": "EX4", "p": 0.3}}}
    rho, hs, theta, _ = resolve(parse_descriptor(json.dumps(data)))
    assert rho.dim == 4
    assert hs.m == 2


def test_unknown_example_id_in_descriptor():
    data = {"state": {"family": "example", "params": {"id": "EX0"}}}
    with pytest.raises(ValidationError, match="unknown example id"):
        parse_descriptor(json.dumps(data))


def test_matrix_json_errors():
    with pytest.raises(ValidationError, match="state.entries: expected 4"):
        parse_descriptor(json.dumps(_desc(state={"dim": 2, "entries": [[1, 0]]})))
    with pytest.raises(ValidationError, match=r"state.entries\[1\]"):
        matrix_from_json({"dim": 2, "entries": [[1, 0], "x", [0, 0], [1, 0]]}, "state")
    with pytest.raises(ValidationError, match="state.dim"):
        matrix_from_json({"dim": 0, "entries": []}, "state")
    with pytest.raises(ValidationError, match="unknown keys"):
        matrix_from_json({"dim": 1, "entries": [[1, 0]], "extra": 1}, "state")


def test_matrix_json_round_trip():
    rng = np.random.default_rng(60)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = matrix_from_json(matrix_to_json(a), "x")
    assert np.allclose(back, a, atol=0)


def test_vector_from_json_errors():
    with pytest.raises(ValidationError, match="non-empty list"):
        vector_from_json([], "v")
    with pytest.raises(ValidationError, match=r"v\[0\]"):
        vector_from_json([[1]], "v")


def test_eigpair_state_form():
    data = {
        "state": [
            {"weight": 0.75, "vector": [[1, 0], [0, 0]]},
            {"weight": 0.25, "vector": [[0, 0], [1, 0]]},
        ],
        "hamiltonians": [SX_JSON],
    }
    rho, _, _, _ = resolve(parse_descriptor(json.dumps(data)))
    assert np.allclose(rho.matrix, np.diag([0.75, 0.25]))
    bad = dict(data)
    bad["state"] = [{"weight": 0.5}]
    with pytest.raises(ValidationError, match="exactly the keys"):
        parse_descriptor(json.dumps(bad))


def test_white_noise_and_pure_families():
    data = {
        "state": {
            "family": "white_noise",
            "params": {"p": 0.6, "psi": [[1, 0], [0, 0]]},
        },
        "hamiltonians": [SZ_JSON],
    }
    rho, _, _, _ = resolve(parse_descriptor(json.dumps(data)))
    assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(
        (0.6 + 0.4 / 2) ** 2 + (0.4 / 2) ** 2
    )
    data = {
        "state": {"family": "pure", "params": {"vector": [[3, 0], [4, 0]]}},
        "hamiltonians": [SZ_JSON],
    }
    rho, _, _, _ = resolve(parse_descriptor(json.dumps(data)))
    assert rho.spectrum.rank == 1
    assert rho.matrix[0, 0].real == pytest.approx(9 / 25)


def test_bell_diagonal_family():
    data = {
        "state": {"family": "bell_diagonal", "params": {"weights": [0.5, 0.5], "d": 2}},
        "hamiltonians": [matrix_to_json(np.kron(np.diag([1.0, -1.0]), np.eye(2)))],
    }
    rho, hs, _, _ = resolve(parse_descriptor(json.dumps(data)))
    assert rho.dim == 4
    assert hs.dim == 4


def test_local_spin_family():
    data = {
        "state": MIXED["state"],
        "hamiltonians": [
            {
                "family": "local_spin",
                "params": {"sites": 1, "site": 0, "axis": [0.0, 0.0, 1.0]},
            }
        ],
    }
    _, hs, _, _ = resolve(parse_descriptor(json.dumps(data)))
    assert np.allclose(hs.hams[0], np.diag([1.0, -1.0]))
    bad = json.loads(json.dumps(data))
    bad["hamiltonians"][0]["params"]["site"] = 3
    with pytest.raises(ValidationError, match="site 3 outside"):
        parse_descriptor(json.dumps(bad))


def test_theta_and_weight_validation():
    with pytest.raises(ValidationError, match="theta: expected 2 entries"):
        parse_descriptor(json.dumps(_desc(theta=[0.1])))
    with pytest.raises(ValidationError, match="weight_matrix: expected shape"):
        parse_descriptor(
            json.dumps(_desc(weight_matrix={"dim": 3, "entries": [[1, 0]] * 9}))
        )
    with pytest.raises(ValidationError, match="must be real"):
        parse_descriptor(
            json.dumps(
                _desc(
                    weight_matrix={
                        "dim": 2,
                        "entries": [[1, 0], [0, 1], [0, -1], [1, 0]],
                    }
                )
            )
        )


def test_tolerances_parse_and_validate():
    desc = parse_descriptor(
        json.dumps(_desc(tolerances={"rank_tol": 1e-9, "zero_tol": 1e-7}))
    )
    assert desc.rank_tol == 1e-9
    assert desc.zero_tol == 1e-7
    with pytest.raises(ValidationError, match="tolerances.rank_tol: must be positive"):
        parse_descriptor(json.dumps(_desc(tolerances={"rank_tol": -1.0})))
    with pytest.raises(ValidationError, match="tolerances: unknown keys"):
        parse_descriptor(json.dumps(_desc(tolerances={"foo": 1.0})))
    # json.loads reads NaN and Infinity; a NaN zero_tol would clear every flag
    for key in ("rank_tol", "zero_tol"):
        for bad in ("NaN", "Infinity"):
            text = json.dumps(_desc(tolerances={key: 12345.5})).replace("12345.5", bad)
            message = f"tolerances.{key}: must be positive and finite"
            with pytest.raises(ValidationError, match=message):
                parse_descriptor(text)


def test_serialize_round_trip_idempotent():
    texts = [
        json.dumps(_desc(theta=[0.2, -0.3], tolerances={"zero_tol": 1e-7})),
        json.dumps({"state": {"family": "example", "params": {"id": "EX7"}}}),
        json.dumps(
            {
                "state": [
                    {"weight": 0.8, "vector": [[1, 0], [0, 0]]},
                    {"weight": 0.2, "vector": [[0, 0], [1, 0]]},
                ],
                "hamiltonians": [SX_JSON],
            }
        ),
    ]
    for text in texts:
        once = serialize_descriptor(parse_descriptor(text))
        twice = serialize_descriptor(parse_descriptor(json.dumps(once)))
        assert once == twice


def test_sweepable_parameters():
    desc = parse_descriptor(
        json.dumps(
            {
                "state": {
                    "family": "white_noise",
                    "params": {"p": 0.6, "psi": [[1, 0], [0, 0]]},
                },
                "hamiltonians": [SZ_JSON],
            }
        )
    )
    assert sweepable_parameters(desc) == {"p": 0.6}
    ex = parse_descriptor(
        json.dumps({"state": {"family": "example", "params": {"id": "EX7"}}})
    )
    names = sweepable_parameters(ex)
    assert set(names) == {"alpha", "lam", "a", "a_prime"}
    # only an eigpair state is swept: not bell_diagonal's d or maximally_mixed's dim
    bell = {"family": "bell_diagonal", "params": {"weights": [0.5, 0.5], "d": 2}}
    for state, name, dim in ((MIXED["state"], "dim", 2), (bell, "d", 4)):
        desc = parse_descriptor(_desc(state=state, hamiltonians=[matrix_to_json(np.eye(dim))]))
        assert sweepable_parameters(desc) == {}
        with pytest.raises(ValidationError, match=f"unknown parameter '{name}'.*valid names: \\[\\]"):
            with_parameter(desc, name, 2.0)


def test_with_parameter():
    desc = parse_descriptor(
        json.dumps({"state": {"family": "example", "params": {"id": "EX4"}}})
    )
    moved = with_parameter(desc, "p", 0.7)
    assert moved.state_spec["params"]["p"] == 0.7
    assert desc.state_spec["params"].get("p") is None  # original untouched
    with pytest.raises(ValidationError, match="unknown parameter 'q'"):
        with_parameter(desc, "q", 0.5)
    raw = parse_descriptor(
        json.dumps(
            {
                "state": {"dim": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]},
                "hamiltonians": [SX_JSON],
            }
        )
    )
    with pytest.raises(ValidationError, match="family-based state"):
        with_parameter(raw, "p", 0.5)


def _pairwise(items):
    """The element-wise parse, one _complex_pair per item."""
    return np.array([_complex_pair(v, f"v[{i}]") for i, v in enumerate(items)])


@pytest.mark.parametrize(
    "item",
    [[True, 0], "x", ["1", 0], None, [1, None], [1], [1, 0, 0], {"re": 1, "im": 0}],
    ids=["bool", "string", "string-in-pair", "null", "null-in-pair", "one", "three", "dict"],
)
def test_pair_lists_reject_with_the_item_named(item):
    # the text of the element-wise validator, naming the first bad item
    message = f"expected an [re, im] pair, got {item!r}"
    vector = [[1, 0], item, [0, 1]]
    data = {"state": [{"weight": 1.0, "vector": vector}], "hamiltonians": [SX_JSON]}
    with pytest.raises(ValidationError) as err:
        parse_descriptor(data)
    assert str(err.value) == f"state[0].vector[1]: {message}"
    with pytest.raises(ValidationError) as err:
        matrix_from_json({"dim": 2, "entries": vector + [[0, 0]]}, "state")
    assert str(err.value) == f"state.entries[1]: {message}"


@pytest.mark.parametrize(
    "items",
    [
        [(1, 0), (0, 1)],
        [[np.float64(0.6), 0], [0, np.float64(0.8)]],
        [[2**60, 1], [2**60 + 1, -(2**53) - 1], [2**63 + 1, 2**64 + 3]],
        [[0.1, -0.2], [1e-300, 1e300]],
    ],
    ids=["tuples", "float64", "big-ints", "floats"],
)
def test_pair_lists_accept_what_the_element_wise_parse_accepts(items):
    ref = _pairwise(items)
    got = vector_from_json(list(items), "v")
    assert got.dtype == complex and np.array_equal(got, ref)
    got = matrix_from_json({"dim": 1, "entries": list(items[:1])}, "m")
    assert np.array_equal(got, ref[:1].reshape(1, 1))


def test_resolve_reuses_the_parsed_arrays(monkeypatch):
    text = json.dumps(
        {
            "state": [
                {"weight": 0.75, "vector": [[1, 0], [0, 0]]},
                {"weight": 0.25, "vector": [[0, 0], [1, 0]]},
            ],
            "hamiltonians": [SX_JSON, SZ_JSON],
        }
    )
    desc = parse_descriptor(text)

    def refuse(*args):
        raise AssertionError("parsed a second time")

    monkeypatch.setattr(descriptors, "_pairs_array", refuse)
    rho, hs, _, _ = resolve(desc)
    assert np.allclose(rho.matrix, np.diag([0.75, 0.25]))
    assert np.array_equal(hs.hams[1], np.diag([1.0, -1.0]))


def _float_pairs(pairs):
    return [[float(a), float(b)] for a, b in pairs]


def test_serialize_writes_parsed_arrays_back_as_pairs():
    vectors = [[[1, 0], [0, 0]], [[0, 0], [0.6, -0.8]]]
    entries = [[0.5, 0], [0, 0.5], [0, -0.5], [0.5, 0]]
    cases = [
        (
            [{"weight": w, "vector": v} for w, v in zip((0.8, 0.2), vectors)],
            [{"weight": w, "vector": _float_pairs(v)} for w, v in zip((0.8, 0.2), vectors)],
        ),
        ({"dim": 2, "entries": entries}, {"dim": 2, "entries": _float_pairs(entries)}),
    ]
    for state, canonical in cases:
        data = {"state": state, "hamiltonians": [SX_JSON, SZ_JSON]}
        out = serialize_descriptor(parse_descriptor(json.dumps(data)))
        assert out["state"] == canonical
        assert out["hamiltonians"] == [
            {"dim": 2, "entries": _float_pairs(h["entries"])} for h in (SX_JSON, SZ_JSON)
        ]
        text = json.dumps(out)  # plain floats and lists only
        assert all(
            type(x) is float
            for pair in json.loads(text)["hamiltonians"][0]["entries"]
            for x in pair
        )
        assert serialize_descriptor(parse_descriptor(text)) == out


def _example(ex_id):
    return {"state": {"family": "example", "params": {"id": ex_id}}}


NOISE = {
    "state": {
        "family": "white_noise",
        "params": {"psi": [[0.6, 0], [0, 0.3], [0, 0], [0.5, -0.2]], "p": 0.5},
    },
    "hamiltonians": [
        {"family": "local_spin", "params": {"sites": 2, "site": 0, "axis": [1.0, 0.0, 0.4]}},
        {"family": "local_spin", "params": {"sites": 2, "site": 1, "axis": [0.3, 1.0, 0.0]}},
    ],
    "theta": [0.4, -0.3],
}


@pytest.mark.parametrize(
    "data, name, values",
    [
        # the state dimension changes after the first run
        (_example("EX2"), "dim", [2.0, 2.0, 3.0, 3.0, 3.0, 2.0]),
        # rank 4 and rank 1 (p = 1) alternate
        (NOISE, "p", [0.5, 1.0, 0.7, 0.9, 1.0, 1.0, 0.5]),
        # weights on non-orthogonal vectors: a state matrix at each point,
        # its smaller weight below the rank cutoff at the last
        (_example("EX4"), "p", [0.1, 0.5, 0.9, 0.5, 1.0 - 1e-11]),
        # three descending-weight orders on shared vectors
        (_example("EX8"), "lam1", [0.1, 0.3, 0.15, 0.5, 0.1]),
        # Hamiltonians built at each point
        (_example("EX8"), "az", [-1.0, 0.0, 1.0, 0.5]),
        # eigpair vectors built at each point
        (_example("EX3"), "alpha", [1.0, 1.2, 1.4, 2.0]),
        # weights on one shared basis, Hamiltonians shared
        (_example("EX10"), "lam", [0.2, 0.4, 0.6, 0.8]),
        # the shape changes twice within the first batch's four points
        (_example("EX2"), "dim", [2.0, 3.0, 3.0, 2.0, 2.0]),
        # eigpair vectors and Hamiltonians both built at each point
        (_example("EX2"), "seed", [0.0, 3.0, 11.0, 3.0, 5.0]),
    ],
)
def test_resolve_grid_stacks_what_resolve_gives_point_by_point(monkeypatch, data, name, values):
    desc = parse_descriptor(data)
    points = []
    # batches of four points at the first point's dim and m: a run can start
    # past a batch's first point and hold more than one point
    rho, hs = resolve(with_parameter(desc, name, values[0]))[:2]
    monkeypatch.setattr(conditions, "CHUNK_BYTES", 4 * conditions.point_bytes(rho.dim, hs.m))
    for stack in resolve_grid(desc, name, values, descriptors.resolve_halves(desc)):
        for k in range(stack.n):
            row = [a[0 if len(a) == 1 else k] for a in (stack.lam, stack.vectors, stack.hams, stack.theta)]
            points.append((stack.rank, *row))
    assert len(points) == len(values)
    for value, (rank, lam, vectors, hams, theta) in zip(values, points):
        rho, hs, theta_one, _ = resolve(with_parameter(desc, name, value))
        assert rank == rho.rank
        assert np.array_equal(lam, rho.spectrum.eigenvalues)
        assert np.array_equal(vectors, rho.spectrum.eigenvectors)
        assert np.array_equal(hams, hs.stack)
        assert np.array_equal(theta, theta_one)


def test_resolve_grid_names_the_first_failure_in_point_order(monkeypatch):
    # EX5 with halves that fail at chosen values: lam = 0.3 gives weights
    # that do not sum to one (a check that runs over the whole batch), 0.7
    # fails to build its weights, and 0.3 and 0.4 fail to build their
    # Hamiltonians, which a point builds after its state
    desc = parse_descriptor(_example("EX5"))
    example_halves = descriptors._halves

    def weights(p):
        if p["lam"] == 0.7:
            raise ValidationError("no weights at 0.7")
        return [p["lam"], p["lam"] if p["lam"] == 0.3 else 1.0 - p["lam"]]

    def failing_halves(d):
        params, state, hamiltonians = example_halves(d)

        def build_hamiltonians(p):
            if p["lam"] in (0.3, 0.4):
                raise ValidationError(f"no Hamiltonians at {p['lam']}")
            return hamiltonians.build(p)

        state = EigpairHalf(Half(("lam",), weights), state.vectors)
        return params, state, Half(("lam",), build_hamiltonians)

    monkeypatch.setattr(descriptors, "_halves", failing_halves)
    halves = descriptors.resolve_halves(desc)
    for values in ([0.2, 0.3, 0.5], [0.3, 0.5, 0.7], [0.2, 0.7, 0.3], [0.2, 0.4, 0.3], [0.5, 0.3, 0.7]):
        for value in values:  # the first error of the points resolved one by one
            try:
                resolve(with_parameter(desc, "lam", value))
            except ValidationError as err:
                expected = f"grid value lam={value:g}: {err}"
                break
        with pytest.raises(ValidationError) as err:
            list(resolve_grid(desc, "lam", values, halves))
        assert str(err.value) == expected, values


def test_resolve_grid_names_a_failure_past_a_shape_change():
    # dim = 3.0 starts a second batch, which holds the failing point
    desc = parse_descriptor(_example("EX2"))
    with pytest.raises(ValidationError) as err:
        list(resolve_grid(desc, "dim", [2.0, 3.0, 3.5], descriptors.resolve_halves(desc)))
    assert str(err.value) == (
        "grid value dim=3.5: out-of-domain parameters: dim must be an integer >= 2"
    )


def test_resolve_grid_faults_a_batch_check_that_resolve_does_not_share(monkeypatch):
    # a batch check that flags a valid point has no message of resolve to give
    desc = parse_descriptor(_example("EX8"))
    monkeypatch.setattr(descriptors, "hamiltonian_checks", lambda stack: (1, "flagged"))
    with pytest.raises(ArithmeticError, match="grid value az=0.5: "):
        list(resolve_grid(desc, "az", [0.0, 0.5, 1.0], descriptors.resolve_halves(desc)))


@pytest.mark.parametrize(
    "data, message",
    [
        # a key no half reads, which a sweep could only repeat
        (
            {**NOISE, "state": {"family": "white_noise", "params": {**NOISE["state"]["params"], "unread": 1}}},
            "state.params: unknown keys ['unread']",
        ),
        (
            {"state": {"family": "maximally_mixed", "params": {"dim": 2, "d": 2}}, "hamiltonians": [SZ_JSON]},
            "state.params: unknown keys ['d']",
        ),
        (
            {
                **NOISE,
                "hamiltonians": [
                    NOISE["hamiltonians"][0],
                    {"family": "local_spin", "params": {**NOISE["hamiltonians"][1]["params"], "spin": 1}},
                ],
            },
            "hamiltonians[1].params: unknown keys ['spin']",
        ),
    ],
)
def test_family_params_hold_only_the_names_the_family_reads(data, message):
    with pytest.raises(ValidationError) as err:
        parse_descriptor(data)
    assert str(err.value) == message


class _ReadLog(dict):
    """A params dict that records each name read from it."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


FAMILIES = {
    "white_noise": NOISE,
    "bell_diagonal": {
        "state": {"family": "bell_diagonal", "params": {"weights": [0.5, 0.3, 0.2], "d": 2}},
        "hamiltonians": NOISE["hamiltonians"],
    },
    "pure": {"state": {"family": "pure", "params": {"vector": [[3, 0], [4, 0]]}}, "hamiltonians": [SZ_JSON]},
    "maximally_mixed": _desc(),
    **{
        ex_id: _example(ex_id)
        for ex_id in ("EX2", "EX3", "EX4", "EX5", "EX7", "EX8", "EX9", "EX10", "OBS7")
    },
}


@pytest.mark.parametrize("data", FAMILIES.values(), ids=FAMILIES.keys())
def test_each_half_reads_exactly_the_names_it_declares(data):
    # a sweep rebuilds a half at each point only if its reads name the swept
    # parameter, so a name missing from them would print stale rows
    desc = parse_descriptor(data)
    params, state, hamiltonians = descriptors._halves(desc)
    halves = [*state, hamiltonians] if isinstance(state, EigpairHalf) else [state, hamiltonians]
    read = set()
    for half in halves:
        log = _ReadLog(params)
        half.build(log)
        assert log.read == set(half.reads), half
        read |= log.read
    assert set(sweepable_parameters(desc)) <= read

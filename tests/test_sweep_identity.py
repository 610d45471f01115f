"""A sweep row is the classify row of its grid value (a property test).

Each case is a sweep drawn at random: white noise on a random ket under random
dense Hamiltonians, whose points share one eigenbasis (a (1, d, d) stack of
vectors), or an example whose sweep moves the basis from point to point (EX8's
lam1 across its weight-order changes, EX4's non-orthogonal pair, EX3's
alpha, EX2's seed), each at a random theta. Every CSV row that `sweep` prints
must equal, byte for byte, the row of that grid value classified on its own,
and the stacked norms and E behind the rows must equal the single problem's
bit for bit, since a problem's sums do not depend on the stack it is in.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metrocommute.cli import _row_text, main
from metrocommute.conditions import FLAG_KINDS, NORM_KINDS, classify, classify_stack
from metrocommute.descriptors import (
    parse_descriptor,
    resolve,
    resolve_grid,
    resolve_halves,
    with_parameter,
)


def _pairs(vector):
    return [[float(z.real), float(z.imag)] for z in vector]


def _hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return {"dim": d, "entries": _pairs((a + a.conj().T).reshape(-1))}


@st.composite
def _shared_basis(draw):
    """A white-noise p sweep: one eigenbasis for every point."""
    d, m = draw(st.integers(2, 6)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    desc = {
        "state": {"family": "white_noise", "params": {"psi": _pairs(psi), "p": 0.5}},
        "hamiltonians": [_hermitian(rng, d) for _ in range(m)],
        "theta": rng.normal(size=m).tolist(),
    }
    return desc, "p", 0.0, 1.0


# (example, swept parameter, low, high, m, {parameter: its drawn range}):
# sweeps whose points have their own eigenbasis
_MOVING = [
    ("EX8", "lam1", 0.05, 0.75, 2, {"lam2": (0.1, 0.24), "az": (-1.0, 1.0), "bz": (-1.0, 1.0)}),
    ("EX4", "p", 0.02, 0.98, 2, {}),
    ("EX3", "alpha", math.pi / 4 + 0.01, 3 * math.pi / 4 - 0.01, 2, {"lam": (0.1, 0.9)}),
    ("EX2", "seed", 0, 40, 2, {"dim": (2, 6), "p": (0.1, 1.0)}),
]


@st.composite
def _moving_basis(draw):
    ex_id, name, lo, hi, m, drawn = draw(st.sampled_from(_MOVING))
    params = {"id": ex_id}
    for key, (a, b) in drawn.items():
        if isinstance(a, int):
            params[key] = draw(st.integers(a, b))
        else:
            params[key] = draw(st.floats(a, b))
    theta = [draw(st.floats(-2.0, 2.0)) for _ in range(m)]
    return {"state": {"family": "example", "params": params}, "theta": theta}, name, lo, hi


@st.composite
def _sweeps(draw):
    desc, name, lo, hi = draw(st.one_of(_shared_basis(), _moving_basis()))
    a, b = sorted(draw(st.floats(lo, hi)) for _ in range(2))
    if name == "seed":  # whole seeds, one apart
        a = round(a)
        b = a + min(round(b) - a, 8)
        return desc, name, a, b, b - a + 1
    return desc, name, a, b, draw(st.integers(2, 9))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(case=_sweeps())
def test_each_sweep_row_is_the_classify_row_of_its_grid_value(tmp_path_factory, case):
    data, name, a, b, n = case
    path = tmp_path_factory.mktemp("sweep") / "descriptor.json"
    path.write_text(json.dumps(data))
    grid = [float(v) for v in np.linspace(a, b, n)]
    code, out, err = _cli(["sweep", str(path), "--param", name, f"--grid={a!r}:{b!r}:{n}"])
    assert (code, err) == (0, "")
    desc = parse_descriptor(data)
    rows, norms, es = [], [], []
    for value in grid:
        rho, hs, theta, _ = resolve(with_parameter(desc, name, value))
        report = classify(rho, hs, theta=theta, tol=desc.zero_tol)
        e = math.nan if report.E is None else report.E
        point_norms = [report.norms[kind] for kind in NORM_KINDS]
        rows.append(_row_text(name, value, point_norms, [report.flags[k] for k in FLAG_KINDS], e))
        norms.append(point_norms)
        es.append(e)
    assert out.splitlines()[1:] == rows
    stacked_norms, stacked_es = [], []
    for stack in resolve_grid(desc, name, grid, resolve_halves(desc)):
        res = classify_stack(stack, desc.zero_tol)
        stacked_norms += res.norms.tolist()
        stacked_es += res.E.tolist()
    assert stacked_norms == norms
    assert np.array_equal(stacked_es, es, equal_nan=True)

"""Command-line behavior: output formats, exit codes, and the frozen
sweep CSV column contract."""

import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import broadcast_points, count_calls, nan_weak_integral, stacked_points
from metrocommute import cli, conditions, examples, selftest, states
from metrocommute.cli import SWEEP_COLUMNS, _row_text, build_parser, main
from metrocommute.conditions import FLAG_KINDS, NORM_KINDS, classify
from metrocommute.descriptors import (
    MAX_SITES,
    matrix_to_json,
    parse_descriptor,
    resolve,
    resolve_grid,
    resolve_halves,
    sweepable_parameters,
    with_parameter,
)
from metrocommute.encoding import LocalSpin, LocalSpinStack, encode_stack, hamiltonian_set
from metrocommute.operator_core import ValidationError
from metrocommute.sld import sld_row_stack
from metrocommute.states import EigpairVectors

DATA = Path(__file__).parent / "data"

SZ = {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [-1, 0]]}
SX = {"dim": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}
# a JSON integer literal too large for a float, and how an error names it
HUGE = 10**340
TOO_LARGE = "an integer too large for a float"


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _traced_run(capsys, argv):
    """(_run's result, its tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        return _run(capsys, argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _sweep_row(name, value, report):
    """The CSV cells that a sweep prints for one point, from the point's own
    ClassificationReport."""
    return _row_text(
        name,
        value,
        [report.norms[kind] for kind in NORM_KINDS],
        [report.flags[kind] for kind in FLAG_KINDS],
        math.nan if report.E is None else report.E,
    ).split(",")


def test_classify_example_descriptor(tmp_path, capsys):
    path = _write(
        tmp_path,
        "ex4.json",
        {"state": {"family": "example", "params": {"id": "EX4", "p": 0.5}}},
    )
    code, out, _ = _run(capsys, ["classify", path])
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 4
    assert report["flags"]["WC"] is False
    assert report["norms"]["W"] == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert report["qfim_rank"] == 2
    assert report["tolerances"] == {"zero_tol": 1e-8, "rank_tol": 1e-10}
    assert report["notices"] == []


def test_classify_json_flag_compact(tmp_path, capsys):
    path = _write(
        tmp_path,
        "ex4.json",
        {"state": {"family": "example", "params": {"id": "EX4"}}},
    )
    code, out, _ = _run(capsys, ["classify", path, "--json"])
    assert code == 0
    assert out.count("\n") == 1  # single line plus trailing newline
    json.loads(out)


def test_classify_all_conditions_true(tmp_path, capsys):
    phi = 1 / np.sqrt(2)
    path = _write(
        tmp_path,
        "bell.json",
        {
            "state": [{"weight": 1.0, "vector": [[phi, 0], [0, 0], [0, 0], [phi, 0]]}],
            "hamiltonians": [
                {
                    "family": "local_spin",
                    "params": {"sites": 2, "site": 0, "axis": [0.0, 0.0, 1.0]},
                },
                {
                    "family": "local_spin",
                    "params": {"sites": 2, "site": 1, "axis": [0.0, 0.0, 1.0]},
                },
            ],
        },
    )
    code, out, _ = _run(capsys, ["classify", path])
    assert code == 0
    report = json.loads(out)
    assert report["flags"] == {"WC": True, "PC": True, "OC": True, "SC": True}


def test_classify_invalid_state_exits_2(tmp_path, capsys):
    path = _write(
        tmp_path,
        "bad.json",
        {
            "state": {"dim": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [0.4, 0]]},
            "hamiltonians": [SZ],
        },
    )
    code, _, err = _run(capsys, ["classify", path])
    assert code == 2
    assert "trace" in err


@pytest.mark.parametrize(
    "params, message",
    [
        ({"seed": -1}, "seed must be a non-negative integer"),
        ({"seed": 2.5}, "seed must be a non-negative integer"),
        ({"dim": 2.5}, "dim must be an integer >= 2"),
        ({"dim": 1}, "dim must be an integer >= 2"),
        ({"p": 0.0}, "p must be in (0, 1]"),
        ({"p": 1.5}, "p must be in (0, 1]"),
    ],
)
def test_ex2_configuration_checks_its_parameters(tmp_path, capsys, params, message):
    path = _write(tmp_path, "ex2.json", {"state": {"family": "example", "params": {"id": "EX2", **params}}})
    code, out, err = _run(capsys, ["classify", path])
    assert (code, out, err) == (2, "", f"error: out-of-domain parameters: {message}\n")


def test_ex2_sweep_names_its_first_out_of_domain_value(tmp_path, capsys):
    path = _example_descriptor(tmp_path, "EX2")
    for argv, bad in (
        (["--param", "dim", "--grid=-1:1:3"], "dim=-1: out-of-domain parameters: dim must be an integer >= 2"),
        (["--param", "dim", "--grid=2:3:3"], "dim=2.5: out-of-domain parameters: dim must be an integer >= 2"),
        (["--param", "seed", "--grid=-1:1:3"], "seed=-1: out-of-domain parameters: seed must be a non-negative integer"),
        (["--param", "p", "--grid=0:1:3"], "p=0: out-of-domain parameters: p must be in (0, 1]"),
    ):
        code, out, err = _run(capsys, ["sweep", path, *argv])
        assert (code, out, err) == (2, "", f"error: grid value {bad}\n"), argv


def test_classify_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, ["classify", "/nonexistent/problem.json"])
    assert code == 2
    assert "cannot read" in err


def test_classify_singular_notice(tmp_path, capsys):
    path = _write(
        tmp_path,
        "singular.json",
        {
            "state": {"family": "maximally_mixed", "params": {"dim": 2}},
            "hamiltonians": [SZ, SX],
        },
    )
    code, out, _ = _run(capsys, ["classify", path])
    assert code == 0
    report = json.loads(out)
    assert report["E"] is None
    assert report["qcr"] is None
    assert report["notices"] == ["parameters not jointly identifiable"]


@pytest.mark.parametrize("ex_id, m, qcr", [("EX8", 2, True), ("EX5", 3, False)])
def test_classify_diagonalizes_its_qfim_once(tmp_path, capsys, monkeypatch, ex_id, m, qcr):
    # E, the QFIM's rank and conditioning, and qcr's invertibility test read
    # one eigvalsh of the QFIM (EX5's is singular, so it has no qcr)
    eigvalsh, shapes = np.linalg.eigvalsh, []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    code, out, err = _run(capsys, ["classify", _example_descriptor(tmp_path, ex_id), "--json"])
    assert (code, err) == (0, "")
    assert (json.loads(out)["qcr"] is not None) == qcr
    assert shapes == [(1, m, m)]


def _spin(site, axis):
    return {"family": "local_spin", "params": {"sites": 2, "site": site, "axis": axis}}


def _random_hamiltonians(rng, d, m=2):
    hams = []
    for _ in range(m):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = a + a.conj().T
        hams.append({"dim": d, "entries": [[z.real, z.imag] for z in h.reshape(-1).tolist()]})
    return hams


def test_classify_rank_tol_override_reaches_the_resolve(tmp_path, capsys):
    # every state input, eigpairs and families alike, is cut at the
    # descriptor's rank_tol and recounted at --rank-tol 1e-8. The first four
    # carry weights of 1e-7; the next four put weights of 0.1 to 0.4 in the
    # kernel under generic Hamiltonians, whose kernel diagonal of the SLD
    # commutator does not vanish, so the cut weights must read as zeros. The
    # last two carry weights of about 1e-11, which the default cutoff of 1e-10
    # sets to zero where the state is built: a descriptor cutoff of 1e-12
    # recounts them from the spectrum as it was built
    rng = np.random.default_rng(17)
    e0, e1 = [[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]
    cases = [
        (
            [
                {"weight": 1.0 - 1e-7, "vector": [[1, 0], [0, 0]]},
                {"weight": 1e-7, "vector": [[0, 0], [1, 0]]},
            ],
            [SZ, SX],
            1e-6,
            1,
            2,
        ),
        (
            {"family": "white_noise", "params": {"psi": [[1, 0], [0, 0]], "p": 1.0 - 2e-7}},
            [SZ, SX],
            1e-6,
            1,
            2,
        ),
        (
            {"family": "bell_diagonal", "params": {"weights": [1.0 - 1e-7, 1e-7], "d": 2}},
            [_spin(0, [0.0, 0.0, 1.0]), _spin(1, [1.0, 0.0, 0.0])],
            1e-6,
            1,
            2,
        ),
        ({"family": "example", "params": {"id": "EX10", "lam": 1.0 - 4e-7}}, None, 1e-6, 1, 4),
        (
            [{"weight": 0.6, "vector": e0}, {"weight": 0.4, "vector": e1}],
            _random_hamiltonians(rng, 3),
            0.5,
            1,
            2,
        ),
        (
            {"family": "white_noise", "params": {"psi": e0, "p": 0.4}},
            _random_hamiltonians(rng, 3),
            0.3,
            1,
            3,
        ),
        (
            {"family": "bell_diagonal", "params": {"weights": [0.7, 0.2, 0.1], "d": 2}},
            _random_hamiltonians(rng, 4),
            0.15,
            2,
            3,
        ),
        ({"family": "example", "params": {"id": "EX2", "dim": 2, "p": 0.9999998}}, None, 1e-6, 1, 2),
        (
            [
                {"weight": 1.0 - 1e-11, "vector": [[1, 0], [0, 0]]},
                {"weight": 1e-11, "vector": [[0, 0], [1, 0]]},
            ],
            [SZ, SX],
            1e-12,
            2,
            1,
        ),
        (
            {"family": "white_noise", "params": {"psi": [[1, 0], [0, 0]], "p": 1.0 - 3e-11}},
            [SZ, SX],
            1e-12,
            2,
            1,
        ),
    ]
    for k, (state, hams, cutoff, rank_at_cutoff, rank_at_1e8) in enumerate(cases):
        desc = {"state": state, "tolerances": {"rank_tol": cutoff}}
        if hams is not None:
            desc["hamiltonians"] = hams
        path = _write(tmp_path, f"cut_{k}.json", desc)
        code, out, _ = _run(capsys, ["classify", path, "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["rank"] == rank_at_cutoff, state
        assert report["tolerances"]["rank_tol"] == cutoff
        code, out, _ = _run(capsys, ["classify", path, "--json", "--rank-tol", "1e-8"])
        assert code == 0
        report = json.loads(out)
        assert report["rank"] == rank_at_1e8, state
        assert report["tolerances"]["rank_tol"] == 1e-8
    # a sweep cuts every point: at rank_tol 0.3 the noise weight (1 - p) / 3
    # is in the kernel for p = 0.2 to 0.6 and every row is its point's report
    path = _write(
        tmp_path,
        "cut_sweep.json",
        {
            "state": {"family": "white_noise", "params": {"psi": e0, "p": 0.4}},
            "hamiltonians": _random_hamiltonians(rng, 3),
            "tolerances": {"rank_tol": 0.3},
        },
    )
    code, out, _ = _run(capsys, ["sweep", path, "--param", "p", "--grid", "0.2:0.6:3"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 3
    sweep_desc = parse_descriptor(open(path).read())
    for value, cells in zip((0.2, 0.4, 0.6), rows):
        rho, hs, theta, _ = resolve(with_parameter(sweep_desc, "p", value))
        assert rho.rank == 1
        assert cells == _sweep_row("p", value, classify(rho, hs, theta=theta))


def test_classify_theta_weight_and_tol_overrides(tmp_path, capsys):
    path = _write(
        tmp_path,
        "ex4.json",
        {"state": {"family": "example", "params": {"id": "EX4"}}},
    )
    wt = _write(tmp_path, "wt.json", {"dim": 2, "entries": [[2, 0], [0, 0], [0, 0], [1, 0]]})
    code, out, _ = _run(
        capsys,
        ["classify", path, "--theta", "0.3", "0.1", "--weight", wt, "--zero-tol", "1e-6"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["theta"] == [0.3, 0.1]
    assert report["tolerances"]["zero_tol"] == 1e-6
    f = np.array(
        [p[0] for p in report["qfim"]["entries"]], dtype=float
    ).reshape(2, 2)
    expected = np.trace(np.linalg.inv(f) @ np.diag([2.0, 1.0]))
    assert report["qcr"] == pytest.approx(expected, rel=1e-9)
    code, _, err = _run(capsys, ["classify", path, "--theta", "0.3"])
    assert code == 2
    assert "expects 2 values" in err
    for flag in ("--zero-tol", "--rank-tol"):
        for value in ("-1", "0", "nan", "inf"):
            code, out, err = _run(capsys, ["classify", path, flag, value])
            assert code == 2, (flag, value)
            assert out == ""
            assert f"{flag}: must be positive and finite" in err


def test_example_single_table(capsys):
    code, out, _ = _run(capsys, ["example", "EX4"])
    assert code == 0
    assert "EX4" in out and "pass" in out


def test_example_unknown_id_exits_2(capsys):
    code, _, err = _run(capsys, ["example", "EX99"])
    assert code == 2
    assert "unknown example id" in err


def test_example_json_output(capsys):
    code, out, _ = _run(capsys, ["example", "EX7", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["id"] == "EX7"
    assert payload[0]["pass"] is True


def test_example_all_passes(capsys):
    code, out, _ = _run(capsys, ["example", "all"])
    assert code == 0
    assert "15 reports, 15 passed, 0 failed" in out


def test_example_failing_report_lists_each_failing_check(capsys, monkeypatch):
    # swapping the W-type kets swaps lam and 1 - lam, which flips the sign of
    # every W entry of EX5 while its closed forms stay put
    kets = examples._w_type_kets
    monkeypatch.setattr(examples, "_w_type_kets", lambda: kets()[::-1])
    report = examples.run_example("EX5")
    code, out, _ = _run(capsys, ["example", "EX5"])
    assert code == 1
    lines = out.splitlines()
    assert lines[1].split()[:2] == ["EX5", "FAIL"]
    assert lines[-1] == "1 reports, 0 passed, 1 failed"
    keys = ["W_12", "W_13", "W_23", "lambda_sweep_worst"]
    assert [line.split(":")[0].strip() for line in lines[2:-1]] == keys
    for key, line in zip(keys, lines[2:-1]):
        dev = np.max(np.abs(np.asarray(report.expected[key]) - report.computed[key]))
        assert dev > examples.PASS_TOL
        assert line == f"       {key}: deviation {dev:.3e}"


def test_sweep_csv_contract(tmp_path, capsys):
    path = _write(
        tmp_path,
        "ex4.json",
        {"state": {"family": "example", "params": {"id": "EX4"}}},
    )
    code, out, _ = _run(capsys, ["sweep", path, "--param", "p", "--grid", "0.1:0.9:5"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert (
        lines[0]
        == "parameter,value,W_norm,P_norm,O_norm,S_norm,WC,PC,OC,SC,E"
    )
    assert len(lines) == 6
    for line, p in zip(lines[1:], np.linspace(0.1, 0.9, 5)):
        cells = line.split(",")
        assert cells[0] == "p"
        assert float(cells[1]) == pytest.approx(p)
        expected_w = np.sqrt(2.0) * 8 * (1 - p) * p**2
        assert float(cells[2]) == pytest.approx(expected_w, abs=1e-9)
        assert cells[6] in {"0", "1"} and cells[9] in {"0", "1"}
        float(cells[10])  # E numeric for this family


def test_sweep_half_mixing_symmetry(tmp_path, capsys):
    path = _write(
        tmp_path,
        "ex5.json",
        {"state": {"family": "example", "params": {"id": "EX5"}}},
    )
    code, out, _ = _run(capsys, ["sweep", path, "--param", "lam", "--grid", "0.2:0.8:3"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    w02, w05, w08 = (float(r[2]) for r in rows)
    assert w05 == pytest.approx(0.0, abs=1e-9)  # half mixing kills every pair
    assert w02 == pytest.approx(w08, rel=1e-9)  # lam <-> 1 - lam symmetry


def test_sweep_singular_marker(tmp_path, capsys):
    # the tilted-pair family at alpha = pi/4 has a singular QFIM for all lam
    path = _write(
        tmp_path,
        "ex7.json",
        {
            "state": {
                "family": "example",
                "params": {"id": "EX7", "alpha": np.pi / 4, "a": 0.0, "a_prime": 1.0},
            }
        },
    )
    code, out, _ = _run(capsys, ["sweep", path, "--param", "lam", "--grid", "0.2:0.3:2"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert all(r[10] == "singular" for r in rows)


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    path = _write(
        tmp_path,
        "ex4.json",
        {"state": {"family": "example", "params": {"id": "EX4"}}},
    )
    args = ["sweep", path, "--param", "p", "--grid", "0.2:0.8:7"]
    code1, serial, _ = _run(capsys, args)
    code2, parallel, _ = _run(capsys, args + ["--jobs", "4"])
    assert code1 == code2 == 0
    assert serial == parallel


def test_sweep_jobs_env_default(tmp_path, capsys, monkeypatch):
    path = _write(
        tmp_path,
        "ex4.json",
        {"state": {"family": "example", "params": {"id": "EX4"}}},
    )
    args = ["sweep", path, "--param", "p", "--grid", "0.2:0.8:4"]
    _, serial, _ = _run(capsys, args)
    monkeypatch.setenv("METROCOMMUTE_JOBS", "3")
    code, enved, _ = _run(capsys, args)
    assert code == 0
    assert enved == serial


def test_sweep_errors(tmp_path, capsys, monkeypatch):
    path = _write(
        tmp_path,
        "ex4.json",
        {"state": {"family": "example", "params": {"id": "EX4"}}},
    )
    code, _, err = _run(capsys, ["sweep", path, "--param", "bogus", "--grid", "0:1:3"])
    assert code == 2
    assert "unknown parameter" in err
    code, _, err = _run(capsys, ["sweep", path, "--param", "p", "--grid", "0.1-0.9-5"])
    assert code == 2
    assert "a:b:n" in err
    code, _, err = _run(capsys, ["sweep", path, "--param", "p", "--grid", "0.1:0.9:0"])
    assert code == 2
    assert "n >= 1" in err
    code, _, err = _run(
        capsys, ["sweep", path, "--param", "p", "--grid", "0:1:3", "--jobs", "0"]
    )
    assert code == 2
    assert "jobs" in err
    # out-of-domain grid values name the offending point
    code, _, err = _run(capsys, ["sweep", path, "--param", "p", "--grid", "0:1:2"])
    assert code == 2
    assert "grid value p=" in err
    # endpoints whose difference overflows once put NaN grid values and two
    # numpy warnings ahead of the error line
    for grid in ("nan:1:3", "0:inf:3", "1e308:-1e308:3"):
        code, _, err = _run(capsys, ["sweep", path, "--param", "p", "--grid", grid])
        assert code == 2
        assert "--grid" in err and "finite" in err
    monkeypatch.setenv("METROCOMMUTE_JOBS", "abc")
    code, _, err = _run(capsys, ["sweep", path, "--param", "p", "--grid", "0.1:0.9:3"])
    assert code == 2
    assert "METROCOMMUTE_JOBS" in err


def _weight(rows):
    return {"dim": len(rows), "entries": [[x, 0] for row in rows for x in row]}


@pytest.mark.parametrize("where", ["weight_matrix", "--weight"])
@pytest.mark.parametrize(
    "ex_id, rows, message",
    [
        # an Infinity entry once printed "qcr":Infinity, which is not JSON
        ("EX8", [[math.inf, 0], [0, 1]], "weight_matrix has non-finite entries"),
        # rank one: its symmetric part once overflowed to NaN and passed
        ("EX8", [[1e308, 1e308], [1e308, 1e308]], "weight matrix must be positive definite"),
        ("EX8", [[1, 2], [0, -1]], "weight matrix must be symmetric"),
        # EX5's QFIM is singular, and its weight was once never read
        ("EX5", [[1, 2, 0], [0, -1, 0], [0, 0, 1]], "weight matrix must be symmetric"),
        ("EX5", [[1, 0, 0], [0, -1, 0], [0, 0, 1]], "weight matrix must be positive definite"),
    ],
)
def test_a_weight_matrix_is_checked_where_it_is_read(tmp_path, capsys, where, ex_id, rows, message):
    desc = {"state": {"family": "example", "params": {"id": ex_id}}}
    if where == "--weight":
        argv = ["classify", _write(tmp_path, "ex.json", desc), "--json"]
        argv += ["--weight", _write(tmp_path, "w.json", _weight(rows))]
    else:
        desc["weight_matrix"] = _weight(rows)
        argv = ["classify", _write(tmp_path, "ex.json", desc), "--json"]
    assert _run(capsys, argv) == (2, "", f"error: {message}\n")


def test_a_weight_near_overflow_gives_a_finite_bound_without_warnings(tmp_path, capsys):
    # its symmetric part once overflowed on the way, with two warnings
    path = _example_descriptor(tmp_path, "EX8")
    weight = _write(tmp_path, "w.json", _weight([[1e308, 0], [0, 1e308]]))
    code, out, err = _run(capsys, ["classify", path, "--json", "--weight", weight])
    assert (code, err) == (0, "")
    assert 1e307 < json.loads(out)["qcr"] < math.inf
    # a bound that overflows exits 2: tr F^-1 is about 38 on EX4 at p = 0.01
    ex4 = {"state": {"family": "example", "params": {"id": "EX4", "p": 0.01}}}
    path = _write(tmp_path, "ex4.json", ex4)
    assert _run(capsys, ["classify", path, "--json", "--weight", weight]) == (
        2,
        "",
        "error: tr[M F^-1] overflows: the weight matrix is too large\n",
    )


def test_a_cutoff_that_leaves_no_support_exits_2(tmp_path, capsys):
    # a state of rank 0 once classified with every flag true and a zero QFIM
    eigpairs = [{"weight": 0.6, "vector": [[1, 0], [0, 0]]}, {"weight": 0.4, "vector": [[0, 0], [1, 0]]}]
    desc = {"state": eigpairs, "hamiltonians": [SX, SZ]}
    message = "error: rank_tol 0.9 leaves no support: the largest eigenvalue is 0.6\n"
    path = _write(tmp_path, "cut.json", desc)
    assert _run(capsys, ["classify", path, "--json", "--rank-tol", "0.9"]) == (2, "", message)
    path = _write(tmp_path, "cut.json", {**desc, "tolerances": {"rank_tol": 0.9}})
    assert _run(capsys, ["classify", path, "--json"]) == (2, "", message)
    # every row of a sweep once read 0,0,0,0,1,1,1,1,singular
    ex4 = {"state": {"family": "example", "params": {"id": "EX4"}}, "tolerances": {"rank_tol": 0.99}}
    path = _write(tmp_path, "ex4.json", ex4)
    assert _run(capsys, ["sweep", path, "--param", "p", "--grid", "0.1:0.9:3"]) == (
        2,
        "",
        "error: rank_tol 0.99 leaves no support: the largest eigenvalue is 0.75\n",
    )
    # a grid point that the cutoff leaves without support is named as resolve
    # names it; the descriptor's own point, p = 1, keeps its support
    noise = {
        "state": {"family": "white_noise", "params": {"psi": [[1, 0], [0, 0]], "p": 1.0}},
        "hamiltonians": [SX, SZ],
        "tolerances": {"rank_tol": 0.6},
    }
    path = _write(tmp_path, "noise.json", noise)
    assert _run(capsys, ["sweep", path, "--param", "p", "--grid", "1:0:3"]) == (
        2,
        "",
        "error: grid value p=0: rank_tol 0.6 leaves no support: the largest eigenvalue is 0.5\n",
    )


def test_a_grid_past_the_cap_exits_2_before_it_is_allocated(tmp_path, capsys, monkeypatch):
    # a billion points once asked numpy for 7.45 GiB and ended in a traceback
    path = _example_descriptor(tmp_path, "EX4")
    calls = []
    monkeypatch.setattr(cli.np, "linspace", lambda *args: calls.append(args))
    for n in (cli.MAX_GRID_POINTS + 1, 10**9):
        message = f"error: --grid asks for {n} points, more than {cli.MAX_GRID_POINTS}\n"
        argv = ["sweep", path, "--param", "p", "--grid", f"0.1:0.9:{n}"]
        assert _run(capsys, argv) == (2, "", message)
    assert calls == []


def test_non_finite_theta_exits_2(tmp_path, capsys):
    # json.loads reads NaN and Infinity, so a descriptor can carry them
    ex4 = {"state": {"family": "example", "params": {"id": "EX4"}}}
    nan = tmp_path / "nan.json"
    nan.write_text('{"state": {"family": "example", "params": {"id": "EX4"}}, "theta": [NaN, 0]}')
    for argv in (
        ["classify", str(nan)],
        ["classify", str(nan), "--json"],
        ["sweep", str(nan), "--param", "p", "--grid", "0.2:0.8:3"],
        ["classify", _write(tmp_path, "ex4.json", ex4), "--theta", "inf", "0"],
    ):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: theta has non-finite entries"), argv
    # a sweep names a bad grid value of its first batch before theta, as a
    # point is resolved before it is classified
    code, out, err = _run(capsys, ["sweep", str(nan), "--param", "p", "--grid", "0.5:1.5:3"])
    assert (code, out) == (2, "")
    assert err == "error: grid value p=1: out-of-domain parameters: p must be in (0, 1)\n"
    # finite theta whose K = sum theta_i H_i overflows
    argv = ["classify", str(tmp_path / "ex4.json"), "--theta", "1e308", "1e308"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: K = sum_i theta_i H_i overflows: theta is too large\n"


def test_classify_and_sweep_exit_2_when_the_condition_norms_overflow(tmp_path, capsys):
    # finite Hamiltonians near 1e77 pass validation, but their SLD products
    # overflow: Infinity and NaN are not JSON, so the run stops with exit 2
    rng = np.random.default_rng(5)
    base = _random_hamiltonians(rng, 3)
    eigpairs = [
        {"weight": 0.7, "vector": [[1, 0], [0, 0], [0, 0]]},
        {"weight": 0.3, "vector": [[0, 0], [1, 0], [0, 0]]},
    ]
    noise = {"family": "white_noise", "params": {"psi": [[1, 0], [0, 0], [0, 0]], "p": 0.5}}

    def descriptor(name, scale, state):
        hams = [
            {"dim": 3, "entries": [[scale * x, scale * y] for x, y in h["entries"]]}
            for h in base
        ]
        return _write(tmp_path, name, {"state": state, "hamiltonians": hams, "theta": [0.0, 0.0]})

    message = "error: the condition matrices overflow: the Hamiltonians are too large\n"
    for argv in (
        ["classify", descriptor("big.json", 1e77, eigpairs), "--json"],
        ["sweep", descriptor("big_noise.json", 1e77, noise), "--param", "p", "--grid", "0.3:0.6:3"],
    ):
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (2, "", message), argv
    code, out, err = _run(capsys, ["classify", descriptor("ok.json", 1e70, eigpairs), "--json"])
    assert (code, err) == (0, "")
    assert "Infinity" not in out and "NaN" not in out
    assert all(np.isfinite(v) for v in json.loads(out)["norms"].values())


def test_classify_exits_2_on_huge_non_hermitian_hamiltonians(tmp_path, capsys):
    # at 1e160 both Frobenius norms of the Hermiticity test overflow; the
    # skewed Hamiltonians are still rejected, with one error line and no warning
    rng = np.random.default_rng(5)
    base = _random_hamiltonians(rng, 3)
    base[0]["entries"][1][0] += 1.0  # entry (0, 1) no longer mirrors entry (1, 0)
    hams = [
        {"dim": 3, "entries": [[1e160 * x, 1e160 * y] for x, y in h["entries"]]} for h in base
    ]
    state = [{"weight": 1.0, "vector": [[1, 0], [0, 0], [0, 0]]}]
    path = _write(tmp_path, "huge.json", {"state": state, "hamiltonians": hams})
    code, out, err = _run(capsys, ["classify", path, "--json"])
    assert (code, out) == (2, "")
    assert err == "error: Hamiltonian 0 is not Hermitian within tolerance 1e-10\n"


@pytest.mark.parametrize(
    "state, hams, argv, message",
    [
        # a NaN weight once classified as rank 0 with every flag true
        (
            [{"weight": float("nan"), "vector": [[1, 0], [0, 0]]}, {"weight": 1.0, "vector": [[0, 0], [1, 0]]}],
            2,
            ["classify", "--json"],
            "non-finite weight nan",
        ),
        # a key no half reads once gave rows that a sweep of it only repeated
        (
            {"family": "white_noise", "params": {"psi": [[1, 0], [0, 0]], "p": 0.5, "unread": 1}},
            2,
            ["sweep", "--param", "unread", "--grid", "0:1:3"],
            "state.params: unknown keys ['unread']",
        ),
        # every sweep of d failed at its first point: d is not sweepable
        (
            {"family": "bell_diagonal", "params": {"weights": [0.5, 0.5], "d": 2}},
            4,
            ["sweep", "--param", "d", "--grid", "2:3:2"],
            "unknown parameter 'd' for family 'bell_diagonal'; valid names: []",
        ),
        # sin(alpha) = 0 once printed numpy's divide-by-zero warning first
        *(
            (
                {"family": "example", "params": {"id": ex_id}},
                None,
                ["sweep", "--param", "alpha", "--grid=-2:2:5"],
                "grid value alpha=0: out-of-domain parameters: cot^2(alpha) must be <= 1",
            )
            for ex_id in ("EX3", "EX7")
        ),
        # example overrides of the wrong type once ended in a traceback or
        # were read as another number
        *(
            (
                {"family": "example", "params": params},
                None,
                ["classify", "--json"],
                message,
            )
            for params, message in (
                ({"id": "EX4", "p": "x"}, "parameter 'p' for EX4: expected a number, got 'x'"),
                ({"id": "EX10", "dim": [1]}, "parameter 'dim' for EX10: expected a number, got [1]"),
                (
                    {"id": "EX10", "dim": 4.5},
                    "out-of-domain parameters: dim must be 4 (two-qubit realization)",
                ),
                ({"id": "EX8", "ax": "1"}, "parameter 'ax' for EX8: expected a number, got '1'"),
            )
        ),
        # non-finite example overrides once reached the kets or Hamiltonians
        # and printed numpy's invalid-value warning first
        *(
            (
                {"family": "example", "params": params},
                None,
                ["classify", "--json"],
                message,
            )
            for params, message in (
                (
                    {"id": "EX3", "alpha": math.inf},
                    "parameter 'alpha' for EX3: expected a finite number, got inf",
                ),
                ({"id": "EX8", "ax": math.inf}, "parameter 'ax' for EX8: expected a finite number, got inf"),
                ({"id": "EX4", "p": math.nan}, "parameter 'p' for EX4: expected a finite number, got nan"),
            )
        ),
        (
            {"family": "pure", "params": {"vector": [[1, 0], [0, 0]]}},
            [{"family": "local_spin", "params": {"sites": 1, "site": 0, "axis": [0.5, math.inf, 0.0]}}],
            ["classify", "--json"],
            "hamiltonians[0].params.axis[1]: expected a finite number, got inf",
        ),
        # a non-finite vector entry once printed numpy's invalid-value warning
        *(
            (state, 2, ["classify", "--json"], message)
            for state, message in (
                (
                    [{"weight": 1.0, "vector": [[math.inf, 0], [0, 0]]}],
                    "state[0].vector: eigpair vectors have non-finite entries",
                ),
                (
                    {"family": "white_noise", "params": {"psi": [[1, 0], [0, -math.inf]], "p": 0.5}},
                    "state.params.psi: eigpair vectors have non-finite entries",
                ),
                (
                    {"family": "pure", "params": {"vector": [[math.inf, 0], [0, 0]]}},
                    "state.params.vector: eigpair vectors have non-finite entries",
                ),
            )
        ),
        # bell_diagonal weights that are not a non-empty list once ended in a
        # traceback, and its weight messages printed numpy reprs
        *(
            (
                {"family": "bell_diagonal", "params": {"weights": weights, "d": 2}},
                4,
                ["classify", "--json"],
                message,
            )
            for weights, message in (
                ([], "state.params.weights: expected a non-empty list of numbers, got []"),
                (5, "state.params.weights: expected a non-empty list of numbers, got 5"),
                ([1.2, -0.2], "negative weight -0.2"),
                ([0.5, 0.2], "weights sum to 0.7, not 1 within 1e-10"),
            )
        ),
        # a JSON integer too large for a float once ended in an OverflowError
        # traceback with exit 1; each number names its field
        *(
            (state, hams, ["classify", "--json"], f"{field}: expected a finite number, got {TOO_LARGE}")
            for state, hams, field in (
                ({"family": "example", "params": {"id": "EX4", "p": HUGE}}, None, "parameter 'p' for EX4"),
                ({"family": "example", "params": {"id": "EX8", "lam1": HUGE}}, None, "parameter 'lam1' for EX8"),
                ({"family": "example", "params": {"id": "EX2", "seed": HUGE}}, None, "parameter 'seed' for EX2"),
                (
                    [{"weight": 10**400, "vector": [[1, 0], [0, 0]]}],
                    2,
                    "state[0].weight",
                ),
                (
                    [{"weight": 1.0, "vector": [[1, 0], [0, HUGE]]}],
                    2,
                    "state[0].vector[1][1]",
                ),
                (
                    {"family": "white_noise", "params": {"psi": [[1, 0], [0, 0]], "p": HUGE}},
                    2,
                    "state.params.p",
                ),
                (
                    {"family": "pure", "params": {"vector": [[1, 0], [0, 0]]}},
                    [{"family": "local_spin", "params": {"sites": 1, "site": 0, "axis": [0.5, HUGE, 0.0]}}],
                    "hamiltonians[0].params.axis[1]",
                ),
            )
        ),
        (
            {"family": "white_noise", "params": {"psi": [[1, 0], [0, 0]], "p": HUGE}},
            2,
            ["sweep", "--param", "p", "--grid", "0:1:3"],
            f"state.params.p: expected a finite number, got {TOO_LARGE}",
        ),
        # a dimension past MAX_DIM once reached numpy: an out-of-memory
        # traceback at 100000 (74.5 to 149 GiB), a ValueError at 341 digits
        *(
            (
                {"family": "maximally_mixed", "params": {"dim": dim}},
                2,
                ["classify", "--json"],
                f"state.params.dim: expected at most {states.MAX_DIM}, got {dim}",
            )
            for dim in (100000, HUGE)
        ),
        *(
            (
                {"family": "bell_diagonal", "params": {"weights": [1.0], "d": d}},
                4,
                ["classify", "--json"],
                f"state.params.d: bell_diagonal needs d^2 <= {states.MAX_DIM}, got d = {d}",
            )
            for d in (100000, HUGE)
        ),
        (
            {"family": "example", "params": {"id": "EX2", "dim": 100000}},
            None,
            ["classify", "--json"],
            f"out-of-domain parameters: dim must be at most {states.MAX_DIM}",
        ),
        # each point of a sweep is checked before it is built
        (
            {"family": "example", "params": {"id": "EX2"}},
            None,
            ["sweep", "--param", "dim", "--grid", "2:100000:3"],
            f"grid value dim=50001: out-of-domain parameters: dim must be at most {states.MAX_DIM}",
        ),
        # an empty psi or vector was once named as a state of dimension 0,
        # and a value of the wrong type as an unsupported parameter value;
        # each family field is typed at parse and named by its path
        *(
            ({"family": family, "params": params}, 2, ["classify", "--json"], message)
            for family, params, message in (
                ("white_noise", {"psi": [], "p": 0.5}, "state.params.psi: expected a non-empty list of [re, im] pairs"),
                ("pure", {"vector": []}, "state.params.vector: expected a non-empty list of [re, im] pairs"),
                ("white_noise", {"psi": [[1, 0], [0, 0]], "p": True}, "state.params.p: expected a number, got True"),
                ("maximally_mixed", {"dim": None}, "state.params.dim: expected an integer >= 2, got None"),
            )
        ),
        (
            {"family": "example", "params": {"id": "EX4", "p": None}},
            None,
            ["classify", "--json"],
            "parameter 'p' for EX4: expected a number, got None",
        ),
        # a vector or d that fails only when built once gave a message
        # without its field, and a number of the wrong type named its type
        *(
            (state, 2, ["classify", "--json"], message)
            for state, message in (
                (
                    {"family": "white_noise", "params": {"psi": [[math.nan, 0], [0, 0]], "p": 0.5}},
                    "state.params.psi: eigpair vectors have non-finite entries",
                ),
                (
                    {"family": "white_noise", "params": {"psi": [[0, 0], [0, 0]], "p": 0.5}},
                    "state.params.psi: zero vector in eigpairs",
                ),
                (
                    [{"weight": 0.5, "vector": [[1, 0], [0, 0]]}, {"weight": 0.5, "vector": [[0, 0], [0, 0]]}],
                    "state[1].vector: zero vector in eigpairs",
                ),
                # each vector passes alone: the weights' message is the list's
                (
                    [{"weight": 1.5, "vector": [[1, 0], [0, 0]]}, {"weight": -0.5, "vector": [[0, 0], [1, 0]]}],
                    "negative weight -0.5",
                ),
                (
                    {"family": "bell_diagonal", "params": {"weights": [1.0], "d": 1}},
                    "state.params.d: bell_diagonal needs integer d >= 2",
                ),
                (
                    {"family": "white_noise", "params": {"psi": [[1, 0], [0, 0]], "p": None}},
                    "state.params.p: expected a number, got None",
                ),
                ([{"weight": "x", "vector": [[1, 0], [0, 0]]}], "state[0].weight: expected a number, got 'x'"),
            )
        ),
    ],
)
def test_inputs_without_an_answer_exit_2_with_one_error_line(tmp_path, capsys, state, hams, argv, message):
    # hams: None (an example brings its own Hamiltonians), the dimension of
    # random ones, or their specs
    data = {"state": state}
    if isinstance(hams, int):
        hams = _random_hamiltonians(np.random.default_rng(2), hams)
    if hams is not None:
        data["hamiltonians"] = hams
    path = _write(tmp_path, "bad.json", data)
    assert _run(capsys, [argv[0], path, *argv[1:]]) == (2, "", f"error: {message}\n")


def _spins(sites, on, axes):
    return [
        {"family": "local_spin", "params": {"sites": sites, "site": s, "axis": list(a)}}
        for s, a in zip(on, axes)
    ]


def _ket(dim):
    return [[1, 0]] + [[0, 0]] * (dim - 1)


def _basis_state(dim):
    return {"family": "pure", "params": {"vector": _ket(dim)}}


@pytest.mark.parametrize("sites", [40, 10**340])
def test_a_local_spin_register_past_max_sites_exits_2(tmp_path, capsys, sites):
    # 2^sites once was formed unchecked: 4 GiB at 40 sites, and a run until
    # the process was killed at 341 digits
    hams = _spins(2, [0], [[1.0, 0.0, 0.0]]) + _spins(sites, [0], [[0.0, 0.0, 1.0]])
    path = _write(tmp_path, "sites.json", {"state": _basis_state(4), "hamiltonians": hams})
    message = f"hamiltonians[1].params.sites: expected at most {MAX_SITES} sites, got {sites}"
    assert _run(capsys, ["classify", path, "--json"]) == (2, "", f"error: {message}\n")


def test_a_local_spin_register_is_checked_against_the_state_before_it_is_built(tmp_path, capsys):
    # one dense Hamiltonian on 12 qubits would be 256 MiB
    path = _write(
        tmp_path,
        "sites.json",
        {"state": _basis_state(4), "hamiltonians": _spins(MAX_SITES, [0, 5], [[1.0, 0.0, 0.0]] * 2)},
    )
    result, peak = _traced_run(capsys, ["classify", path, "--json"])
    message = "descriptor: state dimension 4 does not match Hamiltonian dimension 4096"
    assert result == (2, "", f"error: {message}\n")
    assert peak < 2**20


@pytest.mark.parametrize(
    "state, dim",
    [
        ({"family": "maximally_mixed", "params": {"dim": 2048}}, 2048),
        ({"family": "pure", "params": {"vector": _ket(2048)}}, 2048),
        ({"family": "white_noise", "params": {"psi": _ket(2048), "p": 0.5}}, 2048),
        ([{"weight": 0.5, "vector": _ket(1024)}, {"weight": 0.5, "vector": _ket(1024)[::-1]}], 1024),
        ({"family": "bell_diagonal", "params": {"weights": [1.0], "d": 32}}, 1024),
    ],
)
def test_a_state_is_checked_against_the_hamiltonians_before_it_is_built(tmp_path, capsys, state, dim):
    # the 2048 x 2048 maximally mixed state was once built and diagonalized
    # first: 3.8 s and a tracemalloc peak of 256 MiB before it exited 2
    path = _write(tmp_path, "state.json", {"state": state, "hamiltonians": [SX, SZ]})
    result, peak = _traced_run(capsys, ["classify", path, "--json"])
    message = f"descriptor: state dimension {dim} does not match Hamiltonian dimension 2"
    assert result == (2, "", f"error: {message}\n")
    assert peak < 2**20
    # Hamiltonians of two dimensions once let the state be built first too:
    # 3.9 s and a 256 MiB peak at dim 2048
    hams = [SX, _random_hamiltonians(np.random.default_rng(2), 4)[0]]
    path = _write(tmp_path, "hams.json", {"state": state, "hamiltonians": hams})
    result, peak = _traced_run(capsys, ["classify", path, "--json"])
    assert result == (2, "", "error: Hamiltonians have mismatched dimensions\n")
    assert peak < 2**20


def _w_pair(n, lam=0.3):
    """EX5's W-type pair on n qubits as an eigpair list: weights lam and
    1 - lam on psi_+- = sum_k omega^(+-k) |e_k> / sqrt(n), |e_k> the state
    with one excitation, on qubit k, and omega = exp(2 pi i / n)."""
    pairs = []
    for weight, sign in ((lam, 1), (1.0 - lam, -1)):
        vec = np.zeros(2**n, dtype=complex)
        for k in range(n):
            vec[1 << (n - 1 - k)] = np.exp(2j * np.pi * sign * k / n) / np.sqrt(n)
        pairs.append({"weight": weight, "vector": [[z.real, z.imag] for z in vec.tolist()]})
    return pairs


def _budget_message(dim, m):
    need = conditions.point_bytes(dim, m) / 2**20
    limit = conditions.MAX_POINT_BYTES / 2**20
    return (
        f"a problem of dimension {dim} with m = {m} parameters needs an estimated "
        f"{need:.1f} MiB to classify, past the {limit:.1f} MiB limit"
    )


# the W pair's two vectors of 4096 [re, im] pairs take 1.4 MiB to parse
@pytest.mark.parametrize(
    "state, mib", [({"family": "maximally_mixed", "params": {"dim": 4096}}, 1), (_w_pair(12), 2)]
)
def test_a_problem_past_the_byte_limit_exits_2_before_it_is_built(tmp_path, capsys, state, mib):
    # one sigma_z per qubit on 12 qubits: 18.5 GiB by the byte model, which
    # nothing capped; the state is never built
    hams = _spins(12, range(12), [[0.0, 0.0, 1.0]] * 12)
    path = _write(tmp_path, "big.json", {"state": state, "hamiltonians": hams})
    result, peak = _traced_run(capsys, ["classify", path, "--json"])
    assert result == (2, "", f"error: {_budget_message(4096, 12)}\n")
    assert peak < mib * 2**20


def test_the_byte_limit_admits_a_problem_at_its_edge(tmp_path, capsys, monkeypatch):
    state = {"family": "white_noise", "params": {"psi": [[0.6, 0], [0, 0], [0, 0], [0, 0.8]], "p": 0.5}}
    hams = _spins(2, [0, 1], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    path = _write(tmp_path, "edge.json", {"state": state, "hamiltonians": hams})
    ex2 = _write(tmp_path, "ex2.json", {"state": {"family": "example", "params": {"id": "EX2"}}})
    edge = conditions.point_bytes(4, 2)
    monkeypatch.setattr(conditions, "MAX_POINT_BYTES", edge)
    assert _run(capsys, ["classify", path, "--json"])[0] == 0
    assert _run(capsys, ["sweep", path, "--param", "p", "--grid", "0:1:3"])[0] == 0
    # EX2's dim fixes its shapes (m = 2): dim 4 is at the edge, 5 past it, and
    # a sweep of dim fails at that point before it is built
    assert _run(capsys, ["classify", ex2, "--json"])[0] == 0
    message = _budget_message(5, 2)
    argv = ["sweep", ex2, "--param", "dim", "--grid", "3:5:3"]
    assert _run(capsys, argv) == (2, "", f"error: grid value dim=5: {message}\n")
    monkeypatch.setattr(conditions, "MAX_POINT_BYTES", edge - 1)
    for argv in (["classify", path, "--json"], ["sweep", path, "--param", "p", "--grid", "0:1:3"]):
        assert _run(capsys, argv) == (2, "", f"error: {_budget_message(4, 2)}\n")


def test_the_byte_limit_admits_nine_sites_of_the_w_pair():
    # nine qubits, nine sigma_z terms: 184 MiB by the byte model (one pair
    # product at a time), inside the limit; twelve are not
    assert conditions.point_bytes(512, 9) == 184 * 2**20
    conditions.check_point_bytes(512, 9)
    with pytest.raises(ValidationError, match="dimension 4096 with m = 12"):
        conditions.check_point_bytes(4096, 12)


def test_the_w_pair_on_seven_qubits_classifies_without_a_stack_of_pair_commutators(
    tmp_path, capsys
):
    # the 21 pair commutators of d = 128 are summed four at a time: a stack of
    # all of them took the peak to 18.5 MiB
    hams = _spins(7, range(7), [[0.0, 0.0, 1.0]] * 7)
    path = _write(tmp_path, "w7.json", {"state": _w_pair(7), "hamiltonians": hams})
    (code, out, _), peak = _traced_run(capsys, ["classify", path, "--json"])
    assert code == 0
    assert json.loads(out)["norms"]["P"] == pytest.approx(128 / 7 * 0.3 * 0.7, rel=1e-12)
    assert peak < 10 * 2**20


K_OVERFLOW = "K = sum_i theta_i H_i overflows: theta is too large"


@pytest.mark.parametrize(
    "sites, on, axes, theta, message",
    [
        # a qubit's own term k_s overflows
        (1, [0, 0], [[1.0, 0.0, 0.0]] * 2, [1e308, 1e308], K_OVERFLOW),
        # each k_s is finite, and the sum of their eigenvalues overflows
        (3, [0, 1, 2], [[0.0, 0.0, 1.0]] * 3, [8e307] * 3, K_OVERFLOW),
        (
            2,
            [0, 1],
            [[1e300, 0.0, 0.0], [0.0, 1e300, 0.0]],
            [0.0, 0.0],
            "the condition matrices overflow: the Hamiltonians are too large",
        ),
    ],
)
def test_a_local_set_overflows_with_the_message_of_its_dense_matrices(
    tmp_path, capsys, sites, on, axes, theta, message
):
    pauli = (examples.PAULI_X, examples.PAULI_Y, examples.PAULI_Z)
    spins = _spins(sites, on, axes)
    dense = [
        matrix_to_json(LocalSpin(sites, s, sum(a * p for a, p in zip(axis, pauli))).matrix())
        for s, axis in zip(on, axes)
    ]
    for hams in (spins, dense):
        data = {"state": _basis_state(2**sites), "hamiltonians": hams, "theta": theta}
        path = _write(tmp_path, "overflow.json", data)
        assert _run(capsys, ["classify", path, "--json"]) == (2, "", f"error: {message}\n")


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit set")
@pytest.mark.parametrize("where", ["descriptor", "weight"])
def test_an_integer_past_the_digit_limit_is_malformed_json(tmp_path, capsys, where):
    # json.loads raises a plain ValueError for such a literal, which once
    # ended in a traceback with exit 1
    limit = sys.get_int_max_str_digits()
    digits = "1" + "0" * limit
    long = tmp_path / "long.json"
    if where == "descriptor":
        long.write_text('{"state": {"family": "example", "params": {"id": "EX4", "p": %s}}}' % digits)
        argv = ["classify", str(long)]
    else:
        long.write_text('{"dim": 1, "entries": [[%s, 0]]}' % digits)
        argv = ["classify", _example_descriptor(tmp_path, "EX4"), "--weight", str(long)]
    message = f"error: malformed JSON: Exceeds the limit ({limit} digits) for integer string conversion\n"
    assert _run(capsys, argv) == (2, "", message)


@pytest.mark.parametrize(
    "where, key",
    [("top", "theta"), ("params", "p"), ("eigpair", "weight"), ("weight", "dim")],
)
def test_a_repeated_key_exits_2_with_one_error_line(tmp_path, capsys, where, key):
    # json alone keeps the last value: EX4 at "p": 0.3, "p": 0.6 classified at 0.6
    texts = {
        "top": (
            '{"state": {"family": "example", "params": {"id": "EX4"}},'
            ' "theta": [0.1, 0.2], "theta": [0.3, 0.4]}'
        ),
        "params": '{"state": {"family": "example", "params": {"id": "EX4", "p": 0.3, "p": 0.6}}}',
        "eigpair": (
            '{"state": [{"weight": 0.5, "vector": [[1, 0], [0, 0]], "weight": 0.5},'
            ' {"weight": 0.5, "vector": [[0, 0], [1, 0]]}],'
            ' "hamiltonians": [%s, %s]}' % (json.dumps(SZ), json.dumps(SX))
        ),
        "weight": '{"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]], "dim": 2}',
    }
    path = tmp_path / "dup.json"
    path.write_text(texts[where])
    if where == "weight":
        runs = [["classify", _example_descriptor(tmp_path, "EX4"), "--weight", str(path)]]
    else:
        sweep = ["sweep", str(path), "--param", "p", "--grid", "0.1:0.2:2"]
        runs = [["classify", str(path), "--json"], sweep]
    for argv in runs:
        assert _run(capsys, argv) == (2, "", f'error: malformed JSON: duplicate key "{key}"\n')


@pytest.mark.parametrize(
    "state",
    [
        lambda v: [{"weight": 0.75, "vector": v}, {"weight": 0.25, "vector": [[0, 0], [1, 0]]}],
        lambda v: {"family": "pure", "params": {"vector": v}},
        lambda v: {"family": "white_noise", "params": {"psi": v, "p": 0.5}},
    ],
    ids=["eigpairs", "pure", "white_noise"],
)
def test_a_vector_whose_norm_overflows_classifies_as_its_direction(tmp_path, capsys, state):
    # the norm of [1e200, 0] overflows: it once printed numpy's overflow
    # warning and was rejected as a zero vector
    hams = _random_hamiltonians(np.random.default_rng(5), 2)
    outputs = [
        _run(capsys, ["classify", _write(tmp_path, "v.json", {"state": state(v), "hamiltonians": hams}), "--json"])
        for v in ([[1e200, 0], [0, 0]], [[1, 0], [0, 0]])
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][2] == ""


def _white_noise_descriptor(tmp_path):
    # p = 1 is a pure state (rank 1); every p < 1 is full rank (rank 4)
    return _write(
        tmp_path,
        "noise.json",
        {
            "state": {
                "family": "white_noise",
                "params": {"psi": [[0.6, 0], [0, 0.3], [0, 0], [0.5, -0.2]], "p": 0.5},
            },
            "hamiltonians": [
                {"family": "local_spin", "params": {"sites": 2, "site": 0, "axis": [1.0, 0.0, 0.4]}},
                {"family": "local_spin", "params": {"sites": 2, "site": 1, "axis": [0.3, 1.0, 0.0]}},
                {"family": "local_spin", "params": {"sites": 2, "site": 0, "axis": [0.0, 0.2, 1.0]}},
            ],
            "theta": [0.4, -0.3, 0.8],
        },
    )


def test_sweep_across_a_rank_change_matches_per_point_reports(tmp_path, capsys):
    path = _white_noise_descriptor(tmp_path)
    grid = np.linspace(0.6, 1.0, 5)
    code, out, _ = _run(capsys, ["sweep", path, "--param", "p", "--grid", "0.6:1:5"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    desc = parse_descriptor(open(path).read())
    ranks = []
    for value, cells in zip(grid, rows):
        rho, hs, theta, _ = resolve(with_parameter(desc, "p", float(value)))
        ranks.append(rho.rank)
        # the row a per-point classify gives, formatted as the CSV prints it
        assert cells == _sweep_row("p", float(value), classify(rho, hs, theta=theta))
        assert cells[10] != "singular"
    assert ranks == [4, 4, 4, 4, 1]


def test_sweep_chunks_encode_once_each_and_match_one_chunk(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "ex8.json", {"state": {"family": "example", "params": {"id": "EX8"}}})
    argv = ["sweep", path, "--param", "az", "--grid=-1:1:7"]
    encodes = count_calls(monkeypatch, encode_stack)
    code, whole, _ = _run(capsys, argv)
    assert code == 0
    assert [len(args[0]) for args in encodes] == [7]
    # EX8 is d = 4, m = 2: a cap of three such problems cuts 7 points into
    # batches of 3, 3 and 1
    monkeypatch.setattr(conditions, "CHUNK_BYTES", 3 * conditions.point_bytes(4, 2))
    encodes.clear()
    code, split, _ = _run(capsys, argv)
    assert code == 0
    assert [len(args[0]) for args in encodes] == [3, 3, 1]
    assert split == whole


def test_sweep_peak_memory_follows_the_chunk_not_the_grid(tmp_path, capsys, monkeypatch):
    sites, points = 5, 12
    rng = np.random.default_rng(71)
    psi = rng.normal(size=2**sites) + 1j * rng.normal(size=2**sites)
    desc = {
        "state": {
            "family": "white_noise",
            "params": {"psi": [[z.real, z.imag] for z in psi], "p": 0.5},
        },
        "hamiltonians": [
            {"family": "local_spin", "params": {"sites": sites, "site": s, "axis": [1.0, 0.3, 0.2]}}
            for s in range(3)
        ],
        "theta": [0.3, -0.2, 0.5],
    }
    path = _write(tmp_path, "wn32.json", desc)
    argv = ["sweep", path, "--param", "p", f"--grid=0.1:0.9:{points}"]
    # four d = 32, m = 3 problems per chunk; the whole grid would hold three times that
    cap = 4 * conditions.point_bytes(32, 3)
    monkeypatch.setattr(conditions, "CHUNK_BYTES", cap)
    encodes = count_calls(monkeypatch, encode_stack)
    slds = count_calls(monkeypatch, sld_row_stack)
    (code, _, _), peak = _traced_run(capsys, argv)
    assert code == 0
    # p moves only the state: each chunk encodes its shared Hamiltonians,
    # one set in product form, once, and takes its SLD rows from the blocks
    assert [type(args[0]) for args in encodes] == [LocalSpinStack] * 3
    assert [broadcast_points([args]) for args in slds] == [4, 4, 4]
    assert peak < cap + conditions.point_bytes(32, 3)


def test_sweep_out_of_domain_point_names_its_value(tmp_path, capsys, monkeypatch):
    # EX8 needs lam1 + lam2 < 1 with lam2 = 0.2: lam1 = 0.8 and 0.9 are both out of
    # domain, and the first of them in grid order is the one named
    path = _write(tmp_path, "ex8.json", {"state": {"family": "example", "params": {"id": "EX8"}}})
    argv = ["sweep", path, "--param", "lam1", "--grid", "0.5:0.9:5"]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: grid value lam1=0.8: out-of-domain parameters")
    # in batches of three points the bad value sits in the second batch: the
    # first batch is classified, its shared Hamiltonians encoded once, but no
    # row of it is printed
    monkeypatch.setattr(conditions, "CHUNK_BYTES", 3 * conditions.point_bytes(4, 2))
    encodes = count_calls(monkeypatch, encode_stack)
    slds = count_calls(monkeypatch, sld_row_stack)
    assert _run(capsys, argv) == (code, out, err)
    assert [len(args[0]) for args in encodes] == [1]
    assert broadcast_points(slds) == 3


@pytest.mark.parametrize(
    "ex_id, argv, points",
    [
        ("EX4", ["classify", "{path}"], 1),
        ("EX9", ["classify", "{path}", "--json"], 1),
        ("EX8", ["sweep", "{path}", "--param", "az", "--grid", "0.1:0.9:3"], 3),
        ("EX9", ["sweep", "{path}", "--param", "lam", "--grid", "0.2:0.8:4", "--jobs", "2"], 4),
    ],
)
def test_one_encode_and_sld_pass_per_point(tmp_path, capsys, monkeypatch, ex_id, argv, points):
    path = _write(
        tmp_path, "ex.json", {"state": {"family": "example", "params": {"id": ex_id}}}
    )
    encodes = count_calls(monkeypatch, encode_stack)
    slds = count_calls(monkeypatch, sld_row_stack)
    resolves = count_calls(monkeypatch, resolve)
    code, _, _ = _run(capsys, [a.format(path=path) for a in argv])
    assert code == 0
    # all of a request's points in one stacked pass, each point's SLD rows
    # once; the encoding stacks one problem per distinct Hamiltonian set, so
    # once per request unless the swept parameter moves the Hamiltonians
    name = argv[argv.index("--param") + 1] if "--param" in argv else None
    encoded = points if name in examples.example_halves(ex_id)[2].reads else 1
    assert stacked_points(encodes) == encoded
    assert broadcast_points(slds) == points
    assert len(encodes) == len(slds) == 1
    if argv[0] == "classify":
        assert len(resolves) == 1


def test_selftest_runs_and_is_deterministic(capsys):
    code1, out1, _ = _run(capsys, ["selftest", "--seed", "7", "--draws", "3"])
    code2, out2, _ = _run(capsys, ["selftest", "--seed", "7", "--draws", "3"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("self-test seed=7 draws=3")
    assert "total violations: 0" in out1


# seeded outputs recorded under tests/data: a change that moves any printed
# number, flag or line shows here as a diff
@pytest.mark.parametrize(
    "argv, pinned",
    [
        (["example", "all", "--json"], "example_all.json"),
        (["selftest", "--seed", "42", "--draws", "100"], "selftest_seed42_draws100.txt"),
    ],
)
def test_seeded_outputs_match_the_pinned_files_byte_for_byte(capsys, argv, pinned):
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / pinned).read_bytes()


def test_selftest_exits_1_on_a_nan_route(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "weak_integral", nan_weak_integral)
    code, out, _ = _run(capsys, ["selftest", "--seed", "7", "--draws", "2"])
    assert code == 1
    assert "violations=2   worst=nan" in out
    assert "total violations: 2" in out


def test_main_reuses_one_parser(capsys):
    # building the parser costs about 1 ms; main builds it once per process
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep"])
    assert exit_info.value.code == 2
    assert "the following arguments are required" in capsys.readouterr().err
    assert main(["example", "EX4"]) == 0


def test_selftest_rejects_zero_draws(capsys):
    code, _, err = _run(capsys, ["selftest", "--seed", "1", "--draws", "0"])
    assert code == 2
    assert "draws" in err


# (example id, parameter, a:b:5 grid) for every numeric sweepable parameter of
# every configuration example; the EX8 lam1 grid crosses both weight-order
# changes (lam1 = lam2 = 0.2 and lam1 = 1 - lam1 - lam2 at 0.4)
SWEEP_GRIDS = [
    ("EX2", "dim", "2:6"), ("EX2", "p", "0.2:1"), ("EX2", "seed", "1:5"),
    ("EX3", "alpha", "0.9:2.2"), ("EX3", "lam", "0.1:0.9"),
    ("EX4", "p", "0.1:0.9"),
    ("EX5", "lam", "0.1:0.9"),
    ("EX7", "alpha", "0.9:2.2"), ("EX7", "lam", "0.1:0.9"),
    ("EX7", "a", "-1:1"), ("EX7", "a_prime", "-1:1"),
    ("EX8", "lam1", "0.1:0.6"), ("EX8", "lam2", "0.1:0.6"),
    ("EX8", "ax", "-1:1"), ("EX8", "az", "-1:1"), ("EX8", "bx", "-1:1"), ("EX8", "bz", "-1:1"),
    ("EX9", "lam", "0.1:0.9"), ("EX9", "a", "-1:1"), ("EX9", "a_prime", "-1:1"),
    ("EX10", "dim", "4:4"), ("EX10", "lam", "0.1:0.9"),
    ("EX10", "ax", "-1:1"), ("EX10", "az", "-1:1"),
    ("OBS7", "lam", "0.1:0.9"),
]


def _example_descriptor(tmp_path, ex_id):
    desc = {"state": {"family": "example", "params": {"id": ex_id}}}
    return _write(tmp_path, f"{ex_id}.json", desc)


def _per_point_rows(path, name, grid):
    """The CSV rows a classify of each grid point on its own gives."""
    desc = parse_descriptor(open(path).read())
    rows = []
    for value in grid:
        rho, hs, theta, _ = resolve(with_parameter(desc, name, float(value)))
        report = classify(rho, hs, theta=theta, tol=desc.zero_tol)
        rows.append(",".join(_sweep_row(name, float(value), report)))
    return rows


def test_sweep_grids_cover_every_sweepable_parameter():
    for ex_id in ("EX2", "EX3", "EX4", "EX5", "EX7", "EX8", "EX9", "EX10", "OBS7"):
        desc = parse_descriptor({"state": {"family": "example", "params": {"id": ex_id}}})
        swept = {name for ex, name, _ in SWEEP_GRIDS if ex == ex_id}
        assert swept == set(sweepable_parameters(desc)), ex_id


@pytest.mark.parametrize("ex_id, name, span", SWEEP_GRIDS)
def test_sweep_rows_match_per_point_classify(tmp_path, capsys, ex_id, name, span):
    path = _example_descriptor(tmp_path, ex_id)
    code, out, err = _run(capsys, ["sweep", path, "--param", name, f"--grid={span}:5"])
    assert (code, err) == (0, ""), err
    lo, hi = (float(x) for x in span.split(":"))
    assert out.splitlines()[1:] == _per_point_rows(path, name, np.linspace(lo, hi, 5))


# (example id, parameter, a:b:5 grid, cap): SWEEP_GRIDS in batches of at
# most three points (test_sweep_rows_match_per_point_classify runs them in
# one batch), and, at both sizes, the grids where a batch is most likely to
# part from a point on its own: EX8's weight order flips at lam1 = lam2 = 0.2
# inside the batch, EX4's smaller weight, about 0.75 (1 - p), drops below the
# rank cutoff at the last point, and EX5 fails at lam = 1, in the second of
# two batches at a cap of three points. So do values that fail inside a batch
# that is built as one array: EX8's lam1 = 0.9 (lam1 + lam2 >= 1), EX10's
# dim = 4.25 and white noise's p = 1.3
STACKED_GRIDS = [(*grid, 3) for grid in SWEEP_GRIDS] + [
    (*grid, cap)
    for grid in [
        ("EX8", "lam1", "0.1:0.3"),
        ("EX4", "p", "0.999999999:0.99999999999"),
        ("EX5", "lam", "0.2:1"),
        ("EX8", "lam1", "0.4:0.9"),
        ("EX10", "dim", "4:5"),
        ("white_noise", "p", "0.1:1.3"),
    ]
    for cap in (None, 3)
]


def _per_point_output(path, name, grid):
    """(code, stdout, stderr) of a sweep whose points are each resolved and
    classified on their own."""
    desc = parse_descriptor(open(path).read())
    lines = [",".join(SWEEP_COLUMNS)]
    for value in grid:
        try:
            rho, hs, theta, _ = resolve(with_parameter(desc, name, float(value)))
        except ValidationError as err:
            return 2, "", f"error: grid value {name}={value:g}: {err}\n"
        report = classify(rho, hs, theta=theta, tol=desc.zero_tol)
        lines.append(",".join(_sweep_row(name, float(value), report)))
    return 0, "\n".join(lines) + "\n", ""


@pytest.mark.parametrize("ex_id, name, span, cap", STACKED_GRIDS)
def test_stacked_sweep_matches_per_point_classify(
    tmp_path, capsys, monkeypatch, ex_id, name, span, cap
):
    # a cap of three points of the descriptor's own shape
    if ex_id == "white_noise":
        path = _white_noise_descriptor(tmp_path)
    else:
        path = _example_descriptor(tmp_path, ex_id)
    if cap is not None:
        rho, hs = resolve(parse_descriptor(open(path).read()))[:2]
        monkeypatch.setattr(conditions, "CHUNK_BYTES", cap * conditions.point_bytes(rho.dim, hs.m))
    lo, hi = (float(x) for x in span.split(":"))
    expected = _per_point_output(path, name, np.linspace(lo, hi, 5))
    assert _run(capsys, ["sweep", path, "--param", name, f"--grid={span}:5"]) == expected


def test_white_noise_sweep_rows_match_per_point_classify(tmp_path, capsys):
    path = _white_noise_descriptor(tmp_path)
    code, out, _ = _run(capsys, ["sweep", path, "--param", "p", "--grid", "0.2:1:5"])
    assert code == 0
    assert out.splitlines()[1:] == _per_point_rows(path, "p", np.linspace(0.2, 1.0, 5))


def _sweep(desc, name, grid):
    """The number of points resolve_grid resolves, the descriptor resolved
    first as the sweep command resolves it."""
    return sum(stack.n for stack in resolve_grid(desc, name, grid, resolve_halves(desc)))


# The counts are of resolve_grid, the path cmd_sweep draws its points from,
# and of the sweep command, whose validating resolve builds the fixed parts
# that resolve_grid then shares.
@pytest.mark.parametrize("ex_id, name", [("EX5", "lam"), (None, "p")])
def test_sweep_builds_its_hamiltonians_once(tmp_path, capsys, monkeypatch, ex_id, name):
    if ex_id is None:
        path = _white_noise_descriptor(tmp_path)
    else:
        path = _example_descriptor(tmp_path, ex_id)
    desc = parse_descriptor(open(path).read())
    hamsets = count_calls(monkeypatch, hamiltonian_set)
    assert _sweep(desc, name, np.linspace(0.2, 0.8, 9)) == 9
    assert len(hamsets) == 1
    hamsets.clear()
    code, _, _ = _run(capsys, ["sweep", path, "--param", name, "--grid", "0.2:0.8:9"])
    assert code == 0
    assert len(hamsets) == 1


# SWEEP_GRIDS whose parameter leaves the vectors fixed: a sweep builds each
# half that its parameter moves once per batch, on the batch's values as one
# array (examples.Half)
BATCH_GRIDS = [grid for grid in SWEEP_GRIDS if grid[1] not in examples.example_halves(grid[0])[1].vectors.reads]


@pytest.mark.parametrize("ex_id, name, span", BATCH_GRIDS)
def test_a_batch_build_is_the_stack_of_its_one_point_builds(ex_id, name, span):
    p, state, hamiltonians = examples.example_halves(ex_id)
    values = np.linspace(*(float(x) for x in span.split(":")), 5)
    moving = [half for half in (state.weights, hamiltonians) if name in half.reads]
    assert moving
    for half in moving:
        batch = half.build({**p, name: values})
        points = np.stack([half.build({**p, name: float(v)}) for v in values])
        assert (batch.shape, batch.tobytes()) == (points.shape, points.tobytes())


def test_a_batch_of_white_noise_weights_is_the_stack_of_its_points():
    values = np.linspace(0.0, 1.0, 7)
    batch = states.white_noise_weights(values, 5)
    points = np.stack([states.white_noise_weights(float(v), 5) for v in values])
    # and each point is the closed form, summed as written
    literal = np.array([[v + (1.0 - v) / 5] + [(1.0 - v) / 5] * 4 for v in values.tolist()])
    assert batch.tobytes() == points.tobytes() == literal.tobytes()


def test_a_one_batch_sweep_builds_its_hamiltonians_twice(tmp_path, capsys, monkeypatch):
    # once at the descriptor's own az, for the sweep's validating resolve,
    # and once for the batch, on its nine values as one array
    ex = examples._EXAMPLES["EX8"]
    shapes = []

    def counted(p):
        shapes.append(np.shape(p["az"]))
        return ex.hamiltonians.build(p)

    counted_ex = ex._replace(hamiltonians=ex.hamiltonians._replace(build=counted))
    monkeypatch.setitem(examples._EXAMPLES, "EX8", counted_ex)
    path = _example_descriptor(tmp_path, "EX8")
    code, out, _ = _run(capsys, ["sweep", path, "--param", "az", "--grid=-1:1:9"])
    assert (code, len(out.splitlines())) == (0, 10)
    assert shapes == [(), (9,)]


def test_sweep_checks_the_state_matrices_of_a_batch_as_one_stack(tmp_path, monkeypatch):
    # EX4's p moves the weights on two non-orthogonal vectors, so each point
    # has a state matrix: a batch diagonalizes them in one eigh_descending
    # call, after the one of the descriptor's own resolve, and checks none
    # of them as density_matrix checks an outside matrix
    desc = parse_descriptor(open(_example_descriptor(tmp_path, "EX4")).read())
    singles = count_calls(monkeypatch, states.density_matrix)
    stacks = count_calls(monkeypatch, states.eigh_descending)
    assert _sweep(desc, "p", np.linspace(0.2, 0.8, 9)) == 9
    assert len(singles) == 0
    assert [len(args[0]) for args in stacks] == [1, 9]
    monkeypatch.setattr(conditions, "CHUNK_BYTES", 4 * conditions.point_bytes(4, 2))
    stacks.clear()
    assert _sweep(desc, "p", np.linspace(0.2, 0.8, 9)) == 9
    assert [len(args[0]) for args in stacks] == [1, 4, 4, 1]


def _white_noise_d9(tmp_path):
    rng = np.random.default_rng(3)
    psi = rng.normal(size=9) + 1j * rng.normal(size=9)
    desc = {
        "state": {"family": "white_noise", "params": {"psi": [[z.real, z.imag] for z in psi], "p": 0.5}},
        "hamiltonians": _random_hamiltonians(rng, 9),
        "theta": [0.2, -0.1],
    }
    return _write(tmp_path, "noise9.json", desc)


@pytest.mark.parametrize("state, name", [("EX10", "lam"), ("white_noise", "p")])
def test_sweep_of_a_closed_form_spectrum_builds_no_state_matrix(tmp_path, monkeypatch, state, name):
    # EX10's lam and white noise's p (here at d = 9) move the weights
    # [a, b, ..., b] on a basis that the descriptor's own resolve builds and
    # completes (white_noise_vectors checks psi, completes it with one QR and
    # checks the basis, which is complete already): no point builds or
    # diagonalizes a state matrix, and the d - 1 tied weights b keep one
    # weight order, so every batch shares that basis
    path = _white_noise_d9(tmp_path) if state == "white_noise" else _example_descriptor(tmp_path, state)
    desc = parse_descriptor(open(path).read())
    singles = count_calls(monkeypatch, states.density_matrix)
    stacks = count_calls(monkeypatch, states.eigh_descending)
    built = count_calls(monkeypatch, EigpairVectors)
    completions = count_calls(monkeypatch, states._orthonormal_completion)
    halves = resolve_halves(desc)
    dim = halves.problem[0].dim
    assert (len(built), len(completions)) == (2, 1)
    # two batches of four points and one of one
    monkeypatch.setattr(conditions, "CHUNK_BYTES", 4 * conditions.point_bytes(dim, 2))
    problems = list(resolve_grid(desc, name, np.linspace(0.3, 0.9, 9), halves))
    assert sum(stack.n for stack in problems) == 9
    assert all(len(stack.vectors) == 1 for stack in problems)
    assert (len(singles), len(stacks), len(built), len(completions)) == (0, 0, 2, 1)


def test_sweep_validates_and_completes_fixed_eigpair_vectors_once(tmp_path, monkeypatch):
    desc = parse_descriptor(open(_example_descriptor(tmp_path, "EX8")).read())
    built = count_calls(monkeypatch, EigpairVectors)
    completions = count_calls(monkeypatch, states._orthonormal_completion)
    _sweep(desc, "az", np.linspace(-1.0, 1.0, 9))
    assert (len(built), len(completions)) == (1, 1)
    # lam1 moves the weights: one completion per descending-weight order
    grid = np.linspace(0.1, 0.6, 9)
    orders = {tuple(np.argsort([v, 0.2, 1.0 - v - 0.2])[::-1]) for v in grid}
    assert len(orders) == 3
    built.clear()
    completions.clear()
    _sweep(desc, "lam1", grid)
    assert (len(built), len(completions)) == (1, len(orders))


@pytest.mark.parametrize(
    "ex_id, name, grid, bad",
    [
        # 3 pi / 4 = 2.356: alpha = 2.45 and 2.6 are out of domain
        ("EX3", "alpha", "2.0:2.6:5", "alpha=2.45: out-of-domain parameters: cot^2(alpha)"),
        ("EX5", "lam", "0.2:1:5", "lam=1: out-of-domain parameters: lam must be in (0, 1)"),
    ],
)
def test_sweep_names_the_first_bad_value_of_a_cached_half(
    tmp_path, capsys, monkeypatch, ex_id, name, grid, bad
):
    path = _example_descriptor(tmp_path, ex_id)
    argv = ["sweep", path, "--param", name, "--grid", grid]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: grid value {bad}")
    assert err.count("\n") == 1
    # in batches of three points the bad value sits in the second batch; the
    # first batch encodes its shared Hamiltonians once
    rho, hs = examples.example_configuration(ex_id)
    monkeypatch.setattr(conditions, "CHUNK_BYTES", 3 * conditions.point_bytes(rho.dim, hs.m))
    encodes = count_calls(monkeypatch, encode_stack)
    slds = count_calls(monkeypatch, sld_row_stack)
    assert _run(capsys, argv) == (code, out, err)
    assert [len(args[0]) for args in encodes] == [1]
    assert broadcast_points(slds) == 3

"""Command-line behavior: output formats, exit codes, and the frozen
sweep CSV column contract."""

import json

import numpy as np
import pytest

from conftest import count_calls
from metrocommute.cli import SWEEP_COLUMNS, main
from metrocommute.descriptors import resolve
from metrocommute.encoding import encode
from metrocommute.sld import sld_rotated

SZ = {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [-1, 0]]}
SX = {"dim": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_classify_rank_tol_override_reaches_the_resolve(tmp_path, capsys):
    path = _write(
        tmp_path,
        "near_pure.json",
        {
            "state": [
                {"weight": 1.0 - 1e-7, "vector": [[1, 0], [0, 0]]},
                {"weight": 1e-7, "vector": [[0, 0], [1, 0]]},
            ],
            "hamiltonians": [SZ, SX],
            "tolerances": {"rank_tol": 1e-6},
        },
    )
    code, out, _ = _run(capsys, ["classify", path, "--json"])
    assert code == 0
    assert json.loads(out)["rank"] == 1
    code, out, _ = _run(capsys, ["classify", path, "--json", "--rank-tol", "1e-8"])
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 2
    assert report["tolerances"]["rank_tol"] == 1e-8


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
    code, _, err = _run(capsys, ["classify", path, "--zero-tol", "-1"])
    assert code == 2
    assert "positive" in err


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
    for grid in ("nan:1:3", "0:inf:3"):
        code, _, err = _run(capsys, ["sweep", path, "--param", "p", "--grid", grid])
        assert code == 2
        assert "--grid" in err and "finite" in err
    monkeypatch.setenv("METROCOMMUTE_JOBS", "abc")
    code, _, err = _run(capsys, ["sweep", path, "--param", "p", "--grid", "0.1:0.9:3"])
    assert code == 2
    assert "METROCOMMUTE_JOBS" in err


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
    encodes = count_calls(monkeypatch, encode)
    slds = count_calls(monkeypatch, sld_rotated)
    resolves = count_calls(monkeypatch, resolve)
    code, _, _ = _run(capsys, [a.format(path=path) for a in argv])
    assert code == 0
    assert len(encodes) == len(slds) == points
    if argv[0] == "classify":
        assert len(resolves) == 1


def test_selftest_runs_and_is_deterministic(capsys):
    code1, out1, _ = _run(capsys, ["selftest", "--seed", "7", "--draws", "3"])
    code2, out2, _ = _run(capsys, ["selftest", "--seed", "7", "--draws", "3"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("self-test seed=7 draws=3")
    assert "total violations: 0" in out1


def test_selftest_rejects_zero_draws(capsys):
    code, _, err = _run(capsys, ["selftest", "--seed", "1", "--draws", "0"])
    assert code == 2
    assert "draws" in err

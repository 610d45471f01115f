"""Worked-example reports: closed-form expectations, parameter handling,
and JSON round-tripping of the report dictionaries."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import count_calls, stacked_points
from metrocommute import examples
from metrocommute.conditions import classify_stack
from metrocommute.encoding import encode_stack
from metrocommute.examples import (
    EXAMPLE_IDS,
    PASS_TOL,
    default_parameters,
    example_configuration,
    run_all,
    run_example,
)
from metrocommute.operator_core import ValidationError
from metrocommute.states import white_noise_vectors


def test_all_reports_pass():
    reports = run_all()
    assert [r.id for r in reports] == EXAMPLE_IDS
    for r in reports:
        assert r.passed, f"{r.id} deviates by {r.max_abs_error:.3e}"
        assert r.max_abs_error <= PASS_TOL


def test_report_ids_complete():
    assert len(EXAMPLE_IDS) == 15
    assert EXAMPLE_IDS[:10] == [f"EX{i}" for i in range(1, 11)]


def test_unknown_example_id():
    with pytest.raises(ValidationError, match="unknown example id: EX99"):
        run_example("EX99")


SEED_DOMAIN = "out-of-domain parameters: seed must be a non-negative integer"
DRAWS_DOMAIN = "out-of-domain parameters: draws must be an integer >= 1"


@pytest.mark.parametrize(
    "ex_id, params, message",
    [
        ("OBS3", {"draws": 0}, DRAWS_DOMAIN),
        ("OBS5", {"draws": -3}, DRAWS_DOMAIN),
        ("EX1", {"draws": 2.9}, DRAWS_DOMAIN),
        ("EX1", {"draws": 0}, DRAWS_DOMAIN),
        ("EX1", {"seed": -1}, SEED_DOMAIN),
        ("EX6", {"seed": 1.5}, SEED_DOMAIN),
        ("OBS2", {"seed": -1}, SEED_DOMAIN),
        ("OBS3", {"seed": 0.5}, SEED_DOMAIN),
        ("OBS5", {"seed": -2, "draws": 0}, SEED_DOMAIN),
        ("EX2", {"seed": -1}, SEED_DOMAIN),
    ],
)
def test_seeded_examples_check_seed_and_draws(ex_id, params, message):
    # a seed is a non-negative integer and draws an integer >= 1, checked
    # before any draw, with the message EX2 gives for its seed
    with pytest.raises(ValidationError) as err:
        run_example(ex_id, params)
    assert str(err.value) == message
    # whole floats are taken as their integers
    whole = {key: float(default_parameters(ex_id)[key]) for key in params}
    assert run_example(ex_id, whole).as_dict() == run_example(ex_id).as_dict()


def test_unknown_parameter_lists_valid_names():
    with pytest.raises(ValidationError, match="valid names"):
        run_example("EX4", {"q": 0.5})


def test_a_nan_computed_value_fails_its_report(monkeypatch):
    # NaN compares false with every bound, so a gate written as dev > tol
    # would let this report pass
    monkeypatch.setattr(examples, "_ex2_closed", lambda *args: np.nan)
    rep = run_example("EX2")
    assert not rep.passed
    assert np.isnan(rep.max_abs_error)
    assert sorted(rep.failures) == ["W_12", "p_sweep_worst"]


def test_ex2_draws_each_hamiltonian_pair_once_per_half(monkeypatch):
    # the state half draws only the ket; the Hamiltonian half draws the ket
    # first, so both halves read the draws of the oracle's _ex2_draw
    p = default_parameters("EX2")
    psi, hams = examples._ex2_draw(p)
    kets = count_calls(monkeypatch, examples._rand_ket)
    herms = count_calls(monkeypatch, examples._rand_herm)
    _, hs = example_configuration("EX2", p)
    assert (len(kets), len(herms)) == (2, 2)
    assert np.array_equal(hs.batch[0], np.array(hams))
    assert np.array_equal(examples._ex2_vectors(p).v, white_noise_vectors(psi).v)
    kets.clear()
    herms.clear()
    # the oracle's draw, example_configuration and the p sweep's halves
    assert run_example("EX2").passed
    assert (len(kets), len(herms)) == (5, 6)


def test_default_parameters_are_copies():
    p = default_parameters("EX4")
    p["p"] = 0.99
    assert default_parameters("EX4")["p"] != 0.99


def test_ex3_spot_value():
    # alpha = pi/3, lam = 1/4 gives W_12 = (9 sqrt(6) / 16) i
    rep = run_example("EX3", {"alpha": np.pi / 3, "lam": 0.25})
    assert rep.passed
    assert rep.computed["W_12"] == pytest.approx(1j * 9 * np.sqrt(6) / 16, abs=1e-10)


def test_ex4_pair_magnitude_formula():
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        rep = run_example("EX4", {"p": p})
        assert rep.passed
        assert abs(rep.computed["W_12"]) == pytest.approx(8 * (1 - p) * p**2, abs=1e-10)


def test_ex5_three_parameter_magnitudes():
    lam = 0.25
    rep = run_example("EX5", {"lam": lam})
    assert rep.passed
    expected = 64 * (1 - lam) * lam * (1 - 2 * lam) / (3 * np.sqrt(3))
    for key in ("W_12", "W_23", "W_13"):
        assert abs(rep.computed[key]) == pytest.approx(abs(expected), abs=1e-10)
    # the half-mixed point kills every pair
    rep_half = run_example("EX5", {"lam": 0.5})
    for key in ("W_12", "W_23", "W_13"):
        assert abs(rep_half.computed[key]) < 1e-12


def test_ex7_quarter_degeneration():
    rep = run_example("EX7", {"alpha": np.pi / 4, "lam": 0.25})
    assert rep.passed
    assert rep.computed["P_norm_quarter"] == pytest.approx(0.0, abs=1e-10)


def test_ex9_zero_chain_with_kernel_block():
    rep = run_example("EX9")
    assert rep.passed
    assert rep.computed["W_norm"] < 1e-10
    assert rep.computed["P_norm"] < 1e-10
    assert rep.computed["O_norm"] < 1e-10
    assert rep.computed["I_kk_nonzero"] > 1e-3
    assert rep.computed["S_nonzero"] > 1e-3


def test_ex10_full_rank_strong_violation():
    rep = run_example("EX10")
    assert rep.passed
    assert rep.computed["full_rank"] is True or rep.computed["full_rank"] == 1.0
    assert rep.computed["wc_flag"]
    assert not rep.computed["sc_flag"]


def test_tilted_pair_domain_errors():
    with pytest.raises(ValidationError, match="out-of-domain"):
        run_example("EX3", {"alpha": 0.1, "lam": 0.25})
    with pytest.raises(ValidationError, match="lam must be in"):
        run_example("EX3", {"alpha": np.pi / 3, "lam": 1.0})


def test_reports_json_serializable():
    for ex_id in ("EX1", "EX7", "EX10", "OBS6"):
        d = run_example(ex_id).as_dict()
        text = json.dumps(d)
        back = json.loads(text)
        assert back["id"] == ex_id
        assert back["pass"] is True


SINGLE_CONFIGURATION = ("EX2", "EX3", "EX4", "EX5", "EX7", "EX8", "EX9", "EX10", "OBS7")


@pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
def test_example_configuration_sweepable(ex_id):
    if ex_id not in SINGLE_CONFIGURATION:
        with pytest.raises(
            ValidationError, match="does not define a single sweepable configuration"
        ):
            example_configuration(ex_id, {})
        return
    rho, hs = example_configuration(ex_id, {})
    assert rho.dim == hs.dim
    if ex_id == "EX4":
        rho, hs = example_configuration("EX4", {"p": 0.3})
        assert rho.dim == 4
        assert hs.m == 2


@pytest.mark.parametrize(
    "ex_id, configurations",
    # a grid check encodes the Hamiltonians it shares with every point once
    [("EX2", 2), ("EX3", 2), ("EX4", 2), ("EX5", 2), ("EX7", 3), ("EX9", 4), ("EX10", 1), ("OBS7", 1)],
)
def test_one_encode_per_configuration(monkeypatch, ex_id, configurations):
    encodes = count_calls(monkeypatch, encode_stack)
    assert run_example(ex_id).passed
    assert stacked_points(encodes) == configurations


GRID_CHECKS = {
    "EX2": "p_sweep_worst",
    "EX3": "alpha_sweep_worst",
    "EX4": "p_sweep_worst",
    "EX5": "lambda_sweep_worst",
    "EX9": "lambda_sweep_worst",
}


@pytest.mark.parametrize("ex_id", list(GRID_CHECKS))
def test_the_grid_checks_read_the_path_that_sweep_prints(monkeypatch, ex_id):
    # W and the QFIM of the stacked classify kernel, off by 1e-6 relative,
    # in the grid checks only: those fail, and the single-point checks
    # (W_12 on weak_direct, the rest on classify) pass
    def perturbed(stack, tol):
        res = classify_stack(stack, tol)
        return replace(res, w_stack=res.w_stack * (1 + 1e-6), f=res.f * (1 + 1e-6))

    monkeypatch.setattr(examples, "classify_stack", perturbed)
    assert sorted(run_example(ex_id).failures) == [GRID_CHECKS[ex_id]]


def test_run_example_accepts_partial_overrides():
    rep = run_example("EX7", {"lam": 0.3})
    assert rep.parameters["lam"] == 0.3
    assert rep.parameters["alpha"] == pytest.approx(np.pi / 3)

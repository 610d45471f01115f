"""Acceptance gate: one test per criterion, each recording a PASS/FAIL line
that the conftest plugin prints as a summary section at the end of the run.

Every assertion keeps its stated tolerance. Criterion 2's reference matrices
live in conftest.QFIM_SPOTS: each is a closed form for its worked-example
configuration, and test_metrology.py anchors all three to the Bures metric,
computed from fidelities without the pipeline's encode, SLD or QFIM routes.
"""

import subprocess
import sys

import numpy as np
import pytest

from conftest import QFIM_SPOTS, record_criterion
from metrocommute.encoding import encode
from metrocommute.examples import example_configuration, run_all
from metrocommute.metrology import qcr_scalar, qfim
from metrocommute.operator_core import ValidationError
from metrocommute.selftest import (
    suite_additivity,
    suite_chain,
    suite_fisher_order,
    suite_pc_indicator,
    suite_qubit_identity,
    suite_real_bell_diagonal,
    suite_reassembly,
    suite_route_agreement,
    suite_saturation,
    suite_spin_bell_diagonal,
    suite_structure,
    suite_white_noise,
)
from metrocommute.sld import sld_rotated

SEED = 42


def _pipeline_qfim(ex_id, params):
    rho, hs = example_configuration(ex_id, params)
    pt = encode(hs, np.zeros(hs.m))
    return qfim(rho, sld_rotated(rho.spectrum, pt))


def test_criterion_1_example_closed_forms():
    reports = run_all()
    worst = max(r.max_abs_error for r in reports)
    ok = len(reports) == 15 and all(r.passed for r in reports)
    record_criterion(
        1,
        "worked-example closed forms at 1e-8",
        ok,
        f"15 reports, worst deviation {worst:.2e}",
    )
    failing = [r.id for r in reports if not r.passed]
    assert ok, f"failing reports: {failing}"


def test_criterion_2_qfim_spot_values():
    tol = 1e-9
    checks = []

    # tilted-pair family at the quarter-angle degeneration, axial knobs
    params1, ref1 = QFIM_SPOTS["EX7"]
    f1 = _pipeline_qfim("EX7", params1)
    dev1 = float(np.max(np.abs(f1.matrix - ref1)))
    checks.append(("tilted-pair quarter-angle spot", dev1 <= tol, f"dev {dev1:.3e}"))

    try:
        qcr_scalar(f1)
        sing1 = False
    except ValidationError:
        sing1 = True
    checks.append(("tilted-pair quarter-angle singularity", sing1, "qcr_scalar raise"))

    # two-qubit entangled-pair family with axial local fields
    params2, ref2 = QFIM_SPOTS["EX8"]
    f2 = _pipeline_qfim("EX8", params2)
    dev2 = float(np.max(np.abs(f2.matrix - ref2)))
    checks.append(("two-qubit axial spot", dev2 <= tol, f"dev {dev2:.3e}"))

    # noisy-pair family, axial knobs
    params3, ref3 = QFIM_SPOTS["EX9"]
    f3 = _pipeline_qfim("EX9", params3)
    dev3 = float(np.max(np.abs(f3.matrix - ref3)))
    checks.append(("noisy-pair axial spot", dev3 <= tol, f"dev {dev3:.3e}"))

    try:
        qcr_scalar(f3)
        sing3 = False
    except ValidationError:
        sing3 = True
    checks.append(("noisy-pair singularity", sing3, "qcr_scalar raise"))

    failed = [(label, note) for label, ok, note in checks if not ok]
    detail = (
        f"{len(checks) - len(failed)}/{len(checks)} sub-checks"
        + (
            "; failing: "
            + "; ".join(f"{label} ({note})" for label, note in failed)
            if failed
            else ""
        )
    )
    record_criterion(2, "QFIM spot values at 1e-9", not failed, detail)
    assert not failed, detail


def test_criterion_3_identity_suites():
    draws = 500
    runs = [
        ("route agreement", suite_route_agreement(SEED, draws, tol=1e-9), 1e-9),
        ("reassembly", suite_reassembly(SEED, draws, tol=1e-9), 1e-9),
        ("structure", suite_structure(SEED, draws, tol=1e-9), 1e-9),
        ("chain", suite_chain(SEED, draws, tol=1e-8), None),
        ("qubit identity", suite_qubit_identity(SEED, draws, tol=1e-10), 1e-10),
        ("white noise", suite_white_noise(SEED, draws, tol=1e-9), 1e-9),
    ]
    problems = []
    worst_overall = 0.0
    for label, result, bound in runs:
        worst_overall = max(worst_overall, result.worst)
        if result.violations:
            problems.append(f"{label}: {result.violations} violations")
        if bound is not None and result.worst > bound:
            problems.append(f"{label}: worst {result.worst:.3e} > {bound:.0e}")
    ok = not problems
    record_criterion(
        3,
        "identity suites, 500 draws each",
        ok,
        "; ".join(problems) if problems else f"worst deviation {worst_overall:.2e}",
    )
    assert ok, problems


def test_criterion_4_entangled_basis_weak_commutativity():
    real = suite_real_bell_diagonal(SEED, 200, tol=1e-9)
    spin = suite_spin_bell_diagonal(SEED, 200, tol=1e-9)
    ok = (
        real.violations == 0
        and spin.violations == 0
        and real.worst <= 1e-9
        and spin.worst <= 1e-9
    )
    record_criterion(
        4,
        "entangled-basis mixtures give W = 0 (200 + 200 draws)",
        ok,
        f"worst {max(real.worst, spin.worst):.2e}",
    )
    assert ok, (real, spin)


def test_criterion_5_fisher_ordering_and_saturation():
    order = suite_fisher_order(SEED, 200, tol=1e-9)
    sat = suite_saturation(SEED, 200, tol=1e-8)
    ok = order.violations == 0 and sat.violations == 0 and sat.worst <= 1e-8
    record_criterion(
        5,
        "Fisher ordering and single-parameter saturation (200 draws)",
        ok,
        f"saturation worst {sat.worst:.2e}",
    )
    assert ok, (order, sat)


def test_criterion_6_additivity_and_indicator():
    add = suite_additivity(SEED, 50, tol=1e-8)
    ind = suite_pc_indicator(SEED, 200, tol=1e-8)
    ok = (
        add.violations == 0
        and add.worst <= 1e-8
        and ind.violations == 0
    )
    record_criterion(
        6,
        "two-copy additivity (50) and trace-norm indicator (200)",
        ok,
        f"additivity worst {add.worst:.2e}",
    )
    assert ok, (add, ind)


def test_criterion_7_selftest_determinism():
    cmd = [
        sys.executable,
        "-m",
        "metrocommute.cli",
        "selftest",
        "--seed",
        "42",
        "--draws",
        "100",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )
    record_criterion(
        7,
        "selftest --seed 42 --draws 100 byte-identical",
        ok,
        f"{len(first.stdout)} bytes",
    )
    assert ok, (first.returncode, second.returncode)

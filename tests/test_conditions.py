"""Condition matrices by every route, the support/kernel split, the
trace-norm indicator, and hierarchy classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_hermitian_matrix
from metrocommute.conditions import (
    classify,
    condition_operators_direct,
    pc_trace_norm,
    rank_two_ks,
    rank_two_ss_prime,
    support_kernel_decomposition,
    weak_decomposed,
    weak_direct,
    weak_integral,
    weak_rank_two,
    weak_series_truncation,
)
from metrocommute.encoding import encode, hamiltonian_set
from metrocommute.examples import example_configuration
from metrocommute.metrology import qfim
from metrocommute.operator_core import ValidationError, commutator, dagger
from metrocommute.sld import sld_rotated
from metrocommute.states import density_matrix


def _problem(rng, d, rank, m=2):
    rho = density_matrix(random_density(rng, d, rank=rank))
    hs = hamiltonian_set([random_hermitian_matrix(rng, d) for _ in range(m)])
    pt = encode(hs, rng.normal(size=m))
    return rho, pt


def test_weak_routes_agree_random():
    rng = np.random.default_rng(30)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        rank = int(rng.integers(1, d + 1))
        rho, pt = _problem(rng, d, rank, m=3)
        slds = sld_rotated(rho.spectrum, pt)
        w_direct = weak_direct(rho, slds).entries
        _, _, w_dec = weak_decomposed(rho.spectrum, pt)
        w_int = weak_integral(rho.spectrum, pt).entries
        assert np.max(np.abs(w_direct - w_dec.entries)) < 1e-10
        assert np.max(np.abs(w_direct - w_int)) < 1e-10


def test_weak_matrix_antisymmetric_imaginary():
    rng = np.random.default_rng(31)
    rho, pt = _problem(rng, 4, 3, m=3)
    w = weak_direct(rho, sld_rotated(rho.spectrum, pt)).entries
    assert np.max(np.abs(w + w.T)) < 1e-12
    assert np.max(np.abs(w.real)) < 1e-12  # entries are purely imaginary


def test_weak_rank_two_delta_and_gamma_formula():
    rng = np.random.default_rng(32)
    rho, pt = _problem(rng, 5, 2, m=3)
    gamma, delta, w = weak_decomposed(rho.spectrum, pt)
    d_r2 = weak_rank_two(rho.spectrum, pt)
    assert d_r2.kind == "Delta"
    assert np.max(np.abs(d_r2.entries - delta.entries)) < 1e-10
    assert np.max(np.abs(gamma.entries + d_r2.entries - w.entries)) < 1e-10
    with pytest.raises(ValidationError, match="rank-2"):
        full = density_matrix(random_density(rng, 3, rank=3))
        weak_rank_two(full.spectrum, pt)


def test_weak_rank_two_qubit_purity_identity():
    # qubits satisfy W = (2 tr rho^2 - 1) Gamma, pinning Delta to
    # (2 tr rho^2 - 2) Gamma = -4 lam (1 - lam) Gamma as an external check
    rng = np.random.default_rng(40)
    for _ in range(5):
        rho, pt = _problem(rng, 2, 2)
        gamma, delta, w = weak_decomposed(rho.spectrum, pt)
        purity_factor = 2 * np.trace(rho.matrix @ rho.matrix).real - 1
        assert np.max(np.abs(w.entries - purity_factor * gamma.entries)) < 1e-10
        d_r2 = weak_rank_two(rho.spectrum, pt)
        assert np.max(
            np.abs(d_r2.entries - (purity_factor - 1) * gamma.entries)
        ) < 1e-10


def test_weak_rank_two_vanishes_at_half_mixing():
    # lam = 1/2 makes the Delta coefficient 4(1-2 lam)lam(1-lam) vanish
    rng = np.random.default_rng(33)
    z = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    q, _ = np.linalg.qr(z)
    rho = density_matrix(0.5 * np.outer(q[:, 0], q[:, 0].conj()) + 0.5 * np.outer(q[:, 1], q[:, 1].conj()))
    hs = hamiltonian_set([random_hermitian_matrix(rng, 4) for _ in range(2)])
    pt = encode(hs, [0.2, -0.4])
    assert weak_rank_two(rho.spectrum, pt).norm < 1e-12


def test_series_truncation_exact_on_qubits():
    # a qubit's only contributing spectral pair sums to one, so every
    # truncation order reproduces W exactly
    rng = np.random.default_rng(34)
    for _ in range(5):
        rho, pt = _problem(rng, 2, 2)
        w_ref = weak_direct(rho, sld_rotated(rho.spectrum, pt)).entries
        for alpha in (0, 1):
            approx = weak_series_truncation(rho.spectrum, pt, alpha).entries
            assert np.max(np.abs(approx - w_ref)) < 1e-12


def test_series_truncation_improves_on_full_rank_qutrits():
    rng = np.random.default_rng(34)
    for _ in range(10):
        rho, pt = _problem(rng, 3, 3)
        w_ref = weak_direct(rho, sld_rotated(rho.spectrum, pt)).entries
        dev0 = np.linalg.norm(weak_series_truncation(rho.spectrum, pt, 0).entries - w_ref)
        dev1 = np.linalg.norm(weak_series_truncation(rho.spectrum, pt, 1).entries - w_ref)
        assert dev1 < dev0
    with pytest.raises(ValidationError, match="alpha"):
        weak_series_truncation(rho.spectrum, pt, 2)


def test_condition_operators_structure():
    rng = np.random.default_rng(35)
    rho, pt = _problem(rng, 5, 3, m=3)
    slds = sld_rotated(rho.spectrum, pt)
    ops = condition_operators_direct(rho.spectrum, slds)
    pi = rho.spectrum.support_projector
    for i in range(3):
        for j in range(3):
            assert np.allclose(ops.S.entry(i, j), commutator(slds.ops[i], slds.ops[j]), atol=1e-12)
            assert np.allclose(ops.O.entry(i, j), ops.S.entry(i, j) @ pi, atol=1e-12)
            assert np.allclose(ops.P.entry(i, j), pi @ ops.O.entry(i, j), atol=1e-12)
    w = weak_direct(rho, slds).entries
    for i in range(3):
        for j in range(3):
            w_from_p = np.trace(rho.matrix @ ops.P.entry(i, j))
            assert abs(w_from_p - w[i, j]) < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5))
def test_support_kernel_reassembly_property(seed, d):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, d + 1))
    rho, pt = _problem(rng, d, rank)
    terms = support_kernel_decomposition(rho.spectrum, pt, check=True)
    for i in range(pt.m):
        for j in range(pt.m):
            p_ij = terms.i_ss.entry(i, j) + terms.i_ss_prime.entry(i, j)
            assert np.allclose(p_ij, terms.P.entry(i, j), atol=1e-10)
            o_ij = p_ij + terms.i_ks.entry(i, j)
            assert np.allclose(o_ij, terms.O.entry(i, j), atol=1e-10)
            s_ij = o_ij + terms.i_sk.entry(i, j) + terms.i_kk.entry(i, j)
            assert np.allclose(s_ij, terms.S.entry(i, j), atol=1e-10)


def test_support_kernel_blocks_live_where_named():
    rng = np.random.default_rng(36)
    rho, pt = _problem(rng, 5, 2)
    terms = support_kernel_decomposition(rho.spectrum, pt, check=False)
    pi_s = rho.spectrum.support_projector
    pi_k = rho.spectrum.kernel_projector
    b = terms.i_ss.entry(0, 1) + terms.i_ss_prime.entry(0, 1)
    assert np.max(np.abs(b - pi_s @ b @ pi_s)) < 1e-10
    b = terms.i_sk.entry(0, 1)
    assert np.max(np.abs(b - pi_s @ b @ pi_k)) < 1e-10
    b = terms.i_ks.entry(0, 1)
    assert np.max(np.abs(b - pi_k @ b @ pi_s)) < 1e-10
    b = terms.i_kk.entry(0, 1)
    assert np.max(np.abs(b - pi_k @ b @ pi_k)) < 1e-10


def test_rank_two_closed_forms_match_general_split():
    rng = np.random.default_rng(37)
    for _ in range(5):
        rho, pt = _problem(rng, int(rng.integers(3, 6)), 2, m=3)
        terms = support_kernel_decomposition(rho.spectrum, pt, check=False)
        ssp = rank_two_ss_prime(rho.spectrum, pt)
        ks = rank_two_ks(rho.spectrum, pt)
        for i in range(3):
            for j in range(3):
                assert np.allclose(ssp.entry(i, j), terms.i_ss_prime.entry(i, j), atol=1e-10)
                assert np.allclose(ks.entry(i, j), terms.i_ks.entry(i, j), atol=1e-10)


def test_pc_trace_norm_tracks_p_operator():
    rng = np.random.default_rng(38)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        rank = int(rng.integers(1, d + 1))
        rho, pt = _problem(rng, d, rank)
        slds = sld_rotated(rho.spectrum, pt)
        p_scalar = pc_trace_norm(rho, slds)
        p_op = condition_operators_direct(rho.spectrum, slds).P
        scale = max(1.0, max(np.linalg.norm(l) ** 2 for l in slds.ops))
        zero_scalar = p_scalar.norm <= 1e-9 * scale
        zero_op = p_op.norm <= 1e-9 * scale
        assert zero_scalar == zero_op


def test_pc_trace_norm_entries_nonnegative_symmetric():
    rng = np.random.default_rng(39)
    rho, pt = _problem(rng, 4, 2, m=3)
    p = pc_trace_norm(rho, sld_rotated(rho.spectrum, pt)).entries
    assert np.min(p) >= 0.0
    assert np.allclose(p, p.T)


def _classify_example(ex_id, params=None):
    rho, hs, theta = example_configuration(ex_id, params or {})
    return classify(rho, hs, theta=theta)


def test_classify_hierarchy_patterns_from_worked_examples():
    # WC holds but PC fails
    rep = _classify_example("EX7")
    assert rep.flags == {"WC": True, "PC": False, "OC": False, "SC": False}
    assert rep.converse_failures == ["WC without PC"]
    # PC holds but OC fails (matched local fields)
    rep = _classify_example(
        "EX8", {"lam1": 0.3, "lam2": 0.2, "ax": 1.0, "az": 0.4, "bx": 1.0, "bz": 0.4}
    )
    assert rep.flags["PC"] and not rep.flags["OC"]
    assert "PC without OC" in rep.converse_failures
    # OC holds but SC fails
    rep = _classify_example("EX9")
    assert rep.flags["OC"] and not rep.flags["SC"]
    assert "OC without SC" in rep.converse_failures
    # full rank: WC can hold while all operator conditions fail together
    rep = _classify_example("EX10")
    assert rep.flags == {"WC": True, "PC": False, "OC": False, "SC": False}
    assert rep.rank == rep.dim
    for r in (rep,):
        assert r.hierarchy_consistent


def test_classify_all_conditions_hold_for_commuting_pure_case():
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = density_matrix(np.outer(phi, phi))
    sz = np.diag([1.0, -1.0])
    hs = hamiltonian_set([np.kron(sz, np.eye(2)), np.kron(np.eye(2), sz)])
    rep = classify(rho, hs)
    assert rep.flags == {"WC": True, "PC": True, "OC": True, "SC": True}
    assert rep.converse_failures == []


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5))
def test_classify_chain_never_inverted(seed, d):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, d + 1))
    rho = density_matrix(random_density(rng, d, rank=rank))
    hs = hamiltonian_set([random_hermitian_matrix(rng, d) for _ in range(2)])
    rep = classify(rho, hs, theta=rng.normal(size=2))
    assert rep.hierarchy_consistent
    f = rep.flags
    assert (not f["SC"] or f["OC"]) and (not f["OC"] or f["PC"]) and (not f["PC"] or f["WC"])


def test_classify_dimension_mismatch():
    rho = density_matrix(np.eye(2) / 2)
    hs = hamiltonian_set([np.eye(3)])
    with pytest.raises(ValidationError, match="dimensions differ"):
        classify(rho, hs)


def test_classify_report_types_are_plain():
    rep = _classify_example("EX4")
    assert all(isinstance(v, float) for v in rep.norms.values())
    assert all(isinstance(v, bool) for v in rep.flags.values())
    assert isinstance(rep.hierarchy_consistent, bool)


def test_classify_report_carries_qfim_and_w_of_the_same_pass():
    rng = np.random.default_rng(41)
    for d, rank, m in ((3, 2, 2), (5, 3, 3), (4, 4, 2)):
        rho = density_matrix(random_density(rng, d, rank=rank))
        hs = hamiltonian_set([random_hermitian_matrix(rng, d) for _ in range(m)])
        theta = rng.normal(size=m)
        rep = classify(rho, hs, theta=theta)
        slds = sld_rotated(rho.spectrum, encode(hs, theta))
        assert np.array_equal(rep.qfim.matrix, qfim(rho, slds).matrix)
        assert np.array_equal(rep.W.entries, weak_direct(rho, slds).entries)
        assert rep.norms["W"] == rep.W.norm

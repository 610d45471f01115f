"""Condition matrices by every route, the support/kernel split, the
trace-norm indicator, and hierarchy classification."""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_calls,
    literal_sld_elems,
    nan_weak_integral,
    random_density,
    random_hermitian_matrix,
    spectral_cases,
    sub_cutoff_state,
)
from metrocommute import conditions, encoding, metrology, selftest
from metrocommute.cli import main
from metrocommute.conditions import (
    OperatorConditionMatrix,
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
from metrocommute.operator_core import (
    ValidationError,
    commutator,
    dagger,
    matrix_exp_i,
    swap_operator,
)
from metrocommute.descriptors import matrix_to_json, vector_to_json
from metrocommute.sld import nu_copy_sld, sld_rotated
from metrocommute.states import (
    RANK_TOL,
    SpectralData,
    density_from_eigpairs,
    density_matrix,
    tensor_power,
    with_rank_tol,
)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _problem(rng, d, rank, m=2):
    rho = density_matrix(random_density(rng, d, rank=rank))
    hs = hamiltonian_set([random_hermitian_matrix(rng, d) for _ in range(m)])
    pt = encode(hs, rng.normal(size=m))
    return rho, pt


def _scale(pt):
    return max(1.0, max(np.linalg.norm(g) for g in pt.generators) ** 2)


def _max_block_dev(a, b):
    return max(
        float(np.max(np.abs(x - y)))
        for row_a, row_b in zip(a.entries, b.entries)
        for x, y in zip(row_a, row_b)
    )


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
    # multi-qutrit sizes, whose d^2 x d^2 doubled space the routes never build
    for d, rank in ((27, 2), (27, 4), (64, 2), (64, 16)):
        rho, pt = _problem(rng, d, rank, m=3)
        spec = rho.spectrum
        tol = 1e-9 * _scale(pt)
        w_direct = weak_direct(rho, sld_rotated(spec, pt)).entries
        _, delta, w_dec = weak_decomposed(spec, pt)
        assert np.max(np.abs(w_direct - w_dec.entries)) < tol
        assert np.max(np.abs(w_direct - weak_integral(spec, pt).entries)) < tol
        terms = support_kernel_decomposition(spec, pt, check=True)
        if rank == 2:
            assert np.max(np.abs(weak_rank_two(spec, pt).entries - delta.entries)) < tol
            assert _max_block_dev(rank_two_ss_prime(spec, pt), terms.i_ss_prime) < tol
            assert _max_block_dev(rank_two_ks(spec, pt), terms.i_ks) < tol
        for alpha in (0, 1):
            series = weak_series_truncation(spec, pt, alpha).entries
            assert np.all(np.isfinite(series))
            assert np.max(np.abs(series + series.T)) < tol


def _doubled_delta(spec, pt, gamma):
    """Delta_ij = 4 sum_{k<l} gamma(k, l)
    tr[SWAP (Pi_k x Pi_l)(G_i x G_j - G_j x G_i)], on the doubled space."""
    v, g, m = spec.eigenvectors, pt.generators, pt.m
    swap = swap_operator(spec.dim)
    proj = [np.outer(v[:, k], v[:, k].conj()) for k in range(spec.rank)]
    out = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            a = np.kron(g[i], g[j]) - np.kron(g[j], g[i])
            for k in range(spec.rank):
                for l in range(k + 1, spec.rank):
                    sand = swap @ np.kron(proj[k], proj[l])
                    out[i, j] += 4.0 * gamma(k, l) * np.trace(sand @ a)
    return out


def _doubled_series(spec, pt, alpha):
    """4 tr[SWAP (sum_{x<=alpha} D^3 M^(2x)) (G_i x G_j)] on the doubled space,
    D = rho x 1 - 1 x rho and M = 1 x 1 - rho x 1 - 1 x rho."""
    d, g, m = spec.dim, pt.generators, pt.m
    v = spec.eigenvectors
    rho = (v * spec.eigenvalues) @ v.conj().T
    eye = np.eye(d)
    big_d = np.kron(rho, eye) - np.kron(eye, rho)
    big_m = np.eye(d * d) - np.kron(rho, eye) - np.kron(eye, rho)
    w_op = sum(
        np.linalg.matrix_power(big_d, 3) @ np.linalg.matrix_power(big_m, 2 * x)
        for x in range(alpha + 1)
    )
    sw = swap_operator(d) @ w_op
    out = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            out[i, j] = 4.0 * np.trace(sw @ np.kron(g[i], g[j]))
    return out


def test_trace_routes_match_literal_doubled_space():
    # tr[SWAP (A x B)] = tr[A B] is what lets every route stay on d x d
    # matrices; the doubled-space expressions are the reference here
    rng = np.random.default_rng(42)
    for d in (2, 3, 4):
        for rank in range(1, d + 1):
            rho, pt = _problem(rng, d, rank, m=3)
            spec = rho.spectrum
            lam = spec.eigenvalues

            def gamma(k, l):
                lk, ll = lam[k], lam[l]
                return -4.0 * (lk - ll) * lk * ll / (lk + ll) ** 2

            _, delta, _ = weak_decomposed(spec, pt)
            ref = _doubled_delta(spec, pt, gamma)
            assert np.max(np.abs(delta.entries - ref)) < 1e-12
            if rank == 2:
                g12 = 4.0 * (1.0 - 2.0 * lam[0]) * lam[0] * (1.0 - lam[0])
                ref = _doubled_delta(spec, pt, lambda k, l: g12)
                assert np.max(np.abs(weak_rank_two(spec, pt).entries - ref)) < 1e-12
            for alpha in (0, 1):
                series = weak_series_truncation(spec, pt, alpha).entries
                assert np.max(np.abs(series - _doubled_series(spec, pt, alpha))) < 1e-12


@pytest.mark.parametrize(
    "weights, rank",
    [
        ([0.4, 0.4, 0.2], 3),
        ([0.25] * 4, 4),
        ([0.5, 0.5], 2),
        ([0.5, 0.3, 10 * RANK_TOL], 3),
        ([0.5, 0.3, 0.1 * RANK_TOL], 2),
    ],
    ids=["tie-pair", "flat-4", "flat-2", "above-cutoff", "below-cutoff"],
)
def test_routes_agree_on_degenerate_and_near_cutoff_spectra(weights, rank):
    # exact ties make eta and gamma vanish off the diagonal; a weight just
    # above or below RANK_TOL (after scaling to unit trace) sits on either
    # side of the rank cutoff, and below it is treated as an exact zero
    rng = np.random.default_rng(43)
    weights = np.array(weights) / np.sum(weights)
    d = len(weights) + 2
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rho = density_from_eigpairs(zip(weights, q.T))
    assert rho.rank == rank
    hs = hamiltonian_set([random_hermitian_matrix(rng, d) for _ in range(3)])
    pt = encode(hs, rng.normal(size=3))
    spec = rho.spectrum
    tol = 1e-9 * _scale(pt)
    w_direct = weak_direct(rho, sld_rotated(spec, pt)).entries
    gamma, delta, w_dec = weak_decomposed(spec, pt)
    assert np.max(np.abs(w_direct - w_dec.entries)) < tol
    assert np.max(np.abs(w_direct - weak_integral(spec, pt).entries)) < tol
    if rank == 2:
        w_r2 = gamma.entries + weak_rank_two(spec, pt).entries
        assert np.max(np.abs(w_direct - w_r2)) < tol
    support_kernel_decomposition(spec, pt, check=True)


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


@pytest.mark.parametrize("d, rank, m", [(4, 2, 3), (5, 1, 2), (4, 4, 2), (27, 2, 3), (5, 2, 1)])
def test_benchmark_routes_run_and_pass_their_check(monkeypatch, tmp_path, d, rank, m):
    # the routes workload of the benchmark reads the operator matrices as
    # .entries[i][j], len(.entries) and np.asarray(.entries); at m = 1 there
    # is no parameter pair and every operator matrix is one zero block
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    routes = workloads.Routes(3, tmp_path)
    req = routes._problem(d, rank, m)
    out = routes.run(req)
    assert routes._check(out) is None
    assert routes.check(req, out) == []
    skd = out["support_kernel"]
    mats = [getattr(skd, kind) for kind in ("i_ss", "i_ss_prime", "i_sk", "i_ks", "i_kk")]
    mats += [getattr(skd, kind) for kind in "POS"] + [getattr(out["operators"], k) for k in "POS"]
    if rank == 2:
        mats += [out["ss_prime"], out["ks"]]
    for mat in mats:
        assert mat.entries.shape == (m, m, d, d), mat.kind
        assert np.array_equal(mat.entries, -np.swapaxes(mat.entries, 0, 1)), mat.kind
        if m == 1:
            assert not np.any(mat.entries), mat.kind


def _rank_two_ss_prime_projectors(spec, pt):
    """I_ss_prime from its rank-two projector expression, term by term."""
    lam = spec.eigenvalues[0]
    v = spec.eigenvectors
    p1 = np.outer(v[:, 0], np.conj(v[:, 0]))
    p2 = np.outer(v[:, 1], np.conj(v[:, 1]))
    g = pt.generators
    out = {}
    for i in range(pt.m):
        for j in range(pt.m):
            d1 = g[i] @ p1 @ g[j] - g[j] @ p1 @ g[i]
            d2 = g[i] @ p2 @ g[j] - g[j] @ p2 @ g[i]
            drho = d1 + d2
            out[i, j] = -4.0 * (
                p1 @ d1 @ p1
                + p2 @ d2 @ p2
                + p1 @ drho @ p2
                + p2 @ drho @ p1
                + 4.0 * lam * (1.0 - lam) * (p1 @ d2 @ p1 + p2 @ d1 @ p2)
            )
    return out


def _rank_two_ks_projectors(spec, pt):
    """I_ks = 4 (1 - 2 lam) [Pi_ker D^2 P1 - Pi_ker D^1 P2], literally."""
    lam = spec.eigenvalues[0]
    v = spec.eigenvectors
    p1 = np.outer(v[:, 0], np.conj(v[:, 0]))
    p2 = np.outer(v[:, 1], np.conj(v[:, 1]))
    pi_ker = np.eye(spec.dim) - p1 - p2
    g = pt.generators
    out = {}
    for i in range(pt.m):
        for j in range(pt.m):
            d1 = g[i] @ p1 @ g[j] - g[j] @ p1 @ g[i]
            d2 = g[i] @ p2 @ g[j] - g[j] @ p2 @ g[i]
            out[i, j] = 4.0 * (1.0 - 2.0 * lam) * (pi_ker @ d2 @ p1 - pi_ker @ d1 @ p2)
    return out


@pytest.mark.parametrize("d", [3, 4, 9, 64])
def test_rank_two_closed_forms_match_projector_expressions(d):
    # the closed forms work on 2 x 2 support elements and kernel columns; the
    # projector expressions they replace are the reference
    rng = np.random.default_rng(44)
    rho, pt = _problem(rng, d, 2, m=3)
    spec = rho.spectrum
    for closed, literal in (
        (rank_two_ss_prime, _rank_two_ss_prime_projectors),
        (rank_two_ks, _rank_two_ks_projectors),
    ):
        out, ref = closed(spec, pt), literal(spec, pt)
        dev = max(np.max(np.abs(out.entry(i, j) - ref[i, j])) for i, j in ref)
        assert dev < 1e-12, (closed.__name__, dev)


def _literal_operators(spec, slds):
    """S = [L_i, L_j], O = S Pi and P = Pi S Pi, literally, from the SLDs in
    their own frame and the support projector."""
    pi = spec.support_projector
    ops, m = slds.ops, len(slds.ops)
    s = [[commutator(ops[i], ops[j]) for j in range(m)] for i in range(m)]
    o = [[s[i][j] @ pi for j in range(m)] for i in range(m)]
    p = [[pi @ o[i][j] for j in range(m)] for i in range(m)]
    return {"S": s, "O": o, "P": p}


def _operator_cases():
    """(label, rho, slds, reference SLDs), the references built literally
    from the computational-basis generators rather than from the rows."""
    rng = np.random.default_rng(45)
    for d in (2, 3, 4, 27, 64):
        for rank in sorted({1, (d + 1) // 2, d}):
            rho, pt = _problem(rng, d, rank, m=3)
            spec = rho.spectrum
            v = spec.eigenvectors
            ref = [v @ e @ dagger(v) for e in literal_sld_elems(spec, pt.generators)]
            yield f"{d}/{rank}", rho, sld_rotated(spec, pt), ref
    rho, pt = _problem(rng, 3, 2, m=2)
    two = nu_copy_sld(sld_rotated(rho.spectrum, pt), 2)
    v = rho.spectrum.eigenvectors
    big = tensor_power(rho, 2)
    pi_ker = big.spectrum.kernel_projector
    ref = []
    for e in literal_sld_elems(rho.spectrum, pt.generators):
        l = v @ e @ dagger(v)
        total = np.kron(l, np.eye(3)) + np.kron(np.eye(3), l)
        ref.append(total - pi_ker @ total @ pi_ker)
    yield "nu=2 of 3/2", big, two, ref


def test_eigenbasis_operators_match_literal_commutators():
    for label, rho, slds, ref_ops in _operator_cases():
        spec = slds.spec
        v = spec.eigenvectors
        scale = max(1.0, max(np.linalg.norm(l) ** 2 for l in ref_ops))
        for l, elem, ref_l in zip(slds.ops, slds.elems, ref_ops):
            assert np.max(np.abs(l - ref_l)) < 1e-12 * np.sqrt(scale), label
            assert np.max(np.abs(v @ elem @ dagger(v) - l)) < 1e-12, label
        ops = condition_operators_direct(spec, slds)
        ref = _literal_operators(spec, slds)
        w = weak_direct(rho, slds).entries
        for kind, blocks in ref.items():
            mine = getattr(ops, kind)
            literal = OperatorConditionMatrix(np.array(blocks), kind)
            assert mine.kind == kind and mine.entries.shape == literal.entries.shape
            dev = _max_block_dev(mine, literal)
            assert dev < 1e-12 * scale, (label, kind, dev)
            assert abs(ops.norms[kind] - literal.norm) < 1e-12 * scale, (label, kind)
            assert abs(ops.norms[kind] - mine.norm) < 1e-12 * scale, (label, kind)
        for i in range(len(w)):
            for j in range(len(w)):
                w_from_p = np.trace(rho.matrix @ ref["P"][i][j])
                assert abs(w_from_p - w[i, j]) < 1e-10 * scale, label


def test_classify_norms_equal_the_materialised_blocks():
    rng = np.random.default_rng(46)
    for d, rank in ((2, 1), (4, 2), (27, 14), (64, 32), (64, 64)):
        rho = density_matrix(random_density(rng, d, rank=rank))
        hs = hamiltonian_set([random_hermitian_matrix(rng, d) for _ in range(3)])
        theta = rng.normal(size=3)
        rep = classify(rho, hs, theta=theta)
        slds = sld_rotated(rho.spectrum, encode(hs, theta))
        ops = condition_operators_direct(rho.spectrum, slds)
        for kind in ("P", "O", "S"):
            block_norm = getattr(ops, kind).norm
            assert abs(rep.norms[kind] - block_norm) <= 1e-12 * rep.scale, (d, kind)


def test_postcondition_raises_when_the_kernel_carries_weight():
    # a state is cut where it is built, so SpectralData guards the cut: a
    # hand-built spectrum with weight past its rank, or a support eigenvalue
    # at or below its cutoff, is refused before any formula reads it
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))

    def spectrum(vals, rank):
        return SpectralData(eigenvalues=np.array(vals), eigenvectors=q, rank=rank, rank_tol=0.5)

    with pytest.raises(ArithmeticError, match="spectrum not cut at rank 1"):
        spectrum([0.6, 0.4, 0.0, 0.0], 1)
    with pytest.raises(ArithmeticError, match="spectrum not cut at rank 2"):
        spectrum([0.6, 0.4, 0.0, 0.0], 2)
    spec = spectrum([0.6, 0.0, 0.0, 0.0], 1)
    assert spec.uncut is spec.eigenvalues


def test_a_state_cut_at_its_rank_tol_reads_the_cut_weight_as_zero():
    # a state cut at 0.5, where it is built or after: the weight 0.4 is set
    # to zero, so classify sees the unnormalised pure state 0.6 |v0><v0|. Its
    # SLD support rows are the pure state's (the coefficients are ratios of
    # eigenvalues), so the operator norms are the pure state's and W and the
    # QFIM are 0.6 times its own; the anchors on the cut matrix agree
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    hs = hamiltonian_set([random_hermitian_matrix(rng, 4) for _ in range(2)])
    theta = np.array([0.3, -0.2])
    pure = classify(density_from_eigpairs([(1.0, q.T[0])]), hs, theta=theta)
    for rho in (
        with_rank_tol(density_from_eigpairs(zip([0.6, 0.4], q.T[:2])), 0.5),
        density_from_eigpairs(zip([0.6, 0.4], q.T[:2]), rank_tol=0.5),
    ):
        assert rho.rank == 1
        assert np.array_equal(rho.spectrum.eigenvalues, [0.6, 0.0, 0.0, 0.0])
        assert np.trace(rho.matrix).real == pytest.approx(0.6, abs=1e-15)
        rep = classify(rho, hs, theta=theta)
        tol = 1e-12 * rep.scale
        for kind in ("P", "O", "S"):
            assert rep.norms[kind] == pytest.approx(pure.norms[kind], rel=1e-12)
        assert np.max(np.abs(rep.W.entries - 0.6 * pure.W.entries)) < tol
        assert np.max(np.abs(rep.qfim.matrix - 0.6 * pure.qfim.matrix)) < tol
        slds = sld_rotated(rho.spectrum, encode(hs, theta))
        assert np.max(np.abs(rep.W.entries - weak_direct(rho, slds).entries)) < tol
        assert np.max(np.abs(rep.qfim.matrix - qfim(rho, slds).matrix)) < tol
        # a state already at its cutoff is returned as it is
        assert with_rank_tol(rho, 0.5) is rho


def test_the_support_projector_jumps_at_the_rank_cutoff():
    # a pure d = 4 state plus a weight eps on a second vector, under two
    # commuting diagonal generators. A unitary encoding leaves the spectrum
    # where it is, so what jumps at the cutoff is the support projector, and
    # with it P and O: PC and OC fail while eps is counted in the support and
    # hold once it is cut. Below the cutoff the weight is an exact zero, so
    # none of it reaches W through Q, and W stays within the chain bound
    # ||W|| <= ||P||
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    hs = hamiltonian_set([np.diag(rng.normal(size=4)) for _ in range(2)])
    theta = rng.normal(size=2)
    above = classify(density_from_eigpairs(zip([1 - 2e-10, 2e-10], q.T)), hs, theta=theta)
    assert above.rank == 2
    assert not above.flags["PC"] and not above.flags["OC"]
    assert above.norms["P"] == pytest.approx(2.17, abs=0.01)
    below = classify(density_from_eigpairs(zip([1 - 5e-11, 5e-11], q.T)), hs, theta=theta)
    assert below.rank == 1
    assert below.flags["PC"] and below.flags["OC"]
    assert below.norms["W"] <= below.norms["P"] + 1e-12 * below.scale


def test_weak_direct_reads_a_raw_matrix_state_as_cut():
    # density_matrix of a pure state plus 5e-11: the weight below the cutoff
    # is zero for the direct route as for classify, so ||W|| <= ||P|| holds
    rng = np.random.default_rng(3)
    rho = density_matrix(sub_cutoff_state(rng, [5e-11]))
    hs = hamiltonian_set([np.diag(rng.normal(size=4)) for _ in range(2)])
    theta = rng.normal(size=2)
    rep = classify(rho, hs, theta=theta)
    assert rep.rank == 1 and rep.flags["PC"]
    w = weak_direct(rho, sld_rotated(rho.spectrum, encode(hs, theta)))
    assert w.norm <= rep.norms["P"] + 1e-12 * rep.scale


def test_classify_path_builds_no_blocks_and_no_commutation_check(
    monkeypatch, tmp_path, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("called on the classify path")

    monkeypatch.setattr(conditions, "_operator_matrix", refuse)
    monkeypatch.setattr(encoding, "_pairwise_commuting", refuse)
    rng = np.random.default_rng(47)
    d, rank = 16, 5
    rho = density_matrix(random_density(rng, d, rank=rank))
    hams = [random_hermitian_matrix(rng, d) for _ in range(3)]
    hs = hamiltonian_set(hams)
    rep = classify(rho, hs, theta=rng.normal(size=3))
    assert rep.rank == rank
    assert {"support_projector", "kernel_projector"}.isdisjoint(vars(rho.spectrum))

    spec = rho.spectrum
    state = [
        {"weight": float(w), "vector": vector_to_json(spec.eigenvectors[:, k])}
        for k, w in enumerate(spec.eigenvalues[:rank])
    ]
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps({"state": state, "hamiltonians": [matrix_to_json(h) for h in hams]})
    )
    assert main(["classify", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == rank

    # the patches are live: the blocks and the flag do reach them when read
    ops = condition_operators_direct(spec, sld_rotated(spec, encode(hs, np.zeros(3))))
    with pytest.raises(AssertionError, match="classify path"):
        ops.P
    with pytest.raises(AssertionError, match="classify path"):
        hs.commuting


def test_classify_path_builds_nothing_it_does_not_read(monkeypatch, tmp_path, capsys):
    direct_calls = count_calls(monkeypatch, weak_direct)
    qfim_calls = count_calls(monkeypatch, metrology.qfim)
    rng = np.random.default_rng(49)
    d, rank = 12, 4
    rho = density_matrix(random_density(rng, d, rank=rank))
    hams = [random_hermitian_matrix(rng, d) for _ in range(3)]
    theta = rng.normal(size=3)
    rep = classify(rho, hamiltonian_set(hams), theta=theta)
    spec = rho.spectrum
    state = [
        {"weight": float(w), "vector": vector_to_json(spec.eigenvectors[:, k])}
        for k, w in enumerate(spec.eigenvalues[:rank])
    ]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"state": state, "hamiltonians": [matrix_to_json(h) for h in hams]}))
    assert main(["classify", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == rank
    assert direct_calls == qfim_calls == []
    assert {"U", "generators"}.isdisjoint(vars(rep.point))
    assert {"elems", "ops", "eta", "gamma"}.isdisjoint(vars(rep.slds))

    # read now, they are the matrices the computational-basis pipeline built
    k = sum(t * h for t, h in zip(theta, hams))
    kappa, w = np.linalg.eigh(k)
    x = kappa[:, None] - kappa[None, :]
    phase = np.ones_like(x, dtype=complex)
    off = np.abs(x) > 0
    phase[off] = (np.exp(1j * x[off]) - 1.0) / (1j * x[off])
    assert np.max(np.abs(rep.point.U - matrix_exp_i(k, sign=-1))) < 1e-12
    v = spec.eigenvectors
    g_old = [w @ ((w.conj().T @ h @ w) * phase) @ w.conj().T for h in hams]
    l_old = [v @ e @ v.conj().T for e in literal_sld_elems(spec, g_old)]
    for g, l, g_ref, l_ref in zip(rep.point.generators, rep.slds.ops, g_old, l_old):
        assert np.max(np.abs(g - g_ref)) < 1e-12
        assert np.max(np.abs(l - l_ref)) < 1e-12


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
    rho, hs = example_configuration(ex_id, params or {})
    return classify(rho, hs)


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


def test_suite_chain_counts_a_broken_norm_chain(monkeypatch):
    # the self-test's chain suite counts a draw whose ||W|| exceeds ||P|| by
    # more than 1e-12 * scale, even when the four flags stay consistent
    def lifted(excess):
        def run(*args, **kwargs):
            rep = classify(*args, **kwargs)
            rep.norms["W"] = rep.norms["P"] + excess * rep.scale
            return rep

        return run

    monkeypatch.setattr(selftest, "classify", lifted(1e-13))
    assert selftest.suite_chain(1, 4).violations == 0
    monkeypatch.setattr(selftest, "classify", lifted(1e-11))
    assert selftest.suite_chain(1, 4).violations == 4


def test_suite_chain_counts_a_nan_norm(monkeypatch):
    # a NaN W norm compares false both ways, so it neither breaks the norm
    # chain nor flips a flag: the suite counts it by itself
    def nan_w(*args, **kwargs):
        rep = classify(*args, **kwargs)
        rep.norms["W"] = np.nan
        return rep

    monkeypatch.setattr(selftest, "classify", nan_w)
    assert selftest.suite_chain(1, 4).violations == 4


def test_selftest_gate_counts_a_nan_deviation():
    result = selftest._gate("gate", [0.0, np.nan, 2e-9, 1e-9], 1e-9)
    assert (result.draws, result.violations) == (4, 2)
    assert np.isnan(result.worst)
    assert selftest._gate("gate", [], 1e-9).worst == 0.0


def test_suite_route_agreement_counts_a_nan_route(monkeypatch):
    # Python's max(a, nan) is a, so a NaN route used to read as agreeing
    monkeypatch.setattr(selftest, "weak_integral", nan_weak_integral)
    result = selftest.suite_route_agreement(42, 10)
    assert result.violations == 10
    assert "worst=nan" in result.line()


def test_suite_pc_indicator_counts_a_nan_p_norm(monkeypatch):
    def nan_ops(spec, slds):
        ops = conditions.condition_operators_direct(spec, slds)
        ops.comm = np.full_like(ops.comm, np.nan)
        return ops

    monkeypatch.setattr(selftest, "condition_operators_direct", nan_ops)
    assert selftest.suite_pc_indicator(1, 6).violations == 6


def test_suite_fisher_order_gates_at_its_tol():
    # the deviation is minus the least eigenvalue of F_Q - F_C
    assert selftest.suite_fisher_order(1, 5).violations == 0
    assert selftest.suite_fisher_order(1, 5, tol=-np.inf).violations == 5


def test_suites_keep_their_signatures():
    defaults = [1e-9, 1e-9, 1e-9, 1e-8, 1e-10, 1e-9, 1e-9, 1e-8, 1e-8, 1e-8, 1e-9, 1e-9, 1e-9]
    for suite, tol in zip(selftest.ALL_SUITES, defaults, strict=True):
        params = inspect.signature(suite).parameters
        assert list(params) == ["seed", "draws", "tol"], suite.__name__
        assert params["tol"].default == tol, suite.__name__
        assert suite.__name__.startswith("suite_") and suite.__doc__


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
    cases = []
    for d, rank, m in ((3, 2, 2), (5, 3, 3), (4, 4, 2)):
        rho = density_matrix(random_density(rng, d, rank=rank))
        hams = [random_hermitian_matrix(rng, d) for _ in range(m)]
        cases.append((f"{d}/{rank}/m={m}", rho, hams, rng.normal(size=m)))
    for label, rho, hams, theta in cases + list(spectral_cases(48)):
        hs = hamiltonian_set(hams)
        rep = classify(rho, hs, theta=theta)
        slds = sld_rotated(rho.spectrum, encode(hs, theta))
        # classify takes W and F from tr[rho l_i l_j] in the state eigenbasis;
        # weak_direct and qfim contract rho with the operators L_i instead and
        # agree with them to roundoff
        tol = 1e-12 * rep.scale
        ref = qfim(rho, slds)
        assert np.max(np.abs(rep.qfim.matrix - ref.matrix)) < tol, label
        assert rep.qfim.rank == ref.rank, label
        assert np.max(np.abs(rep.W.entries - weak_direct(rho, slds).entries)) < tol, label
        assert rep.scale == pytest.approx(_scale(rep.point), rel=1e-12), label
        assert rep.norms["W"] == rep.W.norm
        # the report keeps that pass's point, SLDs and operators, and its W
        # and QFIM are exactly those of its own SLD set
        assert rep.slds.spec is rho.spectrum
        assert np.array_equal(rep.point.theta, theta)
        q = conditions._state_product_stack(
            rho.spectrum.eigenvalues[None], rep.slds.rows[None]
        )[0]
        assert np.array_equal(rep.W.entries, 1j * (q.imag - q.imag.T)), label
        assert np.array_equal(rep.qfim.matrix, (q.real + q.real.T) / 2.0), label
        for kind in ("P", "O", "S"):
            assert rep.operators.norms[kind] == rep.norms[kind]


def _mixed_problems(rng):
    """(rho, h_set, theta) over several (dim, m, rank), with a default theta
    and a singular-QFIM configuration."""
    problems = []
    for d, rank, m in ((3, 2, 2), (4, 4, 3), (3, 2, 2), (5, 1, 2), (4, 2, 3), (3, 3, 2), (4, 4, 3)):
        rho = density_matrix(random_density(rng, d, rank=rank))
        hs = hamiltonian_set([random_hermitian_matrix(rng, d) for _ in range(m)])
        problems.append((rho, hs, rng.normal(size=m)))
    rho, hs, _ = problems[0]
    problems.append((rho, hs, None))
    rho, hs = example_configuration("EX7", {"alpha": np.pi / 4, "a": 0.0, "a_prime": 1.0})
    problems.append((rho, hs, None))
    return problems


def test_classify_e_matches_the_anchors_of_a_fresh_sld_set():
    problems = _mixed_problems(np.random.default_rng(53))
    reports = [classify(rho, hs, theta=theta) for rho, hs, theta in problems]
    assert reports[-1].E is None and reports[-1].qfim.condition_number == np.inf
    for (rho, hs, theta), rep in zip(problems, reports):
        assert rep.slds.spec is rho.spectrum
        assert np.array_equal(rep.theta, np.zeros(hs.m) if theta is None else theta)
        assert (rep.dim, rep.rank) == (rho.dim, rho.rank)
        # E against the computational-basis anchors of a fresh SLD set
        slds = sld_rotated(rho.spectrum, encode(hs, rep.theta))
        if rep.E is None:
            with pytest.raises(ValidationError, match=metrology.SINGULAR_MESSAGE):
                metrology.incompatibility(qfim(rho, slds), weak_direct(rho, slds))
        else:
            anchor = metrology.incompatibility(qfim(rho, slds), weak_direct(rho, slds))
            assert abs(rep.E - anchor.e_value) < 1e-10


def test_classify_checks_theta_before_the_dimensions():
    rng = np.random.default_rng(55)
    rho, hs = density_matrix(random_density(rng, 3)), hamiltonian_set([np.eye(3)])
    qubit = density_matrix(np.eye(2) / 2)
    with pytest.raises(ValidationError, match="1 Hamiltonians"):
        classify(rho, hs, theta=[0.1, 0.2])
    with pytest.raises(ValidationError, match="dimensions differ"):
        classify(qubit, hs)
    with pytest.raises(ValidationError, match="1 Hamiltonians"):
        classify(qubit, hs, theta=[0.1, 0.2])

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncycle import (
    GameConfig,
    InequalityId,
    PairingError,
    ProtocolId,
    build_scenario,
    evaluate,
    functional_operator,
    measurement_set,
)
from ncycle.montecarlo import _Sampler
from ncycle.protocols import (
    SLOTS,
    check_pairing,
    estimator_weights,
    inequalities,
    outcome_labels,
)

from conftest import random_mixed_matrix

ODD_NS = list(range(5, 21, 2))


def test_full_set_wraps_at_the_end(sc5):
    ch = measurement_set(sc5, ProtocolId.FULL, 4)
    third = ch.kraus_list[2]
    assert np.abs(third.p - np.outer(sc5.a(0), sc5.a(0))).max() < 1e-15


def test_aonly_set_ranks(sc5):
    ch = measurement_set(sc5, ProtocolId.A_ONLY, 2)
    assert [pr.rank for pr in ch.kraus_list] == [1, 2]
    total = sum(pr.p for pr in ch.kraus_list)
    assert np.abs(total - np.eye(3)).max() < 1e-12


def test_bonly_set_orthogonality(sc7):
    ch = measurement_set(sc7, ProtocolId.B_ONLY, 0)
    b0 = sc7.b(0)
    assert np.abs(ch.kraus_list[0].p - np.outer(b0, b0)).max() < 1e-15
    assert abs(np.dot(b0, sc7.a(0))) < 1e-12
    assert abs(np.dot(b0, sc7.a(1))) < 1e-12


def test_index_out_of_range(sc5):
    with pytest.raises(IndexError):
        measurement_set(sc5, ProtocolId.FULL, 5)


def test_alpha_operator_value_on_handle(sc5, handle):
    fop = functional_operator(sc5, InequalityId.ALPHA)
    # oracle: direct sum of the five squared overlaps
    expected = sum(float(np.dot(sc5.a(i), sc5.handle)) ** 2 for i in range(5))
    got = fop.value(handle.m)
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx(math.sqrt(5), abs=1e-12)


def test_beta_operator_value_on_handle(sc5, handle):
    fop = functional_operator(sc5, InequalityId.BETA)
    expected = sum(float(np.dot(sc5.b(i), sc5.handle)) ** 2 for i in range(5))
    got = fop.value(handle.m)
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx(5 - 2 * math.sqrt(5), abs=1e-12)


@pytest.mark.parametrize("n", ODD_NS)
@pytest.mark.parametrize("ineq", list(InequalityId))
def test_operator_value_on_maximally_mixed(n, ineq):
    sc = build_scenario(n)
    fop = functional_operator(sc, ineq)
    assert fop.value(np.eye(3) / 3) == pytest.approx(n / 3, abs=1e-12)


@pytest.mark.parametrize("n", ODD_NS)
def test_context_projectors_resolve_identity(n):
    sc = build_scenario(n)
    for i in range(n):
        total = sum(pr.p for pr in measurement_set(sc, ProtocolId.FULL, i).kraus_list)
        assert np.abs(total - np.eye(3)).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(ODD_NS),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_two_alpha_plus_beta_is_n(n, seed):
    # the contexts tile the identity n times with every a-projector counted twice
    sc = build_scenario(n)
    rho = random_mixed_matrix(seed)
    alpha = functional_operator(sc, InequalityId.ALPHA).value(rho)
    beta = functional_operator(sc, InequalityId.BETA).value(rho)
    assert 2 * alpha + beta == pytest.approx(n, abs=1e-12)


def _rotation_about_handle(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("n", ODD_NS)
@pytest.mark.parametrize("ineq", list(InequalityId))
def test_cyclic_symmetry(n, ineq):
    sc = build_scenario(n)
    op = functional_operator(sc, ineq).op
    rot = _rotation_about_handle(2 * math.pi / n)
    refl = np.diag([1.0, -1.0, 1.0])  # fixes a_0 (it lies in the xz plane)
    assert np.abs(rot @ op @ rot.T - op).max() < 1e-12
    assert np.abs(refl @ op @ refl.T - op).max() < 1e-12


@pytest.mark.parametrize("n", ODD_NS)
@pytest.mark.parametrize("ineq", list(InequalityId))
def test_block_spectrum(n, ineq):
    sc = build_scenario(n)
    fop = functional_operator(sc, ineq)
    evals, evecs = np.linalg.eigh(fop.op)
    lam0, lam1 = fop.sector_eigenvalues(sc.handle)
    # one doubly degenerate eigenvalue plus the handle eigenvalue
    assert sorted(evals) == pytest.approx(sorted([lam0, lam0, lam1]), abs=1e-10)
    handle_col = np.argmin(np.abs(evals - lam1)) if ineq is InequalityId.BETA else np.argmax(evals)
    overlap = abs(float(evecs[:, handle_col] @ sc.handle))
    assert overlap == pytest.approx(1.0, abs=1e-10)
    assert np.trace(fop.op) == pytest.approx(n, abs=1e-12)


def test_evaluate_examples():
    v = evaluate(2.23607, InequalityId.ALPHA, 5)
    assert v.violates and v.margin == pytest.approx(0.23607, abs=1e-9)
    v = evaluate(2.0, InequalityId.ALPHA, 5)
    assert not v.violates and v.margin == 0.0
    for n in range(5, 21, 2):
        for ineq in InequalityId:
            assert not evaluate(n / 3, ineq, n).violates


def test_evaluate_beta_direction():
    assert evaluate(0.9, InequalityId.BETA, 5).violates
    assert evaluate(0.9, InequalityId.BETA, 5).margin == pytest.approx(0.1, abs=1e-12)
    assert not evaluate(1.2, InequalityId.BETA, 5).violates
    # the tolerance shields exact boundary values
    assert not evaluate(1.0 - 5e-10, InequalityId.BETA, 5).violates
    assert evaluate(1.0 - 5e-9, InequalityId.BETA, 5).violates


def test_each_dichotomic_protocol_evaluates_its_own_inequality():
    assert inequalities(ProtocolId.FULL) == (InequalityId.ALPHA, InequalityId.BETA)
    assert inequalities(ProtocolId.A_ONLY) == (InequalityId.ALPHA,)
    assert inequalities(ProtocolId.B_ONLY) == (InequalityId.BETA,)


@pytest.mark.parametrize("n", [5, 9, 21])
@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_tables_agree_with_every_reader(n, protocol):
    sc = build_scenario(n)
    slots = SLOTS[protocol]
    u = sc.outcome_vectors()[:, list(slots)]
    for i in range(n):
        expected = [np.outer(v, v) for v in u[i]]
        if len(slots) == 1:
            expected.append(np.eye(3) - expected[0])
        kraus = measurement_set(sc, protocol, i).kraus_list
        assert len(kraus) == len(expected)
        for pr, want in zip(kraus, expected):
            assert np.abs(pr.p - want).max() < 1e-15
        n_outcomes = len(outcome_labels(n, protocol, i))
        assert n_outcomes == len(kraus)
        for ineq in inequalities(protocol):
            assert len(estimator_weights(protocol, ineq)) == n_outcomes
    for ineq in set(InequalityId) - set(inequalities(protocol)):
        with pytest.raises(PairingError):
            check_pairing(protocol, ineq)
        with pytest.raises(PairingError):
            estimator_weights(protocol, ineq)
    sampler = _Sampler(GameConfig(n=n, protocol=protocol, ineq=inequalities(protocol)[0],
                                  players=1, runs=1, seed=0))
    assert np.array_equal(sampler.vectors, u[:, 0] if len(slots) == 1 else u)
    assert sampler.n_outcomes == len(outcome_labels(n, protocol, 0))


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from(ODD_NS),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_estimator_weights_sum_to_the_inequality_value(n, seed):
    # weights contracted with each measurement's outcome distribution and
    # summed over the n measurements give the functional's value
    sc = build_scenario(n)
    rho = random_mixed_matrix(seed)
    for protocol in ProtocolId:
        for ineq in inequalities(protocol):
            w = estimator_weights(protocol, ineq)
            total = 0.0
            for i in range(n):
                kraus = measurement_set(sc, protocol, i).kraus_list
                total += w @ [float(np.sum(pr.p * rho)) for pr in kraus]
            assert total == pytest.approx(functional_operator(sc, ineq).value(rho), abs=1e-12)

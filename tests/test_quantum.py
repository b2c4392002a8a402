from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncycle import (
    AverageChannel,
    Channel,
    DensityMatrix,
    GameConfig,
    InvariantBreachError,
    Projector,
    ZeroProbabilityBranchError,
    average_protocol_channel,
    born_probability,
    build_scenario,
    extract_recurrence,
    functional_operator,
    maximally_mixed,
    pure_state,
    random_pure_state,
)
from ncycle.montecarlo import _measure_dichotomic, _Sampler
from ncycle.protocols import InequalityId, ProtocolId, measurement_set
from ncycle.quantum import projector_complement, projector_onto

from conftest import (
    measure_full,
    oracle_handle_overlap_sq,
    outer_projectors,
    random_mixed_matrix,
)


def complement_branch(m, v):
    """The sampler's Lüders update on the outcome orthogonal to v: a uniform
    equal to the weight p0 of v falls outside [0, p0)."""
    p0 = float(v @ (m @ v))
    return _measure_dichotomic(m, v, np.outer(v, v), p0)


def apply(lam, state):
    return DensityMatrix(lam.on_matrix(state.m))


def iterate(lam, state, k):
    m = state.m
    for _ in range(k):
        m = lam.on_matrix(m)
    return DensityMatrix(m)


def test_born_handle_on_a0(sc5, handle):
    p = born_probability(handle, projector_onto(sc5.a(0)))
    assert p == pytest.approx(oracle_handle_overlap_sq(5), abs=1e-14)
    assert p == pytest.approx(0.44721, abs=5e-6)


def test_born_orthogonal_states(sc5):
    state = pure_state(sc5.a(0))
    assert born_probability(state, projector_onto(sc5.a(1))) == 0.0


def test_born_maximally_mixed(sc5):
    for i in range(5):
        p = born_probability(maximally_mixed(), projector_onto(sc5.b(i)))
        assert p == pytest.approx(1 / 3, abs=1e-14)


def test_density_matrix_invariants_enforced():
    with pytest.raises(InvariantBreachError):
        DensityMatrix(np.diag([0.7, 0.4, -0.1]))
    with pytest.raises(InvariantBreachError):
        DensityMatrix(np.diag([0.7, 0.7, 0.1]))
    asym = np.diag([0.5, 0.3, 0.2]).astype(float)
    asym[0, 1] = 1e-3
    with pytest.raises(InvariantBreachError):
        DensityMatrix(asym)


def test_projector_invariants_enforced():
    with pytest.raises(InvariantBreachError):
        Projector(np.diag([0.5, 0.5, 0.0]), rank=1)
    with pytest.raises(InvariantBreachError):
        Projector(np.diag([1.0, 1.0, 0.0]), rank=1)


def test_channel_completeness_enforced(sc5):
    with pytest.raises(InvariantBreachError):
        Channel(kraus_list=(projector_onto(sc5.a(0)), projector_onto(sc5.a(1))))


def test_luders_rank1_projects(sc5, handle):
    a0 = sc5.a(0)
    slot, out = _measure_dichotomic(handle.m, a0, np.outer(a0, a0), 0.0)
    assert slot == 0
    assert np.abs(out - np.outer(a0, a0)).max() < 1e-14
    vs = sc5.outcome_vectors()[0]
    slot, out = measure_full(handle.m, vs, outer_projectors(vs), 0.0)
    assert slot == 0
    assert np.abs(out - np.outer(a0, a0)).max() < 1e-14


def test_luders_uniform_restriction(sc5):
    proj = projector_complement(sc5.a(0))
    slot, out = complement_branch(maximally_mixed().m, sc5.a(0))
    assert slot == 1
    assert np.abs(out - proj.p / 2.0).max() < 1e-14


def test_luders_hand_computed_product(sc5, handle):
    # explicit 3x3 arithmetic as the oracle
    b0 = sc5.b(0)
    proj = np.eye(3) - np.outer(b0, b0)
    rho = np.zeros((3, 3))
    rho[2, 2] = 1.0
    expected = proj @ rho @ proj
    expected /= np.trace(expected)
    _, got = complement_branch(handle.m, b0)
    assert np.abs(got - expected).max() < 1e-14


def test_luders_zero_probability_branch(sc5):
    for state, v in [
        (DensityMatrix(np.diag([1.0, 0.0, 0.0])), np.array([1.0, 0.0, 0.0])),
        (pure_state(sc5.a(0)), sc5.a(0)),
    ]:
        with pytest.raises(ZeroProbabilityBranchError):
            complement_branch(state.m, v)


def test_apply_channel_fixed_point(sc5):
    ch = measurement_set(sc5, ProtocolId.FULL, 0)
    out = apply(AverageChannel(channels=(ch,)), maximally_mixed())
    assert np.abs(out.m - np.eye(3) / 3).max() < 1e-14


def test_full_channel_decoheres_in_context_basis(sc5, handle):
    ch = measurement_set(sc5, ProtocolId.FULL, 2)
    out = apply(AverageChannel(channels=(ch,)), handle)
    basis = np.stack([sc5.a(2), sc5.b(2), sc5.a(3)])
    in_basis = basis @ out.m @ basis.T
    off = in_basis - np.diag(np.diag(in_basis))
    assert np.abs(off).max() < 1e-13


def test_dichotomic_channel_matches_matrix_sum(sc5, handle):
    ch = measurement_set(sc5, ProtocolId.A_ONLY, 0)
    p = np.outer(sc5.a(0), sc5.a(0))
    q = np.eye(3) - p
    rho = np.zeros((3, 3))
    rho[2, 2] = 1.0
    expected = p @ rho @ p + q @ rho @ q
    got = apply(AverageChannel(channels=(ch,)), handle)
    assert np.abs(got.m - expected).max() < 1e-14


@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_average_channel_unital(sc9, protocol):
    lam = average_protocol_channel(sc9, protocol)
    out = apply(lam, maximally_mixed())
    assert np.abs(out.m - np.eye(3) / 3).max() < 1e-12


@pytest.mark.parametrize("n", range(5, 21, 2))
@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_average_channel_preserves_trace(n, protocol):
    sc = build_scenario(n)
    lam = average_protocol_channel(sc, protocol)
    rng = np.random.default_rng(n)
    for _ in range(3):
        rho = DensityMatrix(random_mixed_matrix(int(rng.integers(1 << 31))))
        assert abs(np.trace(apply(lam, rho).m) - 1.0) < 1e-12


def test_bonly_channel_reproduces_recurrence_coefficients(sc5):
    # trace(B Lambda(rho)) must be affine in trace(B rho) with the coefficients
    # extracted by the analytic module, for arbitrary valid states
    coeffs = extract_recurrence(sc5, ProtocolId.B_ONLY, InequalityId.BETA)
    fop = functional_operator(sc5, InequalityId.BETA)
    lam = average_protocol_channel(sc5, ProtocolId.B_ONLY)
    for seed in range(20):
        rho = DensityMatrix(random_mixed_matrix(seed))
        lhs = fop.value(apply(lam, rho).m)
        rhs = coeffs.slope * fop.value(rho.m) + coeffs.offset
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_handle_converges_to_maximally_mixed_n5(protocol, sc5, handle):
    lam = average_protocol_channel(sc5, protocol)
    out = iterate(lam, handle, 200)
    assert np.abs(out.m - np.eye(3) / 3).max() < 1e-8


@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_random_states_converge_n5(protocol, sc5):
    # fixed-point uniqueness at desk scale
    lam = average_protocol_channel(sc5, protocol)
    rng = np.random.default_rng(7)
    for _ in range(10):
        out = iterate(lam, random_pure_state(rng), 200)
        assert np.abs(out.m - np.eye(3) / 3).max() < 1e-8


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    vec_seed=st.integers(min_value=0, max_value=2**31),
    rank=st.sampled_from([1, 2]),
)
def test_luders_output_is_valid_state(seed, vec_seed, rank):
    state = DensityMatrix(random_mixed_matrix(seed))
    v = np.random.default_rng(vec_seed).normal(size=3)
    v /= np.linalg.norm(v)
    proj = projector_onto(v) if rank == 1 else projector_complement(v)
    p = born_probability(state, proj)
    if p <= 1e-12:
        return
    if rank == 1:
        slot, out = _measure_dichotomic(state.m, v, np.outer(v, v), 0.0)
    else:
        slot, out = complement_branch(state.m, v)
    assert slot == rank - 1
    oracle = proj.p @ state.m @ proj.p / p
    assert np.abs(out - oracle).max() < 1e-13 / p
    out = DensityMatrix(out).m  # __post_init__ re-validates
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out).min() > -1e-10


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    vec_seed=st.integers(min_value=0, max_value=2**31),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_luders_kernels_are_bit_exact(seed, vec_seed, u):
    # the sampler's kernels take cached projectors; their states must equal
    # the outer-product formulas bit for bit, so any reordering of the
    # arithmetic fails here
    state = random_mixed_matrix(seed)
    basis, _ = np.linalg.qr(np.random.default_rng(vec_seed).normal(size=(3, 3)))
    vs = basis.T  # orthonormal, one vector per row
    v = vs[0]
    w = state @ v
    p0 = float(v @ w)
    for x in (u, 0.0, p0):
        slot, out = _measure_dichotomic(state, v, np.outer(v, v), x)
        assert slot == int(x >= p0)
        if slot == 0:
            expected = np.outer(v, v)
        else:
            q = 1.0 - p0
            expected = (state - np.outer(w, v) - np.outer(v, w) + p0 * np.outer(v, v)) / q
        assert np.array_equal(out, expected)
    slot, out = measure_full(state, vs, outer_projectors(vs), u)
    assert np.array_equal(out, np.outer(vs[slot], vs[slot]))
    # the state-index kernel's step from this state, with vs as choice 0,
    # puts u in the same slot
    sampler = _Sampler(GameConfig(n=5, protocol=ProtocolId.FULL, ineq=InequalityId.ALPHA,
                                  players=1, runs=100, seed=0,
                                  initial_state=DensityMatrix(state)))
    sampler.vectors = vs[None]
    lane = np.zeros(1, dtype=np.int64)
    assert sampler._measure(lane, lane, np.array([u]))[0][0] == slot


def test_random_pure_state_is_pure():
    rng = np.random.default_rng(0)
    for _ in range(10):
        rho = random_pure_state(rng).m
        assert np.abs(rho @ rho - rho).max() < 1e-12


def test_born_probability_range_check_fires():
    # a state matrix just outside the PSD cone gives the handle a weight of
    # -1e-9, past the 1e-10 clamp; DensityMatrix would refuse it, so the
    # matrix comes on a plain object
    state = SimpleNamespace(m=np.diag([0.5, 0.5, -1e-9]))
    with pytest.raises(InvariantBreachError, match="Born probability"):
        born_probability(state, projector_onto(np.array([0.0, 0.0, 1.0])))


def test_density_matrix_leaves_the_callers_array_writable():
    m = np.diag([0.5, 0.25, 0.25])
    d = DensityMatrix(m)
    assert d.m is not m and m.flags.writeable and not d.m.flags.writeable
    m[0, 0] = 0.0
    assert d.m[0, 0] == 0.5

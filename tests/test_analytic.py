import math
from types import SimpleNamespace

import numpy as np
import pytest

from ncycle import (
    DensityMatrix,
    InequalityId,
    InvariantBreachError,
    PairingError,
    ProtocolId,
    SymmetryBreachError,
    build_scenario,
    channel_sequence,
    evaluate,
    exact_sequence,
    extract_recurrence,
    handle_state,
    markov_matrix,
    optimal_initial_state_check,
    protocol1_sequence,
    pure_state,
    recurrence_sequence,
    table1,
)
from ncycle import analytic
from ncycle.analytic import aggregate_probability_vector, context_probabilities
from ncycle.protocols import FunctionalOperator
from ncycle.scenario import Scenario

from conftest import oracle_a_vectors, random_mixed_matrix

ODD_NS = list(range(5, 21, 2))

PAIRINGS = [
    (ProtocolId.FULL, InequalityId.ALPHA),
    (ProtocolId.FULL, InequalityId.BETA),
    (ProtocolId.A_ONLY, InequalityId.ALPHA),
    (ProtocolId.B_ONLY, InequalityId.BETA),
]


def oracle_t(n: int) -> float:
    a = oracle_a_vectors(n)
    return sum(float(np.dot(a[0], a[i])) ** 2 for i in range(n)) / n


def oracle_recurrence(n: int, ineq: InequalityId) -> tuple[float, float]:
    """Closed-form slope/offset from the block eigenvalues, computed with an
    eigensolver rather than handle contractions."""
    sc = build_scenario(n)
    vs = sc.a_vectors if ineq is InequalityId.ALPHA else sc.b_vectors
    op = sum(np.outer(v, v) for v in vs)
    evals = np.sort(np.linalg.eigh(op)[0])
    if ineq is InequalityId.BETA:
        lam1, lam0 = evals[0], evals[2]  # handle carries the smallest eigenvalue
    else:
        lam0, lam1 = evals[0], evals[2]
    z = (2 * lam0**2 + lam1**2) / n
    u = n + z - 2 * (lam0 + lam1)
    return (z + u) / n, 2 * lam0 * lam1 / n


def test_t_n5_matches_direct_summation():
    t = markov_matrix(5).t
    assert t == pytest.approx(oracle_t(5), abs=1e-14)
    assert t == pytest.approx(0.35279, abs=5e-6)


@pytest.mark.parametrize("n", ODD_NS)
def test_t_range(n):
    t = markov_matrix(n).t
    assert 1 / 3 < t < 1 / 2
    assert t == pytest.approx(oracle_t(n), abs=1e-13)


@pytest.mark.parametrize("n", ODD_NS)
def test_markov_matrix_structure(n):
    mm = markov_matrix(n)
    assert np.abs(mm.m.sum(axis=0) - 1).max() < 1e-12
    assert np.abs(mm.m.sum(axis=1) - 1).max() < 1e-12
    u = np.full(3, 1 / 3)
    assert np.abs(mm.m @ u - u).max() < 1e-14
    assert mm.m.min() > 0.0  # regular chain: strictly positive entries


@pytest.mark.parametrize("t", [0.25, 1 / 3, 0.5])
def test_markov_matrix_rejects_t_outside_open_range(t):
    with pytest.raises(analytic.InvariantBreachError, match="outside"):
        analytic.MarkovMatrix(t)


def test_markov_entry_equals_t9():
    mm = markov_matrix(9)
    assert mm.m[0, 0] == pytest.approx(oracle_t(9), abs=1e-13)


@pytest.mark.parametrize("n", [5, 9])
def test_markov_matches_independent_overlap_build(n):
    a = oracle_a_vectors(n)
    b = np.array([np.cross(a[i], a[(i + 1) % n]) for i in range(n)])
    b /= np.linalg.norm(b, axis=1)[:, None]

    def outcome_vecs(i):
        return np.stack([a[i], b[i], a[(i + 1) % n]])

    total = np.zeros((3, 3))
    cols = outcome_vecs(0)
    for i in range(n):
        total += (outcome_vecs(i) @ cols.T) ** 2
    assert np.abs(total / n - markov_matrix(n).m).max() < 1e-13


@pytest.mark.parametrize("n", [5, 11, 19])
def test_batched_overlap_build_matches_anchor_loop(n):
    sc = build_scenario(n)

    def outcome_vecs(i):
        return np.stack([sc.a(i), sc.b(i), sc.a(i + 1)])

    batched = analytic._markov_from_overlaps(sc)
    for anchor in range(n):
        cols = outcome_vecs(anchor)
        total = sum((outcome_vecs(i) @ cols.T) ** 2 for i in range(n))
        assert np.abs(batched[anchor] - total / n).max() < 1e-14


@pytest.mark.parametrize("n", [1001, 3001])
def test_markov_matrix_large_n(n):
    mm = markov_matrix(n)
    assert mm.m[0, 0] == pytest.approx(oracle_t(n), abs=1e-12)
    assert 1 / 3 < mm.t < 1 / 2


def _tilted_scenario(n: int, index: int, eps: float) -> Scenario:
    """Valid realization except that b_index gets eps added to its first
    component and is renormalized; built directly, skipping validation."""
    sc = build_scenario(n)
    b = sc.b_vectors.copy()
    b[index] += (eps, 0.0, 0.0)
    b[index] /= np.linalg.norm(b[index])
    return Scenario(n=n, a_vectors=sc.a_vectors, b_vectors=b, handle=sc.handle)


@pytest.mark.parametrize("index,deviation", [(0, "8.408e-08"), (7, "4.884e-08")])
def test_markov_check_catches_tilted_b_vector(monkeypatch, index, deviation):
    tilted = _tilted_scenario(11, index, 1e-6)
    monkeypatch.setattr(analytic, "build_scenario", lambda n: tilted)
    with pytest.raises(SymmetryBreachError, match=f"deviates by {deviation}"):
        markov_matrix(11)


@pytest.mark.parametrize("index", [0, 7])
def test_markov_check_tolerates_tiny_tilt(monkeypatch, index):
    tilted = _tilted_scenario(11, index, 1e-9)
    monkeypatch.setattr(analytic, "build_scenario", lambda n: tilted)
    assert markov_matrix(11).t == analytic._t_from_scenario(tilted)


def test_context_probabilities_sum_to_one(sc5, handle):
    for i in range(5):
        p = context_probabilities(sc5, handle, i)
        assert p.sum() == pytest.approx(1.0, abs=1e-14)
        assert (p >= 0).all()


def test_aggregate_vector_sums_to_n(sc9, handle):
    q = aggregate_probability_vector(sc9, handle)
    assert q.sum() == pytest.approx(9.0, abs=1e-12)


def test_protocol1_first_player_alpha(sc5, handle):
    seq = protocol1_sequence(sc5, InequalityId.ALPHA, handle, 3)
    assert seq.values[0] == pytest.approx(math.sqrt(5), abs=1e-12)
    assert seq.verdicts[0]


def test_protocol1_first_player_beta(sc5, handle):
    seq = protocol1_sequence(sc5, InequalityId.BETA, handle, 3)
    assert seq.values[0] == pytest.approx(5 - 2 * math.sqrt(5), abs=1e-12)
    assert seq.verdicts[0]


@pytest.mark.parametrize("ineq", list(InequalityId))
def test_protocol1_converges_by_60(sc5, handle, ineq):
    seq = protocol1_sequence(sc5, ineq, handle, 60)
    assert abs(seq.values[-1] - 5 / 3) < 1e-8


@pytest.mark.parametrize("n", ODD_NS)
@pytest.mark.parametrize("ineq", list(InequalityId))
def test_protocol1_no_violation_from_second_player(n, ineq):
    seq = protocol1_sequence(build_scenario(n), ineq, handle_state(), 30)
    assert seq.verdicts[0]
    assert not any(seq.verdicts[1:])
    assert seq.kmax_fixed == 1


@pytest.mark.parametrize("n", [5, 7, 15])
@pytest.mark.parametrize(
    "protocol,ineq",
    [(ProtocolId.A_ONLY, InequalityId.ALPHA), (ProtocolId.B_ONLY, InequalityId.BETA)],
)
def test_recurrence_coefficients_against_eigensolver_oracle(n, protocol, ineq):
    coeffs = extract_recurrence(build_scenario(n), protocol, ineq)
    slope, offset = oracle_recurrence(n, ineq)
    assert coeffs.slope == pytest.approx(slope, abs=1e-12)
    assert coeffs.offset == pytest.approx(offset, abs=1e-12)


@pytest.mark.parametrize("n", ODD_NS)
def test_recurrence_identities(n):
    sc = build_scenario(n)
    rb = extract_recurrence(sc, ProtocolId.B_ONLY, InequalityId.BETA)
    ra = extract_recurrence(sc, ProtocolId.A_ONLY, InequalityId.ALPHA)
    assert rb.slope == pytest.approx(1 - 3 * rb.offset / n, abs=1e-12)
    assert rb.fixed_point == pytest.approx(n / 3, abs=1e-10)
    assert ra.fixed_point == pytest.approx(n / 3, abs=1e-10)
    assert abs(rb.slope) < 1 and abs(ra.slope) < 1
    # block eigenvalues recombine to the operator trace
    assert 2 * rb.lambda0 + rb.lambda1 == pytest.approx(n, abs=1e-12)
    assert 2 * ra.lambda0 + ra.lambda1 == pytest.approx(n, abs=1e-12)


def test_pairing_errors(sc5, handle):
    with pytest.raises(PairingError):
        extract_recurrence(sc5, ProtocolId.A_ONLY, InequalityId.BETA)
    with pytest.raises(PairingError):
        extract_recurrence(sc5, ProtocolId.FULL, InequalityId.ALPHA)
    with pytest.raises(PairingError):
        recurrence_sequence(sc5, ProtocolId.B_ONLY, InequalityId.ALPHA, handle, 5)
    with pytest.raises(PairingError):
        channel_sequence(sc5, ProtocolId.A_ONLY, InequalityId.BETA, handle, 5)


def test_recurrence_sequence_n5_beta(sc5, handle):
    seq = recurrence_sequence(sc5, ProtocolId.B_ONLY, InequalityId.BETA, handle, 10)
    assert seq.values[0] == pytest.approx(5 - 2 * math.sqrt(5), abs=1e-12)
    assert seq.verdicts[0]
    assert seq.kmax_fixed == 2


def test_recurrence_sequence_n9_alpha(handle):
    seq = recurrence_sequence(
        build_scenario(9), ProtocolId.A_ONLY, InequalityId.ALPHA, handle, 10
    )
    assert seq.kmax_fixed == 1


def test_kmax_fields_independent_of_requested_length(sc5, handle):
    # crossing points come from the closed form in values[0] and the rate,
    # not from the stored window
    short = recurrence_sequence(sc5, ProtocolId.B_ONLY, InequalityId.BETA, handle, 1)
    long = recurrence_sequence(sc5, ProtocolId.B_ONLY, InequalityId.BETA, handle, 64)
    assert short.kmax_fixed == long.kmax_fixed == 2
    assert short.kmax_uniform == long.kmax_uniform == 4


def test_kmax_uniform_examples(handle):
    seq = recurrence_sequence(
        build_scenario(5), ProtocolId.B_ONLY, InequalityId.BETA, handle, 30
    )
    assert seq.kmax_uniform == 4
    seq = recurrence_sequence(
        build_scenario(5), ProtocolId.A_ONLY, InequalityId.ALPHA, handle, 30
    )
    assert seq.kmax_uniform == 2
    seq = recurrence_sequence(
        build_scenario(19), ProtocolId.B_ONLY, InequalityId.BETA, handle, 30
    )
    assert seq.kmax_uniform == 16


def test_kmax_uniform_n9_boundary(handle):
    # the position-averaged value at environment size 8 is 1.0010711... (above
    # the bound), so the largest violating size under the averaging rule is 7;
    # published summaries list 8 for this cell, a margin of 1.07e-3 that is far
    # outside numerical tolerance -- see the acceptance suite report
    seq = recurrence_sequence(
        build_scenario(9), ProtocolId.B_ONLY, InequalityId.BETA, handle, 30
    )
    s8 = sum(seq.values[:8])
    assert s8 / 8 == pytest.approx(1.0010711149, abs=1e-9)
    assert seq.kmax_uniform == 7


#: Players the stepping oracle may add past the stored values before giving up.
EXTENSION_CAP = 10_000


def _extended(values, rate: float, n: int):
    """Yield the sequence values, continuing exactly past the stored range."""
    asym = n / 3.0
    last = None
    for v in values:
        last = v
        yield v
    for _ in range(EXTENSION_CAP):
        last = asym + rate * (last - asym)
        yield last
    raise RuntimeError(f"sequence still undecided after {EXTENSION_CAP} players")


def stepped_kmax(values, rate: float, ineq: InequalityId, n: int) -> tuple[int, int]:
    """(kmax_fixed, kmax_uniform) by stepping one player at a time: the
    library's former method, kept as an oracle for the closed form."""
    kmax_fixed = 0
    for k, v in enumerate(_extended(values, rate, n), start=1):
        if evaluate(v, ineq, n).violates:
            kmax_fixed = k
        else:
            break
    kmax_uniform = 0
    total = 0.0
    for k, v in enumerate(_extended(values, rate, n), start=1):
        total += v
        if evaluate(total / k, ineq, n).violates:
            kmax_uniform = k
        else:
            break
    return kmax_fixed, kmax_uniform


@pytest.mark.parametrize("n", list(range(5, 102, 2)) + [401, 1001, 2001])
def test_closed_form_kmax_matches_stepping(n, handle):
    sc = build_scenario(n)
    for protocol, ineq in PAIRINGS:
        seq = exact_sequence(sc, protocol, ineq, handle, 8)
        expected = stepped_kmax(seq.values, seq.decay_rate, ineq, n)
        assert (seq.kmax_fixed, seq.kmax_uniform) == expected, (protocol, ineq)


def test_closed_form_kmax_past_the_old_cap():
    # synthetic b-protocol cell at N=20001: the stepping oracle gives up on the
    # uniform order here, while 4N/pi^2 = 8106.1 and 8N/pi^2 = 16212.2
    n = 20001
    v1 = math.pi**2 / (4 * n)
    r = 1 - 3 * math.pi**2 / (4 * n**2)
    seq = analytic._finish(n, ProtocolId.B_ONLY, InequalityId.BETA, [v1], r)
    assert (seq.kmax_fixed, seq.kmax_uniform) == (8106, 16212)
    d = v1 - n / 3

    def fixed(k):
        return n / 3 + r ** (k - 1) * d

    def uniform(k):
        return n / 3 + d * (1 - r**k) / (k * (1 - r))

    for value_at, k in ((fixed, seq.kmax_fixed), (uniform, seq.kmax_uniform)):
        assert evaluate(value_at(k), InequalityId.BETA, n).violates
        assert not evaluate(value_at(k + 1), InequalityId.BETA, n).violates
    with pytest.raises(RuntimeError, match="undecided"):
        stepped_kmax([v1], r, InequalityId.BETA, n)


COMPUTED_TABLE = {
    5: (1, 1, 2, 1, 2, 4),
    7: (1, 1, 3, 1, 1, 6),
    9: (1, 1, 4, 1, 1, 7),
    11: (1, 1, 5, 1, 1, 9),
    13: (1, 1, 5, 1, 1, 11),
    15: (1, 1, 6, 1, 1, 12),
    17: (1, 1, 7, 1, 1, 14),
    19: (1, 1, 8, 1, 1, 16),
}


def test_table_rows():
    rows = table1(ODD_NS)
    got = {r.n: r.as_tuple() for r in rows}
    assert got == COMPUTED_TABLE


def test_table_row_examples():
    rows = {r.n: r for r in table1([5, 7, 13])}
    assert rows[7].as_tuple() == (1, 1, 3, 1, 1, 6)
    assert rows[13].as_tuple() == (1, 1, 5, 1, 1, 11)
    assert rows[5].uniform_full == 1


@pytest.mark.parametrize("n", [5, 9])
def test_three_way_equivalence_small(n):
    sc = build_scenario(n)
    states = [handle_state()] + [
        DensityMatrix(random_mixed_matrix(seed)) for seed in range(4)
    ]
    for state in states:
        for ineq in InequalityId:
            p1 = protocol1_sequence(sc, ineq, state, 30)
            ch = channel_sequence(sc, ProtocolId.FULL, ineq, state, 30)
            assert np.abs(np.array(p1.values) - np.array(ch.values)).max() < 1e-10
        for protocol, ineq in [
            (ProtocolId.A_ONLY, InequalityId.ALPHA),
            (ProtocolId.B_ONLY, InequalityId.BETA),
        ]:
            rec = recurrence_sequence(sc, protocol, ineq, state, 30)
            ch = channel_sequence(sc, protocol, ineq, state, 30)
            assert np.abs(np.array(rec.values) - np.array(ch.values)).max() < 1e-10


@pytest.mark.parametrize("n", [5, 11, 19])
@pytest.mark.parametrize(
    "protocol,ineq",
    [(ProtocolId.A_ONLY, InequalityId.ALPHA), (ProtocolId.B_ONLY, InequalityId.BETA)],
)
def test_geometric_convergence_law(n, protocol, ineq, handle):
    sc = build_scenario(n)
    seq = recurrence_sequence(sc, protocol, ineq, handle, 40)
    r = seq.decay_rate
    d1 = seq.values[0] - n / 3
    for k in range(40):
        expected = abs(r) ** k * abs(d1)
        assert abs(seq.values[k] - n / 3) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("n", [5, 9, 19])
@pytest.mark.parametrize("ineq", list(InequalityId))
def test_monotone_envelope(n, ineq, handle):
    sc = build_scenario(n)
    for seq in (
        protocol1_sequence(sc, ineq, handle, 50),
        channel_sequence(sc, ProtocolId.FULL, ineq, handle, 50),
    ):
        devs = np.abs(np.array(seq.values) - n / 3)
        assert (devs[1:] <= devs[:-1] + 1e-12).all()


@pytest.mark.parametrize("n", [5, 19])
def test_running_mean_follows_cesaro_law(n, handle):
    # mean_K = n/3 + (v1 - n/3)(1 - r^K) / (K (1 - r)); the tail shrinks like
    # 1/K, so tolerance targets scale with K rather than being absolute
    sc = build_scenario(n)
    seq = recurrence_sequence(sc, ProtocolId.B_ONLY, InequalityId.BETA, handle, 10_000)
    vals = np.array(seq.values)
    r = seq.decay_rate
    v1 = vals[0]
    for K in (10, 100, 1000, 10_000):
        mean = vals[:K].mean()
        closed = n / 3 + (v1 - n / 3) * (1 - r**K) / (K * (1 - r))
        assert mean == pytest.approx(closed, abs=1e-9)
    # the tail is Cesàro: deviation drops by 10x per decade of K
    dev_1k = abs(vals[:1000].mean() - n / 3)
    dev_10k = abs(vals[:10_000].mean() - n / 3)
    assert dev_10k == pytest.approx(dev_1k / 10, rel=1e-2)


def test_optimal_initial_state_alpha(sc5):
    report = optimal_initial_state_check(
        sc5, ProtocolId.A_ONLY, InequalityId.ALPHA, trials=200, seed=11
    )
    assert report.passed
    assert report.worst_margin >= -1e-10
    assert report.trials == 200


def test_optimal_initial_state_beta(sc7):
    report = optimal_initial_state_check(
        sc7, ProtocolId.B_ONLY, InequalityId.BETA, trials=200, seed=3
    )
    assert report.passed


def test_optimal_check_handle_self_comparison(sc5, handle):
    a = recurrence_sequence(sc5, ProtocolId.B_ONLY, InequalityId.BETA, handle, 30)
    b = recurrence_sequence(
        sc5, ProtocolId.B_ONLY, InequalityId.BETA, pure_state(np.array([0.0, 0.0, 1.0])), 30
    )
    assert a.values == b.values


def test_alpha_contraction_convention_equivalence(sc9):
    # the (1,0,0) and (1/2,0,1/2) contractions agree on quantum probability
    # vectors: the third entry of context i equals the first of context i+1
    for seed in range(6):
        state = DensityMatrix(random_mixed_matrix(seed))
        q = aggregate_probability_vector(sc9, state)
        full = sum(
            context_probabilities(sc9, state, i)[0] for i in range(9)
        )
        assert float(np.dot([0.5, 0.0, 0.5], q)) == pytest.approx(full, abs=1e-12)


def test_sequence_verdict_accessor(sc5, handle):
    seq = recurrence_sequence(sc5, ProtocolId.B_ONLY, InequalityId.BETA, handle, 5)
    verdict = evaluate(seq.values[0], InequalityId.BETA, 5)
    assert verdict.violates
    assert verdict.margin == pytest.approx(2 * math.sqrt(5) - 4, abs=1e-12)


def test_recurrence_slope_range_check_fires(monkeypatch, sc5):
    # F = n |h><h| and the identity channel decompose exactly with slope 1 and
    # offset 0, and pass the closed-form cross-check: only the range check is
    # left to stop _last_violating's doubling search, which would never end
    h = sc5.handle
    fop = FunctionalOperator(op=sc5.n * np.outer(h, h))
    monkeypatch.setattr(analytic, "functional_operator", lambda sc, ineq: fop)
    monkeypatch.setattr(
        analytic, "average_protocol_channel", lambda sc, p: SimpleNamespace(on_matrix=lambda m: m)
    )
    with pytest.raises(InvariantBreachError, match=r"recurrence slope 1\.0 is not in \(0, 1\)"):
        extract_recurrence(sc5, ProtocolId.B_ONLY, InequalityId.BETA)


def test_context_probability_check_fires(handle):
    # b_0 tilted 1e-6 towards a_0 stays a unit vector, so its projector is
    # valid, but context 0 no longer resolves the identity; built without
    # _validate, the context's Born probabilities then miss 1 by about 4e-7
    sc = build_scenario(5)
    b = sc.b_vectors.copy()
    b[0] += 1e-6 * sc.a_vectors[0]
    b[0] /= np.linalg.norm(b[0])
    tilted = Scenario(n=5, a_vectors=sc.a_vectors, b_vectors=b, handle=sc.handle)
    with pytest.raises(InvariantBreachError, match="context 0 probabilities sum to"):
        context_probabilities(tilted, handle, 0)

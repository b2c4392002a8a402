import itertools
import math

import numpy as np
import pytest

from ncycle import (
    InvariantBreachError,
    UnsupportedScenarioError,
    build_scenario,
    enumerate_classical_bounds,
)
from ncycle import scenario
from ncycle.scenario import MAX_ENUMERATION_N, Scenario

from conftest import oracle_a_vectors, oracle_handle_overlap_sq

ODD_NS = list(range(5, 21, 2))


def test_first_vector_matches_closed_form():
    sc = build_scenario(5)
    k = 1.0 / math.sqrt(1.0 + math.cos(math.pi / 5))
    expected = np.array([k, 0.0, k * math.sqrt(math.cos(math.pi / 5))])
    assert np.abs(sc.a(0) - expected).max() < 1e-15
    # headline values
    assert sc.a(0)[0] == pytest.approx(0.7435, abs=5e-5)
    assert sc.a(0)[2] == pytest.approx(0.6687, abs=5e-5)


@pytest.mark.parametrize("n", ODD_NS)
def test_vectors_match_oracle(n):
    sc = build_scenario(n)
    assert np.abs(sc.a_vectors - oracle_a_vectors(n)).max() < 1e-14


@pytest.mark.parametrize("n", ODD_NS)
def test_adjacent_orthogonality(n):
    sc = build_scenario(n)
    for i in range(n):
        assert abs(np.dot(sc.a(i), sc.a(i + 1))) < 1e-12


def test_handle_overlap_n7():
    sc = build_scenario(7)
    got = float(np.dot(sc.a(0), sc.handle)) ** 2
    assert got == pytest.approx(oracle_handle_overlap_sq(7), abs=1e-14)
    assert got == pytest.approx(0.4740, abs=5e-5)


@pytest.mark.parametrize("n", ODD_NS)
def test_contexts_are_orthonormal_bases(n):
    sc = build_scenario(n)
    for i in range(n):
        basis = np.stack([sc.a(i), sc.b(i), sc.a(i + 1)])
        assert np.abs(basis @ basis.T - np.eye(3)).max() < 1e-12


@pytest.mark.parametrize("n", ODD_NS)
def test_gram_depends_only_on_index_difference(n):
    sc = build_scenario(n)
    gram = sc.a_vectors @ sc.a_vectors.T
    for d in range(n):
        vals = [gram[i, (i + d) % n] for i in range(n)]
        assert max(vals) - min(vals) < 1e-12


def test_b_sign_convention_is_deterministic():
    # the cross product of adjacent cone vectors always points upward: its
    # third component is K^2 sin(pi/n), which n * b_z keeps near pi/2, so the
    # build needs no sign fix even at large n
    for n in [*ODD_NS, 101, 1001, 4001, 10001]:
        sc = build_scenario(n)
        k2 = 1.0 / (1.0 + math.cos(math.pi / n))
        assert (sc.b_vectors[:, 2] > 0).all()
        assert n * sc.b_vectors[:, 2].min() > 1.57
        assert np.abs(sc.b_vectors[:, 2] - k2 * math.sin(math.pi / n)).max() < 1e-10


@pytest.mark.parametrize("n", [3, 4, 6, 1, -5, 0])
def test_build_rejects_unsupported(n):
    with pytest.raises(UnsupportedScenarioError):
        build_scenario(n)


def test_enumerate_rejects_even():
    with pytest.raises(UnsupportedScenarioError):
        enumerate_classical_bounds(6)


@pytest.mark.parametrize("n", [MAX_ENUMERATION_N + 2, 65])
def test_enumerate_rejects_above_cap_without_enumerating(monkeypatch, n):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(scenario.np, "arange", no_enumeration)
    with pytest.raises(UnsupportedScenarioError, match="cap"):
        enumerate_classical_bounds(n)


def enumerated_bounds(n):
    """Oracle: (alpha, beta, correlator) from a vectorised pass over all 2**n
    assignments, in chunks of 2**12 so each temporary stays under 1 MB."""
    shifts = np.arange(n, dtype=np.uint64)
    alpha_max, beta_min, corr_min = -1, n + 1, n + 1
    chunk = 1 << 12
    for start in range(0, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint64)
        bits = ((masks[:, None] >> shifts) & 1).astype(np.int64)
        nxt = np.roll(bits, -1, axis=1)
        # +-1 correlator: sum o_i o_{i+1} = n - 2 * (number of disagreements)
        corr_min = min(corr_min, int((n - 2 * (bits ^ nxt).sum(axis=1)).min()))
        ok = ~np.any(bits & nxt, axis=1)
        if ok.any():
            alpha_max = max(alpha_max, int(bits[ok].sum(axis=1).max()))
            beta = ((1 - bits[ok]) & (1 - nxt[ok])).sum(axis=1)
            beta_min = min(beta_min, int(beta.min()))
    return alpha_max, beta_min, corr_min


@pytest.mark.parametrize("n", range(3, 22, 2))
def test_bounds_match_enumeration(n):
    cb = enumerate_classical_bounds(n)
    got = (cb.alpha_bound, cb.beta_bound, cb.correlator_bound)
    assert got == enumerated_bounds(n)
    assert all(type(v) is int for v in got)


def test_bounds_at_cap_build_no_assignment_array(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(scenario.np, "arange", no_enumeration)
    cb = enumerate_classical_bounds(25)
    assert (cb.alpha_bound, cb.beta_bound, cb.correlator_bound) == (12, 1, -23)


def test_context_check_reports_first_failing_context():
    # stretching b_7 and b_9 by 0.9e-12 keeps every norm and overlap within
    # ORTHO_TOL, but their contexts miss the identity by about twice that
    sc = build_scenario(11)
    b = sc.b_vectors.copy()
    b[[7, 9]] *= 1 + 0.9e-12
    stretched = Scenario(n=11, a_vectors=sc.a_vectors, b_vectors=b, handle=sc.handle)
    with pytest.raises(InvariantBreachError, match="context 7 of n=11"):
        scenario._validate(stretched)


def test_bounds_n5():
    cb = enumerate_classical_bounds(5)
    assert cb.correlator_bound == -3
    assert cb.alpha_bound == 2
    assert cb.beta_bound == 1


def test_bounds_n3():
    cb = enumerate_classical_bounds(3)
    assert (cb.alpha_bound, cb.beta_bound, cb.correlator_bound) == (1, 1, -1)


@pytest.mark.parametrize("n", ODD_NS)
def test_bounds_closed_forms(n):
    cb = enumerate_classical_bounds(n)
    assert cb.alpha_bound == (n - 1) // 2
    assert cb.beta_bound == 1
    assert cb.correlator_bound == 2 - n


def brute_force_hypergraph(n):
    """Fully independent oracle: try all 2^(2n) assignments to the a- and
    b-vertices and keep those with exactly one true vertex per context."""
    best_alpha = -1
    best_beta = n + 1
    admissible = 0
    for bits in itertools.product((0, 1), repeat=2 * n):
        a, b = bits[:n], bits[n:]
        if all(a[i] + b[i] + a[(i + 1) % n] == 1 for i in range(n)):
            admissible += 1
            best_alpha = max(best_alpha, sum(a))
            best_beta = min(best_beta, sum(b))
    return best_alpha, best_beta, admissible


@pytest.mark.parametrize("n", [5, 7])
def test_bounds_against_independent_brute_force(n):
    alpha, beta, admissible = brute_force_hypergraph(n)
    assert admissible > 0
    cb = enumerate_classical_bounds(n)
    assert cb.alpha_bound == alpha
    assert cb.beta_bound == beta


def test_n7_alpha_bound_adjudication():
    # the exclusivity polytope allows three simultaneous a-outcomes on the
    # 7-cycle: (n-1)/2 = 3, not (n-2)/2
    assert enumerate_classical_bounds(7).alpha_bound == 3


def test_brute_force_correlator_n5():
    best = min(
        sum(o[i] * o[(i + 1) % 5] for i in range(5))
        for o in itertools.product((-1, 1), repeat=5)
    )
    assert best == enumerate_classical_bounds(5).correlator_bound == -3


def test_per_context_truth_count_is_n():
    # every admissible assignment marks exactly one vertex per context true,
    # so the per-context totals add to n
    n = 5
    for bits in itertools.product((0, 1), repeat=2 * n):
        a, b = bits[:n], bits[n:]
        if all(a[i] + b[i] + a[(i + 1) % n] == 1 for i in range(n)):
            assert sum(a[i] + b[i] + a[(i + 1) % n] for i in range(n)) == n


def test_validation_catches_tampering():
    sc = build_scenario(5)
    a = sc.a_vectors.copy()
    a[0, 0] = 1.0
    with pytest.raises(InvariantBreachError):
        scenario._validate(Scenario(n=5, a_vectors=a, b_vectors=sc.b_vectors, handle=sc.handle))

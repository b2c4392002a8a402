import functools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from ncycle import (
    GameConfig,
    InequalityId,
    InsufficientRunsError,
    InvariantBreachError,
    Ordering,
    PairingError,
    ProtocolId,
    build_scenario,
    compare_to_analytic,
    estimate_sequence,
    maximally_mixed,
    protocol1_sequence,
    recurrence_sequence,
)
from ncycle import montecarlo
from ncycle.montecarlo import _first_draws, _Sampler, analytic_reference, zscores_against
from ncycle.protocols import inequalities
from ncycle.quantum import DensityMatrix, average_protocol_channel, handle_state

from conftest import cumulative_born, measure_full, outer_projectors, random_mixed_matrix


def fresh_generator(seed, stream_id):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))


def cfg_b5(**kw):
    base = dict(
        n=5,
        protocol=ProtocolId.B_ONLY,
        ineq=InequalityId.BETA,
        players=4,
        runs=2000,
        seed=7,
    )
    base.update(kw)
    return GameConfig(**base)


def first_run_steps(cfg, run):
    return next(oracle_runs(cfg, run, run + 1))


def test_run_is_deterministic():
    cfg = cfg_b5()
    assert first_run_steps(cfg, 0) == first_run_steps(cfg, 0)
    assert first_run_steps(cfg, 3) != first_run_steps(cfg, 4)


def test_run_record_shape():
    steps = first_run_steps(cfg_b5(), 12)
    assert [pos for pos, _, _ in steps] == [1, 2, 3, 4]
    for _, choice, slot in steps:
        assert 0 <= choice < 5
        assert slot in (0, 1)


def test_ordering_does_not_change_the_estimate():
    # the tallies keep positions, not player identities, so the access order
    # is only echoed in the config
    for workers in (1, 2):
        fixed, shuffled = (
            estimate_sequence(cfg_b5(runs=300, ordering=o), workers=workers)
            for o in (Ordering.FIXED, Ordering.RANDOM_PERMUTATION)
        )
        assert np.array_equal(fixed.counts, shuffled.counts)
        assert fixed.estimates == shuffled.estimates
        assert fixed.stderrs == shuffled.stderrs


def test_config_validation():
    with pytest.raises(InvariantBreachError):
        cfg_b5(n=6)
    with pytest.raises(InvariantBreachError):
        cfg_b5(players=0)
    with pytest.raises(InvariantBreachError):
        cfg_b5(players=1 << 16)
    with pytest.raises(InvariantBreachError):
        cfg_b5(seed=-1)
    with pytest.raises(PairingError):
        cfg_b5(protocol=ProtocolId.A_ONLY)


def test_tally_cap_admits_every_player_count_at_the_smallest_n():
    assert cfg_b5(players=montecarlo.MAX_PLAYERS).players == montecarlo.MAX_PLAYERS
    assert cfg_b5(n=1001, players=327).players == 327
    for n, players in [(7, montecarlo.MAX_PLAYERS), (1001, 328)]:
        with pytest.raises(InvariantBreachError, match=r"players \* n must be at most 327675"):
            cfg_b5(n=n, players=players)


def test_statistical_floor():
    with pytest.raises(InsufficientRunsError):
        estimate_sequence(cfg_b5(runs=99))


def test_maximally_mixed_outcome_frequencies():
    # a complete measurement on the maximally mixed state gives 1/3 per slot
    cfg = GameConfig(
        n=5,
        protocol=ProtocolId.FULL,
        ineq=InequalityId.ALPHA,
        players=1,
        runs=30_000,
        seed=21,
        initial_state=maximally_mixed(),
    )
    est = estimate_sequence(cfg)
    counts = est.counts[0]  # (choice, outcome)
    for i in range(5):
        tot = counts[i].sum()
        for o in range(3):
            freq = counts[i, o] / tot
            sigma = np.sqrt((1 / 3) * (2 / 3) / tot)
            assert abs(freq - 1 / 3) < 3 * sigma + 1e-9


def test_aonly_first_player_frequencies():
    cfg = GameConfig(
        n=5,
        protocol=ProtocolId.A_ONLY,
        ineq=InequalityId.ALPHA,
        players=1,
        runs=30_000,
        seed=5,
    )
    est = estimate_sequence(cfg)
    p = 0.4472135954999579  # <a_i, handle>^2, identical for every i
    for i in range(5):
        tot = est.counts[0, i].sum()
        freq = est.counts[0, i, 0] / tot
        sigma = np.sqrt(p * (1 - p) / tot)
        assert abs(freq - p) < 3 * sigma


def test_estimates_match_analytic_b5():
    cfg = cfg_b5(runs=20_000)
    est = estimate_sequence(cfg)
    truth = recurrence_sequence(
        build_scenario(5), ProtocolId.B_ONLY, InequalityId.BETA, handle_state(), 4
    ).values
    for e, s, t in zip(est.estimates, est.stderrs, truth):
        assert s > 0
        assert abs(e - t) < 3 * s


def test_estimates_match_analytic_full9_position2():
    cfg = GameConfig(
        n=9,
        protocol=ProtocolId.FULL,
        ineq=InequalityId.ALPHA,
        players=2,
        runs=20_000,
        seed=13,
    )
    est = estimate_sequence(cfg)
    truth = protocol1_sequence(
        build_scenario(9), InequalityId.ALPHA, handle_state(), 2
    ).values
    assert abs(est.estimates[1] - truth[1]) < 3 * est.stderrs[1]


def test_random_order_pooled_average():
    cfg = cfg_b5(runs=20_000, ordering=Ordering.RANDOM_PERMUTATION)
    est = estimate_sequence(cfg)
    truth = recurrence_sequence(
        build_scenario(5), ProtocolId.B_ONLY, InequalityId.BETA, handle_state(), 4
    ).values
    pooled = np.mean(est.estimates)
    pooled_sigma = np.sqrt(sum(s**2 for s in est.stderrs)) / 4
    assert abs(pooled - np.mean(truth)) < 3 * pooled_sigma


def test_compare_to_analytic_passes():
    report = compare_to_analytic(cfg_b5(runs=5000))
    assert report.passed
    assert len(report.zscores) == 4
    assert max(abs(z) for z in report.zscores) < 4


def test_compare_to_analytic_random_ordering_passes():
    report = compare_to_analytic(cfg_b5(runs=5000, ordering=Ordering.RANDOM_PERMUTATION))
    assert report.passed


def test_adversarial_shift_is_detected():
    cfg = cfg_b5(runs=20_000)
    est = estimate_sequence(cfg)
    truth = analytic_reference(cfg)
    shifted = tuple(t + 0.05 for t in truth)
    _, ok = zscores_against(est, shifted)
    assert not ok


def test_partition_invariance(pooled):
    cfg = cfg_b5(runs=2000)
    results = [estimate_sequence(cfg, workers=w) for w in (1, 2, 8)]
    assert pooled == [2, 8]
    for other in results[1:]:
        assert np.array_equal(results[0].counts, other.counts)
        assert results[0].estimates == other.estimates
        assert results[0].stderrs == other.stderrs
    texts = {json.dumps(r.to_json_dict(), indent=2) for r in results}
    assert len(texts) == 1


def test_estimate_json_schema():
    est = estimate_sequence(cfg_b5(runs=200))
    doc = est.to_json_dict()
    assert set(doc) == {"config", "rng", "positions", "counts"}
    assert doc["rng"]["family"] == "philox4x64"
    assert doc["rng"]["seed"] == 7
    assert [row["k"] for row in doc["positions"]] == [1, 2, 3, 4]
    assert set(doc["positions"][0]) == {"k", "estimate", "stderr"}
    # counts nest position -> choice -> outcome label
    assert doc["counts"]["1"]["0"].keys() == {"b0", "!b0"}
    total = sum(
        c for per_choice in doc["counts"]["1"].values() for c in per_choice.values()
    )
    assert total == 200


def test_statistical_soundness_two_sigma_coverage():
    # across seeds, about 95% of estimates should land within 2 standard
    # errors of the analytic value; require at least 90%
    hits = 0
    total = 0
    for seed in range(20):
        for cfg in (
            cfg_b5(runs=2000, players=3, seed=seed),
            GameConfig(
                n=7,
                protocol=ProtocolId.A_ONLY,
                ineq=InequalityId.ALPHA,
                players=3,
                runs=2000,
                seed=seed,
            ),
        ):
            est = estimate_sequence(cfg)
            truth = analytic_reference(cfg)
            for e, s, t in zip(est.estimates, est.stderrs, truth):
                total += 1
                hits += abs(e - t) <= 2 * s
    assert hits / total >= 0.90


def g_test_configs():
    """Six players at n=7 for each protocol, from one non-symmetric mixed state."""
    mixed = DensityMatrix(random_mixed_matrix(7))
    return [
        GameConfig(n=7, protocol=p, ineq=inequalities(p)[0], players=6, runs=4000,
                   seed=40 + j, initial_state=mixed)
        for j, p in enumerate(ProtocolId)
    ]


#: Family-wise level of the G-tests, shared by Bonferroni over every position.
G_TEST_ALPHA = 1e-3
G_TEST_THRESHOLD = G_TEST_ALPHA / sum(cfg.players for cfg in g_test_configs())


def g_test_pvalues(cfg, counts):
    """Per-position G-test p-values of the (choice, outcome) table against
    ``runs/n * tr(P_{i,o} Lambda^{k-1}(rho))``: Lambda is the protocol's average
    channel, P_{i,o} the sampler's stacked projectors, ``I - P`` a complement
    outcome."""
    ps = _Sampler(cfg).states[1:].reshape(cfg.n, -1, 3, 3)
    if ps.shape[1] == 1:
        ps = np.concatenate([ps, np.eye(3) - ps], axis=1)
    channel = average_protocol_channel(build_scenario(cfg.n), cfg.protocol)
    state, pvalues = cfg.initial_state.m, []
    for observed in counts:
        expected = cfg.runs / cfg.n * np.einsum("ioab,ba->io", ps, state)
        pvalues.append(scipy.stats.power_divergence(
            observed.ravel(), expected.ravel(), lambda_="log-likelihood").pvalue)
        state = channel.on_matrix(state)
    return pvalues


def test_tally_table_passes_a_g_test_at_every_position():
    # every (position, choice, outcome) count, not only the per-position
    # estimate, follows the analytic distribution
    for cfg in g_test_configs():
        pvalues = g_test_pvalues(cfg, estimate_sequence(cfg).counts)
        assert min(pvalues) > G_TEST_THRESHOLD, (cfg.protocol, pvalues)


def test_g_test_sees_faults_the_z_check_misses(monkeypatch):
    # two outcome slots swapped in the tally, and a choice draw biased from 0
    # to 1 on every other lane: the per-position estimates stay within 4
    # standard errors, the G-test rejects
    cfg = g_test_configs()[0]  # full protocol, alpha: slots 0 and 2 weigh alike
    honest = estimate_sequence(cfg)
    measure = _Sampler._measure

    def swapped(self, state, choices, us):
        slots, state = measure(self, state, choices, us)
        return 2 - slots, state

    monkeypatch.setattr(_Sampler, "_measure", swapped)
    est = estimate_sequence(cfg)
    assert est.estimates == honest.estimates and zscores_against(est, analytic_reference(cfg))[1]
    assert min(g_test_pvalues(cfg, est.counts)) < G_TEST_THRESHOLD
    monkeypatch.undo()
    draws = montecarlo._draws

    def biased(seed, stream_ids, n):
        choices, us = draws(seed, stream_ids, n)
        return np.where((choices == 0) & (np.arange(len(choices)) % 2 == 0), 1, choices), us

    monkeypatch.setattr(montecarlo, "_draws", biased)
    for cfg in g_test_configs():
        est = estimate_sequence(cfg)
        assert zscores_against(est, analytic_reference(cfg))[1], cfg.protocol
        assert min(g_test_pvalues(cfg, est.counts)) < G_TEST_THRESHOLD, cfg.protocol


def test_position1_independent_of_later_choices():
    # no signaling backward in time: the first player's (choice, outcome)
    # statistics cannot depend on the second player's choice.  The tally keeps
    # no joint statistics, so the runs come from the oracle, whose tally must
    # be the sampler's
    cfg = GameConfig(
        n=5,
        protocol=ProtocolId.FULL,
        ineq=InequalityId.ALPHA,
        players=2,
        runs=100_000,
        seed=3,
    )
    table = np.zeros((3, 5), dtype=np.int64)  # outcome_1 (given choice_1=0) x choice_2
    counts = np.zeros((2, 5, 3), dtype=np.int64)
    for steps in oracle_runs(cfg, 0, cfg.runs):
        (_, c1, o1), (_, c2, o2) = steps
        if c1 == 0:
            table[o1, c2] += 1
        counts[0, c1, o1] += 1
        counts[1, c2, o2] += 1
    assert np.array_equal(counts, _Sampler(cfg).tally(0, cfg.runs))
    chi2 = scipy.stats.chi2_contingency(table)
    assert chi2.pvalue > 0.01


def fresh_first_draws(seed, stream_id, n):
    g = fresh_generator(seed, stream_id)
    return int(g.integers(n)), float(g.random())


def test_first_draws_match_fresh_generators():
    lanes = [
        (seed, (run << 16) | pos)
        for seed in (0, 1, 1 << 63, (1 << 64) - 1)
        for run in (0, 1, 1 << 47, (1 << 48) - 1)
        for pos in (1, 2, 65535)
    ]
    for seed in {s for s, _ in lanes}:
        ids = np.array([i for s, i in lanes if s == seed], dtype=np.uint64)
        for n in range(5, 102, 2):
            choice, u, reject = _first_draws(seed, ids, n)
            assert not reject.any()
            got = list(zip(choice.tolist(), u.tolist()))
            assert got == [fresh_first_draws(seed, int(i), n) for i in ids], (seed, n)


def test_first_draws_flag_exactly_the_lanes_lemire_rejects():
    # with n just above 2^31 about half of all lanes reject, so the flag is
    # checked against numpy's own first 32-bit word on both outcomes
    n = (1 << 31) + 1
    threshold = ((1 << 32) - n) % n
    ids = np.arange(1, 401, dtype=np.uint64)
    choice, u, reject = _first_draws(99, ids, n)
    for j, sid in enumerate(ids.tolist()):
        word0 = int(np.random.Philox(key=np.array([99, sid], dtype=np.uint64)).random_raw())
        assert bool(reject[j]) == (((word0 & 0xFFFFFFFF) * n) & 0xFFFFFFFF < threshold)
        if not reject[j]:
            assert (int(choice[j]), float(u[j])) == fresh_first_draws(99, sid, n)
    assert 100 < reject.sum() < 300


def game_configs():
    return [
        cfg_b5(runs=150, seed=11),
        GameConfig(n=9, protocol=ProtocolId.FULL, ineq=InequalityId.ALPHA,
                   players=3, runs=150, seed=(1 << 64) - 1),
        GameConfig(n=7, protocol=ProtocolId.A_ONLY, ineq=InequalityId.ALPHA,
                   players=5, runs=150, seed=0),
        # a mixed initial state under the complete measurement
        GameConfig(n=21, protocol=ProtocolId.FULL, ineq=InequalityId.BETA,
                   players=4, runs=150, seed=3,
                   initial_state=DensityMatrix(random_mixed_matrix(3))),
    ]


def oracle_kernel(cfg):
    return measure_full if cfg.protocol is ProtocolId.FULL else montecarlo._measure_dichotomic


def stacked_projectors(sampler, c):
    """Choice c's rank-1 projectors in the sampler's state stack: the three of
    a complete measurement, or a dichotomic slot's one."""
    ps = sampler.states[1:].reshape(sampler.cfg.n, -1, 3, 3)[c]
    return ps if len(ps) > 1 else ps[0]


def oracle_runs(cfg, start, stop):
    """Each run's (position, choice, slot) steps from the sampler's draws and
    the scalar kernels."""
    sampler, measure = _Sampler(cfg), oracle_kernel(cfg)
    positions = np.arange(1, cfg.players + 1, dtype=np.uint64)
    for lo in range(start, stop, 4096):
        runs = np.arange(lo, min(lo + 4096, stop), dtype=np.uint64)[:, None] << np.uint64(16)
        choices, us = montecarlo._draws(cfg.seed, (runs | positions).ravel(), cfg.n)
        for cs, xs in zip(choices.reshape(-1, cfg.players).tolist(),
                          us.reshape(-1, cfg.players).tolist()):
            state, steps = cfg.initial_state.m, []
            for pos, c, x in zip(range(1, cfg.players + 1), cs, xs):
                slot, state = measure(state, sampler.vectors[c], stacked_projectors(sampler, c), x)
                steps.append((pos, c, slot))
            yield steps


def scalar_tally(cfg, start, stop):
    """The reference: one fresh generator and two scalar draws per step."""
    sampler, measure = _Sampler(cfg), oracle_kernel(cfg)
    counts = np.zeros((cfg.players, cfg.n, sampler.n_outcomes), dtype=np.int64)
    for run in range(start, stop):
        state = cfg.initial_state.m
        for pos in range(1, cfg.players + 1):
            g = fresh_generator(cfg.seed, (run << 16) | pos)
            choice = int(g.integers(cfg.n))
            vs = sampler.vectors[choice]
            slot, state = measure(state, vs, outer_projectors(vs), float(g.random()))
            counts[pos - 1, choice, slot] += 1
    return counts


def test_rejected_lanes_fall_back_to_the_scalar_stream(monkeypatch):
    expected = [scalar_tally(cfg, 0, cfg.runs) for cfg in game_configs()]
    for cfg, counts in zip(game_configs(), expected):
        assert np.array_equal(_Sampler(cfg).tally(0, cfg.runs), counts)
    first_draws = montecarlo._first_draws

    def reject_all(seed, stream_ids, n):
        # a rejected lane's choice and uniform are not its draws: spoil them
        choice, u, reject = first_draws(seed, stream_ids, n)
        return np.zeros_like(choice), np.zeros_like(u), np.ones_like(reject)

    monkeypatch.setattr(montecarlo, "_first_draws", reject_all)
    for cfg, counts in zip(game_configs(), expected):
        assert np.array_equal(_Sampler(cfg).tally(0, cfg.runs), counts)


def test_runs_split_across_lane_blocks(monkeypatch):
    # 7 lanes a block: 143 runs are 20 blocks of 7 runs, one position a draw,
    # and a last block of 3 runs, whose positions are drawn two at a time
    expected = [scalar_tally(cfg, 3, 146) for cfg in game_configs()]
    monkeypatch.setattr(montecarlo, "_LANES", 7)
    for cfg, counts in zip(game_configs(), expected):
        assert np.array_equal(_Sampler(cfg).tally(3, 146), counts)


@functools.cache
def sampler_cases(protocol, n, stop):
    """(config, scalar tally of runs 3..stop-1) at 1, 2, 7 and 48 players, with
    the handle and a random mixed initial state; shared by the parametrized
    cases."""
    mixed = DensityMatrix(random_mixed_matrix(n))
    cases = []
    for players, initial in [(1, handle_state()), (2, mixed), (7, handle_state()), (48, mixed)]:
        cfg = GameConfig(n=n, protocol=protocol, ineq=inequalities(protocol)[0],
                         players=players, runs=100, seed=players, initial_state=initial)
        cases.append((cfg, scalar_tally(cfg, 3, stop)))
    return cases


@pytest.mark.parametrize("lanes", [1, 7, 1024])
@pytest.mark.parametrize(
    "protocol,n",
    [(p, n) for p in ProtocolId for n in (5, 9, 19, 21)] + [(ProtocolId.FULL, 101)],
    ids=lambda v: v.value if isinstance(v, ProtocolId) else None,
)
def test_sampler_matches_the_scalar_kernel(monkeypatch, protocol, n, lanes):
    # the handle and mixed states, drawn one lane at a time (10 runs suffice),
    # or 94 runs as 13 blocks of 7 and one of 3, drawn two positions at a time,
    # or as one block drawn ten positions at a time: a run's last draw then
    # covers fewer positions than the others
    stop = 13 if lanes == 1 else 97
    cases = sampler_cases(protocol, n, stop)
    monkeypatch.setattr(montecarlo, "_LANES", lanes)
    for cfg, counts in cases:
        assert np.array_equal(_Sampler(cfg).tally(3, stop), counts), cfg.players


@pytest.mark.parametrize("n", [5, 9, 19])
def test_born_table_entries_are_the_scalar_kernels_sums(n):
    # the step's running Born sums for every (state, choice) of the stack are
    # bit for bit the scalar kernel's, on states built from np.outer: a uniform
    # at each sum and one ulp below it lands in the scalar kernel's slot, and
    # the state the step leaves is the scalar kernel's projector
    for initial in (handle_state(), DensityMatrix(random_mixed_matrix(n))):
        cfg = GameConfig(n=n, protocol=ProtocolId.FULL, ineq=InequalityId.ALPHA,
                         players=1, runs=100, seed=0, initial_state=initial)
        sampler = _Sampler(cfg)
        states = [initial.m, *(np.outer(v, v) for vs in sampler.vectors for v in vs)]
        lanes, slots, after = [], [], []
        for s, state in enumerate(states):
            for c, vs in enumerate(sampler.vectors):
                for cum in cumulative_born(state, vs):
                    for u in (cum, np.nextafter(cum, -1.0)):
                        slot, out = measure_full(state, vs, outer_projectors(vs), u)
                        lanes.append((s, c, u))
                        slots.append(slot)
                        after.append(out)
        state, choices, us = (np.array(x) for x in zip(*lanes))
        got, index = sampler._measure(state, choices, us)
        assert np.array_equal(got, slots)
        assert np.array_equal(sampler.states[index], np.array(after))


def test_state_index_slot_at_a_cumulative_boundary(monkeypatch):
    # a uniform equal to a running sum belongs to the next slot, as in the
    # scalar kernel: every lane's uniform is set to its choice's first or
    # second running sum, taken from the oracle
    cfg = GameConfig(n=5, protocol=ProtocolId.FULL, ineq=InequalityId.ALPHA,
                     players=1, runs=200, seed=4)
    sampler = _Sampler(cfg)
    draws = montecarlo._draws

    def on_a_boundary(seed, stream_ids, n):
        choices, _ = draws(seed, stream_ids, n)
        sums = [cumulative_born(cfg.initial_state.m, sampler.vectors[c]) for c in choices]
        return choices, np.array([cum[j % 2] for j, cum in enumerate(sums)])

    monkeypatch.setattr(montecarlo, "_draws", on_a_boundary)
    expected = np.zeros((1, 5, 3), dtype=np.int64)
    ids = np.arange(cfg.runs, dtype=np.uint64) << np.uint64(16) | np.uint64(1)
    for c, u in zip(*on_a_boundary(cfg.seed, ids, cfg.n)):
        vs = sampler.vectors[c]
        expected[0, c, measure_full(cfg.initial_state.m, vs, outer_projectors(vs), u)[0]] += 1
    assert np.array_equal(sampler.tally(0, cfg.runs), expected)
    assert expected[0, :, 0].sum() == 0  # no uniform fell strictly inside slot 0


def test_full_tally_memory_does_not_grow_with_the_run_count():
    # nothing is cached between positions: at n=2001 a tally's traced peak is
    # the same at 1,024 and at 50,000 runs, and afterwards the sampler holds
    # nothing the tally allocated but numpy's first-call caches (2 KB); a
    # memo of the Born sums met would hold 0.3 MB at 1,024 runs
    peaks = []
    for runs in (1024, 50_000):
        cfg = GameConfig(n=2001, protocol=ProtocolId.FULL, ineq=InequalityId.ALPHA,
                         players=2, runs=runs, seed=0)
        sampler = _Sampler(cfg)
        tracemalloc.start()
        try:
            counts = sampler.tally(0, runs)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.sum() == 2 * runs
        assert current - counts.nbytes < 32 * 1024, (runs, current)
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) < 0.1 * 2**20, peaks


@pytest.mark.parametrize(
    "n,protocol,ineq",
    [(9, ProtocolId.FULL, InequalityId.ALPHA), (5, ProtocolId.B_ONLY, InequalityId.BETA),
     (7, ProtocolId.A_ONLY, InequalityId.ALPHA)],
    ids=["full-alpha", "b-beta", "a-alpha"],
)
def test_estimate_json_identical_at_1_2_and_8_workers(pooled, n, protocol, ineq):
    # 1001 runs give chunks of unequal size, whose blocks draw one, two or all
    # three positions at a time; the dichotomic protocols take the complement
    # branch, whose state is computed rather than cached
    cfg = GameConfig(n=n, protocol=protocol, ineq=ineq, players=3,
                     runs=1001, seed=5, ordering=Ordering.RANDOM_PERMUTATION)
    texts = {
        json.dumps(estimate_sequence(cfg, workers=w).to_json_dict(), indent=2)
        for w in (1, 2, 8)
    }
    assert len(texts) == 1
    assert pooled == [2, 8]


def test_each_pool_worker_gets_the_kernels_minimum(monkeypatch):
    # the merge and the tally are stubbed: only the worker count is under test
    sizes = []

    def merge(cfg, ranges):
        sizes.append(len(ranges))
        return np.zeros((cfg.players, cfg.n, 2), dtype=np.int64)

    monkeypatch.setattr(montecarlo, "_merge_parallel", merge)
    monkeypatch.setattr(montecarlo, "_tally_range", lambda cfg, lo, hi: merge(cfg, [(lo, hi)]))
    minimum = montecarlo.POOL_MIN_STEPS["dichotomic"]
    for runs, workers, expected in [(minimum // 2 - 1, 8, 1), (minimum // 2, 8, 2),
                                    (minimum * 4, 8, 8), (minimum * 4, 3, 3),
                                    (minimum * 4, 1, 1)]:
        sizes.clear()
        estimate_sequence(cfg_b5(runs=runs), workers=workers)  # 4 players a run
        assert sizes == [expected], (runs, workers)


def test_small_calls_never_start_a_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("process pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for cfg in game_configs():  # at most 750 player steps each
        assert np.array_equal(estimate_sequence(cfg, workers=8).counts,
                              _Sampler(cfg).tally(0, cfg.runs))
    monkeypatch.setattr(montecarlo, "POOL_MIN_STEPS",
                        dict.fromkeys(montecarlo.POOL_MIN_STEPS, 1))
    with pytest.raises(AssertionError, match="process pool started"):
        estimate_sequence(game_configs()[0], workers=8)


def test_projector_stack_is_read_only_and_survives_a_tally():
    # a state after a rank-1 outcome is the stacked projector itself, so a
    # write into that state must raise instead of corrupting later runs;
    # state 1 + k*c + o is np.outer of choice c's slot-o vector, for k slots
    for cfg in game_configs():
        sampler = _Sampler(cfg)
        stack = sampler.states
        assert not stack.flags.writeable
        vectors = sampler.vectors.reshape(cfg.n, -1, 3)
        k = vectors.shape[1]
        assert len(stack) == 1 + k * cfg.n and np.array_equal(stack[0], cfg.initial_state.m)
        for c, vs in enumerate(vectors):
            for o, v in enumerate(vs):
                assert np.array_equal(stack[1 + k * c + o], np.outer(v, v)), (c, o)
        before = stack.copy()
        sampler.tally(0, cfg.runs)
        assert np.array_equal(stack, before)
    sampler = _Sampler(cfg_b5())
    v, pv = sampler.vectors[0], sampler.states[1]
    slot, state = montecarlo._measure_dichotomic(handle_state().m, v, pv, 0.0)
    assert slot == 0 and state is pv
    with pytest.raises(ValueError):
        state[0, 0] = 0.0


def test_config_rejects_zero_runs():
    with pytest.raises(InvariantBreachError, match=r"runs must be in \[1, 2\^48\)"):
        cfg_b5(runs=0)


def test_variance_clamp_keeps_a_degenerate_stderr_at_zero(monkeypatch):
    # every run in slot 0: the exact variance is 0, but at this run count the
    # tally's float moments round it to -4.5e-13, whose square root is nan
    runs = 1_082_675_956_941
    cfg = GameConfig(n=101, protocol=ProtocolId.FULL, ineq=InequalityId.ALPHA,
                     players=1, runs=runs, seed=0)

    def all_in_slot_0(cfg, start, stop):
        counts = np.zeros((cfg.players, cfg.n, 3), dtype=np.int64)
        counts[:, 0, 0] = stop - start
        return counts

    monkeypatch.setattr(montecarlo, "_tally_range", all_in_slot_0)
    est = estimate_sequence(cfg)
    assert est.estimates == (50.5,)
    assert est.stderrs == (0.0,)

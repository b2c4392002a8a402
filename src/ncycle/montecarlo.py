"""Stochastic simulation of the sequential measurement game.

Each run prepares the initial state, fixes the player order (identity or a
fresh uniform permutation), and lets every player draw a uniform measurement
choice, sample an outcome from Born probabilities, and update the state by
the Lüders rule.  Runs are reproducible: every (seed, run, position) triple
owns a dedicated counter-based RNG stream, so partitioning runs across any
number of workers merges into bit-identical tallies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .analytic import _check_pairing, exact_sequence
from .errors import (
    InsufficientRunsError,
    InvariantBreachError,
    ZeroProbabilityBranchError,
)
from .protocols import InequalityId, ProtocolId, estimator_weights, outcome_labels
from .quantum import DensityMatrix, handle_state
from .scenario import build_scenario

RNG_FAMILY = "philox4x64"
RNG_DERIVATION = "key = [seed, run_index * 2^16 + position]"

#: Minimum run count accepted by the estimators.
STATISTICAL_FLOOR = 100

#: Most players in one run: positions fill the low 16 bits of a stream id.
MAX_PLAYERS = (1 << 16) - 1


class Ordering(Enum):
    FIXED = "fixed"
    RANDOM_PERMUTATION = "random"


@dataclass(frozen=True)
class RngStream:
    """One counter-based stream; (seed, stream_id) fully determine its output."""

    seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def stream_for(seed: int, run_index: int, position: int) -> RngStream:
    """Stream for one player position within one run; position 0 is the
    run-level stream that draws the access order."""
    return RngStream(seed=seed, stream_id=(run_index << 16) | position)


@dataclass(frozen=True, eq=False)
class GameConfig:
    n: int
    protocol: ProtocolId
    ineq: InequalityId
    players: int
    runs: int
    seed: int
    ordering: Ordering = Ordering.FIXED
    initial_state: DensityMatrix = field(default_factory=handle_state)

    def __post_init__(self) -> None:
        if self.n % 2 == 0 or self.n < 5:
            raise InvariantBreachError(f"n must be odd and >= 5, got {self.n}")
        if not 1 <= self.players <= MAX_PLAYERS:
            raise InvariantBreachError(f"players must be in [1, {MAX_PLAYERS}], got {self.players}")
        if not 1 <= self.runs < 1 << 48:
            raise InvariantBreachError(f"runs must be in [1, 2^48), got {self.runs}")
        if not 0 <= self.seed < 1 << 64:
            raise InvariantBreachError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        _check_pairing(self.protocol, self.ineq)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "protocol": self.protocol.value,
            "ineq": self.ineq.value,
            "players": self.players,
            "runs": self.runs,
            "seed": self.seed,
            "ordering": self.ordering.value,
            "initial_state": [[float(x) for x in row] for row in self.initial_state.m],
        }


@dataclass(frozen=True)
class PlayerRecord:
    player: int    # 1-based player identity
    position: int  # 1-based temporal slot the player occupied this run
    choice: int    # measurement index 0..n-1
    outcome: str   # outcome label, e.g. "a3", "b3", "!a3"


@dataclass(frozen=True)
class RunRecord:
    run_index: int
    records: tuple[PlayerRecord, ...]  # ordered by player identity


class _Sampler:
    """Per-process sampling engine with a reusable, rekeyable generator.

    Rekeying through the bit-generator state dict reproduces exactly the
    stream a fresh Philox construction with the same key would emit (asserted
    by the test suite), at a fraction of the construction cost.
    """

    def __init__(self, cfg: GameConfig):
        self.cfg = cfg
        u = build_scenario(cfg.n).outcome_vectors()
        if cfg.protocol is ProtocolId.FULL:
            self.vectors = u
        elif cfg.protocol is ProtocolId.A_ONLY:
            self.vectors = u[:, 0]
        else:
            self.vectors = u[:, 1]
        self.n_outcomes = 3 if cfg.protocol is ProtocolId.FULL else 2
        self._bg = np.random.Philox(key=np.array([0, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        self._template = self._bg.state

    def stream(self, run_index: int, position: int) -> np.random.Generator:
        s = self._template
        s["state"]["key"][0] = self.cfg.seed
        s["state"]["key"][1] = (run_index << 16) | position
        s["state"]["counter"][:] = 0
        s["buffer_pos"] = 4
        s["has_uint32"] = 0
        s["uinteger"] = 0
        self._bg.state = s
        return self._gen

    def play(self, run_index: int):
        """Yield (position, choice, outcome_slot) for one run."""
        cfg = self.cfg
        state = cfg.initial_state.m
        for pos in range(1, cfg.players + 1):
            g = self.stream(run_index, pos)
            choice = int(g.integers(cfg.n))
            u = float(g.random())
            if cfg.protocol is ProtocolId.FULL:
                slot, state = _measure_full(state, self.vectors[choice], u)
            else:
                slot, state = _measure_dichotomic(state, self.vectors[choice], u)
            yield pos, choice, slot

    def tally(self, start: int, stop: int) -> np.ndarray:
        counts = np.zeros((self.cfg.players, self.cfg.n, self.n_outcomes), dtype=np.int64)
        for r in range(start, stop):
            for pos, choice, slot in self.play(r):
                counts[pos - 1, choice, slot] += 1
        return counts


def _measure_full(state: np.ndarray, vs: np.ndarray, u: float):
    probs = np.einsum("oi,ij,oj->o", vs, state, vs)
    cum = 0.0
    slot = len(probs) - 1
    for o, p in enumerate(probs):
        cum += max(float(p), 0.0)
        if u < cum:
            slot = o
            break
    v = vs[slot]
    return slot, np.outer(v, v)


def _measure_dichotomic(state: np.ndarray, v: np.ndarray, u: float):
    w = state @ v
    p0 = float(v @ w)
    if u < p0:
        return 0, np.outer(v, v)
    q = 1.0 - p0
    if q <= 1e-12:
        raise ZeroProbabilityBranchError(
            f"zero-probability branch sampled: complement weight {q!r}"
        )
    out = (state - np.outer(w, v) - np.outer(v, w) + p0 * np.outer(v, v)) / q
    return 1, out


def simulate_run(cfg: GameConfig, run_index: int) -> RunRecord:
    """Play one run and return the per-player records, deterministically in
    (cfg.seed, run_index)."""
    sampler = _Sampler(cfg)
    if cfg.ordering is Ordering.RANDOM_PERMUTATION:
        order = sampler.stream(run_index, 0).permutation(cfg.players)
    else:
        order = np.arange(cfg.players)
    records = []
    for pos, choice, slot in sampler.play(run_index):
        player = int(order[pos - 1]) + 1
        label = outcome_labels(cfg.n, cfg.protocol, choice)[slot]
        records.append(PlayerRecord(player=player, position=pos, choice=choice, outcome=label))
    records.sort(key=lambda r: r.player)
    return RunRecord(run_index=run_index, records=tuple(records))


@dataclass(frozen=True, eq=False)
class SimulationEstimate:
    """Per-position estimates of the inequality value with standard errors.

    ``counts[k-1, i, o]`` tallies outcome slot ``o`` of measurement choice
    ``i`` at temporal position ``k``.  The estimator multiplies the empirical
    conditional mean by n because each player contributes one uniformly chosen
    term of the n-term inequality sum.
    """

    config: GameConfig
    estimates: tuple[float, ...]
    stderrs: tuple[float, ...]
    counts: np.ndarray
    runs_used: int

    def to_json_dict(self) -> dict:
        n = self.config.n
        labels = [outcome_labels(n, self.config.protocol, i) for i in range(n)]
        counts = {}
        for k in range(self.config.players):
            counts[str(k + 1)] = {
                str(i): {label: int(c) for label, c in zip(labels[i], self.counts[k, i])}
                for i in range(n)
            }
        return {
            "config": self.config.to_json_dict(),
            "rng": {
                "family": RNG_FAMILY,
                "seed": self.config.seed,
                "derivation": RNG_DERIVATION,
            },
            "positions": [
                {"k": k + 1, "estimate": self.estimates[k], "stderr": self.stderrs[k]}
                for k in range(self.config.players)
            ],
            "counts": counts,
        }


def _tally_range(cfg: GameConfig, start: int, stop: int) -> np.ndarray:
    return _Sampler(cfg).tally(start, stop)


def _partition(runs: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, runs))
    base, extra = divmod(runs, workers)
    ranges = []
    start = 0
    for w in range(workers):
        stop = start + base + (1 if w < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def estimate_sequence(cfg: GameConfig, workers: int = 1) -> SimulationEstimate:
    """Run the game cfg.runs times and estimate the per-position values.

    Runs are partitioned into ``workers`` contiguous chunks whose integer
    tallies merge by addition, so the result is bit-identical for any worker
    count.  Standard errors are leave-one-out (jackknife) errors of the mean,
    computed exactly from the tallies.
    """
    if cfg.runs < STATISTICAL_FLOOR:
        raise InsufficientRunsError(
            f"insufficient runs: {cfg.runs} < statistical floor {STATISTICAL_FLOOR}"
        )
    ranges = _partition(cfg.runs, workers)
    if len(ranges) == 1:
        counts = _tally_range(cfg, *ranges[0])
    else:
        counts = _merge_parallel(cfg, ranges)
    w = estimator_weights(cfg.protocol, cfg.ineq)
    r = cfg.runs
    n = cfg.n
    per_pos = counts.sum(axis=1)  # (players, n_outcomes)
    mean = n * (per_pos @ w) / r
    second = n * n * (per_pos @ (w * w)) / r
    var = (second - mean**2) * (r / (r - 1)) if r > 1 else np.zeros_like(mean)
    stderr = np.sqrt(np.maximum(var, 0.0) / r)
    return SimulationEstimate(
        config=cfg,
        estimates=tuple(float(x) for x in mean),
        stderrs=tuple(float(x) for x in stderr),
        counts=counts,
        runs_used=r,
    )


def _merge_parallel(cfg: GameConfig, ranges: list[tuple[int, int]]) -> np.ndarray:
    # imported here, not at module level: the pool machinery pulls in
    # multiprocessing, which every CLI start-up would otherwise pay for
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            parts = list(
                pool.map(_tally_range, [cfg] * len(ranges), *zip(*ranges))
            )
    except (OSError, BrokenProcessPool):
        # sandboxes without process support: same partition, sequential merge
        parts = [_tally_range(cfg, lo, hi) for lo, hi in ranges]
    total = np.zeros_like(parts[0])
    for p in parts:
        total += p
    return total


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Per-position z-scores of simulated estimates against analytic truth."""

    estimate: SimulationEstimate
    analytic: tuple[float, ...]
    zscores: tuple[float, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        out = self.estimate.to_json_dict()
        for k, row in enumerate(out["positions"]):
            row["analytic"] = self.analytic[k]
            row["z"] = self.zscores[k]
        out["pass"] = self.passed
        return out


def analytic_reference(cfg: GameConfig) -> tuple[float, ...]:
    """The per-position truth the estimator targets.

    Under a random access order the state met at temporal position k has the
    same statistics as under fixed order (choices are i.i.d. uniform either
    way), so the reference is ordering-independent.
    """
    sc = build_scenario(cfg.n)
    return exact_sequence(sc, cfg.protocol, cfg.ineq, cfg.initial_state, cfg.players).values


def zscores_against(
    est: SimulationEstimate, truth: tuple[float, ...]
) -> tuple[tuple[float, ...], bool]:
    zs = []
    for e, s, t in zip(est.estimates, est.stderrs, truth):
        if s == 0.0:
            zs.append(0.0 if e == t else float("inf"))
        else:
            zs.append((e - t) / s)
    return tuple(zs), all(abs(z) < 4.0 for z in zs)


def compare_to_analytic(cfg: GameConfig, workers: int = 1) -> ComparisonReport:
    """Estimate, fetch the matching analytic sequence, and report z-scores;
    the check passes when every position lies within 4 standard errors."""
    est = estimate_sequence(cfg, workers=workers)
    truth = analytic_reference(cfg)
    zs, ok = zscores_against(est, truth)
    return ComparisonReport(estimate=est, analytic=truth, zscores=zs, passed=ok)

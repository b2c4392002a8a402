"""Stochastic simulation of the sequential measurement game.

Each run prepares the initial state and lets every player, one temporal
position after another, draw a uniform measurement choice, sample an outcome
from Born probabilities, and update the state by the Lüders rule.  The tallies
keep positions, not player identities, so the access order (``Ordering``) is
only echoed in the config: a random order leaves every output number as it
is, and the randomized-order K_max comes from the analytic prefix mean.
Runs are reproducible: every (seed, run, position) triple owns a dedicated
counter-based RNG stream, so partitioning runs across any number of workers
merges into bit-identical tallies.

A player's choice and outcome uniform are the first two draws of its stream,
``integers(n)`` then ``random()``.  Both come from the stream's first
Philox4x64-10 block, computed for a block of (run, position) lanes at once:
the choice is Lemire's bounded draw on the low 32 bits of word 0, the uniform
is ``(word1 >> 11) * 2^-53``.  A lane whose bounded draw Lemire rejects (odds
about n * 2^-32) is redrawn from a fresh
``Generator(Philox(key=[seed, stream_id]))``, so every draw equals the one the
documented derivation makes.

No draw depends on the order in which lanes are visited, so every protocol
shares one loop, ``_Sampler.tally``: blocks of runs, positions in order, one
measurement step per position across the block.  A sampler builds one
read-only stack of states: the initial state and every rank-1 projector of
the protocol's measurements, elementwise the same products ``np.outer(v, v)``
gives, so every post-measurement state is bit-identical to one built from
fresh outer products.  A state after a rank-1 outcome is that stacked
projector itself, not a copy.  Under the complete measurement every state
after the first is such a projector, so a run's state is an index into the
stack, and one position is a gather and one batched Born contraction across
a block of runs, with nothing cached between positions.

``workers`` is a maximum: a call starts a process pool only when each worker
gets at least ``POOL_MIN_STEPS`` player steps of its kernel, and below that
it tallies in this process.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .analytic import exact_sequence
from .errors import (
    InsufficientRunsError,
    InvariantBreachError,
    ZeroProbabilityBranchError,
)
from .protocols import (
    SLOTS,
    InequalityId,
    ProtocolId,
    check_pairing,
    estimator_weights,
    outcome_labels,
)
from .quantum import DensityMatrix, handle_state
from .scenario import build_scenario

RNG_FAMILY = "philox4x64"
RNG_DERIVATION = "key = [seed, run_index * 2^16 + position]"

#: Minimum run count accepted by the estimators.
STATISTICAL_FLOOR = 100

#: Most players in one run: positions fill the low 16 bits of a stream id.
MAX_PLAYERS = (1 << 16) - 1

#: Most (position, choice) entries, ``players * n``, in one tally.  The tally
#: and its JSON hold one entry each: 77 to 94 B of JSON and 0.31 to 0.39 KB of
#: peak RSS per entry above a small call's, measured with ``simulate --format
#: json --runs 100`` at one worker at n=101 and n=5 (numpy 2.4, CPython 3.11;
#: the JSON is written as it is encoded, so the RSS is mostly the dict tree of
#: ``to_json_dict``).  The cap is the least that admits every player count at
#: the smallest n, 5: 327,675 entries, about 31 MB of JSON and 130 MB of RSS.
#: Without it, 65535 players at n=1001 would ask for ~80 GB.
MAX_TALLY_ENTRIES = 5 * MAX_PLAYERS


class Ordering(Enum):
    FIXED = "fixed"
    RANDOM_PERMUTATION = "random"


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
        if self.players * self.n > MAX_TALLY_ENTRIES:
            raise InvariantBreachError(
                f"players * n must be at most {MAX_TALLY_ENTRIES}, got "
                f"{self.players} * {self.n} = {self.players * self.n}"
            )
        if not 1 <= self.runs < 1 << 48:
            raise InvariantBreachError(f"runs must be in [1, 2^48), got {self.runs}")
        if not 0 <= self.seed < 1 << 64:
            raise InvariantBreachError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        check_pairing(self.protocol, self.ineq)

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


#: Lanes, one per (run, position), that one vectorised draw covers; it bounds
#: the draw temporaries whatever the run count.
_LANES = 1024

_MASK64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * b, from 32-bit halves."""
    a_hi, a_lo = np.uint64(a) >> _S32, np.uint64(a) & _LO32
    b_hi, b_lo = b >> _S32, b & _LO32
    ll, lh, hl, hh = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi
    mid = (ll >> _S32) + (lh & _LO32) + (hl & _LO32)
    hi = hh + (lh >> _S32) + (hl >> _S32) + (mid >> _S32)
    return hi, b * np.uint64(a)  # the low word is the product mod 2^64


def _first_draws(
    seed: int, stream_ids: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each lane's first ``integers(n)`` and ``random()`` draw, for all lanes at once.

    Lane j is the generator ``Philox(key=[seed, stream_ids[j]])``.  Its first
    Philox4x64-10 block (counter (1, 0, 0, 0)) gives words w0 and w1: the choice
    is Lemire's bounded draw on the low 32 bits of w0, the uniform is
    ``(w1 >> 11) * 2^-53``.  Where ``reject`` is set, Lemire's draw needs more
    bits than w0's low half and the lane's ``choice`` is not its draw.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    # round 1 on counter (1, 0, 0, 0): both products' high words are zero
    v0, v1 = np.full_like(ids, seed), np.zeros_like(ids)
    v2, v3 = ids, np.full_like(ids, _PHILOX_M[0])
    k0 = seed
    for r in range(1, 10):  # rounds 2..10, after key bump r
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 = ids + np.uint64(r * _PHILOX_W[1] & _MASK64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], v0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], v2)
        v0, v1, v2, v3 = hi1 ^ v1 ^ np.uint64(k0), lo1, hi0 ^ v3 ^ k1, lo0
    m = (v0 & _LO32) * np.uint64(n)
    reject = (m & _LO32) < np.uint64((2**32 - n) % n)
    u = (v1 >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return m >> _S32, u, reject


def _draws(seed: int, stream_ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's first ``integers(n)`` and ``random()`` draw, as int64 choices
    and float uniforms; a lane Lemire rejects is redrawn from a fresh generator
    on its key."""
    choice, u, reject = _first_draws(seed, stream_ids, n)
    choice = choice.astype(np.int64)
    for j in np.flatnonzero(reject).tolist():
        key = np.array([seed, stream_ids[j]], dtype=np.uint64)
        g = np.random.Generator(np.random.Philox(key=key))
        choice[j], u[j] = g.integers(n), g.random()
    return choice, u


class _Sampler:
    """Per-process sampling engine.

    Every (run, position) lane's choice and uniform come from ``_draws``, at
    most ``_LANES`` lanes at a time.  The measurement vectors and outcome count
    follow the protocol's ``SLOTS``: one slot is a dichotomic measurement
    against its complement, three are a complete measurement.  ``states`` is
    a read-only stack built once here: state 0 is the initial state and state
    ``1 + k*c + o`` is the rank-1 projector of choice c's slot o, for the
    protocol's k slots (``1 + 3c + o`` under the complete measurement).  It is
    read-only because a run's state is one of those very arrays.

    ``tally`` is the one sampler loop: blocks of runs, positions in order, and
    one ``_measure`` step per position across the block.  The complete
    measurement keeps each run's state as an index into ``states``, so a step
    is a gather and one ``einsum`` of Born probabilities across the block.  A
    dichotomic state after the complement outcome depends on the history, so
    its step runs ``_measure_dichotomic`` on a list of 3x3 states, lane by
    lane.
    """

    def __init__(self, cfg: GameConfig):
        self.cfg = cfg
        slots = SLOTS[cfg.protocol]
        u = build_scenario(cfg.n).outcome_vectors()[:, list(slots)]
        self.by_index = _kernel(cfg.protocol) == "index"
        if self.by_index:
            self.vectors, self.n_outcomes = u, len(slots)
        else:  # the slot's projector and its complement
            self.vectors, self.n_outcomes = u[:, 0], 2
        vs = u.reshape(-1, 3)
        # each projector is elementwise the product np.outer makes
        self.states = np.concatenate([cfg.initial_state.m[None], vs[:, :, None] * vs[:, None, :]])
        self.states.setflags(write=False)

    def tally(self, start: int, stop: int) -> np.ndarray:
        """The (players, n, outcomes) tally of runs [start, stop).

        Runs go in blocks of at most ``_LANES``; a block with fewer runs draws
        several positions at once, never more than ``_LANES`` lanes a draw,
        and adds one ``np.bincount`` per draw, cell ``outcomes * choice + slot``.
        """
        cfg, outcomes = self.cfg, self.n_outcomes
        n, players, cells = cfg.n, cfg.players, cfg.n * outcomes
        flat = np.zeros(players * cells, dtype=np.int64)
        for r0 in range(start, stop, _LANES):
            runs = np.arange(r0, min(r0 + _LANES, stop), dtype=np.uint64) << np.uint64(16)
            if self.by_index:
                state = np.zeros(len(runs), dtype=np.int64)
            else:
                state = [self.states[0]] * len(runs)
            width = max(1, _LANES // len(runs))  # positions drawn at once
            for p0 in range(0, players, width):
                p1 = min(p0 + width, players)
                positions = np.arange(p0 + 1, p1 + 1, dtype=np.uint64)[:, None]
                choices, us = _draws(cfg.seed, (runs | positions).ravel(), n)
                choices, us = choices.reshape(p1 - p0, -1), us.reshape(p1 - p0, -1)
                cell = np.empty_like(choices)  # (q, choice, slot) of each lane
                for q, (c, u) in enumerate(zip(choices, us)):
                    slots, state = self._measure(state, c, u)
                    cell[q] = outcomes * c + slots + q * cells
                flat[p0 * cells:p1 * cells] += np.bincount(
                    cell.ravel(), minlength=(p1 - p0) * cells
                )
        return flat.reshape(players, n, outcomes)

    def _measure(self, state, choices: np.ndarray, us: np.ndarray):
        """One position across a block of runs: each run's outcome slot and
        its state after the measurement."""
        if self.by_index:
            vs = self.vectors[choices, :2]
            probs = np.maximum(np.einsum("koi,kij,koj->ko", vs, self.states[state], vs), 0.0)
            cum0 = 0.0 + probs[:, 0]  # the running sums of the scalar kernel
            slots = (us >= cum0).astype(np.int64) + (us >= cum0 + probs[:, 1])
            return slots, 1 + 3 * choices + slots
        vectors, states = self.vectors, self.states
        slots, state = zip(*(
            _measure_dichotomic(s, vectors[c], states[1 + c], u)
            for s, c, u in zip(state, choices.tolist(), us.tolist())
        ))
        return np.array(slots), state


def _measure_dichotomic(state: np.ndarray, v: np.ndarray, pv: np.ndarray, u: float):
    """Measure v against its complement; ``pv`` is v's projector, ``np.outer(v, v)``."""
    w = state @ v
    p0 = float(v @ w)
    if u < p0:
        return 0, pv
    q = 1.0 - p0
    if q <= 1e-12:
        raise ZeroProbabilityBranchError(
            f"zero-probability branch sampled: complement weight {q!r}"
        )
    # wv.T holds np.outer(v, w): the same products, as multiplication commutes
    wv = w[:, None] * v
    return 1, (state - wv - wv.T + p0 * pv) / q


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


def _kernel(protocol: ProtocolId) -> str:
    """The sampler kernel of a protocol: ``"index"`` for the complete
    measurement, ``"dichotomic"`` for one slot against its complement."""
    return "dichotomic" if len(SLOTS[protocol]) == 1 else "index"


#: Fewest player steps per pool worker, by kernel: below twice this a call is
#: tallied in-process, because starting a pool costs more than a second worker
#: saves.  ``tools/pool_crossover.py`` times ``estimate_sequence`` at one and at
#: two workers with the pool machinery loaded.  On a 2-vCPU VM (CPython 3.11,
#: numpy 2.4) two workers began to win at 50k and 39k steps (index) and at
#: 2.9k and 3.2k steps (dichotomic, n=5; at n=19 they won from the smallest
#: probed total, 4.8k).  Each minimum is half the median crossing, rounded up
#: to a thousand: near the crossing a pool takes a second CPU for no gain.  A
#: later probe of three interleaved passes put the index kernel's crossings at
#: 28.6k to 32.0k steps (40.2k to 42.9k for its earlier table-lookup step) and
#: the dichotomic n=5 ones at 3.1k to 5.6k; neither moved by 2x, so the
#: minima stay.
POOL_MIN_STEPS = {"index": 23_000, "dichotomic": 2_000}


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

    Runs are partitioned into contiguous chunks: at most ``workers`` of them,
    and few enough that each holds ``POOL_MIN_STEPS`` player steps of the
    protocol's kernel.  Their integer tallies merge by addition, so the result
    is bit-identical for any worker count; a single chunk is tallied in this
    process, without a pool.  Standard errors are leave-one-out (jackknife)
    errors of the mean, computed exactly from the tallies.
    """
    if cfg.runs < STATISTICAL_FLOOR:
        raise InsufficientRunsError(
            f"insufficient runs: {cfg.runs} < statistical floor {STATISTICAL_FLOOR}"
        )
    min_steps = POOL_MIN_STEPS[_kernel(cfg.protocol)]
    ranges = _partition(cfg.runs, min(workers, cfg.runs * cfg.players // min_steps))
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
    var = (second - mean**2) * (r / (r - 1))
    stderr = np.sqrt(np.maximum(var, 0.0) / r)
    return SimulationEstimate(
        config=cfg,
        estimates=tuple(float(x) for x in mean),
        stderrs=tuple(float(x) for x in stderr),
        counts=counts,
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
    except (OSError, BrokenProcessPool) as exc:
        # sandboxes without process support: same partition, sequential merge
        warnings.warn(
            f"process pool failed ({type(exc).__name__}: {exc}); tallying its "
            f"{len(ranges)} run ranges in this process",
            RuntimeWarning,
            stacklevel=3,
        )
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

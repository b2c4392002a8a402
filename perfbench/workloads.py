"""The benchmark's three workloads, generated from a workload seed.

A workload is an endless sequence of rounds.  A round is a fixed list of
``ncycle`` CLI argument vectors whose cost mix is the same in every round and
for every seed; the seed only picks simulate seeds, small offsets of N and the
order of calls.  Because every round has the same mix, medians and tail
percentiles over whole rounds do not depend on how many rounds fit in a run.

* ``mc-game`` (in-process ``cli.main``): ``simulate --compare`` rotating
  through five configs with one player-step budget per call: the three
  configs of acceptance criterion 10, scaled down from the test's size (see
  ``MC_STEPS``), and two more.  The Monte Carlo sampler and its process pool
  do nearly all the work.  The deep config (N=19 b/beta with 48
  players, three times its ``kmax_uniform`` of 16, and few runs) is the case
  a sampler batched across runs could slow down; the random-ordering config
  exercises the per-run permutation draw.
* ``analytic-sweep`` (in-process ``cli.main``): ``table1``, ``asymptote`` and
  ``sequence --protocol a|b`` at large odd N, every N used at most once per
  process, so a per-N cache gets no hits across calls.  The O(N^2) anchor loop
  of ``analytic.markov_matrix`` dominates ``table1``/``asymptote``;
  ``sequence`` follows the recurrence and channel path.  A round has thirteen
  calls: ``table1`` at N near 101 and 151, ``asymptote`` near 225 and 325,
  and nine ``sequence`` calls from N=425 to 1001.  Thirteen is odd so that the
  pooled median falls among the sequence calls near N=800, whose costs lie
  close together, rather than on the boundary between two strata; the pooled
  p75 is the ``table1`` call near N=101, whose cost lies far from its
  neighbours'.  A round takes 2.3 to 3.7 s on a 2-CPU VM, as the host's speed
  varies, so a 30 s run holds 8 to 13 rounds.
* ``paper-cli`` (one fresh ``python -m ncycle`` process per call): the
  paper's sizes, N = 5..19, plus ``bounds --n 21``.  Interpreter start-up and
  imports dominate; no cache survives between calls.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("mc-game", "analytic-sweep", "paper-cli")

# Tail percentile per workload: the highest of p75/p90 that leaves at least
# ten samples beyond it in a 30 s run even when the host runs slow (about 150
# simulate calls, 90 to 170 analytic calls, 72 to 108 paper calls).  It is
# fixed rather than picked from each run's count so that the tail is the same
# call type in every run: with rounds of 13 calls, p75 is a round's 10th
# fastest call whatever the number of rounds.
TAIL_PCT = {"mc-game": 90, "analytic-sweep": 75, "paper-cli": 75}

SUBPROCESS = {"paper-cli"}

# Player steps (runs x players) of every simulate call.  Criterion 10 runs its
# configs at 100k runs, 300k to 400k player steps a call; 9600 is about 1/40
# of that, so that a 30 s run holds some 170 calls and its medians are steady.
# The fixed cost of a call (pool start-up, analytic reference, output) weighs
# far more at this size: the traced run measures the single-worker rate and
# pool efficiency at both sizes, and the fixed cost's share of each.
MC_STEPS = 9600

# (n, protocol, ineq, players, extra flags)
MC_CONFIGS = (
    (5, "b", "beta", 4, ()),
    (9, "full", "alpha", 3, ()),
    (7, "a", "alpha", 3, ()),
    (5, "b", "beta", 4, ("--ordering", "random")),
    (19, "b", "beta", 48, ()),
)

# (command flags, centre N).  Each centre is at least 50 from every other, so
# that a stratum finds a free N within +-24 of its centre for a dozen rounds
# and more: strata that crowd each other out would drift to costlier N.
SWEEP_STRATA = (
    *((("table1",), n) for n in (101, 151)),
    *((("asymptote",), n) for n in (225, 325)),
    *((("sequence", "--protocol", "a"), n) for n in (425, 575, 725, 875, 1001)),
    *((("sequence", "--protocol", "b", "--ineq", "beta"), n)
      for n in (501, 651, 801, 951)),
)

PAPER_N = tuple(range(5, 20, 2))
PAPER_SEQ = (("full", "alpha"), ("a", "alpha"), ("b", "beta"), ("full", "beta"))


def rounds(workload: str, seed: int):
    rng = random.Random(f"{workload}/{seed}")
    if workload == "mc-game":
        return _mc_rounds(rng)
    if workload == "analytic-sweep":
        return _sweep_rounds(rng)
    if workload == "paper-cli":
        return _paper_rounds(rng)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str) -> list[list[str]]:
    """Calls run untimed before measuring.  In-process workloads import their
    lazily loaded modules (and mc-game starts its pool once) here; each
    paper-cli call is a fresh process, and set-up has already warmed the file
    cache.  The analytic-sweep warm-up uses N far below the sweep's, so no
    (command, N) of the sweep repeats one of the warm-up."""
    if workload == "mc-game":
        return [mc_call(cfg, seed) for seed, cfg in enumerate(MC_CONFIGS)]
    if workload == "analytic-sweep":
        commands = dict.fromkeys(flags for flags, _ in SWEEP_STRATA)
        return [sweep_call(flags, n) for flags, n in zip(commands, (5, 7, 9, 11))]
    return []


def mc_call(cfg, seed: int, runs: int | None = None) -> list[str]:
    """A simulate call; ``runs`` defaults to the mc-game budget of MC_STEPS."""
    n, protocol, ineq, players, extra = cfg
    runs = MC_STEPS // players if runs is None else runs
    return ["simulate", "--n", str(n), "--protocol", protocol, "--ineq", ineq,
            "--players", str(players), "--runs", str(runs),
            "--seed", str(seed), *extra, "--compare", "--format", "json"]


def config_key(cfg) -> str:
    return "/".join(map(str, cfg[:4])) + ("/random" if cfg[4] else "")


def _mc_rounds(rng: random.Random):
    while True:
        yield [mc_call(cfg, rng.getrandbits(32)) for cfg in MC_CONFIGS]


def sweep_offsets(rng: random.Random):
    """Offsets (in steps of 2) of one stratum's N, round by round: a shuffled
    -2..2 for the first five rounds, then +-3, +-4, ... in pairs of rounds.
    Each pair's order is drawn per stratum, so that the strata do not all move
    up (or down) in the same round and round costs stay level."""
    first = list(range(-2, 3))
    rng.shuffle(first)
    yield from first
    for d in itertools.count(3):
        sign = rng.choice((1, -1))
        yield sign * d
        yield -sign * d


def sweep_call(flags, n: int) -> list[str]:
    if flags[0] == "table1":
        return ["table1", "--n-min", str(n), "--n-max", str(n), "--format", "json"]
    return [*flags, "--n", str(n), "--format", "json"]


def _sweep_rounds(rng: random.Random):
    offsets = [sweep_offsets(rng) for _ in SWEEP_STRATA]
    used: set[int] = set()
    while True:
        calls = []
        for (flags, centre), offs in zip(SWEEP_STRATA, offsets):
            n = _free_n(centre + 2 * next(offs), used)
            used.add(n)
            calls.append(sweep_call(flags, n))
        rng.shuffle(calls)
        yield calls


def _free_n(n: int, used: set[int]) -> int:
    """The odd N nearest to ``n`` (upwards first) not yet used in this process."""
    for d in itertools.count():
        for candidate in (n + 2 * d, n - 2 * d):
            if candidate not in used:
                return candidate


def paper_round() -> list[list[str]]:
    calls = [["table1", "--n-min", "5", "--n-max", "19"]]
    for i, n in enumerate(PAPER_N):
        protocol, ineq = PAPER_SEQ[i % len(PAPER_SEQ)]
        calls.append(["sequence", "--n", str(n), "--protocol", protocol, "--ineq", ineq])
        calls.append(["asymptote", "--n", str(n)])
    calls.append(["bounds", "--n", "21"])
    return calls


def _paper_rounds(rng: random.Random):
    while True:
        calls = paper_round()
        rng.shuffle(calls)
        yield calls

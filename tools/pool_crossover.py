"""Where a second sampler worker starts to pay, per kernel.

Times ``estimate_sequence`` at one and at two workers, alternating which goes
first, with the pool forced on (``POOL_MIN_STEPS`` lowered to 1), over each
kernel's configs from 3k player steps up.  One pass probes every config in
turn and prints the median times and their ratio; ``PASSES`` passes
interleave, so a drift of the host's speed falls on every config alike.  At
the end each config gets the least, median and greatest total, over all
passes, at which the ratio crosses 1 upwards (two workers begin to win),
interpolated in log steps between probed totals, and the count of downward
crossings, which are noise.  One untimed two-worker call first loads the pool
machinery, as in any process that simulates more than once; a one-shot
``simulate`` also pays that import, some 30 ms.  ``montecarlo.POOL_MIN_STEPS``
is half a kernel's crossing, so that each worker gets at least that many
steps; its comment gives the probe's numbers.

Usage: PYTHONPATH=src python3 tools/pool_crossover.py [--reps 9]
"""

from __future__ import annotations

import argparse
import statistics
from time import perf_counter

from ncycle import GameConfig, InequalityId, ProtocolId, estimate_sequence, montecarlo

#: Interleaved passes over every config: the spread of a crossing over them
#: shows how far the host's drift moves it.
PASSES = 3

# (kernel, n, protocol, ineq, players, player-step totals): the mc-game
# configs of each kernel; the index kernel is about ten times faster a step
CONFIGS = (
    ("index", 9, ProtocolId.FULL, InequalityId.ALPHA, 3,
     (3_000, 10_000, 30_000, 50_000, 100_000, 300_000)),
    ("dichotomic", 5, ProtocolId.B_ONLY, InequalityId.BETA, 4,
     (2_000, 3_000, 5_000, 7_000, 10_000, 30_000)),
    ("dichotomic", 19, ProtocolId.B_ONLY, InequalityId.BETA, 48,
     (4_800, 7_200, 10_000, 30_000)),
)


def crossings(totals: tuple[int, ...], ratios: list[float]) -> list[tuple[float, bool]]:
    """Totals where the ratio passes 1, log-interpolated, each with whether it rises."""
    out = []
    for (s0, r0), (s1, r1) in zip(zip(totals, ratios), zip(totals[1:], ratios[1:])):
        if (r0 < 1) != (r1 < 1):
            out.append((s0 * (s1 / s0) ** ((1 - r0) / (r1 - r0)), r1 > r0))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=9)
    args = parser.parse_args()
    montecarlo.POOL_MIN_STEPS.update(dict.fromkeys(montecarlo.POOL_MIN_STEPS, 1))
    estimate_sequence(GameConfig(n=5, protocol=ProtocolId.B_ONLY, ineq=InequalityId.BETA,
                                 players=1, runs=100, seed=0), workers=2)
    found: list[list[tuple[float, bool]]] = [[] for _ in CONFIGS]
    print("pass kernel      n players   steps   w1_ms   w2_ms  w1/w2")
    for p in range(1, PASSES + 1):
        for i, (kernel, n, protocol, ineq, players, totals) in enumerate(CONFIGS):
            ratios = []
            for steps in totals:
                times: dict[int, list[float]] = {1: [], 2: []}
                for rep in range(args.reps):
                    cfg = GameConfig(n=n, protocol=protocol, ineq=ineq, players=players,
                                     runs=steps // players, seed=rep)
                    for workers in (1, 2) if rep % 2 == 0 else (2, 1):
                        t0 = perf_counter()
                        estimate_sequence(cfg, workers=workers)
                        times[workers].append(perf_counter() - t0)
                w1, w2 = (statistics.median(times[w]) * 1e3 for w in (1, 2))
                ratios.append(w1 / w2)
                print(f"{p:4d} {kernel:10s} {n:2d} {players:7d} {steps:7d} {w1:7.1f} {w2:7.1f} "
                      f"{w1 / w2:6.2f}", flush=True)
            found[i] += crossings(totals, ratios)
    for (kernel, n, *_), points in zip(CONFIGS, found):
        ups = sorted(at for at, up in points if up)
        downs = len(points) - len(ups)
        spread = (f"min {ups[0]:.0f}, median {statistics.median(ups):.0f}, max {ups[-1]:.0f}"
                  if ups else "nowhere")
        print(f"{kernel} n={n}: w1/w2 crosses 1 upwards {len(ups)} times in {PASSES} "
              f"passes: {spread}; downwards {downs} times")


if __name__ == "__main__":
    main()

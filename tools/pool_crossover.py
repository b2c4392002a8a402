"""Where a second sampler worker starts to pay, per kernel.

Times ``estimate_sequence`` at one and at two workers, alternating which goes
first, with the pool forced on (``POOL_MIN_STEPS`` lowered to 1), over each
kernel's configs from 3k player steps up, and prints the median times, their
ratio and every total at which the ratio crosses 1, interpolated in log steps
between probed totals.  One untimed two-worker call first loads the pool
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


def crossings(totals: tuple[int, ...], ratios: list[float]) -> list[str]:
    """Totals where the ratio passes 1, log-interpolated, marked up or down."""
    out = []
    for (s0, r0), (s1, r1) in zip(zip(totals, ratios), zip(totals[1:], ratios[1:])):
        if (r0 < 1) != (r1 < 1):
            at = s0 * (s1 / s0) ** ((1 - r0) / (r1 - r0))
            out.append(f"{'up' if r1 > r0 else 'down'} at {at:.0f}")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=9)
    args = parser.parse_args()
    montecarlo.POOL_MIN_STEPS.update(dict.fromkeys(montecarlo.POOL_MIN_STEPS, 1))
    estimate_sequence(GameConfig(n=5, protocol=ProtocolId.B_ONLY, ineq=InequalityId.BETA,
                                 players=1, runs=100, seed=0), workers=2)
    print("kernel      n players   steps   w1_ms   w2_ms  w1/w2")
    for kernel, n, protocol, ineq, players, totals in CONFIGS:
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
            print(f"{kernel:10s} {n:2d} {players:7d} {steps:7d} {w1:7.1f} {w2:7.1f} {w1 / w2:6.2f}",
                  flush=True)
        print(f"{kernel} n={n}: w1/w2 crosses 1 {', '.join(crossings(totals, ratios)) or 'nowhere'}")


if __name__ == "__main__":
    main()

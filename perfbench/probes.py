"""Layer probes for the traced run, each in a fresh interpreter so that no
cache filled by a workload call can serve them.

Usage:
  python3 perfbench/probes.py sweep
      time build_scenario, markov_matrix, extract_recurrence (b/beta) and one
      AverageChannel.on_matrix step (b protocol) at N = 19, 301 and 1001;
  python3 perfbench/probes.py mcbase --seed S
      run simulate calls at NCYCLE_THREADS=nproc and at NCYCLE_THREADS=1
      (alternating which goes first) and compare their bytes: the first
      MCBASE_ROUNDS rounds of mc-game calls (9600 player steps each), the
      three criterion-10 configs at their test size (100k runs), and the same
      three at the statistical floor of 100 runs, whose time is the fixed
      per-call cost (argument parsing, pool start-up, analytic reference,
      JSON output).

Each prints one JSON object as its last stdout line.  ``src`` must be on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import traceback
from time import perf_counter

SWEEP_N = (19, 301, 1001)
MARKOV_REPS = {19: 7, 301: 3, 1001: 1}
REPS = 5

MCBASE_ROUNDS = 2
# The criterion-10 configs of the acceptance tests: the first three mc-game
# configs, 100k runs, each with the test's seed.
C10_RUNS = 100_000
C10_SEEDS = (42, 11, 5)
FLOOR_RUNS = 100
FLOOR_REPS = 3


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def sweep() -> dict:
    from ncycle import (InequalityId, ProtocolId, average_protocol_channel,
                        build_scenario, extract_recurrence, functional_operator,
                        markov_matrix)

    out = {}
    for n in SWEEP_N:
        out[f"build_scenario_ms.n{n}"] = _median_ms(lambda: build_scenario(n), REPS)
        out[f"markov_matrix_ms.n{n}"] = _median_ms(lambda: markov_matrix(n), MARKOV_REPS[n])
        sc = build_scenario(n)
        out[f"extract_recurrence_ms.n{n}"] = _median_ms(
            lambda: extract_recurrence(sc, ProtocolId.B_ONLY, InequalityId.BETA), REPS)
        lam = average_protocol_channel(sc, ProtocolId.B_ONLY)
        op = functional_operator(sc, InequalityId.BETA).op
        out[f"on_matrix_ms.n{n}"] = _median_ms(lambda: lam.on_matrix(op), 2 * REPS + 1)
    return out


def _simulate(argv: list[str], workers: int) -> tuple[int, float, bytes, str]:
    """One in-process simulate call: (exit code, seconds, stdout, stderr)."""
    from ncycle import cli

    os.environ["NCYCLE_THREADS"] = str(workers)
    buf, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 -- a crash is a failed call
            rc = 1
            err.write(traceback.format_exc())
    return rc, perf_counter() - t0, buf.getvalue().encode(), err.getvalue()


def _replay(jobs, nproc: int, verdicts) -> dict:
    """Run each ``(key, argv, steps)`` job at ``nproc`` and at 1 worker and
    return per-key rates; checks the nproc output and that both agree."""
    per_key: dict[str, dict[str, float]] = {}
    for j, (key, argv, steps) in enumerate(jobs):
        order = (nproc, 1) if j % 2 == 0 else (1, nproc)
        res = {w: _simulate(argv, w) for w in order}
        rc, elapsed_n, out_n, err_n = res[nproc]
        rc1, elapsed_1, out_1, err_1 = res[1]
        if not verdicts.check(argv, rc or rc1, out_n, err_n or err_1):
            continue
        if out_1 != out_n:
            verdicts.failed += 1
            verdicts.problems.append(f"{' '.join(argv)}: stdout differs between "
                                     f"NCYCLE_THREADS=1 and {nproc}")
            continue
        acc = per_key.setdefault(key, {"steps": 0, "calls": 0, "t_w1": 0.0, "t_wn": 0.0})
        acc["steps"] += steps
        acc["calls"] += 1
        acc["t_w1"] += elapsed_1
        acc["t_wn"] += elapsed_n
    if not per_key:
        return {}
    steps = sum(a["steps"] for a in per_key.values())
    calls = sum(a["calls"] for a in per_key.values())
    t_w1 = sum(a["t_w1"] for a in per_key.values())
    t_wn = sum(a["t_wn"] for a in per_key.values())
    return {
        "calls": calls,
        "steps_per_call": steps / calls,
        "call_s_w1": t_w1 / calls,
        "call_s_wn": t_wn / calls,
        "steps_per_s_w1": steps / t_w1,
        "steps_per_s_wn": steps / t_wn,
        "pool_efficiency": t_w1 / (nproc * t_wn),
        "per_config": {k: {"w1": a["steps"] / a["t_w1"], "wn": a["steps"] / a["t_wn"]}
                       for k, a in per_key.items()},
    }


def mcbase(seed: int) -> dict:
    from checks import Verdicts, load_golden
    from workloads import MC_CONFIGS, MC_STEPS, config_key, mc_call, rounds

    nproc = len(os.sched_getaffinity(0))
    verdicts = Verdicts(load_golden())
    gen = rounds("mc-game", seed)
    game = [(config_key(cfg), argv, MC_STEPS)
            for _ in range(MCBASE_ROUNDS) for cfg, argv in zip(MC_CONFIGS, next(gen))]
    c10_cfgs = MC_CONFIGS[:len(C10_SEEDS)]
    c10 = [(config_key(cfg), mc_call(cfg, s, runs=C10_RUNS), C10_RUNS * cfg[3])
           for cfg, s in zip(c10_cfgs, C10_SEEDS)]
    floor = [(config_key(cfg), mc_call(cfg, s + r, runs=FLOOR_RUNS), FLOOR_RUNS * cfg[3])
             for r in range(FLOOR_REPS) for cfg, s in zip(c10_cfgs, C10_SEEDS)]
    out = {"nproc": nproc}
    for name, jobs in (("game", game), ("c10", c10), ("floor", floor)):
        out[name] = _replay(jobs, nproc, verdicts)
    out.update(attempted=verdicts.attempted, failed=verdicts.failed,
               problems=verdicts.problems)
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("probe", choices=("sweep", "mcbase"))
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    result = sweep() if args.probe == "sweep" else mcbase(args.seed)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

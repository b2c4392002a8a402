"""Record the stdout digests that ``checks.py`` compares against.

Usage (from the repository root, at the commit whose bytes are the reference):
  python3 perfbench/make_golden.py

Covers every paper-cli call, every warm-up call, every analytic-sweep call
with an N offset of up to +-20 from its stratum centre (any seed, 21 rounds),
and the first ``MC_ROUNDS`` rounds of mc-game calls at the default workload
seed 0.
Simulate output does not depend on the worker count, so one run serves all.
Every output must pass the checks of ``checks.py`` before its digest is
recorded, so a call whose bytes match its digest needs no oracle run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from checks import GOLDEN_PATH, Verdicts, call_key, digest  # noqa: E402
from workloads import (SWEEP_STRATA, WORKLOADS, paper_round, rounds,  # noqa: E402
                       sweep_call, warmup)

MC_ROUNDS = 100
SWEEP_OFFSETS = range(-10, 11)
DEFAULT_SEED = 0


def calls():
    yield from paper_round()
    for workload in WORKLOADS:
        yield from warmup(workload)
    for flags, centre in SWEEP_STRATA:
        for d in SWEEP_OFFSETS:
            yield sweep_call(flags, centre + 2 * d)
    gen = rounds("mc-game", DEFAULT_SEED)
    for _ in range(MC_ROUNDS):
        yield from next(gen)


def main() -> int:
    from ncycle import cli

    golden = {}
    verdicts = Verdicts({})
    for argv in calls():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        out = buf.getvalue().encode()
        if not verdicts.check(argv, rc, out):
            raise SystemExit(verdicts.problems[-1])
        golden[call_key(argv)] = digest(out)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(golden)} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

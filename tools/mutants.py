"""Mutation audit of the invariant checks: does Tier-1 notice each one-line fault?

Each mutant replaces one exact line fragment of ``src/ncycle`` (it must occur
once).  The tool copies ``src/``, ``tests/`` and what the tests read
(``tools/``, ``perfbench/``) into a fresh temporary directory, applies the
mutant there and runs the Tier-1 command.  A mutant is killed when the set of
failing tests differs from that of the unmutated tree, or when the run errors
out or times out; no test is deselected, so the by-design failures count in
both sets alike.  A mutant marked equivalent changes nothing any input can
show and is listed with its reason.  Nothing is written inside the repo.

The list holds the checks an earlier probe mutated that still exist, one
mutant per check that a test was added to fire, and for each check deleted
as implied, a fault it guarded together with the check that still catches it.
One Tier-1 run takes one to two minutes, so the whole list takes about half an hour.

Usage: python3 tools/mutants.py
Exits 1 if a mutant no longer applies or a non-equivalent mutant survives.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "perfbench")
TIMEOUT_S = 1200


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/ncycle
    old: str
    new: str
    equivalent: str | None = None  # why no input can tell it apart


MUTANTS = (
    # checks the earlier probe mutated
    Mutant("slot-choice-boundary", "montecarlo.py",
           "(us >= cum0).astype", "(us > cum0).astype"),
    Mutant("zero-branch-guard", "montecarlo.py",
           "if q <= 1e-12:", "if False:"),
    Mutant("density-psd-check", "quantum.py",
           "if np.linalg.eigvalsh(m).min() < PSD_TOL:", "if False:"),
    Mutant("recurrence-slope-range", "analytic.py",
           "if not 0.0 < slope < 1.0:", "if False:"),
    Mutant("born-range-check", "quantum.py",
           "if raw < -PROB_CLAMP or raw > 1.0 + PROB_CLAMP:", "if False:"),
    Mutant("variance-clamp", "montecarlo.py",
           "np.sqrt(np.maximum(var, 0.0) / r)", "np.sqrt(var / r)"),
    Mutant("config-runs-lower-bound", "montecarlo.py",
           "if not 1 <= self.runs < 1 << 48:", "if not 0 <= self.runs < 1 << 48:"),
    Mutant("zscore-boundary", "montecarlo.py",
           "all(abs(z) < 4.0 for z in zs)", "all(abs(z) <= 4.0 for z in zs)",
           equivalent="differs only when a z-score is exactly 4.0, a float tie of "
           "(estimate - truth) / stderr that no simulate input produces"),
    Mutant("violation-boundary", "protocols.py",
           "violates=margin > VIOLATION_EPS", "violates=margin >= VIOLATION_EPS",
           equivalent="differs only when a margin equals VIOLATION_EPS = 1e-9 exactly, "
           "a float tie that no cycle length's closed-form value produces"),
    # the checks that stand in for the deleted ones, and the faults they catch
    Mutant("context-identity-check", "scenario.py",
           "if bad.size:", "if False:"),
    Mutant("unnormalised-b-vector", "scenario.py",
           "b[i] = c / np.linalg.norm(c)", "b[i] = c / np.linalg.norm(c, ord=1)"),
    Mutant("non-orthogonal-a-vectors", "scenario.py",
           "z = k * math.sqrt(math.cos(math.pi / n))", "z = k * math.cos(math.pi / n)"),
    Mutant("markov-t-range", "analytic.py",
           "if not 1.0 / 3.0 < t < 0.5:", "if False:"),
    Mutant("markov-pattern-not-bistochastic", "analytic.py",
           "e, d = 1 - 2 * t, 4 * t - 1", "e, d = 1 - 2 * t, 4 * t - 0.9"),
    Mutant("context-probability-sum", "analytic.py",
           "if abs(p.sum() - 1.0) > 1e-12:", "if False:"),
    Mutant("aggregate-drops-a-context", "analytic.py",
           "for i in range(sc.n))", "for i in range(sc.n - 1))"),
)

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def tier1(tree: Path) -> tuple[str, frozenset[str]]:
    """('ok' | 'exit N' | 'timeout', failing test ids) of Tier-1 on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", frozenset()
    status = "ok" if proc.returncode in (0, 1) else f"exit {proc.returncode}"
    return status, frozenset(_FAILED.findall(proc.stdout))


def run_on_copy(mutant: Mutant | None) -> tuple[str, frozenset[str]]:
    with tempfile.TemporaryDirectory(prefix="ncycle-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        if mutant is not None:
            path = tree / "src" / "ncycle" / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        return tier1(tree)


def stale(mutant: Mutant) -> bool:
    """True if the mutant's fragment is not in its file exactly once."""
    return (ROOT / "src" / "ncycle" / mutant.file).read_text().count(mutant.old) != 1


def main() -> int:
    bad = [m.name for m in MUTANTS if stale(m)]
    for name in bad:
        print(f"{name}: does not apply (fragment not found exactly once)")
    status, base = run_on_copy(None)
    if status != "ok":
        print(f"unmutated tree: Tier-1 {status}")
        return 1
    print(f"unmutated tree: {len(base)} failing: {', '.join(sorted(base))}")
    killed = 0
    for m in MUTANTS:
        if m.name in bad:
            continue
        status, failing = run_on_copy(m)
        if status != "ok":
            verdict = f"killed ({status})"
        elif failing != base:
            verdict = f"killed (+{len(failing - base)} failing, -{len(base - failing)})"
        elif m.equivalent:
            verdict = f"equivalent: {m.equivalent}"
        else:
            verdict = "SURVIVED"
            bad.append(m.name)
        killed += verdict.startswith("killed")
        print(f"{m.name}: {verdict}", flush=True)
    print(f"{killed} of {len(MUTANTS)} killed; {len(bad)} survived or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for benchmark calls; any problem fails the call.

Every check runs outside the timed region:

* the call exits 0;
* stdout matches the digest recorded at the seed commit, when ``golden.json``
  holds one for the same arguments (CLI bytes for fixed flags must not change);
* ``simulate``: the config echoes the flags, the outcome labels are the
  protocol's, counts sum to ``runs`` at every position, and every estimate,
  standard error and z-score recomputes from the counts;
* ``sequence``: every value agrees with the independent
  ``analytic.channel_sequence`` to 1e-10.  The oracle costs several times the
  call, so it is skipped when stdout matches its golden digest:
  ``make_golden.py`` records a digest only after these checks pass on it;
* ``bounds``: the classical bounds equal (N-1)/2, 1 and 2-N;
* ``table1`` and ``asymptote``: the rows cover the requested N, K values are
  non-negative integers, the asymptote is N/3 and every slope contracts.

A ``simulate --compare`` call whose 4-sigma verdict is false is not a failure:
a fair sampler misses 4 sigma at a known rate.  It is counted separately, and
so are misses where a position saw no weighted outcome at all: its standard
error is then 0 and the CLI reports z = inf (the deep mc-game config, with
200 runs, sees no b outcome at k=1 in about a quarter of its calls).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
ORACLE_TOL = 1e-10


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()[:32]


def call_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def flags(argv: list[str]) -> dict[str, str]:
    out = {}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[argv[i][2:]] = argv[i + 1]
            i += 2
        else:
            out[argv[i][2:]] = "true"
            i += 1
    return out


class Verdicts:
    """Running tally of check outcomes over one run's calls."""

    def __init__(self, golden: dict[str, str]) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.bytes = {"match": 0, "mismatch": 0, "absent": 0}
        self.compare_calls = 0
        self.compare_misses = 0
        self.compare_misses_zero_se = 0
        self.problems: list[str] = []

    def check(self, argv: list[str], rc: int, out: bytes, err: str = "") -> bool:
        self.attempted += 1
        problems = self._problems(argv, rc, out)
        if rc != 0 and err.strip():
            problems.append(err.strip().splitlines()[-1])
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{call_key(argv)}: {'; '.join(problems)}")
        return not problems

    def _problems(self, argv: list[str], rc: int, out: bytes) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        expected = self.golden.get(call_key(argv))
        if expected is None:
            self.bytes["absent"] += 1
        elif digest(out) == expected:
            self.bytes["match"] += 1
            if argv[0] == "sequence":
                return problems
        else:
            self.bytes["mismatch"] += 1
            problems.append("stdout differs from the seed commit's bytes")
        text = out.decode("utf-8")
        opts = flags(argv)
        try:
            problems += _CHECKS[argv[0]](self, opts, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unparseable output: {exc!r}")
        return problems

    def _simulate(self, opts: dict[str, str], text: str) -> list[str]:
        payload = json.loads(text)
        n, runs, players = int(opts["n"]), int(opts["runs"]), int(opts["players"])
        protocol, ineq = opts["protocol"], opts["ineq"]
        problems = []
        cfg = payload["config"]
        echo = {"n": n, "protocol": protocol, "ineq": ineq, "players": players,
                "runs": runs, "seed": int(opts["seed"]),
                "ordering": opts.get("ordering", "fixed")}
        if any(cfg[k] != v for k, v in echo.items()):
            problems.append("config does not echo the flags")
        weights = {("full", "alpha"): (0.5, 0.0, 0.5),
                   ("full", "beta"): (0.0, 1.0, 0.0)}.get((protocol, ineq), (1.0, 0.0))
        positions = payload["positions"]
        if len(positions) != players:
            problems.append(f"{len(positions)} positions for {players} players")
        for k, row in enumerate(positions):
            per_choice = payload["counts"][str(k + 1)]
            per_slot = [0] * len(weights)
            for i in range(n):
                counts = per_choice[str(i)]
                if tuple(counts) != _labels(protocol, i, n):
                    problems.append(f"labels {list(counts)} at k={k + 1}, choice {i}")
                for slot, c in enumerate(counts.values()):
                    per_slot[slot] += c
            if sum(per_slot) != runs:
                problems.append(f"counts at k={k + 1} sum to {sum(per_slot)}, not {runs}")
            mean = n * sum(c * w for c, w in zip(per_slot, weights)) / runs
            second = n * n * sum(c * w * w for c, w in zip(per_slot, weights)) / runs
            var = (second - mean**2) * (runs / (runs - 1))
            stderr = math.sqrt(max(var, 0.0) / runs)
            if not math.isclose(row["estimate"], mean, rel_tol=1e-12, abs_tol=1e-12):
                problems.append(f"estimate at k={k + 1} does not recompute from counts")
            if not math.isclose(row["stderr"], stderr, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"stderr at k={k + 1} does not recompute from counts")
            if row["stderr"] > 0:
                z = (row["estimate"] - row["analytic"]) / row["stderr"]
                if not math.isclose(row["z"], z, rel_tol=1e-12, abs_tol=1e-12):
                    problems.append(f"z at k={k + 1} does not recompute")
        verdict = all(abs(row["z"]) < 4.0 for row in positions)
        if payload["pass"] != verdict:
            problems.append("4-sigma verdict disagrees with the z-scores")
        self.compare_calls += 1
        self.compare_misses += not payload["pass"]
        self.compare_misses_zero_se += any(
            row["stderr"] == 0 and abs(row["z"]) >= 4.0 for row in positions)
        return problems

    def _sequence(self, opts: dict[str, str], text: str) -> list[str]:
        from ncycle import (InequalityId, ProtocolId, build_scenario,
                            channel_sequence, handle_state)

        n = int(opts["n"])
        protocol = ProtocolId(opts.get("protocol", "full"))
        ineq = InequalityId(opts.get("ineq", "alpha"))
        rows = _rows(text, opts)
        ref = channel_sequence(build_scenario(n), protocol, ineq, handle_state(),
                               len(rows)).values
        problems = []
        worst = max(abs(float(r["value"]) - v) for r, v in zip(rows, ref))
        if worst > ORACLE_TOL:
            problems.append(f"values deviate from channel_sequence by {worst:.3e}")
        for r in rows:
            if float(r["bound"]) != ineq.bound(n):
                problems.append(f"bound {r['bound']} for N={n}")
                break
            if not math.isclose(float(r["asymptote"]), n / 3.0, rel_tol=1e-11):
                problems.append(f"asymptote {r['asymptote']} for N={n}")
                break
        return problems

    def _bounds(self, opts: dict[str, str], text: str) -> list[str]:
        (row,) = _rows(text, opts)
        n = int(opts["n"])
        want = {"alpha_bound": (n - 1) // 2, "beta_bound": 1, "correlator_bound": 2 - n}
        return [f"{k} = {row[k]}, expected {v}" for k, v in want.items()
                if int(row[k]) != v]

    def _table1(self, opts: dict[str, str], text: str) -> list[str]:
        rows = _rows(text, opts)
        lo, hi = int(opts["n-min"]), int(opts["n-max"])
        want = list(range(lo + 1 - lo % 2, hi + 1, 2))
        problems = []
        if [int(r["n"]) for r in rows] != want:
            problems.append(f"rows for N={[r['n'] for r in rows]}, expected {want}")
        for r in rows:
            ks = ([*r["fixed"].values(), *r["uniform"].values()] if "fixed" in r
                  else [v for k, v in r.items() if k != "n"])
            if any(int(k) != float(k) or int(k) < 0 for k in ks):
                problems.append(f"K values {ks} at N={r['n']}")
        return problems

    def _asymptote(self, opts: dict[str, str], text: str) -> list[str]:
        n = int(opts["n"])
        if opts.get("format") == "json":
            payload = json.loads(text)
            asym = [payload["asymptote"]]
            slopes = [payload[p]["slope"] for p in ("full", "a", "b")]
        else:
            rows = _rows(text, opts)
            asym = [float(r["asymptote"]) for r in rows]
            slopes = [float(r["slope"]) for r in rows]
        problems = []
        if any(not math.isclose(a, n / 3.0, rel_tol=1e-11) for a in asym):
            problems.append(f"asymptote {asym} for N={n}")
        if any(not abs(s) < 1.0 for s in slopes):
            problems.append(f"non-contracting slope in {slopes}")
        return problems


_CHECKS = {
    "simulate": Verdicts._simulate,
    "sequence": Verdicts._sequence,
    "bounds": Verdicts._bounds,
    "table1": Verdicts._table1,
    "asymptote": Verdicts._asymptote,
}


def _labels(protocol: str, i: int, n: int) -> tuple[str, ...]:
    if protocol == "full":
        return (f"a{i}", f"b{i}", f"a{(i + 1) % n}")
    return (f"{protocol}{i}", f"!{protocol}{i}")


def _rows(text: str, opts: dict[str, str]) -> list[dict]:
    if opts.get("format") == "json":
        payload = json.loads(text)
        return payload if isinstance(payload, list) else [payload]
    return list(csv.DictReader(io.StringIO(text)))

"""ncycle benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload mc-game|analytic-sweep|paper-cli|all
                           --seed N --seconds T --trace 0|1

The load is closed-loop from one process: each call starts after the previous
one returns.  Calls go through the public CLI, in-process (``cli.main``) or as
a fresh ``python -m ncycle`` process, and are grouped in rounds of a fixed mix
(see ``workloads.py``), after a few untimed warm-up calls.  A new round
starts only while the median round time still fits in ``--seconds``.

Every time the benchmark reports is wall-clock time minus the CPU time the
hypervisor took from the machine's CPUs meanwhile (the ``steal`` column of
``/proc/stat``, summed over CPUs; 0 where the kernel does not report it).  On
a shared virtual machine steal is other tenants' load, not the program's, and
it moved the medians of runs minutes apart by more than any bound.

With ``--trace 0`` the run reports end-to-end metrics, untraced.  With
``--trace 1`` it alternates untraced and traced rounds, reports per-layer
metrics from the traced rounds and the tracing overhead, and runs the probe
of ``probes.py`` that belongs to the workload.  Every call's output is checked (``checks.py``)
outside the timed region.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

COMMANDS = ("table1", "sequence", "asymptote", "bounds", "simulate")
MODULES = ("scenario", "quantum", "protocols", "analytic", "montecarlo", "cli")
ANALYTIC_GROUP = ("scenario", "quantum", "protocols", "analytic")
# Set-up is timed SETUP_REPS times before measuring and SETUP_REPS times after,
# because spawn times drift with the host over seconds.
SETUP_REPS = 10
IMPORTTIME_REPS = 5
CALL_TIMEOUT_S = 120
CLK_TCK = os.sysconf("SC_CLK_TCK")

# Baselines from ROADMAP.md (2-CPU box, Python 3.11.7, numpy 2.4.6), each with
# the range later repeats on the same box spanned (markov_matrix at N=1001 took
# 9.3 to 10.8 s; single-worker simulate ran at 35k to 62k steps/s).
ROADMAP_BASELINES = {
    "markov_matrix_ms.n1001": (9300.0, (9300.0, 10800.0)),
    "steps_per_s_w1.5/b/beta/4": (37000.0, (35000.0, 62000.0)),
    "steps_per_s_w1.9/full/alpha/3": (53000.0, (35000.0, 62000.0)),
}

# Per-layer metrics that are reported in the JSON result of every traced run.
SPAN_SELF_MS = (
    "scenario.build_scenario", "analytic.markov_matrix", "analytic.extract_recurrence",
    "analytic.protocol1_sequence", "analytic.recurrence_sequence",
    "quantum.average_protocol_channel", "quantum.AverageChannel.on_matrix",
    "protocols.functional_operator", "cli.main",
)
# Spans that are structurally absent from some workload; printed, not in JSON.
SPAN_SELF_MS_REPORT_ONLY = (
    "scenario.enumerate_classical_bounds", "analytic.table1",
    "montecarlo.estimate_sequence", "montecarlo.analytic_reference",
    "montecarlo.SimulationEstimate.to_json_dict",
)
SPAN_CALLS = (
    "scenario.build_scenario", "analytic.markov_matrix", "analytic.extract_recurrence",
    "quantum.average_protocol_channel", "quantum.AverageChannel.on_matrix",
    "quantum.born_probability", "protocols.functional_operator",
    "protocols.measurement_set", "protocols.outcome_labels",
    "montecarlo.estimate_sequence",
)


class SetupError(Exception):
    """The checkout cannot run the program; no result is printed."""


def percentile(xs: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(xs)
    pos = p / 100.0 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def ladder_tail(xs: list[float]) -> tuple[int, float] | None:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 75, 90, 95, 99):
        if len(xs) * (1 - p / 100.0) >= 10:
            best = (p, percentile(xs, p))
    return best


def steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine's CPUs so far."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / CLK_TCK
    except (OSError, IndexError, ValueError):
        return 0.0


class Stopwatch:
    """Wall-clock time since creation, less the steal meanwhile (never < 0)."""

    def __init__(self) -> None:
        self.t0, self.steal0 = perf_counter(), steal_s()

    def read(self) -> float:
        return max(self.wall() - (steal_s() - self.steal0), 0.0)

    def wall(self) -> float:
        return perf_counter() - self.t0


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["NCYCLE_THREADS"] = str(nproc())
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=subprocess_env(),
                          capture_output=True, timeout=CALL_TIMEOUT_S)


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@dataclass
class Call:
    argv: list[str]
    rc: int
    out: bytes
    elapsed: float             # wall minus steal, see Stopwatch
    traced: bool
    wall: float = 0.0          # wall time, comparable with traced spans
    warmup: bool = False
    trace: dict | None = None  # traced_cli.py record of a traced subprocess call
    child_cpu: float = 0.0     # CPU seconds of the call's child processes
    err: str = ""              # stderr, or the traceback of an in-process crash

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def n(self) -> int:
        return int(self.argv[self.argv.index("--n") + 1]) if "--n" in self.argv else \
            int(self.argv[self.argv.index("--n-max") + 1])


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        from tracing import Tracer
        from workloads import SUBPROCESS

        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.subprocess = workload in SUBPROCESS
        self.tracer = Tracer()
        self.calls: list[Call] = []
        self.round_s: dict[bool, list[float]] = {False: [], True: []}
        self.lines: list[str] = []

    # -- execution ----------------------------------------------------------

    def call_inprocess(self, argv: list[str], traced: bool) -> Call:
        from ncycle import cli

        if traced:
            self.tracer.call_id = len(self.calls)
        buf, err = io.StringIO(), io.StringIO()
        kids0 = _children_cpu()
        watch = Stopwatch()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # noqa: BLE001 -- a crash is a failed call
                rc = 1
                err.write(traceback.format_exc())
        return Call(argv, rc, buf.getvalue().encode(), watch.read(), traced, watch.wall(),
                    child_cpu=_children_cpu() - kids0, err=err.getvalue())

    def call_subprocess(self, argv: list[str], traced: bool) -> Call:
        env = subprocess_env()
        if traced:
            env["PERFBENCH_SPAWN"] = repr(time.time())
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "ncycle", *argv]
        watch = Stopwatch()
        try:
            p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                               timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Call(argv, -1, b"", watch.read(), traced, watch.wall(),
                        err=f"timed out after {CALL_TIMEOUT_S} s")
        elapsed, wall = watch.read(), watch.wall()
        record, err = None, []
        for line in p.stderr.decode("utf-8", "replace").splitlines():
            if line.startswith("PERFBENCH-TRACE "):
                record = json.loads(line[len("PERFBENCH-TRACE "):])
            else:
                err.append(line)
        return Call(argv, p.returncode, p.stdout, elapsed, traced, wall, trace=record,
                    err="\n".join(err))

    def measure(self) -> None:
        from workloads import rounds, warmup

        if self.workload == "mc-game":
            os.environ["NCYCLE_THREADS"] = str(nproc())
        run_call = self.call_subprocess if self.subprocess else self.call_inprocess
        for argv in warmup(self.workload):
            call = run_call(argv, False)
            call.warmup = True
            self.calls.append(call)
        gen = rounds(self.workload, self.seed)
        min_rounds = 2 if self.trace else 1
        steal0 = steal_s()
        start = perf_counter()
        deadline = start + self.seconds
        done = 0
        while True:
            all_rounds = self.round_s[False] + self.round_s[True]
            expected = statistics.median(all_rounds) if all_rounds else 0.0
            if done >= min_rounds and perf_counter() + expected > deadline:
                break
            traced = self.trace and done % 2 == 1
            if traced and not self.subprocess:
                self.tracer.install()
            watch = Stopwatch()
            for argv in next(gen):
                self.calls.append(run_call(argv, traced))
            self.round_s[traced].append(watch.read())
            if traced and not self.subprocess:
                self.tracer.uninstall()
            done += 1
        self.measured_s = perf_counter() - start
        self.steal_share = (steal_s() - steal0) / (nproc() * self.measured_s)
        self.peak_rss_kb = {who: resource.getrusage(who).ru_maxrss
                            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}

    def setup_times(self, warm: bool = False) -> list[float]:
        """Times (less steal) of SETUP_REPS fresh interpreters'
        ``import ncycle.cli``; with ``warm``, after an untimed one that warms
        the file cache and bytecode."""
        times = []
        for _ in range(SETUP_REPS + warm):
            watch = Stopwatch()
            p = run_python(["-c", "import ncycle.cli"])
            if p.returncode != 0:
                raise SetupError(f"import ncycle.cli failed: {p.stderr.decode()[-400:]}")
            times.append(watch.read())
        return times[warm:]

    # -- checks -------------------------------------------------------------

    def check(self):
        from checks import Verdicts, load_golden

        verdicts = Verdicts(load_golden())
        for c in self.calls:
            verdicts.check(c.argv, c.rc, c.out, c.err)
        return verdicts

    # -- report -------------------------------------------------------------

    def say(self, line: str = "") -> None:
        self.lines.append(line)

    def run(self) -> dict:
        setup = [] if self.trace else self.setup_times(warm=True)
        self.measure()
        if not self.trace:
            setup += self.setup_times()
        verdicts = self.check()
        self.say(f"== ncycle benchmark: workload {self.workload}, seed {self.seed}, "
                 f"{'traced' if self.trace else 'untraced'}, {self.seconds} s budget ==")
        self.report_machine()
        self.report_inputs()
        metrics = (self.per_layer(verdicts) if self.trace
                   else self.end_to_end(statistics.median(setup)))
        self.report_checks(verdicts)
        return {
            "correct": verdicts.failed == 0,
            "attempted": verdicts.attempted,
            "failed": verdicts.failed,
            "metrics": metrics,
        }

    def report_machine(self) -> None:
        import numpy

        caches = _lscpu_caches()
        self.say(f"machine: nproc {nproc()} (cpu_count {os.cpu_count()}), "
                 f"Python {platform.python_version()}, numpy {numpy.__version__}, "
                 f"L2 {caches.get('L2', 'unknown')}, L3 {caches.get('L3', 'unknown')}")
        self.say("  note: single simulate calls varied by up to +-30% between repeats "
                 "on a shared 2-core box, so every timing is a median over many calls")

    def report_inputs(self) -> None:
        rounds = len(self.round_s[False]) + len(self.round_s[True])
        warm = sum(c.warmup for c in self.calls)
        self.say(f"inputs: {len(self.calls) - warm} calls in {rounds} rounds over "
                 f"{self.measured_s:.1f} s, closed loop, 1 client, after {warm} untimed "
                 "warm-up calls")
        self.say(f"  hypervisor steal: {100 * self.steal_share:.1f}% of the CPUs' time "
                 "while measuring; every end-to-end time below is wall time less steal")
        if self.subprocess:
            self.say("  input reuse: n/a (one fresh process per call, nothing carries over)")
            return
        seen, seen_n = set(), set()
        repeat = repeat_n = 0
        for c in self.calls:
            repeat += (c.command, c.n) in seen
            repeat_n += c.n in seen_n
            seen.add((c.command, c.n))
            seen_n.add(c.n)
        self.say(f"  input reuse: {repeat / len(self.calls):.3f} of calls repeat an "
                 f"earlier (command, N) in this process; {repeat_n / len(self.calls):.3f} "
                 "repeat an earlier N under any command")

    def end_to_end(self, setup: float) -> dict:
        from workloads import MC_STEPS, TAIL_PCT

        calls = [c for c in self.calls if not c.traced and not c.warmup]
        ms = [c.elapsed * 1e3 for c in calls]
        tail_pct = TAIL_PCT[self.workload]
        tail = percentile(ms, tail_pct)
        beyond = sum(x > tail for x in ms)
        self_rss = self.peak_rss_kb[resource.RUSAGE_SELF]
        kids_rss = self.peak_rss_kb[resource.RUSAGE_CHILDREN]
        wall = statistics.median(self.round_s[False])
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "call_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
            "call_ms_tail": {"value": tail, "unit": "ms"},
            "peak_rss_mb": {"value": max(self_rss, kids_rss) / 1024.0, "unit": "MB"},
        }
        self.say("end-to-end (untraced):")
        self.say(f"  setup_s            {setup:.4f} s   (median of {2 * SETUP_REPS} fresh "
                 "`import ncycle.cli`, half before measuring, half after)")
        self.say(f"  wall_s             {wall:.4f} s   (median round time, "
                 f"{len(self.round_s[False])} rounds)")
        self.say(f"  call_ms_p50        {metrics['call_ms_p50']['value']:.3f} ms  "
                 f"(all calls, n={len(ms)})")
        self.say(f"  call_ms_tail       {tail:.3f} ms  (p{tail_pct}, n={len(ms)}, "
                 f"{beyond} beyond{'' if beyond >= 10 else ' -- UNDER 10'})")
        for cmd in COMMANDS:
            xs = [c.elapsed * 1e3 for c in calls if c.command == cmd]
            if not xs:
                self.say(f"  {cmd}_ms_p50 / {cmd}_ms_tail: n/a (no {cmd} calls)")
                continue
            lt = ladder_tail(xs)
            tail_txt = (f"{lt[1]:.3f} ms (p{lt[0]})" if lt else
                        f"{max(xs):.3f} ms (max; fewer than 10 beyond p50)")
            self.say(f"  {cmd}_ms_p50 {statistics.median(xs):.3f} ms, {cmd}_ms_tail "
                     f"{tail_txt}, n={len(xs)}")
        sims = [c for c in calls if c.command == "simulate"]
        if sims:
            rate = len(sims) * MC_STEPS / sum(c.elapsed for c in sims)
            self.say(f"  mc_steps_per_s     {rate:.1f} 1/s  ({len(sims)} calls x "
                     f"{MC_STEPS} player steps)")
        else:
            self.say("  mc_steps_per_s     n/a (no simulate calls)")
        self.say(f"  peak_rss_mb        {metrics['peak_rss_mb']['value']:.2f} MB  "
                 f"(self {self_rss / 1024:.1f}, children {kids_rss / 1024:.1f})")
        return metrics

    def report_checks(self, v) -> None:
        frac = v.failed / v.attempted
        self.say(f"output checks: {'PASS' if v.failed == 0 else 'FAIL'}; "
                 f"failed_frac {frac:.4f} ({v.failed} of {v.attempted} calls)")
        self.say(f"  golden bytes: {v.bytes['match']} match, {v.bytes['mismatch']} differ, "
                 f"{v.bytes['absent']} without a recorded digest")
        if v.compare_calls:
            self.say(f"  --compare 4-sigma misses (not failures): {v.compare_misses} of "
                     f"{v.compare_calls} calls; {v.compare_misses_zero_se} of them at a "
                     "position with stderr 0 (no weighted outcome sampled, z = inf)")
        for p in v.problems:
            self.say(f"  problem: {p}")

    # -- traced run ---------------------------------------------------------

    def per_layer(self, verdicts) -> dict:
        from tracing import merge

        traced = [c for c in self.calls if c.traced]
        summary: dict = {}
        if self.subprocess:
            for c in traced:
                if c.trace is not None:
                    merge(summary, c.trace["trace"], tag=c.command)
            child_cpu = sum(c.trace["child_cpu_s"] for c in traced if c.trace)
        else:
            merge(summary, self.tracer.summary({i: c.command for i, c in enumerate(self.calls)}))
            child_cpu = sum(c.child_cpu for c in traced)
        self_s = summary.get("self_s", {})
        calls = summary.get("calls", {})
        ns = summary.get("ns", {})

        def self_ms(name: str) -> float:
            return 1e3 * sum(v.get(name, 0.0) for v in self_s.values())

        m: dict[str, dict] = {}

        def put(name: str, value: float, unit: str) -> None:
            m[name] = {"value": value, "unit": unit}

        for name in SPAN_CALLS:
            put(f"{name}.calls", calls.get(name, 0), "count")
        for name in SPAN_SELF_MS:
            put(f"{name}.self_ms", self_ms(name), "ms")
        for name in ("scenario.build_scenario", "analytic.markov_matrix"):
            c, d, _ = ns.get(name, [0, 0, 0])
            put(f"{name}.distinct_ratio", d / c if c else 0.0, "ratio")
        put("scenario.enumerate_classical_bounds.assignments",
            ns.get("scenario.enumerate_classical_bounds", [0, 0, 0])[2], "count")
        put("montecarlo.player_steps", summary.get("player_steps", 0), "count")
        put("cli.output_bytes", sum(len(c.out) for c in traced), "B")

        # layer shares of the traced call time; spans are wall time, so the
        # call times here are too
        total_s = sum(c.wall for c in traced)

        def shares(only=None) -> dict[str, float]:
            sel = [c for c in traced if only is None or only(c.command)]
            tot = sum(c.wall for c in sel)
            out = {mod: sum(s for tag, names in self_s.items()
                            if only is None or only(tag)
                            for name, s in names.items() if name.split(".")[0] == mod) / tot
                   for mod in MODULES}
            out["startup"] = (sum(c.trace["startup_s"] + c.trace["import_s"]
                                  for c in sel if c.trace) / tot) if self.subprocess else 0.0
            return out

        share = shares()
        for layer in ("startup", *MODULES):
            put(f"layer.{layer}.share_pct", 100.0 * share[layer], "%")

        untraced_round = statistics.median(self.round_s[False])
        traced_round = statistics.median(self.round_s[True])
        put("trace.overhead_s", traced_round - untraced_round, "s")

        # -- human-readable part
        self.say(f"per-layer (traced rounds: {len(traced)} calls, "
                 f"{total_s:.2f} s of call time):")
        self.say(f"  tracing overhead: {traced_round - untraced_round:+.4f} s per round "
                 f"({100 * (traced_round / untraced_round - 1):+.1f}%; median traced "
                 f"round {traced_round:.3f} s vs untraced {untraced_round:.3f} s)")
        for name in sorted(set(SPAN_SELF_MS) | set(SPAN_SELF_MS_REPORT_ONLY)):
            self.say(f"  {name}: calls {calls.get(name, 0)}, self_ms {self_ms(name):.3f}")
        for name in SPAN_CALLS:
            if name not in SPAN_SELF_MS and name not in SPAN_SELF_MS_REPORT_ONLY:
                self.say(f"  {name}: calls {calls.get(name, 0)}")
        for key in ("scenario.build_scenario.distinct_ratio",
                    "analytic.markov_matrix.distinct_ratio",
                    "scenario.enumerate_classical_bounds.assignments",
                    "montecarlo.player_steps", "cli.output_bytes"):
            self.say(f"  {key}: {m[key]['value']:.6g}")
        self.say(f"  montecarlo.child_cpu_s: {child_cpu:.4f} s (CPU of the CLI's child "
                 "processes, i.e. pool workers)")
        if self.workload == "mc-game":
            self.probe_mcbase(verdicts)
        elif self.workload == "analytic-sweep":
            self.probe_sweep(verdicts)
        else:
            self.probe_import()
        self.report_shares(share, shares)
        return m

    def run_probe(self, verdicts, *args: str) -> dict | None:
        """Run one ``probes.py`` probe; a probe that crashes is a failed call."""
        p = run_python([str(BENCH / "probes.py"), *args])
        if p.returncode == 0:
            return last_json_line(p.stdout.decode())
        verdicts.attempted += 1
        verdicts.failed += 1
        err = p.stderr.decode("utf-8", "replace").strip().splitlines() or [""]
        verdicts.problems.append(f"probe {args[0]} exited {p.returncode}: {err[-1]}")
        self.say(f"  probe {args[0]}: FAILED (see output checks)")
        return None

    def probe_mcbase(self, verdicts) -> None:
        """Single-worker baseline and pool efficiency at the mc-game and the
        criterion-10 call sizes, and the fixed per-call cost's share of each."""
        from probes import C10_RUNS, FLOOR_RUNS, MCBASE_ROUNDS
        from workloads import MC_STEPS

        mb = self.run_probe(verdicts, "mcbase", "--seed", str(self.seed))
        if mb is None:
            return
        verdicts.attempted += mb["attempted"]
        verdicts.failed += mb["failed"]
        verdicts.problems += mb["problems"]
        n = mb["nproc"]
        self.say(f"  simulate calls replayed in a fresh process at NCYCLE_THREADS=1 and {n} "
                 f"(pool_efficiency = rate at {n} / ({n} x rate at 1)):")
        sizes = (("game", f"mc-game size, {MC_STEPS} player steps, first "
                          f"{MCBASE_ROUNDS} rounds"),
                 ("c10", f"criterion-10 size, {C10_RUNS} runs, the test's seeds"),
                 ("floor", f"statistical floor, {FLOOR_RUNS} runs, criterion-10 configs"))
        for name, label in sizes:
            r = mb[name]
            if not r:
                self.say(f"    {label}: no call succeeded")
                continue
            self.say(f"    {label}: montecarlo.steps_per_s_w1 {r['steps_per_s_w1']:.1f}, "
                     f"at {n} workers {r['steps_per_s_wn']:.1f}, montecarlo.pool_efficiency "
                     f"{r['pool_efficiency']:.3f}; {r['calls']} calls, "
                     f"{1e3 * r['call_s_w1']:.1f} / {1e3 * r['call_s_wn']:.1f} ms a call "
                     f"at 1 / {n} workers")
            if name != "floor":
                for cfg, x in r["per_config"].items():
                    self.say(f"      {cfg}: {x['w1']:.0f} steps/s at 1 worker, "
                             f"{x['wn']:.0f} at {n}")
        floor = mb["floor"]
        for name in ("game", "c10") if floor else ():
            r = mb[name]
            if r:
                self.say(f"    fixed per-call cost (a floor call) at {name} size: "
                         f"{100 * floor['call_s_w1'] / r['call_s_w1']:.1f}% of a call at 1 "
                         f"worker, {100 * floor['call_s_wn'] / r['call_s_wn']:.1f}% at {n}")
        measured = {f"steps_per_s_w1.{cfg}": x["w1"]
                    for cfg, x in mb["c10"].get("per_config", {}).items()}
        self.report_baselines(measured)

    def probe_sweep(self, verdicts) -> None:
        from probes import SWEEP_N

        sw = self.run_probe(verdicts, "sweep")
        if sw is None:
            return
        self.say("  layer sweep (fresh process, median ms):")
        for n in SWEEP_N:
            self.say(f"    N={n:<5} build_scenario {sw[f'build_scenario_ms.n{n}']:10.3f}  "
                     f"markov_matrix {sw[f'markov_matrix_ms.n{n}']:10.3f}  "
                     f"extract_recurrence {sw[f'extract_recurrence_ms.n{n}']:9.3f}  "
                     f"on_matrix {sw[f'on_matrix_ms.n{n}']:8.3f}")
        self.report_baselines({"markov_matrix_ms.n1001": sw["markov_matrix_ms.n1001"]})

    def probe_import(self) -> None:
        numpy_ms, ncycle_ms = [], []
        for _ in range(IMPORTTIME_REPS):
            p = run_python(["-X", "importtime", "-c", "import ncycle.cli"])
            cum = {}
            for line in p.stderr.decode().splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3 \
                        and parts[1].strip().isdigit():
                    cum[parts[2].strip()] = int(parts[1]) / 1e3
            numpy_ms.append(cum.get("numpy", 0.0))
            ncycle_ms.append(cum.get("ncycle.cli", 0.0) - cum.get("numpy", 0.0))
        self.say(f"  import.numpy_ms {statistics.median(numpy_ms):.2f}, import.ncycle_ms "
                 f"{statistics.median(ncycle_ms):.2f} (median of {IMPORTTIME_REPS} "
                 "`python -X importtime`; ncycle excludes numpy)")

    def report_baselines(self, measured: dict[str, float]) -> None:
        self.say("  against ROADMAP baselines:")
        for key, value in measured.items():
            if key not in ROADMAP_BASELINES:
                continue
            base, (lo, hi) = ROADMAP_BASELINES[key]
            gap = value / base - 1
            line = f"    {key}: {value:.0f} vs {base:.0f} ({100 * gap:+.1f}%)"
            if abs(gap) > 0.10:
                line += (f"; gap over 10%, {'within' if lo <= value <= hi else 'beyond'} "
                         f"the {lo:.0f}..{hi:.0f} seen in repeats on the reference box")
            self.say(line)
        self.say("    note: a shared 2-core box changes speed by about 25% between host "
                 "states (a pinned pure-Python loop took 0.23 to 0.33 s within one "
                 "minute), so timings taken minutes apart differ by that much without "
                 "any code change; each probe runs a size once to a few times.")

    def report_shares(self, share: dict, shares) -> None:
        pct = lambda d: ", ".join(f"{k} {100 * v:.1f}%" for k, v in  # noqa: E731
                                  sorted(d.items(), key=lambda kv: -kv[1]))
        self.say(f"  layer shares of traced call time: {pct(share)}; other (process "
                 f"exit, harness) {100 * (1 - sum(share.values())):.1f}%")
        group = sum(share[m] for m in ANALYTIC_GROUP)
        checks = []
        if self.workload == "mc-game":
            checks.append(("montecarlo does over 90% of mc-game time",
                           share["montecarlo"] > 0.90, f"{100 * share['montecarlo']:.1f}%"))
            checks.append(("analytic+scenario+quantum+protocols under 5% of mc-game",
                           group < 0.05, f"{100 * group:.1f}%"))
        elif self.workload == "analytic-sweep":
            checks.append(("analytic+scenario+quantum+protocols over 90% of analytic-sweep",
                           group > 0.90, f"{100 * group:.1f}%"))
        else:
            nb = shares(lambda cmd: cmd != "bounds")
            top = max(nb, key=nb.get)
            checks.append(("start-up is the largest share of paper-cli calls other than "
                           "bounds", top == "startup", f"largest is {top}: {pct(nb)}"))
        for claim, ok, detail in checks:
            self.say(f"  share check: {claim}: {'HOLDS' if ok else 'DOES NOT HOLD'} "
                     f"({detail})")


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _lscpu_caches() -> dict[str, str]:
    try:
        p = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {}
    out = {}
    for line in p.stdout.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            out[key.strip()[:2]] = value.strip()
    return out


def run_all(args) -> int:
    """Run every workload in its own process and combine the results."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", w,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            return p.returncode
        lines = p.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{w}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main() -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "ncycle" / "__init__.py").is_file():
        print(f"error: no ncycle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import ncycle
    except ImportError as exc:
        print(f"error: cannot import ncycle from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(ncycle.__file__).resolve().parent != SRC / "ncycle":
        print(f"error: ncycle imported from {ncycle.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = bench.run()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(bench.lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

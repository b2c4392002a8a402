"""Command-line interface.

Subcommands: ``table1`` (K_max table for a range of cycle lengths),
``sequence`` (per-player decay data behind the violation plots), ``simulate``
(Monte Carlo game with optional analytic comparison), ``bounds`` (classical
bounds as the exact optimum over all assignments (transfer matrix), plus
quantum maxima), and ``asymptote`` (limit value and per-protocol recurrence
coefficients).

Every command is deterministic given its flags; exit codes are 0 (success),
1 (internal invariant breach), 2 (usage error).  Flag values take precedence
over an optional JSON config file (``--config``), which takes precedence over
defaults; each config value must, for an option with fixed choices, be one the
flag accepts, and otherwise have the type of its default (``out`` takes a
string or null), or the command exits 2.  ``--ineq`` defaults to the
protocol's own inequality (the first of ``protocols.inequalities``).

Each subcommand has one flag per key of its ``_DEFAULTS`` entry: the flag's
type is its default's, and the choices of ``protocol``, ``ineq`` and
``ordering`` are the values of their enums.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from typing import Any

from . import analytic, montecarlo
from .errors import USAGE_ERRORS, NCycleError
from .protocols import InequalityId, ProtocolId, functional_operator, inequalities
from .quantum import handle_state
from .scenario import build_scenario, enumerate_classical_bounds

_DEFAULTS: dict[str, dict[str, Any]] = {
    "table1": {"n_min": 5, "n_max": 19, "format": "csv", "out": None, "precision": 12},
    "sequence": {
        "n": 5,
        "protocol": "full",
        "ineq": None,
        "k": 30,
        "format": "csv",
        "out": None,
        "precision": 12,
    },
    "simulate": {
        "n": 5,
        "protocol": "full",
        "ineq": None,
        "players": 2,
        "runs": 10000,
        "seed": 0,
        "ordering": "fixed",
        "compare": False,
        "format": "json",
        "out": None,
        "precision": 12,
    },
    "bounds": {"n": 5, "format": "csv", "out": None, "precision": 12},
    "asymptote": {"n": 5, "format": "csv", "out": None, "precision": 12},
}

#: The allowed values of every option that takes one of a fixed set, for
#: flags and config files alike.
_CHOICES: dict[str, tuple[str, ...]] = {
    "format": ("csv", "json"),
    "protocol": tuple(p.value for p in ProtocolId),
    "ineq": tuple(i.value for i in InequalityId),
    "ordering": tuple(o.value for o in montecarlo.Ordering),
}

#: ``--help`` text of each subcommand and of the flags that have one.
_HELP: dict[str, str] = {
    "table1": "K_max table for a range of cycle lengths",
    "sequence": "per-player inequality values",
    "simulate": "Monte Carlo game simulation",
    "bounds": "classical bounds: exact optimum over all assignments (transfer matrix)",
    "asymptote": "limit value and recurrence coefficients",
    "k": "number of players",
    "compare": "append analytic truth and z-scores",
    "out": "output path (default: stdout)",
    "precision": "significant digits for csv floats (1..17)",
    "config": "JSON config file",
}


class UsageError(NCycleError):
    """Invalid command-line input."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncycle",
        description="Sequential measurement game on odd cycle contextuality scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in _DEFAULTS.items():
        p = sub.add_parser(command, help=_HELP[command])
        for key, default in defaults.items():
            kwargs: dict[str, Any] = {"dest": key, "default": None, "help": _HELP.get(key)}
            if isinstance(default, bool):
                kwargs["action"] = "store_true"
            elif key in _CHOICES:
                kwargs["choices"] = _CHOICES[key]
            elif default is not None:
                kwargs["type"] = type(default)
            p.add_argument("--" + key.replace("_", "-"), **kwargs)
        p.add_argument("--config", default=None, help=_HELP["config"])
    return parser


def _merge_options(args: argparse.Namespace) -> dict[str, Any]:
    """defaults < config file < explicitly passed flags."""
    merged = dict(_DEFAULTS[args.command])
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {args.config!r} must hold a JSON object")
        unknown = set(loaded) - set(merged)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            default = merged[key]
            if key in _CHOICES:
                ok, want = value in _CHOICES[key], f"one of {list(_CHOICES[key])}"
            elif default is None:  # out: a path, or null for stdout
                ok, want = value is None or isinstance(value, str), "a string or null"
            else:  # exact type, so a bool is no int
                ok, want = type(value) is type(default), type(default).__name__
            if not ok:
                raise UsageError(f"config key {key!r} must be {want}, got {value!r}")
        merged.update(loaded)
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if "ineq" in merged and merged["ineq"] is None:
        merged["ineq"] = inequalities(ProtocolId(merged["protocol"]))[0].value
    precision = merged.get("precision", 12)
    if not isinstance(precision, int) or not 1 <= precision <= 17:
        raise UsageError(f"precision must be an integer in 1..17, got {precision!r}")
    return merged


def _fmt(value: Any, precision: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, f".{precision}g")
    return str(value)


#: Characters per write of a JSON document: a write is a system call on an
#: unbuffered stdout, and the encoder's pieces are often a single token.
_JSON_CHUNK = 1 << 16


def _emit_csv(header: list[str], rows: list[list[Any]], precision: int) -> list[str]:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v, precision) for v in row) for row in rows)
    return ["\n".join(lines) + "\n"]


def _emit_json(obj: Any) -> Iterator[str]:
    """``json.dumps(obj, indent=2) + "\n"`` in pieces of about ``_JSON_CHUNK``
    characters, so the whole text is never held at once."""
    buf: list[str] = []
    size = 0
    for piece in json.JSONEncoder(indent=2).iterencode(obj):
        buf.append(piece)
        size += len(piece)
        if size >= _JSON_CHUNK:
            yield "".join(buf)
            buf, size = [], 0
    buf.append("\n")
    yield "".join(buf)


def _write(pieces: Iterable[str], out: str | None) -> None:
    if out is None:
        for piece in pieces:
            sys.stdout.write(piece)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                for piece in pieces:
                    fh.write(piece)
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc}") from exc


def _workers() -> int:
    """NCYCLE_THREADS clamped to [1, usable CPUs], or the usable CPUs if unset."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    raw = os.environ.get("NCYCLE_THREADS")
    if raw is None:
        return cpus
    try:
        return min(max(1, int(raw)), cpus)
    except ValueError as exc:
        raise UsageError(f"NCYCLE_THREADS must be an integer, got {raw!r}") from exc


def cmd_table1(opts: dict[str, Any]) -> Iterable[str]:
    n_min, n_max = opts["n_min"], opts["n_max"]
    if n_min > n_max:
        raise UsageError(f"empty range: n_min {n_min} > n_max {n_max}")
    lo = max(5, n_min + (1 - n_min % 2))   # round up to odd, floor at 5
    hi = n_max - (1 - n_max % 2)           # round down to odd
    ns = list(range(lo, hi + 1, 2))
    if not ns:
        raise UsageError(f"no supported odd cycle length in [{n_min}, {n_max}]")
    rows = analytic.table1(ns)
    if opts["format"] == "json":
        payload = [
            {
                "n": r.n,
                "fixed": {"full": r.fixed_full, "a": r.fixed_a, "b": r.fixed_b},
                "uniform": {"full": r.uniform_full, "a": r.uniform_a, "b": r.uniform_b},
            }
            for r in rows
        ]
        return _emit_json(payload)
    header = ["n", "fixed_full", "fixed_a", "fixed_b", "uniform_full", "uniform_a", "uniform_b"]
    return _emit_csv(header, [[r.n, *r.as_tuple()] for r in rows], opts["precision"])


def cmd_sequence(opts: dict[str, Any]) -> Iterable[str]:
    protocol = ProtocolId(opts["protocol"])
    ineq = InequalityId(opts["ineq"])
    if not 1 <= opts["k"] <= montecarlo.MAX_PLAYERS:
        raise UsageError(f"k must be in [1, {montecarlo.MAX_PLAYERS}], got {opts['k']}")
    sc = build_scenario(opts["n"])
    seq = analytic.exact_sequence(sc, protocol, ineq, handle_state(), opts["k"])
    bound = ineq.bound(sc.n)
    rows = [
        [k + 1, seq.values[k], seq.verdicts[k], bound, seq.asymptote]
        for k in range(len(seq.values))
    ]
    if opts["format"] == "json":
        payload = [
            {"k": r[0], "value": r[1], "violates": r[2], "bound": r[3], "asymptote": r[4]}
            for r in rows
        ]
        return _emit_json(payload)
    return _emit_csv(["k", "value", "violates", "bound", "asymptote"], rows, opts["precision"])


def cmd_simulate(opts: dict[str, Any]) -> Iterable[str]:
    try:
        cfg = montecarlo.GameConfig(
            n=opts["n"],
            protocol=ProtocolId(opts["protocol"]),
            ineq=InequalityId(opts["ineq"]),
            players=opts["players"],
            runs=opts["runs"],
            seed=opts["seed"],
            ordering=montecarlo.Ordering(opts["ordering"]),
        )
    except NCycleError as exc:
        raise UsageError(f"invalid game configuration: {exc}") from exc
    workers = _workers()
    if opts["compare"]:
        report = montecarlo.compare_to_analytic(cfg, workers=workers)
        est = report.estimate
        header = ["k", "estimate", "stderr", "analytic", "z"]
        columns = [est.estimates, est.stderrs, report.analytic, report.zscores]
    else:
        report = est = montecarlo.estimate_sequence(cfg, workers=workers)
        header = ["k", "estimate", "stderr"]
        columns = [est.estimates, est.stderrs]
    if opts["format"] == "json":
        return _emit_json(report.to_json_dict())
    rows = [[k + 1, *values] for k, values in enumerate(zip(*columns))]
    return _emit_csv(header, rows, opts["precision"])


def cmd_bounds(opts: dict[str, Any]) -> Iterable[str]:
    n = opts["n"]
    cb = enumerate_classical_bounds(n)
    if n >= 5:
        sc = build_scenario(n)
        h = sc.handle
        alpha_max = float(h @ functional_operator(sc, InequalityId.ALPHA).op @ h)
        beta_min = float(h @ functional_operator(sc, InequalityId.BETA).op @ h)
        q_alpha: Any = alpha_max
        q_beta: Any = beta_min
    else:
        q_alpha = q_beta = "n/a"
    payload = {
        "n": n,
        "alpha_bound": cb.alpha_bound,
        "beta_bound": cb.beta_bound,
        "correlator_bound": cb.correlator_bound,
        "quantum_alpha_max": q_alpha,
        "quantum_beta_min": q_beta,
    }
    if opts["format"] == "json":
        return _emit_json(payload)
    header = list(payload)
    return _emit_csv(header, [[payload[k] for k in header]], opts["precision"])


def cmd_asymptote(opts: dict[str, Any]) -> Iterable[str]:
    n = opts["n"]
    sc = build_scenario(n)
    mm = analytic.markov_matrix(n)
    full_slope = mm.decay_rate
    full_offset = (n / 3.0) * (1.0 - full_slope)
    recs = {
        p: analytic.extract_recurrence(sc, p, inequalities(p)[0])
        for p in ProtocolId
        if p is not ProtocolId.FULL
    }
    if opts["format"] == "json":
        payload = {
            "n": n,
            "asymptote": n / 3.0,
            "full": {"t": mm.t, "slope": full_slope, "offset": full_offset},
            **{p.value: {"slope": r.slope, "offset": r.offset} for p, r in recs.items()},
        }
        return _emit_json(payload)
    rows = [["full", full_slope, full_offset, n / 3.0]]
    rows += [[p.value, r.slope, r.offset, n / 3.0] for p, r in recs.items()]
    return _emit_csv(["protocol", "slope", "offset", "asymptote"], rows, opts["precision"])


_COMMANDS = {
    "table1": cmd_table1,
    "sequence": cmd_sequence,
    "simulate": cmd_simulate,
    "bounds": cmd_bounds,
    "asymptote": cmd_asymptote,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _merge_options(args)
        _write(_COMMANDS[args.command](opts), opts["out"])
    except (UsageError, *USAGE_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NCycleError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    # a reader that closes stdout early (``ncycle ... | head``) ends the
    # process by SIGPIPE, as it does other command-line tools, instead of a
    # BrokenPipeError that would exit 1, the code of an invariant breach;
    # imported here so that ``import ncycle.cli`` does not load signal
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())

"""In-memory spans around the public functions of each ncycle layer.

The modules import each other's names at import time: ``montecarlo`` binds
``build_scenario``, ``protocol1_sequence`` and ``recurrence_sequence``,
``analytic`` binds the ``quantum`` helpers, and ``cli`` binds
``enumerate_classical_bounds`` and ``functional_operator``.  A wrapper is
therefore rebound in every ``ncycle.*`` namespace that holds the original,
and ``uninstall`` puts every original back.

A span is ``(span_id, parent_id, call_id, name, start, end)``; ``call_id``
identifies the CLI call that caused it.  A span's self time is its duration
minus the durations of its child spans (calls are single-threaded, so child
spans never overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, kind): "span" records a span, "count" only counts
# calls (used for hot helpers whose time stays with the caller).
TRACED = (
    ("scenario", "build_scenario", "span"),
    ("scenario", "enumerate_classical_bounds", "span"),
    ("analytic", "markov_matrix", "span"),
    ("analytic", "extract_recurrence", "span"),
    ("analytic", "protocol1_sequence", "span"),
    ("analytic", "recurrence_sequence", "span"),
    ("analytic", "table1", "span"),
    ("quantum", "average_protocol_channel", "span"),
    ("quantum", "AverageChannel.on_matrix", "span"),
    ("quantum", "born_probability", "count"),
    ("protocols", "functional_operator", "span"),
    ("protocols", "measurement_set", "count"),
    ("protocols", "outcome_labels", "count"),
    ("montecarlo", "estimate_sequence", "span"),
    ("montecarlo", "analytic_reference", "span"),
    ("montecarlo", "SimulationEstimate.to_json_dict", "span"),
    ("cli", "main", "span"),
)

# Functions whose first argument is the cycle length N (for distinct_ratio).
N_ARG = {"scenario.build_scenario", "analytic.markov_matrix",
         "scenario.enumerate_classical_bounds"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.ns: dict[str, list[int]] = defaultdict(list)
        self.player_steps = 0
        self.call_id = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._undo:
            return
        for mod_name, path, kind in TRACED:
            module = importlib.import_module(f"ncycle.{mod_name}")
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, kind))
                self._undo.append((owner, attr, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, kind)
            for holder in _ncycle_modules():
                if getattr(holder, path, None) is original:
                    setattr(holder, path, wrapper)
                    self._undo.append((holder, path, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn, kind: str):
        calls = self.calls
        if kind == "count":
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return functools.update_wrapper(counted, fn)

        tracer = self
        spans = self.spans
        stack = self._stack
        ns = self.ns[name] if name in N_ARG else None
        steps = name == "montecarlo.estimate_sequence"

        def spanned(*args, **kwargs):
            calls[name] += 1
            if ns is not None:
                ns.append(int(args[0] if args else kwargs["n"]))
            if steps:
                cfg = args[0] if args else kwargs["cfg"]
                tracer.player_steps += cfg.runs * cfg.players
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, tracer.call_id, name, t0, t1))

        return functools.update_wrapper(spanned, fn)

    # -- aggregation ------------------------------------------------------

    def summary(self, tags: dict[int, str] | None = None) -> dict:
        """Self seconds per (tag, span name); ``tags`` maps call_id to a tag
        such as the CLI command (default: every call tagged "all")."""
        child = defaultdict(float)
        for _sid, parent, _cid, _name, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, _parent, cid, name, t0, t1 in self.spans:
            tag = tags.get(cid, "all") if tags else "all"
            self_s[tag][name] += (t1 - t0) - child[sid]
        return {
            "self_s": {tag: dict(v) for tag, v in self_s.items()},
            "calls": dict(self.calls),
            "ns": {name: [len(v), len(set(v)), sum(2**n for n in v)]
                   for name, v in self.ns.items()},
            "player_steps": self.player_steps,
        }


def _ncycle_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ncycle" or name.startswith("ncycle."))]


def merge(total: dict, part: dict, tag: str | None = None) -> None:
    """Add one summary into a running total; ``tag`` relabels the part's
    self times (a traced subprocess runs exactly one call)."""
    self_s = total.setdefault("self_s", {})
    calls = total.setdefault("calls", {})
    ns = total.setdefault("ns", {})
    for ptag, names in part["self_s"].items():
        dest = self_s.setdefault(tag or ptag, {})
        for name, s in names.items():
            dest[name] = dest.get(name, 0.0) + s
    for name, c in part["calls"].items():
        calls[name] = calls.get(name, 0) + c
    for name, counts in part["ns"].items():
        ns[name] = [x + y for x, y in zip(ns.get(name, [0, 0, 0]), counts)]
    total["player_steps"] = total.get("player_steps", 0) + part["player_steps"]

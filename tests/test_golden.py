"""Golden output bytes.

Each file under ``tests/golden/`` is the exact stdout of one CLI command (or,
for ``estimate_*``, the JSON of one library estimate), recorded when the file
was added.  Unlike the determinism tests, which compare reruns of the same
version, these pin the bytes across versions: any change to them must be an
intended output change, made by rewriting the file from the new output.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from ncycle import GameConfig, InequalityId, Ordering, ProtocolId, estimate_sequence, pure_state
from ncycle.cli import main

GOLDEN = Path(__file__).parent / "golden"
REPLAY_GOLDEN = Path(__file__).resolve().parent.parent / "tools" / "replay_golden.py"

CLI_CASES = {
    "sequence_n19_full_alpha.csv": ["sequence", "--n", "19", "--protocol", "full", "--ineq", "alpha"],
    "sequence_n1001_a_alpha.csv": ["sequence", "--n", "1001", "--protocol", "a", "--ineq", "alpha"],
    "sequence_n9_b_beta_k12.csv": [
        "sequence", "--n", "9", "--protocol", "b", "--ineq", "beta", "--k", "12",
    ],
    "asymptote_n325.csv": ["asymptote", "--n", "325"],
    "table1_n5_19.csv": ["table1", "--n-min", "5", "--n-max", "19"],
    "bounds_n21.csv": ["bounds", "--n", "21"],
    "bounds_n3.json": ["bounds", "--n", "3", "--format", "json"],
    "bounds_n25.json": ["bounds", "--n", "25", "--format", "json"],
    "simulate_n5_b_beta_fixed.json": [
        "simulate", "--n", "5", "--protocol", "b", "--ineq", "beta", "--players", "4",
        "--runs", "1000", "--seed", "7", "--compare", "--format", "json",
    ],
    "simulate_n5_b_beta_random.json": [
        "simulate", "--n", "5", "--protocol", "b", "--ineq", "beta", "--players", "4",
        "--runs", "1000", "--seed", "7", "--ordering", "random", "--compare",
        "--format", "json",
    ],
    "simulate_n9_full_alpha.json": [
        "simulate", "--n", "9", "--protocol", "full", "--ineq", "alpha", "--players", "3",
        "--runs", "1000", "--seed", "8", "--compare", "--format", "json",
    ],
    "simulate_n7_a_alpha.json": [
        "simulate", "--n", "7", "--protocol", "a", "--ineq", "alpha", "--players", "3",
        "--runs", "1000", "--seed", "9", "--compare", "--format", "json",
    ],
}


def cli_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


def library_estimate_json(workers: int) -> str:
    """A non-handle initial state under random ordering, through the library."""
    cfg = GameConfig(
        n=7,
        protocol=ProtocolId.A_ONLY,
        ineq=InequalityId.ALPHA,
        players=4,
        runs=1000,
        seed=21,
        ordering=Ordering.RANDOM_PERMUTATION,
        initial_state=pure_state(np.array([1.0, 2.0, 2.0]) / 3.0),
    )
    return json.dumps(estimate_sequence(cfg, workers=workers).to_json_dict(), indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden_bytes(monkeypatch, name):
    # one worker keeps the test process-free; worker invariance is pinned below
    monkeypatch.setenv("NCYCLE_THREADS", "1")
    assert cli_stdout(CLI_CASES[name]) == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("workers", [1, 2])
def test_library_estimate_golden_bytes(pooled, workers):
    want = (GOLDEN / "estimate_n7_a_alpha_random.json").read_text(encoding="utf-8")
    assert library_estimate_json(workers) == want
    assert pooled == ([workers] if workers > 1 else [])


def test_perfbench_full_protocol_digests_replay(monkeypatch):
    # a benchmark run at another seed meets only the warm-up call's digest of
    # the full protocol; every recorded full-protocol call replays here, in
    # this process, against the digest in perfbench/golden.json
    monkeypatch.setenv("NCYCLE_THREADS", "1")
    spec = importlib.util.spec_from_file_location("replay_golden", REPLAY_GOLDEN)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    keys = [k for k in replay.load_golden() if k.startswith("simulate ") and "--protocol full" in k]
    assert len(keys) == 101
    assert replay.mismatches(keys) == []

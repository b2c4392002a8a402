import json
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from ncycle import cli, montecarlo
from ncycle.cli import main


def run_cli(*args):
    """In-process invocation; returns (exit_code, stdout_text)."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


def test_table1_csv_rows():
    code, out = run_cli("table1", "--n-min", "5", "--n-max", "19")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,fixed_full,fixed_a,fixed_b,uniform_full,uniform_a,uniform_b"
    assert len(lines) == 9
    assert lines[1] == "5,1,1,2,1,2,4"
    assert lines[-1] == "19,1,1,8,1,1,16"


def test_table1_json_row():
    code, out = run_cli("table1", "--n-min", "5", "--n-max", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == [
        {
            "n": 5,
            "fixed": {"full": 1, "a": 1, "b": 2},
            "uniform": {"full": 1, "a": 2, "b": 4},
        }
    ]


def test_table1_empty_range_exit2(capsys):
    assert main(["table1", "--n-min", "4", "--n-max", "4"]) == 2
    assert main(["table1", "--n-min", "9", "--n-max", "5"]) == 2


def test_table1_range_rounding():
    code, out = run_cli("table1", "--n-min", "4", "--n-max", "8")
    assert code == 0
    ns = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
    assert ns == ["5", "7"]


def test_sequence_beta_decay():
    code, out = run_cli(
        "sequence", "--n", "9", "--protocol", "b", "--ineq", "beta", "--k", "12",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["value"] < 1 and rows[0]["violates"]
    assert rows[0]["bound"] == 1
    assert abs(rows[-1]["asymptote"] - 3.0) < 1e-12
    assert abs(rows[-1]["value"] - 3.0) < abs(rows[0]["value"] - 3.0)


#: ``sequence --n 9 --protocol b --ineq beta --k 12``, byte for byte.
GOLDEN_N9_B = Path(__file__).parent / "golden" / "sequence_n9_b_beta_k12.csv"


def test_sequence_ineq_defaults_to_the_protocols_own():
    code, out = run_cli("sequence", "--n", "9", "--protocol", "b", "--k", "12")
    assert code == 0
    assert out == GOLDEN_N9_B.read_text(encoding="utf-8")


@pytest.mark.parametrize("protocol, ineq", [("full", "alpha"), ("a", "alpha"), ("b", "beta")])
def test_simulate_echoes_the_default_ineq(protocol, ineq):
    code, out = run_cli("simulate", "--protocol", protocol, "--runs", "100")
    assert code == 0
    assert json.loads(out)["config"]["ineq"] == ineq


def test_config_protocol_alone_picks_its_ineq(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "b"}))
    code, out = run_cli("simulate", "--config", str(cfg), "--runs", "100")
    assert code == 0
    assert json.loads(out)["config"]["ineq"] == "beta"
    code, out = run_cli("sequence", "--config", str(cfg), "--n", "9", "--k", "12")
    assert code == 0
    assert out == GOLDEN_N9_B.read_text(encoding="utf-8")


def test_sequence_full_alpha_dies_after_first():
    code, out = run_cli(
        "sequence", "--n", "9", "--protocol", "full", "--ineq", "alpha", "--k", "5",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["violates"]
    assert not any(r["violates"] for r in rows[1:])


def test_sequence_bad_pairing_exit2(capsys):
    assert main(["sequence", "--n", "5", "--protocol", "a", "--ineq", "beta"]) == 2


@pytest.mark.parametrize("k", ["0", "65536", str(10**12)])
def test_sequence_k_outside_player_range_exit2(monkeypatch, capsys, k):
    # rejected before any scenario is built, so a huge k costs nothing
    def no_scenario(n):
        raise AssertionError("scenario built for an out-of-range k")

    monkeypatch.setattr(cli, "build_scenario", no_scenario)
    assert main(["sequence", "--n", "5", "--k", k]) == 2
    assert "k must be in [1, 65535]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "env,cpus,expected",
    [(None, 3, 3), ("100000", 2, 2), ("100000", 1, 1), ("2", 4, 2), ("0", 4, 1), ("-5", 4, 1)],
)
def test_threads_env_clamped_to_usable_cpus(monkeypatch, env, cpus, expected):
    # the clamp is checked on the parsed value alone: no process is started
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    if env is None:
        monkeypatch.delenv("NCYCLE_THREADS", raising=False)
    else:
        monkeypatch.setenv("NCYCLE_THREADS", env)
    assert cli._workers() == expected


def test_sequence_csv_json_round_trip():
    code_c, csv_text = run_cli(
        "sequence", "--n", "7", "--protocol", "b", "--ineq", "beta", "--k", "4"
    )
    code_j, json_text = run_cli(
        "sequence", "--n", "7", "--protocol", "b", "--ineq", "beta", "--k", "4",
        "--format", "json",
    )
    assert code_c == code_j == 0
    rows = json.loads(json_text)
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    for line, row in zip(lines[1:], rows):
        parts = line.split(",")
        for key, text in zip(header, parts):
            if key == "violates":
                parsed = text == "true"
            elif key == "k":
                parsed = int(text)
            else:
                parsed = float(text)
            # csv carries 12 significant digits
            assert parsed == pytest.approx(row[key], rel=1e-11)


def test_bounds_n5():
    code, out = run_cli("bounds", "--n", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha_bound"] == 2
    assert doc["beta_bound"] == 1
    assert doc["correlator_bound"] == -3
    assert doc["quantum_alpha_max"] == pytest.approx(2.2360679775, abs=1e-9)


def test_bounds_n3_marks_quantum_na():
    code, out = run_cli("bounds", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha_bound"] == 1
    assert doc["quantum_alpha_max"] == "n/a"


def test_bounds_even_exit2(capsys):
    assert main(["bounds", "--n", "6"]) == 2


def test_bounds_above_cap_exit2(capsys):
    assert main(["bounds", "--n", "65"]) == 2
    assert "cap" in capsys.readouterr().err


def test_asymptote_json():
    code, out = run_cli("asymptote", "--n", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["asymptote"] == pytest.approx(5 / 3, abs=1e-12)
    assert doc["b"]["slope"] == pytest.approx(1 - 3 * doc["b"]["offset"] / 5, abs=1e-12)
    assert doc["full"]["t"] == pytest.approx(0.35278640450, abs=1e-9)


def test_simulate_json_and_determinism(tmp_path):
    args = [
        "simulate", "--n", "5", "--protocol", "b", "--ineq", "beta",
        "--players", "2", "--runs", "500", "--seed", "7", "--compare",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["pass"] is True
    assert {"analytic", "z"} <= set(doc["positions"][0])
    assert out1.read_text().endswith("\n")


def test_out_in_missing_directory_exit2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert main(["bounds", "--n", "5", "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {str(target)!r}")
    assert not target.parent.exists()


def test_out_is_a_directory_exit2(tmp_path, capsys):
    assert main(["bounds", "--n", "5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {str(tmp_path)!r}")


def test_simulate_runs_floor_exit2(capsys):
    assert main(["simulate", "--runs", "10"]) == 2


def test_simulate_invalid_n_exit2(capsys):
    assert main(["simulate", "--n", "4", "--runs", "200"]) == 2


def test_simulate_tally_over_the_cap_exit2(monkeypatch, capsys):
    # rejected before the tally is allocated: were the check missing, the
    # patched np.zeros would fail the call instead of exhausting memory
    def no_tally(*args, **kwargs):
        raise AssertionError("tally allocated for a config over the cap")

    monkeypatch.setenv("NCYCLE_THREADS", "1")
    monkeypatch.setattr(np, "zeros", no_tally)
    assert main(["simulate", "--players", "65535", "--n", "1001", "--runs", "100"]) == 2
    assert "players * n must be at most 327675" in capsys.readouterr().err


def test_simulate_csv_format():
    code, out = run_cli(
        "simulate", "--n", "5", "--protocol", "b", "--ineq", "beta",
        "--players", "2", "--runs", "300", "--seed", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,estimate,stderr"
    assert len(lines) == 3


@pytest.mark.parametrize("compare", [False, True])
def test_simulate_csv_rows_come_from_the_estimate(monkeypatch, compare):
    args = ["simulate", "--n", "7", "--protocol", "a", "--players", "3", "--runs", "300",
            "--seed", "2", *(["--compare"] if compare else [])]
    code, out = run_cli(*args, "--format", "json")
    assert code == 0
    positions = json.loads(out)["positions"]

    def no_dict(self):
        raise AssertionError("the JSON tree is built for csv")

    monkeypatch.setattr(montecarlo.SimulationEstimate, "to_json_dict", no_dict)
    monkeypatch.setattr(montecarlo.ComparisonReport, "to_json_dict", no_dict)
    code, out = run_cli(*args, "--format", "csv", "--precision", "17")
    assert code == 0
    header, *rows = [line.split(",") for line in out.strip().split("\n")]
    assert header == list(positions[0])
    assert [[float(x) for x in row] for row in rows] == [
        [float(pos[key]) for key in header] for pos in positions
    ]


def test_simulate_json_is_written_in_large_pieces(monkeypatch):
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)
            return len(text)

    monkeypatch.setenv("NCYCLE_THREADS", "1")
    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["simulate", "--n", "101", "--protocol", "b", "--players", "40",
                 "--runs", "100", "--format", "json"]) == 0
    text = "".join(writes)
    assert len(text) > 3 * cli._JSON_CHUNK
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert all(len(piece) >= cli._JSON_CHUNK for piece in writes[:-1])
    assert len(text) // cli._JSON_CHUNK <= len(writes) <= len(text) // cli._JSON_CHUNK + 1


@pytest.mark.parametrize("error", [OSError("no process support"),
                                   BrokenProcessPool("a worker died")],
                         ids=["OSError", "BrokenProcessPool"])
def test_pool_failure_warns_and_keeps_the_bytes(monkeypatch, capsys, pooled, error):
    import concurrent.futures

    args = ["simulate", "--n", "5", "--protocol", "b", "--players", "2", "--runs", "300"]
    monkeypatch.setattr(cli, "_workers", lambda: 1)
    assert main(args) == 0
    want = capsys.readouterr().out

    def broken_pool(*a, **kw):
        raise error

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", broken_pool)
    monkeypatch.setattr(cli, "_workers", lambda: 2)
    with pytest.warns(RuntimeWarning, match=f"process pool failed \\({type(error).__name__}: "
                                            f"{error}\\); tallying its 2 run ranges"):
        assert main(args) == 0
    assert capsys.readouterr().out == want
    assert pooled == [2]


def test_invariant_breach_prints_plain_floats(monkeypatch, capsys):
    # a breach reports its number as a float, never as a numpy repr
    def drifted_trace(m):
        return np.float64(1.5)

    monkeypatch.setattr(np, "trace", drifted_trace)
    assert main(["sequence", "--n", "5"]) == 1
    err = capsys.readouterr().err
    assert err == "internal invariant breach: density matrix trace 1.5 != 1\n"
    assert "np." not in err


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 7, "protocol": "b", "ineq": "beta", "k": 3}))
    code, out = run_cli("sequence", "--config", str(cfg), "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 3
    # explicit flag beats the config file
    code, out = run_cli("sequence", "--config", str(cfg), "--k", "5", "--format", "json")
    assert len(json.loads(out)) == 5


def test_config_unknown_key_exit2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["sequence", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "command, config",
    [
        ("table1", {"n_max": 7.0}),
        ("sequence", {"k": "5"}),
        ("simulate", {"compare": 1}),
        ("bounds", {"n": "7"}),
        ("asymptote", {"n": True}),
    ],
)
def test_config_value_of_wrong_type_exit2(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2
    key = next(iter(config))
    assert f"config key {key!r} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config",
    [
        ("sequence", {"protocol": "x"}),
        ("simulate", {"ordering": "zig"}),
        ("bounds", {"format": "xml"}),
        ("sequence", {"ineq": "gamma"}),
        ("sequence", {"ineq": None}),
        ("simulate", {"ineq": None}),
    ],
)
def test_config_value_outside_flag_choices_exit2(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    key = next(iter(config))
    assert f"config key {key!r} must be one of" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("config", [{"out": 3}, ["n", 5], 7])
def test_config_out_and_shape_checked_exit2(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["bounds", "--config", str(cfg)]) == 2


def test_config_out_accepts_path_or_null(tmp_path):
    target = tmp_path / "b.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 7, "out": str(target)}))
    assert main(["bounds", "--config", str(cfg)]) == 0
    assert target.read_text().startswith("n,alpha_bound")
    cfg.write_text(json.dumps({"n": 7, "out": None}))
    code, out = run_cli("bounds", "--config", str(cfg))
    assert code == 0
    assert out.startswith("n,alpha_bound")


def test_precision_flag():
    code, out = run_cli("bounds", "--n", "5", "--precision", "3")
    assert code == 0
    assert "2.24" in out
    code, _ = run_cli("bounds", "--n", "5", "--precision", "0")
    assert code == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ncycle", "table1", "--n-min", "5", "--n-max", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n")[1] == "5,1,1,2,1,2,4"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_by_sigpipe_without_a_traceback():
    # a reader that stops early, as ``| head -c 100`` does, is no internal
    # invariant breach (exit 1): the 2.3 MB of output end by SIGPIPE, silently
    proc = subprocess.Popen(
        [sys.executable, "-m", "ncycle", "simulate", "--n", "101", "--players", "300",
         "--runs", "100", "--protocol", "full"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert b"Traceback" not in err, err.decode()
    assert proc.returncode == -signal.SIGPIPE


def test_threads_env_does_not_change_bytes(tmp_path):
    import os

    args = [
        sys.executable, "-m", "ncycle", "simulate", "--n", "5", "--protocol", "b",
        "--ineq", "beta", "--players", "2", "--runs", "400", "--seed", "3",
    ]
    envs = [dict(os.environ, NCYCLE_THREADS=str(w)) for w in (1, 2)]
    outs = [
        subprocess.run(args, capture_output=True, env=env).stdout for env in envs
    ]
    assert outs[0] == outs[1]


def test_cli_import_skips_process_pool():
    # the pool is imported lazily by the parallel merge, so one-shot CLI calls
    # do not pay for concurrent.futures and multiprocessing at start-up
    import os

    import ncycle

    src = os.path.dirname(os.path.dirname(ncycle.__file__))
    code = (
        "import sys, ncycle.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

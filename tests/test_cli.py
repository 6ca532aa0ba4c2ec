import json
import os
import subprocess
import sys

import pytest

from nonstat.cli import main


def write_config(tmp_path, T=64):
    cfg = {
        "env": {"kind": "mab", "T": T, "segments": [{"length": T, "means": [0.2, 0.8]}]},
        "algorithm": "master+ucb1",
        "T": T,
        "kappa": 1.0,
        "seeds": [0],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def write_mdp(tmp_path):
    spec = {
        "kind": "infinite",
        "T": 8,
        "S": 2,
        "A": 2,
        "segments": [
            {
                "length": 8,
                "rewards": [[1.0, 1.0], [0.0, 0.0]],
                "transitions": [[[0, 1], [0, 1]], [[1, 0], [1, 0]]],
            }
        ],
    }
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_run_and_regret_and_plot(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "regret_mean" in summary

    log_path = os.path.join(out, "seed_0.csv")
    assert main(["regret", "--log", log_path]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == summary["regret_mean"]

    svg = str(tmp_path / "curve.svg")
    assert main(["plot", "--agg", os.path.join(out, "aggregate.json"), "--out", svg]) == 0
    with open(svg) as fh:
        assert fh.read().startswith("<svg")


def test_run_seed_range_override(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out2")
    assert main(["run", "--config", cfg, "--seeds", "3..5", "--out", out]) == 0
    capsys.readouterr()
    for seed in (3, 4, 5):
        assert os.path.exists(os.path.join(out, f"seed_{seed}.csv"))


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algorithm": "nope", "seeds": [0], "env": {}}))
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_regret_runtime_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "none.csv")
    assert main(["regret", "--log", missing]) == 3
    capsys.readouterr()


def test_diameter_command(tmp_path, capsys):
    mdp = write_mdp(tmp_path)
    assert main(["diameter", "--mdp", mdp]) == 0
    out = capsys.readouterr().out
    assert "segment 0: diameter 1.000000000" in out


def test_diameter_rejects_wrong_kind(tmp_path, capsys):
    cfg = tmp_path / "env.json"
    cfg.write_text(json.dumps({"kind": "mab", "T": 4, "segments": [{"length": 4, "means": [0.5]}]}))
    assert main(["diameter", "--mdp", str(cfg)]) == 2
    capsys.readouterr()


def test_console_script_entry_point(tmp_path):
    cfg = write_config(tmp_path, T=16)
    # the child interpreter finds the package in src whether or not it is installed
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nonstat.cli", "run", "--config", cfg],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "regret_mean" in proc.stdout

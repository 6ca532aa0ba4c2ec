import json
import os
import subprocess
import sys

import pytest

from nonstat.cli import main
from nonstat.master import RunLog


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


def write_mdp(tmp_path, name="mdp.json"):
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
    path = tmp_path / name
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


def test_diameter_reads_a_file_whose_name_looks_like_json(tmp_path, monkeypatch, capsys):
    # --mdp is always a path, even one that starts with "{"
    monkeypatch.chdir(tmp_path)
    write_mdp(tmp_path, name="{x}.json")
    assert main(["diameter", "--mdp", "{x}.json"]) == 0
    assert "segment 0: diameter 1.000000000" in capsys.readouterr().out


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


@pytest.mark.parametrize("flag, value", [("--seeds", "a"), ("--seeds", "1..b"), ("--kappa", "abc")])
def test_run_rejects_a_malformed_override(tmp_path, capsys, flag, value):
    assert main(["run", "--config", write_config(tmp_path), flag, value]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--seeds", "0"), ("--kappa", "0.5"), ("--out", "out")])
def test_run_rejects_a_config_that_is_not_an_object(tmp_path, capsys, flag, value):
    # each override indexes the spec, which must be a JSON object first
    cfg = tmp_path / "list.json"
    cfg.write_text(json.dumps([{"algorithm": "master+ucb1"}]))
    assert main(["run", "--config", str(cfg), flag, value]) == 2
    assert "config error: spec: expected an object" in capsys.readouterr().err


def test_run_rejects_repeated_seeds(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path), "--seeds", "0,0", "--out", str(out)]) == 2
    assert "config error: spec.seeds: repeated seeds [0]" in capsys.readouterr().err
    assert not out.exists()


def one_row_log_text():
    log = RunLog()
    log.append(1, 0, 0, 0, 0, 0.5, 1.0, 1.0, 1.0, "")  # t .. event, in log.columns order
    return log.to_csv_text()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: empty input"),
        # a row one cell short of the header, and one a cell too long
        (one_row_log_text().replace(",1.0,\n", ",1.0\n"), "line 2: 9 cells, expected 10"),
        (one_row_log_text().replace(",1.0,\n", ",1.0,,x\n"), "line 2: 11 cells, expected 10"),
        # csv.reader's field size limit
        (one_row_log_text().replace(",1.0,\n", ",1.0," + "e" * 200_000 + "\n"), "field larger than field limit"),
    ],
    ids=["empty", "short-row", "long-row", "field-limit"],
)
def test_regret_rejects_a_malformed_log(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert main(["regret", "--log", str(path)]) == 3
    assert message in capsys.readouterr().err


def test_plot_rejects_an_aggregate_that_is_not_an_object(tmp_path, capsys):
    agg = tmp_path / "agg.json"
    agg.write_text("[1, 2]")
    assert main(["plot", "--agg", str(agg), "--out", str(tmp_path / "out.svg")]) == 2
    assert "config error" in capsys.readouterr().err

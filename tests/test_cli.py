import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import nonstat.harness
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


def test_diameter_past_its_iteration_cap_is_a_runtime_error(tmp_path, monkeypatch, capsys):
    # the loader checks reachability only: the spec loads, and its hitting times fail at the read
    import nonstat.mdp

    monkeypatch.setattr(nonstat.mdp, "DIAMETER_MAX_ITER", 1)
    assert main(["diameter", "--mdp", write_mdp(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("runtime error: segment starting at round 1: hitting-time iteration failed to converge "
                   "in DIAMETER_MAX_ITER=1 sweeps\n")


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


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.0", ""])
def test_run_rejects_a_bad_worker_count(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("NONSTAT_WORKERS", value)
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: NONSTAT_WORKERS: expected an integer >= 1, got {value!r}\n"
    assert not out.exists()  # checked before any seed runs


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


# specs whose only fault is what their run's learner rejects: GLM-UCB rejects
# lam=100 at T=16 (c_mu * T / (lam * delta) < 1), and a one-arm UCB1's rate
# breaks rho(t) >= 1/sqrt(t) at t=1
LEARNER_REJECTS = {
    "glm-lam": ({"env": {"kind": "glm", "T": 16, "link": "logistic", "lam": 100,
                         "actions": [[1.0, 0.0], [0.0, 1.0]],
                         "segments": [{"length": 16, "theta": [0.3, 0.7]}]},
                 "algorithm": "master+glm", "seeds": [0, 1]}, "lam=100.0"),
    "one-arm-rate": ({"env": {"kind": "mab", "T": 1, "segments": [{"length": 1, "means": [0.5]}]},
                      "algorithm": "master+ucb1", "delta": 0.99, "seeds": [0, 1]},
                     "rho(t) >= 1/sqrt(t) violated"),
}


@pytest.mark.parametrize("name", sorted(LEARNER_REJECTS))
def test_run_rejects_a_spec_its_learner_rejects_before_any_seed(tmp_path, capsys, monkeypatch, name):
    spec, message = LEARNER_REJECTS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(spec))
    out = tmp_path / "out"
    ran = []
    monkeypatch.setattr(nonstat.harness, "run_single", lambda *args: ran.append(args))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: spec: ") and message in err
    assert ran == []
    assert not out.exists()


def test_run_rejects_an_algo_key_its_algorithm_never_reads_before_any_seed(tmp_path, capsys, monkeypatch):
    cfg = json.loads(open(write_config(tmp_path)).read())
    cfg["algo"] = {"dbar": 4, "known_l": 3, "known_delta": 0.5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    ran = []
    monkeypatch.setattr(nonstat.harness, "run_single", lambda *args: ran.append(args))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "config error: spec.algo.dbar: master+ucb1 does not read it" in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("algo", None, "spec.algo: expected an object"),
        ("algo", 5, "spec.algo: expected an object"),
        ("algo", ["c"], "spec.algo: expected an object"),
        ("algorithm", ["x"], "spec.algorithm: unknown ['x']"),
        ("out", 5, "spec.out: expected a path or null"),
    ],
)
def test_run_names_a_wrongly_typed_field_with_exit_2(tmp_path, capsys, key, value, message):
    cfg = json.loads(open(write_config(tmp_path)).read())
    cfg[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_run_accepts_the_bare_form_of_the_one_arm_spec(tmp_path, capsys):
    # the bare learner never reads its rate, so nothing rejects this spec
    spec = dict(LEARNER_REJECTS["one-arm-rate"][0], algorithm="ucb1")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(spec))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["restarts_mean"] == 0.0
    assert sorted(os.listdir(tmp_path / "out")) == ["aggregate.json", "regret.svg", "seed_0.csv", "seed_1.csv"]


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
        # a cell its column's parser rejects
        (one_row_log_text().replace("\n1,", "\nx,"), "line 2, column t: invalid literal for int()"),
    ],
    ids=["empty", "short-row", "long-row", "field-limit", "bad-cell"],
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


@pytest.mark.parametrize("curve, name", [
    ({"t": [0], "regret": [0.0]}, "mean_curve.t"),
    ({"t": [-3, -1], "regret": [0.0, 1.0]}, "mean_curve.t"),
    ({"t": [1, 2, 3], "regret": [0.0, 1.0]}, "mean_curve.regret"),
    ({"t": [1], "regret": [0.0, 1.0]}, "mean_curve.regret"),
    ({"t": [1, 2], "regret": [math.nan, 1.0]}, "mean_curve.regret"),
    ({"t": [1, 2], "regret": [0.0, math.inf]}, "mean_curve.regret"),
    ({"t": [1, math.nan], "regret": [0.0, 1.0]}, "mean_curve.t"),
    ({"t": [1, -math.inf], "regret": [0.0, 1.0]}, "mean_curve.t"),
])
def test_plot_rejects_a_curve_it_cannot_draw(tmp_path, capsys, curve, name):
    # an x axis that ends at 0 or below has no scale, unequal lists would be
    # cut to the shorter one without a word, and a nan or inf would be
    # written as a coordinate
    agg = tmp_path / "agg.json"
    agg.write_text(json.dumps({"algorithm": "master+ucb1", "T": 4, "mean_curve": curve}))
    out = tmp_path / "out.svg"
    assert main(["plot", "--agg", str(agg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and name in err
    assert not out.exists()


def test_plot_escapes_the_title(tmp_path):
    agg = tmp_path / "agg.json"
    agg.write_text(json.dumps({"algorithm": "a<b & c>d", "T": 4, "mean_curve": {"t": [1, 2], "regret": [0.0, 1.0]}}))
    out = tmp_path / "out.svg"
    assert main(["plot", "--agg", str(agg), "--out", str(out)]) == 0
    svg = out.read_text(encoding="utf-8")
    assert ">a&lt;b &amp; c&gt;d (T=4)</text>" in svg
    title = ET.fromstring(svg).find("{http://www.w3.org/2000/svg}text")  # a well-formed document
    assert title.text == "a<b & c>d (T=4)"

import hashlib
import importlib
import json
import math
import os

import numpy as np
import pytest

import nonstat.harness
from nonstat.harness import (
    SpecError,
    aggregate,
    baseline_run,
    run_experiment,
    run_single,
    seed_derive,
    validate_spec,
)
from nonstat.master import RunLog, dynamic_regret


def mab_env_spec(T=128, segments=None):
    segments = segments or [{"length": T, "means": [0.2, 0.8]}]
    return {"kind": "mab", "T": T, "segments": segments}


def experiment(T=128, **overrides):
    spec = {
        "env": mab_env_spec(T),
        "algorithm": "master+ucb1",
        "T": T,
        "kappa": 1.0,
        "seeds": [0, 1],
    }
    spec.update(overrides)
    return spec


# ---------------------------------------------------------------------------
# seed derivation


def test_seed_derive_reproducible():
    a = seed_derive(42, 3, "env")
    b = seed_derive(42, 3, "env")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_seed_derive_purpose_separates_streams():
    a = seed_derive(42, 3, "env")
    b = seed_derive(42, 3, "sched")
    assert a.integers(0, 2**63) != b.integers(0, 2**63)


def test_seed_derive_chi_square_smoke():
    # 10^4 derived streams, first draw each, 16 bins: chi-square should sit
    # in a generous band around its dof
    draws = np.array([seed_derive(7, i, "smoke").random() for i in range(10_000)])
    counts, _ = np.histogram(draws, bins=16, range=(0, 1))
    expected = len(draws) / 16
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 50.0  # dof 15, p ~ 1e-5 cutoff


# ---------------------------------------------------------------------------
# spec validation


def test_validate_normalizes_defaults():
    spec = validate_spec(experiment())
    assert spec["delta"] == 1.0 / 128
    assert spec["kappa"] == 1.0


def test_validate_rejects_unknown_keys():
    with pytest.raises(SpecError, match="unknown keys"):
        validate_spec(experiment(bogus=1))


def test_validate_rejects_bad_algorithm():
    with pytest.raises(SpecError, match="algorithm"):
        validate_spec(experiment(algorithm="zap"))


def test_validate_rejects_env_algo_mismatch():
    with pytest.raises(SpecError, match="needs a"):
        validate_spec(experiment(algorithm="master+oful"))


def test_validate_rejects_horizon_mismatch():
    spec = experiment()
    spec["T"] = 64  # env horizon stays 128
    with pytest.raises(SpecError, match="spec.T"):
        validate_spec(spec)


def test_validate_propagates_env_errors():
    spec = experiment()
    spec["env"]["segments"][0]["means"] = [0.2, 1.5]
    with pytest.raises(SpecError, match="means"):
        validate_spec(spec)


def test_validate_doubling_needs_one_known():
    spec = {
        "env": {
            "kind": "infinite",
            "T": 16,
            "S": 2,
            "A": 2,
            "segments": [
                {
                    "length": 16,
                    "rewards": [[1.0, 1.0], [0.0, 0.0]],
                    "transitions": [[[0, 1], [0, 1]], [[1, 0], [1, 0]]],
                }
            ],
        },
        "algorithm": "doubling-dbar",
        "seeds": [0],
    }
    with pytest.raises(SpecError, match="known_l"):
        validate_spec(spec)
    spec["algo"] = {"known_l": 2}
    validate_spec(spec)


# ---------------------------------------------------------------------------
# runs and aggregation


def test_run_single_deterministic():
    spec = validate_spec(experiment())
    a = run_single(spec, seed=0)
    b = run_single(spec, seed=0)
    assert a.to_csv_text() == b.to_csv_text()


def test_baseline_run_is_bare():
    spec = validate_spec(experiment())
    log = baseline_run(spec, seed=0)
    assert set(log.column("active_order")) == {-1}


def test_run_experiment_persists_and_aggregates(tmp_path):
    out = str(tmp_path / "exp")
    spec = experiment(T=128, kappa="inf", out=out)
    report = run_experiment(spec)
    assert report["restarts_mean"] == 0.0
    assert os.path.exists(os.path.join(out, "seed_0.csv"))
    assert os.path.exists(os.path.join(out, "seed_1.csv"))
    assert os.path.exists(os.path.join(out, "aggregate.json"))
    assert os.path.exists(os.path.join(out, "regret.svg"))

    # aggregate equals recomputation from the persisted per-seed CSVs
    regrets = []
    for seed in (0, 1):
        log = RunLog.from_csv(os.path.join(out, f"seed_{seed}.csv"))
        regrets.append(dynamic_regret(log))
    assert report["regret_mean"] == pytest.approx(float(np.mean(regrets)), abs=0)
    per_seed = {row["seed"]: row["regret"] for row in report["per_seed"]}
    assert per_seed == {0: regrets[0], 1: regrets[1]}

    with open(os.path.join(out, "aggregate.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk["regret_mean"] == report["regret_mean"]


def test_rerun_bitwise_identical(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    run_experiment(experiment(T=128, out=out_a))
    run_experiment(experiment(T=128, out=out_b))
    for name in ("seed_0.csv", "seed_1.csv", "aggregate.json", "regret.svg"):
        with open(os.path.join(out_a, name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b, name


def test_persistence_does_not_influence_runs(tmp_path):
    out = str(tmp_path / "c")
    with_out = run_experiment(experiment(T=128, out=out))
    without_out = run_experiment(experiment(T=128))
    assert with_out["per_seed"] == without_out["per_seed"]


def test_scaling_fields_present():
    env = mab_env_spec(
        T=128,
        segments=[
            {"length": 64, "means": [0.9, 0.1]},
            {"length": 64, "means": [0.1, 0.9]},
        ],
    )
    report = run_experiment(experiment(T=128, env=env))
    assert report["nonstationarity"]["L"] == 2
    assert report["nonstationarity"]["Delta"] == pytest.approx(0.8)
    expected = report["regret_mean"] / math.sqrt(2 * 128)
    assert report["scaling"]["reg_per_sqrt_LT"] == pytest.approx(expected)


def test_workers_env_variable(tmp_path, monkeypatch):
    out = str(tmp_path / "par")
    monkeypatch.setenv("NONSTAT_WORKERS", "2")
    report = run_experiment(experiment(T=64, out=out))
    monkeypatch.setenv("NONSTAT_WORKERS", "1")
    again = run_experiment(experiment(T=64))
    assert report["per_seed"] == again["per_seed"]


# ---------------------------------------------------------------------------
# every algorithm runs end to end


def tiny_env_for(algorithm):
    T = 32
    if algorithm in ("master+ucb1", "ucb1"):
        return mab_env_spec(T)
    if algorithm in ("master+oful", "oful"):
        return {
            "kind": "linear",
            "T": T,
            "actions": [[1.0, 0.0], [0.0, 1.0]],
            "segments": [{"length": T, "theta": [0.3, 0.7]}],
        }
    if algorithm in ("master+glm", "glm"):
        return {
            "kind": "glm",
            "T": T,
            "link": "logistic",
            "lam": 1.0,
            "actions": [[1.0, 0.0], [0.0, 1.0]],
            "segments": [{"length": T, "theta": [0.3, 0.7]}],
        }
    if algorithm in ("master+qucb", "qucb"):
        return {
            "kind": "episodic",
            "T": T,
            "S": 2,
            "A": 2,
            "H": 2,
            "segments": [
                {
                    "length": T,
                    "rewards": [[[0.9, 0.1], [0.2, 0.3]], [[0.5, 0.6], [0.4, 0.2]]],
                    "transitions": [
                        [[[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.5], [0.2, 0.8]]],
                        [[[0.6, 0.4], [0.3, 0.7]], [[0.8, 0.2], [0.1, 0.9]]],
                    ],
                }
            ],
        }
    return {
        "kind": "infinite",
        "T": T,
        "S": 2,
        "A": 2,
        "segments": [
            {
                "length": T,
                "rewards": [[1.0, 1.0], [0.0, 0.0]],
                "transitions": [[[0, 1], [0, 1]], [[1, 0], [1, 0]]],
            }
        ],
    }


def tiny_spec(algorithm):
    spec = {"env": tiny_env_for(algorithm), "algorithm": algorithm, "kappa": 1.0, "seeds": [0]}
    if algorithm == "doubling-dbar":
        spec["algo"] = {"known_l": 2}
    return validate_spec(spec)


@pytest.mark.parametrize(
    "algorithm",
    [
        "master+ucb1",
        "master+oful",
        "master+glm",
        "master+qucb",
        "master-ucrl",
        "doubling-dbar",
        "borl",
        "ucb1",
        "oful",
        "glm",
        "qucb",
        "ucrl",
    ],
)
def test_every_algorithm_end_to_end(algorithm):
    report = run_experiment(tiny_spec(algorithm))
    assert len(report["per_seed"]) == 1
    assert math.isfinite(report["regret_mean"])


# SHA-256 of each algorithm's CSV log on its tiny env at seed 0: a refactor
# that moves any of them changes what the library computes
LOG_DIGESTS = {
    "master+ucb1": "d6a877406552ad8bfea8a32e8531ad009d2d90ad53a0f848343f16ce37d8cd70",
    "master+oful": "ff9724fe5a7b425747a816c8fc13c9569bd4eb122759cccfbb7c965f9d355171",
    "master+glm": "59bb74fac34c9382e01fa9d788247090933d9b27e3c628587574d2ec073b5133",
    "master+qucb": "05116dafaa382dc715678ff7fa70b14971d97d7e7ad25a294cd3b9b2f16f6fc4",
    "master-ucrl": "6c00b253af680ab3e6da62bdeb51794910767556c2fb752448227c4302515e1b",
    "doubling-dbar": "6c00b253af680ab3e6da62bdeb51794910767556c2fb752448227c4302515e1b",
    "borl": "71b48e6806dd5c1fc454719e8f976931cc771fec3f51a5519cd74d1b5f2d8d29",
    "ucb1": "1c91ed60c09aeeaae1bc6ae418da732e2f391ca42e54696b40d20ca9b8675a5a",
    "oful": "a4278a58cb9052daa1bc05a3b3ae99a591d73b31cd778fa7e627f9d9f724ff97",
    "glm": "5d8acce285c1a986e11e141274c1c31e4b3d1045529b49b81ae147569c9b710a",
    "qucb": "e1fbf42804421ada0441bb920ee3da11cc9f72970fdcf1f69886cd783c147d26",
    "ucrl": "77a6d39e763418b64821e2a22017348a97060bcf5b34ea37626629485d714fd7",
}


@pytest.mark.parametrize("algorithm", sorted(LOG_DIGESTS))
def test_every_algorithm_log_is_pinned(algorithm):
    text = run_single(tiny_spec(algorithm), 0).to_csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == LOG_DIGESTS[algorithm]


def test_benchmark_tracer_sees_every_layer(monkeypatch):
    # perfbench/tracing.py swaps wrappers onto module and class attributes by
    # name; a layer it can no longer reach would silently drop out of the split
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    tracing = importlib.import_module("tracing")
    for algorithm in ("master+ucb1", "master-ucrl"):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            nonstat.harness.run_single(tiny_spec(algorithm), 0)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        for span in ("master.core", "malg.begin", "base.predict", "envs.play"):
            assert summary[span]["calls"] > 0, (algorithm, span)

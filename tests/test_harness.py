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


@pytest.mark.parametrize("kappa", [0, 0.0, -1.0, -math.inf, math.nan, "zero"])
def test_validate_rejects_nonpositive_kappa(kappa):
    # kappa = 0 zeroes both thresholds; the library calls still accept it
    with pytest.raises(SpecError, match=r"spec\.kappa"):
        validate_spec(experiment(kappa=kappa))


@pytest.mark.parametrize("kappa", [True, False])
def test_validate_rejects_boolean_kappa(kappa):
    with pytest.raises(SpecError, match=r"spec\.kappa"):
        validate_spec(experiment(kappa=kappa))


@pytest.mark.parametrize("seeds", [[True, False], [0, True], [1.0], ["1"]])
def test_validate_rejects_non_integer_seeds(seeds):
    # isinstance(True, int) holds; a boolean seed would name its file seed_True.csv
    with pytest.raises(SpecError, match=r"spec\.seeds"):
        validate_spec(experiment(seeds=seeds))


@pytest.mark.parametrize("horizon", [128.0, True, "128", None])
def test_validate_rejects_non_integer_horizon(horizon):
    # 128.0 == 128 would pass the horizon check and be written into aggregate.json
    spec = experiment()
    spec["T"] = horizon  # env horizon stays 128
    with pytest.raises(SpecError, match=r"spec\.T: expected an integer"):
        validate_spec(spec)


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


@pytest.mark.parametrize("algorithm", ["doubling-dbar", "borl"])
def test_baseline_run_needs_a_restart_free_counterpart(algorithm):
    with pytest.raises(SpecError, match="no restart-free counterpart"):
        baseline_run(tiny_spec(algorithm), seed=0)


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


def switch_mdp_spec(T=32):
    """S=3, A=2 average-reward MDP whose rewards and kernel change at T/2."""
    return {
        "kind": "infinite",
        "T": T,
        "S": 3,
        "A": 2,
        "segments": [
            {
                "length": T // 2,
                "rewards": [[0.9, 0.1], [0.2, 0.3], [0.0, 0.6]],
                "transitions": [
                    [[0.6, 0.3, 0.1], [0.1, 0.8, 0.1]],
                    [[0.3, 0.3, 0.4], [0.5, 0.1, 0.4]],
                    [[0.2, 0.2, 0.6], [0.7, 0.2, 0.1]],
                ],
            },
            {
                "length": T - T // 2,
                "rewards": [[0.1, 0.9], [0.7, 0.2], [0.4, 0.0]],
                "transitions": [
                    [[0.2, 0.7, 0.1], [0.5, 0.4, 0.1]],
                    [[0.1, 0.1, 0.8], [0.3, 0.6, 0.1]],
                    [[0.4, 0.4, 0.2], [0.1, 0.2, 0.7]],
                ],
            },
        ],
    }


def restart_spec(algorithm):
    T = 32
    if algorithm == "master+ucb1":
        env = mab_env_spec(T, [{"length": 16, "means": [0.9, 0.1]}, {"length": 16, "means": [0.1, 0.9]}])
        return validate_spec({"env": env, "algorithm": algorithm, "kappa": 1e-4, "seeds": [0]})
    algo = {"master-ucrl": {"dbar": 2.0}, "doubling-dbar": {"known_l": 1}, "borl": {}}[algorithm]
    return validate_spec(
        {"env": switch_mdp_spec(T), "algorithm": algorithm, "kappa": 1e-5, "seeds": [0], "algo": algo}
    )


def _test2_rounds(pairs):
    return [(t, "test2", block) for t, block in pairs]


# Restart-heavy runs at small kappa and seed 1: the SHA-256 of the CSV log and
# log.restarts as (round, cause, block), which pin how restarts are written to
# and read back from the log
RESTART_PINS = {
    "master+ucb1": (
        "5dda7e967c3483bb8dbd39581bfc23eb17e76f860318d5504270d9b57630df47",
        _test2_rounds([(17, 4)] + [(t, 0) for t in range(18, 23)] + [(25, 1)] + [(t, 0) for t in range(26, 33)]),
    ),
    "master-ucrl": (
        "f171c7babbcb54a376960a786072e5ba338ab57e4545ba0963f0204d94f5d9d4",
        _test2_rounds(
            [(4, 2)] + [(t, 0) for t in range(5, 12)] + [(15, 2)] + [(t, 0) for t in range(16, 20)]
            + [(21, 1), (22, 0), (23, 0), (25, 1), (27, 1), (31, 2), (32, 0)]
        ),
    ),
    "doubling-dbar": (
        "5afc0f8bd48c076bc7e0cc39fe10e982f3d1b4249ec5f82239338843347a369e",
        _test2_rounds([(4, 2)] + [(t, 0) for t in range(5, 10)]),
    ),
    "borl": (
        "167f419528d51945292e402ee7d0fef7e3fd3ab9273e74f9f86e3ac8ed15180a",
        _test2_rounds(
            [(4, 2)] + [(t, 0) for t in range(5, 12)] + [(15, 2)] + [(t, 0) for t in range(16, 20)]
            + [(21, 1), (22, 0), (23, 0), (25, 0), (27, 1), (31, 2), (32, 0)]
        ),
    ),
}


@pytest.mark.parametrize("algorithm", sorted(RESTART_PINS))
def test_restart_heavy_log_is_pinned(algorithm):
    log = run_single(restart_spec(algorithm), 1)
    text = log.to_csv_text()
    digest, restarts = RESTART_PINS[algorithm]
    assert [(ev.round, ev.cause, ev.block) for ev in log.restarts] == restarts
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert RunLog.from_csv(text).restarts == log.restarts
    if algorithm == "doubling-dbar":
        # every restart overflows the one-epoch cap and doubles the guess
        doublings = [ev for ev in log.column("event") if "double_dbar" in ev]
        assert len(doublings) == len(restarts)
        assert sorted(set(log.column("dbar"))) == [float(1 << k) for k in range(len(restarts) + 1)]
    if algorithm == "borl":
        assert sorted(set(log.column("borl_arm"))) == [1, 2]

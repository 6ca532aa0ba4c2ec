import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import nonstat.harness
import nonstat.master
import nonstat.mdp
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


@pytest.mark.parametrize("seeds, repeated", [([0, 0], [0]), ([3, 1, 3, 2, 1], [1, 3])])
def test_run_experiment_rejects_repeated_seeds_before_the_output_directory(tmp_path, seeds, repeated):
    # both runs of seed 0 would write seed_0.csv, the second over the first
    out = tmp_path / "out"
    with pytest.raises(SpecError, match=rf"^spec\.seeds: repeated seeds {re.escape(str(repeated))}$"):
        run_experiment(experiment(seeds=seeds, out=str(out)))
    assert not out.exists()


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
    with pytest.raises(SpecError, match=r"spec\.algo: unknown keys \['refactor_every'\]"):
        validate_spec(dict(tiny_spec("master+oful"), algo={"refactor_every": 16}))


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


@pytest.mark.parametrize("delta", ["0.1", True, [0.1]])
def test_validate_rejects_non_numeric_delta(delta):
    # "0.1" raised a bare TypeError from the range check; True passed as 1.0 would not
    with pytest.raises(SpecError, match=r"spec\.delta"):
        validate_spec(experiment(delta=delta))


def test_validate_keeps_a_numeric_delta():
    assert validate_spec(experiment(delta=0.05))["delta"] == 0.05


def average_reward_spec(algorithm, algo):
    spec = tiny_spec("master-ucrl")
    return dict(spec, algorithm=algorithm, algo=algo)


@pytest.mark.parametrize(
    "algorithm, algo, field",
    [
        ("master-ucrl", {"dbar": "2"}, "dbar"),
        ("master-ucrl", {"dbar": 0.5}, "dbar"),
        ("master-ucrl", {"dbar": True}, "dbar"),
        ("master-ucrl", {"dbar": math.inf}, "dbar"),
        ("doubling-dbar", {"known_l": 0}, "known_l"),
        ("doubling-dbar", {"known_l": True}, "known_l"),
        ("doubling-dbar", {"known_l": "x"}, "known_l"),
        ("doubling-dbar", {"known_l": 2.0}, "known_l"),
        ("doubling-dbar", {"known_delta": "1"}, "known_delta"),
        ("master+ucb1", {"c": "2"}, "c"),
        ("master+ucb1", {"c": False}, "c"),
        ("doubling-dbar", {"known_delta": True}, "known_delta"),
        ("master-ucrl", {"dbar": math.nan}, "dbar"),
        # numbers, but not finite
        ("master+ucb1", {"c": math.nan}, "c"),
        ("master+ucb1", {"c": math.inf}, "c"),
        ("master+qucb", {"c": -math.inf}, "c"),
    ],
)
def test_validate_rejects_mistyped_algo_values(algorithm, algo, field):
    if algorithm in ("master-ucrl", "doubling-dbar"):
        spec = average_reward_spec(algorithm, algo)
    else:
        spec = dict(tiny_spec(algorithm), algo=algo)
    with pytest.raises(SpecError, match=rf"spec\.algo\.{field}"):
        validate_spec(spec)


@pytest.mark.parametrize(
    "algorithm, algo",
    [
        ("master-ucrl", {"dbar": 2}),
        ("master-ucrl", {"dbar": 1.0}),
        ("doubling-dbar", {"known_l": 3}),
        ("doubling-dbar", {"known_delta": 0}),
        ("master+ucb1", {"c": 1}),
    ],
)
def test_validate_keeps_well_typed_algo_values(algorithm, algo):
    if algorithm in ("master-ucrl", "doubling-dbar"):
        spec = average_reward_spec(algorithm, algo)
    else:
        spec = dict(tiny_spec(algorithm), algo=algo)
    assert validate_spec(spec)["algo"] == algo


# the spec.algo keys each algorithm's run reads
ALGO_READS = {
    "master+ucb1": {"c"}, "ucb1": {"c"}, "master+qucb": {"c"}, "qucb": {"c"},
    "master-ucrl": {"dbar"}, "ucrl": {"dbar"}, "doubling-dbar": {"known_l", "known_delta"},
    "master+oful": set(), "oful": set(), "master+glm": set(), "glm": set(), "borl": set(),
}
ALGO_VALUES = {"c": 2.0, "dbar": 2.0, "known_l": 3, "known_delta": 0.5}


@pytest.mark.parametrize("key", sorted(ALGO_VALUES))
@pytest.mark.parametrize("algorithm", sorted(ALGO_READS))
def test_validate_rejects_the_algo_keys_an_algorithm_never_reads(algorithm, key):
    spec = tiny_spec(algorithm)
    if algorithm == "doubling-dbar" and key in ALGO_READS[algorithm]:
        algo = {key: ALGO_VALUES[key]}  # it takes exactly one of the two
    else:
        algo = dict(spec["algo"], **{key: ALGO_VALUES[key]})
    spec = dict(spec, algo=algo)
    if key in ALGO_READS[algorithm]:
        assert validate_spec(spec)["algo"] == algo
    elif key == "dbar" and algorithm in ("doubling-dbar", "borl"):
        with pytest.raises(SpecError, match=rf"^spec\.algo\.dbar: {algorithm} chooses its own diameter guesses"):
            validate_spec(spec)
    else:
        with pytest.raises(SpecError, match=rf"^spec\.algo\.{key}: {re.escape(algorithm)} does not read it$"):
            validate_spec(spec)


def test_the_algo_reads_cover_every_algorithm():
    assert ALGO_READS.keys() == nonstat.harness.ALGORITHMS.keys()


def test_validate_names_the_first_unread_algo_key():
    spec = dict(tiny_spec("master+ucb1"), algo={"dbar": 4, "known_l": 3, "known_delta": 0.5})
    with pytest.raises(SpecError, match=r"^spec\.algo\.dbar: master\+ucb1 does not read it$"):
        validate_spec(spec)


def uniform_mdp_spec(S, A, T=8):
    row = [1.0 / S] * S
    return {
        "kind": "infinite",
        "T": T,
        "S": S,
        "A": A,
        "segments": [{"length": T, "rewards": [[0.5] * A] * S, "transitions": [[row] * A] * S}],
    }


def test_run_experiment_fails_before_any_seed_when_the_drift_measure_cannot_be_computed(
    tmp_path, monkeypatch
):
    # 3^8 = 6561 policies: aggregate's gain-drift oracle would raise after every seed had run
    spec = {"env": uniform_mdp_spec(8, 3), "algorithm": "master-ucrl", "seeds": [0, 1],
            "out": str(tmp_path / "out")}
    ran = []
    monkeypatch.setattr(nonstat.harness, "run_single", lambda *args: ran.append(args))
    with pytest.raises(SpecError, match=r"spec\.env: .*4096, got 6561"):
        run_experiment(spec)
    assert ran == []
    assert not (tmp_path / "out").exists()
    monkeypatch.undo()
    # validate_spec and run_single still take the spec
    assert len(run_single(validate_spec(spec), 0)) == 8


def test_run_experiment_runs_at_the_policy_limit(tmp_path):
    # 4^6 = 4096 policies is the largest count the drift measure enumerates
    report = run_experiment({"env": uniform_mdp_spec(6, 4, T=4), "algorithm": "ucrl", "seeds": [0]})
    assert report["nonstationarity"]["L"] == 1


def glm_lam_spec(lam, algorithm="master+glm"):
    env = {"kind": "glm", "T": 16, "link": "logistic", "lam": lam, "actions": [[1.0, 0.0], [0.0, 1.0]],
           "segments": [{"length": 16, "theta": [0.3, 0.7]}]}
    return {"env": env, "algorithm": algorithm, "seeds": [0]}


def one_arm_spec(algorithm):
    return {"env": mab_env_spec(1, [{"length": 1, "means": [0.5]}]), "algorithm": algorithm,
            "delta": 0.99, "seeds": [0]}


@pytest.mark.parametrize(
    "spec, message",
    [
        # c_mu * T / (lam * delta) < 1 at T=16: GlmUcb names lam and delta
        (glm_lam_spec(100), r"lam=100\.0, delta=0\.0625: need lam > 0"),
        (glm_lam_spec(100, "glm"), r"lam=100\.0, delta=0\.0625: need lam > 0"),
        # one arm at T=1, delta=0.99: rho(1) = 0.11 < 1
        (one_arm_spec("master+ucb1"), r"rho\(t\) >= 1/sqrt\(t\) violated at t=1"),
    ],
    ids=["master+glm-lam", "glm-lam", "master+ucb1-one-arm"],
)
def test_validate_rejects_what_the_runs_learner_rejects(spec, message):
    with pytest.raises(SpecError, match=rf"^spec: the {re.escape(spec['algorithm'])} base learner rejects it: {message}"):
        validate_spec(spec)


@pytest.mark.parametrize("algorithm", ["doubling-dbar", "borl"])
def test_validate_checks_doubling_and_borl_at_their_first_guess(algorithm, monkeypatch):
    algo = {"known_l": 2} if algorithm == "doubling-dbar" else {}
    spec = average_reward_spec(algorithm, algo)
    built = []
    real = nonstat.mdp.UcrlAcw
    monkeypatch.setattr(nonstat.mdp, "UcrlAcw", lambda *args: built.append(args) or real(*args))
    validate_spec(spec)
    assert [args[-1] for args in built] == [1.0]


@pytest.mark.parametrize("algorithm", ["doubling-dbar", "borl"])
@pytest.mark.parametrize("dbar", [1.0, 8])
def test_validate_rejects_a_dbar_that_doubling_and_borl_never_read(algorithm, dbar, tmp_path, monkeypatch):
    # the aggregate's drift measure would read it: on switch_mdp_spec(32) its Delta reads 20.58 at
    # dbar = 8 instead of the 3.78 of the guess these runs start from
    algo = {"known_l": 2, "dbar": dbar} if algorithm == "doubling-dbar" else {"dbar": dbar}
    spec = dict(average_reward_spec(algorithm, algo), out=str(tmp_path / "out"))
    message = rf"^spec\.algo\.dbar: {algorithm} chooses its own diameter guesses, so it takes none$"
    with pytest.raises(SpecError, match=message):
        validate_spec(spec)
    ran = []
    monkeypatch.setattr(nonstat.harness, "run_single", lambda *args: ran.append(args))
    with pytest.raises(SpecError, match=message):
        run_experiment(spec)
    assert ran == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("algorithm", ["master+ucb1", "master-ucrl", "ucrl"])
def test_run_experiment_builds_the_environment_at_most_once_per_seed_and_twice_more(algorithm, monkeypatch):
    spec = dict(tiny_spec(algorithm), seeds=[0, 1, 2])
    builds = []
    real = nonstat.harness.make_env
    monkeypatch.setattr(nonstat.harness, "make_env", lambda env_spec: builds.append(env_spec) or real(env_spec))
    run_experiment(spec)
    assert len(builds) <= len(spec["seeds"]) + 2


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


@pytest.mark.parametrize("workers", [0, -3, 2.0, True, "2"])
def test_run_experiment_rejects_a_bad_worker_count(workers, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=rf"^workers: expected an integer >= 1, got {re.escape(repr(workers))}$"):
        run_experiment(experiment(T=16, out=str(out)), workers=workers)
    assert not out.exists()  # checked before any seed runs


def test_import_and_validate_load_no_process_pool():
    # multiprocessing is imported by the workers > 1 branch alone
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    spec = experiment(T=4, algorithm="master-ucrl", env={
        "kind": "infinite", "T": 4, "S": 2, "A": 1,
        "segments": [{"length": 4, "rewards": [[0.5], [0.5]], "transitions": [[[0, 1]], [[1, 0]]]}]})
    code = (f"import sys; sys.path.insert(0, {src!r}); import nonstat.harness; "
            f"nonstat.harness.validate_spec({spec!r}); "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


@pytest.fixture
def short_log_chunks(monkeypatch):
    """Logs that move their rows into the typed columns every 7 rows: every
    tiny_spec log is shorter than LOG_CHUNK rows."""
    monkeypatch.setattr(nonstat.master, "LOG_CHUNK", 7)


@pytest.mark.parametrize("algorithm", sorted(LOG_DIGESTS))
def test_every_algorithm_log_is_pinned_across_log_chunks(algorithm, short_log_chunks):
    test_every_algorithm_log_is_pinned(algorithm)


# SHA-256 of (aggregate.json, regret.svg) of each algorithm's tiny spec at
# seeds [0, 1, 2]: the report and the plot, like the logs, are what the
# library computes
ARTIFACT_DIGESTS = {
    "borl": ("43a16b584aa9d9031903a44a48b0d212c85ffa85b6b931e912f61a50706b0e8d",
             "fe8e3629c7a4680ce19fea477f7c7e11dae1b6ea3502df009fc5346d623b9af9"),
    "doubling-dbar": ("ca83de9f0f9c55d6b10caa4292ed9a32af4e5e3a79a078b665325bbdee2e2522",
                      "f1c8829d11a2ba5063380634164ec3e86ede49438a99e0dcb8e6fb6246aa51a8"),
    "glm": ("c7832b121b818232da8e2b87c25226b9810baa6a64938a05b6464529f684257a",
            "d41060a0e346650c748cbb28c40c4095a0b5d2a80335ee148f8e7f989f27ea36"),
    "master+glm": ("de097678bcab5136afb4e3e12c742b3e3784b683483b4a15b522579ec0c12466",
                   "bd363dea39f2d985c119bb5e7357331a446e174288471bb9e091911bc162e003"),
    "master+oful": ("a26d6d26e14c73416fb7faef4bceaa5ab339a6dfd36f1f562269b32f21d52bfb",
                    "ef0ff12a4acd797786414e4fc418d33acf035b4d9b5dac52dcf1b8486c472f00"),
    "master+qucb": ("e0d67b24437ca2f2ba4940d526abcc2bd1692012bf39fa3a596a0a1a0df944b1",
                    "15d83980b4de424e1a1fc62ca238c33188ae0db65624b03da9382731a16ca625"),
    "master+ucb1": ("766e2807e54645e5c6b14f169b9cfe0afa4819f83f09f4d3fc6d646b3111acf4",
                    "a8f431cf588b06d0cb646fb9762d9f7b4db08560a3285d228da1a2e93801e558"),
    "master-ucrl": ("18e5bc88d58abcad9a85bc30d701fe0b91fb7f404e768366617d6cec374afb5f",
                    "e6a4ec0b71e1aad9f30351273858a39b76c1875394fc233ad2d520aee4cea741"),
    "oful": ("49783ff08be81480848dbc8a0a9e176e2c22f7217453b523efb36bfb5d1e414e",
             "df18f0262191908f687957dbf884c6ee8a0244b4ef1920917d4b7919b0ea9e4e"),
    "qucb": ("87378f9e5a581d15dbc19421f46240f30def48f10017aab577773ebdaf7be1c8",
             "20bfaaaa86928eb6d6c951d81e76e9d887f1cbb424768aa4e6f6a8054fc55780"),
    "ucb1": ("2510da468619e761cfa570d8e090f5d377002966ecfcf4c51eae8d2a4a04214a",
             "5a5311aaefb481c30ea718483875140bc371d6b06bc35dbb6be96f78dba23967"),
    "ucrl": ("87bb9a7900db5f27cdd52f71a71dce5441343965443c6c145a1f5904b110bfab",
             "cd72bfff2286e7d8836e0ab97b78a6364d535621ce6d44001643ec385034b85b"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("algorithm", sorted(ARTIFACT_DIGESTS))
def test_every_algorithm_report_and_plot_are_pinned(algorithm, workers, tmp_path):
    run_experiment(dict(tiny_spec(algorithm), seeds=[0, 1, 2], out=str(tmp_path)), workers=workers)
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("aggregate.json", "regret.svg")
    )
    assert digests == ARTIFACT_DIGESTS[algorithm]


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


@pytest.mark.parametrize("algorithm", sorted(RESTART_PINS))
def test_restart_heavy_log_is_pinned_across_log_chunks(algorithm, short_log_chunks):
    test_restart_heavy_log_is_pinned(algorithm)

import itertools
import json
import math
import pickle

import numpy as np
import pytest

from nonstat.envs import (
    EnvSpecError,
    decode_layer_policy,
    decode_policy,
    encode_layer_policy,
    encode_policy,
    make_env,
    nonstat_summary,
    optimal_value,
    policy_gain,
    sample_reward,
)
from nonstat.harness import seed_derive


def mab_spec(T=64, segments=None):
    segments = segments or [{"length": T, "means": [0.2, 0.8]}]
    return {"kind": "mab", "T": T, "segments": segments}


def episodic_spec(rng, T=8, S=2, A=2, H=3):
    rewards = rng.random((H, S, A)).round(3)
    trans = rng.random((H, S, A, S))
    trans /= trans.sum(axis=3, keepdims=True)
    return {
        "kind": "episodic",
        "T": T,
        "S": S,
        "A": A,
        "H": H,
        "segments": [{"length": T, "rewards": rewards.tolist(), "transitions": trans.tolist()}],
    }


# ---------------------------------------------------------------------------
# optimal_value


def test_optimal_value_mab_max_of_means():
    env = make_env(mab_spec())
    assert optimal_value(env, 1) == 0.8


def test_optimal_value_linear_coordinate_actions():
    env = make_env(
        {
            "kind": "linear",
            "T": 16,
            "actions": [[1.0, 0.0], [0.0, 1.0]],
            "segments": [{"length": 16, "theta": [0.3, 0.7]}],
        }
    )
    assert optimal_value(env, 5) == pytest.approx(0.7)


def test_optimal_value_episodic_matches_policy_enumeration():
    # oracle: exhaustive enumeration of all A^(S*H) deterministic layer policies
    rng = np.random.default_rng(7)
    env = make_env(episodic_spec(rng))
    best = max(env.policy_value(1, pid) for pid in range(env.n_policies))
    assert optimal_value(env, 1) == pytest.approx(best, abs=1e-12)


def test_optimal_value_out_of_range():
    env = make_env(mab_spec())
    with pytest.raises(ValueError):
        optimal_value(env, 0)
    with pytest.raises(ValueError):
        optimal_value(env, 65)


# ---------------------------------------------------------------------------
# nonstat_summary


def test_summary_stationary():
    s = nonstat_summary(make_env(mab_spec()), "ucb1")
    assert s.delta_total == 0.0
    assert s.switch_count == 1


def test_summary_one_switch():
    env = make_env(
        mab_spec(
            T=64,
            segments=[
                {"length": 32, "means": [0.9, 0.1]},
                {"length": 32, "means": [0.1, 0.9]},
            ],
        )
    )
    s = nonstat_summary(env, "ucb1")
    assert s.switch_count == 2
    assert np.count_nonzero(s.delta_trace) == 1
    assert s.delta_trace[31] == pytest.approx(0.8)


def test_summary_drifting_mab_direct_summation():
    T = 50
    lo = np.array([0.1, 0.5])
    hi = np.array([0.6, 0.2])
    env = make_env(
        {"kind": "mab", "T": T, "drift": {"means_start": lo.tolist(), "means_end": hi.tolist()}}
    )
    s = nonstat_summary(env, "ucb1")
    # oracle: direct summation of sup-norm steps
    expected = sum(
        float(np.abs(env.means(t) - env.means(t + 1)).max()) for t in range(1, T)
    )
    assert s.delta_total == pytest.approx(expected, rel=1e-12)
    assert s.switch_count == T  # every round moves


def test_summary_dominates_value_drift_exhaustive():
    # Delta(t) >= max_pi |f_t(pi) - f_{t+1}(pi)| checked by policy sweep
    rng = np.random.default_rng(3)
    spec = episodic_spec(rng, T=6, S=2, A=2, H=2)
    second = episodic_spec(rng, T=6, S=2, A=2, H=2)
    spec["segments"][0]["length"] = 3
    second["segments"][0]["length"] = 3
    spec["segments"].append(second["segments"][0])
    env = make_env(spec)
    s = nonstat_summary(env, "qucb")
    for t in range(1, env.horizon):
        drift = max(
            abs(env.f(t, pid) - env.f(t + 1, pid)) for pid in range(env.n_policies)
        )
        assert s.delta_trace[t - 1] >= drift - 1e-12


def test_summary_ucrl_components():
    swap = [[[0, 1], [0, 1]], [[1, 0], [1, 0]]]
    env = make_env(
        {
            "kind": "infinite",
            "T": 8,
            "S": 2,
            "A": 2,
            "segments": [
                {"length": 4, "rewards": [[1.0, 1.0], [0.0, 0.0]], "transitions": swap},
                {"length": 4, "rewards": [[0.0, 0.0], [1.0, 1.0]], "transitions": swap},
            ],
        }
    )
    s = nonstat_summary(env, "ucrl", dbar=2.0)
    # dr = 1, dp = 0, dJ = 0 (all policies still earn 0.5)
    assert s.delta_trace[3] == pytest.approx(1.0)
    assert s.switch_count == 2


def test_summary_algo_env_mismatch():
    with pytest.raises(ValueError):
        nonstat_summary(make_env(mab_spec()), "oful")


# ---------------------------------------------------------------------------
# sample_reward


def test_sample_reward_degenerate():
    env = make_env(mab_spec(segments=[{"length": 64, "means": [1.0, 0.0]}]))
    rng = seed_derive(0, 0, "test")
    assert all(sample_reward(env, 1, 0, rng) == 1.0 for _ in range(20))
    assert all(sample_reward(env, 1, 1, rng) == 0.0 for _ in range(20))


def test_sample_reward_monte_carlo_mean():
    env = make_env(mab_spec(segments=[{"length": 64, "means": [0.6, 0.3]}]))
    rng = seed_derive(1, 0, "test")
    n = 100_000
    draws = np.array([sample_reward(env, 1, 0, rng) for _ in range(n)])
    tol = 3.0 * math.sqrt(0.24 / n)
    assert abs(draws.mean() - 0.6) <= tol
    assert set(np.unique(draws)) <= {0.0, 1.0}


def test_sample_reward_episodic_mean_matches_f():
    rng_env = np.random.default_rng(5)
    env = make_env(episodic_spec(rng_env, T=4))
    pid = 7 % env.n_policies
    f = env.f(1, pid)
    rng = seed_derive(2, 0, "test")
    draws = np.array([sample_reward(env, 1, pid, rng) for _ in range(20_000)])
    assert np.all((draws >= 0) & (draws <= 1))
    assert abs(draws.mean() - f) <= 4.0 * draws.std() / math.sqrt(len(draws)) + 1e-3


# ---------------------------------------------------------------------------
# construction & loader


def test_construction_is_pure():
    spec = mab_spec(
        T=64,
        segments=[{"length": 32, "means": [0.9, 0.1]}, {"length": 32, "means": [0.1, 0.9]}],
    )
    a, b = make_env(spec), make_env(spec)
    assert pickle.dumps(a._segments.payloads) == pickle.dumps(b._segments.payloads)
    assert a.means(40).tolist() == b.means(40).tolist()


def test_loader_rejects_unknown_keys():
    spec = mab_spec()
    spec["bogus"] = 1
    with pytest.raises(EnvSpecError, match="unknown keys"):
        make_env(spec)


def test_loader_rejects_seed_key():
    # randomness comes from the run's derived streams, never from the env spec
    spec = mab_spec()
    spec["seed"] = 0
    with pytest.raises(EnvSpecError, match=r"unknown keys for kind 'mab': \['seed'\]"):
        make_env(spec)


def test_loader_field_level_messages():
    with pytest.raises(EnvSpecError, match=r"segments\[0\].means"):
        make_env({"kind": "mab", "T": 4, "segments": [{"length": 4, "means": [0.2, 1.4]}]})
    with pytest.raises(EnvSpecError, match="lengths sum"):
        make_env({"kind": "mab", "T": 8, "segments": [{"length": 4, "means": [0.5]}]})
    with pytest.raises(EnvSpecError, match="kind"):
        make_env({"kind": "nope", "T": 4})
    with pytest.raises(EnvSpecError, match="norm"):
        make_env(
            {
                "kind": "linear",
                "T": 4,
                "actions": [[2.0, 0.0]],
                "segments": [{"length": 4, "theta": [0.5, 0.0]}],
            }
        )
    with pytest.raises(EnvSpecError, match="probability"):
        make_env(
            {
                "kind": "infinite",
                "T": 4,
                "S": 2,
                "A": 1,
                "segments": [
                    {"length": 4, "rewards": [[0.5], [0.5]], "transitions": [[[0.5, 0.4]], [[1, 0]]]}
                ],
            }
        )


def test_loader_rejects_noncommunicating():
    with pytest.raises(EnvSpecError, match="communicating"):
        make_env(
            {
                "kind": "infinite",
                "T": 4,
                "S": 2,
                "A": 1,
                "segments": [
                    {
                        "length": 4,
                        "rewards": [[0.5], [0.5]],
                        "transitions": [[[1.0, 0.0]], [[0.0, 1.0]]],  # two absorbing states
                    }
                ],
            }
        )


def test_glm_loader_and_values():
    env = make_env(
        {
            "kind": "glm",
            "T": 8,
            "link": "logistic",
            "lam": 1.0,
            "actions": [[1.0, 0.0], [0.0, 1.0]],
            "segments": [{"length": 8, "theta": [0.5, 0.1]}],
        }
    )
    assert env.optimal_value(1) == pytest.approx(1 / (1 + math.exp(-0.5)))


# ---------------------------------------------------------------------------
# policy encodings and the gain oracle


def test_policy_encoding_roundtrip():
    for table in itertools.product(range(3), repeat=4):
        pid = encode_policy(table, 3)
        assert decode_policy(pid, 4, 3).tolist() == list(table)


def test_layer_policy_encoding_roundtrip():
    table = np.array([[1, 0], [2, 1], [0, 2]])
    pid = encode_layer_policy(table, 3)
    assert decode_layer_policy(pid, 3, 2, 3).tolist() == table.tolist()


def test_policy_gain_swap_chain():
    trans = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
    rewards = np.array([[1.0], [0.0]])
    assert policy_gain(trans, rewards, [0, 0], 0) == pytest.approx(0.5)


def test_policy_gain_multichain_depends_on_start():
    # two absorbing self-loops with different rewards
    trans = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    rewards = np.array([[0.2], [0.9]])
    assert policy_gain(trans, rewards, [0, 0], 0) == pytest.approx(0.2)
    assert policy_gain(trans, rewards, [0, 0], 1) == pytest.approx(0.9)


def test_policy_gain_transient_start_weighted_absorption():
    # from state 0: step to absorbing 1 or absorbing 2 with equal probability
    trans = np.array(
        [
            [[0.0, 0.5, 0.5]],
            [[0.0, 1.0, 0.0]],
            [[0.0, 0.0, 1.0]],
        ]
    )
    rewards = np.array([[0.0], [1.0], [0.0]])
    assert policy_gain(trans, rewards, [0, 0, 0], 0) == pytest.approx(0.5)


def test_infinite_env_optimal_value_matches_enumeration():
    rng = np.random.default_rng(11)
    S, A = 3, 2
    trans = rng.random((S, A, S)) + 0.1
    trans /= trans.sum(axis=2, keepdims=True)
    rewards = rng.random((S, A)).round(3)
    env = make_env(
        {
            "kind": "infinite",
            "T": 4,
            "S": S,
            "A": A,
            "segments": [{"length": 4, "rewards": rewards.tolist(), "transitions": trans.tolist()}],
        }
    )
    best = max(
        policy_gain(trans, rewards, decode_policy(pid, S, A), 0) for pid in range(A**S)
    )
    assert env.optimal_value(1) == pytest.approx(best, abs=1e-6)


def test_sample_reward_infinite_needs_state():
    env = make_env(
        {
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
    )
    rng = seed_derive(20, 0, "inf")
    with pytest.raises(TypeError):
        sample_reward(env, 1, 0, rng)
    assert sample_reward(env, 1, 0, rng, state=0) == 1.0
    assert sample_reward(env, 1, 0, rng, state=1) == 0.0
    with pytest.raises(TypeError):
        env.play(1, 0, rng)


def test_linear_drift_env():
    env = make_env(
        {
            "kind": "linear",
            "T": 11,
            "actions": [[1.0, 0.0], [0.0, 1.0]],
            "drift": {"theta_start": [0.2, 0.6], "theta_end": [0.7, 0.1]},
        }
    )
    assert env.optimal_value(1) == pytest.approx(0.6)
    assert env.optimal_value(11) == pytest.approx(0.7)
    assert env.theta(6).tolist() == [pytest.approx(0.45), pytest.approx(0.35)]
    s = nonstat_summary(env, "oful")
    assert s.switch_count == 11
    step = math.hypot(0.05, -0.05)
    scale = 2 * math.sqrt(math.log(11 * 11))
    assert s.delta_trace[0] == pytest.approx(scale * step)

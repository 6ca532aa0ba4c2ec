import bisect
import itertools
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonstat.envs import (
    LINKS,
    SEGMENT_MEMO_SIZE,
    EnvSpecError,
    EpisodicEnv,
    InfiniteEnv,
    _Segments,
    _sampling_tables,
    _segment_gain,
    decode_layer_policy,
    decode_policy,
    encode_layer_policy,
    encode_policy,
    make_env,
    nonstat_summary,
    policy_gain,
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
    assert env.optimal_value(1) == 0.8


def test_optimal_value_linear_coordinate_actions():
    env = make_env(
        {
            "kind": "linear",
            "T": 16,
            "actions": [[1.0, 0.0], [0.0, 1.0]],
            "segments": [{"length": 16, "theta": [0.3, 0.7]}],
        }
    )
    assert env.optimal_value(5) == pytest.approx(0.7)


def test_optimal_value_episodic_matches_policy_enumeration():
    # oracle: exhaustive enumeration of all A^(S*H) deterministic layer policies
    rng = np.random.default_rng(7)
    env = make_env(episodic_spec(rng))
    best = max(env.policy_value(1, pid) for pid in range(env.n_policies))
    assert env.optimal_value(1) == pytest.approx(best, abs=1e-12)


def test_optimal_value_out_of_range():
    env = make_env(mab_spec())
    with pytest.raises(ValueError):
        env.optimal_value(0)
    with pytest.raises(ValueError):
        env.optimal_value(65)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=8), st.data())
def test_index_of_matches_searchsorted(lengths, data):
    segs = _Segments(lengths, list(range(len(lengths))))
    T = sum(lengths)
    edges = [t for b in segs.bounds.tolist() for t in (b, b + 1)]  # both sides of every boundary
    # rounds in any order: the last segment found must answer for no other round
    ts = data.draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(-2, T + 2)), max_size=60))
    for t in list(range(1, T + 1)) + ts + edges[::-1]:
        if 1 <= t <= T:
            expected = int(np.searchsorted(segs.bounds, t, side="left")) - 1
            assert segs.index_of(t) == expected
            assert segs.index_of(np.int64(t)) == expected
        else:
            with pytest.raises(ValueError, match=f"^round {t} outside horizon {T}$"):
                segs.index_of(t)


def _segment_env(kind, lengths, rng):
    if kind == "mab":
        segments = [{"length": n, "means": rng.random(3).tolist()} for n in lengths]
        return make_env({"kind": "mab", "T": sum(lengths), "segments": segments})
    if kind == "linear":
        spec = {"kind": "linear", "actions": [[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]]}
        thetas = [(0.6 * rng.random(2)).tolist() for _ in lengths]
    else:
        spec = {"kind": "glm", "link": "logistic", "actions": [[1.0, 0.0], [-0.6, 0.8], [0.6, 0.6]]}
        thetas = [rng.uniform(-0.7, 0.7, 2).tolist() for _ in lengths]
    spec["T"] = sum(lengths)
    spec["segments"] = [{"length": n, "theta": th} for n, th in zip(lengths, thetas)]
    return make_env(spec)


def _uncached_optimum(env, t):
    if env.kind == "mab":
        return float(env.means(t).max())
    return float(env._values(env.theta(t)).max())


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["mab", "linear", "glm"]),
    st.lists(st.integers(1, 9), min_size=2, max_size=6),
    st.integers(0, 2**16),
)
def test_cached_optimal_value_is_bitwise_uncached(kind, lengths, seed):
    rng = np.random.default_rng(seed)
    env = _segment_env(kind, lengths, rng)
    # rounds in any order: a segment's entry may be filled by any of its rounds
    for t in rng.permutation(np.arange(1, env.horizon + 1)).tolist() * 2:
        assert env.optimal_value(t).hex() == _uncached_optimum(env, t).hex()
    assert sorted(env._opt_cache) == list(range(len(lengths)))


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "mab", "T": 9, "drift": {"means_start": [0.2, 0.8], "means_end": [0.9, 0.1]}},
        {
            "kind": "linear",
            "T": 9,
            "actions": [[1.0, 0.0], [0.0, 1.0]],
            "drift": {"theta_start": [0.2, 0.6], "theta_end": [0.7, 0.1]},
        },
    ],
)
def test_drift_env_optimal_value_bypasses_the_cache(spec):
    env = make_env(spec)
    for t in range(1, env.horizon + 1):
        assert env.optimal_value(t).hex() == _uncached_optimum(env, t).hex()
    assert env._opt_cache == {}


# ---------------------------------------------------------------------------
# per-segment memo of bandit action means


def _bandit_env(kind, lengths, drift, rng):
    """A 5-action env: mab, or in d=3 linear (kind None) or GLM with link kind;
    without a link, nonnegative vectors in the unit ball keep every a^T theta in [0, 1]."""

    def vector(scale):
        if kind == "mab":
            return rng.random(5).tolist()
        v = rng.random(3) if kind is None else rng.normal(size=3)
        return (scale * v / np.linalg.norm(v)).tolist()

    if kind == "mab":
        name, spec = "means", {"kind": "mab"}
    else:
        name, spec = "theta", {"kind": "linear"} if kind is None else {"kind": "glm", "link": kind}
        spec["actions"] = [vector(rng.uniform(0.5, 1.0)) for _ in range(5)]
    spec["T"] = sum(lengths)
    if drift:
        spec["drift"] = {f"{name}_start": vector(rng.uniform(0.1, 1.0)), f"{name}_end": vector(rng.uniform(0.1, 1.0))}
    else:
        spec["segments"] = [{"length": n, name: vector(rng.uniform(0.1, 1.0))} for n in lengths]
    return make_env(spec)


def _row_mean(env, t, pid):
    """Reference: f_t(pid) from the per-row formula, computed afresh at every
    call, of an id that is an int in [0, K)."""
    if not (type(pid) is int and 0 <= pid < env.n_policies):
        raise ValueError(f"round {t}: policy id {pid!r} must be an integer in [0, {env.n_policies})")
    if env.kind == "mab":
        return float(env.means(t)[pid])
    v = float(env.actions[pid] @ env.theta(t))
    return float(env.link.mu(v)) if env.link is not None else v


def _exact(x):
    """x with every float as its type and hex, every array as its bytes."""
    if isinstance(x, float):
        return type(x), x.hex()
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, tuple):
        return tuple(map(_exact, x))
    return type(x), x


def _outcome(fn, *args):
    try:
        return _exact(fn(*args))
    except (ValueError, IndexError, TypeError) as exc:
        return type(exc), str(exc)


def _pids(rng, n_actions, size):
    """Action ids in any order, bad ones among them: -K..K-1 index an action, and
    floats equal to an action index do not."""
    choices = list(range(-n_actions - 2, n_actions + 2)) + [1.0, 0.5, -1.0, float(n_actions - 1)]
    return [choices[i] for i in rng.integers(len(choices), size=size)]


BANDIT_KINDS = ["mab", None, "identity", "logistic"]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(BANDIT_KINDS),
    st.lists(st.integers(1, 6), min_size=1, max_size=5),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_linear_mean_memo_is_bitwise_the_row_formula(kind, lengths, drift, seed):
    rng = np.random.default_rng(seed)
    env = _bandit_env(kind, lengths, drift, rng)
    K = env.n_policies
    # rounds in any order, bad ones among them; then a float id after its action was played
    rounds = rng.integers(-1, env.horizon + 3, size=120).tolist() + [1, 1, 1]
    pids = _pids(rng, K, 120) + [1, 1.0, 0.5]
    played = set()
    for t, pid in zip(rounds, pids):
        assert _outcome(env.f, t, pid) == _outcome(_row_mean, env, t, pid)
        if not drift and 1 <= t <= env.horizon and type(pid) is int and -K <= pid < K:
            played.add((env._segments.index_of(t), pid))
    if drift:
        assert env._means is None
    else:
        assert sum(len(means) for means in env._means) <= len(played)


@pytest.mark.parametrize("kind", ["mab", None, "logistic"])
@pytest.mark.parametrize("drift", [False, True])
def test_bandit_envs_name_a_bad_policy_id(kind, drift):
    env = _bandit_env(kind, [2, 3], drift, np.random.default_rng(0))
    K = env.n_policies
    rng = np.random.default_rng(1)
    for t in (1, 3, env.horizon):
        played = env.play(t, K - 1, rng)  # fills the segment's memo with a good id first
        assert played[1][0] == K - 1
        assert env.f(t, np.int64(K - 1)) == env.f(t, K - 1)  # a numpy int is an id too
        state = rng.bit_generator.state
        for pid in (-1, -K, K, K + 7, True, False, 1.0, float(K - 1), np.int64(K), np.int64(-1), None):
            for call in (lambda: env.f(t, pid), lambda: env.play(t, pid, rng)):
                with pytest.raises(ValueError, match=rf"^round {t}: policy id {re.escape(repr(pid))} must be"):
                    call()
        assert rng.bit_generator.state == state  # a refused play draws nothing
    if not drift:
        assert all(set(means) <= {K - 1} for means in env._means)  # no bad id was memoized


# ---------------------------------------------------------------------------
# the bandit envs and summary branches before they shared one body, kept as oracles


def _check_round(env, t):
    if not (1 <= t <= env.horizon):
        raise ValueError(f"round {t} outside [1, {env.horizon}]")


class ParentMabEnv:
    kind = "mab"

    def __init__(self, horizon, segments, drift=None):
        self.horizon = int(horizon)
        self._drift = drift  # (means_start, means_end) or None
        self._segments = segments
        if drift is not None:
            self.n_arms = len(drift[0])
        else:
            self.n_arms = len(segments.payloads[0])
        self.n_policies = self.n_arms
        self._opt_cache = {}

    def means(self, t: int) -> np.ndarray:
        _check_round(self, t)
        if self._drift is not None:
            lo, hi = self._drift
            w = 0.0 if self.horizon == 1 else (t - 1) / (self.horizon - 1)
            return (1.0 - w) * lo + w * hi
        return self._segments.at(t)

    def f(self, t: int, pid: int) -> float:
        return float(self.means(t)[pid])

    def optimal_value(self, t: int) -> float:
        if self._drift is not None:
            return float(self.means(t).max())
        _check_round(self, t)
        i = self._segments.index_of(t)
        if i not in self._opt_cache:
            self._opt_cache[i] = float(self._segments.payloads[i].max())
        return self._opt_cache[i]

    def play(self, t: int, pid: int, rng):
        m = self.f(t, pid)
        r = 1.0 if rng.random() < m else 0.0
        return r, (pid, r)


class ParentLinearEnv:
    """Finite-action linear bandit; the GLM variant adds a link function."""

    def __init__(self, horizon, actions, segments, drift=None, link=None, lam=1.0):
        self.horizon = int(horizon)
        self.actions = actions  # (K, d)
        self.dim = actions.shape[1]
        self.n_policies = actions.shape[0]
        self._segments = segments
        self._drift = drift  # (theta_start, theta_end) or None
        self.link = link
        self.lam = float(lam)
        self.kind = "glm" if link is not None else "linear"
        self._opt_cache = {}
        # per segment, the mean of each action played there, filled at its first play
        self._means = None if segments is None else [{} for _ in segments.payloads]

    def theta(self, t: int) -> np.ndarray:
        _check_round(self, t)
        if self._drift is not None:
            lo, hi = self._drift
            w = 0.0 if self.horizon == 1 else (t - 1) / (self.horizon - 1)
            return (1.0 - w) * lo + w * hi
        return self._segments.at(t)

    def f(self, t: int, pid: int) -> float:
        if self._means is not None and 1 <= t <= self.horizon:
            means = self._means[self._segments.index_of(t)]
            m = means.get(pid)
            if m is None:
                m = means[pid] = self._mean(t, pid)
            return m
        return self._mean(t, pid)

    def _mean(self, t: int, pid: int) -> float:
        # the per-row dot: a gemv over all actions may round differently
        v = float(self.actions[pid] @ self.theta(t))
        return float(self.link.mu(v)) if self.link is not None else v

    def _values(self, t: int) -> np.ndarray:
        v = self.actions @ self.theta(t)
        return self.link.mu(v) if self.link is not None else v

    def optimal_value(self, t: int) -> float:
        if self._drift is not None:
            return float(self._values(t).max())
        _check_round(self, t)
        i = self._segments.index_of(t)
        if i not in self._opt_cache:
            self._opt_cache[i] = float(self._values(t).max())
        return self._opt_cache[i]

    def play(self, t: int, pid: int, rng):
        m = self.f(t, pid)
        r = 1.0 if rng.random() < m else 0.0
        return r, (pid, r)


def _parent_boundary_rows(env):
    """Yield (t, payload_t, payload_t1) for rounds where the segment changes."""
    segs = env._segments
    if segs is None:
        return
    for i in range(len(segs) - 1):
        t = int(segs.bounds[i + 1])  # last round of segment i
        yield t, segs.payloads[i], segs.payloads[i + 1]


def parent_bandit_trace(env, delta=None):
    """The bandit branches of nonstat_summary's drift trace, on a parent env."""
    T = env.horizon
    if delta is None:
        delta = 1.0 / T
    trace = np.zeros(T)

    if isinstance(env, ParentMabEnv):
        if env._drift is not None:
            for t in range(1, T):
                trace[t - 1] = float(np.abs(env.means(t) - env.means(t + 1)).max())
        else:
            for t, lo, hi in _parent_boundary_rows(env):
                trace[t - 1] = float(np.abs(lo - hi).max())
    elif isinstance(env, ParentLinearEnv):
        d, link = env.dim, env.link
        scale = (d if link is None else link.k_mu**2 * d / link.c_mu) * math.sqrt(math.log(T / delta))
        if env._drift is not None:
            for t in range(1, T):
                trace[t - 1] = scale * float(np.linalg.norm(env.theta(t) - env.theta(t + 1)))
        else:
            for t, lo, hi in _parent_boundary_rows(env):
                trace[t - 1] = scale * float(np.linalg.norm(lo - hi))
    return trace


def _parent_env(env):
    """The parent class built from env's parsed spec, with segments of its own."""
    segs = env._segments
    segs = None if segs is None else _Segments(segs.lengths, segs.payloads)
    if env.kind == "mab":
        return ParentMabEnv(env.horizon, segs, drift=env._drift)
    return ParentLinearEnv(env.horizon, env.actions, segs, drift=env._drift, link=env.link, lam=env.lam)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(BANDIT_KINDS),
    st.lists(st.integers(1, 6), min_size=1, max_size=5),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_bandit_envs_match_the_parent_classes(kind, lengths, drift, seed):
    rng = np.random.default_rng(seed)
    env = _bandit_env(kind, lengths, drift, rng)
    parent = _parent_env(env)
    param, parent_param = (env.means, parent.means) if kind == "mab" else (env.theta, parent.theta)
    lib, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    rounds = rng.integers(-1, env.horizon + 3, size=80).tolist()
    # int ids only: the parent's linear memo answered a float id equal to a played one
    pids = rng.integers(-env.n_policies - 2, env.n_policies + 2, size=80).tolist()
    for t, pid in zip(rounds, pids):
        assert _outcome(env.optimal_value, t) == _outcome(parent.optimal_value, t)
        assert _outcome(param, t) == _outcome(parent_param, t)
        if 0 <= pid < env.n_policies:
            assert _outcome(env.f, t, pid) == _outcome(parent.f, t, pid)
            assert _outcome(env.play, t, pid, lib) == _outcome(parent.play, t, pid, ref)
        else:  # ParentMabEnv and ParentLinearEnv read a negative id from the end; the envs refuse it
            for call in (lambda: env.f(t, pid), lambda: env.play(t, pid, lib)):
                with pytest.raises(ValueError, match=rf"^round {t}: policy id {pid} "):
                    call()
        assert lib.bit_generator.state == ref.bit_generator.state
    for delta in (None, float(rng.uniform(1e-3, 1.0))):
        got = nonstat_summary(env, delta).delta_trace
        assert _exact(got) == _exact(parent_bandit_trace(parent, delta))


# ---------------------------------------------------------------------------
# nonstat_summary


def test_summary_stationary():
    s = nonstat_summary(make_env(mab_spec()))
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
    s = nonstat_summary(env)
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
    s = nonstat_summary(env)
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
    s = nonstat_summary(env)
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
    s = nonstat_summary(env, dbar=2.0)
    # dr = 1, dp = 0, dJ = 0 (all policies still earn 0.5)
    assert s.delta_trace[3] == pytest.approx(1.0)
    assert s.switch_count == 2


# ---------------------------------------------------------------------------
# reward sampling (play, and step for continuing MDPs)


def test_sample_reward_degenerate():
    env = make_env(mab_spec(segments=[{"length": 64, "means": [1.0, 0.0]}]))
    rng = seed_derive(0, 0, "test")
    assert all(env.play(1, 0, rng)[0] == 1.0 for _ in range(20))
    assert all(env.play(1, 1, rng)[0] == 0.0 for _ in range(20))


def test_sample_reward_monte_carlo_mean():
    env = make_env(mab_spec(segments=[{"length": 64, "means": [0.6, 0.3]}]))
    rng = seed_derive(1, 0, "test")
    n = 100_000
    draws = np.array([env.play(1, 0, rng)[0] for _ in range(n)])
    tol = 3.0 * math.sqrt(0.24 / n)
    assert abs(draws.mean() - 0.6) <= tol
    assert set(np.unique(draws)) <= {0.0, 1.0}


def test_sample_reward_episodic_mean_matches_f():
    rng_env = np.random.default_rng(5)
    env = make_env(episodic_spec(rng_env, T=4))
    pid = 7 % env.n_policies
    f = env.f(1, pid)
    rng = seed_derive(2, 0, "test")
    draws = np.array([env.play(1, pid, rng)[0] for _ in range(20_000)])
    assert np.all((draws >= 0) & (draws <= 1))
    assert abs(draws.mean() - f) <= 4.0 * draws.std() / math.sqrt(len(draws)) + 1e-3


# ---------------------------------------------------------------------------
# MDP sampling tables against rng.choice


def choice_step(env, t, s, a, rng):
    """Reference: InfiniteEnv.step drawn with rng.choice."""
    rewards, trans = env._param(t)
    r = 1.0 if rng.random() < rewards[s, a] else 0.0
    return r, int(rng.choice(env.n_states, p=trans[s, a]))


def choice_play(env, t, pid, rng):
    """Reference: EpisodicEnv.play drawn with rng.choice on the decoded table."""
    rewards, trans = env._param(t)
    table = decode_layer_policy(pid, env.n_layers, env.n_states, env.n_actions)
    s, total, traj = env.init_state, 0.0, []
    for h in range(env.n_layers):
        a = int(table[h, s])
        r = float(rewards[h, s, a])
        nxt = int(rng.choice(env.n_states, p=trans[h, s, a]))
        traj.append((h, s, a, r, nxt))
        total += r
        s = nxt
    return total / env.n_layers, traj


@st.composite
def prob_rows(draw, n_rows, n_states):
    """Rows of random weights, some entries zeroed, normalised as specs are."""
    rows = []
    for _ in range(n_rows):
        w = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=n_states, max_size=n_states)))
        keep = draw(st.integers(0, n_states - 1))  # one entry stays positive
        zeros = draw(st.sets(st.integers(0, n_states - 1), max_size=n_states - 1))
        w[[i for i in zeros if i != keep]] = 0.0
        rows.append(w / w.sum())
    return np.array(rows)


def edge_rows(n_states):
    """Zero first, middle and last; one-hot at each position; uniform; one
    summing to 1 - 1e-9, which choice accepts and renormalises."""
    rows = []
    for zero in (0, n_states // 2, n_states - 1) if n_states > 1 else ():
        w = np.linspace(1.0, 2.0, n_states)
        w[zero] = 0.0
        rows.append(w / w.sum())
    rows.extend(np.eye(n_states))
    rows.append(np.full(n_states, 1.0 / n_states))
    rows.append(np.full(n_states, (1.0 - 1e-9) / n_states))
    return np.array(rows)


def assert_kernel_matches_choice(rows, seed, n_draws):
    _, cdf = _sampling_tables(np.zeros(len(rows)), rows, ("row",))
    for row, table in zip(rows, cdf):  # the CDF choice builds from p, bit for bit
        assert table == (np.cumsum(row) / np.cumsum(row)[-1]).tolist()
    lib, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(n_draws):
        i = k % len(rows)
        assert bisect.bisect_right(cdf[i], lib.random()) == ref.choice(len(rows[i]), p=rows[i])
    assert lib.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n_states", [1, 2, 3, 8])
def test_cdf_kernel_matches_choice_on_edge_rows(n_states):
    assert_kernel_matches_choice(edge_rows(n_states), seed=n_states, n_draws=2000)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: prob_rows(4, n)), st.integers(0, 2**63))
def test_cdf_kernel_matches_choice_on_random_rows(rows, seed):
    assert_kernel_matches_choice(rows, seed, n_draws=200)


def infinite_env(rewards, trans, lengths):
    n_states, n_actions = rewards[0].shape
    return InfiniteEnv(sum(lengths), n_states, n_actions, _Segments(lengths, list(zip(rewards, trans))))


def test_policy_action_reads_the_decoded_table():
    n_states, n_actions = 4, 3
    trans = np.full((n_states, n_actions, n_states), 1.0 / n_states)
    env = infinite_env([np.zeros((n_states, n_actions))], [trans], [1])
    for pid in range(env.n_policies):
        table = decode_policy(pid, n_states, n_actions).tolist()
        assert [env.policy_action(pid, s) for s in range(n_states)] == table
        assert [env.policy_action(np.int64(pid), s) for s in range(n_states)] == table


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_step_draws_what_choice_draws(data):
    n_states, n_actions = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    lengths = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    trans = [data.draw(prob_rows(n_states * n_actions, n_states)).reshape(n_states, n_actions, n_states)
             for _ in lengths]
    rewards = [np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 0.6180339887]),
                                           min_size=n_states * n_actions, max_size=n_states * n_actions)))
               .reshape(n_states, n_actions) for _ in lengths]
    env = infinite_env(rewards, trans, lengths)
    seed = data.draw(st.integers(0, 2**63))
    lib, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    s = 0
    for t in range(1, env.horizon + 1):
        a = t % n_actions
        got = env.step(t, s, a, lib)
        assert got == choice_step(env, t, s, a, ref)
        assert (type(got[0]), type(got[1])) == (float, int)
        s = got[1]
    assert lib.bit_generator.state == ref.bit_generator.state


def test_step_on_one_hot_and_zero_edged_rows_draws_what_choice_draws():
    n_states = 4
    rows = edge_rows(n_states)[:8]  # 3 zero-edged, 4 one-hot, 1 uniform
    env = infinite_env([np.full((n_states, 2), 0.5)], [rows.reshape(n_states, 2, n_states)], [500])
    lib, ref = np.random.default_rng(11), np.random.default_rng(11)
    for t in range(1, 501):
        s, a = t % n_states, (t // n_states) % 2
        assert env.step(t, s, a, lib) == choice_step(env, t, s, a, ref)
    assert lib.bit_generator.state == ref.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_episodic_play_draws_what_choice_draws(data):
    n_states, n_actions, n_layers = (data.draw(st.integers(1, n)) for n in (4, 3, 4))
    lengths = data.draw(st.lists(st.integers(1, 10), min_size=1, max_size=3))
    n_rows = n_layers * n_states * n_actions
    payloads = [
        (np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_rows, max_size=n_rows)))
         .reshape(n_layers, n_states, n_actions),
         data.draw(prob_rows(n_rows, n_states)).reshape(n_layers, n_states, n_actions, n_states))
        for _ in lengths
    ]
    init = data.draw(st.integers(0, n_states - 1))
    segments = _Segments(lengths, payloads)
    env = EpisodicEnv(sum(lengths), n_states, n_actions, n_layers, segments, init_state=init)
    seed = data.draw(st.integers(0, 2**63))
    lib, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for t in range(1, env.horizon + 1):
        pid = data.draw(st.integers(0, env.n_policies - 1))
        got = env.play(t, pid, lib)
        assert got == choice_play(env, t, pid, ref)
        assert all(type(x) is int for step in got[1] for x in (step[0], step[1], step[2], step[4]))
    assert lib.bit_generator.state == ref.bit_generator.state


def test_direct_construction_checks_every_transition_row():
    rewards = np.full((2, 2), 0.5)
    good = np.full((2, 2, 2), 0.5)
    negative, short = good.copy(), good.copy()
    negative[1, 0] = [1.25, -0.25]
    short[0, 1] = [0.45, 0.45]  # sums to 0.9
    with pytest.raises(ValueError, match="state 1, action 0 .*sum=1"):
        infinite_env([rewards], [negative], [4])
    with pytest.raises(ValueError, match="state 0, action 1 .*sum=0.9"):
        infinite_env([rewards, rewards], [good, short], [2, 2])
    layered = np.stack([good, good])
    bad_layer = layered.copy()
    bad_layer[1, 0, 1] = [0.45, 0.45]
    with pytest.raises(ValueError, match="layer 1, state 0, action 1 .*sum=0.9"):
        EpisodicEnv(4, 2, 2, 2, _Segments([4], [(np.stack([rewards, rewards]), bad_layer)]))
    bad_layer = layered.copy()
    bad_layer[0, 1, 0] = [1.25, -0.25]
    with pytest.raises(ValueError, match="layer 0, state 1, action 0 "):
        EpisodicEnv(4, 2, 2, 2, _Segments([4], [(np.stack([rewards, rewards]), bad_layer)]))
    nan = good.copy()
    nan[1, 1] = [math.nan, 1.0]
    with pytest.raises(ValueError, match="state 1, action 1 "):
        infinite_env([rewards], [nan], [4])


def test_loader_applies_the_sampler_row_check():
    # a row off by 1e-7 passed the loader's old 1e-6 check and then failed
    # at its first draw; a tiny negative entry likewise
    for row in ([0.5, 0.5 + 1e-7], [1.0 + 1e-10, -1e-10]):
        spec = {"kind": "infinite", "T": 4, "S": 2, "A": 1,
                "segments": [{"length": 4, "rewards": [[0.5], [0.5]], "transitions": [[row], [[0.5, 0.5]]]}]}
        with pytest.raises(EnvSpecError, match=r"segments\[0\].transitions: .* state 0, action 0 .* probability"):
            make_env(spec)


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
    # values of the wrong type or out of range fail by name, not by coercion or
    # by an error deep in a run
    glm = {"kind": "glm", "T": 4, "link": "logistic", "actions": [[1.0, 0.0]],
           "segments": [{"length": 4, "theta": [0.5, 0.0]}]}
    swap = {"kind": "infinite", "T": 4, "S": 2, "A": 1,
            "segments": [{"length": 4, "rewards": [[0.5], [0.5]], "transitions": [[[0, 1]], [[1, 0]]]}]}
    episodic = episodic_spec(np.random.default_rng(0))
    for spec, key, value in [
        (glm, "lam", "2"), (glm, "lam", True), (glm, "lam", math.nan), (glm, "lam", math.inf), (glm, "lam", 0.0),
        (swap, "s0", True), (swap, "s0", 1.0), (swap, "s0", 2), (episodic, "s1", True), (episodic, "s1", -1),
    ]:
        with pytest.raises(EnvSpecError, match=rf"spec\.{key}: "):
            make_env(dict(spec, **{key: value}))


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


def count_oracle_calls(monkeypatch):
    """Route mdp.optimal_gain and mdp.compute_diameter through counters, with
    the segment gain memo emptied first; returns the counts by name."""
    import nonstat.mdp

    calls = {"gain": 0, "diameter": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(nonstat.mdp, "optimal_gain", counted("gain", nonstat.mdp.optimal_gain))
    monkeypatch.setattr(nonstat.mdp, "compute_diameter", counted("diameter", nonstat.mdp.compute_diameter))
    _segment_gain.cache_clear()
    return calls


def infinite_spec(rewards, trans, lengths):
    n_states, n_actions = np.shape(rewards[0])
    segments = [{"length": n, "rewards": np.asarray(r).tolist(), "transitions": np.asarray(p).tolist()}
                for n, r, p in zip(lengths, rewards, trans)]
    return {"kind": "infinite", "T": sum(lengths), "S": n_states, "A": n_actions, "segments": segments}


@st.composite
def positive_mdp(draw):
    """(rewards, transitions, lengths) of a communicating MDP spec: every
    transition entry positive, some segments copies of the one before."""
    n_states, n_actions = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    unit = st.sampled_from([0.0, 1.0, 0.5, 0.1, 0.6180339887, 5e-324]) | st.floats(0.0, 1.0)
    rewards, trans = [], []
    for i in range(len(lengths)):
        if i and draw(st.booleans()):
            rewards.append(rewards[-1])
            trans.append(trans[-1])
            continue
        n = n_states * n_actions
        rewards.append(np.array(draw(st.lists(unit, min_size=n, max_size=n))).reshape(n_states, n_actions))
        w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n * n_states, max_size=n * n_states)))
        w = w.reshape(n_states, n_actions, n_states)
        trans.append(w / w.sum(axis=2, keepdims=True))
    return rewards, trans, lengths


@settings(max_examples=40, deadline=None)
@given(positive_mdp())
def test_segment_memos_are_bitwise_the_direct_oracles(mdp_draw):
    import nonstat.mdp

    rewards, trans, lengths = mdp_draw
    spec = infinite_spec(rewards, trans, lengths)
    _segment_gain.cache_clear()
    starts = np.cumsum([1] + lengths[:-1]).tolist()
    for _ in range(2):  # the first build fills the memos, the second reads them
        env = make_env(spec)
        for t, r, p in zip(starts, rewards, trans):
            assert env.optimal_value(t).hex() == nonstat.mdp.optimal_gain(p, r).hex()
            assert env.diameter(t).hex() == nonstat.mdp.compute_diameter(p).hex()


def test_second_build_of_a_spec_solves_no_oracle(monkeypatch):
    calls = count_oracle_calls(monkeypatch)
    rng = np.random.default_rng(3)
    trans = [rng.dirichlet(np.ones(3), size=(3, 2)) for _ in range(2)]
    spec = infinite_spec([rng.random((3, 2)) for _ in range(2)], trans, [4, 4])
    env = make_env(spec)
    assert calls == {"gain": 0, "diameter": 0}  # each is solved at its first read
    first = [env.optimal_value(t) for t in range(1, 9)]
    env.max_diameter()
    assert calls == {"gain": 2, "diameter": 2}
    again = make_env(spec)
    assert [again.optimal_value(t) for t in range(1, 9)] == first
    assert calls == {"gain": 2, "diameter": 2}


def test_noncommunicating_spec_raises_on_every_build(monkeypatch):
    # segment 0 communicates, segment 1 has two absorbing states: every build
    # checks both segments' reachability, and solves no hitting time
    import nonstat.mdp

    calls = count_oracle_calls(monkeypatch)
    checks = []
    check = nonstat.mdp._check_communicating
    monkeypatch.setattr(nonstat.mdp, "_check_communicating", lambda trans: checks.append(1) or check(trans))
    rewards = [[[0.5], [0.5]]] * 2
    spec = infinite_spec(rewards, [[[[0.0, 1.0]], [[1.0, 0.0]]], [[[1.0, 0.0]], [[0.0, 1.0]]]], [2, 2])
    for build in (1, 2):
        with pytest.raises(EnvSpecError, match="segment starting at round 3: .*not communicating"):
            make_env(spec)
        assert len(checks) == 2 * build
        assert calls["diameter"] == 0


def parent_reachability_step(trans):
    """The structural reachability test the loader ran first, as it stood
    before the loader stopped solving hitting times: the reference."""
    n_states = trans.shape[0]
    edges = (trans > 0).any(axis=1)  # s -> s' possible under some action
    reach = edges | np.eye(n_states, dtype=bool)
    for _ in range(n_states):
        reach = reach | (reach @ reach)
    if not reach.all():
        raise ValueError("MDP is not communicating (some state pair is unreachable)")


@st.composite
def sparse_mdp(draw):
    """(rewards, transitions, lengths) of an MDP spec whose transitions hold
    zero entries, so that some segments do not communicate."""
    n_states, n_actions = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    weight = st.sampled_from([0.0, 0.0, 0.0, 1.0, 0.25, 5e-324])
    rewards, trans = [], []
    for _ in lengths:
        rewards.append(np.full((n_states, n_actions), 0.5))
        w = np.array(draw(st.lists(weight, min_size=n_states * n_actions * n_states,
                                   max_size=n_states * n_actions * n_states)))
        w = w.reshape(n_states, n_actions, n_states)
        w[w.sum(axis=2) == 0.0, draw(st.integers(0, n_states - 1))] = 1.0  # an empty row gets one next state
        trans.append(w / w.sum(axis=2, keepdims=True))
    return rewards, trans, lengths


@settings(max_examples=150, deadline=None)
@given(sparse_mdp())
def test_loader_rejects_what_the_reachability_step_rejects(mdp_draw):
    rewards, trans, lengths = mdp_draw
    spec = infinite_spec(rewards, trans, lengths)
    expected = None
    for t, p in zip(np.cumsum([1] + lengths[:-1]).tolist(), trans):
        try:
            parent_reachability_step(np.asarray(p))
        except ValueError as exc:
            expected = f"spec.segments: segment starting at round {t}: {exc}"
            break
    if expected is None:
        make_env(spec)
    else:
        with pytest.raises(EnvSpecError) as info:
            make_env(spec)
        assert str(info.value) == expected


def test_make_env_solves_no_hitting_times(monkeypatch):
    calls = count_oracle_calls(monkeypatch)
    rng = np.random.default_rng(5)
    trans = [rng.dirichlet(np.ones(4), size=(4, 3)) for _ in range(3)]
    env = make_env(infinite_spec([rng.random((4, 3)) for _ in range(3)], trans, [2, 3, 4]))
    assert calls == {"gain": 0, "diameter": 0}
    assert [t for t, _ in env.segment_diameters()] == [1, 3, 6]
    assert calls["diameter"] == 3


def test_a_diameter_past_its_iteration_cap_fails_at_its_read(monkeypatch):
    # a communicating segment whose hitting times need more than DIAMETER_MAX_ITER sweeps
    # loads; reading its diameter raises, naming the segment
    import nonstat.mdp

    count_oracle_calls(monkeypatch)
    monkeypatch.setattr(nonstat.mdp, "DIAMETER_MAX_ITER", 1)
    seg = {"rewards": [[0.5], [0.5]], "transitions": [[[0, 1]], [[1, 0]]]}
    env = make_env({"kind": "infinite", "T": 4, "S": 2, "A": 1, "segments": [dict(seg, length=4)]})
    with pytest.raises(ValueError, match=r"^segment starting at round 1: hitting-time iteration failed to "
                                         r"converge in DIAMETER_MAX_ITER=1 sweeps$"):
        env.max_diameter()


def test_segment_memos_hold_at_most_their_bound():
    _segment_gain.cache_clear()
    for a in range(1, SEGMENT_MEMO_SIZE + 9):  # one state, a actions: a distinct segment each
        env = make_env(infinite_spec([np.full((1, a), 0.5)], [np.ones((1, a, 1))], [1]))
        env.optimal_value(1)
        assert _segment_gain.cache_info().currsize <= SEGMENT_MEMO_SIZE
    assert _segment_gain.cache_info().maxsize == _segment_gain.cache_info().currsize == SEGMENT_MEMO_SIZE


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
    # a continuing MDP samples one transition from a given state, never a
    # whole policy's reward
    assert not hasattr(env, "play")
    assert env.step(1, 0, 0, rng) == (1.0, 1)
    assert env.step(1, 1, 0, rng) == (0.0, 0)


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
    s = nonstat_summary(env)
    assert s.switch_count == 11
    step = math.hypot(0.05, -0.05)
    scale = 2 * math.sqrt(math.log(11 * 11))
    assert s.delta_trace[0] == pytest.approx(scale * step)


def test_summary_scale_follows_the_link():
    # the same parameter drift: OFUL's scale without a link, GLM-UCB's with one
    drift = {"theta_start": [0.2, 0.6], "theta_end": [0.7, 0.1]}
    linear = make_env({"kind": "linear", "T": 11, "actions": [[1.0, 0.0], [0.0, 1.0]], "drift": drift})
    glm = make_env({"kind": "glm", "T": 11, "link": "logistic", "actions": [[1.0, 0.0], [0.0, 1.0]],
                    "drift": drift})
    link = LINKS["logistic"]
    ratio = nonstat_summary(glm).delta_trace[0] / nonstat_summary(linear).delta_trace[0]
    assert ratio == pytest.approx(link.k_mu**2 / link.c_mu)

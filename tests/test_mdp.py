import copy
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from nonstat.envs import decode_policy, encode_policy, make_env, policy_gain
from nonstat.harness import seed_derive
import nonstat.base
import nonstat.mdp
from nonstat.base import _check_horizon_delta, _Learner, restore, snapshot_to_json
from nonstat.mdp import (
    Exp3P,
    UcrlAcw,
    _optimistic_shift,
    _optimistic_solve,
    _prior_solution,
    borl,
    borl_arm_count,
    borl_interval_length,
    compute_diameter,
    doubling_dbar,
    evi,
    nbar,
    optimal_gain,
    run_master_ucrl,
    widen_to_span,
)
from nonstat.master import AverageRewardWorld, RunLog, dynamic_regret, master_core

SWAP_TRANS = np.array([[[0.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]])
SWAP_REWARDS = np.array([[1.0, 1.0], [0.0, 0.0]])


def river_swim(n_states=6, p_right=0.3, p_stay=0.6, r_left=0.05, r_right=1.0):
    """Standard two-action chain: left is deterministic, right drifts."""
    trans = np.zeros((n_states, 2, n_states))
    rewards = np.zeros((n_states, 2))
    for s in range(n_states):
        trans[s, 0, max(0, s - 1)] = 1.0
        if s == 0:
            trans[s, 1, 0] = 1.0 - p_right
            trans[s, 1, 1] = p_right
        elif s == n_states - 1:
            trans[s, 1, s] = p_right + p_stay
            trans[s, 1, s - 1] = 1.0 - p_right - p_stay
        else:
            trans[s, 1, min(n_states - 1, s + 1)] = p_right
            trans[s, 1, s] = p_stay
            trans[s, 1, s - 1] = 1.0 - p_right - p_stay
    rewards[0, 0] = r_left
    rewards[n_states - 1, 1] = r_right
    return trans, rewards


# ---------------------------------------------------------------------------
# inner maximization: exact greedy vs linear programming oracle


@pytest.mark.parametrize("seed", range(6))
def test_optimistic_shift_matches_linprog(seed):
    rng = seed_derive(seed, 0, "shift")
    n = 5
    u = rng.random(n) * 3
    p_hat = rng.random(n)
    p_hat /= p_hat.sum()
    for budget in (0.0, 0.05, 0.3, 1.0, 2.5):
        order = np.argsort(-u, kind="stable")
        p = _optimistic_shift(order, p_hat, min(budget, 2.0), u)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= -1e-12)
        assert np.abs(p - p_hat).sum() <= min(budget, 2.0) + 1e-9
        # LP oracle: maximize u.x  s.t.  x in simplex، |x - p_hat|_1 <= budget
        # via x = p_hat + y+ - y-
        c = np.concatenate([-u, u])
        a_ub = np.ones((1, 2 * n))
        b_ub = [min(budget, 2.0)]
        a_eq = np.concatenate([np.ones(n), -np.ones(n)])[None, :]
        b_eq = [1.0 - p_hat.sum()]
        bounds = [(0, None)] * n + [(0, p) for p in p_hat]
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                      method="highs")
        assert res.status == 0
        lp_value = -res.fun + float(u @ p_hat)
        assert float(p @ u) == pytest.approx(lp_value, abs=1e-8)


def test_optimistic_shift_handles_empty_p_hat():
    u = np.array([0.3, 0.9, 0.1])
    order = np.argsort(-u, kind="stable")
    p = _optimistic_shift(order, np.zeros(3), 2.0, u)
    assert p.tolist() == [0.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# EVI


def test_evi_single_state():
    out = evi(np.ones((1, 1, 1)), np.zeros((1, 1)), np.array([[0.7]]), 1e-9)
    assert out.gain == pytest.approx(0.7)
    assert out.span == 0.0


def test_evi_swap_mdp_exact_model():
    # oracle: brute force over the 4 deterministic policies' average rewards
    gains = [
        policy_gain(SWAP_TRANS, SWAP_REWARDS, decode_policy(pid, 2, 2), 0)
        for pid in range(4)
    ]
    assert max(gains) == pytest.approx(0.5)
    out = evi(SWAP_TRANS, np.zeros((2, 2)), SWAP_REWARDS, 1e-9)
    assert out.gain == pytest.approx(0.5, abs=1e-9)
    assert out.span == pytest.approx(0.5, abs=1e-6)


def bellman_residuals(out, p_hat, budgets, r_max):
    n_states, n_actions = r_max.shape
    order = np.argsort(-out.bias, kind="stable")
    lhs = out.gain + out.bias
    best = np.full(n_states, -np.inf)
    at_policy = np.zeros(n_states)
    for s in range(n_states):
        for a in range(n_actions):
            p = _optimistic_shift(order, p_hat[s, a], min(budgets[s, a], 2.0), out.bias)
            val = r_max[s, a] + float(p @ out.bias)
            best[s] = max(best[s], val)
            if a == out.policy[s]:
                at_policy[s] = val
    return lhs - best, lhs - at_policy


@pytest.mark.parametrize("seed", range(4))
def test_evi_bellman_inequalities(seed):
    rng = seed_derive(seed, 1, "evi")
    n_states, n_actions = 3, 2
    p_hat = rng.random((n_states, n_actions, n_states)) + 0.05
    p_hat /= p_hat.sum(axis=2, keepdims=True)
    budgets = rng.random((n_states, n_actions)) * 0.4
    r_max = rng.random((n_states, n_actions))
    eps = 1e-6
    out = evi(p_hat, budgets, r_max, eps)
    over, under = bellman_residuals(out, p_hat, budgets, r_max)
    assert np.all(over >= -eps)  # J + h(s) >= inner max - eps
    assert np.all(under <= eps)  # J + h(s) <= value at greedy action + eps


def test_evi_gain_in_unit_interval():
    rng = seed_derive(9, 1, "evi")
    p_hat = rng.random((2, 2, 2))
    p_hat /= p_hat.sum(axis=2, keepdims=True)
    out = evi(p_hat, np.full((2, 2), 0.3), rng.random((2, 2)), 1e-7)
    assert 0.0 <= out.gain <= 1.0


# ---------------------------------------------------------------------------
# widen_to_span


def test_widening_not_needed_with_true_model_in_set():
    # sets containing the true small-diameter model exit at eta = 1/T
    trans, rewards = river_swim()
    out, eta = widen_to_span(
        trans, np.full((6, 2), 0.2), np.minimum(1.0, rewards + 0.1), 0.01,
        dbar=compute_diameter(trans), horizon=1024,
    )
    assert eta == 1.0 / 1024
    assert out.span <= 2 * compute_diameter(trans)


def test_widening_huge_dbar_first_iteration():
    rng = seed_derive(2, 2, "widen")
    p_hat = rng.random((3, 2, 3))
    p_hat /= p_hat.sum(axis=2, keepdims=True)
    out, eta = widen_to_span(p_hat, np.zeros((3, 2)), rng.random((3, 2)), 0.01,
                             dbar=10.0, horizon=256)
    assert eta == 1.0 / 256


def test_widening_exit_eta_matches_direct_search():
    # adversarial empirical kernel: a long one-way march to an absorbing
    # reward state makes the bias span n-1 > 2*dbar, so widening must crank
    # eta up; the exit value must be the smallest 1/T * 2^j that fits
    n = 6
    p_hat = np.zeros((n, 1, n))
    for s in range(n - 1):
        p_hat[s, 0, s + 1] = 1.0
    p_hat[n - 1, 0, n - 1] = 1.0
    r_max = np.zeros((n, 1))
    r_max[n - 1, 0] = 1.0  # reward only at the absorbing end
    conf = np.zeros((n, 1))
    horizon = 4096
    dbar = 1.0
    eps = 1e-4
    out, eta = widen_to_span(p_hat, conf, r_max, eps, dbar, horizon)
    assert out.span <= 2 * dbar

    def span_at(eta_val):
        return evi(p_hat, conf + eta_val, r_max, eps).span

    assert span_at(1.0 / horizon) > 2 * dbar  # widening genuinely engaged
    candidates = [1.0 / horizon * (1 << j) for j in range(30)]
    expected = next(e for e in candidates if span_at(e) <= 2 * dbar)
    assert eta == expected
    assert eta > 1.0 / horizon


# ---------------------------------------------------------------------------
# the learner


def test_fresh_learner_state():
    inst = UcrlAcw(2, 2, 256, 1.0 / 256, dbar=1.0)
    assert inst.gamma_budget == 0.0
    inst.predict()
    assert inst.episode == 1
    # all-unvisited confidence sets cover everything: optimistic gain is 1
    assert inst.predict() == 1.0


@pytest.mark.parametrize("dbar", [math.nan, 0.5, -math.inf])
def test_learner_rejects_a_diameter_guess_below_one(dbar):
    # nan fails every comparison, so the guard must be one that nan fails
    with pytest.raises(ValueError, match="dbar="):
        UcrlAcw(2, 2, 256, 1.0 / 256, dbar=dbar)


def test_learner_rejects_an_infinite_diameter_guess():
    # an infinite guess makes the rate infinite at every order, and the
    # control loop used to die on its first block with "no covering instance"
    with pytest.raises(ValueError, match=r"^diameter guess dbar=inf must be finite and >= 1$"):
        UcrlAcw(2, 2, 256, 1.0 / 256, dbar=math.inf)
    with pytest.raises(ValueError, match=r"^diameter guess dbar=inf must be finite and >= 1$"):
        run_master_ucrl(infinite_env(32), math.inf)


def test_prior_solution_equals_fresh_widening():
    S, A, T, dbar = 3, 2, 256, 2.0
    delta = 1.0 / T
    _prior_solution.cache_clear()
    out, eta = _prior_solution(S, A, T, delta, dbar)
    # the zero-data inputs of the first episode, spelled out
    conf = np.full((S, A), 8.0 * math.sqrt(math.log(S * A * T / delta)))
    ref, ref_eta = widen_to_span(
        np.zeros((S, A, S)), math.sqrt(S) * conf, np.minimum(1.0, conf), 1.0, dbar, T
    )
    assert eta == ref_eta
    assert out.gain == ref.gain
    assert out.iterations == ref.iterations
    assert out.policy.tobytes() == ref.policy.tobytes()
    assert out.bias.tobytes() == ref.bias.tobytes()
    with pytest.raises(ValueError):
        out.policy[0] = 1
    with pytest.raises(ValueError):
        out.bias[0] = 1.0


def test_fresh_learners_share_the_prior_solution():
    _prior_solution.cache_clear()
    first = UcrlAcw(3, 2, 256, 1.0 / 256, dbar=2.0)
    first.predict()
    second = UcrlAcw(3, 2, 256, 1.0 / 256, dbar=2.0)
    second.predict()
    info = _prior_solution.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    out, eta = _prior_solution(3, 2, 256, 1.0 / 256, 2.0)
    assert second.gain == out.gain and second.eta == eta
    assert np.array_equal(second.policy_table, out.policy)
    assert second.act() == encode_policy(out.policy, 2)
    second.policy_table[0] = 1  # the learner owns a writable copy


def test_learner_with_data_never_takes_the_prior_solution(monkeypatch):
    inst = UcrlAcw(2, 2, 256, 1.0 / 256, dbar=1.0)
    inst.predict()
    inst.update((0, 0, 1.0, 1))  # a first visit ends the episode
    assert inst.needs_solve
    clone = restore(snapshot_to_json(inst))

    def no_memo(*args):
        raise AssertionError("a learner with data took the data-free solve")

    monkeypatch.setattr(nonstat.mdp, "_prior_solution", no_memo)
    assert clone.predict() == inst.predict()
    assert clone.act() == inst.act()
    assert clone.eta == inst.eta
    assert snapshot_to_json(clone) == snapshot_to_json(inst)


def test_policy_id_follows_each_solve_and_a_snapshot_round_trip():
    # enough data that action 1 (reward 1) beats action 0 (reward 0) even
    # optimistically: the solved policy id is 1 + 1*2 = 3, not the initial 0
    inst = UcrlAcw(2, 2, 64, 1.0 / 64, dbar=1.0)
    assert inst.act() == 0  # the data-free solve; a later solve replaces its id
    for _ in range(3000):
        for s in range(2):
            inst.update((s, 0, 0.0, s))
            inst.update((s, 1, 1.0, s))
    assert inst.act() == 3 and not inst.needs_solve
    clone = restore(snapshot_to_json(inst))
    assert not clone.needs_solve  # act() reads the loaded table, no new solve
    assert clone.act() == 3 == encode_policy(clone.policy_table, 2)
    assert snapshot_to_json(clone) == snapshot_to_json(inst)
    # loading into a learner that has already acted drops its old policy id
    other = UcrlAcw(2, 2, 64, 1.0 / 64, dbar=1.0)
    assert other.act() == 0
    other._load_state(inst.snapshot()["state"])
    assert other.act() == 3


def test_gamma_threshold_arithmetic():
    # S=A=1, t=1: threshold 4*sqrt(log(T/delta)) ~ 14.89 at T=2^10
    T = 1 << 10
    inst = UcrlAcw(1, 1, T, 1.0 / T, dbar=1.0)
    threshold = 4.0 * math.sqrt(math.log(T * T))
    assert threshold == pytest.approx(14.89, abs=0.01)
    inst.predict()
    inst.update((0, 0, 1.0, 0))
    # eta = 1/T per step: never crosses within the horizon
    assert inst.gamma_budget == pytest.approx(1.0 / T)
    assert not inst.restart_signaled


def test_episode_doubles_on_visit_count():
    inst = UcrlAcw(2, 2, 256, 1.0 / 256, dbar=1.0)
    inst.predict()
    assert inst.episode == 1
    inst.update((0, 0, 1.0, 1))  # first visit: nu=1 >= N+=1 -> episode ends
    inst.predict()
    assert inst.episode == 2
    inst.update((0, 0, 1.0, 1))  # nu=1 >= max(1, N=1) -> ends again
    inst.update((1, 0, 0.0, 0))  # solves ep 3, then this first visit ends it
    inst.predict()
    assert inst.episode == 4
    # a revisited pair now needs two visits before the next boundary
    inst.update((0, 0, 1.0, 1))
    inst.predict()
    assert inst.episode == 4
    inst.update((0, 0, 1.0, 1))
    inst.predict()
    assert inst.episode == 5


def test_learner_tolerates_state_reassignment():
    # feedback states need not chain: (0,a,r,1) then (0,a,r,0) is legal
    inst = UcrlAcw(2, 2, 256, 1.0 / 256, dbar=1.0)
    inst.predict()
    inst.update((0, 0, 1.0, 1))
    inst.update((0, 1, 0.0, 0))  # "came back" without a transition
    inst.update((1, 0, 1.0, 1))
    assert inst.t_int == 3


def test_signal_fires_when_budget_crossed():
    T = 64
    inst = UcrlAcw(1, 1, T, 1.0 / T, dbar=1.0)
    crossed_at = None
    for t in range(1, 41):
        inst.predict()  # solve first so the forced eta survives the update
        inst.eta = 10.0
        inst.update((0, 0, 1.0, 0))
        if inst.restart_signaled:
            crossed_at = t
            break
    first_cross = next(
        t for t in range(1, 41)
        if 10.0 * t > 4.0 * math.sqrt(t * math.log(T * T))
    )
    assert crossed_at == first_cross
    assert inst.gamma_budget == pytest.approx(10.0 * first_cross)


# ---------------------------------------------------------------------------
# the learner's snapshot, restore and load round trip against a reference


class ReferenceUcrlAcw(_Learner):
    """An independent copy of the learner, verbatim but for rate(), which
    nothing here reads: every array is built at construction and
    policy_table at every solve."""

    name = "ucrl"
    _fields = (
        "visit_total",
        "visit_episode",
        "trans_counts",
        "reward_sums",
        "t_int",
        "episode",
        "gamma_budget",
        "eta",
        "gain",
        "policy_table",
        "needs_solve",
        "signaled",
    )

    def __init__(self, n_states: int, n_actions: int, horizon: int, delta: float, dbar: float = 1.0):
        if not n_states >= 1:
            raise ValueError(f"n_states={n_states!r} must be >= 1")
        if not n_actions >= 1:
            raise ValueError(f"n_actions={n_actions!r} must be >= 1")
        _check_horizon_delta(horizon, delta)
        if not dbar >= 1.0:  # written so that nan fails it
            raise ValueError(f"diameter guess dbar={dbar} must be >= 1")
        self.n_states = n_states
        self.n_actions = n_actions
        self.horizon = horizon
        self.delta = delta
        self.dbar = float(dbar)
        self._log_term = math.log(n_states * n_actions * horizon / delta)
        self.visit_total = np.zeros((n_states, n_actions))
        self.visit_episode = np.zeros((n_states, n_actions))
        self.trans_counts = np.zeros((n_states, n_actions, n_states))
        self.reward_sums = np.zeros((n_states, n_actions))
        self.t_int = 0
        self.episode = 0
        self.gamma_budget = 0.0
        self.eta = 1.0 / horizon
        self.gain = 1.0
        self.policy_table = np.zeros(n_states, dtype=np.int64)
        self._policy_id = None  # encode_policy(policy_table), made at the first act() after a solve
        self.needs_solve = True
        self.signaled = False

    def _params(self):
        return {
            "n_states": self.n_states,
            "n_actions": self.n_actions,
            "horizon": self.horizon,
            "delta": self.delta,
            "dbar": self.dbar,
        }

    @property
    def restart_signaled(self) -> bool:
        return self.signaled

    def _load_state(self, state: dict):
        super()._load_state(state)
        self._policy_id = None

    def _solve_episode(self):
        self.episode += 1
        if self.t_int == 0 and not np.count_nonzero(self.visit_total):  # cheaper than any() here
            out, eta = _prior_solution(self.n_states, self.n_actions, self.horizon, self.delta, self.dbar)
        else:
            out, eta = _optimistic_solve(
                self.visit_total, self.trans_counts, self.reward_sums,
                self.t_int, self._log_term, self.dbar, self.horizon,
            )
        self._policy_id = None
        self.eta = eta
        self.gain = out.gain
        self.policy_table = out.policy.astype(np.int64)
        self.needs_solve = False

    def _ensure_solved(self):
        if self.needs_solve:
            self._solve_episode()

    def predict(self) -> float:
        self._ensure_solved()
        return self.gain

    def act(self) -> int:
        self._ensure_solved()
        if self._policy_id is None:
            self._policy_id = encode_policy(self.policy_table, self.n_actions)
        return self._policy_id

    def update(self, feedback):
        self._ensure_solved()
        s, a, reward, nxt = feedback
        self.visit_episode[s, a] += 1.0
        self.gamma_budget += self.eta
        self.t_int += 1
        if self.gamma_budget > 4.0 * self.n_states * math.sqrt(
            self.n_actions * self.t_int * self._log_term
        ):
            self.signaled = True
        self.trans_counts[s, a, nxt] += 1.0
        self.reward_sums[s, a] += reward
        if self.visit_episode[s, a] >= max(1.0, self.visit_total[s, a]):
            self.visit_total += self.visit_episode
            self.visit_episode[:] = 0.0
            self.needs_solve = True


# -0.0 and the least subnormal sum to what they are only through update's +=
_UCRL_REWARDS = st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0])


@st.composite
def ucrl_scripts(draw):
    """Parameters, then steps: an update's transition, a read or a reload."""
    n_states, n_actions = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    horizon = draw(st.sampled_from([16, 256]))
    params = {"n_states": n_states, "n_actions": n_actions, "horizon": horizon,
              "delta": 1.0 / horizon, "dbar": draw(st.sampled_from([1.0, 2.0]))}
    state = st.integers(0, n_states - 1)
    update = st.tuples(st.just("update"), st.tuples(state, st.integers(0, n_actions - 1), _UCRL_REWARDS, state))
    other = st.tuples(st.sampled_from(["predict", "act", "restore", "load"]), st.none())
    return params, draw(st.lists(st.one_of(update, update, other), max_size=60))


def _reference_state(ref):
    return json.loads(snapshot_to_json(ref))["state"]


@settings(max_examples=200, deadline=None)
@given(ucrl_scripts())
@example(({"n_states": 2, "n_actions": 2, "horizon": 16, "delta": 1 / 16, "dbar": 1.0},
          [("restore", None)]))  # a never-read learner
@example(({"n_states": 2, "n_actions": 2, "horizon": 16, "delta": 1 / 16, "dbar": 1.0},
          [("load", None), ("act", None)]))
@example(({"n_states": 2, "n_actions": 2, "horizon": 16, "delta": 1 / 16, "dbar": 1.0},
          [("update", (1, 0, -0.0, 0)), ("restore", None), ("update", (1, 0, 0.5, 1))]))
@example(({"n_states": 3, "n_actions": 2, "horizon": 256, "delta": 1 / 256, "dbar": 2.0},
          [("update", (2, 1, 5e-324, 0)), ("load", None), ("predict", None)]))
@example(({"n_states": 2, "n_actions": 1, "horizon": 16, "delta": 1 / 16, "dbar": 1.0},
          [("update", (0, 0, -0.0, 1)), ("update", (0, 0, 1.0, 0)), ("update", (0, 0, 0.0, 0)),
           ("update", (1, 0, 0.5, 1)), ("act", None)]))
def test_snapshot_restore_and_load_round_trip_equals_a_reference(script):
    params, steps = script
    inst, ref = UcrlAcw(**params), ReferenceUcrlAcw(**params)

    def agree():
        assert (inst.episode, inst.eta, inst.gamma_budget, inst.dbar) == (
            ref.episode, ref.eta, ref.gamma_budget, ref.dbar)
        assert inst.restart_signaled == ref.restart_signaled
        assert snapshot_to_json(inst) == snapshot_to_json(ref)

    agree()
    for kind, transition in steps:
        if kind == "update":
            inst.update(transition)
            ref.update(transition)
        elif kind == "predict":
            assert repr(inst.predict()) == repr(ref.predict())
        elif kind == "act":
            assert inst.act() == ref.act()
        elif kind == "restore":
            inst = restore(snapshot_to_json(inst))
            ref._load_state(_reference_state(ref))
        else:  # load the reference's state
            state = _reference_state(ref)
            inst._load_state(state)
            ref._load_state(state)
        agree()
    assert inst.act() == ref.act()
    assert repr(inst.predict()) == repr(ref.predict())
    assert snapshot_to_json(inst) == snapshot_to_json(ref)


def test_restore_gives_each_array_its_dtype_and_shape():
    # snapshots are outside input: a loaded array takes the field's dtype and
    # shape, and one of the wrong size is rejected
    snap = json.loads(snapshot_to_json(UcrlAcw(3, 2, 256, 1.0 / 256)))
    snap["state"]["visit_total"] = [0] * 6  # flat ints
    clone = restore(snap)
    for field, dtype, shape in [("visit_total", np.float64, (3, 2)), ("visit_episode", np.float64, (3, 2)),
                                ("trans_counts", np.float64, (3, 2, 3)), ("reward_sums", np.float64, (3, 2)),
                                ("policy_table", np.int64, (3,))]:
        assert (getattr(clone, field).dtype, getattr(clone, field).shape) == (dtype, shape), field
    snap["state"]["trans_counts"] = [[[0.0] * 3] * 2] * 2  # 2 x 2 x 3, not 3 x 2 x 3
    with pytest.raises(ValueError, match="reshape"):
        restore(snap)


BAD_TRANSITIONS = [  # of a learner with S=2 and A=3, and the field each names
    ((-1, 0, 0.5, 0), "state="),
    ((2, 0, 0.5, 0), "state="),
    ((1.0, 0, 0.5, 0), "state="),
    ((True, 0, 0.5, 0), "state="),
    ((0, -1, 0.5, 0), "action="),
    ((0, 3, 0.5, 0), "action="),
    ((0, np.float64(1.0), 0.5, 0), "action="),
    ((0, 0, 0.5, -1), "next_state="),
    ((0, 0, 0.5, 2), "next_state="),
    ((0, 0, 0.5, 0.0), "next_state="),
    ((0, 0, math.nan, 0), "reward="),
    ((0, 0, -0.5, 0), "reward="),
    ((0, 0, 1.5, 0), "reward="),
]


@pytest.mark.parametrize("transition, name", BAD_TRANSITIONS)
@pytest.mark.parametrize("first", [True, False])
def test_bad_transition_raises_at_its_update(transition, name, first):
    inst = UcrlAcw(2, 3, 256, 1.0 / 256, dbar=1.0)
    if not first:
        inst.update((np.int64(1), np.int64(2), 1.0, np.int64(0)))  # numpy integers are indices too
    before = snapshot_to_json(copy.deepcopy(inst))
    with pytest.raises(ValueError, match=f"^{name}"):
        inst.update(transition)
    assert snapshot_to_json(inst) == before  # the rejected update changed nothing


@pytest.mark.parametrize("delta", [1.0 / 64, 64.0])  # 64: log(S*A*T/delta) = 0 at S = A = 1, so it signals
@pytest.mark.parametrize("dbar", [1.0, 4.0, 64.0])
def test_first_update_leaves_the_same_reads_for_every_feedback(dbar, delta):
    # first_update_reads_fixed: after a fresh learner's first update, what the
    # average-reward adapter reads (its log columns and the restart signal)
    # is the same for every transition, read before the update or not
    assert UcrlAcw.first_update_reads_fixed
    signals = set()
    for n_states, n_actions in itertools.product([1, 2, 3], [1, 2]):
        reads = set()
        for s, a, reward, nxt in itertools.product(
                range(n_states), range(n_actions), [0.0, 0.5, 1.0], range(n_states)):
            for read_first in (False, True):
                inst = UcrlAcw(n_states, n_actions, 64, delta, dbar)
                if read_first:
                    inst.predict()
                inst.update((s, a, reward, nxt))
                reads.add((inst.episode, inst.eta, inst.gamma_budget, inst.dbar, inst.restart_signaled))
        assert len(reads) == 1, (n_states, n_actions)
        signals.add(reads.pop()[-1])
    assert signals == ({False, True} if delta == 64.0 else {False})


def test_only_the_average_reward_learner_declares_fixed_first_update_reads():
    declared = {algo for algo, cls in nonstat.base._REGISTRY.items() if cls.first_update_reads_fixed}
    assert declared == {"ucrl"}
    assert not nonstat.base._Learner.first_update_reads_fixed


class BadTransitionWorld(AverageRewardWorld):
    """The average-reward adapter, but for the transition it reports at round bad_round."""

    def __init__(self, env, bad_round, transition):
        super().__init__(env)
        self.bad_round, self.transition = bad_round, transition

    def play(self, t, policy, rng):
        reward, feedback, f_star = super().play(t, policy, rng)
        return reward, (self.transition if t == self.bad_round else feedback), f_star


@pytest.mark.parametrize("transition, name", BAD_TRANSITIONS)
def test_bad_transition_of_a_later_one_round_instance_raises_its_update_error(transition, name):
    # at T = 64 every slot spawns, so each round is an order-0 instance's
    # first and last; block 1 (rounds 2 and 3) builds its shared learner at
    # round 2, and round 3's transition is only checked, with the message an
    # update of the instance's own learner gives
    T = 64
    env = make_env({"kind": "infinite", "T": T, "S": 2, "A": 3, "segments": [
        {"length": T, "rewards": [[0.9, 0.1, 0.5], [0.2, 0.6, 0.4]],
         "transitions": [[[0.7, 0.3], [0.4, 0.6], [0.5, 0.5]], [[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]]]}]})
    built = []

    def factory():
        built.append(UcrlAcw(2, 3, T, 1.0 / T))
        return built[-1]

    with pytest.raises(ValueError) as direct:
        UcrlAcw(2, 3, T, 1.0 / T).update(transition)
    with pytest.raises(ValueError, match=f"^{name}") as raised:
        master_core(BadTransitionWorld(env, 3, transition), factory, 1.0, seed_derive(0, 0, "env"),
                    seed_derive(0, 0, "sched"), RunLog(mdp_columns=True))
    assert str(raised.value) == str(direct.value)
    # the learner master_core reads rate() from, then runner.fresh and
    # runner.shared of blocks 0 and 1: round 3 built none
    assert [learner.t_int for learner in built] == [0, 0, 1, 0, 1]


def test_a_widening_signal_restart_is_pinned():
    # a real mdp_signal restart: at S = 2, A = 1 and delta = T, log(S*A*T/delta)
    # is log 2, and a two-state chain that leaves each state with probability
    # 0.001 has a bias span that needs widening once an instance holds data;
    # with the tests off (kappa = inf), an order-12 instance's widening budget
    # crosses its threshold at round 9480 (eta 0.5, gamma_budget 201.53125)
    T = 1 << 14
    env = make_env({"kind": "infinite", "T": T, "S": 2, "A": 1, "segments": [
        {"length": T, "rewards": [[1.0], [0.0]], "transitions": [[[0.999, 0.001]], [[0.001, 0.999]]]}]})
    log = run_master_ucrl(env, 1.0, delta=float(T), kappa=math.inf, seed=1)
    assert [(ev.round, ev.cause, ev.block) for ev in log.restarts] == [(9480, "mdp_signal", 13)]
    assert hashlib.sha256(log.to_csv_text().encode()).hexdigest() == (
        "45a6d30bc874561bb8dd18f270d1d836986c7de87d8670f1fe2e736864004e85")


# ---------------------------------------------------------------------------
# diameter & optimal gain oracles


def test_diameter_two_state_swap():
    assert compute_diameter(SWAP_TRANS) == pytest.approx(1.0)


def test_diameter_deterministic_cycle():
    n = 5
    trans = np.zeros((n, 1, n))
    for s in range(n):
        trans[s, 0, (s + 1) % n] = 1.0
    assert compute_diameter(trans) == pytest.approx(n - 1)


def test_diameter_river_swim_against_monte_carlo():
    trans, _ = river_swim()
    d = compute_diameter(trans)

    # Monte-Carlo oracle: the diameter pair for this chain is 0 -> 5 under
    # the always-right policy; simulate expected hitting time
    rng = seed_derive(3, 3, "mc")
    n_runs = 4000
    total = 0
    for _ in range(n_runs):
        s, steps = 0, 0
        while s != 5:
            s = int(rng.choice(6, p=trans[s, 1]))
            steps += 1
        total += steps
    mc = total / n_runs
    assert abs(d - mc) / mc < 0.05


def test_optimal_gain_single_state():
    assert optimal_gain(np.ones((1, 1, 1)), np.array([[0.7]])) == pytest.approx(0.7)


def test_optimal_gain_swap_policy_enumeration():
    gains = [
        policy_gain(SWAP_TRANS, SWAP_REWARDS, decode_policy(pid, 2, 2), 0)
        for pid in range(4)
    ]
    assert optimal_gain(SWAP_TRANS, SWAP_REWARDS) == pytest.approx(max(gains), abs=1e-9)


def test_optimal_gain_matches_long_simulation():
    trans, rewards = river_swim()
    j_star = optimal_gain(trans, rewards)
    out = evi(trans, np.zeros((6, 2)), rewards, 1e-9)
    rng = seed_derive(4, 3, "sim")
    s = 0
    total = 0.0
    n = 400_000
    for _ in range(n):
        a = int(out.policy[s])
        total += rewards[s, a]
        s = int(rng.choice(6, p=trans[s, a]))
    assert abs(total / n - j_star) < 1e-3 + 4.0 / math.sqrt(n)


@pytest.mark.parametrize("seed", range(5))
def test_optimal_gain_enumeration_small_mdps(seed):
    rng = seed_derive(seed, 4, "enum")
    n_states = int(rng.integers(2, 4))
    n_actions = int(rng.integers(2, 4))
    trans = rng.random((n_states, n_actions, n_states)) + 0.05
    trans /= trans.sum(axis=2, keepdims=True)
    rewards = rng.random((n_states, n_actions))
    best = max(
        policy_gain(trans, rewards, decode_policy(pid, n_states, n_actions), 0)
        for pid in range(n_actions**n_states)
    )
    assert optimal_gain(trans, rewards) == pytest.approx(best, abs=1e-6)


# ---------------------------------------------------------------------------
# runners


def infinite_env(T=512, segments=None, S=2, A=2):
    segs = segments or [
        {"length": T, "rewards": SWAP_REWARDS.tolist(), "transitions": SWAP_TRANS.tolist()}
    ]
    return make_env({"kind": "infinite", "T": T, "S": S, "A": A, "segments": segs})


def test_run_master_ucrl_stationary_smoke():
    env = infinite_env(512)
    log = run_master_ucrl(env, dbar=1.0, kappa=1.0, seed=5)
    assert len(log) == 512
    assert log.restarts == []
    assert log.columns == RunLog(mdp_columns=True).columns


def test_run_master_ucrl_tests_disabled_differential():
    env = infinite_env(128)
    a = run_master_ucrl(env, dbar=1.0, kappa=math.inf, seed=6)
    b = run_master_ucrl(env, dbar=1.0, kappa=math.inf, seed=6)
    assert a.to_csv_text() == b.to_csv_text()


def test_physical_state_persists_across_blocks():
    env = infinite_env(64)
    log = run_master_ucrl(env, dbar=1.0, kappa=math.inf, seed=7)
    # swap chain: reward sequence alternates deterministically regardless of
    # block boundaries -> the physical trajectory never resets
    rewards = log.column("reward")
    for i in range(1, 64):
        assert rewards[i] != rewards[i - 1]


def test_nbar_arithmetic():
    assert nbar(2, 2, 4096, known_l=3) == 3.0
    assert nbar(2, 2, 4096, known_delta=1.0) == pytest.approx(25.0)
    assert nbar(2, 2, 4096, known_l=np.int64(2)) == 2.0
    assert nbar(2, 2, 4096, known_delta=0) == 1.0
    with pytest.raises(ValueError):
        nbar(2, 2, 4096)
    with pytest.raises(ValueError):
        nbar(2, 2, 4096, known_l=2, known_delta=1.0)


@pytest.mark.parametrize("knowledge", [
    {"known_l": 0}, {"known_l": -1}, {"known_l": 1.5}, {"known_l": True}, {"known_l": "2"},
    {"known_delta": math.nan}, {"known_delta": math.inf}, {"known_delta": -math.inf}, {"known_delta": -1.0},
    {"known_delta": "1"}, {"known_delta": True},
])
def test_nbar_rejects_knowledge_out_of_range(knowledge):
    # known_l=0 gave a cap of 0.0, and known_delta=nan a cap of nan, which
    # doubling_dbar's epoch count never exceeds
    (field,) = knowledge
    with pytest.raises(ValueError, match=rf"^{field}: "):
        nbar(2, 2, 4096, **knowledge)
    with pytest.raises(ValueError, match=rf"^{field}: "):
        doubling_dbar(infinite_env(32), **knowledge)


def test_doubling_dbar_runs_to_horizon():
    env = infinite_env(256)
    log = doubling_dbar(env, known_l=2, kappa=1.0, seed=8)
    assert len(log) == 256
    assert list(log.column("t")) == list(range(1, 257))


def test_doubling_dbar_doubles_on_epoch_overflow():
    env = infinite_env(256)
    # kappa=0 forces a restart every round; the cap is hit immediately and
    # the guess keeps doubling
    log = doubling_dbar(env, known_l=1, kappa=0.0, seed=9)
    dbars = sorted(set(log.column("dbar")))
    assert dbars[0] == 1.0
    assert len(dbars) > 1
    assert all(b == 2 * a for a, b in zip(dbars, dbars[1:]))


# ---------------------------------------------------------------------------
# BoRL / adversarial picker


def test_borl_arithmetic():
    assert borl_interval_length(2, 2, 16384) == 363
    assert borl_arm_count(16384) == 7


def test_borl_m1_degenerates_to_single_master():
    env = infinite_env(4)  # B = ceil(2*sqrt(2*4)) = 6 >= T, M = 1
    assert borl_arm_count(4) == 1
    a = borl(env, kappa=math.inf, seed=10)
    b = run_master_ucrl(env, dbar=1.0, kappa=math.inf, seed=10)
    assert a.column("policy") == b.column("policy")
    assert a.column("reward") == b.column("reward")
    assert a.column("g_tilde") == b.column("g_tilde")


def test_borl_feeds_each_interval_total_to_the_picker(monkeypatch):
    # the picker is updated with the played arm and the interval's reward
    # sum, left to right, over the interval length
    env = infinite_env(256)
    seen = []
    update = Exp3P.update

    def spy(self, arm, reward):
        seen.append((arm, reward))
        update(self, arm, reward)

    monkeypatch.setattr(Exp3P, "update", spy)
    log = borl(env, kappa=1e-4, seed=11)
    block = borl_interval_length(2, 2, 256)
    rewards, arms = log.column("reward"), log.column("borl_arm")
    expected = []
    for start in range(0, 256, block):
        total = 0.0
        for reward in rewards[start : start + block]:
            total += reward
        assert set(arms[start : start + block]) == {arms[start]}
        expected.append((arms[start], total / block))
    assert seen == expected
    assert log.restarts


def test_borl_runs_multiple_intervals():
    env = infinite_env(256)
    log = borl(env, kappa=1.0, seed=11)
    arms = set(log.column("borl_arm"))
    assert len(log) == 256
    assert all(a >= 0 for a in arms)
    block = borl_interval_length(2, 2, 256)
    assert len(set(log.column("borl_arm")[:block])) == 1


def test_exp3p_uniform_start_and_floor():
    picker = Exp3P(4, 100)
    p = picker.probabilities()
    assert np.allclose(p, 0.25)
    rng = seed_derive(12, 5, "exp3")
    for _ in range(50):
        arm = picker.sample(rng)
        picker.update(arm, float(rng.random()))
        probs = picker.probabilities()
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= picker.gamma / 4 - 1e-12)


def test_exp3p_single_arm():
    picker = Exp3P(1, 10)
    assert picker.probabilities().tolist() == [1.0]
    rng = seed_derive(13, 5, "exp3")
    assert picker.sample(rng) == 0


def test_exp3p_regret_envelope():
    # adversarial two-arm sequence: arm 1 is best in every round
    n = 400
    seeds = 100
    regrets = []
    for seed in range(seeds):
        picker = Exp3P(2, n)
        rng = seed_derive(seed, 6, "exp3")
        total, best = 0.0, 0.0
        for t in range(n):
            arm = picker.sample(rng)
            rewards = (0.25, 0.75)
            picker.update(arm, rewards[arm])
            total += rewards[arm]
            best += rewards[1]
        regrets.append(best - total)
    envelope = 6.0 * math.sqrt(2 * n * math.log(2 * n))
    assert np.mean(regrets) <= envelope
    assert np.quantile(regrets, 0.95) <= 1.5 * envelope

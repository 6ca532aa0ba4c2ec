import json
import math

import numpy as np
import pytest

from nonstat.base import Oful, QUcb, Ucb1, fork_fresh, restore, snapshot_to_json
from nonstat.envs import decode_layer_policy, make_env
from nonstat.harness import seed_derive


def make_ucb1(**kw):
    params = dict(n_arms=2, horizon=1024, delta=1 / 1024)
    params.update(kw)
    return Ucb1(**params)


# ---------------------------------------------------------------------------
# UCB1


def test_ucb1_fresh_predict_clamps_to_one():
    assert make_ucb1(n_arms=3).predict() == 1.0


def test_ucb1_fresh_act_tie_breaks_lowest():
    assert make_ucb1(n_arms=4).act() == 0


def test_ucb1_predict_formula():
    # N=(100,100), means (0.3,0.5), bonus 0.1 each -> 0.6
    inst = make_ucb1()
    lg = math.log(inst.horizon / inst.delta)
    inst.bonus_scale = 0.1 / math.sqrt(lg / 100)
    inst.counts = np.array([100.0, 100.0])
    inst.sums = np.array([30.0, 50.0])
    assert inst.predict() == pytest.approx(0.6)


def test_ucb1_act_prefers_bigger_index():
    inst = make_ucb1()
    inst.counts = np.array([100.0, 1.0])
    inst.sums = np.array([60.0, 0.5])
    lg = math.log(inst.horizon / inst.delta)
    inst.bonus_scale = 0.1 / math.sqrt(lg / 100)  # bonuses (0.1, 1.0)
    # indexes 0.7 vs 1.5
    assert inst.act() == 1


def test_ucb1_equal_bonus_reduces_to_means():
    inst = make_ucb1()
    inst.counts = np.array([1.0, 1.0])
    inst.sums = np.array([0.5, 0.9])
    assert inst.act() == 1


def test_ucb1_update():
    inst = make_ucb1()
    inst.update((0, 0.7))
    assert inst.counts.tolist() == [1.0, 0.0]
    assert inst.sums[0] == 0.7
    assert inst.t_int == 1


@pytest.mark.parametrize(
    "params, field",
    [
        (dict(horizon=16, delta=32.0), "delta"),  # log(horizon / delta) < 0
        (dict(horizon=16, delta=16.000001), "delta"),
        (dict(horizon=16, delta=math.nan), "delta"),
        (dict(horizon=16, delta=-0.5), "delta"),
        (dict(horizon=16, delta=0.01, bonus_scale=math.nan), "bonus_scale"),
        (dict(horizon=16, delta=0.01, bonus_scale=np.float64("nan")), "bonus_scale"),
    ],
)
def test_ucb1_rejects_bad_parameters(params, field):
    # with nan scores such a learner would predict 0.0 and play arm 0 for ever
    with pytest.raises(ValueError, match=field):
        Ucb1(2, **params)


def test_ucb1_accepts_boundary_parameters():
    assert Ucb1(2, 16, 16.0).predict() == 0.0  # log(horizon / delta) = 0: no bonus
    assert Ucb1(2, 16, 0.01, bonus_scale=0.0).predict() == 0.0


ACTIONS_2D = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "algo, params, field",
    [
        ("ucrl", dict(n_states=2, n_actions=2, horizon=16, delta=0.0), "delta"),  # was ZeroDivisionError
        ("ucrl", dict(n_states=2, n_actions=2, horizon=16, delta=-0.1), "delta"),  # was a math domain error
        ("ucrl", dict(n_states=2, n_actions=2, horizon=16, delta=math.nan), "delta"),  # was "c1=nan" in rate()
        ("ucrl", dict(n_states=2, n_actions=2, horizon=16, delta=32.0), "delta"),
        ("ucrl", dict(n_states=0, n_actions=2, horizon=16, delta=0.1), "n_states"),
        ("ucrl", dict(n_states=2, n_actions=0, horizon=16, delta=0.1), "n_actions"),
        ("ucrl", dict(n_states=2, n_actions=math.nan, horizon=16, delta=0.1), "n_actions"),
        ("ucrl", dict(n_states=2, n_actions=2, horizon=0, delta=0.1), "horizon"),
        ("oful", dict(actions=ACTIONS_2D, horizon=16, delta=0.0), "delta"),
        ("oful", dict(actions=ACTIONS_2D, horizon=16, delta=math.nan), "delta"),
        ("oful", dict(actions=ACTIONS_2D, horizon=16, delta=16.5), "delta"),
        ("oful", dict(actions=ACTIONS_2D, horizon=0, delta=0.1), "horizon"),
        ("glm", dict(actions=ACTIONS_2D, horizon=16, delta=0.0), "delta"),
        ("glm", dict(actions=ACTIONS_2D, horizon=16, delta=-1.0), "delta"),
        ("glm", dict(actions=ACTIONS_2D, horizon=-3, delta=0.1), "horizon"),
        ("glm", dict(actions=ACTIONS_2D, horizon=16, delta=math.nan), "delta"),
        ("ucb1", dict(n_arms=2, horizon=16, delta=0.0), "delta"),
        ("qucb", dict(n_states=2, n_actions=2, n_layers=2, horizon=16, delta=0.0), "delta"),
        ("qucb", dict(n_states=2, n_actions=2, n_layers=2, horizon=16, delta=math.nan), "delta"),
        ("qucb", dict(n_states=2, n_actions=2, n_layers=0, horizon=16, delta=0.1), "n_layers"),  # was ZeroDivisionError
        ("qucb", dict(n_states=0, n_actions=2, n_layers=2, horizon=16, delta=0.1), "n_states"),  # was a math domain error
        ("qucb", dict(n_states=2, n_actions=0, n_layers=2, horizon=16, delta=0.1), "n_actions"),
        ("qucb", dict(n_states=2, n_actions=2, n_layers=math.nan, horizon=16, delta=0.1), "n_layers"),
        ("glm", dict(actions=ACTIONS_2D, horizon=16, delta=16.0), "lam"),  # c_mu < 1: was a math domain error
        ("glm", dict(actions=ACTIONS_2D, horizon=16, delta=0.1, lam=0.0), "lam"),  # was ZeroDivisionError
        ("glm", dict(actions=ACTIONS_2D, horizon=16, delta=0.1, lam=math.nan), "lam"),
    ],
)
def test_learners_reject_bad_parameters_by_name(algo, params, field):
    with pytest.raises(ValueError, match=rf"\b{field}="):
        fork_fresh(algo, **params)


def test_learners_accept_boundary_parameters():
    # horizon / delta = 1: log(horizon / delta) = 0
    assert fork_fresh("ucrl", n_states=1, n_actions=1, horizon=1, delta=1.0).act() == 0
    assert fork_fresh("oful", actions=ACTIONS_2D, horizon=16, delta=16.0).act() == 0
    assert fork_fresh("glm", actions=ACTIONS_2D, horizon=16, delta=16.0, link="identity").act() == 0


def test_predict_act_are_const():
    inst = make_ucb1()
    inst.update((0, 1.0))
    before = (inst.predict(), inst.act())
    for _ in range(10):
        assert (inst.predict(), inst.act()) == before


# ---------------------------------------------------------------------------
# OFUL


def coordinate_actions(d=2):
    return np.eye(d)


def test_oful_fresh_clamp_example():
    # d=2, T=16, delta=1/16: 2*beta*||a|| = 8*sqrt(2*log 256) >> 1 -> clamp
    inst = Oful(coordinate_actions(), horizon=16, delta=1 / 16)
    raw = 8.0 * math.sqrt(2.0 * math.log(256.0))
    assert inst._scores().max() == pytest.approx(raw)
    assert inst.predict() == 1.0


def test_oful_first_update_hand_inverse():
    inst = Oful(coordinate_actions(), horizon=16, delta=1 / 16)
    inst.update((0, 1.0))
    assert np.allclose(inst.lam_mat, np.diag([2.0, 1.0]))
    assert np.allclose(inst.theta_hat(), [0.5, 0.0], atol=1e-12)


def test_oful_sherman_morrison_tracks_direct_inverse():
    rng = seed_derive(0, 0, "oful")
    actions = rng.random((6, 3)) * 0.5
    inst = Oful(actions, horizon=4096, delta=1 / 4096, refactor_every=10_000)
    for _ in range(300):
        arm = int(rng.integers(0, 6))
        inst.update((arm, float(rng.random())))
    direct = np.linalg.inv(inst.lam_mat)
    assert np.max(np.abs(direct - inst.lam_inv)) < 1e-8


def test_oful_lambda_is_psd_and_loewner_monotone():
    rng = seed_derive(1, 0, "oful")
    actions = rng.random((4, 2)) * 0.7
    inst = Oful(actions, horizon=1024, delta=1 / 1024)
    prev = inst.lam_mat.copy()
    for _ in range(50):
        inst.update((int(rng.integers(0, 4)), float(rng.random())))
        diff_eigs = np.linalg.eigvalsh(inst.lam_mat - prev)
        assert diff_eigs.min() >= -1e-10
        assert np.linalg.eigvalsh(inst.lam_mat).min() > 0
        prev = inst.lam_mat.copy()


def test_oful_width_shrinks_in_span():
    actions = np.array([[1.0, 0.0]])
    inst = Oful(actions, horizon=1024, delta=1 / 1024)
    for _ in range(400):
        inst.update((0, 1.0))
    width_sq = float(actions[0] @ inst.lam_inv @ actions[0])
    assert width_sq <= 1.0 / 400


# ---------------------------------------------------------------------------
# Q-UCB


def make_qucb(**kw):
    params = dict(n_states=2, n_actions=2, n_layers=3, horizon=512, delta=1 / 512)
    params.update(kw)
    return QUcb(**params)


def test_qucb_fresh_optimistic_init():
    inst = make_qucb()
    assert np.all(inst.q == 3.0)
    assert inst.predict() == 1.0


@pytest.mark.parametrize("bonus_scale", [math.nan, np.float64("nan")])
def test_qucb_rejects_a_nan_bonus_scale(bonus_scale):
    # with it the first update would write nan into q
    with pytest.raises(ValueError, match="bonus_scale"):
        make_qucb(bonus_scale=bonus_scale)


def test_qucb_first_visit_fully_replaces():
    inst = make_qucb()
    lg = inst._log_term
    b1 = 2.0 * math.sqrt(27.0 * lg / 1.0)
    inst.update([(0, 0, 1, 0.5, 1)])
    # alpha_1 = (H+1)/(H+1) = 1 -> Q = r + V_2(s') + b1
    assert inst.q[0, 0, 1] == pytest.approx(0.5 + 3.0 + b1)
    assert inst.v[0, 0] == 3.0  # still capped at H


def test_qucb_v_capped_at_h():
    inst = make_qucb()
    rng = seed_derive(3, 0, "qucb")
    for _ in range(200):
        traj = [
            (h, int(rng.integers(0, 2)), int(rng.integers(0, 2)), float(rng.random()), int(rng.integers(0, 2)))
            for h in range(3)
        ]
        inst.update(traj)
    assert np.all(inst.v <= 3.0 + 1e-12)


def test_qucb_act_encodes_greedy_policy():
    inst = make_qucb()
    inst.q[0, 0, 0] = 5.0
    inst.q[1, 1, 1] = 9.0
    table = decode_layer_policy(inst.act(), 3, 2, 2)
    assert table[0, 0] == 0
    assert table[1, 1] == 1


def test_qucb_optimism_against_backward_induction():
    # stationary episodic env: V_1(s1) should dominate V*_1(s1) in nearly
    # every episode
    rng = np.random.default_rng(5)
    S, A, H, T = 2, 2, 2, 800
    rewards = rng.random((H, S, A))
    trans = rng.random((H, S, A, S)) + 0.2
    trans /= trans.sum(axis=3, keepdims=True)
    env = make_env(
        {
            "kind": "episodic",
            "T": T,
            "S": S,
            "A": A,
            "H": H,
            "segments": [{"length": T, "rewards": rewards.tolist(), "transitions": trans.tolist()}],
        }
    )
    f_star = env.optimal_value(1)
    inst = QUcb(S, A, H, T, 1 / T)
    rng_env = seed_derive(4, 0, "qucb-env")
    optimistic = 0
    for t in range(1, T + 1):
        if inst.predict() >= f_star - 1e-12:
            optimistic += 1
        _, traj = env.play(t, inst.act(), rng_env)
        inst.update(traj)
    assert optimistic / T >= 1.0 - 2.0 / T


# ---------------------------------------------------------------------------
# serialization / pause-resume


@pytest.mark.parametrize("algo,params", [
    ("ucb1", dict(n_arms=3, horizon=256, delta=1 / 256)),
    ("oful", dict(actions=[[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]], horizon=256, delta=1 / 256)),
    ("qucb", dict(n_states=2, n_actions=2, n_layers=2, horizon=256, delta=1 / 256)),
])
def test_snapshot_roundtrip_bitwise(algo, params):
    inst = fork_fresh(algo, **params)
    rng = seed_derive(5, 0, algo)

    def feed(learner, k):
        for _ in range(k):
            if algo == "qucb":
                fb = [
                    (h, int(rng.integers(0, 2)), int(rng.integers(0, 2)), float(rng.random()), int(rng.integers(0, 2)))
                    for h in range(2)
                ]
            else:
                fb = (learner.act(), float(rng.random()))
            learner.update(fb)

    feed(inst, 7)
    blob = snapshot_to_json(inst)
    clone = restore(blob)
    assert clone.predict() == inst.predict()
    assert clone.act() == inst.act()
    # resumed trajectories stay identical
    rng_a = seed_derive(6, 0, "resume")
    rng_b = seed_derive(6, 0, "resume")
    for _ in range(5):
        ra, rb = float(rng_a.random()), float(rng_b.random())
        assert ra == rb
        if algo == "qucb":
            fb_a = [(h, 0, 0, ra, 1) for h in range(2)]
            fb_b = [(h, 0, 0, rb, 1) for h in range(2)]
        else:
            fb_a, fb_b = (0, ra), (0, rb)
        inst.update(fb_a)
        clone.update(fb_b)
        assert clone.predict() == inst.predict()
        assert clone.act() == inst.act()
    assert snapshot_to_json(inst) == snapshot_to_json(clone)


def test_fork_fresh_examples():
    assert fork_fresh("ucb1", n_arms=3, horizon=64, delta=0.1).counts.tolist() == [0, 0, 0]
    oful = fork_fresh("oful", actions=[[1.0, 0.0], [0.0, 1.0]], horizon=64, delta=0.1)
    assert np.array_equal(oful.lam_mat, np.eye(2))
    qucb = fork_fresh("qucb", n_states=2, n_actions=2, n_layers=4, horizon=64, delta=0.1)
    assert np.all(qucb.q == 4.0)
    with pytest.raises(ValueError):
        fork_fresh("nope")


def test_named_errors_are_importable_from_the_package():
    import nonstat
    import nonstat.base
    import nonstat.mdp
    from nonstat import EviError, GlmSolveError

    assert EviError is nonstat.mdp.EviError and GlmSolveError is nonstat.base.GlmSolveError
    assert {"EviError", "GlmSolveError"} <= set(nonstat.__all__)
    assert "EviError" in nonstat.mdp.__all__ and "GlmSolveError" in nonstat.base.__all__


# ---------------------------------------------------------------------------
# optimism / average-regret properties on a stationary environment


def test_ucb1_optimism_and_average_regret_stationary():
    T = 10_000
    env = make_env({"kind": "mab", "T": T, "segments": [{"length": T, "means": [0.7, 0.4, 0.5]}]})
    delta = 1 / T
    inst = Ucb1(3, T, delta)
    rng = seed_derive(7, 0, "ucb1-station")
    optimistic = 0
    gap_sum = 0.0
    checkpoints = {}
    rate = inst.rate()
    for t in range(1, T + 1):
        f_tilde = inst.predict()
        if f_tilde >= 0.7 - 1e-12:
            optimistic += 1
        arm = inst.act()
        r, fb = env.play(t, arm, rng)
        inst.update(fb)
        gap_sum += f_tilde - r
        if t in (100, 1000, 10_000):
            checkpoints[t] = gap_sum / t
    assert optimistic / T >= 1.0 - 2.0 * delta
    # average regret stays a bounded multiple of rho(t) and decays with t
    kappa_emp = max(checkpoints[t] / rate.rho(t) for t in checkpoints)
    assert kappa_emp < 50.0
    assert checkpoints[10_000] < checkpoints[1000] < checkpoints[100]

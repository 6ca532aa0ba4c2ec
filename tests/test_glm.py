import math

import numpy as np
import pytest

from nonstat import base
from nonstat.base import GlmSolveError, GlmUcb, glm_solve, restore, snapshot_to_json
from nonstat.envs import LINKS, make_env
from nonstat.harness import seed_derive


def test_no_data_gives_zero():
    actions = np.array([[1.0, 0.0], [0.0, 1.0]])
    theta_prime, theta_hat = glm_solve(
        actions, np.zeros(2), np.zeros(2), lam=1.0, link=LINKS["logistic"]
    )
    assert np.allclose(theta_prime, 0.0)
    assert np.allclose(theta_hat, 0.0)


def test_identity_link_small_lam_reduces_to_least_squares():
    rng = seed_derive(0, 0, "glm")
    actions = rng.random((5, 2)) * 0.6
    counts = np.array([3.0, 1.0, 0.0, 2.0, 4.0])
    rewards_per_action = rng.random(5) * counts
    rhs = rewards_per_action @ actions
    lam = 1e-10
    theta_prime, _ = glm_solve(actions, counts, rhs, lam=lam, link=LINKS["identity"])
    gram = (actions.T * counts) @ actions
    expected = np.linalg.pinv(gram) @ rhs
    assert np.allclose(theta_prime, expected, atol=1e-5)


def bisection_oracle(f, lo, hi, tol=1e-12):
    flo = f(lo)
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
        if hi - lo < tol:
            break
    return (lo + hi) / 2


def test_logistic_1d_against_bisection():
    # single observation a=1, R=1, lam=1: solve lam*c_mu*x + sigmoid(x) = 1
    link = LINKS["logistic"]
    actions = np.array([[1.0]])
    counts = np.array([1.0])
    rhs = np.array([1.0])
    theta_prime, theta_hat = glm_solve(actions, counts, rhs, lam=1.0, link=link)

    def f(x):
        return 1.0 * link.c_mu * x + 1.0 / (1.0 + math.exp(-x)) - 1.0

    root = bisection_oracle(f, -5.0, 5.0)
    assert theta_prime[0] == pytest.approx(root, abs=1e-6)
    # |root| > 1, so the projection lands on the unit-ball boundary
    assert abs(root) > 1.0
    assert theta_hat[0] == pytest.approx(1.0, abs=1e-5)


def test_projection_noop_inside_ball():
    link = LINKS["logistic"]
    actions = np.array([[0.5, 0.0], [0.0, 0.5]])
    counts = np.array([2.0, 2.0])
    rhs = np.array([0.4, 0.2])
    theta_prime, theta_hat = glm_solve(actions, counts, rhs, lam=1.0, link=link)
    assert np.linalg.norm(theta_prime) <= 1.0
    assert np.array_equal(theta_prime, theta_hat)


def test_nonconvergence_raises(monkeypatch):
    actions = np.array([[1.0]])
    monkeypatch.setattr(base, "GLM_NEWTON_MAX_ITER", 1)
    with pytest.raises(GlmSolveError, match="Newton did not reach residual 1e-08 in 1 iterations"):
        glm_solve(actions, np.array([1.0]), np.array([1.0]), lam=1.0, link=LINKS["logistic"])


def glm_env(T=512):
    return make_env(
        {
            "kind": "glm",
            "T": T,
            "link": "logistic",
            "lam": 1.0,
            "actions": [[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]],
            "segments": [{"length": T, "theta": [0.6, 0.1]}],
        }
    )


def test_glm_ucb_learns_and_stays_optimistic():
    T = 2000
    env = glm_env(T)
    inst = GlmUcb(env.actions, T, 1 / T, link="logistic", lam=1.0)
    rng = seed_derive(1, 0, "glm-run")
    f_star = env.optimal_value(1)
    optimistic = 0
    for t in range(1, T + 1):
        if inst.predict() >= f_star - 1e-12:
            optimistic += 1
        arm = inst.act()
        r, fb = env.play(t, arm, rng)
        inst.update(fb)
    assert optimistic / T >= 1.0 - 2.0 / T
    assert np.linalg.norm(inst.theta) <= 1.0 + 1e-9


def test_glm_snapshot_roundtrip():
    env = glm_env(64)
    inst = GlmUcb(env.actions, 64, 1 / 64, link="logistic", lam=1.0)
    rng = seed_derive(2, 0, "glm-snap")
    for t in range(1, 9):
        r, fb = env.play(t, inst.act(), rng)
        inst.update(fb)
    clone = restore(snapshot_to_json(inst))
    assert clone.predict() == inst.predict()
    assert clone.act() == inst.act()
    inst.update((1, 1.0))
    clone.update((1, 1.0))
    assert snapshot_to_json(inst) == snapshot_to_json(clone)

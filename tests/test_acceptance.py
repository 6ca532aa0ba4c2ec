"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance is pinned here exactly as specified; nothing is calibrated
at run time.  Criteria that measure Monte-Carlo quantities use fixed seeds
derived from the shared stream scheme, so reruns are bit-identical.
"""

import itertools
import math
import time

import numpy as np
import pytest

from nonstat.base import GlmUcb, Oful, QUcb, Ucb1, restore, snapshot_to_json
from nonstat.envs import decode_policy, make_env, policy_gain
from nonstat.harness import run_experiment, seed_derive
from nonstat.malg import schedule_upfront, spawn_probability
from nonstat.master import RunLog, dynamic_regret, run_bare, run_master
from nonstat.mdp import (
    UcrlAcw,
    compute_diameter,
    doubling_dbar,
    evi,
    nbar,
    optimal_gain,
    widen_to_span,
)
from nonstat.rates import RateFunction

# the whole module takes about ten minutes; `-m "not acceptance"` leaves it out
pytestmark = pytest.mark.acceptance


def verdict(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. scheduler law


def test_acceptance_01_scheduler_law():
    t_start = time.time()
    n = 6
    blocks = 10_000
    rate = RateFunction(c1=1.0, c2=0.0, p=0.5, c3=1.0, horizon=1 << 20)
    rng = seed_derive(101, 0, "acc-sched")
    counts = np.zeros(n + 1)
    for _ in range(blocks):
        for m, _, _ in schedule_upfront(n, rate, rng):
            counts[m] += 1
    ok = True
    details = []
    for m in range(n + 1):
        q = spawn_probability(n, m, rate)
        slots = 1 << (n - m)
        mean = slots * q  # 2^(n-m) * rho(2^n)/rho(2^m)
        band = 4.0 * math.sqrt(slots * q * (1.0 - q) / blocks)
        got = counts[m] / blocks
        details.append(f"m={m}:{got:.3f}/{mean:.3f}")
        if abs(got - mean) > band + 1e-12:
            ok = False
    elapsed = time.time() - t_start
    ok = ok and elapsed < 10.0
    assert verdict(1, ok, f"{'; '.join(details)}; {elapsed:.1f}s (<10s)")


# ---------------------------------------------------------------------------
# 2. pause/resume purity


def _random_feedback(algo, rng):
    if algo == "qucb":
        return [
            (h, int(rng.integers(0, 2)), int(rng.integers(0, 2)), float(rng.random()), int(rng.integers(0, 2)))
            for h in range(2)
        ]
    return None  # reward filled by caller


def _fresh(algo):
    horizon, delta = 4096, 1.0 / 4096
    if algo == "ucb1":
        return Ucb1(3, horizon, delta)
    if algo == "oful":
        return Oful(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]]), horizon, delta)
    if algo == "glm":
        return GlmUcb(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]]), horizon, delta, link="logistic")
    return QUcb(2, 2, 2, horizon, delta)


def test_acceptance_02_pause_resume_purity():
    t_start = time.time()
    algos = ("ucb1", "oful", "glm", "qucb")
    schedules_per_algo = 1000
    steps = 12
    failures = 0
    for algo in algos:
        rng = seed_derive(102, 0, f"acc-pr-{algo}")
        for _ in range(schedules_per_algo):
            cuts = set(rng.integers(1, steps, size=3).tolist())
            a = _fresh(algo)
            b = _fresh(algo)
            for step in range(steps):
                if a.predict() != b.predict() or a.act() != b.act():
                    failures += 1
                    break
                fb = _random_feedback(algo, rng)
                if fb is None:
                    fb = (a.act(), float(rng.random()))
                a.update(fb)
                b.update(fb)
                if step in cuts:  # pause b: serialize, drop, restore
                    b = restore(snapshot_to_json(b))
            else:
                if snapshot_to_json(a) != snapshot_to_json(b):
                    failures += 1
    elapsed = time.time() - t_start
    ok = failures == 0 and elapsed < 30.0
    assert verdict(
        2, ok, f"{failures} divergent trajectories in {4 * schedules_per_algo}; {elapsed:.1f}s (<30s)"
    )


# ---------------------------------------------------------------------------
# 3. no false restarts


def test_acceptance_03_no_false_restarts():
    t_start = time.time()
    T = 1 << 14
    delta = 1.0 / T
    env = make_env(
        {"kind": "mab", "T": T, "segments": [{"length": T, "means": [0.5, 0.45, 0.3, 0.6, 0.2]}]}
    )
    clean = 0
    for seed in range(50):
        log = run_master(env, lambda: Ucb1(5, T, delta), T, delta, kappa=1.0, seed=seed)
        clean += not log.restarts
    elapsed = time.time() - t_start
    ok = clean >= 48 and elapsed < 120.0
    assert verdict(3, ok, f"{clean}/50 seeds restart-free (need >=48); {elapsed:.0f}s (<120s)")


# ---------------------------------------------------------------------------
# 4. detection & benefit


def test_acceptance_04_detection_and_benefit():
    t_start = time.time()
    T = 1 << 14
    delta = 1.0 / T
    env = make_env(
        {
            "kind": "mab",
            "T": T,
            "segments": [
                {"length": T // 2, "means": [0.9, 0.1]},
                {"length": T // 2, "means": [0.1, 0.9]},
            ],
        }
    )
    detected = 0
    master_regrets = []
    bare_regrets = []
    for seed in range(50):
        log = run_master(env, lambda: Ucb1(2, T, delta), T, delta, kappa=0.05, seed=seed)
        master_regrets.append(dynamic_regret(log))
        if any(T // 2 < ev.round <= T // 2 + 2048 for ev in log.restarts):
            detected += 1
        bare = run_bare(env, Ucb1(2, T, delta), T, seed=seed)
        bare_regrets.append(dynamic_regret(bare))
    ratio = float(np.mean(master_regrets) / np.mean(bare_regrets))
    elapsed = time.time() - t_start
    ok = detected >= 45 and ratio <= 0.7 and elapsed < 180.0
    assert verdict(
        4,
        ok,
        f"detected {detected}/50 (need >=45); regret ratio {ratio:.2f} (need <=0.7); "
        f"{elapsed:.0f}s (<180s)",
    )


# ---------------------------------------------------------------------------
# 5. sqrt(LT) scaling


def _rotating_mab(T, L):
    base = [0.9, 0.2, 0.35, 0.5, 0.15]
    seg_len = T // L
    segments = []
    for i in range(L):
        means = base[-i % 5 :] + base[: -i % 5]
        length = seg_len if i < L - 1 else T - seg_len * (L - 1)
        segments.append({"length": length, "means": means})
    return make_env({"kind": "mab", "T": T, "segments": segments})


def test_acceptance_05_sqrt_lt_scaling():
    t_start = time.time()
    seeds = 30
    table = {}
    for L in (2, 4, 8):
        for T in (1 << 12, 1 << 14, 1 << 16):
            env = _rotating_mab(T, L)
            delta = 1.0 / T
            regrets = []
            for seed in range(seeds):
                log = run_master(
                    env, lambda: Ucb1(5, T, delta), T, delta, kappa=0.05, seed=seed
                )
                regrets.append(dynamic_regret(log))
            table[(L, T)] = float(np.mean(regrets)) / math.sqrt(L * T)
    spread = max(table.values()) / min(table.values())
    elapsed = time.time() - t_start
    ok = spread <= 3.0 and elapsed < 900.0
    cells = "; ".join(
        f"L={L},T=2^{int(math.log2(T))}:{v:.2f}" for (L, T), v in sorted(table.items())
    )
    assert verdict(5, ok, f"spread x{spread:.2f} (need <=3); {cells}; {elapsed:.0f}s (<900s)")


# ---------------------------------------------------------------------------
# 6. optimism rates


def _optimism_fraction(env, learner, T, rng):
    hits = 0
    for t in range(1, T + 1):
        if learner.predict() >= env.optimal_value(t) - 1e-12:
            hits += 1
        reward, fb = env.play(t, learner.act(), rng)
        learner.update(fb)
    return hits / T


def test_acceptance_06_optimism_rates():
    t_start = time.time()
    T = 10_000
    delta = 1.0 / T
    results = {}

    env = make_env({"kind": "mab", "T": T, "segments": [{"length": T, "means": [0.7, 0.4, 0.5]}]})
    results["ucb1"] = _optimism_fraction(env, Ucb1(3, T, delta), T, seed_derive(106, 0, "a"))

    env = make_env(
        {
            "kind": "linear",
            "T": T,
            "actions": [[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]],
            "segments": [{"length": T, "theta": [0.6, 0.1]}],
        }
    )
    results["oful"] = _optimism_fraction(
        env, Oful(env.actions, T, delta), T, seed_derive(106, 1, "b")
    )

    env = make_env(
        {
            "kind": "glm",
            "T": T,
            "link": "logistic",
            "lam": 1.0,
            "actions": [[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]],
            "segments": [{"length": T, "theta": [0.6, 0.1]}],
        }
    )
    results["glm"] = _optimism_fraction(
        env, GlmUcb(env.actions, T, delta, link="logistic"), T, seed_derive(106, 2, "c")
    )

    rng_mk = np.random.default_rng(61)
    S, A, H = 2, 2, 2
    rewards = rng_mk.random((H, S, A)).round(3)
    trans = rng_mk.random((H, S, A, S)) + 0.2
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
    results["qucb"] = _optimism_fraction(
        env, QUcb(S, A, H, T, delta), T, seed_derive(106, 3, "d")
    )

    # average-reward learner: J~ >= J* per episode, with the guess >= diameter
    swap = {
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
    env = make_env(swap)
    dbar = env.diameter(1)
    j_star = env.optimal_value(1)
    log = run_bare(env, UcrlAcw(env.n_states, env.n_actions, T, 1.0 / T, dbar=max(1.0, dbar)), T, seed=62)
    episodes = np.asarray(log.column("episode"))
    gains = np.asarray(log.column("g_tilde"))
    per_episode = {}
    for k, g in zip(episodes, gains):
        per_episode.setdefault(int(k), g)
    opt = sum(g >= j_star - 1e-12 for g in per_episode.values())
    results["ucrl"] = opt / len(per_episode)

    floor = 1.0 - 2.0 * delta
    ok = all(v >= floor for v in results.values())
    elapsed = time.time() - t_start
    ok = ok and elapsed < 300.0
    detail = "; ".join(f"{k}:{v:.4f}" for k, v in results.items())
    assert verdict(6, ok, f"optimistic fractions {detail} (need >= {floor}); {elapsed:.0f}s (<300s)")


# ---------------------------------------------------------------------------
# 7. EVI correctness


def test_acceptance_07_evi_correctness():
    t_start = time.time()
    ok = True
    notes = []

    # widen_to_span exits with span <= 2*dbar on randomized confidence sets
    rng = seed_derive(107, 0, "evi")
    for _ in range(25):
        S, A = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        p_hat = rng.random((S, A, S)) + 0.05
        p_hat /= p_hat.sum(axis=2, keepdims=True)
        conf = rng.random((S, A)) * 0.5
        r_max = rng.random((S, A))
        dbar = 1.0 + float(rng.random() * 3)
        out, eta = widen_to_span(p_hat, conf, r_max, 1e-5, dbar, 4096)
        if out.span > 2 * dbar + 1e-12:
            ok = False
            notes.append("span violation")

    # Bellman residuals within epsilon (both inequalities)
    from tests.test_mdp import bellman_residuals

    for _ in range(25):
        S, A = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        p_hat = rng.random((S, A, S)) + 0.05
        p_hat /= p_hat.sum(axis=2, keepdims=True)
        budgets = rng.random((S, A)) * 0.5
        r_max = rng.random((S, A))
        eps = 1e-5
        out = evi(p_hat, budgets, r_max, eps)
        over, under = bellman_residuals(out, p_hat, budgets, r_max)
        if np.any(over < -eps) or np.any(under > eps):
            ok = False
            notes.append("bellman residual violation")

    # optimal gain vs deterministic-policy enumeration on all S<=3, A<=3
    worst = 0.0
    for S, A in itertools.product((1, 2, 3), (1, 2, 3)):
        for rep in range(4):
            rng2 = seed_derive(107, 100 * S + 10 * A + rep, "enum")
            trans = rng2.random((S, A, S)) + 0.05
            trans /= trans.sum(axis=2, keepdims=True)
            rewards = rng2.random((S, A))
            best = max(
                policy_gain(trans, rewards, decode_policy(pid, S, A), 0)
                for pid in range(A**S)
            )
            got = optimal_gain(trans, rewards)
            worst = max(worst, abs(got - best))
    if worst > 1e-6:
        ok = False
        notes.append(f"enumeration gap {worst:.2e}")

    elapsed = time.time() - t_start
    ok = ok and elapsed < 60.0
    assert verdict(
        7, ok, f"max |gain - enumeration| {worst:.2e} (<=1e-6); {notes or 'all spans/residuals ok'}; "
        f"{elapsed:.0f}s (<60s)"
    )


# ---------------------------------------------------------------------------
# 8. doubling diameter-guess stabilization


def _dmax4_env(T):
    # symmetric 2-state chain where every action crosses with probability
    # 1/4: expected crossing time 4 in both directions, so D_max = 4; the
    # reward location flips once, so L = 2
    cross = [
        [[0.75, 0.25], [0.75, 0.25]],
        [[0.25, 0.75], [0.25, 0.75]],
    ]
    return make_env(
        {
            "kind": "infinite",
            "T": T,
            "S": 2,
            "A": 2,
            "segments": [
                {"length": T // 2, "rewards": [[0.0, 0.0], [1.0, 1.0]], "transitions": cross},
                {"length": T - T // 2, "rewards": [[1.0, 1.0], [0.0, 0.0]], "transitions": cross},
            ],
        }
    )


def test_acceptance_08_doubling_dbar_stabilization():
    t_start = time.time()
    # exact epoch-cap arithmetic
    arithmetic_ok = nbar(2, 2, 4096, known_delta=1.0) == pytest.approx(25.0) and nbar(
        2, 2, 4096, known_l=3
    ) == 3.0

    T = 1 << 13
    env = _dmax4_env(T)
    dmax = env.max_diameter()
    stable = 0
    finals = []
    for seed in range(50):
        log = doubling_dbar(env, known_l=2, kappa=1.0, seed=seed)
        final = log.column("dbar")[-1]
        finals.append(final)
        if 4.0 <= final <= 8.0:
            stable += 1
    elapsed = time.time() - t_start
    ok = arithmetic_ok and stable >= 45 and elapsed < 300.0
    assert verdict(
        8,
        ok,
        f"D_max={dmax:.2f}; final guesses {sorted(set(finals))}; {stable}/50 in [4,8] "
        f"(need >=45); nbar arithmetic {'ok' if arithmetic_ok else 'Bad'}; {elapsed:.0f}s (<300s)",
    )


# ---------------------------------------------------------------------------
# 9. regret accounting exactness


def test_acceptance_09_regret_exactness():
    t_start = time.time()
    exact = True
    runs = []
    env = make_env(
        {
            "kind": "mab",
            "T": 2048,
            "segments": [
                {"length": 1024, "means": [0.9, 0.1]},
                {"length": 1024, "means": [0.1, 0.9]},
            ],
        }
    )
    for seed in range(5):
        runs.append(run_master(env, lambda: Ucb1(2, 2048, 1 / 2048), 2048, kappa=1.0, seed=seed))
    swap = {
        "kind": "infinite",
        "T": 512,
        "S": 2,
        "A": 2,
        "segments": [
            {
                "length": 512,
                "rewards": [[1.0, 1.0], [0.0, 0.0]],
                "transitions": [[[0, 1], [0, 1]], [[1, 0], [1, 0]]],
            }
        ],
    }
    from nonstat.mdp import run_master_ucrl

    runs.append(run_master_ucrl(make_env(swap), dbar=1.0, seed=9))
    for log in runs:
        reread = RunLog.from_csv(log.to_csv_text())
        second_pass = 0.0
        for f_star, reward in zip(reread.column("f_star"), reread.column("reward")):
            second_pass += f_star - reward
        if dynamic_regret(log) != second_pass:
            exact = False
    elapsed = time.time() - t_start
    assert verdict(9, exact, f"{len(runs)} runs recomputed with zero tolerance; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. determinism


def test_acceptance_10_determinism(tmp_path):
    t_start = time.time()
    spec = {
        "env": {
            "kind": "mab",
            "T": 1024,
            "segments": [
                {"length": 512, "means": [0.8, 0.3]},
                {"length": 512, "means": [0.2, 0.7]},
            ],
        },
        "algorithm": "master+ucb1",
        "T": 1024,
        "kappa": 1.0,
        "seeds": [0, 1, 2],
    }
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    run_experiment(dict(spec, out=out_a))
    run_experiment(dict(spec, out=out_b))
    identical = True
    import os

    for name in sorted(os.listdir(out_a)):
        with open(os.path.join(out_a, name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            blob_b = fh.read()
        if blob_a != blob_b:
            identical = False
    elapsed = time.time() - t_start
    assert verdict(10, identical, f"artifacts bitwise-identical across reruns; {elapsed:.0f}s")

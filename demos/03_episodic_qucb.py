"""Episodic tabular MDP under the reduction, with exact value oracles.

Each framework round is a full episode; values are divided by the layer
count so everything lives in [0, 1].  The environment's per-episode optimum
comes from backward induction, and a brute-force sweep over all A^(S*H)
deterministic layer policies confirms it, so the logged regret is exact.
The MDP's transition kernel flips mid-horizon.
"""

import numpy as np

from nonstat import QUcb, dynamic_regret, make_env, run_master

S, A, H = 2, 2, 3
T = 2048

rng = np.random.default_rng(12)


def random_layers():
    rewards = rng.random((H, S, A)).round(3)
    trans = rng.random((H, S, A, S)) + 0.1
    trans /= trans.sum(axis=3, keepdims=True)
    return rewards, trans


r1, p1 = random_layers()
r2, p2 = random_layers()
env = make_env(
    {
        "kind": "episodic",
        "T": T,
        "S": S,
        "A": A,
        "H": H,
        "segments": [
            {"length": T // 2, "rewards": r1.tolist(), "transitions": p1.tolist()},
            {"length": T - T // 2, "rewards": r2.tolist(), "transitions": p2.tolist()},
        ],
    }
)

for t in (1, T):
    brute = max(env.policy_value(t, pid) for pid in range(env.n_policies))
    print(f"episode {t}: optimum {env.optimal_value(t):.4f}  (enumeration over "
          f"{env.n_policies} policies: {brute:.4f})")

delta = 1.0 / T
log = run_master(env, lambda: QUcb(S, A, H, T, delta), kappa=1.0, seed=0)
regret = dynamic_regret(log)
curve = np.cumsum(np.asarray(log.column("f_star")) - np.asarray(log.column("reward")))
print(f"\nreduction over Q-learning bonuses: regret {regret:.1f} over {T} episodes")
print(f"  first-half regret {curve[T // 2 - 1]:.1f}, second-half {curve[-1] - curve[T // 2 - 1]:.1f}")
print(f"  restarts: {[ev.round for ev in log.restarts] or 'none'}")

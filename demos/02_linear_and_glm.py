"""Linear and generalized-linear bandits under parameter drift.

The hidden parameter rotates smoothly between two directions, so every
round moves the reward function a little.  Both learners keep optimistic
value estimates that dominate the moving optimum almost always, and the
drift summary gives the exact non-stationarity totals, in the measure of
the learner the environment kind takes, that the regret normalizers use.
"""

import numpy as np

from nonstat import (
    GlmUcb,
    Oful,
    dynamic_regret,
    make_env,
    nonstat_summary,
    run_bare,
)

T = 4096
ACTIONS = [[1.0, 0.0], [0.0, 1.0], [0.7, 0.7], [0.6, 0.3]]

linear = make_env(
    {
        "kind": "linear",
        "T": T,
        "actions": ACTIONS,
        "drift": {"theta_start": [0.8, 0.1], "theta_end": [0.1, 0.8]},
    }
)
glm = make_env(
    {
        "kind": "glm",
        "T": T,
        "link": "logistic",
        "lam": 1.0,
        "actions": ACTIONS,
        "drift": {"theta_start": [0.8, 0.1], "theta_end": [0.1, 0.8]},
    }
)

delta = 1.0 / T
for name, env, learner in (
    ("linear / optimistic least squares", linear, Oful(linear.actions, T, delta)),
    ("generalized linear / logistic link", glm, GlmUcb(glm.actions, T, delta, link="logistic")),
):
    summary = nonstat_summary(env, delta)
    log = run_bare(env, learner, seed=0)
    f_star = np.asarray(log.column("f_star"))
    g = np.asarray(log.column("g_tilde"))
    print(f"{name}:")
    print(f"  drift total Delta={summary.delta_total:.2f} over L={summary.switch_count} moving rounds")
    print(f"  dynamic regret {dynamic_regret(log):.1f}")
    print(f"  optimistic rounds {(g >= f_star - 1e-12).mean():.4f}")
    print(f"  final prediction {g[-1]:.3f} vs final optimum {f_star[-1]:.3f}\n")

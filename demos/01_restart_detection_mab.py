"""Restart detection on a switching two-armed bandit.

The optimal arm flips at 60% of the horizon.  Running the reduction with
the analysis constants (kappa = 1) keeps both stationarity tests far above
the achievable statistics, so nothing ever restarts; shrinking kappa to a
desk-scale value makes the block-level test catch the flip within a couple
of thousand rounds.  The run log records every spawn, pause, resume, and
restart, so the whole schedule can be reconstructed afterwards.
"""

import numpy as np

from nonstat import Ucb1, dynamic_regret, make_env, run_bare, run_master

T = 1 << 14
SWITCH = int(0.6 * T)
KAPPA = 4e-4

env = make_env(
    {
        "kind": "mab",
        "T": T,
        "segments": [
            {"length": SWITCH, "means": [0.9, 0.1]},
            {"length": T - SWITCH, "means": [0.1, 0.9]},
        ],
    }
)
delta = 1.0 / T

print(f"switching 2-armed bandit, T={T}, optimal arm flips after round {SWITCH}")
print(f"test threshold scale kappa={KAPPA}\n")

for seed in range(5):
    log = run_master(env, lambda: Ucb1(2, T, delta), kappa=KAPPA, seed=seed)
    bare = run_bare(env, Ucb1(2, T, delta), seed=seed)
    restarts = [ev.round for ev in log.restarts]
    post = [r for r in restarts if r > SWITCH]
    lag = post[0] - SWITCH if post else None
    print(
        f"seed {seed}: restarts at {restarts} -> detection lag {lag} rounds; "
        f"regret reduction={dynamic_regret(log):.0f} bare={dynamic_regret(bare):.0f}"
    )

print("\nschedule anatomy of the first 12 rounds (seed 0):")
log = run_master(env, lambda: Ucb1(2, T, delta), kappa=KAPPA, seed=0)
for i in range(12):
    print(
        f"  t={log.column('t')[i]:>3} block={log.column('block')[i]} "
        f"order={log.column('active_order')[i]} g~={log.column('g_tilde')[i]:.3f} "
        f"events: {log.column('event')[i]}"
    )

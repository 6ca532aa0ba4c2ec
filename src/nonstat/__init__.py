"""Black-box restarting reduction for non-stationary bandits and RL."""

from .base import GlmSolveError, GlmUcb, Oful, QUcb, Ucb1, fork_fresh, glm_solve, restore
from .envs import (
    EnvSpecError,
    NonstatSummary,
    load_env,
    make_env,
    nonstat_summary,
)
from .harness import baseline_run, run_experiment, run_single
from .malg import MalgRunner, rho_hat, schedule_upfront, spawn_probability
from .master import RunLog, dynamic_regret, run_bare, run_master, seed_derive, test1_fails, test2_fails
from .mdp import (
    EviError,
    Exp3P,
    UcrlAcw,
    borl,
    compute_diameter,
    doubling_dbar,
    evi,
    nbar,
    optimal_gain,
    run_master_ucrl,
    widen_to_span,
)
from .rates import RateFunction

__version__ = "0.1.0"

__all__ = [
    "EnvSpecError",
    "EviError",
    "Exp3P",
    "GlmSolveError",
    "GlmUcb",
    "MalgRunner",
    "NonstatSummary",
    "Oful",
    "QUcb",
    "RateFunction",
    "RunLog",
    "Ucb1",
    "UcrlAcw",
    "baseline_run",
    "borl",
    "compute_diameter",
    "doubling_dbar",
    "dynamic_regret",
    "evi",
    "fork_fresh",
    "glm_solve",
    "load_env",
    "make_env",
    "nbar",
    "nonstat_summary",
    "optimal_gain",
    "restore",
    "rho_hat",
    "run_bare",
    "run_experiment",
    "run_master",
    "run_master_ucrl",
    "run_single",
    "schedule_upfront",
    "seed_derive",
    "spawn_probability",
    "test1_fails",
    "test2_fails",
    "widen_to_span",
]

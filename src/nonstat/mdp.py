"""Average-reward MDP stack: extended value iteration and its learners.

Extended value iteration (EVI) maximizes the optimistic gain over a product
confidence set: per (s, a), transitions range over an L1 ball around the
empirical kernel intersected with the simplex, rewards over a clipped
interval.  Iterates are damped (half stay / half move), which keeps the
gain and the greedy policy of the optimistic model unchanged, halves the
bias, and guarantees convergence even when the optimistic chain is
periodic; the reported bias is rescaled accordingly, so the optimistic
Bellman inequalities hold at the reported (J~, h~) up to the error
parameter.

The learner wraps EVI with adaptive confidence widening: the L1 radius is
inflated by eta, doubled from 1/T until the bias span fits within twice the
diameter guess.  The cumulative widening budget is tracked and the learner
signals a restart when it crosses 4*S*sqrt(A*t*log(SAT/delta)), t being the
learner's own active-round count.  The learner builds its count arrays
and its integer policy table only when something reads them (UcrlAcw says
when), so one updated once and read only for its log columns builds no
array; update() names the field of a transition out of range.

The reduction over this learner is the generic one: run_master_ucrl is
master.run_master over UcrlAcw, and doubling_dbar and borl call
master.master_core on round ranges of one trajectory.  The
average-reward round adapter (master.AverageRewardWorld) carries what the
kind fixes: the MDP log columns and the test factor 18.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .base import _REGISTRY, _check_horizon_delta, _Lazy, _Learner
from .envs import InfiniteEnv, encode_policy
from .master import AverageRewardWorld, RunLog, master_core, run_master, seed_derive
from .rates import RateFunction

__all__ = [
    "EviError",
    "EviOutput",
    "evi",
    "widen_to_span",
    "UcrlAcw",
    "run_master_ucrl",
    "nbar",
    "doubling_dbar",
    "borl",
    "borl_interval_length",
    "borl_arm_count",
    "Exp3P",
    "compute_diameter",
    "optimal_gain",
]

EVI_MAX_ITER = 10**6
ORACLE_TOL = 1e-9  # the accuracy of compute_diameter and optimal_gain
DIAMETER_MAX_ITER = 10**6


class EviError(RuntimeError):
    pass


@dataclass(frozen=True)
class EviOutput:
    policy: np.ndarray  # greedy action per state
    bias: np.ndarray  # h~, normalized to min 0
    gain: float  # J~
    iterations: int

    @property
    def span(self) -> float:
        return float(self.bias.max() - self.bias.min())


def _optimistic_shift(u_sorted_idx, p_hat, budget, u):
    """max over the L1 ball (cap 2) intersected with the simplex of p~ . u.

    Exact greedy solution: spend (budget + mass deficit)/2 adding mass to
    the best state, then drain from the worst states until the total is 1.
    Handles sub-stochastic p_hat (all-zero rows arise before any data).
    """
    p = p_hat.copy()
    deficit = 1.0 - float(p.sum())
    add = min((budget + deficit) / 2.0, 1.0 - p[u_sorted_idx[0]])
    p[u_sorted_idx[0]] += add
    excess = float(p.sum()) - 1.0
    i = len(u_sorted_idx) - 1
    while excess > 1e-12 and i > 0:
        s = u_sorted_idx[i]
        cut = min(p[s], excess)
        p[s] -= cut
        excess -= cut
        i -= 1
    return p


def evi(
    p_hat: np.ndarray,
    budgets: np.ndarray,
    r_max: np.ndarray,
    epsilon: float,
) -> EviOutput:
    """Extended value iteration to accuracy epsilon.

    p_hat: (S, A, S) empirical kernels; budgets: (S, A) L1 radii; r_max:
    (S, A) upper confidence rewards already clipped to [0, 1].  Stops when
    the span of the damped increments falls below epsilon; the gain is the
    midpoint of the final increments and the bias is the half-normalized
    iterate, so Bellman residuals are within epsilon.  Raises EviError after
    EVI_MAX_ITER iterations.
    """
    n_states, n_actions = r_max.shape
    u = np.zeros(n_states)
    budgets = np.minimum(budgets, 2.0)  # L1 diameter of the simplex
    for it in range(1, EVI_MAX_ITER + 1):
        order = np.argsort(-u, kind="stable")
        target = np.empty((n_states, n_actions))
        for s in range(n_states):
            for a in range(n_actions):
                p_opt = _optimistic_shift(order, p_hat[s, a], budgets[s, a], u)
                target[s, a] = r_max[s, a] + 0.5 * float(p_opt @ u)
        greedy = np.argmax(target, axis=1)
        u_next = 0.5 * u + target[np.arange(n_states), greedy]
        inc = u_next - u
        span = float(inc.max() - inc.min())
        if span <= epsilon:
            gain = float(inc.max() + inc.min()) / 2.0
            bias = (u - u.min()) / 2.0
            return EviOutput(
                policy=greedy,
                bias=bias,
                gain=min(1.0, max(0.0, gain)),
                iterations=it,
            )
        u = u_next - u_next.min()
    raise EviError(
        f"value iteration exceeded {EVI_MAX_ITER} iterations "
        f"(S={n_states}, A={n_actions}, eps={epsilon:g}, last span={span:g})"
    )


def widen_to_span(
    p_hat: np.ndarray,
    conf_budgets: np.ndarray,
    r_max: np.ndarray,
    epsilon: float,
    dbar: float,
    horizon: int,
) -> tuple[EviOutput, float]:
    """Double the widening until the bias span fits within 2 * dbar.

    Starts at eta = 1/T.  A budget of 2 already covers the whole simplex,
    so termination by eta <= 4 is asserted rather than looped past.
    """
    eta = 1.0 / horizon
    while True:
        out = evi(p_hat, conf_budgets + eta, r_max, epsilon)
        if out.span <= 2.0 * dbar:
            return out, eta
        if eta > 4.0:
            raise EviError(
                f"widening overflow: span {out.span:g} > 2*dbar at eta={eta:g}"
            )
        eta *= 2.0


def _optimistic_solve(visit_total, trans_counts, reward_sums, t_int, log_term, dbar, horizon):
    """The episode solve of the average-reward learner from its counts."""
    nplus = np.maximum(visit_total, 1.0)
    p_hat = trans_counts / nplus[:, :, None]
    r_hat = reward_sums / nplus
    conf = 8.0 * np.sqrt(log_term / nplus)
    r_max = np.minimum(1.0, r_hat + conf)
    epsilon = math.sqrt(1.0 / (t_int + 1))
    n_states = visit_total.shape[0]
    return widen_to_span(p_hat, math.sqrt(n_states) * conf, r_max, epsilon, dbar, horizon)


@functools.lru_cache(maxsize=64)
def _prior_solution(n_states: int, n_actions: int, horizon: int, delta: float, dbar: float):
    """The first solve of a learner that has no data, shared by all such learners:
    (EVI output, eta).

    Without data the solved model depends on these five parameters only.
    The scheduler reads one fresh learner per block, and every instance
    solves again at its first update, which needs the solve's eta.  The
    cached arrays are read-only.
    """
    zeros = np.zeros((n_states, n_actions))
    log_term = math.log(n_states * n_actions * horizon / delta)
    out, eta = _optimistic_solve(zeros, np.zeros((n_states, n_actions, n_states)), zeros, 0, log_term, dbar, horizon)
    out.policy.flags.writeable = False
    out.bias.flags.writeable = False
    return out, eta


class UcrlAcw(_Learner):
    """Optimistic average-reward learner with adaptive confidence widening.

    Episodes end when a visited pair doubles its count; the model is
    re-solved lazily at the first predict()/act() of a new episode.  State
    feedback is whatever pair (s, a, R, s') the caller actually played; the
    learner never assumes continuity of s across updates, which is exactly
    the re-assignment semantics pausing and resuming requires.

    The learner builds no array that nothing reads.  The four count arrays
    are built together at their first need: a second update, a solve with
    data, snapshot or a direct read; _load_state sets them unbuilt.  The
    first update of a learner without them only records its transition,
    which the build then counts with update's own in-place operations.  So
    a learner the scheduler updates once and then reads only for its
    scalars (episode, eta, gamma_budget, dbar and restart_signaled) never
    builds them.  policy_table, the int64 copy of the last solve's policy,
    is made at its first read (predict, act or snapshot) and dropped at the
    next solve.
    """

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
    visit_total = _Lazy("_build_counts", ("n_states", "n_actions"))
    visit_episode = _Lazy("_build_counts", ("n_states", "n_actions"))
    trans_counts = _Lazy("_build_counts", ("n_states", "n_actions", "n_states"))
    reward_sums = _Lazy("_build_counts", ("n_states", "n_actions"))
    policy_table = _Lazy("_copy_policy", ("n_states",), np.int64)

    def __init__(self, n_states: int, n_actions: int, horizon: int, delta: float, dbar: float = 1.0):
        if not n_states >= 1:
            raise ValueError(f"n_states={n_states!r} must be >= 1")
        if not n_actions >= 1:
            raise ValueError(f"n_actions={n_actions!r} must be >= 1")
        _check_horizon_delta(horizon, delta)
        if not 1.0 <= dbar < math.inf:  # written so that nan fails it
            raise ValueError(f"diameter guess dbar={dbar} must be finite and >= 1")
        self.n_states = n_states
        self.n_actions = n_actions
        self.horizon = horizon
        self.delta = delta
        self.dbar = float(dbar)
        self._log_term = math.log(n_states * n_actions * horizon / delta)
        self._visit_total = self._visit_episode = self._trans_counts = self._reward_sums = None
        self._pending = None  # a first update's (s, a, reward, s') while the count arrays are unbuilt
        self.t_int = 0
        self.episode = 0
        self.gamma_budget = 0.0
        self.eta = 1.0 / horizon
        self.gain = 1.0
        self._policy = None  # the last solve's policy, which policy_table copies; None before any
        self._policy_table = None
        self.needs_solve = True
        self.signaled = False

    def _build_counts(self):
        """Build the four count arrays and count the recorded first transition."""
        n_states, n_actions = self.n_states, self.n_actions
        self._visit_total = np.zeros((n_states, n_actions))
        self._visit_episode = np.zeros((n_states, n_actions))
        self._trans_counts = np.zeros((n_states, n_actions, n_states))
        self._reward_sums = np.zeros((n_states, n_actions))
        if self._pending is not None:
            pending, self._pending = self._pending, None
            self._count(*pending)

    def _copy_policy(self):
        policy = self._policy
        self._policy_table = np.zeros(self.n_states, dtype=np.int64) if policy is None else policy.astype(np.int64)

    def rate(self) -> RateFunction:
        s, a, lg = self.n_states, self.n_actions, self._log_term
        return RateFunction(
            c1=self.dbar * s * math.sqrt(a * lg),
            c2=self.dbar * s * a * lg,
            c3=max(1.0, self.dbar),
            horizon=self.horizon,
        )

    @property
    def restart_signaled(self) -> bool:
        return self.signaled

    def _solve_episode(self):
        self.episode += 1
        # unbuilt count arrays hold no data; built ones at t_int 0 may (a loaded state)
        if self.t_int == 0 and (self._visit_total is None or not np.count_nonzero(self._visit_total)):
            out, eta = _prior_solution(self.n_states, self.n_actions, self.horizon, self.delta, self.dbar)
        else:
            out, eta = _optimistic_solve(
                self.visit_total, self.trans_counts, self.reward_sums,
                self.t_int, self._log_term, self.dbar, self.horizon,
            )
        self._reads = None
        self.eta = eta
        self.gain = out.gain
        self._policy = out.policy
        self._policy_table = None
        self.needs_solve = False

    def _ensure_solved(self):
        if self.needs_solve:
            self._solve_episode()

    def _decide(self) -> tuple:
        self._ensure_solved()
        return self.gain, encode_policy(self.policy_table, self.n_actions)

    def _count(self, s, a, reward, nxt) -> bool:
        """Add one transition to the built count arrays; True when it ends the episode."""
        visit_episode = self._visit_episode
        visit_episode[s, a] += 1.0
        self._trans_counts[s, a, nxt] += 1.0
        self._reward_sums[s, a] += reward
        if visit_episode[s, a] >= max(1.0, self._visit_total[s, a]):
            self._visit_total += visit_episode
            visit_episode[:] = 0.0
            return True
        return False

    def update(self, feedback):
        s, a, reward, nxt = feedback
        # plain checks, each written so that nan, a float index or a bool fails it
        n_states = self.n_states
        if not (type(s) is int or isinstance(s, np.integer)) or not 0 <= s < n_states:
            raise ValueError(f"state={s!r} must be an integer in [0, {n_states})")
        if not (type(a) is int or isinstance(a, np.integer)) or not 0 <= a < self.n_actions:
            raise ValueError(f"action={a!r} must be an integer in [0, {self.n_actions})")
        if not (type(nxt) is int or isinstance(nxt, np.integer)) or not 0 <= nxt < n_states:
            raise ValueError(f"next_state={nxt!r} must be an integer in [0, {n_states})")
        if not 0.0 <= reward <= 1.0:
            raise ValueError(f"reward={reward!r} must be in [0, 1]")
        self._ensure_solved()
        self.gamma_budget += self.eta
        self.t_int += 1
        if self.gamma_budget > 4.0 * n_states * math.sqrt(self.n_actions * self.t_int * self._log_term):
            self.signaled = True
        if self._visit_total is None:
            if self._pending is None:
                # a learner without data: its first visit ends the first episode
                self._pending = (s, a, reward, nxt)
                self.needs_solve, self._reads = True, None
                return
            self._build_counts()
        if self._count(s, a, reward, nxt):
            self.needs_solve, self._reads = True, None


_REGISTRY["ucrl"] = UcrlAcw  # restore's class for "ucrl" snapshots


def _ucrl_factory(env: InfiniteEnv, delta: float, dbar: float):
    """The factory of fresh average-reward learners for env with diameter guess dbar, over env.horizon."""
    return functools.partial(UcrlAcw, env.n_states, env.n_actions, env.horizon, delta, dbar)


def run_master_ucrl(
    env: InfiniteEnv, dbar: float, delta: float | None = None, kappa: float = 1.0, seed: int = 0, run_index: int = 0
) -> RunLog:
    """The reduction over the average-reward learner with a fixed diameter guess, over env.horizon."""
    if delta is None:
        delta = 1.0 / env.horizon
    return run_master(env, _ucrl_factory(env, delta, dbar), kappa=kappa, seed=seed, run_index=run_index)


def nbar(
    n_states: int,
    n_actions: int,
    horizon: int,
    known_l: int | None = None,
    known_delta: float | None = None,
) -> float:
    """Epoch cap for the doubling diameter-guess strategy."""
    if (known_l is None) == (known_delta is None):
        raise ValueError("known_l / known_delta: exactly one must be given")
    if known_l is not None:
        if not (isinstance(known_l, numbers.Integral) and not isinstance(known_l, bool) and known_l >= 1):
            raise ValueError(f"known_l: expected an integer >= 1, got {known_l!r}")
        return float(known_l)
    if not (isinstance(known_delta, numbers.Real) and not isinstance(known_delta, bool)
            and 0.0 <= known_delta < math.inf):
        raise ValueError(f"known_delta: expected a finite number >= 0, got {known_delta!r}")
    return 1.0 + 3.0 * (known_delta**2 * horizon / (n_states**2 * n_actions)) ** (1.0 / 3.0)


def doubling_dbar(
    env: InfiniteEnv,
    known_l: int | None = None,
    known_delta: float | None = None,
    delta: float | None = None,
    kappa: float = 1.0,
    seed: int = 0,
    run_index: int = 0,
) -> RunLog:
    """Unknown max diameter: run with a guess, double it when epochs overflow.

    The guess starts at 1; whenever the number of epochs under the current
    guess exceeds the cap (L when L is known, 1 + 3*(Delta^2 T / (S^2 A))^(1/3)
    when Delta is known), the guess doubles and a fresh run continues from
    the current round, until env.horizon.
    """
    horizon = env.horizon
    if delta is None:
        delta = 1.0 / horizon
    cap = nbar(env.n_states, env.n_actions, horizon, known_l, known_delta)
    log = RunLog(mdp_columns=True)
    rng_env = seed_derive(seed, run_index, "env")
    rng_sched = seed_derive(seed, run_index, "sched")
    world = AverageRewardWorld(env)
    dbar = 1.0
    t = 1
    while t <= horizon:
        factory = _ucrl_factory(env, delta, dbar)
        t, reason = master_core(world, factory, kappa, rng_env, rng_sched, log, start_t=t, max_epochs=cap)
        if reason == "epoch_overflow":
            dbar *= 2.0
            if len(log):
                log.amend_event(f"double_dbar {dbar:g}")
    return log


def borl_interval_length(n_states: int, n_actions: int, horizon: int) -> int:
    return math.ceil(n_states * math.sqrt(n_actions * horizon))


def borl_arm_count(horizon: int) -> int:
    return max(1, math.ceil(math.log2(math.sqrt(horizon))))


class Exp3P:
    """Adversarial bandit over sub-algorithms, original known-horizon tuning.

    Probabilities mix an exponential-weights distribution with uniform
    exploration gamma and keep an optimistic bias on the importance-weighted
    estimates; every arm's probability stays at least gamma / n_arms.
    Rewards are consumed in [0, 1] (callers rescale their range).
    """

    def __init__(self, n_arms: int, n_rounds: int):
        if n_arms < 1 or n_rounds < 1:
            raise ValueError("need n_arms >= 1 and n_rounds >= 1")
        self.n_arms = n_arms
        self.n_rounds = n_rounds
        delta = 1.0 / n_rounds  # the confidence
        log_k = math.log(n_arms) if n_arms > 1 else 0.0
        self.gamma = min(0.6, 2.0 * math.sqrt(0.6 * n_arms * log_k / n_rounds))
        self.alpha = 2.0 * math.sqrt(math.log(n_arms * n_rounds / delta))
        init = (self.alpha * self.gamma / 3.0) * math.sqrt(n_rounds / n_arms)
        self.log_weights = np.full(n_arms, init)

    def probabilities(self) -> np.ndarray:
        w = np.exp(self.log_weights - self.log_weights.max())
        return (1.0 - self.gamma) * w / w.sum() + self.gamma / self.n_arms

    def sample(self, rng) -> int:
        p = self.probabilities()
        u = rng.random()
        return int(np.searchsorted(np.cumsum(p), u, side="right").clip(0, self.n_arms - 1))

    def update(self, arm: int, reward: float):
        if not 0.0 <= reward <= 1.0 + 1e-12:
            raise ValueError(f"reward {reward} outside [0, 1]")
        p = self.probabilities()
        gain = np.zeros(self.n_arms)
        gain[arm] = reward / p[arm]
        bias = self.alpha / (p * math.sqrt(self.n_arms * self.n_rounds))
        self.log_weights = self.log_weights + (self.gamma / (3.0 * self.n_arms)) * (gain + bias)


def borl(
    env: InfiniteEnv, delta: float | None = None, kappa: float = 1.0, seed: int = 0, run_index: int = 0
) -> RunLog:
    """No prior knowledge at all: adversarial-bandit selection among runs
    with geometrically spaced diameter guesses on fixed-length intervals of env.horizon."""
    horizon = env.horizon
    if delta is None:
        delta = 1.0 / horizon
    block = borl_interval_length(env.n_states, env.n_actions, horizon)
    n_arms = borl_arm_count(horizon)
    n_intervals = math.ceil(horizon / block)
    picker = Exp3P(n_arms, n_intervals)
    rng_env = seed_derive(seed, run_index, "env")
    rng_sched = seed_derive(seed, run_index, "sched")
    rng_borl = seed_derive(seed, run_index, "borl")
    world = AverageRewardWorld(env)
    log = RunLog(mdp_columns=True)
    t = 1
    while t <= horizon:
        arm = world.borl_arm = picker.sample(rng_borl)
        end = min(t + block - 1, horizon)
        first = len(log)
        factory = _ucrl_factory(env, delta, float(1 << arm))
        master_core(world, factory, kappa, rng_env, rng_sched, log, start_t=t, end_t=end)
        total = 0.0
        for reward in log.column("reward")[first:]:
            total += reward
        picker.update(arm, total / block)
        t = end + 1
    return log


# ---------------------------------------------------------------------------
# exact-model oracles


def _check_communicating(trans: np.ndarray) -> None:
    """Raise a ValueError unless every state of the (S, A, S) transitions can
    reach every other under some actions: the structural reachability test,
    on the nonzero entries alone, that the loader runs on every segment."""
    n_states = trans.shape[0]
    edges = (trans > 0).any(axis=1)  # s -> s' possible under some action
    reach = edges | np.eye(n_states, dtype=bool)
    for _ in range(n_states):
        reach = reach | (reach @ reach)
    if not reach.all():
        raise ValueError("MDP is not communicating (some state pair is unreachable)")


def compute_diameter(trans: np.ndarray) -> float:
    """max over ordered state pairs of the optimal expected hitting time.

    Value iteration on the hitting-time equations per target state, until
    no hitting time moves by more than ORACLE_TOL.  _check_communicating,
    the loader's check, rejects non-communicating inputs up front; the
    iteration cap, DIAMETER_MAX_ITER, is a safety net for pathological
    mixing, and its ValueError reaches only a diameter read: the loader
    does not solve hitting times.
    """
    _check_communicating(trans)
    n_states = trans.shape[0]
    diameter = 0.0
    for target in range(n_states):
        keep = [s for s in range(n_states) if s != target]
        if not keep:
            continue
        sub = trans[keep][:, :, keep]  # transitions among non-target states
        h = np.zeros(len(keep))
        for _ in range(DIAMETER_MAX_ITER):
            h_new = 1.0 + np.min(np.einsum("sat,t->sa", sub, h), axis=1)
            gap = float(np.abs(h_new - h).max())
            h = h_new
            if gap <= ORACLE_TOL:
                break
        else:
            raise ValueError(f"hitting-time iteration failed to converge in DIAMETER_MAX_ITER={DIAMETER_MAX_ITER} sweeps")
        diameter = max(diameter, float(h.max()))
    return diameter


def optimal_gain(trans: np.ndarray, rewards: np.ndarray) -> float:
    """Exact optimal gain: zero-width confidence sets, EVI to ORACLE_TOL."""
    n_states, n_actions = rewards.shape
    out = evi(trans, np.zeros((n_states, n_actions)), np.asarray(rewards, dtype=float), ORACLE_TOL)
    return out.gain

"""Base learners implementing the optimistic-estimator contract.

Each learner exposes, before every round, a clamped optimistic value
predict() in [0, 1] and a policy act(); after the environment responds it
consumes update(feedback), which is the only call that advances internal
time.  rate() returns the RateFunction rho(t) of the learner's
near-stationary regret, built from its constructor parameters alone (the
reduction reads it from one fresh learner per control-loop call).
predict/act never change observable state, but may fill a cache that
update clears: read-side state (a score vector with the value and action it
decides, the GLM fit) is computed at most once per update, and only when
something reads it.  Ucb1 builds its score vector once, at the first read
with data, and update then keeps it current by rewriting the one entry it
changes.  Ucb1 and GlmUcb learners without data share one read-only
decision per parameter set, since the scheduler builds such a learner for
up to every round.  Calling predict/act repeatedly between
updates returns identical results, and a learner can be paused,
snapshotted to JSON, restored, and resumed with a bitwise-identical
trajectory.

Implemented learners and their feedback payloads:

    Ucb1    (arm, reward)
    Oful    (action_index, reward)
    GlmUcb  (action_index, reward)
    QUcb    episode trajectory [(layer, state, action, reward, next_state)]

Tie-breaking is always lowest index, so behavior is deterministic given the
state; none of these four learners consumes randomness.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .envs import LINKS, encode_layer_policy
from .rates import RateFunction

__all__ = [
    "GlmSolveError",
    "Ucb1",
    "Oful",
    "GlmUcb",
    "QUcb",
    "glm_solve",
    "fork_fresh",
    "snapshot_to_json",
    "restore",
]

SNAPSHOT_VERSION = 1


class GlmSolveError(RuntimeError):
    """The generalized-linear estimator failed to converge; the run aborts.

    GlmUcb fits lazily, so the error is raised at the first read of the
    failed fit (predict, act, snapshot or theta), not inside the update
    that made it stale; a fit that is never read never raises.
    """


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


class _Learner:
    """Shared snapshot plumbing; subclasses list their array/scalar fields."""

    name = "?"
    _fields: tuple = ()

    restart_signaled = False  # only the average-reward learner ever signals

    def snapshot(self) -> dict:
        state = {}
        for key in self._fields:
            val = getattr(self, key)
            if isinstance(val, np.ndarray):
                state[key] = val.tolist()
            else:
                state[key] = val
        return {
            "version": SNAPSHOT_VERSION,
            "algo": self.name,
            "params": self._params(),
            "state": state,
        }

    def _load_state(self, state: dict):
        for key in self._fields:
            val = state[key]
            current = getattr(self, key)
            if isinstance(current, np.ndarray):
                setattr(self, key, np.array(val, dtype=current.dtype).reshape(current.shape))
            else:
                setattr(self, key, type(current)(val))


def _all_zero(*arrays: np.ndarray) -> bool:
    """No array has a nonzero entry (nan counts as one), as `not a.any()` for
    each; count_nonzero costs a fifth of any() on arrays this small."""
    return not any(map(np.count_nonzero, arrays))


def _decision(scores: np.ndarray) -> tuple:
    """(scores, predict(), act()) of an index learner with this score vector.

    The entry at the argmax is the max, nan included (both take the first
    nan), and the clamp maps a max of -0.0 or 0.0 to 0.0.
    """
    best = int(scores.argmax())
    return scores, _clamp01(float(scores[best])), best


class _IndexLearner(_Learner):
    """Plays the argmax of a score vector and predicts its clamped max.

    The vector is a function of the state fields; the _decision entry (the
    vector with the two reads it decides) is computed at the first read
    after an update and cached until the next one, so update (and anything
    else that changes the fields) must reset _score_cache.
    _compute_decision builds the entry.  Oful and GlmUcb compute a new
    vector for it; Ucb1 reuses its own, which update keeps current; Ucb1
    and GlmUcb learners without data take a shared, read-only entry instead.
    """

    _score_cache = None  # (scores, predict(), act()), or None when stale

    def _decided(self) -> tuple:
        entry = self._score_cache
        if entry is None:
            entry = self._score_cache = self._compute_decision()
        return entry

    def _compute_decision(self) -> tuple:
        return _decision(self._compute_scores())

    def _scores(self) -> np.ndarray:
        return self._decided()[0]

    def predict(self) -> float:
        return self._decided()[1]

    def act(self) -> int:
        return self._decided()[2]

    def _load_state(self, state: dict):
        super()._load_state(state)
        self._score_cache = None


class Ucb1(_IndexLearner):
    """UCB1.  The score vector is built with the vector formula at the first
    read with data (or the first after _load_state) and kept current from
    then on: update rewrites the one entry it changes, in scalar arithmetic
    with the formula's operations in the same order, so the bits are the
    formula's.  A learner without data reads _ucb1_prior_scores, shared by
    all such learners, and its first update builds nothing."""

    name = "ucb1"
    _fields = ("counts", "sums", "t_int")

    _vector = None  # the learner's own score vector once built, kept current by update

    def __init__(self, n_arms: int, horizon: int, delta: float, bonus_scale: float = 2.0):
        if n_arms < 1:
            raise ValueError("need at least one arm")
        if not horizon / delta >= 1.0:  # written so that nan fails it
            raise ValueError(f"horizon={horizon} / delta={delta} must be >= 1 (log(horizon / delta) >= 0)")
        if math.isnan(bonus_scale):
            raise ValueError(f"bonus_scale={bonus_scale} must not be nan")
        self.n_arms = n_arms
        self.horizon = horizon
        self.delta = delta
        self.bonus_scale = bonus_scale
        self._log_term = math.log(horizon / delta)
        self.counts = np.zeros(n_arms)
        self.sums = np.zeros(n_arms)
        self.t_int = 0

    def _params(self):
        return {
            "n_arms": self.n_arms,
            "horizon": self.horizon,
            "delta": self.delta,
            "bonus_scale": self.bonus_scale,
        }

    def rate(self) -> RateFunction:
        return RateFunction(
            c1=math.sqrt(self.n_arms * self._log_term), c2=self.n_arms * self._log_term, horizon=self.horizon
        )

    def _compute_decision(self) -> tuple:
        scores = self._vector
        if scores is None:
            if self.t_int == 0 and _all_zero(self.counts, self.sums):
                return _ucb1_prior_scores(self.n_arms, self.horizon, self.delta, self.bonus_scale)
            scores = self._vector = self._compute_scores()
        return _decision(scores)

    def _compute_scores(self) -> np.ndarray:
        nplus = np.maximum(self.counts, 1.0)
        return self.sums / nplus + self.bonus_scale * np.sqrt(self._log_term / nplus)

    def update(self, feedback):
        arm, reward = feedback
        counts, sums = self.counts, self.sums
        counts[arm] += 1.0
        sums[arm] += reward
        self.t_int += 1
        self._score_cache = None
        scores = self._vector
        if scores is not None:  # _compute_scores' formula at one arm, in float64 scalars
            n = max(float(counts[arm]), 1.0)
            scores[arm] = float(sums[arm]) / n + self.bonus_scale * math.sqrt(self._log_term / n)

    def _load_state(self, state: dict):
        super()._load_state(state)
        self._vector = None


@functools.lru_cache(maxsize=64)
def _ucb1_prior_scores(n_arms: int, horizon: int, delta: float, bonus_scale: float) -> tuple:
    """The _decision entry of a UCB1 learner that has no data, shared by all such learners.

    Without data the scores depend on these parameters only, and the
    scheduler builds a fresh learner with them up to every round.  The
    cached array is read-only.
    """
    scores = Ucb1(n_arms, horizon, delta, bonus_scale)._compute_scores()
    scores.flags.writeable = False
    return _decision(scores)


class Oful(_IndexLearner):
    name = "oful"
    _fields = ("lam_mat", "lam_inv", "bvec", "t_int", "_since_refactor")

    def __init__(self, actions: np.ndarray, horizon: int, delta: float, refactor_every: int = 1024):
        actions = np.asarray(actions, dtype=np.float64)
        self.actions = actions
        self.dim = actions.shape[1]
        self.horizon = horizon
        self.delta = delta
        self.refactor_every = refactor_every
        self._log_term = math.log(horizon / delta)
        self.beta = 4.0 * math.sqrt(self.dim * self._log_term)
        self.lam_mat = np.eye(self.dim)
        self.lam_inv = np.eye(self.dim)
        self.bvec = np.zeros(self.dim)
        self.t_int = 0
        self._since_refactor = 0

    def _params(self):
        return {
            "actions": self.actions.tolist(),
            "horizon": self.horizon,
            "delta": self.delta,
            "refactor_every": self.refactor_every,
        }

    def rate(self) -> RateFunction:
        return RateFunction(c1=self.beta * math.sqrt(self.dim * self._log_term), c2=0.0, horizon=self.horizon)

    def theta_hat(self) -> np.ndarray:
        return self.lam_inv @ self.bvec

    def _compute_scores(self) -> np.ndarray:
        widths = np.sqrt(np.einsum("kd,de,ke->k", self.actions, self.lam_inv, self.actions))
        return self.actions @ self.theta_hat() + 2.0 * self.beta * widths

    def update(self, feedback):
        arm, reward = feedback
        a = self.actions[arm]
        self.lam_mat = self.lam_mat + np.outer(a, a)
        # rank-1 downdate of the inverse, with periodic re-factorization
        # against numerical drift
        v = self.lam_inv @ a
        self.lam_inv = self.lam_inv - np.outer(v, v) / (1.0 + float(a @ v))
        self.lam_inv = (self.lam_inv + self.lam_inv.T) / 2.0
        self.bvec = self.bvec + reward * a
        self._since_refactor += 1
        if self._since_refactor >= self.refactor_every:
            self.lam_inv = np.linalg.inv(self.lam_mat)
            self.lam_inv = (self.lam_inv + self.lam_inv.T) / 2.0
            self._since_refactor = 0
        self.t_int += 1
        self._score_cache = None


def glm_solve(
    actions: np.ndarray,
    counts: np.ndarray,
    reward_vec: np.ndarray,
    lam: float,
    link,
    newton_tol: float = 1e-8,
    project_tol: float = 1e-6,
    max_iter: int = 200,
):
    """Estimate the GLM parameter from per-action sufficient statistics.

    Solves g(x) = lam * c_mu * x + sum_i counts[i] * mu(a_i @ x) * a_i for
    g(theta') = reward_vec by damped Newton (residual <= newton_tol), then
    projects onto the unit ball: theta_hat minimizes the Lambda^{-1}-norm of
    g(theta') - g(theta) over the ball, by projected gradient descent run
    until the iterate moves by less than project_tol.

    Returns (theta_prime, theta_hat).
    """
    dim = actions.shape[1]
    c_mu = link.c_mu
    active = counts > 0
    acts = actions[active]
    wts = counts[active]

    def g(x):
        return lam * c_mu * x + (wts * link.mu(acts @ x)) @ acts

    def g_jac(x):
        grads = wts * link.dmu(acts @ x)
        return lam * c_mu * np.eye(dim) + (acts.T * grads) @ acts

    x = np.zeros(dim)
    residual = g(x) - reward_vec
    for _ in range(max_iter):
        norm = float(np.linalg.norm(residual))
        if norm <= newton_tol:
            break
        step = np.linalg.solve(g_jac(x), -residual)
        alpha = 1.0
        while alpha > 1e-12:
            cand = x + alpha * step
            cand_res = g(cand) - reward_vec
            if np.linalg.norm(cand_res) <= (1.0 - 0.5 * alpha) * norm:
                x, residual = cand, cand_res
                break
            alpha /= 2.0
        else:
            raise GlmSolveError("Newton line search stalled")
    else:
        raise GlmSolveError(
            f"Newton did not reach residual {newton_tol:g} in {max_iter} iterations"
        )
    theta_prime = x

    if np.linalg.norm(theta_prime) <= 1.0:
        return theta_prime, theta_prime.copy()

    # projected gradient descent on 0.5 * ||g(theta') - g(theta)||^2_{Lam^{-1}}
    lam_mat = lam * np.eye(dim) + (acts.T * wts) @ acts
    lam_inv = np.linalg.inv(lam_mat)
    target = g(theta_prime)

    def objective(th):
        diff = target - g(th)
        return 0.5 * float(diff @ lam_inv @ diff)

    theta = theta_prime / np.linalg.norm(theta_prime)
    value = objective(theta)
    step_size = 1.0
    for _ in range(10_000):
        diff = target - g(theta)
        grad = -g_jac(theta).T @ (lam_inv @ diff)
        while step_size > 1e-14:
            cand = theta - step_size * grad
            nrm = np.linalg.norm(cand)
            if nrm > 1.0:
                cand = cand / nrm
            if objective(cand) <= value - 1e-12:
                break
            step_size /= 2.0
        moved = float(np.linalg.norm(cand - theta))
        theta, value = cand, objective(cand)
        if moved <= project_tol:
            return theta_prime, theta
        step_size = min(step_size * 2.0, 1.0)
    raise GlmSolveError(f"projection did not converge to {project_tol:g}")


class GlmUcb(_IndexLearner):
    """GLM-UCB.  update only accumulates the per-action statistics; the
    estimate theta is refit by glm_solve at its first read after that.  A
    learner with no data (no update, zero counts and theta) reads its
    scores and decision from _glm_prior_scores, shared by all such learners."""

    name = "glm"
    _fields = ("counts", "rsums", "t_int", "theta")

    def __init__(self, actions: np.ndarray, horizon: int, delta: float, link: str = "logistic", lam: float = 1.0):
        actions = np.asarray(actions, dtype=np.float64)
        self.actions = actions
        self.dim = actions.shape[1]
        self.horizon = horizon
        self.delta = delta
        self.link_name = link
        self.link = LINKS[link]
        self.lam = lam
        self._log_term = math.log(horizon / delta)
        k_mu, c_mu = self.link.k_mu, self.link.c_mu
        self.beta = (4.0 * k_mu / c_mu) * (
            math.sqrt(self.dim * math.log(c_mu * horizon / (lam * delta)))
            + c_mu * math.sqrt(lam)
        )
        self.counts = np.zeros(actions.shape[0])
        self.rsums = np.zeros(actions.shape[0])
        self.t_int = 0
        self.theta = np.zeros(self.dim)

    @property
    def theta(self) -> np.ndarray:
        if self._fit_stale:
            reward_vec = self.rsums @ self.actions
            _, self._theta = glm_solve(self.actions, self.counts, reward_vec, self.lam, self.link)
            self._fit_stale = False
        return self._theta

    @theta.setter
    def theta(self, value: np.ndarray):
        self._theta = value
        self._fit_stale = False
        self._score_cache = None

    def _params(self):
        return {
            "actions": self.actions.tolist(),
            "horizon": self.horizon,
            "delta": self.delta,
            "link": self.link_name,
            "lam": self.lam,
        }

    rate = Oful.rate  # OFUL's rate, in GLM-UCB's beta

    def _lam_inv(self) -> np.ndarray:
        lam_mat = self.lam * np.eye(self.dim) + (self.actions.T * self.counts) @ self.actions
        return np.linalg.inv(lam_mat)

    def _compute_decision(self) -> tuple:
        if self.t_int == 0 and not self._fit_stale and _all_zero(self.counts, self._theta):
            return _glm_prior_scores(
                self.actions.tobytes(), self.actions.shape, self.horizon, self.delta, self.link_name, self.lam
            )
        return _decision(self._compute_scores())

    def _compute_scores(self) -> np.ndarray:
        lam_inv = self._lam_inv()
        widths = np.sqrt(np.einsum("kd,de,ke->k", self.actions, lam_inv, self.actions))
        return np.asarray(self.link.mu(self.actions @ self.theta)) + 2.0 * self.beta * widths

    def update(self, feedback):
        arm, reward = feedback
        self.counts[arm] += 1.0
        self.rsums[arm] += reward
        self.t_int += 1
        self._fit_stale = True
        self._score_cache = None


@functools.lru_cache(maxsize=64)
def _glm_prior_scores(actions: bytes, shape: tuple, horizon: int, delta: float, link: str, lam: float) -> tuple:
    """The _decision entry of a GLM-UCB learner that has no data, shared by all such learners.

    Without data the scores depend on these parameters only, and the
    scheduler builds a fresh learner with them up to every round.  The
    cached array is read-only.
    """
    fresh = GlmUcb(np.frombuffer(actions).reshape(shape), horizon, delta, link, lam)
    scores = fresh._compute_scores()
    scores.flags.writeable = False
    return _decision(scores)


class QUcb(_Learner):
    name = "qucb"
    _fields = ("q", "visits", "v", "t_int")

    def __init__(
        self,
        n_states: int,
        n_actions: int,
        n_layers: int,
        horizon: int,
        delta: float,
        init_state: int = 0,
        bonus_scale: float = 2.0,
    ):
        self.n_states = n_states
        self.n_actions = n_actions
        self.n_layers = n_layers
        self.horizon = horizon
        self.delta = delta
        self.init_state = init_state
        self.bonus_scale = bonus_scale
        self._log_term = math.log(n_states * n_actions * horizon / delta)
        h = float(n_layers)
        self.q = np.full((n_layers, n_states, n_actions), h)
        self.visits = np.zeros((n_layers, n_states, n_actions))
        self.v = np.concatenate([np.full((n_layers, n_states), h), np.zeros((1, n_states))])
        self.t_int = 0

    def _params(self):
        return {
            "n_states": self.n_states,
            "n_actions": self.n_actions,
            "n_layers": self.n_layers,
            "horizon": self.horizon,
            "delta": self.delta,
            "init_state": self.init_state,
            "bonus_scale": self.bonus_scale,
        }

    def rate(self) -> RateFunction:
        # Rewards fed to the reduction are divided by the layer count, so the
        # rate is the episodic one scaled down by the same factor.
        h, s, a, lg = self.n_layers, self.n_states, self.n_actions, self._log_term
        return RateFunction(c1=math.sqrt(h**3 * s * a * lg), c2=h**2 * s * a * lg, horizon=self.horizon)

    def predict(self) -> float:
        return _clamp01(float(self.v[0, self.init_state]) / self.n_layers)

    def act(self) -> int:
        table = np.argmax(self.q, axis=2)
        return encode_layer_policy(table, self.n_actions)

    def update(self, feedback):
        h_total = float(self.n_layers)
        for h, s, a, reward, nxt in feedback:
            tau = self.visits[h, s, a] + 1.0
            self.visits[h, s, a] = tau
            alpha = (h_total + 1.0) / (h_total + tau)
            bonus = self.bonus_scale * math.sqrt(h_total**3 * self._log_term / tau)
            self.q[h, s, a] = (1.0 - alpha) * self.q[h, s, a] + alpha * (
                reward + self.v[h + 1, nxt] + bonus
            )
            self.v[h, s] = min(h_total, float(self.q[h, s].max()))
        self.t_int += 1


_REGISTRY = {"ucb1": Ucb1, "oful": Oful, "glm": GlmUcb, "qucb": QUcb}


def fork_fresh(algo: str, **params):
    """Zero-knowledge learner factory (also the restore target for snapshots)."""
    if algo not in _REGISTRY:
        # the average-reward learner registers itself on import
        from . import mdp  # noqa: F401

        if algo not in _REGISTRY:
            raise ValueError(f"unknown base algorithm {algo!r}")
    return _REGISTRY[algo](**params)


def register_learner(name: str, cls):
    _REGISTRY[name] = cls


def snapshot_to_json(inst) -> str:
    return json.dumps(inst.snapshot())


def restore(snapshot):
    """Rebuild a learner from snapshot(), a dict or its JSON string."""
    if isinstance(snapshot, str):
        snapshot = json.loads(snapshot)
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {snapshot.get('version')!r}")
    inst = fork_fresh(snapshot["algo"], **snapshot["params"])
    inst._load_state(snapshot["state"])
    return inst

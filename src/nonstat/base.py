"""Base learners implementing the optimistic-estimator contract.

Each learner exposes, before every round, a clamped optimistic value
predict() in [0, 1] and a policy act(); after the environment responds it
consumes update(feedback), which is the only call that advances internal
time.  rate() returns the RateFunction rho(t) of the learner's
near-stationary regret, built from its constructor parameters alone, and
the attribute delta holds its constructor's confidence.  The reduction
reads both from one fresh learner per control-loop call: its test
thresholds are built from rho, delta and the environment's horizon.

The reduction relies on two more facts.  predict/act are pure reads: they
never change observable state, so any number of callers may read one fresh
learner and each sees what a learner of its own would show.  And an update
is observable only through later reads of the same learner, so an update
that nothing reads afterwards may be left out.  The scheduler
(nonstat.malg) relies on the first to serve every read of an instance
without data from one fresh learner per block, and on the second to skip
an instance's last update under the bandit and episodic adapter; no
learner knows it is scheduled.

Every learner serves predict and act from one read cache, _reads: the
(value, action) pair its _decide computes at the first read, kept until
whatever changes it clears it (update; for the average-reward learner only
an episode end; and _load_state).  So the pair is computed at most once per
change, and only when something reads it.  Ucb1 builds its score vector
once, at its first read, and update then keeps it current by rewriting the
one entry it changes; GlmUcb refits theta at its first read after an
update.  Calling predict/act repeatedly between updates returns identical
results, and a learner can be paused, snapshotted to JSON, restored, and
resumed with a bitwise-identical trajectory.  A snapshot's params are the
constructor's arguments, read back from the attributes of the same names.

Implemented learners and their feedback payloads:

    Ucb1    (arm, reward)
    Oful    (action_index, reward)
    GlmUcb  (action_index, reward)
    QUcb    episode trajectory [(layer, state, action, reward, next_state)]

Tie-breaking is always lowest index, so behavior is deterministic given the
state; none of these four learners consumes randomness.
"""

from __future__ import annotations

import inspect
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
GLM_NEWTON_TOL = 1e-8  # glm_solve's stopping rules
GLM_NEWTON_MAX_ITER = 200
GLM_PROJECT_TOL = 1e-6


class GlmSolveError(RuntimeError):
    """The generalized-linear estimator failed to converge; the run aborts.

    GlmUcb fits lazily, so the error is raised at the first read of the
    failed fit (predict, act, snapshot or theta), not inside the update
    that made it stale; a fit that is never read never raises.
    """


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


class _Lazy:
    """An array field of a learner made at its first read, of a declared
    dtype and shape (the names of the learner's size attributes).

    The value lives in the attribute of the same name with a leading
    underscore, None until the learner method named make sets it; the
    class reads and writes that plain attribute itself.  A __getattr__
    hook, or a cache written through the instance __dict__, would instead
    slow every attribute read of the learner: CPython's specialized reads
    give up on both.
    """

    def __init__(self, make: str, shape: tuple, dtype=np.float64):
        self.make, self.shape, self.dtype = make, shape, dtype

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, learner, owner=None):
        if learner is None:
            return self
        if getattr(learner, self.slot) is None:
            getattr(learner, self.make)()
        return getattr(learner, self.slot)

    def __set__(self, learner, value):
        setattr(learner, self.slot, value)


class _Learner:
    """The read protocol and the snapshot plumbing.

    A subclass computes the (predict(), act()) pair in _decide and resets
    _reads to None wherever it changes what the pair reads.  It lists its
    array/scalar state fields, and keeps each constructor argument in the
    attribute of its name, which _params reads back.
    """

    name = "?"
    _fields: tuple = ()

    restart_signaled = False  # only the average-reward learner ever signals

    _reads = None  # (predict(), act()) as _decide computed them, or None when stale

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._param_names = tuple(inspect.signature(cls).parameters)

    def predict(self) -> float:
        reads = self._reads
        if reads is None:
            reads = self._reads = self._decide()
        return reads[0]

    def act(self) -> int:
        reads = self._reads
        if reads is None:
            reads = self._reads = self._decide()
        return reads[1]

    def _plain(self, keys) -> dict:
        """The named attributes, ndarrays written as lists."""
        out = {}
        for key in keys:
            val = getattr(self, key)
            out[key] = val.tolist() if isinstance(val, np.ndarray) else val
        return out

    def _params(self) -> dict:
        return self._plain(self._param_names)

    def snapshot(self) -> dict:
        return {
            "version": SNAPSHOT_VERSION,
            "algo": self.name,
            "params": self._params(),
            "state": self._plain(self._fields),
        }

    def _load_state(self, state: dict):
        for key in self._fields:
            val = state[key]
            lazy = getattr(type(self), key, None)
            if isinstance(lazy, _Lazy):  # its declared dtype and shape: loading makes nothing
                val = np.array(val, dtype=lazy.dtype).reshape([getattr(self, name) for name in lazy.shape])
            elif isinstance(current := getattr(self, key), np.ndarray):
                val = np.array(val, dtype=current.dtype).reshape(current.shape)
            else:
                val = type(current)(val)
            setattr(self, key, val)
        self._reads = None


def _check_horizon_delta(horizon, delta):
    """Raise ValueError, naming the field, unless horizon >= 1 and delta > 0
    with horizon / delta >= 1, so that log(horizon / delta) is finite and
    >= 0.  Plain comparisons, each written so that nan fails it: the
    scheduler can build a learner for up to every round."""
    if not horizon >= 1:
        raise ValueError(f"horizon={horizon!r} must be >= 1")
    if not (delta > 0 and horizon / delta >= 1.0):
        raise ValueError(f"delta={delta!r} must be > 0 with horizon={horizon} / delta >= 1 (log(horizon / delta) >= 0)")


def _decision(scores: np.ndarray) -> tuple:
    """(predict(), act()) of an index learner with this score vector.

    The entry at the argmax is the max, nan included (both take the first
    nan), and the clamp maps a max of -0.0 or 0.0 to 0.0.
    """
    best = int(scores.argmax())
    return _clamp01(float(scores[best])), best


class Ucb1(_Learner):
    """UCB1.  The score vector is built with the vector formula at the first
    read (or the first after _load_state) and kept current from then on:
    update rewrites the one entry it changes, in scalar arithmetic with the
    formula's operations in the same order, so the bits are the formula's.
    Updates before the first read build nothing."""

    name = "ucb1"
    _fields = ("counts", "sums", "t_int")

    _vector = None  # the learner's own score vector once built, kept current by update

    def __init__(self, n_arms: int, horizon: int, delta: float, bonus_scale: float = 2.0):
        if not (type(n_arms) is int or isinstance(n_arms, np.integer)) or not n_arms >= 1:
            raise ValueError(f"n_arms={n_arms!r} must be an integer >= 1")
        _check_horizon_delta(horizon, delta)
        if not math.isfinite(bonus_scale):
            raise ValueError(f"bonus_scale={bonus_scale!r} must be finite")
        self.n_arms = n_arms
        self.horizon = horizon
        self.delta = delta
        self.bonus_scale = bonus_scale
        self._log_term = math.log(horizon / delta)
        self.counts = np.zeros(n_arms)
        self.sums = np.zeros(n_arms)
        self.t_int = 0

    def rate(self) -> RateFunction:
        return RateFunction(
            c1=math.sqrt(self.n_arms * self._log_term), c2=self.n_arms * self._log_term, horizon=self.horizon
        )

    def _decide(self) -> tuple:
        scores = self._vector
        if scores is None:
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
        self._reads = None
        scores = self._vector
        if scores is not None:  # _compute_scores' formula at one arm, in float64 scalars
            n = max(float(counts[arm]), 1.0)
            scores[arm] = float(sums[arm]) / n + self.bonus_scale * math.sqrt(self._log_term / n)

    def _load_state(self, state: dict):
        super()._load_state(state)
        self._vector = None


class Oful(_Learner):
    name = "oful"
    _fields = ("lam_mat", "lam_inv", "bvec", "t_int", "_since_refactor")

    def __init__(self, actions: np.ndarray, horizon: int, delta: float, refactor_every: int = 1024):
        _check_horizon_delta(horizon, delta)
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

    def rate(self) -> RateFunction:
        return RateFunction(c1=self.beta * math.sqrt(self.dim * self._log_term), c2=0.0, horizon=self.horizon)

    def theta_hat(self) -> np.ndarray:
        return self.lam_inv @ self.bvec

    def _decide(self) -> tuple:
        return _decision(self._compute_scores())

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
        self._reads = None


def glm_solve(
    actions: np.ndarray,
    counts: np.ndarray,
    reward_vec: np.ndarray,
    lam: float,
    link,
):
    """Estimate the GLM parameter from per-action sufficient statistics.

    Solves g(x) = lam * c_mu * x + sum_i counts[i] * mu(a_i @ x) * a_i for
    g(theta') = reward_vec by damped Newton (residual <= GLM_NEWTON_TOL
    within GLM_NEWTON_MAX_ITER iterations), then projects onto the unit
    ball: theta_hat minimizes the Lambda^{-1}-norm of g(theta') - g(theta)
    over the ball, by projected gradient descent run until the iterate moves
    by less than GLM_PROJECT_TOL.

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
    for _ in range(GLM_NEWTON_MAX_ITER):
        norm = float(np.linalg.norm(residual))
        if norm <= GLM_NEWTON_TOL:
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
            f"Newton did not reach residual {GLM_NEWTON_TOL:g} in {GLM_NEWTON_MAX_ITER} iterations"
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
        if moved <= GLM_PROJECT_TOL:
            return theta_prime, theta
        step_size = min(step_size * 2.0, 1.0)
    raise GlmSolveError(f"projection did not converge to {GLM_PROJECT_TOL:g}")


class GlmUcb(_Learner):
    """GLM-UCB.  update only accumulates the per-action statistics; the
    estimate theta is refit by glm_solve at its first read after that.
    Raises ValueError, naming the field, unless link is a key of LINKS,
    lam > 0 and c_mu * horizon / (lam * delta) >= 1, so that beta's log is
    >= 0."""

    name = "glm"
    _fields = ("counts", "rsums", "t_int", "theta")

    def __init__(self, actions: np.ndarray, horizon: int, delta: float, link: str = "logistic", lam: float = 1.0):
        _check_horizon_delta(horizon, delta)
        if link not in LINKS:
            raise ValueError(f"link={link!r} must be one of {sorted(LINKS)}")
        actions = np.asarray(actions, dtype=np.float64)
        self.actions = actions
        self.dim = actions.shape[1]
        self.horizon = horizon
        self.delta = delta
        self.link = link
        self._link = LINKS[link]
        self.lam = lam
        self._log_term = math.log(horizon / delta)
        k_mu, c_mu = self._link.k_mu, self._link.c_mu
        if not (lam > 0 and c_mu * horizon / (lam * delta) >= 1.0):
            raise ValueError(f"lam={lam!r}, delta={delta!r}: need lam > 0 and c_mu * horizon / (lam * delta) >= 1"
                             f" (c_mu={c_mu!r}, horizon={horizon})")
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
            _, self._theta = glm_solve(self.actions, self.counts, reward_vec, self.lam, self._link)
            self._fit_stale = False
        return self._theta

    @theta.setter
    def theta(self, value: np.ndarray):
        self._theta = value
        self._fit_stale = False
        self._reads = None

    rate = Oful.rate  # OFUL's rate, in GLM-UCB's beta
    _decide = Oful._decide

    def _lam_inv(self) -> np.ndarray:
        lam_mat = self.lam * np.eye(self.dim) + (self.actions.T * self.counts) @ self.actions
        return np.linalg.inv(lam_mat)

    def _compute_scores(self) -> np.ndarray:
        lam_inv = self._lam_inv()
        widths = np.sqrt(np.einsum("kd,de,ke->k", self.actions, lam_inv, self.actions))
        return np.asarray(self._link.mu(self.actions @ self.theta)) + 2.0 * self.beta * widths

    def update(self, feedback):
        arm, reward = feedback
        self.counts[arm] += 1.0
        self.rsums[arm] += reward
        self.t_int += 1
        self._fit_stale = True
        self._reads = None


class QUcb(_Learner):
    """Optimistic Q-learning on a layered MDP.  act() is the encoded greedy
    layer policy.  Raises ValueError, naming the field, unless n_states,
    n_actions and n_layers are >= 1 and init_state is an integer in
    [0, n_states)."""

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
        if not n_states >= 1:  # each written so that nan fails it
            raise ValueError(f"n_states={n_states!r} must be >= 1")
        if not n_actions >= 1:
            raise ValueError(f"n_actions={n_actions!r} must be >= 1")
        if not n_layers >= 1:
            raise ValueError(f"n_layers={n_layers!r} must be >= 1")
        if not (type(init_state) is int or isinstance(init_state, np.integer)) or not 0 <= init_state < n_states:
            raise ValueError(f"init_state={init_state!r} must be an integer in [0, {n_states})")
        _check_horizon_delta(horizon, delta)
        if not math.isfinite(bonus_scale):
            raise ValueError(f"bonus_scale={bonus_scale!r} must be finite")
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

    def rate(self) -> RateFunction:
        # Rewards fed to the reduction are divided by the layer count, so the
        # rate is the episodic one scaled down by the same factor.
        h, s, a, lg = self.n_layers, self.n_states, self.n_actions, self._log_term
        return RateFunction(c1=math.sqrt(h**3 * s * a * lg), c2=h**2 * s * a * lg, horizon=self.horizon)

    def _decide(self) -> tuple:
        value = _clamp01(float(self.v[0, self.init_state]) / self.n_layers)
        return value, encode_layer_policy(np.argmax(self.q, axis=2), self.n_actions)

    def update(self, feedback):
        self._reads = None
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


_REGISTRY = {"ucb1": Ucb1, "oful": Oful, "glm": GlmUcb, "qucb": QUcb}  # mdp adds "ucrl" on import


def fork_fresh(algo: str, **params):
    """Zero-knowledge learner factory (also the restore target for snapshots)."""
    if algo not in _REGISTRY:
        raise ValueError(f"unknown base algorithm {algo!r}")
    return _REGISTRY[algo](**params)


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

"""Time-varying environments with exact oracles.

Five environment kinds share one interface: a finite policy set indexed by
integers, a per-round expected reward f_t(pi), an exact per-round optimum
f*_t, and a sampler (play; step for a continuing MDP) producing a noisy
reward in [0, 1] together with the feedback payload the matching base
algorithm consumes.

All parameters are stored per stationary segment (length, payload) so that
million-round traces stay cheap; per-round quantities are resolved lazily.
Every kind caches its oracle (the optimum f*_t, and the diameter of a
continuing MDP) per segment, computed at the first round that asks for it;
linear and GLM bandits likewise cache each action's mean per segment at its
first play.  Drifting bandits, which have no segments, compute both every
round.  A segment lookup tries the last segment found before it bisects.
Environments are immutable after construction: building twice from the same
spec yields bitwise-identical objects, and sampling takes an external RNG.

Per-round drift traces Delta(t) are matched to the base learner each kind
takes (the measure under which it satisfies its near-stationarity
contract), with the displayed log prefactors kept and all hidden Theta
constants set to 1.
Episodic quantities are divided by the layer count H so rewards and values
live in [0, 1].
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EnvSpecError",
    "MabEnv",
    "LinearEnv",
    "EpisodicEnv",
    "InfiniteEnv",
    "NonstatSummary",
    "make_env",
    "load_env",
    "nonstat_summary",
    "encode_policy",
    "decode_policy",
    "encode_layer_policy",
    "decode_layer_policy",
    "LINKS",
]


class EnvSpecError(ValueError):
    """Raised when an environment spec fails validation; message names the field."""


# ---------------------------------------------------------------------------
# link functions for the generalized linear environment / algorithm


class Link:
    def __init__(self, name, mu, dmu, k_mu, c_mu):
        self.name = name
        self.mu = mu
        self.dmu = dmu
        self.k_mu = k_mu  # sup of dmu on [0, 1]
        self.c_mu = c_mu  # inf of dmu on [0, 1]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _dsigmoid(x):
    s = _sigmoid(x)
    return s * (1.0 - s)


LINKS = {
    "identity": Link("identity", lambda x: x, lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0, 1.0),
    "logistic": Link("logistic", _sigmoid, _dsigmoid, float(_dsigmoid(0.0)), float(_dsigmoid(1.0))),
}


# ---------------------------------------------------------------------------
# segment bookkeeping


class _Segments:
    """(length, payload) pairs resolved by 1-based round index."""

    def __init__(self, lengths, payloads):
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.payloads = payloads
        self.bounds = np.concatenate([[0], np.cumsum(self.lengths)])  # bounds[i] rounds before seg i
        self._bound_list = self.bounds.tolist()  # bisect on a list is cheaper per round than searchsorted
        self._last = (0, 0, 0)  # (bounds[i], bounds[i+1], i) of the last segment found; none yet

    def __len__(self):
        return len(self.payloads)

    def index_of(self, t: int) -> int:
        # t is 1-based; segment i covers rounds bounds[i]+1 .. bounds[i+1].  Every env
        # call of a round asks for the same segment, so the last one found is tried first.
        lo, hi, i = self._last
        if lo < t <= hi:
            return i
        i = bisect.bisect_left(self._bound_list, t) - 1
        if i < 0 or i >= len(self.payloads):
            raise ValueError(f"round {t} outside horizon {int(self.bounds[-1])}")
        self._last = (self._bound_list[i], self._bound_list[i + 1], i)
        return i

    def at(self, t: int):
        return self.payloads[self.index_of(t)]


def _check_round(env, t):
    if not (1 <= t <= env.horizon):
        raise ValueError(f"round {t} outside [1, {env.horizon}]")


# ---------------------------------------------------------------------------
# sampling tables for MDP environments

# the tolerance Generator.choice allows on the sum of p
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _check_transitions(trans, axes):
    """Raise ValueError unless each row of trans (its last axis) passes the
    check Generator.choice makes on p; axes names the leading indexes."""
    sums = trans.sum(axis=-1)
    bad = ~((trans >= 0.0).all(axis=-1) & (np.abs(sums - 1.0) <= _CHOICE_ATOL))  # nan fails both
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        name = ", ".join(f"{axis} {i}" for axis, i in zip(axes, where))
        raise ValueError(f"transitions at {name} are not a probability vector (sum={float(sums[where]):.6g})")


def _sampling_tables(rewards, trans, axes):
    """(reward rows, next-state CDF rows) of one segment, as nested lists.

    The CDF rows are the ones Generator.choice builds from p, so that
    bisect.bisect_right(cdf[...], rng.random()) draws the same uniform and
    returns the same index as rng.choice(S, p=trans[...]).
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    trans = np.asarray(trans, dtype=np.float64)
    _check_transitions(trans, axes)
    cdf = trans.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return rewards.tolist(), cdf.tolist()


# ---------------------------------------------------------------------------
# policy index encodings for MDP environments


def encode_policy(table, n_actions: int) -> int:
    """Stationary policy (state -> action) to a single integer id."""
    pid = 0
    for a in reversed(np.asarray(table).tolist()):
        pid = pid * n_actions + int(a)
    return pid


def decode_policy(pid: int, n_states: int, n_actions: int) -> np.ndarray:
    table = np.empty(n_states, dtype=np.int64)
    for s in range(n_states):
        table[s] = pid % n_actions
        pid //= n_actions
    return table


def encode_layer_policy(table, n_actions: int) -> int:
    """Layered policy (layer, state -> action) to an integer id."""
    flat = np.asarray(table).reshape(-1)
    return encode_policy(flat, n_actions)


def decode_layer_policy(pid: int, n_layers: int, n_states: int, n_actions: int) -> np.ndarray:
    flat = decode_policy(pid, n_layers * n_states, n_actions)
    return flat.reshape(n_layers, n_states)


# ---------------------------------------------------------------------------
# environment models


@dataclass(frozen=True)
class NonstatSummary:
    """Per-round drift trace plus its aggregates over the horizon."""

    delta_trace: np.ndarray  # delta_trace[i] = Delta(t=i+1), last entry 0
    delta_total: float
    switch_count: int  # L = 1 + #{t < T : Delta(t) != 0}


class MabEnv:
    kind = "mab"

    def __init__(self, horizon, segments, drift=None):
        self.horizon = int(horizon)
        self._drift = drift  # (means_start, means_end) or None
        self._segments = segments
        if drift is not None:
            self.n_arms = len(drift[0])
        else:
            self.n_arms = len(segments.payloads[0])
        self.n_policies = self.n_arms
        self._opt_cache = {}

    def means(self, t: int) -> np.ndarray:
        _check_round(self, t)
        if self._drift is not None:
            lo, hi = self._drift
            w = 0.0 if self.horizon == 1 else (t - 1) / (self.horizon - 1)
            return (1.0 - w) * lo + w * hi
        return self._segments.at(t)

    def f(self, t: int, pid: int) -> float:
        return float(self.means(t)[pid])

    def optimal_value(self, t: int) -> float:
        if self._drift is not None:
            return float(self.means(t).max())
        _check_round(self, t)
        i = self._segments.index_of(t)
        if i not in self._opt_cache:
            self._opt_cache[i] = float(self._segments.payloads[i].max())
        return self._opt_cache[i]

    def play(self, t: int, pid: int, rng):
        m = self.f(t, pid)
        r = 1.0 if rng.random() < m else 0.0
        return r, (pid, r)


class LinearEnv:
    """Finite-action linear bandit; the GLM variant adds a link function."""

    def __init__(self, horizon, actions, segments, drift=None, link=None, lam=1.0):
        self.horizon = int(horizon)
        self.actions = actions  # (K, d)
        self.dim = actions.shape[1]
        self.n_policies = actions.shape[0]
        self._segments = segments
        self._drift = drift  # (theta_start, theta_end) or None
        self.link = link
        self.lam = float(lam)
        self.kind = "glm" if link is not None else "linear"
        self._opt_cache = {}
        # per segment, the mean of each action played there, filled at its first play
        self._means = None if segments is None else [{} for _ in segments.payloads]

    def theta(self, t: int) -> np.ndarray:
        _check_round(self, t)
        if self._drift is not None:
            lo, hi = self._drift
            w = 0.0 if self.horizon == 1 else (t - 1) / (self.horizon - 1)
            return (1.0 - w) * lo + w * hi
        return self._segments.at(t)

    def f(self, t: int, pid: int) -> float:
        if self._means is not None and 1 <= t <= self.horizon:
            means = self._means[self._segments.index_of(t)]
            m = means.get(pid)
            if m is None:
                m = means[pid] = self._mean(t, pid)
            return m
        return self._mean(t, pid)

    def _mean(self, t: int, pid: int) -> float:
        # the per-row dot: a gemv over all actions may round differently
        v = float(self.actions[pid] @ self.theta(t))
        return float(self.link.mu(v)) if self.link is not None else v

    def _values(self, t: int) -> np.ndarray:
        v = self.actions @ self.theta(t)
        return self.link.mu(v) if self.link is not None else v

    def optimal_value(self, t: int) -> float:
        if self._drift is not None:
            return float(self._values(t).max())
        _check_round(self, t)
        i = self._segments.index_of(t)
        if i not in self._opt_cache:
            self._opt_cache[i] = float(self._values(t).max())
        return self._opt_cache[i]

    def play(self, t: int, pid: int, rng):
        m = self.f(t, pid)
        r = 1.0 if rng.random() < m else 0.0
        return r, (pid, r)


class EpisodicEnv:
    """Layered tabular MDP; one framework round = one H-step episode.

    Values fed to the reduction are divided by H so that f_t(pi) lies in
    [0, 1].  Per-step rewards are deterministic given (h, s, a); the noise
    in the round reward comes from sampled transitions.
    """

    kind = "episodic"

    def __init__(self, horizon, n_states, n_actions, n_layers, segments, init_state=0):
        self.horizon = int(horizon)
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        self.n_layers = int(n_layers)
        self.init_state = int(init_state)
        self._segments = segments  # payload: (rewards (H,S,A), transitions (H,S,A,S))
        self.n_policies = n_actions ** (n_states * n_layers)
        self._opt_cache = {}
        self._tables = [_sampling_tables(r, p, ("layer", "state", "action")) for r, p in segments.payloads]
        # place value of digit h*S + s of a policy id: decode_layer_policy's table[h, s]
        self._places = [self.n_actions**i for i in range(self.n_layers * self.n_states)]

    def params(self, t: int):
        return self._segments.at(t)

    def _backward_induction(self, seg_idx: int) -> float:
        rewards, trans = self._segments.payloads[seg_idx]
        v = np.zeros(self.n_states)
        for h in range(self.n_layers - 1, -1, -1):
            q = rewards[h] + trans[h] @ v  # (S, A)
            v = q.max(axis=1)
        return float(v[self.init_state]) / self.n_layers

    def optimal_value(self, t: int) -> float:
        _check_round(self, t)
        i = self._segments.index_of(t)
        if i not in self._opt_cache:
            self._opt_cache[i] = self._backward_induction(i)
        return self._opt_cache[i]

    def policy_value(self, t: int, pid: int) -> float:
        """Exact f_t(pi) for an encoded layer policy, by policy evaluation."""
        _check_round(self, t)
        rewards, trans = self.params(t)
        table = decode_layer_policy(pid, self.n_layers, self.n_states, self.n_actions)
        v = np.zeros(self.n_states)
        idx = np.arange(self.n_states)
        for h in range(self.n_layers - 1, -1, -1):
            a = table[h]
            v = rewards[h, idx, a] + trans[h, idx, a] @ v
        return float(v[self.init_state]) / self.n_layers

    def f(self, t: int, pid: int) -> float:
        return self.policy_value(t, pid)

    def play(self, t: int, pid: int, rng):
        rewards, cdf = self._tables[self._segments.index_of(t)]
        pid = int(pid)
        n_states, n_actions, places = self.n_states, self.n_actions, self._places
        s = self.init_state
        total = 0.0
        traj = []
        for h in range(self.n_layers):
            a = pid // places[h * n_states + s] % n_actions
            r = rewards[h][s][a]
            nxt = bisect.bisect_right(cdf[h][s][a], rng.random())  # rng.choice(S, p=P_h(.|s, a))
            traj.append((h, s, a, r, nxt))
            total += r
            s = nxt
        return total / self.n_layers, traj


class InfiniteEnv:
    """Continuing tabular MDP; one framework round = one state transition."""

    kind = "infinite"

    def __init__(self, horizon, n_states, n_actions, segments, init_state=0):
        self.horizon = int(horizon)
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        self.init_state = int(init_state)
        self._segments = segments  # payload: (rewards (S,A), transitions (S,A,S))
        self.n_policies = n_actions**n_states
        self._gain_cache = {}
        self._diameter_cache = {}
        self._tables = [_sampling_tables(r, p, ("state", "action")) for r, p in segments.payloads]
        self._places = [self.n_actions**i for i in range(self.n_states)]  # place value of each policy-id digit

    def params(self, t: int):
        return self._segments.at(t)

    def policy_action(self, pid: int, state: int) -> int:
        """The action policy pid takes in state: decode_policy(pid, S, A)[state]."""
        return int(pid) // self._places[state] % self.n_actions

    def optimal_value(self, t: int) -> float:
        """Optimal gain J*_t, from exact-model extended value iteration."""
        _check_round(self, t)
        i = self._segments.index_of(t)
        if i not in self._gain_cache:
            from .mdp import optimal_gain

            rewards, trans = self._segments.payloads[i]
            self._gain_cache[i] = optimal_gain(trans, rewards)
        return self._gain_cache[i]

    def f(self, t: int, pid: int) -> float:
        """Gain of the encoded stationary policy starting from init_state."""
        _check_round(self, t)
        rewards, trans = self.params(t)
        return policy_gain(trans, rewards, decode_policy(pid, self.n_states, self.n_actions), self.init_state)

    def step(self, t: int, state: int, action: int, rng):
        """One transition: Bernoulli reward with mean r_t(s, a), sampled next state.

        Draws what rng.random() < r_t(s, a) and then rng.choice(S, p=P_t(.|s, a))
        draw, and returns the same values.
        """
        rewards, cdf = self._tables[self._segments.index_of(t)]
        return (
            1.0 if rng.random() < rewards[state][action] else 0.0,
            bisect.bisect_right(cdf[state][action], rng.random()),
        )

    def diameter(self, t: int) -> float:
        _check_round(self, t)
        i = self._segments.index_of(t)
        if i not in self._diameter_cache:
            from .mdp import compute_diameter

            rewards, trans = self._segments.payloads[i]
            self._diameter_cache[i] = compute_diameter(trans)
        return self._diameter_cache[i]

    def max_diameter(self) -> float:
        return max(self.diameter(int(b) + 1) for b in self._segments.bounds[:-1])


# ---------------------------------------------------------------------------
# exact gain of a fixed policy (oracle used for Delta^J and tests)


def policy_gain(trans, rewards, table, init_state: int) -> float:
    """Limiting average reward of a stationary policy from a start state.

    Exact: decomposes the induced chain into recurrent classes, solves each
    class's stationary distribution, and weights class gains by absorption
    probabilities from the start state.  Handles multichain policies, which
    arbitrary deterministic policies on a communicating MDP can induce.
    """
    n = trans.shape[0]
    idx = np.arange(n)
    chain = trans[idx, np.asarray(table, dtype=np.int64)]  # (S, S)
    step_reward = rewards[idx, np.asarray(table, dtype=np.int64)]

    reach = chain > 0
    closure = reach | np.eye(n, dtype=bool)
    for _ in range(n):  # transitive closure
        closure = closure | (closure @ closure)

    # recurrent classes: states whose reachable set all reach back
    recurrent = np.array([bool(np.all(closure[closure[s], s])) for s in range(n)])
    classes = []
    seen = np.zeros(n, dtype=bool)
    for s in range(n):
        if recurrent[s] and not seen[s]:
            members = np.where(closure[s] & closure[:, s] & recurrent)[0]
            seen[members] = True
            classes.append(members)

    gains = []
    for members in classes:
        sub = chain[np.ix_(members, members)]
        k = len(members)
        a = np.vstack([sub.T - np.eye(k), np.ones((1, k))])
        b = np.concatenate([np.zeros(k), [1.0]])
        nu, *_ = np.linalg.lstsq(a, b, rcond=None)
        gains.append(float(nu @ step_reward[members]))

    in_class = np.full(n, -1)
    for ci, members in enumerate(classes):
        in_class[members] = ci

    transient = np.where(in_class < 0)[0]
    if in_class[init_state] >= 0:
        return gains[in_class[init_state]]

    # absorption probabilities from transient states into each class
    tt = chain[np.ix_(transient, transient)]
    pos = {s: i for i, s in enumerate(transient)}
    total = 0.0
    for ci, members in enumerate(classes):
        to_class = chain[np.ix_(transient, np.where(in_class == ci)[0])].sum(axis=1)
        absorb = np.linalg.solve(np.eye(len(transient)) - tt, to_class)
        total += float(absorb[pos[init_state]]) * gains[ci]
    return total


# ---------------------------------------------------------------------------
# module-level operations

# the average-reward drift measure takes the largest gain change over every stationary
# policy, so it enumerates them and stops at this many
MAX_GAIN_DRIFT_POLICIES = 4096


def _boundary_rows(env):
    """Yield (t, payload_t, payload_t1) for rounds where the segment changes."""
    segs = env._segments
    if segs is None:
        return
    for i in range(len(segs) - 1):
        t = int(segs.bounds[i + 1])  # last round of segment i
        yield t, segs.payloads[i], segs.payloads[i + 1]


def nonstat_summary(env, delta: float | None = None, dbar: float = 1.0) -> NonstatSummary:
    """Drift trace Delta(t) and its aggregates, in the measure of the base
    learner the environment kind takes.

    The kind selects the measure: "mab" (sup-norm of mean drift), "linear"
    / "glm" (parameter drift, at OFUL's scale without a link and GLM-UCB's
    with one), "episodic" (layered reward/transition drift, divided by H),
    "infinite" (reward + 2*dbar*transition + gain drift; dbar is the
    average-reward learner's diameter guess).
    """
    T = env.horizon
    if delta is None:
        delta = 1.0 / T
    trace = np.zeros(T)

    if isinstance(env, MabEnv):
        if env._drift is not None:
            for t in range(1, T):
                trace[t - 1] = float(np.abs(env.means(t) - env.means(t + 1)).max())
        else:
            for t, lo, hi in _boundary_rows(env):
                trace[t - 1] = float(np.abs(lo - hi).max())
    elif isinstance(env, LinearEnv):
        d, link = env.dim, env.link
        scale = (d if link is None else link.k_mu**2 * d / link.c_mu) * math.sqrt(math.log(T / delta))
        if env._drift is not None:
            for t in range(1, T):
                trace[t - 1] = scale * float(np.linalg.norm(env.theta(t) - env.theta(t + 1)))
        else:
            for t, lo, hi in _boundary_rows(env):
                trace[t - 1] = scale * float(np.linalg.norm(lo - hi))
    elif isinstance(env, EpisodicEnv):
        h = env.n_layers
        for t, (r0, p0), (r1, p1) in _boundary_rows(env):
            dr = np.abs(r0 - r1).max(axis=(1, 2)).sum()
            dp = np.abs(p0 - p1).sum(axis=3).max(axis=(1, 2)).sum()
            # displayed measure H*sum dr + H^2*sum dp, scaled down by H
            trace[t - 1] = float(dr + h * dp)
    elif isinstance(env, InfiniteEnv):
        n_pol = env.n_policies
        if n_pol > MAX_GAIN_DRIFT_POLICIES:
            raise ValueError(f"gain-drift oracle needs |Pi| <= {MAX_GAIN_DRIFT_POLICIES}")
        for t, (r0, p0), (r1, p1) in _boundary_rows(env):
            dr = float(np.abs(r0 - r1).max())
            dp = float(np.abs(p0 - p1).sum(axis=2).max())
            dj = 0.0
            for pid in range(n_pol):
                tbl = decode_policy(pid, env.n_states, env.n_actions)
                dj = max(
                    dj,
                    abs(
                        policy_gain(p0, r0, tbl, env.init_state)
                        - policy_gain(p1, r1, tbl, env.init_state)
                    ),
                )
            trace[t - 1] = dr + 2.0 * dbar * dp + dj
    else:
        raise TypeError(f"unknown environment type {type(env).__name__}")

    total = float(trace.sum())
    switches = 1 + int(np.count_nonzero(trace[: T - 1]))
    return NonstatSummary(delta_trace=trace, delta_total=total, switch_count=switches)


# ---------------------------------------------------------------------------
# spec loading


_COMMON_KEYS = {"kind", "T"}
_ALLOWED_KEYS = {
    "mab": _COMMON_KEYS | {"segments", "drift"},
    "linear": _COMMON_KEYS | {"actions", "segments", "drift"},
    "glm": _COMMON_KEYS | {"actions", "segments", "drift", "link", "lam"},
    "episodic": _COMMON_KEYS | {"S", "A", "H", "s1", "segments"},
    "infinite": _COMMON_KEYS | {"S", "A", "s0", "segments"},
}


def _fail(path, msg):
    raise EnvSpecError(f"{path}: {msg}")


def _need(spec, key, path):
    if key not in spec:
        _fail(path, f"missing required key {key!r}")
    return spec[key]


def _as_positive_int(value, path):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        _fail(path, f"expected a positive integer, got {value!r}")
    return value


def _freeze(a):
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _load_segments(spec, path, horizon, loader):
    raw = _need(spec, "segments", path)
    if not isinstance(raw, list) or not raw:
        _fail(f"{path}.segments", "expected a non-empty list")
    lengths, payloads = [], []
    for i, seg in enumerate(raw):
        spath = f"{path}.segments[{i}]"
        if not isinstance(seg, dict):
            _fail(spath, "expected an object")
        lengths.append(_as_positive_int(_need(seg, "length", spath), f"{spath}.length"))
        payloads.append(loader(seg, spath))
    if sum(lengths) != horizon:
        _fail(f"{path}.segments", f"segment lengths sum to {sum(lengths)}, expected T={horizon}")
    return _Segments(lengths, payloads)


def _check_spec_transitions(trans, path, axes):
    try:
        _check_transitions(trans, axes)
    except ValueError as exc:
        _fail(path, str(exc))


def _check_unit_interval(a, path):
    if np.any(a < 0.0) or np.any(a > 1.0):
        _fail(path, "values must lie in [0, 1]")


def make_env(spec: dict):
    """Build an environment from a validated spec record.

    Construction is pure: no RNG is consumed, and identical specs produce
    bitwise-identical environments.  Unknown keys are rejected.
    """
    if not isinstance(spec, dict):
        raise EnvSpecError("spec: expected an object")
    kind = _need(spec, "kind", "spec")
    if kind not in _ALLOWED_KEYS:
        _fail("spec.kind", f"unknown kind {kind!r}")
    unknown = set(spec) - _ALLOWED_KEYS[kind]
    if unknown:
        _fail("spec", f"unknown keys for kind {kind!r}: {sorted(unknown)}")
    horizon = _as_positive_int(_need(spec, "T", "spec"), "spec.T")

    if kind == "mab":
        return _make_mab(spec, horizon)
    if kind in ("linear", "glm"):
        return _make_linear(spec, horizon, kind)
    if kind == "episodic":
        return _make_episodic(spec, horizon)
    return _make_infinite(spec, horizon)


def _make_mab(spec, horizon):
    if ("segments" in spec) == ("drift" in spec):
        _fail("spec", "exactly one of 'segments' or 'drift' is required")
    if "drift" in spec:
        drift = spec["drift"]
        if not isinstance(drift, dict) or set(drift) != {"means_start", "means_end"}:
            _fail("spec.drift", "expected keys means_start, means_end")
        lo = _freeze(drift["means_start"])
        hi = _freeze(drift["means_end"])
        if lo.ndim != 1 or lo.shape != hi.shape:
            _fail("spec.drift", "means_start and means_end must be equal-length vectors")
        _check_unit_interval(lo, "spec.drift.means_start")
        _check_unit_interval(hi, "spec.drift.means_end")
        return MabEnv(horizon, None, drift=(lo, hi))

    n_arms = [None]

    def load(seg, path):
        means = _freeze(_need(seg, "means", path))
        if means.ndim != 1:
            _fail(f"{path}.means", "expected a vector")
        if n_arms[0] is None:
            n_arms[0] = means.shape[0]
        elif means.shape[0] != n_arms[0]:
            _fail(f"{path}.means", f"arm count {means.shape[0]} != {n_arms[0]}")
        _check_unit_interval(means, f"{path}.means")
        return means

    return MabEnv(horizon, _load_segments(spec, "spec", horizon, load))


def _make_linear(spec, horizon, kind):
    actions = _freeze(_need(spec, "actions", "spec"))
    if actions.ndim != 2 or actions.shape[0] < 1:
        _fail("spec.actions", "expected a non-empty matrix (one action per row)")
    norms = np.linalg.norm(actions, axis=1)
    if np.any(norms > 1.0 + 1e-9):
        _fail("spec.actions", f"action norms must be <= 1 (max {norms.max():.6g})")

    link, lam = None, 1.0
    if kind == "glm":
        name = _need(spec, "link", "spec")
        if name not in LINKS:
            _fail("spec.link", f"unknown link {name!r} (have {sorted(LINKS)})")
        link = LINKS[name]
        lam = float(spec.get("lam", 1.0))
        if lam <= 0:
            _fail("spec.lam", "regularization must be positive")

    def check_theta(theta, path):
        if theta.shape != (actions.shape[1],):
            _fail(path, f"dimension {theta.shape} != ({actions.shape[1]},)")
        if np.linalg.norm(theta) > 1.0 + 1e-9:
            _fail(path, f"parameter norm must be <= 1 (got {np.linalg.norm(theta):.6g})")
        vals = actions @ theta
        if link is None and (np.any(vals < -1e-9) or np.any(vals > 1.0 + 1e-9)):
            _fail(path, "linear rewards a^T theta must lie in [0, 1] for every action")

    if ("segments" in spec) == ("drift" in spec):
        _fail("spec", "exactly one of 'segments' or 'drift' is required")
    if "drift" in spec:
        drift = spec["drift"]
        if not isinstance(drift, dict) or set(drift) != {"theta_start", "theta_end"}:
            _fail("spec.drift", "expected keys theta_start, theta_end")
        lo = _freeze(drift["theta_start"])
        hi = _freeze(drift["theta_end"])
        check_theta(lo, "spec.drift.theta_start")
        check_theta(hi, "spec.drift.theta_end")
        return LinearEnv(horizon, actions, None, drift=(lo, hi), link=link, lam=lam)

    def load(seg, path):
        theta = _freeze(_need(seg, "theta", path))
        check_theta(theta, f"{path}.theta")
        return theta

    return LinearEnv(
        horizon, actions, _load_segments(spec, "spec", horizon, load), link=link, lam=lam
    )


def _make_episodic(spec, horizon):
    s = _as_positive_int(_need(spec, "S", "spec"), "spec.S")
    a = _as_positive_int(_need(spec, "A", "spec"), "spec.A")
    h = _as_positive_int(_need(spec, "H", "spec"), "spec.H")
    s1 = spec.get("s1", 0)
    if not isinstance(s1, int) or not (0 <= s1 < s):
        _fail("spec.s1", f"initial state must lie in [0, {s})")

    def load(seg, path):
        rewards = _freeze(_need(seg, "rewards", path))
        trans = _freeze(_need(seg, "transitions", path))
        if rewards.shape != (h, s, a):
            _fail(f"{path}.rewards", f"shape {rewards.shape} != {(h, s, a)}")
        if trans.shape != (h, s, a, s):
            _fail(f"{path}.transitions", f"shape {trans.shape} != {(h, s, a, s)}")
        _check_unit_interval(rewards, f"{path}.rewards")
        _check_spec_transitions(trans, f"{path}.transitions", ("layer", "state", "action"))
        return (rewards, trans)

    return EpisodicEnv(horizon, s, a, h, _load_segments(spec, "spec", horizon, load), init_state=s1)


def _make_infinite(spec, horizon):
    s = _as_positive_int(_need(spec, "S", "spec"), "spec.S")
    a = _as_positive_int(_need(spec, "A", "spec"), "spec.A")
    s0 = spec.get("s0", 0)
    if not isinstance(s0, int) or not (0 <= s0 < s):
        _fail("spec.s0", f"initial state must lie in [0, {s})")

    def load(seg, path):
        rewards = _freeze(_need(seg, "rewards", path))
        trans = _freeze(_need(seg, "transitions", path))
        if rewards.shape != (s, a):
            _fail(f"{path}.rewards", f"shape {rewards.shape} != {(s, a)}")
        if trans.shape != (s, a, s):
            _fail(f"{path}.transitions", f"shape {trans.shape} != {(s, a, s)}")
        _check_unit_interval(rewards, f"{path}.rewards")
        _check_spec_transitions(trans, f"{path}.transitions", ("state", "action"))
        return (rewards, trans)

    env = InfiniteEnv(horizon, s, a, _load_segments(spec, "spec", horizon, load), init_state=s0)
    for b in env._segments.bounds[:-1]:
        t = int(b) + 1
        try:
            env.diameter(t)
        except ValueError as exc:
            _fail("spec.segments", f"segment starting at round {t}: {exc}")
    return env


def load_env(path_or_text):
    """Load an environment spec from a JSON file path or a JSON string."""
    text = path_or_text
    if not text.lstrip().startswith("{"):
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EnvSpecError(f"spec: invalid JSON ({exc})") from None
    return make_env(spec)

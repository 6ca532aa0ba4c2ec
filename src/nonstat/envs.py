"""Time-varying environments with exact oracles.

Five environment kinds share one interface: a finite policy set indexed by
integers, a per-round expected reward f_t(pi), an exact per-round optimum
f*_t, and a sampler (play; step for a continuing MDP) producing a noisy
reward in [0, 1] together with the feedback payload the matching base
algorithm consumes.

All parameters are stored per stationary segment (length, payload) so that
million-round traces stay cheap; per-round quantities are resolved lazily.
Every kind keeps its optimum f*_t in one memo per segment, computed at the
first round that asks from the segment's optimum the kind supplies.  The
three bandit kinds share one body, which memoizes each action's mean per
segment at its first play.  Drifting bandits, which have no segments,
compute both every round.  A segment lookup tries the last segment found
before it bisects.
Environments are immutable after construction: building twice from the same
spec yields bitwise-identical objects, and sampling takes an external RNG.
Every draw from it is rng.random() with no arguments, one double: the
control loops (nonstat.master) pass a stream that serves those doubles
from one chunked draw, and rely on that.

The continuing MDP's segment optimum J* (extended value iteration) is a
pure function of the segment's payload, a C-ordered float64 array that its
shape and bytes determine.  So it is memoized per process under that key
(_segment_gain), filled at the first read: a later read, in this build or
in a later build of any spec with an equal segment, does not solve it
again and reads the bits a fresh solve gives.  The memo keeps at most
SEGMENT_MEMO_SIZE segments, least recently used first out; a failure is
not memoized.  A segment's diameter (hitting-time iteration) is solved at
each read, as each of its readers (InfiniteEnv.diameter, max_diameter,
nonstat diameter) reads a segment once.  The loader's communicating check
solves neither: it is the structural reachability test of
mdp._check_communicating, run on every segment at every build, so a bad
spec raises on every build.

Per-round drift traces Delta(t) are matched to the base learner each kind
takes (the measure under which it satisfies its near-stationarity
contract), with the displayed log prefactors kept and all hidden Theta
constants set to 1.
Episodic quantities are divided by the layer count H so rewards and values
live in [0, 1].
"""

from __future__ import annotations

import bisect
import functools
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
# the process-wide memo of the continuing MDP's segment gain

SEGMENT_MEMO_SIZE = 64


def _bytes(a) -> bytes:
    """The bytes of a as a float64 array in C order: with its shape, a memo key."""
    return np.asarray(a, dtype=np.float64).tobytes()


def _thaw(data: bytes, shape: tuple) -> np.ndarray:
    """A fresh C-ordered float64 array of shape holding data: a payload as _freeze made it."""
    return np.frombuffer(data).reshape(shape).copy()


@functools.lru_cache(maxsize=SEGMENT_MEMO_SIZE)
def _segment_gain(shape: tuple, trans: bytes, rewards: bytes) -> float:
    """mdp.optimal_gain of the segment whose (S, A, S) transitions and (S, A)
    rewards have these bytes, shape being the transitions' shape.

    A key holds the payload's 8*S*A*(S+1) bytes, so the memo holds at most
    SEGMENT_MEMO_SIZE times that: 111 KB for segments with S=8, A=3, and
    17 MB for segments with S=64, A=8.
    """
    from . import mdp

    return mdp.optimal_gain(_thaw(trans, shape), _thaw(rewards, shape[:2]))


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


class _Env:
    """What every kind shares: the parameter of a round and the per-segment memo
    of the optimum f*_t.  A kind supplies _optimum(parameter)."""

    def __init__(self, horizon, segments, drift=None):
        self.horizon = int(horizon)
        self._segments = segments
        self._drift = drift  # (start, end) parameters of a drifting bandit, which has no segments
        self._opt_cache = {}  # segment index -> f*, filled at the first round that asks

    def _param(self, t: int):
        """The parameter of round t: its segment's payload, or (1-w)*start + w*end on a drift."""
        if not (1 <= t <= self.horizon):
            raise ValueError(f"round {t} outside [1, {self.horizon}]")
        if self._drift is None:
            return self._segments.at(t)
        lo, hi = self._drift
        w = 0.0 if self.horizon == 1 else (t - 1) / (self.horizon - 1)
        return (1.0 - w) * lo + w * hi

    def optimal_value(self, t: int) -> float:
        if self._drift is None and 1 <= t <= self.horizon:
            i = self._segments.index_of(t)
            opt = self._opt_cache.get(i)
            if opt is None:
                opt = self._opt_cache[i] = self._optimum(self._segments.payloads[i])
            return opt
        return self._optimum(self._param(t))


class _BanditEnv(_Env):
    """A bandit whose policies are its actions.  A kind supplies _mean(t, pid),
    one action's mean at round t, and _values(parameter), every action's."""

    def __init__(self, horizon, segments, drift):
        super().__init__(horizon, segments, drift)
        # per segment, the mean of each action played there, filled at its first play
        self._means = None if segments is None else [{} for _ in segments.payloads]

    def f(self, t: int, pid: int) -> float:
        """The mean of action pid at round t.  Raises ValueError, naming the
        round and the id, unless pid is an integer (not a bool) in
        [0, n_policies); a round served from the memo holds a checked id."""
        # int ids only: a float id equal to a played one must reach _check_pid
        if self._means is not None and 1 <= t <= self.horizon and type(pid) is int:
            means = self._means[self._segments.index_of(t)]
            try:
                return means[pid]
            except KeyError:
                pass
            self._check_pid(t, pid)
            m = means[pid] = self._mean(t, pid)
            return m
        self._check_pid(t, pid)
        return self._mean(t, pid)

    def _check_pid(self, t: int, pid):
        if not ((type(pid) is int or isinstance(pid, np.integer)) and 0 <= pid < self.n_policies):
            raise ValueError(f"round {t}: policy id {pid!r} must be an integer in [0, {self.n_policies})")

    def _optimum(self, param) -> float:
        return float(self._values(param).max())

    def play(self, t: int, pid: int, rng):
        m = self.f(t, pid)
        r = 1.0 if rng.random() < m else 0.0
        return r, (pid, r)


class MabEnv(_BanditEnv):
    kind = "mab"

    def __init__(self, horizon, segments, drift=None):
        super().__init__(horizon, segments, drift)  # drift: (means_start, means_end) or None
        self.n_arms = len(drift[0] if drift is not None else segments.payloads[0])
        self.n_policies = self.n_arms

    means = _Env._param

    def _mean(self, t: int, pid: int) -> float:
        return float(self.means(t)[pid])

    def _values(self, means) -> np.ndarray:
        return means


class LinearEnv(_BanditEnv):
    """Finite-action linear bandit; the GLM variant adds a link function."""

    def __init__(self, horizon, actions, segments, drift=None, link=None, lam=1.0):
        super().__init__(horizon, segments, drift)  # drift: (theta_start, theta_end) or None
        self.actions = actions  # (K, d)
        self.dim = actions.shape[1]
        self.n_policies = actions.shape[0]
        self.link = link
        self.lam = float(lam)
        self.kind = "glm" if link is not None else "linear"

    theta = _Env._param

    def _mean(self, t: int, pid: int) -> float:
        # the per-row dot: a gemv over all actions may round differently
        v = float(self.actions[pid] @ self.theta(t))
        return float(self.link.mu(v)) if self.link is not None else v

    def _values(self, theta) -> np.ndarray:
        v = self.actions @ theta
        return self.link.mu(v) if self.link is not None else v


class EpisodicEnv(_Env):
    """Layered tabular MDP; one framework round = one H-step episode.

    Values fed to the reduction are divided by H so that f_t(pi) lies in
    [0, 1].  Per-step rewards are deterministic given (h, s, a); the noise
    in the round reward comes from sampled transitions.
    """

    kind = "episodic"

    def __init__(self, horizon, n_states, n_actions, n_layers, segments, init_state=0):
        super().__init__(horizon, segments)  # payload: (rewards (H,S,A), transitions (H,S,A,S))
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        self.n_layers = int(n_layers)
        self.init_state = int(init_state)
        self.n_policies = n_actions ** (n_states * n_layers)
        self._tables = [_sampling_tables(r, p, ("layer", "state", "action")) for r, p in segments.payloads]
        # place value of digit h*S + s of a policy id: decode_layer_policy's table[h, s]
        self._places = [self.n_actions**i for i in range(self.n_layers * self.n_states)]

    def _optimum(self, param) -> float:
        """Optimal value of the initial state, by backward induction."""
        rewards, trans = param
        v = np.zeros(self.n_states)
        for h in range(self.n_layers - 1, -1, -1):
            q = rewards[h] + trans[h] @ v  # (S, A)
            v = q.max(axis=1)
        return float(v[self.init_state]) / self.n_layers

    def policy_value(self, t: int, pid: int) -> float:
        """Exact f_t(pi) for an encoded layer policy, by policy evaluation."""
        rewards, trans = self._param(t)
        table = decode_layer_policy(pid, self.n_layers, self.n_states, self.n_actions)
        v = np.zeros(self.n_states)
        idx = np.arange(self.n_states)
        for h in range(self.n_layers - 1, -1, -1):
            a = table[h]
            v = rewards[h, idx, a] + trans[h, idx, a] @ v
        return float(v[self.init_state]) / self.n_layers

    f = policy_value

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


class InfiniteEnv(_Env):
    """Continuing tabular MDP; one framework round = one state transition."""

    kind = "infinite"

    def __init__(self, horizon, n_states, n_actions, segments, init_state=0):
        super().__init__(horizon, segments)  # payload: (rewards (S,A), transitions (S,A,S))
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        self.init_state = int(init_state)
        self.n_policies = n_actions**n_states
        self._tables = [_sampling_tables(r, p, ("state", "action")) for r, p in segments.payloads]
        self._places = [self.n_actions**i for i in range(self.n_states)]  # place value of each policy-id digit

    def policy_action(self, pid: int, state: int) -> int:
        """The action policy pid takes in state: decode_policy(pid, S, A)[state]."""
        return int(pid) // self._places[state] % self.n_actions

    def _optimum(self, param) -> float:
        """Optimal gain J*, from exact-model extended value iteration (memoized per process)."""
        rewards, trans = param
        return _segment_gain(trans.shape, _bytes(trans), _bytes(rewards))

    def f(self, t: int, pid: int) -> float:
        """Gain of the encoded stationary policy starting from init_state."""
        rewards, trans = self._param(t)
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
        """Diameter of round t's segment, solved at each read; the loader
        checks only that the segment communicates."""
        from . import mdp

        _, trans = self._param(t)
        return mdp.compute_diameter(trans)

    def segment_diameters(self):
        """Yield (first round, diameter) of each segment; a ValueError names the segment's first round."""
        return self._each_segment(self.diameter)

    def _each_segment(self, read):
        """Yield (first round, read(first round)) of each segment; a ValueError names the segment's first round."""
        for t in (self._segments.bounds[:-1] + 1).tolist():
            try:
                value = read(t)
            except ValueError as exc:
                raise ValueError(f"segment starting at round {t}: {exc}") from None
            yield t, value

    def max_diameter(self) -> float:
        return max(diameter for _, diameter in self.segment_diameters())


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


def _parameter_changes(env):
    """Yield (t, parameter_t, parameter_t1) for each round t < T after which the
    parameter changes: every round of a drift, the last round of each segment."""
    if env._drift is not None:
        for t in range(1, env.horizon):
            yield t, env._param(t), env._param(t + 1)
        return
    segs = env._segments
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

    if isinstance(env, _BanditEnv):
        if isinstance(env, MabEnv):
            scale, norm = 1.0, lambda x: np.abs(x).max()  # sup-norm, unscaled (1.0 * x == x exactly)
        else:
            d, link = env.dim, env.link
            scale = (d if link is None else link.k_mu**2 * d / link.c_mu) * math.sqrt(math.log(T / delta))
            norm = np.linalg.norm
        for t, lo, hi in _parameter_changes(env):
            trace[t - 1] = scale * float(norm(lo - hi))
    elif isinstance(env, EpisodicEnv):
        h = env.n_layers
        for t, (r0, p0), (r1, p1) in _parameter_changes(env):
            dr = np.abs(r0 - r1).max(axis=(1, 2)).sum()
            dp = np.abs(p0 - p1).sum(axis=3).max(axis=(1, 2)).sum()
            # displayed measure H*sum dr + H^2*sum dp, scaled down by H
            trace[t - 1] = float(dr + h * dp)
    elif isinstance(env, InfiniteEnv):
        n_pol = env.n_policies
        if n_pol > MAX_GAIN_DRIFT_POLICIES:
            raise ValueError(f"the average-reward drift measure enumerates every policy and needs "
                             f"A^S <= {MAX_GAIN_DRIFT_POLICIES}, got {n_pol}")
        for t, (r0, p0), (r1, p1) in _parameter_changes(env):
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


def _as_state(value, n_states, path):
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < n_states:
        _fail(path, f"initial state must lie in [0, {n_states}), got {value!r}")
    return value


def _freeze(a):
    a = np.array(a, dtype=np.float64, order="C")
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


def _bandit_params(spec, horizon, name, check):
    """(segments, drift) of a bandit spec, exactly one of them given: a vector
    under key name in each segment, validated by check(vector, path), or the
    drift pair (start, end) under name_start and name_end, left to the caller."""
    if ("segments" in spec) == ("drift" in spec):
        _fail("spec", "exactly one of 'segments' or 'drift' is required")
    if "segments" in spec:

        def load(seg, path):
            vector = _freeze(_need(seg, name, path))
            check(vector, f"{path}.{name}")
            return vector

        return _load_segments(spec, "spec", horizon, load), None
    drift, keys = spec["drift"], (f"{name}_start", f"{name}_end")
    if not isinstance(drift, dict) or set(drift) != set(keys):
        _fail("spec.drift", f"expected keys {keys[0]}, {keys[1]}")
    return None, (_freeze(drift[keys[0]]), _freeze(drift[keys[1]]))


def _make_mab(spec, horizon):
    n_arms = [None]

    def check(means, path):
        if means.ndim != 1:
            _fail(path, "expected a vector")
        if n_arms[0] is None:
            n_arms[0] = means.shape[0]
        elif means.shape[0] != n_arms[0]:
            _fail(path, f"arm count {means.shape[0]} != {n_arms[0]}")
        _check_unit_interval(means, path)

    segments, drift = _bandit_params(spec, horizon, "means", check)
    if drift is not None:
        lo, hi = drift
        if lo.ndim != 1 or lo.shape != hi.shape:
            _fail("spec.drift", "means_start and means_end must be equal-length vectors")
        _check_unit_interval(lo, "spec.drift.means_start")
        _check_unit_interval(hi, "spec.drift.means_end")
    return MabEnv(horizon, segments, drift)


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
        lam = spec.get("lam", 1.0)
        if not isinstance(lam, (int, float)) or isinstance(lam, bool) or not 0 < lam < math.inf:
            _fail("spec.lam", f"regularization must be a finite positive number, got {lam!r}")

    def check_theta(theta, path):
        if theta.shape != (actions.shape[1],):
            _fail(path, f"dimension {theta.shape} != ({actions.shape[1]},)")
        if np.linalg.norm(theta) > 1.0 + 1e-9:
            _fail(path, f"parameter norm must be <= 1 (got {np.linalg.norm(theta):.6g})")
        vals = actions @ theta
        if link is None and (np.any(vals < -1e-9) or np.any(vals > 1.0 + 1e-9)):
            _fail(path, "linear rewards a^T theta must lie in [0, 1] for every action")

    segments, drift = _bandit_params(spec, horizon, "theta", check_theta)
    if drift is not None:
        check_theta(drift[0], "spec.drift.theta_start")
        check_theta(drift[1], "spec.drift.theta_end")
    return LinearEnv(horizon, actions, segments, drift=drift, link=link, lam=lam)


def _mdp_segments(spec, horizon, shape, axes):
    """Segments of (rewards, transitions) pairs: rewards of the given shape, and
    transitions with one more axis, over next states; axes names shape's axes."""
    trans_shape = shape + (shape[-2],)  # shape ends (S, A)

    def load(seg, path):
        rewards = _freeze(_need(seg, "rewards", path))
        trans = _freeze(_need(seg, "transitions", path))
        if rewards.shape != shape:
            _fail(f"{path}.rewards", f"shape {rewards.shape} != {shape}")
        if trans.shape != trans_shape:
            _fail(f"{path}.transitions", f"shape {trans.shape} != {trans_shape}")
        _check_unit_interval(rewards, f"{path}.rewards")
        try:
            _check_transitions(trans, axes)
        except ValueError as exc:
            _fail(f"{path}.transitions", str(exc))
        return (rewards, trans)

    return _load_segments(spec, "spec", horizon, load)


def _make_episodic(spec, horizon):
    s = _as_positive_int(_need(spec, "S", "spec"), "spec.S")
    a = _as_positive_int(_need(spec, "A", "spec"), "spec.A")
    h = _as_positive_int(_need(spec, "H", "spec"), "spec.H")
    s1 = _as_state(spec.get("s1", 0), s, "spec.s1")
    segments = _mdp_segments(spec, horizon, (h, s, a), ("layer", "state", "action"))
    return EpisodicEnv(horizon, s, a, h, segments, init_state=s1)


def _make_infinite(spec, horizon):
    from . import mdp

    s = _as_positive_int(_need(spec, "S", "spec"), "spec.S")
    a = _as_positive_int(_need(spec, "A", "spec"), "spec.A")
    s0 = _as_state(spec.get("s0", 0), s, "spec.s0")
    segments = _mdp_segments(spec, horizon, (s, a), ("state", "action"))
    env = InfiniteEnv(horizon, s, a, segments, init_state=s0)
    try:  # every segment must communicate; its diameter is solved only where it is read
        for _ in env._each_segment(lambda t: mdp._check_communicating(env._param(t)[1])):
            pass
    except ValueError as exc:
        _fail("spec.segments", str(exc))
    return env


def load_env(path):
    """Load an environment spec from a JSON file; make_env(json.loads(text)) takes JSON text."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise EnvSpecError(f"spec: invalid JSON ({exc})") from None
    return make_env(spec)

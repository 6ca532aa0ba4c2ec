"""Lazy read-side state: the learners against their eager reference code.

Ucb1, Oful and GlmUcb compute their score vector (and GlmUcb its fit) at
the first read after an update.  The reference classes below are the eager
implementations: they recompute the scores at every read, and the GLM one
calls glm_solve after every update.  Everything observable must agree bit
for bit: predict, act, theta and the snapshot JSON.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import nonstat.base
from nonstat.base import (
    GlmSolveError,
    GlmUcb,
    Oful,
    Ucb1,
    _clamp01,
    _decision,
    _glm_prior_scores,
    _Learner,
    _ucb1_prior_scores,
    glm_solve,
    restore,
    snapshot_to_json,
)
from nonstat.envs import LINKS
from nonstat.harness import seed_derive

ACTIONS = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.6], [-0.5, 0.8]]


class EagerUcb1(_Learner):
    name = "ucb1"
    _fields = ("counts", "sums", "t_int")

    def __init__(self, n_arms, horizon, delta, bonus_scale=2.0):
        self.n_arms, self.horizon, self.delta, self.bonus_scale = n_arms, horizon, delta, bonus_scale
        self._log_term = math.log(horizon / delta)
        self.counts = np.zeros(n_arms)
        self.sums = np.zeros(n_arms)
        self.t_int = 0

    def _params(self):
        return {"n_arms": self.n_arms, "horizon": self.horizon, "delta": self.delta,
                "bonus_scale": self.bonus_scale}

    def _indexes(self):
        nplus = np.maximum(self.counts, 1.0)
        return self.sums / nplus + self.bonus_scale * np.sqrt(self._log_term / nplus)

    def predict(self):
        return _clamp01(float(self._indexes().max()))

    def act(self):
        return int(np.argmax(self._indexes()))

    def update(self, feedback):
        arm, reward = feedback
        self.counts[arm] += 1.0
        self.sums[arm] += reward
        self.t_int += 1


class EagerOful(_Learner):
    name = "oful"
    _fields = ("lam_mat", "lam_inv", "bvec", "t_int", "_since_refactor")

    def __init__(self, actions, horizon, delta, refactor_every=1024):
        self.actions = np.asarray(actions, dtype=np.float64)
        self.dim = self.actions.shape[1]
        self.horizon, self.delta, self.refactor_every = horizon, delta, refactor_every
        self.beta = 4.0 * math.sqrt(self.dim * math.log(horizon / delta))
        self.lam_mat = np.eye(self.dim)
        self.lam_inv = np.eye(self.dim)
        self.bvec = np.zeros(self.dim)
        self.t_int = 0
        self._since_refactor = 0

    def _params(self):
        return {"actions": self.actions.tolist(), "horizon": self.horizon, "delta": self.delta,
                "refactor_every": self.refactor_every}

    def _scores(self):
        widths = np.sqrt(np.einsum("kd,de,ke->k", self.actions, self.lam_inv, self.actions))
        return self.actions @ (self.lam_inv @ self.bvec) + 2.0 * self.beta * widths

    def predict(self):
        return _clamp01(float(self._scores().max()))

    def act(self):
        return int(np.argmax(self._scores()))

    def update(self, feedback):
        arm, reward = feedback
        a = self.actions[arm]
        self.lam_mat = self.lam_mat + np.outer(a, a)
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


class EagerGlm(_Learner):
    name = "glm"
    _fields = ("counts", "rsums", "t_int", "theta")

    def __init__(self, actions, horizon, delta, link="logistic", lam=1.0):
        self.actions = np.asarray(actions, dtype=np.float64)
        self.dim = self.actions.shape[1]
        self.horizon, self.delta, self.link_name, self.lam = horizon, delta, link, lam
        self.link = LINKS[link]
        k_mu, c_mu = self.link.k_mu, self.link.c_mu
        self.beta = (4.0 * k_mu / c_mu) * (
            math.sqrt(self.dim * math.log(c_mu * horizon / (lam * delta))) + c_mu * math.sqrt(lam)
        )
        self.counts = np.zeros(self.actions.shape[0])
        self.rsums = np.zeros(self.actions.shape[0])
        self.t_int = 0
        self.theta = np.zeros(self.dim)

    def _params(self):
        return {"actions": self.actions.tolist(), "horizon": self.horizon, "delta": self.delta,
                "link": self.link_name, "lam": self.lam}

    def _scores(self):
        lam_inv = np.linalg.inv(self.lam * np.eye(self.dim) + (self.actions.T * self.counts) @ self.actions)
        widths = np.sqrt(np.einsum("kd,de,ke->k", self.actions, lam_inv, self.actions))
        return np.asarray(self.link.mu(self.actions @ self.theta)) + 2.0 * self.beta * widths

    def predict(self):
        return _clamp01(float(self._scores().max()))

    def act(self):
        return int(np.argmax(self._scores()))

    def update(self, feedback):
        arm, reward = feedback
        self.counts[arm] += 1.0
        self.rsums[arm] += reward
        self.t_int += 1
        _, self.theta = glm_solve(self.actions, self.counts, self.rsums @ self.actions, self.lam, self.link)


CASES = {
    "ucb1": (Ucb1, EagerUcb1, dict(n_arms=4, horizon=512, delta=1 / 512)),
    "oful": (Oful, EagerOful, dict(actions=ACTIONS, horizon=512, delta=1 / 512, refactor_every=16)),
    "glm": (GlmUcb, EagerGlm, dict(actions=ACTIONS, horizon=512, delta=1 / 512)),
}


@pytest.mark.parametrize("algo", sorted(CASES))
@pytest.mark.parametrize("seed", range(3))
def test_lazy_learner_matches_eager_reference(algo, seed):
    lazy_cls, eager_cls, params = CASES[algo]
    lazy, eager = lazy_cls(**params), eager_cls(**params)
    rng = seed_derive(seed, 0, f"lazy-{algo}")
    n_arms = 4
    for step in range(60):
        # reads come in any number (none included) between updates
        for _ in range(int(rng.integers(0, 3))):
            assert lazy.predict() == eager.predict()
            assert lazy.act() == eager.act()
        if algo == "glm" and rng.random() < 0.3:
            assert np.array_equal(lazy.theta, eager.theta)
        if rng.random() < 0.2:
            assert snapshot_to_json(lazy) == snapshot_to_json(eager)
        # the played arm is sometimes the learner's choice, sometimes not
        arm = eager.act() if rng.random() < 0.5 else int(rng.integers(0, n_arms))
        feedback = (arm, float(rng.random() < 0.4 + 0.1 * arm))
        lazy.update(feedback)
        eager.update(feedback)
    assert snapshot_to_json(lazy) == snapshot_to_json(eager)
    assert lazy.predict() == eager.predict()
    assert lazy.act() == eager.act()


@pytest.mark.parametrize("algo", sorted(CASES))
def test_restored_learner_starts_with_empty_cache(algo):
    lazy_cls, _, params = CASES[algo]
    inst = lazy_cls(**params)
    for arm in (0, 1, 2, 1):
        inst.predict()
        inst.update((arm, 1.0))
    blob = snapshot_to_json(inst)
    clone = restore(blob)
    assert clone._score_cache is None
    assert clone.predict() == inst.predict()
    assert clone.act() == inst.act()
    assert json.loads(snapshot_to_json(clone)) == json.loads(blob)


def _failing_solve(*args, **kwargs):
    raise GlmSolveError("scripted failure")


def test_glm_solve_error_raised_at_first_read(monkeypatch):
    inst = GlmUcb(ACTIONS, 512, 1 / 512)
    monkeypatch.setattr(nonstat.base, "glm_solve", _failing_solve)
    inst.update((0, 1.0))  # the fit is only marked stale: no error here
    inst.update((2, 0.0))
    with pytest.raises(GlmSolveError):
        inst.predict()
    # a failed fit stays stale, so every later read raises too
    with pytest.raises(GlmSolveError):
        inst.act()
    with pytest.raises(GlmSolveError):
        inst.snapshot()
    with pytest.raises(GlmSolveError):
        inst.theta  # noqa: B018
    monkeypatch.undo()
    eager = EagerGlm(ACTIONS, 512, 1 / 512)
    eager.update((0, 1.0))
    eager.update((2, 0.0))
    assert inst.predict() == eager.predict()
    assert np.array_equal(inst.theta, eager.theta)


def test_glm_fit_never_read_never_raises(monkeypatch):
    monkeypatch.setattr(nonstat.base, "glm_solve", _failing_solve)
    inst = GlmUcb(ACTIONS, 512, 1 / 512)
    assert inst.predict() == 1.0  # the data-free estimate needs no fit
    inst.act()
    inst.update((1, 1.0))  # then the instance is discarded unread


@pytest.mark.parametrize(
    "scores",
    [[0.3, 0.7, 0.7], [-0.0, 0.0], [0.0, -0.0], [-1.0, -0.0], [math.nan, 1.0, math.nan], [1.0, math.nan],
     [2.0, 1.5], [-0.5, -0.25], [math.inf, math.inf], [0.5]],
)
def test_decision_reads_what_max_and_argmax_read(scores):
    scores = np.array(scores)
    entry = _decision(scores)
    assert entry[0] is scores
    assert repr(entry[1]) == repr(_clamp01(float(scores.max())))
    assert entry[2] == int(np.argmax(scores))


# ---------------------------------------------------------------------------
# the shared score vector of GLM-UCB learners without data


@st.composite
def glm_params(draw):
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    actions = draw(hnp.arrays(np.float64, (k, d), elements=st.floats(-1.0, 1.0)))
    return dict(
        actions=actions,
        horizon=draw(st.integers(16, 4096)),
        delta=draw(st.floats(1e-4, 0.5)),
        link=draw(st.sampled_from(sorted(LINKS))),
        lam=draw(st.floats(0.1, 2.0)),
    )


@settings(max_examples=100, deadline=None)
@given(glm_params())
def test_glm_prior_scores_equal_fresh_eager_scores(params):
    inst, eager = GlmUcb(**params), EagerGlm(**params)
    cached = inst._scores()
    assert cached.dtype == eager._scores().dtype
    assert cached.tobytes() == eager._scores().tobytes()
    assert inst.predict() == eager.predict()
    assert inst.act() == eager.act()
    with pytest.raises(ValueError):
        cached[0] = 0.0  # one array serves every such learner: it is read-only


def test_fresh_glm_learners_share_the_prior_scores():
    _glm_prior_scores.cache_clear()
    first, second = GlmUcb(ACTIONS, 512, 1 / 512), GlmUcb(ACTIONS, 512, 1 / 512)
    assert first.predict() == second.predict()
    assert first._scores() is second._scores()
    info = _glm_prior_scores.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # a learner restored from a data-free snapshot is data-free too
    assert restore(snapshot_to_json(first))._scores() is first._scores()


BASE_GLM = dict(actions=np.array(ACTIONS), horizon=512, delta=1 / 512, link="logistic", lam=1.0)


@pytest.mark.parametrize(
    "change",
    [
        dict(actions=np.array(ACTIONS).reshape(2, 4)),  # same bytes, another shape
        dict(actions=np.array(ACTIONS)[::-1].copy()),
        dict(horizon=1024),
        dict(delta=1 / 1024),
        dict(link="identity"),
        dict(lam=0.5),
    ],
)
def test_glm_prior_scores_key_on_every_parameter(change):
    GlmUcb(**BASE_GLM)._scores()  # the base entry is cached
    params = dict(BASE_GLM, **change)
    assert GlmUcb(**params)._scores().tobytes() == EagerGlm(**params)._scores().tobytes()


def _with_data(inst):
    inst.update((2, 1.0))


def _with_theta(inst):
    inst.theta = np.array([0.0, 0.25])


def _with_counts_only(inst):
    inst.counts[1] = 1.0


def _with_time_only(inst):
    inst.t_int = 1


def _restored_with_data(inst):
    _with_data(inst)
    return restore(snapshot_to_json(inst))


@pytest.mark.parametrize(
    "make_state", [_with_data, _with_theta, _with_counts_only, _with_time_only, _restored_with_data]
)
def test_glm_learner_with_state_never_takes_the_prior(monkeypatch, make_state):
    inst = GlmUcb(ACTIONS, 512, 1 / 512)
    inst = make_state(inst) or inst

    def no_prior(*args):
        raise AssertionError("a learner with state took the data-free scores")

    monkeypatch.setattr(nonstat.base, "_glm_prior_scores", no_prior)
    eager = EagerGlm(ACTIONS, 512, 1 / 512)
    eager.counts, eager.t_int, eager.theta = inst.counts.copy(), inst.t_int, inst.theta.copy()
    assert inst.predict() == eager.predict()
    assert inst.act() == eager.act()
    assert inst._scores().flags.writeable


# ---------------------------------------------------------------------------
# the shared decision of UCB1 learners without data


@st.composite
def ucb1_params(draw):
    return dict(
        n_arms=draw(st.integers(1, 8)),
        horizon=draw(st.integers(16, 4096)),
        delta=draw(st.floats(1e-4, 0.5)),
        bonus_scale=draw(st.floats(0.0, 4.0)),
    )


@settings(max_examples=100, deadline=None)
@given(ucb1_params())
def test_ucb1_prior_scores_equal_fresh_eager_scores(params):
    inst, eager = Ucb1(**params), EagerUcb1(**params)
    cached = inst._scores()
    assert cached is _ucb1_prior_scores(
        params["n_arms"], params["horizon"], params["delta"], params["bonus_scale"]
    )[0]
    assert cached.dtype == eager._indexes().dtype
    assert cached.tobytes() == eager._indexes().tobytes()
    assert inst.predict() == eager.predict()
    assert inst.act() == eager.act()
    with pytest.raises(ValueError):
        cached[0] = 0.0  # one array serves every such learner: it is read-only


def test_fresh_ucb1_learners_share_the_prior_scores():
    _ucb1_prior_scores.cache_clear()
    first, second = Ucb1(4, 512, 1 / 512), Ucb1(4, 512, 1 / 512)
    assert first.predict() == second.predict()
    assert first._scores() is second._scores()
    info = _ucb1_prior_scores.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # a learner restored from a data-free snapshot is data-free too
    assert restore(snapshot_to_json(first))._scores() is first._scores()


BASE_UCB1 = dict(n_arms=4, horizon=512, delta=1 / 512, bonus_scale=2.0)


@pytest.mark.parametrize(
    "change", [dict(n_arms=3), dict(horizon=1024), dict(delta=1 / 1024), dict(bonus_scale=1.0)]
)
def test_ucb1_prior_scores_key_on_every_parameter(change):
    base = Ucb1(**BASE_UCB1)._scores()  # the base entry is cached
    params = dict(BASE_UCB1, **change)
    scores = Ucb1(**params)._scores()
    assert scores is not base
    assert scores.tobytes() == EagerUcb1(**params)._indexes().tobytes()


def _ucb1_counts_only(inst):
    inst.counts[1] = 1.0


def _ucb1_sums_only(inst):
    inst.sums[1] = 0.5


def _ucb1_time_only(inst):
    inst.t_int = 1


def _ucb1_restored_with_data(inst):
    inst.update((2, 1.0))
    return restore(snapshot_to_json(inst))


@pytest.mark.parametrize(
    "make_state", [_ucb1_counts_only, _ucb1_sums_only, _ucb1_time_only, _ucb1_restored_with_data]
)
def test_ucb1_learner_with_state_never_takes_the_prior(monkeypatch, make_state):
    inst = Ucb1(4, 512, 1 / 512)
    inst = make_state(inst) or inst

    def no_prior(*args):
        raise AssertionError("a learner with state took the data-free scores")

    monkeypatch.setattr(nonstat.base, "_ucb1_prior_scores", no_prior)
    eager = EagerUcb1(4, 512, 1 / 512)
    eager.counts, eager.sums, eager.t_int = inst.counts.copy(), inst.sums.copy(), inst.t_int
    assert inst.predict() == eager.predict()
    assert inst.act() == eager.act()
    assert inst._scores().tobytes() == eager._indexes().tobytes()
    assert inst._scores().flags.writeable


# ---------------------------------------------------------------------------
# UCB1's score vector, kept current by update once it is built

_UCB1_REWARDS = st.one_of(
    st.sampled_from([0.0, 1.0, -0.0, math.nan, math.inf, -math.inf, 1e300]), st.floats(0.0, 1.0)
)


@st.composite
def ucb1_scripts(draw):
    """Parameters, then (reads before the update, arm, reward) steps and the
    step before which the learner is snapshotted and restored."""
    params = draw(ucb1_params())
    step = st.tuples(st.integers(0, 3), st.integers(0, params["n_arms"] - 1), _UCB1_REWARDS)
    steps = draw(st.lists(step, max_size=200))
    return params, steps, draw(st.integers(0, len(steps)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the eager sums
@settings(max_examples=150, deadline=None)
@given(ucb1_scripts())
def test_ucb1_patched_scores_equal_eager_scores(script):
    params, steps, restore_at = script
    inst, eager = Ucb1(**params), EagerUcb1(**params)

    def reads_agree():
        assert inst._scores().tobytes() == eager._indexes().tobytes()
        assert repr(inst.predict()) == repr(eager.predict())
        assert inst.act() == eager.act()

    for i, (reads, arm, reward) in enumerate(steps + [(1, None, None)]):
        if i == restore_at:
            # JSON keeps no nan sign or payload, so the reference goes through it too
            inst = restore(snapshot_to_json(inst))
            eager._load_state(json.loads(snapshot_to_json(eager))["state"])
        for _ in range(reads):
            reads_agree()
        if arm is not None:
            inst.update((arm, reward))
            eager.update((arm, reward))


def test_ucb1_first_update_without_data_builds_no_vector():
    inst, eager = Ucb1(2, 512, 1 / 512), EagerUcb1(2, 512, 1 / 512)
    inst.predict()
    for learner in (inst, eager):
        learner.update((1, 1.0))
    assert inst._vector is None  # a learner that plays once and is dropped pays nothing more
    vector = inst._scores()
    for learner in (inst, eager):
        learner.update((0, 0.25))
    assert inst._scores() is vector  # patched in place, not rebuilt
    assert vector.tobytes() == eager._indexes().tobytes()

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonstat.base import GlmUcb, Oful, QUcb, Ucb1
from nonstat.envs import LINKS
from nonstat.mdp import UcrlAcw
from nonstat.rates import RateFunction


def test_rho_and_capacity_shapes():
    rf = RateFunction(c1=1.0, c2=0.0, p=0.5, c3=1.0, horizon=1024)
    assert rf.rho(1) == 1.0
    assert rf.rho(4) == 0.5
    assert 4 * rf.rho(4) == 2.0  # C(t) = t * rho(t)


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RateFunction(c1=-1.0, c2=0.0, horizon=16)
    with pytest.raises(ValueError):
        RateFunction(c1=1.0, c2=0.0, p=1.0, horizon=16)
    with pytest.raises(ValueError):
        RateFunction(c1=1.0, c2=0.0, c3=0.5, horizon=16)
    # rho dips below 1/sqrt(t): c1 too small
    with pytest.raises(ValueError):
        RateFunction(c1=0.1, c2=0.0, horizon=1024)
    # nan fails every comparison, so each coefficient's check must reject it
    for name in ("c1", "c2", "c3"):
        with pytest.raises(ValueError, match=f"{name}=nan"):
            RateFunction(**dict(dict(c1=1.0, c2=0.0, c3=1.0), **{name: math.nan}), horizon=16)
    # the horizon is a count of rounds: a bool, a float or a count below 1 is not one
    for horizon in (math.nan, 2.5, 16.0, True, 0, -4):
        with pytest.raises(ValueError, match="horizon="):
            RateFunction(c1=1.0, c2=0.0, horizon=horizon)
    assert RateFunction(c1=1.0, c2=0.0, horizon=np.int64(16)).horizon == 16


@settings(max_examples=50, deadline=None)
@given(
    c1=st.floats(1.0, 50.0),
    c2=st.floats(0.0, 50.0),
    p=st.floats(0.5, 0.95),
    horizon=st.integers(2, 4096),
)
def test_monotonicity_properties(c1, c2, p, horizon):
    rf = RateFunction(c1=c1, c2=c2, p=p, c3=max(1.0, c1 + c2), horizon=horizon)
    t = np.arange(1, horizon + 1, dtype=float)
    # rho(t) over the whole horizon, in the array form of RateFunction.rho
    rho = np.minimum(c1 * t ** (p - 1.0) + c2 / t, rf.c3)
    cap = t * rho
    assert np.all(np.diff(rho) <= 1e-12), "rho must be non-increasing"
    assert np.all(np.diff(cap) >= -1e-9), "C must be non-decreasing"
    assert np.all(rho * np.sqrt(t) >= 1.0 - 1e-9)


def test_ucb1_rate_matches_formula():
    T, delta, arms = 1024, 1 / 1024, 5
    rf = Ucb1(arms, T, delta).rate()
    lg = math.log(T / delta)
    t = 64.0
    expected = min(math.sqrt(arms * lg / t) + arms * lg / t, 1.0)
    assert rf.rho(t) == pytest.approx(expected, rel=1e-12)


def test_oful_rate_beta_inside():
    T, delta, d = 4096, 1 / 4096, 3
    rf = Oful(np.eye(d), T, delta).rate()
    lg = math.log(T / delta)
    beta = 4 * math.sqrt(d * lg)
    assert rf.rho(16.0) == pytest.approx(min(beta * math.sqrt(d * lg / 16.0), 1.0), rel=1e-12)


def test_glm_rate_uses_link_constants():
    T, delta, d = 1024, 1 / 1024, 2
    rf = GlmUcb(np.eye(d), T, delta, "logistic", lam=1.0).rate()
    k_mu, c_mu = 0.25, 0.19661193324148185
    beta = (4.0 * k_mu / c_mu) * (math.sqrt(d * math.log(c_mu * T / delta)) + c_mu)
    assert rf.c2 == 0.0
    assert rf.c1 == pytest.approx(beta * math.sqrt(d * math.log(T / delta)), rel=1e-12)


def test_qucb_rate_is_h_scaled():
    # after the 1/H scaling: rho(t) = sqrt(H^3*S*A*log/t) + H^2*S*A*log/t
    S, A, H, T = 2, 2, 3, 2048
    delta = 1 / T
    rf = QUcb(S, A, H, T, delta).rate()
    lg = math.log(S * A * T / delta)
    t = 512.0
    expected = min(math.sqrt(H**3 * S * A * lg / t) + H**2 * S * A * lg / t, 1.0)
    assert rf.rho(t) == pytest.approx(expected, rel=1e-12)


def test_ucrl_rate_cap_is_dbar():
    rf = UcrlAcw(2, 2, 4096, 1 / 4096, dbar=3.0).rate()
    assert rf.c3 == 3.0
    assert rf.rho(1.0) == 3.0  # cap binds at tiny t


def test_ucrl_rate_cap_binds():
    lg = math.log(2 * 2 * 4096 / (1 / 4096))
    val = UcrlAcw(2, 2, 4096, 1 / 4096, dbar=2.0).rate().rho(64)
    unc = 2 * 2 * math.sqrt(2 * lg / 64) + 2 * 2 * 2 * lg / 64
    assert unc > 2.0
    assert val == 2.0


def test_ucrl_rate_decays():
    rf = UcrlAcw(2, 2, 10**6, 1e-6, 2.0).rate()
    v1 = rf.rho(10**6)
    v2 = rf.rho(10**8)
    assert v2 < v1 < 2.0


# ---------------------------------------------------------------------------
# each learner's rate() against the standalone rate constructors it replaced,
# kept here verbatim as the reference


def ucb1_rate(n_arms: int, horizon: int, delta: float) -> RateFunction:
    lg = math.log(horizon / delta)
    return RateFunction(
        c1=math.sqrt(n_arms * lg), c2=n_arms * lg, p=0.5, c3=1.0, horizon=horizon
    )


def oful_rate(dim: int, horizon: int, delta: float) -> RateFunction:
    lg = math.log(horizon / delta)
    beta = 4.0 * math.sqrt(dim * lg)
    return RateFunction(c1=beta * math.sqrt(dim * lg), c2=0.0, p=0.5, c3=1.0, horizon=horizon)


def glm_rate(
    dim: int,
    horizon: int,
    delta: float,
    k_mu: float,
    c_mu: float,
    lam: float = 1.0,
) -> RateFunction:
    if not (lam > 0 and c_mu * horizon / (lam * delta) >= 1.0):  # the log below is >= 0
        raise ValueError(f"lam={lam!r}, delta={delta!r}: need lam > 0 and c_mu * horizon / (lam * delta) >= 1"
                         f" (c_mu={c_mu!r}, horizon={horizon})")
    beta = (4.0 * k_mu / c_mu) * (
        math.sqrt(dim * math.log(c_mu * horizon / (lam * delta)))
        + c_mu * math.sqrt(lam)
    )
    lg = math.log(horizon / delta)
    return RateFunction(c1=beta * math.sqrt(dim * lg), c2=0.0, p=0.5, c3=1.0, horizon=horizon)


def qucb_rate(
    n_states: int, n_actions: int, n_layers: int, horizon: int, delta: float
) -> RateFunction:
    # Rewards fed to the reduction are divided by the layer count, so the
    # rate is the episodic one scaled down by the same factor.
    lg = math.log(n_states * n_actions * horizon / delta)
    h, s, a = n_layers, n_states, n_actions
    return RateFunction(
        c1=math.sqrt(h**3 * s * a * lg),
        c2=h**2 * s * a * lg,
        p=0.5,
        c3=1.0,
        horizon=horizon,
    )


def ucrl_rate(
    n_states: int, n_actions: int, horizon: int, delta: float, dbar: float
) -> RateFunction:
    lg = math.log(n_states * n_actions * horizon / delta)
    s, a = n_states, n_actions
    return RateFunction(
        c1=dbar * s * math.sqrt(a * lg),
        c2=dbar * s * a * lg,
        p=0.5,
        c3=max(1.0, dbar),
        horizon=horizon,
    )


def rate_outcome(build):
    """The fields of build()'s rate as float hex, or its exception's type and message."""
    try:
        rf = build()
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return tuple(float(getattr(rf, name)).hex() for name in ("c1", "c2", "p", "c3", "horizon"))


@settings(max_examples=200, deadline=None)
@given(
    horizon=st.integers(1, 1 << 24),
    delta=st.one_of(st.floats(1e-9, 1.0), st.just(None)),
    n_arms=st.integers(1, 20),
    dim=st.integers(1, 6),
    link=st.sampled_from(sorted(LINKS)),
    lam=st.one_of(st.floats(1e-3, 100.0), st.integers(1, 10)),
    shape=st.tuples(st.integers(1, 8), st.integers(1, 4), st.integers(1, 6)),
    dbar=st.one_of(st.integers(1, 64), st.floats(1.0, 64.0)),
)
def test_learner_rates_equal_the_rate_constructors(horizon, delta, n_arms, dim, link, lam, shape, dbar):
    delta = 1.0 / horizon if delta is None else delta
    s, a, h = shape
    actions = np.zeros((3, dim))
    pairs = [
        (lambda: Ucb1(n_arms, horizon, delta).rate(), lambda: ucb1_rate(n_arms, horizon, delta)),
        (lambda: Oful(actions, horizon, delta).rate(), lambda: oful_rate(dim, horizon, delta)),
        (
            lambda: GlmUcb(actions, horizon, delta, link, lam).rate(),
            lambda: glm_rate(dim, horizon, delta, LINKS[link].k_mu, LINKS[link].c_mu, lam),
        ),
        (lambda: QUcb(s, a, h, horizon, delta).rate(), lambda: qucb_rate(s, a, h, horizon, delta)),
        (lambda: UcrlAcw(s, a, horizon, delta, dbar).rate(), lambda: ucrl_rate(s, a, horizon, delta, dbar)),
    ]
    for learner_rate, reference in pairs:
        assert rate_outcome(learner_rate) == rate_outcome(reference)


# ---------------------------------------------------------------------------
# the exact floor check rho(t) >= 1/sqrt(t)


def _floor_holds_exhaustively(c1, c2, p, c3, horizon):
    return all(
        min(c1 * t ** (p - 1.0) + c2 / t, c3) * math.sqrt(t) >= 1.0 - 1e-12
        for t in range(1, horizon + 1)
    )


def _floor_accepted(c1, c2, p, c3, horizon):
    try:
        RateFunction(c1=c1, c2=c2, p=p, c3=c3, horizon=horizon)
    except ValueError:
        return False
    return True


def test_floor_check_finds_a_dip_between_grid_points():
    # g(t) = c1*t^(1/4) + c2/sqrt(t) has its minimum 1 - 1e-9 at the
    # integer ts, far beyond 2^21 and between two points of a geometric grid
    ts = 2.0**30 + 777
    c1 = (1 - 1e-9) / (1.5 * ts**0.25)
    rf_args = dict(c1=c1, c2=c1 * ts**0.75 / 2, p=0.75, c3=1.0, horizon=1 << 40)
    assert (rf_args["c1"] * ts**0.25 + rf_args["c2"] / math.sqrt(ts)) < 1.0 - 1e-12
    with pytest.raises(ValueError, match="violated"):
        RateFunction(**rf_args)


def _near_critical():
    # c2 = 2*c1*(p - 1/2)*t0^p puts the stationary point of g at t0, and
    # c1 = f / (2p * t0^(p - 1/2)) makes its value there f
    def build(t0, p, f):
        c1 = f / (2.0 * p * t0 ** (p - 0.5))
        return c1, 2.0 * c1 * (p - 0.5) * t0**p, p

    return st.builds(build, st.floats(1.0, 5000.0), st.floats(0.5, 0.95), st.floats(0.999, 1.001))


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.one_of(
        st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.5, 0.95)),
        _near_critical(),
    ),
    c3=st.floats(1.0, 4.0),
    horizon=st.integers(1, 4096),
)
def test_floor_check_equals_exhaustive_check(coeffs, c3, horizon):
    c1, c2, p = coeffs
    assert _floor_accepted(c1, c2, p, c3, horizon) == _floor_holds_exhaustively(c1, c2, p, c3, horizon)

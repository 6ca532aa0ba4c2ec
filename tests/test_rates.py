import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonstat.rates import RateFunction, glm_rate, oful_rate, qucb_rate, ucb1_rate, ucrl_rate


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
    rf = ucb1_rate(arms, T, delta)
    lg = math.log(T / delta)
    t = 64.0
    expected = min(math.sqrt(arms * lg / t) + arms * lg / t, 1.0)
    assert rf.rho(t) == pytest.approx(expected, rel=1e-12)


def test_oful_rate_beta_inside():
    T, delta, d = 4096, 1 / 4096, 3
    rf = oful_rate(d, T, delta)
    lg = math.log(T / delta)
    beta = 4 * math.sqrt(d * lg)
    assert rf.rho(16.0) == pytest.approx(min(beta * math.sqrt(d * lg / 16.0), 1.0), rel=1e-12)


def test_glm_rate_uses_link_constants():
    rf = glm_rate(2, 1024, 1 / 1024, k_mu=0.25, c_mu=0.19661193324148185, lam=1.0)
    assert rf.c2 == 0.0
    assert rf.c1 > 0


def test_qucb_rate_is_h_scaled():
    # after the 1/H scaling: rho(t) = sqrt(H^3*S*A*log/t) + H^2*S*A*log/t
    S, A, H, T = 2, 2, 3, 2048
    delta = 1 / T
    rf = qucb_rate(S, A, H, T, delta)
    lg = math.log(S * A * T / delta)
    t = 512.0
    expected = min(math.sqrt(H**3 * S * A * lg / t) + H**2 * S * A * lg / t, 1.0)
    assert rf.rho(t) == pytest.approx(expected, rel=1e-12)


def test_ucrl_rate_cap_is_dbar():
    rf = ucrl_rate(2, 2, 4096, 1 / 4096, dbar=3.0)
    assert rf.c3 == 3.0
    assert rf.rho(1.0) == 3.0  # cap binds at tiny t


def test_ucrl_rate_cap_binds():
    lg = math.log(2 * 2 * 4096 / (1 / 4096))
    val = ucrl_rate(2, 2, 4096, 1 / 4096, dbar=2.0).rho(64)
    unc = 2 * 2 * math.sqrt(2 * lg / 64) + 2 * 2 * 2 * lg / 64
    assert unc > 2.0
    assert val == 2.0


def test_ucrl_rate_decays():
    rf = ucrl_rate(2, 2, 10**6, 1e-6, 2.0)
    v1 = rf.rho(10**6)
    v2 = rf.rho(10**8)
    assert v2 < v1 < 2.0


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

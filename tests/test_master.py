import csv
import functools
import hashlib
import importlib.util
import io
import itertools
import math
import operator
import os
import re
import struct
import sys
import tempfile
import threading
import types
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonstat.master
import nonstat.mdp
from nonstat.base import GlmUcb, Oful, QUcb, Ucb1
from nonstat.envs import make_env
from nonstat.harness import seed_derive
from nonstat.malg import BlockSchedule, MalgRunner, n_hat, rho_hat
from nonstat.master import (
    THRESHOLD_MEMO_SIZE,
    AverageRewardWorld,
    BanditWorld,
    RunLog,
    ThresholdTable,
    dynamic_regret,
    master_core,
    run_bare,
    run_master,
)
from nonstat.master import test1_fails as order_test_fails
from nonstat.master import test2_fails as block_test_fails
from nonstat.mdp import UcrlAcw, doubling_dbar
from nonstat.rates import RateFunction

SQRT_RATE = RateFunction(c1=1.0, c2=0.0, p=0.5, c3=1.0, horizon=1 << 20)


def mab(T, segments):
    return make_env({"kind": "mab", "T": T, "segments": segments})


def stationary(T, means=(0.2, 0.8)):
    return mab(T, [{"length": T, "means": list(means)}])


def ucb1_stack(env, T):
    delta = 1.0 / T
    return (lambda: Ucb1(env.n_arms, T, delta)), delta


class SqrtRateUcb1(Ucb1):
    """UCB1 under the scripted rate SQRT_RATE."""

    def rate(self):
        return SQRT_RATE


# ---------------------------------------------------------------------------
# test-1 / test-2 threshold arithmetic (exercised through master_core)


class ScriptedWorld:
    """Deterministic world emitting scripted (reward, g~) pairs via a
    scripted learner; used to hit exact threshold boundaries."""

    rho_factor = 6.0
    last_update_read = True  # SignalingLearner's restart_signaled is read after its update

    def __init__(self, rewards):
        self.rewards = rewards
        self.env = types.SimpleNamespace(horizon=len(rewards))  # the horizon T that master_core reads

    def play(self, t, policy, rng):
        return self.rewards[t - 1], (0, self.rewards[t - 1]), 1.0

    def extras(self, learner):
        return ()


class ScriptedLearner:
    restart_signaled = False

    def __init__(self, values, delta):
        self.values = values
        self.delta = delta  # the confidence that master_core reads
        self.i = 0

    def rate(self):
        return SQRT_RATE

    def predict(self):
        return self.values[self.i]

    def act(self):
        return 0

    def update(self, feedback):
        self.i += 1


def run_scripted(g_values, rewards, kappa, T=None):
    T = T or len(rewards)
    log = RunLog()
    learners = [ScriptedLearner(list(g_values), 1.0 / T)]

    def factory():
        # every instance shares the scripted emission stream
        inst = ScriptedLearner(learners[0].values, 1.0 / T)
        inst.i = learners[0].i
        return inst

    master_core(
        ScriptedWorld(rewards),
        factory,
        kappa,
        seed_derive(0, 0, "env"),
        seed_derive(0, 0, "sched"),
        log,
    )
    return log


def order_threshold(order, T, kappa):
    return 9.0 * rho_hat(float(1 << order), SQRT_RATE, T, 1 / T, kappa)


def length_threshold(length, T, kappa):
    return 3.0 * rho_hat(float(length), SQRT_RATE, T, 1 / T, kappa)


def test_test1_predicate_arithmetic():
    # kappa tuned so 9*rho_hat(1) = 0.09: avg 0.62 vs U=0.5 fails
    T = 16
    kappa = 0.09 / (9.0 * 6.0 * n_hat(T) * math.log(T * T))
    assert order_test_fails(0.62, 0.5, order_threshold(0, T, kappa))
    # boundary: avg == U passes because the threshold adds 9*rho_hat > 0
    assert not order_test_fails(0.5, 0.5, order_threshold(0, T, kappa))
    # kappa large enough that 9*rho_hat >= 1 can never fail when U >= 0
    assert not order_test_fails(1.0, 0.0, order_threshold(0, T, 1.0))


def test_test2_predicate_arithmetic():
    T = 16
    # g~ = R everywhere: sum zero passes at any threshold
    assert not block_test_fails(0.0, 8, length_threshold(8, T, 1.0))
    # g~=1, R=0 with 3*rho_hat(len) tuned to 0.5 fails at every length
    length = 4
    kappa = 0.5 / (3.0 * 6.0 * n_hat(T) * math.log(T * T) * SQRT_RATE.rho(length))
    assert block_test_fails(float(length), length, length_threshold(length, T, kappa))
    # single round with gap 0.2 against 3*rho_hat(1) = 0.3 passes
    kappa1 = 0.3 / (3.0 * 6.0 * n_hat(T) * math.log(T * T))
    assert not block_test_fails(0.2, 1, length_threshold(1, T, kappa1))


def bits(x):
    return struct.pack("<d", x)


@settings(max_examples=60, deadline=None)
@given(
    kappa=st.sampled_from([0.0, 1e-5, 1.0, math.inf]),
    average_reward=st.booleans(),
    log2_horizon=st.integers(1, 24),
    covers=st.lists(st.tuples(st.integers(0, 12), st.integers(1, 3000)), min_size=1, max_size=4),
)
def test_threshold_table_equals_the_rho_hat_expressions_bitwise(kappa, average_reward, log2_horizon, covers):
    T = 1 << log2_horizon
    delta = 1.0 / T
    if average_reward:
        rate, factor = UcrlAcw(3, 2, T, delta, 2.0).rate(), 18.0
    else:
        rate, factor = Ucb1(2, T, delta).rate(), 6.0
    table = ThresholdTable(rate, T, delta, kappa, factor)
    for n, length in covers:
        table.cover(n, length)
    assert len(table.order) == 1 + max(n for n, _ in covers)
    assert len(table.length) == max(length for _, length in covers)
    for m, value in enumerate(table.order):
        assert bits(value) == bits(9.0 * rho_hat(float(1 << m), rate, T, delta, kappa, factor))
    for length, value in enumerate(table.length, start=1):
        assert bits(value) == bits(3.0 * rho_hat(float(length), rate, T, delta, kappa, factor))


SWITCH_ENV = {"kind": "mab", "T": 512, "segments": [{"length": 256, "means": [0.9, 0.1]},
                                                    {"length": 256, "means": [0.1, 0.9]}]}
SWAP_MDP = {"kind": "infinite", "T": 256, "S": 2, "A": 2, "segments": [
    {"length": 128, "rewards": [[0.9, 0.1], [0.2, 0.6]],
     "transitions": [[[0.1, 0.9], [0.8, 0.2]], [[0.7, 0.3], [0.4, 0.6]]]},
    {"length": 128, "rewards": [[0.1, 0.9], [0.6, 0.2]],
     "transitions": [[[0.8, 0.2], [0.1, 0.9]], [[0.4, 0.6], [0.7, 0.3]]]},
]}


def _shared_table_run(case):
    from nonstat.mdp import borl, doubling_dbar

    name, kappa = case
    if name == "borl":
        return borl(make_env(SWAP_MDP), kappa=kappa, seed=3)
    if name == "doubling_dbar":
        return doubling_dbar(make_env(SWAP_MDP), known_l=2, kappa=kappa, seed=3)
    env = make_env(SWITCH_ENV)
    return run_master(env, lambda: Ucb1(2, 512, 1 / 512), kappa=kappa, seed=3)


@pytest.mark.parametrize(
    "case",
    [("master", kappa) for kappa in (1e-4, 3e-3, 1.0, math.inf)] + [("borl", 1e-4), ("doubling_dbar", 1e-4)],
    ids=str,
)
def test_shared_threshold_tables_give_the_logs_of_fresh_ones(case, monkeypatch):
    # borl and doubling_dbar call master_core once per interval or epoch; the
    # second run reads and extends the tables the first one grew
    memo = nonstat.master._shared_thresholds
    memo.cache_clear()
    shared = [_shared_table_run(case).to_csv_text() for _ in range(2)]
    assert memo.cache_info().hits >= 1
    monkeypatch.setattr(nonstat.master, "_shared_thresholds", ThresholdTable)
    fresh = _shared_table_run(case).to_csv_text()
    assert shared == [fresh, fresh]
    if case[1] == 1e-4:
        assert "restart" in fresh


def test_threshold_memo_keys_on_every_argument():
    memo = nonstat.master._shared_thresholds
    memo.cache_clear()
    key = (SQRT_RATE, 64, 1 / 64, 1.0, 6.0)
    changed = [(RateFunction(c1=2.0, c2=0.0, horizon=1 << 20), 64, 1 / 64, 1.0, 6.0),
               (SQRT_RATE, 128, 1 / 64, 1.0, 6.0), (SQRT_RATE, 64, 1 / 32, 1.0, 6.0),
               (SQRT_RATE, 64, 1 / 64, 2.0, 6.0), (SQRT_RATE, 64, 1 / 64, 1.0, 18.0)]
    table = memo(*key)
    assert memo(*key) is table
    assert len({id(table)} | {id(memo(*args)) for args in changed}) == 1 + len(changed)


def test_threshold_memo_holds_at_most_its_bound():
    memo = nonstat.master._shared_thresholds
    memo.cache_clear()
    for i in range(THRESHOLD_MEMO_SIZE + 4):
        memo(SQRT_RATE, 64, 1 / 64, 1.0 + i, 6.0).cover(6, 32)
        assert memo.cache_info().currsize <= THRESHOLD_MEMO_SIZE
    assert memo.cache_info().maxsize == memo.cache_info().currsize == THRESHOLD_MEMO_SIZE


def grow_from_threads(tables):
    """Cover each table to orders 0..11 and lengths 1..2000 from 8 threads at once."""
    start = threading.Barrier(8)

    def grow(k):
        start.wait(timeout=60)
        for length in range(1, 2001):  # one entry at a time: many check-then-append windows
            for table in tables:
                table.cover(length.bit_length() - 1 + k % 2, length)

    threads = [threading.Thread(target=grow, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_a_table_grown_from_many_threads_equals_a_fresh_one():
    T = 1 << 12
    args = (UcrlAcw(3, 2, T, 1 / T, 2.0).rate(), T, 1 / T, 1.0, 18.0)
    shared = ThresholdTable(*args)
    grow_from_threads([shared])
    fresh = ThresholdTable(*args)
    fresh.cover(11, 2000)
    assert shared.order.tobytes() == fresh.order.tobytes()
    assert shared.length.tobytes() == fresh.length.tobytes()


def test_live_fields_grown_from_many_threads_equal_fresh_ones():
    # at these kappas the first live order is 11, the last one covered, and
    # the first live length 687
    T = 1 << 12
    rate = UcrlAcw(3, 2, T, 1 / T, 2.0).rate()
    tables = [ThresholdTable(rate, T, 1 / T, kappa, 18.0) for kappa in (3e-5, 5e-5)]
    grow_from_threads(tables)
    assert [(table.live_order, table.live_length) for table in tables] == [(11, 1), (math.inf, 687)]
    for kappa, table in zip((3e-5, 5e-5), tables):
        fresh = ThresholdTable(rate, T, 1 / T, kappa, 18.0)
        fresh.cover(11, 2000)
        assert (table.live_order, table.live_length) == (fresh.live_order, fresh.live_length)


# ---------------------------------------------------------------------------
# liveness: a test whose threshold exceeds 1 is never called


@settings(max_examples=60, deadline=None)
@given(
    kappa=st.sampled_from([0.0, 1e-5, 1e-4, 1e-3, 1.0, math.inf]),
    average_reward=st.booleans(),
    log2_horizon=st.integers(1, 24),
    covers=st.lists(st.tuples(st.integers(0, 12), st.integers(1, 3000)), min_size=1, max_size=4),
)
def test_live_fields_are_the_first_thresholds_at_most_one(kappa, average_reward, log2_horizon, covers):
    T = 1 << log2_horizon
    delta = 1.0 / T
    if average_reward:
        rate, factor = UcrlAcw(3, 2, T, delta, 2.0).rate(), 18.0
    else:
        rate, factor = Ucb1(2, T, delta).rate(), 6.0
    table = ThresholdTable(rate, T, delta, kappa, factor)
    for n, length in covers:
        table.cover(n, length)
        orders = range(len(table.order))
        lengths = range(1, len(table.length) + 1)
        assert table.live_order == next(
            (m for m in orders if 9.0 * rho_hat(float(1 << m), rate, T, delta, kappa, factor) <= 1.0), math.inf)
        assert table.live_length == next(
            (l for l in lengths if 3.0 * rho_hat(float(l), rate, T, delta, kappa, factor) <= 1.0), math.inf)


class EveryTestLive(ThresholdTable):
    """A ThresholdTable that counts every order and block length as live, so
    the control loop calls every test, as it did before the skip."""

    def cover(self, n, length):
        super().cover(n, length)
        self.live_order = self.live_length = 0


def counted_run(run, table, monkeypatch):
    """run()'s log and the test calls it made, with a fresh table of class
    table for each control-loop call."""
    calls = {"test1": 0, "test2": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    with monkeypatch.context() as patch:
        patch.setattr(nonstat.master, "_shared_thresholds", table)
        patch.setattr(nonstat.master, "test1_fails", counting("test1", nonstat.master.test1_fails))
        patch.setattr(nonstat.master, "test2_fails", counting("test2", nonstat.master.test2_fails))
        log = run()
    return log, calls


LIVENESS_RUNS = {  # the shared-table runs above, the runs of the scripted tests below, and a mixed one
    **{f"master-{kappa}": functools.partial(_shared_table_run, ("master", kappa))
       for kappa in (1e-4, 3e-3, 1.0, math.inf)},
    "borl": functools.partial(_shared_table_run, ("borl", 1e-4)),
    "doubling_dbar": functools.partial(_shared_table_run, ("doubling_dbar", 1e-4)),
    "test2-boundary": lambda: run_scripted([0.2] * 8, [0.0] * 8, 0.3 / (3.0 * 6.0 * n_hat(8) * math.log(64))),
    "zero-gap": lambda: run_scripted([0.5] * 8, [0.5] * 8, kappa=1e-6),
    "test1-fail": lambda: run_scripted([0.5] * 4, [0.62] * 4, 0.09 / (9.0 * 6.0 * n_hat(4) * math.log(16))),
    "test1-boundary": lambda: run_scripted([0.5, 0.5], [0.5, 0.5], kappa=1e-9),
    "scripted-mixed": lambda: run_scripted(np.random.default_rng(1).random(64).tolist(),
                                           np.random.default_rng(2).random(64).tolist(), kappa=2e-3),
}


@pytest.mark.parametrize("name", list(LIVENESS_RUNS))
def test_skipping_the_tests_that_cannot_fail_changes_no_log(name, monkeypatch):
    skip, skip_calls = counted_run(LIVENESS_RUNS[name], ThresholdTable, monkeypatch)
    full, full_calls = counted_run(LIVENESS_RUNS[name], EveryTestLive, monkeypatch)
    assert skip.to_csv_text() == full.to_csv_text()
    assert skip.restarts == full.restarts
    # the full run tests every round, but for those that test 1 restarts
    assert full_calls["test2"] == len(full) - sum(ev.cause.startswith("test1") for ev in full.restarts)
    assert skip_calls["test1"] <= full_calls["test1"] and skip_calls["test2"] <= full_calls["test2"]


def test_a_threshold_of_exactly_one_is_live():
    # U_t = 0 and an interval average of 1.0 cross a test-1 threshold of 1.0,
    # but not the next float above it
    T = 2
    kappa = 1.0 / (9.0 * 6.0 * n_hat(T) * math.log(T * T))
    assert order_threshold(0, T, kappa) == 1.0
    log = run_scripted([0.0] * T, [1.0] * T, kappa)
    assert [(ev.round, ev.cause) for ev in log.restarts] == [(1, "test1 m0#0"), (2, "test1 m0#0")]
    above = math.nextafter(kappa, 1.0)
    assert order_threshold(0, T, above) > 1.0
    assert run_scripted([0.0] * T, [1.0] * T, above).restarts == []


def test_a_test1_restart_above_order_zero_is_pinned():
    # kappa puts the test-1 threshold of order 0 at 1.2 and of order 1 at
    # 1.2/sqrt(2), so live_order is 1: rewards 0 through block 2, then 0.9,
    # restart first on the order-2 instance of uid 1 (order 0, which ends in
    # the same round, is not tested), then on an order-1 block's top instance
    T = 16
    kappa = 1.2 / (9.0 * 6.0 * n_hat(T) * math.log(T * T))
    assert order_threshold(1, T, kappa) <= 1.0 < order_threshold(0, T, kappa)
    table = ThresholdTable(SQRT_RATE, T, 1.0 / T, kappa, ScriptedWorld.rho_factor)
    table.cover(4, T)
    assert table.live_order == 1
    log = run_scripted([0.0] * T, [0.0] * 7 + [0.9] * (T - 7), kappa)
    text = log.to_csv_text()
    assert [(ev.round, ev.cause, ev.block) for ev in log.restarts] == [(11, "test1 m2#1", 3), (14, "test1 m1#0", 1)]
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c860ed5b3d44bc2c9260742923a95171da7f992e4a0d6429e7162a0110ee4921"
    )
    assert RunLog.from_csv(text).restarts == log.restarts


class RoundScriptedLearner(ScriptedLearner):
    """Emits values[t - 1] at round t: every instance reads one shared round
    count, which each predict() advances."""

    def __init__(self, values, rounds, delta):
        super().__init__(values, delta)
        self.rounds = rounds

    def predict(self):
        self.rounds[0] += 1
        return self.values[self.rounds[0] - 1]


@pytest.mark.parametrize("g_tilde, reward", [(-0.1, 0.5), (1.5, 0.5), (math.nan, 0.5), (0.5, 1.5)])
def test_a_value_outside_the_unit_interval_raises_before_its_row(g_tilde, reward):
    # the skip rests on g~ and R in [0, 1]; a value outside is named, not
    # compared with a threshold
    T, bad = 8, 5
    g_values, rewards = [0.5] * T, [0.5] * T
    g_values[bad - 1], rewards[bad - 1] = g_tilde, reward
    rounds = [0]
    log = RunLog()
    message = rf"^round {bad}: g_tilde {re.escape(repr(g_tilde))} and reward {re.escape(repr(reward))} "
    with pytest.raises(ValueError, match=message):
        master_core(ScriptedWorld(rewards), lambda: RoundScriptedLearner(g_values, rounds, 1.0 / T), 1e-3,
                    seed_derive(0, 0, "env"), seed_derive(0, 0, "sched"), log)
    assert len(log) == bad - 1
    assert list(log.column("g_tilde")) == g_values[: bad - 1]


def test_test2_single_round_boundary():
    # one round with g-R = 0.2 against threshold 3*rho_hat(1) = 0.3 -> pass;
    # the same constant gap trips the test once 3*rho_hat(len) sinks below
    # 0.2, i.e. at block length 3 (0.3/sqrt(3) = 0.173)
    T = 8
    kappa = 0.3 / (3.0 * 6.0 * n_hat(T) * math.log(T * T))
    assert 3.0 * rho_hat(1.0, SQRT_RATE, T, 1 / T, kappa) == pytest.approx(0.3)
    log = run_scripted([0.2] * T, [0.0] * T, kappa, T=T)
    assert log.restarts and log.restarts[0].cause == "test2"
    assert log.restarts[0].round == 6  # third round of the length-4 block


def test_test2_never_fails_when_gap_zero():
    log = run_scripted([0.5] * 8, [0.5] * 8, kappa=1e-6)
    assert log.restarts == []


def test_test1_fail_arithmetic():
    # U=0.5, avg=0.62, 9*rho_hat(1)=0.09 -> fail at the order-0 instance end
    T = 4
    kappa = 0.09 / (9.0 * 6.0 * n_hat(T) * math.log(T * T))
    g = [0.5, 0.5, 0.5, 0.5]
    r = [0.62, 0.62, 0.62, 0.62]
    log = run_scripted(g, r, kappa, T=T)
    assert log.restarts and log.restarts[0].cause.startswith("test1 m0")
    assert log.restarts[0].round == 1


def test_test1_pass_at_exact_boundary():
    # avg == U passes (threshold adds 9*rho_hat > 0)
    T = 2
    log = run_scripted([0.5, 0.5], [0.5, 0.5], kappa=1e-9, T=T)
    assert all(not ev.cause.startswith("test1") for ev in log.restarts)


def test_kappa_infinite_disables_tests():
    T = 64
    env = stationary(T)
    factory, delta = ucb1_stack(env, T)
    log = run_master(env, factory, kappa=math.inf, seed=3)
    assert log.restarts == []
    blocks = list(log.column("block"))
    # doubling layout: block orders 0,1,1,2,2,2,2,...
    expected = []
    n, t = 0, 0
    while len(expected) < T:
        expected.extend([n] * min(1 << n, T - len(expected)))
        n += 1
    assert blocks == expected


def test_kappa_one_no_false_restarts_smoke():
    T = 2048
    env = stationary(T, (0.3, 0.6, 0.5))
    factory, delta = ucb1_stack(env, T)
    log = run_master(env, factory, kappa=1.0, seed=5)
    assert log.restarts == []


# ---------------------------------------------------------------------------
# U_t bookkeeping


def test_u_min_is_running_minimum():
    T = 256
    env = stationary(T)
    factory, delta = ucb1_stack(env, T)
    log = run_master(env, factory, kappa=math.inf, seed=7)
    blocks = np.asarray(log.column("block"))
    g = np.asarray(log.column("g_tilde"))
    u = np.asarray(log.column("u_min"))
    epochs = np.asarray(log.column("epoch"))
    start = 0
    for i in range(1, T + 1):
        if i == T or blocks[i] != blocks[start] or epochs[i] != epochs[start]:
            seg = slice(start, i)
            assert np.array_equal(u[seg], np.minimum.accumulate(g[seg]))
            start = i


# ---------------------------------------------------------------------------
# restart semantics


def test_restart_erases_state_suffix_equality():
    # a run that restarts at time t equals a fresh run on the suffix fed the
    # continuation of the same rng streams
    T = 32
    env = stationary(T, (0.9, 0.1))
    delta = 1.0 / T
    factory = lambda: SqrtRateUcb1(2, T, delta)

    rng_env_a = seed_derive(11, 0, "env")
    rng_sched_a = seed_derive(11, 0, "sched")
    log_a = RunLog()
    # kappa=0 makes test 1 fire at round 1 (avg >= u_min + 0)
    master_core(BanditWorld(env), factory, 0.0, rng_env_a, rng_sched_a, log_a)
    assert log_a.restarts and log_a.restarts[0].round == 1

    # replicate: one manual round with the same stream, then a fresh core
    rng_env_b = seed_derive(11, 0, "env")
    rng_sched_b = seed_derive(11, 0, "sched")
    runner = MalgRunner(1, 0, SQRT_RATE, factory, rng_sched_b)
    g, pol, _ = runner.begin_round(1)
    r, fb = env.play(1, pol, rng_env_b)
    runner.finish_round(1, r, fb)
    log_b = RunLog()
    master_core(BanditWorld(env), factory, 0.0, rng_env_b, rng_sched_b, log_b, start_t=2)
    assert log_a.column("policy")[1:] == log_b.column("policy")
    assert log_a.column("reward")[1:] == log_b.column("reward")
    assert log_a.column("g_tilde")[1:] == log_b.column("g_tilde")


def test_tests_disabled_master_equals_malg():
    # with tests off, the n-th block's rows equal a standalone scheduler run
    # driven by the same derived streams
    T = 31  # blocks 1,2,4,8,16 exactly
    env = stationary(T)
    factory, delta = ucb1_stack(env, T)
    log = run_master(env, factory, kappa=math.inf, seed=13)

    rng_env = seed_derive(13, 0, "env")
    rng_sched = seed_derive(13, 0, "sched")
    t = 1
    for n in range(5):
        runner = MalgRunner(t, n, factory().rate(), factory, rng_sched)
        for _ in range(1 << n):
            g, pol, uid = runner.begin_round(t)
            r, fb = env.play(t, pol, rng_env)
            runner.finish_round(t, r, fb)
            i = t - 1
            assert log.column("g_tilde")[i] == g
            assert log.column("policy")[i] == pol
            assert log.column("active_order")[i] == runner.orders[uid]
            assert log.column("reward")[i] == r
            t += 1


def test_block_orders_reset_after_restart():
    T = 64
    env = stationary(T, (0.9, 0.1))
    factory, delta = ucb1_stack(env, T)
    log = RunLog()
    master_core(BanditWorld(env), factory, 0.0,
                seed_derive(17, 0, "env"), seed_derive(17, 0, "sched"), log)
    # kappa=0 restarts every round: every row is block 0 of a new epoch
    assert list(log.column("block")) == [0] * T
    assert list(log.column("epoch")) == list(range(T))
    assert len(log.restarts) == T


def test_at_most_one_restart_event_per_round():
    T = 64
    env = stationary(T, (0.9, 0.1))
    factory, delta = ucb1_stack(env, T)
    log = RunLog()
    master_core(BanditWorld(env), factory, 1e-9,
                seed_derive(19, 0, "env"), seed_derive(19, 0, "sched"), log)
    rounds = [ev.round for ev in log.restarts]
    assert len(rounds) == len(set(rounds))


# ---------------------------------------------------------------------------
# dynamic regret and CSV round trip


def test_dynamic_regret_trivial_cases():
    log = RunLog()
    for t in range(1, 11):
        log.append(t, 0, 0, 0, 0, 0.0, 1.0, 1.0, 1.0, "")
    assert dynamic_regret(log) == 10.0
    log2 = RunLog()
    for t in range(1, 11):
        log2.append(t, 0, 0, 0, 0, 0.7, 0.7, 1.0, 1.0, "")
    assert dynamic_regret(log2) == 0.0


@pytest.mark.parametrize("mdp_columns", [False, True])
def test_append_rejects_a_row_of_the_wrong_length(mdp_columns):
    # a positional row one value short or long would shift the columns
    log = RunLog(mdp_columns=mdp_columns)
    width = len(log.columns)
    row = (1, 0, 0, 0, 0, 0.5, 1.0, 1.0, 1.0, "") + (2, 0.5, 0.0, 1.0, -1)[: width - 10]
    log.append(*row)
    for bad in (row[:-1], row + (0,), ()):
        with pytest.raises(ValueError, match=f"expected {width}"):
            log.append(*bad)
    assert len(log) == 1 and all(len(log.column(name)) == 1 for name in log.columns)


def test_dynamic_regret_matches_second_pass_exactly():
    T = 512
    env = mab(T, [
        {"length": 256, "means": [0.9, 0.1]},
        {"length": 256, "means": [0.1, 0.9]},
    ])
    factory, delta = ucb1_stack(env, T)
    log = run_master(env, factory, kappa=1.0, seed=23)
    text = log.to_csv_text()
    reread = RunLog.from_csv(text)
    total = 0.0
    for f_star, reward in zip(reread.column("f_star"), reread.column("reward")):
        total += f_star - reward
    assert dynamic_regret(log) == total  # no tolerance


def test_csv_roundtrip_bit_exact():
    T = 128
    env = stationary(T)
    factory, delta = ucb1_stack(env, T)
    log = run_master(env, factory, kappa=1.0, seed=29)
    text = log.to_csv_text()
    again = RunLog.from_csv(text).to_csv_text()
    assert text == again


def test_csv_roundtrip_keeps_restart_blocks():
    T = 512
    env = mab(T, [
        {"length": 256, "means": [0.9, 0.1]},
        {"length": 256, "means": [0.1, 0.9]},
    ])
    factory, delta = ucb1_stack(env, T)
    log = run_master(env, factory, kappa=1e-4, seed=31)
    assert any(ev.block > 0 for ev in log.restarts)
    assert RunLog.from_csv(log.to_csv_text()).restarts == log.restarts


# ---------------------------------------------------------------------------
# the event column: each row holds its block's schedule, rendered when read


class ReadingLog(RunLog):
    """A RunLog that reads its event column just before it appends each row
    whose index is in reads: rows of the block read, and of later blocks,
    are appended after a read and rendered at a later one."""

    reads = frozenset()

    def append(self, *row):
        if len(self) in self.reads:
            self.column("event")
        super().append(*row)


def assert_event_reads_agree(make_log, reading_log):
    # make_log(log_class) runs once with no read, once reading at the rows of
    # reading_log: the column matches its CSV round trip, the CSV bytes are
    # csv.writer's for the column (spawn rows quoted, restart rows too), and
    # they and the restarts do not depend on whether or when the column was read
    log = make_log(RunLog)
    text = log.to_csv_text()  # no read yet: every master row still holds its schedule
    assert text == rowwise_csv(log)
    restarts = log.restarts
    events = log.column("event")
    assert events == RunLog.from_csv(text).column("event")
    assert log.restarts == restarts
    assert log.to_csv_text() == text
    log.column("event")[0] = "written"  # a read is a copy: the log holds no text
    assert log.column("event") == events
    read = make_log(reading_log)
    assert read.restarts == restarts
    assert read.to_csv_text() == text
    assert read.column("event") == events
    return events, restarts


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([1e-4, 6e-4, 3e-3]),
    st.integers(0, 2**16),
    st.lists(st.integers(1, 511), max_size=2),
    st.frozensets(st.integers(0, 511), max_size=6),
)
def test_event_column_reads_agree_on_restart_heavy_runs(kappa, seed, cuts, reads):
    # at T=512 without cuts, kappa 1e-4 restarts about every other round, 6e-4
    # once, in a long block, and 3e-3 never
    T = 512
    env = mab(T, [{"length": 200, "means": [0.9, 0.1]}, {"length": T - 200, "means": [0.1, 0.9]}])
    factory, delta = ucb1_stack(env, T)
    bounds = sorted({0, *cuts, T})  # master_core calls over (a, b], each starting fresh blocks

    def make_log(log_class):
        log, rng_env, rng_sched = log_class(), seed_derive(seed, 0, "env"), seed_derive(seed, 0, "sched")
        for a, b in zip(bounds, bounds[1:]):
            master_core(BanditWorld(env), factory, kappa, rng_env, rng_sched, log,
                        start_t=a + 1, end_t=b)
        return log

    events, restarts = assert_event_reads_agree(make_log, type("Reading", (ReadingLog,), {"reads": reads}))
    assert [ev.round for ev in restarts] == [t for t, ev in enumerate(events, 1) if "restart " in ev]
    assert restarts or kappa > 1e-4


def switching_mdp(T):
    rewards = [[[0.9, 0.1], [0.2, 0.3], [0.0, 0.6]], [[0.1, 0.9], [0.6, 0.0], [0.3, 0.2]]]
    row = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]]
    return make_env({"kind": "infinite", "T": T, "S": 3, "A": 2, "segments": [
        {"length": T // 2, "rewards": rewards[0], "transitions": [row, row[::-1], row]},
        {"length": T - T // 2, "rewards": rewards[1], "transitions": [row[::-1], row, row[::-1]]},
    ]})


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([1e-5, 1e-4]),
    st.integers(0, 2**16),
    st.frozensets(st.integers(0, 63), max_size=6),
)
def test_event_column_reads_agree_on_doubling_dbar_runs(kappa, seed, reads):
    # every restart overflows the one-epoch cap, so its row is amended with a
    # double_dbar token, before or after a read has rendered that row
    env = switching_mdp(64)

    def make_log(log_class):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nonstat.mdp, "RunLog", log_class)
            return doubling_dbar(env, known_l=1, kappa=kappa, seed=seed)

    events, restarts = assert_event_reads_agree(make_log, type("Reading", (ReadingLog,), {"reads": reads}))
    assert restarts
    assert [t for t, ev in enumerate(events, 1) if "double_dbar" in ev] == [ev.round for ev in restarts]


def test_amend_event_joins_a_token_to_each_kind_of_cell():
    log = RunLog()
    for event in ("", "x", "y"):
        log.append(1, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, event)
        log.amend_event("tok")
    # a block of order 1 at rounds 4 and 5: its order-0 instances spawn at each round
    schedule = BlockSchedule(4, array("i", [0, 0, 1, 2]), array("i", [1, 0, 0]))
    texts = schedule.texts(2)
    assert texts == ["spawn m1#0@[4,5];spawn m0#1@[4,4];end m0#1", "spawn m0#2@[5,5];end m0#2;end m1#0"]
    for t in (4, 5):
        log.append(t, 1, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, schedule)
    log.amend_event("tok")
    log.amend_event('a, "b"')
    assert log.column("event") == ["tok", "x;tok", "y;tok", texts[0], f'{texts[1]};tok;a, "b"']
    text = log.to_csv_text()
    assert text == rowwise_csv(log)
    assert text.endswith(f',"{texts[1]};tok;a, ""b"""\n')
    assert RunLog.from_csv(text).column("event") == log.column("event")


def test_amend_event_on_a_log_with_no_row_raises():
    log = RunLog()
    with pytest.raises(ValueError, match="no row"):
        log.amend_event("tok")
    assert len(log) == 0 and log.column("event") == []


class CellLog(RunLog):
    """A RunLog that also keeps each row's event cell as appended."""

    def __init__(self):
        super().__init__()
        self.cells = []

    def append(self, *row):
        self.cells.append(row[self.columns.index("event")])
        super().append(*row)


@pytest.mark.parametrize("kappa, seed", [(1e-4, 0), (1e-4, 1), (3e-4, 2), (1.0, 3)])
def test_each_block_schedule_fills_one_run_of_consecutive_rows(kappa, seed):
    # the event column renders each schedule once, from the length of its one
    # run of rows: a block's rows follow each other from its first round,
    # whole or cut short by a restart or by the end of a call's round range
    T = 512
    env = mab(T, [{"length": 200, "means": [0.9, 0.1]}, {"length": T - 200, "means": [0.1, 0.9]}])
    factory, delta = ucb1_stack(env, T)
    log, rng_env, rng_sched = CellLog(), seed_derive(seed, 0, "env"), seed_derive(seed, 0, "sched")
    bounds = [0, 77, 300, T]
    for a, b in zip(bounds, bounds[1:]):
        master_core(BanditWorld(env), factory, kappa, rng_env, rng_sched, log, start_t=a + 1, end_t=b)
    rounds, blocks = list(log.column("t")), list(log.column("block"))
    restart_rounds = {ev.round for ev in log.restarts}
    seen, cuts = set(), []
    row = 0
    for schedule, group in itertools.groupby(log.cells):
        count = operator.countOf(group, schedule)
        assert schedule.__class__ is BlockSchedule and schedule not in seen
        seen.add(schedule)
        assert rounds[row:row + count] == list(range(schedule.t_n, schedule.t_n + count))
        assert set(blocks[row:row + count]) == {blocks[row]} and count <= 1 << blocks[row]
        last = rounds[row + count - 1]
        if count < 1 << blocks[row]:
            assert last in restart_rounds or last in bounds
            cuts.append("restart" if last in restart_rounds else "end_t")
        row += count
    assert row == len(log) == T
    assert "end_t" in cuts
    assert ("restart" in cuts) == (kappa < 1.0)


_INT_COLUMNS = {"t", "block", "epoch", "active_order", "policy", "episode", "borl_arm"}


def rowwise_csv(log):
    """Reference writer: one csv.writer row per log row.  The rows are written
    with a "\r\n" terminator, so that a field holding a CR is quoted as one
    holding a LF is, and each row's terminator is then swapped for "\n"."""
    rows = [log.columns] + [
        [value if name == "event" else str(int(value)) if name in _INT_COLUMNS else repr(float(value))
         for name, value in zip(log.columns, row)]
        for row in zip(*(log.column(name) for name in log.columns))
    ]
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308 / 3, 1.0]
csv_ints = st.integers(-(2**63), 2**63 - 1).flatmap(lambda i: st.sampled_from([i, np.int64(i)]))
csv_floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)).flatmap(
    lambda x: st.sampled_from([x, np.float64(x)])
)
csv_events = st.text(st.one_of(st.sampled_from(',"\r\n; '), st.characters()))
# event text a log file can hold: files are UTF-8, which has no lone surrogates
# (library events are ASCII)
csv_file_events = st.text(st.one_of(st.sampled_from(',"\r\n; '), st.characters(codec="utf-8")))


@st.composite
def csv_logs(draw, events=csv_events):
    log = RunLog(mdp_columns=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 6))):
        log.append(*[
            draw(events) if name == "event" else draw(csv_ints if name in _INT_COLUMNS else csv_floats)
            for name in log.columns
        ])
    return log


@settings(max_examples=150, deadline=None)
@given(csv_logs())
def test_csv_writer_equals_rowwise_csv_writer(log):
    # event text with commas, quotes, CR/LF and empty strings; numpy scalars,
    # -0.0, nan, +-inf and subnormals in the number columns
    assert log.to_csv_text() == rowwise_csv(log)


def test_csv_file_equals_rowwise_csv_writer(tmp_path):
    log = RunLog()
    for t, event in enumerate(["", "spawn m0#0@[1,1]", 'a "b"', "x\ny", "c\rd"], start=1):
        log.append(t, 0, np.int64(2), 0, 1, np.float64(0.5), -0.0, math.inf, math.nan, event)
    log.to_csv(str(tmp_path / "log.csv"))
    assert (tmp_path / "log.csv").read_bytes() == rowwise_csv(log).encode()


# number cells from a small pool, so that to_csv formats each distinct value
# once: signed zeros, one shared nan and fresh nan objects, +-inf, a
# subnormal, numpy twins of Python numbers, and True beside 1 in int columns
_FRESH_NAN = object()  # stands for a new nan object at every draw
_SHARED_NAN = float("nan")
_POOL_FLOATS = [0.0, -0.0, _SHARED_NAN, _FRESH_NAN, np.float64("nan"), math.inf, -math.inf, 5e-324, 0.5,
                np.float64(0.5), 2, np.int64(2)]
_POOL_INTS = [0, 1, np.int64(1), True, False, -3, np.int64(-3), 2**62]


def _pool(values):
    return st.sampled_from(values).map(lambda v: float("nan") if v is _FRESH_NAN else v)


@st.composite
def pooled_logs(draw):
    log = RunLog(mdp_columns=draw(st.booleans()))
    n = draw(st.integers(20, 200))
    cells = [
        draw(st.lists(st.sampled_from(["", "x,y", 'a "b"']) if name == "event"
                      else _pool(_POOL_INTS if name in _INT_COLUMNS else _POOL_FLOATS), min_size=n, max_size=n))
        for name in log.columns
    ]
    for row in zip(*cells):
        log.append(*row)
    return log


@settings(max_examples=60, deadline=None)
@given(pooled_logs())
def test_csv_writer_with_repeated_values_equals_rowwise_csv_writer(log):
    assert log.to_csv_text() == rowwise_csv(log)


@pytest.mark.parametrize("zeros", [[0.0, -0.0], [-0.0, 0.0], [0, -0.0], [np.float64(-0.0), False]])
def test_csv_writer_keeps_the_sign_of_each_zero(zeros):
    log = RunLog()
    for t in range(40):
        zero = zeros[t >= 30]  # the other zero comes after the first rows
        log.append(t, 0, 0, 0, 1, zero, 0.5, zero, 1.0, "")
    text = log.to_csv_text()
    assert text == rowwise_csv(log)
    assert "-0.0" in text


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the memo and the per-cell writer must fail alike
        return type(exc), str(exc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")])
@pytest.mark.parametrize("column", ["t", "block", "policy"])
def test_csv_writer_raises_on_a_non_finite_int_cell_as_the_cell_writer_does(column, bad):
    log = RunLog()
    for t in range(40):
        row = [t, 0, 0, 0, t % 2, 0.5, 0.9, 1.0, 1.0, ""]
        if t == 30:
            row[log.columns.index(column)] = bad
        log.append(*row)
    got = _outcome(log.to_csv_text)
    assert isinstance(got, tuple)
    assert got == _outcome(lambda: rowwise_csv(log))


def test_csv_writer_formats_each_repeated_value_once(monkeypatch):
    # a typed column is formatted a chunk at a time, each distinct 8-byte value
    # once a chunk (-0.0 apart from 0.0); a plain-list column, here the policy
    # column with an id above 2^63 - 1, is formatted per cell
    chunk = 32
    monkeypatch.setattr(nonstat.master, "LOG_CHUNK", chunk)
    log = RunLog()
    for t in range(100):
        log.append(t, t // 50, 0, t % 3, 2**63 if t == 5 else t % 2, float(t % 2), (0.0, -0.0)[t % 2], 1.0,
                   math.nan, "")
    assert log.to_csv_text() == rowwise_csv(log)
    for name in log.columns[:-1]:
        column, is_int = log.column(name), name in _INT_COLUMNS
        formatted = []

        def counting(fmt):
            def wrapped(value):
                formatted.append(value)
                return fmt(value)
            return wrapped

        with pytest.MonkeyPatch.context() as patch:  # the builtins as nonstat.master's globals find them
            patch.setattr(nonstat.master, "str", counting(str), raising=False)
            patch.setattr(nonstat.master, "repr", counting(repr), raising=False)
            texts = list(nonstat.master._number_texts(column, is_int))
        assert texts == [str(int(v)) if is_int else repr(float(v)) for v in column]
        if column.__class__ is list:
            assert name == "policy" and len(formatted) == len(column)
        else:
            distinct = [len({struct.pack(column.typecode, v) for v in column[i:i + chunk]})
                        for i in range(0, len(column), chunk)]
            assert len(formatted) == sum(distinct), name


@pytest.mark.parametrize("chunk", [7, None], ids=["chunk7", "library_chunk"])
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.integers(0, 2**20))
def test_csv_writer_equals_rowwise_csv_writer_across_chunk_edges(chunk, seed, mdp_columns, fallback, extra):
    # two chunks and part of a third, whose number cells are drawn from signed
    # zeros, nan, +-inf, a subnormal and the int64 extremes, with 0.0 and -0.0
    # on both sides of each chunk edge, and a policy column that holds an id
    # above 2^63 - 1 (a plain list, formatted per cell) or does not
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(nonstat.master, "LOG_CHUNK", chunk)
        chunk = nonstat.master.LOG_CHUNK
        rng = np.random.default_rng(seed)
        log = RunLog(mdp_columns=mdp_columns)
        n = 2 * chunk + 2 + extra % chunk
        floats = _EDGE_FLOATS + [np.float64(-0.0), np.float64("nan"), 0.25]
        ints = [0, 1, -1, -(2**63), 2**63 - 1, np.int64(-(2**63)), np.int64(2**63 - 1), 7]
        pools = [["", "x,y", 'a "b"', "c\rd"] if name == "event" else ints if name in _INT_COLUMNS else floats
                 for name in log.columns]
        cells = [[pool[i] for i in rng.integers(len(pool), size=n)] for pool in pools]  # by column
        for k, name in enumerate(log.columns):
            if name not in _INT_COLUMNS and name != "event":
                for edge in (chunk, 2 * chunk):
                    cells[k][edge - 2:edge + 2] = [0.0, -0.0, -0.0, 0.0]
        if fallback:
            cells[log.columns.index("policy")][int(rng.integers(n))] = 2**63 + extra
        rows = [list(row) for row in zip(*cells)]
        for row in rows:
            log.append(*row)
        assert (log.column("policy").__class__ is list) == fallback
        assert log.to_csv_text() == rowwise_csv(log) == appended_csv(log.columns, rows)


def csv_cells(log):
    """A log's rows as the cells csv.reader gives for its CSV text."""
    return [list(log.columns)] + [
        [value if name == "event" else str(int(value)) if name in _INT_COLUMNS else repr(float(value))
         for name, value in zip(log.columns, row)]
        for row in zip(*(log.column(name) for name in log.columns))
    ]


def read_outcome(read, source):
    try:
        return read(source)
    except Exception as exc:  # the reference and the library must fail alike
        return type(exc), str(exc)


def stringio_cells(path_or_text):
    """Reference reader: csv.reader over one io.StringIO of the whole text."""
    text = path_or_text
    if "\n" not in text:
        with open(path_or_text, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    return csv_cells(RunLog._from_csv_reader(csv.reader(io.StringIO(text))))


@settings(max_examples=150, deadline=None)
@given(csv_logs(events=csv_file_events))
def test_csv_reader_reads_what_a_stringio_reader_reads(log):
    # line by line from a path or from the text, the cells are those of a
    # csv.reader over one StringIO of the whole text, CR and LF included
    text = log.to_csv_text()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.csv")
        log.to_csv(path)
        for source in (text, path):
            got = read_outcome(lambda x: csv_cells(RunLog.from_csv(x)), source)
            assert got == read_outcome(stringio_cells, source)


def test_csv_text_roundtrip_keeps_a_lone_surrogate():
    # text is not encoded, so an event no UTF-8 file can hold still reads back
    log = RunLog()
    log.append(1, 0, 0, 0, 0, 0.5, 1.0, 1.0, 1.0, "a\ud800,b")
    text = log.to_csv_text()
    reread = RunLog.from_csv(text)
    assert reread.column("event") == ["a\ud800,b"]
    assert reread.to_csv_text() == text


@pytest.mark.parametrize("column, cell, message", [
    ("block", "x", "invalid literal for int() with base 10: 'x'"),
    ("reward", "0.5.1", "could not convert string to float: '0.5.1'"),
])
def test_csv_reader_names_the_line_and_column_of_a_cell_it_cannot_parse(column, cell, message):
    log = RunLog()
    for t in (1, 2):
        log.append(t, 0, 0, 0, 0, 0.5, 1.0, 1.0, 1.0, "")
    lines = log.to_csv_text().split("\n")
    cells = lines[2].split(",")
    cells[log.columns.index(column)] = cell
    lines[2] = ",".join(cells)
    with pytest.raises(ValueError) as info:
        RunLog.from_csv("\n".join(lines))
    assert str(info.value) == f"line 3, column {column}: {message}"


def test_csv_roundtrip_through_a_file_with_multiline_events(tmp_path):
    log = RunLog(mdp_columns=True)
    for t, event in enumerate(["", "x\ny\nz", 'q "r", s', "\n", "restart test2"], start=1):
        log.append(t, t // 2, 0, 1, t, 0.1 * t, 1.0 / 3, -0.0, 5e-324, event, t, 0.5, 2.0, 1.0, -1)
    path = str(tmp_path / "log.csv")
    log.to_csv(path)
    text = log.to_csv_text()
    assert RunLog.from_csv(path).to_csv_text() == text
    assert RunLog.from_csv(text).to_csv_text() == text
    assert RunLog.from_csv(text.rstrip("\n")).to_csv_text() == text  # a last line without its LF


@pytest.mark.parametrize("event", ["a\rb", "\r", "a\r", "\rb", "a\r\nb", "a,\rb"])
def test_csv_roundtrip_with_a_cr_in_an_event(tmp_path, event):
    # a CR is quoted like a LF, and reads back as a CR from the text and from a file
    log = RunLog()
    for t, ev in enumerate([event, "spawn m0#1@[2,2]"], start=1):
        log.append(t, 0, 0, 0, 0, 0.5, 1.0, 1.0, 1.0, ev)
    text = log.to_csv_text()
    assert f'"{event}"' in text
    path = str(tmp_path / "log.csv")
    log.to_csv(path)
    for source in (text, path):
        reread = RunLog.from_csv(source)
        assert reread.column("event") == [event, "spawn m0#1@[2,2]"]
        assert reread.to_csv_text() == text


def test_empty_log_regret_raises():
    with pytest.raises(ValueError):
        dynamic_regret(RunLog())


# ---------------------------------------------------------------------------
# typed columns: number columns are C arrays, filled from short lists in chunks


@pytest.fixture
def short_log_chunks(monkeypatch):
    """Logs that move their rows into the typed columns every 7 rows."""
    monkeypatch.setattr(nonstat.master, "LOG_CHUNK", 7)


@pytest.mark.parametrize("check", [
    test_csv_roundtrip_bit_exact, test_csv_roundtrip_keeps_restart_blocks,
    test_dynamic_regret_matches_second_pass_exactly, test_csv_writer_with_repeated_values_equals_rowwise_csv_writer])
def test_csv_round_trip_across_log_chunks(check, short_log_chunks):
    check()


# values each typed column stores as CSV writes them: signed zeros, nan, +-inf,
# a subnormal, numpy scalars and bools, and the int64 extremes
_TYPED_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, np.float64(-0.0), np.float64("nan"),
                 np.float32(0.1), np.int64(3), True, False, 2, 0.1]
_TYPED_INTS = [0, 1, np.int64(-3), True, False, 2**63 - 1, -(2**63), np.int64(7)]


def typed_rows(columns, n, odd=None):
    """n rows, their number cells cycling through _TYPED_INTS and _TYPED_FLOATS;
    odd = (column, row, value) puts one other value in."""
    pools = [["e0", "e1", "e2"] if name == "event" else _TYPED_INTS if name in _INT_COLUMNS else _TYPED_FLOATS
             for name in columns]
    rows = [[pool[(i + k) % len(pool)] for k, pool in enumerate(pools)] for i in range(n)]
    if odd is not None:
        name, row, value = odd
        rows[row][columns.index(name)] = value
    return rows


def appended_csv(columns, rows):
    """rowwise_csv of the values as appended."""
    return rowwise_csv(types.SimpleNamespace(
        columns=columns, column=lambda name: [row[columns.index(name)] for row in rows]))


def assert_columns_equal(log, other, names):
    for name in names:
        a, b = log.column(name), other.column(name)
        assert a.__class__ is b.__class__, name
        assert (a.tobytes() == b.tobytes()) if a.__class__ is array else a == b, name  # bits: -0.0 and nan


def test_live_bytes_per_log_row_stay_under_their_bounds():
    # the two live figures .github/log_bytes.py prints (master+UCB1 at T = 2^14):
    # a run_master log and its from_csv copy held 118 and 239 bytes per row
    # as lists of Python numbers, and hold about 89 and 118 in typed columns
    path = os.path.join(os.path.dirname(__file__), os.pardir, ".github", "log_bytes.py")
    spec = importlib.util.spec_from_file_location("log_bytes", path)
    log_bytes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(log_bytes)
    built, read, _ = log_bytes.bytes_per_row()
    assert built < 105
    assert read < 160


@pytest.mark.parametrize("mdp_columns", [False, True])
def test_typed_columns_store_every_value_as_csv_writes_it(mdp_columns, short_log_chunks):
    log = RunLog(mdp_columns=mdp_columns)
    rows = typed_rows(log.columns, 40)
    for row in rows:
        log.append(*row)
    numbers = [name for name in log.columns if name != "event"]
    assert all(log.column(name).__class__ is array for name in numbers)
    assert log.column("t") is log.column("t")  # the log's own sequence
    text = log.to_csv_text()
    assert text == appended_csv(log.columns, rows)
    assert_columns_equal(RunLog.from_csv(text), log, numbers)


@pytest.mark.parametrize("row", [2, 16], ids=["first_chunk", "later_chunk"])
@pytest.mark.parametrize("name, value", [("policy", 2**63), ("policy", 3**50), ("block", 2.5), ("episode", 4.0),
                                         ("epoch", math.nan), ("t", np.float64(1.0)), ("active_order", "7")])
def test_a_value_an_int_column_cannot_store_turns_it_into_a_list(name, value, row, short_log_chunks):
    # from then on the column keeps every value as appended, so each CSV cell,
    # or the error, is what str(int(v)) gives for it; the other columns stay typed
    log = RunLog(mdp_columns=True)
    rows = typed_rows(log.columns, 24, (name, row, value))
    for values in rows:
        log.append(*values)
    column = log.column(name)
    assert column.__class__ is list and column[row] is value
    assert [int(v) for i, v in enumerate(column) if i != row] == [int(r[log.columns.index(name)])
                                                                 for i, r in enumerate(rows) if i != row]
    others = [other for other in log.columns if other not in ("event", name)]
    assert all(log.column(other).__class__ is array for other in others)
    got = _outcome(log.to_csv_text)
    assert got == _outcome(lambda: appended_csv(log.columns, rows))
    if isinstance(got, str):
        reread = RunLog.from_csv(got)
        assert_columns_equal(reread, log, others)
        if isinstance(value, int):
            assert reread.column(name) == column


_UNSTORABLE = object()


def stored_value(typecode, value):
    """The value an array of typecode holds for value, or _UNSTORABLE."""
    try:
        return struct.unpack(typecode, struct.pack(typecode, value))[0]
    except (struct.error, TypeError, ValueError, OverflowError):
        return _UNSTORABLE


def reference_column(values, typecode, chunk):
    """A number column as the log should keep it, from its values as appended
    one row at a time: typed while each chunk of rows is storable, and from the
    first chunk that holds a value it cannot store on, a list of the values
    stored before that chunk and then of those as appended."""
    stored = [stored_value(typecode, value) for value in values]
    bad = next((i for i, value in enumerate(stored) if value is _UNSTORABLE), None)
    if bad is None:
        return array(typecode, stored)
    first = bad - bad % chunk
    return stored[:first] + values[first:]


def assert_same_column(got, expected):
    assert got.__class__ is expected.__class__
    if got.__class__ is array:
        assert got.tobytes() == expected.tobytes()  # bits: -0.0 and nan
    else:
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a is b or (a.__class__ is b.__class__ is float and struct.pack("d", a) == struct.pack("d", b)) or (
                a.__class__ is b.__class__ is int and a == b)


# values a typed column cannot store, whose CSV cells the per-cell writer still writes
_ODD_INTS = [2**63, 3**50, -(2**63) - 1, 2.5, 4.0, np.float64(-1.5), "7", np.array(2.5)]
_ODD_FLOATS = ["0.25", "-0.0", "nan", "1e308"]


def random_rows(columns, n, rng):
    """n rows of values each column stores (ints and np.int64; floats, -0.0, nan
    and np.float64), three cells of which, at random, hold one of _ODD_INTS or _ODD_FLOATS."""
    def value(name, t):
        if name == "event":
            return str(t % 3)
        if name in _INT_COLUMNS:
            return int(rng.integers(-5, 5)) if t % 2 else np.int64(rng.integers(0, 2**40))
        return (float(rng.random()), -0.0, math.nan, np.float64(rng.random()))[t % 4]

    rows = [[value(name, t) for name in columns] for t in range(n)]
    numbers = [k for k, name in enumerate(columns) if name != "event"]
    for _ in range(3):
        t, k = int(rng.integers(n)), numbers[int(rng.integers(len(numbers)))]
        pool = _ODD_INTS if columns[k] in _INT_COLUMNS else _ODD_FLOATS
        rows[t][k] = pool[int(rng.integers(len(pool)))]
    return rows


@pytest.mark.parametrize("chunk", [7, None], ids=["chunk7", "library_chunk"])
@pytest.mark.parametrize("seed", range(4))
def test_row_path_equals_a_per_column_reference(seed, chunk, monkeypatch):
    # a log splits its pending rows into columns a chunk at a time; each column
    # must hold what appending its values one by one would give, across chunk
    # boundaries and values a column cannot store, and the CSV must be the
    # per-cell writer's
    if chunk is not None:
        monkeypatch.setattr(nonstat.master, "LOG_CHUNK", chunk)
    chunk = nonstat.master.LOG_CHUNK
    rng = np.random.default_rng(seed)
    log = RunLog(mdp_columns=bool(seed % 2))
    rows = random_rows(log.columns, 2 * chunk + int(rng.integers(1, chunk)), rng)
    for row in rows:
        log.append(*row)
    assert len(log) == len(rows)
    for k, name in enumerate(log.columns):
        values = [row[k] for row in rows]
        if name == "event":
            assert log.column(name) == values
        else:
            assert_same_column(log.column(name), reference_column(values, "q" if name in _INT_COLUMNS else "d", chunk))
    assert log.to_csv_text() == appended_csv(log.columns, rows)


def test_len_and_amend_event_see_the_pending_rows(short_log_chunks):
    log = RunLog()
    for t in range(1, 11):  # rows 1..7 are moved into the columns, 8..10 pending
        log.append(t, 0, 0, 0, 0, 0.5, 1.0, 1.0, 1.0, f"e{t}")
        assert len(log) == t
    log.amend_event("tok")
    assert len(log) == 10
    log.append(11, 0, 0, 0, 0, 0.5, 1.0, 1.0, 1.0, "")
    log.amend_event("last")
    assert log.column("event") == [f"e{t}" for t in range(1, 10)] + ["e10;tok", "last"]
    assert list(log.column("t")) == list(range(1, 12))


@pytest.mark.parametrize("mdp_columns", [False, True])
def test_a_row_of_the_wrong_width_is_rejected_and_not_kept(mdp_columns):
    log = RunLog(mdp_columns=mdp_columns)
    width = len(log.columns)
    log.append(*range(width - 1), "")
    for count in (width - 1, width + 1, 0):
        with pytest.raises(ValueError, match=re.escape(f"row of {count} values, expected {width} (the log's columns)")):
            log.append(*range(count))
    assert len(log) == 1
    assert list(log.column("t")) == [0]


@pytest.mark.parametrize("row", [1, 100], ids=["in_the_sample", "after_the_sample"])
def test_an_unhashable_value_in_an_int_column_is_written_per_cell(row):
    # a 0-d array cannot be a memo key; its cell is str(int(v)), as the per-cell writer gives
    log = RunLog()
    rows = [[t, 0, 0, 0, np.array(2.5) if t == row else t % 2, 0.5, 1.0, 1.0, 1.0, ""] for t in range(120)]
    for values in rows:
        log.append(*values)
    text = log.to_csv_text()
    assert text.splitlines()[row + 1].split(",")[4] == "2"
    assert text == appended_csv(log.columns, rows)


# ---------------------------------------------------------------------------
# bare baseline


def test_run_bare_single_round():
    env = stationary(1)
    log = run_bare(env, Ucb1(2, 1, 1.0 / 2), seed=31)
    assert len(log) == 1
    assert list(log.column("active_order")) == [-1]


def test_run_bare_sublinear_on_stationary():
    T = 4096
    env = stationary(T, (0.8, 0.2))
    log = run_bare(env, Ucb1(2, T, 1.0 / T), seed=37)
    regret = dynamic_regret(log)
    curve = np.cumsum(np.asarray(log.column("f_star")) - np.asarray(log.column("reward")))
    # second half accrues far less than the first half (sublinear)
    assert curve[-1] - curve[T // 2] < curve[T // 2] * 0.8
    assert regret < 0.2 * T


def test_old_signature_calls_raise_type_error():
    # both loops run over env.horizon and take the rest by keyword, so a call
    # that passes the horizon fails instead of taking T as delta or seed; the
    # reduction reads delta from the learner, so a call that passes it fails
    # instead of running the learner and the tests at two different deltas
    T = 64
    env = stationary(T)
    factory, delta = ucb1_stack(env, T)
    with pytest.raises(TypeError):
        run_master(env, factory, T, delta)
    with pytest.raises(TypeError):
        run_master(env, factory, T)
    with pytest.raises(TypeError):
        run_bare(env, factory(), T)
    with pytest.raises(TypeError):
        run_master(env, factory, delta=delta)
    with pytest.raises(TypeError):  # master_core(world, factory, horizon, delta, kappa, rng_env, rng_sched, log)
        master_core(BanditWorld(env), factory, T, delta, 1.0, seed_derive(0, 0, "env"), seed_derive(0, 0, "sched"),
                    RunLog())
    assert len(run_master(env, factory)) == len(run_bare(env, factory())) == T


def test_delta_of_the_tests_is_the_learners():
    # a master+UCB1 log at T=2^10 and kappa=1e-4, where restarts are live,
    # with delta=0.3 in the learner: the SHA-256 of the log written when the
    # run was also given delta=0.3, which a run at delta=1/T does not match
    T = 1 << 10
    env = mab(T, [{"length": T // 2, "means": [0.9, 0.1]}, {"length": T // 2, "means": [0.1, 0.9]}])
    log = run_master(env, lambda: Ucb1(2, T, 0.3), kappa=1e-4, seed=0)
    assert len(log.restarts) == 488
    assert hashlib.sha256(log.to_csv_text().encode()).hexdigest() == (
        "fa266554f011dd477dd88feb81eedef5a2bfb878e4925e16bdb9bbdfd32dd9f6"
    )


def test_kappa_zero_log_is_pinned():
    # kappa=0 (library calls only) restarts every round; this run mixes both
    # test causes, so it pins the test-1 token too
    T = 32
    env = mab(T, [{"length": 16, "means": [0.9, 0.1]}, {"length": 16, "means": [0.1, 0.9]}])
    factory, delta = ucb1_stack(env, T)
    log = run_master(env, factory, kappa=0.0, seed=0)
    text = log.to_csv_text()
    test2 = {8, 16, *range(17, 28), 29, 30, 32}
    expected = [(t, "test2" if t in test2 else "test1 m0#0", 0) for t in range(1, T + 1)]
    assert [(ev.round, ev.cause, ev.block) for ev in log.restarts] == expected
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "60a3bda65d0d0a56526ea2ef7d2cd4b3a646ca9937f4a2ed87efb720ffc9b4ce"
    )
    assert RunLog.from_csv(text).restarts == log.restarts


# ---------------------------------------------------------------------------
# the learner's restart signal


class SignalingLearner:
    """Scripted learner whose restart signal turns on at the k-th update made
    by any instance of the run (the count is shared through `updates`)."""

    def __init__(self, k, updates, delta):
        self.k = k
        self.updates = updates
        self.delta = delta  # the confidence that master_core reads

    def rate(self):
        return SQRT_RATE

    def predict(self):
        return 0.5

    def act(self):
        return 0

    def update(self, feedback):
        self.updates[0] += 1

    @property
    def restart_signaled(self):
        return self.updates[0] >= self.k


def test_signal_restart_through_the_control_loop():
    # tests disabled and g~ = R: the signal is the only cause that can fire;
    # round 5 is the second round of block 2, and every later round signals
    # again in a fresh epoch
    T, k = 12, 5
    updates = [0]
    log = RunLog()
    master_core(
        ScriptedWorld([0.5] * T), lambda: SignalingLearner(k, updates, 1.0 / T), math.inf,
        seed_derive(0, 0, "env"), seed_derive(0, 0, "sched"), log,
    )
    expected = [(k, "mdp_signal", 2)] + [(t, "mdp_signal", 0) for t in range(k + 1, T + 1)]
    assert [(ev.round, ev.cause, ev.block) for ev in log.restarts] == expected
    events = log.column("event")
    assert events[k - 1].split(";")[-1] == "restart mdp_signal"
    assert not any("restart" in ev for ev in events[: k - 1])
    assert list(log.column("epoch")) == [0] * k + list(range(1, T - k + 1))


def test_bare_run_ignores_the_restart_signal():
    T = 12
    updates = [0]
    log = run_bare(stationary(T), SignalingLearner(1, updates, 1.0 / T))
    assert updates == [T]
    assert log.restarts == []
    assert log.column("event") == [""] * T


# ---------------------------------------------------------------------------
# the environment's uniform stream: chunked draws, rewound at every exit


def _episodic_spec(T):
    layer = [[[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.5], [0.2, 0.8]]]
    return {"kind": "episodic", "T": T, "S": 2, "A": 2, "H": 2, "segments": [
        {"length": T // 2, "rewards": [[[0.9, 0.1], [0.2, 0.3]], [[0.5, 0.6], [0.4, 0.2]]],
         "transitions": [layer, layer[::-1]]},
        {"length": T - T // 2, "rewards": [[[0.1, 0.9], [0.3, 0.2]], [[0.6, 0.5], [0.2, 0.4]]],
         "transitions": [layer[::-1], layer]},
    ]}


def _linear_spec(T, kind):
    spec = {"kind": kind, "T": T, "actions": [[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]], "segments": [
        {"length": T // 2, "theta": [0.8, 0.1]}, {"length": T - T // 2, "theta": [0.1, 0.8]}]}
    if kind == "glm":
        spec.update(link="logistic", lam=1.0)
    return spec


def stream_env(kind, T):
    """An environment of kind whose parameters switch at T/2, and its base learner's factory."""
    delta = 1.0 / T
    if kind == "mab":
        env = mab(T, [{"length": T // 2, "means": [0.9, 0.1]}, {"length": T - T // 2, "means": [0.1, 0.9]}])
        return env, lambda: Ucb1(2, T, delta)
    if kind == "infinite":
        env = switching_mdp(T)
        return env, functools.partial(UcrlAcw, env.n_states, env.n_actions, T, delta, 1.0)
    if kind == "episodic":
        env = make_env(_episodic_spec(T))
        return env, functools.partial(QUcb, n_states=2, n_actions=2, n_layers=2, horizon=T, delta=delta)
    env = make_env(_linear_spec(T, kind))
    if kind == "glm":
        return env, functools.partial(GlmUcb, env.actions, T, delta, "logistic", 1.0)
    return env, functools.partial(Oful, actions=env.actions, horizon=T, delta=delta)


STREAM_KINDS = ("mab", "linear", "glm", "episodic", "infinite")


class CountingRng:
    """Hands each rng.random() the environment makes through to rng, and records it."""

    def __init__(self, rng, seen):
        self.rng, self.seen = rng, seen

    def random(self):
        x = self.rng.random()
        self.seen.append(x)
        return x


def recording(env, bad_round=None):
    """The list into which env's sampler (play, or step for the infinite kind)
    now records every double it draws, and the streams it was handed; with
    bad_round, the sampler returns a reward of 2.0 at that round, after its
    draws, which the control loop must reject."""
    seen, streams = [], []
    name = "step" if env.kind == "infinite" else "play"
    sample = getattr(env, name)

    def recorded(t, *args):
        *args, rng = args
        streams.append(rng)
        reward, rest = sample(t, *args, CountingRng(rng, seen))
        return (2.0 if t == bad_round else reward), rest

    setattr(env, name, recorded)
    return seen, streams


def assert_per_call_draws(seen, rng_env, seed, purpose="env"):
    """seen are the doubles one rng.random() per draw of the seed's stream gives,
    and rng_env stands where those draws leave that stream."""
    ref = seed_derive(seed, 0, purpose)
    assert seen == [ref.random() for _ in seen]
    assert rng_env.bit_generator.state == ref.bit_generator.state
    ahead = seed_derive(seed, 0, purpose)
    ahead.bit_generator.advance(len(seen))
    assert rng_env.bit_generator.state == ahead.bit_generator.state


@pytest.fixture(params=[7, nonstat.master.CHUNK], ids=["chunk7", "chunk"])
def chunk(request, monkeypatch):
    """The stream's chunk: a short one, which refills and rewinds within the
    smallest run, and the library's own."""
    monkeypatch.setattr(nonstat.master, "CHUNK", request.param)
    return request.param


@pytest.mark.parametrize("kind", STREAM_KINDS)
def test_the_environment_draws_what_per_call_draws_give_across_restarts(kind, chunk):
    T = 96 if chunk == 7 else 640
    env, factory = stream_env(kind, T)
    seen, streams = recording(env)
    world = nonstat.master._world_for(env)
    log = RunLog(mdp_columns=world.mdp_columns)
    rng_env = seed_derive(41, 0, "env")
    assert master_core(world, factory, 1e-4, rng_env, seed_derive(41, 0, "sched"), log) == (T + 1, "done")
    assert log.restarts and len(seen) >= T
    assert_per_call_draws(seen, rng_env, 41)
    assert not hasattr(streams[0], "random")  # the stream ended with its loop call


@pytest.mark.parametrize("kind", STREAM_KINDS)
def test_calls_over_cut_ranges_share_rng_env_as_per_call_draws_do(kind, chunk):
    T = 80
    env, factory = stream_env(kind, T)
    seen, streams = recording(env)
    world = nonstat.master._world_for(env)
    log = RunLog(mdp_columns=world.mdp_columns)
    rng_env, rng_sched = seed_derive(43, 0, "env"), seed_derive(43, 0, "sched")
    bounds = (0, 1, 6, 7, 30, 57, T)
    for a, b in zip(bounds, bounds[1:]):
        master_core(world, factory, 1e-4, rng_env, rng_sched, log, start_t=a + 1, end_t=b)
        assert_per_call_draws(seen, rng_env, 43)
    assert len(log) == T and len(set(map(id, streams))) == len(bounds) - 1


def capture_env_stream(monkeypatch, module):
    """The "env" streams module's seed_derive makes from now on."""
    made = []

    def derive(seed, run_index, purpose):
        rng = seed_derive(seed, run_index, purpose)
        if purpose == "env":
            made.append(rng)
        return rng

    monkeypatch.setattr(module, "seed_derive", derive)
    return made


@pytest.mark.parametrize("kind", STREAM_KINDS)
def test_run_bare_draws_what_per_call_draws_give(kind, chunk, monkeypatch):
    T = 60
    env, factory = stream_env(kind, T)
    seen, _ = recording(env)
    made = capture_env_stream(monkeypatch, nonstat.master)
    run_bare(env, factory(), seed=47)
    assert len(made) == 1 and len(seen) >= T
    assert_per_call_draws(seen, made[0], 47)


@pytest.mark.parametrize("kind", STREAM_KINDS)
def test_a_run_stopped_by_the_unit_interval_check_leaves_rng_env_synced(kind, chunk):
    T, bad = 64, 23
    env, factory = stream_env(kind, T)
    seen, streams = recording(env, bad_round=bad)
    world = nonstat.master._world_for(env)
    rng_env = seed_derive(53, 0, "env")
    with pytest.raises(ValueError, match=f"round {bad}:"):
        master_core(world, factory, 1e-4, rng_env, seed_derive(53, 0, "sched"),
                    RunLog(mdp_columns=world.mdp_columns))
    assert len(streams) == bad
    assert_per_call_draws(seen, rng_env, 53)
    assert not hasattr(streams[0], "random")


def test_an_epoch_overflow_leaves_rng_env_synced(chunk):
    T = 64
    env, factory = stream_env("infinite", T)
    seen, _ = recording(env)
    rng_env = seed_derive(59, 0, "env")
    t, reason = master_core(AverageRewardWorld(env), factory, 0.0, rng_env, seed_derive(59, 0, "sched"),
                            RunLog(mdp_columns=True), max_epochs=1)
    assert (t, reason) == (2, "epoch_overflow")  # kappa = 0 restarts at round 1
    assert_per_call_draws(seen, rng_env, 59)


@pytest.mark.parametrize("strategy", ["borl", "doubling_dbar"])
def test_strategies_that_share_rng_env_across_calls_see_per_call_draws(strategy, chunk, monkeypatch):
    T = 256
    env = switching_mdp(T)
    seen, streams = recording(env)
    made = capture_env_stream(monkeypatch, nonstat.mdp)
    calls = []
    monkeypatch.setattr(nonstat.mdp, "master_core", lambda *a, **k: calls.append(1) or master_core(*a, **k))
    if strategy == "borl":
        log = nonstat.mdp.borl(env, kappa=1e-4, seed=61)
    else:
        log = doubling_dbar(env, known_l=1, kappa=1e-4, seed=61)
    assert len(log) == T and len(calls) > 1 and len(set(map(id, streams))) == len(calls)
    assert_per_call_draws(seen, made[0], 61)

import csv
import hashlib
import io
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonstat.master
from nonstat.base import Ucb1
from nonstat.envs import make_env
from nonstat.harness import seed_derive
from nonstat.malg import MalgRunner, n_hat, rho_hat
from nonstat.master import (
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
from nonstat.mdp import UcrlAcw
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

    def __init__(self, rewards):
        self.rewards = rewards

    def play(self, t, policy, rng):
        return self.rewards[t - 1], (0, self.rewards[t - 1]), 1.0

    def extras(self, learner):
        return ()


class ScriptedLearner:
    restart_signaled = False

    def __init__(self, values):
        self.values = values
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
    learners = [ScriptedLearner(list(g_values))]

    def factory():
        # every instance shares the scripted emission stream
        inst = ScriptedLearner(learners[0].values)
        inst.i = learners[0].i
        return inst

    master_core(
        ScriptedWorld(rewards),
        factory,
        T,
        1.0 / T,
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
    log = run_master(env, factory, T, delta, kappa=math.inf, seed=3)
    assert log.restarts == []
    blocks = log.column("block")
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
    log = run_master(env, factory, T, delta, kappa=1.0, seed=5)
    assert log.restarts == []


# ---------------------------------------------------------------------------
# U_t bookkeeping


def test_u_min_is_running_minimum():
    T = 256
    env = stationary(T)
    factory, delta = ucb1_stack(env, T)
    log = run_master(env, factory, T, delta, kappa=math.inf, seed=7)
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
    master_core(BanditWorld(env), factory, T, delta, 0.0, rng_env_a, rng_sched_a, log_a)
    assert log_a.restarts and log_a.restarts[0].round == 1

    # replicate: one manual round with the same stream, then a fresh core
    rng_env_b = seed_derive(11, 0, "env")
    rng_sched_b = seed_derive(11, 0, "sched")
    runner = MalgRunner(1, 0, SQRT_RATE, factory, rng_sched_b)
    g, pol, _ = runner.begin_round(1)
    r, fb = env.play(1, pol, rng_env_b)
    runner.finish_round(1, r, fb)
    log_b = RunLog()
    master_core(BanditWorld(env), factory, T, delta, 0.0, rng_env_b, rng_sched_b, log_b, start_t=2)
    assert log_a.column("policy")[1:] == log_b.column("policy")
    assert log_a.column("reward")[1:] == log_b.column("reward")
    assert log_a.column("g_tilde")[1:] == log_b.column("g_tilde")


def test_tests_disabled_master_equals_malg():
    # with tests off, the n-th block's rows equal a standalone scheduler run
    # driven by the same derived streams
    T = 31  # blocks 1,2,4,8,16 exactly
    env = stationary(T)
    factory, delta = ucb1_stack(env, T)
    log = run_master(env, factory, T, delta, kappa=math.inf, seed=13)

    rng_env = seed_derive(13, 0, "env")
    rng_sched = seed_derive(13, 0, "sched")
    t = 1
    for n in range(5):
        runner = MalgRunner(t, n, factory().rate(), factory, rng_sched)
        for _ in range(1 << n):
            g, pol, rec = runner.begin_round(t)
            r, fb = env.play(t, pol, rng_env)
            runner.finish_round(t, r, fb)
            i = t - 1
            assert log.column("g_tilde")[i] == g
            assert log.column("policy")[i] == pol
            assert log.column("active_order")[i] == rec.order
            assert log.column("reward")[i] == r
            t += 1


def test_block_orders_reset_after_restart():
    T = 64
    env = stationary(T, (0.9, 0.1))
    factory, delta = ucb1_stack(env, T)
    log = RunLog()
    master_core(BanditWorld(env), factory, T, delta, 0.0,
                seed_derive(17, 0, "env"), seed_derive(17, 0, "sched"), log)
    # kappa=0 restarts every round: every row is block 0 of a new epoch
    assert log.column("block") == [0] * T
    assert log.column("epoch") == list(range(T))
    assert len(log.restarts) == T


def test_at_most_one_restart_event_per_round():
    T = 64
    env = stationary(T, (0.9, 0.1))
    factory, delta = ucb1_stack(env, T)
    log = RunLog()
    master_core(BanditWorld(env), factory, T, delta, 1e-9,
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
    log = run_master(env, factory, T, delta, kappa=1.0, seed=23)
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
    log = run_master(env, factory, T, delta, kappa=1.0, seed=29)
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
    log = run_master(env, factory, T, delta, kappa=1e-4, seed=31)
    assert any(ev.block > 0 for ev in log.restarts)
    assert RunLog.from_csv(log.to_csv_text()).restarts == log.restarts


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
        log.append(t, 0, 0, 0, t % 2, 0.5, 0.9, 1.0, 1.0, "")
    log.column(column)[30] = bad
    got = _outcome(log.to_csv_text)
    assert isinstance(got, tuple)
    assert got == _outcome(lambda: rowwise_csv(log))


def test_csv_writer_formats_each_repeated_value_once(monkeypatch):
    formatted = []

    def counting(fmt):
        def wrapped(value):
            formatted.append(value)
            return fmt(value)
        return wrapped

    monkeypatch.setattr(nonstat.master, "_int_text", counting(nonstat.master._int_text))
    monkeypatch.setattr(nonstat.master, "_float_text", counting(nonstat.master._float_text))
    log = RunLog()
    for t in range(100):  # t is distinct in every row: formatted per cell, not through the memo
        log.append(t, t // 50, 0, t % 3, t % 2, float(t % 2), 0.9, 1.0, 0.25, "")
    assert log.to_csv_text() == rowwise_csv(log)
    assert sorted(map(repr, formatted)) == sorted(
        ["0", "1", "0", "0", "1", "2", "0", "1", "0.0", "1.0", "0.9", "1.0", "0.25"]
    )


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
# bare baseline


def test_run_bare_single_round():
    env = stationary(1)
    log = run_bare(env, Ucb1(2, 1, 1.0 / 2), 1, seed=31)
    assert len(log) == 1
    assert log.column("active_order") == [-1]


def test_run_bare_sublinear_on_stationary():
    T = 4096
    env = stationary(T, (0.8, 0.2))
    log = run_bare(env, Ucb1(2, T, 1.0 / T), T, seed=37)
    regret = dynamic_regret(log)
    curve = np.cumsum(np.asarray(log.column("f_star")) - np.asarray(log.column("reward")))
    # second half accrues far less than the first half (sublinear)
    assert curve[-1] - curve[T // 2] < curve[T // 2] * 0.8
    assert regret < 0.2 * T


def test_kappa_zero_log_is_pinned():
    # kappa=0 (library calls only) restarts every round; this run mixes both
    # test causes, so it pins the test-1 token too
    T = 32
    env = mab(T, [{"length": 16, "means": [0.9, 0.1]}, {"length": 16, "means": [0.1, 0.9]}])
    factory, delta = ucb1_stack(env, T)
    log = run_master(env, factory, T, delta, kappa=0.0, seed=0)
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

    def __init__(self, k, updates):
        self.k = k
        self.updates = updates

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
        ScriptedWorld([0.5] * T), lambda: SignalingLearner(k, updates), T, 1.0 / T,
        math.inf, seed_derive(0, 0, "env"), seed_derive(0, 0, "sched"), log,
    )
    expected = [(k, "mdp_signal", 2)] + [(t, "mdp_signal", 0) for t in range(k + 1, T + 1)]
    assert [(ev.round, ev.cause, ev.block) for ev in log.restarts] == expected
    events = log.column("event")
    assert events[k - 1].split(";")[-1] == "restart mdp_signal"
    assert not any("restart" in ev for ev in events[: k - 1])
    assert log.column("epoch") == [0] * k + list(range(1, T - k + 1))


def test_bare_run_ignores_the_restart_signal():
    T = 12
    updates = [0]
    log = run_bare(stationary(T), SignalingLearner(1, updates), T)
    assert updates == [T]
    assert log.restarts == []
    assert log.column("event") == [""] * T

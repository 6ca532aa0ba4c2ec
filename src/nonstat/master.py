"""Restarting reduction: doubling blocks, stationarity tests, run logs.

One epoch runs blocks of lengths 2^0, 2^1, ... ; each block runs a fresh
multi-scale scheduler.  Within a block the running minimum U_t of the
emitted optimistic values is maintained, and after every round two tests
are performed:

    test 1 (at rounds where an order-m instance ends):
        fail iff  interval_average  >=  U_t + 9 * rho_hat(2^m)
    test 2 (every round, over the block so far):
        fail iff  mean(g~ - R)      >=  3 * rho_hat(t - t_n + 1)

Both thresholds depend only on the order or on the block length, so each
control-loop call tables them (ThresholdTable) and the tests compare
against the tabled values.  run_master and run_bare serve every
environment kind through its round adapter, which carries the MDP log
columns and rho_hat's factor: 6 (BanditWorld), or 18 (AverageRewardWorld).

A failed test aborts the epoch: everything restarts from scratch at the
next round (block order back to 0, all instances discarded).  A third
cause, "mdp_signal", restarts when the active learner raises its
restart_signaled flag (only the average-reward learner does, when its
widening budget runs out).  A fail detected at round t takes effect at t+1,
matching the act / update / test / increment order of the control loop.
When several causes fire in the same round a single restart is recorded,
with the order-level test first, then the block test, then the signal.
The restart is written as a "restart <cause>" token into that round's
event field; RunLog.restarts is read from the event and block columns.

The per-round log stores the environment oracle's f*_t captured at
simulation time, so dynamic regret is an exact second pass over the rows.
Each row is one RunLog.append call with its values in RunLog.columns
order; the round adapter's extras(learner) gives the MDP columns' values
as a tuple, () for bandits.  The control loop binds the runner's, the
adapter's and the log's methods once per block.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
import operator
import re
from array import array
from dataclasses import dataclass

import numpy as np

from .malg import MalgRunner, rho_hat
from .rates import RateFunction

__all__ = [
    "RunLog",
    "RestartEvent",
    "seed_derive",
    "BanditWorld",
    "AverageRewardWorld",
    "test1_fails",
    "test2_fails",
    "run_master",
    "run_bare",
    "dynamic_regret",
]

_BASE_COLUMNS = (
    "t",
    "block",
    "epoch",
    "active_order",
    "policy",
    "reward",
    "f_star",
    "g_tilde",
    "u_min",
    "event",
)
_MDP_COLUMNS = ("episode", "eta", "gamma_budget", "dbar", "borl_arm")
_INT_COLUMNS = {"t", "block", "epoch", "active_order", "policy", "episode", "borl_arm"}
_LINE = re.compile(r"[^\n]*\n|[^\n]+")  # one line of text with its "\n", or a last unterminated one


def _csv_field(text: str) -> str:
    """text as csv.writer (minimal quoting, "\r\n" line terminator) writes it
    in a row of several fields: quoted, with inner quotes doubled, when it
    holds a comma, a quote, a LF or a CR (csv.reader rejects a CR in an
    unquoted field)."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


_SAMPLE = 64  # the first rows of a number column, which decide how it is formatted


class _Texts(dict):
    """A number column's texts keyed by value: each distinct value is
    formatted once, at its first cell."""

    def __init__(self, fmt):
        super().__init__()
        self.fmt = fmt

    def __missing__(self, value):
        text = self[value] = self.fmt(value)
        return text


def _int_text(value) -> str:
    return str(int(value))


def _float_text(value) -> str:
    return repr(float(value))


def _has_negative_zero(data: list) -> bool:
    values = np.array(data, dtype=np.float64)
    return bool(np.signbit(values[values == 0.0]).any())


def _number_texts(data: list, is_int: bool):
    """The cells of a number column, str(int(v)) or repr(float(v)), in row order.

    Each distinct value is formatted once, through a _Texts memo, unless
    more than half of the column's first _SAMPLE values are distinct, or it
    is a float column that holds a -0.0: -0.0 and 0.0 are one key but two
    texts (in an int column both read "0").  Those columns are formatted
    per cell.  A nan is a key only to itself, so each nan object is
    formatted at its first cell.
    """
    sample = data[:_SAMPLE]
    if len(set(sample)) * 2 > len(sample) or (not is_int and 0.0 in data and _has_negative_zero(data)):
        return map(str, map(int, data)) if is_int else map(repr, map(float, data))
    return map(_Texts(_int_text if is_int else _float_text).__getitem__, data)


def seed_derive(master_seed: int, run_index: int, purpose: str) -> np.random.Generator:
    """Counter-based stream derivation, platform-independent.

    stream = PCG64 seeded with the first 8 bytes of
    SHA-256("<master_seed>:<run_index>:<purpose>"), so distinct (run, purpose)
    pairs get independent streams and any run is reproducible from its spec
    alone, on any platform.
    """
    msg = f"{master_seed}:{run_index}:{purpose}".encode()
    digest = hashlib.sha256(msg).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))


@dataclass(frozen=True)
class RestartEvent:
    round: int
    cause: str  # "test1 m<order>#<uid>" | "test2" | "mdp_signal"
    block: int


class RunLog:
    """Column-oriented per-round record; serializes to CSV bit-exactly."""

    def __init__(self, mdp_columns: bool = False):
        self.has_mdp_columns = mdp_columns
        self.columns = _BASE_COLUMNS + _MDP_COLUMNS if mdp_columns else _BASE_COLUMNS
        self._data = {name: [] for name in self.columns}
        self._lists = tuple(self._data.values())

    def __len__(self):
        return len(self._data["t"])

    def append(self, *row):
        """Add one row, its values in self.columns order."""
        if len(row) != len(self._lists):
            raise ValueError(f"row of {len(row)} values, expected {len(self._lists)} (the log's columns)")
        any(map(list.append, self._lists, row))  # list.append returns None: any() runs it on every pair

    def column(self, name):
        return self._data[name]

    @property
    def restarts(self) -> list[RestartEvent]:
        """The restart tokens of the event column, with their rows' round and block."""
        data = self._data
        return [
            RestartEvent(round=t, cause=token[len("restart "):], block=block)
            for t, block, event in zip(data["t"], data["block"], data["event"])
            if "restart " in event
            for token in event.split(";")
            if token.startswith("restart ")
        ]

    # -- serialization ------------------------------------------------------

    def to_csv(self, path_or_buf):
        """Write the log as CSV, each column formatted in one pass: ints with
        str(int(v)), floats with repr(float(v)), each distinct value of a
        column that repeats its values once (_number_texts), and the event
        text per cell, quoted as csv.writer quotes it."""
        if not hasattr(path_or_buf, "write"):
            with open(path_or_buf, "w", encoding="utf-8", newline="") as fh:
                return self.to_csv(fh)
        cells = []
        for name in self.columns:
            data = self._data[name]
            if name == "event":
                cells.append(map(_csv_field, data))
            else:
                cells.append(_number_texts(data, name in _INT_COLUMNS))
        rows = map(",".join, zip(*cells))
        path_or_buf.write(",".join(self.columns) + "\n")
        path_or_buf.writelines(map(operator.add, rows, itertools.repeat("\n")))
        return None

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path_or_text: str) -> "RunLog":
        """Read a log from a CSV file path or from CSV text, one line at a time."""
        if "\n" not in path_or_text:
            # newline="" as to_csv writes: a CR inside a quoted field stays a CR
            with open(path_or_text, "r", encoding="utf-8", newline="") as fh:
                return cls._from_csv_reader(csv.reader(fh))
        # the lines io.StringIO(text) would give, without its copy of the text
        return cls._from_csv_reader(csv.reader(map(re.Match.group, _LINE.finditer(path_or_text))))

    @classmethod
    def _from_csv_reader(cls, reader) -> "RunLog":
        header = next(reader, None)
        if header is None:
            raise ValueError("line 1: empty input, expected the header")
        log = cls(mdp_columns="episode" in header)
        if tuple(header) != log.columns:
            raise ValueError(f"unexpected log columns {header}")
        parsers = [str if name == "event" else int if name in _INT_COLUMNS else float for name in header]
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"line {reader.line_num}: {len(row)} cells, expected {len(header)}")
            log.append(*[parse(cell) for parse, cell in zip(parsers, row)])
        return log


def dynamic_regret(log: RunLog) -> float:
    """Sum over rounds of (f*_t - R_t), accumulated left to right."""
    if len(log) == 0:
        raise ValueError("empty run log")
    total = 0.0
    for f_star, reward in zip(log.column("f_star"), log.column("reward")):
        total += f_star - reward
    return total


class BanditWorld:
    """Round-per-decision environments (bandits and episodic MDPs)."""

    mdp_columns = False
    rho_factor = 6.0

    def __init__(self, env):
        self.env = env

    def play(self, t, policy, rng):
        reward, feedback = self.env.play(t, policy, rng)
        return reward, feedback, self.env.optimal_value(t)

    def extras(self, learner):
        return ()


class AverageRewardWorld:
    """Continuing-MDP adapter: one framework round is one transition.

    The physical state persists across instance switches, blocks, and
    restarts; a newly resumed learner simply continues from wherever the
    trajectory currently is.  borl_arm is the diameter-guess arm BORL is
    playing (-1 outside BORL), logged with every row.
    """

    mdp_columns = True
    rho_factor = 18.0

    def __init__(self, env):
        self.env = env
        self.state = env.init_state
        self.borl_arm = -1

    def play(self, t, policy, rng):
        s = self.state
        action = self.env.policy_action(policy, s)
        reward, nxt = self.env.step(t, s, action, rng)
        self.state = nxt
        return reward, (s, action, reward, nxt), self.env.optimal_value(t)

    def extras(self, learner):
        """The _MDP_COLUMNS values of a row."""
        return learner.episode, learner.eta, learner.gamma_budget, learner.dbar, self.borl_arm


def test1_fails(interval_average: float, u_min: float, threshold: float) -> bool:
    """Order-level test: an ending length-2^m instance whose realized average
    reward beats the block's optimistic floor by threshold = 9 * rho_hat(2^m)
    exposes a value increase the running learners have not caught."""
    return interval_average >= u_min + threshold


def test2_fails(gap_sum: float, length: int, threshold: float) -> bool:
    """Block-average test: the mean optimism gap (g~ - R) over the block so
    far must stay below threshold = 3 * rho_hat(block length)."""
    return gap_sum / length >= threshold


class ThresholdTable:
    """The two tests' thresholds, which depend only on the order or the block
    length: order[m] = 9 * rho_hat(2^m) and length[l - 1] = 3 * rho_hat(l),
    computed once each, when a block first needs them.  Held as float64
    arrays, which store them without a Python object per entry."""

    def __init__(self, rate: RateFunction, horizon: int, delta: float, kappa: float, rho_factor: float):
        self._rho_hat_args = (rate, horizon, delta, kappa, rho_factor)
        self.order = array("d")
        self.length = array("d")

    def cover(self, n: int, length: int):
        """Extend the tables to orders 0..n and block lengths 1..length."""
        args = self._rho_hat_args
        while len(self.order) <= n:
            self.order.append(9.0 * rho_hat(float(1 << len(self.order)), *args))
        while len(self.length) < length:
            self.length.append(3.0 * rho_hat(float(len(self.length) + 1), *args))


def master_core(
    world,
    factory,
    horizon: int,
    delta: float,
    kappa: float,
    rng_env,
    rng_sched,
    log: RunLog,
    *,
    start_t: int = 1,
    end_t: int | None = None,
    max_epochs: int | None = None,
):
    """Shared control loop; returns (next_round, stop_reason).

    factory() builds a fresh base learner; the scheduler and both tests read
    the rate() of one learner built before the first round.  Rounds run over
    [start_t, end_t] (end_t defaults to the horizon, which always sets the
    test thresholds).  stop_reason is "done" when the range is exhausted or
    "epoch_overflow" when starting one more epoch would exceed max_epochs
    (the doubling-guess strategy reacts to that).
    kappa = +inf disables both tests; world.rho_factor inflates both thresholds.
    """
    if end_t is None:
        end_t = horizon
    t = start_t
    epochs_done = 0
    rate = factory().rate()
    thresholds = ThresholdTable(rate, horizon, delta, kappa, world.rho_factor)
    order_thresholds, length_thresholds = thresholds.order, thresholds.length
    while t <= end_t:
        epoch = epochs_done
        restarted = False
        n = 0
        while t <= end_t and not restarted:  # blocks within the epoch
            t_n = t
            block_end = min(t_n + (1 << n) - 1, end_t)
            thresholds.cover(n, block_end - t_n + 1)
            runner = MalgRunner(t_n, n, rate, factory, rng_sched)
            begin, finish, play, extras, append = (
                runner.begin_round, runner.finish_round, world.play, world.extras, log.append)
            u_min = math.inf
            gap_sum = 0.0
            length = 0
            while t <= block_end:
                g_tilde, policy, active = begin(t)
                reward, feedback, f_star = play(t, policy, rng_env)
                ended = finish(t, reward, feedback)
                if g_tilde < u_min:  # min(u_min, g_tilde) without the call, nan included
                    u_min = g_tilde
                gap_sum += g_tilde - reward
                length += 1

                cause = None
                for rec in ended:
                    if test1_fails(rec.interval_average(), u_min, order_thresholds[rec.order]):
                        cause = f"test1 m{rec.order}#{rec.uid}"
                        break
                if cause is None and test2_fails(gap_sum, length, length_thresholds[length - 1]):
                    cause = "test2"
                learner = active.learner
                if cause is None and learner.restart_signaled:
                    cause = "mdp_signal"

                events = runner.events
                if cause is not None:
                    events = [*events, f"restart {cause}"]
                append(t, n, epoch, active.order, policy, reward, f_star, g_tilde, u_min,
                       ";".join(events) if events else "", *extras(learner))

                t += 1
                if cause is not None:
                    restarted = True
                    break
            if t < t_n + (1 << n):  # cut short by a restart or by end_t
                runner.cut(t - 1)
            n += 1
        if restarted:
            epochs_done += 1
            if max_epochs is not None and epochs_done + 1 > max_epochs:
                return t, "epoch_overflow"
    return t, "done"


def _world_for(env):
    """The round adapter of env's kind."""
    return AverageRewardWorld(env) if env.kind == "infinite" else BanditWorld(env)


def run_master(
    env,
    factory,
    horizon: int,
    delta: float | None = None,
    kappa: float = 1.0,
    seed: int = 0,
    run_index: int = 0,
) -> RunLog:
    """Full run of the reduction over an environment of any kind."""
    if delta is None:
        delta = 1.0 / horizon
    world = _world_for(env)
    log = RunLog(mdp_columns=world.mdp_columns)
    master_core(
        world, factory, horizon, delta, kappa,
        seed_derive(seed, run_index, "env"), seed_derive(seed, run_index, "sched"), log,
    )
    return log


def run_bare(env, learner, horizon: int, seed: int = 0, run_index: int = 0) -> RunLog:
    """The base learner alone, with no scheduling and no tests.

    Restart signals of the average-reward learner are ignored.
    """
    rng_env = seed_derive(seed, run_index, "env")
    world = _world_for(env)
    log = RunLog(mdp_columns=world.mdp_columns)
    for t in range(1, horizon + 1):
        g_tilde = learner.predict()
        policy = learner.act()
        reward, feedback, f_star = world.play(t, policy, rng_env)
        learner.update(feedback)
        log.append(t, 0, 0, -1, policy, reward, f_star, g_tilde, 0.0, "", *world.extras(learner))
    return log

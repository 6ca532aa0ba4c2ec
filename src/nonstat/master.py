"""Restarting reduction: doubling blocks, stationarity tests, run logs.

One epoch runs blocks of lengths 2^0, 2^1, ... ; each block runs a fresh
multi-scale scheduler.  Within a block the running minimum U_t of the
emitted optimistic values is maintained, and after every round two tests
are performed:

    test 1 (at rounds where an order-m instance ends):
        fail iff  interval_average  >=  U_t + 9 * rho_hat(2^m)
    test 2 (every round, over the block so far):
        fail iff  mean(g~ - R)      >=  3 * rho_hat(t - t_n + 1)

Both thresholds depend only on the order or on the block length, so they
are tabled (ThresholdTable) and the tests compare against the tabled
values.  Each entry is a pure function of its index and of (rate, horizon,
delta, kappa, rho_factor), so every control-loop call with that key (the
seed-runs of a spec, borl's intervals, doubling_dbar's epochs) shares and
extends one process-wide table, which holds exactly the values a fresh one
would.  At most THRESHOLD_MEMO_SIZE tables are kept, least recently used
first out.

A test is called only where its threshold can be crossed
(ThresholdTable.live_order and live_length); in a block of order below
live_order, the runner keeps no interval sum and the loop scans no ending
instance.  That rests on g~ and each reward lying in [0, 1], which the loop
checks every round: it raises a ValueError that names the round otherwise.
The runner names each instance by its uid, and the loop reads its order,
learner and interval sum from the runner's uid-indexed lists (nonstat.malg).

run_master and run_bare run over env.horizon and serve every environment
kind through its round adapter, which carries the MDP log columns, rho_hat's
factor: 6 (BanditWorld), or 18 (AverageRewardWorld), and last_update_read,
which the scheduler reads (nonstat.malg).  master_core reads the horizon T
from the adapter's env and the confidence delta from the learner it builds
for rate(), so no caller passes either.

A failed test aborts the epoch: everything restarts from scratch at the
next round (block order back to 0, all instances discarded).  A third
cause, "mdp_signal", restarts when the active learner raises its
restart_signaled flag (only the average-reward learner does, when its
widening budget runs out).  A fail detected at round t takes effect at t+1,
matching the act / update / test / increment order of the control loop.
When several causes fire in the same round a single restart is recorded,
with the order-level test first, then the block test, then the signal.

An event cell is one of two kinds.  The scheduler formats no event text,
so a master_core row holds its block's schedule (malg.BlockSchedule), one
object shared by the block's rows; logs read back by from_csv, and those of
run_bare, hold plain text.  A token that belongs to one row, the
"restart <cause>" of a restart row or mdp.doubling_dbar's "double_dbar"
token, is joined to it by RunLog.amend_event and kept apart, in two
parallel sequences: the amended rows, ascending, and their tokens.  The
text is rendered only when it is read (_event_texts): RunLog.column("event")
into a new list at each read, and to_csv straight into its cells, each
quoted by _csv_field.  RunLog.restarts reads the tokens and text cells,
and renders no schedule.

Both loops, master_core and run_bare, hand the environment its uniforms
from one _Uniforms stream over rng_env, closed at every exit of the loop.

The per-round log stores the environment oracle's f*_t captured at
simulation time, so dynamic regret is an exact second pass over the rows.
Each row is one RunLog.append call with its values in RunLog.columns
order; the round adapter's extras(learner) gives the MDP columns' values
as a tuple, () for bandits.  The control loop binds the runner's, the
adapter's and the log's methods once per block.  A log keeps its number
columns as C arrays, filled from its pending rows a chunk at a time
(RunLog), so RunLog.column returns the log's own sequence, an array or a
list, and the CSV bytes are those of the values as appended: to_csv
formats each distinct 8-byte value of a typed column once per LOG_CHUNK
rows (_number_texts).

The row of the round at which the active instance ends is the last to read
its learner, so the loop then frees it in the runner's list (None): on a
workload where each round builds a learner, they would otherwise all live,
and be walked by the cyclic GC, until the block ends.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import math
import operator
import re
import struct
import threading
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


def _number_texts(data, is_int: bool):
    """The cells of a number column, str(int(v)) or repr(float(v)), in row order.

    A typed column is formatted LOG_CHUNK rows at a time: np.unique over the
    chunk's raw 8-byte values formats each distinct value once, and tells
    -0.0 from 0.0 (and one nan from another) by its bits.  A plain list,
    which holds values as appended (RunLog), is formatted per cell.
    """
    if data.__class__ is list:
        return map(str, map(int, data)) if is_int else map(repr, map(float, data))
    return itertools.chain.from_iterable(
        _chunk_texts(data[start:start + LOG_CHUNK], is_int) for start in range(0, len(data), LOG_CHUNK))


def _chunk_texts(chunk: array, is_int: bool) -> list:
    """The cells of a slice of a typed column; only the list outlives the call."""
    keys, rows = np.unique(np.frombuffer(chunk, np.int64), return_inverse=True)
    texts = map(str, keys.tolist()) if is_int else map(repr, keys.view(np.float64).tolist())
    return np.array(list(texts), dtype=object)[rows].tolist()


def _event_texts(cells: list, own):
    """An iterator over the event text of each row: its cell's text, then the
    row's own tokens (own: (row, tokens) pairs, by row ascending), after a
    ";" when that text is not empty.

    A cell is its text, or its block's schedule (malg.BlockSchedule), which
    stands for the schedule's text at that round.  A block's rows follow each
    other from its first round, so a run of one schedule is all of its rows,
    and the schedule is rendered once, up to its last row.
    """
    def parts():
        owned = iter(own)
        mark, tokens = next(owned, (math.inf, None))
        row = 0
        for cell, group in itertools.groupby(cells):
            count = operator.countOf(group, cell)
            part = [cell] * count if cell.__class__ is str else cell.texts(count)
            while mark < row + count:
                text = part[mark - row]
                part[mark - row] = f"{text};{tokens}" if text else tokens
                mark, tokens = next(owned, (math.inf, None))
            row += count
            yield part

    return itertools.chain.from_iterable(parts())


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


LOG_CHUNK = 8192  # rows a RunLog keeps pending in one flat list before it splits them into its columns


class RunLog:
    """Column-oriented per-round record; serializes to CSV bit-exactly.

    An int column is an array("q") and a float column an array("d"), 8 bytes
    a value and no Python object; the event column is a list of cells, each
    its text or a block's schedule, and the tokens amend_event adds to a row
    sit apart, in an array("q") of the amended rows, ascending, and a list of
    their tokens (_event_texts); the log keeps no runner and no learner
    alive.

    append extends one pending list with the row's values, making no object
    per row.  At LOG_CHUNK rows, and before a read (column, to_csv, restarts),
    the list is split into columns by slices, and one struct.pack stores
    each number column (a float column holds float(v)).
    A chunk that holds a value its column's type cannot store, such as an
    int above 2^63 - 1 (an episodic policy id reaches A^(S*H)), or a float
    or a nan in an int column, turns that column into a plain list of the
    values as appended, from then on.  So every CSV cell, and every error
    the writer raises, is what str(int(v)) or repr(float(v)) gives."""

    def __init__(self, mdp_columns: bool = False):
        self.columns = _BASE_COLUMNS + _MDP_COLUMNS if mdp_columns else _BASE_COLUMNS
        self._data = {
            name: [] if name == "event" else array("q" if name in _INT_COLUMNS else "d") for name in self.columns}
        self._rows = []  # the pending rows' values, one row after another
        # the rows amend_event joined tokens to, ascending (it amends the last row),
        # and their tokens: 16 bytes a row beside the tokens' text
        self._own_rows, self._own_tokens = array("q"), []
        self._width, self._limit = len(self.columns), LOG_CHUNK * len(self.columns)

    def __len__(self):
        return len(self._data["event"]) + len(self._rows) // self._width

    def append(self, *row):
        """Add one row, its values in self.columns order."""
        rows = self._rows
        if len(row) != self._width:
            raise ValueError(f"row of {len(row)} values, expected {self._width} (the log's columns)")
        rows += row
        if len(rows) >= self._limit:
            self._flush()

    def _flush(self):
        """Move the pending rows into their columns."""
        rows, data, width = self._rows, self._data, self._width
        for i, name in enumerate(self.columns):
            column, values = data[name], rows[i::width]
            if column.__class__ is list:
                column += values
            else:
                try:  # all or nothing; struct packs a list about twice as fast as array.fromlist
                    column.frombytes(struct.pack(f"{len(values)}{column.typecode}", *values))
                except (struct.error, TypeError, ValueError, OverflowError):
                    # a value the type cannot hold (the last three come from a value's own __index__):
                    # keep every value as appended, so the writer raises what it would on them
                    data[name] = column.tolist() + values
        rows.clear()

    def column(self, name):
        """The column's values in row order: the log's own sequence, an array
        or a list, except for the event column, whose texts are rendered into
        a new list at each read, so the log never holds them."""
        self._flush()
        data = self._data[name]
        return list(_event_texts(data, self._own())) if name == "event" else data

    def _own(self):
        """The (row, tokens) pairs of the rows amend_event joined tokens to, by row ascending."""
        return zip(self._own_rows, self._own_tokens)

    def amend_event(self, token: str):
        """Join token to the last row's event, after a ";" if it has one: to
        the row's own tokens, which its cell's text is followed by."""
        row = len(self) - 1
        if row < 0:
            raise ValueError(f"cannot amend the event of a log with no row (token {token!r})")
        rows, tokens = self._own_rows, self._own_tokens
        if rows and rows[-1] == row:
            tokens[-1] = f"{tokens[-1]};{token}"
        else:
            rows.append(row)
            tokens.append(token)

    @property
    def restarts(self) -> list[RestartEvent]:
        """The restart tokens of the event column, with their rows' round and
        block.  Read from the rows' own tokens and the cells that hold text,
        a run of equal cells at a time; no schedule is rendered, since its
        events are never restarts."""
        self._flush()
        data = self._data
        tokens = {}  # row -> its text cell, then its own tokens, where either may hold a restart
        row = 0
        for cell, group in itertools.groupby(data["event"]):
            count = operator.countOf(group, cell)
            if cell.__class__ is str and "restart " in cell:
                tokens.update(dict.fromkeys(range(row, row + count), cell))
            row += count
        for row, own in self._own():
            tokens[row] = f"{tokens[row]};{own}" if row in tokens else own
        rounds, blocks = data["t"], data["block"]
        return [RestartEvent(round=rounds[row], cause=token[len("restart "):], block=blocks[row])
                for row in sorted(tokens) for token in tokens[row].split(";") if token.startswith("restart ")]

    # -- serialization ------------------------------------------------------

    def to_csv(self, path_or_buf):
        """Write the log as CSV, a chunk of rows at a time: ints with
        str(int(v)), floats with repr(float(v)), each distinct value of a
        typed column once per chunk (_number_texts), and the event text per
        cell, quoted as csv.writer quotes it (_csv_field)."""
        if not hasattr(path_or_buf, "write"):
            with open(path_or_buf, "w", encoding="utf-8", newline="") as fh:
                return self.to_csv(fh)
        self._flush()
        data = self._data
        cells = [map(_csv_field, _event_texts(data[name], self._own())) if name == "event"
                 else _number_texts(data[name], name in _INT_COLUMNS) for name in self.columns]
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
            try:
                values = [parse(cell) for parse, cell in zip(parsers, row)]
            except ValueError:  # name the first cell that does not parse
                for name, parse, cell in zip(header, parsers, row):
                    try:
                        parse(cell)
                    except ValueError as exc:
                        raise ValueError(f"line {reader.line_num}, column {name}: {exc}") from None
                raise
            log.append(*values)
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
    """Round-per-decision environments (bandits and episodic MDPs).

    Their learners never signal and log no columns, so nothing reads a
    learner after its instance's last update.
    """

    mdp_columns = False
    rho_factor = 6.0
    last_update_read = False

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
    playing (-1 outside BORL), logged with every row.  Every row reads the
    learner after its update: extras, and the loop's restart_signaled.
    """

    mdp_columns = True
    rho_factor = 18.0
    last_update_read = True

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
    arrays, which store them without a Python object per entry.  The tables
    only grow, under a lock, so callers may share one.

    live_order and live_length are the first order and the first block
    length whose threshold is at most 1 (a test can fail there), or inf
    while no covered entry is: every entry before them is above 1, and the
    control loop calls no test there.  Both tests' left-hand sides lie in
    [0, 1], so a threshold above 1 is never crossed.  That rests on the
    base-learner contract, g~ in [0, 1] (every learner clamps predict()),
    and on rewards in [0, 1]: an interval average is at most 1 and U_t at
    least 0, and each gap g~ - R is at most 1.  It holds in float64 too, as
    a rounded sum of terms that are each at most 1 never exceeds their
    count."""

    live_order = live_length = math.inf

    def __init__(self, rate: RateFunction, horizon: int, delta: float, kappa: float, rho_factor: float):
        self._rho_hat_args = (rate, horizon, delta, kappa, rho_factor)
        self.order = array("d")
        self.length = array("d")
        self._lock = threading.Lock()

    def cover(self, n: int, length: int):
        """Extend the tables to orders 0..n and block lengths 1..length."""
        args = self._rho_hat_args
        with self._lock:
            while len(self.order) <= n:
                self.order.append(9.0 * rho_hat(float(1 << len(self.order)), *args))
                if self.order[-1] <= 1.0 and self.live_order == math.inf:
                    self.live_order = len(self.order) - 1
            while len(self.length) < length:
                self.length.append(3.0 * rho_hat(float(len(self.length) + 1), *args))
                if self.length[-1] <= 1.0 and self.live_length == math.inf:
                    self.live_length = len(self.length)


THRESHOLD_MEMO_SIZE = 16


@functools.lru_cache(maxsize=THRESHOLD_MEMO_SIZE)
def _shared_thresholds(rate, horizon, delta, kappa, rho_factor) -> ThresholdTable:
    """The process's one ThresholdTable for these arguments, extended by every caller.

    A control-loop call covers block lengths up to (T + 1) / 2 and orders up
    to log2(T), 8 bytes each, so a table takes at most about 4*T bytes, and
    the memo at most THRESHOLD_MEMO_SIZE times that: 64 MB at T = 2^20.
    """
    return ThresholdTable(rate, horizon, delta, kappa, rho_factor)


CHUNK = 1024  # uniforms per draw of an environment stream (_Uniforms)


class _Uniforms:
    """The environment's uniforms for one loop call, from rng (a PCG64
    Generator): random() returns the next double of rng.random(CHUNK).tolist(),
    drawn again when spent.  It is the C-level __next__ of a chain over those
    lists, so no Python frame runs per draw.  The environment draws with
    rng.random(), no arguments (nonstat.envs), and PCG64 makes each double
    from one 64-bit output, so these are the values one call per draw would
    give.  close() steps rng back over the doubles drawn and not returned
    (advance wraps a negative count, as MalgRunner.cut does on rng_sched) and
    ends the stream.  Both loops close it at every exit (a return,
    "epoch_overflow" or an exception), so a caller that shares rng across
    calls (mdp.borl, mdp.doubling_dbar) sees the state per-call draws leave."""

    __slots__ = ("random", "_rng", "_left")

    def __init__(self, rng):
        self._rng = rng
        self._left = iter(())  # the last chunk's doubles not yet returned
        self.random = itertools.chain.from_iterable(iter(self._chunk, None)).__next__

    def _chunk(self):
        self._left = iter(self._rng.random(CHUNK).tolist())
        return self._left

    def close(self):
        unused = operator.length_hint(self._left)
        if unused:
            self._rng.bit_generator.advance(-unused)
        del self.random  # which also frees the cycle self -> chain -> self._chunk


def master_core(world, factory, kappa: float, rng_env, rng_sched, log: RunLog, *, start_t: int = 1,
                end_t: int | None = None, max_epochs: int | None = None):
    """Shared control loop; returns (next_round, stop_reason).

    factory() builds a fresh base learner.  One learner built before the
    first round gives the rate() that the scheduler and both tests read and
    the confidence delta that the tests read; the horizon T of the tests is
    world.env.horizon.  Rounds run over [start_t, end_t] (end_t defaults to
    T).  stop_reason is "done" when the range is exhausted or
    "epoch_overflow" when starting one more epoch would exceed max_epochs
    (the doubling-guess strategy reacts to that).
    kappa = +inf disables both tests; world.rho_factor inflates both thresholds.
    rng_env (_Uniforms) and rng_sched (MalgRunner.cut) must be PCG64 Generators.
    """
    horizon = world.env.horizon
    if end_t is None:
        end_t = horizon
    t = start_t
    epochs_done = 0
    learner = factory()
    rate = learner.rate()
    thresholds = _shared_thresholds(rate, horizon, learner.delta, kappa, world.rho_factor)
    order_thresholds, length_thresholds = thresholds.order, thresholds.length
    draws = _Uniforms(rng_env)
    try:
        while t <= end_t:
            epoch = epochs_done
            restarted = False
            n = 0
            while t <= end_t and not restarted:  # blocks within the epoch
                t_n = t
                block_end = min(t_n + (1 << n) - 1, end_t)
                thresholds.cover(n, block_end - t_n + 1)
                live_order, live_length = thresholds.live_order, thresholds.live_length
                runner = MalgRunner(t_n, n, rate, factory, rng_sched)
                runner.last_update_read = world.last_update_read
                sums_read = runner.sums_read = n >= live_order  # else no order in the block reaches live_order
                begin, finish, play, extras, append, schedule = (
                    runner.begin_round, runner.finish_round, world.play, world.extras, log.append, runner.schedule)
                orders, learners, sums = runner.orders, runner.learners, runner.sums
                u_min = math.inf
                gap_sum = 0.0
                length = 0
                while t <= block_end:
                    g_tilde, policy, active = begin(t)
                    reward, feedback, f_star = play(t, policy, draws)
                    if not (0.0 <= g_tilde <= 1.0 and 0.0 <= reward <= 1.0):
                        raise ValueError(
                            f"round {t}: g_tilde {g_tilde!r} and reward {reward!r} must both lie in [0, 1]")
                    ended = finish(t, reward, feedback)
                    if g_tilde < u_min:  # min(u_min, g_tilde) without the call
                        u_min = g_tilde
                    gap_sum += g_tilde - reward
                    length += 1

                    cause = None
                    if sums_read:
                        for uid in ended:
                            m = orders[uid]
                            if m >= live_order and test1_fails(sums[uid] / float(1 << m), u_min, order_thresholds[m]):
                                cause = f"test1 m{m}#{uid}"
                                break
                    if cause is None and length >= live_length and test2_fails(
                            gap_sum, length, length_thresholds[length - 1]):
                        cause = "test2"
                    learner = learners[active]
                    if cause is None and learner.restart_signaled:
                        cause = "mdp_signal"

                    append(t, n, epoch, orders[active], policy, reward, f_star, g_tilde, u_min, schedule,
                           *extras(learner))
                    if ended:  # the active instance ends with this row, the last to read its learner
                        learners[active] = None

                    t += 1
                    if cause is not None:
                        log.amend_event(f"restart {cause}")
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
    finally:
        draws.close()


def _world_for(env):
    """The round adapter of env's kind."""
    return AverageRewardWorld(env) if env.kind == "infinite" else BanditWorld(env)


def run_master(env, factory, *, kappa: float = 1.0, seed: int = 0, run_index: int = 0) -> RunLog:
    """Full run of the reduction over an environment of any kind, over env.horizon,
    at the confidence delta of factory's learners."""
    world = _world_for(env)
    log = RunLog(mdp_columns=world.mdp_columns)
    master_core(world, factory, kappa, seed_derive(seed, run_index, "env"), seed_derive(seed, run_index, "sched"), log)
    return log


def run_bare(env, learner, *, seed: int = 0, run_index: int = 0) -> RunLog:
    """The base learner alone over env.horizon, with no scheduling and no tests.

    Restart signals of the average-reward learner are ignored.
    """
    world = _world_for(env)
    log = RunLog(mdp_columns=world.mdp_columns)
    draws = _Uniforms(seed_derive(seed, run_index, "env"))
    try:
        for t in range(1, env.horizon + 1):
            g_tilde = learner.predict()
            policy = learner.act()
            reward, feedback, f_star = world.play(t, policy, draws)
            learner.update(feedback)
            log.append(t, 0, 0, -1, policy, reward, f_star, g_tilde, 0.0, "", *world.extras(learner))
    finally:
        draws.close()
    return log

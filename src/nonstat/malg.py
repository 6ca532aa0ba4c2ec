"""Randomized multi-scale scheduling of base-learner instances.

A block of length 2^n is tiled, for every order m = n..0, by 2^(n-m)
aligned slots of length 2^m; each slot independently hosts a fresh learner
instance with probability rho(2^n) / rho(2^m), so the order-n slot is always
occupied.  The block's 2^(n+1)-1 Bernoullis are drawn at its start with one
rng.random(k), in slot order (start ascending, order descending); only the
slots that spawn are kept, by offset.  That is the order in which one draw
per slot at the round the slot starts would consume the stream, so a block
cut short (by a restart, or at the end of the caller's round range) rewinds
the stream to the state those per-round draws would have left:
MalgRunner.cut steps it back by the draws of the slots the block did not
reach.  At any round exactly one covering instance — the one of smallest
order — is active: it emits the block's optimistic value g~_t, chooses the
policy, and is the only instance whose learner state is updated.  Every
covering instance accumulates the learner's reward into its interval sum,
which the order-level stationarity test reads when the instance ends; a
caller whose test can fail at none of the block's orders
(master.ThresholdTable.live_order) sets sums_read to False, and no sum is
kept.  Slots nest, so no instance ends at a round where the active one does
not: finish_round then returns the empty tuple without scanning the stack.

An instance is an integer, its uid: its index among the block's spawns.
The runner builds no object per instance.  It keeps them in lists indexed
by uid, allocated whole at the block start: orders (the schedule's own
array), ends (the last round, set at the spawn), learners (runner.fresh
until the first update, and None once the control loop has read the
learner for the last time) and sums (the interval reward sums).  Its stack
of covering instances holds uids, and begin_round and finish_round return
uids.

Each block builds one fresh learner, runner.fresh, by one factory() call,
and no update ever reaches it: every instance plays it until its first
update, which builds the instance's own learner by one factory() call and
updates that.  By the base-learner contract (nonstat.base) reads are pure,
so each read of runner.fresh is what a learner of the instance's own would
show.  A caller that reads no learner after its instance's last update
(master.BanditWorld) sets last_update_read to False: finish_round then
skips the update at the round the active instance ends, so an instance
whose first active round is its last (every order-0 instance) builds no
learner.  Factories draw no randomness, so when and how often they are
called changes no stream.

The runner formats no event text.  Its block's spawns are kept as data, a
BlockSchedule, which a run log stores in place of its rows' event text;
BlockSchedule.texts renders that text, the spawn, pause, resume and end
tokens of each round, when the log is read or written.  runner.events is a
read-only view of the same texts for the round last begun.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from array import array

import numpy as np

from .rates import RateFunction

__all__ = [
    "BlockSchedule",
    "MalgRunner",
    "spawn_probability",
    "rho_hat",
    "n_hat",
]


def n_hat(horizon: int) -> float:
    return math.log2(horizon) + 1.0


def rho_hat(
    t: float,
    rate: RateFunction,
    horizon: int,
    delta: float,
    kappa: float = 1.0,
    factor: float = 6.0,
) -> float:
    """Inflated rate used by the stationarity tests.

    kappa scales the whole threshold (1.0 reproduces the analysis constants,
    which are conservative at small horizons); the control loop passes its
    round adapter's rho_factor as factor: 6 for bandits and episodic MDPs
    (master.BanditWorld), 18 for the average-reward learner
    (master.AverageRewardWorld).
    """
    if kappa == 0.0:
        return 0.0
    return kappa * factor * n_hat(horizon) * math.log(horizon / delta) * rate.rho(t)


def spawn_probability(n: int, m: int, rate: RateFunction) -> float:
    """rho(2^n) / rho(2^m); in (0, 1] because rho is non-increasing."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return rate.rho(float(1 << n)) / rate.rho(float(1 << m))


_LAYOUTS = {}  # the memo of _slot_layout, for the orders below _LAYOUT_MEMO_ORDERS: 64 KB in all
_LAYOUT_MEMO_ORDERS = 12


def _slot_layout(n: int) -> np.ndarray:
    """The (start offset, order) rows of the 2^(n+1)-1 slots of an order-n block in
    draw order (offset ascending, orders descending at each): the order-n slot, then
    the order n-1 layout over each half of the block.  A read-only C-int array, 8
    bytes a slot, memoized for the short blocks a restarting run starts often, and
    built anew for a larger one, whose 2^n rounds spread the cost."""
    layout = _LAYOUTS.get(n)
    if layout is None:
        half = _slot_layout(n - 1) if n else np.empty((2, 0), np.intc)
        size = half.shape[1]
        layout = np.empty((2, 2 * size + 1), np.intc)
        layout[:, 0] = 0, n
        layout[:, 1:size + 1] = layout[:, size + 1:] = half
        layout[0, size + 1:] += (size + 1) // 2  # the offsets of the second half
        layout.flags.writeable = False
        if n < _LAYOUT_MEMO_ORDERS:
            _LAYOUTS[n] = layout
    return layout


_LAST_OFFSET = [(1 << m) - 1 for m in range(64)]  # of an order-m slot, from its start


def _draws_before(n: int, tau: int) -> int:
    """Slots of an order-n block that start at offsets 0..tau-1 (tau <= 2^n):
    n + 1 at offset 0 and v2(s) + 1 at every later offset s."""
    return n + 2 * tau - 1 - (tau - 1).bit_count() if tau else 0


SPAWN_MEMO_SIZE = 256


@functools.lru_cache(maxsize=SPAWN_MEMO_SIZE)
def _spawn_probabilities(n: int, rate: RateFunction) -> np.ndarray:
    """spawn_probability(n, m, rate) for m = 0..n, as a read-only float64
    array.  Memoized per (n, rate), a frozen RateFunction being its own key,
    because a run that restarts often starts many short blocks; at most
    SPAWN_MEMO_SIZE vectors are kept, least recently used first out."""
    probs = np.array([spawn_probability(n, m, rate) for m in range(n + 1)])
    probs.flags.writeable = False
    return probs


def _spawned_slots(n: int, rate: RateFunction, rng) -> tuple[array, array]:
    """(start offset, order) of the slots of an order-n block that spawn, in
    _slot_layout order, followed by the sentinel start 2^n; one uniform per
    slot, all drawn at once."""
    offsets, orders = _slot_layout(n)
    probs = _spawn_probabilities(n, rate)
    hits = np.flatnonzero(rng.random(len(orders)) < probs[orders])
    starts = array("i", offsets[hits].tobytes())
    starts.append(1 << n)
    return starts, array("i", orders[hits].tobytes())


class BlockSchedule:
    """One block's spawns as data: its first round t_n and the start offsets
    (followed by the sentinel 2^n) and orders of the slots that spawn, in
    _slot_layout order, so uid i is starts[i], orders[i].  The runner reads
    its spawns from it, and a run log keeps one per block in place of its
    rows' event text, which texts() renders.  Nothing changes it after it is
    built, and it is compared and hashed by identity: each block's schedule
    is its own.  A plain slotted class: a frozen dataclass would add about
    0.3 ms to every import of the package."""

    __slots__ = ("t_n", "starts", "orders")

    def __init__(self, t_n: int, starts: array, orders: array):
        self.t_n = t_n
        self.starts = starts
        self.orders = orders

    def texts(self, stop: int) -> list[str]:
        """The event text of each of the block's first stop rounds: the
        round's spawns, orders descending, and a pause of the instance active
        in the round before if it still covers this round; or, in a round
        with no spawn, a resume of the instance that becomes active if it
        was active before; then the ends of the instances that close,
        shortest first.  Tokens are joined by ";", and a round with none is
        "".

        The runner's stack of covering instances is replayed with integers,
        only at the rounds where it changes: a spawn, the end of the active
        instance (slots nest, so every end is one), and the round after.
        """
        t_n, starts, orders = self.t_n, self.starts, self.orders
        count = bisect.bisect_left(starts, stop)  # the spawns before offset stop
        lasts = list(map(operator.add, starts[:count], map(_LAST_OFFSET.__getitem__, orders)))
        labels = [f"m{m}#{uid}" for m, uid in zip(orders, range(count))]
        spawns = [f"spawn {label}@[{t_n + first},{t_n + last}]" for label, first, last in zip(labels, starts, lasts)]
        out = [""] * stop
        live = []  # the uids of the covering instances, orders descending
        was_active = bytearray(count)
        uid = tau = 0  # the next spawn, and the round's offset
        active = active_last = -1  # the active instance and its last offset
        while tau < stop:
            if starts[uid] == tau:
                text = spawns[uid]
                live.append(uid)
                uid += 1
                while starts[uid] == tau:
                    text += ";" + spawns[uid]
                    live.append(uid)
                    uid += 1
                if active_last >= tau:
                    text += ";pause " + labels[active]
                active = uid - 1
                was_active[active] = 1
            else:
                text = ""
                if live[-1] != active:  # the active instance ended in the round before
                    active = live[-1]
                    if was_active[active]:
                        text = "resume " + labels[active]
                    was_active[active] = 1
            active_last = lasts[active]
            if active_last == tau:
                while live and lasts[live[-1]] == tau:
                    text += (";end " if text else "end ") + labels[live.pop()]
            out[tau] = text
            if active_last == tau:
                tau += 1
            else:  # on to the next spawn, or to the active instance's end
                tau = starts[uid] if starts[uid] < active_last else active_last
        return out


class MalgRunner:
    """Runs one block: spawning, activity resolution, and feedback routing.

    Use as two phases per round t, for every t = block_start .. block_start+2^n-1
    in turn (the block may be cut short):

        g, policy, active = runner.begin_round(t)
        ... play the environment ...
        ended = runner.finish_round(t, reward, feedback)

    active is the uid of the round's active instance, and ended the uids of
    the instances whose interval closed at t, shortest first, for the
    caller's order-level test (the shared empty tuple in a round where none
    closes); orders, ends, learners and sums are indexed by uid.
    runner.schedule is the block's BlockSchedule, and runner.events lists
    the schedule events of the round last begun.  A block that stops before
    its last round must be closed with cut(t), t its last round played, so
    that rng is left as the per-round draws would leave it.  A caller that
    reads no learner after its instance's last update sets last_update_read
    to False before the first round, and one that reads no interval sum sets
    sums_read to False (module docstring).
    """

    last_update_read = True
    sums_read = True
    _round = None  # the round of the last begin_round, which events shows
    _texts = None  # the block's event texts, once events is read

    def __init__(self, block_start: int, order_n: int, rate: RateFunction, factory, rng):
        self.factory = factory
        self.fresh = factory()  # read by every instance until its first update
        self._block_start = block_start
        self._order_n = order_n
        self._rng = rng
        self.schedule = BlockSchedule(block_start, *_spawned_slots(order_n, rate, rng))
        self.orders = orders = self.schedule.orders
        # order n always spawns, at offset 0, and covers the whole block
        assert orders[:1] == array("i", [order_n]), f"no covering instance at round {block_start}"
        spawns = len(orders)
        self.ends = [0] * spawns
        self.learners = [self.fresh] * spawns
        self.sums = [0.0] * spawns
        self._next_spawn = 0  # the uid of the first spawn not yet made
        self._spawn_at = block_start  # its round
        # the uids of the instances covering the current round, orders
        # descending: aligned slots nest, so each spawn has the smallest order
        # and the active instance is always last
        self._live: list[int] = []

    # -- phase 1 -----------------------------------------------------------

    def begin_round(self, t: int):
        self._round = t
        if t == self._spawn_at:
            self._spawn(t)
        uid = self._live[-1]
        learner = self.learners[uid]
        return learner.predict(), learner.act(), uid

    def _spawn(self, t: int):
        """Push the instances whose slots start at t, orders descending."""
        live, orders, ends = self._live, self.orders, self.ends
        starts = self.schedule.starts
        tau, uid = t - self._block_start, self._next_spawn
        while starts[uid] == tau:
            m = orders[uid]
            assert not live or orders[live[-1]] > m, "overlapping same-order instances"
            ends[uid] = t + _LAST_OFFSET[m]
            live.append(uid)
            uid += 1
        self._next_spawn = uid
        self._spawn_at = self._block_start + starts[uid]

    @property
    def events(self) -> list[str]:
        """The schedule events of the round last begun, its end events
        included: a read-only view of self.schedule.texts(), rendered for
        the whole block at the first read, so a read costs O(1) amortized
        over the block's rounds."""
        t = self._round
        if t is None:
            return []
        if self._texts is None:
            self._texts = self.schedule.texts(1 << self._order_n)
        text = self._texts[t - self._block_start]
        return text.split(";") if text else []

    # -- phase 2 -----------------------------------------------------------

    def finish_round(self, t: int, reward: float, feedback) -> list[int] | tuple[()]:
        live, ends = self._live, self.ends
        uid = live[-1]  # the active instance: nothing spawns between the two phases
        end = ends[uid]
        if end != t or self.last_update_read:
            learner = self.learners[uid]
            if learner is self.fresh:  # its first update: from here on it plays its own
                learner = self.learners[uid] = self.factory()
            learner.update(feedback)
        if self.sums_read:
            sums = self.sums
            for other in live:
                sums[other] += reward
        if end != t:  # slots nest: when the active (shortest) instance goes on, all do
            return ()
        ended = []
        while live and ends[live[-1]] == t:
            ended.append(live.pop())
        return ended

    def cut(self, t: int):
        """End the block after round t: step rng back from the end of the
        block's draw, one 64-bit output per slot, to where one draw per slot at
        the round the slot starts would leave it (advance wraps a negative count)."""
        n = self._order_n
        self._rng.bit_generator.advance(_draws_before(n, t - self._block_start + 1) - (2 << n) + 1)

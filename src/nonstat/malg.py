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
MalgRunner.cut restores the state saved at the block start and advances it
by the draws of the rounds played.  At any round exactly one covering
instance — the one of smallest order — is active: it emits the block's
optimistic value g~_t, chooses the policy, and is the only instance whose
learner state is updated.  Every covering instance accumulates the
learner's reward into its interval sum, which the order-level
stationarity test reads when the instance ends.  An instance's uid is its
index among the block's spawns.  Slots nest, so no instance ends at a
round where the active one does not: finish_round then returns the empty
tuple without scanning the stack.

An instance's learner is built at its first active round, by one factory()
call: until then its record holds None, and an instance that never plays
(every round it covers is taken by one of smaller order) builds none.
Factories draw no randomness, so when they are called changes no stream.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .rates import RateFunction

__all__ = [
    "InstanceRecord",
    "MalgRunner",
    "spawn_probability",
    "schedule_upfront",
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


@functools.lru_cache(maxsize=None)
def _slot_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(start offset, order) of the 2^(n+1)-1 slots of an order-n block, in draw
    order: offset ascending, orders descending from the largest slot starting there.
    Cached per n, as two read-only C-int arrays (8 bytes per slot), because a
    run that restarts often starts many short blocks."""
    tau = np.arange(1 << n, dtype=np.intc)
    top = np.empty(1 << n, dtype=np.intc)  # largest order whose slot starts at tau
    top[0] = n
    top[1:] = np.log2(tau[1:] & -tau[1:]).astype(np.intc)
    counts = top + 1
    first = np.cumsum(counts, dtype=np.intc) - counts  # first draw of each offset
    offsets = np.repeat(tau, counts)
    orders = np.repeat(top + first, counts) - np.arange(len(offsets), dtype=np.intc)
    offsets.flags.writeable = orders.flags.writeable = False
    return offsets, orders


def _draws_before(n: int, tau: int) -> int:
    """Slots of an order-n block that start at offsets 0..tau-1 (tau <= 2^n):
    n + 1 at offset 0 and v2(s) + 1 at every later offset s."""
    return n + 2 * tau - 1 - (tau - 1).bit_count() if tau else 0


def _spawned_slots(n: int, rate: RateFunction, rng) -> tuple[array, array]:
    """(start offset, order) of the slots of an order-n block that spawn, in
    _slot_layout order, followed by the sentinel start 2^n; one uniform per
    slot, all drawn at once."""
    offsets, orders = _slot_layout(n)
    probs = np.array([spawn_probability(n, m, rate) for m in range(n + 1)])
    hits = np.flatnonzero(rng.random(len(orders)) < probs[orders])
    starts = array("i", offsets[hits].tobytes())
    starts.append(1 << n)
    return starts, array("i", orders[hits].tobytes())


def schedule_upfront(n: int, rate: RateFunction, rng) -> list[tuple[int, int, int]]:
    """The whole block's schedule, from the draw MalgRunner makes at the block
    start: (m, start_offset, end_offset) triples with offsets 0-based relative
    to the block start."""
    return [(m, tau, tau + (1 << m) - 1) for tau, m in zip(*_spawned_slots(n, rate, rng))]


@dataclass(slots=True)
class InstanceRecord:
    """One scheduled learner instance and its interval bookkeeping."""

    uid: int
    order: int
    start: int  # absolute rounds, inclusive
    end: int
    learner: object = None  # built at the first active round
    reward_sum: float = 0.0  # all learner rewards in [start, end], active or not
    active_rounds: int = 0

    def interval_average(self) -> float:
        return self.reward_sum / float(1 << self.order)


class MalgRunner:
    """Runs one block: spawning, activity resolution, and feedback routing.

    Use as two phases per round t, for every t = block_start .. block_start+2^n-1
    in turn (the block may be cut short):

        g, policy, active = runner.begin_round(t)
        ... play the environment ...
        ended = runner.finish_round(t, reward, feedback)

    ended holds the instances whose interval closed at t, for the caller's
    order-level test (the shared empty tuple in a round where none closes);
    runner.events lists this round's schedule events.  A block that stops
    before its last round must be closed with cut(t), t its last round
    played, so that rng is left as the per-round draws would leave it.
    """

    def __init__(self, block_start: int, order_n: int, rate: RateFunction, factory, rng):
        self.factory = factory
        self._block_start = block_start
        self._order_n = order_n
        self._rng = rng
        self._rng_state = rng.bit_generator.state
        self._spawn_starts, self._spawn_orders = _spawned_slots(order_n, rate, rng)
        # order n always spawns, at offset 0, and covers the whole block
        assert self._spawn_orders[:1] == array("i", [order_n]), f"no covering instance at round {block_start}"
        self._next_spawn = 0  # the first of them not yet spawned, and its uid
        self._spawn_at = block_start  # its round
        # the instances covering the current round, orders descending: aligned
        # slots nest, so each spawn has the smallest order and the active
        # instance is always last
        self._live: list[InstanceRecord] = []
        self._active: InstanceRecord | None = None  # live[-1] since the last begin_round
        self.events: list[str] = []

    # -- phase 1 -----------------------------------------------------------

    def begin_round(self, t: int):
        self.events = events = []
        if t == self._spawn_at:
            self._spawn(t, events)
        rec = self._live[-1]
        if rec is not self._active:
            self._switch(rec, t, events)
        learner = rec.learner
        return learner.predict(), learner.act(), rec

    def _spawn(self, t: int, events: list[str]):
        """Push the instances whose slots start at t, orders descending."""
        live, starts, orders = self._live, self._spawn_starts, self._spawn_orders
        tau, uid = t - self._block_start, self._next_spawn
        while starts[uid] == tau:
            m = orders[uid]
            assert not live or live[-1].order > m, "overlapping same-order instances"
            end = t + (1 << m) - 1
            live.append(InstanceRecord(uid, m, t, end))
            events.append(f"spawn m{m}#{uid}@[{t},{end}]")
            uid += 1
        self._next_spawn = uid
        self._spawn_at = self._block_start + starts[uid]

    def _switch(self, rec: InstanceRecord, t: int, events: list[str]):
        """Make rec the active instance, building its learner at its first active round."""
        prev, self._active = self._active, rec
        if prev is not None and prev.end >= t:
            events.append(f"pause m{prev.order}#{prev.uid}")
        if rec.active_rounds > 0:
            events.append(f"resume m{rec.order}#{rec.uid}")
        if rec.learner is None:
            rec.learner = self.factory()

    # -- phase 2 -----------------------------------------------------------

    def finish_round(self, t: int, reward: float, feedback) -> list[InstanceRecord] | tuple[()]:
        rec = self._active
        rec.learner.update(feedback)
        rec.active_rounds += 1
        for other in self._live:
            other.reward_sum += reward
        if rec.end != t:  # slots nest: when the active (shortest) instance goes on, all do
            return ()
        live = self._live
        ended = []
        while live and live[-1].end == t:
            other = live.pop()
            ended.append(other)
            self.events.append(f"end m{other.order}#{other.uid}")
        return ended

    def cut(self, t: int):
        """End the block after round t: put rng back where one draw per slot,
        made at the round the slot starts, would leave it."""
        bits = self._rng.bit_generator
        bits.state = self._rng_state
        bits.advance(_draws_before(self._order_n, t - self._block_start + 1))

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
stationarity test reads when the instance ends.

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

    ended lists the instances whose interval closed at t, for the caller's
    order-level test; runner.events holds this round's schedule events.  A
    block that stops before its last round must be closed with cut(t), t its
    last round played, so that rng is left as the per-round draws would
    leave it.
    """

    def __init__(self, block_start: int, order_n: int, rate: RateFunction, factory, rng):
        self.factory = factory
        self._block_start = block_start
        self._order_n = order_n
        self._rng = rng
        self._rng_state = rng.bit_generator.state
        self._spawn_starts, self._spawn_orders = _spawned_slots(order_n, rate, rng)
        self._next_spawn = 0  # the first of them not yet spawned
        # the instances covering the current round, orders descending: aligned
        # slots nest, so each spawn has the smallest order and the active
        # instance is always last
        self._live: list[InstanceRecord] = []
        self._next_uid = 0
        self._active: InstanceRecord | None = None
        self._prev: InstanceRecord | None = None
        self.events: list[str] = []

    # -- phase 1 -----------------------------------------------------------

    def begin_round(self, t: int):
        self.events = events = []
        live = self._live
        tau, i = t - self._block_start, self._next_spawn
        while self._spawn_starts[i] == tau:
            m = self._spawn_orders[i]
            assert not live or live[-1].order > m, "overlapping same-order instances"
            uid, end = self._next_uid, t + (1 << m) - 1
            live.append(InstanceRecord(uid, m, t, end))
            events.append(f"spawn m{m}#{uid}@[{t},{end}]")
            self._next_uid = uid + 1
            i += 1
        self._next_spawn = i
        assert live, f"no covering instance at round {t}"  # order n always covers
        rec = self._active = live[-1]
        learner = rec.learner
        if learner is None:
            learner = rec.learner = self.factory()
        prev = self._prev
        if rec is not prev:
            if prev is not None and prev.end >= t:
                events.append(f"pause m{prev.order}#{prev.uid}")
            if rec.active_rounds > 0:
                events.append(f"resume m{rec.order}#{rec.uid}")
        return learner.predict(), learner.act(), rec

    # -- phase 2 -----------------------------------------------------------

    def finish_round(self, t: int, reward: float, feedback) -> list[InstanceRecord]:
        rec = self._active
        assert rec is not None, "finish_round before begin_round"
        rec.learner.update(feedback)
        rec.active_rounds += 1
        self._prev = rec
        self._active = None
        live = self._live
        for other in live:
            other.reward_sum += reward
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

    # -- introspection ------------------------------------------------------

    def live_instances(self) -> list[InstanceRecord]:
        """The instances covering the current round, orders descending.  Those
        that have not played yet hold no learner (learner is None)."""
        return list(self._live)

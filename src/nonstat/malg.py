"""Randomized multi-scale scheduling of base-learner instances.

A block of length 2^n is tiled, for every order m = n..0, by 2^(n-m)
aligned slots of length 2^m; each slot independently hosts a fresh learner
instance with probability rho(2^n) / rho(2^m), so the order-n slot is always
occupied.  spawn_orders is the one implementation of this law: it draws the
Bernoullis of the slots starting at an offset (orders descending) when the
block reaches that offset, so a block cut short consumes only the draws of
the rounds it played.  At any round exactly one covering instance — the one
of smallest order — is active: it emits the block's optimistic value g~_t,
chooses the policy, and is the only instance whose learner state is updated.
Every covering instance accumulates the learner's reward into its interval
sum, which the order-level stationarity test reads when the instance ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rates import RateFunction

__all__ = [
    "InstanceRecord",
    "MalgRunner",
    "spawn_probability",
    "spawn_orders",
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
    which are conservative at small horizons); factor is 6 for the generic
    reduction and 18 for the average-reward one.
    """
    if kappa == 0.0:
        return 0.0
    return kappa * factor * n_hat(horizon) * math.log(horizon / delta) * rate.rho(t)


def spawn_probability(n: int, m: int, rate: RateFunction) -> float:
    """rho(2^n) / rho(2^m); in (0, 1] because rho is non-increasing."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return rate.rho(float(1 << n)) / rate.rho(float(1 << m))


def spawn_orders(n: int, rate: RateFunction, rng):
    """Yield, for each offset 0..2^n-1 of a block, the orders spawned there.

    The orders come descending; the draws of an offset, one per slot that
    starts there, are made when the generator reaches it.
    """
    probs = [spawn_probability(n, m, rate) for m in range(n + 1)]
    for tau in range(1 << n):
        top = n if tau == 0 else (tau & -tau).bit_length() - 1  # slots of order <= top start here
        yield [m for m in range(top, -1, -1) if rng.random() < probs[m]]


def schedule_upfront(n: int, rate: RateFunction, rng) -> list[tuple[int, int, int]]:
    """The whole block's schedule at once: (m, start_offset, end_offset)
    triples with offsets 0-based relative to the block start."""
    return [
        (m, tau, tau + (1 << m) - 1)
        for tau, orders in enumerate(spawn_orders(n, rate, rng))
        for m in orders
    ]


@dataclass
class InstanceRecord:
    """One scheduled learner instance and its interval bookkeeping."""

    uid: int
    order: int
    start: int  # absolute rounds, inclusive
    end: int
    learner: object
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
    order-level test; runner.events holds this round's schedule events.
    """

    def __init__(self, block_start: int, order_n: int, rate: RateFunction, factory, rng):
        self.factory = factory
        self._spawns = spawn_orders(order_n, rate, rng)
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
        for m in next(self._spawns):
            assert not live or live[-1].order > m, "overlapping same-order instances"
            rec = InstanceRecord(
                uid=self._next_uid, order=m, start=t, end=t + (1 << m) - 1, learner=self.factory()
            )
            self._next_uid += 1
            live.append(rec)
            events.append(f"spawn m{m}#{rec.uid}@[{rec.start},{rec.end}]")
        assert live, f"no covering instance at round {t}"  # order n always covers
        rec = self._active = live[-1]
        prev = self._prev
        if rec is not prev:
            if prev is not None and prev.end >= t:
                events.append(f"pause m{prev.order}#{prev.uid}")
            if rec.active_rounds > 0:
                events.append(f"resume m{rec.order}#{rec.uid}")
        return rec.learner.predict(), rec.learner.act(), rec

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

    # -- introspection ------------------------------------------------------

    def live_instances(self) -> list[InstanceRecord]:
        return list(self._live)

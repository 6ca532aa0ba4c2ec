"""Randomized multi-scale scheduling of base-learner instances.

A block of length 2^n is tiled, for every order m = n..0, by 2^(n-m)
aligned slots of length 2^m; each slot independently hosts a fresh learner
instance with probability rho(2^n) / rho(2^m).  The order-n slot is always
occupied.  At any round exactly one covering instance — the one of smallest
order — is active: it emits the block's optimistic value g~_t, chooses the
policy, and is the only instance whose learner state is updated.  Every
covering instance accumulates the learner's reward into its interval sum,
which the order-level stationarity test reads when the instance ends.

Spawning is sampled lazily at each slot start instead of upfront at block
start; the per-slot draws are independent Bernoullis either way, so the two
procedures are distributionally identical (unit-tested), and lazy sampling
avoids materializing schedules that a restart would discard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def schedule_upfront(n: int, rate: RateFunction, rng) -> list[tuple[int, int, int]]:
    """The upfront scheduling procedure, verbatim: returns (m, start_offset,
    end_offset) triples with offsets 0-based relative to the block start."""
    probs = [spawn_probability(n, m, rate) for m in range(n + 1)]
    out = []
    for tau in range(1 << n):
        for m in range(n, -1, -1):
            if tau % (1 << m) == 0 and rng.random() < probs[m]:
                out.append((m, tau, tau + (1 << m) - 1))
    return out


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

    Use as two phases per round t (block_start <= t <= block_start+2^n-1):

        g, policy, active = runner.begin_round(t)
        ... play the environment ...
        ended = runner.finish_round(t, reward, feedback)

    ended lists the instances whose interval closed at t, for the caller's
    order-level test; runner.events holds this round's schedule events.
    """

    def __init__(self, block_start: int, order_n: int, rate: RateFunction, factory, rng):
        self.block_start = block_start
        self.order_n = order_n
        self.rate = rate
        self.factory = factory
        self.rng = rng
        self._probs = [spawn_probability(order_n, m, rate) for m in range(order_n + 1)]
        self._slots: list[InstanceRecord | None] = [None] * (order_n + 1)
        self._next_uid = 0
        self._active: InstanceRecord | None = None
        self._prev_active_uid = -1
        self._last_signal = False
        self.events: list[str] = []

    # -- phase 1 -----------------------------------------------------------

    def begin_round(self, t: int):
        self.events = []
        self._maybe_spawn(t)
        rec = self._select_active(t)
        self._active = rec
        if rec.uid != self._prev_active_uid:
            prev = self._find_uid(self._prev_active_uid)
            if prev is not None and prev.start <= t <= prev.end:
                self.events.append(f"pause m{prev.order}#{prev.uid}")
            if rec.active_rounds > 0:
                self.events.append(f"resume m{rec.order}#{rec.uid}")
        return rec.learner.predict(), rec.learner.act(), rec

    def _maybe_spawn(self, t: int):
        offset = t - self.block_start
        for m in range(self.order_n, -1, -1):
            size = 1 << m
            if offset % size == 0 and self.rng.random() < self._probs[m]:
                old = self._slots[m]
                assert old is None or old.end < t, "overlapping same-order instances"
                rec = InstanceRecord(
                    uid=self._next_uid,
                    order=m,
                    start=t,
                    end=t + size - 1,
                    learner=self.factory(),
                )
                self._next_uid += 1
                self._slots[m] = rec
                self.events.append(f"spawn m{m}#{rec.uid}@[{rec.start},{rec.end}]")

    def _select_active(self, t: int) -> InstanceRecord:
        for m in range(self.order_n + 1):
            rec = self._slots[m]
            if rec is not None and rec.start <= t <= rec.end:
                return rec
        raise AssertionError(f"no covering instance at round {t}")  # order-n always covers

    def _find_uid(self, uid: int):
        for rec in self._slots:
            if rec is not None and rec.uid == uid:
                return rec
        return None

    # -- phase 2 -----------------------------------------------------------

    def finish_round(self, t: int, reward: float, feedback) -> list[InstanceRecord]:
        rec = self._active
        assert rec is not None, "finish_round before begin_round"
        rec.learner.update(feedback)
        rec.active_rounds += 1
        self._prev_active_uid = rec.uid
        self._last_signal = bool(rec.learner.restart_signaled)
        ended = []
        for m in range(self.order_n + 1):
            other = self._slots[m]
            if other is None or not (other.start <= t <= other.end):
                continue
            other.reward_sum += reward
            if other.end == t:
                ended.append(other)
                self.events.append(f"end m{m}#{other.uid}")
                self._slots[m] = None
        self._active = None
        return ended

    # -- introspection ------------------------------------------------------

    @property
    def active_signaled(self) -> bool:
        """True when the learner updated this round raised a restart signal."""
        return self._last_signal

    def live_instances(self) -> list[InstanceRecord]:
        return [rec for rec in self._slots if rec is not None]

"""Restarting reduction: doubling blocks, stationarity tests, run logs.

One epoch runs blocks of lengths 2^0, 2^1, ... ; each block runs a fresh
multi-scale scheduler.  Within a block the running minimum U_t of the
emitted optimistic values is maintained, and after every round two tests
are performed:

    test 1 (at rounds where an order-m instance ends):
        fail iff  interval_average  >=  U_t + 9 * rho_hat(2^m)
    test 2 (every round, over the block so far):
        fail iff  mean(g~ - R)      >=  3 * rho_hat(t - t_n + 1)

A failed test aborts the epoch: everything restarts from scratch at the
next round (block order back to 0, all instances discarded).  A fail
detected at round t takes effect at t+1, matching the act / update / test /
increment order of the control loop.  When both tests fail in the same
round a single restart is recorded with the order-level test taking
precedence.

The per-round log stores the environment oracle's f*_t captured at
simulation time, so dynamic regret is an exact second pass over the rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from .envs import decode_policy
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
        self.restarts: list[RestartEvent] = []

    def __len__(self):
        return len(self._data["t"])

    def append(self, **values):
        for name in self.columns:
            self._data[name].append(values[name])

    def column(self, name):
        return self._data[name]

    def amend_event(self, extra: str):
        """Append a token to the most recent row's event field."""
        ev = self._data["event"]
        ev[-1] = f"{ev[-1]};{extra}" if ev[-1] else extra

    # -- serialization ------------------------------------------------------

    def _format(self, name, value):
        if name == "event":
            return value
        if name in _INT_COLUMNS:
            return str(int(value))
        return repr(float(value))

    def to_csv(self, path_or_buf):
        buf = path_or_buf if hasattr(path_or_buf, "write") else io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        rows = zip(*(self._data[name] for name in self.columns))
        for row in rows:
            writer.writerow([self._format(n, v) for n, v in zip(self.columns, row)])
        if buf is path_or_buf:
            return None
        text = buf.getvalue()
        with open(path_or_buf, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return None

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path_or_text: str) -> "RunLog":
        text = path_or_text
        if "\n" not in text:
            with open(path_or_text, "r", encoding="utf-8") as fh:
                text = fh.read()
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        log = cls(mdp_columns="episode" in header)
        if tuple(header) != log.columns:
            raise ValueError(f"unexpected log columns {header}")
        for row in reader:
            values = {}
            for name, cell in zip(header, row):
                if name == "event":
                    values[name] = cell
                elif name in _INT_COLUMNS:
                    values[name] = int(cell)
                else:
                    values[name] = float(cell)
            log.append(**values)
        for t, block, ev in zip(log.column("t"), log.column("block"), log.column("event")):
            for token in ev.split(";"):
                if token.startswith("restart "):
                    cause = token[len("restart ") :]
                    log.restarts.append(RestartEvent(round=t, cause=cause, block=block))
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

    def __init__(self, env):
        self.env = env

    def play(self, t, policy, rng):
        reward, feedback = self.env.play(t, policy, rng)
        return reward, feedback, self.env.optimal_value(t)

    def extras(self, learner):
        return {}


class AverageRewardWorld:
    """Continuing-MDP adapter: one framework round is one transition.

    The physical state persists across instance switches, blocks, and
    restarts; a newly resumed learner simply continues from wherever the
    trajectory currently is.
    """

    mdp_columns = True

    def __init__(self, env):
        self.env = env
        self.state = env.init_state

    def play(self, t, policy, rng):
        s = self.state
        table = decode_policy(policy, self.env.n_states, self.env.n_actions)
        action = int(table[s])
        reward, nxt = self.env.step(t, s, action, rng)
        self.state = nxt
        return reward, (s, action, reward, nxt), self.env.optimal_value(t)

    def extras(self, learner):
        return {
            "episode": learner.episode,
            "eta": learner.eta,
            "gamma_budget": learner.gamma_budget,
            "dbar": learner.dbar,
            "borl_arm": -1,
        }


def test1_fails(
    interval_average: float,
    u_min: float,
    order: int,
    rate: RateFunction,
    horizon: int,
    delta: float,
    kappa: float = 1.0,
    rho_factor: float = 6.0,
) -> bool:
    """Order-level test: an ending length-2^m instance whose realized average
    reward beats the block's optimistic floor by 9 * rho_hat(2^m) exposes a
    value increase the running learners have not caught."""
    return interval_average >= u_min + 9.0 * rho_hat(
        float(1 << order), rate, horizon, delta, kappa, rho_factor
    )


def test2_fails(
    gap_sum: float,
    length: int,
    rate: RateFunction,
    horizon: int,
    delta: float,
    kappa: float = 1.0,
    rho_factor: float = 6.0,
) -> bool:
    """Block-average test: the mean optimism gap (g~ - R) over the block so
    far must stay below 3 * rho_hat(block length)."""
    return gap_sum / length >= 3.0 * rho_hat(
        float(length), rate, horizon, delta, kappa, rho_factor
    )


def master_core(
    world,
    factory,
    rate: RateFunction,
    horizon: int,
    delta: float,
    kappa: float,
    rng_env,
    rng_sched,
    log: RunLog,
    *,
    rho_factor: float = 6.0,
    start_t: int = 1,
    end_t: int | None = None,
    max_epochs: int | None = None,
    allow_signal_restart: bool = False,
):
    """Shared control loop; returns (next_round, stop_reason).

    Rounds run over [start_t, end_t] (end_t defaults to the horizon, which
    always sets the test thresholds).  stop_reason is "done" when the range
    is exhausted or "epoch_overflow" when starting one more epoch would
    exceed max_epochs (the doubling-guess strategy reacts to that).
    kappa = +inf disables both tests.
    """
    if end_t is None:
        end_t = horizon
    t = start_t
    epochs_done = 0
    while t <= end_t:
        epoch = epochs_done
        restarted = False
        n = 0
        while t <= end_t and not restarted:  # blocks within the epoch
            t_n = t
            block_end = min(t_n + (1 << n) - 1, end_t)
            runner = MalgRunner(t_n, n, rate, factory, rng_sched)
            u_min = math.inf
            gap_sum = 0.0
            while t <= block_end:
                g_tilde, policy, active = runner.begin_round(t)
                reward, feedback, f_star = world.play(t, policy, rng_env)
                ended = runner.finish_round(t, reward, feedback)
                u_min = min(u_min, g_tilde)
                gap_sum += g_tilde - reward
                length = t - t_n + 1

                cause = None
                for rec in ended:
                    if test1_fails(
                        rec.interval_average(), u_min, rec.order,
                        rate, horizon, delta, kappa, rho_factor,
                    ):
                        cause = f"test1 m{rec.order}#{rec.uid}"
                        break
                if cause is None and test2_fails(
                    gap_sum, length, rate, horizon, delta, kappa, rho_factor
                ):
                    cause = "test2"
                if cause is None and allow_signal_restart and runner.active_signaled:
                    cause = "mdp_signal"

                event = ";".join(runner.events)
                log.append(
                    t=t,
                    block=n,
                    epoch=epoch,
                    active_order=active.order,
                    policy=policy,
                    reward=reward,
                    f_star=f_star,
                    g_tilde=g_tilde,
                    u_min=u_min,
                    event=event,
                    **world.extras(active.learner),
                )

                t += 1
                if cause is not None:
                    log.amend_event(f"restart {cause}")
                    log.restarts.append(RestartEvent(round=t - 1, cause=cause, block=n))
                    restarted = True
                    break
            n += 1
        if restarted:
            epochs_done += 1
            if max_epochs is not None and epochs_done + 1 > max_epochs:
                return t, "epoch_overflow"
    return t, "done"


def run_master(
    env,
    factory,
    rate: RateFunction,
    horizon: int,
    delta: float | None = None,
    kappa: float = 1.0,
    seed: int = 0,
    run_index: int = 0,
) -> RunLog:
    """Full run of the reduction over a bandit-style environment."""
    if delta is None:
        delta = 1.0 / horizon
    log = RunLog()
    master_core(
        BanditWorld(env),
        factory,
        rate,
        horizon,
        delta,
        kappa,
        seed_derive(seed, run_index, "env"),
        seed_derive(seed, run_index, "sched"),
        log,
    )
    return log


def run_bare(env, learner, horizon: int, seed: int = 0, run_index: int = 0) -> RunLog:
    """The base learner alone, with no scheduling and no tests.

    Restart signals of the average-reward learner are ignored.
    """
    rng_env = seed_derive(seed, run_index, "env")
    world = AverageRewardWorld(env) if env.kind == "infinite" else BanditWorld(env)
    log = RunLog(mdp_columns=world.mdp_columns)
    for t in range(1, horizon + 1):
        g_tilde = learner.predict()
        policy = learner.act()
        reward, feedback, f_star = world.play(t, policy, rng_env)
        learner.update(feedback)
        log.append(
            t=t,
            block=0,
            epoch=0,
            active_order=-1,
            policy=policy,
            reward=reward,
            f_star=f_star,
            g_tilde=g_tilde,
            u_min=0.0,
            event="",
            **world.extras(learner),
        )
    return log

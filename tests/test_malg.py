import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonstat.base import Ucb1, restore, snapshot_to_json
from nonstat.envs import make_env
from nonstat import master
from nonstat.harness import seed_derive
from nonstat.malg import (
    InstanceRecord,
    MalgRunner,
    n_hat,
    rho_hat,
    schedule_upfront,
    spawn_probability,
)
from nonstat.rates import RateFunction

SQRT_RATE = RateFunction(c1=1.0, c2=0.0, p=0.5, c3=1.0, horizon=1 << 20)


def make_factory(T=1024, arms=2):
    return lambda: Ucb1(arms, T, 1.0 / T)


# ---------------------------------------------------------------------------
# spawn_probability


def test_spawn_probability_identity():
    assert spawn_probability(4, 4, SQRT_RATE) == 1.0


def test_spawn_probability_sqrt_rate():
    assert spawn_probability(4, 0, SQRT_RATE) == pytest.approx(0.25)
    assert spawn_probability(4, 2, SQRT_RATE) == pytest.approx(0.5)


def test_spawn_probability_rejects_bad_orders():
    with pytest.raises(ValueError):
        spawn_probability(2, 3, SQRT_RATE)


# ---------------------------------------------------------------------------
# scheduling law


def test_order_n_instance_always_present():
    rng = seed_derive(0, 0, "sched")
    for _ in range(50):
        sched = schedule_upfront(3, SQRT_RATE, rng)
        assert (3, 0, 7) in sched


def test_odd_offsets_only_spawn_order_zero():
    runner = MalgRunner(1, 3, SQRT_RATE, make_factory(), seed_derive(1, 0, "s"))
    runner.begin_round(1)
    runner.finish_round(1, 0.0, (0, 0.0))
    runner.begin_round(2)  # offset 1: only m=0 eligible
    for rec in runner._live:
        assert rec.order == 0 or rec.start == 1
    runner.finish_round(2, 0.0, (0, 0.0))


def test_lazy_and_upfront_schedulers_match_in_distribution():
    # mean spawn counts per order, 10^4 seeded blocks, n=6, rho = 1/sqrt(t)
    n = 6
    blocks = 10_000
    rng_up = seed_derive(2, 0, "upfront")
    rng_lazy = seed_derive(3, 0, "lazy")
    counts_up = np.zeros(n + 1)
    counts_lazy = np.zeros(n + 1)
    probs = [spawn_probability(n, m, SQRT_RATE) for m in range(n + 1)]
    for _ in range(blocks):
        for m, _, _ in schedule_upfront(n, SQRT_RATE, rng_up):
            counts_up[m] += 1
        # lazy path: replicate the runner's per-slot draws without learners
        for tau in range(1 << n):
            for m in range(n, -1, -1):
                if tau % (1 << m) == 0 and rng_lazy.random() < probs[m]:
                    counts_lazy[m] += 1
    for m in range(n + 1):
        q = probs[m]
        slots = 1 << (n - m)
        mean = slots * q
        sd_of_mean = math.sqrt(slots * q * (1 - q) / blocks)
        assert abs(counts_up[m] / blocks - mean) <= 4 * sd_of_mean + 1e-12
        assert abs(counts_lazy[m] / blocks - mean) <= 4 * sd_of_mean + 1e-12


def spawn_orders(n, rate, rng):
    """Oracle of the per-block draw: yield, for each offset of the block, the
    orders spawned there (descending), drawing that offset's Bernoullis, one
    per slot that starts there, only when the generator reaches it."""
    probs = [spawn_probability(n, m, rate) for m in range(n + 1)]
    for tau in range(1 << n):
        top = n if tau == 0 else (tau & -tau).bit_length() - 1  # slots of order <= top start here
        yield [m for m in range(top, -1, -1) if rng.random() < probs[m]]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
    st.floats(0.5, 0.95),
    st.data(),
)
def test_spawn_orders_make_the_lazy_draws(n, seed, p, data):
    # the block's one draw spawns what the lazy per-offset draws spawn, and a
    # cut after any number of rounds leaves the stream where they leave it
    rate = RateFunction(c1=1.0, c2=0.0, p=p, c3=1.0, horizon=1 << 20)
    played = data.draw(st.integers(0, 1 << n))
    lazy = list(spawn_orders(n, rate, np.random.default_rng(seed)))
    assert schedule_upfront(n, rate, np.random.default_rng(seed)) == [
        (m, tau, tau + (1 << m) - 1) for tau, orders in enumerate(lazy) for m in orders
    ]
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    runner = MalgRunner(1, n, rate, make_factory(), rng_a)
    runner.cut(played)  # rounds 1..played
    list(itertools.islice(spawn_orders(n, rate, rng_b), played))
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_runner_spawns_follow_schedule_upfront():
    n = 5
    runner = MalgRunner(7, n, SQRT_RATE, make_factory(), seed_derive(15, 0, "s"))
    spawned = []
    for t in range(7, 7 + (1 << n)):
        _, pol, _ = runner.begin_round(t)
        spawned += [ev for ev in runner.events if ev.startswith("spawn")]
        runner.finish_round(t, 0.5, (pol, 0.5))
    upfront = schedule_upfront(n, SQRT_RATE, seed_derive(15, 0, "s"))
    assert spawned == [
        f"spawn m{m}#{uid}@[{7 + start},{7 + end}]" for uid, (m, start, end) in enumerate(upfront)
    ]


class SlotRunner:
    """Reference scheduler: one slot per order, scanned each round for the
    covering instance of smallest order."""

    def __init__(self, block_start, order_n, rate, factory, rng):
        self.block_start, self.order_n, self.factory, self.rng = block_start, order_n, factory, rng
        self.probs = [spawn_probability(order_n, m, rate) for m in range(order_n + 1)]
        self.slots = [None] * (order_n + 1)
        self.next_uid = 0
        self.prev_uid = -1
        self.events = []

    def _find(self, uid):
        return next((r for r in self.slots if r is not None and r.uid == uid), None)

    def begin_round(self, t):
        self.events = []
        for m in range(self.order_n, -1, -1):
            if (t - self.block_start) % (1 << m) == 0 and self.rng.random() < self.probs[m]:
                assert self.slots[m] is None or self.slots[m].end < t
                rec = InstanceRecord(self.next_uid, m, t, t + (1 << m) - 1, self.factory())
                self.next_uid += 1
                self.slots[m] = rec
                self.events.append(f"spawn m{m}#{rec.uid}@[{rec.start},{rec.end}]")
        rec = next(r for r in self.slots if r is not None and r.start <= t <= r.end)
        self.active = rec
        if rec.uid != self.prev_uid:
            prev = self._find(self.prev_uid)
            if prev is not None and prev.start <= t <= prev.end:
                self.events.append(f"pause m{prev.order}#{prev.uid}")
            if rec.active_rounds > 0:
                self.events.append(f"resume m{rec.order}#{rec.uid}")
        return rec.learner.predict(), rec.learner.act(), rec

    def cut(self, t):
        pass  # the per-round draws already leave the stream where the block stopped

    def finish_round(self, t, reward, feedback):
        rec = self.active
        rec.learner.update(feedback)
        rec.active_rounds += 1
        self.prev_uid = rec.uid
        ended = []
        for m in range(self.order_n + 1):
            other = self.slots[m]
            if other is None or not (other.start <= t <= other.end):
                continue
            other.reward_sum += reward
            if other.end == t:
                ended.append(other)
                self.events.append(f"end m{m}#{other.uid}")
                self.slots[m] = None
        return ended


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1), st.floats(0.5, 0.95), st.data())
def test_runner_matches_the_slot_oracle(n, seed, p, data):
    # every round's events, active instance, ended instances and interval
    # sums, and the stream state after a block cut at any round
    rate = RateFunction(c1=1.0, c2=0.0, p=p, c3=1.0, horizon=1 << 20)
    rounds = data.draw(st.integers(1, 1 << n))
    rewards = np.random.default_rng(seed).random(rounds)
    factory = make_factory(64, 3)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    runner = MalgRunner(3, n, rate, factory, rng_a)
    oracle = SlotRunner(3, n, rate, factory, rng_b)
    for t, r in zip(range(3, 3 + rounds), rewards.tolist()):
        g_a, pol_a, rec_a = runner.begin_round(t)
        g_b, pol_b, rec_b = oracle.begin_round(t)
        assert (g_a, pol_a, rec_a.uid, rec_a.order) == (g_b, pol_b, rec_b.uid, rec_b.order)
        ended_a = runner.finish_round(t, r, (pol_a, r))
        ended_b = oracle.finish_round(t, r, (pol_b, r))
        assert runner.events == oracle.events
        assert [(e.uid, e.reward_sum) for e in ended_a] == [(e.uid, e.reward_sum) for e in ended_b]
    runner.cut(3 + rounds - 1)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("kappa", [1e-5, 3e-4, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_control_loop_matches_the_slot_oracle(monkeypatch, kappa, seed):
    # blocks cut by restarts and by end_t: the same log, and the same sched
    # stream state after each call, as with per-round draws
    T = 256
    env = make_env({"kind": "mab", "T": T, "segments": [
        {"length": 100, "means": [0.9, 0.1]}, {"length": T - 100, "means": [0.1, 0.9]}]})
    def run():
        log, rng_env, rng_sched = master.RunLog(), seed_derive(seed, 0, "env"), seed_derive(seed, 0, "sched")
        states = []
        for start, end in [(1, 77), (78, 200), (201, T)]:
            master.master_core(master.BanditWorld(env), make_factory(T), T, 1.0 / T, kappa,
                               rng_env, rng_sched, log, start_t=start, end_t=end)
            states.append(rng_sched.bit_generator.state)
        return log, states

    log, states = run()
    monkeypatch.setattr(master, "MalgRunner", SlotRunner)
    oracle_log, oracle_states = run()
    assert log.to_csv_text() == oracle_log.to_csv_text()
    assert states == oracle_states
    if kappa < 1.0:
        assert any(ev.block > 0 for ev in log.restarts), "no block was cut by a restart"


# ---------------------------------------------------------------------------
# activity resolution


def collect_active_orders(runner, rounds, reward=0.5):
    orders = []
    for t in rounds:
        _, pol, rec = runner.begin_round(t)
        orders.append(rec.order)
        runner.finish_round(t, reward, (pol, reward))
    return orders


def test_active_instance_is_minimum_order():
    rng = seed_derive(4, 0, "act")
    runner = MalgRunner(1, 4, SQRT_RATE, make_factory(), rng)
    for t in range(1, 17):
        _, pol, rec = runner.begin_round(t)
        covering = [r.order for r in runner._live if r.start <= t <= r.end]
        assert rec.order == min(covering)
        runner.finish_round(t, 0.3, (pol, 0.3))


def test_active_rounds_never_exceed_length():
    rng = seed_derive(5, 0, "act2")
    runner = MalgRunner(1, 5, SQRT_RATE, make_factory(), rng)
    seen = {}
    for t in range(1, 33):
        _, pol, rec = runner.begin_round(t)
        seen[rec.uid] = rec
        runner.finish_round(t, 0.1, (pol, 0.1))
    for rec in seen.values():
        assert rec.active_rounds <= (1 << rec.order)


def test_reward_interval_sum_counts_every_covered_round():
    # order-n instance accumulates ALL rewards even while shorter ones act
    rng = seed_derive(6, 0, "sum")
    runner = MalgRunner(1, 3, SQRT_RATE, make_factory(), rng)
    rewards = [0.1 * (i % 7) / 6 for i in range(8)]
    top = None
    for t, r in zip(range(1, 9), rewards):
        _, pol, _ = runner.begin_round(t)
        if top is None:
            top = [rec for rec in runner._live if rec.order == 3][0]
        ended = runner.finish_round(t, r, (pol, r))
    assert top.reward_sum == pytest.approx(sum(rewards))
    assert top in ended


# ---------------------------------------------------------------------------
# degenerate block = bare algorithm


def test_order_zero_block_equals_bare_learner():
    T = 1
    env = make_env({"kind": "mab", "T": 1, "segments": [{"length": 1, "means": [0.4, 0.9]}]})
    rng_env_a = seed_derive(7, 0, "env")
    rng_env_b = seed_derive(7, 0, "env")
    bare = Ucb1(2, 1024, 1 / 1024)
    runner = MalgRunner(1, 0, SQRT_RATE, lambda: Ucb1(2, 1024, 1 / 1024), seed_derive(8, 0, "s"))
    g, pol, _ = runner.begin_round(1)
    assert g == bare.predict()
    assert pol == bare.act()
    r_a, fb_a = env.play(1, pol, rng_env_a)
    r_b, fb_b = env.play(1, bare.act(), rng_env_b)
    assert r_a == r_b


def test_every_instance_matches_a_bare_run_on_its_active_rounds():
    # per-instance mirror learners fed the same active-round subsequence
    # must reproduce every (g, policy) emission and the final state exactly
    T = 64
    factory = make_factory(T)
    rng = seed_derive(9, 0, "replay")
    runner = MalgRunner(1, 4, SQRT_RATE, factory, rng)
    mirrors = {}
    finals = {}
    for t in range(1, 17):
        g, pol, rec = runner.begin_round(t)
        mirror = mirrors.setdefault(rec.uid, factory())
        assert mirror.predict() == g
        assert mirror.act() == pol
        reward = float(seed_derive(10, t, "r").random())
        mirror.update((pol, reward))
        for ended in runner.finish_round(t, reward, (pol, reward)):
            if ended.active_rounds:
                finals[ended.uid] = snapshot_to_json(ended.learner)
            else:  # an instance that never played never built a learner
                assert ended.learner is None
    assert len(mirrors) > 2, "schedule too sparse to exercise the property"
    assert finals.keys() == mirrors.keys()
    for uid, mirror in mirrors.items():
        assert finals[uid] == snapshot_to_json(mirror)


ALL_SPAWN_RATE = RateFunction(c1=64.0, c2=0.0, p=0.5, c3=1.0, horizon=1 << 10)  # rho = 1 up to 4096


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1), st.sampled_from([SQRT_RATE, ALL_SPAWN_RATE]), st.data())
def test_learner_is_built_at_the_first_active_round(n, seed, rate, data):
    # the factory runs once per instance that plays, at its first active
    # round, and never for an instance that does not
    rounds = data.draw(st.integers(1, 1 << n))
    built = []  # (round, learner) of each factory call

    def factory():
        learner = Ucb1(3, 64, 1.0 / 64)
        built.append((t, learner))  # t: the round the runner is beginning
        return learner

    runner = MalgRunner(3, n, rate, factory, np.random.default_rng(seed))
    spawned = {}
    first_rounds = []
    for t in range(3, 3 + rounds):
        calls = len(built)
        _, pol, rec = runner.begin_round(t)
        spawned.update((other.uid, other) for other in runner._live)
        if rec.active_rounds == 0:
            first_rounds.append((t, rec))
        assert len(built) == calls + (rec.active_rounds == 0)
        runner.finish_round(t, 0.5, (pol, 0.5))
    assert [t for t, _ in built] == [t for t, _ in first_rounds]
    assert all(learner is rec.learner for (_, learner), (_, rec) in zip(built, first_rounds))
    for rec in spawned.values():
        assert (rec.learner is None) == (rec.active_rounds == 0)
    if rate is ALL_SPAWN_RATE:  # orders n..1 of offset 0 never play
        assert sum(rec.learner is None for rec in spawned.values()) >= n


def test_consecutive_order_zero_instances_are_fresh():
    # two different order-0 instances must both start from scratch
    rng = seed_derive(11, 0, "fresh")
    runner = MalgRunner(1, 1, SQRT_RATE, make_factory(), rng)
    g1, pol1, rec1 = runner.begin_round(1)
    runner.finish_round(1, 1.0, (pol1, 1.0))
    g2, pol2, rec2 = runner.begin_round(2)
    if rec2.order == 0:
        assert rec2.uid != rec1.uid
        assert g2 == 1.0  # fresh optimistic clamp, no memory of round 1
        assert pol2 == 0


def test_pause_resume_with_serialization_churn():
    # serializing and restoring the active learner at every pause boundary
    # must not perturb anything relative to the mirror replay
    T = 1024
    factory = make_factory(T)
    rng = seed_derive(12, 0, "pr")
    runner = MalgRunner(1, 4, SQRT_RATE, factory, rng)
    mirrors = {}
    compared = 0
    for t in range(1, 17):
        g, pol, rec = runner.begin_round(t)
        mirror = mirrors.setdefault(rec.uid, factory())
        assert g == mirror.predict()
        assert pol == mirror.act()
        compared += 1
        reward = float(seed_derive(13, t, "r").random())
        mirror.update((pol, reward))
        runner.finish_round(t, reward, (pol, reward))
        if rec.start <= t + 1 <= rec.end:  # still live: churn it while paused
            rec.learner = restore(snapshot_to_json(rec.learner))
    assert compared == 16


# ---------------------------------------------------------------------------
# rho_hat


def test_rho_hat_arithmetic_t1024():
    T = 1 << 10
    delta = 1.0 / T
    assert n_hat(T) == 11.0
    assert math.log(T / delta) == pytest.approx(20 * math.log(2))
    factor = 6 * 11 * 20 * math.log(2)
    assert factor == pytest.approx(914.9, abs=0.1)
    assert rho_hat(7.0, SQRT_RATE, T, delta) == pytest.approx(factor * SQRT_RATE.rho(7.0), rel=1e-12)
    assert rho_hat(4.0, SQRT_RATE, T, delta) == pytest.approx(457.5, abs=0.05)


def test_rho_hat_kappa_zero():
    assert rho_hat(16.0, SQRT_RATE, 1 << 10, 2**-10, kappa=0.0) == 0.0


def test_rho_hat_mdp_factor():
    T = 1 << 8
    delta = 1.0 / T
    a = rho_hat(4.0, SQRT_RATE, T, delta, factor=18.0)
    b = rho_hat(4.0, SQRT_RATE, T, delta, factor=6.0)
    assert a == pytest.approx(3.0 * b)


# ---------------------------------------------------------------------------
# determinism


def test_fixed_seed_reproduces_schedule_and_trace():
    def run():
        rng = seed_derive(14, 0, "det")
        runner = MalgRunner(1, 4, SQRT_RATE, make_factory(), rng)
        out = []
        for t in range(1, 17):
            g, pol, rec = runner.begin_round(t)
            out.append((g, pol, rec.order, tuple(runner.events)))
            runner.finish_round(t, 0.25, (pol, 0.25))
        return out

    assert run() == run()

import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonstat.base import GlmUcb, Oful, QUcb, Ucb1, restore, snapshot_to_json
from nonstat.envs import make_env
from nonstat.mdp import UcrlAcw
from nonstat import malg, master
from nonstat.harness import seed_derive
from nonstat.malg import (
    MalgRunner,
    n_hat,
    rho_hat,
    spawn_probability,
)
from nonstat.rates import RateFunction

SQRT_RATE = RateFunction(c1=1.0, c2=0.0, p=0.5, c3=1.0, horizon=1 << 20)
ALL_SPAWN_RATE = RateFunction(c1=64.0, c2=0.0, p=0.5, c3=1.0, horizon=1 << 10)  # rho = 1 up to 4096


def make_factory(T=1024, arms=2):
    return lambda: Ucb1(arms, T, 1.0 / T)


def schedule_upfront(n, rate, rng):
    """The whole block's schedule, from the draw MalgRunner makes at the block
    start: (m, start_offset, end_offset) triples with offsets 0-based relative
    to the block start."""
    return [(m, tau, tau + (1 << m) - 1) for tau, m in zip(*malg._spawned_slots(n, rate, rng))]


def start_round(runner, uid):
    """The first round of the runner's instance uid."""
    return runner.schedule.t_n + runner.schedule.starts[uid]


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


def test_memoized_spawn_probabilities_equal_fresh_ones_for_each_rate():
    # two rates with equal horizon: the memo keys on every field of the rate
    rates = (RateFunction(c1=1.0, c2=0.0, horizon=1 << 12),
             RateFunction(c1=2.0, c2=1.0, p=0.6, c3=2.0, horizon=1 << 12))
    for _ in range(2):  # the second pass reads the memo
        for rate in rates:
            for n in (0, 1, 3, 7, 12):
                probs = malg._spawn_probabilities(n, rate)
                assert probs.tolist() == [spawn_probability(n, m, rate) for m in range(n + 1)]
                assert not probs.flags.writeable
    assert malg._spawn_probabilities(7, rates[0]).tolist() != malg._spawn_probabilities(7, rates[1]).tolist()
    equal = RateFunction(c1=1.0, c2=0.0, horizon=1 << 12)  # an equal rate built anew is the same key
    assert malg._spawn_probabilities(7, equal) is malg._spawn_probabilities(7, rates[0])
    assert malg._spawn_probabilities.cache_info().maxsize == malg.SPAWN_MEMO_SIZE


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
    for uid in runner._live:
        assert runner.orders[uid] == 0 or start_round(runner, uid) == 1
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


@pytest.mark.parametrize("n", [0, 1, 5, malg._LAYOUT_MEMO_ORDERS - 1, malg._LAYOUT_MEMO_ORDERS,
                               malg._LAYOUT_MEMO_ORDERS + 3])
def test_slot_layout_lists_each_offsets_slots_orders_descending(n):
    # memoized or built for its block, the layout is the per-offset order of spawn_orders
    offsets, orders = malg._slot_layout(n)
    expected = [(tau, m) for tau in range(1 << n)
                for m in range(n if tau == 0 else (tau & -tau).bit_length() - 1, -1, -1)]
    assert list(zip(offsets.tolist(), orders.tolist())) == expected
    assert offsets.dtype == orders.dtype == np.intc
    assert not offsets.flags.writeable and not orders.flags.writeable


def test_a_long_run_keeps_no_large_slot_layout_alive():
    # the layouts of orders below _LAYOUT_MEMO_ORDERS are memoized, 8 bytes per
    # slot, 64 KB in all; a larger block's layout is built for it and freed
    # with it.  A run at T = 2^16 ends in an order-16 block, whose layout alone
    # takes 1 MB
    T = 1 << 16
    env = make_env({"kind": "mab", "T": T, "segments": [{"length": T, "means": [0.4, 0.6]}]})
    malg._LAYOUTS.clear()
    tracemalloc.start(3)  # np.repeat allocates two frames below its caller
    try:
        log = master.run_master(env, make_factory(T), kappa=1.0, seed=0)
        assert log.column("block")[-1] == 16
        del log  # its block schedules are malg's too
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    live = snapshot.filter_traces([tracemalloc.Filter(True, malg.__file__, all_frames=True)])
    assert sum(stat.size for stat in live.statistics("filename")) < 32 << malg._LAYOUT_MEMO_ORDERS
    assert sorted(malg._LAYOUTS) == list(range(malg._LAYOUT_MEMO_ORDERS))


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


class SlotTexts:
    """SlotRunner's schedule as the control loop logs it: texts(stop) gives
    the event text of each of the first stop rounds the oracle played, as the
    oracle wrote it."""

    def __init__(self, t_n):
        self.t_n = t_n
        self.rounds = []

    def texts(self, stop):
        assert stop <= len(self.rounds)
        return self.rounds[:stop]


@dataclass
class Slot:
    """SlotRunner's record of one instance."""

    uid: int
    order: int
    start: int  # absolute rounds, inclusive
    end: int
    learner: object
    reward_sum: float = 0.0  # every reward in [start, end], active or not


class RecordField:
    """One field of SlotRunner's records by uid, read and written as the
    control loop reads MalgRunner's uid-indexed lists and frees a learner in
    them: a learner freed too soon is None at its instance's next round."""

    def __init__(self, records, name):
        self.records, self.name = records, name

    def __getitem__(self, uid):
        return getattr(self.records[uid], self.name)

    def __setitem__(self, uid, value):
        setattr(self.records[uid], self.name, value)


class SlotRunner:
    """Reference scheduler: one slot per order, scanned each round for the
    covering instance of smallest order."""

    def __init__(self, block_start, order_n, rate, factory, rng):
        self.block_start, self.order_n, self.factory, self.rng = block_start, order_n, factory, rng
        self.probs = [spawn_probability(order_n, m, rate) for m in range(order_n + 1)]
        self.slots = [None] * (order_n + 1)
        self.records = []  # every Slot, by uid
        self.orders, self.learners, self.sums = (
            RecordField(self.records, name) for name in ("order", "learner", "reward_sum"))
        self.prev_uid = -1
        self.active_rounds = {}  # uid -> rounds played
        self.events = []
        self.schedule = SlotTexts(block_start)

    def _find(self, uid):
        return next((r for r in self.slots if r is not None and r.uid == uid), None)

    def begin_round(self, t):
        self.events = []
        for m in range(self.order_n, -1, -1):
            if (t - self.block_start) % (1 << m) == 0 and self.rng.random() < self.probs[m]:
                assert self.slots[m] is None or self.slots[m].end < t
                rec = Slot(len(self.records), m, t, t + (1 << m) - 1, self.factory())
                self.records.append(rec)
                self.slots[m] = rec
                self.events.append(f"spawn m{m}#{rec.uid}@[{rec.start},{rec.end}]")
        rec = next(r for r in self.slots if r is not None and r.start <= t <= r.end)
        self.active = rec
        if rec.uid != self.prev_uid:
            prev = self._find(self.prev_uid)
            if prev is not None and prev.start <= t <= prev.end:
                self.events.append(f"pause m{prev.order}#{prev.uid}")
            if self.active_rounds.get(rec.uid, 0) > 0:
                self.events.append(f"resume m{rec.order}#{rec.uid}")
        return rec.learner.predict(), rec.learner.act(), rec.uid

    def cut(self, t):
        pass  # the per-round draws already leave the stream where the block stopped

    def finish_round(self, t, reward, feedback):
        rec = self.active
        rec.learner.update(feedback)
        self.active_rounds[rec.uid] = self.active_rounds.get(rec.uid, 0) + 1
        self.prev_uid = rec.uid
        ended = []
        for m in range(self.order_n + 1):
            other = self.slots[m]
            if other is None or not (other.start <= t <= other.end):
                continue
            other.reward_sum += reward
            if other.end == t:
                ended.append(other.uid)
                self.events.append(f"end m{m}#{other.uid}")
                self.slots[m] = None
        self.schedule.rounds.append(";".join(self.events))
        return ended


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
    st.one_of(st.floats(0.5, 0.95).map(lambda p: RateFunction(c1=1.0, c2=0.0, p=p, c3=1.0, horizon=1 << 20)),
              st.just(ALL_SPAWN_RATE)),
    st.data(),
)
def test_runner_matches_the_slot_oracle(n, seed, rate, data):
    # every round's events, active instance, ended instances and interval
    # sums, and the stream state after a block cut at any round; at
    # ALL_SPAWN_RATE every slot spawns, as at the rate cap
    rounds = data.draw(st.integers(1, 1 << n))
    rewards = np.random.default_rng(seed).random(rounds)
    factory = make_factory(64, 3)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    runner = MalgRunner(3, n, rate, factory, rng_a)
    oracle = SlotRunner(3, n, rate, factory, rng_b)
    for t, r in zip(range(3, 3 + rounds), rewards.tolist()):
        g_a, pol_a, uid_a = runner.begin_round(t)
        g_b, pol_b, uid_b = oracle.begin_round(t)
        assert (g_a, pol_a, uid_a, runner.orders[uid_a]) == (g_b, pol_b, uid_b, oracle.orders[uid_b])
        ended_a = runner.finish_round(t, r, (pol_a, r))
        ended_b = oracle.finish_round(t, r, (pol_b, r))
        assert runner.events == oracle.events
        assert [(e, runner.sums[e]) for e in ended_a] == [(e, oracle.sums[e]) for e in ended_b]
    runner.cut(3 + rounds - 1)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2**32 - 1), st.floats(0.5, 0.95), st.data())
def test_schedule_texts_are_prefixes(n, seed, p, data):
    # each stop renders the first stop rounds of the whole block's texts
    rate = RateFunction(c1=1.0, c2=0.0, p=p, c3=1.0, horizon=1 << 20)
    schedule = MalgRunner(5, n, rate, make_factory(), np.random.default_rng(seed)).schedule
    full = schedule.texts(1 << n)
    stop = data.draw(st.integers(1, 1 << n))
    assert schedule.texts(stop) == full[:stop]


def assert_control_loop_matches_the_slot_oracle(monkeypatch, env, factory, kappa, seed):
    # blocks cut by restarts and by end_t: the same log, and the same sched
    # stream state after each call, as with per-round draws.  SlotRunner
    # builds a learner for every instance and makes every update, so the
    # same log also shows that what BanditWorld lets the runner skip is
    # never read; the loop frees each learner in SlotRunner's records too,
    # which would fail at a later read of it.  Its log holds the text
    # SlotRunner wrote each round, and the runner's log the text rendered
    # from its block schedules, both as CSV cells and as the event column.
    T = env.horizon
    def run():
        log, rng_env, rng_sched = master.RunLog(), seed_derive(seed, 0, "env"), seed_derive(seed, 0, "sched")
        states = []
        for start, end in [(1, T * 77 // 256), (T * 77 // 256 + 1, T * 200 // 256), (T * 200 // 256 + 1, T)]:
            master.master_core(master.BanditWorld(env), factory, kappa,
                               rng_env, rng_sched, log, start_t=start, end_t=end)
            states.append(rng_sched.bit_generator.state)
        return log, states

    log, states = run()
    monkeypatch.setattr(master, "MalgRunner", SlotRunner)
    oracle_log, oracle_states = run()
    assert log.to_csv_text() == oracle_log.to_csv_text()
    assert log.column("event") == oracle_log.column("event")
    assert states == oracle_states
    if kappa < 1.0:
        assert any(ev.block > 0 for ev in log.restarts), "no block was cut by a restart"


@pytest.mark.parametrize("kappa", [1e-5, 3e-4, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_control_loop_matches_the_slot_oracle(monkeypatch, kappa, seed):
    T = 256
    env = make_env({"kind": "mab", "T": T, "segments": [
        {"length": 100, "means": [0.9, 0.1]}, {"length": T - 100, "means": [0.1, 0.9]}]})
    assert_control_loop_matches_the_slot_oracle(monkeypatch, env, make_factory(T), kappa, seed)


def glm_env(T):
    rng = np.random.default_rng(3)
    actions = rng.normal(size=(5, 3))
    actions /= np.linalg.norm(actions, axis=1, keepdims=True)
    theta = 0.8 * actions[0]
    return make_env({"kind": "glm", "T": T, "link": "logistic", "actions": actions.tolist(), "segments": [
        {"length": T // 2, "theta": theta.tolist()}, {"length": T - T // 2, "theta": (-theta).tolist()}]})


def episodic_env(T, S=2, A=2, H=2):
    rng = np.random.default_rng(4)
    segments = [{"length": length, "rewards": rng.uniform(size=(H, S, A)).tolist(),
                 "transitions": rng.dirichlet(np.ones(S), size=(H, S, A)).tolist()}
                for length in (T // 2, T - T // 2)]
    return make_env({"kind": "episodic", "T": T, "S": S, "A": A, "H": H, "segments": segments})


def glm_case(T):
    env = glm_env(T)
    return env, lambda: GlmUcb(env.actions, T, 1.0 / T)


def episodic_case(T):
    return episodic_env(T), lambda: QUcb(2, 2, 2, T, 1.0 / T)


ORACLE_KINDS = {"glm": glm_case, "episodic": episodic_case}


def with_sqrt_rate(factory):
    """factory's learners, reporting SQRT_RATE: at T = 64 their own rate sits
    at its cap, every order spawns at every slot, and only order 0 plays."""
    def build():
        learner = factory()
        learner.rate = lambda: SQRT_RATE
        return learner
    return build


# the learners' own rates, and SQRT_RATE, under which instances of higher
# order play and hold data; each kappa < 1 cuts blocks by restarts (below
# 2e-4 the episodic tests fail at every round, so no restart cuts a block)
@pytest.mark.parametrize("kind, sqrt_rate, kappa", [
    ("glm", False, 3e-4), ("glm", False, 1.0), ("glm", True, 1e-3), ("glm", True, 1.0),
    ("episodic", False, 5e-4), ("episodic", False, 1.0), ("episodic", True, 1e-3), ("episodic", True, 1.0)])
@pytest.mark.parametrize("seed", [0, 1])
def test_control_loop_matches_the_slot_oracle_on_glm_and_episodic(monkeypatch, kind, sqrt_rate, kappa, seed):
    env, factory = ORACLE_KINDS[kind](64)
    if sqrt_rate:
        factory = with_sqrt_rate(factory)
    assert_control_loop_matches_the_slot_oracle(monkeypatch, env, factory, kappa, seed)


class RecordingRunner(MalgRunner):
    """MalgRunner that keeps every runner built, the rounds each instance
    played with the learner each read, the learner each instance held after
    its last round, and the learners its factory built."""

    runners = []

    def __init__(self, block_start, order_n, rate, factory, rng):
        self.built = []  # every factory() learner, in build order: self.fresh first

        def recording_factory():
            self.built.append(factory())
            return self.built[-1]

        super().__init__(block_start, order_n, rate, recording_factory, rng)
        self.played = {}  # uid -> [(round, learner it read)]
        self.held = {}  # uid -> its learner after its last round played, before the loop frees it
        RecordingRunner.runners.append(self)

    def begin_round(self, t):
        out = super().begin_round(t)
        self.played.setdefault(out[2], []).append((t, self.learners[out[2]]))
        return out

    def finish_round(self, t, reward, feedback):
        uid = self._live[-1]
        ended = super().finish_round(t, reward, feedback)
        self.held[uid] = self.learners[uid]
        return ended


def recorded_runners(monkeypatch, world, factory, kappa, seed=5):
    monkeypatch.setattr(RecordingRunner, "runners", [])
    monkeypatch.setattr(master, "MalgRunner", RecordingRunner)
    T = world.env.horizon
    log = master.RunLog(mdp_columns=world.mdp_columns)
    master.master_core(world, factory, kappa, seed_derive(seed, 0, "env"),
                       seed_derive(seed, 0, "sched"), log)
    assert len(log) == T
    return RecordingRunner.runners


def mab_case(T):
    return make_env({"kind": "mab", "T": T, "segments": [
        {"length": T // 3, "means": [0.9, 0.1]}, {"length": T - T // 3, "means": [0.1, 0.9]}]}), make_factory(T)


def linear_case(T):
    env = make_env({"kind": "linear", "T": T, "actions": [[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]], "segments": [
        {"length": T // 2, "theta": [0.7, 0.1]}, {"length": T - T // 2, "theta": [0.1, 0.7]}]})
    return env, lambda: Oful(env.actions, T, 1.0 / T)


def read_fresh(factory):
    """A factory() learner after the reads the runner makes of its fresh one."""
    learner = factory()
    learner.predict()
    learner.act()
    return learner


def assert_fresh_serves_reads_before_each_first_update(runner, factory, updated_at_end):
    # every read before an instance's first update is of runner.fresh, which
    # no update reaches; the first update builds the instance's own learner
    # (one factory() call each), and every later read is of that learner
    # (the loop frees an instance's learner after the row of the instance's
    # end, if it was active then, and of no other)
    own = []
    for uid, rounds in runner.played.items():
        updates = [t for t, _ in rounds if updated_at_end or t != runner.ends[uid]]
        for t, learner in rounds:
            assert (learner is runner.fresh) == (not updates or t <= updates[0])
        if updates:
            own.append(runner.held[uid])
            assert runner.held[uid] is not runner.fresh
        else:
            assert runner.held[uid] is runner.fresh
        freed = rounds[-1][0] == runner.ends[uid]
        assert runner.learners[uid] is (None if freed else runner.held[uid])
    assert runner.built == [runner.fresh, *own]  # built in first-update order, each once
    assert snapshot_to_json(runner.fresh) == snapshot_to_json(read_fresh(factory))


@pytest.mark.parametrize("kappa", [1e-3, 1.0])
@pytest.mark.parametrize("kind", ["mab", "glm", "episodic", "linear"])
def test_bandit_world_skips_the_last_update_and_shares_a_data_free_learner(monkeypatch, kind, kappa):
    # an instance whose first active round is its end round makes no update
    # and builds no learner; every other one builds its own at its first
    # update, which it gets at each of its active rounds but its end round
    env, factory = {"mab": mab_case, "linear": linear_case, **ORACLE_KINDS}[kind](64)
    factory = with_sqrt_rate(factory)
    runners = recorded_runners(monkeypatch, master.BanditWorld(env), factory, kappa)
    for runner in runners:
        assert_fresh_serves_reads_before_each_first_update(runner, factory, False)
        for uid, rounds in runner.played.items():
            assert runner.held[uid].t_int == sum(t != runner.ends[uid] for t, _ in rounds)
    assert any(len(runner.built) > 1 for runner in runners)
    assert any(rounds == [(runner.ends[uid], runner.fresh)]
               for runner in runners for uid, rounds in runner.played.items())


class CountingUcrl(UcrlAcw):
    updates = 0

    def update(self, feedback):
        self.updates += 1
        super().update(feedback)


@pytest.mark.parametrize("kappa", [1e-3, 1.0])
def test_average_reward_world_updates_every_active_round_with_its_own_learner(monkeypatch, kappa):
    # extras and restart_signaled read the learner after each update, so no
    # update is skipped: every instance that plays builds its own learner at
    # its first active round, and runner.fresh serves only that round's reads
    T = 64
    env = make_env({"kind": "infinite", "T": T, "S": 2, "A": 2, "segments": [
        {"length": T // 2, "rewards": [[0.9, 0.1], [0.2, 0.6]],
         "transitions": [[[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.5], [0.2, 0.8]]]},
        {"length": T - T // 2, "rewards": [[0.1, 0.9], [0.6, 0.2]],
         "transitions": [[[0.3, 0.7], [0.6, 0.4]], [[0.5, 0.5], [0.8, 0.2]]]}]})
    factory = with_sqrt_rate(lambda: CountingUcrl(2, 2, T, 1.0 / T, 2.0))
    runners = recorded_runners(monkeypatch, master.AverageRewardWorld(env), factory, kappa)
    assert any(len(rounds) > 1 for runner in runners for rounds in runner.played.values())
    for runner in runners:
        assert runner.fresh.updates == 0
        assert_fresh_serves_reads_before_each_first_update(runner, factory, True)
        for uid, rounds in runner.played.items():
            assert runner.held[uid].updates == len(rounds)  # the rounds begin_round returned uid


# ---------------------------------------------------------------------------
# activity resolution


def test_active_instance_is_minimum_order():
    rng = seed_derive(4, 0, "act")
    runner = MalgRunner(1, 4, SQRT_RATE, make_factory(), rng)
    for t in range(1, 17):
        _, pol, uid = runner.begin_round(t)
        covering = [runner.orders[u] for u in runner._live if start_round(runner, u) <= t <= runner.ends[u]]
        assert runner.orders[uid] == min(covering)
        runner.finish_round(t, 0.3, (pol, 0.3))


def test_active_rounds_never_exceed_length():
    rng = seed_derive(5, 0, "act2")
    runner = MalgRunner(1, 5, SQRT_RATE, make_factory(), rng)
    active_rounds = {}
    for t in range(1, 33):
        _, pol, uid = runner.begin_round(t)
        active_rounds[uid] = active_rounds.get(uid, 0) + 1
        runner.finish_round(t, 0.1, (pol, 0.1))
    for uid, rounds in active_rounds.items():
        assert rounds <= (1 << runner.orders[uid])


def test_reward_interval_sum_counts_every_covered_round():
    # order-n instance accumulates ALL rewards even while shorter ones act
    rng = seed_derive(6, 0, "sum")
    runner = MalgRunner(1, 3, SQRT_RATE, make_factory(), rng)
    rewards = [0.1 * (i % 7) / 6 for i in range(8)]
    top = None
    for t, r in zip(range(1, 9), rewards):
        _, pol, _ = runner.begin_round(t)
        if top is None:
            top = [uid for uid in runner._live if runner.orders[uid] == 3][0]
        ended = runner.finish_round(t, r, (pol, r))
    assert runner.sums[top] == pytest.approx(sum(rewards))
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
        g, pol, uid = runner.begin_round(t)
        mirror = mirrors.setdefault(uid, factory())
        assert mirror.predict() == g
        assert mirror.act() == pol
        reward = float(seed_derive(10, t, "r").random())
        mirror.update((pol, reward))
        for ended in runner.finish_round(t, reward, (pol, reward)):
            if ended in mirrors:  # it was active in some round
                finals[ended] = snapshot_to_json(runner.learners[ended])
            else:  # an instance that never played never built a learner
                assert runner.learners[ended] is runner.fresh
    assert len(mirrors) > 2, "schedule too sparse to exercise the property"
    assert finals.keys() == mirrors.keys()
    for uid, mirror in mirrors.items():
        assert finals[uid] == snapshot_to_json(mirror)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1), st.sampled_from([SQRT_RATE, ALL_SPAWN_RATE]), st.data())
def test_learner_is_built_at_the_first_active_round(n, seed, rate, data):
    # the constructor builds runner.fresh, which serves the reads of an
    # instance's first active round; with every update made, the factory
    # then runs once per instance that plays, at that round's update, and
    # never for an instance that does not
    rounds = data.draw(st.integers(1, 1 << n))
    built = []  # the learner of each factory call

    def factory():
        built.append(Ucb1(3, 64, 1.0 / 64))
        return built[-1]

    runner = MalgRunner(3, n, rate, factory, np.random.default_rng(seed))
    assert built == [runner.fresh]
    spawned = set()
    active_rounds = {}  # uid -> rounds in which begin_round returned it
    for t in range(3, 3 + rounds):
        calls = len(built)
        _, pol, uid = runner.begin_round(t)
        assert len(built) == calls  # reads build nothing
        spawned.update(runner._live)
        first = uid not in active_rounds
        active_rounds[uid] = active_rounds.get(uid, 0) + 1
        assert (runner.learners[uid] is runner.fresh) == first
        runner.finish_round(t, 0.5, (pol, 0.5))
        assert built[calls:] == ([runner.learners[uid]] if first else [])
    assert snapshot_to_json(runner.fresh) == snapshot_to_json(read_fresh(lambda: Ucb1(3, 64, 1.0 / 64)))
    for uid in spawned:
        assert (runner.learners[uid] is runner.fresh) == (active_rounds.get(uid, 0) == 0)
    if rate is ALL_SPAWN_RATE:  # orders n..1 of offset 0 never play
        assert sum(runner.learners[uid] is runner.fresh for uid in spawned) >= n


def test_consecutive_order_zero_instances_are_fresh():
    # two different order-0 instances must both start from scratch
    rng = seed_derive(11, 0, "fresh")
    runner = MalgRunner(1, 1, SQRT_RATE, make_factory(), rng)
    g1, pol1, uid1 = runner.begin_round(1)
    runner.finish_round(1, 1.0, (pol1, 1.0))
    g2, pol2, uid2 = runner.begin_round(2)
    if runner.orders[uid2] == 0:
        assert uid2 != uid1
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
        g, pol, uid = runner.begin_round(t)
        mirror = mirrors.setdefault(uid, factory())
        assert g == mirror.predict()
        assert pol == mirror.act()
        compared += 1
        reward = float(seed_derive(13, t, "r").random())
        mirror.update((pol, reward))
        runner.finish_round(t, reward, (pol, reward))
        if start_round(runner, uid) <= t + 1 <= runner.ends[uid]:  # still live: churn it while paused
            runner.learners[uid] = restore(snapshot_to_json(runner.learners[uid]))
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
            g, pol, uid = runner.begin_round(t)
            out.append((g, pol, runner.orders[uid], tuple(runner.events)))
            runner.finish_round(t, 0.25, (pol, 0.25))
        return out

    assert run() == run()

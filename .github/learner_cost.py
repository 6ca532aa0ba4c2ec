"""Print what building a base learner costs, what its first update costs,
and what a round of a learner that already holds data costs.

    python3 .github/learner_cost.py

For each of the five learners, at the sizes of the benchmark workload that
runs it, three best-of-7 timeit figures are printed in µs:

- build: the constructor alone;
- build + update + reads: the constructor, the first update, and the reads
  a log row makes of the learner after it (restart_signaled, and for the
  average-reward learner the MDP columns that AverageRewardWorld.extras
  reads: episode, eta, gamma_budget and dbar);
- update + predict/act: an update, then predict() and act(), on a learner
  that has already taken WARM_UPDATES updates and been read after each, the
  updates cycling through the case's feedbacks.

The scheduler builds a learner at an instance's first update, so the first
two are the figures a change to a learner's construction or state trades
against round time; the third is the per-round cost of an instance active
for more than one round.  UCB1 runs at mab-switch's sizes (2 arms,
T = 2^14), UCRL at ucrl-evi's (S = 8, A = 3, T = 2^12, dbar 4) and GLM-UCB
at glm-newton's (K = 10 actions in d = 4, T = 2^10, logistic link).  No
workload runs OFUL or the episodic learner: OFUL takes glm-newton's action
set, and optimistic Q-learning the sizes of demos/03_episodic_qucb.py
(S = 2, A = 2, H = 3, T = 2048).  Every learner runs at confidence 1 / T.
It prints only, as .github/api_options.py does; a change reports the
figures beside its src/ lines.
"""

import itertools
import os
import sys
import timeit

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from nonstat.base import GlmUcb, Oful, QUcb, Ucb1  # noqa: E402
from nonstat.mdp import UcrlAcw  # noqa: E402

REPEAT = 7
WARM_UPDATES = 16
ACTIONS = np.random.default_rng(0).normal(size=(10, 4))


def row_reads(learner):
    return learner.restart_signaled


def ucrl_row_reads(learner):
    return learner.restart_signaled, learner.episode, learner.eta, learner.gamma_budget, learner.dbar


# name: (build, feedbacks, the reads of a row); the first feedback is the first update's
CASES = {
    "ucb1": (lambda: Ucb1(2, 1 << 14, 1 / (1 << 14)), [(0, 1.0), (1, 0.0), (0, 0.0), (1, 1.0)], row_reads),
    "oful": (lambda: Oful(ACTIONS, 1 << 10, 1 / (1 << 10)), [(0, 1.0), (1, 0.0), (0, 0.0), (1, 1.0)], row_reads),
    "glm": (lambda: GlmUcb(ACTIONS, 1 << 10, 1 / (1 << 10), "logistic"), [(0, 1.0), (1, 0.0), (0, 0.0), (1, 1.0)],
            row_reads),
    "qucb": (lambda: QUcb(2, 2, 3, 2048, 1 / 2048),
             [[(0, 0, 0, 1.0, 1), (1, 1, 1, 0.5, 0), (2, 0, 1, 0.0, 1)],
              [(0, 0, 1, 0.0, 0), (1, 0, 0, 1.0, 1), (2, 1, 0, 0.5, 0)]], row_reads),
    "ucrl": (lambda: UcrlAcw(8, 3, 1 << 12, 1 / (1 << 12), 4.0), [(0, 0, 1.0, 1), (1, 2, 0.0, 0)], ucrl_row_reads),
}


def best_us(func) -> float:
    """The best of REPEAT timeit runs of func, in µs per call."""
    timer = timeit.Timer(func)
    number, _ = timer.autorange()
    return min(timer.repeat(REPEAT, number)) / number * 1e6


def first_update(build, feedback, reads):
    def run():
        learner = build()
        learner.update(feedback)
        return reads(learner)
    return run


def round_with_data(build, feedbacks):
    learner = build()
    feedbacks = itertools.cycle(feedbacks)
    for _ in range(WARM_UPDATES):
        learner.update(next(feedbacks))
        learner.predict()

    def run():
        learner.update(next(feedbacks))
        return learner.predict(), learner.act()
    return run


def main() -> int:
    print(f"best of {REPEAT} timeit runs, µs: build | build + first update + a row's reads"
          f" | update + predict/act with data")
    for name, (build, feedbacks, reads) in CASES.items():
        updated = first_update(build, feedbacks[0], reads)
        updated()  # fills what is memoized per process: the average-reward learner's solve without data
        print(f"{name:>5}: {best_us(build):8.2f} | {best_us(updated):8.2f} | "
              f"{best_us(round_with_data(build, feedbacks)):8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check one benchmark smoke run, read as the JSON object on the last line of stdin.

    python3 perfbench/run.py --workload W --trace T --seed 0 --seconds 1 | tail -n 1 \
        | python3 .github/check_bench_smoke.py W T

Every run must report correct with 0 failed seed-runs.  A traced run at
--seed 0 must also reproduce the layer counts below, and report a nonzero
time for each layer in NONZERO: a refactor that bypasses a layer the
tracer wraps changes a count or leaves that layer's time at 0.  A mab-switch
run at --seed 0, traced or not, must leave the files below in
.bench_out/mab-switch/ with these SHA-256 digests: the run's CSV logs,
aggregate and plot, byte for byte (references.json digests only four of the
ten CSV columns).
"""

import hashlib
import json
import os
import sys

COUNT_NAMES = ("malg.spawns", "master.test_calls", "master.restarts", "base.instances", "mdp.evi_calls")
TRACED_COUNTS = {  # at --seed 0, in COUNT_NAMES order
    # base.instances counts factory calls: one fresh learner per block, which
    # serves every read before an instance's first update, and one per
    # instance at that update (under the bandit adapter an instance that
    # plays only its end round makes none).  mdp.evi_calls is 0 everywhere:
    # the data-free learners share one solve, and the oracle's per-segment
    # J* solves are memoized per process, so the warm-up operation makes
    # them all before the traced one.  master.test_calls counts only the
    # calls whose threshold is at most 1: a test with a larger one cannot
    # fail, so the control loop skips it.  On ucrl-evi and glm-newton every
    # threshold exceeds 1; mab-switch keeps 6 test-1 calls and 32,754 test-2
    # calls of its 111,231
    "mab-switch": (45824, 32760, 30, 11031, 0),
    "ucrl-evi": (16382, 0, 0, 8218, 0),
    "glm-newton": (12282, 0, 0, 66, 0),
}
# the environment's sampler (play, or step) and oracle are wrapped on the
# instance make_env returns: a loop that stops calling them through it
# leaves their time at 0
NONZERO = ("malg.self_us", "master.log_append_us", "envs.play_us", "envs.oracle_us")
OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_out")
ARTIFACT_DIGESTS = {  # at --seed 0: the files in .bench_out/<workload>/
    "mab-switch": {
        "seed_0.csv": "4f8f107869ef56a48601ca415d00e76be4e2347784cdf77e4d2fb258dea1ddbd",
        "seed_1.csv": "26d08445c4348e40a87d687d282db8f21f2d843b73f34b027a02c88fa79ac1ae",
        "seed_2.csv": "bce059b79e08fd6dddf8ca01cb06d920744b599680f36a182adf9987e46469cd",
        "seed_3.csv": "8cbc93af7b1f15be343ee549e5eac8aa452dda8ec30f00df93904cedff727569",
        "aggregate.json": "320bc61241ec6e82ff7b086db8c00f0067519340b2ce4263fc68b62ebe08c392",
        "regret.svg": "26d7714b34b3f534cd6cfec1312f85bba03cedf6e34549ff9f018b3947bf0bb9",
    },
}


def artifact_problems(workload: str) -> list[str]:
    out = []
    for name, want in ARTIFACT_DIGESTS.get(workload, {}).items():
        path = os.path.join(OUT, workload, name)
        if not os.path.exists(path):
            out.append(f"{name} was not written")
            continue
        with open(path, "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        if got != want:
            out.append(f"{name} has SHA-256 {got}, expected {want}")
    return out


def problems(result: dict, workload: str, trace: bool) -> list[str]:
    out = []
    if not (result["correct"] and result["failed"] == 0):
        out.append(f"correct={result['correct']} with {result['failed']} failed seed-runs")
    if trace:
        metrics = result["metrics"]
        for name, want in zip(COUNT_NAMES, TRACED_COUNTS[workload]):
            if metrics[name]["value"] != want:
                out.append(f"{name} = {metrics[name]['value']}, expected {want}")
        out += [f"{name} = 0: the tracer no longer sees this layer" for name in NONZERO
                if not metrics[name]["value"] > 0]
    return out + artifact_problems(workload)


def main(workload: str, trace: str) -> int:
    found = problems(json.loads(sys.stdin.read().splitlines()[-1]), workload, trace == "1")
    for text in found:
        print(f"{workload} --trace {trace}: {text}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

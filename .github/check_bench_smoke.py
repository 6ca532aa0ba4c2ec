"""Check one benchmark smoke run, read as the JSON object on the last line of stdin.

    python3 perfbench/run.py --workload W --trace T --seed 0 --seconds 1 | tail -n 1 \
        | python3 .github/check_bench_smoke.py W T

Every run must report correct with 0 failed seed-runs.  A traced run at
--seed 0 must also reproduce the layer counts below, and report a nonzero
malg.self_us and master.log_append_us: a refactor that bypasses a layer the
tracer wraps changes a count or leaves that layer's time at 0.
"""

import json
import sys

COUNT_NAMES = ("malg.spawns", "master.test_calls", "master.restarts", "base.instances")
TRACED_COUNTS = {  # at --seed 0, in COUNT_NAMES order
    "mab-switch": (45824, 111231, 30, 35868),
    "ucrl-evi": (16382, 24550, 0, 8192),
    "glm-newton": (12282, 18366, 0, 6144),
}
NONZERO = ("malg.self_us", "master.log_append_us")


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
    return out


def main(workload: str, trace: str) -> int:
    found = problems(json.loads(sys.stdin.read().splitlines()[-1]), workload, trace == "1")
    for text in found:
        print(f"{workload} --trace {trace}: {text}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

"""nonstat benchmark: microseconds per simulated round, set-up time, memory, regret.

    python3 perfbench/run.py --workload mab-switch --seed 0 --seconds 25 --trace 0

Run it from a checkout of the repository: it imports nonstat from ``src/``
next to this directory and exits with an error, printing no result, when
that is missing.  Workloads: mab-switch, ucrl-evi, glm-newton (see
workloads.py).  After one untimed warm-up operation it repeats the
workload's operation until ``--seconds`` have passed, checks every seed-run
against the references recorded in references.json, and prints one line per
metric followed by a JSON object as the last line of standard output.

--trace 0 reports the end-to-end metrics (round_us, setup_s, peak_rss_mb,
regret).  The benchmark pins itself to one CPU and samples the host's speed
with a fixed loop that does not use nonstat (every 0.2 s during an
operation, around each set-up interpreter); round_us and setup_s are wall
times scaled by that speed to the reference host at full speed, because the
shared host's speed swings by up to 2x (README.md).  --trace 1 swaps timing
wrappers onto nonstat's layer boundaries (tracing.py) and reports the
per-layer metrics; its spans are written to .bench_out/trace-<workload>.npz.
"""

from __future__ import annotations

import os

# one process, one BLAS thread: pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 11
CAL_REPEATS = 5
PROBE_PERIOD_S = 0.2
# speed_loop() on an idle core of the reference host (2-core x86_64 host,
# Python 3.11.7, numpy 2.4.6): its fastest time there
LOOP_REF_S = 0.0025

SETUP_SNIPPET = """\
import json, sys, time
spec = json.load(sys.stdin)
t0 = time.perf_counter()
import nonstat
from nonstat.harness import validate_spec
validate_spec(spec)
print(repr(time.perf_counter() - t0))
"""


def speed_loop() -> float:
    """Seconds of a fixed loop of interpreter work and small numpy calls that never touches
    nonstat: one sample of the host's current speed."""
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    v = np.zeros(8)
    acc, d = 0.0, {}
    for i in range(600):
        x = float(rng.random())
        v[i % 8] += x
        acc += math.sqrt(x) + float(np.argmax(v)) + float(v.max())
        d[i % 61] = d.get(i % 61, 0.0) + x
    return time.perf_counter() - t0


def calibrate() -> float:
    return statistics.median(speed_loop() for _ in range(CAL_REPEATS))


def on_host(fn):
    """(fn(), host factor) for a call the speed loop must not interrupt (one in another
    process, or a traced operation): the factor is LOOP_REF_S over the speed loop's time
    around the call, so a duration times it reads as on the reference host at full speed."""
    before = calibrate()
    result = fn()
    return result, LOOP_REF_S / ((before + calibrate()) / 2.0)


class HostProbe:
    """Host speed during a call in this process: a SIGALRM handler runs the speed loop every
    PROBE_PERIOD_S, so the samples follow the host through the call."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(speed_loop())

    def time(self, fn):
        """(fn(), seconds of fn alone, host factor = mean of LOOP_REF_S / sample)."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            seconds = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds -= sum(self.samples)
        if not self.samples:
            self.samples.append(speed_loop())
        return result, seconds, statistics.fmean(LOOP_REF_S / s for s in self.samples)


def setup_once(spec: dict) -> float:
    """``import nonstat`` + ``validate_spec`` in a fresh interpreter, timed inside it."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET],
        input=json.dumps(spec), env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe_host() -> str:
    import numpy

    return (f"python {platform.python_version()} ({platform.python_implementation()}), "
            f"numpy {numpy.__version__}, nproc {os.cpu_count()}, {platform.machine()}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit, note) in metrics.items():
        print(f"{name:24s} {value:14.6g} {unit:10s} {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one CPU, so the calibration sees the same core as the work it normalizes
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "nonstat", "__init__.py")):
        print(f"perfbench: no nonstat sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have {sorted(workloads.WORKLOADS)})")
    wl = workloads.WORKLOADS[args.workload]
    variant = args.seed % workloads.N_VARIANTS
    raw_spec = wl.make_spec(variant)
    print(f"# workload {wl.name}, seed {args.seed} (variant {variant}), trace {args.trace}, "
          f"{args.seconds:g} s")
    print(f"# {describe_host()}")

    setup = []
    if not args.trace:
        setup_once(raw_spec)  # warm-up: the first interpreter may compile bytecode
        for _ in range(SETUP_REPEATS):
            seconds, factor = on_host(lambda: setup_once(raw_spec))
            setup.append((seconds * factor, seconds))
    from nonstat.harness import validate_spec

    spec = validate_spec(raw_spec)
    refs = workloads.load_references()[wl.name][str(variant)]
    rounds = spec["T"] * len(spec["seeds"])
    out_dir = os.path.join(OUT, wl.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    attempted = failed = 0
    first_error = None

    def op():
        return workloads.run_op(wl, spec, out_dir)

    def settle(runs):
        """Replay and check the seed-runs of one operation; True when all passed."""
        nonlocal attempted, failed, first_error
        workloads.replay(wl, runs, out_dir)
        workloads.check(runs, refs)
        attempted += len(runs)
        bad = [run for run in runs if run.error is not None]
        failed += len(bad)
        if bad and first_error is None:
            first_error = f"seed {bad[0].seed}: {bad[0].error}"
        return not bad

    # the warm-up operation counts towards --seconds but not towards the timings
    deadline = time.monotonic() + args.seconds
    settle(op()[1])
    if args.trace:
        correct, metrics = traced(wl, spec, deadline, rounds, op, settle, out_dir)
    else:
        timed_ops, regrets = [], []
        probe = HostProbe()
        while True:
            (_, runs), seconds, factor = probe.time(op)
            if settle(runs):
                timed_ops.append((seconds * factor, seconds))
                regrets = [run.regret for run in runs]
            # one operation's logs in memory at a time, so peak_rss_mb does not
            # depend on how many operations fit in --seconds
            del runs
            if time.monotonic() >= deadline:
                break
        if not timed_ops:  # every operation failed: report the last one's time
            timed_ops.append((seconds * factor, seconds))
        q1, med, q3 = (q * 1e6 / rounds for q in quartiles([n for n, _ in timed_ops]))
        raw = statistics.median(r for _, r in timed_ops) * 1e6 / rounds
        s1, smed, s3 = quartiles([n for n, _ in setup])
        raw_setup = statistics.median(r for _, r in setup)
        metrics = {
            "round_us": (med, "us/round", f"host-normalized median of {len(timed_ops)} ops of {rounds} rounds; "
                                          f"q1 {q1:.4g}, q3 {q3:.4g}; wall {raw:.4g}"),
            "setup_s": (smed, "s", f"host-normalized median of {len(setup)} fresh interpreters; "
                                   f"q1 {s1:.4g}, q3 {s3:.4g}; wall {raw_setup:.4g}"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                            "ru_maxrss of this process"),
            "regret": (sum(regrets) / len(regrets) if regrets else 0.0, "reward",
                       f"mean dynamic regret over {len(spec['seeds'])} seed-runs"),
        }
        correct = True
    print(f"{'fail_rate':24s} {failed / attempted:14.6g} {'ratio':10s} {failed} failed of {attempted} seed-runs")
    if first_error is not None:
        print(f"# first failure: {first_error}", file=sys.stderr)
    emit(correct and failed == 0, attempted, failed, metrics)
    return 0


def traced(wl, spec, deadline, rounds, op, settle, out_dir):
    """The traced run: an untraced operation, the bare baseline and a traced operation, in
    turn until the deadline.  Each of the three is normalized by the speed loop run around it
    (not during it, where the samples would land inside the spans), and the traced operation
    is compared with the two runs just before it."""
    import tracing
    from nonstat.harness import baseline_run

    def bare():
        """Microseconds per round of baseline_run over the seeds that complete, and the errors
        of the others (bare GLM-UCB raises GlmSolveError on a few seeds, README.md)."""
        seconds, errors = 0.0, []
        for i, seed in enumerate(spec["seeds"]):
            t0 = time.perf_counter()
            try:
                baseline_run(spec, seed, i)
            except Exception as exc:
                errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
                continue
            seconds += time.perf_counter() - t0
        done = len(spec["seeds"]) - len(errors)
        return (seconds * 1e6 / (done * spec["T"]) if done else 0.0), errors

    tracer = tracing.Tracer()
    samples, counts_seen = [], []
    def traced_op():
        tracer.reset()
        tracer.install()
        try:
            return op()
        finally:
            tracer.uninstall()

    while True:
        (untraced_s, runs), factor = on_host(op)
        settle(runs)
        untraced_us = untraced_s * factor * 1e6 / rounds
        (bare_us, bare_errors), factor = on_host(bare)
        bare_us *= factor
        (op_s, runs), factor = on_host(traced_op)
        settle(runs)
        csv_bytes = sum(
            os.path.getsize(os.path.join(out_dir, f"seed_{seed}.csv")) for seed in spec["seeds"]
        ) if wl.persists else 0
        sample = tracing.layer_metrics(tracer, rounds, op_s, factor, untraced_us, bare_us, len(bare_errors),
                                       csv_bytes, runs)
        samples.append(sample)
        counts_seen.append({k: v for k, (v, unit, _) in sample.items() if unit == "count"})
        if time.monotonic() >= deadline:
            break
    tracer.save(os.path.join(OUT, f"trace-{wl.name}.npz"))
    metrics = {}
    for name, (_, unit, note) in samples[-1].items():
        values = [s[name][0] for s in samples]
        metrics[name] = (values[-1] if unit == "count" else statistics.median(values), unit,
                         f"{note}; median of {len(samples)}" if unit != "count" else note)
    repeat = all(c == counts_seen[0] for c in counts_seen)
    if not repeat:
        print("# traced counts differ between operations", file=sys.stderr)
    for error in bare_errors:
        print(f"# bare baseline failed, not timed: {error}")
    for line in tracing.split_lines(tracer, op_s):
        print(f"# {line}")
    return repeat, metrics


if __name__ == "__main__":
    sys.exit(main())

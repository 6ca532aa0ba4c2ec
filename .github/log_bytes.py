"""Print the live bytes per row of a run log, as tracemalloc counts them.

    python3 .github/log_bytes.py

The run: master+UCB1 on a 2-arm bandit whose means swap at T/2, with
Ucb1(2, T, 1/T), kappa 1 and seed 0, at T = 2^14.  One run first fills the
process-wide memos (the test thresholds, the spawn probabilities, the
environment's per-segment optima), so that what a second run leaves alive
is its log.  The figures are the live bytes that this run_master log holds,
tracemalloc's peak during that run (the pending rows of a log chunk, the
block draws and the learners live at once), and the live bytes that
RunLog.from_csv of its CSV text holds, each over T.  A last line gives the
live bytes per row of the same run at kappa 1e-4, which restarts about
7,300 times: each restart row keeps its own "restart <cause>" token in the
log's two parallel sequences: an array of the amended rows and a list
of their tokens.  The last two give tracemalloc's peak during RunLog.to_csv
of the kappa 1 log into os.devnull, beyond what the log holds, over T, at
T = 2^14 and 2^16: the writer formats a chunk of rows at a time, so this
figure should not grow with T.  A change reports them as it reports its
src/ lines.
"""

import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from nonstat.base import Ucb1  # noqa: E402
from nonstat.envs import make_env  # noqa: E402
from nonstat.master import RunLog, run_master  # noqa: E402

T = 1 << 14


def _runner(horizon: int, kappa: float):
    """A function that makes the run_master log of this module's run at kappa."""
    half = horizon // 2
    env = make_env({"kind": "mab", "T": horizon, "segments": [
        {"length": half, "means": [0.9, 0.1]}, {"length": horizon - half, "means": [0.1, 0.9]}]})
    return lambda: run_master(env, lambda: Ucb1(2, horizon, 1.0 / horizon), kappa=kappa, seed=0)


def bytes_per_row(horizon: int = T) -> tuple[float, float, float]:
    """(live bytes per row of a run_master log, of its from_csv copy, and the
    peak bytes per row traced during the run_master call)."""
    run = _runner(horizon, 1.0)
    run()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        log = run()
        live, peak = tracemalloc.get_traced_memory()
        built, peak = live - before, peak - before
        text = log.to_csv_text()
        before = tracemalloc.get_traced_memory()[0]
        copy = RunLog.from_csv(text)
        read = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == len(copy) == horizon
    return built / horizon, read / horizon, peak / horizon


def restart_heavy_bytes_per_row(horizon: int = T) -> tuple[float, int]:
    """(live bytes per row of the run_master log at kappa 1e-4, its restarts)."""
    run = _runner(horizon, 1e-4)
    run()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = run()
        built = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return built / horizon, len(log.restarts)


def writer_peak_bytes_per_row(horizon: int) -> float:
    """tracemalloc's peak during to_csv of the kappa 1 run_master log, beyond
    the bytes live before the call, over the horizon."""
    log = _runner(horizon, 1.0)()
    log.to_csv(os.devnull)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        log.to_csv(os.devnull)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / horizon


def main() -> int:
    built, read, peak = bytes_per_row()
    print(f"live bytes per row at T={T}: run_master log {built:.1f}, from_csv log {read:.1f}")
    print(f"peak bytes per row traced during run_master at T={T}: {peak:.1f}")
    built, restarts = restart_heavy_bytes_per_row()
    print(f"live bytes per row at T={T}, kappa 1e-4 ({restarts} restarts): run_master log {built:.1f}")
    for horizon in (T, 4 * T):
        print(f"peak extra bytes per row traced during to_csv at T={horizon}: {writer_peak_bytes_per_row(horizon):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

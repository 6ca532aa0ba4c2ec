"""The benchmark's workloads: spec generation, the timed operation, the output check.

Every workload is one experiment spec run through the public nonstat API.
The workload seed picks one of ``N_VARIANTS`` input variants
(``seed % N_VARIANTS``); a variant fixes the seeds of the operation's
seed-runs, and ``references.json`` holds, for every variant, the regret,
restart rounds and trajectory digest each seed-run must reproduce.

The environment draw of each workload is fixed (``ENV_DRAW``), not taken
from the workload seed.  Regret is an end-to-end metric, and across random
environment draws it spreads far more than any bound could allow (an
interquartile range of 26% of the median over 12 MDP draws on ucrl-evi,
30% over 12 GLM draws on glm-newton), while across run seeds at a fixed
draw it stays within a few percent.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nonstat import harness
from nonstat.master import RunLog, dynamic_regret

N_VARIANTS = 32
ENV_DRAW = 0
REGRET_RTOL = 1e-9
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def _run_seeds(variant: int, count: int) -> list[int]:
    return [variant * count + i for i in range(count)]


def mab_switch_spec(variant: int) -> dict:
    T = 1 << 14
    cut = int(0.6 * T)
    return {
        "env": {
            "kind": "mab",
            "T": T,
            "segments": [
                {"length": cut, "means": [0.9, 0.1]},
                {"length": T - cut, "means": [0.1, 0.9]},
            ],
        },
        "algorithm": "master+ucb1",
        "T": T,
        "kappa": 4e-4,
        "seeds": _run_seeds(variant, 4),
    }


def ucrl_evi_spec(variant: int) -> dict:
    S, A, T = 8, 3, 1 << 12
    rng = np.random.default_rng([ENV_DRAW, S, A])
    segments = []
    for length in (T // 2, T - T // 2):
        # every entry positive, so the MDP is communicating
        trans = 0.9 * rng.dirichlet(np.full(S, 0.5), size=(S, A)) + 0.1 / S
        trans /= trans.sum(axis=2, keepdims=True)
        rewards = rng.uniform(size=(S, A))
        segments.append({"length": length, "rewards": rewards.tolist(), "transitions": trans.tolist()})
    return {
        "env": {"kind": "infinite", "T": T, "S": S, "A": A, "segments": segments},
        "algorithm": "master-ucrl",
        "T": T,
        "kappa": 1.0,
        "algo": {"dbar": 4.0},
        "seeds": _run_seeds(variant, 2),
    }


def glm_newton_spec(variant: int) -> dict:
    K, d, T = 10, 4, 1 << 10
    rng = np.random.default_rng([ENV_DRAW, K, d])
    actions = rng.normal(size=(K, d))
    actions /= np.linalg.norm(actions, axis=1, keepdims=True)
    theta = rng.normal(size=d)
    theta *= (1.0 / 1.2) / np.linalg.norm(theta)
    return {
        "env": {
            "kind": "glm",
            "T": T,
            "link": "logistic",
            "actions": actions.tolist(),
            "segments": [
                {"length": T // 2, "theta": theta.tolist()},
                {"length": T - T // 2, "theta": (-theta).tolist()},
            ],
        },
        "algorithm": "master+glm",
        "T": T,
        "kappa": 1.0,
        "seeds": _run_seeds(variant, 6),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    make_spec: Callable[[int], dict]
    persists: bool  # True: run_experiment with an output directory; False: run_single per seed


WORKLOADS = {
    wl.name: wl
    for wl in (
        # Cheapest learner and environment, so the scheduler, the tests, the
        # log and persistence carry the time; learner cost sits in reads
        # (predict/act).  Bypasses mdp (no EVI) and glm_solve.
        Workload("mab-switch", mab_switch_spec, persists=True),
        # Spawn probability is 1 at every order, so every round is played by
        # a fresh learner that solves EVI: stresses mdp (evi, widen_to_span)
        # and the learner factory.  Bypasses persistence and glm_solve; it
        # drives run_single because run_experiment fails in aggregate on
        # this MDP (3^8 policies, see README.md).
        Workload("ucrl-evi", ucrl_evi_spec, persists=False),
        # glm_solve inside GlmUcb.update takes most of the time: learner cost
        # sits in writes (update).  Bypasses mdp and persistence.
        Workload("glm-newton", glm_newton_spec, persists=False),
    )
}


@dataclass
class SeedRun:
    seed: int
    log: RunLog | None  # the run's log; for a persisting workload, its replay from the CSV
    regret: float | None  # as the library computed it
    error: str | None = None
    replay_s: float = 0.0


def run_op(wl: Workload, spec: dict, out_dir: str) -> tuple[float, list[SeedRun]]:
    """One timed operation over all seeds of the validated spec: (seconds, seed-runs)."""
    runs = []
    t0 = time.perf_counter()
    if wl.persists:
        try:
            report = harness.run_experiment(dict(spec, out=out_dir), workers=1)
            runs = [SeedRun(row["seed"], None, row["regret"]) for row in report["per_seed"]]
        except Exception:
            runs = [SeedRun(seed, None, None, traceback.format_exc()) for seed in spec["seeds"]]
    else:
        for i, seed in enumerate(spec["seeds"]):
            try:
                runs.append(SeedRun(seed, harness.run_single(spec, seed, i), None))
            except Exception:
                runs.append(SeedRun(seed, None, None, traceback.format_exc()))
    return time.perf_counter() - t0, runs


def replay(wl: Workload, runs: list[SeedRun], out_dir: str) -> None:
    """The CSV round trip: RunLog.from_csv + dynamic_regret must reproduce the regret exactly.

    A persisting workload is replayed from the CSVs it wrote; the others from
    ``to_csv_text`` of the in-memory log.  Only the read side is timed.
    """
    for run in runs:
        if run.error is not None:
            continue
        if wl.persists:
            t0 = time.perf_counter()
            run.log = RunLog.from_csv(os.path.join(out_dir, f"seed_{run.seed}.csv"))
            replayed = dynamic_regret(run.log)
        else:
            run.regret = dynamic_regret(run.log)
            text = run.log.to_csv_text()
            t0 = time.perf_counter()
            replayed = dynamic_regret(RunLog.from_csv(text))
        run.replay_s = time.perf_counter() - t0
        if replayed != run.regret:
            run.error = f"CSV round trip regret {replayed!r} != {run.regret!r}"


def trajectory_digest(log: RunLog) -> str:
    """SHA-256 over the policy, reward, active_order and event columns, CSV-formatted."""
    h = hashlib.sha256()
    for name, fmt in (("policy", lambda v: str(int(v))), ("reward", lambda v: repr(float(v))),
                      ("active_order", lambda v: str(int(v))), ("event", str)):
        h.update(name.encode() + b"\n")
        h.update("\n".join(fmt(v) for v in log.column(name)).encode() + b"\n")
    return h.hexdigest()


def fingerprint(run: SeedRun) -> dict:
    return {
        "seed": run.seed,
        "regret": run.regret,
        "restarts": [ev.round for ev in run.log.restarts],
        "digest": trajectory_digest(run.log),
    }


def load_references() -> dict:
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(runs: list[SeedRun], refs: list[dict]) -> None:
    """Compare each seed-run that has no error yet with its reference; set error on mismatch."""
    by_seed = {ref["seed"]: ref for ref in refs}
    for run in runs:
        if run.error is not None:
            continue
        ref = by_seed.get(run.seed)
        if ref is None:
            run.error = f"no reference for seed {run.seed}"
            continue
        got = fingerprint(run)
        if not math.isclose(got["regret"], ref["regret"], rel_tol=REGRET_RTOL, abs_tol=0.0):
            run.error = f"regret {got['regret']!r} != reference {ref['regret']!r}"
        elif got["restarts"] != ref["restarts"]:
            run.error = f"restart rounds {got['restarts']} != reference {ref['restarts']}"
        elif got["digest"] != ref["digest"]:
            run.error = f"trajectory digest {got['digest']} != reference {ref['digest']}"

"""Experiment orchestration: configs, seeds, persistence, aggregation.

An experiment spec names an environment, an algorithm, a threshold scale
kappa, and a list of seeds.  Every seed runs independently and writes one
CSV run log; the aggregate report (per-seed regrets, restart counts, their
summary statistics, a downsampled mean regret curve, and the scaling
normalizers regret / sqrt(L*T) and regret / (Delta^(1/3) T^(2/3) + sqrt(T)))
is recomputable from those CSVs and is persisted as JSON next to an SVG of
the per-seed regret curves.

Randomness is derived, not shared: every stream comes from seed_derive, so
any run is reproducible from its spec alone, on any platform.

Everything the harness knows about an algorithm name sits in its
ALGORITHMS entry.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import base, mdp, rates
from .envs import EnvSpecError, make_env, nonstat_summary
from .master import RunLog, dynamic_regret, run_bare, run_master, seed_derive

__all__ = [
    "SpecError",
    "seed_derive",
    "validate_spec",
    "run_single",
    "run_experiment",
    "baseline_run",
    "render_regret_svg",
]

MAX_CURVE_POINTS = 4096


class SpecError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the algorithm table
#
# A learner function maps (env, T, delta, spec.algo) to the (factory, rate)
# of the base learner; a run function maps (learner, env, spec, seed, run_index)
# to the run log.


def _ucb1(env, horizon, delta, algo):
    params = dict(n_arms=env.n_arms, horizon=horizon, delta=delta)
    if "c" in algo:
        params["bonus_scale"] = algo["c"]
    return (lambda: base.Ucb1(**params)), rates.ucb1_rate(env.n_arms, horizon, delta)


def _oful(env, horizon, delta, algo):
    params = dict(actions=env.actions, horizon=horizon, delta=delta)
    if "refactor_every" in algo:
        params["refactor_every"] = algo["refactor_every"]
    return (lambda: base.Oful(**params)), rates.oful_rate(env.dim, horizon, delta)


def _glm(env, horizon, delta, algo):
    link = env.link
    params = dict(actions=env.actions, horizon=horizon, delta=delta, link=link.name, lam=env.lam)
    rate = rates.glm_rate(env.dim, horizon, delta, link.k_mu, link.c_mu, env.lam)
    return (lambda: base.GlmUcb(**params)), rate


def _qucb(env, horizon, delta, algo):
    params = dict(
        n_states=env.n_states,
        n_actions=env.n_actions,
        n_layers=env.n_layers,
        horizon=horizon,
        delta=delta,
        init_state=env.init_state,
    )
    if "c" in algo:
        params["bonus_scale"] = algo["c"]
    rate = rates.qucb_rate(env.n_states, env.n_actions, env.n_layers, horizon, delta)
    return (lambda: base.QUcb(**params)), rate


def _ucrl(env, horizon, delta, algo):
    return mdp.ucrl_learner(env, horizon, delta, algo.get("dbar", 1.0))


def _master(learner, env, spec, seed, run_index):
    factory, rate = learner(env, spec["T"], spec["delta"], spec.get("algo", {}))
    return run_master(env, factory, rate, spec["T"], spec["delta"], spec["kappa"], seed, run_index)


def _bare(learner, env, spec, seed, run_index):
    factory, _ = learner(env, spec["T"], spec["delta"], spec.get("algo", {}))
    return run_bare(env, factory(), spec["T"], seed, run_index)


def _master_ucrl(learner, env, spec, seed, run_index):
    dbar = spec.get("algo", {}).get("dbar", 1.0)
    return mdp.run_master_ucrl(env, dbar, spec["T"], spec["delta"], spec["kappa"], seed, run_index)


def _doubling_dbar(learner, env, spec, seed, run_index):
    algo = spec.get("algo", {})
    return mdp.doubling_dbar(
        env, spec["T"], algo.get("known_l"), algo.get("known_delta"), spec["delta"], spec["kappa"],
        seed, run_index,
    )


def _borl(learner, env, spec, seed, run_index):
    return mdp.borl(env, spec["T"], spec["delta"], spec["kappa"], seed, run_index)


@dataclass(frozen=True)
class Algorithm:
    env_kind: str  # the environment kind it runs on
    learner: Callable  # its base learner's (factory, rate)
    drift: str  # the drift measure nonstat_summary computes for it
    run: Callable  # runs one seed
    bare: str | None  # its paired baseline without the scheduler, if it has one


ALGORITHMS = {
    "master+ucb1": Algorithm("mab", _ucb1, "ucb1", _master, "ucb1"),
    "master+oful": Algorithm("linear", _oful, "oful", _master, "oful"),
    "master+glm": Algorithm("glm", _glm, "glm", _master, "glm"),
    "master+qucb": Algorithm("episodic", _qucb, "qucb", _master, "qucb"),
    "master-ucrl": Algorithm("infinite", _ucrl, "ucrl", _master_ucrl, "ucrl"),
    # a restart-free learner would need the diameter guess neither is given
    "doubling-dbar": Algorithm("infinite", _ucrl, "ucrl", _doubling_dbar, None),
    "borl": Algorithm("infinite", _ucrl, "ucrl", _borl, None),
    "ucb1": Algorithm("mab", _ucb1, "ucb1", _bare, "ucb1"),
    "oful": Algorithm("linear", _oful, "oful", _bare, "oful"),
    "glm": Algorithm("glm", _glm, "glm", _bare, "glm"),
    "qucb": Algorithm("episodic", _qucb, "qucb", _bare, "qucb"),
    "ucrl": Algorithm("infinite", _ucrl, "ucrl", _bare, "ucrl"),
}


# ---------------------------------------------------------------------------
# spec validation

_SPEC_KEYS = {"env", "algorithm", "T", "delta", "kappa", "seeds", "out", "algo"}
_ALGO_KEYS = {"c", "dbar", "known_l", "known_delta", "refactor_every"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_spec(spec: dict) -> dict:
    """Normalize and validate an experiment spec; raises SpecError."""
    if not isinstance(spec, dict):
        raise SpecError("spec: expected an object")
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise SpecError(f"spec: unknown keys {sorted(unknown)}")
    for key in ("env", "algorithm", "seeds"):
        if key not in spec:
            raise SpecError(f"spec.{key}: missing")
    algorithm = spec["algorithm"]
    if algorithm not in ALGORITHMS:
        raise SpecError(f"spec.algorithm: unknown {algorithm!r} (have {tuple(ALGORITHMS)})")
    try:
        env = make_env(spec["env"])
    except EnvSpecError as exc:
        raise SpecError(f"spec.env -> {exc}") from None
    horizon = spec.get("T", env.horizon)
    if not _is_int(horizon):
        raise SpecError(f"spec.T: expected an integer, got {horizon!r}")
    if horizon != env.horizon:
        raise SpecError(f"spec.T: {horizon} does not match env horizon {env.horizon}")
    expected_kind = ALGORITHMS[algorithm].env_kind
    if env.kind != expected_kind:
        raise SpecError(
            f"spec.algorithm: {algorithm!r} needs a {expected_kind!r} environment, got {env.kind!r}"
        )
    delta = spec.get("delta")
    if delta is None:
        delta = 1.0 / horizon
    if not (0.0 < delta < 1.0):
        raise SpecError(f"spec.delta: must lie in (0, 1), got {delta}")
    kappa = spec.get("kappa", 1.0)
    if kappa == "inf":
        kappa = math.inf
    # kappa = 0 zeroes both test thresholds, so a spec run would restart every round
    if not (isinstance(kappa, (int, float)) and not isinstance(kappa, bool) and kappa > 0.0):
        raise SpecError(f"spec.kappa: must be a positive number or 'inf', got {kappa!r}")
    seeds = spec["seeds"]
    if not isinstance(seeds, list) or not seeds or not all(_is_int(s) for s in seeds):
        raise SpecError("spec.seeds: expected a non-empty list of integers")
    algo = spec.get("algo", {})
    if not isinstance(algo, dict) or set(algo) - _ALGO_KEYS:
        raise SpecError(f"spec.algo: unknown keys {sorted(set(algo) - _ALGO_KEYS)}")
    if algorithm == "doubling-dbar":
        if ("known_l" in algo) == ("known_delta" in algo):
            raise SpecError("spec.algo: doubling-dbar needs exactly one of known_l / known_delta")
    return {
        "env": spec["env"],
        "algorithm": algorithm,
        "T": horizon,
        "delta": float(delta),
        "kappa": float(kappa),
        "seeds": list(seeds),
        "out": spec.get("out"),
        "algo": dict(algo),
    }


# ---------------------------------------------------------------------------
# single runs


def run_single(spec: dict, seed: int, run_index: int = 0) -> RunLog:
    """One seeded run of the spec's algorithm; returns the run log."""
    env = make_env(spec["env"])
    entry = ALGORITHMS[spec["algorithm"]]
    return entry.run(entry.learner, env, spec, seed, run_index)


def baseline_run(spec: dict, seed: int, run_index: int = 0) -> RunLog:
    """The spec's base algorithm with no scheduling wrapper (paired baseline).

    Raises SpecError for doubling-dbar and borl, which have none.
    """
    name = ALGORITHMS[spec["algorithm"]].bare
    if name is None:
        raise SpecError(f"spec.algorithm: {spec['algorithm']!r} has no restart-free counterpart")
    return run_single(dict(spec, algorithm=name), seed, run_index)


# ---------------------------------------------------------------------------
# aggregation


def _downsample(values: np.ndarray, limit: int = MAX_CURVE_POINTS):
    n = len(values)
    if n <= limit:
        idx = np.arange(n)
    else:
        idx = np.unique(np.linspace(0, n - 1, limit).astype(np.int64))
    return idx.tolist(), values[idx].tolist()


def aggregate(spec: dict, logs: dict[int, RunLog]) -> dict:
    env = make_env(spec["env"])
    horizon = spec["T"]
    dbar = spec.get("algo", {}).get("dbar", 1.0)  # read by the average-reward measure only
    summary = nonstat_summary(env, ALGORITHMS[spec["algorithm"]].drift, spec["delta"], dbar)
    reg_l_star = math.sqrt(summary.switch_count * horizon)
    reg_d_star = summary.delta_total ** (1.0 / 3.0) * horizon ** (2.0 / 3.0) + math.sqrt(horizon)

    per_seed = []
    curves = []
    for seed in spec["seeds"]:
        log = logs[seed]
        regret = dynamic_regret(log)
        gaps = np.asarray(log.column("f_star")) - np.asarray(log.column("reward"))
        curves.append(np.cumsum(gaps))
        per_seed.append(
            {"seed": seed, "regret": regret, "restarts": len(log.restarts)}
        )
    regrets = np.array([row["regret"] for row in per_seed])
    q25, q50, q75 = np.quantile(regrets, [0.25, 0.5, 0.75])
    mean_curve = np.mean(curves, axis=0)
    idx, vals = _downsample(mean_curve)
    report = {
        "algorithm": spec["algorithm"],
        "T": horizon,
        "kappa": spec["kappa"],
        "delta": spec["delta"],
        "seeds": spec["seeds"],
        "per_seed": per_seed,
        "regret_mean": float(regrets.mean()),
        "regret_median": float(q50),
        "regret_iqr": [float(q25), float(q75)],
        "restarts_mean": float(np.mean([row["restarts"] for row in per_seed])),
        "nonstationarity": {
            "L": summary.switch_count,
            "Delta": summary.delta_total,
        },
        "scaling": {
            "reg_per_sqrt_LT": float(regrets.mean() / reg_l_star),
            "reg_per_delta_rate": float(regrets.mean() / reg_d_star),
        },
        "mean_curve": {"t": [int(i) + 1 for i in idx], "regret": vals},
    }
    return report


# ---------------------------------------------------------------------------
# SVG rendering (no plotting dependency)

_SVG_W, _SVG_H = 800, 500
_MARGIN = 60


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_regret_svg(curves: list[tuple[list, list]], title: str) -> str:
    """Fixed-template line plot of cumulative regret curves."""
    xmax = max((max(xs) for xs, _ in curves if xs), default=1)
    ymax = max((max(ys) for _, ys in curves if ys), default=1.0)
    ymax = max(ymax, 1e-9)
    inner_w = _SVG_W - 2 * _MARGIN
    inner_h = _SVG_H - 2 * _MARGIN

    def px(x):
        return _MARGIN + inner_w * x / xmax

    def py(y):
        return _SVG_H - _MARGIN - inner_h * y / ymax

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_SVG_H - _MARGIN}" stroke="black"/>',
    ]
    for x in _ticks(0, xmax):
        parts.append(
            f'<text x="{px(x):.1f}" y="{_SVG_H - _MARGIN + 18:.1f}" text-anchor="middle" '
            f'font-size="11">{x:.0f}</text>'
        )
    for y in _ticks(0.0, ymax):
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{py(y) + 4:.1f}" text-anchor="end" font-size="11">{y:.1f}</text>'
        )
    colors = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2"]
    for i, (xs, ys) in enumerate(curves):
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>')
    parts.append(
        f'<text x="{_SVG_W / 2:.1f}" y="{_SVG_H - 16}" text-anchor="middle" font-size="12">round</text>'
    )
    parts.append(
        f'<text x="18" y="{_SVG_H / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {_SVG_H / 2:.1f})">dynamic regret</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# the experiment driver


def _run_and_persist(args):
    spec, seed, run_index, out_dir = args
    log = run_single(spec, seed, run_index)
    if out_dir is not None:
        log.to_csv(os.path.join(out_dir, f"seed_{seed}.csv"))
    gaps = np.asarray(log.column("f_star")) - np.asarray(log.column("reward"))
    idx, vals = _downsample(np.cumsum(gaps))
    return seed, log, idx, vals


def run_experiment(spec: dict, workers: int | None = None) -> dict:
    """Run every seed, persist artifacts, and return the aggregate report.

    Persistence never influences decisions: runs write their CSVs after
    completion, and removing the output directory from the spec produces
    identical run logs.
    """
    spec = validate_spec(spec)
    out_dir = spec.get("out")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    if workers is None:
        workers = int(os.environ.get("NONSTAT_WORKERS", "1"))
    jobs = [(spec, seed, i, out_dir) for i, seed in enumerate(spec["seeds"])]
    results = {}
    curves = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for seed, log, idx, vals in pool.map(_run_and_persist, jobs):
                results[seed] = log
                curves.append(([i + 1 for i in idx], vals))
    else:
        for job in jobs:
            seed, log, idx, vals = _run_and_persist(job)
            results[seed] = log
            curves.append(([i + 1 for i in idx], vals))
    report = aggregate(spec, results)
    if out_dir is not None:
        with open(os.path.join(out_dir, "aggregate.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        svg = render_regret_svg(curves, f"{spec['algorithm']} (T={spec['T']})")
        with open(os.path.join(out_dir, "regret.svg"), "w", encoding="utf-8") as fh:
            fh.write(svg)
    return report

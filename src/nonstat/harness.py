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
ALGORITHMS row: the environment kind, which fixes the base learner, the
run function, and the spec.algo keys the run reads; validate_spec rejects
any other.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections import Counter

import numpy as np

from . import base, mdp
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
# An algorithm is an environment kind, a run function (env, spec, seed,
# run_index) -> run log, and the spec.algo keys that run reads.  The kind
# fixes the base learner, whose function maps (env, T, delta, spec.algo) to
# its factory, the round adapter and the drift measure.


def _ucb1(env, horizon, delta, algo):
    bonus = {"bonus_scale": algo["c"]} if "c" in algo else {}
    return functools.partial(base.Ucb1, n_arms=env.n_arms, horizon=horizon, delta=delta, **bonus)


def _oful(env, horizon, delta, algo):
    return functools.partial(base.Oful, actions=env.actions, horizon=horizon, delta=delta)


def _glm(env, horizon, delta, algo):
    return functools.partial(base.GlmUcb, env.actions, horizon, delta, env.link.name, env.lam)


def _qucb(env, horizon, delta, algo):
    bonus = {"bonus_scale": algo["c"]} if "c" in algo else {}
    return functools.partial(
        base.QUcb, n_states=env.n_states, n_actions=env.n_actions, n_layers=env.n_layers, horizon=horizon,
        delta=delta, init_state=env.init_state, **bonus,
    )


def _ucrl(env, horizon, delta, algo):
    return mdp._ucrl_factory(env, horizon, delta, algo.get("dbar", 1.0))


# the base learner of each environment kind
_LEARNERS = {"mab": _ucb1, "linear": _oful, "glm": _glm, "episodic": _qucb, "infinite": _ucrl}


def _learner(env, spec):
    return _LEARNERS[env.kind](env, spec["T"], spec["delta"], spec.get("algo", {}))


def _master(env, spec, seed, run_index):
    return run_master(env, _learner(env, spec), spec["T"], spec["delta"], spec["kappa"], seed, run_index)


def _bare(env, spec, seed, run_index):
    return run_bare(env, _learner(env, spec)(), spec["T"], seed, run_index)


def _doubling_dbar(env, spec, seed, run_index):
    algo = spec.get("algo", {})
    return mdp.doubling_dbar(
        env, algo.get("known_l"), algo.get("known_delta"), spec["delta"], spec["kappa"], seed, run_index,
    )


def _borl(env, spec, seed, run_index):
    return mdp.borl(env, spec["delta"], spec["kappa"], seed, run_index)


# name -> (the environment kind it runs on, its run function, the spec.algo
# keys the run reads: c by the UCB1 and Q-UCB bonus, dbar by the
# average-reward learner and the aggregate's drift measure, known_l and
# known_delta by the doubling strategy)
ALGORITHMS = {
    "master+ucb1": ("mab", _master, {"c"}),
    "master+oful": ("linear", _master, set()),
    "master+glm": ("glm", _master, set()),
    "master+qucb": ("episodic", _master, {"c"}),
    "master-ucrl": ("infinite", _master, {"dbar"}),
    "doubling-dbar": ("infinite", _doubling_dbar, {"known_l", "known_delta"}),
    "borl": ("infinite", _borl, set()),
    "ucb1": ("mab", _bare, {"c"}),
    "oful": ("linear", _bare, set()),
    "glm": ("glm", _bare, set()),
    "qucb": ("episodic", _bare, {"c"}),
    "ucrl": ("infinite", _bare, {"dbar"}),
}


# ---------------------------------------------------------------------------
# spec validation

_SPEC_KEYS = {"env", "algorithm", "T", "delta", "kappa", "seeds", "out", "algo"}
_ALGO_KEYS = set().union(*(reads for _, _, reads in ALGORITHMS.values()))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_algo(algo: dict):
    """Type checks of the algo values a run reads; SpecError names the key."""
    if "known_delta" in algo and not _is_number(algo["known_delta"]):
        raise SpecError(f"spec.algo.known_delta: expected a number, got {algo['known_delta']!r}")
    if "c" in algo and not (_is_number(algo["c"]) and math.isfinite(algo["c"])):
        raise SpecError(f"spec.algo.c: expected a finite number, got {algo['c']!r}")
    dbar = algo.get("dbar", 1.0)
    if not (_is_number(dbar) and 1.0 <= dbar < math.inf):
        raise SpecError(f"spec.algo.dbar: expected a finite number >= 1, got {dbar!r}")
    known_l = algo.get("known_l", 1)
    if not (_is_int(known_l) and known_l > 0):
        raise SpecError(f"spec.algo.known_l: expected a positive integer, got {known_l!r}")


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
    expected_kind, run, reads = ALGORITHMS[algorithm]
    if env.kind != expected_kind:
        raise SpecError(
            f"spec.algorithm: {algorithm!r} needs a {expected_kind!r} environment, got {env.kind!r}"
        )
    delta = spec.get("delta")
    if delta is None:
        delta = 1.0 / horizon
    if not (_is_number(delta) and 0.0 < delta < 1.0):
        raise SpecError(f"spec.delta: must be a number in (0, 1), got {delta!r}")
    kappa = spec.get("kappa", 1.0)
    if kappa == "inf":
        kappa = math.inf
    # kappa = 0 zeroes both test thresholds, so a spec run would restart every round
    if not (_is_number(kappa) and kappa > 0.0):
        raise SpecError(f"spec.kappa: must be a positive number or 'inf', got {kappa!r}")
    seeds = spec["seeds"]
    if not isinstance(seeds, list) or not seeds or not all(_is_int(s) for s in seeds):
        raise SpecError("spec.seeds: expected a non-empty list of integers")
    repeated = sorted(s for s, n in Counter(seeds).items() if n > 1)
    if repeated:  # each run writes seed_<seed>.csv
        raise SpecError(f"spec.seeds: repeated seeds {repeated}")
    algo = spec.get("algo", {})
    if not isinstance(algo, dict) or set(algo) - _ALGO_KEYS:
        raise SpecError(f"spec.algo: unknown keys {sorted(set(algo) - _ALGO_KEYS)}")
    for key in sorted(set(algo) - reads):
        if key == "dbar" and expected_kind == "infinite":
            # its learners never read it, but the aggregate's drift measure would
            raise SpecError(f"spec.algo.dbar: {algorithm} chooses its own diameter guesses, so it takes none")
        raise SpecError(f"spec.algo.{key}: {algorithm} does not read it")
    _check_algo(algo)
    if algorithm == "doubling-dbar":
        if ("known_l" in algo) == ("known_delta" in algo):
            raise SpecError("spec.algo: doubling-dbar needs exactly one of known_l / known_delta")
    spec = {
        "env": spec["env"],
        "algorithm": algorithm,
        "T": horizon,
        "delta": float(delta),
        "kappa": float(kappa),
        "seeds": list(seeds),
        "out": spec.get("out"),
        "algo": dict(algo),
    }
    # the run's base learner, and its rate where the run reads one, so that a
    # ValueError of either names the spec before any seed runs; doubling-dbar
    # and borl take no dbar, so their learner is built at their first guess, 1
    try:
        learner = _learner(env, spec)()
        if run is not _bare:
            learner.rate()
    except ValueError as exc:
        raise SpecError(f"spec: the {algorithm} base learner rejects it: {exc}") from None
    return spec


# ---------------------------------------------------------------------------
# single runs


def run_single(spec: dict, seed: int, run_index: int = 0) -> RunLog:
    """One seeded run of the spec's algorithm; returns the run log."""
    _, run, _ = ALGORITHMS[spec["algorithm"]]
    return run(make_env(spec["env"]), spec, seed, run_index)


def baseline_run(spec: dict, seed: int, run_index: int = 0) -> RunLog:
    """The spec's base learner with no scheduling wrapper (paired baseline).

    Raises SpecError for doubling-dbar and borl: a restart-free learner would
    need the diameter guess neither is given.
    """
    _, run, _ = ALGORITHMS[spec["algorithm"]]
    if run not in (_master, _bare):
        raise SpecError(f"spec.algorithm: {spec['algorithm']!r} has no restart-free counterpart")
    return _bare(make_env(spec["env"]), spec, seed, run_index)


# ---------------------------------------------------------------------------
# aggregation


def _downsample(values: np.ndarray, limit: int = MAX_CURVE_POINTS):
    n = len(values)
    if n <= limit:
        idx = np.arange(n)
    else:
        idx = np.unique(np.linspace(0, n - 1, limit).astype(np.int64))
    return idx.tolist(), values[idx].tolist()


def aggregate(spec: dict, summary, per_seed: list[dict], curve_sum: np.ndarray) -> dict:
    """The report of a run's per-seed rows ({"seed", "regret", "restarts"}, in
    seed order) and the sum of their cumulative regret curves, with the
    environment's nonstat_summary."""
    horizon = spec["T"]
    reg_l_star = math.sqrt(summary.switch_count * horizon)
    reg_d_star = summary.delta_total ** (1.0 / 3.0) * horizon ** (2.0 / 3.0) + math.sqrt(horizon)

    regrets = np.array([row["regret"] for row in per_seed])
    q25, q50, q75 = np.quantile(regrets, [0.25, 0.5, 0.75])
    idx, vals = _downsample(curve_sum / len(per_seed))
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
    """Fixed-template line plot of cumulative regret curves, under an XML-escaped title."""
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
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
    """One seed: writes its CSV (with an output directory) and returns its
    aggregate row and its cumulative regret curve, not the log."""
    spec, seed, run_index, out_dir = args
    log = run_single(spec, seed, run_index)
    if out_dir is not None:
        log.to_csv(os.path.join(out_dir, f"seed_{seed}.csv"))
    gaps = np.asarray(log.column("f_star")) - np.asarray(log.column("reward"))
    row = {"seed": seed, "regret": dynamic_regret(log), "restarts": len(log.restarts)}
    return row, np.cumsum(gaps)


def _seed_results(jobs, workers):
    """_run_and_persist of each job, in job order."""
    if workers == 1:
        yield from map(_run_and_persist, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor  # here, so that importing the package starts no pool machinery

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_run_and_persist, jobs)


def _worker_count(workers) -> int:
    """workers, or NONSTAT_WORKERS when it is None: an integer >= 1, else a
    ValueError naming workers, or a SpecError naming NONSTAT_WORKERS."""
    if workers is None:
        text = os.environ.get("NONSTAT_WORKERS", "1")
        workers = int(text) if text.strip().isdecimal() else 0
        if workers < 1:
            raise SpecError(f"NONSTAT_WORKERS: expected an integer >= 1, got {text!r}")
    elif not (_is_int(workers) and workers >= 1):
        raise ValueError(f"workers: expected an integer >= 1, got {workers!r}")
    return workers


def run_experiment(spec: dict, workers: int | None = None) -> dict:
    """Run every seed, persist artifacts, and return the aggregate report.

    Persistence never influences decisions: runs write their CSVs after
    completion, and removing the output directory from the spec produces
    identical run logs.
    """
    workers = _worker_count(workers)
    spec = validate_spec(spec)
    # aggregate's drift measure, before any seed runs; not in validate_spec,
    # which accepts a spec it cannot measure for run_single
    dbar = spec["algo"].get("dbar", 1.0)  # read by the average-reward measure only
    try:
        summary = nonstat_summary(make_env(spec["env"]), spec["delta"], dbar)
    except ValueError as exc:
        raise SpecError(f"spec.env: {exc}") from None
    out_dir = spec.get("out")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    jobs = [(spec, seed, i, out_dir) for i, seed in enumerate(spec["seeds"])]
    per_seed = []
    curves = []  # downsampled, for the SVG
    curve_sum = None
    for row, curve in _seed_results(jobs, workers):
        per_seed.append(row)
        idx, vals = _downsample(curve)
        curves.append(([i + 1 for i in idx], vals))
        # from the first curve, not from zeros, which would turn a -0.0 into 0.0:
        # divided by the seed count this is np.mean(curves, axis=0), bit for bit
        if curve_sum is None:
            curve_sum = curve
        else:
            curve_sum += curve
    report = aggregate(spec, summary, per_seed, curve_sum)
    if out_dir is not None:
        with open(os.path.join(out_dir, "aggregate.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        svg = render_regret_svg(curves, f"{spec['algorithm']} (T={spec['T']})")
        with open(os.path.join(out_dir, "regret.svg"), "w", encoding="utf-8") as fh:
            fh.write(svg)
    return report

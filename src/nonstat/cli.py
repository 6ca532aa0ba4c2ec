"""Command-line front end.

    nonstat run --config spec.json [--seeds a..b] [--kappa x] [--out dir]
    nonstat regret --log run.csv
    nonstat plot --agg aggregate.json --out curve.svg
    nonstat diameter --mdp env.json

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .envs import EnvSpecError, load_env
from .harness import SpecError, render_regret_svg, run_experiment
from .master import RunLog, dynamic_regret


def _parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part]


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):  # the overrides below index it
            raise ValueError("spec: expected an object")
        if args.seeds is not None:
            spec["seeds"] = _parse_seeds(args.seeds)
        if args.kappa is not None:
            spec["kappa"] = float(args.kappa) if args.kappa != "inf" else "inf"
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        spec["out"] = args.out
    try:
        report = run_experiment(spec)
    except (SpecError, EnvSpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report["scaling"] | {
        "regret_mean": report["regret_mean"],
        "restarts_mean": report["restarts_mean"],
    }, sort_keys=True))
    return 0


def _cmd_regret(args) -> int:
    try:
        log = RunLog.from_csv(args.log)
        print(repr(dynamic_regret(log)))
    except (OSError, ValueError, csv.Error) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_plot(args) -> int:
    try:
        with open(args.agg, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if not isinstance(report, dict):
            raise TypeError("the aggregate must be a JSON object")
        curve = report["mean_curve"]
        rounds, regrets = curve["t"], curve["regret"]
        if len(rounds) != len(regrets):
            raise ValueError(f"mean_curve.t has {len(rounds)} values and mean_curve.regret {len(regrets)}")
        for name, values in (("t", rounds), ("regret", regrets)):  # a nan or inf has no coordinate
            if not all(map(math.isfinite, values)):
                raise ValueError(f"mean_curve.{name} must hold finite numbers only")
        if rounds and not max(rounds) > 0:  # the x axis runs from 0 to the last round
            raise ValueError(f"mean_curve.t must hold a round above 0, its largest value is {max(rounds)!r}")
        svg = render_regret_svg([(rounds, regrets)], f"{report['algorithm']} (T={report['T']})")
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except (OSError, KeyError, TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_diameter(args) -> int:
    try:
        env = load_env(args.mdp)
    except (OSError, EnvSpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if env.kind != "infinite":
        print("config error: diameter needs an infinite-horizon MDP spec", file=sys.stderr)
        return 2
    try:  # the loader checks only that each segment communicates: its hitting times are solved here
        diameters = [diameter for _, diameter in env.segment_diameters()]
    except ValueError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    for i, diameter in enumerate(diameters):
        print(f"segment {i}: diameter {diameter:.9f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nonstat")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seeds", help="a..b range or comma list")
    p_run.add_argument("--kappa")
    p_run.add_argument("--out")
    p_run.set_defaults(func=_cmd_run)

    p_reg = sub.add_parser("regret", help="dynamic regret of a run log CSV")
    p_reg.add_argument("--log", required=True)
    p_reg.set_defaults(func=_cmd_regret)

    p_plot = sub.add_parser("plot", help="render an aggregate JSON to SVG")
    p_plot.add_argument("--agg", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot)

    p_diam = sub.add_parser("diameter", help="diameter of each MDP segment")
    p_diam.add_argument("--mdp", required=True)
    p_diam.set_defaults(func=_cmd_diameter)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

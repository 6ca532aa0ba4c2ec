"""Record the output references the benchmark checks against (references.json).

    python3 perfbench/record.py [--workload NAME ...]

Runs every input variant of the named workloads (all by default) once,
untimed, and stores per seed-run the dynamic regret, the restart rounds and
the trajectory digest.  Re-record only on purpose: the references pin what
the library computes, and a change that moves them changes its results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from nonstat.harness import validate_spec  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    refs = workloads.load_references() if os.path.exists(workloads.REFERENCES) else {}
    for name in args.workload or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        table = {}
        for variant in range(workloads.N_VARIANTS):
            spec = validate_spec(wl.make_spec(variant))
            with tempfile.TemporaryDirectory(dir=ROOT) as out_dir:
                _, runs = workloads.run_op(wl, spec, out_dir)
                workloads.replay(wl, runs, out_dir)
            bad = [run.error for run in runs if run.error is not None]
            if bad:
                print(f"{name} variant {variant}: {bad[0]}", file=sys.stderr)
                return 1
            table[str(variant)] = [workloads.fingerprint(run) for run in runs]
            print(f"{name} variant {variant}: regret {[round(r['regret'], 3) for r in table[str(variant)]]}",
                  flush=True)
        refs[name] = table
        with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

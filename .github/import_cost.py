"""Print the cold-start cost of the package: import nonstat, then validate_spec.

    python3 .github/import_cost.py

For one experiment spec per environment kind, five fresh interpreters are
started one after another; each times `import nonstat` and then
harness.validate_spec of the spec (which builds its environment, the
loader's checks included), and the median of each part and of their sum
is printed in ms.  A last line lists the modules that `import nonstat`
loads beyond those `import numpy` loads.

One warm-up interpreter first imports the package and validates every spec
with bytecode writing on, so that the timed interpreters read a fresh
__pycache__ instead of compiling a changed module: a stale cache would be
read as import cost.  It prints only, as .github/api_options.py does; a
change reports the figures beside its src/ lines.
"""

import json
import os
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = 5

# in the child: the clock starts before the package is imported
TIMED = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import nonstat
from nonstat.harness import validate_spec
imported = time.perf_counter()
import json
spec = json.loads(sys.stdin.read())
begin = time.perf_counter()
validate_spec(spec)
print(imported - start, time.perf_counter() - begin)
"""

WARM_UP = """
import json, sys
sys.path.insert(0, sys.argv[1])
from nonstat.harness import validate_spec
for spec in json.loads(sys.stdin.read()):
    validate_spec(spec)
"""

LOADED = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy
before = set(sys.modules)
import nonstat
print(" ".join(sorted(name for name in set(sys.modules) - before if name.split(".")[0] != "nonstat")))
"""


def specs() -> dict:
    """One small experiment spec per environment kind, by kind."""
    rng = np.random.default_rng(0)
    S, A, T = 8, 3, 64
    mdp_segments = []
    for length in (T // 2, T - T // 2):
        trans = rng.dirichlet(np.ones(S), size=(S, A))  # every entry positive: communicating
        mdp_segments.append({"length": length, "rewards": rng.random((S, A)).tolist(), "transitions": trans.tolist()})
    episodic = rng.dirichlet(np.ones(2), size=(2, 2, 2))
    envs = {
        "mab": {"kind": "mab", "T": T, "segments": [{"length": T, "means": [0.9, 0.1]}]},
        "linear": {"kind": "linear", "T": T, "actions": [[1.0, 0.0], [0.0, 1.0]],
                   "segments": [{"length": T, "theta": [0.3, 0.7]}]},
        "glm": {"kind": "glm", "T": T, "link": "logistic", "actions": [[1.0, 0.0], [0.0, 1.0]],
                "segments": [{"length": T, "theta": [0.3, 0.7]}]},
        "episodic": {"kind": "episodic", "T": T, "S": 2, "A": 2, "H": 2, "segments": [
            {"length": T, "rewards": rng.random((2, 2, 2)).tolist(), "transitions": episodic.tolist()}]},
        "infinite": {"kind": "infinite", "T": T, "S": S, "A": A, "segments": mdp_segments},
    }
    algorithms = {"mab": "master+ucb1", "linear": "master+oful", "glm": "master+glm", "episodic": "master+qucb",
                  "infinite": "master-ucrl"}
    return {kind: {"env": env, "algorithm": algorithms[kind], "seeds": [0]} for kind, env in envs.items()}


def child(code: str, stdin: str = "", env=None) -> str:
    """The standard output of a fresh interpreter running code, with SRC as sys.argv[1]."""
    proc = subprocess.run([sys.executable, "-c", code, SRC], input=stdin, capture_output=True, text=True, env=env)
    if proc.returncode:
        sys.exit(f"a child interpreter failed:\n{proc.stderr}")
    return proc.stdout


def main() -> int:
    table = specs()
    writing = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    child(WARM_UP, json.dumps(list(table.values())), env=writing)
    print(f"median ms over {RUNS} fresh interpreters: import nonstat + validate_spec = total")
    for kind, spec in table.items():
        text = json.dumps(spec)
        runs = [tuple(map(float, child(TIMED, text).split())) for _ in range(RUNS)]
        imported, validated = (statistics.median(part) * 1e3 for part in zip(*runs))
        total = statistics.median(a + b for a, b in runs) * 1e3
        print(f"{kind:>8} ({spec['algorithm']}): {imported:.1f} + {validated:.1f} = {total:.1f}")
    loaded = child(LOADED).split()
    print(f"modules import nonstat loads beyond numpy ({len(loaded)}): {' '.join(loaded)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

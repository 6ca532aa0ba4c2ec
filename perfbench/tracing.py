"""Outside-in tracing: timing wrappers swapped onto nonstat's layer boundaries.

``Tracer.install`` replaces module and class attributes with wrappers that
record one span per call (name, start, end, parent span) in flat arrays;
``uninstall`` puts the originals back.  Nothing in nonstat is edited: the
wrappers sit on the public functions, on the environment and learner
instances the library builds, and on the scheduler class the control loop
looks up by name.  Self time is a span's duration minus that of its
children.  The traced run alone installs the wrappers; end-to-end metrics
come from untraced runs.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import nonstat.base
import nonstat.harness
import nonstat.master
import nonstat.mdp
from nonstat.malg import MalgRunner
from nonstat.master import RunLog
from nonstat.rates import RateFunction

SPAN_NAMES = (
    "harness.run_experiment",
    "harness.run_single",
    "harness.aggregate",
    "harness.svg",
    "harness.to_csv",
    "envs.build",
    "envs.play",
    "envs.oracle",
    "master.core",
    "master.test1",
    "master.test2",
    "master.log_append",
    "malg.init",
    "malg.begin",
    "malg.finish",
    "base.new",
    "base.predict",
    "base.act",
    "base.update",
    "base.glm_solve",
    "rates.build",
    "rates.rho",
    "mdp.widen",
    "mdp.evi",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}


class Tracer:
    def __init__(self):
        self.names = array("B")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.stack = [-1]
        self.counts = {"malg.spawns": 0, "malg.completed": 0, "mdp.evi_iters": 0}
        self._saved = []

    def reset(self):
        for arr in (self.names, self.starts, self.ends, self.parents):
            del arr[:]
        del self.stack[1:]
        self.counts = dict.fromkeys(self.counts, 0)

    def wrap(self, name, fn):
        # the arrays and the stack keep their identity across reset(), so the
        # wrapper binds them once; its bookkeeping before the first clock read
        # and after the second lands in the caller's self time
        nid = _ID[name]
        clock = time.perf_counter_ns
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self.stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- installing -----------------------------------------------------------

    def _swap(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        tracer = self
        wrap = self.wrap
        h, m, b, d = nonstat.harness, nonstat.master, nonstat.base, nonstat.mdp

        def make_env(spec):
            env = wrap("envs.build", orig_make_env)(spec)
            step = "step" if env.kind == "infinite" else "play"
            setattr(env, step, wrap("envs.play", getattr(env, step)))
            env.optimal_value = wrap("envs.oracle", env.optimal_value)
            return env

        orig_make_env = h.make_env
        self._swap(h, "make_env", make_env)
        self._swap(h, "run_experiment", wrap("harness.run_experiment", h.run_experiment))
        self._swap(h, "run_single", wrap("harness.run_single", h.run_single))
        self._swap(h, "aggregate", wrap("harness.aggregate", h.aggregate))
        self._swap(h, "render_regret_svg", wrap("harness.svg", h.render_regret_svg))
        self._swap(RunLog, "to_csv", wrap("harness.to_csv", RunLog.to_csv))
        self._swap(RunLog, "append", wrap("master.log_append", RunLog.append))
        core = wrap("master.core", m.master_core)
        self._swap(m, "master_core", core)
        self._swap(d, "master_core", core)
        self._swap(m, "test1_fails", wrap("master.test1", m.test1_fails))
        self._swap(m, "test2_fails", wrap("master.test2", m.test2_fails))
        self._swap(b, "glm_solve", wrap("base.glm_solve", b.glm_solve))
        self._swap(d, "widen_to_span", wrap("mdp.widen", d.widen_to_span))
        evi = wrap("mdp.evi", d.evi)

        def counted_evi(*args, **kwargs):
            out = evi(*args, **kwargs)
            tracer.counts["mdp.evi_iters"] += out.iterations
            return out

        self._swap(d, "evi", counted_evi)
        self._swap(RateFunction, "__init__", wrap("rates.build", RateFunction.__init__))
        self._swap(RateFunction, "rho", wrap("rates.rho", RateFunction.rho))

        def traced_factory(factory):
            def build():
                learner = wrap("base.new", factory)()
                learner.predict = wrap("base.predict", learner.predict)
                learner.act = wrap("base.act", learner.act)
                learner.update = wrap("base.update", learner.update)
                return learner

            return build

        init = wrap("malg.init", MalgRunner.__init__)
        begin = wrap("malg.begin", MalgRunner.begin_round)
        finish = wrap("malg.finish", MalgRunner.finish_round)

        class TracedRunner(MalgRunner):
            def __init__(self, block_start, order_n, rate, factory, rng):
                init(self, block_start, order_n, rate, traced_factory(factory), rng)

            def begin_round(self, t):
                out = begin(self, t)
                tracer.counts["malg.spawns"] += sum(ev.startswith("spawn") for ev in self.events)
                return out

            def finish_round(self, t, reward, feedback):
                ended = finish(self, t, reward, feedback)
                tracer.counts["malg.completed"] += len(ended)
                return ended

        self._swap(m, "MalgRunner", TracedRunner)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- reading --------------------------------------------------------------

    def arrays(self):
        """(name, start_ns, end_ns, parent) numpy views of the recorded spans."""
        return (
            np.frombuffer(self.names, dtype=np.uint8),
            np.frombuffer(self.starts, dtype=np.int64),
            np.frombuffer(self.ends, dtype=np.int64),
            np.frombuffer(self.parents, dtype=np.int32),
        )

    def save(self, path):
        name, start, end, parent = self.arrays()
        np.savez(path, span_names=np.array(SPAN_NAMES), name=name, start_ns=start, end_ns=end, parent=parent)

    def summary(self, factor=1.0) -> dict:
        """Per span name: calls, total and self seconds (times factor); plus the evi calls
        made inside widen_to_span."""
        name, start, end, parent = self.arrays()
        dur = (end - start).astype(np.float64) * factor
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k) * 1e-9
        own = np.bincount(name, weights=self_time, minlength=k) * 1e-9
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        out = {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(SPAN_NAMES)
        }
        out["evi_in_widen_calls"] = int(((name == _ID["mdp.evi"]) & (parent_name == _ID["mdp.widen"])).sum())
        return out


def _persist_s(s) -> float:
    """run_experiment time outside its seed-runs: CSVs, aggregate, aggregate.json, SVG."""
    if not s["harness.run_experiment"]["calls"]:
        return 0.0
    return s["harness.run_experiment"]["total_s"] - s["harness.run_single"]["total_s"]


def layer_metrics(tracer, rounds, op_s, factor, untraced_us, bare_us, bare_failed, csv_bytes, runs) -> dict:
    """Per-layer metrics of one traced operation: name -> (value, unit, note).  Every time is
    scaled by the host factor measured around the operation, like the end-to-end round_us."""
    s = tracer.summary(factor)
    c = tracer.counts

    def calls(name):
        return s[name]["calls"]

    def per_call(name, key="total_s", scale=1e6):
        return s[name][key] / calls(name) * scale if calls(name) else 0.0

    def per_round(*names, key="total_s"):
        return sum(s[n][key] for n in names) / rounds * 1e6

    persist = _persist_s(s)
    traced_us = op_s * factor / rounds * 1e6
    return {
        "envs.play_us": (per_call("envs.play"), "us/call", "env.play / env.step"),
        "envs.oracle_us": (per_call("envs.oracle"), "us/call", "env.optimal_value"),
        "envs.build_s": (per_call("envs.build", scale=1.0), "s", "make_env, per call"),
        "base.predict_us": (per_call("base.predict", "self_s"), "us/call", "self time"),
        "base.act_us": (per_call("base.act", "self_s"), "us/call", "self time"),
        "base.update_us": (per_call("base.update", "self_s"), "us/call", "self time, glm_solve excluded"),
        "base.glm_solve_us": (per_call("base.glm_solve"), "us/call", "damped Newton + projection"),
        "base.glm_solve_calls": (calls("base.glm_solve"), "count", ""),
        "base.instances": (calls("base.new"), "count", "learners built by the factory"),
        "rates.build_ms": (per_call("rates.build", scale=1e3), "ms", "RateFunction construction, per call"),
        "rates.builds": (calls("rates.build"), "count", ""),
        "rates.rho_calls": (calls("rates.rho"), "count", ""),
        "malg.self_us": (per_round("malg.init", "malg.begin", "malg.finish", key="self_s"), "us/round",
                         "runner construction + begin_round + finish_round, learner calls excluded"),
        "malg.spawns": (c["malg.spawns"], "count", ""),
        "malg.completed_ratio": (c["malg.completed"] / c["malg.spawns"] if c["malg.spawns"] else 0.0,
                                 "ratio", "instances that reached their end / spawned"),
        "master.test_us": (per_round("master.test1", "master.test2"), "us/round", "test1_fails + test2_fails"),
        "master.test_calls": (calls("master.test1") + calls("master.test2"), "count", ""),
        "master.log_append_us": (per_round("master.log_append"), "us/round", "RunLog.append"),
        "master.self_us": (per_round("master.core", key="self_s"), "us/round",
                           "master_core minus world, runner, tests and log"),
        "master.restarts": (sum(len(run.log.restarts) for run in runs if run.log is not None), "count", ""),
        "mdp.evi_us": (per_call("mdp.evi"), "us/call", "extended value iteration"),
        "mdp.evi_calls": (calls("mdp.evi"), "count", "oracle solves included"),
        "mdp.evi_iters": (c["mdp.evi_iters"], "count", "sum of EviOutput.iterations"),
        "mdp.evi_per_solve": (s["evi_in_widen_calls"] / calls("mdp.widen") if calls("mdp.widen") else 0.0,
                              "ratio", "evi calls inside widen_to_span / widen_to_span calls"),
        "harness.persist_s": (persist, "s/op", "run_experiment outside its seed-runs"),
        "harness.csv_mb": (csv_bytes / (1 << 20), "MB/op", "CSV bytes written"),
        "harness.replay_s": (sum(run.replay_s for run in runs) * factor, "s/op", "RunLog.from_csv + dynamic_regret, untraced"),
        "bare.round_us": (bare_us, "us/round", "baseline_run, untraced, seeds that completed"),
        "bare.failed": (bare_failed, "count", "baseline_run seed-runs that raised"),
        "master.overhead_ratio": (untraced_us / bare_us if bare_us else 0.0, "ratio", "untraced master / bare"),
        "trace.round_us": (traced_us, "us/round", "traced operation"),
        "trace.overhead_us": (traced_us - untraced_us, "us/round", "traced minus untraced"),
    }


def split_lines(tracer, op_s) -> list[str]:
    """Where the traced operation's time went, as shares of its wall time."""
    s = tracer.summary()

    def total(*names):
        return sum(s[n]["total_s"] for n in names)

    parts = {
        "learner (predict/act/update/new, incl. glm_solve and EVI)": total(
            "base.new", "base.predict", "base.act", "base.update"),
        "envs (play/step + optimal_value)": total("envs.play", "envs.oracle"),
        "malg self": sum(s[n]["self_s"] for n in ("malg.init", "malg.begin", "malg.finish")),
        "tests (incl. rho)": total("master.test1", "master.test2"),
        "log append": total("master.log_append"),
        "master self": s["master.core"]["self_s"],
        "persistence": _persist_s(s),
    }
    parts["other (env and rate builds, run_single glue)"] = op_s - sum(parts.values())
    return [f"split {share / op_s:6.1%}  {name}" for name, share in parts.items()]

"""Span tracing installed from outside the datex package.

Every traced function is replaced, in every ``datex`` module that binds it,
by a wrapper that records one span: name, start, end, parent span and op id.
Spans stay in flat arrays in memory (28 bytes each) and are aggregated and
written when the run ends.  Self time is a span's duration minus the time its
child spans cover; spans nest strictly because the benchmark is one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("instances", "io", "model", "sharing", "oracles", "mwu", "exact",
          "stability", "experiment")

# sharing-rule functions: a call to one of these under `shares` is a memo miss
RULES = ("sharing.shapley_exact", "sharing.shapley_sampled", "sharing.proportional",
         "sharing._x3c_shapley")


def _count(key, value):
    """A hook adding value(out, args, kwargs) to counter key."""
    def hook(tracer, out, args, kwargs):
        tracer.counters[key] = tracer.counters.get(key, 0.0) + value(out, args, kwargs)
    return hook


def _bucketing(tracer, out, args, kwargs):
    c = tracer.counters
    c["bucketing_guesses"] = c.get("bucketing_guesses", 0.0) + out.guesses
    c["bucketing_empty"] = c.get("bucketing_empty", 0.0) + (not out.chosen)


def _run_mwu(tracer, out, args, kwargs):
    c = tracer.counters
    c["feasible_probes"] = c.get("feasible_probes", 0.0) + out.feasible
    c["certified_probes"] = c.get("certified_probes", 0.0) + out.certified
    c["iterations"] = c.get("iterations", 0.0) + out.iterations
    slack = out.regret_rhs_min - out.regret_lhs
    c["regret_slack_min"] = min(c.get("regret_slack_min", slack), slack)


# (module, function, hook on the result); hooks run only while tracing is on
TARGETS = (
    ("instances", "grid_graph", None),
    ("instances", "gen_road", None),
    ("instances", "gen_random", None),
    ("io", "load_instance", None),
    ("io", "dump_instance", None),
    ("model", "utility", None),
    ("model", "evaluate", None),
    ("model", "normalize_instance", None),
    ("sharing", "shares", None),
    ("sharing", "shapley_exact", None),
    ("sharing", "shapley_sampled", None),
    ("sharing", "proportional", None),
    ("sharing", "_x3c_shapley", None),
    ("oracles", "get_oracle", None),
    ("oracles", "oracle_bucketing", _bucketing),
    ("oracles", "oracle_knapsack", _count("knapsack_guesses", lambda out, a, k: out.guesses)),
    ("oracles", "oracle_bruteforce", None),
    ("oracles", "oracle_continuous", None),
    ("mwu", "solve_welfare", None),
    ("mwu", "run_mwu", _run_mwu),
    ("mwu", "assemble_prices", None),
    ("mwu", "sparsify", None),
    ("exact", "exact_welfare_lp", None),
    ("exact", "exact_core_audit", None),
    ("exact", "_coalition_best_margin", None),
    ("stability", "greedy_matching", None),
    ("stability", "greedy_cycle_canceling", None),
    ("stability", "check_2_stability", None),
    ("stability", "mix_solutions", None),
    ("stability", "strategyproofness_fuzz",
     _count("fuzz_trials", lambda out, a, k: k["trials"] if "trials" in k else a[2])),
    ("experiment", "road_mwu_config", None),
    ("experiment", "matching_benchmark", None),
)


class Tracer:
    """Records spans while ``active``; ``op`` tags them (-1 marks set-up)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.meta = array("i")   # per span: name index, parent span, op id
        self.times = array("q")  # per span: start ns, end ns
        self.counters: dict[str, float] = {}
        self.active = False
        self.op = -1
        self._current = -1

    def wrap(self, name: str, fn, hook=None):
        idx = len(self.names)
        self.names.append(name)
        meta, times, clock = self.meta, self.times, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._current
            span = len(meta) // 3
            meta.extend((idx, parent, self.op))
            times.extend((clock(), 0))
            self._current = span
            try:
                out = fn(*args, **kwargs)
            finally:
                times[2 * span + 1] = clock()
                self._current = parent
            if hook is not None:
                hook(self, out, args, kwargs)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded datex module that binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "datex" or name.startswith("datex."))]
        for mod_name, fn_name, hook in TARGETS:
            fn = getattr(sys.modules[f"datex.{mod_name}"], fn_name)
            traced = self.wrap(f"{mod_name}.{fn_name}", fn, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        # copies, so the arrays export no buffer and can still grow
        meta = np.frombuffer(self.meta, dtype=np.int32).reshape(-1, 3).copy()
        times = np.frombuffer(self.times, dtype=np.int64).reshape(-1, 2).copy()
        return meta, times

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(name index, parent, op, duration ns) per span."""
        meta, times = self._columns()
        return meta[:, 0], meta[:, 1], meta[:, 2], times[:, 1] - times[:, 0]

    def write(self, path: Path) -> None:
        meta, times = self._columns()
        np.savez(path, names=np.array(self.names), name=meta[:, 0], parent=meta[:, 1],
                 op=meta[:, 2], start_ns=times[:, 0], end_ns=times[:, 1])


def summarize(tracer: Tracer, op_wall: dict[int, float], setup_passes: int) -> dict:
    """Per-name and per-layer totals over the traced ops, plus set-up totals.

    op_wall maps each traced op id to its wall time in seconds.  Returns
    {"ops": n, "by_name": {name: (calls, incl_s, self_s)} over ops,
    "layer_self_s": {layer: s} over ops, "setup_by_name": {...} per set-up
    pass, "coverage": mean share of op wall covered by top-level spans,
    "rule_calls": memo misses}.
    """
    name, parent, op, dur = tracer.arrays()
    n = len(dur)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - child
    names = tracer.names
    in_op = op >= 0

    def totals(mask, scale):
        out = {}
        calls = np.bincount(name[mask], minlength=len(names))
        incl = np.bincount(name[mask], weights=dur[mask], minlength=len(names))
        own = np.bincount(name[mask], weights=self_ns[mask], minlength=len(names))
        for k, nm in enumerate(names):
            if calls[k]:
                out[nm] = (float(calls[k]) / scale, float(incl[k]) * 1e-9 / scale,
                          float(own[k]) * 1e-9 / scale)
        return out

    ops = max(len(op_wall), 1)
    by_name = totals(in_op, ops)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for nm, (_, _, own) in by_name.items():
        layer_self[nm.split(".", 1)[0]] += own

    rule_idx = [k for k, nm in enumerate(names) if nm in RULES]
    shares_idx = names.index("sharing.shares")
    under_shares = has_parent & np.isin(name, rule_idx)
    under_shares[under_shares] = name[parent[under_shares]] == shares_idx
    rule_calls = int(np.count_nonzero(under_shares & in_op))

    top = in_op & ~has_parent
    covered = np.bincount(op[top], weights=dur[top], minlength=max(op_wall, default=0) + 1)
    coverage = [covered[k] * 1e-9 / wall for k, wall in op_wall.items() if wall > 0]
    return {
        "ops": len(op_wall),
        "by_name": by_name,
        "layer_self_s": layer_self,
        "setup_by_name": totals(op == -1, max(setup_passes, 1)),
        "coverage": float(np.mean(coverage)) if coverage else 0.0,
        "rule_calls": rule_calls / ops,
    }

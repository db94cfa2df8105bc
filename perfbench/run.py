"""Run datex benchmark workloads, check every op, and print the metrics.

    python3 perfbench/run.py --workload road --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout: datex is imported from ``src/``.
``--workload all`` runs road, knapsack and audit one after another in this
process.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run instead.  Inputs, per-run result files and the span
file go to ``.perfbench/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_PASSES = 3        # set-up runs this often; setup_s takes the median
UNTRACED_SHARE = 0.4    # share of a traced run spent on the untraced reference ops
P90_MIN_OPS = 100       # p90 needs at least ten samples beyond it


def git_commit() -> str:
    """The checked-out commit, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import networkx
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "commit": git_commit(),
    }


def run_ops(workload, inputs, deadline: float, tracer=None,
            kernel: list[float] | None = None) -> list[dict]:
    """Run ops on the given input indices until the next would pass the deadline.

    At least one op runs.  An op that raises or fails its check is recorded
    with its message and the run goes on.  When a kernel list is given, the
    calibration kernel is timed between ops every calibrate.EVERY_S seconds.
    """
    import calibrate

    records: list[dict] = []
    walls: list[float] = []
    next_kernel = time.perf_counter()
    for op_id, k in enumerate(inputs):
        # one kernel sample per EVERY_S of wall time, so long ops get several
        while kernel is not None and time.perf_counter() >= next_kernel:
            kernel.append(calibrate.kernel_s())
            next_kernel += calibrate.EVERY_S
        if walls and time.perf_counter() + statistics.median(walls) > deadline:
            break
        start = time.perf_counter()
        rec: dict = {"op": op_id, "input": k}
        try:
            state = workload.prepare(k)
            if tracer is not None:
                tracer.op, tracer.active = op_id, True
            t0 = time.perf_counter()
            try:
                result = workload.run(state)
            finally:
                rec["s"] = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            outcome = workload.check(state, result)
        except Exception as exc:  # a failed op is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            rec.update(welfare=outcome.welfare, ratio=outcome.ratio, values=outcome.values)
            if outcome.error is not None:
                rec["error"] = outcome.error
        walls.append(time.perf_counter() - start)
        records.append(rec)
        status = "ok" if "error" not in rec else f"FAILED {rec['error']}"
        print(f"op {op_id} input {k} {rec.get('s', 0.0):.6f}s "
              f"welfare {rec.get('welfare', float('nan'))!r} {status}")
    return records


def distinct_ok(records: list[dict]) -> dict[int, dict]:
    """First passing record per input, so inputs solved twice weigh once."""
    out: dict[int, dict] = {}
    for rec in records:
        if "error" not in rec:
            out.setdefault(rec["input"], rec)
    return out


def welfare_digest(by_input: dict[int, dict], limit: int) -> tuple[str, int]:
    """sha256 over the welfare values of inputs 0, 1, ... up to the first gap or limit."""
    h = hashlib.sha256()
    count = 0
    while count < limit and count in by_input:
        h.update(f"{count}:{by_input[count]['values']!r};".encode())
        count += 1
    return h.hexdigest()[:16], count


def end_to_end(workload, records: list[dict], setup_s: float,
               kernel: list[float]) -> tuple[dict, dict]:
    """(gated metrics, extra detail metrics), each {name: (value, unit)}."""
    import calibrate

    times = [r["s"] for r in records if "error" not in r]
    by_input = distinct_ok(records)
    ratios = [r["ratio"] for r in by_input.values()]
    welfares = [r["welfare"] for r in by_input.values()]
    mean = lambda xs: statistics.fmean(xs) if xs else 0.0
    ops_per_s = len(times) / sum(times) if times else 0.0
    op_s_p50 = statistics.median(times) if times else 0.0
    # machine speed relative to the reference: > 1 when this run ran slow
    slowdown = statistics.fmean(kernel) / calibrate.REF_S if kernel else 1.0
    gated = {
        "setup_s": (setup_s, "s"),
        "ops_per_s_cal": (ops_per_s * slowdown, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "welfare_ratio": (mean(ratios), "ratio"),
    }
    digest, digest_n = welfare_digest(by_input, workload.digest_inputs)
    extra = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_s_p50": (op_s_p50, "s"),
        "op_s_p50_cal": (op_s_p50 / slowdown, "s"),
        "slowdown": (slowdown, "ratio"),
        "ops": (len(times), "count"),
        "distinct_inputs": (len(by_input), "count"),
        "welfare_mean": (mean(welfares), "welfare"),
    }
    if len(times) >= P90_MIN_OPS:
        extra["op_s_p90"] = (statistics.quantiles(times, n=10)[-1], "s")
    if ratios:
        for name, value in workload.ratio_metrics(ratios).items():
            extra[name] = (value, "ratio")
    extra["welfare_digest"] = (digest, f"first{digest_n}")
    return gated, extra


def per_layer(tracer, summary: dict, untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of the traced ops, {name: (value, unit)}; per op unless noted."""
    from tracing import LAYERS, RULES

    ops = max(summary["ops"], 1)
    by_name = summary["by_name"]
    calls = lambda name: by_name.get(name, (0.0, 0.0, 0.0))[0]
    secs = lambda *names: sum(by_name.get(name, (0.0, 0.0, 0.0))[1] for name in names)
    count = lambda key: tracer.counters.get(key, 0.0) / ops
    share = lambda part, whole: part / whole if whole else 0.0
    c = tracer.counters
    setup_gen = sum(v[1] for k, v in summary["setup_by_name"].items()
                    if k.startswith("instances."))

    # a record has no "s" when its op failed before the timed region
    paired = min(len(untraced), len(traced))
    base = sum(r.get("s", 0.0) for r in untraced[:paired])
    with_trace = sum(r.get("s", 0.0) for r in traced[:paired])
    out = {
        "model.utility_calls": (calls("model.utility"), "count/op"),
        "model.utility_s": (secs("model.utility"), "s/op"),
        "model.evaluate_calls": (calls("model.evaluate"), "count/op"),
        "model.evaluate_s": (secs("model.evaluate"), "s/op"),
        "sharing.shares_calls": (calls("sharing.shares"), "count/op"),
        "sharing.rule_calls": (summary["rule_calls"], "count/op"),
        "sharing.hit_ratio": (share(calls("sharing.shares") - summary["rule_calls"],
                                    calls("sharing.shares")), "ratio"),
        "sharing.rule_s": (secs(*RULES), "s/op"),
        "oracles.bucketing_calls": (calls("oracles.oracle_bucketing"), "count/op"),
        "oracles.bucketing_s": (secs("oracles.oracle_bucketing"), "s/op"),
        "oracles.bucketing_guesses": (count("bucketing_guesses"), "count/op"),
        "oracles.bucketing_empty_ratio": (
            share(count("bucketing_empty"), calls("oracles.oracle_bucketing")), "ratio"),
        "oracles.knapsack_calls": (calls("oracles.oracle_knapsack"), "count/op"),
        "oracles.knapsack_s": (secs("oracles.oracle_knapsack"), "s/op"),
        "oracles.knapsack_guesses": (count("knapsack_guesses"), "count/op"),
        "mwu.probes": (calls("mwu.run_mwu"), "count/op"),
        "mwu.feasible_probes": (count("feasible_probes"), "count/op"),
        "mwu.iterations": (count("iterations"), "count/op"),
        "mwu.certified_ratio": (share(c.get("certified_probes", 0.0),
                                      c.get("feasible_probes", 0.0)), "ratio"),
        "mwu.regret_slack_min": (c.get("regret_slack_min", 0.0), "slack"),
        "mwu.assemble_prices_s": (secs("mwu.assemble_prices"), "s/op"),
        "mwu.sparsify_calls": (calls("mwu.sparsify"), "count/op"),
        "mwu.sparsify_s": (secs("mwu.sparsify"), "s/op"),
        "exact.welfare_lp_calls": (calls("exact.exact_welfare_lp"), "count/op"),
        "exact.welfare_lp_s": (secs("exact.exact_welfare_lp"), "s/op"),
        "exact.core_audit_s": (secs("exact.exact_core_audit"), "s/op"),
        "exact.coalition_lps": (calls("exact._coalition_best_margin"), "count/op"),
        "exact.coalition_lp_s": (secs("exact._coalition_best_margin"), "s/op"),
        "stability.matching_s": (secs("stability.greedy_matching"), "s/op"),
        "stability.cycle_cancel_s": (secs("stability.greedy_cycle_canceling"), "s/op"),
        "stability.check_2_s": (secs("stability.check_2_stability"), "s/op"),
        "stability.fuzz_s": (secs("stability.strategyproofness_fuzz"), "s/op"),
        "stability.fuzz_trials": (count("fuzz_trials"), "count/op"),
        "io.load_s": (secs("io.load_instance"), "s/op"),
        "instances.gen_s": (setup_gen, "s/setup"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (summary["layer_self_s"][layer], "s/op")
    out.update({
        "trace.ops": (float(summary["ops"]), "count"),
        "trace.op_s": (share(sum(r.get("s", 0.0) for r in traced), len(traced)), "s/op"),
        "trace.overhead_s": (share(with_trace - base, paired), "s/op"),
        "trace.overhead_ratio": (share(with_trace, base) - 1.0 if base else 0.0, "ratio"),
        "trace.coverage": (summary["coverage"], "ratio"),
    })
    return out


def print_layer_table(summary: dict, op_s: float) -> None:
    print(f"spans per op (traced op wall {op_s:.6f}s):")
    print(f"  {'span':34} {'calls/op':>12} {'incl_s/op':>11} {'incl%':>6} "
          f"{'self_s/op':>11} {'self%':>6}")
    rows = sorted(summary["by_name"].items(), key=lambda kv: -kv[1][1])
    for name, (calls, incl, own) in rows:
        print(f"  {name:34} {calls:12.1f} {incl:11.6f} {100 * incl / op_s:6.1f} "
              f"{own:11.6f} {100 * own / op_s:6.1f}")


def run_workload(cls, seed: int, seconds: float, trace: bool, import_s: float,
                 facts: dict) -> dict:
    from tracing import Tracer, summarize

    workload = cls(seed, OUT / f"inputs-{cls.name}")
    workload.out_dir.mkdir(parents=True, exist_ok=True)
    print(f"# perfbench {cls.name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print(f"# machine {json.dumps(facts, sort_keys=True)}")

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True  # set-up spans carry op id -1
    gen_s = []
    for _ in range(SETUP_PASSES):
        t0 = time.perf_counter()
        workload.make_inputs()
        gen_s.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.active = False
    setup_s = import_s + statistics.median(gen_s)

    start = time.perf_counter()
    cycle = (i % workload.pool_size for i in itertools.count())
    if not trace:
        kernel: list[float] = []
        records = run_ops(workload, cycle, start + seconds, kernel=kernel)
        metrics, extra = end_to_end(workload, records, setup_s, kernel)
        report = {"records": records, "kernel_s": kernel}
    else:
        # untraced reference ops, then the same inputs traced: the paired
        # difference is the tracing overhead
        untraced = run_ops(workload, cycle, start + UNTRACED_SHARE * seconds)
        traced = run_ops(workload, [r["input"] for r in untraced], start + seconds, tracer)
        records = untraced + traced
        summary = summarize(tracer, {r["op"]: r["s"] for r in traced if "s" in r},
                            SETUP_PASSES)
        metrics = per_layer(tracer, summary, untraced, traced)
        extra = {}
        print_layer_table(summary, metrics["trace.op_s"][0] or 1.0)
        tracer.write(OUT / f"spans-{cls.name}.npz")
        report = {"untraced": untraced, "traced": traced, "summary": {
            k: v for k, v in summary.items() if k != "setup_by_name"}}

    failed = [r for r in records if "error" in r]
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {cls.name} {name} {value} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(workload=cls.name, seed=seed, seconds=seconds, trace=int(trace),
                  machine=facts, setup_gen_s=gen_s, import_s=import_s,
                  extra={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                  result=result)
    with open(OUT / f"result-{cls.name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "road", "knapsack", "audit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import datex from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    import datex

    if not Path(datex.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: datex was imported from {datex.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    facts = machine_facts()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                            import_s, facts) for name in names]
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

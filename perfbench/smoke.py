"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload for one second, untraced and traced, and checks that the
last line names every metric BENCHMARK.json lists, with its unit, and that
the detail lines name the workload-specific metrics.  Then feeds the
knapsack checker a deliberately wrong welfare and an op that raises, and
checks that both count as failed ops without stopping the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import Knapsack  # noqa: E402

COMMON = ("ops_per_s", "op_s_p50", "op_s_p50_cal", "slowdown", "ops", "welfare_mean",
          "welfare_digest")
DETAIL = {
    "road": COMMON + ("mwu_over_matching",),
    "knapsack": COMMON + ("lp_ratio_p50",),
    "audit": COMMON,
}


def check_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for workload in spec["workloads"]:
            name = workload["name"]
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, trace, set(got) ^ set(expected))
            for value in result["metrics"].values():
                assert isinstance(value["value"], float), (name, value)
            printed = {line.split()[2]: line.split()[-1] for line in lines
                       if line.startswith(f"metric {name} ")}
            for metric, unit in expected.items():
                assert printed.get(metric) == unit, (name, metric, printed.get(metric))
            if trace == 0:
                for metric in DETAIL[name]:
                    assert metric in printed, (name, metric)
            print(f"smoke: {name} trace {trace}: {len(got)} metrics ok")


class WrongWelfare(Knapsack):
    """Reports twice the welfare the solver found: above the exact-LP optimum."""

    def run(self, inst):
        solution, report = super().run(inst)
        report.welfare = 2.0 * report.welfare + 1.0
        return solution, report


class Raises(Knapsack):
    def run(self, inst):
        raise RuntimeError("deliberate failure")


def check_failures_count() -> None:
    for cls in (WrongWelfare, Raises):
        workload = cls(7, run.OUT / "inputs-smoke")
        workload.out_dir.mkdir(parents=True, exist_ok=True)
        workload.make_inputs()
        records = run.run_ops(workload, [0, 1, 2], time.perf_counter() + 60.0)
        assert len(records) == 3, records
        assert all("error" in r for r in records), records
        metrics, _ = run.end_to_end(workload, records, setup_s=1.0, kernel=[])
        assert metrics["ops_per_s_cal"][0] == 0.0, metrics
        print(f"smoke: {cls.__name__}: 3 of 3 ops failed and the run went on")


if __name__ == "__main__":
    check_failures_count()
    check_printed_metrics()
    print("smoke: ok")

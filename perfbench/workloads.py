"""The benchmark's workloads: inputs made from the seed, one timed op, its check.

Each workload writes a pool of instance JSON files during set-up.  An op
always works on a freshly loaded ``Instance``: ``sharing.shares`` memoizes
per instance, so reusing one would time warm caches no CLI user sees.  The
workloads reach datex only through module attributes looked up at call time,
so the tracer's wrappers apply to them too.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from datex import exact, experiment, instances, io, model, mwu, oracles, stability

EPS = 0.1  # epsilon of the knapsack and audit corpora, as in acceptance test 02


@dataclass
class Outcome:
    """What the check makes of one op's output.

    welfare is the op's headline welfare (normalized units); ratio is that
    welfare over the workload's reference; values feed the welfare digest.
    error is None when every check passed.
    """

    welfare: float
    ratio: float
    values: tuple[float, ...]
    error: str | None = None


def _seed_of(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _stratified(rng: np.random.Generator, levels: list, count: int) -> list:
    """count draws, uniform over levels, each block of len(levels) a seeded permutation.

    Op cost grows steeply with the agent count; whole blocks keep a run's mix
    of sizes the same on every seed, so seeds differ only in the instances.
    """
    out: list = []
    while len(out) < count:
        out.extend(levels[i] for i in rng.permutation(len(levels)))
    return out[:count]


class Workload:
    name = ""
    pool_size = 0
    digest_inputs = 0  # the welfare digest covers this many leading inputs

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def path(self, k: int) -> Path:
        return self.out_dir / f"{self.name}-{k:04d}.json"

    def make_inputs(self) -> None:
        for k, inst in enumerate(self.generate()):
            io.dump_instance(inst, str(self.path(k)))

    def generate(self):
        raise NotImplementedError

    def prepare(self, k: int):
        """Untimed: what the op starts from."""
        inst, _scale = model.normalize_instance(io.load_instance(str(self.path(k))))
        return inst

    def run(self, state):
        """Timed: the op itself."""
        raise NotImplementedError

    def check(self, state, result) -> Outcome:
        """Untimed: the reference and the correctness checks."""
        raise NotImplementedError

    def ratio_metrics(self, ratios: list[float]) -> dict[str, float]:
        """Workload-specific summaries of the per-input welfare ratios."""
        return {}


class Road(Workload):
    """`datex solve road.json --oracle bucketing` through the API, 12x12 grid, 20 agents."""

    name = "road"
    pool_size = 36
    digest_inputs = 12
    MODES = ("random", "local")
    RHOS = (0.0, 0.25, 0.5)

    def generate(self):
        # one fixed grid, as in acceptance test 01; replicate seeds drawn from
        # the workload seed the way run_experiment draws them
        edges = instances.grid_graph(12, 12, seed=0)
        cells = [(mode_id, mode, rho) for mode_id, mode in enumerate(self.MODES)
                 for rho in self.RHOS]
        for k in range(self.pool_size):
            mode_id, mode, rho = cells[k % len(cells)]
            rep_seed = _seed_of(self.seed, mode_id, int(rho * 1000), k // len(cells))
            yield instances.gen_road(instances.RoadSpec(
                edges=edges, radius=8, n_agents=20,
                correlation=mode if rho > 0 else "none", rho=rho, seed=rep_seed,
            ))

    def prepare(self, k: int):
        return self.path(k)

    def run(self, path):
        inst, _scale = model.normalize_instance(io.load_instance(str(path)))
        config = experiment.road_mwu_config(inst.n)
        solution, report = mwu.solve_welfare(inst, config, oracles.get_oracle("bucketing"))
        return inst, solution, report

    def check(self, path, result) -> Outcome:
        inst, solution, report = result
        _, match_w = experiment.matching_benchmark(inst)
        ratio = report.welfare / match_w if match_w > 0 else 1.0
        out = Outcome(report.welfare, ratio, (report.welfare,))
        resid = float(np.max(np.abs(report.balance_residual)))
        if not report.feasible:
            out.error = "report not feasible"
        elif resid > inst.epsilon + 1e-9:
            out.error = f"|residual| {resid!r} > eps {inst.epsilon}"
        elif solution.column_count() > 2 * inst.n + 1:
            out.error = f"{solution.column_count()} active columns > 2n+1"
        return out

    def ratio_metrics(self, ratios: list[float]) -> dict[str, float]:
        return {"mwu_over_matching": statistics.fmean(ratios)}


class Knapsack(Workload):
    """One `solve_welfare` with the knapsack oracle on the acceptance-02 corpus."""

    name = "knapsack"
    pool_size = 256
    digest_inputs = 64
    DELTA = 1.0 / 3.0
    ITERS = 400

    def generate(self):
        # n uniform on [2, 5] as acceptance test 02 draws it, stratified
        sizes = _stratified(np.random.default_rng(self.seed), [2, 3, 4, 5], self.pool_size)
        for k, n in enumerate(sizes):
            yield instances.gen_random(n, 3, "symmetric", seed=_seed_of(self.seed, k),
                                       epsilon=EPS)

    def run(self, inst):
        config = mwu.MwuConfig(delta=self.DELTA, max_iters=self.ITERS,
                               eta_override=mwu.practical_eta(inst.n, self.ITERS))
        return mwu.solve_welfare(inst, config, oracles.get_oracle("knapsack", eps=EPS))

    def check(self, inst, result) -> Outcome:
        _, report = result
        _, lp_w = exact.exact_welfare_lp(inst, relax_eps=EPS)
        welfare = report.welfare
        out = Outcome(welfare, welfare / lp_w if lp_w > 1e-12 else 1.0, (welfare, lp_w))
        bound = 2.0 * (1.0 + EPS) ** 2 * (1.0 + 3.0 * self.DELTA)
        resid = float(np.max(np.abs(report.balance_residual)))
        if welfare < lp_w / bound - 1e-6:
            out.error = f"welfare {welfare!r} below lp {lp_w!r} / {bound:.4g}"
        elif welfare > lp_w + 1e-6:
            out.error = f"welfare {welfare!r} above lp {lp_w!r}"
        elif resid > EPS + 1e-9:
            out.error = f"|residual| {resid!r} > eps {EPS}"
        return out

    def ratio_metrics(self, ratios: list[float]) -> dict[str, float]:
        return {"lp_ratio_p50": statistics.median(ratios)}


class Audit(Workload):
    """The stability and core-audit pipeline; no MWU or oracle code runs."""

    name = "audit"
    pool_size = 256
    digest_inputs = 64
    FUZZ_TRIALS = 10  # per algorithm, as in acceptance test 09

    def generate(self):
        # road instances cannot be fuzzed: apply_misreport has no path_variance model
        levels = [(n, kind) for n in range(4, 8) for kind in ("symmetric", "table")]
        cells = _stratified(np.random.default_rng(self.seed), levels, self.pool_size)
        for k, (n, kind) in enumerate(cells):
            yield instances.gen_random(n, 3, kind, seed=_seed_of(self.seed, k), epsilon=EPS)

    def run(self, inst):
        lp_sol, lp_w = exact.exact_welfare_lp(inst, relax_eps=inst.epsilon)
        matching = stability.greedy_matching(inst)
        cycle_sol, _cycles = stability.greedy_cycle_canceling(inst)
        blocking_pairs = stability.check_2_stability(inst, matching)
        core_matching = exact.exact_core_audit(inst, matching, max_coalition=3)
        mixed = stability.mix_solutions(lp_sol, matching, 0.5)
        core_mixed = exact.exact_core_audit(inst, mixed, max_coalition=3)
        fuzz = [stability.strategyproofness_fuzz(inst, algorithm, self.FUZZ_TRIALS, inst.seed)
                for algorithm in ("greedy_match", "cycle_cancel")]
        return (lp_sol, lp_w, matching, cycle_sol, mixed, blocking_pairs,
                core_matching, core_mixed, fuzz)

    def check(self, inst, result) -> Outcome:
        lp_sol, lp_w, matching, cycle_sol, mixed, blocking_pairs, _, _, fuzz = result
        w_lp = model.evaluate(inst, lp_sol).welfare
        w_match = model.evaluate(inst, matching).welfare
        w_cycle = model.evaluate(inst, cycle_sol).welfare
        w_mixed = model.evaluate(inst, mixed).welfare
        out = Outcome(lp_w, w_match / lp_w if lp_w > 1e-12 else 1.0,
                      (lp_w, w_match, w_cycle, w_mixed))
        violations = sum(len(v) for v in fuzz)
        if blocking_pairs:
            out.error = f"greedy matching has blocking pairs {blocking_pairs}"
        elif violations:
            out.error = f"{violations} strategyproofness violations"
        elif not math.isclose(w_mixed, 0.5 * w_lp + 0.5 * w_match, rel_tol=0.0, abs_tol=1e-9):
            out.error = f"mixed welfare {w_mixed!r} not linear in beta"
        return out


WORKLOADS = {w.name: w for w in (Road, Knapsack, Audit)}

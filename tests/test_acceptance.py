"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from datex import (
    MwuConfig,
    cross_monotonicity_audit,
    evaluate,
    exact_core_audit,
    exact_welfare_lp,
    get_oracle,
    greedy_matching,
    check_2_stability,
    mix_solutions,
    normalize_instance,
    shapley_exact,
    shapley_sampled,
    shares,
    solve_welfare,
    strategyproofness_fuzz,
    utility,
)
from datex.oracles import oracle_bruteforce, oracle_bucketing, oracle_knapsack
from datex.instances import (
    RoadSpec,
    core_gap_long_cycle,
    core_gap_pair,
    gen_core_gap,
    gen_random,
    gen_road,
    gen_x3c,
    grid_graph,
    make_x3c_no,
    make_x3c_yes,
)
from datex.experiment import road_mwu_config, run_experiment
from datex.mwu import practical_eta, run_mwu


def _report(num: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS | {name} | {detail}")


def test_01_balance_feasibility_on_road_instances():
    edges = grid_graph(12, 12, seed=0)
    t0 = time.time()
    worst = 0.0
    for rep in range(20):
        spec = RoadSpec(edges=edges, radius=8, n_agents=20, seed=1000 + rep)
        raw = gen_road(spec)
        inst, _scale = normalize_instance(raw)
        _, report = solve_welfare(inst, road_mwu_config(20), get_oracle("bucketing"))
        resid = float(np.max(np.abs(report.balance_residual)))
        worst = max(worst, resid)
        assert resid <= 0.01 + 1e-9, f"replicate {rep}: residual {resid}"
    elapsed = time.time() - t0
    assert elapsed <= 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"
    _report(1, "road balance feasibility",
            f"20 instances, worst |residual| {worst:.6f} <= 0.01, {elapsed:.1f}s")


def test_02_welfare_guarantee_vs_exact_lp():
    eps, delta = 0.1, 1.0 / 3.0
    bound_factor = 2.0 * (1.0 + eps) ** 2 * (1.0 + 3.0 * delta)
    ratios = []
    rng = np.random.default_rng(2)
    for trial in range(50):
        n = int(rng.integers(2, 6))
        raw = gen_random(n, 3, "symmetric", seed=2000 + trial, epsilon=eps)
        inst, _ = normalize_instance(raw)
        _, lp_w = exact_welfare_lp(inst, relax_eps=eps)
        cfg = MwuConfig(delta=delta, max_iters=400, eta_override=practical_eta(n, 400))
        _, rep = solve_welfare(inst, cfg, get_oracle("knapsack", eps=eps))
        assert rep.welfare >= lp_w / bound_factor - 1e-6, (trial, rep.welfare, lp_w)
        assert rep.welfare <= lp_w + 1e-6, (trial, rep.welfare, lp_w)
        assert float(np.max(np.abs(rep.balance_residual))) <= eps + 1e-9
        ratios.append(rep.welfare / lp_w if lp_w > 1e-12 else 1.0)
    median = float(np.median(ratios))
    assert median >= 0.8, f"median ratio {median}"
    _report(2, "MWU vs exact LP", f"50 instances, hard bound 1/{bound_factor:.3g} ok, "
            f"median ratio {median:.3f}")


def test_03_bucketing_oracle_ratio():
    eps = 0.1
    rng = np.random.default_rng(3)
    checked = 0
    worst = float("inf")
    while checked < 200:
        n = int(rng.integers(2, 11))
        inst = gen_random(n, min(n - 1, 7), "table", seed=3000 + checked)
        i = int(rng.integers(0, n))
        senders = inst.senders_of[i]
        if not senders:
            continue
        prices = np.zeros(inst.n)
        for j in senders:
            prices[j] = rng.normal()
        res = oracle_bucketing(inst, i, prices, eps=eps)
        brute = oracle_bruteforce(inst, i, prices)
        alpha_hat = 3.0 * math.e * (1.0 + 3.0 * eps) * math.log(max(n, 2))
        assert res.value >= brute.value / alpha_hat - 1e-9, (checked, res.value, brute.value)
        if brute.value > 1e-9:
            worst = min(worst, res.value / brute.value)
        checked += 1
    _report(3, "bucketing oracle ratio", f"200 draws, zero violations, worst plain ratio {worst:.3f}")


def test_04_knapsack_oracle_ratio():
    eps = 0.1
    rng = np.random.default_rng(4)
    checked = 0
    worst = float("inf")
    while checked < 200:
        n = int(rng.integers(3, 16))
        inst = gen_random(n, min(n - 1, 10), "symmetric", seed=4000 + checked)
        i = int(rng.integers(0, n))
        senders = inst.senders_of[i]
        if not senders:
            continue
        prices = np.zeros(inst.n)
        for j in senders:
            prices[j] = rng.normal()
        res = oracle_knapsack(inst, i, prices, eps=eps)
        brute = oracle_bruteforce(inst, i, prices)
        assert res.value >= brute.value / (1.0 + eps) ** 2 - 1e-9, (checked, res.value, brute.value)
        if brute.value > 1e-9:
            worst = min(worst, res.value / brute.value)
        checked += 1
    _report(4, "knapsack oracle ratio", f"200 draws, zero violations, worst plain ratio {worst:.3f}")


def test_05_sharing_rule_correctness():
    rng = np.random.default_rng(5)
    # efficiency on 1000 queries across the three rules
    from datex import Instance, SharingRuleSpec

    queries = 0
    while queries < 1000:
        rule = ("shapley_exact", "shapley_sampled", "proportional")[queries % 3]
        kind = "symmetric" if rule == "proportional" else "table"
        base = gen_random(5, 4, kind, seed=5000 + queries // 10)
        inst = Instance(
            n=base.n, allowed=base.allowed, utility=base.utility,
            sharing=SharingRuleSpec(
                kind=rule, m=10, seed=queries,
                weights="size" if rule == "proportional" else None,
            ),
            epsilon=base.epsilon,
        )
        i = int(rng.integers(0, inst.n))
        senders = inst.senders_of[i]
        if not senders:
            continue
        size = int(rng.integers(1, len(senders) + 1))
        S = frozenset(int(x) for x in rng.choice(senders, size=size, replace=False))
        h = shares(inst, i, S)
        assert abs(sum(h.values()) - utility(inst, i, S)) <= 1e-9
        queries += 1

    # cross-monotonicity of exact Shapley on 50 submodular tables
    for seed in range(50):
        inst = gen_random(5, 4, "table", seed=5500 + seed)
        for i in range(inst.n):
            assert cross_monotonicity_audit(inst, i, budget=40, seed=seed) == []

    # sampled Shapley at m=20000 within 0.01 of exact on 20 fixed queries
    worst = 0.0
    for q in range(20):
        inst = gen_random(6, 5, "table", seed=5900 + q)
        i = q % inst.n
        senders = inst.senders_of[i]
        if len(senders) < 2:
            continue
        S = frozenset(senders[: min(5, len(senders))])
        _, exact = shapley_exact(inst, i, S)
        _, approx = shapley_sampled(inst, i, S, m=20000, seed=q)
        worst = max(worst, max(abs(exact[j] - approx[j]) for j in S))
    assert worst <= 0.01
    _report(5, "sharing rules", f"efficiency x1000 ok, cross-monotone x50 ok, "
            f"sampled worst err {worst:.4f} <= 0.01")


def test_06_hardness_construction_decision_gap():
    for seed in range(10):
        m = 3 + seed % 2  # m <= 4, k = 1
        spec = make_x3c_yes(m, 1, seed=seed)
        inst = gen_x3c(spec)
        _, welfare = exact_welfare_lp(inst, relax_eps=0.0)
        target = 3 * (spec.m + 3 * spec.k)
        assert abs(welfare - target) <= 1e-6, (seed, welfare, target)
    for seed in range(10):
        m = 3 + seed % 2
        spec = make_x3c_no(m, 2, seed=seed)
        inst = gen_x3c(spec)
        _, welfare = exact_welfare_lp(inst, relax_eps=0.0)
        target = 3 * (spec.m + 3 * spec.k)
        assert welfare <= target - 1e-3, (seed, welfare, target)
    _report(6, "X3C hardness construction", "10 yes at 3(m+3k) exactly, 10 no strictly below")


def test_07_core_gap_reproduction():
    ratios = []
    for n in (11, 27, 51):
        inst = gen_core_gap(n)
        rep = evaluate(inst, core_gap_long_cycle(inst))
        assert rep.welfare == pytest.approx(float(n), abs=1e-9)
        pair_rep = evaluate(inst, core_gap_pair(inst))
        root_m = math.sqrt(n - 3)
        assert pair_rep.per_agent_utility[0] == pytest.approx(root_m, abs=1e-9)
        assert pair_rep.per_agent_utility[n - 1] == pytest.approx(root_m, abs=1e-9)
        core_cap = 4.0 * math.sqrt(n - 2)
        ratios.append(n / core_cap)
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 1.3
    _report(7, "core-gap tradeoff", f"welfare n exactly; n/(4 sqrt(n-2)) = "
            f"{', '.join(f'{r:.3f}' for r in ratios)}")


def test_08_greedy_matching_2_stability():
    for seed in range(100):
        inst = gen_random(6, 3, "symmetric" if seed % 2 else "table", seed=8000 + seed)
        sol = greedy_matching(inst)
        assert check_2_stability(inst, sol) == [], seed
    _report(8, "2-stability", "greedy matching: zero blocking pairs on 100 instances")


def test_09_strategyproofness_fuzz():
    total = {"cycle_cancel": 0, "greedy_match": 0}
    for algorithm in total:
        trials_done = 0
        for seed in range(50):
            inst = gen_random(4 + seed % 4, 3, "symmetric" if seed % 2 else "table",
                              seed=9000 + seed)
            violations = strategyproofness_fuzz(inst, algorithm, trials=10, seed=seed)
            assert violations == [], (algorithm, seed, violations)
            trials_done += 10
        assert trials_done == 500
    _report(9, "strategyproofness", "cycle canceling and greedy matching: 500 trials each, zero violations")


def test_10_tradeoff_mixing_accounting():
    rng = np.random.default_rng(10)
    for trial in range(20):
        n = int(rng.integers(3, 6))
        inst = gen_random(n, 3, "symmetric", seed=10_000 + trial, epsilon=0.1)
        f1, _ = exact_welfare_lp(inst, relax_eps=inst.epsilon)
        f2 = greedy_matching(inst)
        w1 = evaluate(inst, f1).welfare
        w2 = evaluate(inst, f2).welfare
        audit_f2 = exact_core_audit(inst, f2, max_coalition=3, margin=1e-9)
        blocking_f2 = {c for c, _ in audit_f2.blocking}
        for beta in (0.25, 0.5, 0.75):
            mixed = mix_solutions(f1, f2, beta)
            w_mix = evaluate(inst, mixed).welfare
            assert w_mix == pytest.approx(beta * w1 + (1 - beta) * w2, abs=1e-9)
            factor = 1.0 / (1.0 - beta)
            blockers = exact_core_audit(inst, mixed, max_coalition=3, margin=1e-6,
                                        factor=factor).blocking
            for coalition, _margin in blockers:
                assert len(coalition) > 2, f"pair blocks the mix beyond 1/(1-beta): {coalition}"
                assert coalition in blocking_f2, (
                    f"{coalition} improves by more than 1/(1-beta) without blocking the stable side"
                )
    _report(10, "tradeoff mixing", "welfare linear at beta in {0.25,0.5,0.75}; "
            "1/(1-beta) accounting confirmed on 20 instances")


def test_11_experiment_qualitative_reproduction():
    t0 = time.time()
    edges = grid_graph(12, 12, seed=0)
    rows = run_experiment(edges, replicates=20, modes=("random", "local"),
                          rhos=(0.0, 0.25, 0.5), seed=11, n_agents=20, radius=8,
                          max_iters=240)
    by_key: dict[tuple, dict[str, float]] = {}
    for r in rows:
        by_key.setdefault((r.correlation_mode, r.rho, r.replicate), {})[r.method] = r.total_utility
    wins = 0
    ratios = []
    per_level_means: dict[tuple, dict[str, list[float]]] = {}
    for key, methods in by_key.items():
        assert set(methods) == {"baseline", "matching", "mwu"}
        wins += methods["mwu"] >= methods["matching"]
        if methods["matching"] > 1e-9:
            ratios.append(methods["mwu"] / methods["matching"])
        level = per_level_means.setdefault(key[:2], {"matching": [], "mwu": []})
        level["matching"].append(methods["matching"])
        level["mwu"].append(methods["mwu"])
    frac_wins = wins / len(by_key)
    mean_ratio = float(np.mean(ratios))
    assert frac_wins >= 0.8, f"MWU beat matching on only {frac_wins:.0%}"
    assert mean_ratio >= 1.2, f"mean ratio {mean_ratio:.3f}"
    for level, vals in per_level_means.items():
        assert np.mean(vals["mwu"]) > np.mean(vals["matching"]) > 0.0, level
    elapsed = time.time() - t0
    assert elapsed <= 900.0, f"runtime {elapsed:.1f}s exceeds 15 min"
    _report(11, "experiment reproduction", f"{len(by_key)} replicate-settings, MWU >= matching on "
            f"{frac_wins:.0%}, mean ratio {mean_ratio:.2f}, {elapsed:.0f}s")


def test_12_regret_bound_audit():
    # the solver raises on any violation of the logged regret inequality, so
    # every run in this suite doubles as an assertion; spot-check the margins
    audited = 0
    for seed in range(5):
        raw = gen_random(4, 3, "symmetric", seed=12_000 + seed, epsilon=0.1)
        inst, _ = normalize_instance(raw)
        for b in (0.1, 0.4, 0.9):
            run = run_mwu(inst, b, MwuConfig(max_iters=150, eta_override=0.05),
                          get_oracle("knapsack"))
            assert run.regret_lhs <= run.regret_rhs_min + 1e-6
            audited += 1
    _report(12, "MWU regret audit", f"{audited} runs spot-checked; solver asserts the "
            "inequality on every run in this suite")

from __future__ import annotations

import gc
import itertools
import logging
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from datex import (
    ConvexCost,
    ExchangeSolution,
    ImbalanceSpec,
    Instance,
    MwuConfig,
    SharingRuleSpec,
    assemble_prices,
    evaluate,
    get_oracle,
    normalize_instance,
    solve_welfare,
    sparsify,
    utility,
)
from datex import lp, mwu
from datex.mwu import practical_eta, run_mwu, width
from datex.oracles import OracleResult, OracleSpec
from datex.model import column_sort_key
from datex.sharing import column_flows, column_lp, shares
from datex.exact import exact_welfare_lp
from datex.experiment import road_mwu_config
from datex.instances import RoadSpec, gen_random, gen_road, gen_x3c, grid_graph, make_x3c_yes
from datex.io import dump_instance, load_instance
from conftest import columns_of, table_instance


def small_config(n, iters=400):
    return MwuConfig(max_iters=iters, eta_override=practical_eta(n, iters))


@pytest.mark.parametrize("check_every", [0, -5])
def test_config_rejects_a_check_period_below_one(check_every):
    # 0 used to divide by zero at the first check, and -5 to check every 5 iterations
    with pytest.raises(ValueError, match="check_every must be >= 1"):
        MwuConfig(check_every=check_every)


# ---------------------------------------------------------------------------
# Price assembly
# ---------------------------------------------------------------------------


def test_assemble_prices_uniform_two_agents(two_agent_symmetric):
    w = np.ones(5)
    p, Q, threshold = assemble_prices(two_agent_symmetric, w, B=1.0, alpha=1.0, eps=0.1)
    np.testing.assert_allclose(p, 0.2)
    assert Q[0, 1] == pytest.approx(0.2) and Q[1, 0] == pytest.approx(0.2)
    assert threshold == pytest.approx(0.2 * 1.0 - 0.1 * 0.8)


def test_assemble_prices_welfare_row_dominant(two_agent_symmetric):
    w = np.array([1e9, 1.0, 1.0, 1.0, 1.0])
    _, Q, _ = assemble_prices(two_agent_symmetric, w, B=1.0, alpha=1.0, eps=0.1)
    assert Q[0, 1] == pytest.approx(1.0, abs=1e-6)


def test_assemble_prices_zero_balance_rows(two_agent_symmetric):
    w = np.array([2.0, 1e-12, 1e-12, 1e-12, 1e-12])
    p, Q, _ = assemble_prices(two_agent_symmetric, w, B=1.0, alpha=1.0, eps=0.1)
    assert Q[0, 1] == pytest.approx(p[0], abs=1e-9)


def test_price_reduction_matches_explicit_row_expansion():
    # p^T A restricted to column (i, S) must equal sum_j Q_ij h_ij(S)
    inst = gen_random(4, 3, "table", seed=6)
    rng = np.random.default_rng(0)
    n = inst.n
    w = rng.uniform(0.2, 3.0, size=2 * n + 1)
    p, Q, _ = assemble_prices(inst, w, B=0.7, alpha=2.0, eps=0.05)
    for i in range(n):
        senders = inst.senders_of[i]
        for size in range(1, len(senders) + 1):
            for S in itertools.combinations(senders, size):
                S = frozenset(S)
                u = utility(inst, i, S)
                h = shares(inst, i, S)
                coef = p[0] * u
                for a in range(n):
                    row_plus = (u if a == i else 0.0) - h.get(a, 0.0)
                    coef += p[1 + a] * row_plus - p[1 + n + a] * row_plus
                q_form = sum(Q[i, j] * hv for j, hv in h.items())
                assert coef == pytest.approx(q_form, abs=1e-12)


def test_dense_prices_match_pairwise_formula_bit_for_bit():
    # Q_ij = p0 + net_i - net_j, as the per-pair dict of floats computed it
    rng = np.random.default_rng(9)
    for trial in range(30):
        n = int(rng.integers(2, 12))
        inst = gen_random(n, min(n - 1, 4), "table", seed=700 + trial)
        w = rng.uniform(1e-6, 5.0, size=2 * n + 1) * 10.0 ** rng.uniform(-3, 3, size=2 * n + 1)
        p, Q, _ = assemble_prices(inst, w, B=0.5, alpha=3.0, eps=0.05)
        net = p[1 : n + 1] - p[n + 1 : 2 * n + 1]
        assert Q.shape == (n, n)
        for i, j in inst.allowed:
            old = float(p[0] + net[i] - net[j])
            assert Q[i, j] == old


# ---------------------------------------------------------------------------
# Feasibility loop
# ---------------------------------------------------------------------------


def test_two_agents_feasible_at_b1(two_agent_symmetric):
    inst, _ = normalize_instance(two_agent_symmetric)
    run = run_mwu(inst, 1.0, small_config(2), get_oracle("knapsack"))
    assert run.feasible and run.solution is not None
    rep = evaluate(inst, run.solution)
    assert rep.welfare >= 1.0 / (2 * 1.21 * 2) - 1e-9


def test_b_above_width_is_infeasible(two_agent_symmetric):
    inst, _ = normalize_instance(two_agent_symmetric)
    run = run_mwu(inst, 2.6, MwuConfig(max_iters=300), get_oracle("bruteforce"))
    assert not run.feasible


def test_single_agent_infeasible():
    import numpy as np
    from datex import ExplicitTable

    inst = Instance(
        n=1, allowed=frozenset(),
        utility=ExplicitTable(senders=((),), values=(np.array([0.0]),)),
        sharing=SharingRuleSpec(kind="shapley_exact"),
    )
    run = run_mwu(inst, 0.05, MwuConfig(max_iters=50), get_oracle("bruteforce"))
    assert not run.feasible


def _same_run(a, b):
    # repr, so the NaN residual of an infeasible last row compares equal
    return repr((a.iterations, a.regret_lhs, a.regret_rhs_min, a.trace)) == repr(
        (b.iterations, b.regret_lhs, b.regret_rhs_min, b.trace))


def test_default_rate_is_practical_eta_when_the_cap_binds(two_agent_symmetric):
    # knapsack alpha 1.21 and eps 0.1 give T of about 13,000, so 200 iterations cap the run
    inst, _ = normalize_instance(two_agent_symmetric)
    oracle = get_oracle("knapsack")
    default = run_mwu(inst, 1.0, MwuConfig(max_iters=200), oracle)
    explicit = run_mwu(inst, 1.0, small_config(2, 200), oracle)
    assert _same_run(default, explicit)
    assert list(default.solution.iter_columns()) == list(explicit.solution.iter_columns())


def test_default_rate_is_theoretical_when_all_t_iterations_run(two_agent_symmetric):
    # 2 agents, bruteforce (alpha 1), eps 0.5: T = ceil(128 ln 2 / 0.25) = 355
    inst, _ = normalize_instance(replace(two_agent_symmetric, epsilon=0.5))
    oracle = get_oracle("bruteforce")
    assert math.ceil(32 * 4 * math.log(2) / 0.25) == 355
    default = run_mwu(inst, 2.5, MwuConfig(max_iters=400), oracle)
    theory = run_mwu(inst, 2.5, MwuConfig(max_iters=400, eta_override=0.5 / (4 * 2)), oracle)
    practical = run_mwu(inst, 2.5, MwuConfig(max_iters=400, eta_override=practical_eta(2, 355)),
                        oracle)
    assert _same_run(default, theory) and not _same_run(default, practical)


def test_width_audit_and_regret_fields(two_agent_symmetric):
    inst, _ = normalize_instance(two_agent_symmetric)
    run = run_mwu(inst, 0.5, small_config(2, 200), get_oracle("bruteforce"))
    assert run.regret_lhs <= run.regret_rhs_min + 1e-6
    assert run.trace and {"t", "B", "pb_threshold", "oracle_value", "max_residual"} <= run.trace[0].keys()
    assert width(inst, 0.1) == pytest.approx(2.0 + 0.1)


def test_infeasible_first_probe_trace_ends_in_break_row(two_agent_symmetric):
    # an oracle that never finds value makes every probe infeasible: the
    # bisection probes the grid top first, then halves down to B = eps
    inst, _ = normalize_instance(two_agent_symmetric)
    never = OracleSpec(name="bruteforce",
                       fn=lambda instance, i, prices, eps: OracleResult(frozenset(), 0.0))
    config = small_config(2, 200)
    sol, rep = solve_welfare(inst, config, never)
    grid = _grid(inst, config)
    expected, k = [], len(grid) - 1
    while k >= 0:
        expected.append(grid[k])
        k = (k - 1) // 2
    assert len(grid) == 12 and len(expected) == 4 <= _max_probes(len(grid))
    assert sol.column_count() == 0 and "every welfare target infeasible" in rep.caveats[0]
    assert rep.caveats[1] == "B search: grid top infeasible; searched below it (4 probes)"
    blocks = [(b, list(rows)) for b, rows in itertools.groupby(rep.trace, key=lambda r: r["B"])]
    assert [b for b, _ in blocks] == expected and expected[-1] == inst.epsilon
    for _, rows in blocks:
        assert [row["t"] for row in rows] == list(range(1, len(rows) + 1))
        assert math.isnan(rows[-1]["max_residual"])
        assert not any(math.isnan(row["max_residual"]) for row in rows[:-1])
    assert sum(len(rows) - 1 for _, rows in blocks) == rep.iterations


@pytest.fixture
def probed(monkeypatch):
    """The target B of every run_mwu call solve_welfare makes, in call order."""
    targets = []

    def recording_run_mwu(instance, B, config, oracle):
        targets.append(B)
        return run_mwu(instance, B, config, oracle)

    monkeypatch.setattr(mwu, "run_mwu", recording_run_mwu)
    return targets


def test_one_point_grid_is_probed_once(probed):
    # rho = 0.04 < eps = 0.1 leaves a grid of one target, which is also the top
    inst = table_instance(2, {(0, 1): 0.02, (1, 0): 0.02}, epsilon=0.1)
    sol, rep = solve_welfare(inst, small_config(2, 100), get_oracle("bruteforce"))
    assert probed == [inst.epsilon] and sol.column_count() == 0
    assert "every welfare target infeasible" in rep.caveats[0]


def _grid(inst, config):
    """solve_welfare's welfare grid: eps (1+delta)^k up to the first target >= rho."""
    eps = inst.epsilon
    rho = sum(utility(inst, i, inst.full_set(i)) for i in range(inst.n))
    grid_len = max(1, 1 + math.ceil(math.log(max(rho / eps, 1.0)) / math.log(1.0 + config.delta)))
    return [eps * (1.0 + config.delta) ** k for k in range(grid_len)]


def _max_probes(grid_len):
    """The bisection's probe bound on a grid of grid_len targets."""
    return 1 + math.ceil(math.log2(grid_len))


def _climbing_search(inst, config, oracle, run_mwu=run_mwu):
    """The B search that climbs from B = eps without probing the top first:
    exponential probing on grid indices, then bisection. Returns the chosen B,
    the best run's solution, its welfare and the probed targets in order."""
    grid = _grid(inst, config)
    grid_len = len(grid)
    probed, best = [], None

    def probe(k):
        nonlocal best
        run = run_mwu(inst, grid[k], config, oracle)
        probed.append(grid[k])
        if run.feasible and run.solution is not None:
            if best is None or grid[k] > best[0]:
                best = (grid[k], run)
            return True
        return False

    if not probe(0):
        return None, None, 0.0, probed
    lo, hi = 0, None
    step = 1
    while hi is None:
        k = lo + step
        if k >= grid_len:
            if lo == grid_len - 1:
                break
            k = grid_len - 1
        if probe(k):
            lo = k
            if k == grid_len - 1:
                break
            step *= 2
        else:
            hi = k
    if hi is not None:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if probe(mid) else (lo, mid)
    solution = best[1].solution
    return best[0], solution, evaluate(inst, solution).welfare, probed


@pytest.mark.parametrize("oracle_name,model,seed,iters", [
    # seed 1 has a feasible top (1 probe); seed 3 an infeasible one (5 probes,
    # where the climbing search makes 8)
    ("knapsack", "symmetric", 1, 80), ("knapsack", "symmetric", 3, 80),
    ("knapsack", "symmetric", 0, 200), ("knapsack", "symmetric", 2, 400),
    ("bruteforce", "symmetric", 7, 80), ("bruteforce", "symmetric", 2, 200),
    ("bruteforce", "table", 2, 80), ("bruteforce", "table", 4, 200),
])
def test_top_first_search_matches_climbing_search(probed, oracle_name, model, seed, iters):
    inst, _ = normalize_instance(gen_random(4, 3, model, seed=seed))
    config = small_config(inst.n, iters)
    oracle = get_oracle(oracle_name, eps=0.1)
    old_b, old_sol, old_welfare, _ = _climbing_search(inst, config, oracle)
    sol, rep = solve_welfare(inst, config, oracle)
    grid = _grid(inst, config)
    top = grid[-1]
    assert probed[0] == top and len(set(probed)) == len(probed) <= _max_probes(len(grid))
    assert rep.iterations == sum(not math.isnan(row["max_residual"]) for row in rep.trace)
    assert rep.best_B == old_b and rep.welfare == old_welfare
    assert list(sol.iter_columns()) == list(old_sol.iter_columns())
    if rep.best_B == top:
        assert probed == [top] and rep.caveats[-1] == "B search: grid top feasible (1 probe)"
    else:
        assert grid[grid.index(rep.best_B) + 1] in probed
        assert rep.caveats[-1] == (
            f"B search: grid top infeasible; searched below it ({len(probed)} probes)"
        )


@pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.7])  # grids of 12, 8 and 4 targets
def test_top_first_search_decisions_match_climbing_search_on_feasibility_patterns(
        monkeypatch, two_agent_symmetric, epsilon):
    # Real solves are feasible up to near the top, so they rarely reach the
    # search's lower branches. A stand-in run_mwu declares each grid index
    # feasible or not from a pattern: every pattern on the short grids, and
    # every monotone threshold plus random (also non-monotone) patterns on
    # the long one.
    inst, _ = normalize_instance(replace(two_agent_symmetric, epsilon=epsilon))
    config, oracle = small_config(2), get_oracle("bruteforce")
    grid = _grid(inst, config)
    grid_len, top = len(grid), grid[-1]
    index = {b: k for k, b in enumerate(grid)}
    if grid_len <= 8:
        patterns = [list(p) for p in itertools.product([False, True], repeat=grid_len)]
    else:
        rng = np.random.default_rng(0)
        patterns = [[k < m for k in range(grid_len)] for m in range(grid_len + 1)]
        patterns += [list(rng.random(grid_len) < 0.7) for _ in range(200)]
    for pattern in patterns:
        def pattern_run_mwu(instance, B, config, oracle):
            feasible = bool(pattern[index[B]])
            sol = ExchangeSolution.empty(instance.n) if feasible else None
            return mwu.MwuRun(feasible=feasible, solution=sol,
                              report=evaluate(instance, sol) if feasible else None,
                              certified=True, iterations=1, regret_lhs=0.0,
                              regret_rhs_min=0.0, trace=[{"B": B}])

        old_b, _, _, _ = _climbing_search(inst, config, oracle, pattern_run_mwu)
        monkeypatch.setattr(mwu, "run_mwu", pattern_run_mwu)
        _, rep = solve_welfare(inst, config, oracle)
        monkeypatch.undo()
        probed = [row["B"] for row in rep.trace]
        assert probed[0] == top and len(set(probed)) == len(probed) == rep.iterations
        assert len(probed) <= _max_probes(grid_len)
        none_feasible = "every welfare target infeasible" in rep.caveats[0]
        if none_feasible:
            # every probe failed, down to the grid bottom
            assert rep.best_B == 0.0 and grid[0] in probed
            assert not any(pattern[index[b]] for b in probed)
        else:
            chosen = index[rep.best_B]
            assert pattern[chosen]
            assert chosen == grid_len - 1 or (grid[chosen + 1] in probed
                                              and not pattern[chosen + 1])
        if pattern[-1]:
            assert probed == [top] and rep.best_B == top
        if pattern == sorted(pattern, reverse=True):  # monotone: feasible up to a threshold
            assert rep.best_B == (0.0 if old_b is None else old_b)
            assert none_feasible == (old_b is None)


def _record_runs(monkeypatch):
    """Record every run_mwu call of the solves that follow, one dict per run:
    its target B, the run, the columns its oracles chose at each iteration
    (through column_flows), the column pool of each of its calls to sparsify
    with the call itself (its columns, slacks, solution and whether it ran
    column_lp) and the (columns, lo, hi) key of each LP column_lp solved."""
    runs = []

    def recording_run_mwu(instance, B, config, oracle):
        runs.append({"B": B, "chosen": [], "lp_pools": [], "lp_calls": [], "lp_keys": []})
        runs[-1]["run"] = run_mwu(instance, B, config, oracle)
        return runs[-1]["run"]

    def recording_column_flows(instance, cols, weights):
        runs[-1]["chosen"].append(list(cols))
        return column_flows(instance, cols, weights)

    def recording_sparsify(instance, cols, *slacks):
        runs[-1]["lp_pools"].append(frozenset(cols))
        lps = len(runs[-1]["lp_keys"])
        solution = sparsify(instance, cols, *slacks)
        runs[-1]["lp_calls"].append({"cols": cols, "slacks": slacks, "solution": solution,
                                     "solved": len(runs[-1]["lp_keys"]) > lps})
        return solution

    def recording_column_lp(instance, cols, lo, hi):
        runs[-1]["lp_keys"].append((tuple(cols), lo.tobytes(), hi.tobytes()))
        return column_lp(instance, cols, lo, hi)

    monkeypatch.setattr(mwu, "run_mwu", recording_run_mwu)
    monkeypatch.setattr(mwu, "column_flows", recording_column_flows)
    monkeypatch.setattr(mwu, "sparsify", recording_sparsify)
    monkeypatch.setattr(mwu, "column_lp", recording_column_lp)
    return runs


def _check_pools(record, check_every):
    """The column pool at each certification check of a recorded run: one
    check per check_every iterations, plus one at a feasible run's last
    iteration (it certified there or hit the cap); an infeasible iteration
    ends the run unchecked and adds nothing to the pool."""
    run, pool, pools = record["run"], set(), []
    for t, cols in enumerate(record["chosen"][:run.iterations], 1):
        pool.update(cols)
        if t % check_every == 0 or (run.feasible and t == run.iterations):
            pools.append(frozenset(pool))
    return pools


@pytest.mark.parametrize("case", ["road", "knapsack-top-feasible", "knapsack-top-infeasible"])
def test_one_column_lp_per_certification_check(monkeypatch, case):
    # the column LP is the only certificate: a check asks for it when the
    # pool grew since the run's last LP and otherwise keeps that LP's
    # solution; column_lp runs once per distinct (sorted pool, bounds) of the
    # instance, however many probes reach that pool; solve_welfare returns
    # the best run's solution as it is
    if case == "road":
        from datex.experiment import road_mwu_config
        from datex.instances import RoadSpec, gen_road, grid_graph

        raw = gen_road(RoadSpec(edges=grid_graph(8, 8, seed=1), radius=6, n_agents=6, seed=5))
        config, oracle = road_mwu_config(6), get_oracle("bucketing")
    else:
        raw = gen_random(4, 3, "symmetric", seed=1 if case == "knapsack-top-feasible" else 3)
        config, oracle = small_config(4, 80), get_oracle("knapsack", eps=0.1)
    inst, _ = normalize_instance(raw)
    records = _record_runs(monkeypatch)
    sol, rep = solve_welfare(inst, config, oracle)
    checks = grown = 0
    for record in records:
        pools = _check_pools(record, config.check_every)
        lp_pools = [pool for k, pool in enumerate(pools) if k == 0 or pool != pools[k - 1]]
        assert record["lp_pools"] == lp_pools and all(lp_pools)
        assert all(a < b for a, b in zip(lp_pools, lp_pools[1:]))
        checks, grown = checks + len(pools), grown + len(lp_pools)
    assert (grown < checks) == (case == "knapsack-top-feasible")
    asked = [call["cols"] for record in records for call in record["lp_calls"]]
    lp_keys = [key for record in records for key in record["lp_keys"]]
    assert len(asked) == grown
    eps = np.full(inst.n, inst.epsilon)
    assert len(set(lp_keys)) == len(lp_keys) > 0
    assert set(lp_keys) == {(tuple(cols), (-eps).tobytes(), eps.tobytes()) for cols in asked}
    runs = [(record["B"], record["run"]) for record in records]
    assert any(not run.feasible for _, run in runs) == (case == "knapsack-top-infeasible")
    feasible = [(B, run) for B, run in runs if run.feasible]
    best_b, best = max(feasible, key=lambda item: item[0])
    assert rep.best_B == best_b and sol is best.solution
    assert rep.iterations == sum(run.iterations for _, run in runs)
    assert all(run.solution is None for _, run in runs if not run.feasible)
    assert 0 < sol.column_count() <= 2 * inst.n + 1
    assert rep.feasible and sol.is_balanced(rep.balance_residual, inst.epsilon)


def _acceptance_02_solves(monkeypatch, imbalance=None):
    """Knapsack solves of 20 acceptance-02 inputs; yields each input with the
    config and the recorded runs of its solve."""
    records = _record_runs(monkeypatch)
    for s in range(20):
        n = 2 + s % 4
        inst, _ = normalize_instance(gen_random(n, 3, "symmetric", seed=2000 + s, epsilon=0.1))
        config = MwuConfig(max_iters=400, eta_override=practical_eta(n, 400), imbalance=imbalance)
        records.clear()
        solve_welfare(inst, config, get_oracle("knapsack", eps=0.1))
        yield inst, config, records


def test_a_check_that_keeps_the_last_lp_returns_what_the_lp_would(monkeypatch):
    # the skipped LP would see the last LP's pool again, and HiGHS is
    # deterministic: a run's solution and report are a fresh LP's on its pool.
    # The reference is solved on a fresh instance, whose memo is empty
    checked = skipped = 0
    for inst, config, records in _acceptance_02_solves(monkeypatch):
        for record in records:
            pools, run = _check_pools(record, config.check_every), record["run"]
            skipped += len(pools) - len(record["lp_pools"])
            if not run.feasible:
                continue
            cols = sorted(pools[-1], key=lambda c: (c[0], column_sort_key(c[1])))
            fresh = sparsify(replace(inst), cols)
            again = evaluate(inst, fresh)
            assert run.solution.columns == fresh.columns
            assert not run.solution.deltas.any() and not run.solution.gammas.any()
            assert run.report.welfare == again.welfare and run.report.feasible == again.feasible
            assert np.array_equal(run.report.per_agent_utility, again.per_agent_utility)
            assert np.array_equal(run.report.balance_residual, again.balance_residual)
            checked += 1
    assert checked >= 20 and skipped > 0


def test_a_memoized_column_lp_is_a_fresh_instances_lp(monkeypatch):
    # a probe that reaches a pool and slacks an earlier probe of the same solve
    # already solved gets that LP's solution from the instance's memo; HiGHS is
    # deterministic, so it is exactly what a fresh instance's LP returns
    reused = inputs_with_reuse = 0
    for inst, _, records in _acceptance_02_solves(monkeypatch):
        hits = [call for record in records for call in record["lp_calls"] if not call["solved"]]
        for call in hits:
            fresh = sparsify(replace(inst), call["cols"], *call["slacks"])
            got = call["solution"]
            assert got.columns == fresh.columns
            assert np.array_equal(got.deltas, fresh.deltas)
            assert np.array_equal(got.gammas, fresh.gammas)
        reused += len(hits)
        inputs_with_reuse += bool(hits)
    assert reused > 0 and inputs_with_reuse > 0


def test_a_second_instance_from_the_same_file_solves_its_own_lps(monkeypatch, tmp_path):
    path = str(tmp_path / "inst.json")
    dump_instance(gen_random(4, 3, "symmetric", seed=3, epsilon=0.1), path)
    first, second = (normalize_instance(load_instance(path))[0] for _ in range(2))
    solved, results = [], []  # per solve, the instance of each LP column_lp solved

    def counting_column_lp(instance, *args):
        solved[-1].append(instance)
        return column_lp(instance, *args)

    monkeypatch.setattr(mwu, "column_lp", counting_column_lp)
    for inst in (first, second, first):
        solved.append([])
        results.append(solve_welfare(inst, small_config(4, 80), get_oracle("knapsack", eps=0.1)))
    # each instance solves every LP of its own solve once; solving the first
    # instance again finds every LP in its memo
    assert solved[0] == [first] * len(first.lp_memo) and len(first.lp_memo) > 0
    assert solved[1] == [second] * len(second.lp_memo)
    assert solved[2] == []
    assert first.lp_memo.keys() == second.lp_memo.keys()
    (sol1, rep1), (sol2, rep2), (sol3, rep3) = results
    assert sol2 is not sol1 and sol2.columns == sol1.columns and rep2.welfare == rep1.welfare
    assert sol3 is sol1 and rep3 is not rep1 and rep3.welfare == rep1.welfare


def test_the_lp_memo_lives_and_dies_with_its_instance():
    inst, _ = normalize_instance(gen_random(4, 3, "symmetric", seed=3, epsilon=0.1))
    sol, _ = solve_welfare(inst, small_config(4, 80), get_oracle("knapsack", eps=0.1))
    assert any(entry is sol for entry in inst.lp_memo.values())
    refs = weakref.ref(inst), weakref.ref(sol)
    del inst, sol
    gc.collect()
    assert refs[0]() is None and refs[1]() is None  # the memo's entries go with the instance


def test_a_solve_logs_one_summary_line(monkeypatch, caplog):
    # EXCHANGE_LOG=debug shows one line per solve: its probes and iterations,
    # and the column LPs it solved and the ones it found in the memo
    records = _record_runs(monkeypatch)
    inst, _ = normalize_instance(gen_random(2, 3, "symmetric", seed=2000, epsilon=0.1))
    config = MwuConfig(max_iters=400, eta_override=practical_eta(2, 400))
    with caplog.at_level(logging.DEBUG, logger="datex.mwu"):
        _, rep = solve_welfare(inst, config, get_oracle("knapsack", eps=0.1))
    calls = [call for record in records for call in record["lp_calls"]]
    solved = sum(call["solved"] for call in calls)
    assert 0 < solved < len(calls)
    assert [r.getMessage() for r in caplog.records if r.name == "datex.mwu"] == [
        f"B search summary: probes={len(records)} iterations={rep.iterations} "
        f"column_lps_solved={solved} column_lps_reused={len(calls) - solved}"]


def test_imbalance_slacks_solve_the_lp_at_every_check(monkeypatch):
    # the averaged delta/gamma slacks move every iteration, so a check whose
    # pool has not grown still solves its LP
    unchanged = 0
    for _, config, records in _acceptance_02_solves(
            monkeypatch, ImbalanceSpec(C=0.01, C_prime=0.01)):
        for record in records:
            pools = _check_pools(record, config.check_every)
            assert len(record["lp_pools"]) == len(pools) > 0
            unchanged += sum(a == b for a, b in zip(pools, pools[1:]))
    assert unchanged > 0


def test_determinism_of_solve(two_agent_symmetric):
    inst, _ = normalize_instance(two_agent_symmetric)
    sols = []
    for _ in range(2):
        sol, rep = solve_welfare(inst, small_config(2), get_oracle("knapsack"))
        sols.append((sorted((i, tuple(sorted(c)), x) for i, c, x in sol.iter_columns()), rep.welfare))
    assert sols[0] == sols[1]


# ---------------------------------------------------------------------------
# solve_welfare
# ---------------------------------------------------------------------------


def test_solve_empty_graph():
    import numpy as np
    from datex import ExplicitTable

    inst = Instance(
        n=2, allowed=frozenset(),
        utility=ExplicitTable(senders=((), ()), values=(np.array([0.0]), np.array([0.0]))),
        sharing=SharingRuleSpec(kind="shapley_exact"),
    )
    sol, rep = solve_welfare(inst, MwuConfig(max_iters=50), get_oracle("bruteforce"))
    assert rep.welfare == 0.0 and sol.column_count() == 0


def test_solve_two_agents_near_optimal(two_agent_symmetric):
    inst, _ = normalize_instance(two_agent_symmetric)
    sol, rep = solve_welfare(inst, small_config(2), get_oracle("knapsack"))
    assert rep.welfare >= 2.0 / (2 * 1.21 * 2) - 1e-9
    assert rep.welfare >= 1.8  # near the exact optimum in practice
    assert np.max(np.abs(rep.balance_residual)) <= inst.epsilon + 1e-9
    assert rep.guarantee == pytest.approx(rep.best_B / (2 * 1.21 * 2))


def test_solve_requires_normalized(two_agent_symmetric):
    from datex import ConcaveSpec, SymmetricWeighted

    sizes = {(0, 1): 9.0, (1, 0): 9.0}
    raw = Instance(
        n=2, allowed=frozenset({(0, 1), (1, 0)}),
        utility=SymmetricWeighted(sizes=sizes, f=(ConcaveSpec(kind="sqrt"),) * 2),
        sharing=SharingRuleSpec(kind="proportional", weights="size"),
    )
    with pytest.raises(ValueError, match="normalized"):
        solve_welfare(raw, MwuConfig(max_iters=50), get_oracle("knapsack"))


def test_solve_x3c_meets_certified_bound():
    spec = make_x3c_yes(3, 1, seed=2)
    raw = gen_x3c(spec)
    inst, scale = normalize_instance(raw)
    config = small_config(inst.n, 400)
    oracle = get_oracle("bucketing")
    sol, rep = solve_welfare(inst, config, oracle)
    alpha = oracle.alpha(inst)
    raw_welfare = rep.welfare * scale
    assert raw_welfare >= 18.0 / (2 * alpha * (1 + 3 * config.delta)) - 1e-6
    assert np.max(np.abs(rep.balance_residual)) <= inst.epsilon + 1e-9


def test_mwu_never_beats_exact_lp():
    for seed in range(8):
        raw = gen_random(4, 3, "symmetric", seed=seed, epsilon=0.1)
        inst, _ = normalize_instance(raw)
        _, lp_w = exact_welfare_lp(inst, relax_eps=inst.epsilon)
        _, rep = solve_welfare(inst, small_config(4), get_oracle("knapsack"))
        assert rep.welfare <= lp_w + 1e-6


# ---------------------------------------------------------------------------
# sparsify
# ---------------------------------------------------------------------------


def test_sparsify_merges_duplicates(two_agent_symmetric):
    inst, _ = normalize_instance(two_agent_symmetric)
    sol = ExchangeSolution(
        n=2, columns={0: {frozenset({1}): 0.6}, 1: {frozenset({0}): 0.6}},
    )
    out = sparsify(inst, columns_of(sol))
    rep_in, rep_out = evaluate(inst, sol), evaluate(inst, out)
    assert rep_out.welfare >= rep_in.welfare - 1e-9
    assert np.max(np.abs(rep_out.balance_residual)) <= inst.epsilon + 1e-9


def test_sparsify_keeps_basic_support(monkeypatch):
    inst, _ = normalize_instance(gen_random(5, 3, "symmetric", seed=2, epsilon=0.1))
    # 100 iterations, no early certification; keep the column pool the run
    # hands sparsify at its one check
    pools = []

    def recording_sparsify(instance, cols, deltas=None, gammas=None):
        pools.append(cols)
        return sparsify(instance, cols, deltas, gammas)

    monkeypatch.setattr(mwu, "sparsify", recording_sparsify)
    config = MwuConfig(max_iters=100, eta_override=0.05, check_every=10**6)
    run = run_mwu(inst, 1.0, config, get_oracle("knapsack"))
    assert run.solution is not None and len(pools) == 1
    (pool,) = pools
    # every chosen pair once, in the order a solution lists its columns
    by_agent = {}
    for i, col in pool:
        by_agent.setdefault(i, {})[col] = 0.0
    assert len(set(pool)) == len(pool)
    assert pool == columns_of(ExchangeSolution(n=inst.n, columns=by_agent))
    assert len(pool) > 2 * inst.n + 1  # a support that sparsify has to shrink
    out = sparsify(inst, pool)
    assert out.column_count() <= 2 * inst.n + 1
    assert columns_of(out) == columns_of(run.solution)
    assert evaluate(inst, out).welfare == run.report.welfare == evaluate(inst, run.solution).welfare


def test_a_failed_column_lp_fails_the_solve(monkeypatch, two_agent_symmetric):
    from scipy.optimize import OptimizeResult

    # a run's solution is always a column-LP solution, so a failed LP fails the solve
    inst, _ = normalize_instance(two_agent_symmetric)
    monkeypatch.setattr(lp, "linprog", lambda *args, **kwargs: OptimizeResult(
        success=False, status=4, message="injected failure"))
    with pytest.raises(lp.LpError, match="^column LP failed: injected failure$"):
        solve_welfare(inst, small_config(2), get_oracle("knapsack"))


@pytest.mark.parametrize("seed", range(3))
def test_a_solve_evaluates_each_check_once(monkeypatch, seed):
    inst, _ = normalize_instance(gen_random(4, 3, "symmetric", seed=seed, epsilon=0.1))
    checks, evaluated = [], []

    def recording_sparsify(*args):
        checks.append(sparsify(*args))
        return checks[-1]

    def recording_evaluate(instance, solution):
        evaluated.append(solution)
        return evaluate(instance, solution)

    monkeypatch.setattr(mwu, "sparsify", recording_sparsify)
    monkeypatch.setattr(mwu, "evaluate", recording_evaluate)
    solution, rep = solve_welfare(inst, small_config(4), get_oracle("knapsack"))
    # one evaluate per column-LP solution, and none for the returned one
    assert len(evaluated) == len(checks) > 0
    assert all(sol is check for sol, check in zip(evaluated, checks))
    assert any(solution is check for check in checks)
    again = evaluate(inst, solution)
    assert rep.welfare == again.welfare and rep.feasible == again.feasible
    assert np.array_equal(rep.balance_residual, again.balance_residual)


def test_sparsify_solves_more_than_5000_columns():
    import itertools as it

    from datex import ConcaveSpec, SymmetricWeighted

    # agent 0 takes 6,006 subsets of its 13 senders; each sender is paid back
    # by a singleton column from 0, so the input is balanced
    senders = tuple(range(1, 14))
    sizes = {(0, j): 1.0 for j in senders} | {(j, 0): 1.0 for j in senders}
    inst = Instance(
        n=14, allowed=frozenset(sizes),
        utility=SymmetricWeighted(sizes=sizes, f=(ConcaveSpec(kind="sqrt"),) * 14),
        sharing=SharingRuleSpec(kind="proportional", weights="size"),
    )
    subsets = [frozenset(c) for size in (5, 6, 7, 8) for c in it.combinations(senders, size)]
    sent = {j: sum(1e-5 * shares(inst, 0, s).get(j, 0.0) for s in subsets) for j in senders}
    columns = {0: {s: 1e-5 for s in subsets}}
    columns |= {j: {frozenset({0}): sent[j] / utility(inst, j, frozenset({0}))} for j in senders}
    sol = ExchangeSolution(n=14, columns=columns)
    assert sol.column_count() == 6019
    rep_in = evaluate(inst, sol)
    assert rep_in.feasible
    out = sparsify(inst, columns_of(sol))
    rep_out = evaluate(inst, out)
    assert out.column_count() <= 2 * inst.n + 1
    assert rep_out.feasible
    assert np.max(np.abs(rep_out.balance_residual)) <= inst.epsilon + 1e-9
    assert rep_out.welfare >= rep_in.welfare - 1e-9


# ---------------------------------------------------------------------------
# Imbalanced exchange
# ---------------------------------------------------------------------------


def test_imbalance_budget_raises_welfare():
    import numpy as np
    from datex import ExplicitTable

    tab = ExplicitTable(
        senders=((1,), (0,)), values=(np.array([0.0, 1.0]), np.array([0.0, 0.2])),
    )
    inst = Instance(
        n=2, allowed=frozenset({(0, 1), (1, 0)}), utility=tab,
        sharing=SharingRuleSpec(kind="shapley_exact"), epsilon=0.01,
    )
    cfg = small_config(2, 800)
    _, balanced = solve_welfare(inst, cfg, get_oracle("bruteforce"))
    cfg_imb = MwuConfig(
        max_iters=800, eta_override=cfg.eta_override,
        imbalance=ImbalanceSpec(C=1.0, C_prime=1.0, g=ConvexCost(), h=ConvexCost()),
    )
    sol, rep = solve_welfare(inst, cfg_imb, get_oracle("bruteforce"))
    assert rep.welfare > balanced.welfare + 0.3
    # the welfare gain comes from slack the budget paid for, within both budgets
    assert rep.feasible and sol.deltas.sum() > 0.0 and sol.gammas.sum() > 0.0
    assert np.sum(sol.deltas ** 2) <= 1.0 + 1e-6
    assert np.sum(sol.gammas ** 2) <= 1.0 + 1e-6


# ---------------------------------------------------------------------------
# Pinned numerics
# ---------------------------------------------------------------------------

# Each solve's (welfare, iterations, trace length, columns as (agent, senders,
# weight)), recorded before the knapsack oracle kept its layout and plans on the
# instance. A change meant to be numerics-preserving must leave every bit of them.
PINNED_KNAPSACK = {
    (2, 3501): (1.2927691514506048, 144, 145, [(0, [1], 1.0), (1, [0], 0.6963845757253023)]),
    (3, 3502): (1.8847511118649058, 441, 443, [(0, [1, 2], 1.0), (1, [0, 2], 0.49129306367908343),
                                               (2, [0, 1], 1.0)]),
    (5, 3504): (3.4765840760690234, 25, 25, [(0, [2, 3, 4], 1.0), (1, [2, 3, 4], 0.6108762541931154),
                                             (2, [0, 1, 3], 0.979772253839577), (3, [0, 2, 4], 1.0),
                                             (4, [0, 1, 2], 0.5078463750663571)]),
}
PINNED_ROAD = (1.1163366073309517, 30, 30, [
    (0, [5], 1.0), (1, [0, 2, 3, 4, 5, 6], 0.4000538313370274), (1, [0, 2, 5], 0.005082180191897879),
    (1, [0, 5], 0.537641219262877), (1, [0, 5, 6], 0.01552932398613855), (1, [5], 0.0416934452220592),
    (2, [1, 3, 4, 5], 1.0), (3, [1, 2, 4, 5], 0.9536596665111277), (3, [1, 5], 0.04634033348887234),
    (4, [0, 1, 5, 6], 1.0), (5, [1], 0.5429680513172447), (6, [0, 1, 4, 5, 7], 1.0),
    (7, [1, 4, 5, 6], 1.0)])
PINNED_IMBALANCE = (1.1967460598011823, 410, 411, [(0, [1], 0.9967460598011824), (1, [0], 1.0)],
                    [0.6132648924162758, 0.7867460598011824], [0.7867460598011824, 0.6132648924162758])


def _pinned(solution, report):
    return (report.welfare, report.iterations, len(report.trace),
            [(i, sorted(col), x) for i, col, x in solution.iter_columns()])


@pytest.mark.parametrize("n, seed", sorted(PINNED_KNAPSACK))
def test_knapsack_solve_keeps_its_pinned_numerics(n, seed):
    inst, _ = normalize_instance(gen_random(n, 3, "symmetric", seed=seed, epsilon=0.1))
    config = MwuConfig(delta=1.0 / 3.0, max_iters=400, eta_override=practical_eta(n, 400))
    got = _pinned(*solve_welfare(inst, config, get_oracle("knapsack", eps=0.1)))
    assert got == PINNED_KNAPSACK[n, seed]


def test_road_solve_keeps_its_pinned_numerics():
    edges = grid_graph(6, 6, seed=0)
    road, _ = normalize_instance(gen_road(RoadSpec(edges=edges, radius=4, n_agents=8, seed=3)))
    got = _pinned(*solve_welfare(road, road_mwu_config(road.n, 60), get_oracle("bucketing")))
    assert got == PINNED_ROAD


def test_imbalance_solve_keeps_its_pinned_numerics():
    inst = table_instance(2, {(0, 1): 1.0, (1, 0): 0.2}, epsilon=0.01)
    config = MwuConfig(max_iters=800, eta_override=practical_eta(2, 800),
                       imbalance=ImbalanceSpec(C=1.0, C_prime=1.0))
    solution, report = solve_welfare(inst, config, get_oracle("bruteforce"))
    got = _pinned(solution, report) + (solution.deltas.tolist(), solution.gammas.tolist())
    assert got == PINNED_IMBALANCE

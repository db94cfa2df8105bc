from __future__ import annotations

import itertools
import math

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
from datex.mwu import practical_eta, run_mwu, width
from datex.oracles import OracleResult, OracleSpec
from datex.sharing import shares
from datex.exact import exact_welfare_lp
from datex.instances import gen_random, gen_x3c, make_x3c_yes


def small_config(n, iters=400):
    return MwuConfig(max_iters=iters, eta_override=practical_eta(n, iters))


# ---------------------------------------------------------------------------
# Price assembly
# ---------------------------------------------------------------------------


def test_assemble_prices_uniform_two_agents(two_agent_symmetric):
    w = np.ones(5)
    p, prices, threshold = assemble_prices(two_agent_symmetric, w, B=1.0, alpha=1.0, eps=0.1)
    np.testing.assert_allclose(p, 0.2)
    assert prices.q(0, 1) == pytest.approx(0.2) and prices.q(1, 0) == pytest.approx(0.2)
    assert threshold == pytest.approx(0.2 * 1.0 - 0.1 * 0.8)


def test_assemble_prices_welfare_row_dominant(two_agent_symmetric):
    w = np.array([1e9, 1.0, 1.0, 1.0, 1.0])
    _, prices, _ = assemble_prices(two_agent_symmetric, w, B=1.0, alpha=1.0, eps=0.1)
    assert prices.q(0, 1) == pytest.approx(1.0, abs=1e-6)


def test_assemble_prices_zero_balance_rows(two_agent_symmetric):
    w = np.array([2.0, 1e-12, 1e-12, 1e-12, 1e-12])
    p, prices, _ = assemble_prices(two_agent_symmetric, w, B=1.0, alpha=1.0, eps=0.1)
    assert prices.q(0, 1) == pytest.approx(p[0], abs=1e-9)


def test_price_reduction_matches_explicit_row_expansion():
    # p^T A restricted to column (i, S) must equal sum_j Q_ij h_ij(S)
    inst = gen_random(4, 3, "table", seed=6)
    rng = np.random.default_rng(0)
    n = inst.n
    w = rng.uniform(0.2, 3.0, size=2 * n + 1)
    p, prices, _ = assemble_prices(inst, w, B=0.7, alpha=2.0, eps=0.05)
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
                q_form = sum(prices.q(i, j) * hv for j, hv in h.items())
                assert coef == pytest.approx(q_form, abs=1e-12)


def test_dense_prices_match_pairwise_formula_bit_for_bit():
    # Q_ij = p0 + net_i - net_j, as the per-pair dict of floats computed it
    rng = np.random.default_rng(9)
    for trial in range(30):
        n = int(rng.integers(2, 12))
        inst = gen_random(n, min(n - 1, 4), "table", seed=700 + trial)
        w = rng.uniform(1e-6, 5.0, size=2 * n + 1) * 10.0 ** rng.uniform(-3, 3, size=2 * n + 1)
        p, prices, _ = assemble_prices(inst, w, B=0.5, alpha=3.0, eps=0.05)
        net = p[1 : n + 1] - p[n + 1 : 2 * n + 1]
        assert prices.Q.shape == (n, n)
        for i, j in inst.allowed:
            old = float(p[0] + net[i] - net[j])
            assert prices.q(i, j) == old and prices.Q[i, j] == old


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


def test_width_audit_and_regret_fields(two_agent_symmetric):
    inst, _ = normalize_instance(two_agent_symmetric)
    run = run_mwu(inst, 0.5, small_config(2, 200), get_oracle("bruteforce"))
    assert run.regret_lhs <= run.regret_rhs_min + 1e-6
    assert run.trace and {"t", "B", "pb_threshold", "oracle_value", "max_residual"} <= run.trace[0].keys()
    assert width(inst, 0.1) == pytest.approx(2.0 + 0.1)


def test_infeasible_first_probe_trace_ends_in_break_row(two_agent_symmetric):
    # an oracle that never finds value makes the first probe (B = eps) infeasible
    inst, _ = normalize_instance(two_agent_symmetric)
    never = OracleSpec(name="bruteforce",
                       fn=lambda instance, i, prices, eps: OracleResult(frozenset(), 0.0))
    sol, rep = solve_welfare(inst, small_config(2, 200), never)
    assert sol.column_count() == 0 and "every welfare target infeasible" in rep.caveats[0]
    assert {row["B"] for row in rep.trace} == {inst.epsilon}
    assert [row["t"] for row in rep.trace] == list(range(1, rep.iterations + 2))
    assert math.isnan(rep.trace[-1]["max_residual"])
    assert not any(math.isnan(row["max_residual"]) for row in rep.trace[:-1])


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
    out = sparsify(inst, sol)
    rep_in, rep_out = evaluate(inst, sol), evaluate(inst, out)
    assert rep_out.welfare >= rep_in.welfare - 1e-9
    assert np.max(np.abs(rep_out.balance_residual)) <= inst.epsilon + 1e-9


def test_sparsify_keeps_basic_support(two_agent_symmetric):
    inst, _ = normalize_instance(two_agent_symmetric)
    # raw 100-iterate average, no early certification
    config = MwuConfig(max_iters=100, eta_override=0.05, check_every=10**6)
    run = run_mwu(inst, 1.0, config, get_oracle("knapsack"))
    assert run.solution is not None
    out = sparsify(inst, run.solution)
    assert out.column_count() <= 2 * inst.n + 1 <= 5
    assert evaluate(inst, out).welfare >= evaluate(inst, run.solution).welfare - 1e-9


def test_sparsify_column_cap():
    import itertools as it

    from datex import ConcaveSpec, SymmetricWeighted

    senders = tuple(range(1, 14))
    sizes = {(0, j): 1.0 for j in senders}
    inst = Instance(
        n=14, allowed=frozenset(sizes),
        utility=SymmetricWeighted(sizes=sizes, f=(ConcaveSpec(kind="sqrt"),) * 14),
        sharing=SharingRuleSpec(kind="proportional", weights="size"),
    )
    subsets = [frozenset(c) for size in (5, 6, 7, 8) for c in it.combinations(senders, size)]
    assert len(subsets) > 5000
    sol = ExchangeSolution(n=14, columns={0: {s: 1e-5 for s in subsets}})
    with pytest.raises(ValueError, match="sparsify bound"):
        sparsify(inst, sol)


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
    assert rep.feasible and sol.deltas is not None and sol.gammas is not None
    assert np.sum(np.asarray(sol.deltas) ** 2) <= 1.0 + 1e-6
    assert np.sum(np.asarray(sol.gammas) ** 2) <= 1.0 + 1e-6

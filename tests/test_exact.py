from __future__ import annotations

import itertools

import numpy as np
import pytest

from datex import (
    ExchangeSolution,
    Instance,
    SymmetricWeighted,
    evaluate,
    exact_core_audit,
    exact_welfare_lp,
)
from datex.instances import (
    gen_core_gap,
    gen_random,
    gen_x3c,
    make_x3c_no,
    make_x3c_yes,
    x3c_case1_solution,
)
from datex.instances import core_gap_long_cycle
from datex import exact, lp


def test_two_agent_exact_balance_forces_two(two_agent_unit):
    sol, welfare = exact_welfare_lp(two_agent_unit, relax_eps=0.0)
    assert welfare == pytest.approx(2.0, abs=1e-9)
    rep = evaluate(two_agent_unit, sol)
    assert np.max(np.abs(rep.balance_residual)) <= 1e-9


def test_relaxation_monotonicity(two_agent_symmetric):
    _, tight = exact_welfare_lp(two_agent_symmetric, relax_eps=0.0)
    _, loose = exact_welfare_lp(two_agent_symmetric, relax_eps=0.1)
    assert loose >= tight - 1e-9


def test_basic_solution_bound():
    for seed in range(5):
        inst = gen_random(5, 3, "symmetric", seed=seed)
        sol, _ = exact_welfare_lp(inst, relax_eps=0.05)
        assert sol.column_count() <= 2 * inst.n + 1


def test_lp_mass_within_solver_tolerance_is_renormalized():
    # HiGHS meets agent 3's mass row only to ~5e-8 here; the solution must
    # still be a valid ExchangeSolution rather than a ValueError
    inst = gen_random(6, 3, "table", seed=3429269312, epsilon=0.1)
    sol, welfare = exact_welfare_lp(inst, relax_eps=0.1)
    for dist in sol.columns.values():
        assert sum(dist.values()) <= 1.0 + 1e-9
    assert sol.column_count() <= 2 * inst.n + 1
    assert evaluate(inst, sol).welfare == pytest.approx(welfare, abs=1e-6)


def test_lp_solution_renormalizes_only_within_solver_tolerance():
    from datex.sharing import lp_solution

    cols = [(0, frozenset({1})), (0, frozenset({2}))]
    assert lp_solution(3, cols, np.array([0.6, 0.4])).columns == {
        0: {frozenset({1}): 0.6, frozenset({2}): 0.4}}
    scaled = lp_solution(3, cols, np.array([0.6, 0.4 + 5e-7]))
    assert sum(scaled.columns[0].values()) <= 1.0 + 1e-9
    with pytest.raises(ValueError, match="sum to"):
        lp_solution(3, cols, np.array([0.6, 0.4 + 1e-5]))


def test_a_failed_welfare_lp_raises_the_column_lp_error(monkeypatch, two_agent_symmetric):
    from scipy.optimize import OptimizeResult

    monkeypatch.setattr(lp, "linprog", lambda *args, **kwargs: OptimizeResult(
        success=False, status=4, message="injected failure"))
    with pytest.raises(lp.LpError, match="^column LP failed: injected failure$"):
        exact_welfare_lp(two_agent_symmetric)


def test_sender_cap_enforced():
    inst = gen_random(15, 14, "symmetric", seed=0)
    with pytest.raises(ValueError, match="too many senders"):
        exact_welfare_lp(inst)


def test_x3c_yes_hits_reduction_target():
    spec = make_x3c_yes(4, 1, seed=3)
    inst = gen_x3c(spec)
    _, welfare = exact_welfare_lp(inst, relax_eps=0.0)
    assert welfare == pytest.approx(3 * (spec.m + 3 * spec.k), abs=1e-6)
    witness = x3c_case1_solution(inst, spec)
    rep = evaluate(inst, witness)
    assert rep.welfare == pytest.approx(3 * (spec.m + 3 * spec.k), abs=1e-9)
    assert np.max(np.abs(rep.balance_residual)) <= 1e-9


def test_x3c_no_instance_strictly_below():
    spec = make_x3c_no(3, 2, seed=4)
    inst = gen_x3c(spec)
    _, welfare = exact_welfare_lp(inst, relax_eps=0.0)
    assert welfare <= 3 * (spec.m + 3 * spec.k) - 1e-3


# ---------------------------------------------------------------------------
# Core audits
# ---------------------------------------------------------------------------


def test_welfare_optimal_two_agent_has_no_blocking(two_agent_unit):
    sol, _ = exact_welfare_lp(two_agent_unit, relax_eps=0.0)
    assert exact_core_audit(two_agent_unit, sol, max_coalition=2).blocking == []


def test_empty_solution_blocked_by_positive_pair(two_agent_unit):
    blocking = exact_core_audit(two_agent_unit, ExchangeSolution.empty(2),
                                max_coalition=2).blocking
    assert [c for c, _ in blocking] == [(0, 1)]


def test_core_gap_long_cycle_blocked_by_heavy_pair():
    inst = gen_core_gap(6)
    blocking = exact_core_audit(inst, core_gap_long_cycle(inst), max_coalition=2).blocking
    assert ((0, 5) in [c for c, _ in blocking])
    # each of {0, n-1} can reach sqrt(M) = sqrt(3) vs 1 in the cycle
    margin = dict(blocking)[(0, 5)]
    assert margin == pytest.approx(np.sqrt(3.0) - 1.0, abs=1e-6)


def _unfiltered_core_audit(instance, solution, max_coalition, margin, factor):
    # every coalition gets its LP: the reference the filtered audit must match
    from datex.exact import _coalition_best_margin

    current = evaluate(instance, solution).per_agent_utility
    blocking = []
    for size in range(2, max_coalition + 1):
        for coalition in itertools.combinations(range(instance.n), size):
            targets = np.array([factor * current[i] for i in coalition])
            t_star = _coalition_best_margin(instance, coalition, targets)
            if t_star > margin:
                blocking.append((coalition, t_star))
    return sorted(blocking)


def test_ruled_out_coalitions_never_block():
    from datex import greedy_matching, mix_solutions

    ruled_out = blocking = 0
    for seed in range(12):  # every (n, model) pair twice
        n = 4 + seed % 3
        inst = gen_random(n, 3, ("symmetric", "table")[seed % 2], seed=70_000 + seed)
        lp_sol, _ = exact_welfare_lp(inst, relax_eps=inst.epsilon)
        matching = greedy_matching(inst)
        for sol in (ExchangeSolution.empty(n), matching, mix_solutions(lp_sol, matching, 0.5)):
            for factor in (1.0, 1.25):
                audit = exact_core_audit(inst, sol, max_coalition=3, factor=factor)
                reference = _unfiltered_core_audit(inst, sol, 3, 1e-7, factor)
                # the stacked LP may move t* in the last bit; the margin is 1e-7
                assert [c for c, _ in audit.blocking] == [c for c, _ in reference], (seed, factor)
                for (_, t_star), (_, t_ref) in zip(audit.blocking, reference):
                    assert abs(t_star - t_ref) <= 1e-12, (seed, factor)
                assert audit.ruled_out + audit.lps == audit.coalitions
                assert audit.failed == 0
                ruled_out += audit.ruled_out
                blocking += len(audit.blocking)
    assert ruled_out > 0 and blocking > 0


def _audit_corpus():
    from datex import greedy_matching, mix_solutions

    for seed in range(12):
        n = 4 + seed % 4
        inst = gen_random(n, 3, ("symmetric", "table")[seed // 2 % 2], seed=81_000 + seed)
        lp_sol, _ = exact_welfare_lp(inst, relax_eps=inst.epsilon)
        matching = greedy_matching(inst)
        for sol in (ExchangeSolution.empty(n), mix_solutions(lp_sol, matching, 0.5)):
            yield inst, sol


def _assert_matches_one_lp_per_coalition(audit, reference):
    assert [c for c, _ in audit.blocking] == [c for c, _ in reference]
    for (_, t_star), (_, t_ref) in zip(audit.blocking, reference):
        assert abs(t_star - t_ref) <= 1e-12
    assert audit.failed == 0 and audit.ruled_out + audit.lps == audit.coalitions


@pytest.mark.parametrize("bound", [30, exact.MAX_STACKED_VARIABLES])
def test_stacked_audit_matches_one_lp_per_coalition(monkeypatch, bound):
    # a bound of 30 variables splits an audit with a few 3-member blocks into batches
    stacked = []
    real_block_margins = exact._block_margins

    def recording(instance, blocks):
        stacked.append(len(blocks))
        return real_block_margins(instance, blocks)

    monkeypatch.setattr(exact, "MAX_STACKED_VARIABLES", bound)
    monkeypatch.setattr(exact, "_block_margins", recording)
    for inst, sol in _audit_corpus():
        del stacked[:]
        audit = exact_core_audit(inst, sol, max_coalition=3)
        assert sum(stacked) == audit.lps
        if bound > 30:  # every audit of n <= 7 is one LP
            assert len(stacked) == (audit.lps > 0)
        elif audit.lps > 5:
            assert len(stacked) > 1
        _assert_matches_one_lp_per_coalition(audit, _unfiltered_core_audit(inst, sol, 3, 1e-7, 1.0))


def test_stacked_audit_falls_back_to_one_lp_per_coalition(monkeypatch):
    from scipy.optimize import OptimizeResult

    real_linprog = lp.linprog
    stacked = []

    def stacked_lp_fails(*args, **kwargs):
        # a coalition LP has one free variable, t; a stacked LP has one per block;
        # a column LP (no A_eq, bounds (0, None)) is passed on
        free = int(np.isinf(kwargs["bounds"][:, 0]).sum()) if "A_eq" in kwargs else 0
        if free > 1:
            stacked.append(free)
            return OptimizeResult(success=False, status=4, message="injected failure")
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(lp, "linprog", stacked_lp_fails)
    for inst, sol in _audit_corpus():
        audit = exact_core_audit(inst, sol, max_coalition=3)
        monkeypatch.setattr(lp, "linprog", real_linprog)
        _assert_matches_one_lp_per_coalition(audit, _unfiltered_core_audit(inst, sol, 3, 1e-7, 1.0))
        monkeypatch.setattr(lp, "linprog", stacked_lp_fails)
    assert stacked


def test_a_block_whose_own_lp_fails_gets_minus_inf_and_one_warning(monkeypatch, caplog):
    from scipy.optimize import OptimizeResult

    inst = gen_random(4, 3, "symmetric", seed=5)
    monkeypatch.setattr(lp, "linprog", lambda *args, **kwargs: OptimizeResult(
        success=False, status=4, message="injected failure"))
    with caplog.at_level("WARNING", logger="datex.exact"):
        assert exact._block_margins(inst, [((1, 2, 3), np.zeros(3))]) == [-float("inf")]
    assert [r.getMessage() for r in caplog.records] == [
        "coalition LP failed: injected failure (coalitions [(1, 2, 3)])"]


def test_block_without_columns_gets_minus_its_largest_target():
    # agent 0 receives from nobody and sends to nobody: coalition (0, 1) has no column
    inst = gen_random(4, 3, "symmetric", seed=5)
    pairs = frozenset(p for p in inst.allowed if 0 not in p)
    inst = Instance(n=4, allowed=pairs, utility=SymmetricWeighted(
        sizes={p: s for p, s in inst.utility.sizes.items() if p in pairs}, f=inst.utility.f),
        sharing=inst.sharing, epsilon=inst.epsilon)
    blocks = [((0, 1), np.array([0.25, 0.5])), ((1, 2, 3), np.zeros(3)), ((0, 2), np.zeros(2))]
    assert not any(exact._agent_columns(inst, i, frozenset(blocks[0][0])) for i in (0, 1))
    margins = exact._block_margins(inst, blocks)
    singles = [exact._coalition_best_margin(inst, c, targets) for c, targets in blocks]
    assert margins[0] == singles[0] == -0.5 and margins[2] == singles[2] == 0.0
    assert singles[1] > 0.0 and abs(margins[1] - singles[1]) <= 1e-12


def test_coalition_cap():
    inst = gen_random(30, 2, "symmetric", seed=1)
    sol = ExchangeSolution.empty(30)
    with pytest.raises(ValueError, match="audit bound"):
        exact_core_audit(inst, sol, max_coalition=4)


def test_mwu_agrees_with_exact_lp_on_corpus():
    from datex import MwuConfig, get_oracle, normalize_instance, solve_welfare
    from datex.mwu import practical_eta

    for seed in range(12):
        raw = gen_random(4, 3, "symmetric", seed=40 + seed, epsilon=0.1)
        inst, _ = normalize_instance(raw)
        _, lp_w = exact_welfare_lp(inst, relax_eps=inst.epsilon)
        cfg = MwuConfig(max_iters=300, eta_override=practical_eta(4, 300))
        _, rep = solve_welfare(inst, cfg, get_oracle("knapsack"))
        assert rep.welfare <= lp_w + 1e-6

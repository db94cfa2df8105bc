from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datex import (
    ConcaveSpec,
    ContinuousConcave,
    DegenerateInstanceError,
    ExchangeSolution,
    ExplicitTable,
    FracColumn,
    Instance,
    PathVariance,
    SharingRuleSpec,
    SymmetricWeighted,
    evaluate,
    normalize_instance,
    scale_solution,
    utility,
)
from datex import io as dio

from conftest import columns_of, five_model_instances, table_instance


# ---------------------------------------------------------------------------
# Concave specs
# ---------------------------------------------------------------------------

ALL_SPECS = [
    ConcaveSpec(kind="sqrt"),
    ConcaveSpec(kind="power", c=0.4),
    ConcaveSpec(kind="capped_linear", cap=0.7),
    ConcaveSpec(kind="variance_reduction", sigma2=0.8),
    ConcaveSpec(kind="piecewise_linear", points=((0.0, 0.0), (1.0, 0.5), (3.0, 0.8))),
]


@pytest.mark.parametrize("f", ALL_SPECS, ids=lambda f: f.kind)
def test_concave_spec_axioms(f):
    assert f(0.0) == 0.0
    grid = np.linspace(0.01, 5.0, 60)
    vals = np.array([f(x) for x in grid])
    assert np.all(np.diff(vals) >= -1e-12)  # non-decreasing
    ratios = vals / grid
    assert np.all(np.diff(ratios) <= 1e-12)  # f(x)/x non-increasing
    mids = np.array([f((a + b) / 2) for a, b in zip(grid, grid[1:])])
    assert np.all(mids >= (vals[:-1] + vals[1:]) / 2 - 1e-9)  # midpoint concavity


def test_concave_spec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ConcaveSpec(kind="power", c=1.5)
    with pytest.raises(ValueError):
        ConcaveSpec(kind="piecewise_linear", points=((0.0, 0.0), (1.0, 0.2), (2.0, 0.9)))
    with pytest.raises(ValueError):
        ConcaveSpec(kind="unknown")


@pytest.mark.parametrize("kwargs", [
    {"kind": "capped_linear", "cap": math.nan},
    {"kind": "capped_linear", "cap": math.inf},
    {"kind": "variance_reduction", "sigma2": math.nan},
    {"kind": "variance_reduction", "sigma2": -1.0},
    {"kind": "power", "c": 0.5, "scale": math.inf},
    {"kind": "sqrt", "scale": math.nan},
    {"kind": "piecewise_linear", "points": ((0.0, 0.0), (math.nan, 0.5))},
    {"kind": "piecewise_linear", "points": ((0.0, 0.0), (1.0, 0.5), (math.inf, 0.8))},
])
def test_concave_spec_rejects_non_finite_parameters(kwargs):
    with pytest.raises(ValueError, match="finite"):
        ConcaveSpec(**kwargs)


def test_mean_estimation_example():
    # one unit of own data, three donated units, unit population variance
    f = ConcaveSpec(kind="variance_reduction", sigma2=1.0)
    assert f(3.0) == pytest.approx(0.75, abs=1e-12)


# ---------------------------------------------------------------------------
# Utility evaluation
# ---------------------------------------------------------------------------


def test_utility_empty_set_and_permission(two_agent_unit):
    assert utility(two_agent_unit, 0, frozenset()) == 0.0
    with pytest.raises(ValueError):
        utility(two_agent_unit, 0, frozenset({0}))


def test_explicit_table_rejects_nonmonotone():
    vals = np.array([0.0, 0.5, 0.4, 0.3])  # {1,2} below {1}
    with pytest.raises(ValueError):
        ExplicitTable(senders=((1, 2),), values=(vals,))


def test_explicit_table_rejects_nonmonotone_beyond_twelve_senders():
    k = 13
    masks = np.arange(1 << k)
    vals = np.array([bin(m).count("1") / k for m in masks])
    tab = ExplicitTable(senders=(tuple(range(1, k + 1)),), values=(vals,))
    assert tab.value(0, frozenset(range(1, k + 1))) == pytest.approx(1.0)
    bad = vals.copy()
    bad[(1 << k) - 1] = bad[(1 << k) - 2] - 0.01  # adding sender 1 to the rest loses utility
    with pytest.raises(ValueError, match="not monotone"):
        ExplicitTable(senders=(tuple(range(1, k + 1)),), values=(bad,))


def test_numeric_lists_of_the_models_must_be_flat():
    with pytest.raises(ValueError, match="agent 0: table values must be a flat list"):
        ExplicitTable(senders=((1,),), values=(np.array([[0.0], [0.5]]),))
    flat = dict(n_nodes=2, edges=((0, 1),), paths=((0,), (0,)),
                sigma2=np.array([0.5]), z=np.array([2, 2]), classes=np.array([0]))
    PathVariance(**flat)
    for name in ("sigma2", "z", "classes"):
        with pytest.raises(ValueError, match=f"path_variance {name} must be a flat list"):
            PathVariance(**flat | {name: flat[name][:, None]})


def test_path_variance_single_edge_value():
    # one shared edge, sigma2=0.5, z_i=2, donor holds 2 samples: 0.5/2 - 0.5/4
    pv = PathVariance(
        n_nodes=2, edges=((0, 1),), paths=((0,), (0,)),
        sigma2=np.array([0.5]), z=np.array([2, 2]), classes=np.array([0]),
    )
    inst = Instance(
        n=2, allowed=frozenset({(0, 1), (1, 0)}), utility=pv,
        sharing=SharingRuleSpec(kind="shapley_sampled", m=10, seed=0),
    )
    assert utility(inst, 0, frozenset({1})) == pytest.approx(0.125, abs=1e-12)


def test_path_variance_monte_carlo_cross_check():
    # sample-mean variance with 2 own + 2 donated samples vs 2 own samples
    rng = np.random.default_rng(0)
    sigma2 = 0.5
    trials = 200_000
    own = rng.normal(0.0, math.sqrt(sigma2), size=(trials, 2)).mean(axis=1)
    pooled = rng.normal(0.0, math.sqrt(sigma2), size=(trials, 4)).mean(axis=1)
    reduction = own.var() - pooled.var()
    assert reduction == pytest.approx(0.125, abs=0.005)


def test_path_variance_correlated_classes_pool_samples():
    # two edges in one class: donor samples on either edge count for both
    pv = PathVariance(
        n_nodes=3, edges=((0, 1), (1, 2)), paths=((0, 1), (1,)),
        sigma2=np.array([0.6, 0.6]), z=np.array([2, 3]), classes=np.array([0, 0]),
    )
    inst = Instance(
        n=2, allowed=frozenset({(0, 1), (1, 0)}), utility=pv,
        sharing=SharingRuleSpec(kind="shapley_sampled", m=10, seed=0),
    )
    # donor holds 3 samples on its single class-0 edge; both of i's edges gain 3
    expect = 2 * (0.6 / 2 - 0.6 / 5)
    assert utility(inst, 0, frozenset({1})) == pytest.approx(expect, abs=1e-12)


def test_path_variance_overlap_gain_example():
    # donated 3 samples on one edge with sigma2=0.6, z=2: gain 0.6/2 - 0.6/5 = 0.18
    pv = PathVariance(
        n_nodes=2, edges=((0, 1),), paths=((0,), (0,)),
        sigma2=np.array([0.6]), z=np.array([2, 3]), classes=np.array([0]),
    )
    inst = Instance(
        n=2, allowed=frozenset({(0, 1), (1, 0)}), utility=pv,
        sharing=SharingRuleSpec(kind="shapley_sampled", m=10, seed=0),
    )
    assert utility(inst, 0, frozenset({1})) == pytest.approx(0.18, abs=1e-12)


def test_path_variance_monotone_submodular_samples():
    rng = np.random.default_rng(7)
    edges = tuple((t, t + 1) for t in range(6))
    paths = tuple(
        tuple(sorted(rng.choice(6, size=rng.integers(1, 4), replace=False)))
        for _ in range(5)
    )
    pv = PathVariance(
        n_nodes=7, edges=edges, paths=paths,
        sigma2=rng.uniform(0.1, 1.0, size=6),
        z=rng.integers(2, 9, size=5),
        classes=np.arange(6) % 3,
    )
    inst = Instance(
        n=5, allowed=frozenset((i, j) for i in range(5) for j in range(5) if i != j),
        utility=pv, sharing=SharingRuleSpec(kind="shapley_sampled", m=5, seed=0),
    )
    others = [1, 2, 3, 4]
    for _ in range(100):
        size = int(rng.integers(1, 4))
        S = frozenset(int(x) for x in rng.choice(others, size=size, replace=False))
        T = frozenset(int(x) for x in rng.choice(sorted(S), size=rng.integers(1, len(S) + 1), replace=False))
        q = int(rng.choice([x for x in others if x not in S]))
        u = lambda W: utility(inst, 0, W)
        assert u(T) <= u(S) + 1e-9  # monotone
        assert u(S | {q}) - u(S) <= u(T | {q}) - u(T) + 1e-9  # diminishing returns


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def test_normalize_divides_table_by_peak():
    # tables are capped at 1 by construction, so exercise the peak-4 case
    # through the symmetric weighted model
    from datex import SymmetricWeighted

    sizes = {(0, 1): 16.0, (1, 0): 1.0}
    f = (ConcaveSpec(kind="sqrt"), ConcaveSpec(kind="sqrt"))
    raw = Instance(
        n=2, allowed=frozenset({(0, 1), (1, 0)}),
        utility=SymmetricWeighted(sizes=sizes, f=f),
        sharing=SharingRuleSpec(kind="proportional", weights="size"),
    )
    norm, scale = normalize_instance(raw)
    assert scale == pytest.approx(4.0)
    assert utility(norm, 0, frozenset({1})) == pytest.approx(1.0)
    assert utility(norm, 1, frozenset({0})) == pytest.approx(0.25)


def test_normalize_identity_and_degenerate(two_agent_unit):
    same, scale = normalize_instance(two_agent_unit)
    assert scale == 1.0 and same is two_agent_unit
    zero = table_instance(2, {(0, 1): 0.0, (1, 0): 0.0})
    with pytest.raises(DegenerateInstanceError):
        normalize_instance(zero)


def test_normalize_x3c_preserves_reduction_target():
    from datex.instances import gen_x3c, make_x3c_yes, x3c_raw_scale

    spec = make_x3c_yes(3, 1, seed=1)
    inst = gen_x3c(spec)
    norm, scale = normalize_instance(inst)
    assert scale == pytest.approx(x3c_raw_scale(spec))
    w = inst.utility.w
    full = norm.full_set(w)
    assert utility(norm, w, full) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Solutions, evaluate, scaling
# ---------------------------------------------------------------------------


def test_instance_rejects_self_pairs_and_bad_refs():
    with pytest.raises(ValueError):
        Instance(
            n=2, allowed=frozenset({(0, 0)}),
            utility=ExplicitTable(senders=((), ()), values=(np.zeros(1), np.zeros(1))),
            sharing=SharingRuleSpec(kind="shapley_exact"),
        )


def test_solution_mass_and_membership_invariants(two_agent_unit):
    with pytest.raises(ValueError):
        ExchangeSolution(n=2, columns={0: {frozenset({1}): 0.7, frozenset(): 0.5}})
    with pytest.raises(ValueError):
        ExchangeSolution(n=2, columns={0: {frozenset({0}): 0.5}})


def test_evaluate_empty_and_symmetric(two_agent_unit):
    rep = evaluate(two_agent_unit, ExchangeSolution.empty(2))
    assert rep.welfare == 0.0 and np.all(rep.balance_residual == 0.0)
    sol = ExchangeSolution(n=2, columns={0: {frozenset({1}): 1.0}, 1: {frozenset({0}): 1.0}})
    rep = evaluate(two_agent_unit, sol)
    assert rep.welfare == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(rep.balance_residual)) <= 1e-12
    assert rep.feasible


def test_evaluate_welfare_equals_utility_sum(two_agent_unit):
    sol = ExchangeSolution(n=2, columns={0: {frozenset({1}): 0.7}, 1: {frozenset({0}): 0.3}})
    rep = evaluate(two_agent_unit, sol)
    assert rep.welfare == pytest.approx(float(rep.per_agent_utility.sum()), abs=1e-9)


def test_scale_solution_endpoints_and_half(two_agent_unit):
    sol = ExchangeSolution(n=2, columns={0: {frozenset({1}): 1.0}, 1: {frozenset({0}): 1.0}})
    assert evaluate(two_agent_unit, scale_solution(sol, 0.0)).welfare == 0.0
    assert evaluate(two_agent_unit, scale_solution(sol, 1.0)).welfare == pytest.approx(2.0)
    half = evaluate(two_agent_unit, scale_solution(sol, 0.5))
    assert half.welfare == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(half.balance_residual)) <= 1e-12
    with pytest.raises(ValueError):
        scale_solution(sol, 1.5)


def test_instance_rejects_a_table_that_misses_a_permitted_sender():
    # the table covers sender 1 only, but (0, 2) is permitted too
    with pytest.raises(ValueError, match=r"agent 0's table does not cover its permitted "
                                         r"senders \[2\]"):
        Instance(
            n=3, allowed=frozenset({(0, 1), (0, 2)}),
            utility=ExplicitTable(senders=((1,), (), ()),
                                  values=(np.array([0.0, 1.0]), np.zeros(1), np.zeros(1))),
            sharing=SharingRuleSpec(kind="shapley_exact"),
        )


def test_slacks_are_arrays_without_a_budget():
    from datex import mix_solutions

    cols = {0: {frozenset({1}): 1.0}, 1: {frozenset({0}): 1.0}}
    slacked = ExchangeSolution(n=2, columns=cols, deltas=np.array([0.2, 0.0]),
                               gammas=[0.0, 0.4])
    for sol in (ExchangeSolution.empty(2), ExchangeSolution(n=2, columns=cols),
                scale_solution(ExchangeSolution(n=2, columns=cols), 0.5),
                mix_solutions(ExchangeSolution.empty(2), ExchangeSolution(n=2, columns=cols), 0.3)):
        for slack in (sol.deltas, sol.gammas):
            assert isinstance(slack, np.ndarray) and slack.tolist() == [0.0, 0.0]
    assert scale_solution(slacked, 0.5).deltas.tolist() == [0.1, 0.0]
    assert scale_solution(slacked, 0.5).gammas.tolist() == [0.0, 0.2]
    mixed = mix_solutions(slacked, ExchangeSolution.empty(2), 0.5)
    assert mixed.deltas.tolist() == [0.1, 0.0] and mixed.gammas.tolist() == [0.0, 0.2]
    with pytest.raises(ValueError, match="one per agent"):
        ExchangeSolution(n=2, columns={}, deltas=np.zeros(3))
    with pytest.raises(ValueError, match="agent count"):
        ExchangeSolution(n=-1, columns={})


def test_balance_bounds_equal_the_np_full_form():
    def full_form(sol, eps):  # the bounds as built while a missing slack was None
        lo = np.full(sol.n, -eps)
        hi = np.full(sol.n, eps)
        if sol.deltas is not None:
            lo -= np.asarray(sol.deltas)
        if sol.gammas is not None:
            hi += np.asarray(sol.gammas)
        return lo, hi

    rng = np.random.default_rng(5)
    for n in (1, 2, 7):
        for eps in (1e-100, 0.01, 0.3):
            draws = [(None, None), (rng.uniform(0, 1, n), None), (None, rng.uniform(0, 1, n)),
                     (rng.uniform(0, 1, n), rng.exponential(1e-3, n))]
            for deltas, gammas in draws:
                sol = ExchangeSolution(n=n, columns={}, deltas=deltas, gammas=gammas)
                old = ExchangeSolution(n=n, columns={})
                old.deltas, old.gammas = deltas, gammas
                for new_bound, old_bound in zip(sol.balance_bounds(eps), full_form(old, eps)):
                    assert new_bound.tobytes() == old_bound.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(0.0, 1.0),
    x1=st.floats(0.0, 1.0),
    x2=st.floats(0.0, 1.0),
)
def test_evaluate_is_linear(alpha, x1, x2):
    inst = table_instance(3, {(0, 1): 0.9, (0, 2): 0.4, (1, 0): 0.5, (2, 1): 0.7})
    a = ExchangeSolution(n=3, columns={0: {frozenset({1, 2}): x1}, 1: {frozenset({0}): 1 - x1}})
    b = ExchangeSolution(n=3, columns={0: {frozenset({1}): x2}, 2: {frozenset({1}): x2}})
    from datex import mix_solutions

    mixed = mix_solutions(a, b, alpha)
    ra, rb, rm = (evaluate(inst, s) for s in (a, b, mixed))
    assert rm.welfare == pytest.approx(alpha * ra.welfare + (1 - alpha) * rb.welfare, abs=1e-9)
    np.testing.assert_allclose(
        rm.balance_residual,
        alpha * ra.balance_residual + (1 - alpha) * rb.balance_residual,
        atol=1e-9,
    )


# ---------------------------------------------------------------------------
# The shared column path: sparsify and the exact LP over gen_random columns
# ---------------------------------------------------------------------------


def _random_balanced_solution(inst, rng):
    """Random weights on a random subset of each agent's columns, scaled into eps-balance."""
    from datex.exact import _agent_columns

    cols = {}
    for i in range(inst.n):
        pool = _agent_columns(inst, i)
        if not pool:
            continue
        picked = rng.choice(len(pool), size=int(rng.integers(0, len(pool) + 1)), replace=False)
        weights = rng.uniform(0.0, 1.0, size=len(picked)) / max(len(picked), 1)
        if len(picked):
            cols[i] = {pool[c]: float(w) for c, w in zip(picked, weights)}
    sol = ExchangeSolution(n=inst.n, columns=cols)
    worst = float(np.max(np.abs(evaluate(inst, sol).balance_residual)))
    return scale_solution(sol, min(1.0, 0.999 * inst.epsilon / worst)) if worst > 0 else sol


column_path_cases = dict(
    n=st.integers(2, 5),
    kind=st.sampled_from(["symmetric", "table"]),
    seed=st.integers(0, 2**31 - 1),
    pick=st.integers(0, 2**31 - 1),
)


@settings(max_examples=25, deadline=None)
@given(**column_path_cases)
def test_evaluate_matches_column_loop_bit_for_bit(n, kind, seed, pick):
    from datex.instances import gen_random
    from datex.sharing import column_split

    inst = gen_random(n, 3, kind, seed=seed, epsilon=0.1)
    sol = _random_balanced_solution(inst, np.random.default_rng(pick))
    received, sent = np.zeros(n), np.zeros(n)
    for i, col, x in sol.iter_columns():
        u, split = column_split(inst, i, col)
        received[i] += x * u
        for j, h in split.items():
            sent[j] += x * h
    rep = evaluate(inst, sol)
    assert np.array_equal(rep.per_agent_utility, received)
    assert np.array_equal(rep.balance_residual, received - sent)


def _bincount_flows(inst, sol):
    """evaluate's (received, sent) as np.bincount over a column layout added them:
    column c gives util[c] to recv[c], and share s hands share[s] of column
    share_col[s] to share_row[s]."""
    from datex.sharing import column_split

    recv, util, share_row, share_col, share, x = [], [], [], [], [], []
    for i, col, w in sol.iter_columns():
        if w == 0.0:
            continue
        u, split = column_split(inst, i, col)
        share_row.extend(split)
        share_col.extend([len(x)] * len(split))
        share.extend(split.values())
        recv.append(i)
        util.append(u)
        x.append(w)
    idx = lambda ints: np.array(ints, dtype=np.intp)
    x = np.array(x, dtype=float)
    return (np.bincount(idx(recv), weights=x * np.array(util), minlength=inst.n),
            np.bincount(idx(share_row), weights=x[idx(share_col)] * np.array(share),
                        minlength=inst.n))


@pytest.mark.parametrize("seed", range(3))
def test_evaluate_matches_the_bincount_sums_on_all_five_models(seed):
    rng = np.random.default_rng(seed)
    kinds = set()
    for inst in five_model_instances(seed):
        cols = {}
        for i in range(inst.n):
            senders = inst.senders_of[i]
            pool = [frozenset(rng.choice(senders, size=k, replace=False).tolist())
                    for k in range(1, min(len(senders), 3) + 1)] if senders else []
            if isinstance(inst.utility, ContinuousConcave) and senders:
                pool += [FracColumn(y=tuple((j, float(rng.uniform(0.1, 1.0)))
                                            for j in sorted(senders[:k]))) for k in (1, 2)]
            if not pool:
                continue
            # a whole column with a zero-weight one beside it, or fractions summing below 1
            if rng.random() < 0.3:
                weights = [1.0] + [0.0] * (len(pool) - 1)
            else:
                weights = (rng.dirichlet(np.ones(len(pool))) * rng.uniform(0.2, 1.0)).tolist()
                weights[int(rng.integers(len(pool)))] = 0.0
            cols[i] = dict(zip(pool, weights))
        sol = ExchangeSolution(n=inst.n, columns=cols)
        kinds |= {type(col) for _, col, _ in sol.iter_columns()}
        received, sent = _bincount_flows(inst, sol)
        rep = evaluate(inst, sol)
        assert np.array_equal(rep.per_agent_utility, received)
        assert np.array_equal(rep.balance_residual, received - sent)
        assert rep.welfare == float(received.sum())
    assert kinds == {frozenset, FracColumn}


@settings(max_examples=25, deadline=None)
@given(**column_path_cases)
def test_sparsify_keeps_welfare_and_lp1_rows(n, kind, seed, pick):
    from datex import sparsify
    from datex.instances import gen_random

    inst = gen_random(n, 3, kind, seed=seed, epsilon=0.1)
    sol = _random_balanced_solution(inst, np.random.default_rng(pick))
    out = sparsify(inst, columns_of(sol))
    before, after = evaluate(inst, sol), evaluate(inst, out)
    assert after.welfare >= before.welfare - 1e-7
    assert out.column_count() <= 2 * inst.n + 1
    for dist in out.columns.values():
        assert sum(dist.values()) <= 1.0 + 1e-9
    assert np.max(np.abs(after.balance_residual), initial=0.0) <= inst.epsilon + 1e-9


@settings(max_examples=25, deadline=None)
@given(**column_path_cases)
def test_exact_lp_dominates_sparsify_on_its_columns(n, kind, seed, pick):
    from datex import exact_welfare_lp, sparsify
    from datex.instances import gen_random

    inst = gen_random(n, 3, kind, seed=seed, epsilon=0.1)
    _, lp_welfare = exact_welfare_lp(inst, relax_eps=inst.epsilon)
    sub = sparsify(inst, columns_of(_random_balanced_solution(inst, np.random.default_rng(pick))))
    assert lp_welfare >= evaluate(inst, sub).welfare - 1e-7


def test_explicit_table_monotonicity_check_matches_pairwise_loop():
    rng = np.random.default_rng(0)
    for trial in range(200):
        k = int(rng.integers(1, 6))
        vals = np.array([bin(m).count("1") / k for m in range(1 << k)])
        dips = rng.choice(np.arange(1, 1 << k), size=int(rng.integers(0, 3)))
        vals[dips] -= rng.uniform(0.0, 2.0 / k, size=len(dips))
        vals = np.clip(vals, 0.0, 1.0)
        monotone = all(vals[m] >= vals[m ^ (1 << b)] - 1e-9
                       for m in range(1 << k) for b in range(k) if m & (1 << b))
        try:
            ExplicitTable(senders=(tuple(range(1, k + 1)),), values=(vals,))
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == monotone, trial


def test_explicit_table_monotonicity_audit_random():
    from datex.instances import gen_random

    for seed in range(5):
        inst = gen_random(4, 3, "table", seed=seed)
        tab = inst.utility
        for i in range(4):
            vals, k = tab.values[i], len(tab.senders[i])
            for mask in range(1 << k):
                for b in range(k):
                    if mask & (1 << b):
                        assert vals[mask] >= vals[mask ^ (1 << b)] - 1e-9


# ---------------------------------------------------------------------------
# JSON schemas
# ---------------------------------------------------------------------------


def test_instance_json_roundtrip_all_models(two_agent_symmetric):
    from datex.instances import gen_core_gap, gen_random, gen_road, gen_x3c, grid_graph, make_x3c_yes
    from datex.instances import RoadSpec

    road = gen_road(RoadSpec(edges=grid_graph(8, 8, seed=1), radius=6, n_agents=4, seed=5))
    cases = [
        two_agent_symmetric,
        gen_random(4, 2, "table", seed=0),
        gen_x3c(make_x3c_yes(3, 1, seed=0)),
        gen_core_gap(6),
        road,
    ]
    for inst in cases:
        back = dio.instance_from_json(dio.instance_to_json(inst))
        assert back.n == inst.n and back.allowed == inst.allowed
        for i in range(inst.n):
            full = inst.full_set(i)
            assert utility(back, i, full) == pytest.approx(utility(inst, i, full), abs=1e-12)


def test_json_roundtrip_on_all_five_models():
    from datex import MwuConfig, exact_welfare_lp, get_oracle, solve_welfare
    from datex.mwu import practical_eta

    for inst in five_model_instances():
        obj = json.loads(json.dumps(dio.instance_to_json(inst)))
        back = dio.instance_from_json(obj)
        assert dio.instance_to_json(back) == obj
        assert (back.sharing, back.epsilon, back.seed) == (inst.sharing, inst.epsilon, inst.seed)
        solutions = [exact_welfare_lp(inst)[0]]
        if inst.utility.kind == "continuous_concave":  # the continuous oracle adds FracColumns
            normalized, _ = normalize_instance(inst)
            config = MwuConfig(max_iters=60, eta_override=practical_eta(inst.n, 60))
            solutions.append(solve_welfare(normalized, config, get_oracle("continuous"))[0])
            assert any(isinstance(col, FracColumn) for _, col, _ in solutions[-1].iter_columns())
        for sol in solutions:
            assert sol.column_count() > 0
            text = json.dumps(dio.solution_to_json(sol))
            again = dio.solution_from_json(json.loads(text))
            assert again.n == sol.n and again.columns == sol.columns  # same columns and weights


def test_json_roundtrip_of_explicit_weights_and_the_breakpoint_concave_kinds():
    """Explicit proportional [i, j, w] triples, variance_reduction and
    piecewise_linear specs come back from JSON text as they went in."""
    f = (ConcaveSpec(kind="variance_reduction", sigma2=0.8, scale=0.5),
         ConcaveSpec(kind="piecewise_linear", points=((0.0, 0.0), (1.0, 0.5), (3.0, 0.8))))
    inst = Instance(
        n=2,
        allowed=frozenset({(0, 1), (1, 0)}),
        utility=SymmetricWeighted(sizes={(0, 1): 1.5, (1, 0): 2.0}, f=f),
        sharing=SharingRuleSpec(kind="proportional", weights=((0, 1, 2.0), (1, 0, 0.25))),
        epsilon=0.1,
    )
    obj = json.loads(json.dumps(dio.instance_to_json(inst)))
    assert obj["sharing"]["weights"] == [[0, 1, 2.0], [1, 0, 0.25]]
    back = dio.instance_from_json(obj)
    assert back.sharing == inst.sharing
    assert back.utility.f == f and back.utility.sizes == inst.utility.sizes
    assert dio.instance_to_json(back) == obj


def test_instance_json_rejects_unknown_fields(two_agent_symmetric):
    obj = dio.instance_to_json(two_agent_symmetric)
    obj["surprise"] = 1
    with pytest.raises(dio.SchemaError):
        dio.instance_from_json(obj)
    obj2 = dio.instance_to_json(two_agent_symmetric)
    del obj2["epsilon"]
    with pytest.raises(dio.SchemaError):
        dio.instance_from_json(obj2)


def test_solution_json_roundtrip_and_strictness():
    sol = ExchangeSolution(
        n=3,
        columns={
            0: {frozenset({1, 2}): 0.5},
            1: {FracColumn(y=((0, 0.25), (2, 1.0))): 0.75},
        },
        deltas=np.array([0.0, 0.1, 0.0]),
    )
    back = dio.solution_from_json(dio.solution_to_json(sol))
    assert back.columns[0] == sol.columns[0]
    assert back.columns[1] == sol.columns[1]
    np.testing.assert_allclose(back.deltas, sol.deltas)
    assert back.gammas.tolist() == [0.0, 0.0, 0.0]
    bad = dio.solution_to_json(sol)
    bad["welfare"] = 3.0
    with pytest.raises(dio.SchemaError):
        dio.solution_from_json(bad)


def test_zero_slacks_write_null_and_read_back_as_zeros():
    # a zero slack is written as null, so a balanced solution file lists no zeros
    for sol in (ExchangeSolution.empty(3),
                ExchangeSolution(n=3, columns={}, deltas=np.zeros(3), gammas=[0.0, -0.0, 0.0])):
        obj = dio.solution_to_json(sol)
        assert obj["deltas"] is None and obj["gammas"] is None
        back = dio.solution_from_json(json.loads(json.dumps(obj)))
        assert back.deltas.tolist() == back.gammas.tolist() == [0.0, 0.0, 0.0]
    missing = dio.solution_from_json({"n": 2, "columns": []})
    assert missing.deltas.tolist() == missing.gammas.tolist() == [0.0, 0.0]
    obj = dio.solution_to_json(ExchangeSolution(n=2, columns={}, gammas=np.array([0.0, 0.5])))
    assert obj["deltas"] is None and obj["gammas"] == [0.0, 0.5]


def test_singleton_utility_table_matches_model_on_all_five_models():
    instances = five_model_instances()
    assert {inst.utility.kind for inst in instances} == {
        "explicit_table", "symmetric_weighted", "path_variance", "x3c_coverage",
        "continuous_concave",
    }
    for inst in instances:
        table = inst.singleton_utility
        assert table.shape == (inst.n, inst.n) and table.dtype == np.float64
        assert not table.flags.writeable and inst.singleton_utility is table
        for i in range(inst.n):
            for j in range(inst.n):
                if (i, j) in inst.allowed:
                    assert table[i, j] == utility(inst, i, frozenset({j})), (inst.utility.kind, i, j)
                else:
                    assert table[i, j] == 0.0


@pytest.mark.parametrize("correlation, rho", [("random", 0.5), ("local", 0.25)])
def test_road_singleton_table_equals_per_pair_values_bit_for_bit(correlation, rho):
    """The path-variance table is one prefix_values pass per receiver; on a
    correlated, normalized road instance it equals value(i, {j}) bit for bit."""
    from datex.instances import RoadSpec, gen_road, grid_graph

    raw = gen_road(RoadSpec(edges=grid_graph(12, 12, seed=0), radius=8, n_agents=20,
                            correlation=correlation, rho=rho, seed=31))
    inst, scale = normalize_instance(raw)
    assert scale != 1.0 and len(set(inst.utility.classes.tolist())) < len(inst.utility.edges)
    expected = np.zeros((inst.n, inst.n))
    for i, j in inst.allowed:
        expected[i, j] = inst.utility.value(i, frozenset({j}))
    assert inst.singleton_utility.tobytes() == expected.tobytes()


def test_table_prefix_values_equal_per_prefix_values():
    """Prefix masks by a running OR index the table: the same doubles as one
    value call per prefix, for one order and for a stack of m orders."""
    from datex.instances import gen_random

    rng = np.random.default_rng(13)
    for n, senders, seed in ((4, 3, 0), (9, 8, 1)):
        model = gen_random(n, senders, "table", seed=seed).utility
        for i, send in enumerate(model.senders):
            orders = np.array([rng.permutation(send) for _ in range(5)])
            got = model.prefix_values(i, orders)
            assert got.shape == orders.shape and got.dtype == np.float64
            assert got.tolist() == [[model.value(i, frozenset(order[:c].tolist()))
                                     for c in range(1, len(send) + 1)] for order in orders]
            assert model.prefix_values(i, orders[0]).tolist() == got[0].tolist()
    alien = next(j for j in range(n) if j not in model.senders[0])
    with pytest.raises(ValueError, match=f"sender {alien} not permitted for agent 0"):
        model.prefix_values(0, [model.senders[0][0], alien])


@pytest.mark.parametrize("n", range(2, 9))
def test_table_singletons_are_the_entries_at_each_senders_bit(n):
    from datex.instances import gen_random

    for seed in range(4):
        inst = gen_random(n, 3, "table", seed=seed)
        expected = np.zeros((inst.n, inst.n))
        for i, j in inst.allowed:
            expected[i, j] = inst.utility.value(i, frozenset({j}))
        assert (inst.singleton_utility == expected).all()


def _path_variance_reference(model, i):
    """The receiver's path variances, donor counts and sample count, built
    per call from the model's fields."""
    path = np.asarray(model.paths[i], dtype=int)
    return model.sigma2[path], model._class_counts[:, model.classes[path]], float(model.z[i])


def test_path_variance_formulas_equal_their_per_call_forms():
    """value, prefix_values and baseline_variance read the memoized z_i and
    baseline; they give the doubles of the formulas that recompute both."""
    from datex.instances import RoadSpec, gen_road, grid_graph

    rng = np.random.default_rng(29)
    edges = grid_graph(12, 12, seed=0)
    for corr, rho, seed in (("none", 0.0, 3), ("random", 0.5, 4), ("local", 0.25, 5)):
        inst, _ = normalize_instance(gen_road(RoadSpec(edges=edges, radius=8, n_agents=20,
                                                       correlation=corr, rho=rho, seed=seed)))
        model = inst.utility
        for i in range(inst.n):
            sig, donors, z = _path_variance_reference(model, i)
            assert model.baseline_variance(i) == float(np.sum(sig / z))
            send = inst.senders_of[i]
            if not send:
                continue
            orders = np.array([rng.permutation(send) for _ in range(3)])
            cum = np.cumsum(donors[orders], axis=-2)
            ref = (np.sum(sig / z) - np.sum(sig / (z + cum), axis=-1)) / model.scale
            assert model.prefix_values(i, orders).tolist() == ref.tolist()
            for size in {1, int(rng.integers(1, len(send) + 1)), len(send)}:
                subset = frozenset(int(j) for j in rng.choice(send, size=size, replace=False))
                added = donors[sorted(subset)].sum(axis=0)
                ref = float(np.sum(sig / z) - np.sum(sig / (z + added))) / model.scale
                assert model.value(i, subset) == ref
            assert model.value(i, frozenset()) == 0.0


@pytest.mark.parametrize("field", ["paths", "z", "sigma2", "classes"])
def test_path_variance_lengths_must_match_agents_and_edges(field):
    from dataclasses import replace

    from datex.instances import RoadSpec, gen_road, grid_graph

    road = gen_road(RoadSpec(edges=grid_graph(5, 5, seed=1), radius=3, n_agents=4, seed=1))
    model = road.utility
    short = replace(model, **{field: getattr(model, field)[:-1]})
    with pytest.raises(ValueError, match="path_variance needs one"):
        Instance(n=road.n, allowed=road.allowed, utility=short, sharing=road.sharing)


def test_continuous_concave_json_ignores_legacy_floor():
    inst = next(i for i in five_model_instances() if i.utility.kind == "continuous_concave")
    obj = dio.instance_to_json(inst)
    assert set(obj["utility"]) == {"kind", "sizes", "f"}
    obj["utility"]["floor"] = 1e-6  # written by versions that stored a positivity floor
    back = dio.instance_from_json(obj)
    assert back.utility.sizes == inst.utility.sizes and back.utility.f == inst.utility.f


def test_continuous_concave_keeps_its_class_through_rescaling_and_misreports():
    from datex import Misreport, apply_misreport

    inst = next(i for i in five_model_instances() if i.utility.kind == "continuous_concave")
    normalized, scale = normalize_instance(inst)
    assert scale != 1.0
    i, j = min(inst.allowed)
    reported = [normalized,
                apply_misreport(inst, Misreport(agent=i, kind="scale", factor=0.5)),
                apply_misreport(inst, Misreport(agent=j, kind="hide", hide_from=(i,)))]
    for other in reported:
        assert type(other.utility) is ContinuousConcave
        assert other.utility.kind == "continuous_concave"
        assert dio.instance_to_json(other)["utility"]["kind"] == "continuous_concave"
    assert reported[2].utility.sizes[(i, j)] == 0.0 < inst.utility.sizes[(i, j)]


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**31 - 1))
def test_knapsack_solve_welfare_is_deterministic(n, seed):
    from datex import MwuConfig, get_oracle, solve_welfare
    from datex.mwu import practical_eta
    from datex.instances import gen_random

    inst, _ = normalize_instance(gen_random(n, 3, "symmetric", seed=seed, epsilon=0.1))
    config = MwuConfig(delta=1.0 / 3.0, max_iters=120, eta_override=practical_eta(n, 120))
    runs = [solve_welfare(inst, config, get_oracle("knapsack", eps=0.1)) for _ in range(2)]
    (sol_a, rep_a), (sol_b, rep_b) = runs
    assert rep_a.welfare == rep_b.welfare
    assert sol_a.columns == sol_b.columns

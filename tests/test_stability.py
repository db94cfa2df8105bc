from __future__ import annotations

import itertools
import math
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from datex import (
    ConcaveSpec,
    ContinuousConcave,
    DegenerateInstanceError,
    ExchangeSolution,
    ExplicitTable,
    Misreport,
    apply_misreport,
    check_2_stability,
    evaluate,
    greedy_cycle_canceling,
    greedy_matching,
    mix_solutions,
    normalize_instance,
    reported_singletons,
    strategyproofness_fuzz,
    utility,
)
from datex import stability
from datex.instances import CORRELATIONS, RoadSpec, gen_core_gap, gen_random, gen_road, grid_graph
from datex.model import EQ_TOL
from datex.stability import _shortest_lex_cycle, sample_misreport

from conftest import table_instance


# ---------------------------------------------------------------------------
# Greedy matching and 2-stability
# ---------------------------------------------------------------------------


def test_matching_symmetric_pair():
    inst = table_instance(2, {(0, 1): 0.5, (1, 0): 0.5})
    rep = evaluate(inst, greedy_matching(inst))
    np.testing.assert_allclose(rep.per_agent_utility, [0.5, 0.5])


def test_matching_asymmetric_pair_throttles_to_min():
    inst = table_instance(2, {(0, 1): 1.0, (1, 0): 0.5})
    sol = greedy_matching(inst)
    assert sol.columns[0][frozenset({1})] == pytest.approx(0.5)  # min(1, u_ji/u_ij)
    assert sol.columns[1][frozenset({0})] == pytest.approx(1.0)
    rep = evaluate(inst, sol)
    np.testing.assert_allclose(rep.per_agent_utility, [0.5, 0.5])
    assert np.max(np.abs(rep.balance_residual)) <= 1e-12


def test_matching_greedy_order_on_path():
    inst = table_instance(3, {(0, 1): 0.9, (1, 0): 0.9, (1, 2): 0.8, (2, 1): 0.8})
    sol = greedy_matching(inst)
    assert sorted(sol.columns) == [0, 1]  # c stays unmatched
    # equal u-hat on both pairs: the smaller pair (1, 2) wins over (2, 3)
    inst = table_instance(4, {(1, 2): 0.8, (2, 1): 0.5, (2, 3): 0.5, (3, 2): 0.7})
    sol = greedy_matching(inst)
    assert sorted(sol.columns) == [1, 2]
    assert sol.columns[1] == {frozenset({2}): 0.5 / 0.8}
    assert sol.columns[2] == {frozenset({1}): 1.0}


def test_greedy_matching_always_2_stable():
    for seed in range(100):
        inst = gen_random(6, 3, "symmetric", seed=seed)
        sol = greedy_matching(inst)
        assert check_2_stability(inst, sol) == []


def test_empty_solution_lists_positive_pairs(two_agent_unit):
    assert check_2_stability(two_agent_unit, ExchangeSolution.empty(2)) == [(0, 1)]


def pair_map_2_stability(instance, solution):
    """check_2_stability as it was written over a u-hat pair map: pairs i < j
    permitted both ways, in sorted order."""
    u = instance.singleton_utility.tolist()
    u_hat = {(i, j): min(u[i][j], u[j][i])
             for i, j in sorted(instance.allowed) if i < j and (j, i) in instance.allowed}
    current = evaluate(instance, solution).per_agent_utility
    return [(i, j) for (i, j), w in sorted(u_hat.items())
            if w > current[i] + EQ_TOL and w > current[j] + EQ_TOL]


def test_2_stability_equals_the_pair_map_form():
    rng = np.random.default_rng(0)
    instances = [gen_random(n, k, kind, seed=seed) for seed in range(20)
                 for kind in ("table", "symmetric") for n, k in ((4, 2), (6, 3))]
    instances += [table_instance(5, {p: float(rng.choice([0.0, 0.25, 0.5]))
                                     for p in itertools.permutations(range(5), 2)
                                     if rng.random() < 0.6}) for _ in range(20)]
    instances += [gen_core_gap(n) for n in range(6, 12)]
    instances += [gen_road(RoadSpec(edges=grid_graph(8, 8, seed=1), radius=6, n_agents=8,
                                    seed=seed)) for seed in range(3)]
    for inst in instances:
        random_cols = {}
        for i in range(inst.n):
            senders = inst.senders_of[i]
            if senders and rng.random() < 0.7:
                pick = frozenset(j for j in senders if rng.random() < 0.5) or {senders[0]}
                random_cols[i] = {frozenset(pick): float(rng.uniform(0.0, 1.0))}
        for sol in (ExchangeSolution.empty(inst.n), greedy_matching(inst),
                    greedy_cycle_canceling(inst)[0],
                    ExchangeSolution(n=inst.n, columns=random_cols)):
            pairs = check_2_stability(inst, sol)
            assert pairs == pair_map_2_stability(inst, sol)
            assert all(type(i) is int and type(j) is int for i, j in pairs)


# ---------------------------------------------------------------------------
# Greedy cycle canceling
# ---------------------------------------------------------------------------


def test_cycle_canceling_three_cycle_example():
    # hop utilities 0.6, 0.9, 0.3 -> u_C = 0.3, x = (0.5, 1/3, 1)
    inst = table_instance(3, {(1, 0): 0.6, (2, 1): 0.9, (0, 2): 0.3})
    sol, cycles = greedy_cycle_canceling(inst)
    assert cycles == [[0, 1, 2]]
    assert sol.columns[1][frozenset({0})] == pytest.approx(0.5)
    assert sol.columns[2][frozenset({1})] == pytest.approx(1.0 / 3.0)
    assert sol.columns[0][frozenset({2})] == pytest.approx(1.0)
    rep = evaluate(inst, sol)
    np.testing.assert_allclose(rep.per_agent_utility, 0.3)
    assert np.max(np.abs(rep.balance_residual)) <= 1e-9


def test_cycle_canceling_two_cycle_matches_pair_trade():
    inst = table_instance(2, {(0, 1): 1.0, (1, 0): 0.5})
    cyc_sol, cycles = greedy_cycle_canceling(inst)
    match_sol = greedy_matching(inst)
    assert cycles == [[0, 1]]
    assert cyc_sol.columns == match_sol.columns


def test_cycle_canceling_processes_disjoint_cycles_by_value():
    inst = table_instance(4, {(0, 1): 0.9, (1, 0): 0.9, (2, 3): 0.4, (3, 2): 0.4})
    _, cycles = greedy_cycle_canceling(inst)
    assert cycles == [[0, 1], [2, 3]]


def smallest_girth_cycle(graph):
    """Reference pick: among the shortest simple cycles, each rotated to start
    at its smallest node, the lexicographically smallest sequence."""
    girth = next(k for k in range(1, len(graph) + 1)
                 if any(nx.simple_cycles(graph, length_bound=k)))
    rotated = [c[c.index(min(c)):] + c[:c.index(min(c))]
               for c in nx.simple_cycles(graph, length_bound=girth)]
    return min(rotated)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_shortest_lex_cycle_is_the_smallest_simple_cycle(data):
    n = data.draw(st.integers(2, 12), label="n")
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges")
    graph = nx.DiGraph(edges)
    assume(not nx.is_directed_acyclic_graph(graph))
    edge = np.zeros((n, n), dtype=bool)
    edge[tuple(zip(*edges))] = True
    assert _shortest_lex_cycle(edge) == smallest_girth_cycle(graph)


def exhaustive_bottleneck(inst, active):
    """Largest bottleneck u_C over every simple cycle on the agents in `active`."""
    edges = {}
    for (i, j) in inst.allowed:
        w = utility(inst, i, frozenset({j}))
        if w > 0:
            edges[(j, i)] = w
    best = 0.0
    for r in range(2, len(active) + 1):
        for combo in itertools.permutations(sorted(active), r):
            if combo[0] != min(combo):
                continue
            ws = []
            for t in range(r):
                e = (combo[t], combo[(t + 1) % r])
                if e not in edges:
                    break
                ws.append(edges[e])
            else:
                best = max(best, min(ws))
    return best


def test_first_cycle_is_bottleneck_optimal():
    """Every canceled cycle, not only the first, is the best on the agents left."""
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(3, 8))
        u_map = {
            (i, j): float(rng.uniform(0.05, 1.0))
            for i in range(n) for j in range(n)
            if i != j and rng.random() < 0.5
        }
        if not u_map:
            continue
        inst = table_instance(n, u_map)
        sol, cycles = greedy_cycle_canceling(inst)
        active = set(range(n))
        for cycle in cycles:
            got = min(
                utility(inst, cycle[(t + 1) % len(cycle)], frozenset({cycle[t]}))
                for t in range(len(cycle))
            )
            assert got == exhaustive_bottleneck(inst, active)
            active -= set(cycle)
        assert exhaustive_bottleneck(inst, active) == 0.0  # no cycle left
        rep = evaluate(inst, sol)
        assert np.max(np.abs(rep.balance_residual)) <= 1e-9  # exact balance


def bisection_cycle_canceling(inst):
    """Reference: each round's threshold by bisection over the sorted edge
    weights, testing each candidate for a directed cycle."""
    u = inst.singleton_utility.tolist()
    active = set(range(inst.n))
    cols, cycles = {}, []
    while True:
        edge_w = {(j, i): u[i][j] for i, j in inst.allowed
                  if i in active and j in active and u[i][j] > 0.0}
        if not edge_w or nx.is_directed_acyclic_graph(nx.DiGraph(list(edge_w))):
            break
        weights = sorted(set(edge_w.values()))
        lo, hi = 0, len(weights) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            if nx.is_directed_acyclic_graph(
                    nx.DiGraph([e for e, w in edge_w.items() if w >= weights[mid]])):
                hi = mid - 1
            else:
                tau, lo = weights[mid], mid + 1
        cycle = smallest_girth_cycle(nx.DiGraph([e for e, w in edge_w.items() if w >= tau]))
        hops = [(cycle[t], cycle[(t + 1) % len(cycle)]) for t in range(len(cycle))]
        u_c = min(edge_w[h] for h in hops)
        for sender, receiver in hops:
            cols[receiver] = {frozenset({sender}): u_c / edge_w[(sender, receiver)]}
        cycles.append(cycle)
        active -= set(cycle)
    return cols, cycles


def assert_matches_bisection(inst):
    sol, cycles = greedy_cycle_canceling(inst)
    ref_cols, ref_cycles = bisection_cycle_canceling(inst)
    assert cycles == ref_cycles
    assert list(sol.columns.items()) == list(ref_cols.items())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cycle_canceling_matches_the_threshold_bisection(data):
    """Ties and pairs permitted both ways at zero utility included."""
    n = data.draw(st.integers(2, 9), label="n")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    u_map = data.draw(st.dictionaries(st.sampled_from(pairs),
                                      st.sampled_from([0.0, 0.25, 0.5, 1.0])), label="u")
    assert_matches_bisection(table_instance(n, u_map))


@pytest.mark.parametrize("correlation", CORRELATIONS)
def test_cycle_canceling_matches_the_threshold_bisection_on_road(correlation):
    edges = grid_graph(12, 12, seed=0)
    rho = 0.0 if correlation == "none" else 0.5
    for seed in range(2):
        inst = gen_road(RoadSpec(edges=edges, radius=8, n_agents=20,
                                 correlation=correlation, rho=rho, seed=seed))
        assert_matches_bisection(inst)


# ---------------------------------------------------------------------------
# Mixing
# ---------------------------------------------------------------------------


def test_mix_endpoints(two_agent_unit):
    full = ExchangeSolution(n=2, columns={0: {frozenset({1}): 1.0}, 1: {frozenset({0}): 1.0}})
    empty = ExchangeSolution.empty(2)
    assert mix_solutions(full, empty, 1.0).columns == full.columns
    assert mix_solutions(full, empty, 0.0).column_count() == 0


def test_mix_half_welfare(two_agent_unit):
    full = ExchangeSolution(n=2, columns={0: {frozenset({1}): 1.0}, 1: {frozenset({0}): 1.0}})
    half = ExchangeSolution(n=2, columns={0: {frozenset({1}): 0.5}, 1: {frozenset({0}): 0.5}})
    mixed = mix_solutions(full, half, 0.5)
    assert evaluate(two_agent_unit, mixed).welfare == pytest.approx(1.5, abs=1e-12)


def test_mix_rejects_mismatched_sizes():
    with pytest.raises(ValueError, match="different instances"):
        mix_solutions(ExchangeSolution.empty(2), ExchangeSolution.empty(3), 0.5)


# ---------------------------------------------------------------------------
# Misreports
# ---------------------------------------------------------------------------


def test_identity_misreports_are_noops():
    inst = gen_random(4, 3, "symmetric", seed=0)
    assert apply_misreport(inst, Misreport(agent=1, kind="scale", factor=1.0)) is inst
    assert apply_misreport(inst, Misreport(agent=1, kind="hide", hide_from=())) is inst


def test_scale_misreport_lowers_pointwise():
    inst = gen_random(4, 3, "symmetric", seed=1)
    reported = apply_misreport(inst, Misreport(agent=0, kind="scale", factor=0.5))
    full = inst.full_set(0)
    assert utility(reported, 0, full) == pytest.approx(0.5 * utility(inst, 0, full))
    for j in range(1, 4):
        other_full = inst.full_set(j)
        assert utility(reported, j, other_full) == pytest.approx(utility(inst, j, other_full))


@pytest.mark.parametrize("model", ["symmetric", "table"])
def test_scale_misreport_to_zero_reports_nothing(model):
    inst = gen_random(5, 3, model, seed=5)
    reported = apply_misreport(inst, Misreport(agent=1, kind="scale", factor=0.0))
    for size in range(len(inst.senders_of[1]) + 1):
        for S in itertools.combinations(inst.senders_of[1], size):
            assert utility(reported, 1, frozenset(S)) == 0.0
    assert utility(inst, 1, inst.full_set(1)) > 0.0


def test_hide_all_data_zeroes_contributions():
    inst = gen_random(4, 3, "symmetric", seed=2)
    receivers = inst.receivers_of[0]
    reported = apply_misreport(inst, Misreport(agent=0, kind="hide", hide_from=tuple(receivers)))
    for j in receivers:
        assert utility(reported, j, frozenset({0})) == 0.0
        full = inst.full_set(j)
        assert utility(reported, j, full) <= utility(inst, j, full) + 1e-12


def test_hide_misreport_on_tables_matches_subset_drop():
    for n, senders, seed in ((4, 3, 3), (6, 5, 1), (9, 8, 2)):  # up to 8 senders
        inst = gen_random(n, senders, "table", seed=seed)
        source = [vals.copy() for vals in inst.utility.values]
        for agent in range(n):
            receivers = inst.receivers_of[agent]
            hide = receivers[::2]  # several receivers where the agent has three or more
            reported = apply_misreport(inst, Misreport(agent=agent, kind="hide", hide_from=hide))
            for j in range(n):
                for size in range(1, len(inst.senders_of[j]) + 1):
                    for S in itertools.combinations(inst.senders_of[j], size):
                        S = frozenset(S)
                        kept = S - {agent} if j in hide else S
                        assert utility(reported, j, S) == utility(inst, j, kept)
            # the hide writes through reshaped views of copies, never of the source
            assert all(np.array_equal(a, b) for a, b in zip(inst.utility.values, source))


def test_misreport_condition_errors():
    inst = gen_random(4, 3, "symmetric", seed=4)
    with pytest.raises(ValueError, match="condition 1"):
        Misreport(agent=0, kind="scale", factor=1.2)
    with pytest.raises(ValueError, match="condition 3"):
        apply_misreport(inst, Misreport(agent=0, kind="hide", hide_from=(0,)))


def test_core_gap_hide_kills_long_cycle():
    inst = gen_core_gap(6)
    n = inst.n
    # agent n-1 hides its data from its cycle receiver n-2
    reported = apply_misreport(inst, Misreport(agent=n - 1, kind="hide", hide_from=(n - 2,)))
    assert utility(reported, n - 2, frozenset({n - 1})) == 0.0
    _, cycles = greedy_cycle_canceling(reported)
    assert all(len(c) == 2 for c in cycles)  # only the heavy pair remains


# ---------------------------------------------------------------------------
# Strategyproofness fuzzing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["cycle_cancel", "greedy_match"])
def test_fuzz_no_violations_smoke(algorithm):
    for seed in range(6):
        inst = gen_random(5, 3, "symmetric", seed=seed)
        assert strategyproofness_fuzz(inst, algorithm, trials=25, seed=seed) == []


def test_fuzz_flags_a_manipulable_algorithm():
    # sanity check that the harness can catch violations at all: an
    # 'algorithm' that rewards hiding is flagged via a hand-built misreport
    inst = table_instance(3, {(0, 1): 0.6, (1, 0): 0.6, (0, 2): 0.3, (2, 0): 0.3})
    truthful = evaluate(inst, greedy_matching(inst)).per_agent_utility
    mis = Misreport(agent=2, kind="scale", factor=0.5)
    reported = apply_misreport(inst, mis)
    perceived = evaluate(reported, greedy_matching(reported)).per_agent_utility
    assert perceived[2] <= truthful[2] + 1e-9  # greedy matching stays truthful


# ---------------------------------------------------------------------------
# The fuzz on the reported singleton table
# ---------------------------------------------------------------------------


F_SPECS = (ConcaveSpec(kind="sqrt"), ConcaveSpec(kind="power", c=0.37),
           ConcaveSpec(kind="capped_linear", cap=0.8), ConcaveSpec(kind="variance_reduction"),
           ConcaveSpec(kind="piecewise_linear", points=((0.0, 0.0), (0.5, 0.7), (2.0, 1.1))))


def drawn_instance(data):
    """A normalized table, symmetric or continuous instance; a table may carry a
    u_i(empty) entry off 0 by less than EQ_TOL."""
    kind = data.draw(st.sampled_from(["table", "symmetric", "continuous"]), label="kind")
    n = data.draw(st.integers(2, 7), label="n")
    senders = data.draw(st.integers(1, n - 1), label="senders")
    inst = gen_random(n, senders, "table" if kind == "table" else "symmetric",
                      seed=data.draw(st.integers(0, 2**20), label="seed"))
    if kind != "table":
        f = tuple(data.draw(st.lists(st.sampled_from(F_SPECS), min_size=n, max_size=n),
                            label="f"))
        cls = ContinuousConcave if kind == "continuous" else type(inst.utility)
        inst = replace(inst, utility=cls(sizes=dict(inst.utility.sizes), f=f))
    try:
        inst = normalize_instance(inst)[0]
    except DegenerateInstanceError:  # every utility 0
        assume(False)
    if kind == "table":
        empty = data.draw(st.sampled_from([0.0, 5e-10, -3e-10]), label="u(empty)")
        model = inst.utility
        values = tuple(np.concatenate([[empty], v[1:]]) for v in model.values)
        inst = replace(inst, utility=ExplicitTable(model.senders, values))
    return inst


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reported_singletons_equal_the_misreported_instances_table(data):
    inst = drawn_instance(data)
    agent = data.draw(st.integers(0, inst.n - 1), label="agent")
    receivers = inst.receivers_of[agent]
    misreports = [Misreport(agent=agent, kind="scale", factor=factor) for factor in (
        0.0, 1.0, data.draw(st.floats(0.0, 1.0), label="factor"))]
    if receivers:
        one = data.draw(st.sampled_from(receivers), label="receiver")
        misreports += [Misreport(agent=agent, kind="hide", hide_from=(one,)),
                       Misreport(agent=agent, kind="hide", hide_from=receivers)]
    for mis in misreports:
        expected = apply_misreport(inst, mis).singleton_utility
        assert reported_singletons(inst, mis).tolist() == expected.tolist(), mis


def model_path_trials(inst, algorithm, trials, seed):
    """The fuzz's trials the model-level way: per trial a misreported instance,
    the algorithm on it and a full evaluate.  One (agent, misreport, U_before,
    U_after) row per trial."""
    run = {"cycle_cancel": lambda reported: greedy_cycle_canceling(reported)[0],
           "greedy_match": greedy_matching}[algorithm]
    truthful = evaluate(inst, run(inst)).per_agent_utility
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(trials):
        agent = int(rng.integers(0, inst.n))
        mis = sample_misreport(inst, agent, rng)
        reported = apply_misreport(inst, mis)
        perceived = float(evaluate(reported, run(reported)).per_agent_utility[agent])
        rows.append((agent, mis, float(truthful[agent]), perceived))
    return rows


@pytest.mark.parametrize("algorithm", ["cycle_cancel", "greedy_match"])
@pytest.mark.parametrize("kind", ["table", "symmetric"])
def test_fuzz_trials_equal_the_model_path_trial_by_trial(monkeypatch, algorithm, kind):
    # with no tolerance left every trial is a "violation", so the fuzz lists them all
    monkeypatch.setattr(stability, "EQ_TOL", -math.inf)
    checked = 0
    for seed in range(6):
        inst, _ = normalize_instance(gen_random(4 + seed % 4, 3, kind, seed=seed))
        rows = [(v["agent"], v["misreport"], v["U_before"], v["U_after"])
                for v in strategyproofness_fuzz(inst, algorithm, trials=20, seed=seed)]
        assert rows == model_path_trials(inst, algorithm, 20, seed)
        checked += sum(row[3] > 0.0 for row in rows)
    assert checked >= 20  # trials where the misreporter still trades

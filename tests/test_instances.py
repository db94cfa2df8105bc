from __future__ import annotations

import math
import signal
from collections import deque

import numpy as np
import pytest

from datex import (
    evaluate,
    shares,
    utility,
)
from datex.instances import (
    RoadSpec,
    X3CSpec,
    _random_allowed,
    core_gap_long_cycle,
    core_gap_pair,
    gen_core_gap,
    gen_random,
    gen_road,
    gen_x3c,
    grid_graph,
    is_exactly_coverable,
    load_edge_csv,
    make_x3c_no,
    make_x3c_yes,
    x3c_case1_solution,
)
from datex import io as dio


# ---------------------------------------------------------------------------
# X3C
# ---------------------------------------------------------------------------


def test_x3c_spec_validation():
    with pytest.raises(ValueError, match="3 universe"):
        X3CSpec(m=1, k=1, sets=(frozenset({0, 1}),))
    with pytest.raises(ValueError, match="partition"):
        X3CSpec(
            m=2, k=2,
            sets=(frozenset({0, 1, 2}), frozenset({2, 3, 4})),
            known_cover=(0, 1),
        )


def test_x3c_yes_and_no_certified_by_exhaustive_cover():
    for seed in range(5):
        yes = make_x3c_yes(4, 1, seed=seed)
        assert is_exactly_coverable(yes)
        no = make_x3c_no(4, 2, seed=seed)
        assert not is_exactly_coverable(no)


def test_x3c_coverage_shares_closed_form():
    # two chosen sets sharing an element split it 1/2 each
    sets = (frozenset({0, 1, 2}), frozenset({0, 1, 2}), frozenset({0, 1, 2}))
    spec = X3CSpec(m=3, k=1, sets=sets)
    inst = gen_x3c(spec)
    model = inst.utility
    S = frozenset({0, 1})  # p_0 and p_1: universe covered twice, dummies once
    h = shares(inst, model.w, S)
    for a in S:
        assert h[a] == pytest.approx(3 * 0.5 + 1.0)  # 3 shared + own dummy
    assert sum(h.values()) == pytest.approx(utility(inst, model.w, S), abs=1e-9)


def test_x3c_singleton_coverage_counts():
    spec = make_x3c_yes(3, 1, seed=0)
    inst = gen_x3c(spec)
    model = inst.utility
    # c_e(S) = 1 everywhere when a single p agent contributes
    h = shares(inst, model.w, frozenset({0}))
    assert h[0] == pytest.approx(utility(inst, model.w, frozenset({0})))


def test_x3c_fixed_utilities():
    spec = make_x3c_yes(3, 2, seed=1)
    inst = gen_x3c(spec)
    model = inst.utility
    assert utility(inst, 0, frozenset({model.z1})) == pytest.approx(4.0)
    assert utility(inst, model.m, frozenset({model.z2})) == pytest.approx(1.0)
    assert utility(inst, model.z1, frozenset({model.w})) == pytest.approx(3.5 * spec.k)
    assert utility(inst, model.z2, frozenset({model.w})) == pytest.approx(spec.m - spec.k / 2)


def test_x3c_case1_solution_balanced():
    spec = make_x3c_yes(4, 1, seed=7)
    inst = gen_x3c(spec)
    rep = evaluate(inst, x3c_case1_solution(inst, spec))
    assert rep.welfare == pytest.approx(3 * (spec.m + 3 * spec.k), abs=1e-9)
    assert np.max(np.abs(rep.balance_residual)) <= 1e-9


# ---------------------------------------------------------------------------
# Core gap
# ---------------------------------------------------------------------------


def test_core_gap_requires_m_at_least_three():
    with pytest.raises(ValueError):
        gen_core_gap(5)


def test_core_gap_fixed_values():
    inst = gen_core_gap(6)
    M = 3.0
    assert utility(inst, 0, frozenset({1, 5})) == pytest.approx(math.sqrt(M + 1))
    h = shares(inst, 0, frozenset({1, 5}))
    assert h[1] == pytest.approx(1.0 / math.sqrt(M + 1))
    rep = evaluate(inst, core_gap_long_cycle(inst))
    assert rep.welfare == pytest.approx(6.0, abs=1e-9)
    pair_rep = evaluate(inst, core_gap_pair(inst))
    assert pair_rep.per_agent_utility[0] == pytest.approx(math.sqrt(M))
    assert pair_rep.per_agent_utility[5] == pytest.approx(math.sqrt(M))


@pytest.mark.parametrize("n", [6, 11, 27])
def test_core_gap_long_cycle_welfare_is_n(n):
    inst = gen_core_gap(n)
    rep = evaluate(inst, core_gap_long_cycle(inst))
    assert rep.welfare == pytest.approx(float(n), abs=1e-9)
    assert np.max(np.abs(rep.balance_residual)) <= 1e-9


# ---------------------------------------------------------------------------
# Random corpus
# ---------------------------------------------------------------------------


def test_gen_random_deterministic():
    a = gen_random(6, 3, "symmetric", seed=5)
    b = gen_random(6, 3, "symmetric", seed=5)
    assert a.allowed == b.allowed
    assert a.utility.sizes == b.utility.sizes


def test_gen_random_zero_senders():
    inst = gen_random(4, 0, "symmetric", seed=0)
    assert not inst.allowed


def test_gen_random_tables_are_submodular():
    rng = np.random.default_rng(0)
    for seed in range(6):
        inst = gen_random(5, 4, "table", seed=seed)
        for i in range(5):
            senders = inst.senders_of[i]
            if len(senders) < 3:
                continue
            for _ in range(40):
                size = int(rng.integers(2, len(senders) + 1))
                S = frozenset(int(x) for x in rng.choice(senders, size=size, replace=False))
                T = frozenset(
                    int(x) for x in rng.choice(sorted(S), size=rng.integers(1, len(S)), replace=False)
                )
                outside = [j for j in senders if j not in S]
                if not outside:
                    continue
                q = int(rng.choice(outside))
                u = lambda W: utility(inst, i, W)
                assert u(S | {q}) - u(S) <= u(T | {q}) - u(T) + 1e-9


def _loop_draws(n, k, seed):
    """Each agent's (weights, sender covers) as gen_random(n, k, "table") draws
    them: the element weights, then one draw per sender and element, sender-major."""
    rng = np.random.default_rng(seed)
    _random_allowed(n, k, rng)
    for i in range(n):
        weights = rng.uniform(0.1, 1.0, size=8)
        weights /= weights.sum()
        yield weights, [int(sum(1 << e for e in range(8) if rng.random() < 0.4))
                        for _ in range(min(k, n - 1))]


def _loop_value(weights, covers, mask):
    """A table entry as the per-mask loop filled it: the senders' covers ORed bit
    by bit, then the covered elements' weights added in ascending order."""
    cov = 0
    for b in range(len(covers)):
        if mask & (1 << b):
            cov |= covers[b]
    return sum(weights[e] for e in range(8) if cov & (1 << e))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gen_random_tables_match_the_per_mask_loop_bit_for_bit(seed):
    for n, k in ((1, 0), (3, 2), (6, 5), (9, 8), (11, 10)):
        inst = gen_random(n, k, "table", seed=seed)
        for i, (weights, covers) in enumerate(_loop_draws(n, k, seed)):
            want = np.zeros(1 << len(covers))
            for mask in range(1, 1 << len(covers)):
                want[mask] = _loop_value(weights, covers, mask)
            got = inst.utility.values[i]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, k, i)


def test_gen_random_fills_tables_at_the_enumeration_cap_in_seconds():
    """21 agents, 20 senders each: 2^20 entries per table, which the per-mask
    loop took minutes to fill; sampled entries still match it bit for bit."""
    def timeout(signum, frame):
        raise TimeoutError("gen_random at the enumeration cap did not finish in 30 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        inst = gen_random(21, 20, "table", seed=7)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    rng = np.random.default_rng(8)
    for vals, (weights, covers) in zip(inst.utility.values, _loop_draws(21, 20, 7)):
        assert len(vals) == 1 << 20
        for mask in [0, (1 << 20) - 1, *rng.integers(0, 1 << 20, size=50).tolist()]:
            assert vals[mask] == _loop_value(weights, covers, mask), mask


# ---------------------------------------------------------------------------
# Road instances
# ---------------------------------------------------------------------------


def bfs_distance(edges, start):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj.get(v, ()):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def test_grid_graph_shape():
    edges = grid_graph(4, 3, seed=0, diagonal=0.0)
    assert len(edges) == 3 * 3 + 4 * 2  # horizontal + vertical


def test_load_edge_csv(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("node_a,node_b\nA,B\nB,C\nC,C\nA,B\n")
    edges = load_edge_csv(str(p))
    assert len(edges) == 2  # header skipped, loop and duplicate dropped


def test_gen_road_deterministic_and_shortest_paths():
    edges = grid_graph(10, 10, seed=2)
    spec = RoadSpec(edges=edges, radius=6, n_agents=8, seed=11)
    a, b = gen_road(spec), gen_road(spec)
    assert a.utility.paths == b.utility.paths
    np.testing.assert_allclose(a.utility.sigma2, b.utility.sigma2)

    model = a.utility
    for path in model.paths:
        assert len(path) >= 5
        nodes = [model.edges[path[0]][0], model.edges[path[0]][1]]
        if len(path) > 1:
            nxt = set(model.edges[path[1]])
            start = nodes[0] if nodes[1] in nxt else nodes[1]
        else:
            start = nodes[0]
        node = start
        for e in path:
            x, y = model.edges[e]
            node = y if node == x else x
        assert bfs_distance(model.edges, start)[node] == len(path)


def test_gen_road_sample_counts_in_range():
    edges = grid_graph(10, 10, seed=3)
    inst = gen_road(RoadSpec(edges=edges, radius=6, n_agents=10, seed=4))
    assert np.all(inst.utility.z >= 2) and np.all(inst.utility.z <= 9)
    assert inst.epsilon == 0.01
    assert inst.sharing.kind == "shapley_sampled" and inst.sharing.m == 10


def test_gen_road_rho_zero_means_singleton_classes():
    edges = grid_graph(8, 8, seed=1)
    inst = gen_road(RoadSpec(edges=edges, radius=6, n_agents=5, correlation="random", rho=0.0, seed=9))
    classes = inst.utility.classes
    assert len(set(classes.tolist())) == len(classes)


def test_gen_road_local_correlation_merges_incident_edges():
    edges = grid_graph(8, 8, seed=1)
    inst = gen_road(RoadSpec(edges=edges, radius=6, n_agents=5, correlation="local", rho=0.5, seed=9))
    classes = inst.utility.classes
    assert len(set(classes.tolist())) < len(classes)
    # class members share one variance draw
    model = inst.utility
    for c in set(classes.tolist()):
        vals = model.sigma2[classes == c]
        assert np.allclose(vals, vals[0])


def test_gen_road_agent_with_no_donors_has_zero_utility():
    edges = grid_graph(10, 10, seed=5)
    inst = gen_road(RoadSpec(edges=edges, radius=6, n_agents=6, seed=6))
    assert utility(inst, 0, frozenset()) == 0.0


def test_gen_road_too_small_neighborhood_errors():
    # a 3-node path cannot host length-5 shortest paths
    with pytest.raises(ValueError, match="too small"):
        gen_road(RoadSpec(edges=((0, 1), (1, 2)), radius=8, n_agents=2, seed=0))


def test_road_roundtrips_through_json(tmp_path):
    edges = grid_graph(8, 8, seed=7)
    inst = gen_road(RoadSpec(edges=edges, radius=5, n_agents=4, seed=8))
    path = tmp_path / "road.json"
    dio.dump_instance(inst, str(path))
    back = dio.load_instance(str(path))
    for i in range(4):
        full = inst.full_set(i)
        assert utility(back, i, full) == pytest.approx(utility(inst, i, full), abs=1e-12)

from __future__ import annotations

import gc
import math
import signal
import weakref
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from datex import (
    ConcaveSpec,
    ContinuousConcave,
    ConvexCost,
    ExplicitTable,
    Instance,
    SharingRuleSpec,
    SymmetricWeighted,
    oracle_bruteforce,
    oracle_bucketing,
    oracle_continuous,
    oracle_imbalance,
    oracle_knapsack,
)
from datex import oracles
from datex.mwu import MwuConfig, practical_eta, solve_welfare
from datex.oracles import OracleResult, _knapsack_table, bucketing_alpha, get_oracle, oracle_value
from datex.instances import RoadSpec, gen_random, gen_road, grid_graph
from datex.model import normalize_instance, utility
from datex.sharing import shares

from conftest import table_instance


def prices_for(instance, i, values):
    """Agent i's price row; senders missing from values get 0."""
    q = np.zeros(instance.n)
    for j in instance.senders_of[i]:
        q[j] = values.get(j, 0.0)
    return q


def sqrt_instance(sizes_by_sender, n=None, continuous=False):
    n = n or (max(sizes_by_sender) + 1)
    sizes = {(0, j): s for j, s in sizes_by_sender.items()}
    f = tuple(ConcaveSpec(kind="sqrt") for _ in range(n))
    model = (
        ContinuousConcave(sizes=sizes, f=f)
        if continuous
        else SymmetricWeighted(sizes=sizes, f=f)
    )
    return Instance(
        n=n, allowed=frozenset(sizes),
        utility=model,
        sharing=SharingRuleSpec(kind="proportional", weights="size"),
    )


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------


def test_bruteforce_all_nonpositive(two_agent_unit):
    res = oracle_bruteforce(two_agent_unit, 0, prices_for(two_agent_unit, 0, {1: -0.5}))
    assert res.chosen == frozenset() and res.value == 0.0


def test_bruteforce_single_sender():
    inst = table_instance(2, {(0, 1): 0.5, (1, 0): 0.5})
    res = oracle_bruteforce(inst, 0, prices_for(inst, 0, {1: 1.0}))
    assert res.chosen == frozenset({1}) and res.value == pytest.approx(0.5)


def test_bruteforce_value_recomputable():
    inst = gen_random(6, 4, "table", seed=4)
    prices = prices_for(inst, 0, {j: 0.5 - 0.2 * j for j in inst.senders_of[0]})
    res = oracle_bruteforce(inst, 0, prices)
    assert res.value == pytest.approx(oracle_value(inst, 0, prices, res.chosen), abs=1e-9)


# ---------------------------------------------------------------------------
# Bucketing oracle
# ---------------------------------------------------------------------------


def test_bucketing_all_negative(two_agent_unit):
    res = oracle_bucketing(two_agent_unit, 0, prices_for(two_agent_unit, 0, {1: -2.0}))
    assert res.chosen == frozenset() and res.value == 0.0


def test_bucketing_single_positive_sender():
    inst = table_instance(2, {(0, 1): 0.5, (1, 0): 0.5})
    res = oracle_bucketing(inst, 0, prices_for(inst, 0, {1: 1.0}), eps=0.1)
    brute = oracle_bruteforce(inst, 0, prices_for(inst, 0, {1: 1.0}))
    assert res.chosen == frozenset({1})
    assert res.value == pytest.approx(brute.value, abs=1e-12)


def test_bucketing_requires_cross_monotone_rule(two_agent_symmetric):
    with pytest.raises(ValueError, match="cross-monotone"):
        oracle_bucketing(two_agent_symmetric, 0, prices_for(two_agent_symmetric, 0, {1: 1.0}))


def test_bucketing_ratio_and_sign_invariants():
    rng = np.random.default_rng(21)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(2, 11))
        inst = gen_random(n, min(n - 1, 7), "table", seed=500 + trial)
        i = int(rng.integers(0, n))
        senders = inst.senders_of[i]
        if not senders:
            continue
        q = {j: float(rng.normal()) for j in senders}
        prices = prices_for(inst, i, q)
        res = oracle_bucketing(inst, i, prices, eps=0.1)
        brute = oracle_bruteforce(inst, i, prices)
        assert all(q[j] > 0 for j in res.chosen)  # never keeps Q <= 0
        assert res.value == pytest.approx(oracle_value(inst, i, prices, res.chosen), abs=1e-9)
        assert res.value >= brute.value / bucketing_alpha(n, 0.1) - 1e-9
        checked += 1
    assert checked >= 40


def _bucketing_per_sender_loop(instance, i, prices, eps):
    """The bucketing oracle as a plain loop over senders, with u_i({j}) from
    the utility model and bucket k found by floor(log) plus two corrections."""
    n = instance.n
    senders = instance.senders_of[i]
    q_of = {j: float(prices[j]) for j in senders}
    u_of = {j: utility(instance, i, frozenset({j})) for j in senders}
    pos = [j for j in senders if q_of[j] > 0.0]
    best_single, single_val = frozenset(), 0.0
    for j in pos:
        if q_of[j] * u_of[j] > single_val:
            best_single, single_val = frozenset({j}), q_of[j] * u_of[j]
    if not pos or single_val <= 0.0:
        return frozenset(), 0.0, 0
    alpha_hat = bucketing_alpha(n, eps)
    delta = math.e - 1.0
    n_buckets = 3 * math.ceil(math.log(n / eps) / math.log(1.0 + delta))
    u_floor = eps * eps / (n * n)
    best_set, best_val = frozenset(), 0.0
    guesses = 0
    guess = n * single_val
    lo = single_val / (1.0 + eps)
    while guess >= lo:
        guesses += 1
        u0 = eps * guess / n
        buckets = {}
        for j in pos:
            if q_of[j] * u_of[j] < eps * guess / n or u_of[j] < u_floor or q_of[j] <= u0:
                continue
            k = int(math.floor(math.log(q_of[j] / u0) / math.log(1.0 + delta)))
            while u0 * (1.0 + delta) ** k >= q_of[j]:
                k -= 1
            while u0 * (1.0 + delta) ** (k + 1) < q_of[j]:
                k += 1
            if 0 <= k < n_buckets:
                buckets.setdefault(k, []).append(j)
        cand_set, cand_val = frozenset(), 0.0
        for k in sorted(buckets):
            b_set = frozenset(buckets[k])
            v_k = sum(q_of[j] * h for j, h in shares(instance, i, b_set).items())
            if v_k > cand_val:
                cand_set, cand_val = b_set, v_k
        if cand_val > best_val:
            best_set, best_val = cand_set, cand_val
        if cand_val >= guess / alpha_hat:
            break
        guess /= 1.0 + eps
    if single_val > best_val:
        best_set, best_val = best_single, single_val
    return best_set, best_val, guesses


def test_bucketing_matches_per_sender_loop_bit_for_bit():
    rng = np.random.default_rng(33)
    road = [
        normalize_instance(gen_road(RoadSpec(edges=grid_graph(8, 8, seed=0), radius=5,
                                             n_agents=12, seed=40 + k)))[0]
        for k in range(2)
    ]
    tables = [gen_random(int(rng.integers(3, 11)), 7, "table", seed=900 + k) for k in range(4)]
    draws = 0
    for trial in range(240):
        inst = road[trial // 2 % 2] if trial % 2 else tables[trial // 2 % 4]
        i = int(rng.integers(0, inst.n))
        if not inst.senders_of[i]:
            continue
        # prices around an MWU-like positive level, at scales from 1e-3 to 3
        scale = 10.0 ** rng.uniform(-3.0, 0.5)
        Q = rng.normal(loc=scale * rng.choice([0.0, 1.0]), scale=scale, size=(inst.n, inst.n))
        prices = Q[i]
        for eps in (0.1, 0.3):
            res = oracle_bucketing(inst, i, prices, eps=eps)
            assert (res.chosen, res.value, res.guesses) == _bucketing_per_sender_loop(
                inst, i, prices, eps
            ), (trial, eps)
            assert all(type(j) is int for j in res.chosen)
        draws += 1
    assert draws >= 200


def test_bucketing_rejects_a_price_row_that_overflows_the_first_guess():
    # n * max_j q_j u_ij = inf made the guess loop divide inf forever
    inst = gen_random(6, 3, "table", seed=3)
    q = prices_for(inst, 0, {j: 1e308 for j in inst.senders_of[0]})

    def timeout(signum, frame):
        raise TimeoutError("bucketing oracle did not terminate")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with pytest.raises(ValueError, match="finite first guess"):
            oracle_bucketing(inst, 0, q)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_best_singleton_matches_the_numpy_reduction():
    # the reference is the array form max(0, max_j q_j u_ij), whose NaN propagates
    inst = gen_random(7, 4, "symmetric", seed=11)
    rng = np.random.default_rng(5)
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308]
    for trial in range(300):
        i = trial % inst.n
        q = rng.uniform(-1.0, 2.0, inst.n)
        for j in rng.choice(inst.n, size=trial % 3, replace=False):
            q[j] = specials[rng.integers(len(specials))]
        senders = np.array(inst.senders_of[i], dtype=np.intp)
        expected = float((q[senders] * inst.singleton_utility[i][senders]).max(initial=0.0))
        if math.isfinite(inst.n * expected):
            assert oracles._best_singleton("bucketing", inst, i, q) == expected
        else:
            with pytest.raises(ValueError, match=f"got {inst.n * expected!r}"):
                oracles._best_singleton("bucketing", inst, i, q)


def test_bucketing_ties_on_bucket_edges_match_per_sender_loop():
    # prices placed exactly on the rule's boundaries: a price equal to the edge
    # u0 e^3 stays in bucket 2, a value q u equal to u0 stays in, and among equal
    # singletons below the utility floor the first sender is the fallback
    n, eps = 6, 0.1
    inst = table_instance(n, {(0, 1): 0.5, (0, 2): 0.3, (0, 3): 0.125,
                              (5, 0): 2e-4, (5, 1): 2e-4})
    u0 = eps * (n * (1.0 * 0.5)) / n  # the first guess is n times the best singleton
    edge3 = u0 * math.e**3
    assert 1.0 < edge3 and edge3 * 0.3 < 0.5 and (u0 * 8.0) * 0.125 == u0
    Q = np.zeros((n, n))
    for (i, j), v in {(0, 1): 1.0, (0, 2): edge3, (0, 3): u0 * 8.0, (5, 0): 1.0, (5, 1): 1.0}.items():
        Q[i, j] = v
    expected = {0: frozenset({1, 2, 3}), 5: frozenset({0})}
    for i, chosen in expected.items():
        res = oracle_bucketing(inst, i, Q[i], eps=eps)
        assert res.chosen == chosen
        assert (res.chosen, res.value, res.guesses) == _bucketing_per_sender_loop(inst, i, Q[i], eps)


def _assert_first_guess_pass_matches(inst, Q, eps):
    """Every agent's result from one first-guess pass over Q equals the
    single-agent oracle and the per-sender loop on (chosen, value, guesses)."""
    key = lambda res: (res.chosen, res.value, res.guesses)
    results = oracles.get_oracle("bucketing", eps).all_agents(inst, Q)
    first = oracles.bucketing_first_guesses(inst, range(inst.n), Q, eps)
    for i, res in enumerate(results):
        assert key(res) == key(oracle_bucketing(inst, i, Q[i], eps))
        assert key(res) == key(oracle_bucketing(inst, i, Q[i], eps, first[i]))
        assert key(res) == _bucketing_per_sender_loop(inst, i, Q[i], eps)
    return results


@pytest.fixture(scope="module")
def recorded_road_prices():
    """(instance, Q) at every price assembly of three short bucketing solves on
    road instances with uncorrelated, randomly and locally correlated edges."""
    from datex import mwu
    from datex.mwu import MwuConfig, solve_welfare

    recorded = []
    real = mwu.assemble_prices

    def recording(instance, *args):
        p, Q, threshold = real(instance, *args)
        recorded.append((instance, Q))
        return p, Q, threshold

    edges = grid_graph(8, 8, seed=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mwu, "assemble_prices", recording)
        for corr, rho, seed in (("none", 0.0, 60), ("random", 0.5, 61), ("local", 0.25, 62)):
            inst = normalize_instance(gen_road(RoadSpec(edges=edges, radius=5, n_agents=12,
                                                        correlation=corr, rho=rho, seed=seed)))[0]
            solve_welfare(inst, MwuConfig(max_iters=12, check_every=12),
                          oracles.get_oracle("bucketing"))
    return recorded


def test_first_guess_pass_replays_recorded_road_prices(recorded_road_prices):
    recorded = recorded_road_prices
    assert len(recorded) >= 30
    guesses = []
    for inst, Q in recorded:
        for eps in (0.1, 0.3):
            guesses += [res.guesses for res in _assert_first_guess_pass_matches(inst, Q, eps)]
    assert 0 in guesses and 1 in guesses


def test_valued_buckets_stay_below_their_singleton_bound(monkeypatch, recorded_road_prices):
    # a bucket's value sum_j q_j h_ij(b) is at most sum_j q_j u_ij on a
    # subadditive utility, which is what lets the oracle stop early
    valued = []
    real = oracles.shares

    def recording(instance, i, subset):
        out = real(instance, i, subset)
        valued.append((i, out))
        return out

    monkeypatch.setattr(oracles, "shares", recording)
    checked, tight = 0, 0.0
    assert len({id(inst) for inst, _ in recorded_road_prices}) == 3
    for inst, Q in recorded_road_prices:
        u = inst.singleton_utility
        for eps in (0.1, 0.3):
            valued.clear()
            oracles.get_oracle("bucketing", eps).all_agents(inst, Q)
            for i, split in valued:
                v = sum(Q[i, j] * h for j, h in split.items())
                ub = sum(Q[i, j] * u[i, j] for j in split)
                assert v <= ub * (1.0 + 1e-9), (i, sorted(split), v, ub)
                tight = max(tight, v / ub)
                checked += 1
    assert checked > 500 and tight > 0.99  # a one-sender bucket meets its bound


def _complementary_table(pairs):
    """Agent 0 receives from senders 1, 2, 3, with u_0 given per subset mask
    (bit b for sender b + 1); agents 1-3 receive nothing."""
    values = np.array([0.0] + [pairs[mask] for mask in range(1, 8)])
    return Instance(n=4, allowed=frozenset({(0, 1), (0, 2), (0, 3)}),
                    utility=ExplicitTable(senders=((1, 2, 3), (), (), ()),
                                          values=(values,) + (np.zeros(1),) * 3),
                    sharing=SharingRuleSpec(kind="shapley_exact"))


def test_bucketing_values_every_bucket_of_an_explicit_table():
    # senders 1 and 2 are worth 0.02 alone and 1 together: bucket {1, 2}'s
    # singleton bound 0.04 is below bucket {3}'s value 0.1, yet {1, 2} is worth 1
    inst = _complementary_table({1: 0.02, 2: 0.02, 3: 1.0, 4: 0.2, 5: 0.22, 6: 0.22, 7: 1.0})
    q = prices_for(inst, 0, {1: 1.0, 2: 1.0, 3: 0.5})
    first = oracles.bucketing_first_guesses(inst, [0], q[None, :], 0.1)[0]
    assert sorted(first.buckets.values()) == [[1, 2], [3]]
    pair = oracle_value(inst, 0, q, frozenset({1, 2}))
    assert pair > oracle_value(inst, 0, q, frozenset({3})) > 0.04 * (1.0 + 1e-9)
    res = oracle_bucketing(inst, 0, q, eps=0.1)
    assert (res.chosen, res.value) == (frozenset({1, 2}), pair)
    assert (res.chosen, res.value, res.guesses) == _bucketing_per_sender_loop(inst, 0, q, 0.1)


def test_bucketing_breaks_a_tie_between_buckets_by_the_smaller_index():
    # bucket {1} (price 0.5) and bucket {2, 3} (price 1, perfect substitutes)
    # are both worth 0.25; {2, 3} has the larger bound 0.5 and is valued first,
    # but the lower-priced bucket {1} wins, as in an ascending scan
    inst = _complementary_table({1: 0.5, 2: 0.25, 3: 0.75, 4: 0.25, 5: 0.75, 6: 0.25, 7: 0.75})
    q = prices_for(inst, 0, {1: 0.5, 2: 1.0, 3: 1.0})
    first = oracles.bucketing_first_guesses(inst, [0], q[None, :], 0.1)[0]
    low, high = sorted(first.buckets)
    assert (first.buckets[low], first.buckets[high]) == ([1], [2, 3])
    assert oracle_value(inst, 0, q, frozenset({1})) == oracle_value(inst, 0, q, frozenset({2, 3}))
    res = oracle_bucketing(inst, 0, q, eps=0.1)
    assert (res.chosen, res.value) == (frozenset({1}), 0.25)
    assert (res.chosen, res.value, res.guesses) == _bucketing_per_sender_loop(inst, 0, q, 0.1)


def test_bucketing_values_fewer_buckets_than_the_per_sender_loop(monkeypatch, recorded_road_prices):
    from datex import sharing

    calls = [0]
    real = sharing.shapley_sampled

    def counting(*args):
        calls[0] += 1
        return real(*args)

    def rule_calls(run):
        inst.share_memo.clear()  # every distinct bucket is valued afresh
        calls[0] = 0
        return run(), calls[0]

    monkeypatch.setattr(sharing, "shapley_sampled", counting)
    inst = recorded_road_prices[0][0]
    oracle_calls = loop_calls = 0
    for Q in [Q for solve_inst, Q in recorded_road_prices if solve_inst is inst]:
        got, n = rule_calls(lambda: [(res.chosen, res.value, res.guesses) for res in
                                     oracles.get_oracle("bucketing").all_agents(inst, Q)])
        oracle_calls += n
        ref, n = rule_calls(lambda: [_bucketing_per_sender_loop(inst, i, Q[i], 0.1)
                                     for i in range(inst.n)])
        loop_calls += n
        assert got == ref
    assert 0 < oracle_calls < loop_calls, (oracle_calls, loop_calls)


def test_first_guess_pass_on_hand_built_rows():
    # agents 0 and 4: several buckets; agent 5: its best singletons lie below the
    # utility floor eps^2/n^2, so its first guess is rejected; agents 1-3: no senders
    n = 6
    inst = table_instance(n, {(0, 1): 0.5, (0, 2): 0.3, (0, 3): 0.125, (0, 4): 0.45,
                              (4, 0): 0.7, (4, 2): 0.6, (4, 5): 0.05,
                              (5, 0): 2e-4, (5, 1): 2e-4, (5, 3): 0.2})
    rng = np.random.default_rng(8)
    seen = {"rejected": 0, "nonpositive": 0}
    for trial in range(300):
        Q = rng.normal(loc=rng.choice([0.0, 0.5]), scale=10.0 ** rng.uniform(-2, 0.5), size=(n, n))
        Q[rng.random((n, n)) < 0.2] = 0.0
        if trial % 3 == 0:
            Q[5] = [1.0, 1.0, 0.0, 1e-4, 0.0, 0.0]
        for eps in (0.1, 0.3):
            results = _assert_first_guess_pass_matches(inst, Q, eps)
            assert all(results[i].guesses == 0 and not results[i].chosen for i in (1, 2, 3))
            seen["rejected"] += any(res.guesses > 1 for res in results)
            seen["nonpositive"] += bool(np.any(Q[0, 1:5] <= 0.0))
    assert all(count > 0 for count in seen.values()), seen


@pytest.mark.parametrize("prices", [
    [1e308, 1e308, 1e308],  # n * max_j q_j u_ij overflows
    [np.inf],
    [np.nan, 1.0],
    [np.inf, np.nan],
])
def test_first_guess_pass_rejects_a_non_finite_guess_without_a_warning(prices):
    import warnings

    inst = gen_random(6, 3, "table", seed=3)
    Q = np.ones((inst.n, inst.n))
    Q[0] = prices_for(inst, 0, dict(zip(inst.senders_of[0], prices)))
    Q[4] = np.nan  # a later non-finite row
    with pytest.raises(ValueError) as single:
        oracles._best_singleton("bucketing", inst, 0, Q[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as one_row:
            oracle_bucketing(inst, 0, Q[0])
        with pytest.raises(ValueError) as all_rows:
            oracles.get_oracle("bucketing").all_agents(inst, Q)
    # agent 0 is the first non-finite row, so all three name its guess
    assert str(one_row.value) == str(all_rows.value) == str(single.value)


def test_bucket_indices_stay_within_the_edges(monkeypatch):
    # a kept sender has u >= eps^2/n^2 and q u <= single, so at a guess >= single
    # its q <= u0 e^count: every bucket index c lies in 1..len(edges) - 1
    rng = np.random.default_rng(17)
    pairs = {(i, j): float(10.0 ** rng.uniform(-6.0, 0.0))
             for i in range(8) for j in rng.choice(8, size=5, replace=False).tolist() if j != i}
    cases = [table_instance(8, pairs), gen_random(3, 2, "table", seed=72),
             normalize_instance(gen_road(RoadSpec(edges=grid_graph(8, 8, seed=0), radius=5,
                                                  n_agents=12, seed=70)))[0]]
    formed = []
    real = oracles._buckets

    def recording(instance, rows, q, guess, eps):
        out = real(instance, rows, q, guess, eps)
        formed.append((len(oracles._bucket_edges(instance.n, eps)) - 1, out))
        return out

    monkeypatch.setattr(oracles, "_buckets", recording)
    swept = 0
    for trial in range(90):
        inst, eps = cases[trial % 3], (0.1, 0.3, 0.49)[trial // 3 % 3]
        n = inst.n
        Q = 10.0 ** rng.uniform(-300.0, 300.0, size=(n, n))
        if trial % 2:  # every sender of a row worth the same, so the least u has the top q
            level = 10.0 ** rng.uniform(-290.0, 290.0, size=(n, 1))
            u = inst.singleton_utility
            Q = level / np.where(u > 0.0, u, 1.0)
        Q[rng.random((n, n)) < 0.1] *= -1.0
        oracles.get_oracle("bucketing", eps).all_agents(inst, Q)
        for i, first in enumerate(oracles.bucketing_first_guesses(inst, range(n), Q, eps)):
            guess = n * first.single / (1.0 + eps)
            while guess >= first.single > 0.0:
                oracles._buckets(inst, np.array([i]), Q[i][None, :], np.array([guess]), eps)
                guess /= 1.0 + eps
                swept += 1
    indices = [(c, top) for top, out in formed for row in out for c in row]
    assert all(1 <= c <= top for c, top in indices)
    assert swept > 1000 and len(indices) > 5000
    assert any(c == top for c, top in indices)


def test_sampled_shapley_note_is_logged_once_per_instance(caplog):
    from datex.mwu import MwuConfig, solve_welfare

    note = "cross-monotonicity only approximate"
    edges = grid_graph(6, 6, seed=0)
    road = normalize_instance(gen_road(RoadSpec(edges=edges, radius=4, n_agents=8, seed=3)))[0]
    assert road.sharing.kind == "shapley_sampled"
    with caplog.at_level("DEBUG", logger="datex.oracles"):
        solve_welfare(road, MwuConfig(max_iters=60), oracles.get_oracle("bucketing"))
    assert sum(note in r.getMessage() for r in caplog.records) == 1
    caplog.clear()
    other = normalize_instance(gen_road(RoadSpec(edges=edges, radius=4, n_agents=8, seed=4)))[0]
    i = next(i for i in range(other.n) if other.senders_of[i])
    with caplog.at_level("DEBUG", logger="datex.oracles"):
        oracle_bucketing(other, i, np.ones(other.n))
    assert sum(note in r.getMessage() for r in caplog.records) == 1


# ---------------------------------------------------------------------------
# Knapsack oracle
# ---------------------------------------------------------------------------


def test_knapsack_all_nonpositive():
    inst = sqrt_instance({1: 1.0, 2: 1.0, 3: 1.0}, n=4)
    res = oracle_knapsack(inst, 0, prices_for(inst, 0, {1: -1.0, 2: 0.0, 3: -0.1}))
    assert res.chosen == frozenset() and res.value == 0.0


def test_knapsack_unit_sizes_sqrt():
    inst = sqrt_instance({1: 1.0, 2: 1.0, 3: 1.0}, n=4)
    prices = prices_for(inst, 0, {1: 1.0, 2: 1.0, 3: 1.0})
    res = oracle_knapsack(inst, 0, prices, eps=0.1)
    assert res.chosen == frozenset({1, 2, 3})
    assert res.value == pytest.approx(math.sqrt(3.0), abs=1e-9)


def test_knapsack_rejects_wrong_model(two_agent_unit):
    with pytest.raises(ValueError, match="symmetric weighted"):
        oracle_knapsack(two_agent_unit, 0, prices_for(two_agent_unit, 0, {1: 1.0}))


def test_knapsack_rejects_the_continuous_model():
    """Its (1+eps)^2 factor holds only for set columns, so the subclass is refused."""
    inst = sqrt_instance({1: 1.0, 2: 2.0}, continuous=True)
    with pytest.raises(ValueError, match="^knapsack oracle needs the symmetric weighted model$"):
        oracle_knapsack(inst, 0, prices_for(inst, 0, {1: 1.0, 2: 1.0}))


def test_knapsack_ratio_vs_bruteforce():
    rng = np.random.default_rng(33)
    eps = 0.1
    for trial in range(60):
        n = int(rng.integers(3, 16))
        inst = gen_random(n, min(n - 1, 8), "symmetric", seed=900 + trial)
        i = int(rng.integers(0, n))
        senders = inst.senders_of[i]
        if not senders:
            continue
        prices = prices_for(inst, i, {j: float(rng.normal()) for j in senders})
        res = oracle_knapsack(inst, i, prices, eps=eps)
        brute = oracle_bruteforce(inst, i, prices)
        assert res.value >= brute.value / (1 + eps) ** 2 - 1e-9


def _per_guess_fptas(profits, weights_int, cap_int, eps):
    """The profit-scaled DP as it ran once per capacity guess; a bitmask."""
    m = len(profits)
    p_max = max(profits)
    scale = eps * p_max / m if p_max > 0 else 1.0
    rp = [int(p // scale) for p in profits]
    total = sum(rp)
    min_w = [0.0] + [float("inf")] * total
    pick = [0] * (total + 1)
    for idx in range(m):
        w, r = weights_int[idx], rp[idx]
        for t in range(total, r - 1, -1):
            cand = min_w[t - r] + w
            if cand < min_w[t]:
                min_w[t] = cand
                pick[t] = pick[t - r] | (1 << idx)
    best_mask, best_profit = 0, -1.0
    for t in range(total + 1):
        if min_w[t] <= cap_int:
            actual = sum(profits[b] for b in range(m) if pick[t] & (1 << b))
            if actual > best_profit:
                best_mask, best_profit = pick[t], actual
    return best_mask


def _per_guess_knapsack(instance, i, prices, eps):
    """Reference: one DP per capacity guess on the 1e-6 size grid."""
    model = instance.utility
    f = model.f[i]
    items = [(j, float(prices[j]), model.sizes.get((i, j), 0.0)) for j in instance.senders_of[i]]
    items = [(j, q, s) for j, q, s in items if q > 0.0 and s > 0.0]
    if not items:
        return frozenset(), 0.0, 0
    weights_int = [round(s * 10**6) for _, _, s in items]
    total_int = sum(weights_int)
    grid_int = set(weights_int) | {total_int}
    phi = float(min(weights_int))
    while phi < total_int:
        grid_int.add(round(phi))
        phi *= 1.0 + eps
    best_set, best_score = frozenset(), 0.0
    for cap_int in sorted(grid_int):
        phi = cap_int / 10**6
        fit = [idx for idx in range(len(items)) if weights_int[idx] <= cap_int]
        if not fit:
            continue
        mask = _per_guess_fptas([items[idx][1] * items[idx][2] for idx in fit],
                                [weights_int[idx] for idx in fit], cap_int, eps)
        chosen = frozenset(items[fit[b]][0] for b in range(len(fit)) if mask & (1 << b))
        if not chosen:
            continue
        v_phi = sum(items[fit[b]][1] * items[fit[b]][2] for b in range(len(fit)) if mask & (1 << b))
        score = v_phi * f(phi) / phi
        if score > best_score:
            best_set, best_score = chosen, score
    if not best_set:
        return frozenset(), 0.0, len(grid_int)
    return best_set, oracle_value(instance, i, prices, best_set), len(grid_int)


def _with_sizes(instance, sizes):
    return Instance(
        n=instance.n, allowed=instance.allowed,
        utility=SymmetricWeighted(sizes=sizes, f=instance.utility.f),
        sharing=instance.sharing,
    )


def test_knapsack_matches_per_guess_dp_bit_for_bit():
    """240 draws over n in 2..8: random, equal and few-valued sizes; prices that
    scale to rp = 0 next to a large one; exact zeros and negatives; dyadic sizes
    and prices, whose exact profit ties test the first-t-among-maxima rule."""
    rng = np.random.default_rng(44)
    kinds = ("random", "equal_sizes", "two_sizes", "zero_rp", "zero_and_negative", "dyadic")
    for trial in range(240):
        kind = kinds[trial % len(kinds)]
        n = int(rng.integers(2, 9))
        inst = gen_random(n, n - 1, "symmetric", seed=4400 + trial)
        if kind == "equal_sizes":
            inst = _with_sizes(inst, {pair: 0.5 for pair in inst.utility.sizes})
        elif kind in ("two_sizes", "dyadic"):
            inst = _with_sizes(inst, {pair: float(rng.choice([0.25, 0.5, 0.75]))
                                      for pair in sorted(inst.utility.sizes)})
        i = int(rng.integers(0, n))
        senders = inst.senders_of[i]
        q = {j: float(rng.normal()) for j in senders}
        if kind == "zero_rp":
            q = {j: abs(v) * 10.0 ** float(rng.uniform(-5.0, 0.0)) for j, v in q.items()}
            q[senders[0]] = 1.0
        elif kind == "zero_and_negative":
            q = {j: (0.0 if rng.random() < 0.4 else v) for j, v in q.items()}
        elif kind == "dyadic":
            q = {j: float(rng.choice([0.25, 0.5, 1.0, 2.0])) for j in senders}
        eps = float(rng.choice([0.05, 0.1, 0.3, 0.5]))
        prices = prices_for(inst, i, q)
        res = oracle_knapsack(inst, i, prices, eps=eps)
        assert (res.chosen, res.value, res.guesses) == _per_guess_knapsack(inst, i, prices, eps), trial


def test_knapsack_table_answers_every_capacity_like_per_guess_dp():
    """At every capacity the table's answer is the per-guess DP's mask.

    Dyadic profits tie exactly, and a tied maximum must resolve to the cell
    with the smallest scaled profit, as the ascending per-guess scan did.
    """
    rng = np.random.default_rng(46)
    for trial in range(300):
        m = int(rng.integers(1, 8))
        profits = [float(rng.integers(1, 17)) / 16 for _ in range(m)]
        weights = [int(rng.integers(1, 9)) for _ in range(m)]
        eps = float(rng.choice([0.05, 0.1, 0.25, 0.4, 0.5]))
        caps, answers = _knapsack_table(profits, tuple(weights), eps)
        for cap in range(sum(weights) + 1):
            _, items = answers[bisect_right(caps, cap) - 1]
            mask = sum(1 << b for b in items)
            assert mask == _per_guess_fptas(profits, weights, cap, eps), (trial, cap)


def _dense_knapsack_table(profits, weights_int, eps):
    """Reference: the dense DP over every scaled profit 0..sum(rp), carrying each
    cell's true profit as actual[t - r] + p; answers as (profit, bitmask)."""
    m = len(profits)
    p_max = max(profits)
    scale = eps * p_max / m if p_max > 0 else 1.0
    rp = [int(p // scale) for p in profits]
    total = sum(rp)
    min_w = [0.0] + [float("inf")] * total
    pick, actual = [0] * (total + 1), [0] * (total + 1)
    for idx in range(m):
        w, r, p = weights_int[idx], rp[idx], profits[idx]
        for t in range(total, r - 1, -1):
            cand = min_w[t - r] + w
            if cand < min_w[t]:
                min_w[t] = cand
                pick[t] = pick[t - r] | (1 << idx)
                actual[t] = actual[t - r] + p
    caps, answers = [], []
    top_p, top_t = -1.0, -1
    for w, t in sorted((min_w[t], t) for t in range(total + 1) if min_w[t] < float("inf")):
        if actual[t] > top_p or (actual[t] == top_p and t < top_t):
            top_p, top_t = actual[t], t
        caps.append(w)
        answers.append((top_p, pick[top_t]))
    return caps, answers


def test_knapsack_table_equals_the_dense_dp_bit_for_bit():
    """The sparse table gives the dense DP's weights, answers and profit sums
    bit for bit, on non-dyadic profits whose sums depend on the order of the
    additions."""
    rng = np.random.default_rng(49)
    for trial in range(300):
        m = int(rng.integers(1, 8))
        profits = [float(rng.uniform(0.01, 1.0)) for _ in range(m)]
        weights = tuple(int(rng.integers(1, 40)) for _ in range(m))
        eps = float(rng.choice([0.05, 0.1, 0.25, 0.5]))
        caps, answers = _dense_knapsack_table(profits, weights, eps)
        got_caps, got = _knapsack_table(profits, weights, eps)
        assert list(got_caps) == caps, trial
        assert [(p, sum(1 << b for b in items)) for p, items in got] == answers, trial


def test_knapsack_memo_hits_match_per_guess_dp():
    """Calls served by cached grid plans answer like the per-guess DP: 40 small
    perturbations of one price row; the base row at several eps; and two
    instances with the same sizes but another f or another scale."""
    rng = np.random.default_rng(47)
    inst = gen_random(7, 6, "symmetric", seed=4700)
    i = 0
    base = {j: float(rng.uniform(0.2, 2.0)) for j in inst.senders_of[i]}
    rows = [prices_for(inst, i, {j: v * (1.0 + 1e-3 * rng.normal()) for j, v in base.items()})
            for _ in range(40)]
    variants = [
        Instance(n=inst.n, allowed=inst.allowed, sharing=inst.sharing,
                 utility=SymmetricWeighted(sizes=inst.utility.sizes, f=f))
        for f in (tuple(fi.rescaled(3.0) for fi in inst.utility.f),
                  (ConcaveSpec(kind="capped_linear", cap=0.8),) * inst.n)
    ]
    calls = [(inst, q, 0.1) for q in rows]
    calls += [(inst, prices_for(inst, i, base), eps) for eps in (0.05, 0.1, 0.3, 0.5)]
    calls += [(other, q, 0.1) for other in variants for q in rows[:10]]
    for k, (instance, q, eps) in enumerate(calls):
        res = oracle_knapsack(instance, i, q, eps=eps)
        assert (res.chosen, res.value, res.guesses) == _per_guess_knapsack(instance, i, q, eps), k


@pytest.mark.parametrize("q", [{1: 1e308}, {1: 8e307, 2: 1.7e308}])
def test_knapsack_rejects_profits_that_overflow(q):
    """The first guess bounds q_j u_ij, but the DP adds the profits q_j s_ij: with
    f capped at 1e-3 and s_01 = 2, a finite guess can hide an infinite profit,
    or finite profits whose sum overflows."""
    allowed = frozenset((a, b) for a in range(3) for b in range(3) if a != b)
    sizes = {pair: 1.0 for pair in allowed} | {(0, 1): 2.0}
    f = (ConcaveSpec(kind="capped_linear", cap=1e-3),) * 3
    inst = Instance(n=3, allowed=allowed, utility=SymmetricWeighted(sizes=sizes, f=f),
                    sharing=SharingRuleSpec(kind="proportional", weights="size"))
    with pytest.raises(ValueError, match="knapsack oracle needs a finite total profit"):
        oracle_knapsack(inst, 0, prices_for(inst, 0, q))


def test_knapsack_size_below_fixed_point_unit_terminates():
    """A size below half of 1e-6 (weight 0 on the 1e-6 grid) must not stall the
    capacity-guess grid, and the result keeps the (1+eps)^2 bound."""
    raw = gen_random(3, 2, "symmetric", seed=1)
    inst = _with_sizes(raw, {**raw.utility.sizes, (0, 2): 1e-7})
    eps = 0.1
    rng = np.random.default_rng(45)
    draws = [{1: 1.0, 2: 1.0}] + [{j: float(rng.normal()) for j in (1, 2)} for _ in range(30)]

    def timeout(signum, frame):
        raise TimeoutError("knapsack oracle did not terminate")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        for q in draws:
            prices = prices_for(inst, 0, q)
            res = oracle_knapsack(inst, 0, prices, eps=eps)
            brute = oracle_bruteforce(inst, 0, prices)
            assert res.value >= brute.value / (1 + eps) ** 2 - 1e-12, q
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _full_scan_knapsack(instance, i, q, eps=0.1):
    """The knapsack oracle without its group bound: every group's table is built
    and every guess scored in ascending (group, guess) order; the first strict
    maximum wins."""
    model = instance.utility
    items = [(j, float(q[j]), model.sizes.get((i, j), 0.0)) for j in instance.senders_of[i]]
    items = [(j, qj, s) for j, qj, s in items if qj > 0.0 and s > 0.0]
    if not items:
        return OracleResult(chosen=frozenset(), value=0.0, guesses=0)
    profits = [qj * s for _, qj, s in items]
    guesses, groups = oracles._knapsack_plan(model.f[i], tuple(s for _, _, s in items), eps)
    best, best_score = None, 0.0
    for fit, fit_w, fit_guesses, _ in groups:
        caps, answers = _knapsack_table([profits[idx] for idx in fit], fit_w, eps)
        for cap_int, ratio in fit_guesses:
            v_phi, chosen = answers[bisect_right(caps, cap_int) - 1]
            if not chosen:
                continue
            score = v_phi * ratio
            if score > best_score:
                best, best_score = (fit, chosen), score
    if best is None:
        return OracleResult(chosen=frozenset(), value=0.0, guesses=guesses)
    fit, chosen = best
    best_set = frozenset(items[fit[b]][0] for b in chosen)
    return OracleResult(chosen=best_set, value=oracle_value(instance, i, q, best_set),
                        guesses=guesses)


_KNAPSACK_F = st.sampled_from([
    ConcaveSpec(kind="capped_linear", cap=0.5), ConcaveSpec(kind="capped_linear", cap=2.0),
    ConcaveSpec(kind="capped_linear", cap=100.0), ConcaveSpec(kind="power", c=1.0),
    ConcaveSpec(kind="power", c=0.4), ConcaveSpec(kind="sqrt"),
])
_KNAPSACK_SIZE = st.one_of(st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0]),
                           st.floats(0.05, 2.0))
_KNAPSACK_PRICE = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 0.0, -1.0]),
    st.floats(-2.0, 2.0),
    st.floats(0.5, 4.0).map(lambda x: x * 1e-310),  # subnormal profits
    st.floats(0.5, 2.0).map(lambda x: x * 1e300),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(2, 8), f=_KNAPSACK_F,
       eps=st.sampled_from([0.05, 0.1, 0.3, 0.5]))
def test_knapsack_group_bound_keeps_the_full_scan_result(data, n, f, eps):
    """Visiting groups by descending score bound and stopping below the best
    score returns the full scan's (chosen, value, guesses) exactly: dyadic
    sizes and prices tie scores across groups, capped_linear and power c = 1
    tie the f(phi)/phi ratios, and subnormal, huge, zero and negative prices
    mix in one row."""
    sizes = {(0, j): data.draw(_KNAPSACK_SIZE) for j in range(1, n)}
    inst = Instance(n=n, allowed=frozenset(sizes), utility=SymmetricWeighted(sizes=sizes, f=(f,) * n),
                    sharing=SharingRuleSpec(kind="proportional", weights="size"))
    q = prices_for(inst, 0, {j: data.draw(_KNAPSACK_PRICE) for j in range(1, n)})
    res = oracle_knapsack(inst, 0, q, eps=eps)
    want = _full_scan_knapsack(inst, 0, q, eps)
    assert (res.chosen, res.value, res.guesses) == (want.chosen, want.value, want.guesses)


def test_knapsack_group_bound_breaks_a_tie_by_the_earlier_group():
    """f = min(x, 0.5), sizes 0.5 and 1, profits 1 and 2: the group {1} scores
    1 * 0.5 / 0.5 = 1 at its bound, and the group {1, 2}, visited first for its
    bound 3 * 0.5 / 1 = 1.5, ties it with {2} at phi = 1.  The earlier group
    wins the tie, as in the ascending scan, though it is visited second."""
    sizes = {(0, 1): 0.5, (0, 2): 1.0}
    inst = Instance(n=3, allowed=frozenset(sizes),
                    utility=SymmetricWeighted(sizes=sizes, f=(ConcaveSpec(kind="capped_linear", cap=0.5),) * 3),
                    sharing=SharingRuleSpec(kind="proportional", weights="size"))
    q = prices_for(inst, 0, {1: 2.0, 2: 2.0})
    res = oracle_knapsack(inst, 0, q)
    assert res == _full_scan_knapsack(inst, 0, q)
    assert res.chosen == frozenset({1}) and res.value == 1.0


def test_knapsack_group_bound_visits_a_group_whose_score_overflows():
    """f = x^0.9, sizes 1 and 1e9, profits 1e300 each: (1e300 + 1e300) * f(phi)
    overflows for the group {1, 2}, but its scores (1e300 + 1e300) * (f(phi) /
    phi) are about 2.5e299, so the group {1}, worth 1e300, wins."""
    sizes = {(0, 1): 1.0, (0, 2): 1e9}
    inst = Instance(n=3, allowed=frozenset(sizes),
                    utility=SymmetricWeighted(sizes=sizes, f=(ConcaveSpec(kind="power", c=0.9),) * 3),
                    sharing=SharingRuleSpec(kind="proportional", weights="size"))
    q = prices_for(inst, 0, {1: 1e300, 2: 1e291})
    res = oracle_knapsack(inst, 0, q)
    assert res == _full_scan_knapsack(inst, 0, q)
    assert res.chosen == frozenset({1}) and res.value == 1e300


_HUGE_ROW = st.lists(st.tuples(st.floats(-2.0, 9.0).map(lambda e: 10.0 ** e),  # size
                               st.floats(280.0, 300.176).map(lambda e: 10.0 ** e)),  # price
                     min_size=2, max_size=6)


@settings(max_examples=300, deadline=None)
@given(row=_HUGE_ROW, f=_KNAPSACK_F | st.just(ConcaveSpec(kind="power", c=0.9)),
       eps=st.sampled_from([0.05, 0.1, 0.3, 0.5]))
@example(row=[(1.0, 1e300), (1e9, 1e291)], f=ConcaveSpec(kind="power", c=0.9), eps=0.1)
def test_knapsack_keeps_its_factor_on_prices_near_the_largest_float(row, f, eps):
    """Sizes from 1e-2 to 1e9 and prices from 1e280 to 1.5e300, where v * f(phi)
    can overflow though the score v * f(phi) / phi is finite: wherever the brute
    force optimum is finite, the knapsack value is at least it over (1+eps)^2.
    A row whose profits q_j s_j sum past the largest float is refused."""
    n = len(row) + 1
    sizes = {(0, j): s for j, (s, _) in enumerate(row, 1)}
    inst = Instance(n=n, allowed=frozenset(sizes), utility=SymmetricWeighted(sizes=sizes, f=(f,) * n),
                    sharing=SharingRuleSpec(kind="proportional", weights="size"))
    q = prices_for(inst, 0, {j: p for j, (_, p) in enumerate(row, 1)})
    try:
        brute = oracle_bruteforce(inst, 0, q, eps)
    except ValueError:
        return  # n * max_j q_j u_j overflows: no oracle takes the row
    assume(math.isfinite(brute.value))
    if not math.isfinite(sum([float(q[j]) * s for (_, j), s in sizes.items()])):
        with pytest.raises(ValueError, match="finite total profit"):
            oracle_knapsack(inst, 0, q, eps)
        return
    res = oracle_knapsack(inst, 0, q, eps)
    assert res.value >= brute.value / (1 + eps) ** 2


def test_knapsack_group_bound_skips_tables(monkeypatch):
    """On 200 random rows the bound skips more than half of the groups' tables,
    and the results stay the full scan's."""
    built = []

    def counting(profits, weights_int, eps):
        built.append(len(profits))
        return _knapsack_table(profits, weights_int, eps)  # the full scan calls it unwrapped

    monkeypatch.setattr(oracles, "_knapsack_table", counting)
    rng = np.random.default_rng(50)
    groups = 0
    for trial in range(200):
        n = int(rng.integers(3, 8))
        inst = gen_random(n, n - 1, "symmetric", seed=5000 + trial)
        q = prices_for(inst, 0, {j: float(rng.uniform(-0.2, 1.0)) for j in inst.senders_of[0]})
        res = oracle_knapsack(inst, 0, q)
        assert res == _full_scan_knapsack(inst, 0, q), trial
        sizes = tuple(inst.utility.sizes[0, j] for j in inst.senders_of[0] if q[j] > 0.0)
        groups += len(oracles._knapsack_plan(inst.utility.f[0], sizes, 0.1)[1]) if sizes else 0
    assert 0 < 2 * len(built) < groups  # 272 of 654 tables


def test_knapsack_solve_matches_the_full_scan(monkeypatch):
    """solve_welfare with the knapsack oracle and with the full scan in its place
    give the same welfare, columns and per-iteration oracle values."""
    def solve(k):
        n = 2 + k % 4
        inst, _ = normalize_instance(gen_random(n, 3, "symmetric", seed=5100 + k))
        config = MwuConfig(delta=1.0 / 3.0, max_iters=400, eta_override=practical_eta(n, 400))
        solution, report = solve_welfare(inst, config, get_oracle("knapsack"))
        return report.welfare, solution.columns, [row["oracle_value"] for row in report.trace]

    runs = [solve(k) for k in range(8)]
    monkeypatch.setattr(oracles, "oracle_knapsack", _full_scan_knapsack)
    for k, run in enumerate(runs):
        assert run == solve(k), k
    assert all(run[2] for run in runs)


def _counting_plans(monkeypatch):
    """Record the (f, sizes, eps) of every _knapsack_plan call."""
    made = []
    real = oracles._knapsack_plan

    def counting(f, sizes, eps):
        made.append((f, sizes, eps))
        return real(f, sizes, eps)

    monkeypatch.setattr(oracles, "_knapsack_plan", counting)
    return made


def test_knapsack_memo_makes_one_plan_per_agent_sender_set_and_eps(monkeypatch):
    """Rows whose zero and negative prices drop senders, at three eps: each
    (agent, positive-price senders, eps) gets one plan, and every answer is the
    per-guess DP's."""
    made = _counting_plans(monkeypatch)
    inst = gen_random(6, 4, "symmetric", seed=61)
    rng = np.random.default_rng(62)
    keys = set()
    for trial in range(120):
        i = int(rng.integers(0, inst.n))
        q = prices_for(inst, i, {j: float(rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0]))
                                 for j in inst.senders_of[i]})
        eps = float(rng.choice([0.05, 0.1, 0.3]))
        res = oracle_knapsack(inst, i, q, eps=eps)
        assert (res.chosen, res.value, res.guesses) == _per_guess_knapsack(inst, i, q, eps), trial
        positive = tuple(j for j in inst.senders_of[i] if q[j] > 0.0)
        if positive:
            keys.add((i, positive, eps))
    assert len(made) == len(keys) < 120
    memo = inst.oracle_memo
    assert {(i, *key) for (_, i), agent in memo.items() for key in agent.plans} == keys
    for i, positive, eps in keys:
        sizes = tuple(inst.utility.sizes[i, j] for j in positive)
        assert memo["knapsack", i].plans[positive, eps] == oracles._knapsack_plan(
            inst.utility.f[i], sizes, eps)


def test_knapsack_memo_is_per_instance(monkeypatch):
    """Two instances with the same agents and senders but other sizes, or other
    f: each builds its own layout and plans and answers with its own model."""
    base = gen_random(5, 3, "symmetric", seed=63)
    others = [
        _with_sizes(base, {pair: s * 1.7 for pair, s in base.utility.sizes.items()}),
        Instance(n=base.n, allowed=base.allowed, sharing=base.sharing,
                 utility=SymmetricWeighted(sizes=base.utility.sizes,
                                           f=(ConcaveSpec(kind="capped_linear", cap=0.4),) * base.n)),
    ]
    made = _counting_plans(monkeypatch)
    rows = [prices_for(base, i, {j: 1.0 for j in base.senders_of[i]}) for i in range(base.n)]
    for inst in [base, *others]:
        before = len(made)
        for i, q in enumerate(rows):
            res = oracle_knapsack(inst, i, q)
            assert (res.chosen, res.value, res.guesses) == _per_guess_knapsack(inst, i, q, 0.1)
        assert len(made) - before == base.n  # no plan came from another instance's memo
        assert [f for f, _, _ in made[before:]] == list(inst.utility.f)
    assert all(inst.oracle_memo is not base.oracle_memo for inst in others)
    assert base.oracle_memo["knapsack", 0] is not others[0].oracle_memo["knapsack", 0]


def test_knapsack_memo_lives_and_dies_with_its_instance():
    inst = gen_random(4, 3, "symmetric", seed=64)
    q = prices_for(inst, 0, {j: 1.0 for j in inst.senders_of[0]})
    first = oracle_knapsack(inst, 0, q)
    assert oracle_knapsack(inst, 0, q) == first
    assert oracle_knapsack(Instance(n=inst.n, allowed=inst.allowed, utility=inst.utility,
                                    sharing=inst.sharing), 0, q) == first
    assert list(inst.oracle_memo) == [("knapsack", 0)]
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None  # the memo holds no reference that keeps its instance alive


def test_knapsack_errors_keep_their_messages_and_order_on_every_call():
    """The model check comes before the sharing check, both before the eps
    check, and the eps check before the first guess; a refused call memoizes
    nothing, and an accepted agent's later calls still check eps."""
    table = table_instance(3, {(0, 1): 0.5, (0, 2): 0.5})
    shapley = replace(gen_random(4, 3, "symmetric", seed=65),
                      sharing=SharingRuleSpec(kind="shapley_exact"))
    good = gen_random(4, 3, "symmetric", seed=65)
    huge = lambda inst: prices_for(inst, 0, {j: 1e308 for j in inst.senders_of[0]})
    calls = [
        (table, 2.0, "^knapsack oracle needs the symmetric weighted model$"),
        (shapley, 2.0, "^knapsack oracle needs proportional sharing with w = s$"),
        (good, 2.0, r"^knapsack oracle eps must lie in \[0.0001, 1\); got 2.0$"),
        (good, 0.1, "^knapsack oracle needs a finite first guess"),
    ]
    for _ in range(3):
        for inst, eps, message in calls:
            with pytest.raises(ValueError, match=message):
                oracle_knapsack(inst, 0, huge(inst), eps=eps)
    assert table.oracle_memo == {} and shapley.oracle_memo == {}
    unit = prices_for(good, 0, {j: 1.0 for j in good.senders_of[0]})
    assert oracle_knapsack(good, 0, unit).chosen
    with pytest.raises(ValueError, match=r"eps must lie in \[0.0001, 1\); got 0.0$"):
        oracle_knapsack(good, 0, unit, eps=0.0)


# ---------------------------------------------------------------------------
# Continuous oracle
# ---------------------------------------------------------------------------


def grid_oracle_2d(instance, i, q, res=1e-3):
    """Independent oracle: exhaustive grid over [0,1]^2 for f = sqrt."""
    model = instance.utility
    assert model.f[i] == ConcaveSpec(kind="sqrt")
    js = sorted(instance.senders_of[i])
    ys = np.arange(0.0, 1.0 + res, res)
    y1, y2 = np.meshgrid(ys, ys, indexing="ij")
    s = [model.sizes[(i, j)] for j in js]
    d = s[0] * y1 + s[1] * y2
    w = q[js[0]] * s[0] * y1 + q[js[1]] * s[1] * y2
    pos = d > 0
    return max(0.0, float(np.max(w[pos] * np.sqrt(d[pos]) / d[pos])))


def test_continuous_all_negative():
    inst = sqrt_instance({1: 1.0, 2: 1.0}, n=3, continuous=True)
    res = oracle_continuous(inst, 0, prices_for(inst, 0, {1: -1.0, 2: -2.0}))
    assert res.value == 0.0 and not res.y


def test_continuous_two_positive():
    inst = sqrt_instance({1: 1.0, 2: 1.0}, n=3, continuous=True)
    res = oracle_continuous(inst, 0, prices_for(inst, 0, {1: 1.0, 2: 1.0}), eps=0.01)
    assert res.y == {1: 1.0, 2: 1.0}
    assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_continuous_negative_sender_excluded():
    inst = sqrt_instance({1: 1.0, 2: 1.0}, n=3, continuous=True)
    res = oracle_continuous(inst, 0, prices_for(inst, 0, {1: 1.0, 2: -5.0}), eps=0.01)
    assert res.y == {1: 1.0}
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_continuous_vs_grid_oracle():
    rng = np.random.default_rng(8)
    eps = 0.05
    for trial in range(10):
        sizes = {1: float(rng.uniform(0.2, 1.5)), 2: float(rng.uniform(0.2, 1.5))}
        inst = sqrt_instance(sizes, n=3, continuous=True)
        q = {1: float(rng.normal()), 2: float(rng.normal())}
        res = oracle_continuous(inst, 0, prices_for(inst, 0, q), eps=eps)
        grid = grid_oracle_2d(inst, 0, q)
        assert res.value >= grid / (1 + eps) - 2e-3  # grid itself is approximate


def test_continuous_rejects_set_models(two_agent_unit):
    with pytest.raises(ValueError, match="unsupported concave family"):
        oracle_continuous(two_agent_unit, 0, prices_for(two_agent_unit, 0, {1: 1.0}))


# ---------------------------------------------------------------------------
# Imbalance sub-oracle
# ---------------------------------------------------------------------------


def test_imbalance_zero_prices_and_budget():
    d, g, v = oracle_imbalance(np.zeros(3), np.array([1.0, 2.0, 3.0]), 5.0, 0.0)
    assert np.all(d == 0.0) and np.all(g == 0.0) and v == 0.0
    d, g, v = oracle_imbalance(np.array([1.0]), np.array([1.0]), 0.0, 0.0)
    assert np.all(d == 0.0) and np.all(g == 0.0)


def test_imbalance_quadratic_closed_form():
    d, g, v = oracle_imbalance(np.array([3.0, 4.0]), np.zeros(2), 1.0, 0.0)
    np.testing.assert_allclose(d, [0.6, 0.8], atol=1e-12)
    assert v == pytest.approx(5.0, abs=1e-12)


def test_imbalance_grid_search_cross_check():
    # independent oracle: dense sweep over the disk sum(d^2) <= 1
    p = np.array([3.0, 4.0])
    best = 0.0
    for d1 in np.linspace(0, 1, 401):
        lim = math.sqrt(max(0.0, 1.0 - d1 * d1))
        d2 = lim
        best = max(best, p[0] * d1 + p[1] * d2)
    d, _, v = oracle_imbalance(p, np.zeros(2), 1.0, 0.0)
    assert v == pytest.approx(best, abs=1e-3)


def test_imbalance_linear_cost_spends_each_budget_on_the_first_best_price():
    """With g = h = x, each half puts its whole budget on its largest price,
    the first one on a tie: value = C max p + C' max r."""
    linear = ConvexCost(1.0)
    d, g, v = oracle_imbalance(np.array([1.0, 3.0, 3.0]), np.array([2.0, 0.0, 1.0]), 0.5, 0.2,
                               g=linear, h=linear)
    assert d.tolist() == [0.0, 0.5, 0.0] and g.tolist() == [0.2, 0.0, 0.0]
    assert v == pytest.approx(1.9, abs=1e-12)


def test_imbalance_kkt_stationarity_and_tight_budget():
    rng = np.random.default_rng(5)
    for a in (2.0, 3.0):
        cost = ConvexCost(a=a)
        p = rng.uniform(0.0, 2.0, size=6)
        p[rng.integers(0, 6)] = 0.0
        d, g, v = oracle_imbalance(p, np.zeros(6), 2.0, 0.0, g=cost)
        spent = sum(cost(x) for x in d)
        assert spent == pytest.approx(2.0, abs=1e-9)  # budget tight, p != 0
        lams = [p[i] / cost.derivative(d[i]) for i in range(6) if d[i] > 1e-12]
        assert max(lams) - min(lams) <= 1e-6  # stationarity: p_i = lam g'(d_i)
        assert all(d[i] <= 1e-12 for i in range(6) if p[i] == 0.0)  # compl. slackness


def test_imbalance_rejects_nonconvex():
    with pytest.raises(ValueError, match="convex"):
        ConvexCost(a=0.5)

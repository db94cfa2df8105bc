from __future__ import annotations

import functools
import gc
import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datex import (
    ConcaveSpec,
    ContinuousConcave,
    FracColumn,
    Instance,
    SharingRuleSpec,
    SymmetricWeighted,
    cross_monotonicity_audit,
    proportional,
    shapley_exact,
    shapley_sampled,
    shares,
    utility,
)
from datex import lp, sharing
from datex.instances import RoadSpec, gen_random, gen_road, grid_graph
from datex.sharing import _permutation_rng, column_split

from conftest import five_model_instances


def brute_shapley(instance, i, subset):
    """Independent oracle: literal average over every permutation."""
    members = sorted(subset)
    out = {j: 0.0 for j in members}
    count = 0
    for perm in itertools.permutations(members):
        prev, chosen = 0.0, set()
        for j in perm:
            chosen.add(j)
            val = utility(instance, i, frozenset(chosen))
            out[j] += val - prev
            prev = val
        count += 1
    return {j: v / count for j, v in out.items()}


def unique_data_instance(n=5):
    """First n-2 senders hold identical data worth 0.5; the last is unique.

    u_0(S) = 0.5 for nonempty common S, 0.5 for the unique sender alone, and
    1.0 once the unique sender joins any common sender.
    """
    senders = tuple(range(1, n))
    uniq_bit = 1 << (len(senders) - 1)
    vals = np.zeros(1 << len(senders))
    for mask in range(1, 1 << len(senders)):
        has_uniq = bool(mask & uniq_bit)
        has_common = bool(mask & (uniq_bit - 1))
        vals[mask] = 1.0 if (has_uniq and has_common) else 0.5
    from datex import ExplicitTable

    sends = [()] * n
    tabs = [np.array([0.0])] * n
    sends[0] = senders
    tabs[0] = vals
    return Instance(
        n=n,
        allowed=frozenset((0, j) for j in senders),
        utility=ExplicitTable(senders=tuple(sends), values=tuple(tabs)),
        sharing=SharingRuleSpec(kind="shapley_exact"),
    )


# ---------------------------------------------------------------------------
# Exact Shapley
# ---------------------------------------------------------------------------


def test_shapley_singleton_is_marginal(two_agent_unit):
    u, sh = shapley_exact(two_agent_unit, 0, frozenset({1}))
    assert u == 1.0
    assert sh == {1: pytest.approx(1.0)}


def test_shapley_unique_data_example():
    inst = unique_data_instance(5)
    S = frozenset(range(1, 5))  # three common senders plus the unique one (id 4)
    u, sh = shapley_exact(inst, 0, S)
    assert u == 1.0
    assert sh[4] == pytest.approx(0.5, abs=1e-12)
    for j in (1, 2, 3):
        assert sh[j] == pytest.approx(1.0 / 6.0, abs=1e-12)  # 1/(2|S|), |S|=3


def test_shapley_matches_permutation_enumeration():
    inst = gen_random(5, 4, "table", seed=9)
    for i in range(5):
        senders = inst.senders_of[i]
        if len(senders) < 4:
            continue
        S = frozenset(senders[:4])
        _, exact = shapley_exact(inst, i, S)
        brute = brute_shapley(inst, i, S)
        for j in S:
            assert exact[j] == pytest.approx(brute[j], abs=1e-9)


def memo_closure_shapley(instance, i, subset):
    """shapley_exact as it was written with a lazily filled subset memo."""
    if not subset:
        return {}
    members = sorted(subset)
    s = len(members)
    fact = [math.factorial(t) for t in range(s + 1)]
    coeff = [fact[c] * fact[s - c - 1] / fact[s] for c in range(s)]
    u_of = {}

    def u_mask(mask):
        val = u_of.get(mask)
        if val is None:
            val = sharing.utility(instance, i,
                                  frozenset(members[b] for b in range(s) if mask & (1 << b)))
            u_of[mask] = val
        return val

    out = {j: 0.0 for j in members}
    for mask in range(1 << s):
        c = mask.bit_count()
        if c == s:
            continue
        base = u_mask(mask)
        w = coeff[c]
        for b in range(s):
            if not mask & (1 << b):
                out[members[b]] += w * (u_mask(mask | (1 << b)) - base)
    return out


def test_shapley_exact_equals_the_memo_closure_form(monkeypatch):
    calls = []

    def counted(instance, i, subset):
        calls.append(subset)
        return utility(instance, i, subset)

    monkeypatch.setattr(sharing, "utility", counted)
    rng = np.random.default_rng(3)
    for inst in [*five_model_instances(), unique_data_instance(6), gen_random(7, 6, "table", 2)]:
        for i in range(inst.n):
            senders = inst.senders_of[i]
            for _ in range(4):
                subset = frozenset(j for j in senders if rng.random() < 0.7)
                calls.clear()
                u, new = shapley_exact(inst, i, subset)
                new_calls = sorted(calls, key=sorted)
                calls.clear()
                assert u == utility(inst, i, subset)
                assert new == memo_closure_shapley(inst, i, subset)
                assert new_calls == sorted(calls, key=sorted)  # one call per subset either way
                assert len(new_calls) == (1 << len(subset) if subset else 0)


def test_shapley_size_guard():
    inst = gen_random(3, 2, "table", seed=0)
    with pytest.raises(ValueError, match="shapley_sampled"):
        shapley_exact(inst, 0, frozenset(range(1, 14)))


# ---------------------------------------------------------------------------
# Sampled Shapley
# ---------------------------------------------------------------------------


def test_sampled_telescopes_and_deterministic():
    inst = unique_data_instance(5)
    S = frozenset(range(1, 5))
    u, a = shapley_sampled(inst, 0, S, m=7, seed=3)
    assert shapley_sampled(inst, 0, S, m=7, seed=3) == (u, a)
    assert u == utility(inst, 0, S)
    assert sum(a.values()) == pytest.approx(u, abs=1e-9)


def test_sampled_converges_to_exact():
    inst = gen_random(6, 5, "table", seed=2)
    i = 0
    S = frozenset(inst.senders_of[i][:5])
    _, exact = shapley_exact(inst, i, S)
    _, approx = shapley_sampled(inst, i, S, m=20000, seed=5)
    for j in S:
        assert approx[j] == pytest.approx(exact[j], abs=0.01)


def test_sampled_is_unbiased():
    # mean over many independent seeds approaches the exact value at 3 sigma
    inst = unique_data_instance(5)
    S = frozenset(range(1, 5))
    _, exact = shapley_exact(inst, 0, S)
    trials, m = 4000, 5
    draws = {j: [] for j in S}
    for seed in range(trials):
        _, sh = shapley_sampled(inst, 0, S, m=m, seed=seed)
        for j in S:
            draws[j].append(sh[j])
    for j in S:
        arr = np.array(draws[j])
        se = arr.std(ddof=1) / np.sqrt(trials)
        assert abs(arr.mean() - exact[j]) <= 3.0 * se + 1e-4


def test_sampled_keyed_by_subset_not_call_order():
    inst = unique_data_instance(5)
    s_small = frozenset({1, 2})
    s_big = frozenset({1, 2, 3})
    first = shapley_sampled(inst, 0, s_small, m=4, seed=1)
    _ = shapley_sampled(inst, 0, s_big, m=4, seed=1)
    again = shapley_sampled(inst, 0, s_small, m=4, seed=1)
    assert first == again


# ---------------------------------------------------------------------------
# Proportional value
# ---------------------------------------------------------------------------


def test_proportional_unique_data_example():
    inst = replace(unique_data_instance(5),
                   sharing=SharingRuleSpec(kind="proportional", weights="singleton"))
    S = frozenset(range(1, 5))
    u, pr = proportional(inst, 0, S)
    assert u == 1.0
    for j in S:
        assert pr[j] == pytest.approx(0.25, abs=1e-12)  # 1/(|S|+1), |S|=3


def test_proportional_symmetric_weighted_closed_form():
    sizes = {(0, 1): 0.3, (0, 2): 0.9}
    inst = Instance(
        n=3, allowed=frozenset({(0, 1), (0, 2)}),
        utility=SymmetricWeighted(sizes=sizes, f=tuple(ConcaveSpec(kind="sqrt") for _ in range(3))),
        sharing=SharingRuleSpec(kind="proportional", weights="size"),
    )
    S = frozenset({1, 2})
    pr = shares(inst, 0, S)
    D = 1.2
    for j, s in ((1, 0.3), (2, 0.9)):
        assert pr[j] == pytest.approx(s * np.sqrt(D) / D, abs=1e-12)


def test_proportional_single_sender_and_zero_weight_error(two_agent_unit):
    def rule(weights):
        return replace(two_agent_unit, sharing=SharingRuleSpec(kind="proportional", weights=weights))

    u, pr = proportional(rule("singleton"), 0, frozenset({1}))
    assert u == 1.0 and pr[1] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="undefined proportional"):
        proportional(rule(((0, 1, 0.0),)), 0, frozenset({1}))


# ---------------------------------------------------------------------------
# Efficiency and cross-monotonicity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule", ["shapley_exact", "shapley_sampled", "proportional"])
def test_efficiency_on_random_queries(rule):
    rng = np.random.default_rng(11)
    for seed in range(4):
        kind = "table" if rule != "proportional" else "symmetric"
        inst = gen_random(5, 4, kind, seed=seed)
        inst = Instance(
            n=inst.n, allowed=inst.allowed, utility=inst.utility,
            sharing=SharingRuleSpec(
                kind=rule,
                m=6, seed=seed,
                weights="size" if rule == "proportional" else None,
            ),
            epsilon=inst.epsilon,
        )
        for _ in range(25):
            i = int(rng.integers(0, inst.n))
            senders = inst.senders_of[i]
            if not senders:
                continue
            size = int(rng.integers(1, len(senders) + 1))
            S = frozenset(int(x) for x in rng.choice(senders, size=size, replace=False))
            h = shares(inst, i, S)
            assert sum(h.values()) == pytest.approx(utility(inst, i, S), abs=1e-9)


five_models = functools.lru_cache(maxsize=None)(five_model_instances)

RULES = ["shapley_exact", "shapley_sampled", "proportional_singleton", "proportional_size",
         "proportional_explicit"]


def _with_rule(inst, rule, data):
    if rule == "shapley_sampled":
        spec = SharingRuleSpec(kind=rule, m=data.draw(st.integers(1, 8)),
                               seed=data.draw(st.integers(0, 2**31 - 1)))
    elif rule == "proportional_explicit":
        weights = data.draw(st.lists(st.floats(0.05, 5.0), min_size=len(inst.allowed),
                                     max_size=len(inst.allowed)))
        spec = SharingRuleSpec(kind="proportional", weights=tuple(
            (i, j, w) for (i, j), w in zip(sorted(inst.allowed), weights)))
    elif rule.startswith("proportional"):
        spec = SharingRuleSpec(kind="proportional", weights=rule.split("_")[1])
    else:
        spec = SharingRuleSpec(kind=rule)
    return replace(inst, sharing=spec)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2), model=st.integers(0, 4), rule=st.sampled_from(RULES),
       data=st.data())
def test_shares_add_up_to_utility_for_every_rule_and_model(seed, model, rule, data):
    # sum_j h_ij(S) = u_i(S): the reduced cost of a column reads as the
    # oracle's objective only because the shares are efficient
    inst = five_models(seed)[model]
    if rule == "proportional_size" and not isinstance(
            inst.utility, (SymmetricWeighted, ContinuousConcave)):
        return  # size weights need a size-based utility model
    inst = _with_rule(inst, rule, data)
    i = data.draw(st.sampled_from([a for a in range(inst.n) if inst.senders_of[a]]))
    senders = inst.senders_of[i]
    S = frozenset(data.draw(st.lists(st.sampled_from(senders), min_size=1, unique=True)))
    h = shares(inst, i, S)
    assert set(h) == S
    assert sum(h.values()) == pytest.approx(utility(inst, i, S), rel=0, abs=1e-9)
    if isinstance(inst.utility, ContinuousConcave) and inst.sharing.kind == "proportional":
        y = {j: data.draw(st.floats(0.0, 1.0, exclude_min=True)) for j in sorted(S)}
        u, h = column_split(inst, i, FracColumn(y=tuple(sorted(y.items()))))
        assert u == inst.utility.value_fractional(i, y)
        assert sum(h.values()) == pytest.approx(u, rel=0, abs=1e-9)


def test_exact_shapley_cross_monotone_on_submodular_tables():
    for seed in range(10):
        inst = gen_random(5, 4, "table", seed=100 + seed)
        for i in range(inst.n):
            assert cross_monotonicity_audit(inst, i, budget=60, seed=seed) == []


def test_proportional_violates_cross_monotonicity_on_unique_data():
    inst = unique_data_instance(5)
    sizes_rule = SharingRuleSpec(kind="proportional", weights="singleton")
    inst_prop = Instance(
        n=inst.n, allowed=inst.allowed, utility=inst.utility, sharing=sizes_rule,
    )
    # unique sender alone earns 0.5 but only 1/(|S|+1) inside a larger set
    S = frozenset(range(1, 5))
    alone = shares(inst_prop, 0, frozenset({4}))[4]
    grouped = shares(inst_prop, 0, S)[4]
    assert alone == pytest.approx(0.5) and grouped == pytest.approx(0.25)
    violations = cross_monotonicity_audit(inst_prop, 0, budget=300, seed=1)
    assert violations, "proportional sharing should violate cross-monotonicity here"


def test_vacuous_audit_on_single_sender(two_agent_unit):
    assert cross_monotonicity_audit(two_agent_unit, 0, budget=50) == []


# ---------------------------------------------------------------------------
# Road's share layer: one-pass sampled Shapley and the column_split memo
# ---------------------------------------------------------------------------


def road_instances():
    """Road instances with uncorrelated, randomly and locally correlated edges."""
    edges = grid_graph(12, 12, seed=1)
    return [gen_road(RoadSpec(edges=edges, correlation=corr, rho=rho, seed=seed))
            for seed, corr, rho in ((40, "none", 0.0), (41, "random", 0.5), (42, "local", 0.25))]


def loop_shapley_sampled(instance, i, subset, m, seed):
    """Path-variance sampled Shapley as a loop: one prefix pass per permutation."""
    model = instance.utility
    sig, donors, *_ = model._receiver_arrays(i)
    z = float(model.z[i])
    members = sorted(subset)
    rng = _permutation_rng(seed, i, members)
    out = {j: 0.0 for j in members}
    for _ in range(m):
        order = [members[t] for t in rng.permutation(len(members))]
        cum = np.cumsum(donors[order], axis=0)
        prefix = (np.sum(sig / z) - np.sum(sig / (z + cum), axis=1)) / model.scale
        prev = 0.0
        for j, val in zip(order, prefix):
            out[j] += float(val) - prev
            prev = float(val)
    return {j: v / m for j, v in out.items()}


def test_one_pass_sampled_shapley_is_bit_identical_to_the_permutation_loop():
    rng = np.random.default_rng(2024)
    checked = 0
    for inst in road_instances():
        for i in range(inst.n):
            senders = inst.senders_of[i]
            if not senders:
                continue
            sizes = {1, len(senders), int(rng.integers(1, len(senders) + 1))}
            for size in sorted(sizes):
                S = frozenset(int(j) for j in rng.choice(senders, size=size, replace=False))
                for m in (1, 10, 37):
                    _, got = shapley_sampled(inst, i, S, m, seed=inst.sharing.seed)
                    ref = loop_shapley_sampled(inst, i, S, m, inst.sharing.seed)
                    assert list(got.items()) == list(ref.items())
                    checked += 1
    assert checked >= 100


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
def test_permutation_stream_is_keyed_by_the_seed_sequence_of_its_ints(seed):
    # the generator is built from a uint32 array; its stream must stay the one
    # SeedSequence makes from the list [seed, i, |S|, *sorted(S)]
    for members in ([4], [0, 7, 2], list(range(30, 11, -1))):
        i = 3
        ref = np.random.default_rng(np.random.SeedSequence([seed, i, len(members), *sorted(members)]))
        got = _permutation_rng(seed, i, members)
        s = len(members)
        rows = np.broadcast_to(np.arange(s), (10, s))
        assert np.array_equal(got.permuted(rows, axis=1), ref.permuted(rows, axis=1))
        assert [got.permutation(s).tolist() for _ in range(5)] == \
            [ref.permutation(s).tolist() for _ in range(5)]


def counting_sharing_utility(monkeypatch):
    """Patch the `utility` that sharing calls; the returned list logs each call."""
    calls = []
    real_utility = sharing.utility

    def counting_utility(instance, i, subset):
        calls.append((i, subset))
        return real_utility(instance, i, subset)

    monkeypatch.setattr(sharing, "utility", counting_utility)
    return calls


def small_and_full_columns(inst):
    return [(i, frozenset(inst.senders_of[i][:k])) for i in range(inst.n)
            for k in (1, len(inst.senders_of[i])) if inst.senders_of[i]]


def test_column_split_memo_matches_a_fresh_instance_and_skips_utility(monkeypatch):
    calls = counting_sharing_utility(monkeypatch)
    inst, fresh = road_instances()[1], road_instances()[1]
    cols = small_and_full_columns(inst)
    first = [column_split(inst, i, col) for i, col in cols]
    assert calls == []  # the sampled-Shapley prefix pass gave each column its utility
    again = [column_split(inst, i, col) for i, col in cols]
    assert calls == []
    assert again == first
    assert [column_split(fresh, i, col) for i, col in cols] == first
    assert first == [(utility(inst, i, col), shares(inst, i, col)) for i, col in cols]

    assert inst.share_memo.keys() == fresh.share_memo.keys() == set(cols)

    ref = weakref.ref(inst)
    del inst, first, again
    gc.collect()
    assert ref() is None  # the memo lives and dies with its instance


@pytest.mark.parametrize("rule", [SharingRuleSpec(kind="proportional", weights="size"),
                                  SharingRuleSpec(kind="shapley_sampled", m=5, seed=2)])
def test_column_split_without_a_prefix_pass_makes_one_utility_call_per_column(monkeypatch, rule):
    # a symmetric model has no prefix pass, so its rules evaluate u_i one subset
    # at a time; the rule returns u_i(S) with its shares and column_split adds
    # no utility call of its own, after shares or on a miss
    inst = replace(gen_random(6, 3, "symmetric", seed=11), sharing=rule)
    cols = small_and_full_columns(inst)
    calls = counting_sharing_utility(monkeypatch)
    for i, col in cols:
        shares(inst, i, col)
    rule_calls = calls.copy()
    if rule.kind == "proportional":
        assert rule_calls == cols  # u_i(S) is proportional's one utility call per column
    calls.clear()
    first = [column_split(inst, i, col) for i, col in cols]
    assert calls == []
    fresh = replace(inst)
    assert [column_split(fresh, i, col) for i, col in cols] == first
    assert calls == rule_calls  # a miss makes its rule's calls and no more
    assert first == [(utility(inst, i, col), shares(inst, i, col)) for i, col in cols]


@functools.lru_cache(maxsize=None)
def contract_models(seed):
    """The five model kinds, plus a symmetric instance whose sender ids pass 8,
    where a frozenset's iteration order depends on how it was built."""
    return [*five_models(seed), gen_random(24, 6, "symmetric", seed=30 + seed)]


# (model, receiver): x3c's coverage receiver w and its set agents are separate cases
CONTRACT_CASES = [(0, None), (1, None), (2, None), (3, "w"), (3, "set"), (4, None), (5, None)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2), case=st.sampled_from(CONTRACT_CASES), rule=st.sampled_from(RULES),
       data=st.data())
def test_column_split_is_the_rule_pair_and_calls_no_utility_after_shares(seed, case, rule, data):
    # every rule returns (u_i(S), shares) and the instance memoizes that pair,
    # so column_split after shares reads u_i(S) without a utility call
    model, receiver = case
    inst = contract_models(seed)[model]
    if rule == "proportional_size" and not isinstance(inst.utility, SymmetricWeighted):
        return  # size weights need a size-based utility model
    inst = _with_rule(inst, rule, data)
    if receiver == "w":
        i = inst.utility.w
    else:
        agents = range(2 * inst.utility.m) if receiver == "set" else range(inst.n)
        i = data.draw(st.sampled_from([a for a in agents if inst.senders_of[a]]))
    # drawn in any order, so the subset's frozenset is built in that order
    S = frozenset(data.draw(st.lists(st.sampled_from(inst.senders_of[i]), min_size=1,
                                     max_size=8, unique=True)))
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_sharing_utility(mp)
        h = shares(inst, i, S)
        calls.clear()
        u, split = column_split(inst, i, S)
        assert calls == []
    assert split is h
    assert u == utility(inst, i, S)
    assert column_split(replace(inst), i, S) == (u, h)  # a miss runs the rule for the pair


def test_a_symmetric_column_utility_does_not_depend_on_how_its_subset_was_built():
    # past sender id 8 a frozenset's iteration order follows its insertion
    # order, and the Shapley rules value the subset rebuilt in sender order
    rng = np.random.default_rng(8)
    checked = 0
    for rule in (SharingRuleSpec(kind="shapley_exact"),
                 SharingRuleSpec(kind="shapley_sampled", m=5)):
        for seed in range(3):
            inst = replace(gen_random(24, 7, "symmetric", seed=seed), sharing=rule)
            for i in range(inst.n):
                order = [int(j) for j in rng.permutation(inst.senders_of[i])]
                for k in range(2, len(order) + 1):
                    S = frozenset(order[:k])
                    assert column_split(inst, i, S)[0] == utility(inst, i, S)
                    checked += 1
    assert checked >= 400


def test_memoized_utility_of_a_prefix_pass_equals_the_model_value():
    rng = np.random.default_rng(11)
    table = gen_random(7, 5, "table", seed=6)
    table = replace(table, sharing=SharingRuleSpec(kind="shapley_sampled", m=10, seed=3))
    checked = 0
    for inst in [*road_instances(), table]:
        for i in range(inst.n):
            senders = inst.senders_of[i]
            if not senders:
                continue
            for size in sorted({1, int(rng.integers(1, len(senders) + 1)), len(senders)}):
                S = frozenset(int(j) for j in rng.choice(senders, size=size, replace=False))
                shares(inst, i, S)
                assert inst.share_memo[(i, S)][0] == inst.utility.value(i, S)
                checked += 1
    assert checked >= 150


def test_road_solve_equals_a_solve_that_values_every_column_afresh(monkeypatch):
    """Columns valued from the memoized prefix pass give the welfare, columns
    and weights of a solve whose column_split calls model.value."""
    from datex import get_oracle, normalize_instance, solve_welfare
    from datex.experiment import road_mwu_config

    def solve_all(insts):
        out = []
        for inst in insts:
            solution, report = solve_welfare(inst, road_mwu_config(inst.n),
                                             get_oracle("bucketing"))
            out.append((report.welfare, list(solution.iter_columns())))
        return out

    def insts():
        return [normalize_instance(inst)[0] for inst in road_instances()]

    memoized = solve_all(insts())
    real_split = sharing.column_split

    def valued_split(instance, i, col):
        _, split = real_split(instance, i, col)
        return instance.utility.value(i, col), split

    monkeypatch.setattr(sharing, "column_split", valued_split)
    assert solve_all(insts()) == memoized
    assert all(cols for _, cols in memoized)


def test_a_column_the_instance_does_not_permit_is_refused_before_any_prefix_pass():
    # on road every other agent may send to i; the path-variance prefix pass
    # would value i's own donor row, so the share memo checks senders first
    inst = road_instances()[0]
    for i in (0, 7):
        col = frozenset({i, inst.senders_of[i][0]})
        for call in (shares, column_split):
            with pytest.raises(ValueError, match=rf"senders \[{i}\] are not permitted for agent {i}"):
                call(inst, i, col)
    assert inst.share_memo == {}  # a refused subset leaves no memo entry


def test_frac_columns_still_split_by_volume():
    sym = gen_random(5, 3, "symmetric", seed=5)
    inst = Instance(n=sym.n, allowed=sym.allowed,
                    utility=ContinuousConcave(sizes=dict(sym.utility.sizes), f=sym.utility.f),
                    sharing=SharingRuleSpec(kind="proportional", weights="size"))
    i = next(a for a in range(inst.n) if len(inst.senders_of[a]) >= 2)
    y = {j: 0.25 + 0.5 * t for t, j in enumerate(inst.senders_of[i][:2])}
    col = FracColumn(y=tuple(sorted(y.items())))
    u, h = column_split(inst, i, col)
    assert u == inst.utility.value_fractional(i, y)
    volume = {j: inst.utility.sizes[(i, j)] * frac for j, frac in y.items()}
    total = sum(volume.values())
    assert h == {j: v / total * u for j, v in volume.items()}
    assert column_split(inst, i, col) == (u, h)
    assert not any(col in key for key in inst.share_memo)


def _dense_column_lp_rows(inst, cols):
    """The column LP's [mass; resid; -resid] rows as the dense builder made them."""
    mass = np.zeros((inst.n, len(cols)))
    util = np.zeros(len(cols))
    share_at = []
    for c, (i, col) in enumerate(cols):
        util[c], split = column_split(inst, i, col)
        mass[i, c] = 1.0
        share_at.extend((j, c, h) for j, h in split.items())
    resid = mass * util
    for j, c, h in share_at:
        resid[j, c] -= h
    return np.vstack([mass, resid, -resid])


@pytest.mark.parametrize("model", range(5))
def test_column_lp_rows_match_the_dense_builder_bit_for_bit(monkeypatch, model):
    from conftest import five_model_instances

    inst = five_model_instances()[model]
    cols = [(i, frozenset(s)) for i in range(inst.n)
            for size in (1, 2) for s in itertools.combinations(inst.senders_of[i][:4], size)]
    if isinstance(inst.utility, ContinuousConcave):  # fractional columns split by volume
        cols += [(i, FracColumn(y=tuple((j, 0.2 + 0.3 * t) for t, j in enumerate(senders))))
                 for i in range(inst.n) if (senders := inst.senders_of[i][:3])]
    seen = []

    def recording_linprog(c, **kwargs):
        seen.append(kwargs["A_ub"])
        return linprog(c, **kwargs)

    linprog = lp.linprog
    monkeypatch.setattr(lp, "linprog", recording_linprog)
    bound = np.full(inst.n, inst.epsilon)
    assert sharing.column_lp(inst, cols, -bound, bound).success
    old = _dense_column_lp_rows(inst, cols)
    assert seen[0].shape == old.shape and seen[0].tobytes() == old.tobytes()


def loop_shapley_sampled_any_model(instance, i, subset, m, seed):
    """Sampled Shapley with one rng.permutation call per permutation and one
    utility call per prefix."""
    members = sorted(subset)
    rng = _permutation_rng(seed, i, members)
    out = {j: 0.0 for j in members}
    for _ in range(m):
        prev, chosen = 0.0, set()
        for t in rng.permutation(len(members)):
            chosen.add(members[t])
            val = utility(instance, i, frozenset(chosen))
            out[members[t]] += val - prev
            prev = val
    return {j: v / m for j, v in out.items()}


def test_sampled_shapley_on_other_models_is_bit_identical_to_the_per_draw_loop():
    rng = np.random.default_rng(77)
    checked = 0
    for kind in ("symmetric", "table"):
        for seed in (5, 6):
            inst = replace(gen_random(8, 6, kind, seed=seed),
                           sharing=SharingRuleSpec(kind="shapley_sampled", m=10, seed=seed))
            for i in range(inst.n):
                senders = inst.senders_of[i]
                if not senders:
                    continue
                for size in sorted({1, len(senders), int(rng.integers(1, len(senders) + 1))}):
                    S = frozenset(int(j) for j in rng.choice(senders, size=size, replace=False))
                    for m in (1, 10, 37):
                        _, got = shapley_sampled(inst, i, S, m, seed=inst.sharing.seed)
                        ref = loop_shapley_sampled_any_model(inst, i, S, m, inst.sharing.seed)
                        assert list(got.items()) == list(ref.items())
                        checked += 1
    assert checked >= 100


def test_one_member_sampled_shapley_draws_nothing_and_matches_the_loop(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a one-member subset drew permutations")

    monkeypatch.setattr(sharing, "_permutation_rng", no_draw)  # the loops keep theirs
    cases = [(inst, loop_shapley_sampled) for inst in road_instances()]
    cases.append((gen_random(6, 4, "table", seed=9), loop_shapley_sampled_any_model))
    checked = 0
    for inst, loop in cases:
        for i in range(inst.n):
            for j in inst.senders_of[i][:3]:
                for m in (1, 10, 37):
                    _, got = shapley_sampled(inst, i, frozenset({j}), m, seed=4)
                    assert list(got.items()) == list(loop(inst, i, frozenset({j}), m, 4).items())
                    checked += 1
    assert checked >= 100

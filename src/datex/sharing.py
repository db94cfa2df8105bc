"""Utility sharing rules (exact Shapley, permutation-sampled Shapley,
proportional) and the column LP rows they induce."""

from __future__ import annotations

import math
import weakref
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .model import (
    EQ_TOL,
    ContinuousConcave,
    ExchangeSolution,
    ExplicitTable,
    FracColumn,
    Instance,
    PathVariance,
    X3CCoverage,
    require_permitted,
    utility,
)

MAX_EXACT_SHAPLEY = 12

# HiGHS meets the mass rows only to its feasibility tolerance (~1e-7); an
# agent's LP weights may exceed 1 by this much and are scaled back onto it
LP_MASS_TOL = 1e-6

# one entry per (instance, agent, subset): [u_i(S), shares], each None until
# known; sampled Shapley's prefix pass fills in u_i(S), column_split reads it
_share_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memo_entry(instance: Instance, i: int, subset: frozenset[int]) -> list:
    cache = _share_cache.setdefault(instance, {})
    entry = cache.get((i, subset))
    if entry is None:
        entry = cache[(i, subset)] = [None, None]
    return entry


def shares(instance: Instance, i: int, subset: frozenset[int]) -> dict[int, float]:
    """h_ij(subset) for every j in subset, per the instance's sharing rule."""
    if not subset:
        return {}
    entry = _memo_entry(instance, i, subset)
    if entry[1] is not None:
        return entry[1]
    require_permitted(instance, i, subset)
    rule = instance.sharing
    if isinstance(instance.utility, X3CCoverage) and rule.kind in ("shapley_exact", "shapley_sampled"):
        out = _x3c_shapley(instance, i, subset)
    elif rule.kind == "shapley_exact":
        out = shapley_exact(instance, i, subset)
    elif rule.kind == "shapley_sampled":
        out = shapley_sampled(instance, i, subset, rule.m, rule.seed)
    else:
        out = proportional(instance, i, subset)
    entry[1] = out
    return out


def column_split(instance: Instance, i: int, col: frozenset[int] | FracColumn,
                 ) -> tuple[float, dict[int, float]]:
    """Utility of a solution column to i and its shares, memoized for set
    columns; fractional columns need the continuous model and split
    proportionally to volume."""
    if not isinstance(col, FracColumn):
        entry = _memo_entry(instance, i, col)
        if entry[1] is None:  # a miss checks col, and a prefix pass fills in entry[0]
            entry[1] = shares(instance, i, col)
        if entry[0] is None:
            entry[0] = utility(instance, i, col)
        return entry[0], entry[1]
    model = instance.utility
    if not isinstance(model, ContinuousConcave):
        raise ValueError("fractional columns need the continuous model")
    if instance.sharing.kind != "proportional":
        raise ValueError("fractional columns need proportional sharing")
    y = dict(col.y)
    u = model.value_fractional(i, y)
    volume = {j: model.sizes.get((i, j), 0.0) * frac for j, frac in y.items()}
    total = sum(volume.values())
    if total <= 0.0:
        return u, {j: 0.0 for j in y}
    return u, {j: v / total * u for j, v in volume.items()}


def column_flows(instance: Instance, cols: Sequence[tuple[int, frozenset[int] | FracColumn]],
                 weights: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Utility each agent receives and sends over columns at weights: x * u and
    x * h of each column's memoized split, added in column order from 0.0."""
    received, sent = [0.0] * instance.n, [0.0] * instance.n
    for (i, col), x in zip(cols, weights):
        u, split = column_split(instance, i, col)
        received[i] += x * u
        for j, h in split.items():
            sent[j] += x * h
    return np.array(received), np.array(sent)


def column_rows(instance: Instance, cols: Sequence[tuple[int, frozenset[int] | FracColumn]],
                agents: Sequence[int],
                ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The utility of each (agent, column) pair and the pairs' LP rows, row r
    standing for agents[r]: (row, column, value) triplets of the k mass rows
    (1 where agent r receives column c: the x_r <= 1 rows), then of the k
    residual rows k..2k-1 (utility received minus shares sent, per unit weight)."""
    row = {a: r for r, a in enumerate(agents)}
    k = len(row)
    util, recv, share_row, share_col, share = [], [], [], [], []
    for c, (i, col) in enumerate(cols):
        u, split = column_split(instance, i, col)
        util.append(u)
        recv.append(row[i])
        share_row.extend(row[j] for j in split)
        share_col.extend([c] * len(split))
        share.extend(split.values())
    idx = lambda ints: np.array(ints, dtype=np.intp)
    recv, lp_cols, util = idx(recv), np.arange(len(util)), np.array(util, dtype=float)
    return util, (np.concatenate([recv, k + recv, k + idx(share_row)]),
                  np.concatenate([lp_cols, lp_cols, idx(share_col)]),
                  np.concatenate([np.ones(len(util)), util, -np.array(share, dtype=float)]))


def column_lp(instance: Instance, cols: Sequence[tuple[int, frozenset[int] | FracColumn]],
              lo: np.ndarray, hi: np.ndarray):
    """LP1 on a column set: maximize welfare over the weights of cols subject to
    mass_i <= 1 and lo_i <= residual_i <= hi_i (lo = hi = 0 is exact balance).

    Returns linprog's result, its inequality rows ordered [mass; resid; -resid].
    A failed LP raises RuntimeError("column LP failed: ...")."""
    from . import lp

    n = instance.n
    util, (rows, lp_cols, vals) = column_rows(instance, cols, range(n))
    a = np.zeros((2 * n, len(cols)))
    np.add.at(a, (rows, lp_cols), vals)
    a_ub = np.vstack([a, -a[n:]])
    b_ub = np.concatenate([np.ones(n), hi, -lo])
    res = lp.linprog(-util, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs-ds")
    if not res.success:
        raise RuntimeError(f"column LP failed: {res.message}")
    return res


def lp_solution(n: int, cols: Sequence[tuple[int, frozenset[int] | FracColumn]],
                x: np.ndarray, deltas: np.ndarray | None = None,
                gammas: np.ndarray | None = None) -> ExchangeSolution:
    """The solution carried by column-LP weights x: weights above 1e-12, each
    clipped to 1; an agent's mass within LP_MASS_TOL above 1 is scaled back to
    1 (a larger excess fails in ExchangeSolution); at most 2n+1 columns."""
    keep = np.flatnonzero(x > 1e-12)
    if len(keep) > 2 * n + 1:
        raise AssertionError(f"column LP returned {len(keep)} > 2n+1 active columns")
    agent = np.array([cols[c][0] for c in keep], dtype=np.intp)
    w = np.minimum(x[keep], 1.0)
    mass = np.bincount(agent, weights=w, minlength=n)  # summed as ExchangeSolution sums it
    w /= np.where((mass > 1.0 + EQ_TOL) & (mass <= 1.0 + LP_MASS_TOL), mass, 1.0)[agent]
    out: dict[int, dict] = {}
    for c, xc in zip(keep, w):
        i, col = cols[c]
        out.setdefault(i, {})[col] = float(xc)
    return ExchangeSolution(n=n, columns=out, deltas=deltas, gammas=gammas)


def _x3c_shapley(instance: Instance, i: int, subset: frozenset[int]) -> dict[int, float]:
    # Coverage utilities have a closed-form Shapley value: each covered element
    # hands 1/c_e(S) to every covering set.  Non-coverage agents have a single
    # permitted sender, so the share is the full utility.
    model = instance.utility
    assert isinstance(model, X3CCoverage)
    if i == model.w:
        return model.coverage_shares(subset)
    (j,) = subset
    return {j: utility(instance, i, subset)}


def shapley_exact(instance: Instance, i: int, subset: frozenset[int]) -> dict[int, float]:
    """Exact Shapley shares via the subset-weighted sum (2^|S| evaluations)."""
    if not subset:
        return {}
    members = sorted(subset)
    s = len(members)
    if s > MAX_EXACT_SHAPLEY:
        raise ValueError(
            f"|S| = {s} exceeds the exact-Shapley bound {MAX_EXACT_SHAPLEY}; use shapley_sampled"
        )
    # weight of a coalition W preceding j: |W|! (s - |W| - 1)! / s!
    fact = [math.factorial(t) for t in range(s + 1)]
    coeff = [fact[c] * fact[s - c - 1] / fact[s] for c in range(s)]
    u_of: dict[int, float] = {}

    def u_mask(mask: int) -> float:
        val = u_of.get(mask)
        if val is None:
            val = utility(instance, i, frozenset(members[b] for b in range(s) if mask & (1 << b)))
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


@lru_cache(maxsize=64)
def _seed_words(seed: int) -> tuple[int, ...]:
    """A non-negative seed's 32-bit words, low word first, as SeedSequence
    splits an int; a negative seed raises OverflowError."""
    raw = seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little")
    return tuple(int.from_bytes(raw[b:b + 4], "little") for b in range(0, len(raw), 4))


def _permutation_rng(seed: int, i: int, subset: Iterable[int]) -> np.random.Generator:
    """The generator of one sampled-Shapley draw, keyed by (seed, agent,
    canonical subset) so draws are call-order independent.

    Its stream is default_rng(SeedSequence([seed, i, len(S), *sorted(S)])):
    the same entropy words, passed as one uint32 array so numpy does not
    convert the ints one by one.
    """
    members = sorted(subset)
    entropy = np.array([*_seed_words(seed), i, len(members), *members], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@lru_cache(maxsize=256)
def _identity_rows(m: int, s: int) -> np.ndarray:
    """m read-only rows of 0..s-1: the input that permuted shuffles row by row."""
    return np.broadcast_to(np.arange(s), (m, s))


def shapley_sampled(instance: Instance, i: int, subset: frozenset[int],
                    m: int = 10, seed: int = 0) -> dict[int, float]:
    """Average marginal over m seeded uniform permutations of the subset."""
    if not subset:
        return {}
    if m < 1:
        raise ValueError("permutation count m must be >= 1")
    members = sorted(subset)
    s = len(members)
    if s == 1:
        perms = np.zeros((m, 1), dtype=np.intp)  # the only permutation; nothing to draw
    else:
        # one call draws the m permutations that m rng.permutation(s) calls draw
        perms = _permutation_rng(seed, i, members).permuted(_identity_rows(m, s), axis=1)
    model = instance.utility
    if isinstance(model, (ExplicitTable, PathVariance)):  # all m prefix passes in one array
        marg = model.prefix_values(i, np.array(members)[perms])
        _memo_entry(instance, i, subset)[0] = float(marg[0, -1])  # every last prefix is u_i(S)
    else:
        marg = np.array([[utility(instance, i, frozenset(members[t] for t in perm[:c]))
                          for c in range(1, s + 1)] for perm in perms], dtype=float)
    # prefix utilities to marginals; add.at then adds each member's marginals
    # in permutation order, as a per-permutation loop adds them
    np.subtract(marg[:, 1:], marg[:, :-1], out=marg[:, 1:])
    acc = np.zeros(s)
    np.add.at(acc, perms, marg)
    return dict(zip(members, (acc / m).tolist()))


def proportional(instance: Instance, i: int, subset: frozenset[int]) -> dict[int, float]:
    """h_ij(S) = w_ij / sum_k w_ik * u_i(S), with w from the instance's sharing rule."""
    if not subset:
        return {}
    u = utility(instance, i, subset)
    w = instance.sharing.weights
    if w in (None, "singleton"):
        w_of = {j: float(instance.singleton_utility[i, j]) for j in subset}
    elif w == "size":  # a size-based model, as the instance checks
        w_of = {j: instance.utility.sizes.get((i, j), 0.0) for j in subset}
    else:
        w_of = {j: next((wv for wi, wj, wv in w if (wi, wj) == (i, j)), 0.0) for j in subset}
    total = sum(w_of.values())
    if total <= 0.0:
        if u > EQ_TOL:
            raise ValueError(f"undefined proportional share: zero weight-sum for agent {i}")
        return {j: 0.0 for j in subset}
    return {j: wv / total * u for j, wv in w_of.items()}


def cross_monotonicity_audit(instance: Instance, i: int, budget: int = 200,
                             seed: int | None = None) -> list[tuple[int, frozenset[int], frozenset[int]]]:
    """Sample (j, T subset-of S) pairs; report every h_ij(T) < h_ij(S) - tol."""
    senders = instance.senders_of[i]
    if not senders:
        return []
    rng = np.random.default_rng(instance.seed if seed is None else seed)
    violations = []
    checked = 0
    while checked < budget:
        size_s = int(rng.integers(1, len(senders) + 1))
        S = frozenset(int(x) for x in rng.choice(senders, size=size_s, replace=False))
        if len(S) < 2:
            checked += 1
            continue
        size_t = int(rng.integers(1, len(S)))
        T = frozenset(int(x) for x in rng.choice(sorted(S), size=size_t, replace=False))
        h_S = shares(instance, i, S)
        h_T = shares(instance, i, T)
        for j in sorted(T):
            if h_T[j] < h_S[j] - EQ_TOL:
                violations.append((j, T, S))
            checked += 1
            if checked >= budget:
                break
    return violations

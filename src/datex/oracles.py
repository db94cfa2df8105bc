"""Approximate maximizers of the per-agent dual subproblem max_S sum_j Q_ij h_ij(S).

Every oracle is fn(instance, i, q, eps), where q is agent i's length-n price
row Q_i as a float array; only the entries of i's senders are read.
"""

from __future__ import annotations

import logging
import math
import sys
import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (
    ConcaveSpec,
    ContinuousConcave,
    ExplicitTable,
    Instance,
    MAX_ENUMERABLE_SENDERS,
)
from .sharing import shares

logger = logging.getLogger(__name__)

SIZE_FIXED_POINT = 10**6  # knapsack sizes in units of 1e-6, or finer for smaller sizes


@dataclass
class OracleResult:
    chosen: frozenset[int]
    value: float
    y: dict[int, float] | None = None  # fractional vector (continuous oracle only)
    guesses: int = 0


def oracle_value(instance: Instance, i: int, q: np.ndarray | list[float],
                 subset: frozenset[int]) -> float:
    """Recompute sum_j q_j h_ij(subset)."""
    return sum(float(q[j]) * h for j, h in shares(instance, i, subset).items())


_EMPTY = frozenset()


def _best_singleton(name: str, instance: Instance, i: int, q: np.ndarray) -> float:
    """_checked_single on agent i's rows of q and of the singleton table."""
    return _checked_single(name, instance.n, instance.senders_of[i], q.tolist(),
                           instance.singleton_utility[i].tolist())


def _checked_single(name: str, n: int, senders: Sequence[int], q_row: list[float],
                    u_row: list[float]) -> float:
    """max(0, max_j q_j u_ij) over the senders; NaN if any product is NaN.

    n times this value is the oracle's first guess of its optimum.  Under a
    cross-monotone rule every share h_ij(S) is at most u_ij, so a finite guess
    bounds the oracle's sums; a row whose guess is not finite (they would
    overflow) raises ValueError.  On rows of a few senders this loop costs
    less than the same reduction in numpy.
    """
    single_val = 0.0
    for j in senders:
        v = q_row[j] * u_row[j]
        if v > single_val or v != v:  # a NaN then stays, as in numpy's max
            single_val = v
    guess = n * single_val
    if not math.isfinite(guess):
        raise _first_guess_error(name, guess)
    return single_val


def _first_guess_error(name: str, guess: float) -> ValueError:
    return ValueError(f"{name} oracle needs a finite first guess n * max_j q_j u_ij; got {guess!r}")


def oracle_bruteforce(instance: Instance, i: int, q: np.ndarray, eps: float = 0.1) -> OracleResult:
    """Exact argmax over all subsets of permitted senders (exactness baseline).

    eps is taken only so every oracle has one signature; the argmax is exact.
    """
    senders = instance.senders_of[i]
    if len(senders) > MAX_ENUMERABLE_SENDERS:
        raise ValueError(f"{len(senders)} senders too many for brute force")
    _best_singleton("bruteforce", instance, i, q)
    best_set, best_val = _EMPTY, 0.0
    for mask in range(1, 1 << len(senders)):
        subset = frozenset(senders[b] for b in range(len(senders)) if mask & (1 << b))
        val = oracle_value(instance, i, q, subset)
        if val > best_val:
            best_set, best_val = subset, val
    return OracleResult(chosen=best_set, value=best_val, guesses=1 << len(senders))


def bucketing_alpha(n: int, eps: float) -> float:
    """Approximation factor certified by the bucketing oracle."""
    return max(1.0, 3.0 * math.e * (1.0 + 3.0 * eps) * math.log(max(n, 2)))


@lru_cache(maxsize=64)
def _bucket_edges(n: int, eps: float) -> np.ndarray:
    """The edges e^k, k = 0..count, of the bucketing oracle's count buckets.

    The edges are Python's (1 + delta) ** k, so bucket membership does not
    depend on numpy's pow; they increase, so u0 * edges is sorted.
    """
    delta = math.e - 1.0
    count = 3 * math.ceil(math.log(n / eps) / math.log(1.0 + delta))
    edges = np.array([(1.0 + delta) ** k for k in range(count + 1)])
    edges.flags.writeable = False
    return edges


class FirstGuess(NamedTuple):
    """One agent's first bucketing guess n * single, from bucketing_first_guesses."""

    single: float  # max(0, max_j q_j u_ij) over the agent's senders
    best: int  # the first sender, in sender order, whose q_j u_ij is the maximum
    buckets: dict[int, list[int]]  # bucket index c -> its senders, in sender order


# instances whose bucketing calls have already logged the sampled-Shapley note
_noted: weakref.WeakSet = weakref.WeakSet()


def _check_bucketing(instance: Instance, eps: float) -> None:
    check_oracle_eps("bucketing", eps)
    if instance.sharing.kind == "proportional":
        raise ValueError("bucketing oracle needs a cross-monotone sharing rule")
    if instance.sharing.kind == "shapley_sampled" and instance not in _noted:
        _noted.add(instance)
        logger.debug("bucketing with sampled Shapley: cross-monotonicity only approximate")


def _buckets(instance: Instance, rows: np.ndarray, q: np.ndarray, guess: np.ndarray,
             eps: float) -> list[dict[int, list[int]]]:
    """Each row's bucket index c -> its senders, in sender order, at that row's
    guess, q holding the rows' prices.  c - 1 is the bucket k with u0 e^k < q
    <= u0 e^(k+1), the count of edges strictly below q; c = 0, no bucket, holds
    q <= u0, the senders whose utility or value is negligible, and the others."""
    n = instance.n
    mask = instance.sender_mask[rows]
    u = instance.singleton_utility[rows]
    u0 = eps * guess / n
    # c <= count at guess >= single, u0 normal: a kept q <= single n^2/eps^2 <= u0 e^count
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.count_nonzero(u0[:, None, None] * _bucket_edges(n, eps) < q[:, :, None], axis=2)
        c[~mask | (u < eps * eps / (n * n)) | (q * u < u0[:, None])] = 0
    buckets: list[dict[int, list[int]]] = [{} for _ in range(len(rows))]
    r_idx, j_idx = np.nonzero(c)  # row-major, so senders come in ascending order
    for r, j, cj in zip(r_idx.tolist(), j_idx.tolist(), c[r_idx, j_idx].tolist()):
        buckets[r].setdefault(cj, []).append(j)
    return buckets


def bucketing_first_guesses(instance: Instance, agents: Sequence[int], q: np.ndarray,
                            eps: float) -> list[FirstGuess]:
    """The bucketing oracle's first guess for every agent in agents, whose price
    row is the matching row of q, in one array pass over all rows.

    Raises the oracle's ValueError for the first row whose guess n * single is
    not finite, before any further arithmetic on the rows.
    """
    _check_bucketing(instance, eps)
    rows = np.asarray(agents, dtype=np.intp)
    qu = np.full(q.shape, -np.inf)  # -inf off the senders: never a maximum
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(q, instance.singleton_utility[rows], out=qu, where=instance.sender_mask[rows])
        single = qu.max(axis=1, initial=0.0)  # a NaN product stays, as in _best_singleton
        guess = instance.n * single
    finite = np.isfinite(guess)
    if not finite.all():
        raise _first_guess_error("bucketing", float(guess[finite.argmin()]))
    buckets = _buckets(instance, rows, q, guess, eps)
    return [FirstGuess(*row) for row in zip(single.tolist(), qu.argmax(axis=1).tolist(), buckets)]


def oracle_bucketing(instance: Instance, i: int, q: np.ndarray, eps: float = 0.1,
                     first: FirstGuess | None = None) -> OracleResult:
    """Bucket senders by price level and return the best whole bucket.

    Sweeps guesses of the oracle optimum in descending powers of (1+eps),
    filters senders whose price or singleton utility is negligible at that
    guess, groups the rest into price buckets of ratio e, and accepts the
    largest guess whose best bucket certifies value >= guess / alpha_hat.
    The best positive singleton is kept as a fallback candidate so the
    returned value is never below (max_j Q_ij u_ij), which at this scale
    dominates 1/alpha_hat of the exact optimum.  first is i's entry of
    bucketing_first_guesses on q, which the solver computes for all agents
    at once; without it the oracle computes it on its one row.

    Every kept sender has q_j > 0, and on a subadditive utility every share
    h_ij is at most u_ij, so a bucket is worth at most its singleton bound
    sum_j q_j u_ij.  Buckets are valued in descending bound, ties by
    ascending index, and the scan stops once a bound (widened by 1e-9) is
    below the best value found at that guess.  ExplicitTable utilities need
    not be submodular, so there every bucket is valued.  On equal values the
    smaller index wins, so the result is the one an ascending scan of every
    bucket returns.
    """
    if first is None:
        (first,) = bucketing_first_guesses(instance, [i], q[None, :], eps)
    single_val = first.single
    if single_val <= 0.0:
        return OracleResult(chosen=_EMPTY, value=0.0, guesses=0)
    n = instance.n
    guess = n * single_val
    q_row = q.tolist()
    u_row = instance.singleton_utility[i].tolist()
    prune = not isinstance(instance.utility, ExplicitTable)
    alpha_hat = bucketing_alpha(n, eps)

    best_set, best_val = _EMPTY, 0.0
    guesses = 0
    lo = single_val / (1.0 + eps)
    buckets = first.buckets
    while guess >= lo:
        guesses += 1
        if guesses > 1:
            (buckets,) = _buckets(instance, np.array([i]), q[None, :], np.array([guess]), eps)
        bound = {k: sum([q_row[j] * u_row[j] for j in b]) for k, b in buckets.items()}
        cand_set, cand_val, cand_k = _EMPTY, 0.0, -1
        for k in sorted(buckets, key=lambda k: (-bound[k], k)):
            if prune and bound[k] * (1.0 + 1e-9) < cand_val:
                break  # this bucket and every later one is worth less than cand_val
            b_set = frozenset(buckets[k])
            v_k = sum(q_row[j] * h for j, h in shares(instance, i, b_set).items())
            if v_k > cand_val or (v_k == cand_val and v_k > 0.0 and k < cand_k):
                cand_set, cand_val, cand_k = b_set, v_k, k
        if cand_val > best_val:
            best_set, best_val = cand_set, cand_val
        if cand_val >= guess / alpha_hat:
            break  # largest valid guess; best_set already holds the top candidate
        guess /= 1.0 + eps

    if single_val > best_val:
        best_set, best_val = frozenset({first.best}), single_val
    return OracleResult(chosen=best_set, value=best_val, guesses=guesses)


def _knapsack_table(profits: list[float], weights_int: tuple[int, ...],
                    eps: float) -> tuple[list[float], list[tuple[float, tuple[int, ...]]]]:
    """The Ibarra-Kim profit-scaled knapsack DP over one item set, answered per capacity.

    Cell t holds the least weight reaching scaled profit t, the true profit of
    its items and the items, in ascending order.  Items are added in order,
    each extending the cells reached before it and replacing a cell only by a
    strictly lighter one; a cell's true profit is its predecessor's plus the
    item's.  A capacity admits the cells whose weight is at most it; its
    answer is the first t with the largest true profit among them.  Returns
    the admitted weights in ascending order and, per prefix, that answer as
    (profit, items), so one bisect_right finds the answer for any capacity.
    """
    m = len(profits)
    p_max = max(profits)
    lifted = profits
    if 0.0 < p_max and eps * p_max / m < sys.float_info.min:
        # a subnormal scale loses the profits' ratios, and a zero one divides by
        # 0: scale by an exact power of two first (answers keep the true profits)
        shift = -math.frexp(p_max)[1]
        lifted = [math.ldexp(p, shift) for p in profits]
        p_max = math.ldexp(p_max, shift)
    scale = eps * p_max / m if p_max > 0 else 1.0
    cells: dict[int, tuple[float, float, tuple[int, ...]]] = {0: (0.0, 0, ())}
    for idx, (w, p, lp) in enumerate(zip(weights_int, profits, lifted)):
        r = int(lp // scale)
        if r == 0:
            continue  # reaches no new cell and, as w >= 1, lightens none
        for t, (w_t, p_t, pick) in list(cells.items()):
            cand = w_t + w
            old = cells.get(t + r)
            if old is None or cand < old[0]:
                cells[t + r] = (cand, p_t + p, pick + (idx,))
    caps: list[float] = []
    answers: list[tuple[float, tuple[int, ...]]] = []
    top_p, top_t, top_items = -1.0, -1, ()
    for w_t, t, p, items in sorted([(w_t, t, p, items) for t, (w_t, p, items) in cells.items()]):
        if p > top_p or (p == top_p and t < top_t):
            top_p, top_t, top_items = p, t, items
        caps.append(w_t)
        answers.append((top_p, top_items))
    return caps, answers


def _knapsack_plan(f: ConcaveSpec, sizes: tuple[float, ...], eps: float) -> tuple[int, tuple]:
    """The part of a knapsack oracle call that does not depend on prices.

    Returns the number of capacity guesses and, per distinct set of fitting
    items in ascending capacity order (a group), (item indices, their integer
    weights, its guesses as (cap_int, f(phi) / phi), the largest of those
    ratios).  With the fit's total profit, the largest ratio bounds a group's
    scores before its table is built: oracle_knapsack visits the groups in
    descending bound, equal bounds in this order, and stops below its best
    score; an equal score keeps the earlier group's candidate.
    """
    # sizes live on a decimal fixed-point grid so capacity comparisons are
    # exact; the smallest size is at least one unit, so every guess is positive
    s_min, unit = min(sizes), SIZE_FIXED_POINT
    try:
        while s_min * unit < 1.0:
            unit *= 10
        weights_int = [round(s * unit) for s in sizes]
    except OverflowError:  # the unit, or a size in units, passed the largest float
        raise ValueError(f"knapsack oracle cannot put sizes {s_min!r} to {max(sizes)!r} "
                         "on one fixed-point grid") from None
    total_int = sum(weights_int)
    grid_int = set(weights_int) | {total_int}
    phi = float(min(weights_int))
    while phi < total_int:
        grid_int.add(round(phi))
        phi *= 1.0 + eps

    sorted_w = sorted(weights_int)
    groups: list[tuple[tuple[int, ...], tuple[int, ...], list[tuple[int, float]]]] = []
    for cap_int in sorted(grid_int):
        if not groups or bisect_right(sorted_w, cap_int) != len(groups[-1][0]):
            # fitting sets are nested, so their size names them
            fit = tuple(idx for idx, w in enumerate(weights_int) if w <= cap_int)
            groups.append((fit, tuple(weights_int[idx] for idx in fit), []))
        phi = cap_int / unit
        groups[-1][2].append((cap_int, f(phi) / phi))
    return len(grid_int), tuple((fit, w, tuple(guesses), max([r for _, r in guesses]))
                                for fit, w, guesses in groups)


class _KnapsackAgent(NamedTuple):
    """What oracle_knapsack reads of agent i, built once per instance."""

    senders: tuple[int, ...]  # i's senders, ascending
    u_row: list[float]  # row i of the singleton table
    sizes: tuple[tuple[int, float], ...]  # (j, s_ij) of the senders with s_ij > 0
    f: ConcaveSpec  # f_i
    plans: dict[tuple, tuple]  # (positive-price senders, eps) -> _knapsack_plan's result


def _knapsack_agent(instance: Instance, i: int) -> _KnapsackAgent:
    """Agent i's entry of instance.oracle_memo; until one is built, every call
    checks the model and the sharing rule, so a refused instance stays refused."""
    agent = instance.oracle_memo.get(("knapsack", i))
    if agent is None:
        model = instance.utility
        if model.kind != "symmetric_weighted":  # not continuous: (1+eps)^2 holds for set columns
            raise ValueError("knapsack oracle needs the symmetric weighted model")
        if instance.sharing.kind != "proportional" or instance.sharing.weights != "size":
            raise ValueError("knapsack oracle needs proportional sharing with w = s")
        senders = instance.senders_of[i]
        sizes = tuple((j, s) for j in senders if (s := model.sizes.get((i, j), 0.0)) > 0.0)
        agent = instance.oracle_memo["knapsack", i] = _KnapsackAgent(
            senders, instance.singleton_utility[i].tolist(), sizes, model.f[i], {})
    return agent


def oracle_knapsack(instance: Instance, i: int, q: np.ndarray, eps: float = 0.1) -> OracleResult:
    """Guess the optimal data volume and solve a knapsack per guess.

    For symmetric weighted utilities with proportional sharing (w = s) the
    objective factors as (sum_j Q_ij s_ij) * f_i(D)/D; f(x)/x non-increasing
    lets a (1+eps) grid on D plus an FPTAS knapsack give a (1+eps)^2 factor.
    The DP of a guess depends on it only through the items that fit, and
    those sets are nested, so one table per distinct set answers every guess.
    The guess grid does not depend on prices; it is kept in the agent's entry
    of instance.oracle_memo per (positive-price senders, eps).

    A guess scores v * r_k, v its table answer's profit and r_k = f(phi_k) /
    phi_k.  Groups are solved in descending order of the bound P * r_max, P
    the sum of the fit's profits in ascending item order and r_max its largest
    ratio, and the scan stops at the first bound below the best score so far.
    Rounding is monotone and 0 <= v <= P, so v * r_k <= P * r_max still holds.
    Equal bounds keep the ascending group order, and an equal score replaces
    the best only from an earlier group, so the result is the first strict
    maximum of the ascending (group, guess) scan over every group.
    """
    agent = _knapsack_agent(instance, i)
    check_oracle_eps("knapsack", eps)
    q_row = q.tolist()
    _checked_single("knapsack", instance.n, agent.senders, q_row, agent.u_row)
    items = [(j, q_row[j], s) for j, s in agent.sizes if q_row[j] > 0.0]
    if not items:
        return OracleResult(chosen=_EMPTY, value=0.0, guesses=0)
    profits = [qj * s for _, qj, s in items]
    total_profit = sum(profits)
    if not math.isfinite(total_profit):
        raise ValueError(f"knapsack oracle needs a finite total profit sum_j q_j s_ij; "
                         f"got {total_profit!r}")

    key = (tuple([j for j, _, _ in items]), eps)
    plan = agent.plans.get(key)
    if plan is None:
        plan = agent.plans[key] = _knapsack_plan(agent.f, tuple([s for _, _, s in items]), eps)
    guesses, groups = plan
    bounds = []
    for fit, _, _, r_max in groups:
        p_fit = 0
        for idx in fit:  # the order in which _knapsack_table adds a cell's profits
            p_fit += profits[idx]
        bounds.append(p_fit * r_max)
    best, best_score, best_g = None, 0.0, -1  # g < -1 never holds, so a score of 0 never wins
    # descending bounds; the sort is stable, so equal bounds keep the group order
    for g in sorted(range(len(groups)), key=bounds.__getitem__, reverse=True):
        if bounds[g] < best_score:
            break  # this group and every later one scores less than best_score
        fit, fit_w, fit_guesses, _ = groups[g]
        caps, answers = _knapsack_table([profits[idx] for idx in fit], fit_w, eps)
        for cap_int, ratio in fit_guesses:
            v_phi, chosen = answers[bisect_right(caps, cap_int) - 1]
            if not chosen:
                continue
            score = v_phi * ratio
            if score > best_score or (score == best_score and g < best_g):
                best, best_score, best_g = (fit, chosen), score, g

    if best is None:
        return OracleResult(chosen=_EMPTY, value=0.0, guesses=guesses)
    fit, chosen = best
    best_set = frozenset([items[fit[b]][0] for b in chosen])
    return OracleResult(chosen=best_set, value=oracle_value(instance, i, q_row, best_set),
                        guesses=guesses)


def oracle_continuous(instance: Instance, i: int, q: np.ndarray, eps: float = 0.1) -> OracleResult:
    """Fractional oracle for continuous concave utilities with proportional sharing.

    Guesses the per-unit value level V = f(D)/D in powers of (1+eps); each
    guess reduces to a fractional knapsack under the capacity D_max(V) found
    by bisection (f(x)/x is non-increasing).
    """
    model = instance.utility
    if not isinstance(model, ContinuousConcave):
        raise ValueError("unsupported concave family: continuous oracle needs scalar-volume utilities")
    if instance.sharing.kind != "proportional" or instance.sharing.weights != "size":
        raise ValueError("continuous oracle needs proportional sharing with w = s")
    check_oracle_eps("continuous", eps)
    f = model.f[i]
    items = [(j, float(q[j]), model.sizes.get((i, j), 0.0)) for j in instance.senders_of[i]]
    pos = [(j, qj, s) for j, qj, s in items if qj > 0.0 and s > 0.0]
    if not pos:
        return OracleResult(chosen=_EMPTY, value=0.0, y={}, guesses=0)

    s_pos = [s for _, _, s in pos]
    d_hi = sum(s_pos)
    v_min = f(d_hi) / d_hi
    s_min = min(s_pos)
    v_max = f(s_min) / s_min
    pos_sorted = sorted(pos, key=lambda t: (-t[1], t[0]))

    def fill(cap: float) -> tuple[dict[int, float], float, float]:
        y: dict[int, float] = {}
        w = used = 0.0
        for j, qj, s in pos_sorted:
            if cap - used <= 0.0:
                break
            frac = min(1.0, (cap - used) / s)
            if frac <= 0.0:
                break
            y[j] = frac
            used += s * frac
            w += qj * s * frac
        return y, w, used

    best_y: dict[int, float] = {}
    best_score = 0.0
    guesses = 0
    level = v_max
    while True:
        guesses += 1
        # D_max(level): largest D with f(D) >= level * D
        if f(d_hi) >= level * d_hi:
            cap = d_hi
        else:
            lo_d, hi_d = 0.0, d_hi
            while hi_d - lo_d > 1e-10 * d_hi:
                mid = 0.5 * (lo_d + hi_d)
                if f(mid) >= level * mid:
                    lo_d = mid
                else:
                    hi_d = mid
            cap = lo_d
        y, w, _ = fill(cap)
        if w * level > best_score:
            best_y, best_score = y, w * level
        if level <= v_min:
            break
        level = max(level / (1.0 + eps), v_min)

    if not best_y:
        return OracleResult(chosen=_EMPTY, value=0.0, y={}, guesses=guesses)
    d = sum(model.sizes[(i, j)] * yj for j, yj in best_y.items())
    w = sum(float(q[j]) * model.sizes[(i, j)] * yj for j, yj in best_y.items())
    value = w * f(d) / d if d > 0 else 0.0
    return OracleResult(chosen=frozenset(best_y), value=value, y=best_y, guesses=guesses)


# ---------------------------------------------------------------------------
# Imbalance sub-oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexCost:
    """Non-decreasing convex cost x -> x^a (a >= 1); a = 2 is the default quadratic."""

    a: float = 2.0

    def __post_init__(self) -> None:
        if self.a < 1.0:
            raise ValueError("cost exponent < 1 is not convex")

    def __call__(self, x: float) -> float:
        return x**self.a

    def derivative(self, x: float) -> float:
        return self.a * x ** (self.a - 1.0)


def _water_fill(p: np.ndarray, budget: float, cost: ConvexCost) -> np.ndarray:
    out = np.zeros_like(p)
    if budget <= 0.0 or not np.any(p > 0):
        return out
    active = p > 0
    if cost.a == 1.0:
        # linear cost: spend the whole budget on the single best price
        k = int(np.argmax(p))
        out[k] = budget
        return out
    expo = 1.0 / (cost.a - 1.0)
    base = np.where(active, p, 0.0) ** expo
    t = (budget / np.sum(base**cost.a)) ** (1.0 / cost.a)
    out[active] = base[active] * t
    return out


def oracle_imbalance(p: np.ndarray, r: np.ndarray, C: float, C_prime: float,
                     g: ConvexCost | None = None, h: ConvexCost | None = None,
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """Maximize sum p_i delta_i + sum r_i gamma_i over the convex cost budgets.

    The two halves separate; each is solved in closed form by KKT
    water-filling (quadratic: delta_i = p_i * sqrt(C / sum p_j^2)).
    """
    g = g or ConvexCost()
    h = h or ConvexCost()
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(p < 0) or np.any(r < 0) or C < 0 or C_prime < 0:
        raise ValueError("prices and budgets must be non-negative")
    delta = _water_fill(p, C, g)
    gamma = _water_fill(r, C_prime, h)
    value = float(p @ delta + r @ gamma)
    return delta, gamma, value


# ---------------------------------------------------------------------------
# Oracle registry used by the solver and CLI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleKind:
    """A registry entry: the oracle function's name in this module, its
    approximation factor alpha(n, eps) and the open upper end of its eps range."""

    fn_name: str
    alpha: Callable[[int, float], float]
    eps_max: float


ORACLES: dict[str, OracleKind] = {
    "bruteforce": OracleKind("oracle_bruteforce", lambda n, eps: 1.0, 1.0),
    "bucketing": OracleKind("oracle_bucketing", bucketing_alpha, 0.5),
    "knapsack": OracleKind("oracle_knapsack", lambda n, eps: (1.0 + eps) ** 2, 1.0),
    "continuous": OracleKind("oracle_continuous", lambda n, eps: 1.0 + eps, 1.0),
}

# Below this eps the (1+eps) guess grids of the knapsack and continuous oracles
# grow to seconds per call; once 1 + eps == 1 they never end.
ORACLE_EPS_MIN = 1e-4


def check_oracle_eps(name: str, eps: float) -> None:
    """Reject an eps outside [ORACLE_EPS_MIN, eps_max) of the named oracle."""
    hi = ORACLES[name].eps_max
    if not ORACLE_EPS_MIN <= eps < hi:
        raise ValueError(f"{name} oracle eps must lie in [{ORACLE_EPS_MIN:g}, {hi:g}); got {eps!r}")


@dataclass(frozen=True)
class OracleSpec:
    name: str
    fn: object = field(repr=False)
    eps: float = 0.1

    def alpha(self, instance: Instance) -> float:
        return ORACLES[self.name].alpha(instance.n, self.eps)

    def __call__(self, instance: Instance, i: int, q: np.ndarray) -> OracleResult:
        return self.fn(instance, i, q, self.eps)  # type: ignore[operator]

    def all_agents(self, instance: Instance, q: np.ndarray) -> list[OracleResult]:
        """Every agent's result on its row of the n x n price matrix q, in
        agent order; the bucketing oracle's first guesses come from one array
        pass over all rows."""
        agents, fn, eps = range(instance.n), self.fn, self.eps
        if self.name != "bucketing":
            return [fn(instance, i, q[i], eps) for i in agents]  # type: ignore[operator]
        first = bucketing_first_guesses(instance, agents, q, eps)
        return [fn(instance, i, q[i], eps, first[i]) for i in agents]  # type: ignore[operator]


def get_oracle(name: str, eps: float = 0.1) -> OracleSpec:
    if name not in ORACLES:
        raise ValueError(f"unknown oracle {name!r}")
    check_oracle_eps(name, eps)
    # looked up per call, so a rebound module attribute (a tracing wrapper) is used
    return OracleSpec(name=name, fn=globals()[ORACLES[name].fn_name], eps=eps)

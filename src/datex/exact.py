"""Ground-truth solvers on small instances: full-column welfare LP, core audits."""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ExchangeSolution, Instance, evaluate, utility
from .sharing import column_lp, column_rows, lp_solution

logger = logging.getLogger(__name__)

MAX_LP_SENDERS = 12
MAX_COALITIONS = 5000
# variables of one stacked core-audit LP; a larger audit is solved in batches.
# A variable costs about 2 kB: on the 12-agent, all-senders audit of coalitions
# up to 5 (76,945 variables, the HiGHS of SciPy 1.17, 2 cores), one LP took 3.0 s and
# 152 MB, batches of 4096 variables 2.3 s and 16 MB, batches of 256 3.8 s.
MAX_STACKED_VARIABLES = 4096


def _agent_columns(instance: Instance, i: int, within: frozenset[int] | None = None,
                   ) -> list[frozenset[int]]:
    senders = [j for j in instance.senders_of[i] if within is None or j in within]
    cols = []
    for size in range(1, len(senders) + 1):
        cols.extend(frozenset(c) for c in itertools.combinations(senders, size))
    return cols


def exact_welfare_lp(instance: Instance, relax_eps: float = 0.0,
                     ) -> tuple[ExchangeSolution, float]:
    """Maximize welfare over the fully enumerated column set by exact LP.

    relax_eps = 0 enforces exact balance; otherwise residuals are bounded by
    relax_eps on both sides. A negative or non-finite relax_eps is a ValueError;
    a failed LP raises column_lp's lp.LpError.
    """
    if not 0.0 <= relax_eps < float("inf"):  # also false for NaN
        raise ValueError(f"relax_eps must be finite and >= 0, got {relax_eps}")
    n = instance.n
    for i in range(n):
        if len(instance.senders_of[i]) > MAX_LP_SENDERS:
            raise ValueError(f"agent {i} has too many senders for full enumeration")
    cols = [(i, s) for i in range(n) for s in _agent_columns(instance, i)]
    if not cols:
        return ExchangeSolution.empty(n), 0.0
    bound = np.full(n, relax_eps)
    res = column_lp(instance, cols, -bound, bound)
    return lp_solution(n, cols, res.x), float(-res.fun)


def _block_margins(instance: Instance, blocks: Sequence[tuple[tuple[int, ...], np.ndarray]],
                   ) -> list[float]:
    """Each block's max t over one block-diagonal LP or, when that fails, over one
    LP per block (_coalition_best_margin, logged); a lone block that fails gets -inf.

    Block (coalition, targets) has its own column weights and free t, with the
    rows mass_i <= 1, t - gain_i <= -target_i and residual_i = 0 per member.
    The blocks share no variable, and each is feasible (weights 0, t = -max
    target) and bounded, so maximizing the sum of the t's maximizes each one.
    The matrices are sparse, built from each block's column_rows triplets at its offsets.
    """
    from . import lp

    ub, eq, b_ub, t_cols = [], [], [], []
    col = row = 0  # the block's first variable and its first member row
    for coalition, targets in blocks:
        within = frozenset(coalition)
        cols = [(i, s) for i in coalition for s in _agent_columns(instance, i, within)]
        util, (r, x, v) = column_rows(instance, cols, coalition)
        k, c = len(coalition), len(util)
        mass = r < k  # the rest are the residual rows k..2k-1
        # inequality rows 2*row..: k mass rows, then k rows t - gain_i <= -target_i
        ub.append((np.concatenate([2 * row + r[mass], 2 * row + k + r[mass],
                                   2 * row + k + np.arange(k)]),
                   np.concatenate([col + x[mass], col + x[mass], np.full(k, col + c)]),
                   np.concatenate([v[mass], -util[x[mass]], np.ones(k)])))
        eq.append((row - k + r[~mass], col + x[~mass], v[~mass]))
        b_ub.extend([np.ones(k), -np.asarray(targets, dtype=float)])
        t_cols.append(col + c)
        col, row = col + c + 1, row + k
    cost = np.zeros(col)
    cost[t_cols] = -1.0
    bounds = np.zeros((col, 2))
    bounds[:, 1] = np.inf
    bounds[t_cols, 0] = -np.inf
    try:
        res = lp.solve_lp("coalition LP", cost, A_ub=lp.sparse(ub, (2 * row, col)),
                          b_ub=np.concatenate(b_ub), A_eq=lp.sparse(eq, (row, col)),
                          b_eq=np.zeros(row), bounds=bounds, method="highs")
    except lp.LpError as exc:
        logger.warning("%s (coalitions %s)", exc, [coalition for coalition, _ in blocks])
        if len(blocks) == 1:
            return [-float("inf")]
        return [_coalition_best_margin(instance, c, targets) for c, targets in blocks]
    return res.x[t_cols].tolist()


def _coalition_best_margin(instance: Instance, coalition: tuple[int, ...],
                           targets: np.ndarray) -> float:
    """max t s.t. a balanced sub-solution on the coalition gives every member
    utility >= target + t, by the coalition's own LP; -inf when it fails."""
    return _block_margins(instance, [(coalition, targets)])[0]


@dataclass(frozen=True)
class CoreAudit:
    """The blocking coalitions, sorted, and what the audit did to find them.

    The audit enumerated every coalition of 2 to max_coalition members (the
    requested size, capped at n). Every coalition is either ruled out without
    an LP or solved as a block of an audit LP (ruled_out + lps == coalitions);
    a coalition whose LP fails counts as non-blocking and in ``failed``, so the
    audit is complete, for sizes up to max_coalition, only when failed == 0.
    """

    blocking: list[tuple[tuple[int, ...], float]]
    coalitions: int
    ruled_out: int
    lps: int
    failed: int
    max_coalition: int


def exact_core_audit(instance: Instance, solution: ExchangeSolution,
                     max_coalition: int = 3, margin: float = 1e-7,
                     factor: float = 1.0) -> CoreAudit:
    """Enumerate coalitions up to max_coalition; report the blocking ones.

    A coalition blocks when a balanced sub-solution on it gives every member
    utility > factor * current + margin (factor 1 is the plain core test;
    factor 1/(1-beta) checks the mixing tradeoff accounting).  The coalitions
    that are not ruled out are solved together, as the blocks of one LP per
    batch of at most MAX_STACKED_VARIABLES variables; when a batch's LP fails,
    each of its coalitions gets its own LP.
    """
    n = instance.n
    largest = min(max_coalition, n)
    total = sum(math.comb(n, size) for size in range(2, largest + 1))
    if total > MAX_COALITIONS:
        raise ValueError(f"{total} coalitions exceed the audit bound {MAX_COALITIONS}")
    current = evaluate(instance, solution).per_agent_utility
    batches: list[list] = []
    ruled_out = size_of_batch = 0
    for size in range(2, largest + 1):
        for coalition in itertools.combinations(range(n), size):
            within = frozenset(coalition)
            targets = np.array([factor * current[i] for i in coalition])
            senders_in = [within.intersection(instance.senders_of[i]) for i in coalition]
            # utilities are monotone and a member's weights sum to at most 1, so
            # member i gains at most u_i(its senders in C): if that cannot beat
            # its target by more than margin, C does not block and needs no LP
            if any(utility(instance, i, senders) - t <= margin
                   for i, senders, t in zip(coalition, senders_in, targets)):
                ruled_out += 1
                continue
            # C's LP has a weight per nonempty subset of each member's senders, and t
            variables = 1 + sum(2 ** len(senders) - 1 for senders in senders_in)
            if not batches or size_of_batch + variables > MAX_STACKED_VARIABLES:
                batches.append([])
                size_of_batch = 0
            batches[-1].append((coalition, targets))
            size_of_batch += variables
    blocking = []
    failed = 0
    for batch in batches:
        for (coalition, _), t_star in zip(batch, _block_margins(instance, batch)):
            failed += t_star == -float("inf")
            if t_star > margin:
                blocking.append((coalition, t_star))
    return CoreAudit(sorted(blocking), total, ruled_out, total - ruled_out, failed, largest)

"""Ground-truth solvers on small instances: full-column welfare LP, core audits."""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .model import ExchangeSolution, Instance, evaluate, utility
from .sharing import column_lp, column_matrices, lp_solution

logger = logging.getLogger(__name__)

MAX_LP_SENDERS = 12
MAX_COALITIONS = 5000


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
    relax_eps on both sides. A negative or non-finite relax_eps is a ValueError.
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
    if not res.success:
        raise RuntimeError(f"exact welfare LP failed: {res.message}")
    return lp_solution(n, cols, res.x), float(-res.fun)


def _coalition_best_margin(instance: Instance, coalition: tuple[int, ...],
                           targets: np.ndarray) -> float:
    """max t s.t. a balanced sub-solution on the coalition gives every member
    utility >= target + t; -inf when some member cannot reach its target."""
    within = frozenset(coalition)
    cols = [(i, s) for i in coalition for s in _agent_columns(instance, i, within)]
    if not cols:
        # only the empty solution exists on this coalition
        return float(-targets.max())
    mats = column_matrices(instance, cols, coalition)
    mass = mats.mass()
    k, c = mass.shape

    # variables: column weights then t; maximize t subject to t - gain_i <= -target_i
    cost = np.zeros(c + 1)
    cost[-1] = -1.0
    a_ub = np.zeros((2 * k, c + 1))
    a_ub[:, :c] = np.vstack([mass, -(mass * mats.util)])
    a_ub[k:, c] = 1.0
    b_ub = np.concatenate([np.ones(k), -targets])
    a_eq = np.hstack([mats.resid(), np.zeros((k, 1))])
    bounds = [(0, None)] * c + [(None, None)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.zeros(k),
                  bounds=bounds, method="highs")
    if not res.success:
        logger.warning("coalition LP failed for %s: %s", coalition, res.message)
        return -float("inf")
    return float(res.x[-1])


@dataclass(frozen=True)
class CoreAudit:
    """The blocking coalitions, sorted, and what the audit did to find them.

    Every coalition is either ruled out without an LP or gets one LP
    (ruled_out + lps == coalitions); a failed LP counts as non-blocking and
    in ``failed``, so the audit is complete only when failed == 0.
    """

    blocking: list[tuple[tuple[int, ...], float]]
    coalitions: int
    ruled_out: int
    lps: int
    failed: int


def exact_core_audit(instance: Instance, solution: ExchangeSolution,
                     max_coalition: int = 3, margin: float = 1e-7,
                     factor: float = 1.0) -> CoreAudit:
    """Enumerate coalitions up to max_coalition; report the blocking ones.

    A coalition blocks when a balanced sub-solution on it gives every member
    utility > factor * current + margin (factor 1 is the plain core test;
    factor 1/(1-beta) checks the mixing tradeoff accounting).
    """
    n = instance.n
    total = sum(math.comb(n, size) for size in range(2, min(max_coalition, n) + 1))
    if total > MAX_COALITIONS:
        raise ValueError(f"{total} coalitions exceed the audit bound {MAX_COALITIONS}")
    current = evaluate(instance, solution).per_agent_utility
    blocking = []
    ruled_out = failed = 0
    for size in range(2, max_coalition + 1):
        for coalition in itertools.combinations(range(n), size):
            within = frozenset(coalition)
            targets = np.array([factor * current[i] for i in coalition])
            # utilities are monotone and a member's weights sum to at most 1, so
            # member i gains at most u_i(its senders in C): if that cannot beat
            # its target by more than margin, C does not block and needs no LP
            if any(utility(instance, i, within.intersection(instance.senders_of[i])) - t <= margin
                   for i, t in zip(coalition, targets)):
                ruled_out += 1
                continue
            t_star = _coalition_best_margin(instance, coalition, targets)
            failed += t_star == -float("inf")
            if t_star > margin:
                blocking.append((coalition, t_star))
    return CoreAudit(sorted(blocking), total, ruled_out, total - ruled_out, failed)

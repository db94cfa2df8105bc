"""Multiplicative-weights feasibility solver for the welfare LP, with B search."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    EQ_TOL,
    ExchangeSolution,
    FracColumn,
    Instance,
    SolveReport,
    column_sort_key,
    evaluate,
    utility,
)
from .oracles import ConvexCost, OracleSpec, oracle_imbalance
from .sharing import column_flows, column_lp, lp_solution

logger = logging.getLogger(__name__)


class RegretBoundError(AssertionError):
    """The logged multiplicative-weights regret inequality failed."""


@dataclass(frozen=True)
class ImbalanceSpec:
    """Budgets for compensated imbalance: sum g(delta) <= C, sum h(gamma) <= C'."""

    C: float = 0.0
    C_prime: float = 0.0
    g: ConvexCost = ConvexCost()
    h: ConvexCost = ConvexCost()


@dataclass
class MwuConfig:
    """Solver knobs; the balance slack eps is always the instance epsilon.

    delta is the welfare-grid ratio (<= 1/3); max_iters caps the theoretical
    iteration count T = 32 n^2 alpha^2 ln(n) / eps^2; eta_override replaces
    the default learning rate: the theoretical eps / (4 n alpha) when all T
    iterations run, else practical_eta(n, max_iters).
    """

    delta: float = 1.0 / 3.0
    max_iters: int = 20000
    eta_override: float | None = None
    check_every: int = 25
    imbalance: ImbalanceSpec | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.delta <= 1.0 / 3.0):
            raise ValueError("delta must lie in (0, 1/3]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")


def practical_eta(n: int, iters: int) -> float:
    """Desk-scale learning rate sqrt(ln(rows)/T); the theoretical rate assumes
    the astronomically large theoretical T."""
    return min(0.5, math.sqrt(math.log(2 * n + 1) / max(iters, 1)))


def width(instance: Instance, eps: float, imbalance: ImbalanceSpec | None = None) -> float:
    """Row width rho: max additive constraint violation over the polytope."""
    rho = sum(utility(instance, i, instance.full_set(i)) for i in range(instance.n))
    if imbalance is not None:
        # slack variables enter the balance rows, widening them
        rho += imbalance.C ** (1.0 / imbalance.g.a) + imbalance.C_prime ** (1.0 / imbalance.h.a)
    # epsilon guard keeps |m| <= 1 exactly (b_i = -eps rows add eps/alpha)
    return rho + eps


def assemble_prices(instance: Instance, w: np.ndarray, B: float, alpha: float,
                    eps: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Normalize row weights and reduce p^T A to per-pair prices.

    Q_ij = p0 + (p+_i - p-_i) - (p+_j - p-_j), where p0 weights the welfare
    row and p+/p- the two balance rows; threshold is p.b / alpha.  Q is a
    dense n x n array whose row i is agent i's oracle price row; entries off
    the allowed pairs are never read.
    """
    if (w <= 0).any():
        raise ValueError("row weights must stay positive")
    n = instance.n
    p = w / w.sum()
    net = p[1 : n + 1] - p[n + 1 : 2 * n + 1]
    threshold = (p[0] * B - eps * (p[1:].sum())) / alpha
    return p, p[0] + net[:, None] - net[None, :], float(threshold)


@dataclass
class MwuRun:
    """One weight-update run at a welfare target. solution is the run's last
    column-LP solution and report its evaluation; both None if infeasible."""

    feasible: bool
    solution: ExchangeSolution | None
    report: SolveReport | None
    certified: bool
    iterations: int
    regret_lhs: float
    regret_rhs_min: float
    lp_checks: int = 0  # checks that asked sparsify for a column LP, solved or memoized
    trace: list[dict] = field(default_factory=list)


def run_mwu(instance: Instance, B: float, config: MwuConfig, oracle: OracleSpec) -> MwuRun:
    """One feasibility run of the weight-update loop at welfare target B.

    Every check_every iterations, and at the iteration cap, a check certifies
    the target by the column LP (sparsify) over the run's column pool. A check
    asks for that LP only when the pool grew since the run's last LP, or when
    imbalance slacks are set; otherwise the last LP's solution and report
    stand, as the LP would return them again. The run's trace holds one row
    per iteration; an infeasible iteration ends it with a row whose
    max_residual is NaN.
    """
    n = instance.n
    eps = instance.epsilon
    if B < eps - EQ_TOL:
        raise ValueError("welfare targets below eps are never needed (OPT >= eps)")
    alpha = oracle.alpha(instance)
    rho = max(width(instance, eps, config.imbalance), B)
    eta = config.eta_override
    log_n = math.log(max(n, 2))
    t_theory = math.ceil(32.0 * n * n * alpha * alpha * log_n / (eps * eps))
    iters = min(t_theory, config.max_iters)
    if eta is None:
        eta = eps / (4.0 * n * alpha) if iters == t_theory else practical_eta(n, iters)
    if not (0.0 < eta <= 0.5):
        raise ValueError("eta must lie in (0, 1/2]")
    # regret constant: 2 ln n only dominates ln(2n+1) for n >= 3; use the
    # exact expert count below that so the audited inequality is sound
    reg_const = max(2.0 * log_n, math.log(2 * n + 1))

    w = np.ones(2 * n + 1)
    pool: set[tuple[int, object]] = set()  # every (agent, column) an oracle chose
    delta = gamma = np.zeros(n)  # the slacks without an imbalance budget
    delta_sum = np.zeros(n)
    gamma_sum = np.zeros(n)
    m = np.empty(2 * n + 1)  # this iteration's losses (A x - b/alpha) / rho, row by row
    m_plus, m_minus = m[1 : n + 1], m[n + 1 :]
    row_slack = eps / alpha
    lhs = 0.0
    row_m_sum = np.zeros(2 * n + 1)
    row_m_abs = np.zeros(2 * n + 1)
    rows: list[dict] = []
    feasible = True
    certified = False
    solution = report = None
    lp_pool_size = -1  # len(pool) at the last column LP; -1 before the first
    lp_checks = 0  # checks that handed sparsify a non-empty pool
    t_done = 0

    for t in range(1, iters + 1):
        p, Q, threshold = assemble_prices(instance, w, B, alpha, eps)

        oracle_total = 0.0
        chosen_cols: list[tuple[int, object]] = []
        for i, res in enumerate(oracle.all_agents(instance, Q)):
            if res.value <= 0.0 or not res.chosen:
                continue
            col: object
            if res.y is not None and any(frac < 1.0 - EQ_TOL for frac in res.y.values()):
                col = FracColumn(y=tuple(sorted(res.y.items())))
            else:
                col = res.chosen
            chosen_cols.append((i, col))
            oracle_total += res.value
        received, sent = column_flows(instance, chosen_cols, [1.0] * len(chosen_cols))

        if config.imbalance is not None:
            net_p = p[1 : n + 1]
            net_r = p[n + 1 : 2 * n + 1]
            delta, gamma, imb_value = oracle_imbalance(
                net_p, net_r, config.imbalance.C, config.imbalance.C_prime,
                config.imbalance.g, config.imbalance.h,
            )
            oracle_total += imb_value

        if oracle_total < threshold:
            feasible = False
            t_done = t - 1
            rows.append({"t": t, "B": B, "pb_threshold": threshold,
                         "oracle_value": oracle_total, "max_residual": float("nan")})
            break

        # m = (A x - b/alpha) / rho for the 2n+1 rows
        balance = received - sent
        m[0] = received.sum() - B / alpha
        np.add(balance + delta, row_slack, out=m_plus)
        np.add(gamma - balance, row_slack, out=m_minus)
        m /= rho
        m_abs = np.abs(m)
        if m_abs.max() > 1.0 + 1e-12:
            raise AssertionError(f"width violated: |m| = {m_abs.max():.6g} > 1")
        lhs += float(p @ m)
        row_m_sum += m
        row_m_abs += m_abs
        w = w * (1.0 - eta * m)
        if (w <= 0).any():
            raise AssertionError("row weight became non-positive")

        pool.update(chosen_cols)
        delta_sum += delta
        gamma_sum += gamma
        t_done = t

        rows.append({"t": t, "B": B, "pb_threshold": threshold,
                     "oracle_value": oracle_total,
                     "max_residual": float(np.abs(balance).max())})

        if (t % config.check_every == 0 or t == iters) and (
                config.imbalance is not None or len(pool) > lp_pool_size):
            # the exact LP over the pool certifies the target long before the
            # iterates' average does at desk scale; its solution is the run's.
            # The pool only grows, so an unchanged size is the last LP's pool
            # and its solution stands; imbalance slacks change every iteration.
            # sparsify's memo would return the same solution, but sorting the
            # pool, hashing its key and evaluating again cost 2-8% of a knapsack
            # run, so this size test stays
            lp_pool_size = len(pool)
            cols = sorted(pool, key=lambda c: (c[0], column_sort_key(c[1])))
            lp_checks += bool(cols)
            solution = sparsify(instance, cols, delta_sum / t, gamma_sum / t)
            report = evaluate(instance, solution)
            if report.feasible and report.welfare >= B / alpha - eps / (2.0 * alpha) - EQ_TOL:
                certified = True
                break

    rhs = row_m_sum + eta * row_m_abs + reg_const / eta
    rhs_min = float(rhs.min())
    if t_done > 0 and lhs > rhs_min + 1e-6:
        raise RegretBoundError(
            f"regret bound violated: lhs {lhs:.6g} > rhs {rhs_min:.6g} at B={B:.6g}"
        )

    return MwuRun(
        feasible=feasible,
        solution=solution if feasible else None,
        report=report if feasible else None,
        certified=certified,
        iterations=t_done,
        regret_lhs=lhs,
        regret_rhs_min=rhs_min,
        lp_checks=lp_checks,
        trace=rows,
    )


def sparsify(instance: Instance, cols: list[tuple[int, frozenset[int] | FracColumn]],
             deltas: np.ndarray | None = None, gammas: np.ndarray | None = None,
             ) -> ExchangeSolution:
    """Weights for the columns cols by exact LP: the restricted master problem.

    Maximizes welfare subject to the probability and eps-balance rows (widened
    by the fixed delta/gamma slacks), so the output has at most 2n+1 active
    columns and residuals within epsilon. A failed LP raises column_lp's
    lp.LpError.

    The LP depends only on the instance, cols and the slacks, never on a
    welfare target, so instance.lp_memo keeps each solution and a later call
    on the same pool and slacks returns it: HiGHS is deterministic, so that is
    what a re-solve would return. The memo has no bound; it grows by one entry
    per distinct (pool, slacks) that the instance's checks reach.
    """
    slack = ExchangeSolution(n=instance.n, columns={}, deltas=deltas, gammas=gammas)
    if not cols:
        return slack
    key = (tuple(cols), slack.deltas.tobytes(), slack.gammas.tobytes())
    solution = instance.lp_memo.get(key)
    if solution is None:
        res = column_lp(instance, cols, *slack.balance_bounds(instance.epsilon))
        solution = instance.lp_memo[key] = lp_solution(instance.n, cols, res.x, deltas, gammas)
    return solution


def solve_welfare(instance: Instance, config: MwuConfig, oracle: OracleSpec,
                  ) -> tuple[ExchangeSolution, SolveReport]:
    """Search welfare targets B on the (1+delta) grid and keep the largest feasible.

    The returned solution and report are the best run's own: the column LP
    (sparsify) over its generated columns that certified it, or its last
    LP's when the iteration cap came first, and that LP's evaluation.
    Its residuals are within epsilon by construction.
    """
    n = instance.n
    eps = instance.epsilon
    full = [utility(instance, i, instance.full_set(i)) for i in range(n)]
    peak = max(full, default=0.0)
    if peak <= 0.0:
        report = evaluate(instance, ExchangeSolution.empty(n))
        report.caveats.append("no positive utilities; nothing to trade")
        return ExchangeSolution.empty(n), report
    if peak > 1.0 + 1e-6:
        raise ValueError("solve_welfare needs a normalized instance (max utility 1)")

    alpha = oracle.alpha(instance)
    rho = sum(full)
    grid_len = max(1, 1 + math.ceil(math.log(max(rho / eps, 1.0)) / math.log(1.0 + config.delta)))
    grid = [eps * (1.0 + config.delta) ** k for k in range(grid_len)]

    runs: dict[int, MwuRun] = {}  # grid index -> its run, in probe order
    memo_size = len(instance.lp_memo)  # LPs that earlier solves of the instance solved

    def probe(k: int) -> bool:
        run = runs[k] = run_mwu(instance, grid[k], config, oracle)
        return run.solution is not None

    # The grid top bounds any welfare (it is >= rho), so a feasible top is the
    # answer. Otherwise bisect below it: lo is the largest index found feasible
    # (-1: none yet), hence the best run, and hi the smallest found infeasible
    # (grid_len: past the top). No index is probed twice.
    lo, hi, k = -1, grid_len, grid_len - 1
    while hi - lo > 1:
        lo, hi = (k, hi) if probe(k) else (lo, k)
        k = (lo + hi) // 2
    search = ("B search: grid top feasible (1 probe)" if lo == grid_len - 1
              else f"B search: grid top infeasible; searched below it ({len(runs)} probes)")

    if lo < 0:
        solution = ExchangeSolution.empty(n)
        report = evaluate(instance, solution)
        report.caveats.append(
            "MWU declared every welfare target infeasible (one-sided test); no solution")
    else:
        best_run = runs[lo]
        solution, report = best_run.solution, best_run.report
        report.best_B = grid[lo]
        report.guarantee = grid[lo] / (2.0 * alpha * (1.0 + 3.0 * config.delta))
        if not best_run.certified:
            report.caveats.append(
                "iteration cap reached before the column LP certified the target")
        report.caveats.append("MWU infeasibility is one-sided; B search treats it as 'too high'")
    report.iterations = sum(run.iterations for run in runs.values())
    report.trace = [row for run in runs.values() for row in run.trace]
    report.caveats.append(search)
    solved = len(instance.lp_memo) - memo_size
    logger.debug("B search summary: probes=%d iterations=%d column_lps_solved=%d "
                 "column_lps_reused=%d", len(runs), report.iterations, solved,
                 sum(run.lp_checks for run in runs.values()) - solved)
    return solution, report

"""Greedy matching, cycle canceling, tradeoff mixing, and the misreport harness."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    EQ_TOL,
    ConcaveSpec,
    ExchangeSolution,
    ExplicitTable,
    Instance,
    SymmetricWeighted,
    evaluate,
)


def greedy_matching(instance: Instance) -> ExchangeSolution:
    """Greedy maximal-weight matching on u-hat; each matched pair trades to balance.

    x_i({j}) = min(1, u_ji / u_ij), so both partners receive exactly u-hat.
    """
    return ExchangeSolution(n=instance.n, columns=_matching_columns(instance.singleton_utility))


def _matching_columns(table: np.ndarray) -> dict[int, dict]:
    """greedy_matching's columns from the singleton table alone.

    Only pairs with u-hat > 0 can match, and those are permitted both ways,
    because the table is 0 off the permitted pairs.  Pairs are taken by
    falling u-hat, ties by (i, j): nonzero lists them in that order, and the
    sort is stable.
    """
    u_hat = np.minimum(table, table.T)
    first, second = np.nonzero(np.triu(u_hat > 0.0, 1))
    order = np.argsort(-u_hat[first, second], kind="stable")
    u = table.tolist()
    matched: set[int] = set()
    cols: dict[int, dict] = {}
    for i, j in zip(first[order].tolist(), second[order].tolist()):
        if i in matched or j in matched:
            continue
        matched.update((i, j))
        cols[i] = {frozenset({j}): min(1.0, u[j][i] / u[i][j])}
        cols[j] = {frozenset({i}): min(1.0, u[i][j] / u[j][i])}
    return cols


def check_2_stability(instance: Instance, solution: ExchangeSolution,
                      ) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, whose mutual trade beats both agents' current utilities.

    The trade gives each partner u-hat, the min of the two singleton
    directions; it is 0 unless the pair is permitted both ways, and a 0 never
    beats a utility.
    """
    table = instance.singleton_utility
    u_hat = np.minimum(table, table.T)
    current = evaluate(instance, solution).per_agent_utility
    beats = u_hat > current[:, None] + EQ_TOL  # beats[i, j]: u-hat beats i's utility
    first, second = np.nonzero(np.triu(beats & beats.T, 1))
    return list(zip(first.tolist(), second.tolist()))


# ---------------------------------------------------------------------------
# Greedy cycle canceling
# ---------------------------------------------------------------------------


def _shortest_lex_cycle(edge: np.ndarray) -> list[int]:
    """Shortest directed cycle of the boolean matrix `edge` (edge[a, b]: hop a -> b).

    From boolean walk powers walks[r] = edge^r: the girth L is the first r >= 1
    with a true diagonal entry (Itai & Rodeh 1978), and the cycle starts at the
    first such index, its smallest node.  Among cycles of length L through it,
    the lexicographically smallest sequence is returned.
    """
    walks = [np.eye(len(edge), dtype=bool), edge]
    while not walks[-1].diagonal().any():
        assert walks[-1].any(), "no directed cycle"
        walks.append(walks[-1] @ edge)
    start = int(np.argmax(walks[-1].diagonal()))
    # Walk from start, always to the smallest successor that can still close
    # the cycle in exactly the remaining steps.  This is exact: at the girth a
    # closed walk is a simple cycle, and the walk never dead-ends.
    cycle = [start]
    for remaining in range(len(walks) - 2, 0, -1):
        cycle.append(int(np.argmax(edge[cycle[-1]] & walks[remaining][:, start])))
    return cycle


def greedy_cycle_canceling(instance: Instance) -> tuple[ExchangeSolution, list[list[int]]]:
    """Repeatedly trade along the bottleneck-max directed cycle, then delete it.

    Cycle value u_C is the minimum single-hop utility along the cycle; the hop
    weights x make every member receive exactly u_C, so balance is exact.
    """
    cols, cycles = _cycle_columns(instance.singleton_utility)
    return ExchangeSolution(n=instance.n, columns=cols), cycles


def _cycle_columns(table: np.ndarray) -> tuple[dict[int, dict], list[list[int]]]:
    """greedy_cycle_canceling's columns and cycles from the singleton table alone."""
    u = table.tolist()  # hop sender j -> receiver i weighs u[i][j]
    active = list(range(len(table)))
    cols: dict[int, dict] = {}
    cycles: list[list[int]] = []
    while active:
        weight = table.T[np.ix_(active, active)]
        # max-min (widest-path) closure: closure[a, b] is the largest bottleneck
        # of a walk a -> b, so its diagonal holds each agent's best cycle value
        # (Pollack 1960).  Only max and min run, so tau is one of the weights.
        closure = weight.copy()
        for k in range(len(active)):
            np.maximum(closure, np.minimum(closure[:, k, None], closure[k]), out=closure)
        tau = closure.diagonal().max()
        if tau <= 0.0:
            break
        cycle = [active[v] for v in _shortest_lex_cycle(weight >= tau)]
        hops = [(cycle[t], cycle[(t + 1) % len(cycle)]) for t in range(len(cycle))]
        u_c = min(u[receiver][sender] for sender, receiver in hops)
        for sender, receiver in hops:
            cols[receiver] = {frozenset({sender}): u_c / u[receiver][sender]}
        cycles.append(cycle)
        active = [v for v in active if v not in cycle]
    return cols, cycles


# Each pairwise algorithm by its CLI name: the singleton table -> (columns,
# cycles).  The lambdas look their function up when they run, so a patched
# _matching_columns or _cycle_columns takes effect here too.
ALGORITHMS = {
    "greedy_match": lambda table: (_matching_columns(table), []),
    "cycle_cancel": lambda table: _cycle_columns(table),
}


# ---------------------------------------------------------------------------
# Welfare / core tradeoff mixing
# ---------------------------------------------------------------------------


def mix_solutions(first: ExchangeSolution, second: ExchangeSolution,
                  beta: float) -> ExchangeSolution:
    """z = beta * first + (1 - beta) * second, column-wise."""
    if not (0.0 <= beta <= 1.0):
        raise ValueError("beta must lie in [0, 1]")
    if first.n != second.n:
        raise ValueError("solutions built on different instances")
    cols: dict[int, dict] = {}
    for sol, coef in ((first, beta), (second, 1.0 - beta)):
        if coef == 0.0:
            continue
        for i, col, x in sol.iter_columns():
            agent = cols.setdefault(i, {})
            agent[col] = agent.get(col, 0.0) + coef * x
    return ExchangeSolution(
        n=first.n, columns=cols,
        deltas=beta * first.deltas + (1.0 - beta) * second.deltas,
        gammas=beta * first.gammas + (1.0 - beta) * second.gammas,
    )


# ---------------------------------------------------------------------------
# Strategic misreports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Misreport:
    """A feasible understatement by one agent.

    kind 'scale' multiplies the agent's own utility by factor <= 1 (hiding
    tasks); kind 'hide' withholds the agent's data from the listed receivers
    (their utilities drop accordingly).
    """

    agent: int
    kind: str  # scale | hide
    factor: float = 1.0
    hide_from: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("scale", "hide"):
            raise ValueError(f"unknown misreport kind {self.kind!r}")
        if self.kind == "scale" and not (0.0 <= self.factor <= 1.0):
            raise ValueError(
                "condition 1 violated: reported utility must not exceed the true utility"
            )


def _scaled_table(model: ExplicitTable, agent: int, factor: float) -> ExplicitTable:
    values = tuple(
        v * factor if i == agent else v.copy() for i, v in enumerate(model.values)
    )
    return ExplicitTable(model.senders, values)


def _scaled_f(fi: ConcaveSpec, factor: float) -> ConcaveSpec:
    """f_i reported under a scale misreport: factor * f_i, through its output scale."""
    return replace(fi, scale=0.0) if factor == 0.0 else fi.rescaled(1.0 / factor)


def _hidden_table(model: ExplicitTable, agent: int, hide_from: tuple[int, ...],
                  ) -> ExplicitTable:
    values = [vals.copy() for vals in model.values]
    for i in hide_from:  # i receives from agent, so agent has a bit in i's table
        # pairs[:, 1] are the masks with agent's bit set, pairs[:, 0] the same without it
        pairs = values[i].reshape(-1, 2, 1 << model.senders[i].index(agent))
        pairs[:, 1] = pairs[:, 0]  # i's utility ignores agent's data
    return ExplicitTable(model.senders, tuple(values))


def _misreported_model(instance: Instance, mis: Misreport,
                       ) -> ExplicitTable | SymmetricWeighted | None:
    """The utility model a feasible misreport changes, or None if it changes nothing."""
    if not (0 <= mis.agent < instance.n):
        raise ValueError(f"unknown agent {mis.agent}")
    if mis.kind == "scale":
        if mis.factor == 1.0:
            return None
    else:
        receivers = instance.receivers_of[mis.agent]
        bad = [j for j in mis.hide_from if j not in receivers]
        if bad:
            raise ValueError(
                f"condition 3 violated: agents {bad} never receive from {mis.agent}"
            )
        if not mis.hide_from:
            return None
    model = instance.utility
    if not isinstance(model, (ExplicitTable, SymmetricWeighted)):
        raise ValueError(f"misreports are not modeled for {model.kind}")
    return model


def apply_misreport(instance: Instance, mis: Misreport) -> Instance:
    """The instance induced by a feasible misreport (reported utilities/shares)."""
    model = _misreported_model(instance, mis)
    if model is None:
        return instance
    agent = mis.agent
    if mis.kind == "scale":
        if isinstance(model, ExplicitTable):
            new_model = _scaled_table(model, agent, mis.factor)
        else:
            fi = _scaled_f(model.f[agent], mis.factor)
            new_model = replace(model, f=model.f[:agent] + (fi,) + model.f[agent + 1:])
    elif isinstance(model, ExplicitTable):
        new_model = _hidden_table(model, agent, mis.hide_from)
    else:
        sizes = {
            (i, j): (0.0 if j == agent and i in mis.hide_from else s)
            for (i, j), s in model.sizes.items()
        }
        new_model = replace(model, sizes=sizes)
    return replace(instance, utility=new_model)


def reported_singletons(instance: Instance, mis: Misreport) -> np.ndarray:
    """apply_misreport(instance, mis).singleton_utility, without building that instance.

    A copy of the true singleton table with only the entries the misreport
    touches recomputed: row `agent` for a scale, entries (i, agent) for i in
    `hide_from` for a hide.  Each is the value the reported model gives.
    """
    model = _misreported_model(instance, mis)
    table = instance.singleton_utility.copy()
    if model is None:
        return table
    agent = mis.agent
    if mis.kind == "scale":
        if isinstance(model, ExplicitTable):
            table[agent] *= mis.factor  # as _scaled_table multiplies the agent's table
        else:
            fa = _scaled_f(model.f[agent], mis.factor)
            for j in instance.senders_of[agent]:
                table[agent, j] = fa(model.total_size(agent, frozenset({j})))
    else:
        for i in mis.hide_from:
            if isinstance(model, ExplicitTable):
                table[i, agent] = model.values[i][0]  # _hidden_table's u_i({agent}) = u_i(empty)
            else:
                table[i, agent] = model.f[i](0.0)  # the hidden size is 0
    return table


def _received(table: np.ndarray, cols: dict[int, dict], agent: int) -> float:
    """What evaluate gives `agent` on the pairwise algorithms' output: x * u_agent({j})
    of its one singleton column, 0 without one."""
    if agent not in cols:
        return 0.0
    ((col, x),) = cols[agent].items()
    (j,) = col
    return x * float(table[agent, j])


def sample_misreport(instance: Instance, agent: int, rng: np.random.Generator) -> Misreport:
    receivers = instance.receivers_of[agent]
    if receivers and rng.random() < 0.5:
        count = int(rng.integers(1, len(receivers) + 1))
        hide = tuple(sorted(int(x) for x in rng.choice(receivers, size=count, replace=False)))
        return Misreport(agent=agent, kind="hide", hide_from=hide)
    return Misreport(agent=agent, kind="scale", factor=float(rng.uniform(0.0, 1.0)))


def strategyproofness_fuzz(instance: Instance, algorithm: str, trials: int,
                           seed: int = 0) -> list[dict]:
    """Random feasible misreports; flag any that raise the misreporter's utility.

    The misreporter's perceived utility is measured with its reported utility
    function on the output of ALGORITHMS[algorithm] for the reported instance.
    Those algorithms read only the singleton table, so each trial runs on the
    reported table (reported_singletons) rather than a reported instance.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if trials < 0:
        raise ValueError(f"fuzz trials must be >= 0, got {trials}")
    run = ALGORITHMS[algorithm]
    table = instance.singleton_utility
    truthful = run(table)[0]
    rng = np.random.default_rng(seed)
    violations = []
    for _ in range(trials):
        agent = int(rng.integers(0, instance.n))
        mis = sample_misreport(instance, agent, rng)
        reported = reported_singletons(instance, mis)
        perceived = _received(reported, run(reported)[0], agent)
        before = _received(table, truthful, agent)
        if perceived > before + EQ_TOL:
            violations.append({
                "agent": agent,
                "misreport": mis,
                "U_before": before,
                "U_after": perceived,
            })
    return violations

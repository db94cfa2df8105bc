"""Greedy matching, cycle canceling, tradeoff mixing, and the misreport harness."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    EQ_TOL,
    ExchangeSolution,
    ExplicitTable,
    Instance,
    SymmetricWeighted,
    evaluate,
)


def symmetric_pair_weights(instance: Instance) -> dict[tuple[int, int], float]:
    """u-hat over unordered pairs with both directions permitted: min of the two."""
    u = instance.singleton_utility.tolist()
    return {(i, j): min(u[i][j], u[j][i])
            for i, j in sorted(instance.allowed) if i < j and (j, i) in instance.allowed}


def greedy_matching(instance: Instance) -> ExchangeSolution:
    """Greedy maximal-weight matching on u-hat; each matched pair trades to balance.

    x_i({j}) = min(1, u_ji / u_ij), so both partners receive exactly u-hat.
    """
    u = instance.singleton_utility.tolist()
    u_hat = symmetric_pair_weights(instance)
    order = sorted(u_hat, key=lambda p: (-u_hat[p], p))
    matched: set[int] = set()
    cols: dict[int, dict] = {}
    for i, j in order:
        if u_hat[(i, j)] <= 0.0 or i in matched or j in matched:
            continue
        matched.update((i, j))
        cols[i] = {frozenset({j}): min(1.0, u[j][i] / u[i][j])}
        cols[j] = {frozenset({i}): min(1.0, u[i][j] / u[j][i])}
    return ExchangeSolution(n=instance.n, columns=cols)


def check_2_stability(instance: Instance, solution: ExchangeSolution,
                      ) -> list[tuple[int, int]]:
    """Pairs (i, j) whose mutual trade beats both agents' current utilities."""
    u_hat = symmetric_pair_weights(instance)
    current = evaluate(instance, solution).per_agent_utility
    return [
        (i, j)
        for (i, j), w in sorted(u_hat.items())
        if w > current[i] + EQ_TOL and w > current[j] + EQ_TOL
    ]


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
    u = instance.singleton_utility.tolist()  # hop sender j -> receiver i weighs u[i][j]
    active = list(range(instance.n))
    cols: dict[int, dict] = {}
    cycles: list[list[int]] = []
    while active:
        weight = instance.singleton_utility.T[np.ix_(active, active)]
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
    return ExchangeSolution(n=instance.n, columns=cols), cycles


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

    def mix_slack(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
        if a is None and b is None:
            return None
        av = np.zeros(first.n) if a is None else np.asarray(a)
        bv = np.zeros(first.n) if b is None else np.asarray(b)
        return beta * av + (1.0 - beta) * bv

    return ExchangeSolution(
        n=first.n, columns=cols,
        deltas=mix_slack(first.deltas, second.deltas),
        gammas=mix_slack(first.gammas, second.gammas),
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


def _hidden_table(model: ExplicitTable, agent: int, hide_from: tuple[int, ...],
                  ) -> ExplicitTable:
    values = [vals.copy() for vals in model.values]
    for i in hide_from:
        if agent in model.senders[i]:
            # pairs[:, 1] are the masks with agent's bit set, pairs[:, 0] the same without it
            pairs = values[i].reshape(-1, 2, 1 << model.senders[i].index(agent))
            pairs[:, 1] = pairs[:, 0]  # i's utility ignores agent's data
    return ExplicitTable(model.senders, tuple(values))


def apply_misreport(instance: Instance, mis: Misreport) -> Instance:
    """The instance induced by a feasible misreport (reported utilities/shares)."""
    if not (0 <= mis.agent < instance.n):
        raise ValueError(f"unknown agent {mis.agent}")
    model = instance.utility
    if mis.kind == "scale":
        if mis.factor == 1.0:
            return instance
        if isinstance(model, ExplicitTable):
            new_model = _scaled_table(model, mis.agent, mis.factor)
        elif isinstance(model, SymmetricWeighted):
            fi = model.f[mis.agent]
            fi = replace(fi, scale=0.0) if mis.factor == 0.0 else fi.rescaled(1.0 / mis.factor)
            new_model = replace(model, f=model.f[:mis.agent] + (fi,) + model.f[mis.agent + 1:])
        else:
            raise ValueError(f"misreports are not modeled for {model.kind}")
    else:
        receivers = instance.receivers_of[mis.agent]
        bad = [j for j in mis.hide_from if j not in receivers]
        if bad:
            raise ValueError(
                f"condition 3 violated: agents {bad} never receive from {mis.agent}"
            )
        if not mis.hide_from:
            return instance
        if isinstance(model, ExplicitTable):
            new_model = _hidden_table(model, mis.agent, mis.hide_from)
        elif isinstance(model, SymmetricWeighted):
            sizes = {
                (i, j): (0.0 if j == mis.agent and i in mis.hide_from else s)
                for (i, j), s in model.sizes.items()
            }
            new_model = replace(model, sizes=sizes)
        else:
            raise ValueError(f"misreports are not modeled for {model.kind}")
    return replace(instance, utility=new_model)


def _perceived_utility(reported: Instance, solution: ExchangeSolution, agent: int) -> float:
    return float(evaluate(reported, solution).per_agent_utility[agent])


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
    function on the algorithm's output for the reported instance.
    """
    runners = {
        "cycle_cancel": lambda inst: greedy_cycle_canceling(inst)[0],
        "greedy_match": greedy_matching,
    }
    if algorithm not in runners:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if trials < 0:
        raise ValueError(f"fuzz trials must be >= 0, got {trials}")
    run = runners[algorithm]
    truthful = evaluate(instance, run(instance)).per_agent_utility
    rng = np.random.default_rng(seed)
    violations = []
    for _ in range(trials):
        agent = int(rng.integers(0, instance.n))
        mis = sample_misreport(instance, agent, rng)
        reported = apply_misreport(instance, mis)
        perceived = _perceived_utility(reported, run(reported), agent)
        if perceived > truthful[agent] + EQ_TOL:
            violations.append({
                "agent": agent,
                "misreport": mis,
                "U_before": float(truthful[agent]),
                "U_after": perceived,
            })
    return violations

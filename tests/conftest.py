from __future__ import annotations

import numpy as np
import pytest

from datex import (
    ConcaveSpec,
    ContinuousConcave,
    ExplicitTable,
    Instance,
    SharingRuleSpec,
    SymmetricWeighted,
)


def table_instance(n, singleton_u, epsilon=0.01, sharing=None):
    """Instance from singleton utilities; sets add up, capped at 1."""
    senders, values, allowed = [], [], set()
    for i in range(n):
        js = tuple(sorted(j for (a, j) in singleton_u if a == i))
        senders.append(js)
        vals = np.zeros(1 << len(js))
        for mask in range(1, 1 << len(js)):
            vals[mask] = min(
                1.0, sum(singleton_u[(i, js[b])] for b in range(len(js)) if mask & (1 << b))
            )
        values.append(vals)
        allowed.update((i, j) for j in js)
    return Instance(
        n=n,
        allowed=frozenset(allowed),
        utility=ExplicitTable(senders=tuple(senders), values=tuple(values)),
        sharing=sharing or SharingRuleSpec(kind="shapley_exact"),
        epsilon=epsilon,
    )


def columns_of(solution):
    """A solution's (agent, column) pairs in its column order: sparsify's input."""
    return [(i, col) for i, col, _ in solution.iter_columns()]


def five_model_instances(seed=0):
    """One instance of each utility model, each with the generator's sharing rule."""
    from datex.instances import RoadSpec, gen_random, gen_road, gen_x3c, grid_graph, make_x3c_yes

    sym = gen_random(6, 3, "symmetric", seed=11 + seed)
    continuous = Instance(
        n=sym.n, allowed=sym.allowed,
        utility=ContinuousConcave(sizes=dict(sym.utility.sizes), f=sym.utility.f),
        sharing=SharingRuleSpec(kind="proportional", weights="size"),
    )
    return [
        gen_random(6, 3, "table", seed=12 + seed),
        sym,
        gen_road(RoadSpec(edges=grid_graph(8, 8, seed=1), radius=6, n_agents=6, seed=5 + seed)),
        gen_x3c(make_x3c_yes(3, 1, seed=seed)),
        continuous,
    ]


@pytest.fixture
def two_agent_unit():
    """Two agents that value each other's data at exactly 1."""
    return table_instance(2, {(0, 1): 1.0, (1, 0): 1.0})


@pytest.fixture
def two_agent_symmetric():
    """Symmetric weighted two-agent instance, capped-linear utilities of 1."""
    sizes = {(0, 1): 1.0, (1, 0): 1.0}
    f = tuple(ConcaveSpec(kind="capped_linear", cap=1.0) for _ in range(2))
    return Instance(
        n=2,
        allowed=frozenset({(0, 1), (1, 0)}),
        utility=SymmetricWeighted(sizes=sizes, f=f),
        sharing=SharingRuleSpec(kind="proportional", weights="size"),
        epsilon=0.1,
    )

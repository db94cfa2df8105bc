"""Road-network experiment harness: baseline vs pairwise matching vs the MWU solver."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .instances import CORRELATIONS, RoadSpec, check_rho, gen_road
from .model import ExchangeSolution, Instance, PathVariance, normalize_instance
from .mwu import MwuConfig, solve_welfare
from .oracles import get_oracle

logger = logging.getLogger(__name__)

METHODS = ("baseline", "matching", "mwu")


@dataclass(frozen=True)
class ExperimentRow:
    replicate: int
    method: str
    total_utility: float  # raw variance-reduction units
    fraction_of_baseline_variance: float
    correlation_mode: str
    rho: float
    seed: int


def pair_trade(u1: float, u2: float, eps: float) -> tuple[float, float, float]:
    """Optimal 2-agent eps-balance trade over singleton columns.

    Returns (welfare, x1, x2): welfare = min(u1, u2+eps) + min(u2, u1+eps).
    """
    if u1 <= 0.0 and u2 <= 0.0:
        return 0.0, 0.0, 0.0
    x1 = min(1.0, (u2 + eps) / u1) if u1 > 0 else 0.0
    x2 = min(1.0, (u1 + eps) / u2) if u2 > 0 else 0.0
    welfare = (u1 * x1 if u1 > 0 else 0.0) + (u2 * x2 if u2 > 0 else 0.0)
    return welfare, x1, x2


def matching_benchmark(instance: Instance) -> tuple[ExchangeSolution, float]:
    """Pairwise-trade benchmark: exact maximum-weight matching over the
    2-agent eps-balance optima, then assemble the matched trades."""
    import networkx as nx  # only this baseline needs it; every CLI command imports this module

    eps = instance.epsilon
    n = instance.n
    u = instance.singleton_utility.tolist()  # 0 off the allowed pairs
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            w, _, _ = pair_trade(u[i][j], u[j][i], eps)
            if w > 0.0:
                graph.add_edge(i, j, weight=w)
    matching = nx.max_weight_matching(graph)
    cols: dict[int, dict] = {}
    total = 0.0
    for a, b in matching:
        i, j = min(a, b), max(a, b)
        w, x_i, x_j = pair_trade(u[i][j], u[j][i], eps)
        total += w
        if x_i > 0.0:
            cols[i] = {frozenset({j}): x_i}
        if x_j > 0.0:
            cols[j] = {frozenset({i}): x_j}
    return ExchangeSolution(n=n, columns=cols), total


def road_mwu_config(n: int, max_iters: int = 240) -> MwuConfig:
    """Desk-scale solver settings for the experiment replicates (the iteration
    cap binds on road, so the default rate is practical_eta(n, max_iters))."""
    return MwuConfig(max_iters=max_iters, check_every=30)


def run_replicate(spec: RoadSpec, config: MwuConfig) -> dict[str, float]:
    """One replicate, solved with the bucketing oracle: returns raw total
    utility per method plus the baseline variance."""
    raw = gen_road(spec)
    model = raw.utility
    assert isinstance(model, PathVariance)
    v0_total = sum(model.baseline_variance(i) for i in range(raw.n))
    norm, scale = normalize_instance(raw)
    _, match_welfare = matching_benchmark(norm)
    _, report = solve_welfare(norm, config, get_oracle("bucketing"))
    return {
        "baseline": 0.0,
        "matching": match_welfare * scale,
        "mwu": report.welfare * scale,
        "v0": v0_total,
    }


def run_experiment(edges: tuple[tuple[int, int], ...], replicates: int,
                   modes: tuple[str, ...] = ("random", "local"),
                   rhos: tuple[float, ...] = (0.0, 0.25, 0.5),
                   seed: int = 0, n_agents: int = 20, radius: int = 8,
                   max_iters: int = 240) -> list[ExperimentRow]:
    """Full sweep: replicate x correlation mode x rho, three method rows each."""
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    # checked before any replicate runs; rho = 0 runs never reach RoadSpec's mode check
    for mode in modes:
        if mode not in CORRELATIONS:
            raise ValueError(f"unknown correlation mode {mode!r}")
    for rho in rhos:
        check_rho(rho)
    rows: list[ExperimentRow] = []
    for mode_id, mode in enumerate(modes):
        for rho in rhos:
            for rep in range(replicates):
                rep_seed = int(
                    np.random.SeedSequence(
                        [seed, mode_id, int(rho * 1000), rep]
                    ).generate_state(1)[0]
                )
                spec = RoadSpec(
                    edges=edges, radius=radius, n_agents=n_agents,
                    correlation=mode if rho > 0 else "none", rho=rho, seed=rep_seed,
                )
                result = run_replicate(spec, road_mwu_config(n_agents, max_iters))
                for method in METHODS:
                    rows.append(ExperimentRow(
                        replicate=rep,
                        method=method,
                        total_utility=result[method],
                        fraction_of_baseline_variance=(
                            result[method] / result["v0"] if result["v0"] > 0 else 0.0
                        ),
                        correlation_mode=mode,
                        rho=rho,
                        seed=rep_seed,
                    ))
    rows.sort(key=lambda r: (r.correlation_mode, r.rho, r.replicate, r.method))
    return rows


CSV_HEADER = "replicate,method,total_utility,fraction_of_baseline_variance,correlation_mode,rho,seed"


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.replicate},{r.method},{r.total_utility:.9g},"
            f"{r.fraction_of_baseline_variance:.9g},{r.correlation_mode},{r.rho:.9g},{r.seed}"
        )
    return "\n".join(lines) + "\n"


def render_svg(rows: list[ExperimentRow], width: int = 640, height: int = 360) -> str:
    """Dependency-free box plot of fraction-of-baseline by method."""
    groups: dict[str, list[float]] = {}
    for r in rows:
        if r.method != "baseline":
            groups.setdefault(r.method, []).append(r.fraction_of_baseline_variance)
    if not groups:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"/>'
    peak = max(max(v) for v in groups.values()) or 1.0
    pad, plot_h = 40, height - 80
    scale_y = lambda v: height - 40 - v / peak * plot_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{pad}" y1="{height - 40}" x2="{width - 20}" y2="{height - 40}" stroke="black"/>',
        f'<line x1="{pad}" y1="{height - 40}" x2="{pad}" y2="20" stroke="black"/>',
    ]
    slot = (width - pad - 40) / len(groups)
    for t, (name, vals) in enumerate(sorted(groups.items())):
        vals = sorted(vals)
        q1 = vals[len(vals) // 4]
        q2 = vals[len(vals) // 2]
        q3 = vals[(3 * len(vals)) // 4]
        cx = pad + slot * (t + 0.5)
        parts.append(
            f'<line x1="{cx:.1f}" y1="{scale_y(vals[0]):.1f}" x2="{cx:.1f}" '
            f'y2="{scale_y(vals[-1]):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<rect x="{cx - 25:.1f}" y="{scale_y(q3):.1f}" width="50" '
            f'height="{scale_y(q1) - scale_y(q3):.1f}" fill="steelblue" fill-opacity="0.6" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{cx - 25:.1f}" y1="{scale_y(q2):.1f}" x2="{cx + 25:.1f}" '
            f'y2="{scale_y(q2):.1f}" stroke="black" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{cx:.1f}" y="{height - 20}" text-anchor="middle" font-size="14">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)

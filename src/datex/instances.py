"""Instance generators: X3C hardness, core-gap cycles, random corpora, road networks."""

from __future__ import annotations

import csv
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import (
    MAX_ENUMERABLE_SENDERS,
    ConcaveSpec,
    ExchangeSolution,
    ExplicitTable,
    Instance,
    PathVariance,
    SharingRuleSpec,
    SymmetricWeighted,
    X3CCoverage,
)

# ---------------------------------------------------------------------------
# X3C hardness construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class X3CSpec:
    """An exact-cover-by-3-sets instance: m triples over a 3k-element universe."""

    m: int
    k: int
    sets: tuple[frozenset[int], ...]
    known_cover: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.sets) != self.m:
            raise ValueError("need exactly m sets")
        for s in self.sets:
            if len(s) != 3 or not all(0 <= e < 3 * self.k for e in s):
                raise ValueError("each set must hold exactly 3 universe elements")
        if self.known_cover is not None:
            chosen = [self.sets[i] for i in self.known_cover]
            if len(chosen) != self.k or set().union(*chosen) != set(range(3 * self.k)):
                raise ValueError("known_cover must be k sets partitioning the universe")
            if sum(len(s) for s in chosen) != 3 * self.k:
                raise ValueError("known_cover sets must be disjoint")


def is_exactly_coverable(spec: X3CSpec) -> bool:
    """Exhaustive check: do some k disjoint sets cover the universe?"""
    universe = frozenset(range(3 * spec.k))
    for combo in itertools.combinations(range(spec.m), spec.k):
        chosen = [spec.sets[i] for i in combo]
        if sum(len(s) for s in chosen) == 3 * spec.k and frozenset().union(*chosen) == universe:
            return True
    return False


def gen_x3c(spec: X3CSpec) -> Instance:
    """The data-exchange instance of the hardness reduction (utilities raw).

    Agents 0..m-1 are p_i, m..2m-1 are q_i, then w, z1, z2; the permitted
    pairs are `X3CCoverage.allowed_pairs`.
    """
    model = X3CCoverage(m=spec.m, k=spec.k, sets=spec.sets)
    return Instance(
        n=2 * spec.m + 3,
        allowed=model.allowed_pairs(),
        utility=model,
        sharing=SharingRuleSpec(kind="shapley_exact"),
        epsilon=0.01,
    )


def x3c_raw_scale(spec: X3CSpec) -> float:
    """The divisor normalize_instance will report: the largest raw utility."""
    return max(spec.m + 3 * spec.k, 3.5 * spec.k, spec.m - spec.k / 2.0, 4.0)


def make_x3c_yes(m: int, k: int, seed: int = 0) -> X3CSpec:
    """A yes-instance: k disjoint covering triples plus m-k random triples."""
    if m < k:
        raise ValueError("need at least k sets")
    rng = np.random.default_rng(seed)
    universe = rng.permutation(3 * k)
    cover = [frozenset(int(e) for e in universe[3 * t : 3 * t + 3]) for t in range(k)]
    extra = [
        frozenset(int(e) for e in rng.choice(3 * k, size=3, replace=False))
        for _ in range(m - k)
    ]
    sets = cover + extra
    order = rng.permutation(m)
    shuffled = tuple(sets[int(t)] for t in order)
    known = tuple(int(np.where(order == t)[0][0]) for t in range(k))
    return X3CSpec(m=m, k=k, sets=shuffled, known_cover=known)


def make_x3c_no(m: int, k: int, seed: int = 0) -> X3CSpec:
    """A no-instance: all triples share one pinned element, so no k >= 2
    disjoint sets exist (and k = 1 is impossible since one triple cannot
    cover 3k >= 6 elements)."""
    if k < 2:
        raise ValueError("no-instances need k >= 2 (every 3-element set covers a 3-element universe)")
    rng = np.random.default_rng(seed)
    pinned = int(rng.integers(0, 3 * k))
    others = [e for e in range(3 * k) if e != pinned]
    sets = tuple(
        frozenset({pinned} | {int(e) for e in rng.choice(others, size=2, replace=False)})
        for _ in range(m)
    )
    spec = X3CSpec(m=m, k=k, sets=sets)
    assert not is_exactly_coverable(spec)
    return spec


def x3c_case1_solution(instance: Instance, spec: X3CSpec) -> ExchangeSolution:
    """The witness solution for yes-instances (welfare exactly 3(m+3k))."""
    if spec.known_cover is None:
        raise ValueError("need a known cover")
    model = instance.utility
    assert isinstance(model, X3CCoverage)
    m, k = spec.m, spec.k
    cover = set(spec.known_cover)
    big = frozenset(cover | set(range(m, 2 * m)))  # chosen p's plus every q
    cols: dict[int, dict] = {model.w: {big: 1.0}}
    for i in range(m):
        if i in cover:
            cols[i] = {frozenset({model.z1}): 7.0 / 8.0}
            cols[m + i] = {frozenset({model.z2}): 0.5}
        else:
            cols[m + i] = {frozenset({model.z2}): 1.0}
    cols[model.z1] = {frozenset({model.w}): 1.0}
    cols[model.z2] = {frozenset({model.w}): 1.0}
    return ExchangeSolution(n=instance.n, columns=cols)


# ---------------------------------------------------------------------------
# Core-gap cycle instance
# ---------------------------------------------------------------------------


def gen_core_gap(n: int) -> Instance:
    """Directed n-cycle with unit sizes plus a heavy mutual pair {0, n-1}.

    Sizes M = n-3 on the special pair, sqrt utilities, proportional sharing
    with w = s.  The welfare-optimal long cycle earns n total, while any core
    solution is throttled to O(sqrt(n)).
    """
    if n < 6:
        raise ValueError("core-gap construction needs n >= 6 (so M = n-3 >= 3)")
    M = float(n - 3)
    sizes: dict[tuple[int, int], float] = {}
    allowed = set()
    for i in range(n - 1):
        allowed.add((i, i + 1))  # i receives from its cycle successor
        sizes[(i, i + 1)] = 1.0
    allowed.add((n - 1, 0))
    sizes[(n - 1, 0)] = M
    allowed.add((0, n - 1))
    sizes[(0, n - 1)] = M
    f = tuple(ConcaveSpec(kind="sqrt") for _ in range(n))
    return Instance(
        n=n,
        allowed=frozenset(allowed),
        utility=SymmetricWeighted(sizes=sizes, f=f),
        sharing=SharingRuleSpec(kind="proportional", weights="size"),
        epsilon=0.01,
    )


def core_gap_long_cycle(instance: Instance) -> ExchangeSolution:
    """x_i({i+1}) = 1 along the cycle, x_{n-1}({0}) = 1/sqrt(M); welfare n."""
    n = instance.n
    M = float(n - 3)
    cols: dict[int, dict] = {
        i: {frozenset({i + 1}): 1.0} for i in range(n - 1)
    }
    cols[n - 1] = {frozenset({0}): 1.0 / math.sqrt(M)}
    return ExchangeSolution(n=n, columns=cols)


def core_gap_pair(instance: Instance) -> ExchangeSolution:
    """The core-forced trade: agents 0 and n-1 swap fully, sqrt(M) each."""
    n = instance.n
    cols = {0: {frozenset({n - 1}): 1.0}, n - 1: {frozenset({0}): 1.0}}
    return ExchangeSolution(n=n, columns=cols)


# ---------------------------------------------------------------------------
# Random synthetic instances
# ---------------------------------------------------------------------------


def _random_allowed(n: int, senders_per_agent: int, rng: np.random.Generator,
                    ) -> frozenset[tuple[int, int]]:
    allowed = set()
    for i in range(n):
        others = [j for j in range(n) if j != i]
        count = min(senders_per_agent, len(others))
        if count:
            for j in rng.choice(others, size=count, replace=False):
                allowed.add((i, int(j)))
    return frozenset(allowed)


def gen_random(n: int, senders_per_agent: int, model_kind: str = "symmetric",
               seed: int = 0, epsilon: float = 0.1) -> Instance:
    """Random test instances: symmetric weighted or coverage-built tables."""
    if senders_per_agent < 0:
        raise ValueError(f"senders per agent must be >= 0, got {senders_per_agent}")
    # a table lists all 2^k subsets of k senders; refuse past the cap before building one
    if model_kind == "table" and min(senders_per_agent, n - 1) > MAX_ENUMERABLE_SENDERS:
        raise ValueError(f"a table of {min(senders_per_agent, n - 1)} senders per agent "
                         f"exceeds the enumeration cap {MAX_ENUMERABLE_SENDERS}")
    rng = np.random.default_rng(seed)
    allowed = _random_allowed(n, senders_per_agent, rng)
    if model_kind == "symmetric":
        sizes = {pair: float(rng.uniform(0.1, 1.0)) for pair in sorted(allowed)}
        f = tuple(
            ConcaveSpec(kind="power", c=float(rng.uniform(0.3, 1.0))) for _ in range(n)
        )
        return Instance(
            n=n, allowed=allowed,
            utility=SymmetricWeighted(sizes=sizes, f=f),
            sharing=SharingRuleSpec(kind="proportional", weights="size"),
            epsilon=epsilon, seed=seed,
        )
    if model_kind == "table":
        universe = 8
        senders: list[tuple[int, ...]] = []
        values: list[np.ndarray] = []
        by_receiver: dict[int, list[int]] = {i: [] for i in range(n)}
        for i, j in allowed:
            by_receiver[i].append(j)
        bits = 1 << np.arange(universe)
        in_cover = (np.arange(1 << universe)[:, None] & bits) != 0  # [cover mask, element]
        for i in range(n):
            send = tuple(sorted(by_receiver[i]))
            senders.append(send)
            weights = rng.uniform(0.1, 1.0, size=universe)
            weights /= weights.sum()
            # sender b covers element e where its draw e is below 0.4, drawn b-major
            covers = (rng.random((len(send), universe)) < 0.4) @ bits
            # the value of each cover mask, its elements' weights added in ascending order
            cover_value = np.zeros(1 << universe)
            for e in range(universe):
                cover_value = np.where(in_cover[:, e], cover_value + weights[e], cover_value)
            cov = np.zeros(1 << len(send), dtype=np.intp)  # cov[mask]: OR of its senders' covers
            for b, c in enumerate(covers.tolist()):
                cov[1 << b : 2 << b] = cov[: 1 << b] | c
            values.append(cover_value[cov])
        return Instance(
            n=n, allowed=allowed,
            utility=ExplicitTable(senders=tuple(senders), values=tuple(values)),
            sharing=SharingRuleSpec(kind="shapley_exact"),
            epsilon=epsilon, seed=seed,
        )
    raise ValueError(f"unknown model kind {model_kind!r}")


# ---------------------------------------------------------------------------
# Road-network experiment instances
# ---------------------------------------------------------------------------


CORRELATIONS = ("none", "random", "local")


@dataclass(frozen=True)
class RoadSpec:
    """Sampling recipe for a road-network variance-trading instance."""

    edges: tuple[tuple[int, int], ...]
    radius: int = 8
    n_agents: int = 20
    correlation: str = "none"  # one of CORRELATIONS
    rho: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.correlation not in CORRELATIONS:
            raise ValueError(f"unknown correlation mode {self.correlation!r}")
        check_rho(self.rho)


def check_rho(rho: float) -> None:
    """Reject a correlation strength outside [0, 1], NaN included."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1]; got {rho!r}")


def load_edge_csv(path: str) -> tuple[tuple[int, int], ...]:
    """Undirected edge list from CSV rows 'node_a,node_b'; loops and dupes dropped."""
    label_of: dict[str, int] = {}
    edges = []
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if len(row) < 2:
                continue
            a_raw, b_raw = row[0].strip(), row[1].strip()
            if not a_raw or not b_raw or a_raw.lower() in ("node_a", "source", "from"):
                continue  # header
            a = label_of.setdefault(a_raw, len(label_of))
            b = label_of.setdefault(b_raw, len(label_of))
            if a == b:
                continue
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
    return tuple(edges)


def grid_graph(width: int, height: int, seed: int = 0, diagonal: float = 0.2,
               ) -> tuple[tuple[int, int], ...]:
    """width x height lattice with random diagonals (synthetic road fallback)."""
    rng = np.random.default_rng(seed)
    edges = []
    node = lambda r, c: r * width + c
    for r in range(height):
        for c in range(width):
            if c + 1 < width:
                edges.append((node(r, c), node(r, c + 1)))
            if r + 1 < height:
                edges.append((node(r, c), node(r + 1, c)))
            if c + 1 < width and r + 1 < height and rng.random() < diagonal:
                edges.append((node(r, c), node(r + 1, c + 1)))
    return tuple(edges)


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _bfs_layers(adj: dict[int, list[int]], start: int,
                ) -> tuple[dict[int, int], dict[int, int]]:
    dist = {start: 0}
    parent: dict[int, int] = {}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                parent[w] = v
                queue.append(w)
    return dist, parent


def gen_road(spec: RoadSpec) -> Instance:
    """Sample a radius-limited neighborhood and n agents as shortest paths.

    Per-agent path: random start u, length t uniform in [5, BFS depth from u],
    endpoint uniform at BFS layer t, path = BFS shortest path.  Edge variances
    are drawn per correlation class; agents start with 2..9 samples per edge.
    """
    rng = np.random.default_rng(spec.seed)
    adj_full: dict[int, list[int]] = {}
    for a, b in spec.edges:
        adj_full.setdefault(a, []).append(b)
        adj_full.setdefault(b, []).append(a)
    for v in adj_full:
        adj_full[v].sort()
    if not adj_full:
        raise ValueError("empty graph")

    nodes = sorted(adj_full)
    center = int(nodes[rng.integers(0, len(nodes))])
    dist, _ = _bfs_layers(adj_full, center)
    ball = sorted(v for v, d in dist.items() if d <= spec.radius)
    index = {v: t for t, v in enumerate(ball)}
    edges = tuple(
        (index[a], index[b])
        for a, b in spec.edges
        if a in index and b in index
    )
    if not edges:
        raise ValueError("sampled neighborhood has no edges")
    adj: dict[int, list[int]] = {t: [] for t in range(len(ball))}
    edge_idx: dict[tuple[int, int], int] = {}
    for e, (a, b) in enumerate(edges):
        adj[a].append(b)
        adj[b].append(a)
        edge_idx[(a, b)] = e
        edge_idx[(b, a)] = e
    for v in adj:
        adj[v].sort()

    # correlation classes over edges
    uf = _UnionFind(len(edges))
    if spec.correlation == "random" and spec.rho > 0:
        pairs = round(spec.rho * len(edges))
        for _ in range(pairs):
            e1, e2 = rng.choice(len(edges), size=2, replace=False)
            uf.union(int(e1), int(e2))
    elif spec.correlation == "local" and spec.rho > 0:
        count = round(spec.rho * len(ball))
        if count:
            for v in rng.choice(len(ball), size=count, replace=False):
                incident = [edge_idx[(int(v), w)] for w in adj[int(v)]]
                for e in incident[1:]:
                    uf.union(incident[0], e)
    roots = sorted({uf.find(e) for e in range(len(edges))})
    class_of_root = {r: c for c, r in enumerate(roots)}
    classes = np.array([class_of_root[uf.find(e)] for e in range(len(edges))])
    class_sigma = rng.uniform(0.0, 1.0, size=len(roots))
    sigma2 = class_sigma[classes]

    paths: list[tuple[int, ...]] = []
    z: list[int] = []
    for _ in range(spec.n_agents):
        for _attempt in range(200):
            start = int(rng.integers(0, len(ball)))
            d_local, parent = _bfs_layers(adj, start)
            depth = max(d_local.values())
            if depth < 5:
                continue
            t = int(rng.integers(5, depth + 1))
            layer = sorted(v for v, d in d_local.items() if d == t)
            end = int(layer[rng.integers(0, len(layer))])
            # walk parents back to the start
            path_nodes = [end]
            while path_nodes[-1] != start:
                path_nodes.append(parent[path_nodes[-1]])
            path_nodes.reverse()
            paths.append(tuple(edge_idx[(a, b)] for a, b in zip(path_nodes, path_nodes[1:])))
            z.append(int(rng.integers(2, 10)))
            break
        else:
            raise ValueError("could not sample a path of length >= 5; neighborhood too small")

    model = PathVariance(
        n_nodes=len(ball),
        edges=edges,
        paths=tuple(paths),
        sigma2=sigma2,
        z=np.array(z),
        classes=classes,
    )
    allowed = frozenset(
        (i, j) for i in range(spec.n_agents) for j in range(spec.n_agents) if i != j
    )
    return Instance(
        n=spec.n_agents,
        allowed=allowed,
        utility=model,
        sharing=SharingRuleSpec(kind="shapley_sampled", m=10, seed=spec.seed),
        epsilon=0.01,
        seed=spec.seed,
    )

"""Problem model for balanced data exchange: utility models, instances, solutions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

# Equality tolerance used across the toolkit for exact identities.
EQ_TOL = 1e-9

# Table models and the brute-force oracle enumerate subsets; cap keeps 2^k feasible.
MAX_ENUMERABLE_SENDERS = 20

# Smallest balance slack: keeps eps * eps normal, and rho / eps and the MWU
# theory iteration count 32 n^2 alpha^2 log(n) / eps^2 finite.
EPSILON_MIN = 1e-100

# Most permutations a sampled-Shapley rule may draw per call; a full-set draw
# of 10^4 on a 12x12, 20-agent road instance takes about 55 MB.
SAMPLED_SHAPLEY_MAX_M = 10**4


class DegenerateInstanceError(ValueError):
    """Raised when an instance has no utility anywhere (cannot be normalized)."""


# ---------------------------------------------------------------------------
# Concave value functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcaveSpec:
    """A non-decreasing concave function f with f(0) = 0.

    Kinds: sqrt, power (x^c, c in (0,1]), capped_linear (min(x, cap)),
    variance_reduction (sigma2 * (1 - 1/(1+x))), piecewise_linear (breakpoints).
    `scale` is an output multiplier used by instance normalization.
    """

    kind: str
    c: float = 1.0
    cap: float = 1.0
    sigma2: float = 1.0
    points: tuple[tuple[float, float], ...] = ()
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("sqrt", "power", "capped_linear", "variance_reduction", "piecewise_linear"):
            raise ValueError(f"unknown concave kind {self.kind!r}")
        if self.kind == "power" and not (0.0 < self.c <= 1.0):
            raise ValueError("power exponent must lie in (0, 1]")
        for name in ("cap", "sigma2", "scale"):
            if not 0.0 <= getattr(self, name) < math.inf:  # also false for NaN
                raise ValueError(f"{name} must be finite and non-negative; got {getattr(self, name)}")
        if self.kind == "piecewise_linear":
            pts = self.points
            if not pts or pts[0] != (0.0, 0.0):
                raise ValueError("piecewise_linear must start at (0, 0)")
            if not all(math.isfinite(v) for p in pts for v in p):
                raise ValueError("piecewise_linear breakpoints must be finite")
            slopes = []
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                if x1 <= x0 or y1 < y0:
                    raise ValueError("piecewise_linear breakpoints must increase")
                slopes.append((y1 - y0) / (x1 - x0))
            if any(s1 > s0 + EQ_TOL for s0, s1 in zip(slopes, slopes[1:])):
                raise ValueError("piecewise_linear slopes must be non-increasing (concavity)")

    def __call__(self, x: float) -> float:
        if x < 0:
            raise ValueError("concave functions are defined for x >= 0")
        if self.kind == "sqrt":
            v = math.sqrt(x)
        elif self.kind == "power":
            v = x**self.c
        elif self.kind == "capped_linear":
            v = min(x, self.cap)
        elif self.kind == "variance_reduction":
            v = self.sigma2 * (1.0 - 1.0 / (1.0 + x))
        else:  # piecewise_linear
            v = self._piecewise(x)
        return self.scale * v

    def _piecewise(self, x: float) -> float:
        pts = self.points
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        # extend final segment's slope beyond the last breakpoint
        (x0, y0), (x1, y1) = pts[-2], pts[-1]
        return y1 + (y1 - y0) / (x1 - x0) * (x - x1)

    def rescaled(self, divisor: float) -> ConcaveSpec:
        return ConcaveSpec(self.kind, self.c, self.cap, self.sigma2, self.points, self.scale / divisor)


# ---------------------------------------------------------------------------
# Utility models
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ExplicitTable:
    """Per-agent utility tables over all subsets of the permitted senders.

    Each agent's table is an array indexed by bitmask over its sorted sender
    tuple.  Entries must be in [0, 1], monotone, with u(empty) = 0.
    """

    senders: tuple[tuple[int, ...], ...]  # sorted sender tuple per agent
    values: tuple[np.ndarray, ...]  # values[i][mask]

    kind = "explicit_table"

    def __post_init__(self) -> None:
        for i, (send, vals) in enumerate(zip(self.senders, self.values)):
            k = len(send)
            if k > MAX_ENUMERABLE_SENDERS:
                raise ValueError(f"agent {i}: {k} senders exceeds enumeration cap")
            if tuple(sorted(send)) != send:
                raise ValueError(f"agent {i}: senders must be sorted")
            if np.ndim(vals) != 1:
                raise ValueError(f"agent {i}: table values must be a flat list of numbers")
            if len(vals) != 1 << k:
                raise ValueError(f"agent {i}: table must cover all {1 << k} subsets")
            if abs(vals[0]) > EQ_TOL:
                raise ValueError(f"agent {i}: u(empty set) must be 0")
            if not np.all((vals >= -EQ_TOL) & (vals <= 1.0 + EQ_TOL)):  # rejects NaN too
                raise ValueError(f"agent {i}: utilities must lie in [0, 1]")
            for b in range(k):
                # pairs[:, 1] are the masks with bit b set, pairs[:, 0] the same without it
                pairs = vals.reshape(-1, 2, 1 << b)
                if np.any(pairs[:, 1] < pairs[:, 0] - EQ_TOL):
                    raise ValueError(f"agent {i}: table is not monotone")

    def mask_of(self, i: int, subset: frozenset[int]) -> int:
        send = self.senders[i]
        mask = 0
        for j in subset:
            try:
                mask |= 1 << send.index(j)
            except ValueError:
                raise ValueError(f"sender {j} not permitted for agent {i}") from None
        return mask

    def value(self, i: int, subset: frozenset[int]) -> float:
        return float(self.values[i][self.mask_of(i, subset)])

    def prefix_values(self, i: int, orders: Sequence[int] | np.ndarray) -> np.ndarray:
        """Utilities of the prefixes of each order, shaped like `orders`: the
        running OR of the senders' bits along the last axis indexes values[i]."""
        send = np.array(self.senders[i], dtype=np.intp)
        orders = np.asarray(orders, dtype=np.intp)
        pos = np.searchsorted(send, orders)
        known = pos < len(send)
        known[known] = send[pos[known]] == orders[known]
        if not known.all():
            raise ValueError(f"sender {int(orders[~known][0])} not permitted for agent {i}")
        masks = np.bitwise_or.accumulate(np.left_shift(1, pos), axis=-1)
        return self.values[i][masks].astype(float, copy=False)

    def rescaled(self, divisor: float) -> ExplicitTable:
        return ExplicitTable(self.senders, tuple(v / divisor for v in self.values))


@dataclass(eq=False)
class SymmetricWeighted:
    """u_i(S) = f_i(sum of data sizes s_ij over j in S) with f_i concave."""

    sizes: dict[tuple[int, int], float]  # (receiver, sender) -> size >= 0
    f: tuple[ConcaveSpec, ...]  # one spec per agent

    kind = "symmetric_weighted"

    def __post_init__(self) -> None:
        for (i, j), s in self.sizes.items():
            if not 0.0 <= s < math.inf:  # also false for NaN
                raise ValueError(f"size s[{i},{j}] must be finite and non-negative; got {s}")

    def total_size(self, i: int, subset: frozenset[int]) -> float:
        # in sender order: a frozenset's iteration order depends on how it was built
        return sum(self.sizes.get((i, j), 0.0) for j in sorted(subset))

    def value(self, i: int, subset: frozenset[int]) -> float:
        return self.f[i](self.total_size(i, subset))

    def rescaled(self, divisor: float) -> SymmetricWeighted:
        return type(self)(dict(self.sizes), tuple(fi.rescaled(divisor) for fi in self.f))


@dataclass(eq=False)
class PathVariance:
    """Variance-reduction utilities for agents estimating path delays.

    Agent i holds z[i] samples for every edge of its path.  Receiving sets S
    adds donated samples per edge; utility is the drop in total sample
    variance.  Edges in one correlation class share a delay distribution, so a
    donor's samples on any class member count toward every class member.
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    paths: tuple[tuple[int, ...], ...]  # edge indices per agent
    sigma2: np.ndarray  # variance per edge
    z: np.ndarray  # initial sample count per agent
    classes: np.ndarray  # correlation class id per edge
    scale: float = 1.0  # output divisor set by normalization

    kind = "path_variance"

    def __post_init__(self) -> None:
        for name in ("sigma2", "z", "classes"):
            if np.ndim(getattr(self, name)) != 1:
                raise ValueError(f"{self.kind} {name} must be a flat list of numbers")
        if not np.all((self.sigma2 >= 0) & (self.sigma2 <= 1 + EQ_TOL)):  # rejects NaN too
            raise ValueError("edge variances must lie in [0, 1]")
        if np.any(self.z < 1):
            raise ValueError("sample counts must be >= 1")
        if not 0.0 < self.scale < math.inf:  # a divisor; also false for NaN
            raise ValueError(f"{self.kind} scale must be finite and positive; got {self.scale}")
        for p in self.paths:
            for e in p:
                if not (0 <= e < len(self.edges)):
                    raise ValueError("path references unknown edge")
        if not np.all((self.classes >= 0) & (self.classes < len(self.edges))):
            raise ValueError(f"edge classes must lie in 0..{len(self.edges) - 1}")

    @cached_property
    def _class_counts(self) -> np.ndarray:
        # counts[j, c] = samples agent j holds on edges of class c
        n_agents = len(self.paths)
        n_classes = int(self.classes.max()) + 1 if len(self.classes) else 0
        counts = np.zeros((n_agents, n_classes))
        for j, path in enumerate(self.paths):
            for e in path:
                counts[j, int(self.classes[e])] += float(self.z[j])
        return counts

    @cached_property
    def _receivers(self) -> dict[int, tuple[np.ndarray, np.ndarray, float, np.float64]]:
        return {}

    def _receiver_arrays(self, i: int) -> tuple[np.ndarray, np.ndarray, float, np.float64]:
        # (sigma2 along path, donor matrix [agent, path-edge], z_i, baseline
        # variance sum(sigma2 / z_i)), memoized per receiver
        hit = self._receivers.get(i)
        if hit is None:
            path = np.asarray(self.paths[i], dtype=int)
            sig, z = self.sigma2[path], float(self.z[i])
            hit = self._receivers[i] = (sig, self._class_counts[:, self.classes[path]],
                                        z, np.sum(sig / z))
        return hit

    def baseline_variance(self, i: int) -> float:
        return float(self._receiver_arrays(i)[3])

    def value(self, i: int, subset: frozenset[int]) -> float:
        sig, donors, z, v0 = self._receiver_arrays(i)
        added = donors[sorted(subset)].sum(axis=0) if subset else 0.0
        return float(v0 - np.sum(sig / (z + added))) / self.scale

    def prefix_values(self, i: int, orders: Sequence[int] | np.ndarray) -> np.ndarray:
        """Utilities of the prefixes of each order, shaped like `orders`: one
        order, or an (m, |S|) array of m permutation passes in one cumsum."""
        sig, donors, z, v0 = self._receiver_arrays(i)
        tmp = np.cumsum(donors[np.asarray(orders, dtype=np.intp)], axis=-2)
        tmp += z
        np.divide(sig, tmp, out=tmp)
        vals = v0 - tmp.sum(axis=-1)
        vals /= self.scale
        return vals

    def rescaled(self, divisor: float) -> PathVariance:
        return PathVariance(
            self.n_nodes, self.edges, self.paths, self.sigma2, self.z, self.classes,
            scale=self.scale * divisor,
        )


@dataclass(eq=False)
class X3CCoverage:
    """Coverage utilities of the exact-3-cover hardness construction.

    Agents 0..m-1 are set agents p_i, m..2m-1 are dummy agents q_i, then w,
    z1, z2.  Universe elements 0..3k-1 are real, 3k..3k+m-1 are dummies; P_i
    additionally covers dummy i and Q_i = {dummy i}.  Utilities are stored raw
    (they exceed 1); `scale` records the normalization divisor.
    """

    m: int
    k: int
    sets: tuple[frozenset[int], ...]
    scale: float = 1.0

    kind = "x3c_coverage"

    def __post_init__(self) -> None:
        if len(self.sets) != self.m:
            raise ValueError("need exactly m sets")
        if not 0.0 < self.scale < math.inf:  # a divisor; also false for NaN
            raise ValueError(f"{self.kind} scale must be finite and positive; got {self.scale}")
        if self.k > 2 * self.m:  # z2's utility m - k/2 must not be negative
            raise ValueError(f"x3c_coverage needs k <= 2m; got m = {self.m}, k = {self.k}")
        for s in self.sets:
            if len(s) != 3 or not all(0 <= e < 3 * self.k for e in s):
                raise ValueError("each set must contain exactly 3 universe elements")

    @property
    def w(self) -> int:
        return 2 * self.m

    @property
    def z1(self) -> int:
        return 2 * self.m + 1

    @property
    def z2(self) -> int:
        return 2 * self.m + 2

    def allowed_pairs(self) -> frozenset[tuple[int, int]]:
        """The construction's (receiver, sender) pairs: w from each p_i and q_i,
        each p_i from z1, each q_i from z2, and z1, z2 from w."""
        pairs = {(self.z1, self.w), (self.z2, self.w)}
        for i in range(self.m):
            pairs |= {(self.w, i), (self.w, self.m + i), (i, self.z1), (self.m + i, self.z2)}
        return frozenset(pairs)

    def elements_of(self, agent: int) -> frozenset[int]:
        if agent < self.m:  # p_i covers its triple plus dummy i
            return self.sets[agent] | {3 * self.k + agent}
        if agent < 2 * self.m:  # q_i covers dummy i only
            return frozenset({3 * self.k + (agent - self.m)})
        raise ValueError(f"agent {agent} is not a set agent")

    def value(self, i: int, subset: frozenset[int]) -> float:
        if not subset:
            return 0.0
        if i == self.w:
            covered: set[int] = set()
            for a in subset:
                covered |= self.elements_of(a)
            return len(covered) / self.scale
        if i < self.m:  # p_i receives only from z1
            return (4.0 if self.z1 in subset else 0.0) / self.scale
        if i < 2 * self.m:  # q_i receives only from z2
            return (1.0 if self.z2 in subset else 0.0) / self.scale
        if i == self.z1:
            return (3.5 * self.k if self.w in subset else 0.0) / self.scale
        if i == self.z2:
            return (self.m - self.k / 2.0 if self.w in subset else 0.0) / self.scale
        raise ValueError(f"unknown agent {i}")

    def coverage_shares(self, subset: frozenset[int]) -> tuple[float, dict[int, float]]:
        """u_w(subset) and its Shapley shares: 1/c_e per covering set, per element."""
        cover_count: dict[int, int] = {}
        for a in subset:
            for e in self.elements_of(a):
                cover_count[e] = cover_count.get(e, 0) + 1
        shares = {}
        for a in subset:
            shares[a] = sum(1.0 / cover_count[e] for e in self.elements_of(a)) / self.scale
        return len(cover_count) / self.scale, shares

    def rescaled(self, divisor: float) -> X3CCoverage:
        return X3CCoverage(self.m, self.k, self.sets, scale=self.scale * divisor)


class ContinuousConcave(SymmetricWeighted):
    """Symmetric weighted utilities with fractional transfers: u_i(y) = f_i(sum_j s_ij y_ij)."""

    kind = "continuous_concave"

    def value_fractional(self, i: int, y: Mapping[int, float]) -> float:
        return self.f[i](sum(self.sizes.get((i, j), 0.0) * yj for j, yj in y.items()))


UtilityModel = ExplicitTable | SymmetricWeighted | PathVariance | X3CCoverage


# ---------------------------------------------------------------------------
# Sharing rule specification (implementations live in datex.sharing)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharingRuleSpec:
    """How utility u_i(S) is split among the senders in S."""

    kind: str  # shapley_exact | shapley_sampled | proportional
    m: int = 10  # permutations for the sampled variant
    seed: int = 0
    weights: str | tuple[tuple[int, int, float], ...] | None = None  # proportional only

    def __post_init__(self) -> None:
        if self.kind not in ("shapley_exact", "shapley_sampled", "proportional"):
            raise ValueError(f"unknown sharing rule {self.kind!r}")
        if self.kind == "shapley_sampled" and not 1 <= self.m <= SAMPLED_SHAPLEY_MAX_M:
            raise ValueError(f"permutation count m must lie in 1..{SAMPLED_SHAPLEY_MAX_M}; "
                             f"got {self.m}")
        if self.seed < 0:
            raise ValueError(f"sharing seed must be >= 0, got {self.seed}")
        if self.kind == "proportional":
            if isinstance(self.weights, str):
                if self.weights not in ("singleton", "size"):
                    raise ValueError("weights rule must be 'singleton' or 'size'")
            elif self.weights is not None:
                for _, _, wv in self.weights:
                    if not (math.isfinite(wv) and wv >= 0):
                        raise ValueError(
                            f"proportional weights must be finite and non-negative, got {wv}")


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Instance:
    """An exchange market: agents, permitted transfers, utilities, sharing rule.

    Instances are immutable after construction; all evaluation is pure.
    """

    n: int
    allowed: frozenset[tuple[int, int]]  # (receiver, sender) pairs
    utility: UtilityModel
    sharing: SharingRuleSpec
    epsilon: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one agent")
        if not EPSILON_MIN <= self.epsilon < 1:  # also false for NaN
            raise ValueError(f"epsilon must lie in (0, 1) and be at least {EPSILON_MIN:g}; "
                             f"got {self.epsilon}")
        for i, j in self.allowed:
            if i == j:
                raise ValueError(f"self-pair ({i},{i}) is not permitted")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"pair ({i},{j}) references unknown agent")
        self._check_model_references()

    def _check_model_references(self) -> None:
        if self.sharing.kind == "proportional" and self.sharing.weights == "size" and \
                not isinstance(self.utility, SymmetricWeighted):
            raise ValueError(f"weights rule 'size' needs a size-based utility model; "
                             f"got {self.utility.kind}")
        if isinstance(self.sharing.weights, tuple):
            for i, j, _ in self.sharing.weights:
                if (i, j) not in self.allowed:
                    raise ValueError(f"sharing weights reference non-permitted pair ({i},{j})")
        u = self.utility
        if isinstance(u, SymmetricWeighted):
            if len(u.f) != self.n:
                raise ValueError(f"{u.kind} needs one f entry per agent ({self.n}); got {len(u.f)}")
            for (i, j), s in u.sizes.items():
                if s > 0 and (i, j) not in self.allowed:
                    raise ValueError(f"utility references non-permitted pair ({i},{j})")
        elif isinstance(u, ExplicitTable):
            if len(u.senders) != self.n:
                raise ValueError("table must cover every agent")
            for i, senders in enumerate(u.senders):
                for j in senders:
                    if (i, j) not in self.allowed:
                        raise ValueError(f"utility references non-permitted pair ({i},{j})")
                missing = sorted(set(self.senders_of[i]) - set(senders))
                if missing:
                    raise ValueError(f"agent {i}'s table does not cover its permitted "
                                     f"senders {missing}")
        elif isinstance(u, PathVariance):
            if len(u.paths) != self.n or len(u.z) != self.n:
                raise ValueError(f"path_variance needs one path and one sample count per agent "
                                 f"({self.n}); got {len(u.paths)} paths, {len(u.z)} counts")
            if len(u.sigma2) != len(u.edges) or len(u.classes) != len(u.edges):
                raise ValueError(f"path_variance needs one variance and one class per edge "
                                 f"({len(u.edges)}); got {len(u.sigma2)} variances, "
                                 f"{len(u.classes)} classes")
        elif isinstance(u, X3CCoverage):
            if self.n != 2 * u.m + 3:
                raise ValueError(f"x3c_coverage with m = {u.m} sets needs n = {2 * u.m + 3} "
                                 f"agents; got {self.n}")
            pairs = u.allowed_pairs()
            if self.allowed != pairs:
                extra, missing = sorted(self.allowed - pairs), sorted(pairs - self.allowed)
                raise ValueError(f"x3c_coverage allows exactly the pairs of the construction; "
                                 f"extra {extra}, missing {missing}")

    @cached_property
    def senders_of(self) -> tuple[tuple[int, ...], ...]:
        by_receiver: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.allowed:
            by_receiver[i].append(j)
        return tuple(tuple(sorted(js)) for js in by_receiver)

    @cached_property
    def receivers_of(self) -> tuple[tuple[int, ...], ...]:
        by_sender: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.allowed:
            by_sender[j].append(i)
        return tuple(tuple(sorted(it)) for it in by_sender)

    @cached_property
    def sender_mask(self) -> np.ndarray:
        """Read-only n x n table: True where i may receive from j."""
        mask = np.zeros((self.n, self.n), dtype=bool)
        for i, j in self.allowed:
            mask[i, j] = True
        mask.flags.writeable = False
        return mask

    def full_set(self, i: int) -> frozenset[int]:
        return frozenset(self.senders_of[i])

    @cached_property
    def singleton_utility(self) -> np.ndarray:
        """Read-only n x n table of u_i({j}) on the allowed pairs, 0 elsewhere.

        These values never depend on prices, so the bucketing oracle, the
        pairwise stability algorithms and proportional-singleton sharing read
        them here instead of re-evaluating the utility model.
        """
        table = np.zeros((self.n, self.n))
        model = self.utility
        if isinstance(model, ExplicitTable):  # u_i({j}) is the entry at sender j's bit
            for i, senders in enumerate(self.senders_of):  # == model.senders[i], checked at load
                vals = model.values[i]
                for b, j in enumerate(senders):
                    table[i, j] = vals[1 << b]
        elif isinstance(model, PathVariance):  # one prefix pass per receiver
            for i, senders in enumerate(self.senders_of):
                js = np.array(senders, dtype=np.intp)
                table[i, js] = model.prefix_values(i, js[:, None])[:, 0]
        else:
            for i, j in self.allowed:
                table[i, j] = model.value(i, frozenset({j}))
        table.flags.writeable = False
        return table

    @cached_property
    def share_memo(self) -> dict[tuple[int, frozenset[int]], tuple[float, dict[int, float]]]:
        """(u_i(S), shares) per (agent i, subset S), as datex.sharing's rule returned it."""
        return {}

    @cached_property
    def oracle_memo(self) -> dict[tuple, object]:
        """The price-free part of the oracles' work, as datex.oracles laid it out."""
        return {}


def require_permitted(instance: Instance, i: int, subset: frozenset[int]) -> None:
    """Raise ValueError unless every sender in subset may send to i."""
    extra = subset - set(instance.senders_of[i])
    if extra:
        raise ValueError(f"senders {sorted(extra)} are not permitted for agent {i}")


def utility(instance: Instance, i: int, subset: frozenset[int]) -> float:
    """u_i(S) for a permitted subset S of senders."""
    if not subset:
        return 0.0
    require_permitted(instance, i, subset)
    return instance.utility.value(i, subset)


def normalize_instance(instance: Instance) -> tuple[Instance, float]:
    """Scale utilities so max_i u_i(full sender set) = 1; returns (instance, scale)."""
    peak = max(utility(instance, i, instance.full_set(i)) for i in range(instance.n))
    if peak <= 0.0:
        raise DegenerateInstanceError("degenerate instance: all utilities are zero")
    if abs(peak - 1.0) <= EQ_TOL:
        return instance, 1.0
    return replace(instance, utility=instance.utility.rescaled(peak)), peak


# ---------------------------------------------------------------------------
# Solutions and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FracColumn:
    """A fractional transfer vector y (continuous model columns)."""

    y: tuple[tuple[int, float], ...]  # (sender, fraction in (0, 1]), sorted by sender

    def __post_init__(self) -> None:
        senders = [j for j, _ in self.y]
        if senders != sorted(senders):
            raise ValueError("fractional column must be sorted by sender")
        for _, frac in self.y:
            if not (0.0 < frac <= 1.0 + EQ_TOL):
                raise ValueError("fractions must lie in (0, 1]")

    def senders(self) -> frozenset[int]:
        return frozenset(j for j, _ in self.y)


def column_senders(col: frozenset[int] | FracColumn) -> frozenset[int]:
    return col.senders() if isinstance(col, FracColumn) else col


def column_sort_key(col: frozenset[int] | FracColumn):
    if isinstance(col, FracColumn):
        return (1, col.y)
    return (0, tuple(sorted(col)))


@dataclass(eq=False)
class ExchangeSolution:
    """Per-agent finite distributions over sender subsets (missing mass = empty set).

    Columns are sender subsets; instances with the continuous model may carry
    fractional-transfer columns instead.
    """

    n: int
    columns: dict[int, dict[frozenset[int] | FracColumn, float]]
    deltas: np.ndarray | None = None  # allowed excess of sent over received; None is zeros
    gammas: np.ndarray | None = None  # allowed excess of received over sent; None is zeros

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"agent count must be >= 0, got {self.n}")
        self.deltas = np.zeros(self.n) if self.deltas is None else np.asarray(self.deltas, float)
        self.gammas = np.zeros(self.n) if self.gammas is None else np.asarray(self.gammas, float)
        for i, dist in self.columns.items():
            if not (0 <= i < self.n):
                raise ValueError(f"column for unknown agent {i}")
            mass = 0.0
            for col, x in dist.items():
                if not -EQ_TOL <= x <= 1.0 + EQ_TOL:  # also true for NaN
                    raise ValueError(f"weight x[{i}] outside [0, 1]: {x!r}")
                if i in column_senders(col):
                    raise ValueError(f"agent {i} cannot receive from itself")
                mass += x
            if mass > 1.0 + 1e-9:
                raise ValueError(f"agent {i} subset weights sum to {mass} > 1")
        for vec in (self.deltas, self.gammas):
            if vec.shape != (self.n,) or not np.all(np.isfinite(vec) & (vec >= -EQ_TOL)):
                raise ValueError("imbalance slacks must be finite and non-negative, one per agent")

    @staticmethod
    def empty(n: int) -> ExchangeSolution:
        return ExchangeSolution(n=n, columns={})

    def iter_columns(self) -> Iterator[tuple[int, frozenset[int] | FracColumn, float]]:
        for i in sorted(self.columns):
            for col in sorted(self.columns[i], key=column_sort_key):
                yield i, col, self.columns[i][col]

    def column_count(self) -> int:
        return sum(len(d) for d in self.columns.values())

    def balance_bounds(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of the eps-balance rows lo <= residual <= hi: sent may exceed
        received by eps + delta_i, received may exceed sent by eps + gamma_i."""
        return -eps - self.deltas, eps + self.gammas

    def is_balanced(self, residual: np.ndarray, eps: float) -> bool:
        lo, hi = self.balance_bounds(eps)
        return bool(np.all(residual >= lo - EQ_TOL) and np.all(residual <= hi + EQ_TOL))


def scale_solution(solution: ExchangeSolution, factor: float) -> ExchangeSolution:
    """Multiply every subset weight by factor in [0, 1]."""
    if not (0.0 <= factor <= 1.0):
        raise ValueError("factor must lie in [0, 1]")
    cols = {
        i: {s: x * factor for s, x in dist.items() if x * factor > 0.0}
        for i, dist in solution.columns.items()
    }
    cols = {i: d for i, d in cols.items() if d}
    return ExchangeSolution(n=solution.n, columns=cols, deltas=solution.deltas * factor,
                            gammas=solution.gammas * factor)


@dataclass
class SolveReport:
    """Welfare, per-agent utilities and balance residuals for a solution."""

    welfare: float
    per_agent_utility: np.ndarray
    balance_residual: np.ndarray  # received minus sent, per agent
    feasible: bool
    iterations: int = 0  # MWU iterations over every probe, when a solver ran
    best_B: float = 0.0  # the welfare target of the returned run
    guarantee: float = 0.0  # certified welfare lower bound, when a solver ran
    caveats: list[str] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)  # MWU rows of every probe, in probe order


def evaluate(instance: Instance, solution: ExchangeSolution) -> SolveReport:
    """Evaluate welfare and the per-agent balance residuals of a solution.

    residual_i = (expected utility received by i) - (expected utility i sends).
    Feasible means |residual_i| <= epsilon, widened by the solution's
    delta/gamma slacks (zero without an imbalance budget).
    """
    from .sharing import column_flows  # deferred: sharing depends on the model types

    live = [(i, col, x) for i, col, x in solution.iter_columns() if x != 0.0]
    received, sent = column_flows(instance, [(i, col) for i, col, _ in live],
                                  [x for _, _, x in live])
    residual = received - sent
    return SolveReport(
        welfare=float(received.sum()),
        per_agent_utility=received,
        balance_residual=residual,
        feasible=solution.is_balanced(residual, instance.epsilon),
    )

"""JSON schemas for instances and solutions (strict: unknown fields rejected)."""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .model import (
    ConcaveSpec,
    ContinuousConcave,
    ExchangeSolution,
    ExplicitTable,
    FracColumn,
    Instance,
    PathVariance,
    SharingRuleSpec,
    SolveReport,
    SymmetricWeighted,
    X3CCoverage,
)


class SchemaError(ValueError):
    """Malformed instance or solution JSON."""


def _require_fields(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    missing = required - obj.keys()
    unknown = obj.keys() - required - optional
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")


# ---------------------------------------------------------------------------
# Concave specs
# ---------------------------------------------------------------------------


def concave_to_json(f: ConcaveSpec) -> dict:
    out: dict[str, Any] = {"kind": f.kind, "scale": f.scale}
    if f.kind == "power":
        out["c"] = f.c
    elif f.kind == "capped_linear":
        out["cap"] = f.cap
    elif f.kind == "variance_reduction":
        out["sigma2"] = f.sigma2
    elif f.kind == "piecewise_linear":
        out["points"] = [list(p) for p in f.points]
    return out


def concave_from_json(obj: dict) -> ConcaveSpec:
    _require_fields(obj, {"kind"}, {"c", "cap", "sigma2", "points", "scale"}, "concave spec")
    return ConcaveSpec(
        kind=obj["kind"],
        c=obj.get("c", 1.0),
        cap=obj.get("cap", 1.0),
        sigma2=obj.get("sigma2", 1.0),
        points=tuple(tuple(p) for p in obj.get("points", [])),
        scale=obj.get("scale", 1.0),
    )


# ---------------------------------------------------------------------------
# Utility models
# ---------------------------------------------------------------------------


def _utility_to_json(model) -> dict:
    if isinstance(model, ExplicitTable):
        return {
            "kind": model.kind,
            "tables": [
                {"agent": i, "senders": list(send), "values": [float(v) for v in vals]}
                for i, (send, vals) in enumerate(zip(model.senders, model.values))
            ],
        }
    if isinstance(model, (SymmetricWeighted, ContinuousConcave)):
        return {
            "kind": model.kind,
            "sizes": [[i, j, s] for (i, j), s in sorted(model.sizes.items())],
            "f": [concave_to_json(fi) for fi in model.f],
        }
    if isinstance(model, PathVariance):
        return {
            "kind": model.kind,
            "n_nodes": model.n_nodes,
            "edges": [list(e) for e in model.edges],
            "paths": [list(p) for p in model.paths],
            "sigma2": [float(v) for v in model.sigma2],
            "z": [int(v) for v in model.z],
            "classes": [int(v) for v in model.classes],
            "scale": model.scale,
        }
    if isinstance(model, X3CCoverage):
        return {
            "kind": model.kind,
            "m": model.m,
            "k": model.k,
            "sets": [sorted(s) for s in model.sets],
            "scale": model.scale,
        }
    raise SchemaError(f"unknown utility model {model!r}")


def _utility_from_json(obj: dict):
    kind = obj.get("kind")
    if kind == "explicit_table":
        _require_fields(obj, {"kind", "tables"}, set(), "explicit_table")
        tables = sorted(obj["tables"], key=lambda t: t["agent"])
        for t in tables:
            _require_fields(t, {"agent", "senders", "values"}, set(), "table entry")
        return ExplicitTable(
            senders=tuple(tuple(t["senders"]) for t in tables),
            values=tuple(np.asarray(t["values"], dtype=float) for t in tables),
        )
    if kind in ("symmetric_weighted", "continuous_concave"):
        # "floor" is accepted in continuous_concave files written by older versions and ignored
        legacy = {"floor"} if kind == "continuous_concave" else set()
        _require_fields(obj, {"kind", "sizes", "f"}, legacy, kind)
        cls = SymmetricWeighted if kind == "symmetric_weighted" else ContinuousConcave
        return cls(
            sizes={(int(i), int(j)): float(s) for i, j, s in obj["sizes"]},
            f=tuple(concave_from_json(fo) for fo in obj["f"]),
        )
    if kind == "path_variance":
        _require_fields(
            obj, {"kind", "n_nodes", "edges", "paths", "sigma2", "z", "classes"},
            {"scale"}, "path_variance",
        )
        return PathVariance(
            n_nodes=int(obj["n_nodes"]),
            edges=tuple((int(a), int(b)) for a, b in obj["edges"]),
            paths=tuple(tuple(int(e) for e in p) for p in obj["paths"]),
            sigma2=np.asarray(obj["sigma2"], dtype=float),
            z=np.asarray(obj["z"], dtype=int),
            classes=np.asarray(obj["classes"], dtype=int),
            scale=float(obj.get("scale", 1.0)),
        )
    if kind == "x3c_coverage":
        _require_fields(obj, {"kind", "m", "k", "sets"}, {"scale"}, "x3c_coverage")
        return X3CCoverage(
            m=int(obj["m"]),
            k=int(obj["k"]),
            sets=tuple(frozenset(int(e) for e in s) for s in obj["sets"]),
            scale=float(obj.get("scale", 1.0)),
        )
    raise SchemaError(f"unknown utility kind {kind!r}")


def _sharing_to_json(rule: SharingRuleSpec) -> dict:
    out: dict[str, Any] = {"kind": rule.kind}
    if rule.kind == "shapley_sampled":
        out["m"] = rule.m
        out["seed"] = rule.seed
    if rule.kind == "proportional":
        if isinstance(rule.weights, tuple):
            out["weights"] = [[i, j, w] for i, j, w in rule.weights]
        else:
            out["weights"] = rule.weights
    return out


def _sharing_from_json(obj: dict) -> SharingRuleSpec:
    _require_fields(obj, {"kind"}, {"m", "seed", "weights"}, "sharing rule")
    weights = obj.get("weights")
    if isinstance(weights, list):
        weights = tuple((int(i), int(j), float(w)) for i, j, w in weights)
    return SharingRuleSpec(
        kind=obj["kind"], m=int(obj.get("m", 10)), seed=int(obj.get("seed", 0)),
        weights=weights,
    )


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def instance_to_json(instance: Instance) -> dict:
    return {
        "n": instance.n,
        "allowed": [list(p) for p in sorted(instance.allowed)],
        "epsilon": instance.epsilon,
        "seed": instance.seed,
        "utility": _utility_to_json(instance.utility),
        "sharing": _sharing_to_json(instance.sharing),
    }


def instance_from_json(obj: dict) -> Instance:
    if not isinstance(obj, dict):
        raise SchemaError("instance JSON must be an object")
    _require_fields(obj, {"n", "allowed", "epsilon", "seed", "utility", "sharing"}, set(), "instance")
    try:
        return Instance(
            n=int(obj["n"]),
            allowed=frozenset((int(i), int(j)) for i, j in obj["allowed"]),
            utility=_utility_from_json(obj["utility"]),
            sharing=_sharing_from_json(obj["sharing"]),
            epsilon=float(obj["epsilon"]),
            seed=int(obj["seed"]),
        )
    except (TypeError, KeyError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"malformed instance: {exc}") from exc


def dump_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json(instance), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------


def solution_to_json(solution: ExchangeSolution) -> dict:
    columns = []
    for i, col, x in solution.iter_columns():
        if isinstance(col, FracColumn):
            columns.append([i, {"y": [[j, frac] for j, frac in col.y]}, x])
        else:
            columns.append([i, sorted(col), x])
    return {
        "n": solution.n,
        "columns": columns,
        "deltas": None if solution.deltas is None else [float(v) for v in solution.deltas],
        "gammas": None if solution.gammas is None else [float(v) for v in solution.gammas],
    }


def solution_from_json(obj: dict) -> ExchangeSolution:
    if not isinstance(obj, dict):
        raise SchemaError("solution JSON must be an object")
    _require_fields(obj, {"n", "columns"}, {"deltas", "gammas"}, "solution")
    cols: dict[int, dict] = {}
    try:
        for i, col_spec, x in obj["columns"]:
            if isinstance(col_spec, dict):
                _require_fields(col_spec, {"y"}, set(), "fractional column")
                col = FracColumn(y=tuple((int(j), float(v)) for j, v in col_spec["y"]))
            else:
                col = frozenset(int(j) for j in col_spec)
            cols.setdefault(int(i), {})[col] = float(x)
        deltas = obj.get("deltas")
        gammas = obj.get("gammas")
        return ExchangeSolution(
            n=int(obj["n"]),
            columns=cols,
            deltas=None if deltas is None else np.asarray(deltas, dtype=float),
            gammas=None if gammas is None else np.asarray(gammas, dtype=float),
        )
    except (TypeError, KeyError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"malformed solution: {exc}") from exc


def dump_solution(solution: ExchangeSolution, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution_to_json(solution), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_solution(path: str) -> ExchangeSolution:
    with open(path, encoding="utf-8") as fh:
        return solution_from_json(json.load(fh))


def report_to_json(report: SolveReport) -> dict:
    return {
        "welfare": report.welfare,
        "per_agent_utility": [float(v) for v in report.per_agent_utility],
        "balance_residual": [float(v) for v in report.balance_residual],
        "iterations": report.iterations,
        "feasible": report.feasible,
        "best_B": report.best_B,
        "guarantee": report.guarantee,
        "caveats": list(report.caveats),
    }

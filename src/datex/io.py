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


def _require_fields(obj: Any, required: set[str], optional: set[str], where: str) -> None:
    _require_object(obj, where)
    missing = required - obj.keys()
    unknown = obj.keys() - required - optional
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")


def _require_object(obj: Any, where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object; got {type(obj).__name__}")


def _int(value: Any, what: str) -> int:
    """An integer field: an int, or a float with an integral value (not inf or
    NaN); bools, strings and non-integral numbers raise SchemaError."""
    if (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise SchemaError(f"{what} must be an integer; got {json.dumps(value)}")


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
    if isinstance(model, SymmetricWeighted):
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
    _require_object(obj, "utility")
    kind = obj.get("kind")
    if kind == "explicit_table":
        _require_fields(obj, {"kind", "tables"}, set(), "explicit_table")
        for t in obj["tables"]:
            _require_fields(t, {"agent", "senders", "values"}, set(), "table entry")
        tables = sorted(obj["tables"], key=lambda t: _int(t["agent"], "table agent"))
        return ExplicitTable(
            senders=tuple(tuple(_int(j, "table sender") for j in t["senders"]) for t in tables),
            values=tuple(np.asarray(t["values"], dtype=float) for t in tables),
        )
    if kind in ("symmetric_weighted", "continuous_concave"):
        # "floor" is accepted in continuous_concave files written by older versions and ignored
        legacy = {"floor"} if kind == "continuous_concave" else set()
        _require_fields(obj, {"kind", "sizes", "f"}, legacy, kind)
        cls = SymmetricWeighted if kind == "symmetric_weighted" else ContinuousConcave
        sizes: dict[tuple[int, int], float] = {}
        for i, j, s in obj["sizes"]:
            pair = (_int(i, "size receiver"), _int(j, "size sender"))
            if pair in sizes:  # a dict would keep only the last
                raise SchemaError(f"sizes list pair {list(pair)} twice")
            sizes[pair] = float(s)
        return cls(sizes=sizes, f=tuple(concave_from_json(fo) for fo in obj["f"]))
    if kind == "path_variance":
        _require_fields(
            obj, {"kind", "n_nodes", "edges", "paths", "sigma2", "z", "classes"},
            {"scale"}, "path_variance",
        )
        return PathVariance(
            n_nodes=_int(obj["n_nodes"], "n_nodes"),
            edges=tuple((_int(a, "edge node"), _int(b, "edge node")) for a, b in obj["edges"]),
            paths=tuple(tuple(_int(e, "path edge") for e in p) for p in obj["paths"]),
            sigma2=np.asarray(obj["sigma2"], dtype=float),
            z=np.array([_int(v, "sample count z") for v in obj["z"]], dtype=int),
            classes=np.array([_int(v, "edge class") for v in obj["classes"]], dtype=int),
            scale=float(obj.get("scale", 1.0)),
        )
    if kind == "x3c_coverage":
        _require_fields(obj, {"kind", "m", "k", "sets"}, {"scale"}, "x3c_coverage")
        return X3CCoverage(
            m=_int(obj["m"], "x3c m"),
            k=_int(obj["k"], "x3c k"),
            sets=tuple(frozenset(_int(e, "set element") for e in s) for s in obj["sets"]),
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
        triples: dict[tuple[int, int], float] = {}
        for i, j, w in weights:
            pair = (_int(i, "weight receiver"), _int(j, "weight sender"))
            if pair in triples:  # the sharing rule would keep only the first
                raise SchemaError(f"weights list pair {list(pair)} twice")
            triples[pair] = float(w)
        weights = tuple((i, j, w) for (i, j), w in triples.items())
    return SharingRuleSpec(
        kind=obj["kind"], m=_int(obj.get("m", 10), "sharing m"),
        seed=_int(obj.get("seed", 0), "sharing seed"),
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
            n=_int(obj["n"], "n"),
            allowed=frozenset((_int(i, "allowed receiver"), _int(j, "allowed sender"))
                              for i, j in obj["allowed"]),
            utility=_utility_from_json(obj["utility"]),
            sharing=_sharing_from_json(obj["sharing"]),
            epsilon=float(obj["epsilon"]),
            seed=_int(obj["seed"], "seed"),
        )
    except (TypeError, KeyError, ValueError, OverflowError) as exc:  # an int past an int64 array
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
        "deltas": _slack_to_json(solution.deltas),
        "gammas": _slack_to_json(solution.gammas),
    }


def _slack_to_json(slack: np.ndarray) -> list[float] | None:
    """null for an all-zero slack, so a balanced solution's file lists no zeros."""
    return [float(v) for v in slack] if slack.any() else None


def solution_from_json(obj: dict) -> ExchangeSolution:
    if not isinstance(obj, dict):
        raise SchemaError("solution JSON must be an object")
    _require_fields(obj, {"n", "columns"}, {"deltas", "gammas"}, "solution")
    cols: dict[int, dict] = {}
    try:
        for i, col_spec, x in obj["columns"]:
            if isinstance(col_spec, dict):
                _require_fields(col_spec, {"y"}, set(), "fractional column")
                col = FracColumn(y=tuple((_int(j, "column sender"), float(v))
                                         for j, v in col_spec["y"]))
            else:
                col = frozenset(_int(j, "column sender") for j in col_spec)
            agent = _int(i, "column agent")
            dist = cols.setdefault(agent, {})
            if col in dist:  # a dict would keep only the last
                raise SchemaError(f"columns list agent {agent}'s column {json.dumps(col_spec)} twice")
            dist[col] = float(x)
        return ExchangeSolution(n=_int(obj["n"], "n"), columns=cols,
                                deltas=obj.get("deltas"), gammas=obj.get("gammas"))
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

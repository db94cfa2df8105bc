"""Command-line driver: gen, solve, exact, oracle, stability, fuzz, audit, experiment."""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import io
from .exact import exact_core_audit, exact_welfare_lp
from .experiment import render_svg, rows_to_csv, run_experiment
from .instances import (
    CORRELATIONS,
    RoadSpec,
    gen_core_gap,
    gen_random,
    gen_road,
    gen_x3c,
    grid_graph,
    load_edge_csv,
    make_x3c_no,
    make_x3c_yes,
)
from .model import ExchangeSolution, SharingRuleSpec, evaluate, normalize_instance
from .mwu import MwuConfig, solve_welfare
from .oracles import ORACLES, get_oracle
from .stability import ALGORITHMS, check_2_stability, strategyproofness_fuzz

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_BAD_INPUT = 2
EXIT_SOLVER = 3


LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def _setup_logging() -> None:
    """Log at the EXCHANGE_LOG level, a name from LOG_LEVELS in any case (default error)."""
    level = os.environ.get("EXCHANGE_LOG") or "error"
    if level.lower() not in LOG_LEVELS:
        raise ValueError(f"EXCHANGE_LOG must be one of {', '.join(LOG_LEVELS)}; got {level!r}")
    logging.basicConfig(level=level.upper())


def _parse(parse, text: str, what: str):
    """parse(text), with any failure re-raised as a ValueError that names `what`."""
    try:
        return parse(text)
    except (OSError, ValueError) as exc:
        raise ValueError(f"bad {what}: {exc}") from exc


def _fail(message: str, code: int = EXIT_BAD_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split()) or type(exc).__name__


def _edges_from_args(args) -> tuple[tuple[int, int], ...]:
    if args.graph:
        return load_edge_csv(args.graph)
    width, _, height = args.grid.lower().partition("x")
    if not (width.isdecimal() and height.isdecimal()):
        raise ValueError(f"--grid must be WxH, got {args.grid!r}")
    return grid_graph(int(width), int(height), seed=args.seed)


def cmd_gen(args) -> int:
    if args.kind == "x3c":
        make = make_x3c_yes if args.yes else make_x3c_no
        instance = gen_x3c(make(args.m, args.k, args.seed))
    elif args.kind == "core-gap":
        instance = gen_core_gap(args.n)
    elif args.kind == "random":
        instance = gen_random(args.n, args.senders, args.model, args.seed, args.epsilon)
    else:  # road
        instance = gen_road(RoadSpec(
            edges=_edges_from_args(args), radius=args.radius, n_agents=args.agents,
            correlation=args.correlation, rho=args.rho, seed=args.seed,
        ))
    io.dump_instance(instance, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


SHARING_CHOICES = ("shapley_exact", "shapley_sampled", "proportional_singleton", "proportional_size")


def _sharing_override(name: str, m: int, seed: int) -> SharingRuleSpec:
    if name.startswith("proportional"):
        return SharingRuleSpec(
            kind="proportional",
            weights="size" if name.endswith("size") else "singleton",
        )
    return SharingRuleSpec(kind=name, m=m, seed=seed)


def cmd_solve(args) -> int:
    instance = _parse(io.load_instance, args.instance, "instance file")
    if args.epsilon is not None:
        instance = replace(instance, epsilon=args.epsilon)
    if args.sharing is not None:
        instance = replace(instance, sharing=_sharing_override(
            args.sharing, args.sharing_m, args.seed))
    instance, scale = normalize_instance(instance)
    oracle = get_oracle(args.oracle, eps=args.oracle_eps)
    config = MwuConfig(delta=args.delta, max_iters=args.max_iters, eta_override=args.eta)
    solution, report = solve_welfare(instance, config, oracle)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for row in report.trace:
                fh.write(json.dumps(row) + "\n")
    io.dump_solution(solution, args.out)
    payload = io.report_to_json(report)
    payload["scale"] = scale
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"welfare {report.welfare:.9g} (normalized units; scale {scale:.9g})")
    if not report.feasible:
        return _fail("solver produced no feasible solution", EXIT_SOLVER)
    return EXIT_OK


def cmd_exact(args) -> int:
    instance = _parse(io.load_instance, args.instance, "instance file")
    solution, welfare = exact_welfare_lp(instance, relax_eps=args.relax_eps)
    io.dump_solution(solution, args.out)
    print(f"welfare {welfare:.9g}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    instance = _parse(io.load_instance, args.instance, "instance file")
    if not 0 <= args.agent < instance.n:
        raise ValueError(
            f"--agent {args.agent} is not an agent of this instance (0..{instance.n - 1})")
    q_obj = json.loads(args.q, parse_int=float)
    if not isinstance(q_obj, dict):
        raise ValueError(f"--q must be a JSON object of sender prices, got {args.q!r}")
    senders = {str(j): j for j in instance.senders_of[args.agent]}
    q = np.zeros(instance.n)  # unlisted senders get 0
    for key, v in q_obj.items():
        if key not in senders:
            raise ValueError(f"--q key {key!r} is not a sender of agent {args.agent}")
        if type(v) is not float or not math.isfinite(v):
            raise ValueError(f"--q price of sender {key} must be a finite JSON number, got {v!r}")
        q[senders[key]] = v
    oracle = get_oracle(args.oracle, eps=args.oracle_eps)
    result = oracle(instance, args.agent, q)
    print(json.dumps({
        "chosen": sorted(result.chosen),
        "value": result.value,
        "y": None if result.y is None else {str(j): v for j, v in sorted(result.y.items())},
        "guesses": result.guesses,
    }, sort_keys=True))
    return EXIT_OK


def cmd_stability(args) -> int:
    instance = _parse(io.load_instance, args.instance, "instance file")
    cols, cycles = ALGORITHMS[args.algorithm](instance.singleton_utility)
    solution = ExchangeSolution(n=instance.n, columns=cols)
    blocking = check_2_stability(instance, solution)
    report = evaluate(instance, solution)
    io.dump_solution(solution, args.out)
    print(json.dumps({
        "welfare": report.welfare,
        "blocking_pairs": [list(p) for p in blocking],
        "cycles": cycles,
    }, sort_keys=True))
    return EXIT_OK


def _violation_json(v: dict) -> dict:
    """One strategyproofness_fuzz violation, as fuzz prints it and audit lists it."""
    mis = v["misreport"]
    return {
        "agent": v["agent"],
        "misreport": {"kind": mis.kind, "factor": mis.factor, "hide_from": list(mis.hide_from)},
        "U_before": v["U_before"],
        "U_after": v["U_after"],
    }


def cmd_fuzz(args) -> int:
    instance = _parse(io.load_instance, args.instance, "instance file")
    violations = strategyproofness_fuzz(instance, args.algorithm, args.trials, args.seed)
    for v in violations:
        print(json.dumps(_violation_json(v), sort_keys=True))
    print(f"{len(violations)} violations in {args.trials} trials")
    return EXIT_INVARIANT if violations else EXIT_OK


def cmd_audit(args) -> int:
    if args.coalitions < 0:
        raise ValueError(f"--coalitions must be >= 0, got {args.coalitions}")
    if args.coalitions == 1:
        raise ValueError("--coalitions 1 audits nothing: a coalition has at least two members")
    instance = _parse(io.load_instance, args.instance, "instance file")
    solution = _parse(io.load_solution, args.solution, "solution file")
    if solution.n != instance.n:
        raise ValueError("solution agent count does not match the instance")
    # audits run in the solver's normalized units, so epsilon means the same thing
    instance, _scale = normalize_instance(instance)
    report = evaluate(instance, solution)
    blocking_pairs = check_2_stability(instance, solution)
    core = None  # stays None unless the core audit runs to the end
    if args.coalitions > 0:
        try:
            core = exact_core_audit(instance, solution, max_coalition=args.coalitions)
        except ValueError as exc:
            logger.warning("core audit skipped: %s", exc)
    fuzz = []
    if args.fuzz_trials != 0:  # negative counts fail in the fuzzer
        fuzz = strategyproofness_fuzz(instance, args.fuzz_algorithm, args.fuzz_trials, args.seed)
    print(json.dumps({
        "welfare": report.welfare,
        "residuals": [float(v) for v in report.balance_residual],
        "feasible": report.feasible,
        "blocking_pairs": [list(p) for p in blocking_pairs],
        "core_audit": "skipped" if core is None else "partial" if core.failed else "complete",
        "core_audit_counts": None if core is None else {
            key: getattr(core, key) for key in ("coalitions", "ruled_out", "lps", "failed")},
        "core_audit_max_coalition": None if core is None else core.max_coalition,
        "blocking_coalitions": [] if core is None else [[list(c), t] for c, t in core.blocking],
        "fuzz_violations": [_violation_json(v) for v in fuzz],
    }, sort_keys=True))
    if not report.feasible or fuzz:
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_experiment(args) -> int:
    edges = _edges_from_args(args)
    rhos = _parse(lambda text: tuple(float(v) for v in text.split(",")), args.rho, "--rho")
    modes = tuple(args.modes.split(","))
    rows = run_experiment(
        edges, args.replicates, modes=modes, rhos=rhos, seed=args.seed,
        n_agents=args.agents, radius=args.radius, max_iters=args.max_iters,
    )
    csv_text = rows_to_csv(rows)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(rows))
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="datex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--kind", choices=["x3c", "core-gap", "random", "road"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--yes", action="store_true", help="x3c: generate a yes-instance")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--senders", type=int, default=3)
    p.add_argument("--model", choices=["symmetric", "table"], default="symmetric")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--graph", help="edge-list CSV (node_a,node_b)")
    p.add_argument("--grid", default="12x12", help="synthetic WxH lattice fallback")
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--agents", type=int, default=20)
    p.add_argument("--correlation", choices=list(CORRELATIONS), default="none")
    p.add_argument("--rho", type=float, default=0.0)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("solve", help="run the MWU welfare solver")
    p.add_argument("instance")
    p.add_argument("--oracle", choices=list(ORACLES), default="bucketing")
    p.add_argument("--oracle-eps", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=None, help="override balance slack")
    p.add_argument("--sharing", choices=SHARING_CHOICES, default=None,
                   help="override the instance's sharing rule")
    p.add_argument("--sharing-m", type=int, default=10)
    p.add_argument("--delta", type=float, default=1.0 / 3.0)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="JSON-lines telemetry file")
    p.add_argument("--out", default="solution.json")
    p.add_argument("--report", default="report.json")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("exact", help="exact welfare LP on a small instance")
    p.add_argument("instance")
    p.add_argument("--relax-eps", type=float, default=0.0)
    p.add_argument("--out", default="solution.json")
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("oracle", help="run one dual oracle call")
    p.add_argument("instance")
    p.add_argument("--agent", type=int, required=True)
    p.add_argument("--q", required=True,
                   help='agent\'s price row as a JSON object sender -> price, e.g. \'{"1": 0.5}\'; '
                        'keys must be senders of --agent and prices finite numbers; '
                        'unlisted senders get 0')
    p.add_argument("--oracle", choices=list(ORACLES), default="bruteforce")
    p.add_argument("--oracle-eps", type=float, default=0.1)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser(
        "stability", help="greedy matching / cycle canceling + 2-stability check",
        description="Run greedy matching or cycle canceling and check 2-stability. The printed "
                    "welfare is in the instance's raw utility units; `datex audit` normalizes "
                    "the instance (max utility 1) first, so its welfare differs by that scale.",
    )
    p.add_argument("instance")
    p.add_argument("--algorithm", choices=list(ALGORITHMS), default="greedy_match")
    p.add_argument("--out", default="solution.json")
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("fuzz", help="strategyproofness fuzzer")
    p.add_argument("instance")
    p.add_argument("--algorithm", choices=list(ALGORITHMS), default="cycle_cancel")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("audit", help="evaluate a solution file against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--coalitions", type=int, default=0, help="max coalition size to audit")
    p.add_argument("--fuzz-trials", type=int, default=0, help="misreport fuzz trials (0 = skip)")
    p.add_argument("--fuzz-algorithm", choices=list(ALGORITHMS), default="cycle_cancel")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("experiment", help="road-network replicates: baseline/matching/MWU")
    p.add_argument("--graph", help="edge-list CSV")
    p.add_argument("--grid", default="12x12")
    p.add_argument("--replicates", type=int, default=5)
    p.add_argument("--modes", default="random,local")
    p.add_argument("--rho", default="0,0.25,0.5")
    p.add_argument("--agents", type=int, default=20)
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--max-iters", type=int, default=240)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="experiment.csv")
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # every subcommand with a --seed
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except SystemExit as exc:  # argparse: a bad option or --help
        code = exc.code
        return code if isinstance(code, int) else EXIT_BAD_INPUT
    except AssertionError as exc:  # regret bound, width, 2n+1 columns
        logger.debug("invariant violated", exc_info=True)
        return _fail(f"invariant violated: {_one_line(exc)}", EXIT_INVARIANT)
    except (ValueError, OSError) as exc:  # bad option or model, unreadable or unwritable file
        logger.debug("bad input", exc_info=True)
        return _fail(_one_line(exc))
    except Exception as exc:
        logger.debug("solver failure", exc_info=True)
        return _fail(f"solver failure: {type(exc).__name__}: {_one_line(exc)}", EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())

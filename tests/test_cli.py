from __future__ import annotations

import argparse
import copy
import functools
import io
import itertools
import json
import math
import operator
import os
import re
import signal
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datex import (ConcaveSpec, Instance, MwuConfig, SharingRuleSpec, SymmetricWeighted,
                   get_oracle, normalize_instance)
from datex import mwu
from datex import cli
from datex import stability
from datex import lp
from datex.cli import main
from datex import io as dio
from datex.mwu import RegretBoundError, practical_eta, run_mwu


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_the_cli_does_not_import_networkx():
    """networkx serves only experiment.matching_benchmark, which imports it
    itself, so no CLI command pays for importing it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    subprocess.run([sys.executable, "-c", "import sys, datex.cli; assert 'networkx' not in sys.modules"],
                   check=True, env=os.environ | {"PYTHONPATH": src})


def _run_cli_and_list_scipy(tmp_path, commands):
    """Run the CLI commands in one fresh interpreter; return, after import and
    after each command, its exit code, whether the LP modules of scipy are loaded
    and whether datex.lp is."""
    script = """
import contextlib, io, json, sys
def loaded(code):
    return [code, [m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules],
            "datex.lp" in sys.modules]
import datex
states = [loaded(0)]
from datex import cli
states.append(loaded(0))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        states.append(loaded(cli.main(argv)))
print(json.dumps(states))
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], check=True,
                         cwd=tmp_path, capture_output=True, text=True,
                         env=os.environ | {"PYTHONPATH": src}).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_only_the_lp_commands_import_scipy(tmp_path):
    """scipy serves only the LPs and datex.lp alone imports it, where an LP is
    built: import and the LP-free commands load no scipy.optimize or
    scipy.sparse, and exact and solve load datex.lp at their first LP."""
    lp_free = [["gen", "--kind", "road", "--out", "road.json"],
               ["gen", "--kind", "random", "--n", "4", "--seed", "1", "--out", "rand.json"],
               ["stability", "road.json", "--out", "road_match.json"],
               ["stability", "rand.json", "--algorithm", "cycle_cancel", "--out", "cycle.json"],
               ["fuzz", "rand.json", "--trials", "20"],
               ["oracle", "rand.json", "--agent", "0", "--q", '{"1": 0.5}'],
               ["audit", "rand.json", "cycle.json"]]
    states = _run_cli_and_list_scipy(tmp_path, lp_free)
    assert states == [[0, [], False]] * (2 + len(lp_free)), list(zip([["import"]] * 2 + lp_free,
                                                                      states))
    for argv in (["exact", "rand.json", "--out", "exact.json"],
                 ["solve", "rand.json", "--oracle", "knapsack", "--max-iters", "50",
                  "--out", "solve.json", "--report", "report.json"]):
        code, _, lp_loaded = _run_cli_and_list_scipy(tmp_path, [argv])[-1]
        assert code == 0 and lp_loaded, argv


def test_only_the_lp_module_imports_scipy_or_checks_an_lp_result():
    """datex.lp is the one place an LP is solved: no other module imports scipy
    or names linprog or coo_array, and an LP result's success is tested once."""
    src = os.path.dirname(lp.__file__)
    texts = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                texts[name] = fh.read()
    scipy_names = re.compile(r"^\s*(from|import)\s+scipy\b|\b(linprog|coo_array)\b", re.M)
    assert [name for name, text in texts.items() if scipy_names.search(text)] == ["lp.py"]
    assert {name: text.count("res.success") for name, text in texts.items()
            if "res.success" in text} == {"lp.py": 1}


def test_gen_and_solve_roundtrip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    rep = tmp_path / "rep.json"
    code, _, _ = run(["gen", "--kind", "random", "--n", "4", "--senders", "3",
                      "--seed", "3", "--out", str(inst)], capsys)
    assert code == 0
    code, out, _ = run(["solve", str(inst), "--oracle", "knapsack", "--max-iters", "250",
                        "--out", str(sol), "--report", str(rep)], capsys)
    assert code == 0 and "welfare" in out
    report = json.loads(rep.read_text())
    assert report["feasible"] is True
    solution = dio.load_solution(str(sol))
    assert solution.n == 4


def test_solve_oracle_model_mismatch_exits_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "3", "--senders", "2", "--model", "table",
         "--out", str(inst)], capsys)
    code, _, err = run(["solve", str(inst), "--oracle", "knapsack",
                        "--out", str(tmp_path / "s.json"), "--report", str(tmp_path / "r.json")],
                       capsys)
    assert code == 2 and "symmetric weighted" in err


def test_solve_trace_writes_jsonl(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    trace = tmp_path / "trace.jsonl"
    run(["gen", "--kind", "random", "--n", "3", "--senders", "2", "--out", str(inst)], capsys)
    code, _, _ = run(["solve", str(inst), "--oracle", "knapsack", "--max-iters", "80",
                      "--trace", str(trace), "--out", str(tmp_path / "s.json"),
                      "--report", str(tmp_path / "r.json")], capsys)
    assert code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines
    row = json.loads(lines[0])
    assert {"t", "B", "pb_threshold", "oracle_value", "max_residual"} <= row.keys()


def test_malformed_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "oops": true}')
    code, _, err = run(["solve", str(bad)], capsys)
    assert code == 2 and "bad instance" in err


def test_audit_greedy_matching_clean(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(["gen", "--kind", "random", "--n", "5", "--senders", "3", "--seed", "4",
         "--out", str(inst)], capsys)
    code, _, _ = run(["stability", str(inst), "--algorithm", "greedy_match",
                      "--out", str(sol)], capsys)
    assert code == 0
    code, out, _ = run(["audit", str(inst), str(sol), "--coalitions", "2"], capsys)
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["blocking_pairs"] == []


def test_audit_core_gap_long_cycle_reports_blocking_pair(tmp_path, capsys):
    from datex.instances import core_gap_long_cycle

    inst_path = tmp_path / "cg.json"
    sol_path = tmp_path / "lc.json"
    code, _, _ = run(["gen", "--kind", "core-gap", "--n", "6", "--out", str(inst_path)], capsys)
    assert code == 0
    inst = dio.load_instance(str(inst_path))
    dio.dump_solution(core_gap_long_cycle(inst), str(sol_path))
    code, out, _ = run(["audit", str(inst_path), str(sol_path), "--coalitions", "2"], capsys)
    payload = json.loads(out.strip().splitlines()[-1])
    assert [0, 5] in payload["blocking_pairs"]
    assert any(c == [0, 5] for c, _ in payload["blocking_coalitions"])


def test_audit_malformed_solution_exits_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "3", "--senders", "2", "--out", str(inst)], capsys)
    bad = tmp_path / "bad_sol.json"
    bad.write_text('{"n": 3, "columns": [], "bogus": 1}')
    code, _, err = run(["audit", str(inst), str(bad)], capsys)
    assert code == 2 and "bad solution" in err


def test_oracle_subcommand(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "3", "--senders", "2", "--model", "table",
         "--seed", "1", "--out", str(inst)], capsys)
    code, out, _ = run(["oracle", str(inst), "--agent", "0", "--q", '{"1": 1.0}',
                        "--oracle", "bruteforce"], capsys)
    assert code == 0
    payload = json.loads(out.strip())
    assert "value" in payload and "chosen" in payload


def test_fuzz_subcommand(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "4", "--senders", "2", "--seed", "2",
         "--out", str(inst)], capsys)
    code, out, _ = run(["fuzz", str(inst), "--algorithm", "cycle_cancel", "--trials", "15"],
                       capsys)
    assert code == 0 and "0 violations" in out


def test_experiment_deterministic_csv(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    svg = tmp_path / "plot.svg"
    args = ["experiment", "--grid", "8x8", "--replicates", "1", "--modes", "random",
            "--rho", "0", "--agents", "6", "--radius", "5", "--max-iters", "100",
            "--seed", "5"]
    code, _, _ = run(args + ["--out", str(out1), "--svg", str(svg)], capsys)
    assert code == 0
    code, _, _ = run(args + ["--out", str(out2)], capsys)
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text().splitlines()
    assert text[0].startswith("replicate,method,total_utility")
    assert len(text) == 4  # header + 3 methods
    assert svg.read_text().startswith("<svg")


def test_experiment_bad_graph_exits_2(tmp_path, capsys):
    code, _, _ = run(["experiment", "--graph", str(tmp_path / "missing.csv"),
                      "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2

def test_solve_sharing_override(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "3", "--senders", "2", "--model", "table",
         "--seed", "6", "--out", str(inst)], capsys)
    # the table instance defaults to exact Shapley; knapsack needs proportional w=s,
    # which tables cannot provide, but a sampled-Shapley override must work
    code, _, _ = run(["solve", str(inst), "--oracle", "bucketing", "--sharing",
                      "shapley_sampled", "--sharing-m", "5", "--max-iters", "120",
                      "--out", str(tmp_path / "s.json"), "--report", str(tmp_path / "r.json")],
                     capsys)
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["feasible"] is True


def test_audit_with_fuzz(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(["gen", "--kind", "random", "--n", "4", "--senders", "3", "--seed", "7",
         "--out", str(inst)], capsys)
    run(["stability", str(inst), "--algorithm", "cycle_cancel", "--out", str(sol)], capsys)
    code, out, _ = run(["audit", str(inst), str(sol), "--fuzz-trials", "10"], capsys)
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["fuzz_violations"] == []

def _ascending_matching(table):
    """Greedy matching that takes pairs by rising u-hat, ties by (i, j): a
    manipulable mutant of stability._matching_columns."""
    u_hat = np.minimum(table, table.T)
    first, second = np.nonzero(np.triu(u_hat > 0.0, 1))
    order = np.argsort(u_hat[first, second], kind="stable")
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


def _register_ascending_match(monkeypatch):
    monkeypatch.setitem(stability.ALGORITHMS, "ascending_match",
                        lambda table: (_ascending_matching(table), []))


@pytest.fixture
def manipulable(tmp_path, capsys, monkeypatch):
    """The seed-0, six-agent table instance, with the ascending-u-hat mutant
    registered as the pairwise algorithm "ascending_match"."""
    _register_ascending_match(monkeypatch)
    inst = tmp_path / "m.json"
    run(["gen", "--kind", "random", "--n", "6", "--model", "table", "--seed", "0",
         "--out", str(inst)], capsys)
    return inst


def _assert_violations(violations):
    assert len(violations) == 16
    for v in violations:
        assert v["U_after"] > v["U_before"]
        assert v["misreport"]["kind"] in ("scale", "hide")
        assert set(v["misreport"]) == {"kind", "factor", "hide_from"}


@pytest.mark.parametrize("via", ["registered", "patched"])
def test_fuzz_exits_1_and_prints_every_violation_with_its_misreport(manipulable, capsys,
                                                                    monkeypatch, via):
    """A manipulable algorithm fails the fuzz by exit code: registered in
    ALGORITHMS under its own name, or patched in as _matching_columns, which
    the greedy_match entry looks up when it runs."""
    algorithm = "ascending_match"
    if via == "patched":
        monkeypatch.setattr(stability, "_matching_columns", _ascending_matching)
        algorithm = "greedy_match"
    code, out, err = run(["fuzz", str(manipulable), "--algorithm", algorithm,
                          "--trials", "200"], capsys)
    lines = out.strip().splitlines()
    assert code == 1 and err == ""
    assert lines[-1] == "16 violations in 200 trials"
    _assert_violations([json.loads(line) for line in lines[:-1]])


def test_audit_lists_fuzz_violations_with_their_misreport_and_exits_1(manipulable, capsys,
                                                                       tmp_path):
    sol = tmp_path / "s.json"
    code, out, _ = run(["stability", str(manipulable), "--algorithm", "ascending_match",
                        "--out", str(sol)], capsys)
    assert code == 0 and json.loads(out)["cycles"] == []
    code, out, _ = run(["audit", str(manipulable), str(sol), "--fuzz-trials", "200",
                        "--fuzz-algorithm", "ascending_match"], capsys)
    assert code == 1
    _assert_violations(json.loads(out.strip().splitlines()[-1])["fuzz_violations"])


@pytest.mark.parametrize("algorithm", ["greedy_match", "cycle_cancel"])
def test_the_real_algorithms_pass_the_fuzz_the_mutant_fails(manipulable, capsys, algorithm):
    code, out, _ = run(["fuzz", str(manipulable), "--algorithm", algorithm, "--trials", "200"],
                       capsys)
    assert code == 0 and out == "0 violations in 200 trials\n"


def test_the_algorithm_flags_accept_exactly_the_algorithms_table(monkeypatch, capsys):
    code, out, err = run(["fuzz", "m.json", "--algorithm", "bogus"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith("argument --algorithm: invalid choice: 'bogus' "
                        "(choose from 'greedy_match', 'cycle_cancel')\n")

    def choices():
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return [sub.choices[command]._option_string_actions[flag].choices
                for command, flag in (("stability", "--algorithm"), ("fuzz", "--algorithm"),
                                      ("audit", "--fuzz-algorithm"))]

    assert choices() == [["greedy_match", "cycle_cancel"]] * 3
    _register_ascending_match(monkeypatch)
    assert choices() == [list(stability.ALGORITHMS)] * 3


@pytest.mark.parametrize("m, k, yes, welfare", [(3, 1, True, 18), (4, 2, False, 27),
                                                (4, 2, True, 30)])
def test_exact_prints_the_x3c_decision_welfare(tmp_path, capsys, m, k, yes, welfare):
    """A yes-instance reaches 3(m+3k) in raw units; a no-instance stays below it."""
    inst, sol = tmp_path / "x3c.json", tmp_path / "x3c_solution.json"
    run(["gen", "--kind", "x3c", "--m", str(m), "--k", str(k), "--out", str(inst)]
        + ["--yes"] * yes, capsys)
    code, out, _ = run(["exact", str(inst), "--out", str(sol)], capsys)
    assert code == 0 and out == f"welfare {welfare}\n"
    assert (welfare == 3 * (m + 3 * k)) == yes
    assert dio.load_solution(str(sol)).n == 2 * m + 3


def test_audit_of_a_solution_for_another_agent_count_exits_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "4", "--seed", "1", "--out", str(inst)], capsys)
    sol = tmp_path / "five.json"
    sol.write_text('{"n": 5, "columns": []}')
    code, out, err = run(["audit", str(inst), str(sol)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: solution agent count does not match the instance\n"


def test_solve_degenerate_instance_exits_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "3", "--senders", "0", "--out", str(inst)], capsys)
    code, _, err = run(["solve", str(inst), "--out", str(tmp_path / "s.json"),
                        "--report", str(tmp_path / "r.json")], capsys)
    assert code == 2 and "degenerate" in err


def test_audit_reports_core_audit_status(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(["gen", "--kind", "random", "--n", "5", "--senders", "3", "--seed", "4",
         "--out", str(inst)], capsys)
    run(["stability", str(inst), "--algorithm", "greedy_match", "--out", str(sol)], capsys)
    code, out, _ = run(["audit", str(inst), str(sol), "--coalitions", "2"], capsys)
    payload = json.loads(out.strip().splitlines()[-1])
    counts = payload["core_audit_counts"]
    assert code == 0 and payload["core_audit"] == "complete"
    assert counts["coalitions"] == 10 and counts["failed"] == 0
    assert counts["ruled_out"] + counts["lps"] == counts["coalitions"]
    code, out, _ = run(["audit", str(inst), str(sol)], capsys)
    payload = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and payload["core_audit"] == "skipped"
    assert payload["core_audit_counts"] is None


def _audit_with_injected_lp_failures(tmp_path, capsys, monkeypatch, fails):
    from scipy.optimize import OptimizeResult

    from datex import ExchangeSolution

    # the empty solution leaves 16 of the 20 coalitions worth an LP
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(["gen", "--kind", "random", "--n", "5", "--senders", "3", "--seed", "4",
         "--out", str(inst)], capsys)
    dio.dump_solution(ExchangeSolution.empty(5), str(sol))
    calls = []
    real_linprog = lp.linprog

    def failing(*args, **kwargs):
        calls.append(1)
        if fails(len(calls)):
            return OptimizeResult(success=False, status=4, message="injected failure")
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(lp, "linprog", failing)
    code, out, _ = run(["audit", str(inst), str(sol), "--coalitions", "3"], capsys)
    monkeypatch.setattr(lp, "linprog", real_linprog)
    payload = json.loads(out.strip().splitlines()[-1])
    code_ref, out_ref, _ = run(["audit", str(inst), str(sol), "--coalitions", "3"], capsys)
    assert code == code_ref == 0
    return payload, json.loads(out_ref.strip().splitlines()[-1]), len(calls)


def test_audit_falls_back_to_one_lp_per_coalition_when_the_stacked_lp_fails(
        tmp_path, capsys, monkeypatch):
    payload, reference, calls = _audit_with_injected_lp_failures(
        tmp_path, capsys, monkeypatch, lambda call: call == 1)
    counts = payload["core_audit_counts"]
    assert payload["core_audit"] == reference["core_audit"] == "complete"
    # one LP per coalition may differ from the stacked LP in the last bit of t*
    assert [c for c, _ in payload["blocking_coalitions"]] == \
        [c for c, _ in reference["blocking_coalitions"]]
    for (_, t_star), (_, t_ref) in zip(payload["blocking_coalitions"],
                                       reference["blocking_coalitions"]):
        assert abs(t_star - t_ref) <= 1e-12
    assert counts == reference["core_audit_counts"]
    assert counts["failed"] == 0 and calls == 1 + counts["lps"] == 17


def test_audit_with_failed_coalition_lps_says_partial(tmp_path, capsys, monkeypatch):
    payload, _, calls = _audit_with_injected_lp_failures(
        tmp_path, capsys, monkeypatch, lambda call: True)
    counts = payload["core_audit_counts"]
    assert payload["core_audit"] == "partial" and payload["blocking_coalitions"] == []
    assert counts["failed"] == counts["lps"] == calls - 1 == 16
    assert counts["ruled_out"] + counts["lps"] == counts["coalitions"] == 20


def test_audit_over_coalition_bound_says_skipped(tmp_path, capsys):
    from datex import ExchangeSolution

    # 20 agents: C(20,2) + C(20,3) + C(20,4) = 6175 coalitions > MAX_COALITIONS
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(["gen", "--kind", "random", "--n", "20", "--senders", "2", "--out", str(inst)], capsys)
    dio.dump_solution(ExchangeSolution.empty(20), str(sol))
    code, out, _ = run(["audit", str(inst), str(sol), "--coalitions", "4"], capsys)
    payload = json.loads(out.strip().splitlines()[-1])
    assert code == 0
    assert payload["core_audit"] == "skipped" and payload["blocking_coalitions"] == []
    assert payload["core_audit_counts"] is None


def test_audit_bound_on_forty_agents_counts_without_enumerating(tmp_path, capsys):
    from datex import ExchangeSolution
    from datex.exact import exact_core_audit

    # all 2^40 - 41 coalitions of 40 agents: counting them one by one never ends
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(["gen", "--kind", "random", "--n", "40", "--senders", "2", "--out", str(inst)], capsys)
    dio.dump_solution(ExchangeSolution.empty(40), str(sol))
    instance = dio.load_instance(str(inst))
    with time_limit(10):
        with pytest.raises(ValueError, match=r"^1099511627735 coalitions exceed the audit bound"):
            exact_core_audit(instance, ExchangeSolution.empty(40), max_coalition=40)
        code, out, _ = run(["audit", str(inst), str(sol), "--coalitions", "40"], capsys)
    payload = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and payload["core_audit"] == "skipped"


def test_audit_states_the_largest_coalition_size_it_covered(tmp_path, capsys):
    # this cycle-canceling solution has no blocking coalition of up to 3 agents,
    # and six of 4 to 6 agents: "complete" covers only the sizes audited
    inst = tmp_path / "table.json"
    sol = tmp_path / "cycle.json"
    run(["gen", "--kind", "random", "--n", "6", "--model", "table", "--seed", "31",
         "--out", str(inst)], capsys)
    run(["stability", str(inst), "--algorithm", "cycle_cancel", "--out", str(sol)], capsys)
    covered = {}
    for size in ("0", "3", "6", "9"):
        code, out, _ = run(["audit", str(inst), str(sol), "--coalitions", size], capsys)
        payload = json.loads(out.strip().splitlines()[-1])
        assert code == 0
        covered[size] = (payload["core_audit"], payload["core_audit_max_coalition"],
                         len(payload["blocking_coalitions"]))
    assert covered == {"0": ("skipped", None, 0), "3": ("complete", 3, 0),
                       "6": ("complete", 6, 6), "9": ("complete", 6, 6)}
    code, out, err = run(["audit", str(inst), str(sol), "--coalitions", "1"], capsys)
    assert code == 2 and out == ""
    assert err == "error: --coalitions 1 audits nothing: a coalition has at least two members\n"


def test_fuzz_without_misreport_model_exits_2(tmp_path, capsys):
    # road instances (path_variance) have no misreport model
    inst = tmp_path / "road.json"
    sol = tmp_path / "sol.json"
    code, _, _ = run(["gen", "--kind", "road", "--grid", "5x5", "--agents", "4",
                      "--radius", "3", "--seed", "1", "--out", str(inst)], capsys)
    assert code == 0
    run(["stability", str(inst), "--out", str(sol)], capsys)
    code, out, err = run(["audit", str(inst), str(sol), "--fuzz-trials", "5"], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "path_variance" in err
    code, _, err = run(["fuzz", str(inst), "--trials", "5"], capsys)
    assert code == 2 and "path_variance" in err


def test_size_weights_on_a_table_exit_2_before_any_command_runs(tmp_path, capsys):
    # the fuzz reads no shares, so the instance itself must refuse size weights
    # on a table; they used to fail only at the first proportional share
    table, sized = tmp_path / "table.json", tmp_path / "sized.json"
    assert run(["gen", "--kind", "random", "--n", "4", "--model", "table",
                "--out", str(table)], capsys)[0] == 0
    sized.write_text(json.dumps(json.loads(table.read_text())
                                | {"sharing": {"kind": "proportional", "weights": "size"}}))
    for argv in (["fuzz", str(sized), "--trials", "5"],
                 ["stability", str(sized), "--out", str(tmp_path / "s.json")],
                 ["solve", str(table), "--sharing", "proportional_size",
                  "--out", str(tmp_path / "s.json"), "--report", str(tmp_path / "r.json")]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and len(err.splitlines()) == 1, argv
        assert "weights rule 'size' needs a size-based utility model; got explicit_table" in err


def test_a_table_that_misses_a_permitted_sender_exits_2_at_load(tmp_path, capsys):
    # the table used to load and fail later with "sender 3 not permitted for
    # agent 0", about a pair that is permitted
    table, gap = tmp_path / "table.json", tmp_path / "gap.json"
    assert run(["gen", "--kind", "random", "--n", "4", "--senders", "2", "--model", "table",
                "--seed", "3", "--out", str(table)], capsys)[0] == 0
    obj = json.loads(table.read_text())
    assert [0, 3] not in obj["allowed"]
    obj["allowed"].append([0, 3])
    gap.write_text(json.dumps(obj))
    out_args = ["--out", str(tmp_path / "s.json"), "--report", str(tmp_path / "r.json")]
    for argv in (["stability", str(gap), "--out", str(tmp_path / "s.json")],
                 ["solve", str(gap), "--max-iters", "30", *out_args],
                 ["solve", str(gap), "--oracle", "bruteforce", "--max-iters", "30", *out_args],
                 ["exact", str(gap)], ["fuzz", str(gap), "--trials", "5"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and len(err.splitlines()) == 1, argv
        assert "agent 0's table does not cover its permitted senders [3]" in err, err


def test_solve_road_with_missing_path_exits_2(tmp_path, capsys):
    # a path_variance model needs one path per agent; the shape check runs on load
    inst = tmp_path / "road.json"
    code, _, _ = run(["gen", "--kind", "road", "--grid", "5x5", "--agents", "4",
                      "--radius", "3", "--seed", "1", "--out", str(inst)], capsys)
    assert code == 0
    obj = json.loads(inst.read_text())
    obj["utility"]["paths"] = obj["utility"]["paths"][:-1]
    inst.write_text(json.dumps(obj))
    code, out, err = run(["solve", str(inst), "--oracle", "bucketing", "--max-iters", "30",
                          "--out", str(tmp_path / "s.json"), "--report", str(tmp_path / "r.json")],
                         capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "3 paths" in err


@pytest.mark.parametrize("agent", [9, -1])
def test_oracle_agent_outside_instance_exits_2(tmp_path, capsys, agent):
    inst = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "4", "--senders", "3", "--seed", "3",
         "--out", str(inst)], capsys)
    code, out, err = run(["oracle", str(inst), f"--agent={agent}", "--q", '{"1": 1.0}',
                          "--oracle", "knapsack"], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "--agent" in err


def _x3c_file(tmp_path, capsys, edit):
    inst = tmp_path / "x3c.json"
    code, _, _ = run(["gen", "--kind", "x3c", "--m", "3", "--k", "1", "--yes", "--seed", "0",
                      "--out", str(inst)], capsys)
    assert code == 0
    obj = json.loads(inst.read_text())
    edit(obj)
    inst.write_text(json.dumps(obj))
    return inst


def test_x3c_with_wrong_agent_count_exits_2(tmp_path, capsys):
    inst = _x3c_file(tmp_path, capsys, lambda obj: obj.update(n=obj["n"] + 1))
    code, out, err = run(["exact", str(inst), "--out", str(tmp_path / "s.json")], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "needs n = 9" in err


def test_x3c_with_extra_pair_exits_2(tmp_path, capsys):
    # agent 0 (p_0) may receive only from z1; a pair from p_1 is not in the construction
    inst = _x3c_file(tmp_path, capsys, lambda obj: obj["allowed"].append([0, 1]))
    code, out, err = run(["exact", str(inst), "--out", str(tmp_path / "s.json")], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "extra [(0, 1)]" in err


def test_solve_trace_holds_every_probe(tmp_path, capsys, monkeypatch):
    # the trace is written from the solve itself: one row per iteration of every probe
    inst = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "4", "--senders", "3", "--seed", "3",
         "--out", str(inst)], capsys)
    solve = ["solve", str(inst), "--oracle", "knapsack", "--max-iters", "80"]
    probed: list[float] = []

    def recording_run_mwu(instance, B, config, oracle):
        probed.append(B)
        return run_mwu(instance, B, config, oracle)

    monkeypatch.setattr(mwu, "run_mwu", recording_run_mwu)
    code, _, _ = run(solve + ["--trace", str(tmp_path / "trace.jsonl"), "--out",
                              str(tmp_path / "s.json"), "--report", str(tmp_path / "r.json")],
                     capsys)
    monkeypatch.undo()
    assert code == 0
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    blocks = [b for b, _ in itertools.groupby(row["B"] for row in rows)]
    assert len(probed) > 2 and blocks == probed  # contiguous, in probe order, one per probe

    report = json.loads((tmp_path / "r.json").read_text())
    assert sum(not math.isnan(row["max_residual"]) for row in rows) == report["iterations"]

    instance, _ = normalize_instance(dio.load_instance(str(inst)))
    config = MwuConfig(max_iters=80, eta_override=practical_eta(instance.n, 80))
    best = run_mwu(instance, report["best_B"], config, get_oracle("knapsack", eps=0.1))
    assert [line for line, row in zip(lines, rows) if row["B"] == report["best_B"]] == [
        json.dumps(row) for row in best.trace
    ]

    code, _, _ = run(solve + ["--out", str(tmp_path / "s0.json"), "--report",
                              str(tmp_path / "r0.json")], capsys)
    assert code == 0
    assert (tmp_path / "s.json").read_bytes() == (tmp_path / "s0.json").read_bytes()
    assert (tmp_path / "r.json").read_bytes() == (tmp_path / "r0.json").read_bytes()


@contextmanager
def time_limit(seconds: int):
    def timeout(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


GEN_FOR_MODEL = {
    "symmetric_weighted": ["--kind", "random", "--n", "4", "--model", "symmetric"],
    "continuous_concave": ["--kind", "random", "--n", "4", "--model", "symmetric"],
    "explicit_table": ["--kind", "random", "--n", "4", "--model", "table"],
    "path_variance": ["--kind", "road", "--grid", "5x5", "--agents", "4", "--radius", "3"],
}
SYM, CONT = "symmetric_weighted", "continuous_concave"
# gen arguments of the seed files that loader mutations start from
FUZZ_GEN = {
    "road": ["--kind", "road", "--grid", "6x6", "--agents", "6", "--radius", "3"],
    "symmetric": ["--kind", "random", "--n", "5", "--model", "symmetric"],
    "table": ["--kind", "random", "--n", "5", "--model", "table"],
    "x3c": ["--kind", "x3c", "--m", "3", "--k", "2"],
}
FUZZ_VALUES = (-1, 0, 1e-320, 1e308, math.nan, math.inf, 2**70, "x", True, None, [], {})
FUZZ_FACTORS = (1e-300, 1e-10, 0.5, -1, 1e10, 1e300)
Q = '{"1": 1.0, "2": 0.5, "3": 0.3}'


def _instance_file(tmp_path, capsys, model, path=(), value=None):
    """A generated 4-agent instance of `model`, with utility[path] set to value."""
    inst = tmp_path / "inst.json"
    code, _, _ = run(["gen", *GEN_FOR_MODEL[model], "--seed", "1", "--out", str(inst)], capsys)
    assert code == 0
    obj = json.loads(inst.read_text())
    obj["utility"]["kind"] = model  # continuous_concave shares the symmetric schema
    if path:
        *keys, last = path
        target = obj["utility"]
        for key in keys:
            target = target[key]
        target[last] = value
    inst.write_text(json.dumps(obj))
    return inst


def _cli_args(command, inst, tmp_path):
    argv = [command[0], str(inst), *command[1:]]
    if command[0] == "oracle":
        return argv + ["--agent", "0", "--q", Q]
    argv += ["--out", str(tmp_path / "s.json")]
    return argv + ["--report", str(tmp_path / "r.json")] if command[0] == "solve" else argv


@pytest.mark.parametrize("model, command, message", [
    (SYM, ["solve", "--delta", "0.9"], "delta must lie in (0, 1/3]"),
    (SYM, ["solve", "--max-iters", "0"], "max_iters must be >= 1"),
    (SYM, ["solve", "--oracle", "knapsack", "--oracle-eps", "-1"], "knapsack oracle eps"),
    (CONT, ["oracle", "--oracle", "continuous", "--oracle-eps", "-0.5"], "continuous oracle eps"),
    (CONT, ["oracle", "--oracle", "continuous", "--oracle-eps", "5"], "continuous oracle eps"),
    (CONT, ["oracle", "--oracle", "continuous", "--oracle-eps", "1e-17"], "continuous oracle eps"),
    (CONT, ["oracle", "--oracle", "continuous", "--oracle-eps", "1e-12"], "continuous oracle eps"),
    (SYM, ["oracle", "--oracle", "knapsack", "--oracle-eps", "1e-17"], "knapsack oracle eps"),
    (SYM, ["oracle", "--oracle", "knapsack", "--oracle-eps", "1e-12"], "knapsack oracle eps"),
    (SYM, ["oracle", "--oracle", "bucketing", "--oracle-eps", "0.5"], "bucketing oracle eps"),
])
def test_out_of_range_solver_option_exits_2(tmp_path, capsys, model, command, message):
    inst = _instance_file(tmp_path, capsys, model)
    with time_limit(10):  # tiny or negative eps used to loop forever in the guess grids
        code, out, err = run(_cli_args(command, inst, tmp_path), capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and message in err


@pytest.mark.parametrize("model, path, value, command", [
    (SYM, ("sizes", 0, 2), math.inf, ["oracle", "--oracle", "knapsack"]),
    (SYM, ("sizes", 0, 2), math.nan, ["stability"]),
    (CONT, ("sizes", 0, 2), math.inf, ["oracle", "--oracle", "continuous"]),
    ("explicit_table", ("tables", 0, "values", 1), math.nan, ["exact"]),
    ("path_variance", ("sigma2", 0), math.nan, ["solve"]),
    # a NaN cap made min(x, cap) drop the cap; an infinite scale gave blocking pairs
    (SYM, ("f", 0), {"kind": "capped_linear", "cap": math.nan}, ["stability"]),
    (SYM, ("f", 0), {"kind": "power", "c": 0.5, "scale": math.inf}, ["stability"]),
])
def test_non_finite_utility_input_exits_2(tmp_path, capsys, model, path, value, command):
    inst = _instance_file(tmp_path, capsys, model, path, value)
    with time_limit(10):  # an infinite size sent the continuous oracle into an endless loop
        code, out, err = run(_cli_args(command, inst, tmp_path), capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "bad instance file" in err


@pytest.mark.parametrize("model, field, command", [
    *[pytest.param("explicit_table", ("tables", 0, "values"), c, id=f"table-values-{c}")
      for c in ("solve", "exact", "stability", "fuzz")],
    *[pytest.param("path_variance", ("sigma2",), c, id=f"road-sigma2-{c}")
      for c in ("solve", "stability")],
])
def test_a_nested_numeric_list_exits_2_at_load(tmp_path, capsys, model, field, command):
    # [[v], ...] loaded as a 2-D array: tables exited 3 with a TypeError or 2 with
    # a numpy message, and road was misdiagnosed as having no utility anywhere
    inst = _instance_file(tmp_path, capsys, model)
    obj = json.loads(inst.read_text())
    *keys, last = field
    target = functools.reduce(operator.getitem, keys, obj["utility"])
    target[last] = [[v] for v in target[last]]
    inst.write_text(json.dumps(obj))
    argv = (["fuzz", str(inst), "--trials", "5"] if command == "fuzz"
            else _cli_args([command], inst, tmp_path))
    with time_limit(10):
        code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert "bad instance file" in err and "must be a flat list of numbers" in err


def test_a_random_table_past_the_enumeration_cap_exits_2_at_once(tmp_path, capsys):
    # the 2^21-mask table of each of 23 agents was built before the cap refused it
    with time_limit(5):
        code, out, err = run(["gen", "--kind", "random", "--model", "table", "--n", "23",
                              "--senders", "21", "--out", str(tmp_path / "big.json")], capsys)
    assert code == 2 and out == ""
    assert err.strip() == "error: a table of 21 senders per agent exceeds the enumeration cap 20"
    assert not (tmp_path / "big.json").exists()


@pytest.mark.parametrize("exc, code, message", [
    (RegretBoundError("regret bound violated:\n lhs 2.0 > rhs 1.0"), 1,
     "invariant violated: regret bound violated: lhs 2.0 > rhs 1.0"),
    (AssertionError("width violated: |m| = 1.2 > 1"), 1, "invariant violated: width violated"),
    (ZeroDivisionError("float division by zero"), 3,
     "solver failure: ZeroDivisionError: float division by zero"),
    (KeyError(7), 3, "solver failure: KeyError: 7"),
])
def test_uncaught_exception_exits_with_one_line(tmp_path, capsys, monkeypatch, exc, code, message):
    inst = _instance_file(tmp_path, capsys, SYM)

    def failing_solve(instance, config, oracle):
        raise exc

    monkeypatch.setattr(cli, "solve_welfare", failing_solve)
    got, out, err = run(_cli_args(["solve"], inst, tmp_path), capsys)
    assert got == code and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: " + message)


def test_failed_column_lp_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    from scipy.optimize import OptimizeResult

    inst = _instance_file(tmp_path, capsys, SYM)
    monkeypatch.setattr(lp, "linprog", lambda *args, **kwargs: OptimizeResult(
        success=False, status=4, message="injected failure"))
    code, out, err = run(_cli_args(["solve", "--oracle", "knapsack", "--max-iters", "50"],
                                   inst, tmp_path), capsys)
    assert code == 3 and out == ""
    assert err == "error: solver failure: LpError: column LP failed: injected failure\n"


@pytest.mark.parametrize("argv, message", [
    (["gen", "--kind", "random", "--n", "0"], "need at least one agent"),
    (["gen", "--kind", "random", "--epsilon", "2"], "epsilon must lie in (0, 1)"),
    (["gen", "--kind", "core-gap", "--n", "3"], "core-gap construction needs n >= 6"),
    (["gen", "--kind", "x3c", "--m", "1", "--k", "3", "--yes"], "need at least k sets"),
    (["gen", "--kind", "x3c", "--m", "3", "--k", "1"], "no-instances need k >= 2"),
    (["experiment", "--rho", "abc"], "bad --rho: could not convert string to float: 'abc'"),
    (["oracle", "--agent", "0", "--q", "[1,2]"], "--q must be a JSON object"),
    (["oracle", "--agent", "0", "--q", "3"], "--q must be a JSON object"),
    (["experiment", "--grid", "12"], "--grid must be WxH, got '12'"),
    (["experiment", "--replicates", "0"], "replicates must be >= 1, got 0"),
    (["gen", "--kind", "road", "--grid", "abc"], "--grid must be WxH, got 'abc'"),
    (["gen", "--kind", "random", "--senders", "-1"], "senders per agent must be >= 0, got -1"),
    # prices that are not finite JSON numbers, keys that name no sender of agent 0
    (["oracle", "--agent", "0", "--q", '{"1": NaN}'], "finite JSON number, got nan"),
    (["oracle", "--agent", "0", "--q", '{"1": Infinity}'], "finite JSON number, got inf"),
    (["oracle", "--agent", "0", "--q", '{"1": -Infinity}', "--oracle", "bucketing"],
     "finite JSON number, got -inf"),
    (["oracle", "--agent", "0", "--q", '{"1": 1e400}'], "finite JSON number, got inf"),
    (["oracle", "--agent", "0", "--q", '{"1": true}'], "finite JSON number, got True"),
    (["oracle", "--agent", "0", "--q", '{"1": "0.5"}'], "finite JSON number, got '0.5'"),
    (["oracle", "--agent", "0", "--q", '{"99": 1.0}'], "'99' is not a sender of agent 0"),
    (["oracle", "--agent", "0", "--q", '{"0": 5.0}'], "'0' is not a sender of agent 0"),
    (["experiment", "--modes", "bogus", "--rho", "0"], "unknown correlation mode 'bogus'"),
    # every rho is checked before the first replicate runs
    (["experiment", "--rho", "0.5,inf", "--modes", "random"], "rho must lie in [0, 1]; got inf"),
    (["experiment", "--rho", "nan"], "rho must lie in [0, 1]; got nan"),
    (["experiment", "--rho", "0,2"], "rho must lie in [0, 1]; got 2.0"),
    # a negative --seed names the flag; numpy's message named no input
    (["gen", "--kind", "random", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["experiment", "--seed", "-1"], "--seed must be >= 0, got -1"),
])
def test_bad_cli_input_exits_2_with_one_line(tmp_path, capsys, argv, message):
    if argv[0] == "oracle":
        inst = tmp_path / "inst.json"
        assert run(["gen", "--kind", "random", "--n", "4", "--out", str(inst)], capsys)[0] == 0
        argv = ["oracle", str(inst), *argv[1:]]
    else:
        argv = [*argv, "--out", str(tmp_path / "out")]
    with time_limit(10):
        code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and not (tmp_path / "out").exists()
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize("q, extra, chosen", [
    ('{"1": 1e-322, "2": 3e-324}', [], []),
    ('{"1": 1e-320}', ["--oracle-eps", "0.0001"], [1]),
])
def test_knapsack_oracle_on_subnormal_profits_matches_bruteforce(tmp_path, capsys, q, extra,
                                                                 chosen):
    # the DP's profit scale eps * p_max / m used to underflow to 0 on these rows
    capped = tmp_path / "capped.json"
    sizes = {(0, 1): 2.0, (0, 2): 1.0, (1, 0): 1.0, (2, 0): 1.0}
    dio.dump_instance(Instance(
        n=3, allowed=frozenset(sizes), sharing=SharingRuleSpec(kind="proportional", weights="size"),
        utility=SymmetricWeighted(sizes=sizes, f=(ConcaveSpec(kind="capped_linear", cap=1e-3),) * 3),
    ), str(capped))
    answers = {}
    for oracle in ("knapsack", "bruteforce"):
        code, out, err = run(["oracle", str(capped), "--agent", "0", "--q", q,
                              "--oracle", oracle, *extra], capsys)
        assert code == 0 and err == "", err
        answers[oracle] = json.loads(out)
    assert answers["knapsack"]["chosen"] == answers["bruteforce"]["chosen"] == chosen
    assert answers["knapsack"]["value"] == answers["bruteforce"]["value"]


@pytest.mark.parametrize("argv, message", [
    # an output path in a missing directory
    (["gen", "--kind", "random", "--n", "4", "--out", "{nodir}"], "No such file or directory"),
    (["solve", "{inst}", "--oracle", "knapsack", "--max-iters", "50", "--out", "{nodir}",
      "--report", "{tmp}/r.json"], "No such file or directory"),
    (["exact", "{inst}", "--out", "{nodir}"], "No such file or directory"),
    (["stability", "{inst}", "--out", "{nodir}"], "No such file or directory"),
    # an audited solution that receives from a sender the instance does not permit
    (["audit", "{inst}", "{alien}"], "senders [{j}] are not permitted for agent {i}"),
    # negative counts
    (["fuzz", "{inst}", "--trials", "-3"], "fuzz trials must be >= 0, got -3"),
    (["audit", "{inst}", "{sol}", "--fuzz-trials", "-1"], "fuzz trials must be >= 0, got -1"),
    (["audit", "{inst}", "{sol}", "--coalitions", "-1"], "--coalitions must be >= 0, got -1"),
    # a negative or non-finite balance slack is rejected, not clamped to 0
    (["exact", "{inst}", "--relax-eps", "-1"], "relax_eps must be finite and >= 0, got -1.0"),
    (["exact", "{inst}", "--relax-eps", "nan"], "relax_eps must be finite and >= 0, got nan"),
    # prices the bucketing oracle's guess grid cannot start from; both used to hang
    (["oracle", "{table}", "--agent", "0", "--q", '{{"1": Infinity}}', "--oracle", "bucketing"],
     "finite JSON number, got inf"),
    (["oracle", "{table}", "--agent", "0", "--q", '{{"1": 1e308, "3": 1e308, "5": 1e308}}',
      "--oracle", "bucketing"], "finite first guess"),
    # finite prices whose sums overflow: printed "value": Infinity, or a saturated set
    (["oracle", "{rand}", "--agent", "0", "--q", '{{"1": 1.7e308, "2": 1.7e308, "3": 1.7e308}}',
      "--oracle", "bruteforce"], "bruteforce oracle needs a finite first guess"),
    (["oracle", "{rand}", "--agent", "0", "--q", '{{"1": 1.7e308, "2": 1.7e308, "3": 1.7e308}}',
      "--oracle", "knapsack"], "knapsack oracle needs a finite first guess"),
    # a finite first guess q_j u_ij over an infinite DP profit q_j s_ij (cap 1e-3, s_01 = 2)
    (["oracle", "{capped}", "--agent", "0", "--q", '{{"1": 1e308}}', "--oracle", "knapsack"],
     "knapsack oracle needs a finite total profit"),
    # a solution file with a non-finite weight or slack; these used to exit 1
    (["audit", "{inst}", "{nan_weight}", "--coalitions", "3"], "weight x[0] outside [0, 1]: nan"),
    (["audit", "{inst}", "{nan_delta}", "--coalitions", "3"],
     "imbalance slacks must be finite and non-negative"),
    (["audit", "{inst}", "{inf_delta}", "--coalitions", "3"],
     "imbalance slacks must be finite and non-negative"),
    # integer fields with a fraction, a bool or a string; these used to be truncated
    (["exact", "{n_frac}"], "n must be an integer; got 5.9"),
    (["exact", "{pair_frac}"], "allowed receiver must be an integer; got 0.7"),
    (["audit", "{table}", "{column_frac}"], "column sender must be an integer; got 2.2"),
    (["exact", "{m_frac}"], "sharing m must be an integer; got 2.5"),
    (["exact", "{m_bool}"], "sharing m must be an integer; got true"),
    (["exact", "{seed_frac}"], "sharing seed must be an integer; got 1.5"),
    (["exact", "{n_text}"], 'n must be an integer; got "6"'),
    # a key listed twice; a dict would keep only the last entry
    (["audit", "{inst}", "{dup_column}"], "columns list agent 0's column [{s0}] twice"),
    (["exact", "{dup_size}"], "sizes list pair {pair} twice"),
    # explicit proportional weights: a pair listed twice, or a non-finite weight
    (["oracle", "{dup_weight}", "--agent", "0", "--q", '{{"1": 0.5, "2": 0.5, "3": 0.5}}',
      "--oracle", "bruteforce"], "weights list pair [0, 1] twice"),
    (["oracle", "{nan_share}", "--agent", "0", "--q", '{{"1": 0.5, "2": 0.5, "3": 0.5}}',
      "--oracle", "bruteforce"], "proportional weights must be finite and non-negative, got nan"),
    (["oracle", "{inf_share}", "--agent", "0", "--q", '{{"1": 0.5, "2": 0.5, "3": 0.5}}',
      "--oracle", "bruteforce"], "proportional weights must be finite and non-negative, got inf"),
    # a negative sampled-Shapley seed; it used to fail at the first draw with numpy's message
    (["oracle", "{neg_seed}", "--agent", "0", "--q", '{{"1": 0.5, "2": 0.5, "3": 0.5}}',
      "--oracle", "bucketing"], "sharing seed must be >= 0, got -1"),
    (["solve", "{neg_seed}", "--oracle", "bucketing", "--max-iters", "50", "--out", "{tmp}/s.json",
      "--report", "{tmp}/r.json"], "sharing seed must be >= 0, got -1"),
    # explicit proportional weights on a pair outside range(n) or outside allowed;
    # both used to be ignored
    (["oracle", "{far_weight}", "--agent", "0", "--q", '{{"1": 0.5, "2": 0.5, "3": 0.5}}',
      "--oracle", "bruteforce"], "sharing weights reference non-permitted pair (0,7)"),
    (["oracle", "{alien_weight}", "--agent", "{s0}", "--q", '{{"0": 0.5}}',
      "--oracle", "bruteforce"], "sharing weights reference non-permitted pair ({i},{j})"),
    # a road class outside the edges (-1 read the last class), a non-object utility,
    # an f list one agent short, and an x3c k past 2m; they exited 0, 3, 3 and 1
    (["solve", "{road_class}", "--max-iters", "30", "--out", "{tmp}/s.json",
      "--report", "{tmp}/r.json"], "edge classes must lie in 0..{last_edge}"),
    (["solve", "{int_utility}", "--max-iters", "30", "--out", "{tmp}/s.json",
      "--report", "{tmp}/r.json"], "utility must be a JSON object; got int"),
    (["solve", "{short_f}", "--max-iters", "30", "--out", "{tmp}/s.json",
      "--report", "{tmp}/r.json"], "symmetric_weighted needs one f entry per agent (4); got 3"),
    (["solve", "{x3c_k}", "--max-iters", "30", "--out", "{tmp}/s.json",
      "--report", "{tmp}/r.json"], "x3c_coverage needs k <= 2m; got m = 3, k = 100"),
    # a utility divisor of 0, found by the mutation property below; it exited 3
    (["stability", "{x3c_scale}", "--out", "{tmp}/s.json"],
     "x3c_coverage scale must be finite and positive; got 0.0"),
    # a subnormal size, or sizes 1e320 apart: the fixed-point unit passed the
    # largest float, and both exited 3 with an OverflowError
    *[([command, "{%s}" % name, *tail], "knapsack oracle cannot put sizes")
      for name in ("subnormal_size", "wide_sizes")
      for command, tail in (("oracle", ["--agent", "0", "--q", '{{"1": 0.5, "2": 0.5, "3": 0.5}}',
                                        "--oracle", "knapsack"]),
                            ("solve", ["--oracle", "knapsack", "--max-iters", "50",
                                       "--out", "{tmp}/s.json", "--report", "{tmp}/r.json"]))],
    # a negative --seed, in every subcommand that takes one besides gen and experiment
    (["fuzz", "{inst}", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["audit", "{inst}", "{sol}", "--fuzz-trials", "5", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["solve", "{inst}", "--sharing", "shapley_sampled", "--seed", "-2", "--out", "{tmp}/s.json",
      "--report", "{tmp}/r.json"], "--seed must be >= 0, got -2"),
])
def test_bad_input_found_past_the_load_exits_2(tmp_path, capsys, argv, message):
    from datex import ExchangeSolution

    inst, sol, alien = tmp_path / "inst.json", tmp_path / "sol.json", tmp_path / "alien.json"
    assert run(["gen", "--kind", "random", "--n", "4", "--senders", "2", "--seed", "3",
                "--out", str(inst)], capsys)[0] == 0
    table = tmp_path / "table.json"
    assert run(["gen", "--kind", "random", "--n", "6", "--model", "table", "--seed", "3",
                "--out", str(table)], capsys)[0] == 0
    rand = tmp_path / "rand.json"
    assert run(["gen", "--kind", "random", "--n", "4", "--seed", "1", "--out", str(rand)],
               capsys)[0] == 0
    capped = tmp_path / "capped.json"
    pairs = frozenset((a, b) for a in range(3) for b in range(3) if a != b)
    dio.dump_instance(Instance(
        n=3, allowed=pairs, sharing=SharingRuleSpec(kind="proportional", weights="size"),
        utility=SymmetricWeighted(sizes={pair: 1.0 for pair in pairs} | {(0, 1): 2.0},
                                  f=(ConcaveSpec(kind="capped_linear", cap=1e-3),) * 3),
    ), str(capped))
    instance = dio.load_instance(str(inst))
    i, j = min((i, j) for i in range(4) for j in range(4)
               if i != j and (i, j) not in instance.allowed)
    dio.dump_solution(ExchangeSolution.empty(4), str(sol))
    dio.dump_solution(ExchangeSolution(n=4, columns={i: {frozenset({j}): 0.5}}), str(alien))
    names = {"inst": inst, "sol": sol, "alien": alien, "table": table, "rand": rand,
             "capped": capped, "tmp": tmp_path, "nodir": tmp_path / "nodir" / "out.json",
             "i": i, "j": j}
    for name, obj in {"nan_weight": {"n": 4, "columns": [[0, [instance.senders_of[0][0]], math.nan]]},
                      "nan_delta": {"n": 4, "columns": [], "deltas": [math.nan, 0, 0, 0]},
                      "inf_delta": {"n": 4, "columns": [], "deltas": [math.inf, 0, 0, 0]}}.items():
        names[name] = tmp_path / f"{name}.json"
        names[name].write_text(json.dumps(obj))
    table_obj = json.loads(table.read_text())
    sampled = {"kind": "shapley_sampled", "m": 10, "seed": 0}
    for name, patch in {"n_frac": {"n": 5.9}, "n_text": {"n": "6"},
                        "pair_frac": {"allowed": [[0.7, 1]] + table_obj["allowed"][1:]},
                        "m_frac": {"sharing": sampled | {"m": 2.5}},
                        "m_bool": {"sharing": sampled | {"m": True}},
                        "seed_frac": {"sharing": sampled | {"seed": 1.5}}}.items():
        names[name] = tmp_path / f"{name}.json"
        names[name].write_text(json.dumps(table_obj | patch))
    names["column_frac"] = tmp_path / "column_frac.json"
    names["column_frac"].write_text(json.dumps({"n": 6, "columns": [[0, [2.2], 0.5]]}))
    s0 = names["s0"] = instance.senders_of[0][0]
    names["dup_column"] = tmp_path / "dup_column.json"
    names["dup_column"].write_text(json.dumps({"n": 4, "columns": [[0, [s0], 0.3], [0, [s0], 0.9]]}))
    inst_obj = json.loads(inst.read_text())
    first = inst_obj["utility"]["sizes"][0]
    names["pair"] = first[:2]
    names["dup_size"] = tmp_path / "dup_size.json"
    inst_obj["utility"]["sizes"].append(first[:2] + [2.0 * first[2]])
    names["dup_size"].write_text(json.dumps(inst_obj))
    rand_obj = json.loads(rand.read_text())
    for name, sizes in {"subnormal_size": {0: 1e-320}, "wide_sizes": {0: 1e-300, 1: 1e20}}.items():
        names[name] = tmp_path / f"{name}.json"
        obj = json.loads(rand.read_text())
        for k, size in sizes.items():
            obj["utility"]["sizes"][k][2] = size
        names[name].write_text(json.dumps(obj))
    every_pair = [[a, b, 1.0] for a in range(4) for b in range(4) if a != b]
    for name, weights in {"dup_weight": every_pair + [[0, 1, 9.0]],
                          "nan_share": [[0, 1, math.nan]] + every_pair[1:],
                          "inf_share": [[0, 1, math.inf]] + every_pair[1:]}.items():
        names[name] = tmp_path / f"{name}.json"
        names[name].write_text(json.dumps(
            rand_obj | {"sharing": {"kind": "proportional", "weights": weights}}))
    names["far_weight"] = tmp_path / "far_weight.json"
    names["far_weight"].write_text(json.dumps(
        rand_obj | {"sharing": {"kind": "proportional", "weights": every_pair + [[0, 7, 1.0]]}}))
    names["alien_weight"] = tmp_path / "alien_weight.json"
    names["alien_weight"].write_text(json.dumps(json.loads(inst.read_text()) | {"sharing": {
        "kind": "proportional", "weights": [[a, b, 1.0] for a, b in instance.allowed] + [[i, j, 1.0]]}}))
    names["neg_seed"] = tmp_path / "neg_seed.json"
    names["neg_seed"].write_text(json.dumps(rand_obj | {"sharing": sampled | {"seed": -1}}))
    for name, model in {"road_class": "road", "x3c_k": "x3c"}.items():
        names[name] = tmp_path / f"{name}.json"
        assert run(["gen", *FUZZ_GEN[model], "--seed", "1", "--out", str(names[name])],
                   capsys)[0] == 0
    road_obj = json.loads(names["road_class"].read_text())
    road_obj["utility"]["classes"][0] = -1
    names["road_class"].write_text(json.dumps(road_obj))
    names["last_edge"] = len(road_obj["utility"]["edges"]) - 1
    x3c_obj = json.loads(names["x3c_k"].read_text())
    names["x3c_scale"] = tmp_path / "x3c_scale.json"
    names["x3c_scale"].write_text(json.dumps(x3c_obj | {"utility": x3c_obj["utility"] | {"scale": 0}}))
    x3c_obj["utility"]["k"] = 100
    names["x3c_k"].write_text(json.dumps(x3c_obj))
    names["int_utility"] = tmp_path / "int_utility.json"
    names["int_utility"].write_text(json.dumps(rand_obj | {"utility": 3}))
    names["short_f"] = tmp_path / "short_f.json"
    names["short_f"].write_text(json.dumps(
        rand_obj | {"utility": rand_obj["utility"] | {"f": rand_obj["utility"]["f"][:-1]}}))
    with time_limit(10):
        code, out, err = run([arg.format(**names) for arg in argv], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert message.format(**names) in err


@pytest.mark.parametrize("model, where, value, command, message", [
    # an epsilon that underflows: rho / eps overflowed the B grid length (1e-320),
    # eps * eps was 0 in the MWU iteration bound (1e-200), or that bound was inf (1e-160)
    *[pytest.param("table", where, eps, command,
                   "epsilon must lie in (0, 1) and be at least 1e-100", id=f"epsilon-{eps!r}-{via}")
      for eps in (1e-320, 1e-200, 1e-160)
      for via, where, command in (("file", ("epsilon",), ["solve"]),
                                  ("flag", (), ["solve", "--epsilon", str(eps)]))],
    # a sampled-Shapley m whose permutation draw asked numpy for 1.46 TiB
    *[pytest.param("road", ("sharing", "m"), 10**11, [command],
                   "permutation count m must lie in 1..10000", id=f"m-1e11-{command}")
      for command in ("solve", "stability")],
])
def test_an_underflowing_epsilon_or_a_huge_sampled_m_exits_2(tmp_path, capsys, model, where,
                                                             value, command, message):
    inst = tmp_path / "inst.json"
    assert run(["gen", *FUZZ_GEN[model], "--seed", "1", "--out", str(inst)], capsys)[0] == 0
    obj = json.loads(inst.read_text())
    if where:
        *keys, last = where
        functools.reduce(operator.getitem, keys, obj)[last] = value
    inst.write_text(json.dumps(obj))
    argv = [command[0], str(inst), *command[1:], "--out", str(tmp_path / "s.json")]
    if command[0] == "solve":
        argv += ["--max-iters", "30", "--report", str(tmp_path / "r.json")]
    with time_limit(10):
        code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert message in err


@pytest.fixture(scope="module")
def fuzz_seeds(tmp_path_factory):
    """A directory for mutated files, and one generated instance object per model."""
    tmp = tmp_path_factory.mktemp("fuzz")
    seeds = {}
    for model, args in FUZZ_GEN.items():
        path = tmp / f"{model}.json"
        with redirect_stdout(io.StringIO()):
            assert main(["gen", *args, "--seed", "1", "--out", str(path)]) == 0
        seeds[model] = json.loads(path.read_text())
    return tmp, seeds


def _json_nodes(node, path=()):
    """The path of every node below a JSON value, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _json_nodes(child, path + (key,))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_mutated_instance_file_solves_or_exits_2_with_one_line(fuzz_seeds, data):
    tmp, seeds = fuzz_seeds
    obj = copy.deepcopy(seeds[data.draw(st.sampled_from(sorted(seeds)), label="model")])
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        edit = data.draw(st.sampled_from(["replace", "delete", "duplicate", "scale"]), label="edit")
        nodes = list(_json_nodes(obj))
        if edit == "scale":  # a numeric node; type() leaves bools out
            nodes = [path for path in nodes
                     if type(functools.reduce(operator.getitem, path, obj)) in (int, float)]
            if not nodes:
                continue
        *where, key = data.draw(st.sampled_from(nodes), label="node")
        parent = functools.reduce(operator.getitem, where, obj)
        if edit == "scale":
            parent[key] *= data.draw(st.sampled_from(FUZZ_FACTORS), label="factor")
        elif edit == "replace":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES), label="value"))
        elif edit == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:  # the key's value, copied over another key of its object
            over = data.draw(st.sampled_from(sorted(parent)), label="over")
            parent[over] = copy.deepcopy(parent[key])
    inst = tmp / "mutant.json"
    inst.write_text(json.dumps(obj))
    for command in (["solve", str(inst), "--max-iters", "30", "--out", str(tmp / "s.json"),
                     "--report", str(tmp / "r.json")],
                    ["stability", str(inst), "--out", str(tmp / "s.json")]):
        err = io.StringIO()
        with time_limit(10), redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(command)
        err = err.getvalue()
        # exit 0, or bad input in one line, or solve's no-feasible-solution exit
        assert (code == 0
                or code == 2 and len(err.splitlines()) == 1 and err.startswith("error: ")
                or command[0] == "solve" and code == 3
                and err == "error: solver produced no feasible solution\n"), (command[0], code, err)


def test_exchange_log_takes_only_level_names(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "inst.json")
    for level in ("basic_format", "root", "warn", "notset", "10"):
        monkeypatch.setenv("EXCHANGE_LOG", level)
        code, stdout, err = run(["gen", "--kind", "random", "--n", "4", "--out", out], capsys)
        assert code == 2 and stdout == "" and len(err.strip().splitlines()) == 1
        assert err.startswith("error: EXCHANGE_LOG must be one of debug, info, warning, error, "
                              f"critical; got '{level}'")
    for level in ("DeBuG", "warning", "CRITICAL", ""):
        monkeypatch.setenv("EXCHANGE_LOG", level)
        assert run(["gen", "--kind", "random", "--n", "4", "--out", out], capsys)[0] == 0

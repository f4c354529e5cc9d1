"""Quick tests of the benchmark itself, on its smoke-size corpora.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checks import Checker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_run_passes_every_check(workload, tmp_path):
    res = run.run_workload(workload, 3, 0.01, 0, tmp_path, smoke=True)
    assert res["problems"] == []
    assert res["failed"] == 0 and res["correct"]
    assert res["attempted"] == 2 * len(res["jobs"])  # warm-up plus one timed round
    assert set(res["metrics"]) == _names("end_to_end")
    assert all(value > 0 for value, _ in res["metrics"].values())


def test_workloads_match_benchmark_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(corpus.WORKLOADS)


@pytest.mark.parametrize("workload", ["graph-card", "small-exact"])
def test_traced_run_restores_entry_points_and_keeps_behaviour(workload, tmp_path):
    before = {(owner, attr): owner.__dict__[attr] for _, owner, attr in tracing.targets()}
    plain = run.run_workload(workload, 5, 0.01, 0, tmp_path / "plain", smoke=True)
    traced = run.run_workload(workload, 5, 0.01, 1, tmp_path / "traced", smoke=True)
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} left wrapped"
    assert traced["digest"] == plain["digest"]
    assert traced["failed"] == 0 and traced["correct"]
    assert set(traced["metrics"]) == _names("per_layer")
    m = {k: v for k, (v, _) in traced["metrics"].items()}
    assert m["oracle.marginal.calls"] > 0 and m["algorithms.delete.calls"] > 0
    # every counted query is either a selection query or a Delete query
    queries = sum(j["queries"] or 0 for j in traced["jobs"])
    per_job = m["algorithms.select.queries"] + m["algorithms.delete.queries"]
    assert per_job * len(traced["jobs"]) == pytest.approx(queries)


def test_spans_record_parents_and_jobs(tmp_path):
    res = run.run_workload("graph-card", 5, 0.01, 1, tmp_path, smoke=True)
    tracer = res["tracer"]
    by_id = {s[0]: s for s in tracer.spans}
    marginal = next(s for s in tracer.spans if s[1] == "oracle.marginal")
    parent = by_id[marginal[4]]
    assert parent[1] in tracing.SOLVER_SPANS and parent[5] == marginal[5]
    assert all(s[2] <= s[3] for s in tracer.spans)


@pytest.fixture(scope="module")
def small_reports(tmp_path_factory):
    work = tmp_path_factory.mktemp("corpus")
    reports = tmp_path_factory.mktemp("reports")
    jobs, _ = corpus.build("small-exact", 7, work, smoke=True)
    checker = Checker(work)
    outcomes = {j.id: run._run_job(j, work, reports, checker) for j in jobs}
    assert all(not o.problems for o in outcomes.values())
    return checker, outcomes


def _planted(small_reports, job_id, change):
    checker, outcomes = small_reports
    o = outcomes[job_id]
    report = json.loads(json.dumps(o.report))
    change(report)
    return checker.check(o.job, 0, report)


def test_perturbed_value_is_caught(small_reports):
    def bump(r):
        r["final_value"] += 1e-3

    assert _planted(small_reports, "greedy-gA", bump)


def test_over_budget_set_is_caught(small_reports):
    def overfill(r):
        r["final_set"] = list(range(10))

    problems = _planted(small_reports, "knap-gA", overfill)
    assert any("infeasible" in p for p in problems)


def test_wrong_optimum_and_query_count_are_caught(small_reports):
    def wrong_opt(r):
        r["opt_value"] *= 0.9

    def extra_query(r):
        r["total_queries"] += 1

    assert _planted(small_reports, "matroid-gA", wrong_opt)
    assert any("queries" in p for p in _planted(small_reports, "greedy-gA", extra_query))


def test_invalid_verify_is_caught(small_reports):
    def invalid(r):
        r["valid"] = False

    assert _planted(small_reports, "verify-hA", invalid)


def test_delete_that_never_removes_is_caught(tmp_path, monkeypatch):
    from symsubmax import algorithms

    def lazy_delete(oracle, S, fS=None, protected=frozenset()):
        S = set(S)
        fS = oracle.eval(S) if fS is None else fS
        for u in sorted(S - set(protected)):
            oracle.eval(S - {u})  # same queries as Delete, but nothing is removed
        return S, fS

    monkeypatch.setattr(algorithms, "delete", lazy_delete)
    res = run.run_workload("small-exact", 2, 0.01, 0, tmp_path, smoke=True)
    assert any("Delete property fails" in p for p in res["problems"])


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graph-card", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""End-to-end and per-layer benchmark of the `symsubmax` CLI.

    python3 perfbench/run.py --workload graph-card --seed 1 --seconds 50 --trace 0

Run from the repository root. The benchmark imports the package from the
`src` directory next to its own directory, writes a seeded corpus, then
calls `cli.main(["solve", ...])` / `cli.main(["verify", ...])` in-process
as a closed loop: one client, one job at a time, no threads. The first
round of the job list is a warm-up; after it, whole rounds repeat until
their job time reaches `--seconds`. Job times are each job's fastest
repetition, which filters out the slow stretches of a shared CPU. Every
job's report is checked by `checks.py`; a job that fails a check counts as
failed.

With `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
per-layer metrics from `tracing.py`; a traced run alternates traced and
untraced rounds, and the untraced ones are the reference for the tracing
overhead. The last line of standard output is one JSON object; a results
file `BENCH_<label>.json` goes to `perfbench/out/`, and traced runs also
write their spans there. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 20  # set-up repetitions in a run, besides the first


def _import_package():
    """Import `symsubmax` from the checkout's `src`, never from elsewhere."""
    if not (SRC / "symsubmax" / "__init__.py").is_file():
        raise SystemExit(f"error: no symsubmax package under {SRC}")
    sys.path.insert(0, str(SRC))
    import symsubmax

    if Path(symsubmax.__file__).resolve().parent != (SRC / "symsubmax").resolve():
        raise SystemExit(f"error: imported symsubmax from {symsubmax.__file__}")


class Outcome:
    __slots__ = ("job", "seconds", "report", "problems")

    def __init__(self, job, seconds, report, problems):
        self.job = job
        self.seconds = seconds
        self.report = report
        self.problems = problems

    def digest_item(self):
        r = self.report or {}
        if self.job.command == "verify":
            return [self.job.id, r.get("valid"), r.get("checks")]
        return [self.job.id, r.get("total_queries"), r.get("final_set")]


def _digest(outcomes):
    items = [o.digest_item() for o in outcomes]
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def _run_job(job, corpus_dir, report_dir, checker):
    from symsubmax import cli

    out = report_dir / f"{job.id}.json"
    if out.exists():
        out.unlink()
    argv = job.argv(corpus_dir, out)
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # a crash fails the job, not the benchmark
        traceback.print_exc(file=sys.stderr)
        rc = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    try:
        with open(out, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = None
    try:
        problems = checker.check(job, rc, report)
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"malformed report: {type(exc).__name__}: {exc}"]
    return Outcome(job, seconds, report, problems)


def _run_round(jobs, corpus_dir, report_dir, checker, tracer=None, first_index=0):
    outcomes = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first_index + i
        outcomes.append(_run_job(job, corpus_dir, report_dir, checker))
    return outcomes


def _build(workload, seed, corpus_dir, smoke):
    """One timed corpus build: (jobs, set-up seconds, generator seconds)."""
    import corpus

    if corpus_dir.exists():
        shutil.rmtree(corpus_dir)
    corpus_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    jobs, generator_s = corpus.build(workload, seed, corpus_dir, smoke=smoke)
    return jobs, time.perf_counter() - t0, generator_s


def _cpu_probe():
    """Seconds for a fixed pure-Python loop. It does not time the program;
    it tells a run that fell into a slow stretch of a shared CPU apart."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _best_seconds(rounds):
    """Each job's fastest repetition over `rounds`, in job-list order."""
    return [min(r[i].seconds for r in rounds) for i in range(len(rounds[0]))]


def run_workload(workload, seed, seconds, trace, work_dir, smoke=False):
    """Set up, warm up, then run whole rounds for `seconds` of job time.

    Returns a dict with the metrics of the requested mode, the attempted and
    failed job counts, the behaviour digest and per-job figures.
    """
    from checks import Checker
    from tracing import Tracer

    work_dir = Path(work_dir)
    corpus_dir, report_dir = work_dir / "corpus", work_dir / "reports"
    jobs, first_setup_s, first_generator_s = _build(workload, seed, corpus_dir, smoke)
    setup_s, generator_s = [first_setup_s], [first_generator_s]
    report_dir.mkdir(parents=True, exist_ok=True)
    checker = Checker(corpus_dir)

    # A traced run alternates untraced and traced rounds; the untraced ones
    # are the reference for the tracing overhead.
    rounds, plain, probe_s = [], [], []
    job_s = 0.0

    def run_round(tracer=None):
        nonlocal job_s
        first = len(jobs) * (1 + len(rounds) + len(plain))  # job id of the round's first job
        probe_s.append(_cpu_probe())
        outcomes = _run_round(jobs, corpus_dir, report_dir, checker, tracer, first)
        job_s += sum(o.seconds for o in outcomes)
        # Set-up is repeated into a spare directory after every `seconds /
        # SETUP_REPS` of job time, so that its fastest repetition is taken
        # over the whole run, like the jobs'.
        if job_s >= len(setup_s) * seconds / SETUP_REPS:
            _, s, g = _build(workload, seed, work_dir / "setup", smoke)
            setup_s.append(s)
            generator_s.append(g)
        return outcomes

    warmup = run_round()
    digest = _digest(warmup)
    tracer = Tracer() if trace else None
    while not rounds or sum(o.seconds for r in rounds + plain for o in r) < seconds:
        if tracer is None:
            rounds.append(run_round())
        else:
            plain.append(run_round())
            with tracer:
                rounds.append(run_round(tracer))

    everything = warmup + [o for r in rounds + plain for o in r]
    failed = [o for o in everything if o.problems]
    deterministic = all(_digest(r) == digest for r in rounds + plain)
    best = _best_seconds(rounds)
    solve_queries = [o.report["total_queries"] for o in warmup if o.job.command == "solve" and o.report]
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "correct": deterministic,
        "attempted": len(everything),
        "failed": len(failed),
        "rounds": len(rounds),
        "digest": digest,
        "setup_s": setup_s,
        "cpu_probe_ms": 1e3 * statistics.median(probe_s),
        "problems": [f"{o.job.id}: {p}" for o in failed for p in o.problems],
        "jobs": [
            {
                "id": job.id,
                "algorithm": job.algorithm or job.command,
                "queries": (warmup[i].report or {}).get("total_queries"),
                "ms_best": 1e3 * best[i],
                "ms_median": 1e3 * statistics.median(r[i].seconds for r in rounds),
            }
            for i, job in enumerate(jobs)
        ],
    }
    if trace:
        result["metrics"] = _layer_metrics(tracer, rounds, plain, generator_s)
        result["tracer"] = tracer
    else:
        result["metrics"] = {
            "jobs_per_s": (len(best) / sum(best), "jobs/s"),
            "solve_ms_p50": (1e3 * statistics.median(best), "ms"),
            "queries_per_job": (statistics.fmean(solve_queries) if solve_queries else 0.0, "queries"),
            "setup_s": (min(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return result


def _layer_metrics(tracer, rounds, plain, generator_s):
    """Per-layer figures, normalised per traced job (or per call/visit)."""
    from tracing import SOLVER_SPANS

    jobs = sum(len(r) for r in rounds)
    calls, total, self_s, c = tracer.calls, tracer.total_s, tracer.self_s, tracer.counters

    def per_job_ms(name):
        return 1e3 * total[name] / jobs

    def us_per_call(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    queries = sum(
        o.report["total_queries"] for r in rounds for o in r if o.job.command == "solve" and o.report
    )
    plain_s, traced_s = sum(_best_seconds(plain)), sum(_best_seconds(rounds))
    return {
        "oracle.marginal.calls": (calls["oracle.marginal"] / jobs, "calls/job"),
        "oracle.marginal.us_per_call": (us_per_call("oracle.marginal"), "us/call"),
        "oracle.eval.calls": (calls["oracle.eval"] / jobs, "calls/job"),
        "oracle.eval.us_per_call": (us_per_call("oracle.eval"), "us/call"),
        "oracle.value_table.ms": (per_job_ms("oracle.value_table"), "ms/job"),
        "oracle.validate.ms": (per_job_ms("oracle.validate"), "ms/job"),
        "oracle.load_instance.ms": (per_job_ms("oracle.load_instance"), "ms/job"),
        "algorithms.select.queries": ((queries - c["delete.queries"]) / jobs, "queries/job"),
        "algorithms.select.ms": (1e3 * c["select.oracle_s"] / jobs, "ms/job"),
        "algorithms.delete.calls": (calls["algorithms.delete"] / jobs, "calls/job"),
        "algorithms.delete.queries": (c["delete.queries"] / jobs, "queries/job"),
        "algorithms.delete.ms": (per_job_ms("algorithms.delete"), "ms/job"),
        "algorithms.delete.removed_per_visit": (
            c["delete.removed"] / c["delete.visited"] if c["delete.visited"] else 0.0,
            "ratio",
        ),
        "algorithms.mw_packing.calls": (calls["algorithms.mw_packing"] / jobs, "calls/job"),
        "algorithms.solver.self_ms": (
            1e3 * sum(self_s[name] for name in SOLVER_SPANS) / jobs,
            "ms/job",
        ),
        "constraints.exchange_bijection.calls": (
            calls["constraints.exchange_bijection"] / jobs,
            "calls/job",
        ),
        "constraints.exchange_bijection.ms": (per_job_ms("constraints.exchange_bijection"), "ms/job"),
        "constraints.max_weight_base.ms": (per_job_ms("constraints.max_weight_base"), "ms/job"),
        "constraints.is_feasible.ms": (per_job_ms("constraints.is_feasible"), "ms/job"),
        "constraints.load_constraint.ms": (per_job_ms("constraints.load_constraint"), "ms/job"),
        "exact.brute_force_opt.ms": (per_job_ms("exact.brute_force_opt"), "ms/job"),
        "exact.feasible_mask_array.ms": (per_job_ms("exact.feasible_mask_array"), "ms/job"),
        "exact.sets_enumerated": (c["exact.sets_enumerated"] / jobs, "sets/job"),
        "cli.self_ms": (1e3 * self_s["cli.main"] / jobs, "ms/job"),
        "generators.ms": (1e3 * statistics.median(generator_s), "ms"),
        "trace.overhead_pct": (100.0 * (traced_s / plain_s - 1.0), "%"),
    }


def _machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None):
    import corpus

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", help="results file label (default: workload-seed-trace)")
    args = p.parse_args(argv)
    label = args.label or f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if not re.fullmatch(r"[A-Za-z0-9_.-]{1,100}", label):
        p.error("--label may hold only letters, digits, '_', '.' and '-'")

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        res = run_workload(args.workload, args.seed, args.seconds, args.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    tracer = res.pop("tracer", None)
    if tracer is not None:
        spans_file = OUT / f"spans_{label}.jsonl"
        tracer.write_spans(spans_file)
        res["spans_file"] = spans_file.name
        res["spans_recorded"] = tracer.span_count
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    res["metrics"] = metrics
    res["machine"] = _machine()
    with open(OUT / f"BENCH_{label}.json", "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for problem in res["problems"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{res['attempted']} jobs attempted, {res['failed']} failed, {res['rounds']} timed rounds"
    )
    print(f"digest {args.workload} {res['digest']}")
    if not res["correct"]:
        print("behaviour changed between rounds: outputs are not deterministic")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    _import_package()
    sys.exit(main())

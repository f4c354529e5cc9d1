"""Command-line surface: solve / exact / verify / bench / tight-example.

Reports are JSON with sorted keys so reruns of deterministic commands are
byte-identical; wall-clock timing is therefore opt-in (--timing) for solve
and exact. Exit codes: 0 ok, 1 input error, 2 infeasible solver output
(signals a bug), 3 validation violations found.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
import time
from typing import Callable, NamedTuple

from . import algorithms, constraints, exact, generators, oracle as oracle_mod


class UsageError(Exception):
    pass


class Solver(NamedTuple):
    accepts: tuple  # constraint classes
    needs_epsilon: bool
    run: Callable  # (oracle, constraint, args) -> RunTrace


# Each call looks its solver up in `algorithms` when it runs, so that a solver
# swapped on the module (e.g. by a tracer) is the one that runs.
SOLVERS = {
    "greedy-card": Solver(
        (constraints.CardinalityConstraint,),
        needs_epsilon=False,
        run=lambda orc, cons, args: algorithms.greedy_cardinality(orc, cons.k),
    ),
    "sample-greedy-card": Solver(
        (constraints.CardinalityConstraint,),
        needs_epsilon=True,
        run=lambda orc, cons, args: algorithms.sample_greedy_cardinality(
            orc, cons.k, args.epsilon, seed=args.seed
        ),
    ),
    "greedy-matroid": Solver(
        (constraints.Matroid,),
        needs_epsilon=True,
        run=lambda orc, cons, args: algorithms.greedy_matroid(orc, cons, args.epsilon),
    ),
    "mw-packing": Solver(
        (constraints.PackingConstraint, constraints.KnapsackConstraint),
        needs_epsilon=True,
        run=lambda orc, cons, args: algorithms.mw_packing(
            orc, cons, args.epsilon, lambda_override=args.lambda_override
        ),
    ),
    "knapsack-enum": Solver(
        (constraints.KnapsackConstraint,),
        needs_epsilon=False,
        run=lambda orc, cons, args: algorithms.knapsack_enum(
            orc, cons, epsilon=0.1 if args.epsilon is None else args.epsilon
        ),
    ),
}


def _hash_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_report(report, out):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(instance_path, constraint_path):
    orc = oracle_mod.load_instance(instance_path)
    cons = constraints.load_constraint(constraint_path, n=orc.n)
    constraints.check_ground_set(cons, orc.n)
    return orc, cons


class Solved(NamedTuple):
    oracle: object
    constraint: object
    trace: object
    elapsed_ms: float
    exact: object  # ExactResult, or None when not asked for
    ratio: object  # float or "vacuous", or None when not asked for


def _solve(instance_path, constraint_path, args, with_exact):
    """Load, run and time the solver, with the brute-force optimum when asked
    for. The optimum comes first, so that its 2^n table serves the solver's
    queries; the timing covers the solver alone."""
    orc, cons = _load(instance_path, constraint_path)
    solver = SOLVERS.get(args.algorithm)
    if solver is None:
        raise UsageError(f"unknown algorithm {args.algorithm!r}")
    if not isinstance(cons, solver.accepts):
        kinds = " or ".join(
            c.__name__.removesuffix("Constraint").lower() for c in solver.accepts
        )
        raise UsageError(f"{args.algorithm} requires a {kinds} constraint")
    if solver.needs_epsilon and args.epsilon is None:
        raise UsageError(f"{args.algorithm} requires --epsilon")
    if args.lambda_override is not None and not math.isfinite(args.lambda_override):
        raise UsageError(f"--lambda-override must be finite, got {args.lambda_override}")
    res = exact.brute_force_opt(orc, cons) if with_exact else None
    t0 = time.perf_counter()
    trace = solver.run(orc, cons, args)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    rat = None
    if with_exact:
        rat = exact.ratio(trace, res)
        rat = "vacuous" if rat == exact.VACUOUS else rat
    return Solved(orc, cons, trace, elapsed_ms, res, rat)


def cmd_solve(args):
    run = _solve(args.instance, args.constraint, args, args.exact)
    feasible = run.constraint.is_feasible(run.trace.final_set)
    report = {
        "command": "solve",
        "instance": args.instance,
        "instance_sha256": _hash_file(args.instance),
        "constraint": constraints.constraint_to_dict(run.constraint),
        "algorithm": args.algorithm,
        "feasible": feasible,
    }
    report.update(run.trace.to_dict(include_rounds=args.trace))
    if args.lambda_override is not None:
        report["lambda_override"] = args.lambda_override
    if run.exact is not None:
        report["opt_value"] = run.exact.opt_value
        report["opt_witness"] = list(run.exact.witness)
        report["ratio"] = run.ratio
    if args.timing:
        report["duration_ms"] = run.elapsed_ms
    _write_report(report, args.out)
    return 0 if feasible else 2


def cmd_exact(args):
    orc, cons = _load(args.instance, args.constraint)
    res = exact.brute_force_opt(orc, cons)
    report = {
        "command": "exact",
        "instance": args.instance,
        "instance_sha256": _hash_file(args.instance),
        "constraint": constraints.constraint_to_dict(cons),
        "opt_value": res.opt_value,
        "witness": list(res.witness),
        "sets_enumerated": res.sets_enumerated,
    }
    _write_report(report, args.out)
    return 0


def cmd_verify(args):
    orc = oracle_mod.load_instance(args.instance)
    if args.exhaustive:
        rep = oracle_mod.validate(orc, mode="exhaustive")
    else:
        rep = oracle_mod.validate(orc, mode="sampled", trials=args.trials, seed=args.seed)
    report = {
        "command": "verify",
        "instance": args.instance,
        "instance_sha256": _hash_file(args.instance),
        **rep.to_dict(),
    }
    _write_report(report, args.out)
    return 0 if rep.valid else 3


def cmd_tight_example(args):
    te = generators.tight_example(args.k)
    sidecar = {
        "optimal_value": te.optimal_value,
        "witness": list(te.optimal_ids),
        "certified_by": te.certified_by,
        "k": te.k,
        "c": te.c,
        "greedy_value": te.greedy_value,
    }
    generators.write_instance_with_sidecar(te.graph, args.out, sidecar)
    return 0


def _is_finite_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# bench manifest entry field -> (test its value must pass, what the test asks for)
MANIFEST_FIELDS = {
    "instance": (lambda v: isinstance(v, str), "a path"),
    "constraint": (lambda v: isinstance(v, str), "a path"),
    "algorithm": (lambda v: isinstance(v, str), "a solver name"),
    "epsilon": (_is_finite_number, "a finite number"),
    "lambda_override": (_is_finite_number, "a finite number"),
    "seed": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "exact": (lambda v: isinstance(v, bool), "true or false"),
}


def _bench_row(entry):
    if not isinstance(entry, dict) or not {"instance", "constraint", "algorithm"} <= entry.keys():
        raise UsageError(f"manifest entry needs instance, constraint and algorithm: {entry!r}")
    for name, (ok, what) in MANIFEST_FIELDS.items():
        if name in entry and not ok(entry[name]):
            raise UsageError(f"manifest field {name} must be {what}, got {entry[name]!r}")
    ns = argparse.Namespace(
        algorithm=entry["algorithm"],
        epsilon=entry.get("epsilon"),
        seed=entry.get("seed", 0),
        lambda_override=entry.get("lambda_override"),
    )
    run = _solve(entry["instance"], entry["constraint"], ns, entry.get("exact", False))
    cons = run.constraint
    k = getattr(cons, "k", getattr(cons, "rank", ""))
    opt_s, ratio_s = "", ""
    if run.exact is not None:
        opt_s = f"{run.exact.opt_value:.12g}"
        ratio_s = run.ratio if run.ratio == "vacuous" else f"{run.ratio:.12g}"
    return [
        entry["instance"],
        entry["algorithm"],
        run.oracle.n,
        k,
        f"{run.trace.final_value:.12g}",
        opt_s,
        ratio_s,
        run.trace.total_queries,
        f"{run.elapsed_ms:.3f}",
    ]


def cmd_bench(args):
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, list):
            raise ValueError("manifest must be a list of run entries")
    except (OSError, ValueError) as exc:
        print(f"error: bad manifest: {exc}", file=sys.stderr)
        return 1
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["instance", "algorithm", "n", "k", "value", "opt", "ratio", "queries", "millis"]
    )
    for entry in manifest:
        writer.writerow(_bench_row(entry))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="symsubmax",
        description="Solvers and exact baselines for symmetric submodular maximization.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run a solver on an instance/constraint pair")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--constraint", required=True)
    sp.add_argument("--algorithm", required=True, choices=sorted(SOLVERS))
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trace", action="store_true", help="include per-round trace")
    sp.add_argument("--exact", action="store_true", help="attach brute-force optimum")
    sp.add_argument("--timing", action="store_true", help="include wall-clock duration")
    sp.add_argument("--lambda-override", type=float, dest="lambda_override")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_solve)

    ep = sub.add_parser("exact", help="brute-force optimum (n <= 24)")
    ep.add_argument("--instance", required=True)
    ep.add_argument("--constraint", required=True)
    ep.add_argument("--out")
    ep.set_defaults(func=cmd_exact)

    vp = sub.add_parser("verify", help="validate oracle symmetry/submodularity")
    vp.add_argument("--instance", required=True)
    vp.add_argument("--exhaustive", action="store_true")
    vp.add_argument("--trials", type=int, default=1000)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--out")
    vp.set_defaults(func=cmd_verify)

    bp = sub.add_parser("bench", help="run a manifest of tuples, emit CSV")
    bp.add_argument("--manifest", required=True)
    bp.add_argument("--out")
    bp.set_defaults(func=cmd_bench)

    tp = sub.add_parser("tight-example", help="emit the worst-case greedy instance")
    tp.add_argument("--k", type=int, required=True)
    tp.add_argument("--out", required=True)
    tp.set_defaults(func=cmd_tight_example)

    return p


# argparse keeps no state between parses, and SOLVERS, the source of the
# --algorithm choices, is fixed at import; so one parser serves every call.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        UsageError,
        oracle_mod.OracleError,
        constraints.ConstraintError,
        algorithms.ParameterError,
        generators.GeneratorError,
        exact.InstanceTooLargeError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

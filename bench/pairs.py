"""Alternating parent/change benchmark pairs for one workload.

    python3 bench/pairs.py --parent ../parent --change . --workload small-exact \
        --pairs 10 --seed 101 --out bench/prN

`--parent` and `--change` are two source trees, each with `src/` and
`perfbench/` (a parent tree can be made with `git archive <rev> | tar -x -C
DIR`). Pair i runs seed `--seed` + i on both sides, the parent first in
even-numbered pairs (counting from 0) and the change first in odd-numbered
ones. Before each run, the side is copied to a fresh temporary directory
without `__pycache__`, `.hypothesis`, `.pytest_cache`, `.git` or
`perfbench/out`, because the state of a checkout moves `peak_rss_mb`. The run
is BENCHMARK.json's `command` with `--workload`, `--seed`, `--seconds`
(`run_seconds`) and `--label <parent|change>-<workload>-seed<N>`; its
`BENCH_<label>.json` is copied into `--out`.

With `--summarize`, nothing runs and the summary is read from the files
already in `--out`. For each end-to-end metric of BENCHMARK.json (read, never
written) the summary gives the median and quartiles per side, how many pairs
the change won, and whether a gain claim would hold: wins in at least 9 of
10 pairs, and a median gap in the better direction larger than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {"__pycache__", ".hypothesis", ".pytest_cache", ".git"}
SIDES = ("parent", "change")


def quartiles(values):
    """(lower quartile, median, upper quartile), interpolating linearly
    between order statistics as numpy's default percentile does."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics):
    """One summary row per metric.

    `pairs` is a list of (parent, change) dicts of metric name to value, one
    per seed; `metrics` is BENCHMARK.json's `end_to_end` list. A pair counts
    as a win when the change's value is better, strictly, in the metric's
    direction. `claim` holds when the change wins at least 9 in 10 pairs
    and its median beats the parent's by more than the parent's IQR.
    """
    rows = []
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        par = [p[name] for p, _ in pairs]
        chg = [c[name] for _, c in pairs]
        p1, p2, p3 = quartiles(par)
        c1, c2, c3 = quartiles(chg)
        wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        rows.append(
            {
                "metric": name,
                "parent": (p1, p2, p3),
                "change": (c1, c2, c3),
                "wins": wins,
                "pairs": len(pairs),
                "claim": 10 * wins >= 9 * len(pairs) and sign * (c2 - p2) > p3 - p1,
            }
        )
    return rows


def format_summary(rows):
    lines = []
    for r in rows:
        (p1, p2, p3), (c1, c2, c3) = r["parent"], r["change"]
        lines.append(
            f"{r['metric']}: parent {p2:.6g} [{p1:.6g}, {p3:.6g}] -> change {c2:.6g}"
            f" [{c1:.6g}, {c3:.6g}], better in {r['wins']} of {r['pairs']},"
            f" claim {'holds' if r['claim'] else 'does not hold'}"
        )
    return "\n".join(lines)


def _label(side, workload, seed):
    return f"{side}-{workload}-seed{seed}"


def _ignore(directory, names):
    skipped = [name for name in names if name in SKIPPED]
    if Path(directory).name == "perfbench" and "out" in names:
        skipped.append("out")
    return skipped


def run_one(tree, side, workload, seed, bench, out):
    """Run one benchmark from a fresh copy of `tree` and copy its results
    file into `out`; return the path of the copy."""
    label = _label(side, workload, seed)
    with tempfile.TemporaryDirectory(prefix=f"pairs-{side}-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=_ignore)
        argv = [*bench["command"], "--workload", workload, "--seed", str(seed)]
        argv += ["--seconds", str(bench["run_seconds"]), "--label", label]
        subprocess.run(argv, cwd=copy, check=True, stdout=subprocess.DEVNULL)
        dest = out / f"BENCH_{label}.json"
        shutil.copyfile(copy / "perfbench" / "out" / f"BENCH_{label}.json", dest)
    return dest


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _values(res):
    return {name: m["value"] for name, m in res["metrics"].items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, help="parent source tree")
    p.add_argument("--change", type=Path, default=ROOT, help="change source tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--summarize", action="store_true", help="only summarize files in --out")
    args = p.parse_args(argv)
    bench = _read(ROOT / "BENCHMARK.json")
    seeds = range(args.seed, args.seed + args.pairs)
    if not args.summarize:
        if args.parent is None:
            p.error("--parent is required unless --summarize is given")
        args.out.mkdir(parents=True, exist_ok=True)
        trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                dest = run_one(trees[side], side, args.workload, seed, bench, args.out)
                print(f"pair {i + 1}/{args.pairs} {side}: {dest}", flush=True)
    results = {
        side: [_read(args.out / f"BENCH_{_label(side, args.workload, s)}.json") for s in seeds]
        for side in SIDES
    }
    pairs = list(zip(*(map(_values, results[side]) for side in SIDES)))
    same = sum(p["digest"] == c["digest"] for p, c in zip(*results.values()))
    failed = {side: sum(r["failed"] for r in results[side]) for side in SIDES}
    print(f"{args.workload}: digests identical in {same} of {len(pairs)} pairs;"
          f" failed jobs parent {failed['parent']}, change {failed['change']}")
    print(format_summary(summarize(pairs, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded corpora and job lists for the two benchmark workloads.

A corpus is a set of instance files (written with ``save_instance``) and
constraint files (plain JSON in the CLI's constraint format). A job is one
``symsubmax`` CLI invocation over those files. Everything derives from the
workload seed, so one seed always gives the same files and the same jobs.

Sizes are chosen so that no job takes much more than 150 ms and a round
of a workload's job list about a second on a 2-core machine at the seed
commit, and so that the cost of a round varies little between seeds: edge
counts stay within a few percent of their mean, only the random draws
change, and knapsack weights are a seeded permutation of a fixed list, so
the number of feasible enumeration seeds is the same for every seed.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from symsubmax import generators
from symsubmax.oracle import graph_cut_oracle, hypergraph_cut_oracle, save_instance

@dataclass
class Job:
    """One CLI call. `tight_k` marks a run on `tight_example(tight_k)`."""

    id: str
    command: str  # "solve" or "verify"
    instance: str  # file name inside the corpus directory
    constraint: str | None = None
    algorithm: str | None = None
    epsilon: float | None = None
    seed: int | None = None
    exact: bool = False
    tight_k: int | None = None

    def argv(self, corpus_dir, out_path):
        argv = [self.command, "--instance", str(Path(corpus_dir) / self.instance)]
        if self.command == "verify":
            return argv + ["--exhaustive", "--out", str(out_path)]
        argv += ["--constraint", str(Path(corpus_dir) / self.constraint)]
        argv += ["--algorithm", self.algorithm]
        if self.epsilon is not None:
            argv += ["--epsilon", repr(self.epsilon)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        if self.exact:
            argv.append("--exact")
        return argv + ["--out", str(out_path)]


class _Writer:
    """Writes one corpus and times the generator calls separately."""

    def __init__(self, corpus_dir, seed):
        self.dir = Path(corpus_dir)
        self.seed = seed
        self.generator_s = 0.0
        self._draws = 0

    def next_seed(self):
        self._draws += 1
        return self.seed * 1000 + self._draws

    def _timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.generator_s += time.perf_counter() - t0
        return out

    def graph(self, name, n, p, draws=8):
        """The one of `draws` random_graph(n, p) draws whose edge count is
        closest to the mean n(n-1)p/2 (the first on a tie). Query and table
        costs grow with the edge count, which on small graphs varies by
        10-20% between plain draws. The number of draws is fixed, so that
        set-up does the same work for every seed."""
        mean = p * n * (n - 1) / 2
        candidates = [
            self._timed(generators.random_graph, n, p, (0.0, 2.0), seed=self.next_seed())
            for _ in range(draws)
        ]
        g = min(candidates, key=lambda c: abs(len(c.edges) - mean))
        save_instance(graph_cut_oracle(g), self.dir / name)
        return name

    def hypergraph(self, name, n, m, max_arity):
        hg = self._timed(
            generators.random_hypergraph, n, m, max_arity, (0.0, 2.0), seed=self.next_seed()
        )
        save_instance(hypergraph_cut_oracle(hg), self.dir / name)
        return name

    def tight(self, name, k):
        te = self._timed(generators.tight_example, k)
        save_instance(graph_cut_oracle(te.graph), self.dir / name)
        return name

    def constraint(self, name, obj):
        with open(self.dir / name, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
            fh.write("\n")
        return name

    def knapsack(self, name, n, budget_share):
        """Weights are a seeded permutation of the fixed list 1..n (scaled),
        so the feasible-seed count of knapsack-enum does not depend on the
        seed. The budget is a fixed share of the total weight."""
        rng = random.Random(self.next_seed())
        weights = [(i + 1) / n for i in range(n)]
        rng.shuffle(weights)
        budget = budget_share * sum(weights)
        return self.constraint(name, {"type": "knapsack", "weights": weights, "budget": budget})

    def packing(self, name, n, m, b):
        rng = random.Random(self.next_seed())
        A = [[rng.uniform(0.1, 1.0) for _ in range(n)] for _ in range(m)]
        return self.constraint(name, {"type": "packing", "A": A, "b": [b] * m})


def _partition(n, parts, limits):
    """Parts are the residue classes of ids mod `parts` (covers 0..n-1)."""
    return {
        "type": "partition-matroid",
        "parts": [list(range(i, n, parts)) for i in range(parts)],
        "limits": list(limits),
    }


def _graph_card(w, smoke):
    # Sparse graphs (100-150 edges) keep every job near 100 ms or less: on a
    # shared CPU a short job is more often timed whole at the fast speed, and
    # the metrics take each job's fastest repetition.
    sizes = [(200, 0.02, 2), (100, 0.05, 4)]
    if not smoke:
        sizes = [(1000, 0.0002, 2), (300, 0.003, 4), (100, 0.03, 10)]
    jobs = []
    for n, p, k in sizes:
        # A draw of the n = 1000 graph costs about 50 ms, the others a few ms.
        inst = w.graph(f"g{n}.json", n, p, draws=3 if n >= 1000 else 8)
        card = w.constraint(f"card{k}-{n}.json", {"type": "cardinality", "k": k})
        jobs.append(Job(f"greedy-g{n}", "solve", inst, card, "greedy-card"))
    # sample-greedy on the largest and the smallest graph
    for n, k, eps in [(200, 4, 0.5)] if smoke else [(1000, 10, 0.5), (100, 10, 0.2)]:
        card = w.constraint(f"scard{k}-{n}.json", {"type": "cardinality", "k": k})
        jobs.append(
            Job(f"sample-g{n}", "solve", f"g{n}.json", card, "sample-greedy-card",
                epsilon=eps, seed=w.seed)
        )
    for k in [10] if smoke else [10, 12]:
        inst = w.tight(f"tight{k}.json", k)
        card = w.constraint(f"card{k}-tight.json", {"type": "cardinality", "k": k})
        jobs.append(Job(f"tight{k}", "solve", inst, card, "greedy-card", tight_k=k))
    return jobs


def _small_exact(w, smoke):
    if smoke:
        w.graph("gA.json", 10, 0.4)
        w.hypergraph("hA.json", 9, 20, 4)
        w.constraint("card3.json", {"type": "cardinality", "k": 3})
        w.constraint("card8.json", {"type": "cardinality", "k": 8})
        w.constraint("part-gA.json", _partition(10, 3, [1, 1, 1]))
        w.knapsack("knap-gA.json", 10, 0.3)
        return [
            Job("greedy-gA", "solve", "gA.json", "card3.json", "greedy-card", exact=True),
            Job("greedy-gA-k8", "solve", "gA.json", "card8.json", "greedy-card", exact=True),
            Job("matroid-gA", "solve", "gA.json", "part-gA.json", "greedy-matroid",
                epsilon=0.2, exact=True),
            Job("mw-gA", "solve", "gA.json", "knap-gA.json", "mw-packing", epsilon=0.3,
                exact=True),
            Job("knap-gA", "solve", "gA.json", "knap-gA.json", "knapsack-enum", exact=True),
            Job("verify-hA", "verify", "hA.json"),
        ]
    w.graph("gA.json", 16, 0.4)
    # Sizes keep every job near 150 ms or less at the fast CPU speed (see
    # _graph_card for why short jobs).
    w.graph("gB.json", 18, 0.18)
    w.graph("gC.json", 19, 0.11)
    w.hypergraph("hA.json", 14, 30, 4)
    w.hypergraph("hB.json", 17, 40, 5)
    w.hypergraph("hD.json", 23, 55, 5)
    w.constraint("card4.json", {"type": "cardinality", "k": 4})
    w.constraint("card5.json", {"type": "cardinality", "k": 5})
    w.constraint("card6.json", {"type": "cardinality", "k": 6})
    w.constraint("card10.json", {"type": "cardinality", "k": 10})
    w.constraint("card12.json", {"type": "cardinality", "k": 12})
    w.constraint("uni4-hA.json", {"type": "uniform-matroid", "k": 4})
    w.constraint("uni10-hD.json", {"type": "uniform-matroid", "k": 10})
    w.constraint("part-gA.json", _partition(16, 4, [1, 1, 1, 1]))
    w.packing("pack-gA.json", 16, 2, 3.0)
    w.knapsack("knap-gB.json", 18, 0.25)
    w.knapsack("knap-hB.json", 17, 0.3)
    w.knapsack("knap-hD.json", 23, 0.2)
    E = dict(exact=True)
    return [
        Job("greedy-gA", "solve", "gA.json", "card4.json", "greedy-card", **E),
        Job("sample-gA", "solve", "gA.json", "card4.json", "sample-greedy-card",
            epsilon=0.3, seed=w.seed, **E),
        Job("greedy-hB", "solve", "hB.json", "card5.json", "greedy-card", **E),
        Job("sample-hB", "solve", "hB.json", "card5.json", "sample-greedy-card",
            epsilon=0.2, seed=w.seed, **E),
        # k close to n: late rounds add elements that Delete then removes
        Job("greedy-gA-k12", "solve", "gA.json", "card12.json", "greedy-card", **E),
        Job("sample-hA-k10", "solve", "hA.json", "card10.json", "sample-greedy-card",
            epsilon=0.3, seed=w.seed, **E),
        Job("greedy-gB", "solve", "gB.json", "card6.json", "greedy-card", **E),
        Job("greedy-gC", "solve", "gC.json", "card5.json", "greedy-card", **E),
        Job("matroid-gA", "solve", "gA.json", "part-gA.json", "greedy-matroid",
            epsilon=0.2, **E),
        Job("matroid-hA", "solve", "hA.json", "uni4-hA.json", "greedy-matroid",
            epsilon=0.2, **E),
        # rank 10 of n = 23: the one job whose matroid exchange step has weight
        Job("matroid-hD", "solve", "hD.json", "uni10-hD.json", "greedy-matroid", epsilon=0.3),
        Job("mw-pack-gA", "solve", "gA.json", "pack-gA.json", "mw-packing", epsilon=0.3, **E),
        Job("mw-knap-hB", "solve", "hB.json", "knap-hB.json", "mw-packing", epsilon=0.3, **E),
        Job("mw-knap-hD", "solve", "hD.json", "knap-hD.json", "mw-packing", epsilon=0.3),
        Job("knap-gB", "solve", "gB.json", "knap-gB.json", "knapsack-enum", **E),
        Job("knap-hB", "solve", "hB.json", "knap-hB.json", "knapsack-enum", **E),
        Job("knap-hD", "solve", "hD.json", "knap-hD.json", "knapsack-enum"),
        Job("verify-gA", "verify", "gA.json"),
        Job("verify-hA", "verify", "hA.json"),
        Job("verify-hB", "verify", "hB.json"),
    ]


_BUILDERS = {
    "graph-card": _graph_card,
    "small-exact": _small_exact,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload, seed, corpus_dir, smoke=False):
    """Write the corpus of `workload` for `seed` into `corpus_dir`.

    Returns (jobs, seconds spent inside `generators`). `smoke` selects a
    corpus small enough for the benchmark's own tests.
    """
    w = _Writer(corpus_dir, seed)
    jobs = _BUILDERS[workload](w, smoke)
    return jobs, w.generator_s

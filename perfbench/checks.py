"""Output checks written apart from `symsubmax`.

Every check here reads the instance and constraint files itself and uses its
own linear-algebra evaluation of cut functions, so a fault in the package's
oracle, constraint or exact code cannot hide behind the same fault in the
check. Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-7
ENUM_MAX_N = 22  # largest n whose 2^n subsets the checks enumerate
_CHUNK_BITS = 16


def _close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


class CutFunction:
    """Graph or hypergraph cut value, from the instance file alone."""

    def __init__(self, obj):
        self.kind = obj["type"]
        self.n = int(obj["n"])
        self._matrix = None
        if self.kind == "graph-cut":
            e = np.asarray(obj["edges"], dtype=np.float64).reshape(-1, 3)
            self.u = e[:, 0].astype(np.int64)
            self.v = e[:, 1].astype(np.int64)
            self.w = e[:, 2]
        elif self.kind == "hypergraph-cut":
            members = [np.asarray(h["members"], dtype=np.int64) for h in obj["edges"]]
            self.w = np.asarray([h["w"] for h in obj["edges"]], dtype=np.float64)
            self.sizes = np.asarray([len(m) for m in members], dtype=np.int64)
            self.edge_of = np.repeat(np.arange(len(members)), self.sizes)
            self.flat = np.concatenate(members) if members else np.zeros(0, np.int64)
        else:
            raise ValueError(f"no independent evaluator for instance type {self.kind!r}")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def value(self, S):
        x = np.zeros(self.n, dtype=bool)
        x[list(S)] = True
        if self.kind == "graph-cut":
            return float(self.w[x[self.u] != x[self.v]].sum())
        inside = np.bincount(self.edge_of, weights=x[self.flat], minlength=len(self.w))
        return float(self.w[(inside > 0) & (inside < self.sizes)].sum())

    def values(self, X):
        """Cut values of the rows of a 0/1 matrix X (one subset per row)."""
        if self.kind == "graph-cut":
            if self._matrix is None:  # the graph Laplacian
                L = np.zeros((self.n, self.n))
                np.add.at(L, (self.u, self.u), self.w)
                np.add.at(L, (self.v, self.v), self.w)
                np.add.at(L, (self.u, self.v), -self.w)
                np.add.at(L, (self.v, self.u), -self.w)
                self._matrix = L
            return np.einsum("ij,ij->i", X @ self._matrix, X)  # x^T L x is the cut weight
        if self._matrix is None:  # the vertex-hyperedge incidence matrix
            self._matrix = np.zeros((self.n, len(self.w)))
            self._matrix[self.flat, self.edge_of] = 1.0
        inside = X @ self._matrix
        return ((inside > 0) & (inside < self.sizes)) @ self.w


class Constraint:
    """Feasibility and the solver-relevant sizes, from the constraint file."""

    def __init__(self, obj, n):
        self.kind = obj["type"]
        self.n = n
        if self.kind in ("cardinality", "uniform-matroid"):
            self.k = int(obj["k"])
        elif self.kind == "partition-matroid":
            self.parts = [list(p) for p in obj["parts"]]
            self.limits = [int(l) for l in obj["limits"]]
            self.k = sum(min(l, len(p)) for p, l in zip(self.parts, self.limits))
        elif self.kind == "knapsack":
            self.weights = np.asarray(obj["weights"], dtype=np.float64)
            self.budget = float(obj["budget"])
        elif self.kind == "packing":
            self.A = np.asarray(obj["A"], dtype=np.float64)
            self.b = np.asarray(obj["b"], dtype=np.float64)
        else:
            raise ValueError(f"unknown constraint type {self.kind!r}")

    @classmethod
    def load(cls, path, n):
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh), n)

    def feasible_rows(self, X):
        """Feasibility of each row of a 0/1 matrix X."""
        if self.kind in ("cardinality", "uniform-matroid"):
            return X.sum(axis=1) <= self.k
        if self.kind == "partition-matroid":
            P = np.zeros((self.n, len(self.parts)))
            for i, part in enumerate(self.parts):
                P[part, i] = 1.0
            covered = P.sum(axis=1) > 0
            return np.all(X @ P <= self.limits, axis=1) & ~np.any(X[:, ~covered] > 0, axis=1)
        if self.kind == "knapsack":
            return X @ self.weights <= self.budget
        return np.all(X @ self.A.T <= self.b, axis=1)

    def feasible(self, S):
        x = np.zeros((1, self.n))
        x[0, list(S)] = 1.0
        return bool(self.feasible_rows(x)[0])


def enumerate_optimum(f, cons):
    """Best feasible value over all 2^n subsets, in chunks of 2^16 rows."""
    n = f.n
    if n > ENUM_MAX_N:
        raise ValueError(f"enumeration capped at n={ENUM_MAX_N}")
    low = min(n, _CHUNK_BITS)
    low_bits = ((np.arange(1 << low)[:, None] >> np.arange(low)) & 1).astype(np.float64)
    best = -math.inf
    for high in range(1 << (n - low)):
        high_bits = np.array([(high >> i) & 1 for i in range(n - low)], dtype=np.float64)
        X = np.hstack([low_bits, np.broadcast_to(high_bits, (len(low_bits), n - low))])
        ok = cons.feasible_rows(X)
        if ok.any():
            best = max(best, float(f.values(X)[ok].max()))
    return best


def query_cap(algorithm, report, f, cons):
    """The paper's query cap for one solver run, and whether it must be met
    exactly (greedy-card always costs 1 + k(n+1))."""
    n = f.n
    if algorithm == "greedy-card":
        return 1 + cons.k * (n + 1), True
    if algorithm == "sample-greedy-card":
        k, eps = cons.k, report["params"]["epsilon"]
        r = math.ceil((n / k) * math.log(1.0 / eps))
        return k * (r + k + 2), False
    if algorithm == "greedy-matroid":
        k, eps = cons.k, report["params"]["epsilon"]
        K = math.ceil((k / 3) * math.log(1.0 / eps))
        return K * (n + 2 * k + 2), False
    if algorithm == "mw-packing":
        return n * (2 * n + 2), False
    if algorithm == "knapsack-enum":
        w, b = cons.weights, cons.budget
        singles = [j for j in range(n) if w[j] <= b]
        pairs = sum(
            1 for a, i in enumerate(singles) for j in singles[a + 1 :] if w[i] + w[j] <= b
        )
        seeds = 1 + len(singles) + pairs
        return 1 + seeds * (1 + n * (2 * n + 2)), False
    raise ValueError(f"unknown algorithm {algorithm!r}")


DELETE_CHECKED = ("greedy-card", "sample-greedy-card", "greedy-matroid")


class Checker:
    """Checks job reports; caches the enumerated optimum per job."""

    def __init__(self, corpus_dir):
        self.dir = corpus_dir
        self._functions = {}
        self._optima = {}

    def function(self, name):
        if name not in self._functions:
            self._functions[name] = CutFunction.load(f"{self.dir}/{name}")
        return self._functions[name]

    def check(self, job, rc, report):
        if rc != 0:
            return [f"exit code {rc}"]
        if report is None:
            return ["no report written"]
        f = self.function(job.instance)
        if job.command == "verify":
            if report.get("valid") is not True or report.get("mode") != "exhaustive":
                return [f"verify reports {report.get('valid')!r} in mode {report.get('mode')!r}"]
            return []
        cons = Constraint.load(f"{self.dir}/{job.constraint}", f.n)
        return self._check_solve(job, report, f, cons)

    def _check_solve(self, job, report, f, cons):
        problems = []
        S = report["final_set"]
        if S != sorted(set(S)) or any(not 0 <= u < f.n for u in S):
            return [f"final_set {S} is not a sorted id list inside 0..{f.n - 1}"]
        value = f.value(S)
        if not _close(value, report["final_value"]):
            problems.append(f"final_value {report['final_value']} but the set is worth {value}")
        if not cons.feasible(S) or report.get("feasible") is not True:
            problems.append(f"final_set {S} is infeasible")
        cap, exact_cap = query_cap(job.algorithm, report, f, cons)
        q = report["total_queries"]
        if q > cap or (exact_cap and q != cap):
            problems.append(f"{q} queries against cap {cap}")
        if job.algorithm in DELETE_CHECKED:
            for u in S:
                if f.value([v for v in S if v != u]) > value + TOL * max(1.0, value):
                    problems.append(f"Delete property fails: dropping {u} increases f")
        if job.tight_k:
            k = job.tight_k
            closed = (k / 2) * (1 - (1 - 2 / k) ** k)
            if not _close(report["final_value"], closed):
                problems.append(f"tight example value {report['final_value']} != {closed}")
        if job.exact:
            problems += self._check_exact(job, report, f, cons)
        return problems

    def _check_exact(self, job, report, f, cons):
        if "opt_value" not in report:
            return ["--exact report has no opt_value"]
        problems = []
        opt, witness = report["opt_value"], report["opt_witness"]
        if not cons.feasible(witness) or not _close(f.value(witness), opt):
            problems.append(f"witness {witness} is infeasible or not worth {opt}")
        if report["final_value"] > opt + TOL * max(1.0, opt):
            problems.append(f"solver value {report['final_value']} exceeds optimum {opt}")
        if f.n <= ENUM_MAX_N:
            if job.id not in self._optima:
                self._optima[job.id] = enumerate_optimum(f, cons)
            if not _close(self._optima[job.id], opt):
                problems.append(f"opt_value {opt} but enumeration finds {self._optima[job.id]}")
        return problems

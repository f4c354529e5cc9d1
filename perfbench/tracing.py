"""In-memory span tracing around the package's public entry points.

The tracer replaces module functions and class methods of `symsubmax` with
wrappers that record one span per call: name, start, end, parent span and
job id. Nothing inside the package changes; `uninstall` puts every original
back. Self time is a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

SOLVER_SPANS = frozenset(
    {
        "algorithms.greedy_cardinality",
        "algorithms.sample_greedy_cardinality",
        "algorithms.greedy_matroid",
        "algorithms.mw_packing",
        "algorithms.knapsack_enum",
    }
)
ORACLE_QUERY_SPANS = frozenset({"oracle.eval", "oracle.marginal"})
MAX_WRITTEN_SPANS = 100_000  # spans kept for the spans file; aggregates keep counting


def targets():
    """(span name, owner, attribute) for every wrapped entry point."""
    from symsubmax import algorithms, cli, constraints, exact, oracle

    return [
        ("cli.main", cli, "main"),
        ("oracle.load_instance", oracle, "load_instance"),
        ("oracle.validate", oracle, "validate"),
        ("oracle.eval", oracle.Oracle, "eval"),
        ("oracle.marginal", oracle.Oracle, "marginal"),
        ("oracle.value_table", oracle.Oracle, "value_table"),
        ("constraints.load_constraint", constraints, "load_constraint"),
        ("constraints.max_weight_base", constraints.ExtendedMatroid, "max_weight_base"),
        ("constraints.exchange_bijection", constraints.ExtendedMatroid, "exchange_bijection"),
        ("constraints.is_feasible", constraints.CardinalityConstraint, "is_feasible"),
        ("constraints.is_feasible", constraints.KnapsackConstraint, "is_feasible"),
        ("constraints.is_feasible", constraints.PackingConstraint, "is_feasible"),
        ("constraints.is_feasible", constraints.Matroid, "is_feasible"),
        ("algorithms.greedy_cardinality", algorithms, "greedy_cardinality"),
        ("algorithms.sample_greedy_cardinality", algorithms, "sample_greedy_cardinality"),
        ("algorithms.greedy_matroid", algorithms, "greedy_matroid"),
        ("algorithms.mw_packing", algorithms, "mw_packing"),
        ("algorithms.knapsack_enum", algorithms, "knapsack_enum"),
        ("algorithms.delete", algorithms, "delete"),
        ("exact.brute_force_opt", exact, "brute_force_opt"),
        ("exact.feasible_mask_array", exact, "feasible_mask_array"),
    ]


class _Frame:
    __slots__ = ("id", "name", "child_s")

    def __init__(self, span_id, name):
        self.id = span_id
        self.name = name
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.job = None
        self.spans = []  # (id, name, start, end, parent id, job)
        self.span_count = 0
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []
        self._saved = []

    # -- installation ---------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in targets():
            original = owner.__dict__[attr]  # KeyError: the attribute moved
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn):
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self.span_count += 1
            frame = _Frame(self.span_count, name)
            self._stack.append(frame)
            before = _query_count(args) if after else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._close(frame, parent, start, end)
            if after:
                after(self.counters, args, kwargs, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, parent, start, end):
        dur = end - start
        name = frame.name
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - frame.child_s
        if parent is not None:
            parent.child_s += dur
            if name in ORACLE_QUERY_SPANS and parent.name in SOLVER_SPANS:
                self.counters["select.oracle_s"] += dur
        if len(self.spans) < MAX_WRITTEN_SPANS:
            self.spans.append(
                (frame.id, name, start, end, parent.id if parent else None, self.job)
            )

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "job": job}
                    )
                )
                fh.write("\n")


def _query_count(args):
    """Oracle query counter before a call whose first argument is the oracle."""
    return args[0].query_count if args and hasattr(args[0], "query_count") else None


def _after_delete(counters, args, kwargs, result, before):
    S = set(args[1])
    protected = kwargs.get("protected", args[3] if len(args) > 3 else frozenset())
    counters["delete.visited"] += len(S - set(protected))
    counters["delete.removed"] += len(S) - len(result[0])
    counters["delete.queries"] += args[0].query_count - before


def _after_brute_force(counters, args, kwargs, result, before):
    counters["exact.sets_enumerated"] += result.sets_enumerated


_AFTER = {
    "algorithms.delete": _after_delete,
    "exact.brute_force_opt": _after_brute_force,
}

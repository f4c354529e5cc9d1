"""Brute-force ground truth for small instances.

Enumerates all 2^n subsets against the uncounted value table, so exact
baselines never pollute solver query counts. Hard cap n <= 24.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import (
    CardinalityConstraint,
    KnapsackConstraint,
    PackingConstraint,
    PartitionMatroid,
    UniformMatroid,
    check_ground_set,
)
from .oracle import TABLE_MAX_N, _bit_axes

VACUOUS = math.inf


class InstanceTooLargeError(Exception):
    pass


@dataclass(frozen=True)
class ExactResult:
    opt_value: float
    witness: tuple
    sets_enumerated: int


def _load_table(weights, dtype=np.float64):
    """sum(weights[j] for j in S) for every subset bitmask S of the ids of
    `weights`, each sum taken in ascending j.

    Doubling: with bit j on, the first 2^(j+1) entries read as the first 2^j
    plus weights[j]. Adding a zero weight is exact, as a load is never -0.0.
    """
    load = np.zeros(1 << len(weights), dtype=dtype)
    for j, wj in enumerate(weights):
        half = 1 << j
        np.add(load[:half], wj, out=load[half : 2 * half])
    return load


def _member_count(ids, n):
    """|S & ids| for every subset bitmask S (n <= 24 fits uint8)."""
    return _load_table([int(j in ids) for j in range(n)], np.uint8)


def feasible_mask_array(constraint, n):
    """Boolean array over all 2^n subset bitmasks, vectorized per family.

    The constraint must be over n elements.
    """
    check_ground_set(constraint, n)
    if isinstance(constraint, (CardinalityConstraint, UniformMatroid)):
        return _member_count(range(n), n) <= constraint.k
    if isinstance(constraint, PartitionMatroid):
        ok = np.ones(1 << n, dtype=bool)
        for part, limit in zip(constraint.parts, constraint.limits):
            ok &= _member_count(part, n) <= limit
        return ok
    if isinstance(constraint, KnapsackConstraint):
        return _load_table(constraint.weights) <= constraint.budget
    if isinstance(constraint, PackingConstraint):
        ok = np.ones(1 << n, dtype=bool)
        for row, bi in zip(constraint.A, constraint.b):
            ok &= _load_table(row) <= bi
        return ok
    raise TypeError(f"no feasibility table for {type(constraint).__name__}")


def _lex_min_set(marked):
    """The lexicographically smallest sorted id tuple among the sets marked
    True in a bool array over all subset bitmasks (at least one is marked).

    Each pass fixes the next member: the lowest id a, past those already
    fixed, such that some marked set holds a and no id between them.
    """
    out = []
    low = 0  # ids below `low` are decided; `marked` is over ids low, low+1, ...
    while not marked[0]:
        a = 0
        while not (rest := _bit_axes(marked, (a,))[:, 1, 0]).any():
            a += 1
        out.append(low + a)
        low += a + 1
        marked = rest
    return tuple(out)


def brute_force_opt(oracle, constraint):
    """Exact optimum over all feasible subsets.

    Ties on the optimal value resolve to the lexicographically smallest
    witness (as a sorted id list). Uses the uncounted table; n <= 24. The
    constraint must be over the oracle's ground set.
    """
    n = oracle.n
    if n > TABLE_MAX_N:
        raise InstanceTooLargeError(f"brute force capped at n={TABLE_MAX_N}, got {n}")
    feasible = feasible_mask_array(constraint, n)
    count = int(feasible.sum())
    if not count:
        raise ValueError("constraint admits no feasible set (not even the empty set)")
    # no float copy of the table: `feasible` becomes the mask of optimal sets
    table = oracle.value_table()
    # + 0.0: a zero optimum is +0.0 whichever zero the reduction kept
    opt = float(table.max(where=feasible, initial=-np.inf)) + 0.0
    feasible &= table == opt
    witness = _lex_min_set(feasible)
    return ExactResult(opt_value=opt, witness=witness, sets_enumerated=count)


def ratio(trace, exact):
    """final value / optimum; inf when the optimum is 0 (vacuous instance)."""
    if exact.opt_value == 0:
        return VACUOUS
    return trace.final_value / exact.opt_value

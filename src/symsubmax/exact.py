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
from .oracle import TABLE_MAX_N, _set_of

VACUOUS = math.inf


class InstanceTooLargeError(Exception):
    pass


@dataclass(frozen=True)
class ExactResult:
    opt_value: float
    witness: tuple
    sets_enumerated: int


def feasible_mask_array(constraint, n):
    """Boolean array over all 2^n subset bitmasks, vectorized per family."""
    masks = np.arange(1 << n, dtype=np.int64)
    if isinstance(constraint, (CardinalityConstraint, UniformMatroid)):
        return np.bitwise_count(masks) <= constraint.k
    if isinstance(constraint, PartitionMatroid):
        ok = np.ones(len(masks), dtype=bool)
        for part, limit in zip(constraint.parts, constraint.limits):
            pmask = sum(1 << u for u in part)
            ok &= np.bitwise_count(masks & pmask) <= limit
        return ok
    if isinstance(constraint, KnapsackConstraint):
        load = np.zeros(len(masks))
        for j, wj in enumerate(constraint.weights):
            if wj:
                load += wj * ((masks >> j) & 1)
        return load <= constraint.budget
    if isinstance(constraint, PackingConstraint):
        ok = np.ones(len(masks), dtype=bool)
        for i in range(constraint.m):
            load = np.zeros(len(masks))
            for j in range(constraint.n):
                a = constraint.A[i, j]
                if a:
                    load += a * ((masks >> j) & 1)
            ok &= load <= constraint.b[i]
        return ok
    raise TypeError(f"no feasibility table for {type(constraint).__name__}")


def brute_force_opt(oracle, constraint):
    """Exact optimum over all feasible subsets.

    Ties on the optimal value resolve to the lexicographically smallest
    witness (as a sorted id list). Uses the uncounted table; n <= 24. The
    constraint must be over the oracle's ground set.
    """
    n = oracle.n
    if n > TABLE_MAX_N:
        raise InstanceTooLargeError(f"brute force capped at n={TABLE_MAX_N}, got {n}")
    check_ground_set(constraint, n)
    vals = oracle.value_table()
    feasible = feasible_mask_array(constraint, n)
    if not feasible.any():
        raise ValueError("constraint admits no feasible set (not even the empty set)")
    fvals = np.where(feasible, vals, -np.inf)
    opt = float(fvals.max())
    ties = np.nonzero(fvals == opt)[0]
    witness = min(_set_of(int(m)) for m in ties)
    return ExactResult(opt_value=opt, witness=witness, sets_enumerated=int(feasible.sum()))


def ratio(trace, exact):
    """final value / optimum; inf when the optimum is 0 (vacuous instance)."""
    if exact.opt_value == 0:
        return VACUOUS
    return trace.final_value / exact.opt_value

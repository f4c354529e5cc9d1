"""Solvers for symmetric submodular maximization.

All five solvers share the Delete subroutine: after every addition (or swap)
the current set is swept once and any element whose removal would increase
the value is dropped. That sweep is what substitutes for monotonicity: the
surviving set S satisfies f(R) <= f(S) for every R subset of S, hence
f(S u T) >= f(T) - f(S) for every T.

Determinism policy: argmax ties (values within 1e-9, so that analytically
equal marginals that accumulated rounding still count as tied) break to the
lowest element id, Delete visits
elements in ascending id, and the sampled variant is driven by a seeded PRNG,
so identical inputs produce identical traces.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .constraints import ExtendedMatroid, KnapsackConstraint
from .oracle import EQ_TOL


class ParameterError(ValueError):
    pass


@dataclass
class Round:
    index: int
    selected: object  # element id, or None on a break round
    before_delete: tuple
    after_delete: tuple
    value: float
    cum_queries: int
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "index": self.index,
            "selected": self.selected,
            "before_delete": self.before_delete,
            "after_delete": self.after_delete,
            "value": self.value,
            "cum_queries": self.cum_queries,
            "extras": dict(self.extras),
        }


@dataclass
class RunTrace:
    algorithm: str
    params: dict
    rounds: list
    final_set: tuple
    final_value: float
    total_queries: int
    warnings: list = field(default_factory=list)

    def to_dict(self, include_rounds=True):
        # By hand, in field order: dataclasses.asdict deep-copies every leaf,
        # which cost about 0.1 ms a report.
        d = {"algorithm": self.algorithm, "params": dict(self.params)}
        if include_rounds:
            d["rounds"] = [r.to_dict() for r in self.rounds]
        d["final_set"] = self.final_set
        d["final_value"] = self.final_value
        d["total_queries"] = self.total_queries
        d["warnings"] = list(self.warnings)
        return d


def _sorted_tuple(S):
    return tuple(sorted(S))


# -- Delete --------------------------------------------------------------------


def delete(oracle, S, fS=None, protected=frozenset()):
    """One ascending-id sweep removing elements with negative removal marginal.

    Removes u from S iff f(u | S - u) < 0 against the current set. Returns
    (new set, new value). Costs one query per visited element, plus one for
    the base value when fS is not supplied. The output S' satisfies
    f(S') >= f(S) and f(u | S' - u) >= 0 for every surviving visited u.
    """
    S = set(S)
    if not protected <= S:
        raise ParameterError("protected elements must be inside S")
    if fS is None:
        fS = oracle.eval(S)
    for u in sorted(S - set(protected)):
        f_without = oracle.eval(S - {u})
        if fS - f_without < 0:  # f(u | S - u) < 0
            S.discard(u)
            fS = f_without
    return S, fS


# -- Algorithms: greedy and sample greedy under cardinality ---------------------


def greedy_cardinality(oracle, k):
    """k rounds of max-marginal selection over the full ground set, each
    followed by Delete. Query cost <= k(n + k + 2)."""
    n = oracle.n
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _cardinality_rounds(oracle, k, "greedy-card", {"k": k, "n": n})


def sample_greedy_cardinality(oracle, k, epsilon, seed=0):
    """Like the greedy, but each round scans only r = ceil((n/k) ln(1/eps))
    elements sampled without replacement from outside the current set.
    Query cost <= k(r + k + 2); deterministic given the seed."""
    n = oracle.n
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0 < epsilon < 1:
        raise ParameterError(f"need 0 < epsilon < 1, got {epsilon}")
    r = math.ceil((n / k) * math.log(1.0 / epsilon))
    rng = random.Random(seed)

    def draw(pool):
        return pool if r >= len(pool) else sorted(rng.sample(pool, r))

    params = {"k": k, "n": n, "epsilon": epsilon, "seed": seed, "r": r}
    return _cardinality_rounds(oracle, k, "sample-greedy-card", params, draw)


def _cardinality_rounds(oracle, k, algorithm, params, draw=None):
    """The round loop both cardinality solvers share.

    Each of the k rounds scans the elements outside S in ascending id, or
    only the subset `draw(pool)` of them (recorded in the round's extras),
    picks the largest marginal, then runs Delete.
    """
    start_q = oracle.query_count
    S = set()
    fS = oracle.eval(S)
    rounds = []
    for i in range(1, k + 1):
        cands = sorted(set(range(oracle.n)) - S)
        extras = {}
        if draw is not None:
            cands = draw(cands)
            extras = {"sample": list(cands)}
        best_u, best_gain = None, None
        for u in cands:
            gain = oracle.marginal(u, S, fS)
            # ties within EQ_TOL keep the earlier (lowest) id
            if best_gain is None or gain > best_gain + EQ_TOL:
                best_u, best_gain = u, gain
        before = S | {best_u}
        S, fS = delete(oracle, before, fS + best_gain)
        rounds.append(
            Round(
                index=i,
                selected=best_u,
                before_delete=_sorted_tuple(before),
                after_delete=_sorted_tuple(S),
                value=fS,
                cum_queries=oracle.query_count - start_q,
                extras=extras,
            )
        )
    return RunTrace(
        algorithm=algorithm,
        params=params,
        rounds=rounds,
        final_set=_sorted_tuple(S),
        final_value=fS,
        total_queries=oracle.query_count - start_q,
    )


# -- Algorithm: exchange greedy under a matroid ---------------------------------


def greedy_matroid(oracle, matroid, epsilon):
    """Swap-based greedy over the matroid extended with 2k dummy elements.

    Starts from a base of k dummies and runs K = ceil((k/3) ln(1/eps))
    rounds. Each round builds the max-marginal-weight base disjoint from the
    current one, maps it onto the current base with the exchange bijection,
    performs the single most valuable swap, then Deletes (real elements only;
    dummy marginals are identically zero) and pads back to size k with
    dummies. Query cost <= K(n + 2k + 2). The returned final_set contains
    real elements only.
    """
    n = oracle.n
    if not 0 < epsilon < 1:
        raise ParameterError(f"need 0 < epsilon < 1, got {epsilon}")
    ext = ExtendedMatroid(matroid, n)
    k = ext.k
    K = math.ceil((k / 3) * math.log(1.0 / epsilon))
    start_q = oracle.query_count
    S = set(ext.dummies[:k])  # base of k dummies
    fS = oracle.eval(())  # f'(S_0) = f(empty)
    rounds = []
    for i in range(1, K + 1):
        real_S = ext.real_part(S)
        outside = [u for u in range(n) if u not in S]
        weight = dict(zip(outside, oracle.marginals(outside, real_S, fS)))
        M = ext.max_weight_base(weight, excluded=S)
        g = ext.exchange_bijection(M, S)
        best_u, best_set, best_val = None, None, None
        for u in sorted(M):
            cand = (S - {g[u]}) | {u}
            cand_real = ext.real_part(cand)
            if cand_real == real_S:
                val = fS  # pure dummy shuffle, value unchanged, no query
            else:
                val = oracle.eval(cand_real)
            if best_val is None or val > best_val + EQ_TOL:
                best_u, best_set, best_val = u, cand, val
        before = best_set
        real_after, fS = delete(oracle, ext.real_part(before), best_val)
        S = ext.pad_to_base(real_after | {d for d in before if ext.is_dummy(d)})
        rounds.append(
            Round(
                index=i,
                selected=best_u,
                before_delete=_sorted_tuple(before),
                after_delete=_sorted_tuple(S),
                value=fS,
                cum_queries=oracle.query_count - start_q,
                extras={"swapped_out": g[best_u], "base": sorted(M)},
            )
        )
    final_real = ext.real_part(S)
    return RunTrace(
        algorithm="greedy-matroid",
        params={"k": k, "n": n, "epsilon": epsilon, "K": K},
        rounds=rounds,
        final_set=_sorted_tuple(final_real),
        final_value=fS,
        total_queries=oracle.query_count - start_q,
    )


# -- Algorithm: multiplicative weights under packing ----------------------------


def mw_packing(oracle, packing, epsilon, *, lambda_override=None, start=frozenset(), allowed=None):
    """Multiplicative-weights greedy for packing constraints.

    Selects elements by marginal value per current weighted load, Deletes
    after each addition, and multiplies constraint weights; stops when the
    weight budget beta exceeds lambda = e^(eps * W) or no remaining element
    has positive marginal. If the final set overshoots some budget, the
    surviving added elements are dropped, most recently added first, until
    the constraint accepts it. Query cost <= n(2n + 2).

    `packing` is a PackingConstraint or a KnapsackConstraint. A knapsack is
    run in its rescaled packing form (KnapsackConstraint.to_packing, over
    `allowed` when given, against the budget left after `start`), but the
    final set is judged and repaired by the knapsack's own is_feasible,
    whose load can round across the budget where the rescaled one does not.

    The run begins at `start`, never deletes it, and only considers
    candidates in `allowed` (every element when None).
    """
    constraint = packing
    if isinstance(packing, KnapsackConstraint):
        residual = packing.budget - packing.load(start)
        packing, allowed = packing.to_packing(residual, allowed)
    n = oracle.n
    if packing.n != n:
        raise ParameterError("packing matrix columns must match the ground set")
    if not 0 < epsilon < 1:
        raise ParameterError(f"need 0 < epsilon < 1, got {epsilon}")
    W = packing.width()  # raises UndefinedWidthError on all-zero A
    lam = float(lambda_override) if lambda_override is not None else math.exp(epsilon * W)
    if not lam > 1:  # NaN fails it too
        raise ParameterError(f"lambda must exceed 1, got {lam}")
    universe = set(range(n)) if allowed is None else set(allowed)
    start = frozenset(start)
    start_q = oracle.query_count
    S = set(start)
    fS = oracle.eval(S)
    w = 1.0 / packing.b
    # b as a last column of A: one pass over its rows gives every
    # denominator and beta
    Ab = np.column_stack((packing.A, packing.b))
    rounds = []
    warnings = []
    if W < max(math.log(packing.m), 1.0) / epsilon**2:
        warnings.append(
            f"width {W:.6g} below max(ln m, 1)/eps^2 = "
            f"{max(math.log(packing.m), 1.0) / epsilon**2:.6g}; ratio guarantee void"
        )
    r = 0
    while not universe <= S:
        denoms = _weighted_row_sum(Ab, w)
        beta = denoms[n]
        if not beta <= lam:
            break
        r += 1
        best_j, best_density, best_gain, best_denom = None, None, None, None
        scan = sorted(universe - S)
        # marginals checks every id before any indexes denoms
        for j, gain in zip(scan, oracle.marginals(scan, S, fS)):
            denom = denoms[j]
            if denom == 0.0:
                density = math.inf if gain > 0 else -math.inf
            else:
                density = gain / denom
            if best_density is None or density > best_density + EQ_TOL:
                best_j, best_density, best_gain, best_denom = j, density, gain, denom
        if best_gain is None or best_gain <= 0:
            rounds.append(
                Round(
                    index=r,
                    selected=None,
                    before_delete=_sorted_tuple(S),
                    after_delete=_sorted_tuple(S),
                    value=fS,
                    cum_queries=oracle.query_count - start_q,
                    extras={"break": "no positive marginal", "beta": beta},
                )
            )
            break
        j = best_j
        before = set(S) | {j}
        S, fS = delete(oracle, before, fS + best_gain, protected=start)
        w = w * lam ** (packing.A[:, j] / packing.b)
        rounds.append(
            Round(
                index=r,
                selected=j,
                before_delete=_sorted_tuple(before),
                after_delete=_sorted_tuple(S),
                value=fS,
                cum_queries=oracle.query_count - start_q,
                extras={"beta": beta, "denominator": best_denom, "gain": best_gain},
            )
        )
    if not constraint.is_feasible(S):
        for rd in reversed(rounds):
            if rd.selected in S:
                S.discard(rd.selected)
                warnings.append(f"dropped last added element {rd.selected} to restore feasibility")
                if constraint.is_feasible(S):
                    break
        fS = oracle.eval(S)
    return RunTrace(
        algorithm="mw-packing",
        params={
            "n": n,
            "m": packing.m,
            "epsilon": epsilon,
            "lambda": lam,
            "width": W,
        },
        rounds=rounds,
        final_set=_sorted_tuple(S),
        final_value=fS,
        total_queries=oracle.query_count - start_q,
        warnings=warnings,
    )


def _weighted_row_sum(M, w):
    """sum_i w[i] * M[i, j] for every column j, as a list of floats.

    The rows are added in ascending order, one rounded product and one
    rounded sum at a time, so a column's value depends neither on the other
    columns nor on the routine numpy's dot would dispatch to; with one row it
    is the dot product bit for bit.
    """
    d = M[0] * w[0]
    for i in range(1, len(w)):
        d += M[i] * w[i]
    return d.tolist()


# -- Algorithm: knapsack via partial enumeration ---------------------------------


def knapsack_enum(oracle, knapsack, epsilon=0.1):
    """Partial enumeration wrapper around the m=1 multiplicative-weights run.

    Evaluates every feasible set of size <= 2 directly; for each such seed T
    it additionally greedily extends T over the elements no heavier than any
    seed member (and fitting the residual budget) with mw_packing started at
    T, which never deletes T and returns a set the knapsack accepts. Returns
    the best set found. Query budget O(n^4).
    """
    n = oracle.n
    if len(knapsack.weights) != n:
        raise ParameterError("knapsack weights must match the ground set")
    weights = knapsack.weights
    budget = knapsack.budget
    start_q = oracle.query_count
    best_set, best_val = frozenset(), oracle.eval(())
    rounds = []
    singles = [j for j in range(n) if weights[j] <= budget]
    seeds = [frozenset()]
    seeds += [frozenset({j}) for j in singles]
    seeds += [
        frozenset({i, j})
        for ii, i in enumerate(singles)
        for j in singles[ii + 1 :]
        if knapsack.is_feasible((i, j))
    ]
    for idx, T in enumerate(seeds):
        seed_val = oracle.eval(T) if T else best_val
        if seed_val > best_val:
            best_set, best_val = T, seed_val
        cand_set, cand_val = T, seed_val
        residual = budget - knapsack.load(T)
        cap = min((weights[t] for t in T), default=math.inf)
        allowed = [
            j for j in range(n) if j not in T and weights[j] <= cap and weights[j] <= residual
        ]
        if allowed:
            if not any(weights[j] for j in allowed):
                # every allowed element has zero weight: extend freely
                cand_set, cand_val = _free_extend(oracle, T, seed_val, allowed)
            else:
                trace = mw_packing(oracle, knapsack, epsilon, start=T, allowed=allowed)
                cand_set, cand_val = frozenset(trace.final_set), trace.final_value
            if cand_val > best_val:
                best_set, best_val = cand_set, cand_val
        rounds.append(
            Round(
                index=idx,
                selected=sorted(T),
                before_delete=_sorted_tuple(T),
                after_delete=_sorted_tuple(cand_set),
                value=cand_val,
                cum_queries=oracle.query_count - start_q,
                extras={"best_so_far": best_val},
            )
        )
    return RunTrace(
        algorithm="knapsack-enum",
        params={"n": n, "budget": budget, "epsilon": epsilon},
        rounds=rounds,
        final_set=_sorted_tuple(best_set),
        final_value=best_val,
        total_queries=oracle.query_count - start_q,
    )


def _free_extend(oracle, T, fT, allowed):
    """Add zero-weight elements while any has a positive marginal, with the
    same lowest-id selection and Delete policy as the priced loop."""
    S, fS = set(T), fT
    remaining = set(allowed)
    while remaining - S:
        picked, gain = None, 0.0
        for j in sorted(remaining - S):
            marg = oracle.marginal(j, S, fS)
            if marg > 0:
                picked, gain = j, marg
                break
        if picked is None:
            break
        S, fS = delete(oracle, S | {picked}, fS + gain, protected=frozenset(T))
    return frozenset(S), fS

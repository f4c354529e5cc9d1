"""Solvers for symmetric submodular maximization.

All five solvers share the Delete subroutine: after every addition (or swap)
the current set is swept once and any element whose removal would increase
the value is dropped. That sweep is what substitutes for monotonicity: the
surviving set S satisfies f(R) <= f(S) for every R subset of S, hence
f(S u T) >= f(T) - f(S) for every T.

Determinism policy: the three argmax scans (the cardinality selection, the
matroid swap and the packing density) visit their candidates in ascending id
and pick with `_argmax`, the one place the tie rule lives: keep the value
held unless a later one is larger by more than 1e-9 (EQ_TOL), so that
analytically equal marginals that accumulated rounding still go to the lower
id. The rule is a running one, not a band around the maximum: the values 0,
0.8e-9 and 1.6e-9 select the third candidate. Three choices use another
rule: knapsack_enum keeps the best seeded run by strict >, _free_extend adds
the first element with a positive marginal, and max_weight_base orders by
exact descending weight, real before dummy, then ascending id. Delete visits
elements in ascending id, and the sampled variant is driven by a seeded PRNG,
so identical inputs produce identical traces.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .constraints import ExtendedMatroid, KnapsackConstraint, check_ground_set
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


class _Run:
    """A solver run's rounds, and its queries counted from the run's start."""

    def __init__(self, oracle):
        self._oracle = oracle
        self._start = oracle.query_count
        self.rounds = []

    def _queries(self):
        return self._oracle.query_count - self._start

    def round(self, index, selected, before, after, value, extras):
        before, after = tuple(sorted(before)), tuple(sorted(after))
        self.rounds.append(Round(index, selected, before, after, value, self._queries(), extras))

    def trace(self, algorithm, params, final_set, final_value, warnings=()):
        return RunTrace(
            algorithm=algorithm,
            params=params,
            rounds=self.rounds,
            final_set=tuple(sorted(final_set)),
            final_value=final_value,
            total_queries=self._queries(),
            warnings=list(warnings),
        )


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


# -- Shared rules: the tie-break and the epsilon range --------------------------


def _argmax(values):
    """The index the running tie rule keeps: the first value, replaced by
    each later one that is larger than the value held by more than EQ_TOL."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best] + EQ_TOL:
            best = i
    return best


def _check_epsilon(epsilon):
    """Raise ParameterError unless epsilon lies in (0, 1); NaN does not."""
    if not 0 < epsilon < 1:
        raise ParameterError(f"need 0 < epsilon < 1, got {epsilon}")


# -- Algorithms: greedy and sample greedy under cardinality ---------------------


def _log_inverse(epsilon):
    """ln(1/eps), the factor in the round counts of the sampling and matroid
    solvers; eps must lie in (0, 1) and be large enough that 1/eps is finite."""
    _check_epsilon(epsilon)
    log_inv = math.log(1.0 / epsilon)
    if log_inv == math.inf:
        raise ParameterError(f"ln(1/epsilon) is not finite for epsilon = {epsilon}")
    return log_inv


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
    r = math.ceil((n / k) * _log_inverse(epsilon))
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
    run = _Run(oracle)
    S = set()
    fS = oracle.eval(S)
    for i in range(1, k + 1):
        cands = sorted(set(range(oracle.n)) - S)
        extras = {}
        if draw is not None:
            cands = draw(cands)
            extras = {"sample": list(cands)}
        gains = [oracle.marginal(u, S, fS) for u in cands]
        b = _argmax(gains)
        best_u, best_gain = cands[b], gains[b]
        before = S | {best_u}
        S, fS = delete(oracle, before, fS + best_gain)
        run.round(i, best_u, before, S, fS, extras)
    return run.trace(algorithm, params, S, fS)


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
    check_ground_set(matroid, n)
    log_inv = _log_inverse(epsilon)
    ext = ExtendedMatroid(matroid, n)
    k = ext.k
    K = math.ceil((k / 3) * log_inv)
    run = _Run(oracle)
    S = set(ext.dummies[:k])  # base of k dummies
    fS = oracle.eval(())  # f'(S_0) = f(empty)
    for i in range(1, K + 1):
        real_S = ext.real_part(S)
        outside = [u for u in range(n) if u not in S]
        weight = dict(zip(outside, oracle.marginals(outside, real_S, fS)))
        M = ext.max_weight_base(weight, excluded=S)
        g = ext.exchange_bijection(M, S)
        swaps = sorted(M)
        cands = [(S - {g[u]}) | {u} for u in swaps]
        # a pure dummy shuffle keeps the value fS and costs no query
        vals = [fS if r == real_S else oracle.eval(r) for r in map(ext.real_part, cands)]
        b = _argmax(vals)
        best_u, before, best_val = swaps[b], cands[b], vals[b]
        real_after, fS = delete(oracle, ext.real_part(before), best_val)
        S = ext.pad_to_base(real_after | {d for d in before if ext.is_dummy(d)})
        run.round(i, best_u, before, S, fS, {"swapped_out": g[best_u], "base": sorted(M)})
    params = {"k": k, "n": n, "epsilon": epsilon, "K": K}
    return run.trace("greedy-matroid", params, ext.real_part(S), fS)


# -- Algorithm: multiplicative weights under packing ----------------------------


def mw_packing(oracle, packing, epsilon, *, start=frozenset(), allowed=None):
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
    n = oracle.n
    check_ground_set(packing, n)
    constraint = packing
    if isinstance(packing, KnapsackConstraint):
        residual = packing.budget - packing.load(start)
        packing, allowed = packing.to_packing(residual, allowed)
    _check_epsilon(epsilon)
    W = packing.width()  # raises UndefinedWidthError on all-zero A
    try:
        lam = math.exp(epsilon * W)  # inf when W is, from a subnormal entry
    except OverflowError:
        lam = math.inf
    if not 1 < lam < math.inf:
        raise ParameterError(
            "lambda = e^(epsilon * width) is not a finite float above 1"
            f" for epsilon = {epsilon:.6g} and width = {W:.6g}"
        )
    universe = set(range(n)) if allowed is None else set(allowed)
    start = frozenset(start)
    run = _Run(oracle)
    S = set(start)
    fS = oracle.eval(S)
    b = packing.b
    cols = list(zip(*packing.A))  # cols[j][i] = A_ij
    w = [1.0 / bi for bi in b]
    warnings = []
    # eps^2 underflows to 0 below about 1.6e-162
    width_floor = max(math.log(packing.m), 1.0) / epsilon**2 if epsilon**2 else math.inf
    if W < width_floor:
        warnings.append(
            f"width {W:.6g} below max(ln m, 1)/eps^2 = {width_floor:.6g}; ratio guarantee void"
        )
    r = 0
    while not universe <= S:
        beta = _ascending_dot(b, w)
        if not beta <= lam:
            break
        r += 1
        scan = sorted(universe - S)
        # marginals checks every id before any indexes cols
        gains = oracle.marginals(scan, S, fS)
        denoms = [_ascending_dot(cols[j], w) for j in scan]
        # a zero load gives +inf or -inf by the sign of the gain
        densities = [
            gain / d if d != 0.0 else (math.inf if gain > 0 else -math.inf)
            for d, gain in zip(denoms, gains)
        ]
        pick = _argmax(densities)
        j, gain = scan[pick], gains[pick]
        if gain <= 0:
            run.round(r, None, S, S, fS, {"break": "no positive marginal", "beta": beta})
            break
        before = set(S) | {j}
        S, fS = delete(oracle, before, fS + gain, protected=start)
        # numpy's power, not ** or math.pow: numpy's power loop and the C
        # library's pow round some (lambda, x) apart in the last bit, and the
        # traces are pinned to numpy's. numpy picks its loop by CPU, so these
        # bits can differ between machines.
        growth = np.power(lam, [a / bi for a, bi in zip(cols[j], b)]).tolist()
        w = [wi * g for wi, g in zip(w, growth)]
        extras = {"beta": beta, "denominator": denoms[pick], "gain": gain}
        run.round(r, j, before, S, fS, extras)
    if not constraint.is_feasible(S):
        for rd in reversed(run.rounds):
            if rd.selected in S:
                S.discard(rd.selected)
                warnings.append(f"dropped last added element {rd.selected} to restore feasibility")
                if constraint.is_feasible(S):
                    break
        fS = oracle.eval(S)
    params = {"n": n, "m": packing.m, "epsilon": epsilon, "lambda": lam, "width": W}
    return run.trace("mw-packing", params, S, fS, warnings)


def _ascending_dot(xs, w):
    """sum_i xs[i] * w[i], one rounded product and one rounded sum at a time
    in ascending i: with one row, numpy's dot product bit for bit."""
    total = xs[0] * w[0]
    for i in range(1, len(w)):
        total += xs[i] * w[i]
    return total


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
    check_ground_set(knapsack, n)
    _check_epsilon(epsilon)
    weights = knapsack.weights
    budget = knapsack.budget
    run = _Run(oracle)
    best_set, best_val = frozenset(), oracle.eval(())
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
        run.round(idx, sorted(T), T, cand_set, cand_val, {"best_so_far": best_val})
    params = {"n": n, "budget": budget, "epsilon": epsilon}
    return run.trace("knapsack-enum", params, best_set, best_val)


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

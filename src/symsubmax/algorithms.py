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
from .oracle import EQ_TOL, _mask_of, added_masks


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
    """A solver run's rounds, and its queries counted from the run's start.

    Given an oracle, the count is read off the oracle's counter. A step
    generator (below), which never sees the oracle, passes none and adds
    the masks it yields to `asked` itself. Without `keep_rounds`, `round`
    records nothing: knapsack_enum's seeded runs show no rounds.
    """

    def __init__(self, oracle=None, keep_rounds=True):
        self._oracle = oracle
        self._start = 0 if oracle is None else oracle.query_count
        self.asked = 0
        self.rounds = []
        self._keep_rounds = keep_rounds

    def _queries(self):
        if self._oracle is None:
            return self.asked
        return self._oracle.query_count - self._start

    def round(self, index, selected, before, after, value, extras):
        if not self._keep_rounds:
            return
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


# -- Step generators -------------------------------------------------------------
#
# Delete, one multiplicative-weights run and one knapsack seed are written as
# step generators: each step yields the list of bitmasks whose values it
# needs and is sent back their values, one oracle query per mask, and the
# generator's return value is the result. `_drive` runs one generator against
# an oracle; `_lockstep` runs many together, so that one step of all of them
# is one batched `Oracle.eval_masks` call.

# At most this many knapsack seeds run in lockstep at once; finished runs
# are replaced from the seed list, so the runs' state stays O(window * n) at
# large n. On the benchmark's knapsacks (170-280 seeds at n = 17-23, 2-core
# Xeon, best of 15) windows of 16, 32, 64, 128 and 512 took 16.7, 14.8,
# 14.6, 13.5 and 12.7 ms on knap-gB and 49, 39, 39, 36 and 35 ms on knap-hD.
LOCKSTEP_WINDOW = 256


def _drive(oracle, steps):
    """Run one step generator to its end and return its result."""
    try:
        masks = next(steps)
        while True:
            masks = steps.send(oracle.eval_masks(masks))
    except StopIteration as stop:
        return stop.value


def _lockstep(oracle, runs, window=LOCKSTEP_WINDOW):
    """Run step generators together, at most `window` at once; yield
    (result, queries) for each, in the order of `runs`.

    Each step takes the masks every active run yields, in run order, and
    answers them with one eval_masks call; a finished run is replaced by the
    next one from `runs`. `queries` is the number of masks the run yielded.
    """
    runs = iter(runs)
    active = []  # [position, generator, masks now asked, masks asked so far]
    done = {}
    started = emitted = 0
    while True:
        while len(active) < window:
            steps = next(runs, None)
            if steps is None:
                break
            try:
                masks = next(steps)
            except StopIteration as stop:
                done[started] = (stop.value, 0)
            else:
                active.append([started, steps, masks, len(masks)])
            started += 1
        while emitted in done:
            yield done.pop(emitted)
            emitted += 1
        if not active:
            return
        values = oracle.eval_masks([m for run in active for m in run[2]])
        still = []
        at = 0
        for run in active:
            pos, steps, masks, asked = run
            try:
                run[2] = steps.send(values[at : at + len(masks)])
            except StopIteration as stop:
                done[pos] = (stop.value, asked)
            else:
                run[3] += len(run[2])
                still.append(run)
            at += len(masks)
        active = still


# -- Delete --------------------------------------------------------------------


def delete(oracle, S, fS=None, protected=frozenset()):
    """One ascending-id sweep removing elements with negative removal marginal.

    Removes u from S iff f(u | S - u) < 0 against the current set. Returns
    (new set, new value). Costs one query per visited element, plus one for
    the base value when fS is not supplied. The output S' satisfies
    f(S') >= f(S) and f(u | S' - u) >= 0 for every surviving visited u.
    """
    return _drive(oracle, _delete_steps(oracle.n, S, fS, protected))


def _delete_steps(n, S, fS=None, protected=frozenset()):
    """Delete as a step generator over the ground set 0..n-1: one mask a step."""
    S = set(S)
    if not protected <= S:
        raise ParameterError("protected elements must be inside S")
    mask = _mask_of(S, n)
    if fS is None:
        (fS,) = yield [mask]
    for u in sorted(S - set(protected)):
        bit = 1 << u if type(u) is int else _mask_of((u,), n)
        (f_without,) = yield [mask ^ bit]
        if fS - f_without < 0:  # f(u | S - u) < 0
            S.discard(u)
            mask ^= bit
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
    check_ground_set(packing, oracle.n)
    return _drive(oracle, _mw_steps(oracle.n, packing, epsilon, start, allowed))


def _mw_steps(n, packing, epsilon, start, allowed, keep_rounds=True):
    """mw_packing as a step generator; the ground set must match n."""
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
    run = _Run(keep_rounds=keep_rounds)
    added = []  # the selected elements, in order
    S = set(start)
    (fS,) = yield [_mask_of(S, n)]
    run.asked += 1
    A, b = packing.A, packing.b
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
        # added_masks checks every id before any indexes A
        values = yield added_masks(scan, S, n)
        run.asked += len(scan)
        gains = [value - fS for value in values]
        # sum_i A_ij w_i for each j, one rounded product and one rounded sum
        # at a time in ascending i, as _ascending_dot adds
        denoms = [A[0][j] * w[0] for j in scan]
        for row, wi in zip(A[1:], w[1:]):
            denoms = [d + row[j] * wi for d, j in zip(denoms, scan)]
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
        added.append(j)
        before = set(S) | {j}
        S, fS = yield from _delete_steps(n, before, fS + gain, start)
        run.asked += len(before) - len(start)  # one query per visited element
        # numpy's power, not ** or math.pow: numpy's power loop and the C
        # library's pow round some (lambda, x) apart in the last bit, and the
        # traces are pinned to numpy's. numpy picks its loop by CPU, so these
        # bits can differ between machines.
        growth = np.power(lam, [row[j] / bi for row, bi in zip(A, b)]).tolist()
        w = [wi * g for wi, g in zip(w, growth)]
        extras = {"beta": beta, "denominator": denoms[pick], "gain": gain}
        run.round(r, j, before, S, fS, extras)
    if not constraint.is_feasible(S):
        for j in reversed(added):
            if j in S:
                S.discard(j)
                warnings.append(f"dropped last added element {j} to restore feasibility")
                if constraint.is_feasible(S):
                    break
        (fS,) = yield [_mask_of(S, n)]
        run.asked += 1
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

    The seeds' runs are step generators driven in lockstep (`_lockstep`),
    and their results are taken in seed order, so the trace and the query
    count are those of running the seeds one after another.
    """
    n = oracle.n
    check_ground_set(knapsack, n)
    _check_epsilon(epsilon)
    weights = knapsack.weights
    budget = knapsack.budget
    run = _Run()
    best_set, best_val = frozenset(), oracle.eval(())
    run.asked = 1
    singles = [j for j in range(n) if weights[j] <= budget]
    seeds = [frozenset()]
    seeds += [frozenset({j}) for j in singles]
    seeds += [
        frozenset({i, j})
        for ii, i in enumerate(singles)
        for j in singles[ii + 1 :]
        if knapsack.is_feasible((i, j))
    ]
    runs = _lockstep(oracle, (_seed_steps(n, knapsack, epsilon, T, best_val) for T in seeds))
    for idx, (T, ((seed_val, cand_set, cand_val), queries)) in enumerate(zip(seeds, runs)):
        run.asked += queries
        if seed_val > best_val:
            best_set, best_val = T, seed_val
        if cand_val > best_val:
            best_set, best_val = cand_set, cand_val
        run.round(idx, sorted(T), T, cand_set, cand_val, {"best_so_far": best_val})
    params = {"n": n, "budget": budget, "epsilon": epsilon}
    return run.trace("knapsack-enum", params, best_set, best_val)


def _seed_steps(n, knapsack, epsilon, T, f_empty):
    """knapsack_enum's work on one seed T as a step generator: f(T) (f_empty
    stands for the empty seed's), then the run that extends T, if any
    element may join it. Returns (f(T), the extended set, its value)."""
    seed_val = (yield [_mask_of(T, n)])[0] if T else f_empty
    weights = knapsack.weights
    residual = knapsack.budget - knapsack.load(T)
    cap = min((weights[t] for t in T), default=math.inf)
    allowed = [j for j in range(n) if j not in T and weights[j] <= cap and weights[j] <= residual]
    if not allowed:
        return seed_val, T, seed_val
    if not any(weights[j] for j in allowed):
        # every allowed element has zero weight: extend freely
        cand_set, cand_val = yield from _free_extend_steps(n, T, seed_val, allowed)
        return seed_val, cand_set, cand_val
    trace = yield from _mw_steps(n, knapsack, epsilon, T, allowed, keep_rounds=False)
    return seed_val, frozenset(trace.final_set), trace.final_value


def _free_extend_steps(n, T, fT, allowed):
    """Add zero-weight elements while any has a positive marginal, with the
    same lowest-id selection and Delete policy as the priced loop."""
    S, fS = set(T), fT
    remaining = set(allowed)
    while remaining - S:
        picked, gain = None, 0.0
        for j in sorted(remaining - S):
            (value,) = yield added_masks((j,), S, n)
            marg = value - fS
            if marg > 0:
                picked, gain = j, marg
                break
        if picked is None:
            break
        S, fS = yield from _delete_steps(n, S | {picked}, fS + gain, frozenset(T))
    return frozenset(S), fS

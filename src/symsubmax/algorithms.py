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

Every solver is a plain loop over the oracle, one run at a time, except
knapsack_enum: its 1 + n + n(n-1)/2 seeded multiplicative-weights runs are
the rows of one set of numpy arrays (_mw_rows), each round of all of them a
few Oracle.eval_rows calls, and each row does mw_packing's arithmetic
operation for operation, so its values, picks and queries are those of
running it on its own. mw_packing itself stays scalar: one run has too few
sets a round to pay for the arrays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .constraints import ExtendedMatroid, KnapsackConstraint, UndefinedWidthError, check_ground_set
from .oracle import EQ_TOL, _mask_of


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

    Given an oracle, the count is read off the oracle's counter; without
    one it is `asked`, which knapsack_enum keeps as the running sum of its
    seeds' queries in seed order.
    """

    def __init__(self, oracle=None):
        self._oracle = oracle
        self._start = 0 if oracle is None else oracle.query_count
        self.asked = 0
        self.rounds = []

    def _queries(self):
        if self._oracle is None:
            return self.asked
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
    _mask_of(S, oracle.n)  # every id is checked before any query
    if fS is None:
        fS = oracle.eval(S)
    for u in sorted(S - set(protected)):
        S.discard(u)
        f_without = oracle.eval(S)
        if fS - f_without < 0:  # f(u | S - u) < 0
            fS = f_without
        else:
            S.add(u)
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


def mw_packing(oracle, packing, epsilon):
    """Multiplicative-weights greedy for packing constraints.

    Selects elements by marginal value per current weighted load, Deletes
    after each addition, and multiplies constraint weights; stops when the
    weight budget beta exceeds lambda = e^(eps * W) or no remaining element
    has positive marginal. If the final set overshoots some budget, the
    surviving added elements are dropped, most recently added first, until
    the constraint accepts it. Query cost <= n(2n + 2).

    `packing` is a PackingConstraint or a KnapsackConstraint. A knapsack is
    one row: each weight that fits the budget over the largest of them,
    against the budget over the same. That row's largest entry is exactly
    1.0, so the width is its bound. The final set is judged and repaired by
    the knapsack's own is_feasible, whose load can round across the budget
    where the rescaled one does not.
    """
    n = oracle.n
    check_ground_set(packing, n)
    _check_epsilon(epsilon)
    if isinstance(packing, KnapsackConstraint):
        weights = packing.weights
        allowed = [j for j in range(n) if weights[j] <= packing.budget]
        maxw = max((weights[j] for j in allowed), default=0.0)
        if maxw == 0:
            raise UndefinedWidthError("no allowed knapsack element has a positive weight")
        row = [0.0] * n
        for j in allowed:
            row[j] = weights[j] / maxw
        A, b = [row], [packing.budget / maxw]
        W = b[0]
    else:
        A, b = packing.A, packing.b
        W = packing.width()  # raises UndefinedWidthError on all-zero A
        allowed = range(n)
    lam = _lambda(epsilon, W)
    run = _Run(oracle)
    universe = set(allowed)
    added = []  # the selected elements, in order
    S = set()
    fS = oracle.eval(S)
    w = [1.0 / bi for bi in b]
    warnings = []
    # eps^2 underflows to 0 below about 1.6e-162
    width_floor = max(math.log(len(A)), 1.0) / epsilon**2 if epsilon**2 else math.inf
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
        gains = oracle.marginals(scan, S, fS)
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
        before = S | {j}
        S, fS = delete(oracle, before, fS + gain)
        # numpy's power, not ** or math.pow: numpy's power loop and the C
        # library's pow round some (lambda, x) apart in the last bit, and the
        # traces are pinned to numpy's. numpy picks its loop by CPU, so these
        # bits can differ between machines.
        growth = np.power(lam, [row[j] / bi for row, bi in zip(A, b)]).tolist()
        w = [wi * g for wi, g in zip(w, growth)]
        extras = {"beta": beta, "denominator": denoms[pick], "gain": gain}
        run.round(r, j, before, S, fS, extras)
    if not packing.is_feasible(S):
        for j in reversed(added):
            if j in S:
                S.discard(j)
                warnings.append(f"dropped last added element {j} to restore feasibility")
                if packing.is_feasible(S):
                    break
        fS = oracle.eval(S)
    params = {"n": n, "m": len(A), "epsilon": epsilon, "lambda": lam, "width": W}
    return run.trace("mw-packing", params, S, fS, warnings)


def _lambda(epsilon, W):
    """lambda = e^(eps * W), which must be a finite float above 1."""
    try:
        lam = math.exp(epsilon * W)  # inf when W is, from a subnormal entry
    except OverflowError:
        lam = math.inf
    if not 1 < lam < math.inf:
        raise ParameterError(
            "lambda = e^(epsilon * width) is not a finite float above 1"
            f" for epsilon = {epsilon:.6g} and width = {W:.6g}"
        )
    return lam


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
    seed member and fitting the residual budget, with mw_packing's run on
    that knapsack started at T, which never deletes T and returns a set the
    knapsack accepts. Returns the best set found. Query budget O(n^4).

    Each seed's run is one row of a set of numpy arrays (_knapsack_rows,
    _mw_rows), and the seeds' results are folded in seed order, so the trace
    and the query count are those of running the seeds one after another.
    """
    n = oracle.n
    check_ground_set(knapsack, n)
    _check_epsilon(epsilon)
    budget = knapsack.budget
    run = _Run()
    best_set, best_val = frozenset(), oracle.eval(())
    run.asked = 1
    seeds, seed_vals, cand_sets, cand_vals, queries = _knapsack_rows(
        oracle, knapsack, epsilon, best_val
    )
    for idx, T in enumerate(seeds):
        run.asked += queries[idx]
        if seed_vals[idx] > best_val:
            best_set, best_val = T, seed_vals[idx]
        if cand_vals[idx] > best_val:
            best_set, best_val = cand_sets[idx], cand_vals[idx]
        run.round(idx, sorted(T), T, cand_sets[idx], cand_vals[idx], {"best_so_far": best_val})
    params = {"n": n, "budget": budget, "epsilon": epsilon}
    return run.trace("knapsack-enum", params, best_set, best_val)


def _knapsack_rows(oracle, knapsack, epsilon, f_empty):
    """Every seed of knapsack_enum and what its run makes of it.

    The seeds are the empty set, each element that fits the budget, and each
    pair of those that fits, in that order, the pairs in ascending (i, j).
    f_empty stands for the empty seed's value. Returns, per seed in that
    order, the tuple T, f(T), the extended set as a sorted tuple, its value
    and the queries the seed made.

    A seed keeps T when no element is allowed to join it, takes the free
    extension when every allowed element weighs 0, and otherwise starts one
    row of _mw_rows. The seeds' loads, residuals and allowed sets are taken
    for all of them at once, each sum added in ascending id from 0.0 as
    knapsack.load adds it.
    """
    n = oracle.n
    budget = knapsack.budget
    w = np.array(knapsack.weights, dtype=np.float64)
    w0 = w + 0.0  # -0.0 as 0.0, as load's 0.0 + w stores it
    singles = np.flatnonzero(w <= budget)
    i, j = (singles[k] for k in np.triu_indices(len(singles), 1))
    pair_load = w0[i] + w0[j]
    fits = pair_load <= budget
    i, j, pair_load = i[fits], j[fits], pair_load[fits]
    seeds = [()] + [(u,) for u in singles.tolist()] + list(zip(i.tolist(), j.tolist()))
    R = len(seeds)
    T = np.zeros((R, n), dtype=bool)
    T[np.arange(1, 1 + len(singles)), singles] = True
    pairs = np.arange(1 + len(singles), R)
    T[pairs, i] = T[pairs, j] = True
    residual = budget - np.concatenate(([0.0], w0[singles], pair_load))
    cap = np.concatenate(([np.inf], w[singles], np.minimum(w[i], w[j])))
    allowed = ~T & (w <= cap[:, None]) & (w <= residual[:, None])
    maxw = np.where(allowed, w, -np.inf).max(axis=1, initial=-np.inf)
    priced = np.flatnonzero(maxw > 0)
    b = residual[priced] / maxw[priced]
    lam = np.array([_lambda(epsilon, W) for W in b.tolist()])

    # f(T) of every nonempty seed, then f(T) again for each run started at T
    values = oracle.eval_rows(np.concatenate((T[1:], T[priced])))
    seed_vals = [f_empty, *values[: R - 1].tolist()]
    cands, cand_vals = list(seeds), list(seed_vals)
    queries = [0] + [1] * (R - 1)
    if len(priced):
        S, fS = T[priced], values[R - 1 :]
        rows = np.where(allowed[priced], w / maxw[priced, None], 0.0)
        asked = _mw_rows(oracle, knapsack, S, fS, allowed[priced], rows, b, lam)
        members = np.nonzero(S)[1].tolist()  # row by row, in ascending id
        sizes = np.count_nonzero(S, axis=1).tolist()
        lo = 0
        for idx, size, value, q in zip(priced.tolist(), sizes, fS.tolist(), asked.tolist()):
            cands[idx] = tuple(members[lo : lo + size])
            cand_vals[idx] = value
            queries[idx] += 1 + q
            lo += size
    for idx in np.flatnonzero(allowed.any(axis=1) & ~(maxw > 0)).tolist():
        # every allowed element weighs 0: extend freely
        before = oracle.query_count
        S, fS = _free_extend(oracle, seeds[idx], seed_vals[idx], np.flatnonzero(allowed[idx]))
        cands[idx], cand_vals[idx] = tuple(sorted(S)), fS
        queries[idx] += oracle.query_count - before
    return seeds, seed_vals, cands, cand_vals, queries


def _mw_rows(oracle, knapsack, S, fS, allowed, rows, b, lam):
    """mw_packing's run on a one-row knapsack, for every row of S at once.

    Row r's run starts at the set S[r] of value fS[r], never deletes it,
    takes candidates from allowed[r], and weighs element j by rows[r, j]
    against the bound b[r], with lambda lam[r]. S and fS are updated in
    place to the runs' final sets and values; returns the queries each row
    made.

    Each round of the live rows evaluates every (row, candidate) set with
    one Oracle.eval_rows call, takes each row's pick with the running tie
    rule, runs the rows' Delete sweeps together (one eval_rows call per
    element visited) and updates their weights with one np.power, which
    gives every position of an array the bits of a one-element call. Every
    row does mw_packing's arithmetic operation for operation, so its values,
    picks and queries are those of the run on its own. A final set over the
    knapsack's budget drops its most recently added elements first, and
    only those rows make the one more query for the repaired set's value.
    """
    R, n = S.shape
    protected = S.copy()
    w = 1.0 / b
    added_at = np.zeros((R, n), dtype=np.int64)  # the round j was last added in
    asked = np.zeros(R, dtype=np.int64)
    live = np.arange(R)
    r = 0
    while True:
        scan = allowed[live] & ~S[live]
        go = scan.any(axis=1) & (b[live] * w[live] <= lam[live])
        live, scan = live[go], scan[go]
        if not len(live):
            break
        r += 1
        at, cols = np.nonzero(scan)  # row by row, candidates in ascending id
        who = live[at]
        sets = S[who]
        sets[np.arange(len(at)), cols] = True
        gains = oracle.eval_rows(sets) - fS[who]
        asked[live] += np.count_nonzero(scan, axis=1)
        denoms = rows[who, cols] * w[who]
        # a zero load gives +inf or -inf by the sign of the gain
        with np.errstate(divide="ignore", invalid="ignore"):
            densities = np.where(
                denoms != 0.0, gains / denoms, np.where(gains > 0, np.inf, -np.inf)
            )
        pick = _argmax_groups(densities, at)
        j, gain = cols[pick], gains[pick]
        grow = gain > 0
        live, j, gain = live[grow], j[grow], gain[grow]
        S[live, j] = True
        fS[live] += gain
        added_at[live, j] = r
        # Delete, every row's sweep of S - T in ascending id at once
        sweep = S[live] & ~protected[live]
        for u in np.flatnonzero(sweep.any(axis=0)).tolist():
            who = live[sweep[:, u]]
            sets = S[who]
            sets[:, u] = False
            f_without = oracle.eval_rows(sets)
            asked[who] += 1
            drop = fS[who] - f_without < 0  # f(u | S - u) < 0
            S[who[drop], u] = False
            fS[who[drop]] = f_without[drop]
        w[live] *= np.power(lam[live], rows[live, j] / b[live])
    # the knapsack's load, added in ascending id from 0.0
    loads = np.cumsum(np.where(S, np.array(knapsack.weights) + 0.0, 0.0), axis=1)[:, -1]
    over = np.flatnonzero(~(loads <= knapsack.budget))
    for r in over.tolist():
        kept = set(np.flatnonzero(S[r]).tolist())
        latest = np.where(S[r], added_at[r], 0)  # 0 for the seed's members
        for j in np.argsort(-latest, kind="stable").tolist():
            if not latest[j]:
                break
            kept.discard(j)
            S[r, j] = False
            if knapsack.is_feasible(kept):
                break
    if len(over):
        fS[over] = oracle.eval_rows(S[over])
        asked[over] += 1
    return asked


def _argmax_groups(values, group):
    """The flat index _argmax picks within each group of `values`, where
    `group` numbers the groups 0, 1, ... and each group is contiguous.

    Where a group's first maximum is larger than every earlier value in it
    by more than EQ_TOL, the running rule ends there; the other groups,
    which hold a near-tie, are run through _argmax itself.
    """
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    top = np.maximum.reduceat(values, starts)[group]
    hits = np.flatnonzero(values == top)
    first = hits[np.r_[True, group[hits[1:]] != group[hits[:-1]]]]
    early = np.arange(len(values)) < first[group]
    ends = np.r_[starts[1:], len(values)]
    for g in np.unique(group[early & ~(top > values + EQ_TOL)]).tolist():
        lo, hi = starts[g], ends[g]
        first[g] = lo + _argmax(values[lo:hi].tolist())
    return first


def _free_extend(oracle, T, fT, allowed):
    """Add zero-weight elements while any has a positive marginal, the first
    such in ascending id, each addition followed by Delete, which never
    removes T."""
    S, fS = set(T), fT
    while True:
        for j in allowed.tolist():
            if j in S:
                continue
            gain = oracle.marginal(j, S, fS)
            if gain > 0:
                break
        else:
            return S, fS
        S, fS = delete(oracle, S | {j}, fS + gain, frozenset(T))

"""Constraint families: cardinality, matroids, packing, knapsack.

Matroids ship in two kinds (uniform, partition) behind a single independence
interface. The extension with 2k dummy elements lets the matroid solver keep
a size-k base at all times and swap against it via the base-exchange
bijection; the bijection itself is found by augmenting paths on the bipartite
exchange graph. None of the operations here consume f-queries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import index

import numpy as np

from .oracle import as_float, as_int


class ConstraintError(Exception):
    pass


class MalformedConstraintError(ConstraintError):
    pass


class UndefinedWidthError(ConstraintError):
    """Packing matrix, or knapsack over its allowed elements, has no positive entry."""


class MatroidInvariantError(ConstraintError):
    """Internal exchange/base invariant broke; the matroid code is buggy."""


def _ids(S, n=None):
    """The elements of S as a set, each checked to be an integer id in
    0..n-1, or a non-negative one when n is None.

    numpy integers pass; a float (even 1.0) or a bool does not, and a
    negative id is not read from the end of a weight vector.
    """
    S = set(S)
    for u in S:
        try:
            i = index(u)
        except TypeError:
            raise MalformedConstraintError(f"element {u!r} is not an integer id") from None
        if i < 0 or (n is not None and i >= n) or u is True or u is False:
            raise MalformedConstraintError(f"element {u!r} is outside the ground set")
    return S


# -- simple families ----------------------------------------------------------


@dataclass(frozen=True)
class CardinalityConstraint:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise MalformedConstraintError(f"k must be positive, got {self.k}")

    def is_feasible(self, S):
        return len(_ids(S)) <= self.k


@dataclass(frozen=True)
class KnapsackConstraint:
    weights: tuple
    budget: float

    def __post_init__(self):
        if not 0 < self.budget < np.inf:
            raise MalformedConstraintError("budget must be positive and finite")
        if not all(0 <= w < np.inf for w in self.weights):
            raise MalformedConstraintError("weights must be non-negative and finite")

    @property
    def n(self):
        return len(self.weights)

    def load(self, S):
        """The weight of S, added one at a time in ascending id, as in
        PackingConstraint.load; every per-set knapsack sum is this one."""
        load = 0.0
        for j in sorted(_ids(S, self.n)):
            load += self.weights[j]
        return load

    def is_feasible(self, S):
        return self.load(S) <= self.budget

    def to_packing(self, budget=None, allowed=None):
        """Rescale to packing form with A entries in [0,1] and b >= 1.

        `budget` defaults to the knapsack's own and `allowed` to every
        element that fits it; elements outside `allowed` get an all-zero
        column. Returns (PackingConstraint, allowed ids). Preserves the
        feasible family over the allowed elements exactly. Raises
        UndefinedWidthError when every allowed weight is zero.
        """
        budget = self.budget if budget is None else budget
        if allowed is None:
            allowed = [j for j in range(self.n) if self.weights[j] <= budget]
        maxw = max((self.weights[j] for j in allowed), default=0.0)
        if maxw == 0:
            raise UndefinedWidthError("no allowed knapsack element has a positive weight")
        row = [0.0] * self.n
        for j in allowed:
            row[j] = self.weights[j]
        return PackingConstraint(np.array([row]) / maxw, np.array([budget / maxw])), allowed


class PackingConstraint:
    def __init__(self, A, b):
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise MalformedConstraintError("A must be m x n with b of length m")
        # min and max are NaN when an entry is, and NaN fails the comparisons
        if A.size and not (A.min() >= 0 and A.max() <= 1):
            raise MalformedConstraintError("A entries must lie in [0, 1]")
        if b.size and not (b.min() >= 1 and b.max() < np.inf):
            raise MalformedConstraintError("b entries must be finite and >= 1")
        self.A = A
        self.b = b
        self.m, self.n = A.shape

    def load(self, S):
        """A x_S, each row's weights added one at a time in ascending id.

        Every per-set load check and exact.feasible_mask_array's tables add
        in this order, so they agree on a load that rounds across a budget.
        Neither builtin sum (compensated from Python 3.12) nor numpy's
        pairwise sum keeps it.
        """
        load = np.zeros(self.m)
        for j in sorted(_ids(S, self.n)):
            load += self.A[:, j]
        return load

    def is_feasible(self, S):
        return bool(np.all(self.load(S) <= self.b))

    def width(self):
        """W = min over positive entries of b_i / A_ij.

        Computed as the minimum over rows with a positive entry of
        b_i / max_j A_ij: rounded division by a positive number is monotone,
        so this is the same float.
        """
        top = self.A.max(axis=1, initial=0.0)
        pos = top > 0
        if not pos.any():
            raise UndefinedWidthError("packing matrix has no positive entry")
        return float((self.b[pos] / top[pos]).min())


# -- matroids ------------------------------------------------------------------


class Matroid:
    """Independence oracle interface; subclasses define is_independent."""

    rank = None

    def is_independent(self, S):
        raise NotImplementedError

    # constraint-style alias
    def is_feasible(self, S):
        return self.is_independent(S)


class UniformMatroid(Matroid):
    def __init__(self, k, n):
        if k < 1 or k > n:
            raise MalformedConstraintError(f"uniform matroid needs 1 <= k <= n, got k={k}, n={n}")
        self.k = k
        self.n = n
        self.rank = k

    def is_independent(self, S):
        return len(_ids(S, self.n)) <= self.k


class PartitionMatroid(Matroid):
    def __init__(self, parts, limits):
        parts = [frozenset(p) for p in parts]
        if len(parts) != len(limits):
            raise MalformedConstraintError("parts and limits must align")
        seen = set()
        for p in parts:
            if p & seen:
                raise MalformedConstraintError("parts must be disjoint")
            seen |= p
        n = max(seen) + 1 if seen else 0
        if seen != set(range(n)):
            raise MalformedConstraintError("parts must cover 0..n-1 without gaps")
        if any(l < 0 for l in limits):
            raise MalformedConstraintError("limits must be non-negative")
        self.parts = parts
        self.limits = tuple(int(l) for l in limits)
        self.n = n
        self.rank = sum(min(l, len(p)) for p, l in zip(parts, self.limits))

    def is_independent(self, S):
        S = _ids(S, self.n)
        return all(len(S & p) <= l for p, l in zip(self.parts, self.limits))


class ExtendedMatroid:
    """Base matroid plus 2k dummy elements with ids n .. n+2k-1.

    A set S of extended ids is independent iff its real part is independent
    in the base matroid and |S| <= k. Every independent set pads with dummies
    to a base of size exactly k, so all bases of the extension have size k.
    """

    def __init__(self, matroid, n):
        self.matroid = matroid
        self.n = n
        self.k = matroid.rank
        if self.k < 1:
            raise MalformedConstraintError("matroid rank must be >= 1")
        self.dummies = tuple(range(n, n + 2 * self.k))
        self.n_ext = n + 2 * self.k

    def is_dummy(self, u):
        return u >= self.n

    def real_part(self, S):
        return frozenset(u for u in S if u < self.n)

    def is_independent(self, S):
        S = set(S)
        if len(S) > self.k:
            return False
        return self.matroid.is_independent(self.real_part(S))

    def pad_to_base(self, S):
        """Extend an independent set to a size-k base with lowest free dummies."""
        S = set(S)
        for d in self.dummies:
            if len(S) >= self.k:
                break
            S.add(d)
        if len(S) != self.k:
            raise MatroidInvariantError("could not pad to a base; extension broken")
        return frozenset(S)

    def max_weight_base(self, weight, excluded=frozenset()):
        """Greedy maximum-weight base among elements outside `excluded`.

        `weight` maps real element ids to values; dummies weigh 0. Order:
        descending weight, real before dummy at equal weight, then ascending
        id. Consumes no f-queries.
        """
        excluded = set(excluded)
        cands = [u for u in range(self.n_ext) if u not in excluded]
        cands.sort(key=lambda u: (-(0.0 if self.is_dummy(u) else weight[u]), self.is_dummy(u), u))
        base = set()
        real = set()
        for u in cands:
            if len(base) == self.k:
                break
            if self.is_dummy(u):
                base.add(u)
            elif self.matroid.is_independent(real | {u}):
                base.add(u)
                real.add(u)
        if len(base) != self.k:
            raise MatroidInvariantError("greedy failed to build a base of size k")
        return frozenset(base)

    def exchange_bijection(self, A, B):
        """Base-exchange bijection g: A -> B with g(u)=u on the overlap and
        B + u - g(u) independent for every u in A.

        Found as a perfect matching of the bipartite exchange graph on
        (A \\ B) x (B \\ A) by augmenting paths; existence is guaranteed for
        bases, so failure signals a broken independence oracle. No f-queries.
        """
        A, B = frozenset(A), frozenset(B)
        if len(A) != self.k or len(B) != self.k:
            raise MatroidInvariantError("exchange bijection needs two size-k bases")
        g = {u: u for u in A & B}
        left = sorted(A - B)
        right = sorted(B - A)
        adj = {
            u: [w for w in right if self.is_independent(B - {w} | {u})] for u in left
        }
        match_r = {}  # right element -> left element

        def augment(u, seen):
            # prefer a free partner (keeps the lowest-id pairing in easy cases)
            for w in adj[u]:
                if w not in match_r and w not in seen:
                    match_r[w] = u
                    return True
            for w in adj[u]:
                if w in seen:
                    continue
                seen.add(w)
                if augment(match_r[w], seen):
                    match_r[w] = u
                    return True
            return False

        for u in left:
            if not augment(u, set()):
                raise MatroidInvariantError(
                    "no perfect matching in exchange graph; matroid oracle broken"
                )
        for w, u in match_r.items():
            g[u] = w
        # cheap per-call re-verification of both exchange properties
        for u in A:
            if not self.is_independent(B - {g[u]} | {u}):
                raise MatroidInvariantError("exchange bijection output fails re-check")
        if len(set(g.values())) != len(g):
            raise MatroidInvariantError("exchange map is not one-to-one")
        return g


# -- files ---------------------------------------------------------------------


def parse_constraint(obj, n=None):
    """Build a constraint from a parsed object; n is the instance ground size
    (needed by uniform matroids and sanity checks)."""
    try:
        kind = obj["type"]
        if kind == "cardinality":
            return CardinalityConstraint(as_int(obj["k"]))
        if kind == "uniform-matroid":
            if n is None:
                raise MalformedConstraintError("uniform matroid needs the ground-set size")
            return UniformMatroid(as_int(obj["k"]), n)
        if kind == "partition-matroid":
            parts = [[as_int(u) for u in p] for p in obj["parts"]]
            return PartitionMatroid(parts, [as_int(l) for l in obj["limits"]])
        if kind == "packing":
            A = [[as_float(a) for a in row] for row in obj["A"]]
            return PackingConstraint(A, [as_float(b) for b in obj["b"]])
        if kind == "knapsack":
            weights = tuple(as_float(w) for w in obj["weights"])
            return KnapsackConstraint(weights, as_float(obj["budget"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedConstraintError(
            f"bad constraint object: {type(exc).__name__}: {exc}"
        ) from exc
    raise MalformedConstraintError(f"unknown constraint type {kind!r}")


def check_ground_set(constraint, n):
    """Raise MalformedConstraintError unless the constraint is over n elements.

    A cardinality bound has no ground set of its own and fits every n.
    """
    size = getattr(constraint, "n", n)
    if size != n:
        raise MalformedConstraintError(f"constraint covers {size} elements, instance has n={n}")


def constraint_to_dict(c):
    if isinstance(c, CardinalityConstraint):
        return {"type": "cardinality", "k": c.k}
    if isinstance(c, UniformMatroid):
        return {"type": "uniform-matroid", "k": c.k}
    if isinstance(c, PartitionMatroid):
        return {
            "type": "partition-matroid",
            "parts": [sorted(p) for p in c.parts],
            "limits": list(c.limits),
        }
    if isinstance(c, PackingConstraint):
        return {"type": "packing", "A": c.A.tolist(), "b": c.b.tolist()}
    if isinstance(c, KnapsackConstraint):
        return {"type": "knapsack", "weights": list(c.weights), "budget": c.budget}
    raise MalformedConstraintError(f"cannot serialize {type(c).__name__}")


def load_constraint(path, n=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_constraint(json.load(fh), n=n)

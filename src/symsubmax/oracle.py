"""Value oracles for non-negative symmetric submodular set functions.

The ground set is {0, ..., n-1}. Three concrete oracle kinds are provided:
weighted graph cuts, weighted hypergraph cuts, and explicit value tables
(indexed by bitmask, subset S -> sum(2**i for i in S)).

Every call to :meth:`Oracle.eval` counts as one query. Marginal values are
computed from a caller-supplied cached base value so that one marginal costs
exactly one query; the oracle never caches function values on the caller's
behalf.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from operator import index

import numpy as np

# Hard cap for materializing all 2^n values (brute force, validation).
TABLE_MAX_N = 24

# The table build adds edge weights to rows of 2^ROW_BITS entries (64 KB);
# 13 built the benchmark's tables 10-25% faster than 12 or 14.
ROW_BITS = 13

EQ_TOL = 1e-9

# eval_masks takes the values of fewer masks one at a time. Timed on a
# 2-core Xeon, a batch broke even with one-at-a-time evaluation at about 6-8
# masks on a 55-edge hypergraph at n = 23 and on a 2^18 table, and at 1-4
# masks on graphs, where direct evaluation is slower.
BATCH_MIN = 8

# A batched cut evaluation handles up to this many (mask, edge, word) cells
# per numpy pass: a few 8-byte arrays of 512 KB.
BATCH_CELLS = 1 << 16


class OracleError(Exception):
    pass


class InvalidSetError(OracleError):
    """A set argument contains ids outside 0..n-1 or violates a precondition."""


class MalformedInstanceError(OracleError):
    """Instance payload is structurally invalid (bad table length, bad edge...)."""


@dataclass(frozen=True)
class WeightedGraph:
    n: int
    edges: tuple  # of (u, v, w)

    def __post_init__(self):
        # every cut value adds some of the weights in edge order, so it is at
        # most their total in edge order (rounding is monotone): a finite
        # total keeps every cut value finite
        total = 0.0
        for u, v, w in self.edges:
            if u == v:
                raise MalformedInstanceError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise MalformedInstanceError(f"edge ({u},{v}) outside 0..{self.n - 1}")
            if not 0 <= w < np.inf:
                raise MalformedInstanceError(
                    f"weight {w} on edge ({u},{v}) is negative or not finite"
                )
            total += w
        if total == np.inf:
            raise MalformedInstanceError("edge weights do not sum to a finite total")


@dataclass(frozen=True)
class WeightedHypergraph:
    n: int
    hyperedges: tuple  # of (frozenset of members, w)

    def __post_init__(self):
        total = 0.0  # must stay finite, as for WeightedGraph
        for members, w in self.hyperedges:
            if len(members) < 2:
                raise MalformedInstanceError("hyperedge needs at least 2 members")
            if not all(0 <= u < self.n for u in members):
                raise MalformedInstanceError("hyperedge member outside ground set")
            if not 0 <= w < np.inf:
                raise MalformedInstanceError(f"hyperedge weight {w} is negative or not finite")
            total += w
        if total == np.inf:
            raise MalformedInstanceError("hyperedge weights do not sum to a finite total")


def as_int(x):
    """x as an int when it is an int or a float with no fraction part.

    Raises ValueError for a bool or anything else, so that a parser reading
    JSON neither truncates 1.5 to 1 nor reads true as 1.
    """
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise ValueError(f"{x!r} is not a whole number")


def as_float(x):
    """x as a float when it is an int or a float.

    Raises ValueError for a bool, a numeric string or anything else, so that
    a parser reading JSON does not read true as 1.0 or "1.5" as 1.5.
    """
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    raise ValueError(f"{x!r} is not a number")


def _mask_of(S, n):
    """The bitmask of S, whose elements must be integer ids in 0..n-1.

    numpy integers pass; a float (even 1.0) or a bool does not, so that no
    id is silently truncated or read from True.
    """
    mask = 0
    for u in S:
        if type(u) is int and 0 <= u < n:  # the common case, checked first
            mask |= 1 << u
            continue
        try:
            i = index(u)
        except TypeError:
            raise InvalidSetError(f"element {u!r} is not an integer id") from None
        if not 0 <= i < n or u is True or u is False:  # index(True) is 1
            raise InvalidSetError(f"element {u!r} is not an id in 0..{n - 1}")
        mask |= 1 << i
    return mask


def added_masks(cands, S, n):
    """[mask of S + u for u in cands], every u an id in 0..n-1 outside S.

    Raises InvalidSetError as _mask_of does, or when some u is in S.
    """
    base = _mask_of(S, n)
    masks = []
    for u in cands:
        # _mask_of's fast path, inline
        bit = 1 << u if type(u) is int and 0 <= u < n else _mask_of((u,), n)
        if base & bit:
            raise InvalidSetError(f"element {u} already in the set")
        masks.append(base | bit)
    return masks


def _checked_mask(m, limit):
    """m as an int when it is an integer (not a bool) in 0..limit-1."""
    try:
        i = index(m)
    except TypeError:
        raise InvalidSetError(f"mask {m!r} is not an integer") from None
    if not 0 <= i < limit or m is True or m is False:
        raise InvalidSetError(f"mask {m!r} is not a set of ids in 0..{limit.bit_length() - 2}")
    return i


def _words(masks, words):
    """The masks as rows of `words` 64-bit words, lowest word first."""
    width = 8 * words
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), words)


def _bit_axes(arr, ids):
    """View a flat array over all 2^n subset bitmasks with one length-2 axis
    per id in `ids`, indexed by that id's bit.

    The ids' axes run from the highest id to the lowest, at positions 1, 3,
    5, ...; the axes between them merge the other ids, so C order stays
    ascending mask order. `arr` may be a strided 1-D view, or an array whose
    first axis runs over the masks and whose further axes are kept as they
    are.
    """
    n = len(arr).bit_length() - 1
    shape = []
    hi = n
    for u in sorted(map(int, ids), reverse=True):
        shape += [1 << (hi - u - 1), 2]
        hi = u
    shape.append(1 << hi)
    return arr.reshape((*shape, *arr.shape[1:]))


def _set_of(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class Oracle:
    """Counting value oracle over a fixed payload.

    The payload is immutable after construction; the query counter is the
    only mutable state and is guarded by a lock so concurrent evals never
    lose counts.
    """

    def __init__(self, kind, n, payload):
        self.kind = kind
        self.n = n
        self._payload = payload
        self._queries = 0
        self._lock = threading.Lock()
        self._table = None
        self._edge_words = self._edge_weights = None  # built by the first cut batch
        self._incidence = None  # built by the first eval_rows call on a cut
        if kind == "graph-cut":
            g = payload
            self._eu = np.array([e[0] for e in g.edges], dtype=np.int64)
            self._ev = np.array([e[1] for e in g.edges], dtype=np.int64)
            self._ew = np.array([e[2] for e in g.edges], dtype=np.float64)
        elif kind == "hypergraph-cut":
            self._hedges = [
                (sum(1 << u for u in members), float(w)) for members, w in payload.hyperedges
            ]
        elif kind == "table":
            values = payload
            # compare bit lengths first: 1 << n for a huge n would not fit
            if len(values).bit_length() - 1 != n or len(values) != 1 << n:
                raise MalformedInstanceError(f"table has {len(values)} entries, expected 2^{n}")
            # the array is the payload: the values are held once, in a
            # read-only copy, so no caller can change them afterwards
            self._payload = self._table = np.array(values, dtype=np.float64)
            self._table.flags.writeable = False
            if not np.isfinite(self._table).all():
                raise MalformedInstanceError("table values must be finite")
        else:
            raise MalformedInstanceError(f"unknown oracle kind {kind!r}")

    # -- query accounting ---------------------------------------------------

    @property
    def query_count(self):
        return self._queries

    def reset_queries(self):
        with self._lock:
            self._queries = 0

    # -- evaluation ----------------------------------------------------------

    def eval(self, S):
        """Return f(S), counting one query."""
        mask = _mask_of(S, self.n)
        with self._lock:
            self._queries += 1
        return self._value(mask)

    def eval_uncounted(self, S):
        """f(S) without touching the counter (validators, exact baselines)."""
        return self._value(_mask_of(S, self.n))

    def marginal(self, u, S, fS):
        """Return f(u | S) = f(S + u) - fS using exactly one new query.

        The caller supplies the cached value fS = f(S); this contract is what
        keeps solver query counts tight.
        """
        bit = _mask_of((u,), self.n)
        mask = _mask_of(S, self.n)
        if mask & bit:
            raise InvalidSetError(f"element {u} already in the set")
        with self._lock:
            self._queries += 1
        return self._value(mask | bit) - fS

    def marginals(self, cands, S, fS):
        """Return [f(u | S) for u in cands], counting len(cands) queries.

        Each value is the one marginal(u, S, fS) returns, bit for bit; the
        set's mask is built once and the values come from one eval_masks
        call. Every id is checked before any query is counted, so a rejected
        call counts none.
        """
        return [value - fS for value in self.eval_masks(added_masks(cands, S, self.n))]

    def eval_masks(self, masks):
        """Return [f(S) for the sets S whose bitmasks are `masks`], counting
        len(masks) queries.

        Each value is the one eval returns for that set, bit for bit. Every
        mask is checked before any query is counted: one that is not an
        integer in 0..2^n - 1 (a bool or a float is not) raises
        InvalidSetError and the call counts nothing. Below BATCH_MIN masks
        the values are taken one mask at a time; from there on, a built
        table answers with one gather and a cut with one numpy pass.
        """
        limit = 1 << self.n
        masks = [m if type(m) is int and 0 <= m < limit else _checked_mask(m, limit) for m in masks]
        with self._lock:
            self._queries += len(masks)
        if len(masks) < BATCH_MIN:
            return [self._value(m) for m in masks]
        if self._table is not None:
            return self._table[masks].tolist()
        return self._cut_values(masks)

    def eval_rows(self, rows):
        """Return f(S) for the set S of each row of `rows` as a float64 array,
        counting len(rows) queries.

        `rows` is a 2-D bool array with n columns; row r holds i where
        rows[r, i] is True. Each value is the one eval returns for that set,
        bit for bit. Any other argument raises InvalidSetError and the call
        counts nothing. A built table answers with one gather; a cut counts
        each edge's members in every row (a graph edge is a 2-member edge),
        an edge being cut where that count is neither 0 nor its size, and
        adds the cut edges' weights in edge order by one sequential
        accumulate, as _cut_values does, in chunks of about BATCH_CELLS
        (row, edge) cells.
        """
        if not (
            isinstance(rows, np.ndarray)
            and rows.dtype == bool
            and rows.ndim == 2
            and rows.shape[1] == self.n
        ):
            raise InvalidSetError(f"rows must be a 2-D bool array with {self.n} columns")
        with self._lock:
            self._queries += len(rows)
        if self._table is not None:
            return self._table[rows @ (1 << np.arange(self.n, dtype=np.int64))]
        if self._incidence is None:
            if self.kind == "graph-cut":
                edges = [((u, v), w) for u, v, w in self._payload.edges]
            else:
                edges = self._payload.hyperedges
            incidence = np.zeros((self.n, len(edges)))
            for e, (members, _) in enumerate(edges):
                incidence[list(members), e] = 1.0
            sizes = incidence.sum(axis=0)
            weights = np.array([w for _, w in edges], dtype=np.float64) + 0.0
            self._incidence = incidence, sizes, weights
        incidence, sizes, weights = self._incidence
        if not len(weights):
            return np.zeros(len(rows))
        out = np.empty(len(rows))
        step = max(1, BATCH_CELLS // len(weights))
        for lo in range(0, len(rows), step):
            # exact small integers: the products and sums are 0s and 1s
            count = rows[lo : lo + step] @ incidence
            cut = (count > 0) & (count < sizes)
            out[lo : lo + step] = np.cumsum(cut * weights, axis=1)[:, -1]
        return out

    def _value(self, mask):
        # a built table and direct evaluation agree bit for bit: both add the
        # weights of the cut edges in edge order
        if self._table is not None:
            return float(self._table[mask])
        return self._value_direct(mask)

    def _cut_values(self, masks):
        """Cut values of many masks, bit for bit those of _value_direct.

        Each mask is split into 64-bit words and ANDed with every edge's
        member words (a graph edge is a 2-member edge); an edge is cut where
        the result is neither zero nor all its members. The cut edges'
        weights are then added in edge order by one sequential accumulate,
        with 0.0 for an edge not cut, which leaves a sum of non-negative
        weights as it is (-0.0 weights are stored as 0.0, so no sum reads
        -0.0). Masks go through in chunks of about BATCH_CELLS cells.
        """
        if self._edge_words is None:
            if self.kind == "graph-cut":
                edges = [((1 << int(u)) | (1 << int(v)), w) for u, v, w in zip(self._eu, self._ev, self._ew)]
            else:
                edges = self._hedges
            words = max(1, -(-self.n // 64))
            self._edge_words = _words([hm for hm, _ in edges], words)
            self._edge_weights = np.array([w for _, w in edges], dtype=np.float64) + 0.0
        members, weights = self._edge_words, self._edge_weights
        n_edges, words = members.shape
        if n_edges == 0:
            return [0.0] * len(masks)
        x = _words(masks, words)
        step = max(1, BATCH_CELLS // (n_edges * words))
        out = []
        for lo in range(0, len(masks), step):
            hit = x[lo : lo + step, None, :] & members
            cut = hit.any(axis=2) & (hit != members).any(axis=2)
            out += np.cumsum(cut * weights, axis=1)[:, -1].tolist()
        return out

    def _value_direct(self, mask):
        if self.kind == "graph-cut":
            # pure-int arithmetic: masks may exceed 64 bits when n is large
            total = 0.0
            for u, v, w in zip(self._eu, self._ev, self._ew):
                if (mask >> int(u)) & 1 != (mask >> int(v)) & 1:
                    total += w
            return total
        # hypergraph-cut: cut when the set holds some but not all members
        total = 0.0
        for hm, w in self._hedges:
            x = mask & hm
            if x and x != hm:
                total += w
        return total

    def value_table(self):
        """All 2^n values as a float array indexed by subset bitmask.

        Never counts queries. Refuses n > TABLE_MAX_N. Once built, the
        table also answers eval and marginal. The array is read-only.
        """
        if self.n > TABLE_MAX_N:
            raise InvalidSetError(f"n={self.n} too large for full table (cap {TABLE_MAX_N})")
        if self._table is None:
            self._table = self._build_table()
            self._table.flags.writeable = False
        return self._table

    def _build_table(self):
        # A cut is symmetric bit for bit: V - S cuts the edges S cuts and adds
        # their weights in the same order. So only the half where id n-1 is
        # out is built, then mirrored: the complement of mask m is 2^n - 1 - m.
        # That half is read as rows of 2^low entries: the ids below `low`
        # pick the entry within a row, ids low..n-2 pick the row. Every entry
        # gets at most one addition per edge, w where the edge cuts it and
        # 0.0 or nothing elsewhere, in edge order as _value_direct adds the
        # weights; a value is never -0.0, so adding 0.0 leaves it as it is.
        n = self.n
        if n == 0:
            return np.zeros(1)
        top = n - 1
        low = min(top, ROW_BITS)
        vals = np.zeros(1 << n, dtype=np.float64)
        half = vals[: 1 << top]
        rows = half.reshape(-1, 1 << low)
        col = np.arange(1 << low)
        has = [(col >> i & 1).astype(bool) for i in range(low)]  # bit i of each column
        if self.kind == "graph-cut":
            edges = zip(zip(self._eu, self._ev), self._ew)
        else:
            edges = ((members, float(w)) for members, w in self._payload.hyperedges)
        for members, w in edges:
            high = [u - low for u in members if low <= u < top]
            q = _bit_axes(rows, high)
            bits = [has[u] for u in members if u < low]
            some = every = bits[0] if bits else None
            for b in bits[1:]:
                some, every = some | b, every & b
            if top in members:
                # n-1 is out, so the edge is cut wherever another member is
                # in: in the rows where, highest id first, high member j+1 is
                # the first one in, and in the rows where every high member
                # is out, wherever some low member is in
                for j in range(len(high)):
                    q[(slice(None), 0) * j + (slice(None), 1)] += w
                if bits:
                    q[(slice(None), 0) * len(high)] += w * some
                continue
            # With the h high members ordered highest id first, the edge is
            # cut in every entry of the rows where, for some j < h, members
            # 1..j all have bit a and member j+1 has bit 1-a: 2(h-1)
            # disjoint slabs of whole rows.
            for j in range(1, len(high)):
                for a in (0, 1):
                    q[(slice(None), a) * j + (slice(None), 1 - a)] += w
            if not bits:
                continue
            if high:
                # in the rows where every high member is out (in), the edge
                # is cut where some low member is in (out)
                q[(slice(None), 0) * len(high)] += w * some
                q[(slice(None), 1) * len(high)] += w * ~every
            else:
                rows += w * (some ^ every)
        vals[1 << top :] = half[::-1]
        return vals


def graph_cut_oracle(graph):
    return Oracle("graph-cut", graph.n, graph)


def hypergraph_cut_oracle(hypergraph):
    return Oracle("hypergraph-cut", hypergraph.n, hypergraph)


def table_oracle(n, values):
    return Oracle("table", n, values)


# -- validation ---------------------------------------------------------------


@dataclass
class ValidationReport:
    valid: bool
    mode: str
    checks: int
    violations: list = field(default_factory=list)

    def to_dict(self):
        # by hand: dataclasses.asdict deep-copies every leaf, 40 times slower
        return {
            "valid": self.valid,
            "mode": self.mode,
            "checks": self.checks,
            "violations": [dict(v) for v in self.violations],
        }


def _record(report, kind, **data):
    report.valid = False
    report.violations.append({"kind": kind, **data})


def validate(oracle, mode="exhaustive", trials=1000, seed=0):
    """Check non-negativity, symmetry and submodularity of an oracle.

    Exhaustive mode (n <= 20) checks every subset for non-negativity and
    symmetry, and every (S, u, v) local submodularity condition
    f(S+u) + f(S+v) >= f(S+u+v) + f(S), which is equivalent to full
    submodularity. Sampled mode checks `trials` >= 1 random (S, T, u)
    diminishing-returns triples plus symmetry/non-negativity on the sampled
    sets. Values within EQ_TOL count as equal.

    Violations are report content, never exceptions; a mode other than
    "exhaustive" or "sampled" raises OracleError.
    """
    n = oracle.n
    if mode == "exhaustive":
        if n > 20:
            raise InvalidSetError(f"exhaustive validation capped at n=20, got n={n}")
        return _validate_exhaustive(oracle)
    if mode != "sampled":
        raise OracleError(f"unknown validation mode {mode!r}")
    if trials < 1:
        raise OracleError(f"sampled validation needs trials >= 1, got {trials}")
    return _validate_sampled(oracle, trials, seed)


# Past the float limit a difference below reads inf or NaN: either one flags
# the set, and the re-test's half-scale sums stay finite.
@np.errstate(over="ignore", invalid="ignore")
def _validate_exhaustive(oracle):
    n = oracle.n
    vals = oracle.value_table()
    report = ValidationReport(valid=True, mode="exhaustive", checks=0)

    bad = np.nonzero(vals < -EQ_TOL)[0]
    for m in bad[:50]:
        _record(report, "non-negativity", S=_set_of(int(m)), value=float(vals[m]))
    report.checks += len(vals)

    # the complement of mask m is 2^n - 1 - m
    comp = vals[::-1]
    gap = vals - comp
    bad = np.nonzero(np.abs(gap, out=gap) > EQ_TOL)[0]
    del gap
    for m in bad[:50]:
        _record(
            report,
            "symmetry",
            S=_set_of(int(m)),
            value=float(vals[m]),
            complement_value=float(comp[m]),
        )
    report.checks += len(vals)

    # Submodularity fails for (u, v) at S when f(S+u) + f(S+v) < f(S+u+v) +
    # f(S) - tol, for tol = EQ_TOL. In exact arithmetic that reads
    # d(S+v) - d(S) > tol, for the marginals d(S) = f(S+u) - f(S) of u. Each
    # form rounds three times, by at most 2^-53 of a value below 4 big + tol
    # each time, so wherever the first holds, the screen
    # d(S+v) - d(S) > tol - slack holds too. Only the
    # sets the screen flags are tested as first written, with the operands in
    # that order. The bound needs every sum to be finite: from big = 2^1021
    # on, the screen is NaN and flags every set.
    big = max(float(vals.max()), -float(vals.min()))
    slack = 16 * np.finfo(np.float64).eps * (big + EQ_TOL)
    screen = EQ_TOL - slack if big < 2.0**1021 else np.nan
    marg = np.empty(len(vals) >> 1)
    step = np.empty(len(vals) >> 2)
    calm = np.empty(len(step), dtype=bool)
    for u in range(n):
        by_u = _bit_axes(vals, (u,))
        np.subtract(by_u[:, 1], by_u[:, 0], out=marg.reshape(by_u[:, 0].shape))
        for v in range(u + 1, n):
            # marg has no bit u, so v is its bit v - 1
            r = _bit_axes(marg, (v - 1,))
            np.subtract(r[:, 1], r[:, 0], out=step.reshape(r[:, 0].shape))
            report.checks += len(step)
            if np.less_equal(step, screen, out=calm).all():
                continue
            # q[:, a, :, b] holds f(S + a*v + b*u) for every S avoiding u and v
            q = _bit_axes(vals, (u, v))
            flagged = ~calm.reshape(q[:, 0, :, 0].shape)
            # at half scale, which is exact above the subnormal range, so the
            # verdicts and deficits are those of the full-scale sums wherever
            # these are finite, and the half-scale sums never overflow
            lhs = q[:, 0, :, 1][flagged] * 0.5 + q[:, 1, :, 0][flagged] * 0.5
            rhs = q[:, 1, :, 1][flagged] * 0.5 + q[:, 0, :, 0][flagged] * 0.5
            bad = np.flatnonzero(lhs < rhs - EQ_TOL * 0.5)[:5]
            where = np.flatnonzero(flagged)[bad]
            for i, j in zip(where, bad):
                _record(
                    report,
                    "submodularity",
                    S=_set_of(_insert_zero_bits(int(i), u, v)),
                    u=u,
                    v=v,
                    deficit=2 * (float(rhs[j]) - float(lhs[j])),
                )
    return report


def _insert_zero_bits(i, u, v):
    """The mask whose bits, with the zero bits at u < v removed, read i."""
    for b in (u, v):
        i = (i >> b << (b + 1)) | (i & ((1 << b) - 1))
    return i


def _validate_sampled(oracle, trials, seed):
    import random

    rng = random.Random(seed)
    n = oracle.n
    full = set(range(n))
    report = ValidationReport(valid=True, mode=f"sampled({trials},{seed})", checks=0)
    for _ in range(trials):
        T = {u for u in range(n) if rng.random() < 0.5}
        S = {u for u in T if rng.random() < 0.5}
        fT = oracle.eval_uncounted(T)
        fS = oracle.eval_uncounted(S)
        if fT < -EQ_TOL:
            _record(report, "non-negativity", S=sorted(T), value=fT)
        fTc = oracle.eval_uncounted(full - T)
        if abs(fT - fTc) > EQ_TOL:
            _record(report, "symmetry", S=sorted(T), value=fT, complement_value=fTc)
        outside = sorted(full - T)
        if outside:
            u = rng.choice(outside)
            gS = oracle.eval_uncounted(S | {u}) - fS
            gT = oracle.eval_uncounted(T | {u}) - fT
            if gS < gT - EQ_TOL:
                _record(
                    report,
                    "diminishing-returns",
                    S=sorted(S),
                    T=sorted(T),
                    u=u,
                    deficit=gT - gS,
                )
        report.checks += 1
    return report


# -- instance files -----------------------------------------------------------


def parse_instance(obj):
    """Build an oracle from a parsed instance object (see file format docs)."""
    try:
        kind = obj["type"]
        n = as_int(obj["n"])
        if n < 0:
            raise MalformedInstanceError(f"n must be >= 0, got {n}")
        if kind == "graph-cut":
            edges = tuple((as_int(u), as_int(v), as_float(w)) for u, v, w in obj["edges"])
            return graph_cut_oracle(WeightedGraph(n, edges))
        if kind == "hypergraph-cut":
            hyperedges = tuple(
                (frozenset(as_int(u) for u in e["members"]), as_float(e["w"]))
                for e in obj["edges"]
            )
            return hypergraph_cut_oracle(WeightedHypergraph(n, hyperedges))
        if kind == "table":
            return table_oracle(n, [as_float(v) for v in obj["values"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInstanceError(
            f"bad instance object: {type(exc).__name__}: {exc}"
        ) from exc
    raise MalformedInstanceError(f"unknown instance type {kind!r}")


def instance_to_dict(oracle):
    if oracle.kind == "graph-cut":
        g = oracle._payload
        return {
            "type": "graph-cut",
            "n": g.n,
            "edges": [[u, v, w] for u, v, w in g.edges],
        }
    if oracle.kind == "hypergraph-cut":
        hg = oracle._payload
        return {
            "type": "hypergraph-cut",
            "n": hg.n,
            "edges": [{"members": sorted(m), "w": w} for m, w in hg.hyperedges],
        }
    return {"type": "table", "n": oracle.n, "values": oracle._table.tolist()}


def load_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(json.load(fh))


def save_instance(oracle, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(oracle), fh, indent=2, sort_keys=True)
        fh.write("\n")

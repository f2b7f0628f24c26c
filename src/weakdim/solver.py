"""Exact solvers for the weak k-metric dimension (vertex, edge, mixed).

The engines, their certificates and LP export read one ``CoverModel``:
a row per item pair (items are vertices, edges or both, by variant), in
lex order, holding the pair's distance difference at each vertex (to an
edge vw the distance is min(d(., v), d(., w))). A set is feasible when
its column sum reaches k on every row; the count criterion (k distinct
distinguishers) is the same model on the profile's 0/1 support.

The checks of a given set (``certificate_for``, ``verify_set``, the
three vertex verifiers and the edge and mixed ``variant_kappa``) hold no
model: one worst-pair call scans the item rows with ``resolve.lex_min``
(sum or count, over all pairs or the adjacent ones) and one verdict
compares the worst pair with k. The vertex kappa takes resolve's routes.
A sweep of sets (``certificates_for``, which checks a ``wdim`` range) is
one ``lex_min`` call over the union of their columns, with a matrix
reducer: each set's pair sums are the previous set's plus the columns
it adds and minus those it drops, one cumsum along the signed change
columns read at the end of each step. The reducer stays in int64 on one
thread. It makes no matrix product with a 0/±1 matrix: that would go
through float BLAS, whose OpenBLAS worker threads spin for about 0.13 s
of CPU after every call (2-core x86 host), more than the whole check of
a typical sweep.

``write_lp`` renders the sum model as CPLEX-LP text, one row per item
pair. The rows are made in blocks of profile entries with no Python
work per coefficient: each nonzero entry's rank in its row picks its
separator, and one index into a table of term strings gives every
cell's text. The format is unchanged; ``export-lp`` writes each block
as it is made, so its memory is bounded by one block, the model and
the table (three strings per coefficient value and column).

Two engines certify optima. ``solve_bruteforce`` enumerates subsets in
increasing size and lexicographic order, so it returns the canonical
(lex-smallest) optimal set. ``solve_bnb`` is a depth-first
branch-and-bound over include/exclude decisions, starting from a greedy
cover. Each row's threshold k is first rounded up to a multiple of the
row's gcd, since every column sum of the row is such a multiple (on
bipartite graphs, pairs at even distance have only even entries). A node
carries the rows still short of their threshold and what they lack, and
is pruned when some row cannot be covered by the columns left, or when
an admissible lower bound on the columns still needed meets the
incumbent. Entries are clipped at their row's residual. The cheap
bounds come first: the cardinality bound (the most columns any single
row needs, taking its largest entries first) and the mass bound
ceil(total residual / best clipped column sum). Where both fail, the
Lagrangian bound L(u) = u.res + sum_c min(0, 1 - (u^T C)_c), for row
multipliers u in [0, 1], has the LP relaxation's value as its maximum:
projected subgradient steps with a Polyak step size raise it, about 60
at the root and a few at every other node, warm-started from the
parent's multipliers on the rows still short. Any u gives a valid
bound, so exactness never rests on convergence; the prune decision
itself is exact, made in integers on u snapped down to multiples of
2^-20. The search is an explicit-stack DFS that takes the include
child first; it branches on the column with the largest raw sum over
the short rows and returns its first incumbent at the optimal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, islice
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from .errors import KaboveKappa, ParameterOutOfRange, TooLarge
from .graph import Graph, _check_peak
from .resolve import _adjacent_partners, _check_set, _kappa_route, lex_min, pair_count, pair_sum

Item = Union[int, tuple[int, int]]

DEFAULT_SIZE_CAP = 16


class Variant(str, Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    MIXED = "mixed"


@dataclass(frozen=True)
class ItemPair:
    """One unordered item pair with its per-vertex difference profile."""

    a: Item
    b: Item
    delta_profile: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.delta_profile)


@dataclass(frozen=True)
class Certificate:
    """Worst pair over a returned basis; its delta is >= the requested k."""

    a: Item
    b: Item
    delta: int


@dataclass(frozen=True)
class DimensionResult:
    variant: Variant
    k: int
    value: int
    basis: tuple[int, ...]
    certificate: Certificate | None
    stats: dict


def item_label(item: Item) -> str:
    if isinstance(item, tuple):
        return f"e{item[0]}_{item[1]}"
    return f"v{item}"


def _item_rows(g: Graph, variant: Variant) -> tuple[list[Item], np.ndarray]:
    """Items of the variant and their distance rows: a vertex's row is its
    distance-matrix row (the vertex variant returns the matrix itself, no
    copy); an edge vw gets min(d[v], d[w])."""
    d = g.distance_matrix
    if variant == Variant.VERTEX:
        return list(range(g.n)), d
    edges = g.edges()
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    edge_rows = np.minimum(d[ends[:, 0]], d[ends[:, 1]])
    if variant == Variant.EDGE:
        return edges, edge_rows
    return list(range(g.n)) + edges, np.concatenate([d, edge_rows])


@dataclass(frozen=True)
class CoverModel:
    """A graph's covering model for one variant and criterion: ``profile``
    row i is the i-th item pair in lex order, holding its distance
    differences ("sum") or their 0/1 support ("count") per vertex."""

    criterion: str
    items: list[Item]
    profile: np.ndarray

    def pairs(self):
        """(a, b, profile row) per item pair, in lex order."""
        return ((a, b, row) for (a, b), row in zip(combinations(self.items, 2), self.profile))

    def certificate(self, cols=slice(None)) -> "Certificate | None":
        """Lex-first item pair of smallest row sum over ``cols`` (the first
        argmin), or None without item pairs."""
        if not len(self.profile):
            return None
        sums = self.profile[:, cols].sum(axis=1, dtype=np.int64)
        i = int(sums.argmin())
        a, b = next(islice(combinations(self.items, 2), i, None))
        return Certificate(a, b, int(sums[i]))

    def check(self, k: int) -> None:
        """Raise unless 1 <= k <= the criterion's limit, the smallest row
        sum (KaboveKappa, with its lex-first pair as the witness)."""
        if k < 1:
            raise ParameterOutOfRange(f"k must be positive, got {k}")
        worst = self.certificate()
        if worst is not None and k > worst.delta:
            raise KaboveKappa(k, worst.delta, (worst.a, worst.b), self.criterion)


def cover_model(g: Graph, variant: Variant, criterion: str = "sum") -> CoverModel:
    """The model under ``criterion`` ("sum" or "count"); TooLarge, before
    anything is allocated, when its estimated peak exceeds graph.MAX_BYTES: the
    profile plus, per entry, three int64 working copies the engines make of
    it (the greedy start's clipped gains; the root bound's clipped, sorted
    and cumulated matrices)."""
    items, rows = _item_rows(g, variant)
    npairs = len(items) * (len(items) - 1) // 2
    _check_peak(f"the cover model of {npairs} item pairs x {g.n} vertices",
                npairs * g.n * (rows.itemsize + 3 * 8))
    # item a's block holds the pairs (a, b > a), so rows run in lex pair order
    blocks = [np.abs(rows[a + 1:] - rows[a]) for a in range(len(items) - 1)]
    profile = np.concatenate([np.empty((0, g.n), rows.dtype), *blocks])
    if criterion == "count":
        profile = (profile > 0).astype(np.int8)
    return CoverModel(criterion, items, profile)


def pair_profiles(g: Graph, variant: Variant = Variant.VERTEX) -> list[ItemPair]:
    """All unordered item pairs of the variant with full profiles."""
    return [
        ItemPair(a, b, tuple(profile.tolist()))
        for a, b, profile in cover_model(g, variant).pairs()
    ]


class VerifyResult(NamedTuple):
    """Outcome of a verifier: on failure, ``witness`` is the lex-smallest
    pair among those minimizing the checked quantity (``value``)."""

    ok: bool
    witness: tuple[int, int] | None
    value: int | None


def _worst_pair(g: Graph, variant: Variant, S: Iterable[int], reducer=pair_sum,
                partners=None) -> "Certificate | None":
    """Lex-first item pair (of ``partners``, if given) minimizing ``reducer``
    over the columns of ``S``, by the pair scan; None without item pairs."""
    items, rows = _item_rows(g, variant)
    (hit,) = lex_min(rows[:, _check_set(g, S)], [reducer], partners=partners)
    return _certificate(items, hit)


def _certificate(items: list[Item], hit) -> "Certificate | None":
    """The ``Certificate`` of a ``lex_min`` hit over ``items``' rows."""
    if hit is None:
        return None
    value, (a, b) = hit
    return Certificate(items[a], items[b], value)


def _verdict(worst: "Certificate | None", k: int) -> VerifyResult:
    if worst is None:
        return VerifyResult(True, None, None)
    ok = worst.delta >= k
    return VerifyResult(ok, None if ok else (worst.a, worst.b), worst.delta)


def certificate_for(g: Graph, variant: Variant, S: Iterable[int]) -> "Certificate | None":
    """Worst item pair of ``S``: the lex-first minimizer of delta_S."""
    return _worst_pair(g, variant, S)


class _ChainSums:
    """``lex_min`` matrix reducer: per item pair, its difference sum over
    each basis of a sweep, from a block over the union of their columns.

    Basis r's sums are basis r - 1's (none before the first) plus the
    columns it adds and minus those it drops. The change columns of all
    steps are gathered once and signed, and one ``cumsum`` along them, in
    int64, is read at the last entry of each step. A step without changes
    gets one entry of sign 0, so every step ends at an entry of its own.
    """

    def __init__(self, bases: list[list[int]], union: list[int]):
        at = {c: i for i, c in enumerate(union)}
        cols, signs, ends = [], [], []
        held: set[int] = set()
        for basis in bases:
            now = set(basis)
            change = [(at[c], 1) for c in sorted(now - held)]
            change += [(at[c], -1) for c in sorted(held - now)]
            for c, sign in change or [(0, 0)]:
                cols.append(c)
                signs.append(sign)
            ends.append(len(cols) - 1)
            held = now
        self.cols = np.array(cols, dtype=np.intp)
        self.signs = np.array(signs, dtype=np.int8)
        # with one entry per step the running sums are the basis sums
        self.ends = None if len(ends) == len(cols) else np.array(ends, dtype=np.intp)
        self.columns = len(bases)
        self.width = len(cols)

    def __call__(self, block: np.ndarray) -> np.ndarray:
        steps = block.take(self.cols, axis=1)
        steps *= self.signs  # |entries| < n, so the distance dtype holds them
        sums = steps.astype(np.int64)
        np.cumsum(sums, axis=1, out=sums)
        return sums if self.ends is None else sums.take(self.ends, axis=1)


def certificates_for(g: Graph, variant: Variant,
                     bases: Iterable[Iterable[int]]) -> "list[Certificate | None]":
    """``certificate_for`` of each set in ``bases``, by one pair scan of the
    union of their columns that reduces every set's sums at once
    (``_ChainSums``). One set keeps ``certificate_for``'s early-abandoning
    scan, which beats a full pass on a single set."""
    bases = [_check_set(g, S) for S in bases]
    if len(bases) < 2:
        return [certificate_for(g, variant, S) for S in bases]
    # column 0 stands in for the union of empty sets; only sign-0 entries read it
    union = sorted(set().union(*bases)) or [0]
    items, rows = _item_rows(g, variant)
    (hits,) = lex_min(rows[:, union], [_ChainSums(bases, union)])
    return [_certificate(items, hit) for hit in hits]


def variant_kappa(g: Graph, variant: Variant = Variant.VERTEX):
    """Largest feasible k for the variant: min over item pairs of the
    profile total. Returns (kappa, witness_pair), or (None, None) when
    the variant has no item pairs (every k is then vacuously feasible).
    Vertex pairs take ``compute_kappa``'s routes, no worst-pair scan."""
    if variant == Variant.VERTEX:
        return _kappa_route(g, [pair_sum])[0] or (None, None)
    worst = _worst_pair(g, variant, range(g.n))
    return (None, None) if worst is None else (worst.delta, (worst.a, worst.b))


def verify_set(g: Graph, variant: Variant, S: Iterable[int], k: int) -> VerifyResult:
    """Variant-aware feasibility check of a candidate vertex set."""
    return _verdict(_worst_pair(g, variant, S), k)


def verify_weak_k_resolving(g: Graph, S: Iterable[int], k: int) -> VerifyResult:
    """Check delta_S(x, y) >= k for every vertex pair."""
    return verify_set(g, Variant.VERTEX, S, k)


def verify_k_resolving(g: Graph, S: Iterable[int], k: int) -> VerifyResult:
    """Check every pair is distinguished by >= k distinct members of S."""
    return _verdict(_worst_pair(g, Variant.VERTEX, S, pair_count), k)


def verify_local_k_resolving(g: Graph, S: Iterable[int], k: int) -> VerifyResult:
    """Check every edge's endpoints are distinguished by >= k members of S."""
    return _verdict(_worst_pair(g, Variant.VERTEX, S, pair_count, _adjacent_partners(g)), k)


def _brute(g: Graph, variant: Variant, k: int, size_cap: int, criterion: str) -> DimensionResult:
    """Subsets in increasing size, then lex order: the first whose profile
    column sums reach k on every pair is the lex-smallest optimal basis."""
    if g.n > size_cap:
        raise TooLarge(f"n={g.n} exceeds size_cap={size_cap}")
    model = cover_model(g, variant, criterion)
    model.check(k)
    profile = model.profile
    if not len(profile):  # no item pairs: the empty set meets every k vacuously
        return DimensionResult(variant, k, 0, (), None, {"oracle": "brute"})

    totals = profile.sum(axis=1)
    tight = int(totals.argmin())
    # every pair p forces |S| >= k / max_s profile[p, s]
    min_size = int(np.ceil(k / profile.max(axis=1)).max())
    checked = 0
    for size in range(max(min_size, 1), g.n + 1):
        for combo in combinations(range(g.n), size):
            checked += 1
            cols = list(combo)
            if profile[tight, cols].sum() < k:
                continue
            if (profile[:, cols].sum(axis=1) >= k).all():
                return DimensionResult(
                    variant,
                    k,
                    size,
                    combo,
                    model.certificate(cols),
                    {"oracle": "brute", "subsets": checked},
                )
    raise AssertionError("unreachable: full vertex set is feasible for k <= kappa")


def solve_bruteforce(
    g: Graph,
    variant: Variant = Variant.VERTEX,
    k: int = 1,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> DimensionResult:
    """Exhaustive minimum search; canonical lex-smallest optimal basis."""
    return _brute(g, variant, k, size_cap, "sum")


def _greedy_cover(profile: np.ndarray, k: int) -> list[int]:
    npairs, n = profile.shape
    residual = np.full(npairs, k, dtype=np.int64)
    avail = np.ones(n, dtype=bool)
    chosen: list[int] = []
    while residual.any():
        gains = np.minimum(profile, residual[:, None]).sum(axis=0)
        gains[~avail] = -1
        v = int(gains.argmax())
        chosen.append(v)
        avail[v] = False
        residual = np.maximum(residual - profile[:, v], 0)
    return chosen


def _row_rhs(profile: np.ndarray, k: int) -> np.ndarray:
    """k rounded up to a multiple of each row's gcd. Every column sum of a
    row is a multiple of its gcd, so it reaches k exactly when it reaches
    the rounded value (on bipartite graphs, pairs at even distance have
    only even entries)."""
    g = np.gcd.reduce(profile.astype(np.int64), axis=1)
    return -(-k // g) * g


def _lower_bounds(clipped: np.ndarray, res: np.ndarray) -> "tuple[int, int] | None":
    """(cardinality, mass) lower bounds on the columns still to pick so that
    every row of ``clipped`` reaches its residual ``res``, or None when some
    row cannot. Entries must already be clipped at their row's residual.
    The cardinality bound is the most columns any single row needs (its
    largest entries first); the mass bound divides the total residual by
    the best column sum."""
    if (clipped.sum(axis=1) < res).any():
        return None
    reach = np.cumsum(np.sort(clipped, axis=1)[:, ::-1], axis=1)
    need = int((reach < res[:, None]).sum(axis=1).max()) + 1
    mass = math.ceil(int(res.sum()) / int(clipped.sum(axis=0).max()))
    return need, mass


# Multipliers are snapped down to w / _LAG_Q with integer 0 <= w <= _LAG_Q.
_LAG_Q = 1 << 20
# Subgradient steps at the root and at every other node that runs them.
_ROOT_STEPS = 60
_NODE_STEPS = 4
_WINDOW = 5


def _subgradient(clipped: np.ndarray, res: np.ndarray, u: np.ndarray,
                 steps: int, target: int) -> tuple[float, np.ndarray]:
    """Best Lagrangian value L(u) found by at most ``steps`` projected
    subgradient steps from ``u``, and its multipliers.

    For u >= 0 over the rows, L(u) = u.res + sum_c min(0, 1 - (u^T C)_c)
    is the LP relaxation with the rows moved into the objective, so every
    u gives a lower bound on the columns still needed. A row's multiplier
    is kept in [0, 1]: above 1 every column meeting the row has a negative
    reduced cost (positive entries are at least 1), and L cannot grow with
    it. The Polyak step aims at ``target`` (best value - count). The
    search stops once L clears target - 1 by more than snapping can lose,
    or when its gain over the last _WINDOW steps, kept up for the steps
    left, would not carry it past the next integer (or target - 1 if
    that is lower): the bound is used only through its ceiling.
    """
    C = clipped.astype(np.float64)
    resf = res.astype(np.float64)
    limit = target - 1
    clear = limit + (float(resf.sum()) + 1) / _LAG_Q
    best, best_u = -math.inf, u
    trail = []  # best value after each step
    avg = None
    for step_no in range(1, steps + 1):
        red = 1.0 - u @ C
        x = red < 0  # the relaxed solution: columns of negative reduced cost
        value = float(u @ resf) + float(red @ x)
        if value > best:
            best, best_u = value, u
            if value > clear:
                break
        trail.append(best)
        if step_no > _WINDOW:
            goal = min(limit, math.floor(best) + 1)
            rate = (best - trail[-1 - _WINDOW]) / _WINDOW
            if goal - best > rate * (steps - step_no):
                break
        # step along res - C avg, with avg a running mean of the relaxed
        # solutions (it damps the zig-zag between ties), less the
        # components that the clip at 0 would cancel
        avg = x.astype(np.float64) if avg is None else 0.5 * (avg + x)
        grad = resf - C @ avg
        grad[(u <= 0.0) & (grad < 0.0)] = 0.0
        norm = float(grad @ grad)
        if norm == 0.0:
            break
        u = u + (target - value) / norm * grad
        np.minimum(np.maximum(u, 0.0, out=u), 1.0, out=u)
    return best, best_u


def _snapped_bound(clipped: np.ndarray, res: np.ndarray, u: np.ndarray) -> int:
    """_LAG_Q * L(w / _LAG_Q) for w = floor(_LAG_Q * u), exactly.

    With 0 <= w <= _LAG_Q and 0 <= C <= res, every int64 partial sum is at
    most _LAG_Q * (ncols + 1) * sum(res) in magnitude; ``solve_bnb`` runs
    the Lagrangian only when that fits below 2**63.
    """
    w = np.floor(u * _LAG_Q).astype(np.int64)
    red = _LAG_Q - w @ clipped.astype(np.int64, copy=False)
    return int(w @ res.astype(np.int64, copy=False)) + int(red[red < 0].sum())


def _lagrangian_prunes(clipped: np.ndarray, res: np.ndarray, u: np.ndarray,
                       limit: int) -> bool:
    """Exact test of L(u) > limit on the snapped multipliers: then the
    node needs more than ``limit`` further columns."""
    return _snapped_bound(clipped, res, u) > _LAG_Q * limit


def solve_bnb(g: Graph, variant: Variant = Variant.VERTEX, k: int = 1) -> DimensionResult:
    """Branch-and-bound with admissible bounds; certified optimal value.

    ``stats`` counts the search: ``nodes`` visited, the ``root_bound``
    (the largest bound at the root, the Lagrangian's included when the
    root gets that far), the ``incumbent_updates`` found by the search
    (after the greedy start) and the nodes cut per reason in ``prunes``
    (``infeasible``: some row cannot be covered; ``card`` / ``mass`` /
    ``lagrangian``: that bound meets the incumbent). Every node is a leaf
    (an incumbent update), a prune, or a branch with two children.
    """
    model = cover_model(g, variant)
    model.check(k)
    profile = model.profile
    if not len(profile):  # no item pairs: the empty set meets every k vacuously
        return DimensionResult(variant, k, 0, (), None, {"oracle": "bnb"})

    incumbent = _greedy_cover(profile, k)
    best_val = len(incumbent)
    best_basis = tuple(sorted(incumbent))
    nodes = updates = 0
    prunes = {"infeasible": 0, "card": 0, "mass": 0, "lagrangian": 0}
    rhs = _row_rhs(profile, k)
    # every row needs a column; the root node raises this with its bounds
    # (it is cut before them only when the greedy start has one column)
    root_bound = 1
    # _snapped_bound's int64 sums fit (they do unless the model is far too
    # large to search)
    lagrangian = _LAG_Q * (g.n + 1) * int(rhs.sum()) < 2**63

    # a node: (count, chosen, avail, act, res, u); act holds the indices of
    # the rows still short of their rhs, res what they lack, u their
    # multipliers. The include child is pushed last, so it is searched
    # first, as in a recursive include-first DFS.
    stack = [(0, (), np.ones(g.n, dtype=bool), np.arange(len(profile)), rhs,
              np.zeros(len(profile)))]
    while stack:
        count, chosen, avail, act, res, u = stack.pop()
        root = nodes == 0
        nodes += 1
        if act.size == 0:
            # reached only by an include whose parent had count + card < best_val
            best_val = count
            best_basis = tuple(sorted(chosen))
            updates += 1
            continue
        if count + 1 >= best_val:  # the cardinality bound is at least 1
            prunes["card"] += 1
            continue
        avail_ids = np.flatnonzero(avail)
        sub = profile.take(act, axis=0).take(avail_ids, axis=1)
        clipped = np.minimum(sub, res[:, None])
        bounds = _lower_bounds(clipped, res)
        if bounds is None:
            prunes["infeasible"] += 1
            continue
        need, mass = bounds
        if root:
            root_bound = max(need, mass)
        if count + need >= best_val:
            prunes["card"] += 1
            continue
        if count + mass >= best_val:
            prunes["mass"] += 1
            continue
        if lagrangian:
            limit = best_val - count - 1
            value, u = _subgradient(clipped, res, u, _ROOT_STEPS if root else _NODE_STEPS,
                                    best_val - count)
            if root:
                root_bound = max(root_bound, -(-_snapped_bound(clipped, res, u) // _LAG_Q))
            if value > limit and _lagrangian_prunes(clipped, res, u, limit):
                prunes["lagrangian"] += 1
                continue
        # branch on the vertex covering the most residual demand (raw sum);
        # argmax takes the first occurrence, i.e. the smallest id on ties
        v = int(avail_ids[int(sub.sum(axis=0).argmax())])
        rest = avail.copy()
        rest[v] = False
        left = res - profile[act, v]
        keep = left > 0
        stack.append((count, chosen, rest, act, res, u))
        stack.append((count + 1, chosen + (v,), rest, act[keep], left[keep], u[keep]))

    return DimensionResult(
        variant,
        k,
        best_val,
        best_basis,
        model.certificate(list(best_basis)),
        {
            "oracle": "bnb",
            "nodes": nodes,
            "root_bound": root_bound,
            "incumbent_updates": updates,
            "prunes": prunes,
        },
    )


def solve_kmetric_dim(
    g: Graph, k: int, size_cap: int = DEFAULT_SIZE_CAP
) -> DimensionResult:
    """Exhaustive minimum set where every vertex pair has >= k distinct
    distinguishing members (the count-based criterion, not the sum)."""
    return _brute(g, Variant.VERTEX, k, size_cap, "count")


# profile entries rendered in one block of LP text
_LP_BLOCK = 1 << 16


def _lp_blocks(model: CoverModel, variant: Variant, k: int) -> Iterator[str]:
    """The CPLEX-LP text of ``model`` in pieces: the head, the rows in
    blocks of about ``_LP_BLOCK`` profile entries, and the tail.

    A row's text is one string per cell: its ``\\ pair`` comment and
    ``p<idx>:`` label, then per column a term from a table of
    ``f"{c} x{i}{sep}"`` (the empty string for c = 0), where the term of
    rank r among the row's m nonzero terms ends the row (" >= k") at
    r = m, wraps the line (" +" and a new line) at every 10th r, and is
    followed by " + " otherwise. A row without terms is its comment only.
    """
    profile = model.profile
    npairs, n = profile.shape
    names = [f"x{i}" for i in range(n)]
    yield (f"\\ minimum weak {k}-resolving set, variant={variant.value}\n"
           f"\\ n={n} items={len(model.items)} pairs={npairs}\n"
           "Minimize\n obj: "
           + " +\n   ".join(" + ".join(names[i:i + 10]) for i in range(0, n, 10))
           + "\nSubject To\n")
    seps = (" + ", " +\n   ", f" >= {k}\n")
    top = int(profile.max(initial=0))
    # term (c, i, sep kind) at flat index (c * n + i) * 3 + kind
    table = np.array([""] * (3 * n) + [f"{c} {x}{sep}" for c in range(1, top + 1)
                                       for x in names for sep in seps], dtype=object)
    col = 3 * np.arange(n)
    # label pairs, advanced once per row across blocks
    pairs = combinations(map(item_label, model.items), 2)
    per_block = max(1, _LP_BLOCK // n)
    for lo in range(0, npairs, per_block):
        block = profile[lo:lo + per_block]
        rank = np.cumsum(block != 0, axis=1)
        total = rank[:, -1:]
        kind = np.where(rank == total, 2, rank % 10 == 0)
        cells = np.empty((len(block), n + 1), dtype=object)
        cells[:, 1:] = table[block.astype(np.intp) * (3 * n) + col + kind]
        # the bounded range first: zip stops on it before drawing a pair
        cells[:, 0] = [f"\\ pair {a} -- {b}\n p{idx}: " if m else f"\\ pair {a} -- {b}\n"
                       for idx, m, (a, b) in zip(range(lo, lo + len(block)),
                                                 total[:, 0].tolist(), pairs)]
        yield "".join(cells.ravel().tolist())
    yield ("Binaries\n" + "".join(" " + " ".join(names[i:i + 12]) + "\n"
                                  for i in range(0, n, 12)) + "End\n")


def write_lp(g: Graph, variant: Variant = Variant.VERTEX, k: int = 1) -> str:
    """Render the covering model in CPLEX-LP text: one binary per vertex,
    one row per item pair, coefficients equal to the profile entries.
    ``export-lp`` writes the same text block by block as it is made."""
    return "".join(_lp_blocks(cover_model(g, variant), variant, k))

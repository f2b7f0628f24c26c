"""Exact solvers for the weak k-metric dimension (vertex, edge, mixed).

The engines, their certificates and LP export read one ``CoverModel``:
a row per item pair (items are vertices, edges or both, by variant), in
lex order, holding the pair's distance difference at each vertex (to an
edge vw the distance is min(d(., v), d(., w))). A set is feasible when
its column sum reaches k on every row; the count criterion (k distinct
distinguishers) is the same model on the profile's 0/1 support.

The checks of a given set hold no model: one verdict compares the
worst pair with k. The sum checks (``certificate_for``, ``verify_set``,
``verify_weak_k_resolving``, ``variant_kappa`` and the sweeps of
``certificates_for``) ask one router, ``resolve._worst_pairs``: the
vertex variant's whole set first takes the tree and twin routes, then
any set the pair scan, through parity and sum-gap masks above a size
floor (there the whole set the thin route where the band is not
taken), and a sweep of sets (a ``wdim`` range) one ``lex_min`` call over the union of
their columns with a matrix reducer (``resolve._ChainSums``): each set's
pair sums are the previous set's plus the columns it adds and minus
those it drops, one cumsum along the signed change columns read at the
end of each step, on one thread. It makes no matrix product with a
0/±1 matrix: that would go through float BLAS, whose OpenBLAS worker
threads spin for about 0.13 s of CPU after every call (2-core x86
host), more than the whole check of a typical sweep. The count checks
(``verify_k_resolving``, ``verify_local_k_resolving``) are one plain
``lex_min`` of the count, over all pairs or the adjacent ones.

``write_lp`` renders the sum model as CPLEX-LP text, one row per item
pair. The rows are made in blocks of profile entries with no Python
work per coefficient: each nonzero entry's rank in its row picks its
separator, and one index into a table of term strings gives every
cell's text. The format is unchanged; ``export-lp`` writes each block
as it is made, so its memory is bounded by one block, the model and
the table (three strings per coefficient value and column).

Two engines certify optima behind one shell, ``_solve``: it reads the
model (``cover_model`` builds it once per graph, variant and criterion
and keeps it, read-only, in the graph's cache: a model lives as long as
its graph), checks k on it (``model.check``, against the full-set worst
pair found once per model, by ``errors.check_k``, the one range check of
every entry point taking one k), answers a model without item pairs
with the empty set, runs the engine's plain search on (profile, k) and
certifies the basis. The brute search (also the count criterion's
``solve_kmetric_dim``) checks subsets in increasing size and lex order,
so it returns the canonical (lex-smallest) optimal set, with no numpy
call per subset. It takes them in blocks of consecutive
lex ranks, unranked in numpy from tables of binomial coefficients. A
block is filtered on one tight row in one step; only its survivors'
columns are gathered and summed over all rows at once, in int64 on one
thread (no BLAS). The first block holds 16 subsets, or as many as one
gather sums if that is more (a smaller block makes as many numpy
calls), and each later one as many as were checked before it, so an
early answer does not pay for a large block. Every array of a block
stays below 64 KiB, half of glibc's 128 KiB mmap threshold: no block
maps fresh pages or raises the threshold for the rest of the process,
and the peak stays near 0.2 MiB.

``solve_bnb`` is a depth-first branch-and-bound over include/exclude
decisions, starting from a greedy cover of k. Each row's threshold k is
then rounded up to a multiple of the row's gcd, since every column sum
of the row is such a multiple (on bipartite graphs, pairs at even
distance have only even entries). A node carries the rows still short of
their threshold and what they lack, and is pruned when some row cannot
be covered by the columns left, or when an admissible lower bound on the
columns still needed meets the incumbent. Entries are clipped at their
row's residual. The cheap bounds come first: the cardinality bound (the
most columns any single row needs, taking its largest entries first) and
the mass bound ceil(total residual / best clipped column sum). Where
both fail on a small node (``_few_completions``: its entries fit a
brute-force block, and its subsets still worth trying times its rows are
below ``_COMPLETIONS``), the node is settled exactly: the brute search's
kernel, ``_first_cover``, tries its available columns from the
cardinality bound up to one below the incumbent's size against the
residuals. With no cover the node is pruned; with one, no bound could
prune it, so it branches at once. Elsewhere the Lagrangian bound
L(u) = u.res + sum_c min(0, 1 - (u^T C)_c), for row multipliers
u in [0, 1], has the LP relaxation's value as its maximum: projected
subgradient steps with a Polyak step size raise it, about 60 at the root
and a few at every other node, warm-started from the parent's
multipliers on the rows still short. Any u gives a valid bound, so
exactness never rests on convergence; the prune decision itself is
exact, made in integers on u snapped down to multiples of 2^-20. The
search is an explicit-stack DFS that takes the include child first; it
branches on the column with the largest raw sum over the short rows and
returns its first incumbent at the optimal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, islice
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from .errors import TooLarge, check_k
from .graph import Graph, _check_peak
from .resolve import (Variant, _check_set, _edge_pairs, _item_rows, _items, _worst_pairs,
                      lex_min, pair_count)

Item = Union[int, tuple[int, int]]

DEFAULT_SIZE_CAP = 16


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

    def certificate(self, cols=None) -> "Certificate | None":
        """Lex-first item pair of smallest row sum over ``cols`` (the first
        argmin), or None without item pairs; over every column without
        ``cols`` (``worst``)."""
        if cols is None:
            return self.worst
        if not len(self.profile):
            return None
        sums = self.profile[:, cols].sum(axis=1, dtype=np.int64)
        i = int(sums.argmin())
        a, b = next(islice(combinations(self.items, 2), i, None))
        return Certificate(a, b, int(sums[i]))

    @cached_property
    def worst(self) -> "Certificate | None":
        """``certificate`` over every column, found once per model."""
        return self.certificate(slice(None))

    def check(self, k: int) -> None:
        """``check_k`` with the criterion's limit, the smallest row sum (its
        lex-first pair, ``worst``, is the witness); no limit without item
        pairs."""
        worst = self.worst
        if worst is None:
            check_k(k)
        else:
            check_k(k, worst.delta, (worst.a, worst.b), self.criterion)


def cover_model(g: Graph, variant: Variant, criterion: str = "sum") -> CoverModel:
    """The model under ``criterion`` ("sum" or "count"), built once per
    graph, variant and criterion and kept in the graph's cache
    (``Graph._cached``); its profile is read-only."""
    return g._cached((variant, criterion), lambda g: _build_model(g, variant, criterion))


def _build_model(g: Graph, variant: Variant, criterion: str) -> CoverModel:
    """``cover_model``; TooLarge, before anything is allocated, when its
    estimated peak exceeds graph.MAX_BYTES: the profile plus, per entry,
    three int64 working copies the engines make of it (the greedy start's
    clipped gains; the root bound's clipped, sorted and cumulated
    matrices)."""
    items, rows = _item_rows(g, variant)
    npairs = len(items) * (len(items) - 1) // 2
    _check_peak(f"the cover model of {npairs} item pairs x {g.n} vertices",
                npairs * g.n * (rows.itemsize + 3 * 8))
    # item a's block holds the pairs (a, b > a), so rows run in lex pair order
    blocks = [np.abs(rows[a + 1:] - rows[a]) for a in range(len(items) - 1)]
    profile = np.concatenate([np.empty((0, g.n), rows.dtype), *blocks])
    if criterion == "count":
        profile = (profile > 0).astype(np.int8)
    profile.setflags(write=False)
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


def _worst_count(g: Graph, S: Iterable[int], partners=None) -> "Certificate | None":
    """Lex-first vertex pair (of ``partners``, if given) with the fewest
    distinguishers in ``S``, by the pair scan; None without vertex pairs."""
    (hit,) = lex_min(g.distance_matrix[:, _check_set(g, S)], [pair_count], partners=partners)
    return _certificate(list(range(g.n)), hit)


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
    """Worst item pair of ``S``: the lex-first minimizer of delta_S, by the
    worst-pair router (``resolve._worst_pairs``); None without item pairs."""
    (worst,) = certificates_for(g, variant, [S])
    return worst


def certificates_for(g: Graph, variant: Variant,
                     bases: Iterable[Iterable[int]]) -> "list[Certificate | None]":
    """``certificate_for`` of each set in ``bases``, by the worst-pair router:
    two or more sets take one pair scan of the union of their columns that
    reduces every set's sums at once (``resolve._ChainSums``)."""
    hits = _worst_pairs(g, variant, [_check_set(g, S) for S in bases])
    items = _items(g, variant)
    return [_certificate(items, hit) for hit, _ in hits]


def variant_kappa(g: Graph, variant: Variant = Variant.VERTEX):
    """Largest feasible k for the variant: min over item pairs of the
    profile total. Returns (kappa, witness_pair), or (None, None) when
    the variant has no item pairs (every k is then vacuously feasible).
    The worst-pair router sends the vertex variant's whole set to
    ``compute_kappa``'s routes."""
    worst = certificate_for(g, variant, range(g.n))
    return (None, None) if worst is None else (worst.delta, (worst.a, worst.b))


def verify_set(g: Graph, variant: Variant, S: Iterable[int], k: int) -> VerifyResult:
    """Variant-aware feasibility check of a candidate vertex set."""
    return _verdict(certificate_for(g, variant, S), k)


def verify_weak_k_resolving(g: Graph, S: Iterable[int], k: int) -> VerifyResult:
    """Check delta_S(x, y) >= k for every vertex pair."""
    return verify_set(g, Variant.VERTEX, S, k)


def verify_k_resolving(g: Graph, S: Iterable[int], k: int) -> VerifyResult:
    """Check every pair is distinguished by >= k distinct members of S."""
    return _verdict(_worst_count(g, S), k)


def verify_local_k_resolving(g: Graph, S: Iterable[int], k: int) -> VerifyResult:
    """Check every edge's endpoints are distinguished by >= k members of S."""
    return _verdict(_worst_count(g, S, _edge_pairs(g)), k)


# 8-byte entries per brute-force array (a block's subset ids, its
# survivors' row sums or their gathered profile columns), at most: one
# short of 2^13, so every array stays below 64 KiB
_BRUTE_BLOCK = (1 << 13) - 1
# subsets in the first block (or one gather's worth, if more); every later
# one holds as many as were checked before it, up to the cap
_BRUTE_FIRST = 16


@lru_cache(maxsize=256)
def _lex_steps(n: int, size: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Unranking tables of the size-``size`` subsets of range(n) in lex
    order, one ``(ends, shift)`` per position but the last (a 1-subset's
    rank is its id). With m ids left, the m-subsets of range(n) whose
    first id is a hold the lex ranks from C(n, m) - C(n - a, m) up to
    ends[a] = C(n, m) - C(n - a - 1, m), so a rank's first id is the
    number of ends at or below it. The rank plus shift[a] is the rank of
    its other m - 1 ids (an (m - 1)-subset of range(a + 1, n)) among the
    (m - 1)-subsets of range(n). The tables are cached, so read-only."""
    steps = []
    for m in range(size, 1, -1):
        starts = [math.comb(n, m) - math.comb(n - a, m) for a in range(n - m + 2)]
        shift = [math.comb(n, m - 1) - math.comb(n - a - 1, m - 1) - s
                 for a, s in enumerate(starts[:-1])]
        step = (np.array(starts[1:], dtype=np.int64), np.array(shift, dtype=np.int64))
        for table in step:
            table.flags.writeable = False
        steps.append(step)
    return tuple(steps)


def _subsets_at(steps: tuple[tuple[np.ndarray, np.ndarray], ...], lo: int, hi: int) -> np.ndarray:
    """The subsets of lex ranks lo..hi - 1 (``_lex_steps``), a row of ids each."""
    ranks = np.arange(lo, hi, dtype=np.int64)
    ids = np.empty((hi - lo, len(steps) + 1), dtype=np.intp)
    for j, (ends, shift) in enumerate(steps):
        first = ends.searchsorted(ranks, side="right")
        ids[:, j] = first
        ranks += shift[first]
    ids[:, -1] = ranks
    return ids


def _first_cover(profile: np.ndarray, rhs, lo: int,
                 hi: int) -> "tuple[tuple[int, ...] | None, int]":
    """The first subset of ``profile``'s columns, in increasing size from
    ``lo`` (at least 1) up to ``hi`` and then in lex order, whose column
    sums reach ``rhs`` (a scalar, or one value per row) on every row, or
    None; and ``checked``, the subsets before it in (size, lex) order,
    itself included, as a one-by-one scan would count them (all of them
    when there is none).

    The subsets are checked in blocks of consecutive lex ranks, unranked
    in numpy (``_lex_steps``). A block is filtered on the tight row (the
    lex-first row of least slack, its total less its rhs, which every
    answer reaches); its survivors' columns are then gathered and summed
    over all rows at once, in int64, in parts that fit ``_BRUTE_BLOCK``."""
    n = profile.shape[1]
    rhs = np.broadcast_to(np.asarray(rhs, dtype=np.int64), len(profile))
    t = int((profile.sum(axis=1, dtype=np.int64) - rhs).argmin())
    tight, tight_rhs = profile[t], rhs[t]
    # row c: column c of the profile, so a subset's row sums add its ids' rows
    columns = np.ascontiguousarray(profile.T)
    checked = 0
    for size in range(lo, min(hi, n) + 1):
        steps = _lex_steps(n, size)
        count = math.comb(n, size)
        # survivors per gather: each one's columns (size x rows) and int64
        # row sums fit 8 * _BRUTE_BLOCK bytes
        per_gather = max(1, 8 * _BRUTE_BLOCK // (len(profile) * max(8, size * columns.itemsize)))
        start = 0
        while start < count:
            stop = min(count, start + max(1, min(max(_BRUTE_FIRST, per_gather, checked),
                                                 _BRUTE_BLOCK // size)))
            block = _subsets_at(steps, start, stop)
            live = np.flatnonzero(tight[block].sum(axis=1, dtype=np.int64) >= tight_rhs)
            for at in range(0, len(live), per_gather):
                part = live[at:at + per_gather]
                ok = (columns[block[part]].sum(axis=1, dtype=np.int64) >= rhs).all(axis=1)
                if ok.any():
                    i = int(part[int(ok.argmax())])
                    return tuple(block[i].tolist()), checked + i + 1
            checked += stop - start
            start = stop
    return None, checked


def _brute(profile: np.ndarray, k: int) -> tuple[tuple[int, ...], dict]:
    """Subsets in increasing size, then lex order (``_first_cover``): the
    first whose profile column sums reach k on every pair is the
    lex-smallest optimal basis; ``subsets`` counts the subsets checked."""
    # every pair p forces |S| >= k / max_s profile[p, s]
    min_size = int(np.ceil(k / profile.max(axis=1)).max())
    basis, checked = _first_cover(profile, k, max(min_size, 1), profile.shape[1])
    if basis is None:
        raise AssertionError("unreachable: full vertex set is feasible for k <= kappa")
    return basis, {"subsets": checked}


def _solve(g: Graph, variant: Variant, k: int, search, criterion: str = "sum",
           size_cap: "int | None" = None) -> DimensionResult:
    """The engines' shell: the size cap (brute force's, checked before the
    model is read), the cached model and its k check, then
    ``search(profile, k)`` -> (basis, counters) and the basis's
    certificate. ``stats`` leads with ``oracle``, the search's name
    (``_bnb`` -> "bnb")."""
    if size_cap is not None and g.n > size_cap:
        raise TooLarge(f"n={g.n} exceeds size_cap={size_cap}")
    model = cover_model(g, variant, criterion)
    model.check(k)
    stats = {"oracle": search.__name__.lstrip("_")}
    if not len(model.profile):  # no item pairs: the empty set meets every k vacuously
        return DimensionResult(variant, k, 0, (), None, stats)
    basis, counters = search(model.profile, k)
    return DimensionResult(variant, k, len(basis), basis, model.certificate(list(basis)),
                           {**stats, **counters})


def solve_bruteforce(
    g: Graph,
    variant: Variant = Variant.VERTEX,
    k: int = 1,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> DimensionResult:
    """Exhaustive minimum search; canonical lex-smallest optimal basis."""
    return _solve(g, variant, k, _brute, size_cap=size_cap)


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


# A node is settled by trying its completions (``_first_cover``) when its
# subsets to try times its short rows (the int64 row sums the check makes,
# at most) are fewer than this. The bnb-sweep job list takes as long from
# 2^14 to 2^17 and longer below; the C6xC4 torus at k = 9 and 10 and
# random graphs with n = 24 and 28 take as long from 2^16 to 2^18, with
# fewer nodes the higher (2-core x86 host, numpy 2.4).
_COMPLETIONS = 1 << 17


def _few_completions(rows: int, cols: int, lo: int, hi: int) -> bool:
    """Whether a node of ``rows`` short rows and ``cols`` columns is settled
    by trying its completions of sizes lo..hi: its entries fit a
    brute-force block (so the check's copy of them, and one subset's row
    sums, stay below 64 KiB), and its subsets times its rows are fewer
    than ``_COMPLETIONS``."""
    if rows * cols > _BRUTE_BLOCK:
        return False
    total = 0
    for size in range(lo, min(hi, cols) + 1):
        total += math.comb(cols, size)
        if rows * total >= _COMPLETIONS:
            return False
    return True


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
    most _LAG_Q * (ncols + 1) * sum(res) in magnitude; ``_bnb`` runs
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


def _bnb(profile: np.ndarray, k: int) -> tuple[tuple[int, ...], dict]:
    """Branch-and-bound with admissible bounds: an optimal basis and the
    search's counters: ``nodes`` visited, the ``root_bound`` (the largest
    bound at the root, the exact check's or the Lagrangian's included when
    the root gets that far), the ``incumbent_updates`` found by the search
    (after the greedy start, which takes k itself, not the rounded rhs) and
    the nodes cut per reason in ``prunes`` (``infeasible``: some row
    cannot be covered; ``card`` / ``mass`` / ``lagrangian``: that bound
    meets the incumbent; ``exhaustive``: no completion is smaller than the
    incumbent).
    Every node is a leaf (an incumbent update), a prune, or a branch with
    two children.

    ``exhaustive`` counts the small nodes that ``_first_cover`` found no
    completion for, below the incumbent's size; where it finds one, the
    node skips the Lagrangian and its children keep its multipliers. At
    the root the check gives the exact optimum (the first size with a
    cover, or best_val without one), which becomes ``root_bound``.

    The check moves no basis. It prunes only nodes that hold no set
    smaller than the incumbent, as every bound does, and where it finds a
    cover no bound could have pruned the node. The branching rule, the
    include-first DFS order and the greedy start do not depend on the
    bounds, so every incumbent update of the search without the check is
    reached, in the same order, with the same best_val before it, and the
    last one is the returned basis.
    """
    npairs, n = profile.shape
    incumbent = _greedy_cover(profile, k)
    best_val = len(incumbent)
    best_basis = tuple(sorted(incumbent))
    nodes = updates = 0
    prunes = {"infeasible": 0, "card": 0, "mass": 0, "exhaustive": 0, "lagrangian": 0}
    rhs = _row_rhs(profile, k)
    # every row needs a column; the root node raises this with its bounds
    # (it is cut before them only when the greedy start has one column)
    root_bound = 1
    # _snapped_bound's int64 sums fit (they do unless the model is far too
    # large to search)
    lagrangian = _LAG_Q * (n + 1) * int(rhs.sum()) < 2**63

    # a node: (count, chosen, avail, act, res, u); act holds the indices of
    # the rows still short of their rhs, res what they lack, u their
    # multipliers. The include child is pushed last, so it is searched
    # first, as in a recursive include-first DFS.
    stack = [(0, (), np.ones(n, dtype=bool), np.arange(npairs), rhs, np.zeros(npairs))]
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
        limit = best_val - count - 1
        if _few_completions(len(act), len(avail_ids), need, limit):
            # clipped entries are at most the profile's, so its (narrower)
            # dtype holds them, and the check gathers fewer bytes
            cover, _ = _first_cover(clipped.astype(profile.dtype), res, need, limit)
            if root:  # the smallest cover's size, or best_val without one
                root_bound = best_val if cover is None else len(cover)
            if cover is None:
                prunes["exhaustive"] += 1
                continue
        elif lagrangian:
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

    return best_basis, {"nodes": nodes, "root_bound": root_bound,
                        "incumbent_updates": updates, "prunes": prunes}


def solve_bnb(g: Graph, variant: Variant = Variant.VERTEX, k: int = 1) -> DimensionResult:
    """Branch-and-bound with admissible bounds; certified optimal value."""
    return _solve(g, variant, k, _bnb)


def solve_kmetric_dim(
    g: Graph, k: int, size_cap: int = DEFAULT_SIZE_CAP
) -> DimensionResult:
    """Exhaustive minimum set where every vertex pair has >= k distinct
    distinguishing members (the count-based criterion, not the sum)."""
    return _solve(g, Variant.VERTEX, k, _brute, "count", size_cap)


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
    ``export-lp`` writes the same text block by block as it is made, after
    the same k check."""
    check_k(k)
    return "".join(_lp_blocks(cover_model(g, variant), variant, k))

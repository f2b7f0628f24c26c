"""Distance-difference primitives, the lex-first pair scan, and kappa.

For a probe vertex s and a pair x, y the basic quantity is
``delta_s(x, y) = |d(x,s) - d(y,s)|``. Summing it over a set S gives
``delta_S(x, y)``; a set is weak k-resolving when that sum is >= k for
every vertex pair. kappa(G) is the largest feasible k, which equals the
minimum over pairs of the full-set sum. kappa'(G) is the analogous limit
for the count-based (k distinct distinguishers) criterion.

``lex_min`` is the one scan for the lex-first pair minimizing such a
criterion; kappa here and every verifier and certificate in ``solver``
read it. One router picks the route to kappa, for ``compute_kappa`` and
``solver.variant_kappa`` (kappa' only when asked): small graphs without a
twin summary get one dense scan; twins settle kappa' and all of kappa but
a scan of the adjacent pairs; long, thin twin-free graphs get kappa from
a scan of the pairs that a geodesic lower bound lets through and kappa'
from a count of equidistant classes; other graphs get one dense scan.
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import SameVertex, TrivialGraph, VertexOutOfRange
from .graph import MAX_BYTES, Graph, TwinSummary, twin_summary
from .timing import timed


@dataclass(frozen=True)
class PairDifferenceProfile:
    """Per-probe distance differences of one vertex pair."""

    x: int
    y: int
    per_vertex: tuple[int, ...]
    total: int
    support_size: int


class KappaClass(str, Enum):
    """Structural explanation of a graph's kappa value.

    kappa = 2 exactly when the graph has true twins; kappa = 3 exactly
    when some adjacent pair differs by a single private neighbor z whose
    neighbors all sit next to the pair's common closed neighborhood;
    graphs with false twins (and neither of the above) have kappa = 4.
    Anything else is reported as OTHER with no structural witness.
    """

    TRUE_TWINS = "Weak2TrueTwins"
    STRUCTURAL_3 = "Weak3Structural"
    FALSE_TWINS = "Weak4FalseTwins"
    OTHER = "Other"


@dataclass(frozen=True)
class KappaReport:
    kappa: int
    kappa_prime: int
    witness_pair: tuple[int, int]
    classification: KappaClass
    evidence: tuple[int, ...] | None


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise VertexOutOfRange(f"vertex {v} outside 0..{g.n - 1}")


def _check_set(g: Graph, S: Iterable[int]) -> list[int]:
    ids = sorted(set(S))
    for v in ids:
        _check_vertex(g, v)
    return ids


def _check_pair(g: Graph, x: int, y: int) -> None:
    _check_vertex(g, x)
    _check_vertex(g, y)
    if x == y:
        raise SameVertex(f"x and y must differ, got {x}")


def delta_pair(g: Graph, x: int, y: int) -> PairDifferenceProfile:
    """Full distance-difference profile of the pair (x, y)."""
    _check_pair(g, x, y)
    d = g.distance_matrix
    per = np.abs(d[x] - d[y])
    return PairDifferenceProfile(
        x=x,
        y=y,
        per_vertex=tuple(int(v) for v in per),
        total=int(per.sum()),
        support_size=int((per > 0).sum()),
    )


def delta_over_set(g: Graph, x: int, y: int, S: Iterable[int]) -> int:
    """Sum of |d(x,s) - d(y,s)| over s in S (monotone in S)."""
    _check_pair(g, x, y)
    ids = _check_set(g, S)
    if not ids:
        return 0
    d = g.distance_matrix
    return int(np.abs(d[x, ids] - d[y, ids]).sum())


def _abs_diff(others: np.ndarray, head: np.ndarray) -> np.ndarray:
    block = others - head
    return np.abs(block, out=block)


def pair_sum(block: np.ndarray) -> np.ndarray:
    """Per-pair difference total (the weak, sum-based criterion)."""
    return block.sum(axis=1, dtype=np.int64)


def pair_count(block: np.ndarray) -> np.ndarray:
    """Per-pair distinguisher count (the count-based criterion)."""
    return np.count_nonzero(block, axis=1)


_MIN_SLICE = 64  # narrowest first column slice of the early-abandoning scan
_BATCH = 1 << 16  # entries in one block of the dense scan


def _dense_part(rows, reducers, start, step):
    """``_lex_min_part`` where every slice would cover all columns: the pairs
    of several head rows are reduced in one block, and per value column
    the first argmin is the lex-first pair. A block holds about ``_BATCH``
    entries of the widest of the columns and the reducers' ``width``s
    (their own per-pair temporaries)."""
    nrows, ncols = rows.shape
    width = max([ncols] + [getattr(r, "width", 0) for r in reducers])
    heads = np.arange(start, nrows - 1, step)
    per_batch = max(1, _BATCH // (max(1, nrows) * max(1, width)))
    best = [None] * len(reducers)  # per reducer: values, heads, partners per column
    for i in range(0, len(heads), per_batch):
        batch = heads[i:i + per_batch]
        first = int(batch[0])
        others = rows[first + 1:]
        block = _abs_diff(others[None], rows[batch][:, None])
        # block[r, j] is the pair (batch[r], first + 1 + j); keep b > a only
        npairs = len(batch) * len(others)
        lower = (np.arange(len(others)) < (batch - first)[:, None]).ravel()
        for r, reduce in enumerate(reducers):
            vals = reduce(block.reshape(npairs, ncols)).reshape(npairs, -1)
            vals[lower] = np.iinfo(vals.dtype).max
            at = vals.argmin(axis=0)
            h, j = np.divmod(at, len(others))
            hit = (vals[at, np.arange(vals.shape[1])], batch[h], first + 1 + j)
            if best[r] is None:
                best[r] = hit
            else:
                won = hit[0] < best[r][0]
                for held, new in zip(best[r], hit):
                    held[won] = new[won]
    return [
        [None] * getattr(reduce, "columns", 1) if b is None
        else [(v, (a, c)) for v, a, c in zip(*(x.tolist() for x in b))]
        for b, reduce in zip(best, reducers)
    ]


def _lex_min_part(rows, reducers, start, step, partners=None):
    """Per reducer, the lex-first hit of each value column among the pairs
    whose head item is one of start, start + step, ..."""
    ncols = rows.shape[1]
    if partners is None and (ncols <= _MIN_SLICE or any(hasattr(r, "columns") for r in reducers)):
        return _dense_part(rows, reducers, start, step)
    best = [None] * len(reducers)
    for a in range(start, len(rows) - 1, step):
        # item a is paired with every later item, or with its partners
        cand = None if partners is None else partners[a]
        if cand is not None and not len(cand):
            continue
        others, head = slice(a + 1, None) if cand is None else cand, rows[a]
        if None in best:
            width = ncols
        else:
            width = min(ncols, max(_MIN_SLICE, 2 * max(v for v, _ in best)))
        block = _abs_diff(rows[others, :width], head[:width])
        vals = [reduce(block) for reduce in reducers]
        survivors = None
        if width < ncols:
            # Sums over a column prefix are lower bounds; a pair at or above
            # an incumbent cannot win, as it comes later in lex order.
            alive = np.zeros(len(block), dtype=bool)
            for v, (incumbent, _) in zip(vals, best):
                alive |= v < incumbent
            survivors = np.flatnonzero(alive)
            if survivors.size == 0:
                continue
            picked = survivors + a + 1 if cand is None else cand[survivors]
            rest = _abs_diff(rows[picked, width:], head[width:])
            vals = [v[survivors] + reduce(rest) for v, reduce in zip(vals, reducers)]
        for r, v in enumerate(vals):
            i = int(v.argmin())
            if best[r] is None or v[i] < best[r][0]:
                j = i if survivors is None else int(survivors[i])
                best[r] = (int(v[i]), (a, a + 1 + j if cand is None else int(cand[j])))
    return [[hit] for hit in best]


def lex_min(rows: np.ndarray, reducers: Sequence, workers: int = 1,
            partners: Sequence[np.ndarray] | None = None) -> list:
    """Per reducer, the lex-first minimizing ``(value, (a, b))`` over item
    pairs a < b of ``rows``, or None when there are fewer than two items.
    With ``partners``, only the pairs (a, b) with b in ``partners[a]`` (an
    ascending index array of items above a) take part.

    A reducer maps a block of per-column differences (one pair per row)
    to per-pair values and must be column-additive with non-negative
    terms, as ``pair_sum`` and ``pair_count`` are: the scan evaluates
    each head row's block on a first column slice and abandons the pairs
    that already reach every reducer's incumbent, then finishes the rest.
    With ``workers > 1`` the head items are split round-robin across
    threads and the parts are merged by ``(value, pair)``, so the result
    does not depend on the worker count. A partner scan runs on one
    thread whatever ``workers`` says: the parts do not share incumbents,
    and a part whose partners hold no small pair would abandon none.

    A matrix reducer has a ``columns`` attribute R and maps the block to
    a (pairs x R) array, one value column per criterion; its entry in the
    result is the list of the R columns' hits (each None with fewer than
    two items). It need not be column-additive: the scan then takes the
    batched dense pass whatever the column count (never with
    ``partners``), in blocks sized also by the reducer's ``width``, the
    most entries per pair that it makes.
    """
    matrix = [hasattr(r, "columns") for r in reducers]
    assert partners is None or not any(matrix), "matrix reducers scan every pair"
    workers = 1 if partners is not None else min(workers, len(rows) - 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda i: _lex_min_part(rows, reducers, i, workers, partners),
                range(workers),
            ))
    else:
        parts = [_lex_min_part(rows, reducers, 0, 1, partners)]
    merged = [
        [min((hit for hit in hits if hit is not None), default=None) for hits in zip(*columns)]
        for columns in zip(*parts)
    ]
    return [hits if m else hits[0] for hits, m in zip(merged, matrix)]


def weak3_structure_witness(g: Graph) -> tuple[int, int, int] | None:
    """First (x, y, z) with x ~ y, N[x] \\ {z} = N[y], and every neighbor
    of z inside the closed neighborhood of N[x] & N[y]; None if absent."""
    adj = g.adjacency
    closed = [set(adj[v]) | {v} for v in range(g.n)]
    for x in range(g.n):
        for y in adj[x]:
            extra = closed[x] - closed[y]
            if len(extra) != 1 or not closed[y] <= closed[x]:
                continue
            (z,) = extra
            # closed[x] & closed[y] == closed[y] here since N[y] is nested
            hull: set[int] = set()
            for w in closed[y]:
                hull |= closed[w]
            if set(adj[z]) <= hull:
                return (x, y, z)
    return None


def _classify(g: Graph, kappa: int, twins: TwinSummary
              ) -> tuple[KappaClass, tuple[int, ...] | None]:
    if kappa == 2 and twins.first_true:
        return KappaClass.TRUE_TWINS, twins.first_true
    if kappa == 3:
        witness = weak3_structure_witness(g)
        if witness is not None:
            return KappaClass.STRUCTURAL_3, witness
    if kappa == 4 and twins.first_false and not twins.first_true:
        return KappaClass.FALSE_TWINS, twins.first_false
    return KappaClass.OTHER, None


def _adjacent_partners(g: Graph, extra: tuple[int, int] | None = None) -> list[np.ndarray]:
    """``lex_min`` partners for the adjacent pairs and, if given, the pair ``extra``."""
    adj = g.adjacency
    partners = [adj[a][bisect_right(adj[a], a):] for a in range(g.n)]
    if extra is not None:
        x, y = extra
        partners[x] = tuple(sorted(partners[x] + (y,)))
    return [np.array(p, dtype=np.intp) for p in partners]


# The thin route runs while E, the equidistant (source, pair) triples, is at
# most _THIN * C(n, 2): each is one increment of the count pass, which loses
# to the scan from about there (fitted on a 2-core x86 host, numpy 2.4).
_THIN = 8
_EQ_BLOCK = 1 << 15  # entries in one block of the level histograms and the count pass


def _equidistant_total(d: np.ndarray, stop: int) -> int | None:
    """E = sum over sources s and levels r of C(#{v : d(s, v) = r}, 2), read
    off per-row level histograms, or None as soon as it passes ``stop``."""
    n = len(d)
    step = max(1, _EQ_BLOCK // n)
    total = 0
    for lo in range(0, n, step):
        block = d[lo:lo + step]
        # level r of block row i is bin i * n + r; the sizes sum to block.size
        sizes = np.bincount((block + np.arange(0, block.size, n)[:, None]).ravel())
        total += (int(sizes @ sizes) - block.size) // 2
        if total > stop:
            return None
    return total


def _max_equidistant(d: np.ndarray) -> int:
    """The largest eq(x, y) = #{s : d(s, x) = d(s, y)} over pairs x < y.

    Each source row is sorted, and every pair inside one of its distance
    classes gets 1 added in a C(n, 2) accumulator of the distance dtype
    (eq <= n - 2) that holds the pairs x < y in lex order: the stable sort
    keeps a class's vertices ascending, and pair (x, y) sits at
    x (2n - x - 1) / 2 + y - x - 1. Pairs are made and added in groups of
    about ``_EQ_BLOCK``: the work is E increments, the temporaries stay
    small.
    """
    n = len(d)
    step = max(1, _EQ_BLOCK // n)
    acc = np.zeros(n * (n - 1) // 2, dtype=d.dtype)
    x = np.arange(n)
    offset = x * (2 * n - x - 1) // 2 - x - 1  # pair (x, y) at offset[x] + y
    one = acc.dtype.type(1)
    for lo in range(0, n, step):
        block = d[lo:lo + step]
        order = np.argsort(block, axis=1, kind="stable")
        # a class starts at each row start and wherever the level changes
        starts = np.flatnonzero(np.diff(np.take_along_axis(block, order, axis=1), prepend=-1))
        order = order.ravel()
        ends = np.append(starts[1:], order.size)
        # later[p]: the members of p's class after position p
        later = np.repeat(ends, ends - starts)
        later -= np.arange(1, order.size + 1)
        cum = np.cumsum(later)
        # each group starts at the position that makes its first pair
        cuts = np.unique(np.searchsorted(cum, np.arange(0, cum[-1], _EQ_BLOCK), side="right"))
        for p0, p1 in zip(cuts.tolist(), [*cuts[1:].tolist(), order.size]):
            counts = later[p0:p1]
            before = cum[p0:p1] - counts  # the pairs of the positions before each
            # pair j of the block, made by position p, is (p, p + 1 + j - before[p])
            first = np.repeat(np.arange(p0, p1), counts)
            shift = np.repeat(np.arange(p0 + 1, p1 + 1) - before, counts)
            second = np.arange(before[0], cum[p1 - 1]) + shift
            np.add.at(acc, offset[order[first]] + order[second], one)
    return int(acc.max(initial=0))


def _thin_pays(d: np.ndarray) -> bool:
    """Whether the thin route is estimated to beat the scan: E is at most
    ``_THIN * C(n, 2)`` and the count accumulator (half the matrix) beside
    the matrix (with at most sixteen int64 temporaries of a block) fits in
    ``MAX_BYTES``."""
    n = len(d)
    if 1.5 * d.nbytes + 16 * 8 * _EQ_BLOCK > MAX_BYTES:
        return False
    return _equidistant_total(d, _THIN * (n * (n - 1) // 2)) is not None


# At most this many dense-scan entries (criteria x n x C(n, 2)), one batched
# ``lex_min`` pass beats the twin summary and the per-row Python work of the
# thin route (fitted on a 2-core x86 host, numpy 2.4); a caller that already
# holds the twin summary skips the floor, since its twin route then costs
# nothing.
_SCAN_FLOOR = 1 << 23


def _kappa_route(g: Graph, reducers: Sequence, workers: int = 1,
                 twins: TwinSummary | None = None) -> list:
    """``lex_min(g.distance_matrix, reducers, workers)`` for ``[pair_sum]``
    or ``[pair_sum, pair_count]`` by one of three routes, all with the
    same values and witness (kappa' off twins or thin comes with pair None).

    Scan. Up to ``_SCAN_FLOOR`` entries when no ``twins`` come in, and
    on every graph the routes below do not take, one ``lex_min`` pass
    visits every pair, split across ``workers`` threads and merged by
    ``(value, pair)``, so the witness does not depend on the worker
    count. Partner scans, as on the other two routes, run on one thread.

    Twins (``twins`` is ``twin_summary(g)``, made here if not given). The
    probes x and y each add d(x, y) to the sum of a pair, so the sum is
    at least 2 d(x, y), with equality exactly for true twins; and every
    pair has its two distinguishers x and y, with no others exactly for
    twins. So any twins give kappa' = 2, and true twins give kappa = 2
    with the first true-twin pair as witness. With false twins alone,
    kappa <= 4: a pair at distance 2 sums to 4 only as false twins and a
    pair at distance >= 3 sums to at least 6, so the scan visits only
    the adjacent pairs and the first false-twin pair.

    Thin (twin-free, few equidistant pairs). Along a geodesic
    x = v0 ... vt = y the probe vi adds |2i - t|, so the sum of a pair at
    distance t is at least (t + 1)^2 // 2. The adjacent pairs seed the
    sum; the sum scan then visits only the pairs whose bound is at most
    the seed, which include every pair that could reach or tie the
    minimum. The count of a pair is n - eq(x, y), where eq counts the
    sources equidistant from x and y, so kappa' = n - max eq, found (only
    when asked for) by adding 1 to every pair of each distance class of
    each source row: E = sum over s and r of C(|level r of s|, 2)
    increments, no pair scan. The route runs when E, read off the level
    histograms before any pair is made, is at most 8 C(n, 2) (E / C(n, 2)
    is 0.5 on paths, 1 on odd cycles, 4.9 on ``grid:4x150``; 20.6 on
    ``grid:24x24`` and over 200 on random graphs) and the accumulator
    fits beside the matrix in ``MAX_BYTES``.
    """
    assert reducers in ([pair_sum], [pair_sum, pair_count]), "kappa routes only sum, count"
    d, n = g.distance_matrix, g.n
    if twins is None and len(reducers) * n * (n * (n - 1) // 2) <= _SCAN_FLOOR:
        return lex_min(d, reducers, workers)
    twins = twin_summary(g) if twins is None else twins
    counts = [(2, None)] * (len(reducers) - 1)
    if twins.first_true:
        return [(2, twins.first_true), *counts]
    if twins.first_false:
        partners = _adjacent_partners(g, twins.first_false)
        return lex_min(d, [pair_sum], workers, partners) + counts
    if _thin_pays(d):
        (seed, _), = lex_min(d, [pair_sum], partners=_adjacent_partners(g))
        reach = isqrt(2 * seed + 1) - 1  # the largest t with (t + 1)^2 // 2 <= seed
        partners = [np.flatnonzero(d[a, a + 1:] <= reach) + (a + 1) for a in range(n)]
        counts = [(n - _max_equidistant(d), None) for _ in counts]
        return lex_min(d, [pair_sum], partners=partners) + counts
    return lex_min(d, reducers, workers)


def compute_kappa(g: Graph, workers: int = 1, twins: TwinSummary | None = None,
                  phases: dict | None = None) -> KappaReport:
    """Exact kappa and kappa' with a minimizing pair and classification.

    ``twins`` is ``twin_summary(g)`` when the caller already has it; with
    a ``phases`` dict the route and the classification add their
    milliseconds to ``phases["kappa"]`` and ``phases["classify"]``.
    """
    if g.n < 2:
        raise TrivialGraph("kappa is undefined on a single vertex")
    if twins is None:
        with timed(phases, "classify"):
            twins = twin_summary(g)
    with timed(phases, "kappa"):
        (kappa, pair), (kappa_prime, _) = _kappa_route(g, [pair_sum, pair_count], workers, twins)
    with timed(phases, "classify"):
        classification, evidence = _classify(g, kappa, twins)
    return KappaReport(
        kappa=kappa,
        kappa_prime=kappa_prime,
        witness_pair=pair,
        classification=classification,
        evidence=evidence,
    )

"""Distance-difference primitives, the lex-first pair scan, and kappa.

For a probe vertex s and a pair x, y the basic quantity is
``delta_s(x, y) = |d(x,s) - d(y,s)|``. Summing it over a set S gives
``delta_S(x, y)``; a set is weak k-resolving when that sum is >= k for
every vertex pair. kappa(G) is the largest feasible k, which equals the
minimum over pairs of the full-set sum. kappa'(G) is the analogous limit
for the count-based (k distinct distinguishers) criterion.

``lex_min`` is the one scan for the lex-first pair minimizing such a
criterion; kappa here and every verifier and certificate in ``solver``
read it, through two kernels: one block per head row for a full scan
over more than ``_MIN_SLICE`` columns with column-additive reducers
only, and blocks of a lex-ordered pair stream for every other scan. One
router picks one of four routes to kappa by one policy, for
``compute_kappa`` and ``solver.variant_kappa`` (kappa' only when asked):
trees get kappa, the witness and kappa' from their thread decomposition,
with no distance matrix; twins settle kappa' and all of kappa but a scan
of the adjacent pairs; long, thin twin-free graphs above a size floor
get kappa from a scan of the pairs that a geodesic lower bound lets
through and kappa' from a count of equidistant classes; other graphs get
one full scan. On bipartite graphs the last two scan only the pairs at
even distance, as every odd pair sums to at least n.
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import SameVertex, TrivialGraph, VertexOutOfRange
from .graph import MAX_BYTES, Graph, twin_summary
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
    """Per-pair difference total (the weak, sum-based criterion), summed in
    int32 while the block's integer dtype (values below 2^(8 x itemsize))
    and width keep it below 2^30, so that a prefix and a rest sum add up
    without overflow, else in int64."""
    narrow = block.dtype.kind in "iu" and block.shape[1] << 8 * block.dtype.itemsize <= 1 << 30
    return block.sum(axis=1, dtype=np.int32 if narrow else np.int64)


def pair_count(block: np.ndarray) -> np.ndarray:
    """Per-pair distinguisher count (the count-based criterion)."""
    return (block != 0).sum(axis=1, dtype=np.int32)


_MIN_SLICE = 64  # narrowest first column slice of the early-abandoning scan
_BATCH = 1 << 16  # entries in one block or head group of a scan with a matrix reducer
# Entries in one block of any other stream scan, and mask entries or pairs in
# one head group of its pair stream. Threads gain only from blocks this large:
# smaller ones make so many short numpy calls that two threads mostly wait
# for each other (grid:40x40 on a 2-core x86 host: 2^16 entries 460 ms on
# one thread and 570 ms on two, 2^18 entries 460 and 300 ms).
_PAIR_BATCH = 1 << 18


def _slice_width(best: list, ncols: int) -> int:
    """Width of the first column slice: every column until each reducer has
    an incumbent, then min(ncols, max(_MIN_SLICE, 2 x the largest))."""
    if None in best:
        return ncols
    return min(ncols, max(_MIN_SLICE, 2 * max(v for v, _ in best)))


def _survivors(vals: list, best: list) -> np.ndarray:
    """The pairs whose column-prefix values (lower bounds) are below some
    reducer's incumbent; a pair at or above every incumbent cannot win, as
    it comes later in lex order."""
    alive = np.zeros(len(vals[0]), dtype=bool)
    for v, (incumbent, _) in zip(vals, best):
        alive |= v < incumbent
    return np.flatnonzero(alive)


def _pair_stream(partners, heads: np.ndarray, n: int, budget: int):
    """The pairs (a, b) of ``partners`` (every b > a for None) over n items
    with a in ``heads`` (ascending), in lex order, as arrays of the a's and
    the b's, one head group at a time: all pairs' or a mask's group spans
    about ``budget`` entries of n-wide head rows, a partner list's as many
    rows as hold about ``budget`` pairs."""
    if partners is None or callable(partners):
        step = max(1, budget // max(1, n))
        for i in range(0, len(heads), step):
            group = heads[i:i + step]
            keep = np.arange(n) > group[:, None]
            if partners is not None:
                keep &= partners(group)
            at, b = np.nonzero(keep)
            yield group[at], b
        return
    group, total = [], 0
    for a in heads.tolist():
        if len(partners[a]):
            group.append(a)
            total += len(partners[a])
        if total >= budget:
            yield _listed_pairs(partners, group)
            group, total = [], 0
    if group:
        yield _listed_pairs(partners, group)


def _listed_pairs(partners, group: list[int]) -> tuple[np.ndarray, np.ndarray]:
    return (np.repeat(group, [len(partners[a]) for a in group]),
            np.concatenate([partners[a] for a in group]))


def _partner_part(rows, reducers, heads, partners):
    """Per reducer, the hit of each value column among the ``_pair_stream``
    of ``partners`` and ``heads``, in blocks sized as ``lex_min`` says.
    Without matrix reducers each block is read on a first column slice,
    its pairs that reach every incumbent are dropped (a tie comes later
    in lex order), and the rest are finished. The first argmin of a block
    (per column) is its lex-first pair, and only a strictly smaller value
    beats an earlier block's."""
    rows = np.ascontiguousarray(rows)  # blocks gather whole rows, slow on a column subset
    ncols = rows.shape[1]
    matrix = [hasattr(r, "columns") for r in reducers]
    sliced = not any(matrix)
    budget = _PAIR_BATCH if sliced else _BATCH
    best = [None] * len(reducers)
    for heads, others in _pair_stream(partners, heads, len(rows), budget):
        lo = 0
        while lo < len(heads):
            width = _slice_width(best, ncols) if sliced else ncols
            hi = lo + max(1, budget // max([1, width] + [getattr(r, "width", 0) for r in reducers]))
            a, b = heads[lo:hi], others[lo:hi]
            lo = hi
            block = _abs_diff(rows[b, :width], rows[a, :width])
            vals = [reduce(block) for reduce in reducers]
            if width < ncols:
                survivors = _survivors(vals, best)
                if survivors.size == 0:
                    continue
                a, b = a[survivors], b[survivors]
                rest = _abs_diff(rows[b, width:], rows[a, width:])
                vals = [v[survivors] + reduce(rest) for v, reduce in zip(vals, reducers)]
            for r, v in enumerate(vals):
                if matrix[r]:
                    # per column: its first argmin's value, a and b
                    at = v.argmin(axis=0)
                    hit = np.stack([v[at, np.arange(v.shape[1])], a[at], b[at]])
                    held = hit if best[r] is None else best[r]
                    best[r] = np.where(hit[0] < held[0], hit, held)
                    continue
                i = int(v.argmin())
                if best[r] is None or v[i] < best[r][0]:
                    best[r] = (int(v[i]), (int(a[i]), int(b[i])))
    return [[(v, (a, b)) for v, a, b in hit.T.tolist()] if m and hit is not None
            else [hit] * getattr(reduce, "columns", 1)
            for hit, reduce, m in zip(best, reducers, matrix)]


def _lex_min_part(rows, reducers, start, step, partners=None):
    """Per reducer, the lex-first hit of each value column among the pairs
    whose head item is one of start, start + step, ..., by the kernel that
    ``lex_min`` names."""
    heads = np.arange(start, len(rows) - 1, step)
    ncols = rows.shape[1]
    if partners is not None or ncols <= _MIN_SLICE or any(hasattr(r, "columns") for r in reducers):
        return _partner_part(rows, reducers, heads, partners)
    best = [None] * len(reducers)
    for a in heads.tolist():
        # item a is paired with every later item
        head = rows[a]
        width = _slice_width(best, ncols)
        block = _abs_diff(rows[a + 1:, :width], head[:width])
        vals = [reduce(block) for reduce in reducers]
        survivors = None
        if width < ncols:
            survivors = _survivors(vals, best)
            if survivors.size == 0:
                continue
            rest = _abs_diff(rows[survivors + a + 1, width:], head[width:])
            vals = [v[survivors] + reduce(rest) for v, reduce in zip(vals, reducers)]
        for r, v in enumerate(vals):
            i = int(v.argmin())
            if best[r] is None or v[i] < best[r][0]:
                j = i if survivors is None else int(survivors[i])
                best[r] = (int(v[i]), (a, a + 1 + j))
    return [[hit] for hit in best]


def lex_min(rows: np.ndarray, reducers: Sequence, workers: int = 1,
            partners: Sequence[np.ndarray] | Callable | None = None) -> list:
    """Per reducer, the lex-first minimizing ``(value, (a, b))`` over item
    pairs a < b of ``rows``, or None when there are fewer than two items.
    With ``partners``, only the pairs (a, b) with b in ``partners[a]`` (an
    ascending index array of items above a) take part; or, with a mask
    function, the pairs (a, b), b > a, where ``partners(heads)``, a bool
    block of (len(heads) x items) for an ascending index array of head
    items, is True in a's row and b's column.

    A reducer maps a block of per-column differences (one pair per row)
    to per-pair values and must be column-additive with non-negative
    terms, as ``pair_sum`` and ``pair_count`` are: the scan evaluates
    each block on a first column slice and abandons the pairs that
    already reach every reducer's incumbent, then finishes the rest.
    There are two kernels. A full scan over more than ``_MIN_SLICE``
    columns takes one block per head row, which reads contiguous row
    slices. Every other scan takes the pairs in lex order from a pair
    stream, in blocks of about ``_PAIR_BATCH`` entries that group as many
    head rows as fit, and never holds more than one head group of the
    pairs at once.

    With ``workers > 1`` the head items are split round-robin across
    threads and the parts are merged by ``(value, pair)``, so the result
    does not depend on the worker count. That holds for a mask too, but
    a partner list runs on one thread whatever ``workers`` says: its
    parts would not share incumbents, so a part whose partners hold no
    small pair would abandon none.

    A matrix reducer has a ``columns`` attribute R and maps the block to
    a (pairs x R) array, one value column per criterion; its entry in the
    result is the list of the R columns' hits (each None with fewer than
    two items). It need not be column-additive: the scan then takes the
    pair stream on all columns, with head groups and blocks of about
    ``_BATCH`` entries of the widest of the columns and the reducers'
    ``width``s, the most entries per pair that each makes.
    """
    matrix = [hasattr(r, "columns") for r in reducers]
    workers = min(workers, len(rows) - 1) if partners is None or callable(partners) else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda i: _lex_min_part(rows, reducers, i, workers, partners),
                range(workers),
            ))
    else:
        parts = [_lex_min_part(rows, reducers, 0, 1, partners)]
    merged = [[min((h for h in hits if h is not None), default=None) for hits in zip(*columns)]
              for columns in zip(*parts)]
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


def _classify(g: Graph, kappa: int) -> tuple[KappaClass, tuple[int, ...] | None]:
    twins = twin_summary(g)
    if kappa == 2 and twins.first_true:
        return KappaClass.TRUE_TWINS, twins.first_true
    if kappa == 3:
        witness = weak3_structure_witness(g)
        if witness is not None:
            return KappaClass.STRUCTURAL_3, witness
    if kappa == 4 and twins.first_false and not twins.first_true:
        return KappaClass.FALSE_TWINS, twins.first_false
    return KappaClass.OTHER, None


def _adjacent_partners(g: Graph) -> list[np.ndarray]:
    """``lex_min`` partners for the adjacent pairs."""
    adj = g.adjacency
    return [np.array(adj[a][bisect_right(adj[a], a):], dtype=np.intp) for a in range(g.n)]


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


def _thin_pays(d: np.ndarray, criteria: int) -> bool:
    """Whether the thin route is estimated to beat the scan for ``criteria``
    (1 or 2): the scan would make more than ``_SCAN_FLOOR`` entries, E is at
    most ``_THIN * C(n, 2)``, and the count accumulator (half the matrix)
    fits beside the matrix and sixteen int64 block temporaries in ``MAX_BYTES``."""
    n = len(d)
    pairs = n * (n - 1) // 2
    return (criteria * n * pairs > _SCAN_FLOOR and 1.5 * d.nbytes + 16 * 8 * _EQ_BLOCK <= MAX_BYTES
            and _equidistant_total(d, _THIN * pairs) is not None)


# Up to this many dense-scan entries (criteria x n x C(n, 2)), the scan can
# beat the thin route on twin-free graphs: on thin bipartite grids the
# same-color scan does up to about here (grid:4x60 with kappa': 4.5 against
# 5.4 ms at 2^23 entries), on odd cycles the thin route wins from far below
# (cycle:201 with kappa': 7.2 against 10.1 ms at 2^22). Measured with the
# twin summary already made, on a 2-core x86 host, numpy 2.4.
_SCAN_FLOOR = 1 << 23


def kappa_reads_distances(g: Graph) -> bool:
    """Whether ``_kappa_route`` reads the distance matrix of ``g``: on every
    graph but a tree with at least two vertices."""
    return g.n < 2 or g.edge_count != g.n - 1


def _kappa_route(g: Graph, count: bool = False, workers: int = 1) -> tuple:
    """``((kappa, pair), kappa')``: the lex-first minimizing pair of the sum
    (None with fewer than two vertices) and, with ``count``, kappa' (else
    None), by one of four routes, the last two narrowed by parity on
    bipartite graphs, each with the values and witness of the dense scan.

    Trees (n >= 2; ``Graph.tree_shape``, no distance matrix). Take a pair
    at distance L >= 3 on the path p_0 ... p_L, and let each probe project
    to its nearest path vertex p_i: it adds |2i - L|. For odd L every probe
    adds at least 1 and each end adds L > 1, so the pair sums to more
    than n, the sum of every adjacent pair. For even L = 2m a probe adds
    2|i - m|, and the middle pair (p_{m-1}, p_{m+1}) gets 2 from it, or 0
    when i = m; the end p_0 adds 2m > 2, so the middle pair sums to less.
    So only pairs at distance <= 2 attain the minimum. A pair (a, c)
    around b sums to 2(|B_a| + |B_c|), where B_a and B_c are b's branches
    through a and c, and has |B_a| + |B_c| distinguishers; an adjacent
    pair has n. On a path a pair around b sums to 2(n - 1) >= n. Off
    paths, a branch that is not a thread holds a vertex of degree >= 3,
    and two of its own branches make a strictly smaller pair, so the
    distance-2 minimum lies at a root's two shortest threads: kappa is
    ``TreeShape.kappa`` and the witness ``TreeShape.witness``. The
    midpoint probes of an even-L pair are exactly those of its middle
    pair, so the two have the same count, and kappa' is kappa_star / 2
    off paths, n - 1 on paths with n >= 3 and 2 at n = 2
    (``TreeShape.kappa_prime``).

    Twins (``twin_summary`` of the graph's cached twin classes). The
    probes x and y each add d(x, y) to the sum of a pair, so the sum is
    at least 2 d(x, y), with equality exactly for true twins; and every
    pair has its two distinguishers x and y, with no others exactly for
    twins. So any twins give kappa' = 2, and true twins give kappa = 2
    with the first true-twin pair as witness. With false twins alone,
    kappa <= 4: a pair at distance 2 sums to 4 only as false twins and a
    pair at distance >= 3 sums to at least 6. So kappa is the ``min`` of
    the adjacent pairs' scan and ``(4, first false-twin pair)``, the
    lex-first of the false-twin pairs, which all sum to exactly 4.

    Thin (twin-free, few equidistant pairs, above ``_SCAN_FLOOR``). Along
    a geodesic x = v0 ... vt = y the probe vi adds |2i - t|, so the sum
    of a pair at distance t is at least (t + 1)^2 // 2. The adjacent
    pairs seed the sum; the sum scan then visits only the pairs whose
    bound is at most the seed, which include every pair that could reach
    or tie the minimum. The count of a pair is n - eq(x, y), where eq
    counts the sources equidistant from x and y, so kappa' = n - max eq,
    found by adding 1 to every pair of each distance class of each
    source row: E = sum over s and r of C(|level r of s|, 2) increments,
    no pair scan. The route runs when E, read off the level histograms
    before any pair is made, is at most 8 C(n, 2) (E / C(n, 2) is 0.5 on
    paths, 1 on odd cycles, 4.9 on ``grid:4x150``; 20.6 on ``grid:24x24``
    and over 200 on random graphs) and the accumulator fits beside the
    matrix in ``MAX_BYTES``.

    Scan. Every other graph gets one ``lex_min`` pass over every pair,
    split across ``workers`` threads and merged by ``(value, pair)``, so
    the witness does not depend on the worker count. The twin and thin
    routes scan their pairs on one thread.

    Parity (bipartite graphs, ``Graph.coloring``, on the thin and scan
    routes). A probe s has hop counts to x and y of the parities of
    col(s) + col(x) and col(s) + col(y), so when d(x, y) is odd every
    probe adds an odd amount, at least 1: an odd pair sums to at least n
    and has exactly n distinguishers, and an adjacent pair, whose probes
    each add at most 1, sums to exactly n. So both routes scan only the
    same-color (even-distance) pairs, through a ``lex_min`` mask (the scan
    route's still split across ``workers``), and kappa' is the smaller of
    n and the even-pair count minimum. If the even-pair sum minimum is
    below n, it is kappa, with its lex-first pair as witness, as every
    odd pair comes above it. Otherwise kappa = n, and the hit is the
    ``min`` of the even-pair hit and ``(n, (0, min adj[0]))``: an odd
    pair at distance L >= 3 sums to at least n - 2 + 2L > n (x and y add
    L each), so the odd pairs that sum to n are the adjacent ones, and
    (0, min adj[0]) is the first of them; the even scan already gives
    the lex-first even pair at its value.
    """
    if not kappa_reads_distances(g):
        shape = g.tree_shape
        hit = shape.kappa, shape.witness((0, g.adjacency[0][0]))
        return hit, shape.kappa_prime if count else None
    d, n = g.distance_matrix, g.n
    twins = twin_summary(g)
    if twins.first_true:
        return (2, twins.first_true), 2 if count else None
    if twins.first_false:
        (hit,) = lex_min(d, [pair_sum], workers, _adjacent_partners(g))
        return min(hit, (4, twins.first_false)), 2 if count else None
    side = g.coloring
    same = None if side is None else (lambda heads: side[heads, None] == side)
    if _thin_pays(d, 1 + count):
        ((seed, _),) = lex_min(d, [pair_sum], partners=_adjacent_partners(g))
        reach = isqrt(2 * seed + 1) - 1  # the largest t with (t + 1)^2 // 2 <= seed

        def near(heads):
            keep = d[heads] <= reach
            return keep if same is None else keep & same(heads)

        (hit,) = lex_min(d, [pair_sum], partners=near)
        kappa_prime = n - _max_equidistant(d) if count else None
    else:
        hit, *counted = lex_min(d, [pair_sum, pair_count] if count else [pair_sum], workers, same)
        # with ``same``, the odd pairs left out each have count n
        kappa_prime = min(n, counted[0][0] if counted[0] else n) if count else None
    if same is not None and n > 1:
        # the odd pairs' minimum is n, first attained at the first edge
        hit = min(h for h in (hit, (n, (0, g.adjacency[0][0]))) if h is not None)
    return hit, kappa_prime


def compute_kappa(g: Graph, workers: int = 1, phases: dict | None = None) -> KappaReport:
    """Exact kappa and kappa' with a minimizing pair and classification.

    With a ``phases`` dict the route and the classification add their
    milliseconds to ``phases["kappa"]`` and ``phases["classify"]``; both
    read the graph's cached twin classes (built by the first reader).
    """
    if g.n < 2:
        raise TrivialGraph("kappa is undefined on a single vertex")
    with timed(phases, "kappa"):
        (kappa, pair), kappa_prime = _kappa_route(g, count=True, workers=workers)
    with timed(phases, "classify"):
        classification, evidence = _classify(g, kappa)
    return KappaReport(
        kappa=kappa,
        kappa_prime=kappa_prime,
        witness_pair=pair,
        classification=classification,
        evidence=evidence,
    )

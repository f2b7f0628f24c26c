"""Distance-difference primitives, the lex-first pair scan, and kappa.

For a probe vertex s and a pair x, y the basic quantity is
``delta_s(x, y) = |d(x,s) - d(y,s)|``. Summing it over a set S gives
``delta_S(x, y)``; a set is weak k-resolving when that sum is >= k for
every vertex pair. kappa(G) is the largest feasible k, which equals the
minimum over pairs of the full-set sum. kappa'(G) is the analogous limit
for the count-based (k distinct distinguishers) criterion.

``lex_min`` is the one scan for the lex-first pair minimizing such a
criterion: one early-abandoning loop over blocks from two pair sources,
a head row with every later item, read in place, for a full scan over
more than ``_MIN_SLICE`` columns with column-additive reducers only, and
a lex-ordered pair stream for every other scan. A pair subset is a pair
list, two aligned index arrays (a, b), a < b, in lex order
(``_edge_pairs`` gives the edges), or a mask function; a mask or a full
scan may also take only the pairs of some head items. ``lex_min`` alone
decides threads: with ``workers > 1`` a mask or a full scan splits by
head item across them, and a pair list runs whole; its callers pass
``workers`` on and take no thread decision of their own.

``_worst_pairs`` is the one router of every worst-pair question: kappa
and kappa' (``compute_kappa``), every variant's kappa, and the sum
checks of one set or a sweep of sets in ``solver``. A single set S,
the whole vertex set one more, takes one body. For S = V on the vertex
variant, trees get kappa, the witness and kappa' from their thread
decomposition, with no distance matrix, and twins settle kappa' and all
of kappa but, off bipartite graphs, a scan of a few adjacent pairs.
Above a size floor the set scan reads only the pairs that two lower
bounds on delta_S leave in play (parity and the sum gap); there, for
S = V on a cycle or a grid made from its family spec, it reads only the
pairs whose head leads its orbit under the spec's symmetries, with
kappa' from the same scans, and elsewhere long, thin twin-free graphs,
where the sum-gap band would not be taken, get kappa from a scan of the
pairs that a geodesic lower bound lets through and kappa' from a count
of equidistant classes. A sweep of sets takes one scan, by parity alone
above the floor. Each keeps the plain scan's value and lex-first pair.

Parity (bipartite graphs, vertex variant). A probe s has hop counts to
x and y of the parities of col(s) + col(x) and col(s) + col(y). When
d(x, y) is odd they differ, so s adds an odd amount, at least 1: an odd
pair sums to at least |S|, with exactly |S| distinguishers. An adjacent
pair, whose terms are each at most d(x, y) = 1, sums to exactly |S|. So
min delta_S = min(|S|, the even-pair minimum), and only the same-color
pairs are scanned. The hit is the ``min`` of the even scan's hit and the
lex-first odd pair at |S|: (0, min adj[0]) sums to |S| and every pair
with a head above 0 comes after it, so that pair is the lex-first
minimizer of one ``lex_min`` over the pairs (0, b), b <= min adj[0], of
the other color (``_odd_pairs``), each of which sums to at least |S|.
For S != V it need not be adjacent: on the path 0 - 3 - 2 - 1 with
S = {3}, (0, 1) sums to 1 = |S|. For S = V it is (0, min adj[0]): an odd
pair at distance L >= 3 sums to at least n - 2 + 2L > n, as x and y add
L each.

Sum gap (any variant). Let sigma_S(x) be the sum of item x's row over S.
Then |sigma_S(x) - sigma_S(y)| = |sum over s of (r_x(s) - r_y(s))| <=
delta_S(x, y). Any pair's sum u (the seed) is at least the minimum, so a
pair whose gap exceeds u sums above the minimum: the band of the pairs
with a gap of at most u holds the minimum and every pair that ties it,
and so the lex-first one. The seed is the least sum that one ``lex_min``
finds over one lex-ordered pair list (the adjacent pairs, and each item
with the next two in sigma order), or, on the vertex variant, the twin
pairs' closed form where lower: twins x, y are equidistant from every
other vertex and d(x, y) = t (1 for true twins, 2 for false ones), so
delta_S(x, y) = t ([x in S] + [y in S]), read off the twin classes. For
the count of a vertex pair, each term |d(x, s) - d(y, s)| is at most
d(x, y) by the triangle inequality and only the count of them are
nonzero, so the gap is at most the count times d(x, y).

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

Twins (``_twin_hit`` of the graph's cached twin classes). The probes x
and y each add d(x, y) to the sum of a pair, so the sum is at least
2 d(x, y), with equality exactly for twins; and every pair has its two
distinguishers x and y, with no others exactly for twins. So any twins
give kappa' = 2, and true twins give kappa = 2 with the first true-twin
pair as witness: the twin hit at S = V. With false twins alone the hit
is (4, the first false-twin pair), and kappa <= 4: a pair at distance 2
sums to 4 only as false twins and a pair at distance >= 3 sums to at
least 6. So kappa is the ``min`` of the hit and the edges' least sum. On
a bipartite graph every edge sums to exactly n (parity), so the edges'
hit is the first edge, (0, min adj[0]), with no scan. Elsewhere an edge
sums to at least its sum gap, and the scan reads only the edges with a
gap of at most 4 (``_twin_route_partners``).

Orbits (S = V, a family spec with symmetries; ``families.orbit_leaders``
gives the ascending leader ids, a ``lex_min`` head subset). An
automorphism phi preserves d, so delta_V and the distinguisher count
are constant on each pair orbit, and so are parity, the row sums sigma
and with them the sum-gap and count bands: each mask keeps a union of
pair orbits. Take the lex-first minimizer (x, y) of either criterion
over such a pair set. If phi(x) < x for some phi, the image pair, whose
head is at most phi(x), would be an earlier minimizer in the set, which
is impossible; so x is the least vertex of its orbit, its leader. So a
scan of the pairs with a leader head keeps the plain scan's value and
pair, and the least count too. A spec of one orbit (a cycle) has every
row sum the same, so its band would keep every pair and is not set up.

Thin (twin-free, few equidistant pairs, where the sum-gap band would
not be taken). Along a geodesic x = v0 ... vt = y the probe vi adds
|2i - t|, so the sum of a pair at distance t is at least
(t + 1)^2 // 2. The band's seed is a pair sum; the sum scan then visits
only the pairs whose bound is at most the seed, which include every
pair that could reach or tie the minimum. The count of a pair is
n - eq(x, y), where eq counts the sources equidistant from x and y, so
kappa' = n - max eq, found by a gap pass over each source row sorted by
level, which adds 1 to every pair inside one of its distance classes:
E = sum over s and r of C(|level r of s|, 2) increments, no pair scan.
The route runs when E, read off the level
histograms before any pair is made, is at most 8 C(n, 2) (E / C(n, 2)
is 0.5 on paths, 1 on odd cycles, 4.9 on ``grid:4x150``; 20.6 on
``grid:24x24`` and over 200 on random graphs) and the accumulator fits
beside the matrix in ``MAX_BYTES``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from math import isqrt
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .errors import SameVertex, TrivialGraph, VertexOutOfRange
from .families import orbit_leaders
from .graph import MAX_BYTES, Graph
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
    """The pairs (a, b) of ``partners`` (every b > a for None) over n items,
    in lex order, as arrays of the a's and the b's, one piece at a time:
    for all pairs or a mask, those with a in ``heads`` (ascending), in
    head groups of about ``budget`` entries of n-wide head rows; a pair
    list, which runs on one thread, whole, in slices of ``budget`` pairs."""
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
    a, b = partners
    for i in range(0, len(a), budget):
        yield a[i:i + budget], b[i:i + budget]


def _pick(index, at):
    """Entries ``at`` of a block's index: an index array, one head item
    for every pair, or a slice of consecutive items."""
    if isinstance(index, np.ndarray):
        return index[at]
    return index.start + at if isinstance(index, slice) else index


def _partner_part(rows, reducers, heads, partners):
    """Per reducer, the hit of each value column among the pairs of
    ``partners`` whose head is one of ``heads`` (ascending), in the blocks
    that ``lex_min`` names: a head row a with every later item, its first
    slice read in place as ``rows[a + 1:]``, or a block of the
    ``_pair_stream``. Without matrix reducers each block is read on a
    first column slice, its pairs that reach every incumbent are dropped
    (a tie comes later in lex order), and the rest are finished. The
    first argmin of a block (per column) is its lex-first pair, and only
    a strictly smaller value beats an earlier block's."""
    n, ncols = rows.shape
    matrix = [hasattr(r, "columns") for r in reducers]
    sliced = not any(matrix)
    budget = _PAIR_BATCH if sliced else _BATCH
    widest = max([1] + [getattr(r, "width", 0) for r in reducers])  # a reducer's entries per pair
    best = [None] * len(reducers)

    def blocks():
        # (a, b, width): the head items, their partners and the first slice's width
        if partners is None and sliced and ncols > _MIN_SLICE:
            for a in heads.tolist():
                yield a, slice(a + 1, n), _slice_width(best, ncols)
            return
        for a, b in _pair_stream(partners, heads, n, budget):
            lo = 0
            while lo < len(a):
                width = _slice_width(best, ncols) if sliced else ncols
                hi = lo + max(1, budget // max(width, widest))
                yield a[lo:hi], b[lo:hi], width
                lo = hi

    for a, b, width in blocks():
        block = _abs_diff(rows[b, :width], rows[a, :width])
        vals = [reduce(block) for reduce in reducers]
        if width < ncols:
            survivors = _survivors(vals, best)
            if survivors.size == 0:
                continue
            a, b = _pick(a, survivors), _pick(b, survivors)
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
                best[r] = (int(v[i]), (int(_pick(a, i)), int(_pick(b, i))))
    return [[(v, (a, b)) for v, a, b in hit.T.tolist()] if m and hit is not None
            else [hit] * getattr(reduce, "columns", 1)
            for hit, reduce, m in zip(best, reducers, matrix)]


def lex_min(rows: np.ndarray, reducers: Sequence, workers: int = 1,
            partners: tuple[np.ndarray, np.ndarray] | Callable | None = None,
            heads: np.ndarray | None = None) -> list:
    """Per reducer, the lex-first minimizing ``(value, (a, b))`` over item
    pairs a < b of ``rows``, or None when there are fewer than two items.
    With a pair list ``partners = (a, b)``, two aligned index arrays with
    a < b in lex order, only those pairs take part; or, with a mask
    function, the pairs (a, b), b > a, where ``partners(heads)``, a bool
    block of (len(heads) x items) for an ascending index array of head
    items, is True in a's row and b's column.

    A reducer maps a block of per-column differences (one pair per row)
    to per-pair values and must be column-additive with non-negative
    terms, as ``pair_sum`` and ``pair_count`` are: the scan evaluates
    each block on a first column slice and abandons the pairs that
    already reach every reducer's incumbent, then finishes the rest.
    One loop (``_partner_part``) reads the blocks of two pair sources. A
    full scan over more than ``_MIN_SLICE`` columns takes one block per
    head row a, a with every later item, whose first slice is read in
    place as ``rows[a + 1:]`` (a gather of the same pairs was 1.2-1.5x
    slower on wide full scans). Every other scan takes the pairs in lex
    order from a pair stream, in blocks of about ``_PAIR_BATCH`` entries
    that group as many pairs as fit, and never holds more than one head
    group of a mask's or all pairs at once.

    With ``heads``, an ascending index array of items below the last,
    a mask or a full scan takes only the pairs whose head a is one of
    them; a pair list ignores it.

    This is the package's one thread decision. With ``workers > 1`` a
    mask's or a full scan's head items are split round-robin across
    threads and the parts are merged by ``(value, pair)``, so the result
    does not depend on the worker count. A pair list runs whole on one
    thread whatever ``workers`` says: its parts would not share
    incumbents, so a part whose pairs hold no small one would abandon
    none.

    A matrix reducer has a ``columns`` attribute R and maps the block to
    a (pairs x R) array, one value column per criterion; its entry in the
    result is the list of the R columns' hits (each None with fewer than
    two items). It need not be column-additive: the scan then takes the
    pair stream on all columns, with head groups and blocks of about
    ``_BATCH`` entries of the widest of the columns and the reducers'
    ``width``s, the most entries per pair that each makes.
    """
    rows = np.ascontiguousarray(rows)  # blocks gather whole rows, slow on a column subset
    matrix = [hasattr(r, "columns") for r in reducers]
    heads = np.arange(len(rows) - 1) if heads is None else heads
    workers = max(1, min(workers, len(heads))) if partners is None or callable(partners) else 1

    def part(i):
        return _partner_part(rows, reducers, heads[i::workers], partners)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(part, range(workers)))
    else:
        parts = [part(0)]
    merged = [[min((h for h in hits if h is not None), default=None) for hits in zip(*columns)]
              for columns in zip(*parts)]
    return [hits if m else hits[0] for hits, m in zip(merged, matrix)]


class Variant(str, Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    MIXED = "mixed"


def _items(g: Graph, variant: Variant) -> list:
    """The items of the variant: the vertices, then (edge and mixed) the
    edges (v, w), v < w, in lex order."""
    return (list(range(g.n)) if variant != Variant.EDGE else []) + (
        g.edges() if variant != Variant.VERTEX else [])


def _item_rows(g: Graph, variant: Variant) -> tuple[list, np.ndarray]:
    """Items of the variant and their distance rows: a vertex's row is its
    distance-matrix row (the vertex variant returns the matrix itself, no
    copy); an edge vw gets min(d[v], d[w])."""
    d = g.distance_matrix
    items = _items(g, variant)
    if variant == Variant.VERTEX:
        return items, d
    heads, tails = _edge_pairs(g)
    edge_rows = np.minimum(d[heads], d[tails])
    return items, edge_rows if variant == Variant.EDGE else np.concatenate([d, edge_rows])


class _ChainSums:
    """``lex_min`` matrix reducer: per item pair, its difference sum over
    each basis of a sweep, from a block over the union of their columns.

    Basis r's sums are basis r - 1's (none before the first) plus the
    columns it adds and minus those it drops. The change columns of all
    steps are gathered once and signed, and one ``cumsum`` along them is
    read at the last entry of each step. A step without changes gets one
    entry of sign 0, so every step ends at an entry of its own. The steps
    are gathered as rows (one per change column, the pairs along it), so
    the ``cumsum`` adds whole contiguous rows; it runs in int32 while the
    width times the block dtype's largest value stays below 2^31 (any
    running sum is at most that), else in int64 (grid:40x40 over the
    formula bases of k = 1..156: 0.8 s against 1.2 s along the pairs' rows
    in int64, 2-core x86 host).
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
        narrow = self.width * np.iinfo(block.dtype).max < 1 << 31
        sums = block.T.take(self.cols, axis=0).astype(np.int32 if narrow else np.int64)
        sums *= self.signs[:, None]
        np.cumsum(sums, axis=0, out=sums)
        return (sums if self.ends is None else sums.take(self.ends, axis=0)).T


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
    # the twin hit at S = V is (2, the first true-twin pair) or, with false
    # twins alone, (4, the first false-twin pair)
    twin = _twin_hit(g, range(g.n))
    if twin is not None and twin[0] == kappa:
        return (KappaClass.TRUE_TWINS if kappa == 2 else KappaClass.FALSE_TWINS), twin[1]
    if kappa == 3:
        witness = weak3_structure_witness(g)
        if witness is not None:
            return KappaClass.STRUCTURAL_3, witness
    return KappaClass.OTHER, None


def _edge_pairs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The edges (v, w), v < w, in lex order as a ``lex_min`` pair list of
    read-only (heads, tails), built once per graph (``Graph._cached``)."""
    return g._cached("edges", _edge_arrays)


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``_edge_pairs``, made from the adjacency: each vertex's is ascending."""
    heads = np.repeat(np.arange(g.n), [len(a) for a in g.adjacency])
    tails = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.intp, count=len(heads))
    keep = heads < tails
    heads, tails = heads[keep], tails[keep]
    heads.flags.writeable = tails.flags.writeable = False
    return heads, tails


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

    A gap pass over each block of about ``_EQ_BLOCK`` source rows: each row
    is sorted by level, stably, so that a level's vertices stay ascending
    and fill consecutive positions. For j = 1, 2, ... the pass adds 1 at
    (order[p], order[p + j]) wherever the sorted levels at p and p + j
    match, in a C(n, 2) accumulator of the distance dtype (eq <= n - 2)
    that holds the pairs x < y in lex order at x (2n - x - 1) / 2 + y - x - 1,
    and stops at the first gap with no match: no larger one can have any.
    The work is E increments and one compare per gap, the temporaries stay
    the size of a block.
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
        levels = np.take_along_axis(block, order, axis=1)
        # lifted by n per row, so that equal keys share a row
        key = (levels + np.arange(0, block.size, n)[:, None]).ravel()
        order = order.ravel()
        for gap in range(1, n):
            p = np.flatnonzero(key[gap:] == key[:-gap])
            if p.size == 0:
                break
            np.add.at(acc, offset[order[p]] + order[p + gap], one)
    return int(acc.max(initial=0))


def _thin_pays(d: np.ndarray, criteria: int, bipartite: bool) -> bool:
    """Whether the thin route is estimated to beat the scan for ``criteria``
    (1 or 2), on a graph above ``_MASK_FLOOR``: on a bipartite graph the
    scan would make more than ``_SCAN_FLOOR`` entries, E is at most
    ``_THIN * C(n, 2)``, and the count accumulator (half the matrix) fits
    beside the matrix and sixteen int64 block temporaries in ``MAX_BYTES``."""
    n = len(d)
    pairs = n * (n - 1) // 2
    return ((not bipartite or criteria * n * pairs > _SCAN_FLOOR)
            and 1.5 * d.nbytes + 16 * 8 * _EQ_BLOCK <= MAX_BYTES
            and _equidistant_total(d, _THIN * pairs) is not None)


# Up to this many dense-scan entries (criteria x n x C(n, 2)), the scan can
# beat the thin route on twin-free bipartite graphs, where it reads only
# the same-color pairs (grid:4x60 with kappa': 8.1 against 11.8 ms at
# 2^23.7 entries, grid:3x40 1.0 against 1.9 ms, C4xC30 1.5 against
# 3.4 ms). On other graphs the thin route wins from ``_MASK_FLOOR``
# (path:100 plus the chord (0, 4) with kappa' 0.9 against 2.4 ms; kappa
# alone on cycle:83, cycle:101 and C3xC29, between 2^18 and 2^19
# entries, 1.4, 2.0 and 1.7 against 0.5, 0.7 and 1.0 ms, with kappa'
# 2.4, 3.2 and 1.8 against 1.1, 1.5 and 1.8 ms). Measured with the twin
# summary already made, on a 2-core x86 host, numpy 2.4.
_SCAN_FLOOR = 1 << 23


def kappa_reads_distances(g: Graph) -> bool:
    """Whether kappa (``_worst_pairs`` on the whole vertex set) reads the
    distance matrix of ``g``: on every graph but a tree with at least two
    vertices."""
    return g.n < 2 or not g.is_tree


def _twin_route_partners(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``lex_min`` pair list of the edges (x, y) whose sum gap
    |sigma(x) - sigma(y)| of the row sums is at most 4: an edge sums to at
    least its gap, and only sums up to 4 can change the false-twin route's
    answer. No exact |N(x) Δ N(y)| test follows: it and the scan it would
    spare each read a pair's two rows once (on K_{150,150,150} the gap
    keeps all 67,500 edges and the test none; ``compute_kappa`` took
    28.0 ms with the test against 22.9 ms without, medians of 31
    alternating pairs, 2-core x86 host, numpy 2.4)."""
    heads, tails = _edge_pairs(g)
    sigma = pair_sum(g.distance_matrix)  # the row sums
    keep = np.abs(sigma[heads] - sigma[tails]) <= 4
    return heads[keep], tails[keep]


# Up to this many entries (item pairs x columns), a set check, the whole
# vertex set one more, is one plain scan with no mask and no thin route:
# below it the masks' set-up (the seed scan, the row sums, the band count,
# the odd pairs' row) costs more than it saves (a 3/4 set of a sparse n = 80
# graph 0.27 ms plain against 0.31 masked; the whole vertex set of
# grid:5x4 0.057 plain against 0.076 ms by parity, though grid:9x7,
# 1.2e5 entries, takes 0.35 against 0.32 ms), above it the masks save
# (n = 200, 3.7e5 entries: 2.6 against 1.1 ms; the grid:12x12 sweep over
# k = 1..44, 4.5e5 entries: 5.8 against 3.6 ms; the vertex variant's kappa
# of grid:12x12, 1.5e6 entries, 2.9 against 1.4 ms with the band, of
# grid:20x20 14.5 against 6.8 ms; on path:400 plus the chord (0, 4), where
# the band goes before the thin route, kappa alone takes 2.7 against 5.4 ms
# and with kappa' 12.7 against 7.4 ms). Measured on a 2-core x86 host,
# numpy 2.4.
_MASK_FLOOR = 1 << 18
# The sum-gap band is taken when it keeps at most this share of the pairs.
_BAND_SHARE = 0.5


def _sum_band(g: Graph, variant: Variant, rows: np.ndarray, S: Sequence[int]) -> tuple:
    """``(sigma, seed)`` of the sum-gap band over the item rows ``rows`` (two
    or more, on the columns of S). sigma is each item's row sum, and
    |sigma(x) - sigma(y)| <= delta_S(x, y) by the triangle inequality over
    the columns; it is None when the pairs with a gap of at most ``seed``
    (counted off the sorted sums) are more than ``_BAND_SHARE`` of all.
    The seed is a pair sum, so the band holds every pair that reaches or
    ties the minimum: the least sum, by one ``lex_min`` over one pair list,
    of the adjacent vertex pairs (vertex and mixed variants, whose first
    items are the vertices) and of each item and the next two in sigma
    order (near sums make near rows likely), and, on the vertex variant,
    of the twin pairs (``_twin_hit``)."""
    sigma = pair_sum(rows)
    order = np.argsort(sigma, kind="stable")
    a, b = np.concatenate([order[:-1], order[:-2]]), np.concatenate([order[1:], order[2:]])
    if variant != Variant.EDGE:
        heads, tails = _edge_pairs(g)
        a, b = np.concatenate([heads, a]), np.concatenate([tails, b])
    # each pair once, as (lower, higher), in lex order: a sort and a step test
    # (np.unique took 10x as long on 6,300 keys, numpy 2.4)
    keys = np.sort(np.minimum(a, b) * len(rows) + np.maximum(a, b))
    (hit,) = lex_min(rows, [pair_sum], partners=np.divmod(keys[np.diff(keys, prepend=-1) > 0],
                                                           len(rows)))
    twin = _twin_hit(g, set(S)) if variant == Variant.VERTEX else None
    seed = _least(hit[0], twin and twin[0])
    ranked = sigma[order]
    kept = np.searchsorted(ranked, ranked + seed, side="right") - np.arange(1, len(rows) + 1)
    share = int(kept.sum()) / (len(rows) * (len(rows) - 1) // 2)
    return sigma if share <= _BAND_SHARE else None, seed


def _both(first, second):
    """The ``lex_min`` mask of the pairs in both masks (either may be None)."""
    if first is None or second is None:
        return first or second
    return lambda heads: first(heads) & second(heads)


def _same_color(side: np.ndarray | None):
    """The ``lex_min`` mask of the same-color pairs of ``side``, or None."""
    return None if side is None else (lambda heads: side[heads, None] == side)


def _gap_at_most(sigma: np.ndarray, limit):
    """The ``lex_min`` mask of the pairs with |sigma(a) - sigma(b)| <= limit,
    a number or a function of the head items giving one per pair."""
    return lambda heads: np.abs(sigma[heads, None] - sigma) <= (
        limit(heads) if callable(limit) else limit)


def _count_band(sigma: np.ndarray, d: np.ndarray, witness: int):
    """The ``lex_min`` mask of the vertex pairs with |sigma(x) - sigma(y)| <=
    ``witness`` d(x, y), which holds every pair counting at most ``witness``
    distinguishers. The limit is made in int64: in the matrix's int8 or
    int16 it would wrap once ``witness`` d(x, y) passes the dtype's maximum."""
    return _gap_at_most(sigma, lambda heads: np.multiply(d[heads], witness, dtype=np.int64))


def _least(*hits):
    return min((h for h in hits if h is not None), default=None)


def _twin_hit(g: Graph, S: Collection[int]) -> tuple | None:
    """``(delta_S(x, y), (x, y))`` of the lex-first twin pair at the least
    delta_S, or None without twins; S is a set, or ``range(g.n)`` for the
    whole vertex set. Twins x, y differ only at x and y, by t = d(x, y)
    (1 for true twins, 2 for false ones), so delta_S(x, y) =
    t ([x in S] + [y in S]). In a class the least pair is its first two
    members in (in S, id) order, which is also the class's lex-first pair
    at that value. At S = V every pair of a kind sums to 2t, so the hit
    is (2, the first true-twin pair), else (4, the first false-twin
    pair), read off the classes' first two members."""
    kinds = enumerate(g.twin_classes, 1)
    if len(S) == g.n:
        return next(((2 * t, min(grp[:2] for grp in classes)) for t, classes in kinds if classes),
                    None)
    return _least(*((t * sum(v in S for v in pair), tuple(sorted(pair)))
                    for t, classes in kinds for grp in classes
                    for pair in [sorted(grp, key=lambda v: (v in S, v))[:2]]))


def _odd_pairs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``lex_min`` pair list of the pairs (0, b), b <= min adj[0], with b of
    the other color than vertex 0, on a bipartite graph. Over any set S
    each is an odd pair, which sums to at least |S|, and (0, min adj[0]),
    the last, sums to exactly |S| (module docstring, Parity). So the
    list's least sum is |S|, and its lex-first minimizer is the lex-first
    odd pair at |S|: every odd pair with a head above 0 comes after
    (0, min adj[0])."""
    side = g.coloring
    b = np.flatnonzero(side[1:g.adjacency[0][0] + 1] != side[0]) + 1
    return np.zeros_like(b), b


def _worst_pairs(g: Graph, variant: Variant, bases: Sequence[Sequence[int]],
                 count: bool = False, workers: int = 1) -> list:
    """Per basis (an ascending list of vertex ids), ``(hit, least count)``:
    the lex-first ``(value, (a, b))`` over the variant's item pairs a < b
    minimizing delta_S, as ``lex_min`` over every pair gives it (None with
    fewer than two items), and, with ``count`` (vertex variant, one basis),
    the smallest distinguisher count, else None. Every mask or full scan
    gets ``workers``, and ``lex_min`` decides the threads; the answer does
    not depend on it.

    The one router of every worst-pair question, with one body for a
    single set S; each step keeps the plain scan's value and witness (the
    proofs are in the module docstring):

    1. The whole vertex set S = V of the vertex variant first takes the
       tree route (no distance matrix), then the twin routes off
       ``_twin_hit``: true twins give kappa = 2 with no scan, false twins
       alone the ``min`` of (4, the first false-twin pair) and the edges'
       least sum, the first edge at n on a bipartite graph (no scan),
       else one scan of the edges with a sum gap of at most 4
       (``_twin_route_partners``). Any twins give kappa' = 2.
    2. Up to ``_MASK_FLOOR`` entries (item pairs x |S|) the set is one
       plain scan. Above it S = V on a graph with orbit leaders (a cycle
       or a grid from its family spec, whose ``families.orbit_leaders``
       gives their ids) has every scan but the seed's and the odd pairs'
       take only the pairs with a leader head, and the checks below count
       only those pairs; a cycle, one orbit, sets up no band.
    3. Above the floor the scan reads only the pairs in both masks:
       parity (vertex variant, bipartite graph), and the sum-gap band of
       ``_sum_band`` when it keeps at most ``_BAND_SHARE`` of the pairs.
       There, for S = V without leaders where the band is not taken, the
       thin route runs when ``_thin_pays``: kappa from a scan of the
       pairs whose geodesic bound is at most the band's seed,
       kappa' = n - max eq. With leaders kappa' comes from the scan.
    4. Every other set check is the set scan. On either, with parity the
       hit is the ``min`` of the scan's and the lex-first odd pair at
       |S|, a ``lex_min`` over ``_odd_pairs``, and the count at most |S|.
       With the band the count is a second scan, over the pairs with
       |sigma(x) - sigma(y)| <= c d(x, y), c the witness's count: each
       nonzero term of the gap is at most d(x, y), so a pair outside
       counts more than c distinguishers.

    Two or more sets take one ``_ChainSums`` scan of the union of their
    columns, over the same-color pairs of a bipartite graph above
    ``_MASK_FLOOR``, each set's hit then the ``min`` with its lex-first
    odd pair at |S|, from one ``_ChainSums`` scan over ``_odd_pairs``.
    """
    bases = [list(S) for S in bases]
    vertex = variant == Variant.VERTEX
    if len(bases) == 1:
        (S,) = bases
        kappa = vertex and len(S) == g.n
        if kappa:
            if not kappa_reads_distances(g):
                shape = g.tree_shape
                hit = shape.kappa, shape.witness((0, g.adjacency[0][0]))
                return [(hit, shape.kappa_prime if count else None)]
            hit = _twin_hit(g, range(g.n))
            if hit is not None and hit[0] == 4:  # false twins alone: only edges sum below 4
                if g.coloring is not None:  # every edge sums to n
                    edge = (g.n, (0, g.adjacency[0][0]))
                else:
                    (edge,) = lex_min(g.distance_matrix, [pair_sum], workers,
                                      _twin_route_partners(g))
                hit = _least(hit, edge)
            if hit is not None:
                return [(hit, 2 if count else None)]
        _, rows = _item_rows(g, variant)
        # the whole set reads the rows, no copy; a subset takes its columns in
        # row-major order, which every ``lex_min`` call then reads uncopied
        rows = rows if len(S) == g.n else rows.take(S, axis=1)
        pairs = len(rows) * (len(rows) - 1) // 2
        spec = g.family if kappa and pairs * len(S) > _MASK_FLOOR else None
        leaders = None if spec is None else orbit_leaders(spec)
        same = sigma = bound = None
        if leaders is not None:
            pairs = int((g.n - 1 - leaders).sum())  # the pairs with a leader head
        if pairs * len(S) > _MASK_FLOOR:
            same = _same_color(g.coloring if vertex else None)
            if leaders is None or len(leaders) > 1:  # one orbit (a cycle): equal row sums
                sigma, seed = _sum_band(g, variant, rows, S)
            if sigma is not None:
                bound = _gap_at_most(sigma, seed)
            elif kappa and leaders is None and _thin_pays(rows, 1 + count, same is not None):
                reach = isqrt(2 * seed + 1) - 1  # the largest t with (t + 1)^2 // 2 <= seed
                bound = lambda heads: rows[heads] <= reach  # the thin route's geodesic bound
        # a bound keeps every pair that reaches the least sum, not the least count's
        hit, *counted = lex_min(rows, [pair_sum, pair_count] if count and bound is None
                                else [pair_sum], workers, _both(same, bound), heads=leaders)
        least = counted[0][0] if counted and counted[0] else None
        if same is not None:
            hit = _least(hit, *lex_min(rows, [pair_sum], workers, _odd_pairs(g)))
        if count and sigma is not None:
            a, b = hit[1]
            witness = int(np.count_nonzero(rows[a] != rows[b]))
            (low,) = lex_min(rows, [pair_count], workers,
                             _both(same, _count_band(sigma, g.distance_matrix, witness)),
                             heads=leaders)
            least = _least(witness, low and low[0])
        elif count and bound is not None:
            least = g.n - _max_equidistant(rows)
        if count and same is not None:
            least = _least(least, len(S))
        return [(hit, least)]
    _, rows = _item_rows(g, variant)
    pairs = len(rows) * (len(rows) - 1) // 2
    # column 0 stands in for the union of empty sets; only sign-0 entries read it
    union = sorted(set().union(*bases)) or [0]
    rows = rows.take(union, axis=1)
    reducer = _ChainSums(bases, union)
    parity = vertex and g.coloring is not None and pairs * len(union) > _MASK_FLOOR
    (hits,) = lex_min(rows, [reducer], workers, _same_color(g.coloring) if parity else None)
    if parity:
        (odd,) = lex_min(rows, [reducer], workers, _odd_pairs(g))
        hits = [_least(*both) for both in zip(hits, odd)]
    return [(hit, None) for hit in hits]


def compute_kappa(g: Graph, workers: int = 1, phases: dict | None = None) -> KappaReport:
    """Exact kappa and kappa' with a minimizing pair and classification.

    With a ``phases`` dict the route and the classification add their
    milliseconds to ``phases["kappa"]`` and ``phases["classify"]``; both
    read the graph's cached twin classes (built by the first reader).
    """
    if g.n < 2:
        raise TrivialGraph("kappa is undefined on a single vertex")
    with timed(phases, "kappa"):
        (route,) = _worst_pairs(g, Variant.VERTEX, [range(g.n)], count=True, workers=workers)
        (kappa, pair), kappa_prime = route
    with timed(phases, "classify"):
        classification, evidence = _classify(g, kappa)
    return KappaReport(
        kappa=kappa,
        kappa_prime=kappa_prime,
        witness_pair=pair,
        classification=classification,
        evidence=evidence,
    )

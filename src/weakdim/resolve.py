"""Distance-difference primitives, kappa, and resolving-set verifiers.

For a probe vertex s and a pair x, y the basic quantity is
``delta_s(x, y) = |d(x,s) - d(y,s)|``. Summing it over a set S gives
``delta_S(x, y)``; a set is weak k-resolving when that sum is >= k for
every vertex pair. kappa(G) is the largest feasible k, which equals the
minimum over pairs of the full-set sum. kappa'(G) is the analogous limit
for the count-based (k distinct distinguishers) criterion.
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import SameVertex, TrivialGraph, VertexOutOfRange
from .graph import Graph, TwinSummary, twin_summary
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


class VerifyResult(NamedTuple):
    """Outcome of a verifier: on failure, ``witness`` is the lex-smallest
    pair among those minimizing the checked quantity (``value``)."""

    ok: bool
    witness: tuple[int, int] | None
    value: int | None


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise VertexOutOfRange(f"vertex {v} outside 0..{g.n - 1}")


def _check_set(g: Graph, S: Iterable[int]) -> list[int]:
    ids = sorted(set(S))
    for v in ids:
        _check_vertex(g, v)
    return ids


def delta_pair(g: Graph, x: int, y: int) -> PairDifferenceProfile:
    """Full distance-difference profile of the pair (x, y)."""
    _check_vertex(g, x)
    _check_vertex(g, y)
    if x == y:
        raise SameVertex(f"x and y must differ, got {x}")
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
    _check_vertex(g, x)
    _check_vertex(g, y)
    if x == y:
        raise SameVertex(f"x and y must differ, got {x}")
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
    of several head rows are reduced in one block of at most about
    ``_BATCH`` entries, and the first flat argmin is the lex-first pair."""
    best = [None] * len(reducers)
    nrows, ncols = rows.shape
    heads = np.arange(start, nrows - 1, step)
    per_batch = max(1, _BATCH // (nrows * max(1, ncols)))
    for i in range(0, len(heads), per_batch):
        batch = heads[i:i + per_batch]
        first = int(batch[0])
        others = rows[first + 1:]
        block = _abs_diff(others[None], rows[batch][:, None])
        # block[r, j] is the pair (batch[r], first + 1 + j); keep b > a only
        shape = (len(batch), len(others))
        lower = np.arange(shape[1]) < (batch - first)[:, None]
        for r, reduce in enumerate(reducers):
            vals = reduce(block.reshape(shape[0] * shape[1], ncols)).reshape(shape)
            vals[lower] = np.iinfo(vals.dtype).max
            h, j = np.unravel_index(int(vals.argmin()), shape)
            if best[r] is None or vals[h, j] < best[r][0]:
                best[r] = (int(vals[h, j]), (int(batch[h]), first + 1 + int(j)))
    return best


def _lex_min_part(rows, reducers, start, step, partners=None):
    ncols = rows.shape[1]
    if partners is None and ncols <= _MIN_SLICE:
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
    return best


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
    does not depend on the worker count.
    """
    workers = min(workers, len(rows) - 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda i: _lex_min_part(rows, reducers, i, workers, partners),
                range(workers),
            ))
    else:
        parts = [_lex_min_part(rows, reducers, 0, 1, partners)]
    return [
        min((p[r] for p in parts if p[r] is not None), default=None)
        for r in range(len(reducers))
    ]


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
    if kappa == 2:
        if twins.first_true:
            return KappaClass.TRUE_TWINS, twins.first_true
        return KappaClass.OTHER, None
    if kappa == 3:
        witness = weak3_structure_witness(g)
        if witness is not None:
            return KappaClass.STRUCTURAL_3, witness
        return KappaClass.OTHER, None
    if kappa == 4 and twins.first_false and not twins.first_true:
        return KappaClass.FALSE_TWINS, twins.first_false
    return KappaClass.OTHER, None


def _adjacent_partners(g: Graph, extra: tuple[int, int]) -> list[np.ndarray]:
    """``lex_min`` partners for the adjacent pairs and the pair ``extra``."""
    adj = g.adjacency
    partners = [adj[a][bisect_right(adj[a], a):] for a in range(g.n)]
    x, y = extra
    partners[x] = tuple(sorted(partners[x] + (y,)))
    return [np.array(p, dtype=np.intp) for p in partners]


def compute_kappa(g: Graph, workers: int = 1, twins: TwinSummary | None = None,
                  phases: dict | None = None) -> KappaReport:
    """Exact kappa and kappa' with a minimizing pair and classification.

    Twins settle most of it. The probes x and y each add d(x, y) to the
    sum of a pair, so the sum is at least 2 d(x, y), with equality exactly
    for true twins; and every pair has its two distinguishers x and y,
    with no others exactly for twins. So any twins give kappa' = 2, and
    true twins give kappa = 2 with the first true-twin pair as witness.
    With false twins alone, kappa <= 4: a pair at distance 2 sums to 4
    only as false twins and a pair at distance >= 3 sums to at least 6,
    so the scan visits only the adjacent pairs and the first false-twin
    pair. Without twins it visits every pair for both criteria.

    The scan may be partitioned across ``workers`` threads; the reduction
    is performed in chunk order, so the reported witness pair (lex-smallest
    minimizer) does not depend on the worker count. ``twins`` is
    ``twin_summary(g)`` when the caller already has it; with a ``phases``
    dict the scan and the classification add their milliseconds to
    ``phases["kappa"]`` and ``phases["classify"]``.
    """
    if g.n < 2:
        raise TrivialGraph("kappa is undefined on a single vertex")
    if twins is None:
        with timed(phases, "classify"):
            twins = twin_summary(g)
    with timed(phases, "kappa"):
        if twins.first_true:
            (kappa, pair), kappa_prime = (2, twins.first_true), 2
        elif twins.first_false:
            partners = _adjacent_partners(g, twins.first_false)
            (hit,) = lex_min(g.distance_matrix, [pair_sum], workers, partners)
            (kappa, pair), kappa_prime = hit, 2
        else:
            (kappa, pair), (kappa_prime, _) = lex_min(
                g.distance_matrix, [pair_sum, pair_count], workers
            )
    with timed(phases, "classify"):
        classification, evidence = _classify(g, kappa, twins)
    return KappaReport(
        kappa=kappa,
        kappa_prime=kappa_prime,
        witness_pair=pair,
        classification=classification,
        evidence=evidence,
    )


def _verify_vertex_pairs(g: Graph, S: Iterable[int], k: int, reducer) -> VerifyResult:
    ids = _check_set(g, S)
    (hit,) = lex_min(g.distance_matrix[:, ids], [reducer])
    if hit is None:
        return VerifyResult(True, None, None)
    value, pair = hit
    if value >= k:
        return VerifyResult(True, None, value)
    return VerifyResult(False, pair, value)


def verify_weak_k_resolving(g: Graph, S: Iterable[int], k: int) -> VerifyResult:
    """Check delta_S(x, y) >= k for every vertex pair."""
    return _verify_vertex_pairs(g, S, k, pair_sum)


def verify_k_resolving(g: Graph, S: Iterable[int], k: int) -> VerifyResult:
    """Check every pair is distinguished by >= k distinct members of S."""
    return _verify_vertex_pairs(g, S, k, pair_count)


def verify_local_k_resolving(g: Graph, S: Iterable[int], k: int) -> VerifyResult:
    """Check every edge's endpoints are distinguished by >= k members of S."""
    ids = _check_set(g, S)
    d = g.distance_matrix
    best = None
    best_edge = None
    for u, v in g.edges():
        cnt = int((d[u, ids] != d[v, ids]).sum()) if ids else 0
        if best is None or cnt < best:
            best = cnt
            best_edge = (u, v)
    if best is None or best >= k:
        return VerifyResult(True, None, best)
    return VerifyResult(False, best_edge, best)

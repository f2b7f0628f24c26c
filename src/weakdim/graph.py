"""Immutable simple connected graph with cached distances and structure.

Vertices are dense integer ids ``0..n-1``. The all-pairs shortest-path
matrix is computed once and cached on the graph; everything downstream
indexes into it. Its dtype is the narrowest signed integer holding n - 1,
an upper bound on every hop count.

A graph made by ``families.generate`` fills the matrix from its spec's
closed form (``families.spec_distances``), with no BFS. A graph read from
an edge list runs one of two BFS routes. All three give the same dtype,
contents, read-only flag and C order, and each runs only after the peak
check, which estimates the BFS route's peak in every case.

The bit-parallel BFS runs a BFS from every source at once: each vertex
holds a packed uint64 bitset of the sources whose frontier reached it,
so one level costs about (2m + n) * n / 64 word operations whatever the
degrees. The plain-list one runs a BFS per source, about n * (n + 2m)
interpreter steps. The graph picks the cheaper by an estimate from n, m
and the eccentricity of vertex 0 (the diameter lies between it and its
double), which its connectivity check already found: long paths and
cycles in the thousands stay on the list BFS, everything denser or
shallower goes bit-parallel.

Twins are grouped into classes by their closed (true twins) or open
(false twins) neighborhoods; ``twin_summary`` gives the pair counts and
the lex-first pair of each kind without listing every pair.

Everything derived from a graph lives in its one cache (``Graph._cached``),
built on first use and kept as long as the graph: the matrix, the twin
classes, a tree's thread decomposition (``trees.decompose_tree``), the
2-coloring of a bipartite graph, the edge arrays (``resolve._edge_pairs``)
and the cover model of each variant and criterion (``solver.cover_model``).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, combinations
from math import isqrt
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .errors import (
    DuplicateEdge,
    EdgeListFormatError,
    NotConnected,
    SelfLoop,
    TooLarge,
    VertexOutOfRange,
)

if TYPE_CHECKING:
    from .families import FamilySpec
    from .trees import TreeShape


# The largest estimated peak, in bytes, of the distance matrix and of the
# cover model (``solver.cover_model``).
MAX_BYTES = 1 << 30


def _check_peak(what: str, peak: int) -> None:
    """TooLarge when the estimated ``peak`` of ``what`` exceeds MAX_BYTES."""
    if peak > MAX_BYTES:
        raise TooLarge(f"{what} needs about {peak / 2**30:.1f} GiB, "
                       f"over the {MAX_BYTES >> 30} GiB limit")


def _distance_dtype(n: int) -> type[np.signedinteger]:
    """Narrowest signed integer dtype holding n - 1, the largest possible
    hop count (and difference of two hop counts) in an n-vertex graph."""
    for dtype in (np.int8, np.int16):
        if n - 1 <= np.iinfo(dtype).max:
            return dtype
    return np.int32


# Estimated costs of the two APSP routes, fitted on a 2-core x86 host
# (numpy 2.4); only their ratios matter.
_LIST_STEP_S = 3e-8  # one vertex or neighbor step of the list BFS
_LIST_LEVEL_S = 3e-7  # one level of one list BFS
_WORD_S = 1e-9  # one uint64 word of one pass of the bit-parallel BFS
_CALL_S = 1e-6  # one numpy call of the bit-parallel BFS
_UNPACK_BLOCK = 1 << 16  # matrix entries unpacked from the bit-planes at a time


def _bit_parallel_pays(n: int, m: int, ecc0: int) -> bool:
    """Whether the bit-parallel all-sources BFS is estimated to beat one
    list BFS per source, from n, m and the eccentricity of vertex 0.

    The diameter lies in [ecc0, 2 * ecc0]; the bit-parallel BFS runs one
    level per unit of it, each making about 6 passes over the n rows and
    one gather per adjacency entry, of n / 64 words each, in about
    sqrt(2m) + 8 numpy calls (at most twice that), and unpacks one
    bit-plane of n * n entries per bit of the last level. A list BFS
    visits every vertex and adjacency entry once, in about ecc0 levels.
    """
    levels = ecc0 + ecc0 // 2 + 1
    words = (n + 63) // 64
    per_level = (2 * m + 6 * n) * words * _WORD_S + (isqrt(2 * m) + 8) * _CALL_S
    bits = levels * per_level + n * n * levels.bit_length() * 3 * _WORD_S
    return bits < n * ((n + 2 * m) * _LIST_STEP_S + ecc0 * _LIST_LEVEL_S)


def _apsp_bytes(n: int, m: int, ecc0: int, itemsize: int, bit_parallel: bool) -> int:
    """Estimated peak bytes of an APSP route: the matrix and a BFS row list;
    or the matrix, one row block of an unpacked bit-plane (a reordered
    packed copy, uint8 bits and their shifted copy), the n * n / 8-byte
    bitsets (four working, one per bit of the diameter <= 2 * ecc0) and the
    neighbor index arrays (<= 2 x 2m)."""
    if not bit_parallel:
        return n * n * itemsize + n * 40
    bitset = n * ((n + 63) // 64) * 8
    block = max(_UNPACK_BLOCK, n) * (2 + itemsize)
    return (n * n * itemsize + block + bitset * (4 + (2 * ecc0).bit_length())
            + 2 * 2 * m * np.dtype(np.intp).itemsize)


def _all_sources_bfs(adjacency: tuple[tuple[int, ...], ...], dtype) -> np.ndarray:
    """Hop-count matrix by one BFS from every source at once.

    Bitset row i belongs to vertex ``order[i]`` (degrees descending) and
    bit s of it to source s. A level ORs the neighbors' frontier rows and
    masks out what was seen: the heaviest rows reduce all their neighbors
    in one call each, the others take one neighbor column per call (rows
    with more than j neighbors are a prefix of them), with the split that
    makes the fewest calls. Both read the degree-sorted adjacency ``flat``
    in place from the row starts (light column j is ``flat[starts[rows] +
    j]``), so at most two neighbor index arrays of 2m entries live at once.
    Level numbers are kept as bit-planes and unpacked at the end, about
    ``_UNPACK_BLOCK`` entries at a time.
    """
    n = len(adjacency)
    degree = np.fromiter(map(len, adjacency), dtype=np.intp, count=n)
    order = np.argsort(-degree, kind="stable")
    deg = degree[order]
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    flat = pos[np.fromiter(chain.from_iterable(adjacency[v] for v in order.tolist()),
                           dtype=np.intp, count=int(deg.sum()))]
    starts = np.cumsum(deg) - deg
    heavy = int(np.argmin(np.arange(n + 1) + np.append(deg, 0)))
    heavy_nbrs = [flat[s:s + d] for s, d in zip(starts[:heavy].tolist(), deg[:heavy].tolist())]
    # light rows: neighbor j of every light row with more than j neighbors
    light_deg = deg[heavy:]
    widths = np.searchsorted(-light_deg, -np.arange(light_deg.max(initial=0)), side="left")
    columns = [flat[starts[heavy:heavy + w] + j] for j, w in enumerate(widths.tolist())]

    words = (n + 63) // 64
    frontier = np.zeros((n, words), dtype=np.uint64)
    frontier[np.arange(n), order >> 6] = np.uint64(1) << (order & 63).astype(np.uint64)
    unseen = ~frontier
    reached = np.zeros_like(frontier)
    gathered = np.empty_like(frontier)
    planes: list[np.ndarray] = []
    level = 0
    while True:
        level += 1
        for i, nbrs in enumerate(heavy_nbrs):
            np.bitwise_or.reduce(frontier[nbrs], axis=0, out=reached[i])
        if columns:  # column 0 covers every light row
            np.take(frontier, columns[0], axis=0, out=reached[heavy:])
        for col in columns[1:]:
            part = gathered[:len(col)]
            np.take(frontier, col, axis=0, out=part)
            reached[heavy:heavy + len(col)] |= part
        reached &= unseen
        if not reached.any():
            break
        unseen ^= reached
        if level.bit_length() > len(planes):
            planes.append(np.zeros_like(frontier))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= reached
        frontier, reached = reached, frontier
    del frontier, unseen, reached, gathered

    d = np.zeros((n, n), dtype=dtype)
    step = max(1, _UNPACK_BLOCK // n)
    for lo in range(0, n, step):
        out = d[lo:lo + step]
        for b, plane in enumerate(planes):
            # rows back in vertex order; little-endian words make bit s column s
            packed = plane[pos[lo:lo + step]].astype("<u8", copy=False).view(np.uint8)
            bits = np.unpackbits(packed, axis=1, count=n, bitorder="little")
            out |= np.left_shift(bits, b, dtype=dtype)
    return d


class Graph:
    """Validated simple connected undirected graph.

    Construction rejects self-loops, duplicate edges, out-of-range
    endpoints and disconnected inputs. Neighbor lists are sorted tuples,
    so instances are safe to share across workers; the only internal
    mutation is one cache (``_cached``) of what is derived from the graph,
    each built on first use and kept as long as the graph: the distance
    matrix, the twin classes, the tree shape, the 2-coloring, the edge
    arrays (``resolve._edge_pairs``) and one cover model per variant and
    criterion (``solver.cover_model``).
    """

    __slots__ = ("n", "adjacency", "edge_count", "family", "_ecc0", "_cache")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 family: "FamilySpec | None" = None):
        if n < 1:
            raise VertexOutOfRange(f"need at least one vertex, got n={n}")
        edges = edges if isinstance(edges, (list, tuple)) else list(edges)
        # a set per vertex only when the edges can connect them all; else one
        # per vertex on some edge, so that a header's n allocates nothing
        # before the connectivity check
        neighbor_sets: list[set[int]] | defaultdict[int, set[int]] = (
            [set() for _ in range(n)] if len(edges) >= n - 1 else defaultdict(set))
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            of_u = neighbor_sets[u]
            if v in of_u:
                raise DuplicateEdge(f"edge ({u},{v}) listed twice")
            of_u.add(v)
            neighbor_sets[v].add(u)
        if n > 1 and len(neighbor_sets) < n:
            raise NotConnected("graph is not connected")
        self.n = n
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(neighbor_sets[v])) for v in range(n)
        )
        self.edge_count = len(edges)
        self.family = family
        self._cache: dict = {}
        from_0 = self._bfs(0)
        if -1 in from_0:
            raise NotConnected("graph is not connected")
        self._ecc0 = max(from_0)

    def _bfs(self, source: int) -> list[int]:
        """Hop counts from ``source``, -1 where unreachable (level by level)."""
        adjacency = self.adjacency
        dist = [-1] * self.n
        dist[source] = 0
        frontier = [source]
        level = 0
        while frontier:
            level += 1
            reached = []
            for u in frontier:
                for v in adjacency[u]:
                    if dist[v] < 0:
                        dist[v] = level
                        reached.append(v)
            frontier = reached
        return dist

    def _cached(self, key, build):
        """The structure under ``key``, made by ``build(self)`` on first use
        and kept for the graph's life; a build that raises keeps nothing."""
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]

    @property
    def distance_matrix(self) -> np.ndarray:
        """Read-only n x n matrix of hop counts, computed once and cached: from
        the family spec's closed form, else by BFS; TooLarge, before
        allocating, when the BFS route's peak would exceed MAX_BYTES."""
        return self._cached("distances", _distance_matrix)

    @property
    def twin_classes(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """(true, false) twin classes of ``_twin_classes``, built once and
        cached; on a tree read off its leaves (``_tree_twin_classes``)."""
        return self._cached("twins", _tree_twin_classes if self.is_tree else _twin_classes)

    @property
    def is_tree(self) -> bool:
        """Whether the graph is a tree: connected, so exactly when it has
        n - 1 edges; the one tree test of the package."""
        return self.edge_count == self.n - 1

    @property
    def coloring(self) -> np.ndarray | None:
        """Read-only bool side of every vertex in the 2-coloring that puts
        vertex 0 on side False (the parity of its hop count from vertex 0),
        or None when the graph is not bipartite; built once and cached."""
        return self._cached("coloring", _coloring)

    @property
    def tree_shape(self) -> "TreeShape":
        """``trees.decompose_tree`` of the graph, built once and cached, when
        ``is_tree``; NotATree (not cached: ``is_tree`` settles it at once)
        otherwise."""
        from .trees import decompose_tree

        return self._cached("tree", decompose_tree)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def __repr__(self) -> str:
        fam = f", family={self.family.label()!r}" if self.family else ""
        return f"Graph(n={self.n}, m={self.edge_count}{fam})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and build a graph from a vertex count and an edge list."""
    return Graph(n, edges)


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Shortest-path distance matrix of ``g`` (``Graph.distance_matrix``)."""
    return g.distance_matrix


def _distance_matrix(g: Graph) -> np.ndarray:
    """``Graph.distance_matrix``: the peak check, then the spec's closed
    form, the bit-parallel BFS or one list BFS per source."""
    dtype = _distance_dtype(g.n)
    bit_parallel = _bit_parallel_pays(g.n, g.edge_count, g._ecc0)
    _check_peak(f"the distance matrix of {g.n} vertices", _apsp_bytes(
        g.n, g.edge_count, g._ecc0, np.dtype(dtype).itemsize, bit_parallel))
    if g.family is not None:
        from .families import spec_distances

        d = spec_distances(g.family, dtype)
    elif bit_parallel:
        d = _all_sources_bfs(g.adjacency, dtype)
    else:
        # row by row: a list of all n rows would hold 8 bytes per entry
        d = np.empty((g.n, g.n), dtype=dtype)
        for s in range(g.n):
            d[s] = g._bfs(s)
    d.setflags(write=False)
    return d


def _coloring(g: Graph) -> np.ndarray | None:
    """``Graph.coloring``: the parity of the hop count from vertex 0, if no
    edge joins two vertices of one parity."""
    side = [level & 1 for level in g._bfs(0)]
    if any(side[v] == s for u, s in enumerate(side) for v in g.adjacency[u]):
        return None
    colors = np.array(side, dtype=bool)
    colors.setflags(write=False)
    return colors


def _twin_classes(g: Graph) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Classes of true twins (equal closed neighborhoods) and of false
    twins (equal open ones) with at least two members, each ascending;
    read through the cached ``Graph.twin_classes``.

    A pair can never be both kinds, so no pair is in both lists' classes.
    """
    closed_groups: dict[tuple[int, ...], list[int]] = {}
    open_groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        closed = tuple(sorted(g.adjacency[v] + (v,)))
        closed_groups.setdefault(closed, []).append(v)
        open_groups.setdefault(g.adjacency[v], []).append(v)
    return (
        tuple(tuple(grp) for grp in closed_groups.values() if len(grp) > 1),
        tuple(tuple(grp) for grp in open_groups.values() if len(grp) > 1),
    )


def _tree_twin_classes(g: Graph) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``_twin_classes`` of a tree, in the same order. Two tree vertices with
    one open neighborhood of two or more vertices would close a 4-cycle,
    and true twins with a third vertex next to either would close a
    triangle: the false-twin classes are the leaves grouped by their
    neighbor, and the one true-twin pair is the single edge of n = 2."""
    if g.n == 2:
        return ((0, 1),), ()
    leaves: dict[int, list[int]] = {}
    for v, nbrs in enumerate(g.adjacency):
        if len(nbrs) == 1:
            leaves.setdefault(nbrs[0], []).append(v)
    return (), tuple(tuple(grp) for grp in leaves.values() if len(grp) > 1)


def find_twins(g: Graph) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Return (true_twin_pairs, false_twin_pairs), each lex-sorted.

    A class of t twins has t(t - 1)/2 pairs; ``twin_summary`` gives their
    counts and the lex-first pairs without listing them.
    """
    true_classes, false_classes = g.twin_classes
    return (
        sorted(pair for grp in true_classes for pair in combinations(grp, 2)),
        sorted(pair for grp in false_classes for pair in combinations(grp, 2)),
    )


class TwinSummary(NamedTuple):
    """Twin pair counts and the lex-first pair of each kind (None if none)."""

    true_count: int
    false_count: int
    first_true: tuple[int, int] | None
    first_false: tuple[int, int] | None


def twin_summary(g: Graph) -> TwinSummary:
    """``find_twins`` reduced to what kappa needs, read off the classes:
    the lex-first pair of a kind is the first two members of one class."""
    kinds = g.twin_classes
    return TwinSummary(*(sum(len(grp) * (len(grp) - 1) // 2 for grp in kind) for kind in kinds),
                       *(min((grp[:2] for grp in kind), default=None) for kind in kinds))


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_edgelist(text: str) -> Graph:
    """Parse the edge-list text format: a "n m" header, then m "u v" lines.

    '#' starts a comment; blank lines are ignored.
    """
    rows = [r for r in (_strip_comment(ln) for ln in text.splitlines()) if r]
    if not rows:
        raise EdgeListFormatError("empty edge-list input")
    header = rows[0].split()
    if len(header) != 2:
        raise EdgeListFormatError(f"header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise EdgeListFormatError(f"non-integer header {rows[0]!r}") from exc
    if len(rows) - 1 != m:
        raise EdgeListFormatError(
            f"header declares {m} edges but {len(rows) - 1} lines follow"
        )
    edges = []
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"edge line must be 'u v', got {row!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise EdgeListFormatError(f"non-integer edge line {row!r}") from exc
    return Graph(n, edges)


def load_edgelist(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edgelist(fh.read())


def format_edgelist(g: Graph, header_comment: str | None = None) -> str:
    """Render ``g`` in the edge-list text format (deterministic order)."""
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append(f"{g.n} {g.edge_count}")
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_vertex_set(text: str, n: int) -> tuple[int, ...]:
    """Parse a whitespace-separated vertex-id set file; validates range."""
    found = set()
    for line in text.splitlines():
        for t in _strip_comment(line).split():
            try:
                found.add(int(t))
            except ValueError as exc:
                raise EdgeListFormatError(f"non-integer vertex id {t!r} in set file") from exc
    ids = sorted(found)
    for v in ids:
        if not 0 <= v < n:
            raise VertexOutOfRange(f"set member {v} outside 0..{n - 1}")
    return tuple(ids)

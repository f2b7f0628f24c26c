"""Immutable simple connected graph with cached all-pairs BFS distances.

Vertices are dense integer ids ``0..n-1``. The all-pairs shortest-path
matrix is computed once and cached on the graph; everything downstream
indexes into it. Its dtype is the narrowest signed integer holding n - 1,
an upper bound on every hop count.

Two BFS routes compute the same matrix. The bit-parallel one runs a BFS
from every source at once: each vertex holds a packed uint64 bitset of
the sources whose frontier reached it, so one level costs about
(2m + n) * n / 64 word operations whatever the degrees. The plain-list
one runs a BFS per source, about n * (n + 2m) interpreter steps. The
graph picks the cheaper by an estimate from n, m and the eccentricity of
vertex 0 (the diameter lies between it and its double), which its
connectivity check already found: long paths and cycles in the thousands
stay on the list BFS, everything denser or shallower goes bit-parallel.

Twins are grouped into classes by their closed (true twins) or open
(false twins) neighborhoods; ``twin_summary`` gives the pair counts and
the lex-first pair of each kind without listing every pair.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import isqrt
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .errors import (
    DuplicateEdge,
    EdgeListFormatError,
    NotConnected,
    SelfLoop,
    VertexOutOfRange,
)

if TYPE_CHECKING:
    from .families import FamilySpec


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


def _all_sources_bfs(adjacency: tuple[tuple[int, ...], ...], dtype) -> np.ndarray:
    """Hop-count matrix by one BFS from every source at once.

    Bitset row i belongs to vertex ``order[i]`` (degrees descending) and
    bit s of it to source s. A level ORs the neighbors' frontier rows and
    masks out what was seen: the heaviest rows reduce all their neighbors
    in one call each, the others take one neighbor column per call (rows
    with more than j neighbors are a prefix of them), with the split that
    makes the fewest calls. Level numbers are kept as bit-planes and
    unpacked once at the end.
    """
    n = len(adjacency)
    degree = np.fromiter(map(len, adjacency), dtype=np.intp, count=n)
    order = np.argsort(-degree, kind="stable")
    deg = degree[order]
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    flat = pos[np.fromiter(chain.from_iterable(adjacency[v] for v in order.tolist()),
                           dtype=np.intp, count=int(deg.sum()))]
    ends = np.cumsum(deg)
    heavy = int(np.argmin(np.arange(n + 1) + np.append(deg, 0)))
    split = int(ends[heavy - 1]) if heavy else 0
    heavy_nbrs = np.split(flat[:split], ends[:heavy - 1]) if heavy else []
    # light rows: neighbor j of every light row with more than j neighbors
    light, light_deg = flat[split:], deg[heavy:]
    rank = np.arange(len(light)) - np.repeat(np.cumsum(light_deg) - light_deg, light_deg)
    light = light[np.argsort(rank, kind="stable")]
    widths = np.searchsorted(-light_deg, -np.arange(light_deg.max(initial=0)), side="left")
    columns = np.split(light, np.cumsum(widths)[:-1]) if len(widths) else []

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

    d = np.zeros((n, n), dtype=dtype)
    for b, plane in enumerate(planes):
        # rows back in vertex order; little-endian words make bit s column s
        packed = plane[pos].astype("<u8", copy=False).view(np.uint8)
        bits = np.unpackbits(packed, axis=1, count=n, bitorder="little")
        d |= np.left_shift(bits, b, dtype=dtype)
    return d


class Graph:
    """Validated simple connected undirected graph.

    Construction rejects self-loops, duplicate edges, out-of-range
    endpoints and disconnected inputs. Neighbor lists are sorted tuples,
    so instances are safe to share across workers; the only internal
    mutation is the one-shot distance-matrix cache.
    """

    __slots__ = ("n", "adjacency", "edge_count", "family", "_dist", "_ecc0")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 family: "FamilySpec | None" = None):
        if n < 1:
            raise VertexOutOfRange(f"need at least one vertex, got n={n}")
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if v in neighbor_sets[u]:
                raise DuplicateEdge(f"edge ({u},{v}) listed twice")
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
            m += 1
        self.n = n
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in neighbor_sets
        )
        self.edge_count = m
        self.family = family
        self._dist: np.ndarray | None = None
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

    @property
    def distance_matrix(self) -> np.ndarray:
        """Read-only n x n matrix of hop counts, computed once and cached."""
        if self._dist is None:
            dtype = _distance_dtype(self.n)
            if _bit_parallel_pays(self.n, self.edge_count, self._ecc0):
                d = _all_sources_bfs(self.adjacency, dtype)
            else:
                # row by row: a list of all n rows would hold 8 bytes per entry
                d = np.empty((self.n, self.n), dtype=dtype)
                for s in range(self.n):
                    d[s] = self._bfs(s)
            d.setflags(write=False)
            self._dist = d
        return self._dist

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
    """Shortest-path distance matrix of ``g`` (BFS from every source)."""
    return g.distance_matrix


def _twin_classes(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """Classes of true twins (equal closed neighborhoods) and of false
    twins (equal open ones) with at least two members, each ascending.

    A pair can never be both kinds, so no pair is in both lists' classes.
    """
    closed_groups: dict[tuple[int, ...], list[int]] = {}
    open_groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        closed = tuple(sorted(g.adjacency[v] + (v,)))
        closed_groups.setdefault(closed, []).append(v)
        open_groups.setdefault(g.adjacency[v], []).append(v)
    return (
        [grp for grp in closed_groups.values() if len(grp) > 1],
        [grp for grp in open_groups.values() if len(grp) > 1],
    )


def find_twins(g: Graph) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Return (true_twin_pairs, false_twin_pairs), each lex-sorted.

    A class of t twins has t(t - 1)/2 pairs; ``twin_summary`` gives their
    counts and the lex-first pairs without listing them.
    """
    true_classes, false_classes = _twin_classes(g)
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
    true_classes, false_classes = _twin_classes(g)

    def count(classes):
        return sum(len(grp) * (len(grp) - 1) // 2 for grp in classes)

    def first(classes):
        return min(((grp[0], grp[1]) for grp in classes), default=None)

    return TwinSummary(count(true_classes), count(false_classes),
                       first(true_classes), first(false_classes))


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
    tokens = []
    for line in text.splitlines():
        tokens.extend(_strip_comment(line).split())
    try:
        ids = sorted({int(t) for t in tokens})
    except ValueError as exc:
        raise EdgeListFormatError(f"non-integer vertex id in set file") from exc
    for v in ids:
        if not 0 <= v < n:
            raise VertexOutOfRange(f"set member {v} outside 0..{n - 1}")
    return tuple(ids)

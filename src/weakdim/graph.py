"""Immutable simple connected graph with cached all-pairs BFS distances.

Vertices are dense integer ids ``0..n-1``. The all-pairs shortest-path
matrix is computed once (one BFS per source) and cached on the graph;
everything downstream indexes into it. Its dtype is the narrowest signed
integer holding n - 1, an upper bound on every hop count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

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


class Graph:
    """Validated simple connected undirected graph.

    Construction rejects self-loops, duplicate edges, out-of-range
    endpoints and disconnected inputs. Neighbor lists are sorted tuples,
    so instances are safe to share across workers; the only internal
    mutation is the one-shot distance-matrix cache.
    """

    __slots__ = ("n", "adjacency", "edge_count", "family", "_dist")

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
        if n > 1 and -1 in self._bfs(0):
            raise NotConnected("graph is not connected")

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
            # row by row: a list of all n rows would hold 8 bytes per entry
            d = np.empty((self.n, self.n), dtype=_distance_dtype(self.n))
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


def find_twins(g: Graph) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Return (true_twin_pairs, false_twin_pairs), each lex-sorted.

    True twins share closed neighborhoods, false twins share open ones;
    a pair can never be both, so the two lists are disjoint.
    """
    closed_groups: dict[tuple[int, ...], list[int]] = {}
    open_groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        closed = tuple(sorted(g.adjacency[v] + (v,)))
        closed_groups.setdefault(closed, []).append(v)
        open_groups.setdefault(g.adjacency[v], []).append(v)
    true_pairs = [
        (a, b)
        for grp in closed_groups.values()
        for i, a in enumerate(grp)
        for b in grp[i + 1:]
    ]
    false_pairs = [
        (a, b)
        for grp in open_groups.values()
        for i, a in enumerate(grp)
        for b in grp[i + 1:]
    ]
    return sorted(true_pairs), sorted(false_pairs)


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

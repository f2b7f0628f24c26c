"""Generators for the graph families with known closed-form dimensions.

Every generator uses a documented canonical vertex numbering and attaches
its :class:`FamilySpec` to the produced graph, so closed-form dispatch
never has to recognize a family from a raw edge list.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidFamilyParameters
from .graph import Graph

KINDS = ("path", "cycle", "star", "complete", "complete_bipartite", "spider", "grid")


@dataclass(frozen=True)
class FamilySpec:
    """Tagged description of one generated family instance.

    kind            parameters
    ----            ----------
    path            n >= 2 vertices in a row
    cycle           n >= 3
    star            n >= 2 total vertices: one center plus n-1 leaves
    complete        n >= 2
    complete_bipartite  parts of q, r >= 1 vertices
    spider          >= 3 pendant threads of the given lengths (ascending)
    grid            q x r with q, r >= 2
    """

    kind: str
    n: int | None = None
    q: int | None = None
    r: int | None = None
    lengths: tuple[int, ...] | None = None

    def __post_init__(self):
        k = self.kind
        if k not in KINDS:
            raise InvalidFamilyParameters(f"unknown family kind {k!r}")
        if k in ("path", "star", "complete") and (self.n is None or self.n < 2):
            raise InvalidFamilyParameters(f"{k} needs n >= 2, got {self.n}")
        if k == "cycle" and (self.n is None or self.n < 3):
            raise InvalidFamilyParameters(f"cycle needs n >= 3, got {self.n}")
        if k == "complete_bipartite":
            if self.q is None or self.r is None or self.q < 1 or self.r < 1:
                raise InvalidFamilyParameters(
                    f"complete bipartite needs q, r >= 1, got q={self.q}, r={self.r}"
                )
        if k == "grid":
            if self.q is None or self.r is None or self.q < 2 or self.r < 2:
                raise InvalidFamilyParameters(
                    f"grid needs q, r >= 2, got q={self.q}, r={self.r}"
                )
        if k == "spider":
            ls = self.lengths
            if ls is None or len(ls) < 3:
                raise InvalidFamilyParameters("spider needs at least 3 threads")
            if any(l < 1 for l in ls):
                raise InvalidFamilyParameters("spider thread lengths must be >= 1")
            if tuple(sorted(ls)) != tuple(ls):
                raise InvalidFamilyParameters(
                    "spider thread lengths must be sorted ascending"
                )

    def label(self) -> str:
        """Canonical one-line string (the CLI family grammar)."""
        if self.kind in ("path", "cycle", "star", "complete"):
            return f"{self.kind}:{self.n}"
        if self.kind == "complete_bipartite":
            return f"kqr:{self.q},{self.r}"
        if self.kind == "spider":
            return "spider:" + ",".join(str(l) for l in self.lengths)
        return f"grid:{self.q}x{self.r}"


def path(n: int) -> FamilySpec:
    return FamilySpec("path", n=n)


def cycle(n: int) -> FamilySpec:
    return FamilySpec("cycle", n=n)


def star(n: int) -> FamilySpec:
    return FamilySpec("star", n=n)


def complete(n: int) -> FamilySpec:
    return FamilySpec("complete", n=n)


def complete_bipartite(q: int, r: int) -> FamilySpec:
    return FamilySpec("complete_bipartite", q=q, r=r)


def spider(*lengths: int) -> FamilySpec:
    return FamilySpec("spider", lengths=tuple(lengths))


def grid(q: int, r: int) -> FamilySpec:
    return FamilySpec("grid", q=q, r=r)


def grid_vertex_id(spec: FamilySpec, i: int, j: int) -> int:
    """Id of grid position (i, j), both 1-based."""
    return (i - 1) * spec.r + (j - 1)


def generate(spec: FamilySpec) -> Graph:
    """Build the canonical instance of ``spec`` with the spec attached.

    Numbering: path/cycle vertices follow the walk order (cycle closes
    with edge (n-1, 0)); star center is 0; complete-bipartite part A is
    0..q-1; spider root is 0 with threads laid out consecutively in
    ascending-length order; grid position (i, j) maps to (i-1)*r + (j-1).
    """
    k = spec.kind
    if k == "path":
        edges = [(i, i + 1) for i in range(spec.n - 1)]
        return Graph(spec.n, edges, family=spec)
    if k == "cycle":
        edges = [(i, i + 1) for i in range(spec.n - 1)] + [(spec.n - 1, 0)]
        return Graph(spec.n, edges, family=spec)
    if k == "star":
        edges = [(0, i) for i in range(1, spec.n)]
        return Graph(spec.n, edges, family=spec)
    if k == "complete":
        edges = [(u, v) for u in range(spec.n) for v in range(u + 1, spec.n)]
        return Graph(spec.n, edges, family=spec)
    if k == "complete_bipartite":
        edges = [(a, spec.q + b) for a in range(spec.q) for b in range(spec.r)]
        return Graph(spec.q + spec.r, edges, family=spec)
    if k == "spider":
        edges = []
        nxt = 1
        for length in spec.lengths:
            prev = 0
            for _ in range(length):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        return Graph(nxt, edges, family=spec)
    # grid
    q, r = spec.q, spec.r
    edges = []
    for i in range(1, q + 1):
        for j in range(1, r + 1):
            here = grid_vertex_id(spec, i, j)
            if j < r:
                edges.append((here, grid_vertex_id(spec, i, j + 1)))
            if i < q:
                edges.append((here, grid_vertex_id(spec, i + 1, j)))
    return Graph(q * r, edges, family=spec)


def parse_family(text: str) -> FamilySpec:
    """Parse the family grammar: path:n | cycle:n | star:n | complete:n |
    kqr:q,r | spider:l1,l2,... | grid:qxr."""
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise InvalidFamilyParameters(f"malformed family string {text!r}")
    try:
        if kind in ("path", "cycle", "star", "complete"):
            return FamilySpec(kind, n=int(rest))
        if kind == "kqr":
            q_s, r_s = rest.split(",")
            return FamilySpec("complete_bipartite", q=int(q_s), r=int(r_s))
        if kind == "spider":
            return FamilySpec("spider", lengths=tuple(int(t) for t in rest.split(",")))
        if kind == "grid":
            q_s, r_s = rest.split("x")
            return FamilySpec("grid", q=int(q_s), r=int(r_s))
    except InvalidFamilyParameters:
        raise
    except ValueError as exc:
        raise InvalidFamilyParameters(f"malformed family string {text!r}") from exc
    raise InvalidFamilyParameters(f"unknown family kind {kind!r}")

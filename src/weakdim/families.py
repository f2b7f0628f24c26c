"""Generators for the graph families with known closed-form dimensions.

Every generator uses a documented canonical vertex numbering and attaches
its :class:`FamilySpec` to the produced graph, so closed-form dispatch
never has to recognize a family from a raw edge list. In that numbering
each family's distances are a closed form too (``spec_distances``): a
generated graph's ``distance_matrix`` is filled from it, with no BFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidFamilyParameters
from .graph import _UNPACK_BLOCK, Graph

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


def _offset_rows(values: np.ndarray) -> np.ndarray:
    """The n x n matrix whose entry (u, v) is ``values[v - u + n - 1]``, from
    the 2n - 1 values of v - u: a read-only view, nothing copied."""
    return sliding_window_view(values, (len(values) + 1) // 2)[::-1]


def spec_distances(spec: FamilySpec, dtype) -> np.ndarray:
    """The distance matrix of ``generate(spec)`` in closed form, in ``dtype``:

    path      |u - v|
    cycle     min(|u - v|, n - |u - v|)
    star      1 to the centre 0, 2 between leaves
    complete  1 off the diagonal
    kqr       1 across the parts (part A is 0..q-1), 2 within a part
    spider    |u - v| on one thread, depth u + depth v across threads
              (the root 0 is a thread of its own, at depth 0)
    grid      |i - i'| + |j - j'| for u = i * r + j

    The ids fall into runs: a spider's threads, the parts of a complete
    multipartite graph (a star is K_{1,n-1}, K_n has n parts of one
    vertex), and one run on the other families. The matrix is filled in
    row blocks of about ``_UNPACK_BLOCK`` entries within a run, as the
    bit-parallel BFS unpacks its bit-planes, so that the peak is the
    matrix plus one block. No entry exceeds n - 1, so ``dtype`` holds
    every sum written; read through ``Graph.distance_matrix``, which
    checks the peak first.
    """
    k = spec.kind
    if k == "spider":
        runs = list(accumulate((1, *spec.lengths), initial=0))
    elif k == "star":
        runs = [0, 1, spec.n]
    elif k == "complete":
        runs = list(range(spec.n + 1))
    elif k == "complete_bipartite":
        runs = [0, spec.q, spec.q + spec.r]
    elif k == "grid":
        q, r = spec.q, spec.r
        runs = [0, q * r]
        down, across = (_offset_rows(np.abs(np.arange(1 - size, size)).astype(dtype))
                        for size in (q, r))
    else:
        runs = [0, spec.n]
    n = runs[-1]
    if k in ("path", "cycle", "spider"):
        gaps = np.abs(np.arange(1 - n, n))
        if k == "cycle":
            gaps = np.minimum(gaps, n - gaps)
        rows = _offset_rows(gaps.astype(dtype))
    if k == "spider":  # on a thread from id `first`, u has depth u - (first - 1)
        origins = np.repeat([0, *(first - 1 for first in runs[1:-1])], np.diff(runs))
        depth = np.arange(n, dtype=dtype) - origins.astype(dtype)

    d = np.empty((n, n), dtype=dtype)
    step = max(1, _UNPACK_BLOCK // n)
    for s, e in zip(runs, runs[1:]):
        for lo in range(s, e, step):
            hi = min(lo + step, e)
            out = d[lo:hi]
            if k in ("path", "cycle"):
                out[:] = rows[lo:hi]
            elif k == "grid":
                i, j = np.divmod(np.arange(lo, hi), r)
                np.add(down[i][:, :, None], across[j][:, None, :], out=out.reshape(-1, q, r))
            elif k == "spider":
                np.add(depth[lo:hi, None], depth[:s], out=out[:, :s])
                out[:, s:e] = rows[lo:hi, s:e]
                np.add(depth[lo:hi, None], depth[e:], out=out[:, e:])
            else:  # complete multipartite: 1 across the parts, 2 within one
                out.fill(1)
                out[:, s:e] = 2
    if k in ("star", "complete", "complete_bipartite"):
        np.fill_diagonal(d, 0)
    return d


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

"""Generators for the graph families with known closed-form dimensions.

Every generator uses a documented canonical vertex numbering and attaches
its :class:`FamilySpec` to the produced graph, so closed-form dispatch
never has to recognize a family from a raw edge list. The numbering is
described once, as runs of consecutive ids (``_runs``), in one of three
shapes: the parts of a complete multipartite graph (star, complete, kqr),
threads (path, cycle, and a spider's root and legs) and the rows of a
grid. ``generate`` reads its edges off the runs, one rule per shape, and
``spec_distances`` reads each family's distances off the same runs as a
closed form: a generated graph's ``distance_matrix`` is filled from it,
with no BFS. ``orbit_leaders`` gives the ids of a cycle's or a grid's
vertices that are the least of their orbit under the spec's symmetries:
the kappa scan reads only the pairs whose head is such a leader.
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


def _runs(spec: FamilySpec) -> list[int]:
    """The bounds of the id runs of ``generate(spec)``, run i holding the ids
    ``runs[i]`` to ``runs[i + 1] - 1``: a spider's root, then its threads;
    the parts of a complete multipartite graph (a star is K_{1,n-1}, K_n has
    n parts of one vertex); one run on a path, a cycle and a grid."""
    k = spec.kind
    if k == "spider":
        return list(accumulate((1, *spec.lengths), initial=0))
    if k == "star":
        return [0, 1, spec.n]
    if k == "complete":
        return list(range(spec.n + 1))
    if k == "complete_bipartite":
        return [0, spec.q, spec.q + spec.r]
    return [0, spec.q * spec.r if k == "grid" else spec.n]


def generate(spec: FamilySpec) -> Graph:
    """Build the canonical instance of ``spec`` with the spec attached.

    Numbering: path/cycle vertices follow the walk order (cycle closes
    with edge (n-1, 0)); star center is 0; complete-bipartite part A is
    0..q-1; spider root is 0 with threads laid out consecutively in
    ascending-length order; grid position (i, j) maps to (i-1)*r + (j-1).

    The edges follow from the runs (``_runs``), by one rule per shape:
    every pair across two parts of a complete multipartite graph;
    consecutive ids within each thread, plus the spider's legs from the
    root and the cycle's closing edge; and (u, u + 1) within a grid row
    plus (u, u + r) down a column.
    """
    k = spec.kind
    runs = _runs(spec)
    n = runs[-1]
    if k == "grid":
        r = spec.r
        edges = [(u, u + 1) for u in range(n) if (u + 1) % r]
        edges += [(u, u + r) for u in range(n - r)]
    elif k in ("path", "cycle", "spider"):
        edges = [(u, u + 1) for s, e in zip(runs, runs[1:]) for u in range(s, e - 1)]
        if k == "spider":
            edges += [(0, first) for first in runs[1:-1]]
        elif k == "cycle":
            edges.append((n - 1, 0))
    else:  # complete multipartite: each part with every later part
        edges = [(u, v) for s, e in zip(runs, runs[1:-1]) for u in range(s, e) for v in range(e, n)]
    return Graph(n, edges, family=spec)


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

    The ids fall into the runs of ``_runs``, which ``generate`` reads
    too: a spider's root and threads, the parts of a complete multipartite
    graph, and one run on the other families. The matrix is filled in
    row blocks of about ``_UNPACK_BLOCK`` entries within a run, as the
    bit-parallel BFS unpacks its bit-planes, so that the peak is the
    matrix plus one block. No entry exceeds n - 1, so ``dtype`` holds
    every sum written; read through ``Graph.distance_matrix``, which
    checks the peak first.
    """
    k = spec.kind
    runs = _runs(spec)
    n = runs[-1]
    if k == "grid":
        q, r = spec.q, spec.r
        down, across = (_offset_rows(np.abs(np.arange(1 - size, size)).astype(dtype))
                        for size in (q, r))
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


def orbit_leaders(spec: FamilySpec) -> np.ndarray | None:
    """The ascending ids of the vertices of ``generate(spec)`` that are the
    least of their orbit under the spec's symmetries, each an automorphism
    of the graph:

    cycle  [0]: the rotations make one orbit
    grid   every (i, j) with 2i < q and 2j < r, and i <= j when q = r: the
           mirrors fold i toward the nearer of 0 and q - 1 and j toward
           the nearer of 0 and r - 1, and on a square grid the transpose
           puts the smaller coordinate first

    None on the other kinds: paths, stars and spiders are trees, and K_n
    and kqr have twins, so kappa is answered before any scan that could
    read the leaders.
    """
    if spec.kind == "cycle":
        return np.zeros(1, dtype=np.intp)
    if spec.kind == "grid":
        q, r = spec.q, spec.r
        i, j = np.divmod(np.arange(q * r), r)
        return np.flatnonzero((2 * i < q) & (2 * j < r) & ((i <= j) | (q != r)))
    return None


def _number(text: str) -> int:
    """A parameter of the family grammar: ASCII digits only, so that what
    ``int`` would also take (a sign, spaces, underscores, other scripts'
    digits) is malformed."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a number: {text!r}")
    return int(text)


def parse_family(text: str) -> FamilySpec:
    """Parse the family grammar: path:n | cycle:n | star:n | complete:n |
    kqr:q,r | spider:l1,l2,... | grid:qxr, each number ASCII digits."""
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise InvalidFamilyParameters(f"malformed family string {text!r}")
    try:
        if kind in ("path", "cycle", "star", "complete"):
            return FamilySpec(kind, n=_number(rest))
        if kind == "kqr":
            q_s, r_s = rest.split(",")
            return FamilySpec("complete_bipartite", q=_number(q_s), r=_number(r_s))
        if kind == "spider":
            return FamilySpec("spider", lengths=tuple(_number(t) for t in rest.split(",")))
        if kind == "grid":
            q_s, r_s = rest.split("x")
            return FamilySpec("grid", q=_number(q_s), r=_number(r_s))
    except ValueError as exc:
        raise InvalidFamilyParameters(f"malformed family string {text!r}") from exc
    raise InvalidFamilyParameters(f"unknown family kind {kind!r}")

"""Closed-form kappa and weak k-metric dimension values for solved families.

Covered: paths, cycles, stars, complete and complete-bipartite graphs,
trees on n >= 2 vertices (via thread decomposition), and grids. Spiders,
as specs or as graphs, are always answered through their thread
decomposition, as the one-root case of the tree formulas. An instance
outside its own formula's hypotheses takes the family covering the same
graph: C3 is K3, C4 the 2x2 grid, S2 and S3 paths, S4 the spider 1,1,1,
a one-sided complete bipartite graph a star.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormulaNotCovered, NotATree, ParameterOutOfRange, check_k
from .families import FamilySpec, complete, generate, grid, grid_vertex_id, path, spider, star
from .graph import Graph
from .trees import TreeShape, root_basis_size, spider3_basis, tree_basis


@dataclass(frozen=True)
class KappaFormula:
    value: int
    witness: str


@dataclass(frozen=True)
class GridBorderLabeling:
    """Border vertices of a q x r grid ranked 1..2q+2r-4.

    The long sides come first, row by row as (i,1), (i,r); then the two
    short sides column by column as (1,j), (q,j) for 1 < j < r. The
    basis for threshold k is the first 2*ceil(k/2) vertices.
    """

    q: int
    r: int
    order: tuple[int, ...]


def _shape_for(g: Graph) -> TreeShape:
    if g.n < 2:
        raise FormulaNotCovered("no closed form: a tree file needs n >= 2")
    try:
        return g.tree_shape
    except NotATree as exc:
        raise FormulaNotCovered("no closed form: raw graph inputs must be trees") from exc


def _tree_kappa(shape: TreeShape) -> KappaFormula:
    if shape.is_path or shape.kappa < shape.kappa_star:
        return KappaFormula(shape.kappa, "any adjacent pair")
    v = min(
        shape.roots,
        key=lambda u: 2 * (shape.threads[u][0].length + shape.threads[u][1].length),
    )
    return KappaFormula(
        shape.kappa,
        f"neighbors of root {v} on its two shortest threads",
    )


def _covering(obj: FamilySpec | Graph) -> FamilySpec | TreeShape:
    """The family that covers ``obj``, renaming until nothing changes; the
    thread decomposition where the tree constructions apply: every spider
    (a spec through the graph it generates), and for a graph, raw trees
    and instances whose covering tree family numbers the vertices
    differently (small stars, one-sided K_{q,r})."""
    graph = obj if isinstance(obj, Graph) else None
    spec = obj if graph is None else graph.family
    while spec is not None:
        kind, n = spec.kind, spec.n
        if kind == "cycle" and n == 3:
            spec = complete(3)
        elif kind == "cycle" and n == 4:
            spec = grid(2, 2)
        elif kind == "star" and n <= 3:
            spec = path(n)
        elif kind == "star" and n == 4:
            spec = spider(1, 1, 1)
        elif kind == "complete_bipartite" and min(spec.q, spec.r) == 1:
            spec = star(spec.q + spec.r)
        else:
            break
    if spec is not None and spec.kind == "spider":
        return (graph or generate(spec)).tree_shape
    if graph is not None and (spec is None or (
        spec != graph.family and spec.kind in ("path", "star")
    )):
        return _shape_for(graph)
    return spec


def kappa_formula(obj: FamilySpec | Graph) -> KappaFormula:
    """Largest feasible threshold of a family instance or a tree."""
    spec = _covering(obj)
    if isinstance(spec, TreeShape):
        return _tree_kappa(spec)
    kind = spec.kind
    if kind == "path":
        return KappaFormula(spec.n, "any adjacent pair")
    if kind == "cycle":
        if spec.n % 2 == 1:
            return KappaFormula(spec.n - 1, "adjacent pair (zero probe at the antipode)")
        return KappaFormula(spec.n, "any adjacent pair")
    if kind == "complete":
        return KappaFormula(2, "any pair (true twins)")
    if kind == "star":
        return KappaFormula(4, "two leaves (false twins)")
    if kind == "complete_bipartite":
        return KappaFormula(4, "two vertices of one part (false twins)")
    # grid
    return KappaFormula(
        2 * spec.q + 2 * spec.r - 4,
        "the two neighbors of a corner",
    )


def wdim_formula(obj: FamilySpec | Graph, k: int) -> int:
    """Exact weak k-metric dimension by closed form."""
    check_k(k)  # before the decomposition, which may not cover the input
    spec = _covering(obj)
    if isinstance(spec, TreeShape):
        check_k(k, spec.kappa)
        return _tree_wdim(spec, k)
    check_k(k, kappa_formula(spec).value)
    kind = spec.kind
    if kind == "path":
        return k
    if kind == "cycle":
        return 2 if k == 1 else k + spec.n % 2  # one more on odd cycles
    if kind == "complete":
        return spec.n - 1 if k == 1 else spec.n
    if kind == "star":
        return spec.n - 2 if k <= 2 else spec.n - 1
    if kind == "complete_bipartite":
        return spec.q + spec.r - 2 if k <= 2 else spec.q + spec.r
    # grid
    return k if k % 2 == 0 else k + 1


def _tree_wdim(shape: TreeShape, k: int) -> int:
    if shape.is_path:
        return k
    if shape.is_spider3:
        return 2 if k == 1 else k
    return sum(
        root_basis_size(len(shape.threads[v]), shape.threads[v][0].length, k)
        for v in shape.roots
    )


def grid_border_labeling(q: int, r: int) -> GridBorderLabeling:
    if q < 2 or r < 2:
        raise ParameterOutOfRange(f"grid needs q, r >= 2, got {q}x{r}")
    positions = []
    for i in range(1, q + 1):
        positions.append((i, 1))
        positions.append((i, r))
    for j in range(2, r):
        positions.append((1, j))
        positions.append((q, j))
    spec = grid(q, r)
    return GridBorderLabeling(q, r, tuple(grid_vertex_id(spec, i, j) for i, j in positions))


def grid_basis(q: int, r: int, k: int) -> tuple[int, ...]:
    """Weak k-metric basis of the q x r grid: the 2*ceil(k/2) border
    vertices of smallest rank."""
    labeling = grid_border_labeling(q, r)
    check_k(k, 2 * q + 2 * r - 4)
    take = 2 * (-(-k // 2))
    return tuple(sorted(labeling.order[:take]))


def formula_basis(g: Graph, k: int) -> tuple[int, ...]:
    """A constructive basis of the size ``wdim_formula`` gives, sorted
    ascending like the engines' bases: the tree constructions on the
    graph's own labels, or the covering family's (whose bases for K3 and
    the 2x2 grid hold in C3's and C4's numbering). Used by the formula
    engine; callers re-verify before reporting. Raises
    ``FormulaNotCovered`` for raw graphs that are not trees on n >= 2."""
    check_k(k)
    spec = _covering(g)
    if isinstance(spec, TreeShape):
        if spec.is_spider3:
            return spider3_basis(g, k)
        if spec.is_path:
            check_k(k, spec.kappa)
            return tuple(sorted(spec.order[:k]))
        return tree_basis(g, k)
    check_k(k, kappa_formula(spec).value)
    kind = spec.kind
    if kind == "path":
        return tuple(range(k))
    if kind == "cycle":
        return tuple(range(2 if k == 1 else k + spec.n % 2))
    if kind == "complete":
        return tuple(range(spec.n - 1)) if k == 1 else tuple(range(spec.n))
    if kind == "star":
        return tuple(range(1, spec.n - 1)) if k <= 2 else tuple(range(1, spec.n))
    if kind == "complete_bipartite":
        q, r = spec.q, spec.r
        if k <= 2:
            return tuple(range(q - 1)) + tuple(range(q, q + r - 1))
        return tuple(range(q + r))
    # grid
    return grid_basis(spec.q, spec.r, k)

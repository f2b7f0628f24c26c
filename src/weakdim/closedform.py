"""Closed-form kappa and weak k-metric dimension values for solved families.

Every tree on n >= 2 vertices -- a path, star or spider instance, a
one-sided complete bipartite graph, or a tree file -- is answered
through its thread decomposition (a spec through the graph it
generates), so one tree has one answer however it was given. The
other closed forms cover cycles, complete graphs, complete bipartite
graphs with both parts >= 2, and grids; C3 takes K3's form and C4 the
2x2 grid's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormulaNotCovered, ParameterOutOfRange, check_k
from .families import FamilySpec, complete, generate, grid, grid_vertex_id
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
    if not g.is_tree:
        raise FormulaNotCovered("no closed form: raw graph inputs must be trees")
    return g.tree_shape


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
    """The cached thread decomposition of a tree (a spec through the graph
    it generates); else the family whose closed form holds: C3 takes K3's,
    C4 the 2x2 grid's, any other instance its own."""
    graph = obj if isinstance(obj, Graph) else None
    spec = obj if graph is None else graph.family
    # a one-sided complete bipartite graph is a star; no other kind has a
    # part or side of 1
    if spec is None or spec.kind in ("path", "star", "spider") or 1 in (spec.q, spec.r):
        return _shape_for(graph or generate(spec))
    if spec.kind == "cycle" and spec.n <= 4:
        return complete(3) if spec.n == 3 else grid(2, 2)
    return spec


def kappa_formula(obj: FamilySpec | Graph) -> KappaFormula:
    """Largest feasible threshold of a family instance or a tree."""
    spec = _covering(obj)
    if isinstance(spec, TreeShape):
        return _tree_kappa(spec)
    kind = spec.kind
    if kind == "cycle":
        if spec.n % 2 == 1:
            return KappaFormula(spec.n - 1, "adjacent pair (zero probe at the antipode)")
        return KappaFormula(spec.n, "any adjacent pair")
    if kind == "complete":
        return KappaFormula(2, "any pair (true twins)")
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
    if kind == "cycle":
        return 2 if k == 1 else k + spec.n % 2  # one more on odd cycles
    if kind == "complete":
        return spec.n - 1 if k == 1 else spec.n
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
    graph's own labels, or the family's (K3's and the 2x2 grid's bases
    hold in C3's and C4's numbering). Used by the formula
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
    if kind == "cycle":
        return tuple(range(2 if k == 1 else k + spec.n % 2))
    if kind == "complete":
        return tuple(range(spec.n - 1)) if k == 1 else tuple(range(spec.n))
    if kind == "complete_bipartite":
        q, r = spec.q, spec.r
        if k <= 2:
            return tuple(range(q - 1)) + tuple(range(q, q + r - 1))
        return tuple(range(q + r))
    # grid
    return grid_basis(spec.q, spec.r, k)

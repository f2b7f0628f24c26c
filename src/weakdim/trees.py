"""Tree structure analysis: threads, root vertices, and constructive bases.

A thread is a pendant path hanging at a vertex of degree >= 3: its
interior vertices have degree 2 and its tip is a leaf. Vertices with at
least two threads are root vertices. The quantity
``kappa_star = min over roots of 2*(l1 + l2)`` (two shortest thread
lengths) controls the largest feasible threshold on a tree, which
``TreeShape.kappa`` gives: n on a path, else min(n, kappa_star).
``TreeShape.witness`` and ``TreeShape.kappa_prime`` give the lex-first
pair attaining it and the count limit kappa', for ``resolve``'s tree
route, which reads no distance matrix.

A graph's decomposition is built once, on first use, and cached as
``Graph.tree_shape``. ``TreeShape.order`` lists the vertices in the order
whose prefixes the formula bases take: a path end to end from its
smaller-id leaf; a three-thread spider round robin by depth over its
threads (shortest first), root last; None for every other tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import NotATree, WrongTreeClass, check_k
from .graph import Graph
from .resolve import _check_pair, _check_set


@dataclass(frozen=True)
class Thread:
    """Pendant path at a root: vertices ordered from the root outward."""

    root: int
    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def tip(self) -> int:
        return self.vertices[-1]


@dataclass(frozen=True, eq=False)
class TreeShape:
    """Decomposition of a tree into roots and their hanging threads.

    ``threads[v]`` is sorted by (length, tip id), so threads[v][0] is a
    shortest thread at v. ``kappa_star`` is None exactly for paths.
    Spiders, generated or read from a file, are the one-root case.
    ``order`` is described in the module docstring.
    """

    n: int
    roots: tuple[int, ...]
    threads: dict[int, tuple[Thread, ...]]
    kappa_star: int | None
    is_path: bool
    is_spider3: bool
    order: tuple[int, ...] | None

    def thread_lengths(self, root: int) -> tuple[int, ...]:
        return tuple(t.length for t in self.threads[root])

    @property
    def kappa(self) -> int:
        """Largest feasible threshold: n on a path, else min(n, kappa_star)."""
        return self.n if self.is_path else min(self.n, self.kappa_star)

    @property
    def kappa_prime(self) -> int:
        """Fewest distinguishers of a vertex pair (n >= 2): kappa_star / 2
        off paths, n - 1 on paths with n >= 3, and 2 on a single edge."""
        return max(2, self.n - 1) if self.is_path else self.kappa_star // 2

    def witness(self, first_edge: tuple[int, int]) -> tuple[int, int]:
        """The lex-first vertex pair whose full-set sum is ``kappa``, given
        ``first_edge``, the lex-first adjacent pair (which sums to n).

        The candidates are ``first_edge`` when kappa = n and, when
        kappa_star = kappa, the first vertices of two threads at one root
        whose lengths sum to kappa / 2: with l1 < l2 the shortest thread and
        the smallest first vertex of a thread of length l2; with l1 = l2 the
        two smallest first vertices of threads of length l1.
        """
        found = [first_edge] if self.kappa == self.n else []
        for v in self.roots if self.kappa_star == self.kappa else ():
            threads = self.threads[v]
            l1, l2 = threads[0].length, threads[1].length
            if 2 * (l1 + l2) != self.kappa:
                continue
            heads = sorted(t.vertices[0] for t in threads if t.length == l2)
            pair = (threads[0].vertices[0], heads[0]) if l1 < l2 else heads[:2]
            found.append(tuple(sorted(pair)))
        return min(found)


def _walk(g: Graph, deg: list[int], prev: int, cur: int) -> list[int]:
    """The vertices from ``cur``, leading away from ``prev``, up to and
    including the first whose degree is not 2."""
    seq = [cur]
    while deg[cur] == 2:
        prev, cur = cur, next(w for w in g.adjacency[cur] if w != prev)
        seq.append(cur)
    return seq


def decompose_tree(g: Graph) -> TreeShape:
    """Find all root vertices of a tree, their threads and the basis
    order; callers read the cached ``Graph.tree_shape``."""
    if not g.is_tree:
        raise NotATree(f"m={g.edge_count} but a tree on n={g.n} needs n-1 edges")
    deg = [g.degree(v) for v in range(g.n)]
    threads: dict[int, tuple[Thread, ...]] = {}
    for v in range(g.n):
        if deg[v] < 3:
            continue
        walks = (_walk(g, deg, v, start) for start in g.adjacency[v])
        found = sorted((Thread(v, tuple(seq)) for seq in walks if deg[seq[-1]] == 1),
                       key=lambda t: (t.length, t.tip))
        if len(found) >= 2:
            threads[v] = tuple(found)
    roots = tuple(sorted(threads))
    kappa_star = min((2 * (threads[v][0].length + threads[v][1].length) for v in roots),
                     default=None)
    is_path = all(d <= 2 for d in deg)
    is_spider3 = len(roots) == 1 and not is_path and len(threads[roots[0]]) == 3
    order = None
    if is_path:  # from the smaller-id leaf (a lone vertex has no neighbor to walk to)
        start = min(v for v in range(g.n) if deg[v] <= 1)
        order = (start, *(u for w in g.adjacency[start] for u in _walk(g, deg, start, w)))
    elif is_spider3:
        spokes = threads[roots[0]]
        order = (*(t.vertices[depth] for depth in range(spokes[-1].length)
                   for t in spokes if depth < t.length), roots[0])
    return TreeShape(g.n, roots, threads, kappa_star, is_path, is_spider3, order)


def root_basis_size(ell: int, l1: int, k: int) -> int:
    """Number of basis vertices contributed by a root with ``ell`` threads
    whose shortest has length ``l1``."""
    quarter = -(-k // 4)
    if quarter <= l1:
        if k % 4 in (1, 2):
            return quarter * ell - 1
        return quarter * ell
    half = -(-k // 2)
    return l1 + (ell - 1) * (half - l1)


def _root_slice(threads: tuple[Thread, ...], k: int) -> list[int]:
    """Basis vertices taken from one root's threads.

    Thread depth counts are balanced so every pair of threads at the
    root keeps at least ceil(k/2) selected vertices: ceil(k/4) per
    thread when the shortest thread is deep enough (dropping one vertex
    of the shortest thread when 2*ceil(k/4) overshoots), otherwise the
    whole shortest thread plus ceil(k/2) - l1 from each other thread.
    """
    l1 = threads[0].length
    quarter = -(-k // 4)
    picked: list[int] = []
    if quarter <= l1:
        for t in threads:
            picked.extend(t.vertices[:quarter])
        if k % 4 in (1, 2):
            picked.remove(threads[0].vertices[quarter - 1])
    else:
        half = -(-k // 2)
        picked.extend(threads[0].vertices)
        for t in threads[1:]:
            picked.extend(t.vertices[: half - l1])
    return picked


def tree_basis(g: Graph, k: int) -> tuple[int, ...]:
    """Constructive weak k-metric basis of a tree that is neither a path
    nor a three-thread spider: the union of per-root slices."""
    shape = g.tree_shape
    if shape.is_path or shape.is_spider3:
        raise WrongTreeClass("construction needs a tree with >= 4 thread-pairs structure")
    check_k(k, shape.kappa)
    picked: list[int] = []
    for v in shape.roots:
        picked.extend(_root_slice(shape.threads[v], k))
    return tuple(sorted(picked))


def spider3_basis(g: Graph, k: int) -> tuple[int, ...]:
    """Basis of a three-thread spider for k <= kappa: at k = 1 the tips
    of the two shortest threads (a metric basis), else the first k
    vertices of ``TreeShape.order`` (round robin over the threads, root
    last)."""
    shape = g.tree_shape
    if not shape.is_spider3:
        raise WrongTreeClass("graph is not a spider with exactly three threads")
    check_k(k, shape.kappa)
    if k == 1:
        threads = shape.threads[shape.roots[0]]
        return tuple(sorted((threads[0].tip, threads[1].tip)))
    return tuple(sorted(shape.order[:k]))


def _tree_path(g: Graph, x: int, y: int) -> list[int]:
    parent = {x: None}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        if u == y:
            break
        for w in g.adjacency[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    path = [y]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def delta_tree_pair(g: Graph, x: int, y: int, S) -> int:
    """delta_S(x, y) on a tree via path-component decomposition.

    Removing the edges of the x-y path splits the tree into components
    T_0..T_d anchored at the path vertices; a probe in T_i contributes
    |d - 2i|. Works directly on the adjacency, independent of the
    distance matrix, so it serves as a second method for cross-checks.
    The pair and ``S`` are checked as ``delta_over_set`` checks them.
    """
    if not g.is_tree:
        raise NotATree(f"m={g.edge_count} but a tree on n={g.n} needs n-1 edges")
    _check_pair(g, x, y)
    members = set(_check_set(g, S))
    path = _tree_path(g, x, y)
    d = len(path) - 1
    on_path = {v: i for i, v in enumerate(path)}
    total = 0
    for i, anchor in enumerate(path):
        weight = abs(d - 2 * i)
        if weight == 0:
            continue
        count = 1 if anchor in members else 0
        stack = [anchor]
        seen = {anchor}
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if w in seen:
                    continue
                if u == anchor and w in on_path and abs(on_path[w] - i) == 1:
                    continue  # a path edge, not part of T_i
                seen.add(w)
                stack.append(w)
                if w in members:
                    count += 1
        total += weight * count
    return total

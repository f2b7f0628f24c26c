"""Shared corpus builders and independent mini-oracles.

The oracles here recompute distances and difference sums with plain
Python (no numpy, no library code paths) so cross-checks stay
independent of the implementation they test.
"""

import heapq
import random
from collections import deque
from itertools import combinations

from weakdim import (
    Graph,
    NotConnected,
    build_graph,
    complete,
    complete_bipartite,
    cycle,
    generate,
    grid,
    path,
    star,
)

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]

# Triangle 0-1-2 with pendants 3 at 0 and 4 at 1: the smallest graph whose
# adjacent pair (0, 2) is separated only by {0, 2, 3}.
BULL_EDGES = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]


def petersen() -> Graph:
    return build_graph(10, PETERSEN_EDGES)


def bull() -> Graph:
    return build_graph(5, BULL_EDGES)


def plain_distances(g: Graph) -> list[list[int]]:
    """BFS all-pairs distances without numpy or the cached matrix."""
    out = []
    for src in range(g.n):
        dist = [-1] * g.n
        dist[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            for v in g.adjacency[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    q.append(v)
        out.append(dist)
    return out


def plain_item_rows(g: Graph, variant: str):
    """Items of the variant ("vertex", "edge" or "mixed") and their distance
    rows, with d(u, vw) = min(d(u, v), d(u, w)); edges are (v, w), v < w,
    in lex order, after the vertices for the mixed variant."""
    d = plain_distances(g)
    vertices = list(range(g.n)) if variant != "edge" else []
    edges = [] if variant == "vertex" else [
        (v, w) for v in range(g.n) for w in sorted(g.adjacency[v]) if v < w
    ]
    rows = [d[v] for v in vertices]
    rows += [[min(a, b) for a, b in zip(d[v], d[w])] for v, w in edges]
    return vertices + edges, rows


def plain_brute(g: Graph, variant: str, k: int, criterion: str = "sum"):
    """Brute force one subset at a time: (value, basis, certificate,
    subsets checked), or (0, (), None, None) without item pairs.

    Subsets run in increasing size from the size bound max_p ceil(k /
    max_s profile[p, s]), then in lex order; the first that reaches k on
    every item pair is the basis. The certificate is the lex-first pair
    of least sum over it, as (a, b, sum). The profile of a pair is its
    per-vertex distance differences ("sum") or their 0/1 support
    ("count")."""
    items, rows = plain_item_rows(g, variant)
    pairs = [
        [abs(x - y) if criterion == "sum" else int(x != y) for x, y in zip(ra, rb)]
        for ra, rb in combinations(rows, 2)
    ]
    if not pairs:
        return 0, (), None, None
    checked = 0
    for size in range(max(-(-k // max(p)) for p in pairs), g.n + 1):
        for S in combinations(range(g.n), size):
            checked += 1
            if all(sum(p[s] for s in S) >= k for p in pairs):
                sums = [sum(p[s] for s in S) for p in pairs]
                a, b = list(combinations(items, 2))[sums.index(min(sums))]
                return size, S, (a, b, min(sums)), checked
    raise AssertionError(f"k={k} is above the criterion's limit")


def plain_delta_set(d: list[list[int]], x: int, y: int, S) -> int:
    return sum(abs(d[x][s] - d[y][s]) for s in S)


def plain_distinguisher_count(d: list[list[int]], x: int, y: int, S) -> int:
    return sum(1 for s in S if d[x][s] != d[y][s])


def tree_from_prufer(seq, n: int) -> Graph:
    """Decode a Prufer sequence of length n-2 into a labeled tree."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return build_graph(n, edges)


def random_tree_graph(rng: random.Random, n: int) -> Graph:
    """Uniform random labeled tree."""
    if n <= 2:
        return build_graph(n, [(0, 1)] if n == 2 else [])
    return tree_from_prufer([rng.randrange(n) for _ in range(n - 2)], n)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random tree plus independently sampled extra edges."""
    tree = random_tree_graph(rng, n)
    edges = set(tree.edges())
    p = rng.uniform(0.05, 0.45)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


def random_tree_corpus(count: int = 20, max_n: int = 14, seed: int = 20331):
    rng = random.Random(seed)
    return [random_tree_graph(rng, rng.randint(4, max_n)) for _ in range(count)]


def random_graph_corpus(count: int = 30, max_n: int = 10, seed: int = 77411):
    rng = random.Random(seed)
    return [random_connected_graph(rng, rng.randint(3, max_n)) for _ in range(count)]


def family_corpus(max_n: int | None = None):
    """The family instances exercised by the acceptance criteria."""
    specs = []
    specs += [complete(n) for n in range(2, 9)]
    specs += [star(n) for n in range(4, 11)]
    specs += [complete_bipartite(q, r) for q in range(2, 6) for r in range(2, 6)]
    specs += [path(n) for n in range(2, 13)]
    specs += [cycle(n) for n in range(3, 13)]
    specs += [grid(q, r) for q in range(2, 6) for r in range(2, 6)]
    graphs = [generate(s) for s in specs]
    if max_n is not None:
        graphs = [g for g in graphs if g.n <= max_n]
    return graphs


def all_connected_graphs(n: int):
    """Every connected labeled graph on n vertices (use n <= 6)."""
    slots = list(combinations(range(n), 2))
    for mask in range(2 ** len(slots)):
        edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        if len(edges) < n - 1:
            continue
        try:
            yield build_graph(n, edges)
        except NotConnected:
            continue


def bipartition_classes(g: Graph) -> tuple[set[int], set[int]]:
    """Two-color a bipartite graph by BFS parity from vertex 0."""
    d = plain_distances(g)[0]
    return (
        {v for v in range(g.n) if d[v] % 2 == 0},
        {v for v in range(g.n) if d[v] % 2 == 1},
    )

"""Seeded input generators: random sparse connected graphs, Pruefer trees
and vertex-set files, all written in weakdim's edge-list text format.

Every generator takes its own ``random.Random``; callers derive one per
instance from the run seed and an instance tag (``rng_for``), so adding an
instance to a workload never changes the others.
"""

from __future__ import annotations

import heapq
import random


def rng_for(seed: int, tag: str) -> random.Random:
    """Independent, reproducible stream for one instance of one run."""
    return random.Random(f"{seed}/{tag}")


def prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree on ``n >= 2`` vertices (Pruefer decoding)."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((a, b))
    return sorted(edges)


def sparse_graph(n: int, extra: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected graph: a random Pruefer tree plus ``extra`` distinct random
    chords, so it has exactly ``n - 1 + extra`` edges."""
    edges = set(prufer_tree(n, rng))
    target = n - 1 + extra
    if target > n * (n - 1) // 2:
        raise ValueError(f"{extra} extra edges do not fit on {n} vertices")
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def write_edgelist(path: str, n: int, edges: list[tuple[int, int]]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(edges)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)
    return path


def write_set(path: str, members) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(str(v) for v in sorted(members)) + "\n")
    return path

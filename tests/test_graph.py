"""Graph construction, distances, twins, generators, and text formats."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    family_corpus,
    plain_delta_set,
    plain_distances,
    random_connected_graph,
)

from weakdim import (
    DuplicateEdge,
    EdgeListFormatError,
    NotConnected,
    SelfLoop,
    VertexOutOfRange,
    all_pairs_distances,
    build_graph,
    complete,
    complete_bipartite,
    cycle,
    delta_over_set,
    delta_pair,
    find_twins,
    format_edgelist,
    generate,
    grid,
    parse_edgelist,
    parse_family,
    parse_vertex_set,
    path,
    spider,
    star,
    twin_summary,
)
from weakdim import graph


class TestBuildGraph:
    def test_smallest_connected_graph(self):
        g = build_graph(2, [(0, 1)])
        assert g.n == 2 and g.edge_count == 1

    def test_four_cycle(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.edge_count == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnected):
            build_graph(4, [(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_graph(3, [(0, 1), (1, 1), (1, 2)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(0, 1), (1, 2), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRange):
            build_graph(3, [(0, 3)])

    def test_adjacency_sorted_and_symmetric(self):
        g = build_graph(4, [(2, 0), (3, 1), (1, 0), (3, 2)])
        for u in range(4):
            assert list(g.adjacency[u]) == sorted(g.adjacency[u])
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]
        assert sum(g.degree(v) for v in range(4)) == 2 * g.edge_count


class TestDistances:
    def test_path_distance_is_index_gap(self):
        g = generate(path(4))
        assert int(all_pairs_distances(g)[0, 3]) == 3

    def test_cycle_distance_wraps(self):
        d = all_pairs_distances(generate(cycle(5)))
        assert int(d[0, 2]) == 2 and int(d[0, 3]) == 2

    def test_grid_corner_to_corner(self):
        g = generate(grid(3, 3))
        assert int(all_pairs_distances(g)[0, 8]) == 4

    def test_matrix_invariants(self):
        for g in family_corpus(max_n=12):
            d = all_pairs_distances(g)
            assert (np.diag(d) == 0).all()
            assert (d == d.T).all()
            assert (d >= 0).all()
            for u, v in g.edges():
                assert d[u, v] == 1
            # edges are exactly the distance-1 pairs
            assert int((d == 1).sum()) == 2 * g.edge_count

    def test_matches_plain_bfs_on_random_samples(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 100:
            g = random_connected_graph(rng, rng.randint(2, 12))
            plain = plain_distances(g)
            d = all_pairs_distances(g)
            for _ in range(min(10, g.n)):
                x = rng.randrange(g.n)
                y = rng.randrange(g.n)
                assert int(d[x, y]) == plain[x][y]
                checked += 1


class TestDistanceDtype:
    @pytest.mark.parametrize("n", [127, 128, 129, 300])
    @pytest.mark.parametrize("family", [path, cycle])
    def test_narrow_matrix_matches_plain_bfs(self, family, n):
        g = generate(family(n))
        d = all_pairs_distances(g)
        assert np.array_equal(d, np.array(plain_distances(g)))
        assert d.dtype == (np.int8 if n <= 128 else np.int16)
        assert np.iinfo(d.dtype).max >= n - 1 >= int(d.max())
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0, 1] = 0

    @pytest.mark.parametrize("n", [127, 128, 129, 300])
    @pytest.mark.parametrize("family", [path, cycle])
    def test_differences_are_python_ints(self, family, n):
        g = generate(family(n))
        plain = plain_distances(g)
        for x, y in [(0, n - 1), (1, n // 2)]:
            per = tuple(abs(a - b) for a, b in zip(plain[x], plain[y]))
            prof = delta_pair(g, x, y)
            assert prof.per_vertex == per and prof.total == sum(per)
            assert prof.support_size == sum(1 for v in per if v)
            S = range(0, n, 3)
            total = delta_over_set(g, x, y, S)
            assert total == plain_delta_set(plain, x, y, S)
            values = [*prof.per_vertex, prof.total, prof.support_size, total]
            assert all(type(v) is int for v in values)


@st.composite
def connected_graphs(draw, max_n=80):
    """A random spanning tree (vertex v hangs off some u < v) plus extra edges."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 2:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for u, v in draw(st.lists(pair, max_size=3 * n)):
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


def _both_routes(g):
    """The cached matrix and the bit-parallel route run directly, whichever
    route the cost estimate picked for the cache."""
    return g.distance_matrix, graph._all_sources_bfs(g.adjacency, graph._distance_dtype(g.n))


def _single_vertex_or(family, n):
    return build_graph(1, []) if n == 1 else generate(family(n))


class TestAllSourcesBfs:
    @settings(max_examples=150, deadline=None)
    @given(connected_graphs())
    def test_matches_plain_bfs_on_random_graphs(self, g):
        plain = np.array(plain_distances(g))
        for d in _both_routes(g):
            assert d.dtype == graph._distance_dtype(g.n)
            assert np.array_equal(d, plain)

    # word boundaries of the packed bitsets at 64 and 128, and the int8/int16
    # switch at 128/129
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("family", [
        star, complete, lambda n: complete_bipartite(max(1, n // 2), n - max(1, n // 2)),
    ], ids=["star", "complete", "kqr"])
    def test_word_boundaries(self, family, n):
        g = _single_vertex_or(family, n)
        plain = np.array(plain_distances(g))
        for d in _both_routes(g):
            assert d.dtype == graph._distance_dtype(n)
            assert np.array_equal(d, plain)
        if n >= 63:  # shallow and dense enough for the bit-parallel route
            assert graph._bit_parallel_pays(g.n, g.edge_count, g._ecc0)

    def test_long_path_keeps_the_list_bfs(self, monkeypatch):
        g = generate(path(1600))
        assert not graph._bit_parallel_pays(g.n, g.edge_count, g._ecc0)

        def refuse(*args):
            raise AssertionError("the bit-parallel route ran")

        monkeypatch.setattr(graph, "_all_sources_bfs", refuse)
        assert np.array_equal(g.distance_matrix, np.array(plain_distances(g)))

    def test_route_choice(self):
        # deep and sparse: the list BFS; shallow or dense: bit-parallel
        for spec, bits in [("path:3000", False), ("path:2", False),
                           ("path:600", True), ("grid:40x40", True), ("star:3000", True),
                           ("complete:1500", True), ("kqr:800,800", True)]:
            kind, _, size = spec.partition(":")
            n, m, ecc0 = {
                "path": lambda n: (n, n - 1, n - 1),
                "cycle": lambda n: (n, n, n // 2),
                "grid": lambda q, r: (q * r, q * (r - 1) + r * (q - 1), q + r - 2),
                "star": lambda n: (n, n - 1, 1),
                "complete": lambda n: (n, n * (n - 1) // 2, 1),
                "kqr": lambda q, r: (q + r, q * r, 2),
            }[kind](*map(int, size.replace("x", ",").split(",")))
            assert graph._bit_parallel_pays(n, m, ecc0) == bits, spec


class TestGenerators:
    def test_cycle_is_2_regular(self):
        g = generate(cycle(5))
        assert g.n == 5 and g.edge_count == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_grid_2x2_is_a_4_cycle(self):
        g = generate(grid(2, 2))
        assert g.n == 4 and g.edge_count == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_minimal_spider_is_a_star(self):
        sp = generate(spider(1, 1, 1))
        st = generate(star(4))
        assert sp.n == st.n and sp.edges() == st.edges()

    def test_vertex_and_edge_counts(self):
        assert generate(grid(4, 5)).edge_count == 4 * (5 - 1) + 5 * (4 - 1)
        assert generate(complete(7)).edge_count == 21
        assert generate(complete_bipartite(3, 4)).edge_count == 12
        sp = generate(spider(2, 3, 5))
        assert sp.n == 11 and sp.edge_count == 10
        assert generate(star(9)).degree(0) == 8

    def test_spider_layout_is_consecutive(self):
        sp = generate(spider(1, 2, 3))
        # threads: [1], [2, 3], [4, 5, 6]
        assert sp.adjacency[0] == (1, 2, 4)
        assert sp.has_edge(2, 3) and sp.has_edge(4, 5) and sp.has_edge(5, 6)

    def test_grid_numbering_row_major(self):
        g = generate(grid(3, 4))
        assert g.has_edge(0, 1) and g.has_edge(0, 4)
        assert not g.has_edge(3, 4)  # row boundary

    def test_family_grammar_round_trip(self):
        for text in ["path:7", "cycle:9", "star:5", "complete:4",
                     "kqr:2,3", "spider:1,2,5", "grid:6x4"]:
            assert parse_family(text).label() == text


class TestTwins:
    def test_triangle_all_true_twins(self):
        true_pairs, false_pairs = find_twins(generate(complete(3)))
        assert true_pairs == [(0, 1), (0, 2), (1, 2)]
        assert false_pairs == []

    def test_star_leaves_are_false_twins(self):
        true_pairs, false_pairs = find_twins(generate(star(5)))
        assert true_pairs == []
        assert len(false_pairs) == 6
        assert all(0 not in pair for pair in false_pairs)

    def test_path_has_no_twins(self):
        assert find_twins(generate(path(4))) == ([], [])

    def test_summary_matches_the_pair_lists(self):
        corpus = family_corpus(max_n=12) + [random_connected_graph(random.Random(s), 9)
                                            for s in range(40)]
        for g in corpus:
            true_pairs, false_pairs = find_twins(g)
            assert twin_summary(g) == (
                len(true_pairs), len(false_pairs),
                true_pairs[0] if true_pairs else None,
                false_pairs[0] if false_pairs else None,
            )

    def test_summary_on_a_large_star(self):
        # 2,999 leaves: 4,495,501 false-twin pairs, never listed
        assert twin_summary(generate(star(3000))) == (0, 2999 * 2998 // 2, None, (1, 2))

    def test_twin_distance_relations(self):
        for g in family_corpus(max_n=12):
            d = all_pairs_distances(g)
            true_pairs, false_pairs = find_twins(g)
            for x, y in true_pairs:
                assert d[x, y] == 1
                others = [s for s in range(g.n) if s not in (x, y)]
                assert (d[x, others] == d[y, others]).all()
            for x, y in false_pairs:
                assert d[x, y] == 2
                others = [s for s in range(g.n) if s not in (x, y)]
                assert (d[x, others] == d[y, others]).all()


class TestEdgeListFormat:
    def test_round_trip(self):
        g = generate(grid(3, 3))
        again = parse_edgelist(format_edgelist(g, header_comment="grid:3x3"))
        assert again.n == g.n and again.edges() == g.edges()

    def test_comments_and_blank_lines(self):
        g = parse_edgelist("# a path\n3 2\n0 1  # first\n\n1 2\n")
        assert g.n == 3 and g.edge_count == 2

    def test_header_mismatch(self):
        with pytest.raises(EdgeListFormatError):
            parse_edgelist("3 2\n0 1\n")

    def test_malformed_lines(self):
        with pytest.raises(EdgeListFormatError):
            parse_edgelist("2 1\n0 1 7\n")
        with pytest.raises(EdgeListFormatError):
            parse_edgelist("x y\n")

    def test_vertex_set_parsing(self):
        assert parse_vertex_set("3 1\n2 # tail\n", 5) == (1, 2, 3)
        with pytest.raises(VertexOutOfRange):
            parse_vertex_set("0 9", 5)

"""Graph construction, distances, twins, generators, and text formats."""

import random
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bipartition_classes,
    family_corpus,
    plain_delta_set,
    plain_distances,
    random_connected_graph,
    random_tree_corpus,
    random_tree_graph,
)

from weakdim import (
    DuplicateEdge,
    EdgeListFormatError,
    FamilySpec,
    Graph,
    InvalidFamilyParameters,
    NotConnected,
    SelfLoop,
    TooLarge,
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
from weakdim import families, graph


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

    def test_no_vertices_rejected(self):
        with pytest.raises(VertexOutOfRange, match="need at least one vertex, got n=0"):
            Graph(0, [])

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


def _edge_list(g):
    """``g`` rebuilt from its edge list, without its family spec: its matrix
    comes from a BFS route, not from the spec's closed form."""
    return build_graph(g.n, g.edges())


def _single_vertex_or(family, n):
    return build_graph(1, []) if n == 1 else _edge_list(generate(family(n)))


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
        g = _edge_list(generate(path(1600)))
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


@contextmanager
def traced():
    """A dict that gets the block's tracemalloc peak, in bytes, as "peak"."""
    mem = {}
    tracemalloc.start()
    try:
        yield mem
    finally:
        mem["peak"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


class TestApspBudget:
    """APSP estimates its route's peak and raises TooLarge over the 1 GiB
    limit before allocating anything."""

    @pytest.mark.parametrize("spec, bits", [("path:40000", False), ("star:20000", True)])
    def test_fails_fast(self, spec, bits, monkeypatch):
        """path:40000 takes the list route (about 6 GiB of int32). On
        star:20000 the matrix alone (0.8 GB of int16) would pass, but not
        with the bit-parallel route's bitsets (six of 50 MB)."""
        g = _edge_list(generate(parse_family(spec)))
        assert graph._bit_parallel_pays(g.n, g.edge_count, g._ecc0) == bits

        def refuse(*args):  # past a missing guard, fail before filling memory
            raise AssertionError("APSP started")

        monkeypatch.setattr(graph, "_all_sources_bfs", refuse)
        monkeypatch.setattr(graph.Graph, "_bfs", refuse)
        started = time.perf_counter()
        with traced() as mem, pytest.raises(TooLarge, match="GiB"):
            g.distance_matrix
        assert time.perf_counter() - started < 1
        assert mem["peak"] < 1 << 20
        if bits:  # the int16 matrix alone would pass
            assert g.n * g.n * 2 < graph.MAX_BYTES

    @pytest.mark.parametrize("spec", ["path:2", "path:40", "grid:4x4", "cycle:601", "grid:40x40",
                                      "star:3000", "complete:300", "kqr:200,200"])
    def test_estimate_bounds_the_measured_peak(self, spec):
        g = _edge_list(generate(parse_family(spec)))
        bits = graph._bit_parallel_pays(g.n, g.edge_count, g._ecc0)
        with traced() as mem:
            d = g.distance_matrix
        estimate = graph._apsp_bytes(g.n, g.edge_count, g._ecc0, d.itemsize, bits)
        assert d.nbytes <= estimate
        assert mem["peak"] <= 1.05 * estimate + (64 << 10)


class TestSpecDistances:
    """A generated graph's matrix comes from its spec's closed form
    (``families.spec_distances``), not from a BFS: the same dtype,
    contents, read-only flag and C order as the BFS on its edge list, in
    the matrix plus one block, and TooLarge by the BFS route's estimate."""

    @staticmethod
    def no_bfs(monkeypatch):
        def refuse(*args):
            raise AssertionError("a BFS route ran")

        monkeypatch.setattr(graph, "_all_sources_bfs", refuse)
        monkeypatch.setattr(graph.Graph, "_bfs", refuse)

    @pytest.mark.parametrize("spec", [g.family.label() for g in family_corpus()] + [
        "cycle:2001", "grid:40x40", "path:1500", "kqr:300,300", "star:300", "spider:1,2,50",
        "spider:1,1,1", "spider:1,1,9", "spider:2,3,5,8", "kqr:1,6", "kqr:6,1",
    ] + [  # the int8/int16 switch at 128/129; path:128 reaches the int8 maximum 127
        spec.format(n=n, m=n - 64, s=n - 3, g={128: "8x16", 129: "3x43"}[n]) for n in (128, 129)
        for spec in ("path:{n}", "cycle:{n}", "star:{n}", "complete:{n}", "kqr:64,{m}",
                     "spider:1,1,{s}", "grid:{g}")])
    def test_matches_plain_bfs_on_the_edge_list(self, spec, monkeypatch):
        g = generate(parse_family(spec))
        plain = np.array(plain_distances(parse_edgelist(format_edgelist(g))))
        self.no_bfs(monkeypatch)
        d = g.distance_matrix
        assert d.dtype == graph._distance_dtype(g.n)
        assert np.array_equal(d, plain)
        assert not d.flags.writeable and d.flags.c_contiguous

    @pytest.mark.parametrize("spec", ["path:1500", "cycle:2001", "grid:40x40", "star:3000",
                                      "complete:1500", "kqr:800,800", "spider:300,300,301"])
    def test_peak_is_the_matrix_and_one_block(self, spec):
        g = generate(parse_family(spec))
        with traced() as mem:
            d = g.distance_matrix
        assert mem["peak"] <= d.nbytes + max(graph._UNPACK_BLOCK, g.n) * d.itemsize

    @pytest.mark.parametrize("spec", ["star:20000", "path:40000"])
    def test_too_large_before_allocating(self, spec, monkeypatch):
        g = generate(parse_family(spec))

        def refuse(*args):
            raise AssertionError("the closed form ran")

        monkeypatch.setattr(families, "spec_distances", refuse)
        with traced() as mem, pytest.raises(TooLarge, match="GiB"):
            g.distance_matrix
        assert mem["peak"] < 1 << 20


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

    WRITTEN_OUT = {  # spec: (n, edges)
        "path:2": (2, [(0, 1)]),
        "cycle:3": (3, [(0, 1), (0, 2), (1, 2)]),
        "star:2": (2, [(0, 1)]),
        "star:4": (4, [(0, 1), (0, 2), (0, 3)]),
        "complete:4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        "kqr:2,3": (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
        "kqr:1,3": (4, [(0, 1), (0, 2), (0, 3)]),
        "kqr:3,1": (4, [(0, 3), (1, 3), (2, 3)]),
        "spider:1,1,1": (4, [(0, 1), (0, 2), (0, 3)]),
        "spider:1,2,3": (7, [(0, 1), (0, 2), (0, 4), (2, 3), (4, 5), (5, 6)]),
        "grid:2x3": (6, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)]),
        "grid:3x2": (6, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]),
    }

    @pytest.mark.parametrize("spec", WRITTEN_OUT)
    def test_edges_written_out(self, spec):
        """The documented numbering, pinned by hand: a BFS on the generated
        edges would agree with ``spec_distances`` even on a wrong layout,
        since both read the same id runs."""
        g = generate(parse_family(spec))
        assert (g.n, g.edges()) == self.WRITTEN_OUT[spec]

    @pytest.mark.parametrize("text", [
        "path:1", "cycle:2", "star:1", "complete:1", "kqr:0,3", "kqr:3,0", "kqr:2",
        "kqr:2,3,4", "grid:1x5", "grid:5x1", "grid:3x", "grid:3X4", "spider:1,1",
        "spider:0,1,2", "spider:3,2,1", "spider:1,2,", "path:", "path:x", ":5",
    ])
    def test_family_grammar_rejects(self, text):
        with pytest.raises(InvalidFamilyParameters):
            parse_family(text)

    def test_spec_of_an_unknown_kind_rejected(self):
        with pytest.raises(InvalidFamilyParameters, match="unknown family kind 'foo'"):
            FamilySpec("foo")

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

    def test_tree_classes_read_off_the_leaves(self, monkeypatch):
        """On a tree the classes come from ``_tree_twin_classes``: the same
        classes, in the same order, as ``_twin_classes``; and the cached
        classes of a tree never call ``_twin_classes``."""
        rng = random.Random(7)
        trees = random_tree_corpus() + [random_tree_graph(rng, n) for n in (2, 3, 60, 300)]
        trees += [generate(parse_family(f)) for f in (
            "path:2", "path:3", "path:12", "star:4", "star:40", "spider:1,1,1",
            "spider:1,2,5", "spider:1,1,2,3", "kqr:1,6", "kqr:6,1")]
        trees.append(build_graph(1, []))
        for g in trees:
            assert graph._tree_twin_classes(g) == graph._twin_classes(g), g
        assert any(graph._twin_classes(g)[1] for g in trees)
        monkeypatch.setattr(graph, "_twin_classes", lambda g: pytest.fail("generic classes"))
        for g in trees:
            assert graph.Graph(g.n, g.edges()).twin_classes == graph._tree_twin_classes(g)


class TestColoring:
    """``Graph.coloring`` is the parity of the hop count from vertex 0 on a
    bipartite graph and None on any other; it is built once."""

    def test_against_the_bfs_parity(self):
        corpus = family_corpus() + [random_connected_graph(random.Random(s), 9)
                                    for s in range(40)]
        corpus += [random_tree_graph(random.Random(s), 30) for s in range(10)]
        for g in corpus:
            side = g.coloring
            d = plain_distances(g)
            bipartite = all((d[0][u] - d[0][v]) % 2 for u, v in g.edges())
            assert (side is not None) == bipartite, g
            if bipartite:
                even, odd = bipartition_classes(g)
                assert side.dtype == bool and not side.flags.writeable
                assert set(np.flatnonzero(~side).tolist()) == even
                assert set(np.flatnonzero(side).tolist()) == odd
        graphs = [generate(parse_family(f)) for f in ("cycle:7", "complete:3", "kqr:2,2")]
        assert [g.coloring is None for g in graphs] == [True, True, False]
        assert build_graph(1, []).coloring.tolist() == [False]

    def test_built_once(self, monkeypatch):
        for f in ("grid:3x4", "cycle:5"):
            g = generate(parse_family(f))
            first = g.coloring
            monkeypatch.setattr(graph.Graph, "_bfs", lambda *a: pytest.fail("rebuilt"))
            assert g.coloring is first
            monkeypatch.undo()


class TestCache:
    """Every structure derived from a graph lives in its one cache: each is
    built once, on first use, and a build that raises keeps nothing."""

    def test_built_once_per_key(self):
        g = generate(grid(3, 3))
        calls = []

        def build(h):
            calls.append(h)
            return None

        assert g._cached("x", build) is None and g._cached("x", build) is None
        assert calls == [g]

        def refuse(h):
            calls.append(h)
            raise TooLarge("over the limit")

        for _ in range(2):
            with pytest.raises(TooLarge):
                g._cached("y", refuse)
        assert calls == [g] * 3 and "y" not in g._cache

    def test_every_structure_is_kept(self):
        for g in (generate(grid(3, 4)), generate(spider(1, 2, 3)), generate(cycle(5))):
            for name in ("distance_matrix", "twin_classes", "coloring"):
                assert getattr(g, name) is getattr(g, name), (g, name)
        tree = generate(spider(1, 2, 3))
        assert tree.tree_shape is tree.tree_shape
        first, second = (build_graph(5, generate(cycle(5)).edges()) for _ in range(2))
        assert first.distance_matrix is not second.distance_matrix


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

    @pytest.mark.parametrize("text, message", [
        ("", "empty edge-list input"),
        ("# a comment\n\n", "empty edge-list input"),
        ("3\n", "header must be 'n m', got '3'"),
        ("2 1 0\n0 1\n", "header must be 'n m', got '2 1 0'"),
        ("2 1\n0 x\n", "non-integer edge line '0 x'"),
        # ASCII digits only, as in the family grammar: what ``int`` would
        # also take (other scripts' digits, a plus sign, an underscore) is
        # malformed
        ("3 1\n1 \uff12\n", "non-integer edge line '1 \uff12'"),
        ("3 1\n1 +2\n", "non-integer edge line '1 +2'"),
        ("3 1\n1 0_2\n", "non-integer edge line '1 0_2'"),
        ("+3 1\n1 2\n", "non-integer header '+3 1'"),
        ("3 0_1\n1 2\n", "non-integer header '3 0_1'"),
        ("\u0663 1\n1 2\n", "non-integer header '\u0663 1'"),
    ])
    def test_rejected_text(self, text, message):
        with pytest.raises(EdgeListFormatError) as exc:
            parse_edgelist(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", ["100000000 0\n", "100000000 1\n0 1\n"])
    def test_vertex_count_past_the_edges_fails_fast(self, text):
        """A header whose n outruns its edges is not connected, raised
        before any per-vertex structure is made."""
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(NotConnected, match="graph is not connected"):
                parse_edgelist(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert peak < 2**20

    def test_vertex_set_parsing(self):
        assert parse_vertex_set("3 1\n2 # tail\n", 5) == (1, 2, 3)
        with pytest.raises(VertexOutOfRange):
            parse_vertex_set("0 9", 5)
        # ASCII digits only: `2_0` is not vertex 20
        for token in ["2_0", "+2", "\uff12", "\u0663", "x", "--1", "-"]:
            with pytest.raises(EdgeListFormatError) as exc:
                parse_vertex_set(f"1 {token} 3", 30)
            assert str(exc.value) == f"non-integer vertex id {token!r} in set file"

    def test_negative_ids_are_out_of_range(self):
        """A leading minus still parses, so a negative id is reported as
        out of range, in a set file and in an edge line."""
        with pytest.raises(VertexOutOfRange) as exc:
            parse_vertex_set("0 -1", 5)
        assert str(exc.value) == "set member -1 outside 0..4"
        with pytest.raises(VertexOutOfRange) as exc:
            parse_edgelist("3 1\n-1 2\n")
        assert str(exc.value) == "edge (-1,2) outside 0..2"

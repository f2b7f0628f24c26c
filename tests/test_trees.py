"""Thread decomposition, constructive tree bases, and the path-split oracle."""

import random
from itertools import combinations_with_replacement, product

import pytest

from conftest import (
    plain_delta_set,
    plain_distances,
    random_tree_corpus,
    tree_from_prufer,
)

from weakdim import (
    KaboveKappa,
    NotATree,
    SameVertex,
    VertexOutOfRange,
    WrongTreeClass,
    build_graph,
    compute_kappa,
    cycle,
    decompose_tree,
    delta_over_set,
    delta_tree_pair,
    generate,
    path,
    root_basis_size,
    spider,
    spider3_basis,
    star,
    tree_basis,
    verify_weak_k_resolving,
)
from weakdim.resolve import lex_min, pair_sum

# path 0-1 with two pendant leaves at each end
DOUBLE_SPIDER = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


class TestDecompose:
    def test_path_has_no_roots(self):
        shape = decompose_tree(generate(path(7)))
        assert shape.roots == () and shape.is_path
        assert shape.kappa_star is None
        assert shape.order == tuple(range(7))
        assert decompose_tree(build_graph(1, [])).order == (0,)

    def test_four_thread_spider(self):
        shape = decompose_tree(generate(spider(2, 4, 4, 6)))
        assert shape.roots == (0,)
        assert shape.thread_lengths(0) == (2, 4, 4, 6)
        assert shape.kappa_star == 2 * (2 + 4)
        assert not shape.is_spider3 and shape.order is None

    def test_double_spider(self):
        shape = decompose_tree(DOUBLE_SPIDER)
        assert shape.roots == (0, 1)
        assert shape.kappa_star == 4
        assert shape.thread_lengths(0) == (1, 1)

    def test_kappa_matches_the_pair_scan(self):
        graphs = random_tree_corpus() + [generate(path(n)) for n in range(2, 12)]
        graphs += [generate(star(n)) for n in range(5, 12)]
        graphs += [generate(spider(*lengths)) for threads in (3, 4, 5)
                   for lengths in combinations_with_replacement(range(1, 4), threads)]
        for g in graphs:
            assert decompose_tree(g).kappa == lex_min(g.distance_matrix, [pair_sum])[0][0], g

    @pytest.mark.parametrize("g, kappa, witness, kappa_prime", [
        (generate(path(2)), 2, (0, 1), 2),
        (generate(path(7)), 7, (0, 1), 6),
        # kappa = n = kappa_star: the first edge (0, 1) beats the heads (1, 3)
        (generate(spider(2, 3, 4)), 10, (0, 1), 5),
        # the same spider relabelled: the heads (0, 1) beat the first edge (0, 5)
        (build_graph(10, [(5, 0), (0, 6), (5, 1), (1, 7), (7, 8), (5, 2), (2, 3), (3, 4), (4, 9)]),
         10, (0, 1), 5),
        # l1 < l2: the shortest thread's head and the smallest head of length l2
        (generate(spider(1, 2, 2, 2)), 6, (1, 2), 3),
        (build_graph(8, [(7, 6), (7, 5), (5, 0), (7, 3), (3, 1), (7, 4), (4, 2)]), 6, (3, 6), 3),
        # l1 = l2: the two smallest heads of length l1; over the roots, the lex-first pair
        (DOUBLE_SPIDER, 4, (2, 3), 2),
        (build_graph(6, [(0, 1), (0, 5), (0, 4), (1, 3), (1, 2)]), 4, (2, 3), 2),
        # threads sort by tip, and the heads 1, 2 lead the threads with the largest tips
        (build_graph(9, [(0, 1), (1, 8), (0, 2), (2, 7), (0, 3), (3, 6), (0, 4), (4, 5)]),
         8, (1, 2), 4),
    ])
    def test_witness_and_kappa_prime(self, g, kappa, witness, kappa_prime):
        shape = decompose_tree(g)
        assert shape.kappa == kappa and shape.kappa_prime == kappa_prime
        assert shape.witness((0, g.adjacency[0][0])) == witness

    def test_three_thread_spider_flag(self):
        assert decompose_tree(generate(spider(1, 2, 5))).is_spider3
        assert decompose_tree(generate(star(4))).is_spider3

    def test_thread_interior_degrees(self):
        for g in random_tree_corpus(count=10, seed=5512):
            shape = decompose_tree(g)
            for v in shape.roots:
                for t in shape.threads[v]:
                    assert g.degree(t.tip) == 1
                    for w in t.vertices[:-1]:
                        assert g.degree(w) == 2

    def test_non_tree_rejected(self):
        with pytest.raises(NotATree):
            decompose_tree(generate(cycle(4)))

    def test_cached_on_the_graph(self):
        """``Graph.tree_shape`` is built once; a non-tree raises on every read."""
        g = generate(spider(1, 2, 5))
        assert g.tree_shape is g.tree_shape
        c = generate(cycle(4))
        for _ in range(2):
            with pytest.raises(NotATree):
                c.tree_shape


class TestTreeBasis:
    def test_one_vertex_per_thread_at_k4(self):
        g = generate(spider(2, 4, 4, 6))
        shape = decompose_tree(g)
        basis = tree_basis(g, 4)
        assert len(basis) == 4
        assert set(basis) == {t.vertices[0] for t in shape.threads[0]}

    def test_case_sizes_match_formula(self):
        g = generate(spider(2, 4, 4, 6))
        expected = {1: 3, 2: 3, 3: 4, 4: 4, 5: 7, 6: 7, 7: 8, 8: 8,
                    9: 11, 10: 11, 11: 14, 12: 14}
        for k, size in expected.items():
            assert root_basis_size(4, 2, k) == size
            assert len(tree_basis(g, k)) == size

    def test_bases_verify(self):
        g = generate(spider(2, 4, 4, 6))
        shape = decompose_tree(g)
        for k in range(1, shape.kappa_star + 1):
            assert verify_weak_k_resolving(g, tree_basis(g, k), k).ok

    def test_thread_pair_coverage(self):
        # every thread pair at a root keeps >= ceil(k/2) members, with
        # equality on pairs through the designated shortest thread (the
        # one the construction trims; equal-length peers may hold more)
        for g in random_tree_corpus(count=12, max_n=13, seed=909):
            shape = decompose_tree(g)
            if shape.is_path or shape.is_spider3:
                continue
            for k in range(1, shape.kappa_star + 1):
                basis = set(tree_basis(g, k))
                assert len(basis) >= k
                need = -(-k // 2)
                for v in shape.roots:
                    threads = shape.threads[v]
                    for i, t1 in enumerate(threads):
                        for t2 in threads[i + 1:]:
                            got = len(basis & set(t1.vertices + t2.vertices))
                            assert got >= need
                            if i == 0:
                                assert got == need

    def test_wrong_class_and_range_errors(self):
        p = generate(path(6))
        with pytest.raises(WrongTreeClass):
            tree_basis(p, 2)
        s3 = generate(spider(1, 1, 2))
        with pytest.raises(WrongTreeClass):
            tree_basis(s3, 2)
        g = generate(spider(1, 1, 1, 1))
        with pytest.raises(KaboveKappa):
            tree_basis(g, 5)


@pytest.mark.parametrize("call, raised", [
    (lambda: tree_basis(generate(path(2)), 1), WrongTreeClass),
    (lambda: tree_basis(generate(spider(3, 4, 5)), 1), WrongTreeClass),
    (lambda: spider3_basis(generate(path(5)), 1), WrongTreeClass),
    (lambda: spider3_basis(DOUBLE_SPIDER, 1), WrongTreeClass),
    (lambda: decompose_tree(generate(cycle(3))), NotATree),
    (lambda: delta_tree_pair(generate(cycle(3)), 0, 1, [2]), NotATree),
], ids=["tree_basis-path:2", "tree_basis-spider:3,4,5", "spider3_basis-path:5",
        "spider3_basis-two-roots", "decompose_tree-cycle:3", "delta_tree_pair-cycle:3"])
def test_wrong_tree_inputs_raise(call, raised):
    """Each tree routine rejects a graph outside its class: a path or a
    three-thread spider for ``tree_basis``, any other tree for
    ``spider3_basis``, and a cycle for the thread decomposition and the
    path-split sum."""
    with pytest.raises(raised):
        call()


class TestSpider3Basis:
    def test_star_two_leaves(self):
        g = generate(spider(1, 1, 1))
        assert spider3_basis(g, 2) == (1, 2)

    def test_vertices_nearest_root_first(self):
        g = generate(spider(2, 2, 2))
        basis = spider3_basis(g, 4)
        assert basis == (1, 2, 3, 5)  # all depth-1 vertices, then one deeper
        assert verify_weak_k_resolving(g, basis, 4).ok

    def test_all_feasible_k_verify(self):
        for lengths in [(1, 1, 1), (1, 2, 5), (2, 2, 2), (3, 3, 4)]:
            g = generate(spider(*lengths))
            shape = decompose_tree(g)
            kappa = min(shape.n, shape.kappa_star)
            for k in range(2, kappa + 1):
                basis = spider3_basis(g, k)
                assert len(basis) == k
                assert verify_weak_k_resolving(g, basis, k).ok

    def test_k1_two_shortest_thread_tips(self):
        # k = 1 is the classical metric dimension 2, met by any two tips;
        # this construction used to raise and leave k = 1 to the solver
        g = generate(spider(1, 2, 5))
        basis = spider3_basis(g, 1)
        assert basis == (1, 3)  # tips of the threads of lengths 1 and 2
        assert verify_weak_k_resolving(g, basis, 1).ok

    def test_range_and_class_errors(self):
        g = generate(spider(1, 2, 5))
        with pytest.raises(KaboveKappa):
            spider3_basis(g, 7)  # kappa = 6
        four = generate(spider(1, 1, 1, 1))
        with pytest.raises(WrongTreeClass):
            spider3_basis(four, 2)


class TestExhaustiveSmallTrees:
    def test_every_labeled_tree_on_six_vertices(self):
        # full sweep over all 6^4 Prufer sequences: thread structure,
        # dimension values, and constructive bases against brute force
        from weakdim import compute_kappa, kappa_formula, solve_bruteforce, wdim_formula

        n = 6
        for seq in product(range(n), repeat=n - 2):
            g = tree_from_prufer(seq, n)
            shape = decompose_tree(g)
            kappa = g.n if shape.is_path else min(g.n, shape.kappa_star)
            assert compute_kappa(g).kappa == kappa, seq
            assert kappa_formula(g).value == kappa, seq
            for k in range(1, kappa + 1):
                oracle = solve_bruteforce(g, k=k)
                assert wdim_formula(g, k) == oracle.value, (seq, k)
                if shape.is_path:
                    continue
                basis = (
                    spider3_basis(g, k)
                    if shape.is_spider3
                    else tree_basis(g, k)
                )
                assert len(basis) == oracle.value, (seq, k)
                assert verify_weak_k_resolving(g, basis, k).ok, (seq, k)


class TestDeltaTreePair:
    def test_adjacent_pair_full_set_gives_n(self):
        for g in random_tree_corpus(count=6, seed=4100):
            u, v = g.edges()[0]
            assert delta_tree_pair(g, u, v, range(g.n)) == g.n

    def test_path_endpoints_by_hand(self):
        g = generate(path(5))
        assert delta_tree_pair(g, 0, 4, range(5)) == 4 + 2 + 0 + 2 + 4

    def test_matches_matrix_method_everywhere(self):
        rng = random.Random(515)
        corpus = [generate(spider(1, 1, 2))] + random_tree_corpus(
            count=8, max_n=12, seed=27
        )
        for g in corpus:
            d = plain_distances(g)
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    S = rng.sample(range(g.n), rng.randint(0, g.n))
                    assert (
                        delta_tree_pair(g, x, y, S)
                        == delta_over_set(g, x, y, S)
                        == plain_delta_set(d, x, y, S)
                    )

    def test_errors(self):
        with pytest.raises(NotATree):
            delta_tree_pair(generate(cycle(5)), 0, 2, [1])
        with pytest.raises(SameVertex):
            delta_tree_pair(generate(path(4)), 2, 2, [0])

    @pytest.mark.parametrize("x, y, S", [
        (9, 4, [0]),  # x outside the graph
        (0, 9, [0]),  # y outside the graph
        (0, 4, [7]),  # a probe past the last vertex
        (0, 4, [-1]),  # a negative probe
    ])
    def test_out_of_range_as_delta_over_set(self, x, y, S):
        g = generate(path(5))
        for delta in (delta_tree_pair, delta_over_set):
            with pytest.raises(VertexOutOfRange):
                delta(g, x, y, S)

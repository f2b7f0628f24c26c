"""Closed-form values, covering families, and the grid border machinery."""

import contextlib
import io
import json
import random
from itertools import combinations_with_replacement

import pytest

from conftest import family_corpus, random_tree_corpus

from weakdim import (
    FormulaNotCovered,
    KaboveKappa,
    ParameterOutOfRange,
    Variant,
    build_graph,
    cli,
    complete,
    complete_bipartite,
    compute_kappa,
    cycle,
    format_edgelist,
    formula_basis,
    generate,
    grid,
    grid_basis,
    grid_border_labeling,
    kappa_formula,
    load_edgelist,
    parse_family,
    path,
    solve_bruteforce,
    spider,
    star,
    verify_set,
    verify_weak_k_resolving,
    wdim_formula,
)

# C3 and C4 (which take K3's and the 2x2 grid's forms), and trees at the
# edges of the tree formulas: small stars (S2 and S3 are paths, S4 a
# three-thread spider), one-sided complete bipartite graphs (stars),
# three-thread spiders (whose k = 1 basis is two thread tips), and every
# spider with 3 or 4 threads of lengths 1..3; specs and graphs alike
# answer a tree through its thread decomposition
BOUNDARY = (
    ["cycle:3", "cycle:4", "star:2", "star:3", "star:4"]
    + [f"kqr:1,{r}" for r in range(1, 7)]
    + [f"kqr:{q},1" for q in range(2, 7)]
    + ["spider:1,1,5"]
    + ["spider:" + ",".join(map(str, lengths))
       for threads in (3, 4) for lengths in combinations_with_replacement(range(1, 4), threads)]
)


class TestKappaFormula:
    def test_solved_families(self):
        assert kappa_formula(cycle(9)).value == 8
        assert kappa_formula(grid(9, 7)).value == 28
        assert kappa_formula(spider(1, 2, 5)).value == 6
        assert kappa_formula(complete(5)).value == 2
        assert kappa_formula(star(7)).value == 4
        assert kappa_formula(complete_bipartite(3, 4)).value == 4
        assert kappa_formula(path(11)).value == 11

    def test_small_star_delegates_to_path(self):
        assert kappa_formula(star(2)).value == 2
        assert kappa_formula(star(3)).value == 3

    def test_one_sided_bipartite_delegates(self):
        assert kappa_formula(complete_bipartite(1, 4)).value == 4  # a 5-star
        assert kappa_formula(complete_bipartite(1, 2)).value == 3  # a path
        assert kappa_formula(complete_bipartite(1, 1)).value == 2

    def test_spider_kappa_saturation(self):
        # three threads can push 2*(l1+l2) above n; the vertex count caps it
        assert kappa_formula(spider(2, 2, 2)).value == 7  # n=7 < 8
        assert kappa_formula(spider(1, 2, 5)).value == 6  # 6 < n=9

    def test_tree_input(self):
        for g in random_tree_corpus(count=10, seed=4096):
            assert kappa_formula(g).value == compute_kappa(g).kappa


class TestWdimFormula:
    def test_known_family_values(self):
        assert wdim_formula(star(6), 3) == 5
        assert wdim_formula(complete_bipartite(2, 3), 2) == 3
        assert wdim_formula(grid(6, 4), 5) == 6
        assert wdim_formula(path(9), 7) == 7
        assert wdim_formula(cycle(7), 3) == 4
        assert wdim_formula(cycle(8), 3) == 3
        assert wdim_formula(cycle(9), 1) == 2
        assert wdim_formula(complete(6), 1) == 5
        assert wdim_formula(complete(6), 2) == 6

    @pytest.mark.parametrize("label", BOUNDARY)
    def test_boundary_instance_takes_covering_family(self, label):
        # C3 and C4 take the forms of K3 and the 2x2 grid, and every tree
        # its thread decomposition, so no k is left to a solver; the spec
        # and its graph take the same route
        spec = parse_family(label)
        g = generate(spec)
        kappa = kappa_formula(g).value
        assert kappa == kappa_formula(spec).value == compute_kappa(g).kappa
        for k in range(1, kappa + 1):
            value = wdim_formula(g, k)
            assert value == wdim_formula(spec, k) == solve_bruteforce(g, k=k).value, k
            basis = formula_basis(g, k)
            assert len(basis) == value, k
            assert verify_weak_k_resolving(g, basis, k).ok, k

    def test_square_cycle_matches_grid_route(self):
        # wdim(C4) frozen from exhaustive search: (2, 2, 4, 4); the 2x2
        # grid formula reproduces it while the even-cycle formula would not
        expected = {1: 2, 2: 2, 3: 4, 4: 4}
        g = generate(grid(2, 2))
        c4 = generate(cycle(4))
        for k, value in expected.items():
            assert wdim_formula(grid(2, 2), k) == value
            assert solve_bruteforce(g, k=k).value == value
            assert solve_bruteforce(c4, k=k).value == value

    def test_small_star_via_spider_route(self):
        # wdim(S_4) frozen from exhaustive search: (2, 2, 3, 4)
        expected = {1: 2, 2: 2, 3: 3, 4: 4}
        s4 = generate(star(4))
        for k, value in expected.items():
            assert wdim_formula(spider(1, 1, 1), k) == value
            assert solve_bruteforce(s4, k=k).value == value

    def test_k_above_kappa_rejected(self):
        with pytest.raises(KaboveKappa):
            wdim_formula(path(5), 6)
        with pytest.raises(KaboveKappa):
            wdim_formula(star(8), 5)

    def test_monotone_in_k(self):
        for spec in [path(9), cycle(9), cycle(10), star(8),
                     complete_bipartite(3, 4), grid(4, 5), spider(2, 3, 3, 4)]:
            kappa = kappa_formula(spec).value
            values = [wdim_formula(spec, k) for k in range(1, kappa + 1)]
            assert values == sorted(values)
            assert all(k <= v <= generate(spec).n for k, v in enumerate(values, 1))


class TestGridMachinery:
    @pytest.mark.parametrize("q, r", [(1, 5), (5, 1)])
    def test_labeling_needs_two_rows_and_columns(self, q, r):
        with pytest.raises(ParameterOutOfRange, match=f"grid needs q, r >= 2, got {q}x{r}"):
            grid_border_labeling(q, r)

    def test_labeling_size_and_order(self):
        lab = grid_border_labeling(6, 4)
        assert len(lab.order) == 2 * 6 + 2 * 4 - 4
        assert len(set(lab.order)) == len(lab.order)
        # long sides (column 1 and column r) carry the smallest labels
        r = 4
        first = lab.order[: 2 * 6]
        assert all(v % r in (0, r - 1) for v in first)

    def test_figure_style_prefix(self):
        # ranks 1..4 are the first two rows' outer corners of the 6x4 grid
        assert grid_basis(6, 4, 3) == (0, 3, 4, 7)
        assert grid_basis(6, 4, 4) == (0, 3, 4, 7)
        assert grid_basis(6, 4, 5) == (0, 3, 4, 7, 8, 11)

    def test_smallest_grid(self):
        assert grid_basis(2, 2, 1) == (0, 1)
        assert solve_bruteforce(generate(grid(2, 2)), k=1).value == 2

    def test_full_border_at_kappa(self):
        basis = grid_basis(3, 3, 8)
        assert len(basis) == 8
        assert basis == (0, 1, 2, 3, 5, 6, 7, 8)  # all but the center

    def test_bases_verify_across_sizes(self):
        for q, r in [(2, 2), (2, 5), (3, 3), (3, 4), (4, 4)]:
            g = generate(grid(q, r))
            kappa = 2 * q + 2 * r - 4
            for k in range(1, kappa + 1):
                basis = grid_basis(q, r, k)
                assert len(basis) == wdim_formula(grid(q, r), k)
                assert verify_weak_k_resolving(g, basis, k).ok

    def test_half_of_basis_escapes_zero_set(self):
        # for even-distance pairs, at least half the basis lies outside
        # the zero-difference region
        for q, r in [(3, 3), (3, 4), (6, 4)]:
            g = generate(grid(q, r))
            d = g.distance_matrix
            kappa = 2 * q + 2 * r - 4
            for k in range(1, kappa + 1):
                basis = grid_basis(q, r, k)
                for x in range(g.n):
                    for y in range(x + 1, g.n):
                        if (d[x, y]) % 2 != 0:
                            continue
                        zero = {s for s in range(g.n) if d[x, s] == d[y, s]}
                        outside = [s for s in basis if s not in zero]
                        assert 2 * len(outside) >= len(basis)


class TestFormulaBasis:
    def test_all_families_verify_and_match_value(self):
        specs = [path(8), cycle(7), cycle(8), complete(5), star(7),
                 complete_bipartite(3, 4), grid(3, 4), spider(1, 2, 5),
                 spider(2, 2, 3, 3)]
        for spec in specs:
            g = generate(spec)
            kappa = kappa_formula(spec).value
            for k in range(1, kappa + 1):
                basis = formula_basis(g, k)
                assert len(basis) == wdim_formula(spec, k)
                assert verify_set(g, Variant.VERTEX, basis, k).ok

    def test_tree_file_route(self):
        for g in random_tree_corpus(count=8, max_n=12, seed=1333):
            kappa = kappa_formula(g).value
            for k in range(1, kappa + 1):
                basis = formula_basis(g, k)
                assert len(basis) == wdim_formula(g, k)
                assert verify_weak_k_resolving(g, basis, k).ok

    def test_non_tree_raw_graph_rejected(self):
        g = generate(cycle(6))
        raw = type(g)(g.n, g.edges())  # same cycle without family provenance
        with pytest.raises(FormulaNotCovered):
            formula_basis(raw, 1)

    def test_one_vertex_graph_not_covered(self):
        g = build_graph(1, [])  # no pairs: the dimension is 0, not 1
        with pytest.raises(FormulaNotCovered):
            kappa_formula(g)
        with pytest.raises(FormulaNotCovered):
            wdim_formula(g, 1)
        with pytest.raises(FormulaNotCovered):
            formula_basis(g, 1)


def walk_order(g):
    """Oracle: a path's vertices walked end to end from its smaller-id leaf."""
    order, prev = [min(v for v in range(g.n) if len(g.adjacency[v]) == 1)], None
    while len(order) < g.n:
        cur = order[-1]
        order.append(next(w for w in g.adjacency[cur] if w != prev))
        prev = cur
    return order


def spider_threads(g):
    """Oracle: a spider's root and its threads, each from the root outward,
    sorted by (length, tip id)."""
    root = next(v for v in range(g.n) if len(g.adjacency[v]) >= 3)
    threads = []
    for start in g.adjacency[root]:
        thread = [start]
        while len(g.adjacency[thread[-1]]) == 2:
            thread.append(next(w for w in g.adjacency[thread[-1]]
                               if w not in (root, *thread)))
        threads.append(thread)
    return root, sorted(threads, key=lambda t: (len(t), t[-1]))


def round_robin_order(g):
    """Oracle: a three-thread spider's vertices by depth over its threads
    in ``spider_threads`` order, root last."""
    root, threads = spider_threads(g)
    order = []
    for depth in range(max(map(len, threads))):
        for t in threads:
            if depth < len(t):
                order.append(t[depth])
    return order + [root]


def relabelled_file(tmp_path, spec, seed):
    """``spec`` under a seeded vertex permutation, written and read back
    as an edge-list file (no family)."""
    g = generate(parse_family(spec))
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    f = tmp_path / f"{spec.replace(':', '_')}_{seed}.txt"
    f.write_text(format_edgelist(build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])))
    return load_edgelist(f)


class TestFormulaBasisOrder:
    """The formula bases of path and three-thread spider files are the
    sorted prefixes of the walk and the round robin, at every k <= kappa;
    a spider's k = 1 basis is the tips of its two shortest threads."""

    @pytest.mark.parametrize("spec", ["path:2", "path:3", "path:9", "path:40"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relabelled_path_file(self, tmp_path, spec, seed):
        g = relabelled_file(tmp_path, spec, seed)
        order = walk_order(g)
        for k in range(1, compute_kappa(g).kappa + 1):
            assert formula_basis(g, k) == tuple(sorted(order[:k])), k

    @pytest.mark.parametrize("spec", ["spider:1,1,1", "spider:1,2,5", "spider:2,2,2",
                                      "spider:3,3,4", "spider:2,5,9", "spider:6,6,7"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relabelled_spider_file(self, tmp_path, spec, seed):
        g = relabelled_file(tmp_path, spec, seed)
        _, threads = spider_threads(g)
        order = round_robin_order(g)
        assert formula_basis(g, 1) == tuple(sorted((threads[0][-1], threads[1][-1])))
        for k in range(2, compute_kappa(g).kappa + 1):
            assert formula_basis(g, k) == tuple(sorted(order[:k])), k


# every tree family instance: paths and stars, one-sided complete
# bipartite graphs, the boundary spiders and the trees of the corpus
TREE_FAMILIES = list(dict.fromkeys(
    [f"{kind}:{n}" for kind in ("path", "star") for n in range(2, 14)]
    + [f"kqr:1,{r}" for r in range(1, 9)] + [f"kqr:{q},1" for q in range(2, 9)]
    + [label for label in BOUNDARY if label.startswith("spider:")]
    + [g.family.label() for g in family_corpus() if g.edge_count == g.n - 1]
))


def cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("label", TREE_FAMILIES)
def test_one_answer_per_tree(tmp_path, label):
    """A tree family instance and the file ``gen`` writes for it get the
    same ``wdim`` rows at every k <= kappa, and a spec the same
    ``kappa_formula`` as its graph, value and witness."""
    spec = parse_family(label)
    g = generate(spec)
    f = str(tmp_path / "tree.txt")
    cli_stdout("gen", "--family", label, "--out", f)
    k_range = f"1..{compute_kappa(g).kappa}"
    for engine in ("auto", "formula"):
        family, file = (json.loads(cli_stdout("wdim", option, source, "--k", k_range,
                                              "--engine", engine))["results"]
                        for option, source in (("--family", label), ("--file", f)))
        assert family == file, engine
    assert kappa_formula(spec) == kappa_formula(g)

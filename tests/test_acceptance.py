"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Desk scale: closed
forms are exercised up to ~60 vertices, exhaustive cross-checks up to 12.
"""

import random
import time

from conftest import (
    bull,
    family_corpus,
    petersen,
    plain_delta_set,
    plain_distances,
    random_graph_corpus,
    random_tree_corpus,
)

from weakdim import (
    KappaClass,
    Variant,
    complete,
    complete_bipartite,
    compute_kappa,
    cycle,
    decompose_tree,
    delta_over_set,
    delta_pair,
    delta_tree_pair,
    find_twins,
    generate,
    grid,
    grid_basis,
    kappa_formula,
    path,
    solve_bnb,
    solve_bruteforce,
    solve_kmetric_dim,
    spider,
    spider3_basis,
    star,
    tree_basis,
    variant_kappa,
    verify_local_k_resolving,
    verify_weak_k_resolving,
    wdim_formula,
    weak3_structure_witness,
)

PETERSEN_WDIM2 = 4  # frozen after the first exhaustive run on 10 vertices


def _formula_specs():
    specs = []
    specs += [("complete", complete(n), 2) for n in range(2, 9)]
    specs += [("star", star(n), 4) for n in range(4, 11)]
    specs += [
        ("kqr", complete_bipartite(q, r), 4)
        for q in range(2, 6)
        for r in range(2, 6)
    ]
    specs += [("path", path(n), n) for n in range(2, 13)]
    specs += [
        ("cycle", cycle(n), n - 1 if n % 2 else n) for n in range(3, 13)
    ]
    specs += [
        ("grid", grid(q, r), 2 * q + 2 * r - 4)
        for q in range(2, 6)
        for r in range(2, 6)
    ]
    return specs


def _expected_tree_kappa(g) -> int:
    shape = decompose_tree(g)
    if shape.is_path:
        return g.n
    return min(g.n, shape.kappa_star)


def test_criterion_1_kappa_formulas():
    for name, spec, expected in _formula_specs():
        g = generate(spec)
        assert kappa_formula(spec).value == expected, spec.label()
        assert compute_kappa(g).kappa == expected, spec.label()
    trees = random_tree_corpus(count=20, max_n=14)
    for g in trees:
        assert compute_kappa(g).kappa == _expected_tree_kappa(g)
        assert kappa_formula(g).value == _expected_tree_kappa(g)
    print("[PASS] criterion 1: kappa formulas match the exact pair scan")


def test_criterion_2_wdim_formulas_vs_bruteforce():
    checked = 0
    for name, spec, _ in _formula_specs():
        g = generate(spec)
        if g.n > 12:
            continue
        kappa = kappa_formula(spec).value
        for k in range(1, kappa + 1):
            # cycles on 3 and 4 vertices and the 4-star take their covering
            # family's formula (K3, the 2x2 grid, the spider 1,1,1)
            oracle = solve_bruteforce(g, k=k).value
            assert wdim_formula(spec, k) == oracle, (spec.label(), k)
            checked += 1
    for g in random_tree_corpus(count=20, max_n=14):
        if g.n > 12:
            continue
        kappa = kappa_formula(g).value
        for k in range(1, kappa + 1):
            assert wdim_formula(g, k) == solve_bruteforce(g, k=k).value
            checked += 1
    assert checked > 200
    print(f"[PASS] criterion 2: {checked} (instance, k) formula values match "
          "the exhaustive oracle")


def test_criterion_3_constructive_bases():
    # grids small enough for the solver
    for q in range(2, 6):
        for r in range(q, 6):
            if q * r > 12:
                continue
            g = generate(grid(q, r))
            for k in range(1, 2 * q + 2 * r - 4 + 1):
                basis = grid_basis(q, r, k)
                assert verify_weak_k_resolving(g, basis, k).ok
                assert len(basis) == solve_bruteforce(g, k=k).value
    # trees small enough for the solver
    tree_pool = random_tree_corpus(count=20, max_n=14)
    tree_pool += [generate(spider(*ls)) for ls in
                  [(1, 1, 1), (1, 1, 2), (2, 2, 2), (1, 2, 5), (1, 1, 1, 1), (1, 1, 2, 2)]]
    for g in tree_pool:
        if g.n > 12:
            continue
        shape = decompose_tree(g)
        if shape.is_path:
            continue
        kappa = min(g.n, shape.kappa_star)
        for k in range(1, kappa + 1):
            if shape.is_spider3:
                basis = spider3_basis(g, k)  # two thread tips at k=1
            else:
                basis = tree_basis(g, k)
            assert verify_weak_k_resolving(g, basis, k).ok
            assert len(basis) == solve_bruteforce(g, k=k).value
    # larger instances: verify and match the formula cardinality
    g97 = generate(grid(9, 7))
    assert compute_kappa(g97).kappa == 28
    for k in range(1, 29):
        basis = grid_basis(9, 7, k)
        assert len(basis) == wdim_formula(grid(9, 7), k)
        assert verify_weak_k_resolving(g97, basis, k).ok
    big_spider = generate(spider(2, 4, 4, 6))
    for k in range(1, 13):
        basis = tree_basis(big_spider, k)
        assert len(basis) == wdim_formula(spider(2, 4, 4, 6), k)
        assert verify_weak_k_resolving(big_spider, basis, k).ok
    print("[PASS] criterion 3: constructive bases verify and are optimal")


def test_criterion_4_sandwich_and_monotonicity():
    for g in random_graph_corpus(count=30, max_n=10):
        rep = compute_kappa(g)
        values = {}
        for k in range(1, rep.kappa + 1):
            res = solve_bruteforce(g, k=k)
            values[k] = res.value
            assert k <= res.value <= g.n
            assert verify_local_k_resolving(g, res.basis, k).ok
        for k in range(1, rep.kappa):
            assert values[k] <= values[k + 1]
        assert values[1] == solve_kmetric_dim(g, 1).value
        for k in range(1, rep.kappa_prime + 1):
            assert values[k] <= solve_kmetric_dim(g, k).value
    print("[PASS] criterion 4: sandwich, monotonicity and local implication "
          "hold on the 30-graph corpus")


def test_criterion_5_split_sum_and_parity_oracles():
    rng = random.Random(140)
    for g in random_tree_corpus(count=20, max_n=14):
        d = plain_distances(g)
        subsets = [tuple(range(g.n))] + [
            tuple(rng.sample(range(g.n), rng.randint(0, g.n))) for _ in range(2)
        ]
        for x in range(g.n):
            for y in range(x + 1, g.n):
                for S in subsets:
                    split_sum = delta_tree_pair(g, x, y, S)
                    assert split_sum == delta_over_set(g, x, y, S)
                    assert split_sum == plain_delta_set(d, x, y, S)
    parity_graphs = [generate(grid(q, r)) for q in range(2, 6) for r in range(q, 6)]
    parity_graphs += [generate(cycle(n)) for n in range(4, 13, 2)]
    for g in parity_graphs:
        d = g.distance_matrix
        for x in range(g.n):
            for y in range(x + 1, g.n):
                if d[x, y] % 2 == 1:  # distinct sides of the bipartition
                    assert min(delta_pair(g, x, y).per_vertex) >= 1
    print("[PASS] criterion 5: path-split sums and bipartite parity verified")


def test_criterion_6_branch_and_bound_certification():
    vertex_corpus = family_corpus(max_n=10) + random_graph_corpus(count=10, max_n=9)
    for g in vertex_corpus:
        kappa, _ = variant_kappa(g, Variant.VERTEX)
        for k in range(1, kappa + 1):
            started = time.perf_counter()
            assert solve_bnb(g, k=k).value == solve_bruteforce(g, k=k).value
            assert time.perf_counter() - started < 10.0
    variant_specs = (
        [path(n) for n in range(2, 11)]
        + [cycle(n) for n in range(3, 11)]
        + [star(n) for n in range(4, 11)]
    )
    for spec in variant_specs:
        g = generate(spec)
        for variant in (Variant.EDGE, Variant.MIXED):
            kappa, _ = variant_kappa(g, variant)
            if kappa is None:
                assert solve_bnb(g, variant, 1).value == 0
                assert solve_bruteforce(g, variant, 1).value == 0
                continue
            for k in range(1, kappa + 1):
                started = time.perf_counter()
                assert (
                    solve_bnb(g, variant, k).value
                    == solve_bruteforce(g, variant, k).value
                )
                assert time.perf_counter() - started < 10.0
    started = time.perf_counter()
    assert solve_bruteforce(petersen(), k=2).value == PETERSEN_WDIM2
    assert solve_bnb(petersen(), k=2).value == PETERSEN_WDIM2
    assert time.perf_counter() - started < 10.0
    print("[PASS] criterion 6: branch-and-bound certified against brute force")


def test_criterion_7_twin_classification():
    corpus = (
        family_corpus()
        + random_graph_corpus(count=30, max_n=10)
        + random_tree_corpus(count=20, max_n=14)
        + [petersen(), bull()]
    )
    for g in corpus:
        rep = compute_kappa(g)
        assert (rep.kappa == 2) == bool(find_twins(g)[0])
    for spec in [star(n) for n in range(4, 11)] + [
        complete_bipartite(q, r) for q in range(2, 6) for r in range(2, 6)
    ]:
        g = generate(spec)
        rep = compute_kappa(g)
        assert rep.kappa == 4
        assert rep.classification == KappaClass.FALSE_TWINS
        assert tuple(rep.evidence) in find_twins(g)[1]
    # hand-built witness for the structural kappa=3 condition, then the
    # construction is validated by the kappa computation itself
    b = bull()
    x, y, z = weak3_structure_witness(b)
    assert b.has_edge(x, y)
    closed_x = set(b.adjacency[x]) | {x}
    closed_y = set(b.adjacency[y]) | {y}
    assert closed_x - {z} == closed_y
    rep = compute_kappa(b)
    assert rep.kappa == 3
    assert rep.classification == KappaClass.STRUCTURAL_3
    assert delta_pair(b, x, y).total == 3
    print("[PASS] criterion 7: twin-based classification confirmed on the corpus")

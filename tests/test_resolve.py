"""Difference profiles, kappa, classification, and the three verifiers."""

import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    bipartition_classes,
    bull,
    family_corpus,
    plain_delta_set,
    plain_distances,
    plain_distinguisher_count,
    plain_item_rows,
    random_connected_graph,
    random_graph_corpus,
    random_tree_corpus,
    random_tree_graph,
)

from weakdim import (
    KappaClass,
    SameVertex,
    TrivialGraph,
    build_graph,
    complete,
    complete_bipartite,
    compute_kappa,
    cycle,
    delta_over_set,
    delta_pair,
    find_twins,
    generate,
    grid,
    parse_family,
    path,
    star,
    verify_k_resolving,
    verify_local_k_resolving,
    verify_weak_k_resolving,
    weak3_structure_witness,
)
from weakdim import families, graph, resolve, solver
from weakdim.resolve import lex_min, pair_count, pair_sum
from weakdim.solver import (
    Certificate,
    Variant,
    certificate_for,
    certificates_for,
    variant_kappa,
    verify_set,
)


class TestDeltaPair:
    def test_even_cycle_adjacent_pair_all_ones(self):
        g = generate(cycle(6))
        prof = delta_pair(g, 0, 1)
        assert prof.per_vertex == (1,) * 6
        assert prof.total == 6 and prof.support_size == 6

    def test_false_twins_total_four(self):
        g = generate(complete_bipartite(2, 3))
        prof = delta_pair(g, 0, 1)  # both in the q-part
        assert prof.total == 4
        assert prof.support_size == 2
        assert prof.per_vertex[0] == 2 and prof.per_vertex[1] == 2

    def test_complete_graph_pair_total_two(self):
        g = generate(complete(4))
        assert delta_pair(g, 1, 3).total == 2

    def test_own_entries_equal_pair_distance(self):
        for g in family_corpus(max_n=10):
            d = g.distance_matrix
            prof = delta_pair(g, 0, g.n - 1)
            assert prof.per_vertex[0] == d[0, g.n - 1]
            assert prof.per_vertex[g.n - 1] == d[0, g.n - 1]
            assert prof.total == sum(prof.per_vertex)

    def test_same_vertex_rejected(self):
        with pytest.raises(SameVertex):
            delta_pair(generate(path(3)), 1, 1)


class TestDeltaOverSet:
    def test_empty_set_is_zero(self):
        assert delta_over_set(generate(path(4)), 0, 2, []) == 0

    def test_full_set_equals_total(self):
        g = generate(cycle(7))
        assert delta_over_set(g, 0, 3, range(7)) == delta_pair(g, 0, 3).total

    def test_path_endpoints(self):
        assert delta_over_set(generate(path(5)), 1, 3, [0, 4]) == 4

    def test_monotone_in_set(self):
        rng = random.Random(911)
        for g in random_graph_corpus(count=8, max_n=9, seed=5150):
            for _ in range(5):
                x, y = rng.sample(range(g.n), 2)
                small = rng.sample(range(g.n), rng.randint(0, g.n - 1))
                extra = small + rng.sample(range(g.n), 1)
                assert delta_over_set(g, x, y, small) <= delta_over_set(g, x, y, extra)

    def test_matches_plain_oracle(self):
        rng = random.Random(23)
        for g in random_graph_corpus(count=6, max_n=8, seed=321):
            d = plain_distances(g)
            for _ in range(10):
                x, y = rng.sample(range(g.n), 2)
                S = rng.sample(range(g.n), rng.randint(0, g.n))
                assert delta_over_set(g, x, y, S) == plain_delta_set(d, x, y, S)

    def test_out_of_range_member_rejected(self):
        from weakdim import VertexOutOfRange

        with pytest.raises(VertexOutOfRange):
            delta_over_set(generate(path(4)), 0, 2, [0, 9])


class TestComputeKappa:
    def test_complete_graphs_are_weak_2(self):
        for n in range(2, 9):
            rep = compute_kappa(generate(complete(n)))
            assert rep.kappa == 2
            assert rep.classification == KappaClass.TRUE_TWINS

    def test_stars_are_weak_4(self):
        for n in range(4, 11):
            rep = compute_kappa(generate(star(n)))
            assert rep.kappa == 4
            assert rep.classification == KappaClass.FALSE_TWINS

    def test_cycles_odd_even(self):
        assert compute_kappa(generate(cycle(7))).kappa == 6
        assert compute_kappa(generate(cycle(8))).kappa == 8

    def test_trivial_graph_rejected(self):
        with pytest.raises(TrivialGraph):
            compute_kappa(build_graph(1, []))

    def test_witness_pair_attains_kappa(self):
        for g in family_corpus(max_n=12):
            rep = compute_kappa(g)
            x, y = rep.witness_pair
            assert delta_pair(g, x, y).total == rep.kappa
            assert rep.kappa_prime <= rep.kappa
            assert 2 <= rep.kappa <= g.n

    def test_worker_count_does_not_change_report(self):
        for g in family_corpus(max_n=10)[::5]:
            assert compute_kappa(g, workers=3) == compute_kappa(g)

    def test_bull_graph_is_weak_3_structural(self):
        rep = compute_kappa(bull())
        assert rep.kappa == 3
        assert rep.classification == KappaClass.STRUCTURAL_3
        x, y, z = rep.evidence
        assert bull().has_edge(x, y)

    def test_structural_witness_absent_on_plain_cycles(self):
        assert weak3_structure_witness(generate(cycle(6))) is None


def plain_worst(g, S, measure, local):
    """Lex-first (value, pair) minimizing ``measure`` over the vertex pairs,
    or over the edges only when ``local``; None without such pairs."""
    d = plain_distances(g)
    pairs = ([(x, y) for x in range(g.n) for y in g.adjacency[x] if x < y] if local
             else combinations(range(g.n), 2))
    return min(((measure(d, x, y, S), (x, y)) for x, y in pairs), default=None)


# verifier, its plain measure, and whether it checks the edges only
VERIFIERS = {
    "weak": (verify_weak_k_resolving, plain_delta_set, False),
    "count": (verify_k_resolving, plain_distinguisher_count, False),
    "local": (verify_local_k_resolving, plain_distinguisher_count, True),
}


class TestVerifiers:
    @pytest.mark.parametrize("name", list(VERIFIERS))
    def test_against_plain_oracle(self, name, monkeypatch):
        """Ok flag, lex-first witness and value at k = worst - 1, worst and
        worst + 1 on random graphs and trees, n = 1 and 2, and K4 (ties),
        with one ``lex_min`` call per check; the sum over the whole vertex
        set takes the kappa routes, which on trees and true twins make none."""
        verifier, measure, local = VERIFIERS[name]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return lex_min(*args, **kwargs)

        monkeypatch.setattr(solver, "lex_min", counting)
        monkeypatch.setattr(resolve, "lex_min", counting)
        rng = random.Random(5309)
        graphs = random_graph_corpus() + random_tree_corpus()
        graphs += [build_graph(1, []), generate(path(2)), generate(complete(4))]
        for g in graphs:
            subsets = [[], list(range(g.n))]
            subsets += [sorted(rng.sample(range(g.n), rng.randint(0, g.n))) for _ in range(3)]
            for S in subsets:
                worst = plain_worst(g, S, measure, local)
                for k in [1] if worst is None else [worst[0] - 1, worst[0], worst[0] + 1]:
                    calls.clear()
                    res = verifier(g, S, k)
                    assert len(calls) == 1 or (name == "weak" and len(S) == g.n and not calls)
                    if worst is None:
                        assert res == (True, None, None)
                    else:
                        value, pair = worst
                        ok = value >= k
                        assert res == (ok, None if ok else pair, value), (g, S, k)
                    if name == "weak":
                        assert res == verify_set(g, Variant.VERTEX, S, k)

    def test_local_witness_is_the_lex_first_tied_edge(self):
        # in K4 the probe 0 separates 0 from each neighbor and no other edge:
        # (1, 2), (1, 3) and (2, 3) tie at 0, and (1, 2) comes first
        res = verify_local_k_resolving(generate(complete(4)), [0], 1)
        assert res == (False, (1, 2), 0)

    def test_full_set_at_kappa(self):
        for g in family_corpus(max_n=12):
            kappa = compute_kappa(g).kappa
            assert verify_weak_k_resolving(g, range(g.n), kappa).ok
            res = verify_weak_k_resolving(g, range(g.n), kappa + 1)
            assert not res.ok and res.value == kappa

    def test_path_prefixes_resolve(self):
        for n in (5, 9):
            g = generate(path(n))
            for k in range(1, n + 1):
                assert verify_weak_k_resolving(g, range(k), k).ok

    def test_odd_cycle_k_set_falls_one_short(self):
        g = generate(cycle(5))
        for k in range(1, 5):
            res = verify_weak_k_resolving(g, range(k), k)
            assert not res.ok and res.value == k - 1

    def test_failing_pair_is_lex_smallest_minimizer(self):
        g = generate(star(6))
        res = verify_weak_k_resolving(g, [1, 2], 1)
        # leaves 3, 4, 5 all have delta 0 pairs; (3, 4) is lex first
        assert res == (False, (3, 4), 0)

    def test_count_verifier_pigeonhole(self):
        g = generate(cycle(6))
        assert not verify_k_resolving(g, [0, 1], 3).ok

    def test_count_verifier_full_cycle(self):
        g = generate(cycle(6))
        d = plain_distances(g)
        worst = min(
            plain_distinguisher_count(d, x, y, range(6))
            for x in range(6)
            for y in range(x + 1, 6)
        )
        assert worst == 4
        assert verify_k_resolving(g, range(6), 4).ok
        assert not verify_k_resolving(g, range(6), 5).ok

    def test_count_verifier_triangle(self):
        assert verify_k_resolving(generate(complete(3)), range(3), 2).ok

    def test_local_two_adjacent_on_square(self):
        assert verify_local_k_resolving(generate(cycle(4)), [0, 1], 1).ok

    def test_local_empty_set_fails(self):
        res = verify_local_k_resolving(generate(path(3)), [], 1)
        assert not res.ok and res.witness == (0, 1)

    def test_failing_witness_matches_plain_scan(self):
        rng = random.Random(7777)
        for g in random_graph_corpus(count=8, max_n=9, seed=909090):
            d = plain_distances(g)
            for _ in range(4):
                S = rng.sample(range(g.n), rng.randint(0, g.n - 1))
                worst = min(
                    (plain_delta_set(d, x, y, S), (x, y))
                    for x in range(g.n)
                    for y in range(x + 1, g.n)
                )
                res = verify_weak_k_resolving(g, S, worst[0] + 1)
                assert not res.ok
                assert (res.value, res.witness) == worst

    def test_implication_chain_on_random_sets(self):
        rng = random.Random(6001)
        for g in random_graph_corpus(count=10, max_n=9, seed=88):
            for _ in range(6):
                S = rng.sample(range(g.n), rng.randint(1, g.n))
                k = rng.randint(1, 4)
                if verify_k_resolving(g, S, k).ok:
                    assert verify_weak_k_resolving(g, S, k).ok
                if verify_weak_k_resolving(g, S, k).ok:
                    assert verify_local_k_resolving(g, S, k).ok


class TestBipartiteParity:
    def test_cross_part_pairs_always_distinguished(self):
        graphs = [generate(grid(q, r)) for q, r in [(2, 2), (2, 4), (3, 3), (3, 4)]]
        graphs += [generate(cycle(n)) for n in (4, 6, 8, 10)]
        for g in graphs:
            even, odd = bipartition_classes(g)
            for x in even:
                for y in odd:
                    assert min(delta_pair(g, x, y).per_vertex) >= 1


class TestClassificationSoundness:
    def test_exhaustive_small_graph_characterizations(self):
        # every connected labeled graph on 4..6 vertices: kappa=2 iff true
        # twins; kappa=3 iff no true twins and the single-private-neighbor
        # structure exists (both directions); false twins without either
        # structure force kappa=4
        from conftest import all_connected_graphs

        for n in (4, 5, 6):
            for g in all_connected_graphs(n):
                rep = compute_kappa(g)
                true_pairs, false_pairs = find_twins(g)
                witness = weak3_structure_witness(g)
                assert (rep.kappa == 2) == bool(true_pairs)
                assert (rep.kappa == 3) == (not true_pairs and witness is not None)
                if false_pairs and not true_pairs and witness is None:
                    assert rep.kappa == 4

    def test_weak2_iff_true_twins(self):
        corpus = family_corpus(max_n=12) + random_graph_corpus(count=15, seed=3111)
        for g in corpus:
            rep = compute_kappa(g)
            has_true = bool(find_twins(g)[0])
            assert (rep.kappa == 2) == has_true
            if rep.kappa == 2:
                assert rep.classification == KappaClass.TRUE_TWINS
                x, y = rep.evidence
                assert (x, y) in find_twins(g)[0]

    def test_weak4_false_twins_evidence(self):
        for spec in [star(5), star(8), complete_bipartite(2, 2), complete_bipartite(3, 5)]:
            g = generate(spec)
            rep = compute_kappa(g)
            assert rep.kappa == 4
            assert rep.classification == KappaClass.FALSE_TWINS
            assert tuple(rep.evidence) in find_twins(g)[1]
            assert weak3_structure_witness(g) is None


def sparse_graph(seed: int, n: int):
    """Seeded random tree plus n // 4 extra edges."""
    rng = random.Random(seed)
    edges = set(random_tree_graph(rng, n).edges())
    while len(edges) < n - 1 + n // 4:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return build_graph(n, sorted(edges))


def dense_lex_min(d, cols):
    """Plain dense scan over every pair: the lex-first (value, pair)
    minimizing the difference sum and the distinguisher count over ``cols``."""
    D = np.array(d, dtype=np.int64)[:, list(cols)]
    sums, counts = [], []
    for a in range(len(D) - 1):  # one head row at a time: all blocks at once take n^3 words
        block = np.abs(D[a + 1:] - D[a])
        sums.append(block.sum(axis=1))
        counts.append((block != 0).sum(axis=1))
    sums, counts = np.concatenate(sums), np.concatenate(counts)
    pairs = [(a, b) for a in range(len(D)) for b in range(a + 1, len(D))]
    i, j = int(sums.argmin()), int(counts.argmin())
    return (int(sums[i]), pairs[i]), (int(counts[j]), pairs[j])


# Tie-heavy families (n <= 64 or kappa' near n: the scan stays dense) and
# inputs with n > 64 and small incumbents, where it abandons pairs.
SCAN_FAMILIES = ["cycle:7", "cycle:8", "cycle:31", "complete:6", "kqr:3,4",
                 "grid:9x7", "path:130", "complete:100", "kqr:40,40",
                 "star:90", "grid:20x20"]
SCAN_SPARSE = [(1, 60), (2, 97), (3, 150), (4, 200)]


def scan_graphs():
    return ([pytest.param(generate(parse_family(f)), id=f) for f in SCAN_FAMILIES]
            + [pytest.param(sparse_graph(s, n), id=f"sparse{n}") for s, n in SCAN_SPARSE])


class TestScanAgainstDenseOracle:
    @pytest.mark.parametrize("g", scan_graphs())
    def test_compute_kappa(self, g):
        (kappa, pair), (kappa_prime, _) = dense_lex_min(plain_distances(g), range(g.n))
        for workers in (1, 2, 3):
            rep = compute_kappa(g, workers=workers)
            assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (
                kappa, kappa_prime, pair)

    @pytest.mark.parametrize("g", scan_graphs())
    def test_verifiers_and_certificate_on_random_subsets(self, g):
        rng = random.Random(g.n)
        d = plain_distances(g)
        sizes = [1, 2, rng.randint(3, g.n), g.n]
        for S in [sorted(rng.sample(range(g.n), m)) for m in sizes]:
            (total, pair), (count, count_pair) = dense_lex_min(d, S)
            assert verify_weak_k_resolving(g, S, total) == (True, None, total)
            assert verify_weak_k_resolving(g, S, total + 1) == (False, pair, total)
            assert verify_k_resolving(g, S, count) == (True, None, count)
            assert verify_k_resolving(g, S, count + 1) == (False, count_pair, count)
            assert certificate_for(g, Variant.VERTEX, S) == Certificate(*pair, total)

    @pytest.mark.parametrize("batch", [1, 50, 700])
    def test_dense_batches_keep_the_lex_first_pair(self, monkeypatch, batch):
        """With at most 64 columns the scan takes every pair from the pair
        stream, in blocks of about ``_PAIR_BATCH`` entries over several
        head rows: wherever the blocks split the heads, the witness stays
        the lex-first minimizer."""
        monkeypatch.setattr(resolve, "_PAIR_BATCH", batch)
        for f in ("cycle:8", "complete:6", "kqr:3,4", "grid:9x7"):
            g = generate(parse_family(f))
            (kappa, pair), (kappa_prime, _) = dense_lex_min(plain_distances(g), range(g.n))
            for workers in (1, 2, 3):
                rep = compute_kappa(g, workers=workers)
                assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (
                    kappa, kappa_prime, pair)
        rng = random.Random(batch)
        for f in ("path:130", "grid:20x20"):
            g = generate(parse_family(f))
            d = plain_distances(g)
            for m in (0, 1, 2, 40, 64):
                S = sorted(rng.sample(range(g.n), m))
                hits = lex_min(g.distance_matrix[:, S], [pair_sum, pair_count])
                assert hits == list(dense_lex_min(d, S))

    @pytest.mark.parametrize("g", [pytest.param(generate(parse_family(f)), id=f)
                                   for f in ("grid:20x20", "kqr:40,40")]
                             + [pytest.param(sparse_graph(4, 200), id="sparse200")])
    def test_scan_abandons_pairs_that_reach_the_incumbent(self, g):
        """Per head row the scan reads a first column slice of width
        min(n, max(64, 2 * incumbent)) and finishes only the pairs whose
        slice sum is below the incumbent: a tie comes later in lex order."""
        D = np.array(plain_distances(g), dtype=np.int64)
        n = g.n
        expected, incumbent = [], None
        for a in range(n - 1):
            block = np.abs(D[a + 1:] - D[a])
            width = n if incumbent is None else min(n, max(64, 2 * incumbent))
            expected.append((n - 1 - a, width))
            if width < n:
                survivors = int((block[:, :width].sum(axis=1) < incumbent).sum())
                if survivors:
                    expected.append((survivors, n - width))
            low = int(block.sum(axis=1).min())
            incumbent = low if incumbent is None else min(incumbent, low)
        seen = []

        def recording_sum(block):
            seen.append(block.shape)
            return pair_sum(block)

        lex_min(g.distance_matrix, [recording_sum])
        assert seen == expected


class Stacked:
    """A matrix reducer: per pair, the difference sum over each column
    subset of ``subsets`` and, last, the distinguisher count over all
    columns (not column-additive as a whole)."""

    def __init__(self, subsets):
        self.subsets = subsets
        self.columns = len(subsets) + 1

    def __call__(self, block):
        return np.stack([pair_sum(block[:, S]) for S in self.subsets] + [pair_count(block)],
                        axis=1)


def pair_arrays(pairs):
    """The ``lex_min`` pair list of ``pairs``, (a, b) tuples in lex order."""
    return tuple(np.array(pairs, dtype=np.intp).reshape(-1, 2).T)


def column_subsets(g):
    rng = random.Random(g.n)
    return [sorted(rng.sample(range(g.n), m)) for m in (0, 1, rng.randint(2, g.n), g.n)]


def per_column_scans(g, subsets, partners=None):
    """The hits of one single-reducer ``lex_min`` per value column of
    ``Stacked`` (over the pairs of ``partners``, if given)."""
    d = g.distance_matrix
    return ([lex_min(d[:, S], [pair_sum], partners=partners)[0] for S in subsets]
            + lex_min(d, [pair_count], partners=partners))


class TestMatrixReducer:
    """A reducer with ``columns`` R returns a (pairs x R) matrix: the pair
    stream keeps the lex-first minimizing pair of each column."""

    @pytest.mark.parametrize("g", scan_graphs())
    def test_columns_match_single_scans_and_the_oracle(self, g):
        subsets = column_subsets(g)
        d = plain_distances(g)
        expected = [dense_lex_min(d, S)[0] for S in subsets] + [dense_lex_min(d, range(g.n))[1]]
        assert per_column_scans(g, subsets) == expected
        for workers in (1, 2):
            assert lex_min(g.distance_matrix, [Stacked(subsets)], workers) == [expected]

    @pytest.mark.parametrize("f", ["complete:4", "cycle:6", "cycle:7", "kqr:3,3"])
    def test_ties_keep_the_lex_first_pair(self, f):
        g = generate(parse_family(f))
        subsets = [list(range(g.n)), [0], [g.n - 1], []]
        (hits,) = lex_min(g.distance_matrix, [Stacked(subsets)])
        d = plain_distances(g)
        assert hits == [dense_lex_min(d, S)[0] for S in subsets] + [dense_lex_min(d, range(g.n))[1]]
        assert hits[-2] == (0, (0, 1))  # every pair ties at 0 over the empty set

    @pytest.mark.parametrize("items", [0, 1])
    def test_fewer_than_two_items(self, items):
        rows = np.zeros((items, 5), dtype=np.int8)
        reducer = Stacked([[0, 1], [2]])
        assert lex_min(rows, [pair_sum, reducer, pair_count]) == [None, [None] * 3, None]

    @pytest.mark.parametrize("batch", [1, 7, 2**40])
    def test_batches_keep_the_lex_first_pair(self, monkeypatch, batch):
        """However the heads split into blocks, each column keeps the lex-first
        minimizer, beside vector reducers in the same call."""
        monkeypatch.setattr(resolve, "_BATCH", batch)
        for f in ("cycle:8", "complete:6", "kqr:3,4", "grid:9x7", "path:130"):
            g = generate(parse_family(f))
            subsets = column_subsets(g)
            expected = per_column_scans(g, subsets)
            d = g.distance_matrix
            assert lex_min(d, [pair_sum, Stacked(subsets), pair_count]) == [
                *lex_min(d, [pair_sum]), expected, *lex_min(d, [pair_count])]

    def test_matrix_reducers_over_partners(self, monkeypatch):
        """Over a partner list or a mask, each column keeps the lex-first
        minimizer among those pairs alone; blocks of one pair and head groups
        of a few split the ties."""
        monkeypatch.setattr(resolve, "_BATCH", 1)
        monkeypatch.setattr(resolve, "_PAIR_BATCH", 7)
        rng = random.Random(5)
        for f in ("cycle:8", "complete:6", "kqr:3,4", "grid:9x7", "path:70"):
            g = generate(parse_family(f))
            subsets = column_subsets(g)
            D = np.array(plain_distances(g), dtype=np.int64)
            for partners in (random_partners(rng, g.n, 0.4), resolve._edge_pairs(g)):
                expected = per_column_scans(g, subsets, partners)
                assert expected == ([per_row_min(D[:, S], partners, pair_sum) for S in subsets]
                                    + [per_row_min(D, partners, pair_count)])
                for workers in (1, 2):
                    for given_as in (partners, as_mask(partners, g.n)):
                        assert lex_min(g.distance_matrix, [Stacked(subsets)], workers,
                                       given_as) == [expected]


def tree_route_off(mp):
    """Send trees to the other routes, which are exact on any graph: the
    router's tree gate reports that every graph reads the matrix."""
    mp.setattr(resolve, "kappa_reads_distances", lambda g: True)


def band_off(mp):
    """Open the mask floor but refuse the sum-gap band, whatever share of
    the pairs it keeps: every check of one item pair or more takes the
    band's seed and parity, and the whole vertex set the thin route where
    ``_thin_pays``."""
    mp.setattr(resolve, "_MASK_FLOOR", 0)
    mp.setattr(resolve, "_BAND_SHARE", -1)


def orbit_off(mp):
    """Send cycles and grids made from a family spec to the routes a file
    takes: the router finds no orbit leaders on any graph."""
    mp.setattr(resolve, "orbit_leaders", lambda spec: None)


def kappa_route(g, workers=1):
    """``((kappa, pair), kappa')`` from the router's whole-vertex-set body."""
    (route,) = resolve._worst_pairs(g, Variant.VERTEX, [range(g.n)], count=True, workers=workers)
    return route


def plus_chord(f, u, v):
    """The graph of family ``f`` plus the edge (u, v): a tree plus one chord
    is no tree, so the router sends it to the twin, thin or scan route."""
    g = generate(parse_family(f))
    return build_graph(g.n, g.edges() + [(u, v)])


def chorded(f, u, v):
    return pytest.param(plus_chord(f, u, v), id=f"{f}+{u}-{v}")


def true_twin_path(n):
    """A path on n - 1 vertices plus vertex n - 1, a true twin of its middle."""
    mid = (n - 1) // 2
    edges = [(i, i + 1) for i in range(n - 2)]
    edges += [(mid - 1, n - 1), (mid, n - 1), (mid + 1, n - 1)]
    return build_graph(n, edges)


def leaves_and_bull(n):
    """False twins 0, 1 (leaves at 2), a path 2..c with c = n - 4, and a bull's
    end at c: x = c + 1 and y = c + 2 adjacent to c and to each other, and
    z = c + 3 a pendant at x, so that only {x, y, z} separate x and y."""
    c = n - 4
    x, y, z = c + 1, c + 2, c + 3
    edges = [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, c)]
    return build_graph(n, edges + [(c, x), (c, y), (x, y), (x, z)])


def four_cycle_and_commons(n):
    """The 4-cycle 0-1-2-3-0 plus vertices 4..n-1 adjacent to both 0 and 1:
    those are false twins, and the adjacent pair (0, 1) also sums to 4."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    return build_graph(n, edges + [(u, v) for v in range(4, n) for u in (0, 1)])


class TestTwinShortcuts:
    """Twins settle kappa': any twin pair gives 2. True twins settle kappa
    (2, at the first true-twin pair) without a scan; false twins alone
    leave the adjacent pairs and the first false-twin pair, with no scan
    on a bipartite graph."""

    @pytest.mark.parametrize("n", [8, 80])
    def test_true_twins(self, n, monkeypatch):
        g = true_twin_path(n)
        true_pairs, _ = find_twins(g)
        (kappa, pair), (kappa_prime, _) = dense_lex_min(plain_distances(g), range(n))
        assert (kappa, kappa_prime, pair) == (2, 2, true_pairs[0]) == (2, 2, ((n - 1) // 2, n - 1))

        def no_scan(*args, **kwargs):
            raise AssertionError("scanned despite true twins")

        monkeypatch.setattr(resolve, "lex_min", no_scan)
        for workers in (1, 2):
            rep = compute_kappa(g, workers=workers)
            assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (kappa, kappa_prime, pair)
            assert (rep.classification, rep.evidence) == (KappaClass.TRUE_TWINS, pair)

    @pytest.mark.parametrize("n", [8, 80])
    def test_false_twins_and_an_adjacent_sum_of_3(self, n):
        g = leaves_and_bull(n)
        true_pairs, false_pairs = find_twins(g)
        (kappa, pair), (kappa_prime, _) = dense_lex_min(plain_distances(g), range(n))
        assert not true_pairs and false_pairs[0] == (0, 1)
        assert (kappa, kappa_prime) == (3, 2) and pair > false_pairs[0]
        for workers in (1, 2):
            rep = compute_kappa(g, workers=workers)
            assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (kappa, kappa_prime, pair)
            assert rep.classification == KappaClass.STRUCTURAL_3

    @pytest.mark.parametrize("n", [8, 80])
    def test_false_twins_and_an_earlier_adjacent_sum_of_4(self, n):
        g = four_cycle_and_commons(n)
        true_pairs, false_pairs = find_twins(g)
        (kappa, pair), (kappa_prime, _) = dense_lex_min(plain_distances(g), range(n))
        assert not true_pairs and false_pairs[0] == (4, 5)
        # the adjacent pair ties with the false twins and comes first
        assert (kappa, kappa_prime, pair) == (4, 2, (0, 1))
        for workers in (1, 2):
            rep = compute_kappa(g, workers=workers)
            assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (kappa, kappa_prime, pair)
            assert (rep.classification, rep.evidence) == (KappaClass.FALSE_TWINS, (4, 5))

    @pytest.mark.parametrize("g", [pytest.param(f(80), id=f.__name__)
                                   for f in (leaves_and_bull, four_cycle_and_commons)]
                             + [pytest.param(generate(star(90)), id="star:90"),
                                pytest.param(generate(complete_bipartite(2, 88)), id="kqr:2,88")])
    def test_false_twins_scan_only_the_adjacent_pairs(self, g, monkeypatch):
        """The first false-twin pair is compared with the edges' hit by
        ``min``, not scanned. Off bipartite graphs only edges with a sum
        gap of at most 4 are scanned, among them every edge that sums to
        at most 4; on a bipartite graph (``kqr:2,88``, which reaches the
        twin route by itself, and the tree ``star:90``, which reaches it
        with the tree route off) every edge sums to n and none is."""
        tree_route_off(monkeypatch)
        seen = []

        def recording(rows, reducers, workers=1, partners=None, heads=None):
            seen.append(([r.__name__ for r in reducers], set(listed_pairs(partners, len(rows)))))
            return lex_min(rows, reducers, workers, partners, heads)

        monkeypatch.setattr(resolve, "lex_min", recording)
        rep = compute_kappa(g)
        (kappa, pair), (kappa_prime, _) = dense_lex_min(plain_distances(g), range(g.n))
        assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (kappa, kappa_prime, pair)
        if g.coloring is not None:
            assert seen == []
            return
        (reducers, pairs), = seen
        assert reducers == ["pair_sum"]
        D = np.array(plain_distances(g), dtype=np.int64)
        sigma = D.sum(axis=1)
        near = {(x, y) for x, y in g.edges() if abs(sigma[x] - sigma[y]) <= 4}
        low = {(x, y) for x, y in g.edges() if np.abs(D[x] - D[y]).sum() <= 4}
        assert low <= pairs == near

    def test_partner_scans_run_on_one_thread(self, monkeypatch):
        """A pair-list scan's round-robin parts would not share an incumbent,
        so a part without a small pair would never abandon one."""
        def refuse(*args, **kwargs):
            raise AssertionError("a partner scan started threads")

        g = generate(parse_family("kqr:40,40"))
        partners = resolve._edge_pairs(g)
        expected = compute_kappa(g), lex_min(g.distance_matrix, [pair_sum], 1, partners)
        monkeypatch.setattr(resolve, "ThreadPoolExecutor", refuse)
        assert compute_kappa(g, workers=2) == expected[0]
        assert lex_min(g.distance_matrix, [pair_sum], 2, partners) == expected[1]

    @pytest.mark.parametrize("g", scan_graphs())
    def test_lex_min_over_partner_subsets(self, g):
        """``partners`` restricts the scan to a pair subset: the result is the
        lex-first minimizer over that subset alone, for any worker count."""
        rng = random.Random(g.n)
        D = np.array(plain_distances(g), dtype=np.int64)
        for keep in (0.02, 0.3):
            pairs = [(a, b) for a in range(g.n) for b in range(a + 1, g.n) if rng.random() < keep]
            partners = pair_arrays(pairs)
            expected = [
                min(((int(reduce(np.abs(D[b] - D[a])[None])[0]), (a, b)) for a, b in pairs),
                    default=None)
                for reduce in (pair_sum, pair_count)
            ]
            for workers in (1, 2):
                assert lex_min(g.distance_matrix, [pair_sum, pair_count], workers,
                               partners) == expected


def plain_equidistant(d):
    """eq[x, y] = #{s : d(s, x) = d(s, y)} for every pair, by a dense compare."""
    D = np.array(d, dtype=np.int64)
    eq = np.zeros((len(D), len(D)), dtype=np.int64)
    for row in D:  # one source at a time: the whole compare takes n^3 bytes
        eq += row[:, None] == row
    return eq


def plain_thin_figures(g):
    """E (the equidistant triples) and the largest eq over pairs x < y."""
    eq = plain_equidistant(plain_distances(g))
    upper = eq[np.triu_indices(g.n, 1)]
    return int(upper.sum()), int(upper.max(initial=0))


def scan_route(g):
    (kappa, pair), (kappa_prime, _) = lex_min(g.distance_matrix, [pair_sum, pair_count])
    return (kappa, pair), kappa_prime


def oracle_route(g):
    (kappa, pair), (kappa_prime, _) = dense_lex_min(plain_distances(g), range(g.n))
    return (kappa, pair), kappa_prime


def thin_route(g):
    """The router's thin route on any graph, trees, twin graphs, cycles and
    grids too: the tree and orbit routes are off, the twin lookup reports
    no twins, the sum-gap band, which goes first, is refused, and the
    route's estimate (with its floor) is taken as met. The equidistant
    count, which only the thin route makes, must run."""
    counted = []
    count = resolve._max_equidistant
    with pytest.MonkeyPatch.context() as mp:
        tree_route_off(mp)
        orbit_off(mp)
        band_off(mp)
        mp.setattr(resolve, "_thin_pays", lambda d, criteria, bipartite: True)
        mp.setattr(resolve, "_twin_hit", lambda g, S: None)
        mp.setattr(resolve, "_max_equidistant", lambda d: counted.append(d) or count(d))
        result = kappa_route(g)
    assert counted, "the thin route was not taken"
    return result


# long, thin graphs; the small ones have twins, which compute_kappa settles
# first, and the paths and spiders are trees, which it sends to the tree
# route, but both routes are exact on any graph
THIN_FAMILIES = ["path:2", "path:3", "path:130", "cycle:3", "cycle:4", "cycle:131",
                 "spider:1,2,3", "spider:40,45,50", "grid:3x40"]
# the paths and spiders plus one chord, which reach the same routes as no
# tree: path:4 + (0, 2) has true twins, path:5 + (0, 3) false twins, and the
# others close a cycle with a tail
THIN_CHORDS = [("path:4", 0, 2), ("path:5", 0, 3), ("path:130", 0, 4),
               ("spider:1,2,3", 1, 6), ("spider:40,45,50", 40, 135)]


def thin_graphs():
    return ([pytest.param(generate(parse_family(f)), id=f) for f in THIN_FAMILIES]
            + [chorded(*c) for c in THIN_CHORDS])


@st.composite
def twin_free_graphs(draw, max_n=40):
    """A random tree on 4..max_n vertices (every connected graph on three
    has twins) plus up to n chords, made twin-free by more chords: while a
    twin pair (u, v) is left, u gets a chord to a vertex outside N[v],
    which tells the two apart. Only twins adjacent to every other vertex
    have no such chord; those rare draws are rejected."""
    n = draw(st.integers(4, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(pair, max_size=n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    while True:
        g = build_graph(n, sorted(edges))
        true_pairs, false_pairs = find_twins(g)
        if not true_pairs and not false_pairs:
            return g
        u, v = (true_pairs + false_pairs)[0]
        outside = [w for w in range(n) if w not in (u, v) and w not in g.adjacency[v]]
        assume(outside)
        w = draw(st.sampled_from(outside))
        edges.add((min(u, w), max(u, w)))


class TestThinRoute:
    """On twin-free graphs with few equidistant pairs, kappa is a sum scan
    over the pairs the geodesic bound lets through, and kappa' is n minus
    the largest equidistant class count: the same values and witness as the
    dense scan."""

    @pytest.mark.parametrize("g", scan_graphs() + thin_graphs() + [
        pytest.param(generate(complete_bipartite(2, 88)), id="kqr:2,88")])
    def test_both_routes_match_the_dense_oracle(self, g):
        expected = oracle_route(g)
        assert scan_route(g) == expected
        assert thin_route(g) == expected
        (kappa, pair), kappa_prime = expected
        rep = compute_kappa(g)
        assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (kappa, kappa_prime, pair)

    @settings(max_examples=60, deadline=None)
    @given(twin_free_graphs())
    def test_both_routes_on_random_twin_free_graphs(self, g):
        expected = oracle_route(g)
        assert scan_route(g) == expected
        assert thin_route(g) == expected
        E, top = plain_thin_figures(g)
        assert resolve._equidistant_total(g.distance_matrix, E) == E
        assert resolve._equidistant_total(g.distance_matrix, E - 1) is None
        assert resolve._max_equidistant(g.distance_matrix) == top

    @pytest.mark.parametrize("block", [1, 7, 50, 700])
    def test_count_pass_chunk_boundaries(self, monkeypatch, block):
        """Wherever the row blocks of about ``_EQ_BLOCK`` entries split the
        classes, E and the largest eq stay exact. The last graph, cycle:600
        plus a hub joined to every 15th cycle vertex (E / C(n, 2) about 74),
        has large level classes: the hub's row holds seven of 80 vertices
        and every cycle row one of 78 or 80, so the gap pass runs about 80
        gaps per block, against at most 2 on cycle:31."""
        monkeypatch.setattr(resolve, "_EQ_BLOCK", block)
        graphs = [generate(parse_family(f)) for f in
                  ("path:30", "cycle:31", "spider:3,4,6", "grid:3x12", "complete:9", "star:12")]
        ring = generate(parse_family("cycle:600")).edges()
        graphs.append(build_graph(601, ring + [(v, 600) for v in range(0, 600, 15)]))
        for g in graphs:
            E, top = plain_thin_figures(g)
            assert resolve._equidistant_total(g.distance_matrix, E) == E
            assert resolve._max_equidistant(g.distance_matrix) == top
            assert thin_route(g) == oracle_route(g)

    @pytest.mark.parametrize("g", [
        pytest.param(generate(parse_family(f)), id=f)
        for f in ["path:130", "cycle:131", "spider:40,45,50", "grid:3x40"]]
        + [chorded("path:130", 0, 4), chorded("spider:40,45,50", 40, 135)])
    def test_filter_drops_only_pairs_over_the_seed(self, g, monkeypatch):
        """The band's seed is the least sum of its seed scan's pair list,
        which holds every adjacent pair, so at most their least sum; the
        thin route's sum scan then drops exactly the pairs whose geodesic
        bound (t + 1)^2 // 2, for t = d(x, y), exceeds the seed, and each
        dropped pair sums above it; on bipartite graphs, where every
        adjacent pair sums to n, the scan also drops exactly the odd pairs,
        each with sum at least n and n distinguishers, and a last scan
        reads the odd pairs of ``_odd_pairs``. The trees take the route
        with the tree route off, the cycle and the grid with the orbit
        route off, and every graph with the sum-gap band refused."""
        monkeypatch.setattr(resolve, "_SCAN_FLOOR", 0)
        tree_route_off(monkeypatch)
        orbit_off(monkeypatch)
        band_off(monkeypatch)
        seen, seeds = [], []
        sum_band = resolve._sum_band

        def recording(rows, reducers, workers=1, partners=None, heads=None):
            hit = lex_min(rows, reducers, workers, partners, heads)
            seen.append(([r.__name__ for r in reducers], set(listed_pairs(partners, len(rows))),
                         hit))
            return hit

        def banding(*args):
            band = sum_band(*args)
            seeds.append(band[1])
            return band

        monkeypatch.setattr(resolve, "lex_min", recording)
        monkeypatch.setattr(resolve, "_sum_band", banding)
        kappa_route(g)
        (seed_reducers, seeded, [(least_seeded, _)]), (reducers, kept, _), *odd = seen
        (seed,) = seeds
        assert seed_reducers == reducers == ["pair_sum"]
        assert set(g.edges()) <= seeded
        d = plain_distances(g)
        D = np.array(d, dtype=np.int64)
        least_adjacent = min(int(np.abs(D[x] - D[y]).sum()) for x, y in g.edges())
        assert seed == least_seeded <= least_adjacent
        bipartite = all((d[0][u] - d[0][v]) % 2 for u, v in g.edges())
        assert bipartite == (g.coloring is not None)
        assert not bipartite or least_adjacent == g.n
        assert [pairs for _, pairs, _ in odd] == (
            [set(listed_pairs(resolve._odd_pairs(g), g.n))] if bipartite else [])
        for x, y in combinations(range(g.n), 2):
            bound = (d[x][y] + 1) ** 2 // 2
            odd = bipartite and d[x][y] % 2 == 1
            assert ((x, y) in kept) == (bound <= seed and not odd)
            if bound > seed:
                assert int(np.abs(D[x] - D[y]).sum()) >= bound > seed
            if odd:
                assert int(np.abs(D[x] - D[y]).sum()) >= g.n == np.count_nonzero(D[x] - D[y])

    def test_count_pass_peak_memory(self):
        """The count accumulator holds the C(n, 2) pairs x < y in the distance
        dtype: on path:2000 (int16) 3.8 MiB, where an n x n square took
        7.6 MiB and the pass peaked at 9.9 MiB."""
        resolve._max_equidistant(generate(parse_family("path:30")).distance_matrix)  # warm-up
        d = generate(parse_family("path:2000")).distance_matrix
        tracemalloc.start()
        try:
            assert resolve._max_equidistant(d) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 2**20

    def test_route_choice(self, monkeypatch):
        """E / C(n, 2) is at most 5 on the long, thin graphs and at least 12
        on the grids and random graphs where the scan wins; the estimate
        stops at 8 C(n, 2)."""
        thin = ["path:600", "cycle:601", "spider:200,200,200", "grid:4x150"]
        dense = ["grid:24x24", "grid:10x60"]
        graphs = [generate(parse_family(f)) for f in thin + dense]
        graphs.append(sparse_graph(9, 600))
        picks = [resolve._thin_pays(g.distance_matrix, 1, g.coloring is not None) for g in graphs]
        assert picks == [True] * len(thin) + [False] * (len(dense) + 1)
        # an accumulator that cannot fit keeps the scan, with the same report
        g = graphs[0]
        expected = compute_kappa(g)
        monkeypatch.setattr(resolve, "MAX_BYTES", 2 * g.distance_matrix.nbytes)
        assert not resolve._thin_pays(g.distance_matrix, 2, True)
        assert compute_kappa(g) == expected

    @pytest.mark.parametrize("f, thin, scans", [("cycle:601", True, 1), ("cycle:600", True, 1),
                                                ("grid:4x150", False, 2)])
    def test_workers_split_the_thin_scan(self, f, thin, scans, monkeypatch):
        """The thin route's sum scan, over a mask (with parity on the even
        cycle), is split across the workers as the band's sum and count
        scans are (``grid:4x150`` takes the band), and the report is the
        one-worker report and the dense scan's. The cycles take the thin
        route with the orbit route off, as from a file."""
        orbit_off(monkeypatch)
        g = generate(parse_family(f))
        expected = compute_kappa(g)
        started, counted = [], []
        pool, count = resolve.ThreadPoolExecutor, resolve._max_equidistant

        def recording(max_workers):
            started.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(resolve, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(resolve, "_max_equidistant", lambda d: counted.append(d) or count(d))
        rep = compute_kappa(generate(parse_family(f)), workers=2)
        assert bool(counted) == thin
        assert rep == expected and started == [2] * scans
        (kappa, pair), kappa_prime = oracle_route(g)
        assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (kappa, kappa_prime, pair)

    def test_floor_by_bipartiteness(self):
        """The thin route may run from ``_SCAN_FLOOR`` entries on bipartite
        graphs, where the scan reads only the same-color pairs, and on
        others wherever the router reaches it, above ``_MASK_FLOOR``
        entries (n x C(n, 2)): ``cycle:81``, whose row sums are all equal
        so that the band is refused, takes it with the orbit route off, and
        ``cycle:79`` below the floor is one plain scan."""
        d = generate(parse_family("cycle:101")).distance_matrix
        assert 2 * 101 * 5050 <= resolve._SCAN_FLOOR
        assert resolve._thin_pays(d, 2, False)
        assert not resolve._thin_pays(d, 2, True)
        assert resolve._thin_pays(generate(parse_family("cycle:11")).distance_matrix, 2, False)
        for n, thin in ((79, False), (81, True)):
            assert (n * n * (n - 1) // 2 > resolve._MASK_FLOOR) == thin
            g = generate(parse_family(f"cycle:{n}"))
            with pytest.MonkeyPatch.context() as mp:
                orbit_off(mp)
                rep, log = recorded_route(lambda: compute_kappa(g))
            assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (n - 1, n - 1, (0, 1))
            assert ("count" in log) == thin
            assert (log == [None]) == (not thin)


def router_graphs():
    return ([pytest.param(g, id=f"rand{i}") for i, g in enumerate(random_graph_corpus())]
            + thin_graphs()
            + [pytest.param(make(n), id=f"{make.__name__}{n}") for n in (8, 80)
               for make in (true_twin_path, leaves_and_bull, four_cycle_and_commons)])


def listed_pairs(partners, n, heads=None):
    """The pairs (a, b) of ``lex_min`` partners over n items, in lex order:
    a pair list's as given, a mask function's read off its rows, every
    pair for None; with ``heads``, only those whose a is one of them."""
    if partners is None or callable(partners):
        keep = np.ones((n, n), dtype=bool) if partners is None else partners(np.arange(n))
        partners = np.nonzero(np.triu(keep, 1))
    pairs = list(zip(*(p.tolist() for p in partners)))
    if heads is None:
        return pairs
    kept = set(heads.tolist())
    return [p for p in pairs if p[0] in kept]


def recorded_route(run):
    """The scans ``run()`` makes, in order: the listed pairs of each
    ``lex_min`` call of the sum (None for all pairs), and "count" for each
    call of the equidistant count or scan of the count alone."""
    log = []

    def recording(rows, reducers, workers=1, partners=None, heads=None):
        if reducers == [pair_count]:
            log.append("count")
        else:
            assert reducers[0] is pair_sum
            log.append(None if partners is None and heads is None
                       else listed_pairs(partners, len(rows), heads))
        return lex_min(rows, reducers, workers, partners, heads)

    def counting(d):
        log.append("count")
        return max_equidistant(d)

    max_equidistant = resolve._max_equidistant
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolve, "lex_min", recording)
        mp.setattr(resolve, "_max_equidistant", counting)
        result = run()
    return result, log


def pruefer_tree_with_false_twins(n):
    """The first seeded random tree on n vertices with two leaves at one vertex."""
    for seed in range(100):
        g = random_tree_graph(random.Random(seed), n)
        if find_twins(g)[1]:
            return g


def plus_chord_keeping_false_twins(g):
    """``g`` plus its lex-first chord that leaves false twins and makes no
    true twins: a sparse twin graph that is no tree."""
    for u, v in combinations(range(g.n), 2):
        if not g.has_edge(u, v):
            h = build_graph(g.n, g.edges() + [(u, v)])
            true_pairs, false_pairs = find_twins(h)
            if false_pairs and not true_pairs:
                return h


def thin_forced(mp):
    """Set ``_SCAN_FLOOR`` to 0, turn the orbit route off, open the mask
    floor and refuse the sum-gap band: every twin-free graph that is no
    tree, and has few equidistant pairs, as every router graph has, takes
    the thin route."""
    mp.setattr(resolve, "_SCAN_FLOOR", 0)
    orbit_off(mp)
    band_off(mp)


# Fixed ids, which do not follow the floor's value: "0" is the thin route
# forced (``thin_forced``), "8388608" the policy as it stands.
ROUTER_POLICIES = pytest.mark.parametrize("forced", [True, False], ids=["0", "8388608"])


class TestKappaRouter:
    """One router, one policy, serves ``compute_kappa`` (sum and count) and
    the vertex ``variant_kappa`` (sum only): the twin hit first, read off
    the graph's cached twin classes; ``_MASK_FLOOR``, the band and
    ``_thin_pays`` gate the thin route."""

    @ROUTER_POLICIES
    @pytest.mark.parametrize("g", router_graphs())
    def test_both_callers_match_the_dense_oracle(self, g, forced, monkeypatch):
        if forced:
            thin_forced(monkeypatch)
        (kappa, pair), kappa_prime = oracle_route(g)
        assert variant_kappa(g, Variant.VERTEX) == (kappa, pair)
        rep, log = recorded_route(lambda: compute_kappa(g))
        assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (kappa, kappa_prime, pair)
        assert variant_kappa(build_graph(1, []), Variant.VERTEX) == (None, None)
        if forced:
            thin = resolve.kappa_reads_distances(g) and find_twins(g) == ([], [])
            assert ("count" in log) == thin, "the equidistant count ran only on the thin route"

    @ROUTER_POLICIES
    @pytest.mark.parametrize("g", router_graphs())
    def test_both_callers_make_the_same_sum_scans(self, g, forced, monkeypatch):
        """The callers make the same sum scans over the same partners (or
        every pair), whichever of them builds the twin classes; only
        ``compute_kappa`` makes the equidistant count, for kappa'."""
        if forced:
            thin_forced(monkeypatch)
        _, wdim_log = recorded_route(lambda: variant_kappa(g, Variant.VERTEX))
        _, kappa_log = recorded_route(lambda: compute_kappa(g))
        assert "count" not in wdim_log
        assert wdim_log == [scan for scan in kappa_log if scan != "count"]
        if forced:
            thin = resolve.kappa_reads_distances(g) and find_twins(g) == ([], [])
            assert ("count" in kappa_log) == thin

    @pytest.mark.parametrize("f", ["path:400", "cycle:401", "star:300", "star:200",
                                   "kqr:100,100", "pruefer150", "complete:250",
                                   "path:400+0-4", "kqr:2,298", "kqr:2,198", "pruefer150+chord"])
    def test_vertex_variant_kappa_skips_the_dense_pass(self, f):
        """Every scan of the vertex ``variant_kappa`` runs over a partner
        subset, and kappa' (the equidistant count) is never made: no dense
        pass, whatever the timing. ``path:400`` plus a chord takes the
        sum-gap band; ``cycle:401``, whose row sums are all equal, is above
        the floor and takes the thin route; twin
        graphs take the twin route at any size (above the floor:
        ``kqr:2,298``; below it: ``kqr:2,198``, ``kqr:100,100``, a tree on
        150 vertices plus a chord); true twins (``complete:250``), false
        twins on a bipartite graph (the kqr graphs) and trees (``path:400``,
        the stars, the tree on 150 vertices) make no scan."""
        if f == "path:400+0-4":
            g = plus_chord("path:400", 0, 4)
        elif f.startswith("pruefer150"):
            g = pruefer_tree_with_false_twins(150)
            g = plus_chord_keeping_false_twins(g) if f.endswith("+chord") else g
        else:
            g = generate(parse_family(f))
        rep = compute_kappa(g)
        result, log = recorded_route(lambda: variant_kappa(g, Variant.VERTEX))
        assert result == (rep.kappa, rep.witness_pair)
        assert None not in log and "count" not in log
        scans = resolve.kappa_reads_distances(g) and g.coloring is None and f != "complete:250"
        assert bool(log) == scans


# every cycle and grid below the floor, where the orbit route runs only
# with the floor opened, and larger ones that take it as the policy stands
ORBIT_SMALL = ([f"cycle:{n}" for n in range(3, 65)]
               + [f"grid:{q}x{r}" for q in range(2, 13) for r in range(2, 13)])
ORBIT_LARGE = ["cycle:131", "cycle:601", "cycle:1000", "grid:3x40", "grid:24x24", "grid:20x35",
               "grid:40x40"]


def orbit_closure(maps, n):
    """Per vertex, the least vertex reachable from it by ``maps`` (each the
    image of every vertex), by a plain search: its orbit's least vertex."""
    least = []
    for v in range(n):
        seen, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for image in maps:
                w = int(image[u])
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        least.append(min(seen))
    return least


def spec_symmetries(spec):
    """The spec's symmetries, each as the image of every vertex: the
    rotation by one on a cycle (its powers are the rotations); on a grid
    the 4 mirror images of (i, j), the identity among them, and, when
    q = r, the transpose of each."""
    if spec.kind == "cycle":
        return [(np.arange(spec.n) + 1) % spec.n]
    q, r = spec.q, spec.r
    i, j = np.divmod(np.arange(q * r), r)
    images = [(a, b) for a in (i, q - 1 - i) for b in (j, r - 1 - j)]
    if q == r:
        images += [(b, a) for a, b in images]
    return [a * r + b for a, b in images]


class TestOrbitRoute:
    """Kappa on a cycle or grid spec above the floor scans only the pairs
    whose head leads its orbit: an automorphism keeps every pair's sum and
    count, so the lex-first minimizer of either, and of either over any
    pair set the automorphisms keep (parity, the sum-gap and count bands),
    has a leader head. The report is the one the same edges give without
    the spec."""

    @pytest.mark.parametrize("f", ORBIT_SMALL + ORBIT_LARGE)
    def test_spec_matches_its_edge_list(self, f):
        """At 1 and 2 workers, and on the small ones with the floor opened
        (``masks_on``: the band whatever it keeps; ``band_off``: no band),
        so that the orbit route runs with every mask, against the dense
        scan."""
        g = generate(parse_family(f))
        plain = build_graph(g.n, g.edges())
        expected = compute_kappa(plain)
        small = f in ORBIT_SMALL
        if small:
            (kappa, pair), (kappa_prime, _) = dense_lex_min(plain_distances(g), range(g.n))
            assert (expected.kappa, expected.kappa_prime, expected.witness_pair) == (
                kappa, kappa_prime, pair)
        for workers in (1, 2):
            assert compute_kappa(plain, workers=workers) == expected
            assert compute_kappa(g, workers=workers) == expected
            for policy in (masks_on, band_off) if small else ():
                with pytest.MonkeyPatch.context() as mp:
                    policy(mp)
                    assert compute_kappa(g, workers=workers) == expected
                    assert variant_kappa(g, Variant.VERTEX) == (expected.kappa,
                                                                 expected.witness_pair)

    @pytest.mark.parametrize("f", ["cycle:3", "cycle:4", "cycle:9", "cycle:30", "grid:2x2",
                                   "grid:2x7", "grid:7x2", "grid:3x8", "grid:8x3", "grid:5x5",
                                   "grid:6x6", "grid:9x12", "grid:12x9"])
    def test_symmetries_are_automorphisms(self, f):
        """Each of the spec's symmetries permutes the vertices and maps the
        edge set of ``generate(spec)`` onto itself, and the leaders are
        exactly the vertices that are the least of their orbit under
        them, ascending."""
        spec = parse_family(f)
        g = generate(spec)
        edges = set(g.edges())
        maps = spec_symmetries(spec)
        for image in maps:
            assert sorted(image.tolist()) == list(range(g.n))
            assert {tuple(sorted((int(image[u]), int(image[v])))) for u, v in edges} == edges
        least = orbit_closure(maps, g.n)
        assert families.orbit_leaders(spec).tolist() == [v for v in range(g.n) if least[v] == v]
        assert len(maps) == (1 if spec.kind == "cycle" else 8 if spec.q == spec.r else 4)

    @pytest.mark.parametrize("f", ["path:9", "star:7", "complete:6", "kqr:3,4", "spider:1,2,3"])
    def test_other_kinds_have_no_leaders(self, f):
        assert families.orbit_leaders(parse_family(f)) is None

    def test_no_leaders_below_the_floor(self, monkeypatch):
        """Up to ``_MASK_FLOOR`` entries (n x C(n, 2)) kappa builds no
        leaders, and past it only kappa does: the edge and mixed variants'
        kappa, a set check of S != V and a sweep take today's routes."""
        built = []
        leaders = resolve.orbit_leaders
        monkeypatch.setattr(resolve, "orbit_leaders",
                            lambda spec: built.append(spec.label()) or leaders(spec))
        for f, above in (("cycle:79", False), ("cycle:81", True), ("grid:8x9", False),
                         ("grid:9x9", True)):
            g = generate(parse_family(f))
            assert (g.n * g.n * (g.n - 1) // 2 > resolve._MASK_FLOOR) == above
            built.clear()
            rep = compute_kappa(g)
            assert built == ([f] if above else [])
            with pytest.MonkeyPatch.context() as mp:
                orbit_off(mp)
                assert compute_kappa(g) == rep
        g = generate(parse_family("grid:20x20"))
        built.clear()
        S = list(range(0, g.n, 2))
        for variant in (Variant.EDGE, Variant.MIXED):
            variant_kappa(g, variant)
        certificate_for(g, Variant.VERTEX, S)
        certificates_for(g, Variant.VERTEX, [S, S[:50]])
        assert built == []

    @pytest.mark.parametrize("f", ["cycle:601", "cycle:1000"])
    def test_cycle_scans_one_row(self, f, monkeypatch):
        """A cycle is one orbit: one scan of the pairs (0, y), of the even y on
        an even cycle (parity), gives kappa and kappa', with no band (every
        row sums the same), no equidistant count and no thread; an even
        cycle adds the odd pairs' scan of (0, 1), a pair list."""
        def refuse(*args, **kwargs):
            raise AssertionError("the orbit scan of one head started threads")

        g = generate(parse_family(f))
        expected = compute_kappa(build_graph(g.n, g.edges()))
        monkeypatch.setattr(resolve, "ThreadPoolExecutor", refuse)
        rep, log = recorded_route(lambda: compute_kappa(g, workers=2))
        assert rep == expected
        step = 2 if g.coloring is not None else 1
        assert log == [[(0, y) for y in range(step, g.n, step)]] + [[(0, 1)]] * (step - 1)

    def test_grid_scans_leader_heads(self):
        """On ``grid:24x24`` the band's seed scans a pair list that holds
        every edge, the sum and count scans after it read only pairs with a
        leader head, and the odd pairs' scan comes between them."""
        g = generate(parse_family("grid:24x24"))
        leaders = set(families.orbit_leaders(g.family).tolist())
        rep, log = recorded_route(lambda: compute_kappa(g))
        assert rep == compute_kappa(build_graph(g.n, g.edges()))
        seed, scan, odd, counted = log
        assert set(g.edges()) <= set(seed) and counted == "count"
        assert odd == listed_pairs(resolve._odd_pairs(g), g.n)
        assert scan and all(a in leaders for a, _ in scan)


def relabelled(g, rng):
    """``g`` with its vertex ids permuted at random."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def caterpillar(rng, spine, legs):
    """A path of ``spine`` vertices with 0..``legs`` leaves at each."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    for i in range(spine):
        for _ in range(rng.randint(0, legs)):
            edges.append((i, len(edges) + 1))
    return build_graph(len(edges) + 1, edges)


TREE_FAMILIES = ([f"path:{n}" for n in range(2, 13)] + [f"star:{n}" for n in range(3, 11)]
                 + [f"kqr:1,{r}" for r in range(1, 7)]
                 + ["path:130", "spider:1,2,3", "spider:2,3,4", "spider:1,1,5", "spider:3,3,3",
                    "spider:1,2,2,2", "spider:2,4,4,6", "spider:2,2,2,2", "spider:40,45,50"])


def tree_graphs():
    rng = random.Random(2026)
    return ([pytest.param(random_tree_graph(rng, n), id=f"pruefer{n}") for n in range(2, 61)]
            + [pytest.param(relabelled(caterpillar(rng, spine, legs), rng),
                            id=f"caterpillar{spine}x{legs}-{i}")
               for spine, legs in ((3, 2), (6, 1), (8, 3), (12, 2)) for i in range(3)]
            + [pytest.param(relabelled(generate(parse_family(f)), rng), id=f"{f}-relabelled")
               for f in ("spider:2,2,2,2", "spider:3,3,3,3", "spider:1,3,3,3", "spider:2,3,5")]
            + [pytest.param(generate(parse_family(f)), id=f) for f in TREE_FAMILIES])


@st.composite
def relabelled_trees(draw, max_n=40):
    """A random tree on 2..max_n vertices, each vertex hung from an earlier
    one, under a random vertex permutation."""
    n = draw(st.integers(2, max_n))
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[draw(st.integers(0, v - 1))], perm[v]) for v in range(1, n)])


def no_apsp(mp):
    """Make any start of the all-pairs BFS or of a family's closed-form
    fill fail."""
    def refuse(*args):
        raise AssertionError("APSP started")

    mp.setattr(graph, "_all_sources_bfs", refuse)
    mp.setattr(graph.Graph, "_bfs", refuse)
    mp.setattr(families, "spec_distances", refuse)


class TestTreeRoute:
    """Trees take the tree route (``TreeShape.kappa``, ``witness`` and
    ``kappa_prime``), which reads no distance matrix: the value, the
    lex-first witness, kappa' and the classification of the dense scan
    and of the other routes."""

    @staticmethod
    def check(g):
        with pytest.MonkeyPatch.context() as mp:
            no_apsp(mp)
            rep = compute_kappa(g)
            vertex = variant_kappa(g, Variant.VERTEX)
        d = np.array(plain_distances(g))
        (kappa, pair), (kappa_prime, _) = lex_min(d, [pair_sum, pair_count])
        assert (rep.kappa, rep.witness_pair, rep.kappa_prime) == (kappa, pair, kappa_prime)
        assert vertex == (kappa, pair)
        with pytest.MonkeyPatch.context() as mp:
            tree_route_off(mp)
            assert compute_kappa(g) == rep

    @pytest.mark.parametrize("g", tree_graphs())
    def test_matches_the_dense_scan(self, g):
        self.check(g)

    @settings(max_examples=150, deadline=None)
    @given(relabelled_trees())
    def test_matches_the_dense_scan_on_random_trees(self, g):
        self.check(g)

    def test_one_vertex(self):
        g = build_graph(1, [])
        with pytest.raises(TrivialGraph):
            compute_kappa(g)
        assert variant_kappa(g, Variant.VERTEX) == (None, None)


def per_row_min(D, partners, reduce):
    """Plain reference of a pair-list scan: every listed pair, one at a
    time, and the lex-first (value, pair) of the smallest value."""
    hits = [(int(reduce(np.abs(D[b] - D[a])[None])[0]), (a, b))
            for a, b in zip(*(p.tolist() for p in partners))]
    return min(hits, default=None)


def random_partners(rng, n, keep):
    """A random ``lex_min`` pair list; about a third of the head items get
    no pairs."""
    return pair_arrays([(a, b) for a in range(n) if rng.random() < 0.66
                        for b in range(a + 1, n) if rng.random() < keep])


def as_mask(partners, n):
    """The same pairs as a ``lex_min`` mask function (with marks below the
    diagonal too, which the scan must ignore)."""
    marks = np.zeros((n, n), dtype=bool)
    marks[partners] = True
    marks[np.tril_indices(n, -1)] = True
    return lambda heads: marks[heads]


class TestBlockedPartnerScan:
    """A partner scan takes the listed pairs in lex order, in blocks of about
    ``_PAIR_BATCH`` entries over several head rows: the same hits as a
    per-row reference for every criterion, wherever the blocks fall."""

    REDUCERS = [[pair_sum], [pair_count], [pair_sum, pair_count]]

    @pytest.mark.parametrize("f, batch", [
        (f, batch) for f in ("cycle:31", "grid:9x7", "kqr:3,4", "path:130")
        for batch in (1, 7, 300, resolve._PAIR_BATCH)]
        + [("grid:20x20", 5000), ("grid:20x20", resolve._PAIR_BATCH)])
    def test_matches_a_per_row_reference(self, f, batch, monkeypatch):
        """A batch of 1 or 7 entries puts every pair, or every few pairs, in
        its own block, so head rows and the pairs of one row straddle block
        and group boundaries; on ``grid:20x20`` the first column slice
        abandons pairs (n > 64)."""
        g = generate(parse_family(f))
        monkeypatch.setattr(resolve, "_PAIR_BATCH", batch)
        rng = random.Random(batch + g.n)
        D = np.array(plain_distances(g), dtype=np.int64)
        for keep in (0.05, 0.5) if g.n < 400 else (0.03,):
            partners = random_partners(rng, g.n, keep)
            for reducers in self.REDUCERS:
                expected = [per_row_min(D, partners, reduce) for reduce in reducers]
                assert lex_min(g.distance_matrix, reducers, partners=partners) == expected
                for workers in (1, 2):
                    assert lex_min(g.distance_matrix, reducers, workers,
                                   as_mask(partners, g.n)) == expected

    @pytest.mark.parametrize("f", ["cycle:31", "grid:9x7", "path:130", "grid:20x20"])
    def test_head_subset(self, f):
        """With ``heads`` a full scan (head rows read in place past 64
        columns) and a mask take only the pairs whose head is listed, for
        any worker count: the per-row reference over those pairs."""
        g = generate(parse_family(f))
        rng = random.Random(g.n)
        D = np.array(plain_distances(g), dtype=np.int64)
        heads = np.array(sorted(rng.sample(range(g.n - 1), max(1, g.n // 5))))
        every = pair_arrays([(a, b) for a in range(g.n) for b in range(a + 1, g.n)])
        for partners in (every, random_partners(rng, g.n, 0.3)):
            listed = pair_arrays([(a, b) for a, b in zip(*partners) if a in heads])
            for reducers in self.REDUCERS:
                expected = [per_row_min(D, listed, reduce) for reduce in reducers]
                for workers in (1, 2):
                    given = None if partners is every else as_mask(partners, g.n)
                    assert lex_min(g.distance_matrix, reducers, workers, given,
                                   heads) == expected

    def test_empty_partner_rows(self):
        g = generate(parse_family("grid:4x5"))
        empty = pair_arrays([])
        assert lex_min(g.distance_matrix, [pair_sum, pair_count], partners=empty) == [None, None]
        def nothing(heads):
            return np.zeros((len(heads), g.n), dtype=bool)

        assert lex_min(g.distance_matrix, [pair_sum], 2, nothing) == [None]
        last = pair_arrays([(g.n - 2, g.n - 1)])
        expected = int(np.abs(g.distance_matrix[-1] - g.distance_matrix[-2]).sum())
        assert lex_min(g.distance_matrix, [pair_sum], partners=last) == [
            (expected, (g.n - 2, g.n - 1))]

    @pytest.mark.parametrize("batch", [1, 6, 40])
    def test_ties_split_across_blocks(self, batch, monkeypatch):
        """On a complete graph every pair sums to 2 and has count 2; in
        blocks of one pair and of a few, the first listed pair wins, also
        when its tie partners come in later blocks or head groups."""
        monkeypatch.setattr(resolve, "_PAIR_BATCH", batch)
        g = generate(parse_family("complete:9"))
        partners = pair_arrays([(a, b) for a in (3, 5, 6) for b in range(a + 1, g.n)])
        for workers in (1, 2):
            for given_as in (partners, as_mask(partners, g.n)):
                assert lex_min(g.distance_matrix, [pair_sum, pair_count], workers,
                               given_as) == [(2, (3, 4)), (2, (3, 4))]
        # a smaller value in a later block beats the earlier ties; a tie with
        # it later still does not
        rows = np.array([[0, 0], [1, 0], [1, 1], [5, 5], [3, 1], [3, 1]], dtype=np.int16)
        listed = pair_arrays([(0, 1), (0, 2), (0, 3), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5),
                              (4, 5)])
        D = rows.astype(np.int64)
        expected = [per_row_min(D, listed, reduce) for reduce in (pair_sum, pair_count)]
        assert expected == [(0, (4, 5)), (0, (4, 5))]
        assert lex_min(rows, [pair_sum, pair_count], partners=listed) == expected

    @pytest.mark.parametrize("batch", [1, 7])
    def test_a_heads_pairs_split_across_pieces(self, batch, monkeypatch):
        """A pair list is sliced into pieces of ``_PAIR_BATCH`` pairs, which
        cut through one head's pairs: on cycle:12, where pairs at one
        distance tie, the hits stay those of the per-pair reference, given
        as arrays and as a mask."""
        monkeypatch.setattr(resolve, "_PAIR_BATCH", batch)
        g = generate(parse_family("cycle:12"))
        D = np.array(plain_distances(g), dtype=np.int64)
        rng = random.Random(batch)
        pairs = [(a, b) for a in range(g.n) for b in range(a + 1, g.n)
                 if a == 4 or rng.random() < 0.2]
        assert sum(a == 4 for a, _ in pairs) == 7 >= batch
        partners = pair_arrays(pairs)
        for reducers in ([pair_sum], [pair_count], [pair_sum, pair_count]):
            expected = [per_row_min(D, partners, reduce) for reduce in reducers]
            assert lex_min(g.distance_matrix, reducers, partners=partners) == expected
            for workers in (1, 2):
                assert lex_min(g.distance_matrix, reducers, workers,
                               as_mask(partners, g.n)) == expected

    def test_edge_pairs_are_the_edges_in_order(self):
        """``_edge_pairs`` lists ``Graph.edges()``, in the same lex order."""
        graphs = family_corpus() + random_graph_corpus() + [sparse_graph(1, 80)]
        for g in graphs + [build_graph(1, []), plus_chord("path:9", 0, 8)]:
            assert listed_pairs(resolve._edge_pairs(g), g.n) == g.edges()

    def test_edge_pairs_are_built_once_and_read_only(self, monkeypatch):
        """The arrays come from the graph's cache, and the edge and mixed
        item rows take their edge ends from them."""
        g = generate(parse_family("grid:3x4"))
        heads, tails = resolve._edge_pairs(g)
        assert not heads.flags.writeable and not tails.flags.writeable
        monkeypatch.setattr(resolve, "_edge_arrays", lambda g: pytest.fail("rebuilt"))
        assert all(a is b for a, b in zip(resolve._edge_pairs(g), (heads, tails)))
        for variant in ("edge", "mixed"):
            items, rows = resolve._item_rows(g, Variant(variant))
            assert (items, rows.tolist()) == plain_item_rows(g, variant)

    def test_reducers_do_not_overflow(self):
        """``pair_sum`` sums narrow blocks in int32 only while the block's
        dtype and width keep a sum below 2^30, so a prefix sum and a rest
        sum still add up exactly; ``pair_count`` counts the nonzeros."""
        for dtype, width in ((np.int16, 32768), (np.int16, 70000), (np.int32, 3), (np.int8, 9)):
            top = np.iinfo(dtype).max
            block = np.full((2, width), top, dtype=dtype)
            block[1, ::2] = 0
            half = width // 2
            total = pair_sum(block[:, :half]) + pair_sum(block[:, half:])
            assert total.tolist() == pair_sum(block).tolist() == [
                top * width, top * (width // 2)]
            assert pair_count(block).tolist() == [width, width // 2]

    def test_stream_holds_one_head_group(self):
        """The pair stream makes one piece at a time, in lex order over every
        listed pair, or over every pair for None: a pair list's slices of
        ``budget`` pairs, a mask's head groups of about ``budget`` entries
        (at least one head row)."""
        g = generate(parse_family("grid:6x7"))
        partners = random_partners(random.Random(3), g.n, 0.5)
        pairs = listed_pairs(partners, g.n)
        every = list(combinations(range(g.n), 2))
        for given_as, cap, expected in ((partners, 50, pairs),
                                        (as_mask(partners, g.n), g.n, pairs),
                                        (None, g.n, every)):
            groups = list(resolve._pair_stream(given_as, np.arange(g.n - 1), g.n, 50))
            assert max(len(a) for a, _ in groups) <= cap
            assert [(int(a), int(b)) for heads, others in groups
                    for a, b in zip(heads, others)] == expected

    @pytest.mark.parametrize("batch", [1, 9, resolve._PAIR_BATCH])
    def test_count_verify_over_adjacent_partners(self, batch, monkeypatch):
        """``verify_local_k_resolving`` reads the count over the adjacent
        pairs (``_worst_count`` with ``_edge_pairs``): the lex-first worst
        adjacent pair of a per-pair reference."""
        monkeypatch.setattr(resolve, "_PAIR_BATCH", batch)
        rng = random.Random(batch)
        for f in ("grid:5x6", "cycle:9", "path:70", "kqr:3,5"):
            g = generate(parse_family(f))
            D = np.array(plain_distances(g), dtype=np.int64)
            adjacent = pair_arrays(g.edges())
            for S in ([], [0], sorted(rng.sample(range(g.n), g.n // 2)), list(range(g.n))):
                count, pair = per_row_min(D[:, S], adjacent, pair_count)
                worst = solver._worst_count(g, S, resolve._edge_pairs(g))
                assert (worst.delta, (worst.a, worst.b)) == (count, pair)
                assert verify_local_k_resolving(g, S, count) == (True, None, count)
                assert verify_local_k_resolving(g, S, count + 1) == (False, pair, count)


def hypercube(dim):
    """Q_dim on the bit vectors 0..2^dim - 1."""
    return build_graph(1 << dim, [(v, v | 1 << b) for v in range(1 << dim)
                                  for b in range(dim) if not v >> b & 1])


def torus(a, b):
    """C_a x C_b (Cartesian) on the vertices i * b + j."""
    edges = {tuple(sorted((i * b + j, w))) for i in range(a) for j in range(b)
             for w in ((i + 1) % a * b + j, i * b + (j + 1) % b)}
    return build_graph(a * b, sorted(edges))


def cube_with_a_far_first_neighbor():
    """Q3 relabelled so that vertex 1 is 011, at distance 2 from vertex 0,
    and the neighbors of 0 are 2, 3 and 4: the pair (0, 1) sums to n = 8,
    like every pair at distance 2 in a hypercube, and comes before the
    first adjacent pair (0, 2)."""
    label = [0, 2, 3, 1, 4, 5, 6, 7]  # label[v] of bit vector v
    return build_graph(8, [(min(label[u], label[v]), max(label[u], label[v]))
                           for u, v in hypercube(3).edges()])


@st.composite
def twin_free_bipartite_graphs(draw, max_n=30):
    """A random tree on 4..max_n vertices, each hung from an earlier one, plus
    chords between its color classes, made twin-free by more such chords:
    while false twins u, v are left, u gets a chord to a vertex of the other
    class outside N(v). True twins need n = 2."""
    n = draw(st.integers(4, max_n))
    parent = [None] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    side = [0] * n
    for v in range(1, n):
        side[v] = 1 - side[parent[v]]
    edges = {(parent[v], v) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if side[u] != side[v]:
            edges.add((min(u, v), max(u, v)))
    while True:
        g = build_graph(n, sorted(edges))
        _, false_pairs = find_twins(g)
        if not false_pairs:
            return g
        u, v = false_pairs[0]
        outside = [w for w in range(n) if side[w] != side[u] and w not in g.adjacency[v]]
        assume(outside)
        w = draw(st.sampled_from(outside))
        edges.add((min(u, w), max(u, w)))


def parity_graphs():
    graphs = [(f, generate(parse_family(f))) for f in (
        "grid:3x3", "grid:4x7", "grid:9x7", "grid:12x12", "grid:5x30",
        "cycle:6", "cycle:8", "cycle:40", "cycle:100")]
    graphs += [(f"Q{dim}", hypercube(dim)) for dim in (3, 4, 5)]
    graphs += [(f"C{a}xC{b}", torus(a, b)) for a, b in ((4, 6), (6, 6), (6, 8), (8, 10))]
    graphs.append(("Q3-far", cube_with_a_far_first_neighbor()))
    return [pytest.param(g, id=name) for name, g in graphs]


def both_routes(g, workers):
    """The whole vertex set's kappa and kappa' on the parity scan and on the
    thin route, the tree and orbit routes off and the sum-gap band refused."""
    results = []
    for thin in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            tree_route_off(mp)
            orbit_off(mp)
            band_off(mp)
            mp.setattr(resolve, "_thin_pays", lambda d, criteria, bipartite: thin)
            results.append(kappa_route(g, workers))
    return results


class TestParityRoute:
    """On a twin-free bipartite graph both the scan and the thin route scan
    only the same-color pairs; an odd pair sums to at least n with n
    distinguishers, so kappa is the even-pair minimum if below n, else n at
    the first (0, j), j <= min adj[0], that sums to n; kappa' is the
    smaller of n and the even-pair count minimum."""

    @staticmethod
    def check(g, expected):
        assert g.coloring is not None and find_twins(g) == ([], [])
        for workers in (1, 2):
            assert both_routes(g, workers) == [expected] * 2
            rep = compute_kappa(g, workers=workers)
            assert ((rep.kappa, rep.witness_pair), rep.kappa_prime) == expected
            assert variant_kappa(g, Variant.VERTEX) == expected[0]

    @pytest.mark.parametrize("g", parity_graphs())
    def test_matches_the_dense_oracle(self, g):
        self.check(g, oracle_route(g))

    @settings(max_examples=80, deadline=None)
    @given(twin_free_bipartite_graphs())
    def test_matches_the_dense_oracle_on_random_graphs(self, g):
        self.check(g, oracle_route(g))

    def test_tie_witness_before_the_first_neighbor(self):
        """Kappa = n, and the first pair summing to n is (0, 1), at distance
        2, before the first adjacent pair (0, 2)."""
        g = cube_with_a_far_first_neighbor()
        assert g.adjacency[0] == (2, 3, 4)
        assert oracle_route(g) == ((8, (0, 1)), 4)
        self.check(g, ((8, (0, 1)), 4))

    def test_large_grid_and_even_cycle(self):
        """The tie case on ``cycle:600`` (the first adjacent pair) and a
        minimum below n on ``grid:24x24``, against the full scan over every
        pair: ``dense_lex_min`` would hold all C(n, 2) x n int64 entries at
        once, about 860 MB on ``cycle:600``."""
        for f, expected in (("cycle:600", ((600, (0, 1)), 598)),
                            ("grid:24x24", ((92, (1, 24)), 46))):
            g = generate(parse_family(f))
            assert scan_route(g) == expected
            self.check(g, expected)

    @pytest.mark.parametrize("f", ["grid:9x7", "cycle:40", "grid:3x40"])
    def test_scans_only_same_color_pairs(self, f, monkeypatch):
        """Every pair the scan, the thin route or the orbit route scans past
        the seed is a same-color pair (the sum-gap band refused, at every
        size), and the last scan reads only the odd pairs of
        ``_odd_pairs``."""
        g = generate(parse_family(f))
        side = g.coloring
        band_off(monkeypatch)
        for thin, orbit in ((False, False), (True, False), (False, True)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(resolve, "_thin_pays", lambda d, criteria, bipartite: thin)
                if not orbit:
                    orbit_off(mp)
                _, log = recorded_route(lambda: kappa_route(g))
            *_, scanned, odd = [scan for scan in log if scan != "count"]
            assert {side[a] == side[b] for a, b in scanned} == {True}
            assert odd == listed_pairs(resolve._odd_pairs(g), g.n)

    def test_workers_split_the_parity_scan(self, monkeypatch):
        """Both scans over the sum-gap band, the sum's and the count's, are
        split across the workers."""
        g = generate(parse_family("grid:12x12"))
        expected = compute_kappa(g)
        started = []
        pool = resolve.ThreadPoolExecutor

        def recording(max_workers):
            started.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(resolve, "ThreadPoolExecutor", recording)
        fresh = generate(parse_family("grid:12x12"))
        assert compute_kappa(fresh, workers=2) == expected
        assert started == [2, 2]


def masks_on(mp):
    """Take every mask on any input with item pairs and a nonempty set: no
    size floor, and the sum-gap band whatever share of the pairs it keeps."""
    mp.setattr(resolve, "_MASK_FLOOR", 0)
    mp.setattr(resolve, "_BAND_SHARE", 1.0)


def blown_twins(rng, n):
    """A random connected graph with some vertices copied as true twins (the
    copy joined to the original) and some as false twins (not joined)."""
    g = random_connected_graph(rng, n)
    edges, size = list(g.edges()), g.n
    for v in rng.sample(range(g.n), rng.randint(1, max(1, g.n // 3))):
        edges += [(u, size) for u in g.adjacency[v]] + ([(v, size)] if rng.random() < 0.5 else [])
        size += 1
    return build_graph(size, edges)


def plain_twin_hit(g, S):
    """The lex-first ``(delta_S(x, y), (x, y))`` over every twin pair, by a
    plain sum over S; None without twins."""
    d = plain_distances(g)
    return min(((plain_delta_set(d, x, y, S), (x, y)) for kind in find_twins(g) for x, y in kind),
               default=None)


def bipartite_false_twins(rng, n):
    """A random tree on n >= 3 vertices plus chords between its two color
    classes, with some vertices copied (the copy joined to the original's
    neighbours), randomly relabelled: bipartite, with no true twins, and
    drawn again until a copy is left a false twin (a later copy of a
    neighbour joins the original but not its copy)."""
    while True:
        tree = random_tree_graph(rng, n)
        side = tree.coloring
        edges = set(tree.edges())
        for _ in range(rng.randint(0, n)):
            u, v = sorted(rng.sample(range(n), 2))
            if side[u] != side[v]:
                edges.add((u, v))
        g = build_graph(n, sorted(edges))
        edges, size = list(g.edges()), g.n
        for v in rng.sample(range(n), rng.randint(1, max(1, n // 3))):
            edges += [(u, size) for u in g.adjacency[v]]
            size += 1
        g = relabelled(build_graph(size, edges), rng)
        if find_twins(g)[1]:
            return g


def path_with_a_far_tie():
    """The path 0 - 3 - 2 - 1: with S = {3} the pair (0, 1), at distance 3,
    sums to |S| = 1 and comes before the first adjacent pair (0, 3)."""
    return build_graph(4, [(0, 3), (2, 3), (1, 2)])


def separate_minima_band(g, variant, rows, S):
    """``(sigma, seed)`` of the sum-gap band, each minimum on its own by a
    plain sum: the seed is the least of the edges' sums (vertex and mixed
    variants), the sums of each item and the next two in sigma order, and
    the twin hit (vertex variant); sigma is None when the pairs with a gap
    of at most the seed, counted pair by pair, are more than
    ``_BAND_SHARE`` of all."""
    R = np.array(rows, dtype=np.int64)
    sigma = R.sum(axis=1)
    order = np.argsort(sigma, kind="stable").tolist()
    pairs = list(zip(order, order[1:])) + list(zip(order, order[2:]))
    pairs += g.edges() if variant != Variant.EDGE else []
    seed = min(int(np.abs(R[a] - R[b]).sum()) for a, b in pairs)
    twin = plain_twin_hit(g, S) if variant == Variant.VERTEX else None
    seed = min(seed, twin[0]) if twin else seed
    kept = int(np.triu(np.abs(sigma[:, None] - sigma) <= seed, 1).sum())
    return (sigma if kept / (len(R) * (len(R) - 1) // 2) <= resolve._BAND_SHARE else None), seed


def bipartite_router_graphs():
    return [p for p in router_graphs() + parity_graphs() if p.values[0].coloring is not None]


class TestWorstPairRouter:
    """``_worst_pairs`` answers every set check with the value and lex-first
    pair of the plain scan, through whichever masks it takes: parity on
    bipartite graphs, the sum-gap band on any variant, both per set and,
    for parity, over a sweep's ``_ChainSums`` scan."""

    @staticmethod
    def check_sets(g, sets, variant=Variant.VERTEX):
        items, rows = plain_item_rows(g, variant.value)
        for S in sets:
            (total, pair), _ = dense_lex_min(rows, S) if len(items) > 1 else ((None, None), None)
            expected = None if pair is None else Certificate(items[pair[0]], items[pair[1]], total)
            assert certificate_for(g, variant, S) == expected, (g, S)
        if len(sets) > 1:
            assert certificates_for(g, variant, sets) == [certificate_for(g, variant, S)
                                                           for S in sets]

    @settings(max_examples=80, deadline=None)
    @given(twin_free_bipartite_graphs(), st.randoms(use_true_random=False))
    def test_parity_on_relabelled_bipartite_graphs(self, g, rng):
        """Random sets on relabelled twin-free bipartite graphs, with every
        mask on: the even-pair scan and the first odd pair at |S| give the
        lex-first minimizer of the dense scan."""
        g = relabelled(g, rng)
        sets = [sorted(rng.sample(range(g.n), rng.randint(1, g.n))) for _ in range(4)]
        with pytest.MonkeyPatch.context() as mp:
            masks_on(mp)
            self.check_sets(g, sets)

    def test_odd_tie_at_distance_three(self):
        """An odd pair at distance 3 can sum to |S| before the first adjacent
        pair: the odd hit is the lex-first minimizer over the pairs (0, b),
        b <= min adj[0], of the other color."""
        g = path_with_a_far_tie()
        d = g.distance_matrix
        odd = resolve._odd_pairs(g)
        assert listed_pairs(odd, g.n) == [(0, 1), (0, 3)]
        assert lex_min(d[:, [3]], [pair_sum], partners=odd) == [(1, (0, 1))]
        assert lex_min(d[:, [1, 2, 3]], [pair_sum], partners=odd) == [(3, (0, 3))]
        with pytest.MonkeyPatch.context() as mp:
            masks_on(mp)
            self.check_sets(g, [[3], [1, 2, 3], [0, 3], [2]])

    def test_blown_twins_with_random_sets(self):
        """Twin seeds t([x in S] + [y in S]) (0 when two twins of a class
        are both outside S, ``_twin_hit``'s value) and the adjacent seed
        bound the band: the same pairs as the dense scan, also at sizes
        past the floor."""
        rng = random.Random(0)
        seen_zero = False
        for _ in range(25):
            g = blown_twins(rng, rng.randint(4, 14))
            sets = [sorted(rng.sample(range(g.n), rng.randint(1, g.n))) for _ in range(4)]
            for S in sets:
                hit = plain_twin_hit(g, S)
                assert resolve._twin_hit(g, set(S)) == hit
                seen_zero |= hit is not None and hit[0] == 0
            with pytest.MonkeyPatch.context() as mp:
                masks_on(mp)
                self.check_sets(g, sets)
        assert seen_zero
        g = blown_twins(random.Random(1), 120)
        self.check_sets(g, [sorted(random.Random(2).sample(range(g.n), 3 * g.n // 4))])

    @pytest.mark.parametrize("variant", [Variant.EDGE, Variant.MIXED])
    def test_sum_gap_bound_on_item_rows(self, variant):
        """|sigma_S(x) - sigma_S(y)| <= delta_S(x, y) on edge and mixed item
        rows (the triangle inequality over the columns), so the band over
        the seed pairs' least sum keeps the dense scan's answer."""
        rng = random.Random(7)
        for g in random_graph_corpus(count=12, max_n=10) + [generate(parse_family("grid:4x5"))]:
            items, rows = plain_item_rows(g, variant.value)
            R = np.array(rows, dtype=np.int64)
            sets = [sorted(rng.sample(range(g.n), rng.randint(1, g.n))) for _ in range(3)]
            for S in sets:
                sigma = R[:, S].sum(axis=1)
                for x, y in combinations(range(len(items)), 2):
                    assert abs(sigma[x] - sigma[y]) <= np.abs(R[x, S] - R[y, S]).sum()
            with pytest.MonkeyPatch.context() as mp:
                masks_on(mp)
                self.check_sets(g, sets, variant)

    def test_parity_over_a_sweep(self):
        """A sweep's one ``_ChainSums`` scan over the same-color pairs plus
        each set's odd hit equals the per-set dense scans."""
        rng = random.Random(3)
        graphs = [relabelled(generate(parse_family(f)), rng)
                  for f in ("grid:4x5", "grid:6x6", "cycle:12", "path:15")]
        graphs.append(path_with_a_far_tie())
        for g in graphs:
            sets = [sorted(rng.sample(range(g.n), rng.randint(1, g.n))) for _ in range(6)]
            sets += [[3]] if g.n == 4 else []
            with pytest.MonkeyPatch.context() as mp:
                masks_on(mp)
                self.check_sets(g, sets)

    def test_whole_set_band_matches_the_dense_oracle(self):
        """With the band on for S = V, kappa, kappa' (the count band's second
        scan) and the witness stay the dense scan's, and the vertex
        ``variant_kappa`` makes the same sum scans as ``compute_kappa``; on
        the grids and the cycle with the orbit route on (where the cycle,
        one orbit, sets up no band) and off."""
        graphs = [generate(parse_family(f)) for f in ("grid:5x7", "grid:3x40", "cycle:31")]
        graphs += [plus_chord("path:60", 0, 4), plus_chord("path:61", 0, 5),
                   sparse_graph(1, 60), sparse_graph(2, 97)]
        # the least count, 7, is at a pair whose sum gap exceeds the
        # witness's count 8 but not 8 d(x, y)
        graphs.append(build_graph(15, [(0, 10), (1, 2), (1, 4), (2, 4), (2, 8), (2, 11), (3, 6),
                                       (3, 12), (3, 14), (4, 6), (4, 13), (5, 10), (5, 11), (7, 8),
                                       (7, 14), (9, 14)]))
        for orbit in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                masks_on(mp)
                if not orbit:
                    orbit_off(mp)
                for g in graphs:
                    (kappa, pair), kappa_prime = oracle_route(g)
                    _, wdim_log = recorded_route(lambda: variant_kappa(g, Variant.VERTEX))
                    rep, kappa_log = recorded_route(lambda: compute_kappa(g))
                    assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (
                        kappa, kappa_prime, pair)
                    assert variant_kappa(g, Variant.VERTEX) == (kappa, pair)
                    assert wdim_log == [scan for scan in kappa_log if scan != "count"]

    def test_count_band_limit_does_not_wrap(self):
        """The count band keeps every pair counting at most c distinguishers,
        for every c, also where c d(x, y) passes the distance dtype's largest
        value: int8 on grid:3x40, whose witness count times its diameter
        is past 127 (kappa' then stays the dense scan's), and int16."""
        g = generate(parse_family("grid:3x40"))
        d = g.distance_matrix
        D = d.astype(np.int64)
        sigma = D.sum(axis=1)
        counts = (D[:, None, :] != D[None, :, :]).sum(axis=2)
        for c in np.unique(counts).tolist():
            assert resolve._count_band(sigma, d, c)(np.arange(g.n))[counts <= c].all()
        with pytest.MonkeyPatch.context() as mp:
            masks_on(mp)
            rep = compute_kappa(g)
        a, b = rep.witness_pair
        assert d.dtype == np.int8 and counts[a, b] * int(d.max()) > 127
        assert rep.kappa_prime == dense_lex_min(plain_distances(g), range(g.n))[1][0]
        far = np.array([[0, 1000], [1000, 0]], dtype=np.int16)
        assert resolve._count_band(np.array([0, 10**6]), far, 1000)(np.array([0])).all()

    def test_tiny_inputs_keep_the_plain_scan(self, monkeypatch):
        """A check of at most ``_MASK_FLOOR`` entries (item pairs x columns)
        is one ``lex_min`` call over every pair; one entry more takes the
        seed scan, a masked scan and, on this bipartite grid, the odd pairs'
        scan, and a sweep the masked scan and the odd pairs'. The bnb-sweep
        sizes (n <= 24, so at most 276 x 24 entries, for a set or the whole
        vertex set's band) stay below."""
        assert 276 * 24 <= resolve._MASK_FLOOR
        g = generate(parse_family("grid:6x6"))
        S = list(range(0, 36, 3))
        entries = g.n * (g.n - 1) // 2 * len(S)
        for floor, masked in ((entries, False), (entries - 1, True)):
            monkeypatch.setattr(resolve, "_MASK_FLOOR", floor)
            calls = []

            def recording(rows, reducers, workers=1, partners=None, heads=None):
                calls.append(partners is not None)
                return lex_min(rows, reducers, workers, partners, heads)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(resolve, "lex_min", recording)
                worst = certificate_for(g, Variant.VERTEX, S)
                sweep = certificates_for(g, Variant.VERTEX, [S, S[:4]])
            assert calls == ([True] * 5 if masked else [False, False])
            (total, pair), _ = dense_lex_min(plain_distances(g), S)
            assert worst == sweep[0] == Certificate(*pair, total)

    @pytest.mark.parametrize("g", router_graphs() + parity_graphs())
    def test_sum_band_matches_the_separate_minima(self, g, monkeypatch):
        """At every band set-up, with the mask floor opened, of kappa, each
        variant's kappa, random set checks and a sweep, ``_sum_band``'s
        one ``lex_min`` over one pair list gives the seed, sigma and band
        decision of the separate minima; and the router still gives the
        dense scan's kappa."""
        monkeypatch.setattr(resolve, "_MASK_FLOOR", 0)
        sum_band = resolve._sum_band
        variants = []

        def checking(g, variant, rows, S):
            sigma, seed = sum_band(g, variant, rows, S)
            expected_sigma, expected_seed = separate_minima_band(g, variant, rows, S)
            assert seed == expected_seed
            assert (sigma is None) == (expected_sigma is None)
            assert sigma is None or sigma.tolist() == expected_sigma.tolist()
            variants.append(variant)
            return sigma, seed

        monkeypatch.setattr(resolve, "_sum_band", checking)
        tree_route_off(monkeypatch)
        (kappa, pair), kappa_prime = oracle_route(g)
        rep = compute_kappa(g)
        assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (kappa, kappa_prime, pair)
        rng = random.Random(g.n)
        sets = [sorted(rng.sample(range(g.n), rng.randint(1, g.n))) for _ in range(3)]
        for variant in Variant:
            variant_kappa(g, variant)
            for S in sets:
                certificate_for(g, variant, S)
        certificates_for(g, Variant.VERTEX, sets)
        assert Variant.VERTEX in variants and Variant.MIXED in variants

    @pytest.mark.parametrize("g", bipartite_router_graphs())
    def test_odd_pairs_give_the_plain_odd_minimum(self, g):
        """On a bipartite graph, for the whole vertex set and random sets,
        ``lex_min`` over ``_odd_pairs`` with ``pair_sum``, and with one
        ``_ChainSums`` over all the sets, gives the lex-first minimizer over
        every odd pair by a plain scan, at |S|."""
        D = np.array(plain_distances(g), dtype=np.int64)
        rng = random.Random(g.n)
        sets = [list(range(g.n))] + [sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
                                     for _ in range(4)]
        odd = [(x, y) for x, y in combinations(range(g.n), 2) if D[x, y] % 2]
        expected = [min((int(np.abs(D[x, S] - D[y, S]).sum()), (x, y)) for x, y in odd)
                    for S in sets]
        assert [value for value, _ in expected] == [len(S) for S in sets]
        pairs = resolve._odd_pairs(g)
        for S, hit in zip(sets, expected):
            assert lex_min(g.distance_matrix[:, S], [pair_sum], partners=pairs) == [hit]
        union = sorted(set().union(*sets))
        assert lex_min(g.distance_matrix[:, union], [resolve._ChainSums(sets, union)],
                       partners=pairs) == [expected]

    def test_chain_sums_widen_past_int32(self):
        """The sweep reducer sums in int32 only while width x the dtype's
        largest value stays below 2^31."""
        reducer = resolve._ChainSums([[0], [0, 1], [1]], [0, 1])
        block = np.array([[3, 4], [1, 0]], dtype=np.int16)
        assert reducer(block).dtype == np.int32
        assert reducer(block).tolist() == [[3, 7, 4], [1, 1, 0]]
        wide = reducer(block.astype(np.int64))
        assert wide.dtype == np.int64 and wide.tolist() == [[3, 7, 4], [1, 1, 0]]


def complete_multipartite(*parts):
    """K_{parts}: every vertex joined to every vertex outside its own part."""
    ends = np.cumsum((0,) + parts)
    return build_graph(int(ends[-1]), [(u, v) for i, (lo, hi) in enumerate(zip(ends, ends[1:]))
                                       for u in range(lo, hi) for v in range(hi, int(ends[-1]))])


def relabelled_bipartite_twins():
    """C4 (0 1 2 3) with the tail 0 - 4 - 5 - 6, randomly relabelled: 1 and
    3 are false twins, and the graph is bipartite and no tree."""
    perm = list(range(7))
    random.Random(3).shuffle(perm)
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6)]
    return build_graph(7, [(perm[u], perm[v]) for u, v in edges])


class TestTwinHit:
    """``_twin_hit`` is the lex-first twin pair at the least
    t ([x in S] + [y in S]), t = d(x, y), with its value: at S = V
    (2, the first true-twin pair) or (4, the first false-twin pair)."""

    def test_against_the_plain_minimum(self):
        """Random sets on twin-blown graphs, the whole vertex set (as a
        range) and the empty set included: the value and pair of a plain
        minimum over every twin pair."""
        rng = random.Random(11)
        values = set()
        for _ in range(60):
            g = blown_twins(rng, rng.randint(4, 16))
            sets = [range(g.n), set()] + [set(rng.sample(range(g.n), rng.randint(1, g.n)))
                                          for _ in range(5)]
            for S in sets:
                hit = resolve._twin_hit(g, S)
                assert hit == plain_twin_hit(g, S), (g.edges(), S)
                values.add(hit and hit[0])
        assert values == {None, 0, 1, 2, 4}

    def test_whole_vertex_set_reads_the_first_pair_of_a_kind(self):
        for f in ("complete:5", "kqr:3,4", "star:6", "grid:2x2", "cycle:5"):
            g = generate(parse_family(f))
            true_pairs, false_pairs = find_twins(g)
            expected = ((2, true_pairs[0]) if true_pairs
                        else (4, false_pairs[0]) if false_pairs else None)
            assert resolve._twin_hit(g, range(g.n)) == expected, f


class TestTwinRoutePartners:
    """With false twins alone, kappa is the ``min`` of (4, the first
    false-twin pair) and the edges' least sum. On a bipartite graph every
    edge sums to n and the first edge is the hit, with no scan; elsewhere
    ``_twin_route_partners`` keeps exactly the edges whose sum gap is at
    most 4, among them every edge that sums to at most 4, so the route's
    kappa and witness are the dense scan's at any worker count."""

    @staticmethod
    def check(g):
        """On any graph: the gap list and the report at 1 and 2 workers. On a
        twin graph also the route's scans and report with trees sent to the
        twin route too."""
        D = np.array(plain_distances(g), dtype=np.int64)
        sigma = D.sum(axis=1)
        gap = [(x, y) for x, y in g.edges() if abs(sigma[x] - sigma[y]) <= 4]
        low = {(x, y) for x, y in g.edges() if np.abs(D[x] - D[y]).sum() <= 4}
        kept = listed_pairs(resolve._twin_route_partners(g), g.n)
        assert kept == gap and low <= set(kept)
        true_pairs, false_pairs = find_twins(g)
        scans = [] if true_pairs or g.coloring is not None else [kept]
        (kappa, pair), kappa_prime = oracle_route(g)
        for workers in (1, 2):
            rep = compute_kappa(g, workers=workers)
            assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (kappa, kappa_prime, pair)
            if not (true_pairs or false_pairs):
                continue
            with pytest.MonkeyPatch.context() as mp:
                tree_route_off(mp)
                rep, log = recorded_route(lambda: compute_kappa(g, workers=workers))
            assert log == scans
            assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (kappa, kappa_prime, pair)
        return kept

    @pytest.mark.parametrize("parts", [(3, 3, 3), (2, 3, 4), (4, 4, 4, 4)])
    def test_complete_multipartite_keeps_every_edge(self, parts):
        """No bipartite graph: the sum gaps, at most the spread of the part
        sizes, keep every edge, and every edge is scanned."""
        g = complete_multipartite(*parts)
        assert g.coloring is None
        assert self.check(g) == g.edges()

    @pytest.mark.parametrize("f", ["grid:2x2", "kqr:2,88", "kqr:3,5", "relabelled"])
    def test_bipartite_graphs_make_no_scan(self, f, monkeypatch):
        """On a bipartite false-twin graph kappa, kappa' and the witness come
        with no ``lex_min`` call: the first edge sums to n; on C4 (grid:2x2,
        n = 4) it ties the first false-twin pair and comes first."""
        g = relabelled_bipartite_twins() if f == "relabelled" else generate(parse_family(f))
        assert g.coloring is not None and resolve.kappa_reads_distances(g)
        assert find_twins(g)[1] and not find_twins(g)[0]
        (kappa, pair), kappa_prime = oracle_route(g)

        def refuse(*args, **kwargs):
            raise AssertionError("a bipartite false-twin graph was scanned")

        monkeypatch.setattr(resolve, "lex_min", refuse)
        for workers in (1, 2):
            rep = compute_kappa(g, workers=workers)
            assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (kappa, kappa_prime, pair)
        if f == "grid:2x2":
            assert (kappa, pair) == (4, (0, 1))

    def test_random_bipartite_false_twin_graphs(self, monkeypatch):
        """Relabelled random bipartite graphs with false twins, trees among
        them, take no scan either."""
        rng = random.Random(17)
        graphs = [bipartite_false_twins(rng, rng.randint(3, 24)) for _ in range(60)]
        expected = [oracle_route(g) for g in graphs]

        def refuse(*args, **kwargs):
            raise AssertionError("a bipartite false-twin graph was scanned")

        tree_route_off(monkeypatch)
        monkeypatch.setattr(resolve, "lex_min", refuse)
        for g, ((kappa, pair), kappa_prime) in zip(graphs, expected):
            assert g.coloring is not None and find_twins(g)[1] and not find_twins(g)[0]
            for workers in (1, 2):
                rep = compute_kappa(g, workers=workers)
                assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (kappa, kappa_prime, pair)

    def test_random_twin_blown_graphs(self):
        """Random graphs with copied vertices, bipartite or not."""
        rng = random.Random(29)
        graphs = [blown_twins(rng, rng.randint(4, 30)) for _ in range(40)]
        graphs.append(plus_chord_keeping_false_twins(pruefer_tree_with_false_twins(40)))
        # a later copy of a neighbour can leave a graph without twins; those
        # still check the gap list and the report
        assert any(g.coloring is None and find_twins(g)[1] and not find_twins(g)[0]
                   for g in graphs)
        for g in graphs:
            self.check(g)

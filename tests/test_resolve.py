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
from weakdim import resolve, solver
from weakdim.graph import TwinSummary
from weakdim.resolve import lex_min, pair_count, pair_sum
from weakdim.solver import Certificate, Variant, certificate_for, variant_kappa, verify_set


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
        with one ``lex_min`` call per check."""
        verifier, measure, local = VERIFIERS[name]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return lex_min(*args, **kwargs)

        monkeypatch.setattr(solver, "lex_min", counting)
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
                    assert len(calls) == 1
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
    blocks = [np.abs(D[a + 1:] - D[a]) for a in range(len(D) - 1)]
    sums = np.concatenate([b.sum(axis=1) for b in blocks])
    counts = np.concatenate([(b != 0).sum(axis=1) for b in blocks])
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
        """With at most 64 columns the scan reduces the pairs of several head
        rows in one block of about ``_BATCH`` entries: wherever the batches
        split the heads, the witness stays the lex-first minimizer."""
        monkeypatch.setattr(resolve, "_BATCH", batch)
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


def column_subsets(g):
    rng = random.Random(g.n)
    return [sorted(rng.sample(range(g.n), m)) for m in (0, 1, rng.randint(2, g.n), g.n)]


def per_column_scans(g, subsets):
    """The hits of one single-reducer ``lex_min`` per value column of ``Stacked``."""
    d = g.distance_matrix
    return [lex_min(d[:, S], [pair_sum])[0] for S in subsets] + lex_min(d, [pair_count])


class TestMatrixReducer:
    """A reducer with ``columns`` R returns a (pairs x R) matrix: the dense
    pass keeps the lex-first minimizing pair of each column."""

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

    def test_matrix_reducers_refuse_partners(self):
        g = generate(parse_family("cycle:8"))
        with pytest.raises(AssertionError):
            lex_min(g.distance_matrix, [Stacked([[0]])], partners=resolve._adjacent_partners(g))


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
    leave only the adjacent pairs and the first false-twin pair to scan."""

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
                             + [pytest.param(generate(star(90)), id="star:90")])
    def test_false_twins_scan_only_the_adjacent_pairs(self, g, monkeypatch):
        seen = []

        def recording(rows, reducers, workers=1, partners=None):
            seen.append(([r.__name__ for r in reducers],
                         {(a, int(b)) for a, bs in enumerate(partners) for b in bs}))
            return lex_min(rows, reducers, workers, partners)

        monkeypatch.setattr(resolve, "lex_min", recording)
        compute_kappa(g)
        (reducers, pairs), = seen
        assert reducers == ["pair_sum"]
        assert pairs == set(g.edges()) | {find_twins(g)[1][0]}

    def test_partner_scans_run_on_one_thread(self, monkeypatch):
        """A partner scan's round-robin parts would not share an incumbent,
        so a part without a small pair would never abandon one."""
        def refuse(*args, **kwargs):
            raise AssertionError("a partner scan started threads")

        g = generate(parse_family("kqr:40,40"))
        partners = resolve._adjacent_partners(g)
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
            partners = [np.array([b for b in range(a + 1, g.n) if rng.random() < keep],
                                 dtype=np.intp) for a in range(g.n)]
            pairs = [(a, int(b)) for a in range(g.n) for b in partners[a]]
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
    return (D[:, :, None] == D[:, None, :]).sum(axis=0)


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
    """The router's thin route on any graph: no twins passed in (so no
    floor either) and the route's estimate taken as met."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolve, "_thin_pays", lambda d: True)
        (kappa, pair), (kappa_prime, count_pair) = resolve._kappa_route(
            g, [pair_sum, pair_count], twins=TwinSummary(0, 0, None, None))
    assert count_pair is None  # kappa' comes from the equidistant count
    return (kappa, pair), kappa_prime


# long, thin graphs; the small ones have twins, which compute_kappa settles
# first, but both routes are exact on any graph
THIN_FAMILIES = ["path:2", "path:3", "path:130", "cycle:3", "cycle:4", "cycle:131",
                 "spider:1,2,3", "spider:40,45,50", "grid:3x40"]


@st.composite
def twin_free_graphs(draw, max_n=40):
    """A random tree on 3..max_n vertices plus up to n chords, twin-free."""
    n = draw(st.integers(3, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(pair, max_size=n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = build_graph(n, sorted(edges))
    assume(find_twins(g) == ([], []))
    return g


class TestThinRoute:
    """On twin-free graphs with few equidistant pairs, kappa is a sum scan
    over the pairs the geodesic bound lets through, and kappa' is n minus
    the largest equidistant class count: the same values and witness as the
    dense scan."""

    @pytest.mark.parametrize("g", scan_graphs() + [
        pytest.param(generate(parse_family(f)), id=f) for f in THIN_FAMILIES])
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
        """Wherever the row blocks and pair groups of about ``_EQ_BLOCK``
        entries split the classes, E and the largest eq stay exact."""
        monkeypatch.setattr(resolve, "_EQ_BLOCK", block)
        for f in ("path:30", "cycle:31", "spider:3,4,6", "grid:3x12", "complete:9", "star:12"):
            g = generate(parse_family(f))
            E, top = plain_thin_figures(g)
            assert resolve._equidistant_total(g.distance_matrix, E) == E
            assert resolve._max_equidistant(g.distance_matrix) == top
            assert thin_route(g) == oracle_route(g)

    @pytest.mark.parametrize("f", ["path:130", "cycle:131", "spider:40,45,50", "grid:3x40"])
    def test_filter_drops_only_pairs_over_the_seed(self, f, monkeypatch):
        """The seed scan runs over the adjacent pairs; the sum scan then
        drops exactly the pairs whose geodesic bound (t + 1)^2 // 2, for
        t = d(x, y), exceeds the seed, and each dropped pair sums above it."""
        monkeypatch.setattr(resolve, "_SCAN_FLOOR", 0)
        g = generate(parse_family(f))
        seen = []

        def recording(rows, reducers, workers=1, partners=None):
            hit = lex_min(rows, reducers, workers, partners)
            seen.append(([r.__name__ for r in reducers],
                         {(a, int(b)) for a, bs in enumerate(partners) for b in bs}, hit))
            return hit

        monkeypatch.setattr(resolve, "lex_min", recording)
        resolve._kappa_route(g, [pair_sum, pair_count])
        (seed_reducers, adjacent, [(seed, _)]), (reducers, kept, _) = seen
        assert seed_reducers == reducers == ["pair_sum"]
        assert adjacent == set(g.edges())
        d = plain_distances(g)
        D = np.array(d, dtype=np.int64)
        for x, y in combinations(range(g.n), 2):
            bound = (d[x][y] + 1) ** 2 // 2
            assert ((x, y) in kept) == (bound <= seed)
            if bound > seed:
                assert int(np.abs(D[x] - D[y]).sum()) >= bound > seed

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
        picks = [resolve._thin_pays(g.distance_matrix) for g in graphs]
        assert picks == [True] * len(thin) + [False] * (len(dense) + 1)
        # an accumulator that cannot fit keeps the scan, with the same report
        g = graphs[0]
        expected = compute_kappa(g)
        monkeypatch.setattr(resolve, "MAX_BYTES", 2 * g.distance_matrix.nbytes)
        assert not resolve._thin_pays(g.distance_matrix)
        assert compute_kappa(g) == expected


def router_graphs():
    return ([pytest.param(g, id=f"rand{i}") for i, g in enumerate(random_graph_corpus())]
            + [pytest.param(generate(parse_family(f)), id=f) for f in THIN_FAMILIES]
            + [pytest.param(make(n), id=f"{make.__name__}{n}") for n in (8, 80)
               for make in (true_twin_path, leaves_and_bull, four_cycle_and_commons)])


class TestKappaRouter:
    """One router serves ``compute_kappa`` (sum and count) and the vertex
    ``variant_kappa`` (sum only). Without a twin summary from the caller
    (``variant_kappa``) graphs up to ``_SCAN_FLOOR`` entries take the dense
    pass; ``compute_kappa`` hands its summary in and routes at any size."""

    @pytest.mark.parametrize("floor", [0, resolve._SCAN_FLOOR])
    @pytest.mark.parametrize("g", router_graphs())
    def test_both_callers_match_the_dense_oracle(self, g, floor, monkeypatch):
        monkeypatch.setattr(resolve, "_SCAN_FLOOR", floor)
        (kappa, pair), kappa_prime = oracle_route(g)
        assert variant_kappa(g, Variant.VERTEX) == (kappa, pair)
        rep = compute_kappa(g)
        assert (rep.kappa, rep.kappa_prime, rep.witness_pair) == (kappa, kappa_prime, pair)
        assert variant_kappa(build_graph(1, []), Variant.VERTEX) == (None, None)

    @pytest.mark.parametrize("reducers", [[pair_count], [pair_count, pair_sum], []])
    def test_other_criteria_are_refused(self, reducers):
        """The twin and thin routes know only the sum and the count: any
        other criteria fail at every size rather than come back mislabelled."""
        for f in ("path:5", "path:400"):
            with pytest.raises(AssertionError):
                resolve._kappa_route(generate(parse_family(f)), reducers)

    @pytest.mark.parametrize("f", ["path:400", "cycle:401", "star:300"])
    def test_vertex_variant_kappa_skips_the_dense_pass(self, f, monkeypatch):
        """Above the floor every scan of the vertex ``variant_kappa`` runs
        over a partner subset, and kappa' (the equidistant count) is never
        made: no dense pass, whatever the timing."""
        g = generate(parse_family(f))
        assert g.n * (g.n * (g.n - 1) // 2) > resolve._SCAN_FLOOR
        rep = compute_kappa(g)
        scans = []

        def recording(rows, reducers, workers=1, partners=None):
            scans.append(partners is not None)
            return lex_min(rows, reducers, workers, partners)

        def refuse(d):
            raise AssertionError("the sum-only kappa made the equidistant count")

        monkeypatch.setattr(resolve, "lex_min", recording)
        monkeypatch.setattr(resolve, "_max_equidistant", refuse)
        assert variant_kappa(g, Variant.VERTEX) == (rep.kappa, rep.witness_pair)
        assert scans and all(scans)

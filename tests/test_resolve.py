"""Difference profiles, kappa, classification, and the three verifiers."""

import random

import numpy as np
import pytest

from conftest import (
    bipartition_classes,
    bull,
    family_corpus,
    plain_delta_set,
    plain_distances,
    plain_distinguisher_count,
    random_graph_corpus,
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
from weakdim import resolve
from weakdim.resolve import lex_min, pair_count, pair_sum
from weakdim.solver import Certificate, Variant, certificate_for


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


class TestVerifiers:
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

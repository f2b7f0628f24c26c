"""Brute-force and branch-and-bound solvers, dim_k oracle, LP export."""

import math
import random
import sys
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    family_corpus,
    petersen,
    plain_brute,
    plain_delta_set,
    plain_distances,
    plain_item_rows,
    random_connected_graph,
    random_graph_corpus,
    random_tree_corpus,
    tree_from_prufer,
)

from weakdim import (
    Certificate,
    build_graph,
    KaboveKappa,
    ParameterOutOfRange,
    TooLarge,
    Variant,
    certificate_for,
    certificates_for,
    complete,
    cycle,
    generate,
    grid,
    pair_profiles,
    parse_family,
    path,
    solve_bnb,
    solve_bruteforce,
    solve_kmetric_dim,
    spider,
    star,
    variant_kappa,
    verify_set,
    write_lp,
)
from weakdim import resolve, solver

# regression constants fixed by exhaustive search over the 10-vertex
# Petersen graph (increasing subset size)
PETERSEN_KAPPA = 6
PETERSEN_WDIM1 = 3
PETERSEN_WDIM2 = 4


class TestPairProfiles:
    def test_vertex_pair_count(self):
        assert len(pair_profiles(generate(path(3)), Variant.VERTEX)) == 3

    def test_edge_profile_on_path(self):
        prof = pair_profiles(generate(path(3)), Variant.EDGE)
        assert len(prof) == 1
        assert prof[0].a == (0, 1) and prof[0].b == (1, 2)
        assert prof[0].delta_profile == (1, 0, 1)

    def test_mixed_items_on_edge(self):
        prof = pair_profiles(generate(path(2)), Variant.MIXED)
        assert [(p.a, p.b) for p in prof] == [(0, 1), (0, (0, 1)), (1, (0, 1))]

    def test_profiles_match_plain_oracle(self):
        g = generate(cycle(6))
        d = plain_distances(g)
        for p in pair_profiles(g, Variant.VERTEX):
            for s in range(g.n):
                assert p.delta_profile[s] == abs(d[p.a][s] - d[p.b][s])


class TestVariantKappa:
    def test_single_edge_graph_has_no_edge_pairs(self):
        assert variant_kappa(generate(path(2)), Variant.EDGE) == (None, None)

    def test_mixed_kappa_on_edge(self):
        value, witness = variant_kappa(generate(path(2)), Variant.MIXED)
        assert value == 1 and witness == (0, (0, 1))

    def test_vertex_kappa_matches_profile_minimum(self):
        g = petersen()
        value, _ = variant_kappa(g, Variant.VERTEX)
        assert value == PETERSEN_KAPPA
        assert value == min(p.total for p in pair_profiles(g, Variant.VERTEX))


class TestBruteForce:
    def test_path_value_is_k(self):
        assert solve_bruteforce(generate(path(5)), k=3).value == 3

    def test_complete_graph_values(self):
        g = generate(complete(4))
        assert solve_bruteforce(g, k=1).value == 3
        assert solve_bruteforce(g, k=2).value == 4

    def test_petersen_regression(self):
        g = petersen()
        assert solve_bruteforce(g, k=1).value == PETERSEN_WDIM1
        assert solve_bruteforce(g, k=2).value == PETERSEN_WDIM2

    def test_basis_is_lex_smallest_at_optimum(self):
        g = generate(cycle(5))
        res = solve_bruteforce(g, k=2)
        # independent enumeration over all subsets of the optimal size
        d = plain_distances(g)
        feasible = [
            S
            for S in combinations(range(g.n), res.value)
            if all(
                plain_delta_set(d, x, y, S) >= 2
                for x in range(g.n)
                for y in range(x + 1, g.n)
            )
        ]
        assert res.basis == min(feasible)
        assert not any(
            all(
                plain_delta_set(d, x, y, S) >= 2
                for x in range(g.n)
                for y in range(x + 1, g.n)
            )
            for S in combinations(range(g.n), res.value - 1)
        )

    def test_infeasible_k_reports_kappa_and_witness(self):
        with pytest.raises(KaboveKappa) as info:
            solve_bruteforce(generate(complete(4)), k=3)
        assert info.value.kappa == 2
        assert info.value.witness == (0, 1)

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            solve_bruteforce(generate(path(20)), k=1, size_cap=16)

    def test_certificate_and_verification(self):
        for g in [generate(star(6)), generate(grid(2, 3)), petersen()]:
            kappa, _ = variant_kappa(g, Variant.VERTEX)
            for k in (1, 2, kappa):
                res = solve_bruteforce(g, k=k)
                assert verify_set(g, Variant.VERTEX, res.basis, k).ok
                assert res.certificate.delta >= k
                assert k <= res.value <= g.n

    def test_no_item_pairs_yields_empty_basis(self):
        res = solve_bruteforce(generate(path(2)), Variant.EDGE, k=3)
        assert res.value == 0 and res.basis == ()


def brute_corpus():
    return random_graph_corpus() + random_tree_corpus(max_n=10) + family_corpus(max_n=10)


def plain_limit(g, variant: Variant, criterion: str) -> int:
    """The largest k the criterion allows: the least pair total over all
    vertices (1 without item pairs, where every k is vacuous)."""
    _, rows = plain_item_rows(g, variant.value)
    totals = [sum(abs(x - y) if criterion == "sum" else int(x != y) for x, y in zip(ra, rb))
              for ra, rb in combinations(rows, 2)]
    return min(totals, default=1)


def pinned(res):
    """What ``plain_brute`` reports of a brute-force result."""
    cert = res.certificate
    return (res.value, res.basis, cert and (cert.a, cert.b, cert.delta),
            res.stats.get("subsets"))


class TestBruteAgainstPlainOracle:
    """Value, basis, certificate and subsets checked, for every k up to the
    criterion's limit, against the one-subset-at-a-time oracle."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_sum_criterion(self, variant):
        for g in brute_corpus():
            for k in range(1, plain_limit(g, variant, "sum") + 1):
                expected = plain_brute(g, variant.value, k)
                assert pinned(solve_bruteforce(g, variant, k)) == expected, (g.edges(), k)

    def test_count_criterion(self):
        for g in brute_corpus():
            for k in range(1, plain_limit(g, Variant.VERTEX, "count") + 1):
                expected = plain_brute(g, "vertex", k, "count")
                assert pinned(solve_kmetric_dim(g, k)) == expected, (g.edges(), k)


class TestBruteBlocks:
    def test_block_edges_anywhere(self, monkeypatch):
        """Blocks of a few subsets put the answer on a block's first and
        last entry, in a later block of its size and in a later size; each
        result is the one made with the default blocks."""
        cases = [(g, variant, k) for g in random_graph_corpus(count=8, max_n=8, seed=515)
                 for variant in Variant for k in (1, 2, 3)
                 if k <= plain_limit(g, variant, "sum")]
        expected = [solve_bruteforce(*case) for case in cases]
        spans = []
        unrank = solver._subsets_at

        def recording(steps, lo, hi):
            spans.append((len(steps) + 1, lo, hi))
            return unrank(steps, lo, hi)

        monkeypatch.setattr(solver, "_subsets_at", recording)
        seen = set()
        for block in (1, 2, 3, 7):
            monkeypatch.setattr(solver, "_BRUTE_BLOCK", block)
            for (g, variant, k), want in zip(cases, expected):
                spans.clear()
                got = solve_bruteforce(g, variant, k)
                assert got == want, (g.edges(), variant, k, block)
                if not spans:  # no item pairs
                    continue
                size, lo, hi = spans[-1]
                rank = list(combinations(range(g.n), size)).index(got.basis)
                assert lo <= rank < hi
                if hi - lo > 1 and rank == lo:
                    seen.add("first")
                if hi - lo > 1 and rank == hi - 1:
                    seen.add("last")
                if lo > 0:
                    seen.add("later block")
                if size > spans[0][0]:
                    seen.add("later size")
        assert seen == {"first", "last", "later block", "later size"}

    @pytest.mark.parametrize("spec, variant, k, value, subsets", [
        ("complete:16", Variant.VERTEX, 2, 16, 65519),
        ("grid:4x4", Variant.MIXED, 4, 12, 62637),
    ])
    def test_peak_memory_at_the_size_cap(self, spec, variant, k, value, subsets):
        g = generate(parse_family(spec))
        g.distance_matrix  # made once per graph; not the search's memory
        tracemalloc.start()
        try:
            res = solve_bruteforce(g, variant, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.value, res.stats["subsets"]) == (value, subsets)
        assert peak < 2 * 2**20


class TestBranchAndBound:
    def test_even_cycle(self):
        assert solve_bnb(generate(cycle(8)), k=4).value == 4

    def test_odd_cycle(self):
        assert solve_bnb(generate(cycle(7)), k=3).value == 4

    def test_grid_3x3(self):
        assert solve_bnb(generate(grid(3, 3)), k=5).value == 6

    def test_matches_brute_on_variants(self):
        instances = [
            (generate(path(6)), Variant.EDGE),
            (generate(cycle(6)), Variant.EDGE),
            (generate(star(6)), Variant.EDGE),
            (generate(path(5)), Variant.MIXED),
            (generate(cycle(5)), Variant.MIXED),
            (generate(star(5)), Variant.MIXED),
            (generate(spider(1, 2, 2)), Variant.VERTEX),
        ]
        for g, variant in instances:
            kappa, _ = variant_kappa(g, variant)
            for k in range(1, kappa + 1):
                b = solve_bnb(g, variant, k)
                assert b.value == solve_bruteforce(g, variant, k).value
                assert verify_set(g, variant, b.basis, k).ok

    def test_deterministic(self):
        g = petersen()
        first = solve_bnb(g, k=2)
        second = solve_bnb(g, k=2)
        assert first == second

    def test_infeasible_k(self):
        with pytest.raises(KaboveKappa):
            solve_bnb(generate(star(5)), k=5)

    def test_stats_report_nodes(self):
        res = solve_bnb(petersen(), k=2)
        assert res.stats["oracle"] == "bnb" and res.stats["nodes"] >= 1


class TestRandomizedEquivalence:
    # families are structured; random graphs probe the solvers where no
    # closed form exists, across all three variants
    def test_brute_and_bnb_agree_on_random_graphs(self):
        for g in random_graph_corpus(count=12, max_n=9, seed=60601):
            for variant in Variant:
                kappa, _ = variant_kappa(g, variant)
                if kappa is None:
                    continue
                ks = sorted({1, 2, (kappa + 1) // 2, kappa})
                for k in ks:
                    if k < 1 or k > kappa:
                        continue
                    brute = solve_bruteforce(g, variant, k)
                    bnb = solve_bnb(g, variant, k)
                    assert brute.value == bnb.value, (g, variant, k)
                    assert verify_set(g, variant, bnb.basis, k).ok


class TestKMetricDim:
    def test_k1_equals_weak_dimension(self):
        for g in random_graph_corpus(count=8, max_n=8, seed=2024):
            assert solve_kmetric_dim(g, 1).value == solve_bruteforce(g, k=1).value

    def test_path_endpoint_resolves(self):
        assert solve_kmetric_dim(generate(path(7)), 1).value == 1

    def test_c6_regression_and_sandwich(self):
        g = generate(cycle(6))
        dim2 = solve_kmetric_dim(g, 2).value
        assert dim2 == 3  # frozen from exhaustive search over C6 subsets
        assert solve_bruteforce(g, k=2).value <= dim2

    def test_infeasible_above_kappa_prime(self):
        g = generate(complete(4))  # each pair distinguished only by itself
        with pytest.raises(KaboveKappa) as info:
            solve_kmetric_dim(g, 3)
        assert info.value.kappa == 2
        assert info.value.criterion == "count"


class TestLpExport:
    def test_path_vertex_model_shape(self):
        text = write_lp(generate(path(3)), Variant.VERTEX, 1)
        assert text.count("Binaries") == 1
        assert " x0 x1 x2" in text
        assert sum(1 for line in text.splitlines() if line.lstrip().startswith("p")) == 3
        assert text.strip().endswith("End")

    def test_path_edge_model_single_row(self):
        text = write_lp(generate(path(3)), Variant.EDGE, 1)
        rows = [ln for ln in text.splitlines() if ln.lstrip().startswith("p")]
        assert len(rows) == 1
        assert rows[0].endswith(">= 1")

    def test_complete_rows_are_two_unit_terms(self):
        text = write_lp(generate(complete(4)), Variant.VERTEX, 2)
        rows = [ln for ln in text.splitlines() if ln.lstrip().startswith("p")]
        assert len(rows) == 6
        for row in rows:
            body = row.split(":", 1)[1].split(">=")[0]
            terms = [t.strip() for t in body.split("+")]
            assert len(terms) == 2
            assert all(t.startswith("1 x") for t in terms)

    def test_coefficients_match_profiles(self):
        g = generate(cycle(5))
        text = write_lp(g, Variant.VERTEX, 2)
        first = next(ln for ln in text.splitlines() if ln.lstrip().startswith("p0:"))
        profile = pair_profiles(g, Variant.VERTEX)[0].delta_profile
        expected = " + ".join(
            f"{c} x{i}" for i, c in enumerate(profile) if c
        )
        assert first == f" p0: {expected} >= 2"


def plain_worst_pair(items, rows, S, criterion="sum"):
    """Lex-first item pair minimizing the difference sum (or, for "count",
    the number of distinguishing vertices) over S, as (value, a, b); None
    with fewer than two items."""
    best = None
    for i, j in combinations(range(len(items)), 2):
        if criterion == "count":
            value = sum(1 for s in S if rows[i][s] != rows[j][s])
        else:
            value = sum(abs(rows[i][s] - rows[j][s]) for s in S)
        if best is None or value < best[0]:
            best = (value, items[i], items[j])
    return best


def plain_label(item) -> str:
    return f"e{item[0]}_{item[1]}" if isinstance(item, tuple) else f"v{item}"


def lp_rows(text: str):
    """(pair label, {column: coefficient, ">=": rhs}) per constraint, in order."""
    body = text.split("Subject To\n", 1)[1].split("Binaries\n", 1)[0]
    rows = []
    for line in body.splitlines():
        if line.startswith("\\ pair "):
            rows.append((line[len("\\ pair "):], {}))
            continue
        terms = line.split(":", 1)[-1]
        if ">=" in terms:
            terms, rhs = terms.split(">=")
            rows[-1][1][">="] = int(rhs)
        for term in terms.split("+"):
            if term.strip():
                c, x = term.split()
                rows[-1][1][int(x[1:])] = int(c)
    return rows


VARIANTS = [Variant.VERTEX, Variant.EDGE, Variant.MIXED]


class TestVariantsAgainstPlainOracle:
    """Edge and mixed items (d(u, vw) = min) checked against plain Python."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant_kappa_and_witness(self, variant):
        # the one-vertex graph has no edge items: the scan gets zero rows
        for g in random_graph_corpus() + [build_graph(1, [])]:
            items, rows = plain_item_rows(g, variant.value)
            worst = plain_worst_pair(items, rows, range(g.n))
            expected = (None, None) if worst is None else (worst[0], worst[1:])
            assert variant_kappa(g, variant) == expected

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_verify_set_and_certificate(self, variant):
        rng = random.Random(4127)
        for g in random_graph_corpus() + [build_graph(1, [])]:
            items, rows = plain_item_rows(g, variant.value)
            for _ in range(3):
                S = sorted(rng.sample(range(g.n), rng.randint(0, g.n)))
                worst = plain_worst_pair(items, rows, S)
                if worst is None:
                    assert certificate_for(g, variant, S) is None
                    assert verify_set(g, variant, S, 1) == (True, None, None)
                    continue
                value, a, b = worst
                assert certificate_for(g, variant, S) == Certificate(a, b, value)
                assert verify_set(g, variant, S, value) == (True, None, value)
                assert verify_set(g, variant, S, value + 1) == (False, (a, b), value)

    @pytest.mark.parametrize("variant", [Variant.EDGE, Variant.MIXED])
    def test_write_lp_rows_in_pair_order(self, variant):
        for g in random_graph_corpus():
            items, rows = plain_item_rows(g, variant.value)
            expected = []
            for i, j in combinations(range(len(items)), 2):
                coeffs = {s: abs(rows[i][s] - rows[j][s]) for s in range(g.n)}
                coeffs = {s: c for s, c in coeffs.items() if c}
                coeffs[">="] = 3
                expected.append(
                    (f"{plain_label(items[i])} -- {plain_label(items[j])}", coeffs)
                )
            assert lp_rows(write_lp(g, variant, 3)) == expected


def plain_wrap_terms(prefix: str, terms: list[str], suffix: str = "",
                     per_line: int = 10) -> list[str]:
    """The per-row line wrapping the LP text is pinned to."""
    lines = []
    for i in range(0, len(terms), per_line):
        chunk = " + ".join(terms[i:i + per_line])
        head = prefix if i == 0 else "   "
        tail = " +" if i + per_line < len(terms) else suffix
        lines.append(f"{head}{chunk}{tail}")
    return lines


def plain_write_lp(g, variant: Variant, k: int) -> str:
    """``write_lp`` rendered a line at a time from the plain item rows."""
    items, rows = plain_item_rows(g, variant.value)
    pairs = list(combinations(range(len(items)), 2))
    out = [
        f"\\ minimum weak {k}-resolving set, variant={variant.value}",
        f"\\ n={g.n} items={len(items)} pairs={len(pairs)}",
        "Minimize",
    ]
    out.extend(plain_wrap_terms(" obj: ", [f"x{i}" for i in range(g.n)]))
    out.append("Subject To")
    for idx, (i, j) in enumerate(pairs):
        coeffs = [abs(a - b) for a, b in zip(rows[i], rows[j])]
        terms = [f"{c} x{s}" for s, c in enumerate(coeffs) if c]
        out.append(f"\\ pair {plain_label(items[i])} -- {plain_label(items[j])}")
        out.extend(plain_wrap_terms(f" p{idx}: ", terms, suffix=f" >= {k}"))
    out.append("Binaries")
    names = [f"x{i}" for i in range(g.n)]
    for i in range(0, len(names), 12):
        out.append(" " + " ".join(names[i:i + 12]))
    out.append("End")
    return "\n".join(out) + "\n"


# rows of 8 to 12 and 20 to 22 nonzero terms: the line-wrap edges at 10 and 20
WRAP_FAMILIES = ["path:9", "path:10", "path:11", "path:12", "path:21", "cycle:23"]


class TestLpRenderer:
    """The block renderer of ``write_lp`` against the plain line renderer."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_random_corpus_byte_identical(self, variant):
        for g in random_graph_corpus():
            for k in (1, 3, 10):
                assert write_lp(g, variant, k) == plain_write_lp(g, variant, k)

    def test_wrap_edges_byte_identical(self):
        seen = set()
        for spec in WRAP_FAMILIES:
            g = generate(parse_family(spec))
            seen.update(np.count_nonzero(solver.cover_model(g, Variant.VERTEX).profile,
                                         axis=1).tolist())
            for variant in VARIANTS:
                assert write_lp(g, variant, 2) == plain_write_lp(g, variant, 2), spec
        assert {9, 10, 11, 20, 21} <= seen

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 40])
    def test_block_edges_anywhere(self, monkeypatch, block):
        monkeypatch.setattr(solver, "_LP_BLOCK", block)
        graphs = random_graph_corpus()[:10] + [generate(parse_family("path:21"))]
        for g in graphs:
            for variant in VARIANTS:
                assert write_lp(g, variant, 3) == plain_write_lp(g, variant, 3)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_pair_row_has_a_term(self, variant):
        # distinct items differ at an endpoint of one of them, so the LP
        # has one p-row per item pair
        for g in random_graph_corpus():
            profile = solver.cover_model(g, variant).profile
            assert (profile != 0).any(axis=1).all()
            rows = [ln for ln in write_lp(g, variant, 1).splitlines() if ln.startswith(" p")]
            assert len(rows) == len(profile)


def sweeps(g, variant, rng):
    """Named sequences of vertex sets for one graph: the kinds of sweep a
    ``wdim`` range makes, and a few it does not."""
    order = list(range(g.n))
    rng.shuffle(order)
    nested = [sorted(order[:m]) for m in range(1, g.n + 1)]
    kappa, _ = variant_kappa(g, variant)
    bnb = [solve_bnb(g, variant, k).basis for k in range(1, min(kappa or 0, 6) + 1)]
    return {
        "nested": nested,
        "equal steps": [S for S in nested[:4] for _ in range(3)],
        "shrinking": nested[::-1],
        "empty sets": [[], [], order[:2], [], order[:1]],
        "random": [sorted(rng.sample(range(g.n), rng.randint(0, g.n))) for _ in range(6)],
        "bnb": bnb,
        "bnb reversed": bnb[::-1],
        "single": [order[:2]],
        "none": [],
    }


class TestCertificatesFor:
    """One scan certifies a whole sweep: each set's worst pair equals the
    plain oracle's, whatever the sets' order and overlap."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_against_plain_oracle(self, variant):
        rng = random.Random(5171)
        graphs = random_graph_corpus() + random_tree_corpus()
        # no item pairs: one vertex (every variant), one edge (edge variant)
        graphs += [build_graph(1, []), generate(path(2))]
        for g in graphs:
            items, rows = plain_item_rows(g, variant.value)
            for name, bases in sweeps(g, variant, rng).items():
                expected = []
                for S in bases:
                    worst = plain_worst_pair(items, rows, S)
                    expected.append(None if worst is None else Certificate(*worst[1:], worst[0]))
                assert certificates_for(g, variant, bases) == expected, (g, name)

    def test_one_scan_per_sweep(self, monkeypatch):
        calls = []
        lex_min = resolve.lex_min

        def counting(rows, reducers, *args, **kwargs):
            calls.append([getattr(r, "columns", None) for r in reducers])
            return lex_min(rows, reducers, *args, **kwargs)

        g = generate(grid(4, 5))
        monkeypatch.setattr(resolve, "lex_min", counting)
        certificates_for(g, Variant.VERTEX, [[0, 1], [0, 1], [0, 2, 5], list(range(20))])
        certificates_for(g, Variant.VERTEX, [[0, 3]])  # a single set keeps the pair-sum scan
        assert calls == [[4], [None]]


class TestCoverModel:
    """The model's certificate and k-limit check against plain Python."""

    @pytest.mark.parametrize("criterion", ["sum", "count"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_certificate_and_limit(self, variant, criterion):
        rng = random.Random(6029)
        for g in random_graph_corpus():
            items, rows = plain_item_rows(g, variant.value)
            model = solver.cover_model(g, variant, criterion)
            subsets = [list(range(g.n))]
            subsets += [sorted(rng.sample(range(g.n), rng.randint(1, g.n))) for _ in range(2)]
            for S in subsets:
                value, a, b = plain_worst_pair(items, rows, S, criterion)
                assert model.certificate(S) == Certificate(a, b, value), (g, S)
            limit, a, b = plain_worst_pair(items, rows, range(g.n), criterion)
            assert model.certificate() == Certificate(a, b, limit)
            model.check(limit)
            with pytest.raises(KaboveKappa) as info:
                model.check(limit + 1)
            assert (info.value.kappa, info.value.witness, info.value.criterion) == (
                limit, (a, b), criterion)
            with pytest.raises(ParameterOutOfRange):
                model.check(0)

    def test_over_budget_fails_fast(self):
        # 499,500 pairs x 1,000 vertices: about 12 GiB, far over the limit
        g = generate(grid(40, 25))
        started = time.perf_counter()
        with pytest.raises(TooLarge, match="GiB"):
            solve_bnb(g, k=2)
        assert time.perf_counter() - started < 10


def counted_builds(monkeypatch) -> list:
    """Record (graph, variant, criterion) of every cover model built."""
    calls = []
    build = solver._build_model

    def counting(g, variant, criterion):
        calls.append((g, variant, criterion))
        return build(g, variant, criterion)

    monkeypatch.setattr(solver, "_build_model", counting)
    return calls


class TestModelCache:
    """One cover model per graph, variant and criterion, kept in the
    graph's cache: read-only, never shared between graphs, and the same
    model whichever reader builds it."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_build_per_sweep(self, variant, monkeypatch):
        """A bnb sweep, then a brute sweep, then ``write_lp`` and
        ``pair_profiles`` on one graph build one sum model; the count
        criterion's sweep builds one more."""
        calls = counted_builds(monkeypatch)
        for g in (generate(grid(3, 4)), random_connected_graph(random.Random(3), 9)):
            ks = range(1, min(variant_kappa(g, variant)[0], 6) + 1)
            bnb = [solve_bnb(g, variant, k) for k in ks]
            brute = [solve_bruteforce(g, variant, k) for k in ks]
            assert [r.value for r in bnb] == [r.value for r in brute]
            write_lp(g, variant, 2)
            pair_profiles(g, variant)
            assert calls == [(g, variant, "sum")]
            for k in (1, 2):
                solve_kmetric_dim(g, k)
            assert calls[1:] == [(g, Variant.VERTEX, "count")]
            calls.clear()

    def test_worst_pair_found_once(self):
        g = generate(grid(3, 3))
        model = solver.cover_model(g, Variant.EDGE)
        assert model.certificate() is model.worst is model.certificate()
        for k in range(1, model.worst.delta + 1):
            solve_bnb(g, Variant.EDGE, k)
        assert solver.cover_model(g, Variant.EDGE) is model
        assert model.certificate() is model.worst

    @pytest.mark.parametrize("criterion", ["sum", "count"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_profile_is_read_only(self, variant, criterion):
        for g in (generate(cycle(5)), build_graph(1, []), generate(path(2))):
            profile = solver.cover_model(g, variant, criterion).profile
            assert not profile.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                profile[...] = 0

    def test_graphs_never_share_a_model(self):
        edges = generate(grid(3, 3)).edges()
        first, second = build_graph(9, edges), build_graph(9, edges)
        for variant in VARIANTS:
            for criterion in ("sum", "count"):
                a, b = (solver.cover_model(g, variant, criterion) for g in (first, second))
                assert a is not b and not np.shares_memory(a.profile, b.profile)
                assert np.array_equal(a.profile, b.profile)
                assert solver.cover_model(first, variant, criterion) is a

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_write_lp_after_a_solve_as_on_a_fresh_graph(self, variant):
        for spec in ("grid:3x4", "cycle:7", "star:5", "spider:1,2,3"):
            g = generate(parse_family(spec))
            solve_bnb(g, variant, 1)
            solve_bruteforce(g, variant, variant_kappa(g, variant)[0])
            fresh = write_lp(generate(parse_family(spec)), variant, 3)
            assert write_lp(g, variant, 3) == fresh

    def test_too_large_keeps_nothing(self, monkeypatch):
        """A build that raises TooLarge caches nothing: every call builds
        again and raises again."""
        calls = counted_builds(monkeypatch)
        g = generate(grid(40, 25))
        for _ in range(2):
            with pytest.raises(TooLarge, match="GiB"):
                solve_bnb(g, k=2)
        assert len(calls) == 2
        assert (Variant.VERTEX, "sum") not in g._cache

    def test_refused_model_builds_no_rows(self):
        """The size check runs before the item rows are made, so a refused
        model allocates neither the rows nor the distance matrix: the mixed
        model of grid:60x60 (about 4,971 GiB) peaked at 172 MiB when the
        rows came first."""
        g = generate(grid(60, 60))
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="the cover model of .* GiB"):
                solver.cover_model(g, Variant.MIXED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        assert "distances" not in g._cache


# bnb bases captured from commit 32308e8, whose bnb had only the ratio and
# mass bounds. A valid, stronger bound cuts nodes but never a subtree that
# holds a better set, and the branching rule is unchanged, so the search
# finds the same incumbents: every basis must stay as it was.
# (family, variant, first k) -> bases at k, k + 1, ...
GOLDEN_FAMILY_BASES = {
    ("grid:5x4", "vertex", 1): [
        (0, 3),
        (0, 3),
        (0, 1, 3, 17),
        (0, 1, 3, 17),
        (0, 1, 3, 16, 17, 19),
        (0, 1, 3, 16, 17, 19),
        (0, 1, 2, 3, 16, 17, 18, 19),
        (0, 1, 2, 3, 16, 17, 18, 19),
        (0, 1, 2, 3, 4, 7, 16, 17, 18, 19),
        (0, 1, 2, 3, 4, 7, 16, 17, 18, 19),
    ],
    ("grid:6x4", "vertex", 5): [
        (0, 1, 3, 20, 21, 23),
        (0, 1, 3, 20, 21, 23),
        (0, 1, 2, 3, 20, 21, 22, 23),
        (0, 1, 2, 3, 20, 21, 22, 23),
        (0, 1, 2, 3, 4, 7, 20, 21, 22, 23),
        (0, 1, 2, 3, 4, 7, 20, 21, 22, 23),
        (0, 1, 2, 3, 4, 7, 8, 11, 20, 21, 22, 23),
        (0, 1, 2, 3, 4, 7, 8, 11, 20, 21, 22, 23),
        (0, 1, 2, 3, 4, 7, 8, 11, 16, 19, 20, 21, 22, 23),
        (0, 1, 2, 3, 4, 7, 8, 11, 12, 15, 20, 21, 22, 23),
        (0, 1, 2, 3, 4, 7, 8, 11, 12, 15, 16, 19, 20, 21, 22, 23),
    ],
    ("grid:4x4", "mixed", 1): [
        (0, 3, 12),
        (0, 3, 12, 15),
        (0, 1, 3, 4, 7, 12, 13, 15),
        (0, 1, 2, 3, 4, 7, 8, 11, 12, 13, 14, 15),
    ],
}
# golden_random_graphs()[i] -> bases at k = 1..kappa
GOLDEN_RANDOM_BASES = [
    [(6, 8, 9), (5, 6, 7, 8, 9), (0, 4, 5, 6, 7, 8, 9), (1, 2, 3, 4, 5, 6, 7, 8, 9)],
    [(0, 1, 5), (0, 2, 3, 4, 8), (0, 1, 2, 4, 5, 8, 9), (0, 1, 2, 3, 4, 5, 6, 8, 9)],
    [
        (1, 2, 8),
        (0, 1, 4, 8),
        (0, 1, 4, 5, 6, 8),
        (0, 1, 4, 5, 6, 7, 8),
        (0, 1, 3, 4, 5, 6, 7, 8, 9),
    ],
    [
        (3, 5, 9),
        (1, 7, 8, 9),
        (0, 1, 2, 8, 9),
        (0, 1, 2, 4, 7, 8, 9),
        (0, 1, 2, 3, 4, 5, 7, 8, 9),
    ],
    [(3, 4, 6), (1, 3, 4, 8), (3, 4, 5, 6, 7), (1, 3, 4, 5, 6, 7)],
    [
        (0, 3),
        (0, 3, 4),
        (0, 1, 2, 3),
        (0, 1, 3, 4, 5),
        (0, 1, 2, 3, 4, 5, 6),
        (0, 1, 2, 3, 4, 5, 6, 8),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
    ],
    [(1, 3, 5), (1, 3, 4, 5), (1, 3, 4, 5, 8, 9)],
    [(0, 1, 2), (1, 5, 6, 9), (0, 1, 2, 5, 6, 9), (0, 1, 2, 3, 5, 6, 8, 9)],
    [(0, 2, 3), (0, 1, 3, 5), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5, 6)],
    [
        (2, 6),
        (2, 6),
        (2, 4, 6, 7),
        (2, 3, 4, 6),
        (0, 2, 4, 6, 7, 8),
        (0, 2, 4, 6, 7, 8),
        (0, 2, 3, 4, 6, 7, 8, 9),
        (0, 2, 3, 4, 6, 7, 8, 9),
    ],
    [(0, 4, 6), (5, 6, 7, 8, 9)],
    [(0, 1, 7), (0, 1, 2, 3, 7), (0, 1, 2, 3, 4, 7, 9), (0, 1, 2, 4, 6, 7, 8, 9)],
    [(1, 2, 6, 7), (1, 2, 4, 6, 7, 9), (0, 1, 2, 4, 5, 6, 7, 8, 9)],
    [
        (0, 2, 4),
        (0, 2, 6, 9),
        (0, 1, 2, 4, 8, 9),
        (0, 1, 2, 3, 4, 6, 8, 9),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
    ],
    [(0, 2, 3), (0, 2, 3, 4), (0, 3, 4, 5, 8, 9)],
    [(0, 1, 5, 7), (0, 2, 3, 8, 9), (0, 1, 2, 5, 7, 8, 9), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)],
    [(0, 1, 2), (0, 1, 3, 7), (0, 1, 3, 4, 7, 8)],
    [(0, 1, 5, 9), (2, 3, 5, 9), (0, 2, 3, 5, 7, 8, 9), (0, 2, 3, 4, 5, 6, 7, 8, 9)],
    [(1, 2, 9), (0, 2, 5, 8, 9), (0, 1, 2, 4, 5, 7, 9), (0, 1, 2, 4, 5, 7, 8, 9)],
    [
        (0, 1, 4),
        (0, 1, 3, 4),
        (1, 2, 3, 7, 8),
        (0, 2, 4, 5, 7, 8),
        (0, 1, 2, 3, 4, 5, 7, 8),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
    ],
]


def golden_random_graphs():
    rng = random.Random(5150)
    return [random_connected_graph(rng, 10) for _ in range(20)]


# bnb node counts at the same instances, captured from commit 0a3afbc (the
# cardinality and mass bounds only): a stronger admissible bound may only
# lower them
GOLDEN_FAMILY_NODES = {
    ("grid:5x4", "vertex", 1): [1, 1, 145, 1, 399, 1, 835, 1, 389, 1],
    ("grid:6x4", "vertex", 5): [701, 1, 2313, 1, 1481, 1, 737, 167, 237, 1, 91],
    ("grid:4x4", "mixed", 1): [13, 45, 93, 17],
}
GOLDEN_RANDOM_NODES = [
    [25, 97, 89, 31], [11, 75, 91, 41], [15, 55, 159, 79, 15], [13, 41, 35, 51, 15],
    [15, 21, 35, 23], [1, 15, 15, 11, 141, 61, 17], [9, 23, 15], [13, 67, 75, 31],
    [9, 31, 45, 25], [1, 1, 37, 1, 51, 1, 13, 1], [13, 109], [15, 91, 127, 49],
    [47, 137, 57], [13, 41, 53, 57, 15], [11, 29, 61], [49, 61, 97, 17], [15, 43, 93],
    [43, 23, 61, 15], [13, 85, 139, 57], [17, 43, 81, 59, 59, 17],
]


def greedy_size(g, variant, k) -> int:
    return len(solver._greedy_cover(solver.cover_model(g, variant).profile, k))


def counters_add_up(stats) -> bool:
    """Every node is a leaf (an incumbent update), a prune or a branch, and
    each branch has two children."""
    branches, odd = divmod(stats["nodes"] - 1, 2)
    leaves_and_prunes = stats["incumbent_updates"] + sum(stats["prunes"].values())
    return odd == 0 and stats["nodes"] == leaves_and_prunes + branches


class TestBnbBounds:
    @pytest.mark.parametrize("spec, variant, lo", list(GOLDEN_FAMILY_BASES))
    def test_family_bases_pinned(self, spec, variant, lo):
        g = generate(parse_family(spec))
        for k, basis in enumerate(GOLDEN_FAMILY_BASES[spec, variant, lo], start=lo):
            assert solve_bnb(g, Variant(variant), k).basis == basis, k

    def test_random_bases_pinned(self):
        for g, bases in zip(golden_random_graphs(), GOLDEN_RANDOM_BASES):
            kappa, _ = variant_kappa(g, Variant.VERTEX)
            assert [solve_bnb(g, k=k).basis for k in range(1, kappa + 1)] == bases

    @pytest.mark.parametrize("spec, variant, lo", list(GOLDEN_FAMILY_NODES))
    def test_family_node_ceilings(self, spec, variant, lo):
        g = generate(parse_family(spec))
        for k, ceiling in enumerate(GOLDEN_FAMILY_NODES[spec, variant, lo], start=lo):
            assert solve_bnb(g, Variant(variant), k).stats["nodes"] <= ceiling, k

    def test_random_node_ceilings(self):
        for i, g in enumerate(golden_random_graphs()):
            nodes = [solve_bnb(g, k=k).stats["nodes"]
                     for k in range(1, len(GOLDEN_RANDOM_NODES[i]) + 1)]
            assert all(map(int.__le__, nodes, GOLDEN_RANDOM_NODES[i])), (i, nodes)

    # the ratio and mass bounds alone visit 13,243 and 72,589 nodes here
    @pytest.mark.parametrize("k, ceiling", [(7, 3000), (11, 1500)])
    def test_odd_k_grid_node_ceiling(self, k, ceiling):
        res = solve_bnb(generate(grid(6, 4)), k=k)
        assert res.value == k + 1
        assert res.stats["nodes"] <= ceiling

    # the LP bound of grid:6x4 is k + 1 at odd k; the Lagrangian reaches it
    # at the root, where the greedy cover is optimal up to k = 9 (at k = 11
    # it has 13 vertices, so the search must still find a 12-set)
    @pytest.mark.parametrize("k", [5, 7, 9, 11])
    def test_odd_k_grid_root_bound(self, k):
        res = solve_bnb(generate(grid(6, 4)), k=k)
        assert (res.value, res.stats["root_bound"]) == (k + 1, k + 1)
        if k < 11:
            assert res.stats["nodes"] == 1
            assert res.stats["prunes"]["lagrangian"] == 1

    def test_root_bound_proves_the_even_k_grid_greedy_cover(self):
        # without the cardinality bound the mass bound alone needs 2,131 nodes
        res = solve_bnb(generate(grid(6, 4)), k=8)
        assert (res.value, res.stats["root_bound"], res.stats["nodes"]) == (8, 8, 1)

    @pytest.mark.parametrize("spec", ["cycle:8", "grid:4x3", "spider:1,2,3"])
    def test_k1_root_bound_reaches_the_clipped_mass(self, spec):
        # at k = 1 the root's entries clip to 0/1: the mass bound is the
        # pair count over the most pairs one vertex distinguishes
        g = generate(parse_family(spec))
        d = plain_distances(g)
        pairs = list(combinations(range(g.n), 2))
        best = max(sum(1 for x, y in pairs if d[x][s] != d[y][s]) for s in range(g.n))
        assert solve_bnb(g, k=1).stats["root_bound"] >= -(-len(pairs) // best)

    def test_lower_bounds_on_small_matrices(self):
        # row 0 needs its three unit columns; the best column sum is 3
        sub = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 3, 3, 3]], dtype=np.int8)
        assert solver._lower_bounds(sub, np.array([3, 3])) == (3, 2)
        # the caller clips entries at the residual: 5 counts as 2
        sub = np.array([[5, 1, 1], [1, 1, 0]], dtype=np.int8)
        for res, bounds in [([2, 2], (2, 2)), ([2, 3], None)]:
            res = np.array(res)
            assert solver._lower_bounds(np.minimum(sub, res[:, None]), res) == bounds

    def test_lagrangian_prune_is_exact(self):
        # one row needing 3 of three unit columns: L(u) = 3u for u <= 1
        clipped, res = np.array([[1, 1, 1]]), np.array([3])
        q = solver._LAG_Q
        u = np.array([2 / 3 + 1e-12])
        # in floats L(u) clears 2, but u snaps down to floor(2q/3) / q and
        # 3 floor(2q/3) < 2q: the exact test must not prune
        assert 3 * u[0] > 2
        assert solver._snapped_bound(clipped, res, u) == 3 * (2 * q // 3) < 2 * q
        assert not solver._lagrangian_prunes(clipped, res, u, 2)
        assert solver._lagrangian_prunes(clipped, res, np.array([1.0]), 2)
        assert not solver._lagrangian_prunes(clipped, res, np.array([1.0]), 3)

    def test_snapped_bound_against_python_ints(self):
        rng = np.random.default_rng(5)
        q = solver._LAG_Q
        for _ in range(50):
            rows, cols = rng.integers(1, 8), rng.integers(1, 8)
            res = rng.integers(1, 6, rows)
            clipped = np.minimum(rng.integers(0, 6, (rows, cols)), res[:, None])
            u = rng.random(rows)
            w = [int(x * q) for x in u.tolist()]
            expected = sum(wr * int(r) for wr, r in zip(w, res)) + sum(
                min(0, q - sum(wr * int(clipped[r, c]) for r, wr in enumerate(w)))
                for c in range(cols)
            )
            assert solver._snapped_bound(clipped, res, u) == expected

    def test_subgradient_value_is_a_lower_bound(self):
        # L(u) <= the LP optimum for any u; grid:3x3 at k = 5 needs 6
        g = generate(grid(3, 3))
        profile = solver.cover_model(g, Variant.VERTEX).profile
        rhs = solver._row_rhs(profile, 5)
        clipped = np.minimum(profile, rhs[:, None])
        value, u = solver._subgradient(clipped, rhs, np.zeros(len(rhs)), 60, 6)
        assert 0 <= u.min() and u.max() <= 1
        assert value <= 6 and solver._snapped_bound(clipped, rhs, u) <= 6 * solver._LAG_Q

    def test_counters_add_up(self, monkeypatch):
        bounds, lower_bounds = [], solver._lower_bounds
        snapped, snapped_bound = [], solver._snapped_bound
        decisions, lagrangian_prunes = [], solver._lagrangian_prunes
        # node checks in search order, each with the number of bounds
        # computed before it (the root's check follows the first)
        covers, first_cover = [], solver._first_cover

        def recording_bounds(sub, res):
            bounds.append(lower_bounds(sub, res))
            return bounds[-1]

        def recording_cover(clipped, res, lo, hi):
            cover, checked = first_cover(clipped, res, lo, hi)
            covers.append((len(bounds), cover))
            return cover, checked

        def recording_snapped(clipped, res, u):
            snapped.append(snapped_bound(clipped, res, u))
            return snapped[-1]

        def recording_prunes(clipped, res, u, limit):
            decisions.append(lagrangian_prunes(clipped, res, u, limit))
            return decisions[-1]

        monkeypatch.setattr(solver, "_lower_bounds", recording_bounds)
        monkeypatch.setattr(solver, "_snapped_bound", recording_snapped)
        monkeypatch.setattr(solver, "_lagrangian_prunes", recording_prunes)
        monkeypatch.setattr(solver, "_first_cover", recording_cover)
        cases = [(generate(grid(6, 4)), Variant.VERTEX, k) for k in (5, 6, 7)]
        cases += [(g, variant, k) for g in random_graph_corpus(count=8)
                  for variant in Variant for k in (1, 2, 3)]
        root_checks = set()  # whether a root's check found no cover
        for g, variant, k in cases:
            kappa, _ = variant_kappa(g, variant)
            if kappa is None or k > kappa:
                continue
            bounds.clear()
            snapped.clear()
            decisions.clear()
            covers.clear()
            res = solve_bnb(g, variant, k)
            stats = res.stats
            assert set(stats["prunes"]) == {"infeasible", "card", "mass", "exhaustive",
                                            "lagrangian"}
            assert counters_add_up(stats), (g, variant, k, stats)
            assert stats["prunes"]["infeasible"] == bounds.count(None)
            assert stats["prunes"]["lagrangian"] == decisions.count(True)
            assert stats["prunes"]["exhaustive"] == [cover for _, cover in covers].count(None)
            # the root node computes the first bounds, then either its exact
            # check, whose first cover's size (or the greedy start's, without
            # one) is the optimum, or its Lagrangian, the first snapped bound,
            # when the root gets that far; a greedy start of one column cuts
            # the root before any of them
            lagrangian_root = [-(-value // solver._LAG_Q) for value in snapped[:1]]
            if not bounds:
                assert (stats["root_bound"], res.value, stats["nodes"]) == (1, 1, 1)
            elif covers and covers[0][0] == 1:
                cover = covers[0][1]
                root_checks.add(cover is None)
                assert stats["root_bound"] == (greedy_size(g, variant, k) if cover is None
                                               else len(cover)) == res.value
            else:
                assert bounds[0] is not None
                assert stats["root_bound"] == max(*bounds[0], *lagrangian_root)
            assert stats["root_bound"] <= res.value
            greedy = greedy_size(g, variant, k)
            assert (stats["incumbent_updates"] == 0) == (res.value == greedy)
        assert root_checks == {True, False}

    def test_rhs_rounds_up_to_the_row_gcd(self):
        # grid:3x3 is bipartite: a pair at even distance differs by an even
        # amount at every probe, so reaching k = 3 means reaching 4
        g = generate(grid(3, 3))
        d = plain_distances(g)
        rhs = solver._row_rhs(solver.cover_model(g, Variant.VERTEX).profile, 3)
        pairs = list(combinations(range(g.n), 2))
        assert [int(r) for r in rhs] == [4 if d[x][y] % 2 == 0 else 3 for x, y in pairs]


def plain_first_cover(matrix, rhs, lo: int, hi: int):
    """``_first_cover`` one subset at a time, in (size, lex) order."""
    rows, cols = matrix.shape
    need = [int(rhs)] * rows if np.ndim(rhs) == 0 else [int(r) for r in rhs]
    checked = 0
    for size in range(lo, min(hi, cols) + 1):
        for S in combinations(range(cols), size):
            checked += 1
            if all(sum(int(matrix[r, c]) for c in S) >= need[r] for r in range(rows)):
                return S, checked
    return None, checked


class TestNodeCheck:
    @pytest.mark.parametrize("block", [3, solver._BRUTE_BLOCK])
    def test_kernel_against_combinations(self, monkeypatch, block):
        """Random small clipped matrices, residual vectors (and scalars) and
        size ranges, lo = hi, lo > hi and fewer columns than lo among them."""
        monkeypatch.setattr(solver, "_BRUTE_BLOCK", block)
        rng = np.random.default_rng(1717)
        seen = set()
        for trial in range(400):
            rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            res = rng.integers(1, 7, rows)
            matrix = np.minimum(rng.integers(0, 6, (rows, cols)), res[:, None]).astype(np.int8)
            rhs = int(res[0]) if trial % 5 == 0 else res
            lo = int(rng.integers(1, cols + 3))
            hi = int(rng.integers(lo - 1, cols + 3))
            want = plain_first_cover(matrix, rhs, lo, hi)
            assert solver._first_cover(matrix, rhs, lo, hi) == want, (matrix, rhs, lo, hi)
            seen |= {("lo = hi", lo == hi), ("lo > hi", lo > hi), ("cols < lo", cols < lo),
                     ("cover", want[0] is not None)}
        assert all((case, True) in seen for case in ("lo = hi", "lo > hi", "cols < lo", "cover"))
        assert ("cover", False) in seen

    def test_the_check_moves_no_answer(self, monkeypatch):
        cases = [(g, variant, k) for g in random_graph_corpus() for variant in Variant
                 for k in range(1, min(variant_kappa(g, variant)[0] or 0, 4) + 1)]
        checked = [solve_bnb(*case) for case in cases]
        monkeypatch.setattr(solver, "_COMPLETIONS", 0)
        plain = [solve_bnb(*case) for case in cases]
        assert sum(res.stats["prunes"]["exhaustive"] for res in checked) > 0
        assert sum(res.stats["prunes"]["exhaustive"] for res in plain) == 0
        for case, a, b in zip(cases, checked, plain):
            assert (a.value, a.basis) == (b.value, b.basis), case

    def test_no_array_reaches_64_kib_at_the_gates_largest_nodes(self, monkeypatch):
        """No array of a node check reaches 64 KiB: not at the largest node
        a search checks (within 2 % of the gate's bound), nor at nodes built
        at the gate's bounds, whose every subset passes the tight row and
        none covers (the most subsets, survivors per gather, entries or
        rows that the gate admits)."""
        checks, first_cover = [], solver._first_cover

        def recording(clipped, res, lo, hi):
            rows, cols = clipped.shape
            checks.append((rows * subsets(cols, lo, hi), clipped.copy(), res.copy(), lo, hi))
            return first_cover(clipped, res, lo, hi)

        monkeypatch.setattr(solver, "_first_cover", recording)
        g = random_connected_graph(random.Random(7), 20)
        for k in range(1, 5):
            solve_bnb(g, k=k)
        work, *largest = max(checks, key=lambda check: check[0])
        assert 0.98 * solver._COMPLETIONS < work < solver._COMPLETIONS
        nodes = [tuple(largest)]
        for rows, cols, lo, hi in [(1, 24, 4, 5), (64, 12, 3, 5), (511, 16, 15, 15),
                                   (4095, 2, 1, 1)]:
            assert solver._few_completions(rows, cols, lo, hi)
            assert not solver._few_completions(rows, cols + 1, lo, hi + 1)
            # ones everywhere but the last row, which no subset up to hi covers
            clipped = np.ones((rows, cols), dtype=np.int8)
            res = np.full(rows, lo, dtype=np.int64)
            clipped[-1], res[-1] = cols + 2, (cols + 2) * hi + 1
            nodes.append((clipped, res, lo, hi))
            assert first_cover(clipped, res, lo, hi) == (None, subsets(cols, lo, hi))
        # one subset's int64 row sums must fit a block, however few columns
        assert not solver._few_completions(solver._BRUTE_BLOCK + 1, 1, 1, 1)
        for node in nodes:
            assert max(array_sizes(first_cover, *node)) < 64 * 1024


def subsets(cols: int, lo: int, hi: int) -> int:
    return sum(math.comb(cols, s) for s in range(lo, min(hi, cols) + 1))


def array_sizes(first_cover, *args) -> list[int]:
    """Per line of the kernel (``_first_cover``, ``_subsets_at``) the
    largest numpy block that tracemalloc holds for it, and the gather's
    temporaries (the survivors' columns and their int64 row sums), made
    within one line, sized from its locals. The kernel's other temporaries
    are no larger than a block it holds: a block's tight-row entries and
    sums, its ranks, the comparisons."""
    sizes = []
    codes = {first_cover.__code__, solver._subsets_at.__code__}
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def line(frame, event, arg):
        traces = tracemalloc.take_snapshot().filter_traces(numpy_only).traces
        sizes.append(max((trace.size for trace in traces), default=0))
        names = frame.f_locals
        if "part" in names:
            survivors, rows = len(names["part"]), names["columns"].shape[1]
            sizes.append(survivors * rows * names["block"].shape[1] * names["columns"].itemsize)
            sizes.append(survivors * rows * 8)
        return line

    solver._lex_steps.cache_clear()
    tracemalloc.start()
    sys.settrace(lambda frame, event, arg: line if frame.f_code in codes else None)
    try:
        first_cover(*args)
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return sizes


def _random_graphs(max_n: int = 9):
    """A random labelled tree on 2..max_n vertices plus any set of extra edges."""
    def build(n, prufer, extra):
        edges = set(tree_from_prufer(prufer, n).edges())
        edges |= {pair for pair, keep in zip(combinations(range(n), 2), extra) if keep}
        return build_graph(n, sorted(edges))

    return st.integers(2, max_n).flatmap(lambda n: st.builds(
        build,
        st.just(n),
        st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2),
        st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
    ))


@settings(max_examples=40, deadline=None)
@given(g=_random_graphs(), data=st.data())
def test_bnb_root_bound_and_value_against_brute(g, data):
    # node checks, each with the number of bounds computed before it: the
    # root ran the check when the first one follows the root's bounds
    bounds, checks = [], []
    lower_bounds, first_cover = solver._lower_bounds, solver._first_cover

    def recording_bounds(clipped, res):
        bounds.append(lower_bounds(clipped, res))
        return bounds[-1]

    def recording_cover(clipped, res, lo, hi):
        checks.append(len(bounds))
        return first_cover(clipped, res, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_lower_bounds", recording_bounds)
        mp.setattr(solver, "_first_cover", recording_cover)
        for variant in Variant:
            kappa, _ = variant_kappa(g, variant)
            if kappa is None:
                continue
            k = data.draw(st.integers(1, kappa), label=variant.value)
            optimum = solve_bruteforce(g, variant, k).value
            bounds.clear()
            checks.clear()
            res = solve_bnb(g, variant, k)
            assert res.stats["root_bound"] <= optimum
            assert res.value == optimum
            if checks[:1] == [1]:
                assert res.stats["root_bound"] == optimum

"""CLI subcommands: JSON schema, exit codes, round trips, engine agreement."""

import contextlib
import io
import json
import os
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tree_graph, tree_from_prufer

from weakdim import (
    Variant,
    cli,
    compute_kappa,
    cycle,
    families,
    generate,
    graph,
    parse_family,
    resolve,
    solver,
    spider,
    trees,
    variant_kappa,
    write_lp,
)
from weakdim.graph import find_twins, format_edgelist, parse_edgelist, twin_summary
from weakdim.resolve import lex_min
from weakdim.solver import DimensionResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def assert_phases(stats, names):
    """``phases_ms`` holds ``names`` in order as non-negative floats, and
    their sum stays within ``elapsed_ms`` up to rounding each value to
    0.1 ms: 0.05 ms per phase plus 0.05 ms for ``elapsed_ms``."""
    phases = stats["phases_ms"]
    assert list(phases) == list(names)
    assert all(isinstance(v, float) and v >= 0 for v in phases.values())
    assert sum(phases.values()) <= stats["elapsed_ms"] + 0.05 * (len(names) + 1)


class TestKappaCommand:
    def test_even_cycle(self, capsys):
        report = run_json(capsys, "kappa", "--family", "cycle:8")
        row = report["results"][0]
        assert row["kappa"] == 8
        assert report["input"]["source"] == "cycle:8"

    def test_complete(self, capsys):
        row = run_json(capsys, "kappa", "--family", "complete:5")["results"][0]
        assert row["kappa"] == 2
        assert row["classification"] == "Weak2TrueTwins"

    def test_file_input(self, capsys, tmp_path):
        f = tmp_path / "p2.txt"
        f.write_text("2 1\n0 1\n")
        row = run_json(capsys, "kappa", "--file", str(f))["results"][0]
        assert row["kappa"] == 2

    def test_schema_keys(self, capsys):
        report = run_json(capsys, "kappa", "--family", "star:6")
        assert list(report) == ["input", "operation", "results", "warnings", "stats"]
        assert report["operation"] == "kappa"

    def test_timing_phases(self, capsys):
        stats = run_json(capsys, "kappa", "--family", "grid:6x6", "--timing")["stats"]
        assert_phases(stats, ["load", "apsp", "kappa", "classify"])
        plain = run_json(capsys, "kappa", "--family", "grid:6x6")["stats"]
        assert list(plain) == ["true_twin_pairs", "false_twin_pairs", "workers"]

    def test_twins_found_once(self, capsys, monkeypatch):
        """The twin classes are built once per graph: over a ``kappa`` run,
        and over every reader of them on one graph."""
        calls = []
        build = graph._twin_classes

        def counting(g):
            calls.append(g.n)
            return build(g)

        monkeypatch.setattr(graph, "_twin_classes", counting)
        row = run_json(capsys, "kappa", "--family", "kqr:2,3")["results"][0]
        assert row["classification"] == "Weak4FalseTwins"
        assert calls == [5]
        g = generate(parse_family("kqr:2,4"))
        report = compute_kappa(g)
        assert twin_summary(g).false_count == 7
        assert find_twins(g) == ([], [(0, 1), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
        assert variant_kappa(g, Variant.VERTEX) == (report.kappa, report.witness_pair)
        assert calls == [5, 6]

    def test_workers_capped_at_the_cpu_count(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        requested = []

        def recording(rows, reducers, workers=1, partners=None, heads=None):
            requested.append(workers)
            if workers > 2:  # refuse before any thread starts
                raise AssertionError(f"{workers} workers reached lex_min")
            return lex_min(rows, reducers, workers, partners, heads)

        monkeypatch.setattr(resolve, "lex_min", recording)
        # twin-free with many equidistant pairs, so kappa takes the threaded
        # scans over the sum-gap band (sum and count) after its seed scan, and
        # the odd pairs' scan, a pair list, gets the workers between them
        report = run_json(capsys, "kappa", "--family", "grid:12x12", "--workers", "5000")
        assert requested == [1, 2, 2, 2]
        assert report["stats"]["workers"] == 2
        one = run_json(capsys, "kappa", "--family", "grid:12x12", "--workers", "1")
        assert requested == [1, 2, 2, 2, 1, 1, 1, 1]
        assert one["results"] == report["results"]
        assert one["stats"]["workers"] == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        code, out, err = run_cli(capsys, "kappa", "--family", "cycle:9",
                                 f"--workers={workers}")
        assert code == 2 and out == "" and "--workers must be at least 1" in err


class TestTreeKappaWithoutTheMatrix:
    """``kappa`` answers trees from their thread decomposition: once the
    graph is loaded, any start of the all-pairs BFS or of a family's
    closed-form fill fails the run."""

    @pytest.fixture
    def no_apsp(self, monkeypatch):
        load = cli._load_graph

        def refuse(*args):
            raise AssertionError("APSP started")

        def loading(args):
            loaded = load(args)
            monkeypatch.setattr(graph, "_all_sources_bfs", refuse)
            monkeypatch.setattr(graph.Graph, "_bfs", refuse)
            monkeypatch.setattr(families, "spec_distances", refuse)
            return loaded

        monkeypatch.setattr(cli, "_load_graph", loading)

    def test_path_past_the_apsp_cap(self, capsys, no_apsp):
        """The matrix of path:40000 would need about 6 GiB (TooLarge)."""
        report = run_json(capsys, "kappa", "--family", "path:40000", "--timing")
        row = report["results"][0]
        assert (row["kappa"], row["kappa_prime"], row["witness_pair"]) == (40000, 39999, [0, 1])
        assert_phases(report["stats"], ["load", "apsp", "kappa", "classify"])
        assert report["stats"]["phases_ms"]["apsp"] < 5

    def test_random_tree_file(self, capsys, tmp_path, no_apsp):
        g = random_tree_graph(random.Random(3), 20000)
        f = tmp_path / "tree.txt"
        f.write_text(format_edgelist(g))
        row = run_json(capsys, "kappa", "--file", str(f))["results"][0]
        x, y = row["witness_pair"]
        assert trees.delta_tree_pair(g, x, y, range(g.n)) == row["kappa"]


class TestWdimCommand:
    def test_path_sweep(self, capsys):
        report = run_json(capsys, "wdim", "--family", "path:9", "--k", "1..9")
        assert [r["value"] for r in report["results"]] == list(range(1, 10))

    def test_grid_sweep_formula(self, capsys):
        report = run_json(capsys, "wdim", "--family", "grid:6x4", "--k", "1..16")
        values = [r["value"] for r in report["results"]]
        assert values == [k + 1 if k % 2 else k for k in range(1, 17)]
        assert {r["provenance"] for r in report["results"]} == {"formula"}

    def test_engines_agree(self, capsys):
        for family in ["cycle:7", "star:6", "kqr:2,3", "grid:2x3", "spider:1,1,2"]:
            values = {}
            for engine in ["formula", "brute", "bnb"]:
                report = run_json(
                    capsys, "wdim", "--family", family, "--k", "2..4",
                    "--engine", engine,
                )
                values[engine] = [r["value"] for r in report["results"]]
            assert values["formula"] == values["brute"] == values["bnb"]

    def test_one_model_per_run(self, capsys, monkeypatch):
        """A bnb or brute sweep over k builds its cover model once, as
        does ``export-lp``: the graph keeps it."""
        calls = []
        build = solver._build_model

        def counting(g, variant, criterion):
            calls.append((variant, criterion))
            return build(g, variant, criterion)

        monkeypatch.setattr(solver, "_build_model", counting)
        for engine in ("bnb", "brute"):
            report = run_json(capsys, "wdim", "--family", "grid:4x4", "--k", "1..12",
                              "--engine", engine)
            assert [r["value"] for r in report["results"]] == [2, 2, 4, 4, 6, 6, 8, 8,
                                                               10, 10, 12, 12]
        run_json(capsys, "wdim", "--family", "grid:4x4", "--variant", "mixed", "--k", "1..2",
                 "--engine", "bnb")
        run_cli(capsys, "export-lp", "--family", "grid:4x4", "--variant", "edge", "--k", "2",
                "--out", "-")
        assert calls == [("vertex", "sum")] * 2 + [("mixed", "sum"), ("edge", "sum")]

    def test_file_engine_brute_cross_check(self, capsys, tmp_path):
        _, text, _ = run_cli(capsys, "gen", "--family", "spider:1,2,5")
        f = tmp_path / "spider_1_2_5.txt"
        f.write_text(text)
        report = run_json(
            capsys, "wdim", "--file", str(f), "--k", "6", "--engine", "brute"
        )
        row = report["results"][0]
        assert row["value"] == 6 and row["provenance"] == "brute"

    def test_range_clipped_with_warning(self, capsys):
        report = run_json(capsys, "wdim", "--family", "cycle:5", "--k", "1..9")
        assert len(report["results"]) == 4  # kappa(C5) = 4
        assert any("clipped" in w for w in report["warnings"])

    def test_range_without_item_pairs_clipped_at_its_first_k(self, capsys):
        # path:2 has one edge, so the edge variant has no pair to bound k
        report = run_json(capsys, "wdim", "--family", "path:2", "--variant", "edge",
                          "--k", "2..100000000")
        assert [(r["k"], r["value"]) for r in report["results"]] == [(2, 0)]
        assert report["warnings"][-1] == "k range clipped at k=2: no item pairs for variant=edge"

    def test_range_above_kappa_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "wdim", "--family", "cycle:5", "--k", "6..9")
        assert (code, out) == (3, "")
        assert err == "error: k=6 infeasible: kappa=4 (witness pair (0, 1))\n"

    def test_timing_phases(self, capsys):
        argv = ["wdim", "--family", "grid:4x4", "--k", "1..4", "--engine", "bnb"]
        stats = run_json(capsys, *argv, "--timing")["stats"]
        assert_phases(stats, ["load", "apsp", "kappa", "solve", "verify"])
        plain = run_json(capsys, *argv)["stats"]
        assert list(plain) == ["engine", "variant_kappa", "bnb_nodes"]

    def test_timing_bnb_counters(self, capsys, monkeypatch):
        solved = []
        solve_bnb = cli.solve_bnb

        def recording(g, variant, k):
            res = solve_bnb(g, variant, k)
            solved.append(res.stats)
            return res

        argv = ["wdim", "--family", "grid:4x4", "--k", "1..4", "--variant", "mixed",
                "--engine", "bnb"]
        bnb = run_json(capsys, *argv, "--timing")["stats"]["bnb"]
        assert list(bnb) == ["incumbent_updates", "prunes", "root_bounds"]
        monkeypatch.setattr(cli, "solve_bnb", recording)
        run_cli(capsys, *argv)
        assert bnb["incumbent_updates"] == sum(s["incumbent_updates"] for s in solved)
        assert bnb["prunes"] == {
            reason: sum(s["prunes"][reason] for s in solved) for reason in solved[0]["prunes"]
        }
        assert bnb["root_bounds"] == [s["root_bound"] for s in solved]

    def test_timing_bnb_counters_absent_without_bnb_rows(self, capsys):
        # grid:12x12 at k <= 4 is served by the closed form
        stats = run_json(capsys, "wdim", "--family", "grid:12x12", "--k", "1..4",
                         "--timing")["stats"]
        assert "phases_ms" in stats and "bnb" not in stats

    def test_single_infeasible_k_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "wdim", "--family", "complete:4", "--k", "3")
        assert code == 3
        assert "kappa=2" in err

    def test_edge_variant(self, capsys):
        report = run_json(
            capsys, "wdim", "--family", "path:5", "--k", "2", "--variant", "edge"
        )
        row = report["results"][0]
        assert row["variant"] == "edge" and row["provenance"] == "bnb"
        assert row["certificate"]["delta"] >= 2
        assert any("extends" in w for w in report["warnings"])
        assert report["stats"]["variant_kappa"] >= 2

    def test_formula_engine_on_tree_file(self, capsys, tmp_path):
        _, text, _ = run_cli(capsys, "gen", "--family", "spider:2,2,3,3")
        f = tmp_path / "tree.txt"
        f.write_text(text)
        report = run_json(
            capsys, "wdim", "--file", str(f), "--k", "1..8", "--engine", "formula"
        )
        brute = run_json(
            capsys, "wdim", "--file", str(f), "--k", "1..8", "--engine", "brute"
        )
        assert [r["value"] for r in report["results"]] == [
            r["value"] for r in brute["results"]
        ]
        assert {r["provenance"] for r in report["results"]} == {"formula"}

    def test_basis_passes_verify_round_trip(self, capsys, tmp_path):
        report = run_json(capsys, "wdim", "--family", "grid:3x4", "--k", "5")
        basis = report["results"][0]["basis"]
        set_file = tmp_path / "basis.txt"
        set_file.write_text(" ".join(str(v) for v in basis))
        code, _, _ = run_cli(
            capsys, "verify", "--family", "grid:3x4",
            "--set-file", str(set_file), "--k", "5",
        )
        assert code == 0

    def test_byte_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "wdim", "--family", "grid:4x4", "--k", "1..6")
        _, second, _ = run_cli(capsys, "wdim", "--family", "grid:4x4", "--k", "1..6")
        assert first == second

    @pytest.mark.parametrize("argv", [
        ["--family", "grid:6x6", "--k", "1..20"],
        ["--family", "path:9", "--k", "1..9", "--engine", "bnb"],
        ["--family", "cycle:7", "--k", "2..6", "--variant", "mixed"],
    ])
    def test_sweep_verified_by_one_scan(self, capsys, monkeypatch, argv):
        """The basis check of a whole sweep is one ``lex_min`` call, the one
        with a matrix reducer (an edge or mixed kappa makes one more, before
        the sweep; the vertex kappa takes its own routes)."""
        calls = []

        def counting(rows, reducers, *args, **kwargs):
            calls.append(any(hasattr(r, "columns") for r in reducers))
            return lex_min(rows, reducers, *args, **kwargs)

        monkeypatch.setattr(resolve, "lex_min", counting)
        report = run_json(capsys, "wdim", *argv)
        assert len(report["results"]) > 1
        assert calls.count(True) == 1
        if "--variant" in argv:
            assert calls == [False, True]

    def test_failed_basis_names_its_k(self, capsys, monkeypatch):
        """Every k is solved before the one check; a basis that fails it
        still raises the internal error naming the first failing k."""
        formula_basis = cli.formula_basis

        def faulty(g, k):
            basis = formula_basis(g, k)
            return basis[:-1] if k in (5, 7) else basis

        monkeypatch.setattr(cli, "formula_basis", faulty)
        with pytest.raises(AssertionError, match=r"formula basis failed verification at k=5$"):
            cli.main(["wdim", "--family", "path:9", "--k", "1..9"])
        assert capsys.readouterr().out == ""

    def test_wdim_has_no_workers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["wdim", "--family", "path:5", "--k", "2", "--workers", "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        report = run_json(capsys, "wdim", "--family", "path:5", "--k", "2")
        assert "workers" not in report["stats"]


class TestVerifyCommand:
    def test_full_set_at_kappa(self, capsys, tmp_path):
        set_file = tmp_path / "all.txt"
        set_file.write_text(" ".join(str(v) for v in range(8)))
        code, out, _ = run_cli(
            capsys, "verify", "--family", "cycle:8",
            "--set-file", str(set_file), "--k", "8",
        )
        assert code == 0
        assert json.loads(out)["results"][0]["ok"] is True

    def test_missing_false_twin_pair_fails(self, capsys, tmp_path):
        # both leaves 4 and 5 of the 6-star are outside the set
        set_file = tmp_path / "s.txt"
        set_file.write_text("0 1 2 3")
        code, out, _ = run_cli(
            capsys, "verify", "--family", "star:6",
            "--set-file", str(set_file), "--k", "1",
        )
        assert code == 1
        failing = json.loads(out)["results"][0]["failing"]
        assert failing == {"a": 4, "b": 5, "delta": 0}

    def test_timing_phases(self, capsys, tmp_path):
        set_file = tmp_path / "all.txt"
        set_file.write_text(" ".join(str(v) for v in range(8)))
        argv = ["verify", "--family", "cycle:8", "--set-file", str(set_file), "--k", "8"]
        stats = run_json(capsys, *argv, "--timing")["stats"]
        assert_phases(stats, ["load", "apsp", "verify"])
        assert run_json(capsys, *argv)["stats"] == {}

    def test_malformed_set_file(self, capsys, tmp_path):
        set_file = tmp_path / "bad.txt"
        set_file.write_text("0 nine")
        code, _, err = run_cli(
            capsys, "verify", "--family", "path:4",
            "--set-file", str(set_file), "--k", "1",
        )
        assert code == 2 and "error" in err

    def test_set_file_error_names_the_bad_token(self, capsys, tmp_path):
        set_file = tmp_path / "bad.txt"
        set_file.write_text("3 x 5")
        code, out, err = run_cli(
            capsys, "verify", "--family", "path:6",
            "--set-file", str(set_file), "--k", "1",
        )
        assert code == 2 and out == ""
        assert err == "error: non-integer vertex id 'x' in set file\n"

    def test_k_below_one_exit_2(self, capsys, tmp_path):
        set_file = tmp_path / "s.txt"
        set_file.write_text("0 1 2 3")
        code, out, err = run_cli(
            capsys, "verify", "--family", "path:4",
            "--set-file", str(set_file), "--k", "0",
        )
        assert code == 2 and out == "" and "k must be positive" in err


class TestExportLp:
    def test_path_model(self, capsys, tmp_path):
        out_path = tmp_path / "p3.lp"
        report = run_json(
            capsys, "export-lp", "--family", "path:3", "--k", "1",
            "--out", str(out_path),
        )
        assert report["results"][0]["binaries"] == 3
        assert report["results"][0]["rows"] == 3
        text = out_path.read_text()
        assert "Minimize" in text and "Binaries" in text and text.strip().endswith("End")

    def test_edge_variant_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "export-lp", "--family", "path:3", "--k", "1",
            "--variant", "edge", "--out", "-",
        )
        assert code == 0
        rows = [ln for ln in out.splitlines() if ln.lstrip().startswith("p")]
        assert len(rows) == 1


    @pytest.mark.parametrize("spec,variant,k", [
        ("grid:3x3", "mixed", 2), ("path:12", "vertex", 1), ("cycle:7", "edge", 3),
    ])
    def test_file_stdout_and_write_lp_agree(self, capsys, tmp_path, spec, variant, k):
        out_path = tmp_path / "m.lp"
        argv = ["export-lp", "--family", spec, "--variant", variant, "--k", str(k)]
        report = run_json(capsys, *argv, "--out", str(out_path))
        code, out, _ = run_cli(capsys, *argv, "--out", "-")
        assert code == 0
        text = write_lp(generate(parse_family(spec)), Variant(variant), k)
        assert out_path.read_bytes() == text.encode() == out.encode()
        rows = sum(1 for ln in text.splitlines() if ln.startswith(" p"))
        assert report["results"][0]["rows"] == rows
        assert report["stats"] == {}

    def test_timing(self, capsys, tmp_path):
        out_path = tmp_path / "p3.lp"
        argv = ["export-lp", "--family", "path:3", "--k", "1", "--timing"]
        report = run_json(capsys, *argv, "--out", str(out_path))
        stats = report["stats"]
        assert set(stats) == {"elapsed_ms", "phases_ms"}
        assert_phases(stats, ["load", "apsp", "write"])
        # to stdout there is no report, so no timing either
        code, out, _ = run_cli(capsys, *argv, "--out", "-")
        assert code == 0 and out == out_path.read_text()

    def test_peak_memory_below_the_text(self, capsys, tmp_path):
        # the text is written block by block: the traced peak stays below
        # the size of the file (31.8 MB here); one joined copy would not
        out_path = tmp_path / "g.lp"
        tracemalloc.start()
        try:
            report = run_json(capsys, "export-lp", "--family", "grid:14x14", "--k", "3",
                              "--out", str(out_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["results"][0]["rows"] == 19110
        assert peak < out_path.stat().st_size

    def test_k_below_one_exit_2(self, capsys, tmp_path):
        out_path = tmp_path / "p3.lp"
        code, _, err = run_cli(
            capsys, "export-lp", "--family", "path:3", "--k", "0",
            "--out", str(out_path),
        )
        assert code == 2 and "k must be positive" in err
        assert not out_path.exists()

    def test_over_budget_model_exit_2(self, capsys, tmp_path):
        out_path = tmp_path / "big.lp"
        code, _, err = run_cli(
            capsys, "export-lp", "--family", "grid:40x25", "--k", "2",
            "--out", str(out_path),
        )
        assert code == 2 and "GiB" in err
        assert not out_path.exists()


class TestGenCommand:
    def test_round_trip_through_file(self, capsys, tmp_path):
        _, text, _ = run_cli(capsys, "gen", "--family", "grid:3x3")
        g = parse_edgelist(text)
        assert g.n == 9 and g.edge_count == 12
        f = tmp_path / "g.txt"
        f.write_text(text)
        report = run_json(capsys, "kappa", "--file", str(f))
        assert report["results"][0]["kappa"] == 8

    def test_gen_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "c5.txt"
        code, _, _ = run_cli(capsys, "gen", "--family", "cycle:5", "--out", str(out_path))
        assert code == 0
        assert parse_edgelist(out_path.read_text()).edge_count == 5


class TestErrors:
    def test_bad_family_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "kappa", "--family", "blob:7")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("spec, message", [
        ("path:1", "path needs n >= 2, got 1"),
        ("kqr:2", "malformed family string 'kqr:2'"),
        ("grid:3X4", "malformed family string 'grid:3X4'"),
        ("spider:3,2,1", "spider thread lengths must be sorted ascending"),
        (":5", "unknown family kind ''"),
        # ASCII digits only: int() alone would take each of these
        ("path:1_0", "malformed family string 'path:1_0'"),
        ("path: 5", "malformed family string 'path: 5'"),
        ("grid:+3x4", "malformed family string 'grid:+3x4'"),
        ("kqr:\uff12,3", "malformed family string 'kqr:\uff12,3'"),
        ("cycle:\u0663", "malformed family string 'cycle:\u0663'"),
        # a leading minus parses (``graph.integer``), so the range check reports it
        ("path:-5", "path needs n >= 2, got -5"),
        ("grid:3x-4", "grid needs q, r >= 2, got q=3, r=-4"),
        ("path:--5", "malformed family string 'path:--5'"),
    ])
    def test_rejected_family_exit_2(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "gen", "--family", spec)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "kappa", "--file", "/nonexistent/g.txt")
        assert code == 2

    def test_disconnected_file_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("4 2\n0 1\n2 3\n")
        code, _, err = run_cli(capsys, "kappa", "--file", str(f))
        assert code == 2 and "connected" in err

    @pytest.mark.parametrize("raised, message", [(MemoryError(), "out of memory"),
                                                 (MemoryError("no room"), "no room")])
    def test_out_of_memory_exit_2(self, capsys, monkeypatch, raised, message):
        """Running out of memory is an input too large, exit 2, not exit 1,
        which means that verification failed."""
        def exhausted(args):
            raise raised

        monkeypatch.setattr(cli, "_load_graph", exhausted)
        for command in (["kappa", "--family", "path:5"],
                        ["verify", "--family", "path:5", "--set-file", "/nonexistent/s.txt",
                         "--k", "1"]):
            code, out, err = run_cli(capsys, *command)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_bad_k_spec_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "wdim", "--family", "path:5", "--k", "2..x")
        assert code == 2

    @pytest.mark.parametrize("spec, message", [
        ("0", "k must be positive, got 0"),
        ("0..3", "k must be positive, got 0"),
        ("-2", "k must be positive, got -2"),
        ("3..2", "bad k range '3..2'"),
        ("2..x", "bad k specification '2..x'; use K or A..B"),
        # ASCII digits only, as in the family grammar
        ("\uff13", "bad k specification '\uff13'; use K or A..B"),
        ("1..\u0663", "bad k specification '1..\u0663'; use K or A..B"),
        ("1_0", "bad k specification '1_0'; use K or A..B"),
        ("+3", "bad k specification '+3'; use K or A..B"),
        # both bounds are read by ``graph.integer``: a negative upper bound
        # is below the lower one
        ("1..-3", "bad k range '1..-3'"),
    ])
    def test_k_spec_checked_before_the_graph_loads(self, capsys, monkeypatch, spec, message):
        """A bad ``wdim --k`` is reported before the file is read."""
        monkeypatch.setattr(cli, "load_edgelist", lambda _: pytest.fail("graph loaded"))
        code, out, err = run_cli(capsys, "wdim", "--file", "/nonexistent/g.txt", "--k", spec)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command, value", [
        (["verify", "--family", "path:4", "--set-file", "s.txt", "--k"], "1_0"),
        (["verify", "--family", "path:4", "--set-file", "s.txt", "--k"], "+3"),
        (["verify", "--family", "path:4", "--set-file", "s.txt", "--k"], "\uff13"),
        (["export-lp", "--family", "path:4", "--out", "-", "--k"], "1_0"),
        (["kappa", "--family", "cycle:9", "--workers"], "1_0"),
        (["kappa", "--family", "cycle:9", "--workers"], "\u0663"),
        (["wdim", "--family", "path:4", "--k", "1", "--size-cap"], "+3"),
    ])
    def test_integer_options_take_ascii_digits_only(self, capsys, command, value):
        """The family grammar's rule: what ``int`` would also take (an
        underscore, a plus sign, other scripts' digits) is an argparse
        error, exit 2, before any graph loads."""
        with pytest.raises(SystemExit) as exc:
            cli.main(command + [value])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and f"invalid integer value: {value!r}" in err

    @pytest.mark.parametrize("command", [
        ["verify", "--family", "path:4", "--set-file", "/nonexistent/s.txt"],
        ["export-lp", "--family", "path:4", "--out", "-"],
    ])
    def test_negative_k_option_is_out_of_range(self, capsys, command):
        """A leading minus still parses, so the range check reports it."""
        code, out, err = run_cli(capsys, *command, "--k", "-1")
        assert (code, out, err) == (2, "", "error: k must be positive, got -1\n")

    def test_formula_engine_on_non_vertex_variant(self, capsys):
        code, _, _ = run_cli(
            capsys, "wdim", "--family", "path:5", "--k", "2",
            "--variant", "edge", "--engine", "formula",
        )
        assert code == 2

    @pytest.mark.parametrize("command, text, message", [
        (["kappa", "--file"], "3 2\n0 1\n1 \uff12\n", "non-integer edge line '1 \uff12'"),
        (["kappa", "--file"], "3 2\n0 1\n1 +2\n", "non-integer edge line '1 +2'"),
        (["verify", "--family", "grid:5x5", "--k", "1", "--set-file"], "0 2_0\n",
         "non-integer vertex id '2_0' in set file"),
    ])
    def test_file_numbers_take_ascii_digits_only(self, capsys, tmp_path, command, text, message):
        """Every number read from a file follows the family grammar's rule,
        so what ``int`` would also take is malformed: exit 2."""
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, *command, str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestParserBuiltOnce:
    def test_cached_parser_answers_as_a_fresh_one(self, capsys, monkeypatch, tmp_path):
        """Mixed subcommands, their error exits and argparse's own (exit 2,
        usage on stderr) give the same stdout, stderr and exit code through
        the one cached parser as through a parser built for each call."""
        set_file = tmp_path / "set.txt"
        set_file.write_text("0 3\n")
        calls = [
            ["kappa", "--family", "cycle:6"],
            ["wdim", "--family", "grid:3x3", "--k", "1..3", "--engine", "bnb"],
            ["wdim", "--family", "path:5"],  # argparse: --k is required
            ["verify", "--family", "path:4", "--set-file", str(set_file), "--k", "3"],
            ["wdim", "--family", "cycle:5", "--k", "9"],  # above kappa: exit 3
            ["export-lp", "--family", "path:3", "--k", "1", "--out", "-"],
            ["kappa", "--family", "path:4", "--workers", "x"],  # argparse: not an int
            ["gen", "--family", "star:3"],
            ["wdim", "--family", "grid:3x3", "--k", "2", "--engine", "brute"],
            ["blob"],  # argparse: no such subcommand
            ["wdim", "--family", "path:5", "--k", "2..x"],  # bad k spec: exit 2
        ]

        def run(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse exits on its own errors
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        assert cli.build_parser() is cli.build_parser()
        cached = [run(argv) for argv in calls + calls]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run(argv) for argv in calls + calls]
        assert cached == fresh
        assert [code for code, _, _ in fresh[:len(calls)]] == [0, 0, 2, 1, 3, 0, 2, 0, 0, 2, 2]
        assert "usage: weakdim wdim" in fresh[2][2]


def write_graph(directory, name, g):
    f = Path(directory) / name
    f.write_text(format_edgelist(g))
    return str(f)


def sweep(capsys, f, engine):
    return run_json(capsys, "wdim", "--file", f, "--k", "1..30", "--engine", engine)


class TestAutoRouting:
    def test_tree_file_uses_formula_at_every_k(self, capsys, tmp_path):
        f = write_graph(tmp_path, "tree40.txt", random_tree_graph(random.Random(5), 40))
        auto = sweep(capsys, f, "auto")
        formula = sweep(capsys, f, "formula")
        assert {r["provenance"] for r in auto["results"]} == {"formula"}
        assert auto["results"] == formula["results"]

    def test_three_thread_spider_file(self, capsys, tmp_path):
        # k = 1 takes the formula too (two thread tips), no longer bnb
        f = write_graph(tmp_path, "spider.txt", generate(spider(1, 2, 5)))
        rows = sweep(capsys, f, "auto")["results"]
        assert {r["provenance"] for r in rows} == {"formula"}
        bnb = sweep(capsys, f, "bnb")["results"]
        assert [r["value"] for r in rows] == [r["value"] for r in bnb]

    @pytest.mark.parametrize("source", ["tree-file", "path-file", "spider-file", "spider-family"])
    def test_sweep_decomposes_the_tree_once(self, capsys, tmp_path, monkeypatch, source):
        """A formula sweep over every k <= kappa reads one thread
        decomposition, cached on the graph."""
        graphs = {"tree-file": random_tree_graph(random.Random(5), 40),
                  "path-file": generate(parse_family("path:50")),
                  "spider-file": generate(spider(3, 9, 12))}
        argv = (["--family", "spider:3,9,12"] if source == "spider-family"
                else ["--file", write_graph(tmp_path, "tree.txt", graphs[source])])
        calls = []
        decompose = trees.decompose_tree

        def counting(g):
            calls.append(g.n)
            return decompose(g)

        monkeypatch.setattr(trees, "decompose_tree", counting)
        report = run_json(capsys, "wdim", *argv, "--k", "1..100")
        assert len(report["results"]) == report["stats"]["variant_kappa"] > 3
        assert {r["provenance"] for r in report["results"]} == {"formula"}
        assert calls == [report["input"]["n"]]

    def test_non_tree_file_stays_bnb(self, capsys, tmp_path):
        f = write_graph(tmp_path, "cycle.txt", generate(cycle(6)))
        rows = sweep(capsys, f, "auto")["results"]
        assert {r["provenance"] for r in rows} == {"bnb"}

    def test_one_vertex_file(self, capsys, tmp_path):
        """One vertex has no pairs, so no kappa bounds a k range: the range
        is clipped at its first k, whose row (value 0) answers every k."""
        f = tmp_path / "one.txt"
        f.write_text("1 0\n")
        code, _, err = run_cli(
            capsys, "wdim", "--file", str(f), "--k", "1..3", "--engine", "formula"
        )
        assert code == 2 and "n >= 2" in err
        report = run_json(capsys, "wdim", "--file", str(f), "--k", "1..3")
        rows = report["results"]
        assert [(r["k"], r["value"], r["provenance"]) for r in rows] == [(1, 0, "bnb")]
        assert report["warnings"] == [
            "k range clipped at k=1: no item pairs for variant=vertex"
        ]
        for variant in ("edge", "mixed"):
            rows = run_json(capsys, "wdim", "--file", str(f), "--k", "1",
                            "--variant", variant)["results"]
            assert [(r["value"], r["certificate"]) for r in rows] == [(0, None)]

    @pytest.mark.parametrize("engine", ["auto", "formula", "bnb", "brute"])
    def test_bases_ascending_under_every_engine(self, capsys, tmp_path, engine):
        f = tmp_path / "p3.txt"
        f.write_text("3 2\n0 1\n0 2\n")
        for source in (["--family", "star:3"], ["--file", str(f)]):
            rows = run_json(capsys, "wdim", *source, "--k", "1..3",
                            "--engine", engine)["results"]
            assert len(rows) == 3
            for row in rows:
                assert row["basis"] == sorted(row["basis"])


def _prufer_trees():
    return st.integers(2, 10).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2).map(
            lambda seq: tree_from_prufer(seq, n)
        )
    )


def _values(f, n, engine):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["wdim", "--file", f, "--k", f"1..{n}", "--engine", engine])
    assert code == 0
    return [(r["k"], r["value"]) for r in json.loads(out.getvalue())["results"]]


@settings(max_examples=30, deadline=None)
@given(_prufer_trees())
def test_auto_matches_brute_on_random_trees(g):
    # kappa(T) <= n for every tree, so 1..n sweeps every k <= kappa
    with tempfile.TemporaryDirectory() as directory:
        f = write_graph(directory, "tree.txt", g)
        assert _values(f, g.n, "auto") == _values(f, g.n, "brute")


class TestReverificationGuard:
    def test_deficient_formula_basis(self, monkeypatch):
        monkeypatch.setattr(cli, "formula_basis", lambda g, k: (0,))
        with pytest.raises(AssertionError, match="failed verification"):
            cli.main(["wdim", "--family", "path:9", "--k", "3"])

    def test_deficient_bnb_basis(self, monkeypatch):
        def deficient(g, variant, k):
            return DimensionResult(variant, k, 1, (0,), None, {"oracle": "bnb"})

        monkeypatch.setattr(cli, "solve_bnb", deficient)
        with pytest.raises(AssertionError, match="failed verification"):
            cli.main(["wdim", "--family", "cycle:6", "--k", "3", "--engine", "bnb"])

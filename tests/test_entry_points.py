"""The public entry points share one k check and the engines one shell."""

import contextlib
import io

import pytest

from conftest import family_corpus

from weakdim import (
    KaboveKappa,
    ParameterOutOfRange,
    Variant,
    build_graph,
    certificate_for,
    cli,
    cycle,
    generate,
    grid_basis,
    parse_family,
    path,
    solve_bnb,
    solve_bruteforce,
    solve_kmetric_dim,
    spider,
    spider3_basis,
    tree_basis,
    variant_kappa,
    wdim_formula,
)
from weakdim import solver

C5 = generate(cycle(5))
SPIDER4 = generate(spider(1, 1, 1, 1))
SPIDER3 = generate(spider(2, 2, 2))


def _cli(command, *file_option):
    """The CLI ``command`` on cycle:5, with ``file_option`` (if given, an
    option and a file in the test's directory) as an entry point: (exit
    code, stderr)."""

    def run(k, tmp_path):
        (tmp_path / "s.txt").write_text("0 1 2")
        argv = [command, "--family", "cycle:5", "--k", str(k)]
        if file_option:
            option, name = file_option
            argv += [option, str(tmp_path / name)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    return run


# call(k, tmp_path), and the upper limit it checks today as (limit, witness,
# criterion), or None where it checks none
ENTRY_POINTS = [
    pytest.param(lambda k, _: solve_bnb(C5, Variant.VERTEX, k), (4, (0, 1), "sum"),
                 id="solve_bnb"),
    pytest.param(lambda k, _: solve_bruteforce(C5, Variant.EDGE, k),
                 (4, ((0, 1), (0, 4)), "sum"), id="solve_bruteforce"),
    pytest.param(lambda k, _: solve_kmetric_dim(C5, k), (4, (0, 1), "count"),
                 id="solve_kmetric_dim"),
    pytest.param(lambda k, _: wdim_formula(parse_family("grid:3x4"), k), (10, None, "sum"),
                 id="wdim_formula"),
    pytest.param(lambda k, _: grid_basis(3, 4, k), (10, None, "sum"), id="grid_basis"),
    pytest.param(lambda k, _: tree_basis(SPIDER4, k),
                 (4, None, "sum"), id="tree_basis"),
    pytest.param(lambda k, _: spider3_basis(SPIDER3, k),
                 (7, None, "sum"), id="spider3_basis"),
    pytest.param(lambda k, _: solver.cover_model(C5, Variant.MIXED, "count").check(k),
                 (2, (0, (0, 1)), "count"), id="CoverModel.check"),
    pytest.param(lambda k, _: solver.write_lp(C5, Variant.VERTEX, k), None, id="write_lp"),
    pytest.param(_cli("verify", "--set-file", "s.txt"), None, id="cli-verify"),
    pytest.param(_cli("export-lp", "--out", "m.lp"), None, id="cli-export-lp"),
    pytest.param(_cli("wdim"), None, id="cli-wdim"),
]


@pytest.mark.parametrize("call, upper", ENTRY_POINTS)
def test_one_k_check(call, upper, tmp_path):
    """k below 1 is ``ParameterOutOfRange`` (exit 2 on the CLI) with one
    message everywhere; one above the entry point's limit is ``KaboveKappa``
    with its limit, witness and criterion."""
    for k in (0, -1):
        try:
            got = call(k, tmp_path)
        except ParameterOutOfRange as exc:  # as the CLI reports it
            got = (2, f"error: {exc}\n")
        assert got == (2, f"error: k must be positive, got {k}\n")
    if upper is not None:
        limit, witness, criterion = upper
        with pytest.raises(KaboveKappa) as info:
            call(limit + 1, tmp_path)
        exc = info.value
        assert (exc.k, exc.kappa, exc.witness, exc.criterion) == (
            limit + 1, limit, witness, criterion)


# each engine as solve(g, variant, k), with the variants it takes
ENGINES = [
    pytest.param(solve_bnb, list(Variant), "bnb", id="solve_bnb"),
    pytest.param(solve_bruteforce, list(Variant), "brute", id="solve_bruteforce"),
    pytest.param(lambda g, variant, k: solve_kmetric_dim(g, k), [Variant.VERTEX], "brute",
                 id="solve_kmetric_dim"),
]


@pytest.mark.parametrize("solve, variants, oracle", ENGINES)
def test_engine_shell_without_item_pairs(solve, variants, oracle):
    """No item pairs: the empty basis at every k, no certificate, no search."""
    cases = [(build_graph(1, []), Variant.VERTEX), (generate(path(2)), Variant.EDGE)]
    for g, variant in cases:
        if variant in variants:
            for k in (1, 5):
                res = solve(g, variant, k)
                assert (res.variant, res.k, res.value, res.basis) == (variant, k, 0, ())
                assert res.certificate is None and res.stats == {"oracle": oracle}


@pytest.mark.parametrize("solve, variants, oracle", ENGINES[:2])
def test_engine_shell_certifies_on_the_sum(solve, variants, oracle):
    """The shell's certificate is ``certificate_for``'s worst pair of the basis."""
    for g in family_corpus(max_n=10):
        for variant in variants:
            kappa, _ = variant_kappa(g, variant)
            for k in sorted({1, kappa or 1}):
                res = solve(g, variant, k)
                assert res.value == len(res.basis) and res.stats["oracle"] == oracle
                assert res.certificate == certificate_for(g, variant, res.basis), (g, k)
                assert res.certificate is None or res.certificate.delta >= k

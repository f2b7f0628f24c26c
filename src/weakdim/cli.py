"""Command-line front end with deterministic JSON reports.

Subcommands: kappa | wdim | verify | export-lp | gen. Exit codes:
0 ok, 1 verification failed, 2 input error, 3 infeasible threshold.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .closedform import formula_basis
from .errors import (
    FormulaNotCovered,
    KaboveKappa,
    ParameterOutOfRange,
    WeakDimError,
    check_k,
)
from .families import generate, parse_family
from .graph import (
    Graph,
    all_pairs_distances,
    format_edgelist,
    integer,
    load_edgelist,
    parse_vertex_set,
    twin_summary,
)
from .resolve import compute_kappa, kappa_reads_distances
from .solver import (
    DEFAULT_SIZE_CAP,
    Variant,
    _lp_blocks,
    # wdim checks a sweep with certificates_for; the name stays because
    # perfbench's tracer wraps certificate_for in this module
    certificate_for,
    certificates_for,
    cover_model,
    solve_bnb,
    solve_bruteforce,
    variant_kappa,
    verify_set,
    # export-lp streams _lp_blocks; the name stays because perfbench's
    # tracer wraps write_lp in this module
    write_lp,
)
from .timing import timed

# The twin step of ``kappa`` needs only the pair counts and the lex-first
# pairs, not every pair; it keeps the name ``find_twins`` here because
# ``perfbench``'s tracer times the CLI's twin step under that name.
find_twins = twin_summary

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3

def _load_graph(args) -> tuple[Graph, dict]:
    if getattr(args, "family", None):
        spec = parse_family(args.family)
        g = generate(spec)
        block = {"kind": "family", "source": spec.label()}
    else:
        g = load_edgelist(args.file)
        block = {"kind": "file", "source": args.file}
    block["n"] = g.n
    block["m"] = g.edge_count
    return g, block


def _parse_k_spec(text: str) -> tuple[int, int]:
    lo, sep, hi = text.strip().partition("..")
    try:
        lo = integer(lo)
        hi = integer(hi) if sep else lo
    except ValueError:
        raise ParameterOutOfRange(f"bad k specification {text!r}; use K or A..B") from None
    check_k(lo)
    if hi < lo:
        raise ParameterOutOfRange(f"bad k range {text!r}")
    return lo, hi


def _item_json(item):
    return list(item) if isinstance(item, tuple) else item


def _emit(input_block, operation, results, warnings, stats) -> None:
    report = {
        "input": input_block,
        "operation": operation,
        "results": results,
        "warnings": warnings,
        "stats": stats,
    }
    print(json.dumps(report, indent=2))


def _workers(args) -> int:
    """``--workers``, capped at the CPU count; below 1 is an input error."""
    if args.workers < 1:
        raise ParameterOutOfRange(f"--workers must be at least 1, got {args.workers}")
    return min(args.workers, os.cpu_count() or 1)


def _load_timed(args, reads_distances=lambda g: True):
    """(clock, g, input block, set): the graph and ``verify``'s ``--set-file``
    (else None) load in the ``load`` phase, the cached APSP in ``apsp``;
    ``clock`` is (start, phases or None without ``--timing``). The APSP is
    skipped (``apsp`` near 0) where ``reads_distances(g)`` is false: for
    ``kappa``, on trees with n >= 2, whose route reads no matrix."""
    clock = (time.perf_counter(), {} if args.timing else None)
    phases = clock[1]
    with timed(phases, "load"):
        g, input_block = _load_graph(args)
        S = None
        if getattr(args, "set_file", None):
            with open(args.set_file, "r", encoding="utf-8") as fh:
                S = parse_vertex_set(fh.read(), g.n)
    with timed(phases, "apsp"):
        if reads_distances(g):
            all_pairs_distances(g)
    return clock, g, input_block, S


def _report_timing(stats: dict, clock, names: tuple[str, ...]) -> None:
    """Under ``--timing``, add ``elapsed_ms`` and ``phases_ms`` (``names``)."""
    started, phases = clock
    if phases is not None:
        stats["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 1)
        stats["phases_ms"] = {name: round(phases[name], 1) for name in names}


def cmd_kappa(args) -> int:
    workers = _workers(args)
    clock, g, input_block, _ = _load_timed(args, kappa_reads_distances)
    with timed(clock[1], "classify"):
        twins = find_twins(g)
    report = compute_kappa(g, workers=workers, phases=clock[1])
    row = {
        "kappa": report.kappa,
        "kappa_prime": report.kappa_prime,
        "witness_pair": list(report.witness_pair),
        "classification": report.classification.value,
        "evidence": list(report.evidence) if report.evidence else None,
        "provenance": "computed",
    }
    stats = {
        "true_twin_pairs": twins.true_count,
        "false_twin_pairs": twins.false_count,
        "workers": workers,
    }
    _report_timing(stats, clock, ("load", "apsp", "kappa", "classify"))
    _emit(input_block, "kappa", [row], [], stats)
    return EXIT_OK


def _solve_one(g: Graph, variant: Variant, k: int, engine: str, size_cap: int):
    """Returns (provenance, basis, solver_stats). ``auto`` takes the closed
    form wherever ``closedform`` covers the input, else bnb."""
    if engine == "brute":
        res = solve_bruteforce(g, variant, k, size_cap=size_cap)
        return "brute", res.basis, dict(res.stats)
    if engine in ("formula", "auto"):
        try:
            if variant != Variant.VERTEX:
                raise FormulaNotCovered("closed forms exist for the vertex variant only")
            return "formula", formula_basis(g, k), {}
        except FormulaNotCovered:
            if engine == "formula":
                raise
    res = solve_bnb(g, variant, k)
    return "bnb", res.basis, dict(res.stats)


def cmd_wdim(args) -> int:
    lo, hi = _parse_k_spec(args.k)
    clock, g, input_block, _ = _load_timed(args)
    phases = clock[1]
    variant = Variant(args.variant)
    warnings = []
    with timed(phases, "kappa"):
        kv, witness = variant_kappa(g, variant)
    if variant != Variant.VERTEX:
        warnings.append(
            "kappa for the edge/mixed variants extends the vertex-pair "
            "definition by analogy (minimum item-pair difference total)"
        )
    check_k(lo, kv, witness)
    # with no item pairs every k has the answer of the first one
    top, at = (lo, f"k={lo}: no item pairs") if kv is None else (kv, f"kappa={kv}")
    if hi > top:
        warnings.append(f"k range clipped at {at} for variant={variant.value}")
        hi = top
    ks = range(lo, hi + 1)
    solved = []
    for k in ks:
        with timed(phases, "solve"):
            solved.append(_solve_one(g, variant, k, args.engine, args.size_cap))
    with timed(phases, "verify"):
        certs = certificates_for(g, variant, [basis for _, basis, _ in solved])
    rows = []
    nodes = 0
    subsets = 0
    # bnb search counters, reported under --timing
    bnb = {"incumbent_updates": 0, "prunes": {}, "root_bounds": []}
    for k, (provenance, basis, solver_stats), cert in zip(ks, solved, certs):
        if cert is not None and cert.delta < k:
            raise AssertionError(
                f"internal error: {provenance} basis failed verification at k={k}"
            )
        nodes += solver_stats.get("nodes", 0)
        subsets += solver_stats.get("subsets", 0)
        if "root_bound" in solver_stats:  # a bnb row that ran a search
            bnb["incumbent_updates"] += solver_stats["incumbent_updates"]
            for reason, count in solver_stats["prunes"].items():
                bnb["prunes"][reason] = bnb["prunes"].get(reason, 0) + count
            bnb["root_bounds"].append(solver_stats["root_bound"])
        rows.append({
            "k": k,
            "variant": variant.value,
            "value": len(basis),
            "basis": list(basis),
            "certificate": None
            if cert is None
            else {"a": _item_json(cert.a), "b": _item_json(cert.b), "delta": cert.delta},
            "provenance": provenance,
        })
    stats = {"engine": args.engine}
    if kv is not None:
        stats["variant_kappa"] = kv
    if nodes:
        stats["bnb_nodes"] = nodes
    if subsets:
        stats["brute_subsets"] = subsets
    _report_timing(stats, clock, ("load", "apsp", "kappa", "solve", "verify"))
    if args.timing and bnb["root_bounds"]:
        stats["bnb"] = bnb
    _emit(input_block, "wdim", rows, warnings, stats)
    return EXIT_OK


def cmd_verify(args) -> int:
    check_k(args.k)
    clock, g, input_block, S = _load_timed(args)
    variant = Variant(args.variant)
    with timed(clock[1], "verify"):
        res = verify_set(g, variant, S, args.k)
    row = {
        "ok": res.ok,
        "k": args.k,
        "variant": variant.value,
        "set": list(S),
        "failing": None
        if res.ok
        else {
            "a": _item_json(res.witness[0]),
            "b": _item_json(res.witness[1]),
            "delta": res.value,
        },
    }
    stats = {}
    _report_timing(stats, clock, ("load", "apsp", "verify"))
    _emit(input_block, "verify", [row], [], stats)
    return EXIT_OK if res.ok else EXIT_VERIFY_FAIL


def cmd_export_lp(args) -> int:
    check_k(args.k)
    clock, g, input_block, _ = _load_timed(args)
    variant = Variant(args.variant)
    with timed(clock[1], "write"):
        # the model is built (or TooLarge raised) before the file is opened
        model = cover_model(g, variant)
        blocks = _lp_blocks(model, variant, args.k)
        if args.out == "-":
            sys.stdout.writelines(blocks)
            return EXIT_OK
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)
    row = {
        "path": args.out,
        "binaries": g.n,
        "rows": len(model.profile),
        "k": args.k,
        "variant": variant.value,
    }
    stats = {}
    _report_timing(stats, clock, ("load", "apsp", "write"))
    _emit(input_block, "export-lp", [row], [], stats)
    return EXIT_OK


def cmd_gen(args) -> int:
    g, input_block = _load_graph(args)
    text = format_edgelist(g, header_comment=input_block["source"])
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(input_block, "gen", [{"path": args.out}], [], {})
    return EXIT_OK


def _add_input_options(sp) -> None:
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--family", help="family string, e.g. path:9 or grid:6x4")
    grp.add_argument("--file", help="edge-list file ('n m' header, then 'u v' lines)")


def _add_timing(sp) -> None:
    sp.add_argument(
        "--timing", action="store_true",
        help="include elapsed_ms and phases_ms in stats (and, for wdim rows "
             "solved by bnb, the search counters under bnb); export-lp with "
             "--out - prints no report, so no timing"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing gives a fresh
    namespace each time, an argparse error exits without changing the
    parser, and no ``cmd_*`` reads or changes it."""
    parser = argparse.ArgumentParser(
        prog="weakdim",
        description="Exact weak k-metric dimension computations on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kappa", help="largest feasible k, with classification")
    _add_input_options(p)
    p.add_argument(
        "--workers",
        type=integer,
        default=1,
        help="worker threads for the pair scan, capped at the CPU count (default 1)",
    )
    _add_timing(p)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("wdim", help="weak k-metric dimension and a basis")
    _add_input_options(p)
    _add_timing(p)
    p.add_argument("--k", required=True, help="threshold K or inclusive range A..B")
    p.add_argument(
        "--variant", choices=[v.value for v in Variant], default="vertex"
    )
    p.add_argument(
        "--engine", choices=["auto", "formula", "brute", "bnb"], default="auto"
    )
    p.add_argument(
        "--size-cap",
        type=integer,
        default=DEFAULT_SIZE_CAP,
        help="max n for the brute engine",
    )
    p.set_defaults(func=cmd_wdim)

    p = sub.add_parser("verify", help="check a vertex set at threshold k")
    _add_input_options(p)
    _add_timing(p)
    p.add_argument("--set-file", required=True, help="whitespace-separated vertex ids")
    p.add_argument("--k", type=integer, required=True)
    p.add_argument(
        "--variant", choices=[v.value for v in Variant], default="vertex"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-lp", help="write the CPLEX-LP covering model")
    _add_input_options(p)
    _add_timing(p)
    p.add_argument("--k", type=integer, required=True)
    p.add_argument(
        "--variant", choices=[v.value for v in Variant], default="vertex"
    )
    p.add_argument("--out", required=True, help="output path, or - for stdout")
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("gen", help="generate a family instance as edge-list text")
    p.add_argument("--family", required=True)
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WeakDimError, OSError, MemoryError) as exc:
        # exit 1 means "verification failed", never a crash
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INFEASIBLE if isinstance(exc, KaboveKappa) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: fixed job lists built from the run seed.

A job is one ``weakdim`` CLI invocation (argv without the program name),
the exit code it must return, and a check that compares its stdout with
the independent oracle. Checks run after timing; they are lazy, so a
run pays for an oracle answer only once however many passes it timed.

Timings compare only at the same seed: bnb time on random instances
varies widely with the instance (0.05 s to 70 s between random trees of
similar size). The random graphs in ``bnb-sweep`` are therefore drawn
with a fixed kappa, so every seed sweeps the same k-range.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable

import oracle as orc
from inputs import prufer_tree, rng_for, sparse_graph, write_edgelist, write_set


@dataclass
class Job:
    argv: list[str]
    check: Callable[[str], None]
    rc: int = 0

    @property
    def is_auto_wdim(self) -> bool:
        if self.argv[0] != "wdim":
            return False
        return "--engine" not in self.argv or self.argv[self.argv.index("--engine") + 1] == "auto"


def _report(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise orc.CheckError(f"stdout is not one JSON report: {exc}") from exc


def _family(spec: str) -> tuple[str, int, int]:
    kind, params = spec.split(":")
    a, _, b = params.partition("x")
    return kind, int(a), int(b or 0)


def _family_instance(spec: str) -> orc.Instance:
    return orc.Instance(*orc.family_edges(*_family(spec)))


def _file_instance(d: str, name: str, n: int, edges) -> tuple[str, orc.Instance]:
    return write_edgelist(os.path.join(d, name), n, edges), orc.Instance(n, edges)


def _kappa_job(argv: list[str], inst: orc.Instance, kappa: Callable[[], int]) -> Job:
    return Job(["kappa", *argv], lambda out: orc.check_kappa(_report(out), inst, kappa()))


def _wdim_job(source: list[str], inst: orc.Instance, lo: int, hi: int,
              value_of: Callable[[int], int], variant: str = "vertex",
              engine: str = "auto") -> Job:
    """wdim over lo..hi; ``hi`` must not exceed the variant's kappa."""
    argv = ["wdim", *source, "--k", f"{lo}..{hi}" if hi > lo else str(lo)]
    if variant != "vertex":
        argv += ["--variant", variant]
    if engine != "auto":
        argv += ["--engine", engine]
    provenance = {"auto": {"formula", "bnb"}}.get(engine, {engine})

    def check(out: str) -> None:
        orc.check_wdim(_report(out), inst, variant, lo, hi, value_of, provenance)

    return Job(argv, check)


def _lazy_kappa(inst: orc.Instance) -> Callable[[], int]:
    return functools.cache(lambda: orc.min_pair_total(inst.dist))


def _milp_values(inst: orc.Instance, variant: str = "vertex") -> Callable[[int], int]:
    rows = functools.cache(lambda: inst.item_rows(variant)[1])
    return functools.cache(lambda k: orc.milp_min(rows(), k))


def _variant_kappa(inst: orc.Instance, variant: str) -> int:
    return orc.min_pair_total(inst.item_rows(variant)[1])


def kappa_large(seed: int, d: str) -> list[Job]:
    """APSP and the kappa pair scan on sparse graphs with n in 576..640."""
    jobs = []
    for spec in ("grid:24x24", "path:600", "cycle:601"):
        kind, a, b = _family(spec)
        jobs.append(_kappa_job(["--family", spec], _family_instance(spec),
                               lambda kind=kind, a=a, b=b: orc.family_kappa(kind, a, b)))
    n = 640
    path, inst = _file_instance(d, "sparse.txt", n, sparse_graph(n, n // 2, rng_for(seed, "sparse")))
    kappa = _lazy_kappa(inst)
    jobs.append(_kappa_job(["--file", path], inst, kappa))
    jobs.append(_kappa_job(["--file", path, "--workers", "2"], inst, kappa))
    n = 600
    path, inst = _file_instance(d, "tree.txt", n, prufer_tree(n, rng_for(seed, "tree")))
    jobs.append(_kappa_job(["--file", path], inst, _lazy_kappa(inst)))
    return jobs


RANDOM_BNB = (10, 5, 5)  # n, extra edges, required kappa
# One instance's bnb time varies by about 30 % between seeds at n=10 and 50 %
# at n=12; many small instances keep the seed-to-seed spread of their sum low.
RANDOM_BNB_COUNT = 20


def _random_with_kappa(seed: int, tag: str) -> tuple[int, list]:
    """First random sparse graph of the stream whose kappa is RANDOM_BNB[2]."""
    n, extra, kappa = RANDOM_BNB
    rng = rng_for(seed, tag)
    while True:
        edges = sparse_graph(n, extra, rng)
        if orc.min_pair_total(orc.Instance(n, edges).dist) == kappa:
            return n, edges


def bnb_sweep(seed: int, d: str) -> list[Job]:
    """bnb k-sweeps on graphs with n <= 24; APSP is negligible here."""
    jobs = []
    for spec, lo, hi in (("grid:5x4", 1, 10), ("grid:6x4", 5, 5), ("grid:6x4", 7, 7)):
        inst = _family_instance(spec)
        jobs.append(_wdim_job(["--family", spec], inst, lo, hi, _milp_values(inst), engine="bnb"))
    for i in range(RANDOM_BNB_COUNT):
        path, inst = _file_instance(d, f"random{i}.txt", *_random_with_kappa(seed, f"random{i}"))
        jobs.append(_wdim_job(["--file", path], inst, 1, RANDOM_BNB[2], _milp_values(inst),
                              engine="bnb"))
    for spec, variant in (("grid:4x4", "mixed"), ("star:8", "edge")):
        inst = _family_instance(spec)
        jobs.append(_wdim_job(["--family", spec], inst, 1, _variant_kappa(inst, variant),
                              _milp_values(inst, variant), variant=variant, engine="bnb"))
    inst = _family_instance("grid:4x4")
    jobs.append(_wdim_job(["--family", "grid:4x4"], inst, 1, 8, _milp_values(inst),
                          engine="brute"))
    return jobs


def auto_verify(seed: int, d: str) -> list[Job]:
    """Default-engine session: one pair-model build per call on n = 100..400."""
    jobs = []
    for spec, hi in (("grid:12x12", 44), ("grid:15x15", 20), ("path:100", 100)):
        kind = spec.split(":")[0]
        jobs.append(_wdim_job(["--family", spec], _family_instance(spec), 1, hi,
                              lambda k, kind=kind: orc.family_wdim(kind, k)))
    path, inst = _file_instance(d, "tree150.txt", 150, prufer_tree(150, rng_for(seed, "tree150")))
    jobs.append(_wdim_job(["--file", path], inst, 1, min(4, _variant_kappa(inst, "vertex")),
                          _milp_values(inst), engine="formula"))
    for i in range(3):  # seed code routes these to bnb
        path, inst = _file_instance(d, f"tree{i}.txt", 40, prufer_tree(40, rng_for(seed, f"tree{i}")))
        jobs.append(_wdim_job(["--file", path], inst, 1, 2, _milp_values(inst)))

    n = 400
    path, inst = _file_instance(d, "sparse.txt", n, sparse_graph(n, n // 2, rng_for(seed, "sparse")))
    members, worst = _verify_set(inst, rng_for(seed, "set"))
    set_path = write_set(os.path.join(d, "set.txt"), members)
    for k, rc in ((worst, 0), (worst + 1, 1)):
        jobs.append(Job(
            ["verify", "--file", path, "--set-file", set_path, "--k", str(k)],
            lambda out, k=k, inst=inst: orc.check_verify(_report(out), inst, members, k),
            rc=rc,
        ))

    lp_path = os.path.join(d, "model.lp")
    lp_inst = _family_instance("grid:8x8")

    def check_lp(out: str) -> None:
        rows = _report(out)["results"][0]["rows"]
        items = lp_inst.n + len(lp_inst.edges)
        orc.expect(rows == items * (items - 1) // 2, f"export-lp reports {rows} rows")
        with open(lp_path, encoding="utf-8") as fh:
            orc.check_lp(fh.read(), lp_inst, "mixed", 3)

    jobs.append(Job(["export-lp", "--family", "grid:8x8", "--variant", "mixed", "--k", "3",
                     "--out", lp_path], check_lp))
    jobs.append(Job(["wdim", "--family", "grid:6x6", "--k", "21"],
                    lambda out: orc.expect(out == "", "k above kappa printed a report"), rc=3))
    return jobs


def _verify_set(inst: orc.Instance, rng) -> tuple[list[int], int]:
    """A random three-quarter vertex set, grown until it separates every
    pair, with its minimum pair total."""
    order = list(range(inst.n))
    rng.shuffle(order)
    size = 3 * inst.n // 4
    while True:
        members = sorted(order[:size])
        worst = orc.min_pair_total(inst.dist[:, members])
        if worst > 0:
            return members, worst
        size += 10


WORKLOADS = {
    "kappa-large": kappa_large,
    "bnb-sweep": bnb_sweep,
    "auto-verify": auto_verify,
}

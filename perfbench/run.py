"""weakdim benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload kappa-large --seed 1 --seconds 20 --trace 0

The run builds its inputs from the seed, measures set-up time, runs the
workload's job list in a fresh worker process for ``--seconds`` (see
worker.py), then checks every answer against the independent oracle. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics from the
traced passes. Lines before it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
JOB_CAP_S = 30.0
WORKER_BUDGET_S = 120.0  # no job starts later, so a run ends well within 180 s
WORKER_TIMEOUT_S = 160.0  # a job started at the budget ends by its cap
SETUP_RUNS = 15
PROBE_REF_S = 0.015  # the probe's typical time on a 2-core x86 host
SETUP_CODE = "import weakdim, weakdim.cli; weakdim.cli.build_parser()"
# a fresh interpreter importing the modules weakdim imports, without weakdim
YARDSTICK_CODE = "import argparse, concurrent.futures, dataclasses, json, numpy"
YARDSTICK_REF_S = 0.2  # the yardstick's typical time on a 2-core x86 host
COMPUTED = ("graph.dist_bytes", "solver.model_bytes")  # from sizes, not measured


def program_env() -> dict:
    """The environment weakdim runs in: imports from SRC, and no
    WKDIM_WORKERS, so only a job's own argv picks its thread count."""
    env = {k: v for k, v in os.environ.items() if k != "WKDIM_WORKERS"}
    env["PYTHONPATH"] = SRC
    return env


def measure_setup() -> float:
    """Set-up time at reference host speed: the median over SETUP_RUNS of a
    fresh interpreter importing weakdim and weakdim.cli and building the CLI
    parser, each divided by the yardstick interpreter started just before
    it and scaled by YARDSTICK_REF_S. Work weakdim adds at import raises the
    ratio; host speed drift moves both and cancels."""
    env = program_env()

    def fresh(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        return time.perf_counter() - t0

    ratios = []
    for _ in range(SETUP_RUNS):
        yardstick = fresh(YARDSTICK_CODE)
        ratios.append(fresh(SETUP_CODE) / yardstick)
    return statistics.median(ratios) * YARDSTICK_REF_S


def run_worker(jobs, seconds: float, trace: bool, run_dir: str) -> dict:
    plan = os.path.join(run_dir, "plan.json")
    result = os.path.join(run_dir, "result.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump({"jobs": [j.argv for j in jobs], "seconds": seconds,
                   "cap_s": JOB_CAP_S, "budget_s": WORKER_BUDGET_S, "trace": trace}, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), SRC, plan, result],
                   check=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT, env=program_env())
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(jobs, outputs) -> dict[int, str]:
    """Failed jobs of the first pass by index: exception, time cap, exit
    code or wrong answer."""
    from oracle import CheckError

    failures = {}
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if out["error"]:
            failures[i] = out["error"]
        elif out["rc"] != job.rc:
            failures[i] = f"exit {out['rc']}, expected {job.rc}: {out['stderr'].strip()}"
        else:
            try:
                job.check(out["stdout"])
            except CheckError as exc:
                failures[i] = str(exc)
            except (KeyError, IndexError, TypeError, ValueError) as exc:  # malformed report
                failures[i] = f"{type(exc).__name__}: {exc}"
    return failures


def auto_formula_share(jobs, outputs) -> float:
    """Rows served by the closed form over rows attempted by auto wdim jobs
    (0 when the workload has none)."""
    served = attempted = 0
    for job, out in zip(jobs, outputs):
        if job.is_auto_wdim and out["rc"] == 0:
            rows = json.loads(out["stdout"])["results"]
            attempted += len(rows)
            served += sum(r["provenance"] == "formula" for r in rows)
    return served / attempted if attempted else 0.0


def at_ref(p: dict, key: str) -> float:
    """A pass's summed job times at reference host speed: each job's time
    scaled by PROBE_REF_S over the mean of the probes just before and after
    it, so that host speed drift between and within runs cancels."""
    probes = p["probe_s"]
    return sum(t * PROBE_REF_S * 2 / (probes[i] + probes[i + 1])
               for i, t in enumerate(p[key]))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--raw-out", metavar="FILE",
                    help="also write the unscaled wall_s and cpu_s there as JSON")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "weakdim", "__init__.py")):
        print(f"no weakdim package under {SRC}", file=sys.stderr)
        return 2

    import numpy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__}")
    os.chdir(ROOT)  # the CLI sees input paths relative to the checkout
    run_dir = os.path.relpath(os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}"))
    marks = [time.perf_counter()]
    try:
        os.makedirs(run_dir)
        jobs = WORKLOADS[args.workload](args.seed, run_dir)
        marks.append(time.perf_counter())
        setup_s = None if args.trace else measure_setup()
        marks.append(time.perf_counter())
        res = run_worker(jobs, args.seconds, bool(args.trace), run_dir)
        marks.append(time.perf_counter())
        failures = check_outputs(jobs, res["outputs"])
        marks.append(time.perf_counter())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("# phases: " + ", ".join(f"{name} {b - a:.1f} s" for name, a, b in zip(
        ("inputs", "setup", "worker", "checks"), marks, marks[1:])))

    passes = res["plain"]
    attempted, failed = count_failures(jobs, passes + res["traced"] + res["memory"], failures)
    for i, why in sorted(failures.items()):
        print(f"# FAILED job {i} ({' '.join(jobs[i].argv)}): {why}")
    for i, job in enumerate(jobs):
        t = statistics.median(p["job_s"][i] for p in passes)
        print(f"#   job {i:2d} {t:8.4f} s  {' '.join(job.argv)}")
    wall = statistics.median(sum(p["job_s"]) for p in passes)
    cpu = statistics.median(sum(p["job_cpu_s"]) for p in passes)
    print(f"# wall_s = {wall:.6g} s\n# cpu_s = {cpu:.6g} s")
    if args.raw_out:
        with open(args.raw_out, "w", encoding="utf-8") as fh:
            json.dump({"wall_s": metric(wall, "s"), "cpu_s": metric(cpu, "s")}, fh)
    print(f"# {len(passes)} plain passes of {len(jobs)} jobs; failed_ops={failed / attempted:g} "
          f"({failed}/{attempted})")
    if args.trace:
        metrics = layer_report(args, jobs, res, wall)
    else:
        metrics = {
            "wall_ref_s": metric(statistics.median(at_ref(p, "job_s") for p in passes), "s"),
            "cpu_ref_s": metric(statistics.median(at_ref(p, "job_cpu_s") for p in passes), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
            "setup_s": metric(setup_s, "s"),
        }
    for name, m in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"# {name} = {m['value']:.6g} {m['unit']}{label}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def count_failures(jobs, passes, failures: dict[int, str]) -> tuple[int, int]:
    """(attempted, failed) jobs over all passes. A job fails in a pass when
    it failed its check in the first pass or printed something else since;
    the latter are added to ``failures``."""
    first = set(failures)
    attempted = failed = 0
    for p in passes:
        attempted += len(jobs)
        failed += len(first | set(p["differs"]))
        for i in p["differs"]:
            failures.setdefault(i, "a later pass failed or printed other output")
    return attempted, failed


def layer_report(args, jobs, res, wall: float) -> dict:
    """Per-layer metrics of a traced run, in BENCHMARK.json's order; writes
    the span file and prints the self-time table."""
    import tracing

    values = tracing.layer_metrics(res["spans"])
    values.update(tracing.peak_metrics(res["memory_spans"]))
    values["cli.auto_formula_share"] = auto_formula_share(jobs, res["outputs"])
    traced_wall = statistics.median(sum(p["job_s"]) for p in res["traced"])
    values["trace.overhead_s"] = traced_wall - wall
    span_file = os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.jsonl")
    with open(span_file, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(s) + "\n" for s in res["spans"])
    print_layer_table(res["spans"], traced_wall, wall, span_file)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    return {m["name"]: metric(values[m["name"]], m["unit"]) for m in declared}


def print_layer_table(spans, traced_wall, wall, span_file) -> None:
    import tracing

    totals: dict[str, float] = {}
    for s, t in zip(spans, tracing.self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + t
    passes = len({s["pass"] for s in spans})
    whole = sum(totals.values())
    print(f"# self time per traced pass ({passes} passes; spans in {span_file}):")
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"#   {name:22s} {t / passes:9.4f} s  {100 * t / whole:5.1f} %")
    print(f"# traced wall {traced_wall:.4f} s, plain wall {wall:.4f} s, "
          f"overhead {traced_wall - wall:+.4f} s")


if __name__ == "__main__":
    sys.exit(main())

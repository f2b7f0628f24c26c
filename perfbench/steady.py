"""Steadiness self-check: run workloads repeatedly, one seed per run, and
report each end-to-end metric's median, quartiles and spread.

Usage, from the repository root:

    python3 perfbench/steady.py                      # every workload, seeds 1..10
    python3 perfbench/steady.py --workload bnb-sweep --runs 5 --first-seed 100

The spread is (q3 - q1) / median with quartiles from
``statistics.quantiles(values, n=4)``; a metric is steady when its spread
is within the bound BENCHMARK.json gives it, and the target is a third
of the bound. The raw wall_s and cpu_s of each run (run.py --raw-out) are
shown too, without a bound. failed_ops is failed jobs over
attempted jobs, summed over the runs. The table and every run's metrics, with nproc
and the Python and numpy versions, go to perfbench/_work/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RAW = ("wall_s", "cpu_s")
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """One run's result line, with the raw wall_s and cpu_s added to its
    metrics."""
    os.makedirs(WORK, exist_ok=True)
    raw_file = os.path.join(WORK, f"raw-{workload}-s{seed}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--raw-out", raw_file],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    with open(raw_file, encoding="utf-8") as fh:
        result["metrics"].update(json.load(fh))
    os.remove(raw_file)
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    import numpy

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": numpy.__version__, "seconds": args.seconds, "seeds": seeds,
              "workloads": {}}
    print(f"nproc={record['nproc']} python={record['python']} numpy={record['numpy']} "
          f"seconds={args.seconds} seeds={seeds[0]}..{seeds[-1]}")
    ok = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(one_run(workload, seed, args.seconds))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4f}" for k, v in runs[-1]["metrics"].items()), flush=True)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        table = {}
        print(f"{workload}: failed_ops = {failed / attempted:g} ({failed}/{attempted} jobs)")
        for name, bound in [*bounds.items(), *((name, None) for name in RAW)]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = bound is None or spread <= bound
            ok &= steady and all(r["correct"] for r in runs)
            table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bound, "unit": unit, "values": values}
            print(f"  {name:12s} median {med:10.4f} {unit:3s} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {spread:6.3f}"
                  + ("" if bound is None else f" (bound {bound}, target {bound / 3:.3f})")
                  + ("" if steady else "  NOT STEADY"))
        record["workloads"][workload] = {"failed": failed, "attempted": attempted,
                                         "metrics": table}
    with open(os.path.join(WORK, "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

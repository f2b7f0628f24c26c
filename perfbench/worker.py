"""The benchmark's client: one fresh process running a workload's job list
as a closed loop, each job an in-process ``weakdim.cli.main(argv)``.

Usage: python3 worker.py SRC_DIR PLAN_JSON RESULT_JSON

The plan gives the jobs (argv lists), the run length in seconds, the
per-job time cap, a budget after which no job starts, and whether to
trace. Passes over the job list repeat until the run length is used (at
least one). Traced runs alternate plain and traced passes in the first
half of the budget, then make one tracemalloc pass with its own deadline.
Every pass's output is compared with the first pass's. Only weakdim and the
standard library are imported, so peak RSS is the program's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(cli, argv: list[str], cap_s: float, deadline: float) -> dict:
    """Run one CLI invocation; rc is None when it raised, passed the cap, or
    was not started because the run's deadline had passed."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    cap_s = min(cap_s, deadline - time.perf_counter())
    if cap_s <= 0:
        return {"rc": None, "error": "not run: the run's time budget is used up",
                "stdout": "", "stderr": ""}
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except JobTimeout:
        error = f"passed its {cap_s:.3g} s time cap"
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # any other escape is a failed job, not a dead run
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"rc": rc, "error": error, "stdout": out.getvalue(), "stderr": err.getvalue()}


def probe() -> float:
    """Seconds for a fixed ~15 ms loop of Python arithmetic and numpy row
    differences that runs no weakdim code. On a shared host the CPU speed
    drifts by +-25 % within seconds; timing this probe between jobs tells
    how fast the host was while each job ran."""
    import numpy as np

    t0 = time.perf_counter()
    x = 0
    for i in range(60000):
        x += i * i % 7
    m = (np.arange(300 * 300, dtype=np.int32).reshape(300, 300) * 7919) % 97
    for r in range(0, 299, 3):
        np.abs(m[r + 1:] - m[r]).sum(axis=1).min()
    return time.perf_counter() - t0


def run_pass(cli, jobs: list[list[str]], cap_s: float, deadline: float, tracer=None) -> dict:
    """Each job's wall and CPU time, with a probe before the first job and
    after every job."""
    results, job_s, job_cpu_s, probes = [], [], [], [probe()]
    for i, argv in enumerate(jobs):
        t0, c0 = time.perf_counter(), time.process_time()
        if tracer is None:
            results.append(run_job(cli, argv, cap_s, deadline))
        else:
            tracer.job = i
            with tracer.span("cli.main"):
                results.append(run_job(cli, argv, cap_s, deadline))
        job_s.append(time.perf_counter() - t0)
        job_cpu_s.append(time.process_time() - c0)
        probes.append(probe())
    return {"job_s": job_s, "job_cpu_s": job_cpu_s, "probe_s": probes, "results": results}


def main() -> int:
    src, plan_path, result_path = sys.argv[1:4]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, src)
    import weakdim.cli as cli
    from tracing import Tracer

    signal.signal(signal.SIGALRM, _on_alarm)
    jobs, cap_s = plan["jobs"], plan["cap_s"]
    tracer = Tracer(cli) if plan["trace"] else None
    plain, traced, memory = [], [], []
    outputs = None

    def record(store: list, p: dict) -> None:
        nonlocal outputs
        results = p.pop("results")
        if outputs is None:
            outputs = results
        # a job fails in a pass that prints other than the checked first pass
        p["differs"] = [i for i, (a, b) in enumerate(zip(outputs, results))
                        if b["error"] or (a["rc"], a["stdout"]) != (b["rc"], b["stdout"])]
        store.append(p)

    started = time.perf_counter()
    budget_s = plan["budget_s"]
    # a traced run keeps the second half of the budget for the memory pass
    deadline = started + (budget_s / 2 if tracer else budget_s)
    while True:
        for store, t in [(plain, None)] + ([(traced, tracer)] if tracer else []):
            with t.installed(len(store)) if t else contextlib.nullcontext():
                record(store, run_pass(cli, jobs, cap_s, deadline, t))
        if time.perf_counter() - started >= plan["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    memory_spans = []
    if tracer:
        mem = Tracer(cli, memory=True)
        deadline = min(time.perf_counter() + cap_s * len(jobs), started + budget_s)
        with mem.installed(0):
            record(memory, run_pass(cli, jobs, cap_s, deadline, mem))
        memory_spans = mem.spans

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "plain": plain,
            "traced": traced,
            "memory": memory,
            "outputs": outputs,
            "peak_rss_mb": peak_rss_mb,
            "spans": tracer.spans if tracer else [],
            "memory_spans": memory_spans,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

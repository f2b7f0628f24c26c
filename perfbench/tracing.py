"""Spans around the calls ``weakdim.cli`` makes into each layer, and the
per-layer metrics derived from them.

The tracer replaces the names ``weakdim.cli`` imported (``generate``,
``compute_kappa``, ``solve_bnb``, ...) with timing wrappers, so the
program itself is unchanged. The graph loaders also call
``all_pairs_distances`` in a child span: the CLI would compute the same
cached matrix inside the next call, so APSP gets a span of its own for
the same total work.

Spans are kept in memory as dicts (name, job, start, end, parent, counts)
and written out when the run ends. With ``memory=True`` each span also
records its tracemalloc peak above the traced size at its start.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager

# span name -> name in weakdim.cli it wraps
WRAPPED = {
    "graph.load": ("generate", "load_edgelist"),
    "graph.twins": ("find_twins",),
    "resolve.kappa": ("compute_kappa",),
    "solver.variant_kappa": ("variant_kappa",),
    "solver.verify": ("verify_set",),
    "solver.certificate": ("certificate_for",),
    "solver.bnb": ("solve_bnb",),
    "solver.brute": ("solve_bruteforce",),
    "solver.write_lp": ("write_lp",),
    "closedform.formula": ("formula_basis",),
}
MODEL_SPANS = ("solver.variant_kappa", "solver.verify", "solver.certificate",
               "solver.bnb", "solver.brute", "solver.write_lp")
LAYERS = ("cli", "graph", "resolve", "solver", "closedform")


def _item_count(g, variant) -> int:
    kind = getattr(variant, "value", variant)
    return {"vertex": g.n, "edge": g.edge_count, "mixed": g.n + g.edge_count}[kind]


def _counts(name: str, args, kwargs, result) -> dict:
    """Counts known at the span boundary; byte counts are computed."""
    if name == "resolve.kappa":
        n = args[0].n
        return {"pairs": n * (n - 1) // 2}
    if name not in MODEL_SPANS:
        return {}
    g = args[0]
    items = _item_count(g, args[1] if len(args) > 1 else kwargs.get("variant", "vertex"))
    out = {"model_bytes": items * (items - 1) // 2 * g.n * 4}
    if name == "solver.bnb":
        out["nodes"] = result.stats.get("nodes", 0)
    elif name == "solver.brute":
        out["subsets"] = result.stats.get("subsets", 0)
    elif name == "solver.write_lp":
        out["lp_bytes"] = len(result)
    return out


class Tracer:
    """Records spans for the calls the CLI makes while installed.

    ``job`` (set by the caller) and ``pass_no`` are stamped on each span.
    For memory, ``_peaks`` holds, per open span, the highest traced size
    seen so far; tracemalloc's own peak is reset at every span boundary, so
    each reading is folded into the open span before the reset.
    """

    def __init__(self, cli, memory: bool = False):
        self.cli = cli
        self.memory = memory
        self.spans: list[dict] = []
        self.job = -1
        self.pass_no = -1
        self._stack: list[int] = []
        self._peaks: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "pass": self.pass_no, "job": self.job,
               "parent": self._stack[-1] if self._stack else -1, "counts": {}}
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], peak)
            tracemalloc.reset_peak()
            rec["mem_start"] = current
            self._peaks.append(current)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if self.memory:
                peak = max(self._peaks.pop(), tracemalloc.get_traced_memory()[1])
                rec["mem_peak"] = peak - rec["mem_start"]
                if self._peaks:
                    self._peaks[-1] = max(self._peaks[-1], peak)
                tracemalloc.reset_peak()

    def _wrap(self, name: str, fn):
        from weakdim.graph import all_pairs_distances

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if name == "graph.load":
                    with self.span("graph.apsp") as child:
                        all_pairs_distances(result)
                        child["counts"]["dist_bytes"] = result.n * result.n * 4
                rec["counts"] = _counts(name, args, kwargs, result)
                return result

        return wrapper

    @contextmanager
    def installed(self, pass_no: int):
        """Wrap the CLI's names for one pass, stamping spans with ``pass_no``."""
        self.pass_no = pass_no
        saved = {}
        for span_name, attrs in WRAPPED.items():
            for attr in attrs:
                saved[attr] = getattr(self.cli, attr)
                setattr(self.cli, attr, self._wrap(span_name, saved[attr]))
        if self.memory:
            tracemalloc.start()
        try:
            yield self
        finally:
            for attr, fn in saved.items():
                setattr(self.cli, attr, fn)
            if self.memory:
                tracemalloc.stop()


# ---------------------------------------------------------------- analysis


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _pass_metrics(group: list[tuple[dict, float]]) -> dict:
    """Sums over one pass of (span, self time) pairs."""
    by_name: dict[str, float] = {}
    counts: dict[str, int] = {}
    calls: dict[str, int] = {}
    for s, t in group:
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + t
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        for key, value in s["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    m = {f"{name}_s": by_name.get(name, 0.0) for name in [*WRAPPED, "graph.apsp"]}
    m["cli.self_s"] = by_name.get("cli.main", 0.0)
    m["graph.dist_bytes"] = counts.get("dist_bytes", 0)
    m["resolve.kappa_pairs_per_s"] = rate(counts.get("pairs", 0), m["resolve.kappa_s"])
    m["solver.model_calls"] = sum(calls.get(name, 0) for name in MODEL_SPANS)
    m["solver.model_bytes"] = counts.get("model_bytes", 0)
    m["solver.bnb_nodes"] = counts.get("nodes", 0)
    m["solver.bnb_nodes_per_s"] = rate(m["solver.bnb_nodes"], m["solver.bnb_s"])
    m["solver.brute_subsets"] = counts.get("subsets", 0)
    m["solver.lp_bytes"] = counts.get("lp_bytes", 0)
    return m


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced passes of each pass's sums."""
    passes: dict[int, list[tuple[dict, float]]] = {}
    for s, t in zip(spans, self_times(spans)):
        passes.setdefault(s["pass"], []).append((s, t))
    per_pass = [_pass_metrics(group) for group in passes.values()]
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def peak_metrics(spans: list[dict]) -> dict:
    """<layer>.peak_mb: the largest tracemalloc peak of any span in the layer."""
    peaks = {layer: 0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".")[0]
        peaks[layer] = max(peaks[layer], s["mem_peak"])
    return {f"{layer}.peak_mb": peaks[layer] / 2**20 for layer in LAYERS}

"""Independent answer checker. Nothing here imports weakdim.

Distances come from scipy's csgraph BFS, kappa from an exact pruned pair
scan, optimal values from HiGHS ``milp`` on a covering model built here,
and family values from hand-coded formulas. Every reported basis is
re-checked with numpy against the same distances.
"""

from __future__ import annotations

import re

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path


class CheckError(Exception):
    """A CLI answer disagrees with the oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------- graphs


def family_edges(kind: str, a: int, b: int = 0) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of a family instance in weakdim's documented numbering:
    path/cycle in walk order, star center 0, grid (i, j) -> i*r + j."""
    if kind == "path":
        return a, [(i, i + 1) for i in range(a - 1)]
    if kind == "cycle":
        return a, [(i, i + 1) for i in range(a - 1)] + [(0, a - 1)]
    if kind == "star":
        return a, [(0, i) for i in range(1, a)]
    if kind == "grid":
        q, r = a, b
        edges = [(i * r + j, i * r + j + 1) for i in range(q) for j in range(r - 1)]
        edges += [(i * r + j, (i + 1) * r + j) for i in range(q - 1) for j in range(r)]
        return q * r, sorted(edges)
    raise ValueError(f"no family {kind!r}")


class Instance:
    """A graph known to the benchmark, with distances computed by scipy."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.edges = sorted((min(u, v), max(u, v)) for u, v in edges)
        self._dist = None

    @property
    def dist(self) -> np.ndarray:
        if self._dist is None:
            u, v = np.array(self.edges, dtype=np.int64).T
            adj = csr_matrix((np.ones(len(u)), (u, v)), shape=(self.n, self.n))
            d = shortest_path(adj, directed=False, unweighted=True)
            if np.isinf(d).any():
                raise ValueError("instance is not connected")
            self._dist = d.astype(np.int32)
        return self._dist

    def item_rows(self, variant: str) -> tuple[list, np.ndarray]:
        """Items of a variant (vertex ids, (u, w) edges, or both) and their
        distance rows; the distance to an edge is the nearer endpoint's."""
        d = self.dist
        items: list = []
        rows = []
        if variant in ("vertex", "mixed"):
            items += list(range(self.n))
            rows.append(d)
        if variant in ("edge", "mixed"):
            items += self.edges
            e = np.array(self.edges)
            rows.append(np.minimum(d[e[:, 0]], d[e[:, 1]]))
        return items, np.vstack(rows)


def item_row(inst: Instance, rows: np.ndarray, item) -> np.ndarray:
    """Row of an item as the CLI prints it: an int, or [u, w] for an edge."""
    if isinstance(item, int):
        return rows[item]
    u, w = item
    return np.minimum(inst.dist[u], inst.dist[w])


# ---------------------------------------------------------------- pair minima


def min_pair_total(cols: np.ndarray, block_count: int = 32) -> int:
    """Exact min over row pairs x < y of sum |cols[x] - cols[y]|.

    Column-block sums give a lower bound for every pair (triangle
    inequality); pairs are evaluated exactly in order of that bound until
    the bound exceeds the best exact total, which is then the minimum.
    """
    c = np.ascontiguousarray(cols, dtype=np.int32)
    m = c.shape[0]
    if m < 2:
        raise ValueError("need two rows")
    blocks = np.array_split(np.arange(c.shape[1]), min(block_count, c.shape[1]))
    sums = np.stack([c[:, b].sum(axis=1) for b in blocks], axis=1)
    xs, ys, lbs = [], [], []
    for x in range(m - 1):
        xs.append(np.full(m - 1 - x, x, dtype=np.int32))
        ys.append(np.arange(x + 1, m, dtype=np.int32))
        lbs.append(np.abs(sums[x + 1:] - sums[x]).sum(axis=1))
    xs, ys, lbs = np.concatenate(xs), np.concatenate(ys), np.concatenate(lbs)
    order = np.argsort(lbs, kind="stable")
    best = None
    batch = 4096
    for start in range(0, order.size, batch):
        idx = order[start:start + batch]
        if best is not None and lbs[idx[0]] > best:
            break
        totals = np.abs(c[xs[idx]] - c[ys[idx]]).sum(axis=1)
        low = int(totals.min())
        best = low if best is None else min(best, low)
    return best


def pair_profile(rows: np.ndarray) -> np.ndarray:
    """(npairs x n) matrix of |row_a - row_b| over all pairs a < b."""
    a, b = np.triu_indices(rows.shape[0], k=1)
    return np.abs(rows[a] - rows[b])


def milp_min(rows: np.ndarray, k: int) -> int:
    """Smallest vertex set whose summed differences reach k on every pair,
    solved by HiGHS on the clipped, de-duplicated covering model."""
    model = np.unique(np.minimum(pair_profile(rows), k), axis=0)
    n = rows.shape[1]
    res = milp(
        c=np.ones(n),
        constraints=LinearConstraint(model, lb=k, ub=np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise CheckError(f"HiGHS did not prove an optimum: {res.message}")
    return int(round(res.fun))


# ---------------------------------------------------------------- closed forms


def family_kappa(kind: str, a: int, b: int = 0) -> int:
    if kind == "path":
        return a
    if kind == "cycle":
        return a - 1 if a % 2 else a
    if kind == "grid":
        return 2 * a + 2 * b - 4
    raise ValueError(kind)


def family_wdim(kind: str, k: int) -> int:
    if kind == "path":
        return k
    if kind == "grid":
        return k + k % 2
    raise ValueError(kind)


# ---------------------------------------------------------------- answers


def check_kappa(report: dict, inst: Instance, kappa: int) -> None:
    row = report["results"][0]
    expect(row["kappa"] == kappa, f"kappa {row['kappa']} != oracle {kappa}")
    x, y = row["witness_pair"]
    d = inst.dist
    total = int(np.abs(d[x] - d[y]).sum())
    expect(total == kappa, f"witness {x},{y} has total {total}, not {kappa}")


def check_basis(inst: Instance, variant: str, basis, k: int, cert) -> None:
    """The basis resolves every item pair at k, and the certificate names
    a pair attaining the basis's minimum."""
    _, rows = inst.item_rows(variant)
    cols = rows[:, list(basis)]
    worst = min_pair_total(cols)
    expect(worst >= k, f"basis {basis} reaches only {worst} < k={k}")
    expect(cert is not None and cert["delta"] == worst,
           f"certificate {cert} != basis minimum {worst}")
    a = item_row(inst, rows, cert["a"])[list(basis)]
    b = item_row(inst, rows, cert["b"])[list(basis)]
    expect(int(np.abs(a - b).sum()) == worst, f"certificate pair {cert} misreports")


def check_wdim(report: dict, inst: Instance, variant: str, lo: int, hi: int,
               value_of, provenances) -> None:
    """``value_of(k)`` gives the oracle's optimum; rows must cover lo..hi."""
    rows = report["results"]
    expect([r["k"] for r in rows] == list(range(lo, hi + 1)),
           f"rows cover k={[r['k'] for r in rows]}, expected {lo}..{hi}")
    for r in rows:
        expect(r["provenance"] in provenances, f"provenance {r['provenance']}")
        want = value_of(r["k"])
        expect(r["value"] == want, f"k={r['k']}: value {r['value']} != oracle {want}")
        expect(len(r["basis"]) == r["value"], f"k={r['k']}: basis size != value")
        check_basis(inst, variant, r["basis"], r["k"], r["certificate"])


def check_verify(report: dict, inst: Instance, members, k: int) -> bool:
    """Returns whether the set passes, after checking the report agrees."""
    row = report["results"][0]
    worst = min_pair_total(inst.dist[:, sorted(members)])
    expect(row["ok"] == (worst >= k), f"verify ok={row['ok']} but minimum is {worst}")
    if not row["ok"]:
        f = row["failing"]
        d = inst.dist[:, sorted(members)]
        total = int(np.abs(d[f["a"]] - d[f["b"]]).sum())
        expect(f["delta"] == worst == total, f"failing pair {f} is not a minimiser")
    return row["ok"]


_ROW = re.compile(r"^ p(\d+): (.*)$")
_TERM = re.compile(r"(\d+) x(\d+)")
_LABEL = re.compile(r"^\\ pair (\S+) -- (\S+)$")


def _parse_label(label: str):
    if label.startswith("v"):
        return int(label[1:])
    u, w = label[1:].split("_")
    return (int(u), int(w))


def check_lp(text: str, inst: Instance, variant: str, k: int) -> None:
    """Every constraint row of the LP text equals the difference profile of
    the item pair its comment names, with right-hand side k, and there is
    one row per item pair."""
    items, rows = inst.item_rows(variant)
    index = {it: i for i, it in enumerate(items)}
    seen = 0
    pair = None
    coeffs: dict[int, int] = {}
    rhs_ok = True

    def flush():
        want = np.abs(rows[index[pair[0]]] - rows[index[pair[1]]])
        got = np.zeros(inst.n, dtype=np.int64)
        for v, c in coeffs.items():
            got[v] = c
        expect(np.array_equal(want, got), f"LP row for {pair} differs from model")

    for line in text.splitlines():
        m = _LABEL.match(line)
        if m:
            if pair is not None:
                flush()
            pair = (_parse_label(m.group(1)), _parse_label(m.group(2)))
            coeffs = {}
            seen += 1
            continue
        if pair is None:
            continue
        if line.startswith("Binaries"):
            flush()
            pair = None
            continue
        body = _ROW.match(line).group(2) if line.startswith(" p") else line
        if ">=" in body:
            body, rhs = body.split(">=")
            rhs_ok &= int(rhs) == k
        for c, v in _TERM.findall(body):
            coeffs[int(v)] = int(c)
    n_items = len(items)
    expect(seen == n_items * (n_items - 1) // 2, f"LP has {seen} pair rows")
    expect(rhs_ok, f"an LP row has a right-hand side other than {k}")

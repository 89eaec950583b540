"""Independent references for every op's output, and the checks against them.

References are computed in the benchmark's parent process, never in the
measured one, so they do not count toward its memory high-water mark.  They
take only the network document, so they do not move when the program's
engines change:

- exact means: the bottom-up subset recursion of ``average_age_all``,
  written out again here over a dense table of all subsets;
- CDF points: the exact first-passage law of the reached-set Markov chain
  (a matrix exponential), a different method from the program's
  characteristic-function inversion.  A 1M-replicate empirical CDF would
  raise false alarms: at 4 standard errors over 153 grid points per seed,
  some seeds fail by chance.  The tolerance stays the one a 1M-sample check
  would use, 4 binomial standard errors plus 1e-6;
- triangle chains: ``closed_forms.triangle_cascade_age`` prefix sums.

Each ``check_*`` returns ``None`` when an op's rows pass, else a reason.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import expm

from workloads import TAILS_CHERNOFF_D, TAILS_GRID

EXACT_RTOL = 1e-9
CDF_SIGMAS = 4.0
CDF_ATOL = 1e-6
CDF_REPLICATES = 1_000_000  # sets the tolerance's standard error


def _index(doc: dict):
    """Labels in the CLI's order (source, then first appearance in edges)."""
    labels = [doc["source"]]
    for e in doc["edges"]:
        for x in (e["from"], e["to"]):
            if x not in labels:
                labels.append(x)
    pos = {x: i for i, x in enumerate(labels)}
    edges = [(pos[e["from"]], pos[e["to"]], float(e["rate"])) for e in doc["edges"]]
    return labels, edges


def target_mask(labels: list[str], target: str) -> int:
    names = target[1:-1].split(",") if target.startswith("{") else [target]
    return sum(1 << labels.index(x.strip()) for x in names)


def mean_age_table(doc: dict) -> tuple[list[str], np.ndarray]:
    """Exact mean age of every subset mask, by decreasing popcount.

    T(A) = 1/lambda if A holds the source, else
    (1 + sum_{(u,v): v in A, u not in A} r_uv T(A + u)) / sum r_uv.
    """
    labels, edges = _index(doc)
    n = len(labels)
    masks = np.arange(1 << n, dtype=np.int64)
    pop = np.bitwise_count(masks)
    table = np.full(1 << n, np.nan)
    for k in range(n, 0, -1):
        group = masks[pop == k]
        holds_src = (group & 1) != 0  # the source is label 0
        table[group[holds_src]] = 1.0 / doc["lambda"]
        rest = group[~holds_src]
        mu = np.zeros(rest.size)
        acc = np.zeros(rest.size)
        for u, v, r in edges:
            cut = ((rest >> v) & 1).astype(bool) & (((rest >> u) & 1) == 0)
            mu[cut] += r
            acc[cut] += r * table[rest[cut] | (1 << u)]
        table[rest] = (1.0 + acc) / mu
    return labels, table


def phase_type_cdf(doc: dict, targets: list[str], grid: np.ndarray):
    """Exact Pr[age <= d] of each target, from the reached-set Markov chain.

    A node's age is its shortest-path distance from the virtual source over
    independent Exp(rate) edge weights.  By memorylessness the set of nodes
    reached by time t is a continuous-time Markov chain (an edge from a
    reached to an unreached node fires at its rate), so Pr[age_A <= d] is
    the probability that the chain started at the empty set holds a node of
    A at time d: one matrix exponential per grid point.
    Returns {target: array over grid}.
    """
    labels, edges = _index(doc)
    index, order, moves = {0: 0}, [0], []
    k = 0
    while k < len(order):
        m = order[k]
        if m == 0:
            nxt = [(1, doc["lambda"])]  # the source is label 0
        else:
            nxt = [(m | 1 << v, r) for u, v, r in edges if m >> u & 1 and not m >> v & 1]
        for m2, r in nxt:
            if m2 not in index:
                index[m2] = len(order)
                order.append(m2)
            moves.append((k, index[m2], r))
        k += 1
    q = np.zeros((len(order), len(order)))
    for a, b, r in moves:
        q[a, b] += r
        q[a, a] -= r
    states = np.array(order)
    at = [expm(q * d)[0] for d in grid]
    out = {}
    for t in targets:
        hit = (states & target_mask(labels, t)) != 0
        out[t] = np.array([p[hit].sum() for p in at])
    return out


def chain_ages(doc: dict) -> dict[str, float]:
    """Mean age of every node of a triangle chain from closed-form prefixes.

    Cut vertex v{2i} has the closed-form age of the first i triangles; the
    relay v{2i-1} is reached only from v{2i-2}, so its age adds 1/rate of
    that one edge.
    """
    from aoinet.closed_forms import triangle_cascade_age

    lam = doc["lambda"]
    e = doc["edges"]
    triangles = [
        (e[k]["rate"], e[k + 1]["rate"], e[k + 2]["rate"]) for k in range(0, len(e), 3)
    ]
    ages = {"v0": 1.0 / lam}
    for i in range(1, len(triangles) + 1):
        ages[f"v{2 * i - 1}"] = ages[f"v{2 * i - 2}"] + 1.0 / triangles[i - 1][0]
        ages[f"v{2 * i}"] = triangle_cascade_age(lam, triangles[:i])
    return ages


def _rows(out: dict) -> list[dict]:
    if out.get("exc") or out.get("rc") != 0:
        raise ValueError(f"exit {out.get('rc')}: {out.get('exc') or out.get('stderr', '')[-300:]}")
    return [json.loads(line) for line in out["stdout"].splitlines() if line.strip()]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= EXACT_RTOL * abs(want)


def check_means(rows: list[dict], want: dict[str, float], method: str) -> str | None:
    seen = 0
    for r in rows:
        if r["method"] != method:
            continue
        seen += 1
        if r["target"] not in want or not _close(r["value"], want[r["target"]]):
            return f"{method} {r['target']}: {r['value']!r} vs {want.get(r['target'])!r}"
    if seen != len(want):
        return f"{seen} {method} rows, want {len(want)}"
    return None


class Reference:
    """The reference values of one workload and the check of one op."""

    def __init__(self, workload):
        self.w = workload
        doc = workload.doc
        if workload.name in ("crosscheck", "lattice"):
            labels, table = mean_age_table(doc)
            wanted = labels if workload.name == "lattice" else workload.targets
            self.means = {t: float(table[target_mask(labels, t)]) for t in wanted}
        elif workload.name == "tails":
            start, stop, step = (float(x) for x in TAILS_GRID.split(":"))
            self.grid = np.arange(start, stop + step * 0.5, step)
            self.chernoff_d = TAILS_CHERNOFF_D
            self.cdf = phase_type_cdf(doc, workload.targets, self.grid)
        elif workload.name == "chain":
            self.means = chain_ages(doc)

    def perturbed(self, rel: float) -> "Reference":
        """A copy with every reference value scaled by ``1 + rel``."""
        ref = object.__new__(Reference)
        ref.__dict__.update(self.__dict__)
        if hasattr(self, "means"):
            ref.means = {k: v * (1.0 + rel) for k, v in self.means.items()}
        if hasattr(self, "cdf"):
            ref.cdf = {k: v * (1.0 + rel) for k, v in self.cdf.items()}
        return ref

    def check(self, i: int, outs: list[dict]) -> str | None:
        """None if op ``i``'s outputs match the reference, else the reason."""
        try:
            return self._check(i, outs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"

    def _check(self, i: int, outs: list[dict]) -> str | None:
        name = self.w.name
        if name == "crosscheck":
            rows = _rows(outs[0])
            t = self.w.target(i)
            bad = check_means(rows, {t: self.means[t]}, "exact")
            if bad:
                return bad
            verdict = [r for r in rows if r["method"] == "verdict"]
            if len(verdict) != 1 or verdict[0]["value"] != 1.0:
                return f"verdict {verdict}"
            return None
        if name in ("lattice", "chain"):
            method = "exact" if name == "lattice" else "cascade"
            return check_means(_rows(outs[0]), self.means, method)
        return self._check_tails(i, outs)

    def _check_tails(self, i: int, outs: list[dict]) -> str | None:
        t = self.w.target(i)
        cdf_rows = [r for r in _rows(outs[0]) if r["method"] == "cdf-inversion"]
        if len(cdf_rows) != len(self.grid):
            return f"{len(cdf_rows)} cdf rows, want {len(self.grid)}"
        got = np.array([r["value"] for r in cdf_rows])
        ds = np.array([float(r["meta"]["d"]) for r in cdf_rows])
        if not np.allclose(ds, self.grid, rtol=0, atol=1e-12):
            return f"cdf grid {ds.tolist()}"
        if np.any(got < 0) or np.any(got > 1) or np.any(np.diff(got) < 0):
            return f"cdf not a nondecreasing grid in [0,1]: {got.tolist()}"
        se = np.sqrt(got * (1.0 - got) / CDF_REPLICATES)
        off = np.abs(got - self.cdf[t]) - (CDF_SIGMAS * se + CDF_ATOL)
        if np.any(off > 0):
            k = int(np.argmax(off))
            return f"cdf {t} d={self.grid[k]}: {got[k]!r} vs exact {self.cdf[t][k]!r}"
        chern = [r for r in _rows(outs[1]) if r["method"] == "chernoff"]
        if len(chern) != 1:
            return f"{len(chern)} chernoff rows"
        at_d = got[int(np.argmin(np.abs(self.grid - self.chernoff_d)))]
        if not chern[0]["value"] >= 1.0 - at_d - 1e-12:
            return f"chernoff {chern[0]['value']!r} below 1 - cdf = {1.0 - at_d!r}"
        if not math.isfinite(chern[0]["value"]):
            return "chernoff not finite"
        return None

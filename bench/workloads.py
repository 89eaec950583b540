"""Seeded inputs and command lines of the four benchmark workloads.

Each workload is a network document (the JSON the CLI reads) plus a rule
that gives the CLI argument lists of op ``i``.  Inputs are a pure function
of the workload seed; at ``DEFAULT_SEED`` the random networks are the
baseline networks ``random_ssn(8, 2024)`` and ``random_ssn(20, 7)`` of the
test suite (same construction, rebuilt here so the benchmark does not
depend on test code).

Why the seed only nudges the random networks: the cost of every engine is
set by the graph's shape and rate scale (over random shapes of one node
count the exact engine's cost spans 36x, and redrawing all rates moves the
quadrature cost of each CDF target by tens of percent).  A seed that redrew
them would measure that lottery instead of the code.  So r8 and r20 keep
their baseline topology and every rate, and the generation rate, is scaled
by a seeded factor in [0.95, 1.05]; the seed also picks the op seeds and,
for the triangle chain, all of its rates (its cost depends only on its
length).  Workloads, not seeds, vary the shape.
"""

from __future__ import annotations

import json

import numpy as np

DEFAULT_SEED = 0
CROSSCHECK_SAMPLES = 1_000_000
CROSSCHECK_EVENTS = 1_000_000
TAILS_GRID = "0:4:0.25"  # 17 points, as the CLI expands START:STOP:STEP
TAILS_CHERNOFF_D = 4.0
CHAIN_TRIANGLES = 1000

RATE_LO, RATE_HI = 0.5, 3.0
LAM_LO, LAM_HI = 0.5, 2.0
JITTER = 0.05


def random_ssn_doc(n_nodes: int, topo_seed: int, seed: int = DEFAULT_SEED) -> dict:
    """Network document of ``random_ssn(n_nodes, topo_seed)``, rates nudged by ``seed``.

    The topology (and, at ``DEFAULT_SEED``, every rate) follows the test
    suite's construction draw for draw: a random spanning in-edge for each
    node from an earlier node, then ``n_nodes`` extra edges that avoid the
    source, self loops and duplicates.
    """
    rng = np.random.default_rng(topo_seed)
    edges = []
    for i in range(1, n_nodes):
        j = int(rng.integers(0, i))
        edges.append([f"v{j}", f"v{i}", float(rng.uniform(RATE_LO, RATE_HI))])
    have = {(f, t) for f, t, _ in edges}
    tries = 0
    while len(edges) < 2 * n_nodes - 1 and tries < 200:
        tries += 1
        u = int(rng.integers(0, n_nodes))
        w = int(rng.integers(1, n_nodes))
        if u == w or (f"v{u}", f"v{w}") in have:
            continue
        have.add((f"v{u}", f"v{w}"))
        edges.append([f"v{u}", f"v{w}", float(rng.uniform(RATE_LO, RATE_HI))])
    lam = float(rng.uniform(LAM_LO, LAM_HI))
    if seed != DEFAULT_SEED:
        nudge = np.random.default_rng([seed, n_nodes, topo_seed])
        for edge in edges:
            edge[2] *= float(nudge.uniform(1.0 - JITTER, 1.0 + JITTER))
        lam *= float(nudge.uniform(1.0 - JITTER, 1.0 + JITTER))
    return _doc(lam, "v0", edges)


def triangle_chain_doc(n_triangles: int, seed: int) -> dict:
    """Chain of triangles glued at even-indexed vertices, random rates.

    Triangle ``i`` (1-based) has vertices v{2i-2}, v{2i-1}, v{2i} and edges
    v{2i-2}->v{2i-1}, v{2i-1}->v{2i}, v{2i-2}->v{2i}, in that order.
    """
    rng = np.random.default_rng([seed, n_triangles])
    lam = float(rng.uniform(LAM_LO, LAM_HI))
    triangles = [
        tuple(float(x) for x in rng.uniform(RATE_LO, RATE_HI, size=3))
        for _ in range(n_triangles)
    ]
    edges = []
    for i, (m1, m2, m3) in enumerate(triangles, start=1):
        a, b, c = f"v{2 * i - 2}", f"v{2 * i - 1}", f"v{2 * i}"
        edges += [[a, b, m1], [b, c, m2], [a, c, m3]]
    return _doc(lam, "v0", edges)


def _doc(lam: float, source: str, edges) -> dict:
    return {
        "lambda": lam,
        "source": source,
        "edges": [{"from": f, "to": t, "rate": r} for f, t, r in edges],
    }


class Workload:
    """One workload: its network document and the argv lists of each op.

    Op ``i`` runs on ``targets[i % len(targets)]``.  A timed run stops on a
    multiple of ``stop_every`` ops and after at least ``min_ops`` ops.
    """

    def __init__(self, name, doc, targets, seed, min_ops=11, stop_every=1):
        self.name = name
        self.doc = doc
        self.targets = targets
        self.seed = seed
        self.min_ops = min_ops
        self.stop_every = stop_every

    def target(self, i: int) -> str:
        return self.targets[i % len(self.targets)]

    def op_argvs(self, i: int, net_path: str) -> list[list[str]]:
        t = self.target(i)
        if self.name == "crosscheck":
            return [[
                "compare", "--net", net_path, "--node", t,
                "--samples", str(CROSSCHECK_SAMPLES),
                "--events", str(CROSSCHECK_EVENTS),
                "--seed", str(self.seed * 1_000_000 + i),
            ]]
        if self.name == "tails":
            return [
                ["cdf", "--net", net_path, "--node", t, "--d-grid", TAILS_GRID],
                ["chernoff", "--net", net_path, "--node", t,
                 "--d", repr(TAILS_CHERNOFF_D)],
            ]
        if self.name == "lattice":
            return [["exact", "--net", net_path, "--all"]]
        if self.name == "chain":
            return [["cascade", "--net", net_path]]
        raise ValueError(f"unknown workload {self.name!r}")


def _r8_targets() -> list[str]:
    return [f"v{i}" for i in range(8)] + ["{v6,v7}"]


def make(name: str, seed: int) -> Workload:
    """Build the named workload's inputs from ``seed``."""
    if name == "crosscheck":
        return Workload(name, random_ssn_doc(8, 2024, seed), _r8_targets(), seed)
    if name == "tails":
        # Target costs fall into groups up to 10x apart (on r8 three targets
        # take 0.8-1.5 s, six 0.1-0.4 s).  Whole cycles give every target the
        # same weight, which pins the median to one target; six or more
        # cycles put the tail percentile (then >= 80th) in the costliest
        # group whatever the op count, instead of flipping between groups.
        return Workload(
            name, random_ssn_doc(8, 2024, seed), _r8_targets(), seed,
            min_ops=6 * 9, stop_every=9,
        )
    if name == "lattice":
        return Workload(name, random_ssn_doc(20, 7, seed), ["all"], seed)
    if name == "chain":
        return Workload(name, triangle_chain_doc(CHAIN_TRIANGLES, seed), ["all"], seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("crosscheck", "tails", "lattice", "chain")


def write_doc(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

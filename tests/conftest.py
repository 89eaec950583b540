import json
import math

import numpy as np
import pytest

from aoinet import exact, parse_network, validate_ssn


def net_json(lam, source, edges, nodes=None):
    doc = {
        "lambda": lam,
        "source": source,
        "edges": [{"from": f, "to": t, "rate": r} for f, t, r in edges],
    }
    if nodes is not None:
        doc["nodes"] = nodes
    return json.dumps(doc)


def build_net(lam, source, edges, nodes=None):
    return validate_ssn(parse_network(net_json(lam, source, edges, nodes)))


def two_node(lam=1.0, mu=1.0):
    return build_net(lam, "s", [("s", "d", mu)])


def triangle(lam=1.0, mu_sv=1.0, mu_vd=1.0, mu_sd=1.0):
    return build_net(
        lam, "s", [("s", "v", mu_sv), ("v", "d", mu_vd), ("s", "d", mu_sd)]
    )


def serial(lam, rates):
    edges = [(f"v{i}", f"v{i+1}", r) for i, r in enumerate(rates)]
    return build_net(lam, "v0", edges)


def triangle_chain(lam, triangles):
    """Chain of n triangles glued at even-indexed vertices."""
    edges = []
    for i, (m1, m2, m3) in enumerate(triangles, start=1):
        a, b, c = f"v{2*i-2}", f"v{2*i-1}", f"v{2*i}"
        edges += [(a, b, m1), (b, c, m2), (a, c, m3)]
    return build_net(lam, "v0", edges)


def random_ssn(n_nodes, seed, extra_edges=None):
    """Random valid single-source network on n_nodes user nodes."""
    rng = np.random.default_rng(seed)
    if extra_edges is None:
        extra_edges = n_nodes
    edges = []
    # spanning structure: each node gets an in-edge from an earlier node
    for i in range(1, n_nodes):
        j = int(rng.integers(0, i))
        edges.append((f"v{j}", f"v{i}", float(rng.uniform(0.5, 3.0))))
    # extra edges, never into the source, no self loops, no duplicates
    have = {(f, t) for f, t, _ in edges}
    tries = 0
    while len(edges) < n_nodes - 1 + extra_edges and tries < 200:
        tries += 1
        u = int(rng.integers(0, n_nodes))
        w = int(rng.integers(1, n_nodes))
        if u == w or (f"v{u}", f"v{w}") in have:
            continue
        have.add((f"v{u}", f"v{w}"))
        edges.append((f"v{u}", f"v{w}", float(rng.uniform(0.5, 3.0))))
    lam = float(rng.uniform(0.5, 2.0))
    return build_net(lam, "v0", edges)


def average_age_all(net):
    """Exact E[age] of every subset, as an array indexed by bitmask.

    The dense subset recursion of Yates ("The Age of Gossip in Networks",
    ISIT 2021), kept as a reference for the dominator walk and the cut plan:
    one bottom-up pass grouped by decreasing popcount, since the recursion
    for a subset references only strict supersets, vectorized across the
    masks of a group.  Entry 0 is NaN.
    """
    n = net.n_user
    src_bit = 1 << net.source_index
    size = 1 << n
    values = np.empty(size)
    values[0] = np.nan

    masks_by_pop = [[] for _ in range(n + 1)]
    for m in range(1, size):
        masks_by_pop[m.bit_count()].append(m)

    edges = [
        (net.edge_tails[e], net.edge_heads[e], net.edge_rates[e])
        for e in range(len(net.edge_rates) - 1)  # a subset it enters is a base case
    ]
    inv_lam = 1.0 / net.lam
    for pop in range(n, 0, -1):
        group = np.array(masks_by_pop[pop], dtype=np.int64)
        if group.size == 0:
            continue
        with_src = (group & src_bit) != 0
        values[group[with_src]] = inv_lam
        rest = group[~with_src]
        if rest.size == 0:
            continue
        mu = np.zeros(rest.size)
        acc = np.zeros(rest.size)
        for u, v, r in edges:
            sel = ((rest >> v) & 1).astype(bool) & (((rest >> u) & 1) == 0)
            if not sel.any():
                continue
            mu[sel] += r
            acc[sel] += r * values[rest[sel] | (1 << u)]
        values[rest] = (1.0 + acc) / mu
    return values


def mean_walk(edges, base_bit: int, base_value: float):
    """Memoized mean recursion over the supersets reachable through ``edges``.

    The reference for ``exact._walk_means``: returns ``rec(mask)``,
    ``base_value`` for a mask holding ``base_bit``, else (1 + sum of rate *
    rec(mask + tail)) / (sum of rate) over the edges (tail, head, rate)
    entering ``mask``, summed in edge order.
    """
    memo: dict[int, float] = {}

    def rec(mask: int) -> float:
        if mask & base_bit:
            return base_value
        got = memo.get(mask)
        if got is not None:
            return got
        mu = 0.0
        acc = 0.0
        for u, v, r in edges:
            if mask >> v & 1 and not mask >> u & 1:
                mu += r
                acc += r * rec(mask | (1 << u))
        val = (1.0 + acc) / mu
        memo[mask] = val
        return val

    return rec


def whole_walk(net):
    """:func:`mean_walk` over every edge of ``net`` but the virtual one."""
    edges = [
        (net.edge_tails[e], net.edge_heads[e], net.edge_rates[e])
        for e in range(len(net.edge_rates) - 1)
    ]
    return mean_walk(edges, 1 << net.source_index, 1.0 / net.lam)


def scalar_phi(plan, lam, s):
    """E[exp(s * age)] from a cut plan, accumulated in complex arithmetic."""
    vals = [lam / (lam - s)]
    for mu, terms in plan:
        acc = 0.0 + 0.0j
        for r, j in terms:
            acc += r * vals[j]
        vals.append(acc / (mu - s))
    return vals[-1]


def convergence_bound(net, mask):
    """The MGF convergence bound of subset ``mask``, read off its cut plan."""
    return exact._bound(exact._cut_plan(net, mask), net.lam)


def chernoff_scan(net, q):
    """The Chernoff bound by a scan of scalar :func:`scalar_phi` calls.

    The reference for ``exact.chernoff_bound``'s one array pass: the same
    64-point geomspace scan and golden section, each point in complex
    arithmetic.  Where phi overflows on the grid the complex value is NaN
    and ``np.argmin`` picks the first NaN, so it agrees only where phi is
    finite on the whole grid.
    """
    plan = exact._cut_plan(net, q.subset)
    d = q.d
    s_max = exact._bound(plan, net.lam) * (1.0 - 1e-6)

    def log_obj(s):
        return math.log(scalar_phi(plan, net.lam, s).real) - s * d

    grid = np.geomspace(s_max * 1e-8, s_max, 64)
    vals = [log_obj(s) for s in grid]
    k = int(np.argmin(vals))
    lo = grid[k - 1] if k > 0 else 0.0
    hi = grid[k + 1] if k < len(grid) - 1 else s_max

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = log_obj(x1), log_obj(x2)
    while hi - lo > 1e-9 * s_max:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = log_obj(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = log_obj(x2)
    best = min(min(vals), f1, f2)
    return min(1.0, math.exp(best))


# filled by the acceptance suite; echoed after the test summary so the
# one-line-per-criterion record survives output capture
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def tri():
    return triangle()


@pytest.fixture
def tri_distinct():
    return triangle(lam=1.0, mu_sv=1.0, mu_vd=2.0, mu_sd=3.0)


@pytest.fixture
def two():
    return two_node()

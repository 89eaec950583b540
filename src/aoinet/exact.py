"""Exact age computations via subset recursions on the augmented graph.

Every query is split at dominators.  If every source path to every node
of subset A passes node d, the distance to A is the distance to d plus the
distance from d to A, over disjoint edges, and the two are independent.
The region from A based at d holds the in-edges of the nodes that reach A
without passing d; :func:`_path` lists the regions from the queried subset
up to the source, one per dominator on the way.  A region's recursion over
boundary cuts costs time exponential in its nodes, so the exact-engine
limit, read from ``AOI_MAX_EXACT_NODES`` (default 20, hard cap 28) on every
call, counts the nodes of the largest region, its base dominator included.

A mean is the sum of one walk per region of its path.  One batched level
pass (:func:`_walk_means`) walks every region of a query at once, and
for the means of all nodes, every dominator's region at once; it is not
a memoized walk per dominator, but it gives the same floats.

Distributional quantities come from one cut plan per query: the supersets
each region's recursion reaches, in dependency order, with their boundary
rate sums and (rate, successor) terms; a region's base is the start of the
region above it.  The age is the time to absorption of the chain that
leaves each entry at its rate sum and ends with an Exp(lambda) stage; CDF
values uniformize it (Jensen 1953; Grassmann 1977), and E[exp(s * age)] is
one loop over the plan, which converges below the plan's smallest boundary
sum.

All operations are pure functions of immutable inputs and are safe to call
concurrently.  Subsets are bitmasks over user-node indices; the virtual
source never appears in a stored subset (its contribution enters the
recursions as explicit base cases).
"""

from __future__ import annotations

import cmath
import math
import os
from array import array
from itertools import chain

import numpy as np

from .errors import (
    AoiError,
    IntegralOverflow,
    NetworkTooLarge,
    OutsideConvergenceRegion,
    TooStiff,
)
from .network import (
    AugmentedNetwork,
    bfs_order,
    check_subset,
    in_edges,
    reaching,
)

DEFAULT_MAX_EXACT_NODES = 20
HARD_MAX_EXACT_NODES = 28
MAX_NODES_ENV = "AOI_MAX_EXACT_NODES"
MAX_JUMPS = 1 << 20  # uniformization jumps one cdf_grid call may take
_CDF_TOL = 1e-15  # bound on each cdf_grid value's relative truncation error
_BLOCK = 1 << 16  # elements of one (superset x edge) temporary of _walk_means


def _check_size(nodes: int) -> None:
    """Refuse ``nodes`` above the limit that ``AOI_MAX_EXACT_NODES`` sets."""
    env = os.environ.get(MAX_NODES_ENV)
    try:
        limit = int(env) if env else DEFAULT_MAX_EXACT_NODES
    except ValueError:
        limit = 0  # refused below, like any value under 1
    if limit < 1:
        raise AoiError(f"{MAX_NODES_ENV} must be an integer >= 1, got {env!r}")
    limit = min(limit, HARD_MAX_EXACT_NODES)
    if nodes > limit:
        raise NetworkTooLarge(
            f"{nodes} nodes in one region exceeds the exact-engine limit {limit} "
            f"(override with {MAX_NODES_ENV} up to {HARD_MAX_EXACT_NODES})"
        )


def _unique(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of ``x`` and the index of each entry among them.

    What ``np.unique(x, return_inverse=True)`` returns, in less time on the
    levels of :func:`_walk_means`, small and large.
    """
    order = x.argsort()
    x = x[order]
    new = np.empty(x.size, dtype=bool)
    new[:1] = True
    np.not_equal(x[1:], x[:-1], out=new[1:])
    inv = np.empty(x.size, dtype=np.int64)
    inv[order] = new.cumsum() - 1
    return x[new], inv


def _walk_means(regions) -> list[float]:
    """The mean walk from every start of every region, in one level pass.

    ``regions`` lists ``(edges, d, base, starts)``: a region's edges as
    (tail, head, rate) in edge order, its base dominator d, the value of a
    superset that holds d, and its starts, each a tuple of the nodes of a
    subset of the region.  A superset without d has value (1 + sum of rate *
    value(mask + tail)) / (sum of rate) over the edges entering it.  Both
    sums take one ``+`` per entering edge in edge order, as a memoized
    recursion does, so the values are the same floats.  Returns one value
    per start, in order.

    A region's nodes get local bits, d bit 0, and a superset is the key
    ``region << 32 | local mask``; the size limit keeps a region within 28
    nodes.  Discovery goes up one popcount level at a time from the starts:
    a level's cut edges (head in the mask, tail not) lead to the next level,
    and each cut keeps its successor's slot there, or the slot of its
    region's base.  The values then fill in from the top level down.  A
    block of supersets keeps its cuts in one row per rank, so that the k-th
    ``+`` of all of them is one add.
    """
    counts = [len(edges) for edges, _, _, _ in regions]
    n_starts = [len(starts) for _, _, _, starts in regions]
    bases = np.array([base for _, _, base, _ in regions], dtype=float)
    out = bases.repeat(n_starts)
    flat = [s for _, _, _, starts in regions for s in starts]
    width = max(counts, default=0)
    if not width:  # every start holds its base
        return out.tolist()
    n_reg = len(regions)
    ds = np.array([d for _, d, _, _ in regions])
    sreg = np.arange(n_reg).repeat(n_starts)
    pop = np.fromiter(map(len, flat), np.int64, len(flat))
    node = np.fromiter(chain.from_iterable(flat), np.int64, int(pop.sum()))
    free = ~np.logical_or.reduceat(node == ds[sreg.repeat(pop)], pop.cumsum() - pop)
    live = free.nonzero()[0]  # the starts without their base
    if not live.size:
        return out.tolist()
    node, pop = node[free.repeat(pop)], pop[live]

    # local bits: the rank of (region, (node - d) mod span) among the region's
    rid = np.arange(n_reg).repeat(counts)
    tails, heads, rates = zip(*[e for edges, _, _, _ in regions for e in edges])
    span = 1 + max(max(tails), max(heads))
    owner = np.concatenate([rid, rid, sreg[live].repeat(pop)])
    code = owner * span + (np.concatenate([tails, heads, node]) - ds[owner]) % span
    uniq, inv = _unique(code)
    bit = np.left_shift(1, inv - np.searchsorted(uniq, owner * span))
    n_e = rid.size
    key = np.bitwise_or.reduceat(bit[2 * n_e :], pop.cumsum() - pop)
    key |= sreg[live] << 32
    # edge j of region r is cell r * width + j of the tables; cell pad has rate 0
    pad = n_reg * width
    cell = rid * width + np.arange(n_e) - (np.cumsum(counts) - counts).repeat(counts)
    tbit, hbit = np.zeros(pad + 1, dtype=np.int64), np.zeros(pad + 1, dtype=np.int64)
    rate = np.zeros(pad + 1)
    tbit[cell], hbit[cell], rate[cell] = bit[:n_e], bit[n_e : 2 * n_e], rates
    tbit2, hbit2 = tbit[:pad].reshape(n_reg, width), hbit[:pad].reshape(n_reg, width)

    by_pop = pop.argsort(kind="stable")
    key, live = key[by_pop], live[by_pop]
    upto = np.bincount(pop).cumsum().tolist()  # starts up to each popcount
    step = max(1, _BLOCK // width)
    past = np.arange(n_reg, -1, -1)  # target -1 - r is base r; -1 - n_reg the pad's 0
    levels = []  # per level: its size, its blocks, its starts and their slots
    found: list[np.ndarray] = []  # the successors of the level below, per block
    p, lo = int(pop[by_pop[0]]), 0
    while True:
        hi = upto[min(p, len(upto) - 1)]
        keys, inv = _unique(np.concatenate(found + [key[lo:hi]]))
        if levels:  # the level below: targets become slots of this level's values
            n_found = inv.size - (hi - lo)
            lut = np.concatenate([inv[:n_found], keys.size + past]).astype(np.int32)
            for block in levels[-1][1]:
                block[-1] = lut[block[-1]]
        if not keys.size and hi == live.size:
            break
        blocks, found, seen = [], [], 0
        for first in range(0, keys.size, step):
            k = keys[first : first + step]
            reg = k >> 32
            rows = reg[:1] if reg[0] == reg[-1] else reg  # one region: broadcast
            m = k[:, None]
            cut = (m & hbit2[rows] != 0) & (m & tbit2[rows] == 0)
            at = np.flatnonzero(cut)  # by superset, each in edge order
            col = at // width
            j = at - col * width
            count = np.bincount(col, minlength=k.size)
            rank = np.arange(col.size) - (count.cumsum() - count).repeat(count)
            reg = reg[col]
            e = reg * width + j
            t = tbit[e]
            inner = t != 1  # the successor does not hold d
            succ, slot = _unique(k[col[inner]] | t[inner])
            target = -1 - reg
            target[inner] = seen + slot  # where it lies among the level's successors
            seen += succ.size
            found.append(succ)
            # row i holds every superset's i-th cut; a pad adds rate 0 times 0
            edge = np.empty((count.max(), k.size), dtype=np.int32)
            targets = np.empty(edge.shape, dtype=np.int32)
            edge.fill(pad)
            targets.fill(-1 - n_reg)
            edge[rank, col] = e
            targets[rank, col] = target
            blocks.append([first, edge, targets])
        levels.append((keys.size, blocks, live[lo:hi], inv[inv.size - (hi - lo) :]))
        p, lo = p + 1, hi

    vals, bases = np.empty(0), np.append(bases, 0.0)
    for size, blocks, here, slots in reversed(levels):
        ext = np.concatenate([vals, bases])
        vals = np.empty(size)
        for first, edge, slot in blocks:
            r = rate[edge]
            terms = r * ext[slot]
            mu, acc = r[0].copy(), terms[0].copy()  # 0.0 + x is x for x >= 0
            for i in range(1, len(r)):
                mu += r[i]
                acc += terms[i]
            vals[first : first + mu.size] = (1.0 + acc) / mu
        out[here] = vals[slots]
    return out.tolist()


def _idoms(net: AugmentedNetwork) -> tuple[list[int], list[int]]:
    """Immediate dominator and breadth-first rank of every augmented node.

    Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm" (2001):
    a node's dominator is the nearest common ancestor of its predecessors
    in the tree so far, until a pass changes nothing.  :func:`_meet` walks
    up by breadth-first rank, which puts every dominator first.
    """
    order = bfs_order(net)
    rank = [0] * net.n_aug
    for i, v in enumerate(order):
        rank[v] = i
    into = in_edges(net)
    idom = [-1] * net.n_aug
    idom[order[0]] = order[0]
    changed = True
    while changed:
        changed = False
        for v in order[1:]:
            new = -1
            for p in (net.edge_tails[e] for e in into[v]):
                if idom[p] >= 0:
                    new = p if new < 0 else _meet(idom, rank, p, new)
            if idom[v] != new:
                idom[v] = new
                changed = True
    return idom, rank


def _meet(idom: list[int], rank: list[int], x: int, y: int) -> int:
    """Nearest common ancestor of ``x`` and ``y`` in the dominator tree."""
    while x != y:
        while rank[x] > rank[y]:
            x = idom[x]
        while rank[y] > rank[x]:
            y = idom[y]
    return x


def _region(net: AugmentedNetwork, into, nodes: list[int], d: int):
    """The node count (``d`` included) and edges of the region from ``nodes``.

    The edges are the in-edges of the nodes that reach ``nodes`` without
    passing their dominator ``d``, as (tail, head, rate) in edge order:
    never the source's, so never the virtual edge.
    """
    seen = reaching(net, into, nodes, stop=d)
    edges = [
        (net.edge_tails[e], net.edge_heads[e], net.edge_rates[e])
        for e in sorted(e for v in seen for e in into[v])
    ]
    return len(seen) + 1, edges


def _base(net: AugmentedNetwork, d: int) -> float:
    """The walk value of a superset that holds ``d``: 1/lambda at the source, else 0."""
    return 1.0 / net.lam if d == net.source_index else 0.0


def _path(net: AugmentedNetwork, a: int) -> list[tuple[int, list, int]]:
    """``(start, edges, d)`` of each region from subset ``a`` up to the source.

    The first region starts at ``a`` and is based at its nearest common
    dominator d, the nearest node that strictly dominates every node of
    ``a``; each next one starts at the last one's d.  A subset with the
    source is one region without edges.  Refuses the query when the largest
    region has more nodes than the size limit.
    """
    check_subset(net, a)
    src = net.source_index
    if a >> src & 1:
        _check_size(1)
        return [(a, [], src)]
    idom, rank = _idoms(net)
    nodes = [v for v in range(net.n_user) if a >> v & 1]
    d = idom[nodes[0]]
    for v in nodes[1:]:
        d = _meet(idom, rank, d, idom[v])
    into = in_edges(net)
    path = [(a, *_region(net, into, nodes, d), d)]
    while d != src:
        path.append((1 << d, *_region(net, into, [d], idom[d]), idom[d]))
        d = idom[d]
    _check_size(max(size for _, size, _, _ in path))
    return [(start, edges, d) for start, _, edges, d in path]


def average_age(net: AugmentedNetwork, a: int, *, _split=None) -> float:
    """Exact E[age] of subset ``a``: one walk per region of its path.

    mean(a) = mean(d) + the walk from ``a`` based at d, its nearest common
    dominator, and so on up the dominator path (:func:`_path`).  The walks
    of all regions are one :func:`_walk_means` pass.

    :func:`chain_average_ages` passes ``_split`` and asks for each node
    after its dominator; the node then reads the walk that the split has
    already taken.
    """
    if _split is not None and not a >> net.source_index & 1:
        return _split.node_mean(a.bit_length() - 1)
    path = _path(net, a)
    starts = [tuple(v for v in range(net.n_user) if a >> v & 1)]
    starts += [(d,) for _, _, d in path[:-1]]  # each next region starts at d
    walks = _walk_means(
        [(edges, d, _base(net, d), [s]) for (_, edges, d), s in zip(path, starts)]
    )
    mean = 0.0
    for walk in reversed(walks):
        mean += walk
    return mean


class _Split:
    """The dominator tree of a network and the walk from every node to its dominator.

    The children of a dominator share its region, and each child's walk is
    a start of that region; all regions are one :func:`_walk_means` pass.
    A child meets only its own edges in the region, so its mean equals
    :func:`average_age`'s.  Refuses the network when its largest region has
    more nodes than the size limit.
    """

    def __init__(self, net: AugmentedNetwork):
        self.idom, rank = _idoms(net)
        self.order = sorted(range(net.n_user), key=rank.__getitem__)  # source first
        children: dict[int, list[int]] = {}
        for v in self.order[1:]:
            children.setdefault(self.idom[v], []).append(v)
        into = in_edges(net)
        regions = {d: _region(net, into, vs, d) for d, vs in children.items()}
        _check_size(max((size for size, _ in regions.values()), default=1))
        walks = _walk_means(
            [
                (edges, d, _base(net, d), list(zip(children[d])))
                for d, (_, edges) in regions.items()
            ]
        )
        self.walk = [0.0] * net.n_user
        for v, walk in zip((v for vs in children.values() for v in vs), walks):
            self.walk[v] = walk
        self.mean = [0.0] * net.n_user  # the source's 1/lambda is the base of its walk

    def node_mean(self, v: int) -> float:
        """mean(idom v) + the walk from v; idom v's mean must be known."""
        self.mean[v] = self.mean[self.idom[v]] + self.walk[v]
        return self.mean[v]


def chain_average_ages(net: AugmentedNetwork) -> dict[int, float]:
    """Exact E[age] of every single node, one level pass for all dominators.

    Returns ``{1 << v: mean}`` over the user nodes v.  Each node is one
    :func:`average_age` query, in breadth-first order so that a dominator's
    mean is known before its children's; :class:`_Split` has taken every
    walk before the first.  The size limit counts the largest region.
    """
    split = _Split(net)
    return {1 << v: average_age(net, 1 << v, _split=split) for v in split.order}


def _cut_plan(net: AugmentedNetwork, a: int) -> list[tuple[float, tuple]]:
    """The MGF recursion from subset ``a``, compiled once along its path.

    The regions of :func:`_path` are compiled from the source down.  One
    entry per superset a region reaches from its start, in dependency order
    (every successor before the subsets that cut to it, ``a`` last): its
    boundary rate sum and its ``(rate, slot)`` terms, both in edge order.
    Entry i fills slot i + 1 of the value list that :func:`_phi` builds.  A
    superset holding a region's base dominator takes the slot of the start
    of the region above; at the source that is slot 0, the base case.
    """
    slots: dict[int, int] = {}  # no superset lies in two regions
    plan: list[tuple[float, tuple]] = []

    def visit(mask: int) -> int:  # reads the current region's edges, d and base
        if mask >> d & 1:
            return base
        got = slots.get(mask)
        if got is not None:
            return got
        mu = 0.0
        terms = []
        for u, v, r in edges:
            if mask >> v & 1 and not mask >> u & 1:
                mu += r
                terms.append((r, visit(mask | (1 << u))))
        plan.append((mu, tuple(terms)))
        slots[mask] = len(plan)
        return len(plan)

    base = 0
    for start, edges, d in reversed(_path(net, a)):
        base = visit(start)
    return plan


def _phi(plan, lam: float, s):
    """E[exp(s * age)] of the plan's subset; ``Re(s)`` must be below its bound.

    Each accumulator starts at a real 0.0, so a real ``s`` stays in float
    arithmetic, where an overflowed value is inf rather than complex NaN; a
    complex ``s`` gives the same floats as a complex zero start.  ``s`` may
    be a float array, evaluated pointwise with the same operations.
    """
    vals = [lam / (lam - s)]
    for mu, terms in plan:
        acc = 0.0
        for r, j in terms:
            acc += r * vals[j]
        vals.append(acc / (mu - s))
    return vals[-1]


def _bound(plan, lam: float) -> float:
    """Largest real s below which the plan's MGF recursion stays well posed.

    Conservative bound: min of lambda and of the boundary rate sums of every
    subset in the plan.
    """
    return min([lam] + [mu for mu, _ in plan])


def mgf(net: AugmentedNetwork, a: int, s: complex) -> complex:
    """E[exp(s * age)] of subset ``a`` via the boundary-cut recursion.

    Raises :class:`ValueError` when ``s`` has a NaN part,
    :class:`OutsideConvergenceRegion` when ``Re(s)`` is not below the
    plan's convergence bound (:func:`_bound`), and
    :class:`IntegralOverflow` when the value is not finite there, as close
    below the bound of a long chain.
    """
    plan = _cut_plan(net, a)
    z = complex(s)
    if cmath.isnan(z):
        raise ValueError(f"s must not be NaN, got {s}")
    bound = _bound(plan, net.lam)
    if z.real >= bound:
        raise OutsideConvergenceRegion(
            f"Re(s)={z.real} is not below the convergence bound {bound}"
        )
    value = _phi(plan, net.lam, z)
    if not cmath.isfinite(value):
        raise IntegralOverflow(f"the MGF at s={s} is not finite")
    return value


def _absorption(plan, lam: float, rate: float, x: float):
    """Mass absorbed and mass left after each jump of the uniformized chain.

    Slot i + 1 holds plan entry i, slot 0 the final Exp(lambda) stage; a jump
    moves mass only to lower slots.  Stops at the first K where the error
    bound Pr[N > K] * left[K] of :func:`cdf_grid` at Poisson mean x is below
    ``_CDF_TOL`` relative to its value there, and so at every smaller mean.

    Mass is absorbed only from slot 0, which keeps it with probability
    1 - lam/rate per jump, so left[k] >= (1 - lam/rate)**k.  While k + 1 <= x
    the tail factor is 1 and head and gone are at most 1, so stopping needs
    left[k] <= 2 * _CDF_TOL; a query where that bound cannot fall so low
    within ``MAX_JUMPS`` jumps is refused before the loop.
    """
    too_stiff = TooStiff(
        f"the CDF needs over {MAX_JUMPS} uniformization jumps at rate {rate:.3g}"
    )
    if x >= MAX_JUMPS + 1 and (1.0 - lam / rate) ** MAX_JUMPS > 2.0 * _CDF_TOL:
        raise too_stiff
    stay = [1.0 - lam / rate] + [1.0 - mu / rate for mu, _ in plan]
    moves = [()] + [[(r / rate, j) for r, j in terms] for _, terms in plan]
    p = [0.0] * len(plan) + [1.0]
    gone, absorbed, left = 0.0, array("d", [0.0]), array("d", [1.0])
    log_x, log_w = math.log(x), -x  # log Pois(k; x)
    head = 0.0  # sum over j <= k of Pois(j; x) * absorbed[j]
    for k in range(MAX_JUMPS + 1):
        w = math.exp(log_w)
        head += w * gone
        # Pr[N > k] <= Pois(k; x) * x / (k + 1 - x) once k + 1 > x
        tail = min(1.0, w * x / (k + 1 - x)) if k + 1 > x else 1.0
        if tail * (left[k] - _CDF_TOL * gone) <= _CDF_TOL * head:
            return absorbed, left
        nxt = [q * f for q, f in zip(p, stay)]
        for q, mv in zip(p, moves):
            if q:
                for f, j in mv:
                    nxt[j] += q * f
        gone += p[0] * (lam / rate)
        absorbed.append(gone)
        p = nxt
        left.append(sum(p))
        log_w += log_x - math.log(k + 1)
    raise too_stiff


def _window(x: float) -> tuple[int, int]:
    """Jump counts outside which Poisson(x) holds under about 1e-30."""
    spread = 12.0 * math.sqrt(x) + 50.0
    return max(0, math.floor(x - spread)), math.ceil(x + spread)


def cdf_grid(net: AugmentedNetwork, a: int, grid) -> np.ndarray:
    """Pr[age <= d] of subset ``a`` at every threshold d of ``grid``.

    Uniformized at L = max(lambda, max mu), with a_k the mass absorbed after
    k jumps (:func:`_absorption`; all of it at K + 1, past the last jump K),
    Pr[age <= d] is the mean of a_N over N ~ Poisson(L d).  Below L d = K + 1
    a value under 1/2 is summed as sum(Pois * a), keeping the relative
    accuracy of tiny values; the others are 1 - sum(Pois * (1 - a)).
    """
    plan = _cut_plan(net, a)
    d = np.asarray(grid, dtype=float).ravel()
    if not np.all(d >= 0.0):
        raise ValueError(f"thresholds d must be non-negative, got {d.min()}")
    rate = max([net.lam] + [mu for mu, _ in plan])
    x = np.minimum(rate * d, np.finfo(float).max)  # Poisson means
    out = np.zeros(d.shape)  # age has a density, so Pr[age <= 0] = 0
    if not x.any():
        return out
    absorbed, left = _absorption(plan, net.lam, rate, float(x.max()))
    jumps = len(absorbed)  # K + 1
    top = _window(jumps)[1]  # past the window of every L d below K + 1
    settled = np.concatenate([absorbed, np.ones(top + 1 - jumps)])
    unsettled = np.concatenate([left, np.zeros(top + 1 - jumps)])
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(top + 1)])
    for i in np.flatnonzero(x):
        lo, hi = _window(x[i])
        ks = np.arange(min(lo, top + 1), min(hi, top) + 1)
        w = np.exp(ks * math.log(x[i]) - x[i] - log_fact[ks])
        hit = settled[ks] @ w
        out[i] = hit if x[i] < jumps and hit < 0.5 else 1.0 - unsettled[ks] @ w
    return np.clip(out, 0.0, 1.0)


def chernoff_bound(net: AugmentedNetwork, a: int, d: float) -> float:
    """Upper bound on Pr[age >= d]: min over s of e^{-sd} E[e^{s age}].

    The age is that of subset ``a``; a negative or NaN ``d`` raises
    :class:`ValueError`.  log E[e^{s age}] - s d is convex on the
    convergence interval, so a coarse log-spaced grid followed by
    golden-section refinement finds the global optimum.  The 64-point grid
    is one :func:`_phi` pass over a float array; where E[e^{s age}]
    overflows it is inf, and such a point is never picked.  Clamped to 1
    (the bound is vacuous for d at or below the mean).
    """
    plan = _cut_plan(net, a)
    if not d >= 0.0:  # NaN too
        raise ValueError(f"threshold d must be non-negative, got {d}")
    s_max = _bound(plan, net.lam) * (1.0 - 1e-6)

    def log_obj(s: float) -> float:
        return math.log(_phi(plan, net.lam, s)) - s * d

    grid = np.geomspace(s_max * 1e-8, s_max, 64)
    with np.errstate(over="ignore"):
        phis = _phi(plan, net.lam, grid).tolist()
    grid = grid.tolist()
    vals = [math.log(p) - s * d for p, s in zip(phis, grid)]
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

"""Monte Carlo estimation of the stationary age law via shortest paths.

Each replicate draws one exponential service time per augmented edge and
computes single-source shortest-path distances from the virtual source; the
distance to a node is one sample of that node's stationary age, and the
minimum over a subset samples the subset age.  A one-subset query
(:func:`sample_subset`) samples only the nodes that reach the subset, and
so draws only the edges into them, since no other edge lies on a path
into it; it keeps one value per replicate, the subset age, instead of one
per node.

Replicates run in fixed chunks of :data:`CHUNK`, spread over threads, one
per CPU the process may run on.  Random streams are
counter-based: the variate for (master_seed, replicate i, edge e) is the
i-th draw of a Philox stream keyed by the master seed and a stable hash of
the edge's endpoint labels.  This makes batches bit-identical regardless of
worker count or iteration order, makes edge-addition experiments couple
replicate-by-replicate (old edges keep their streams), and makes a
one-subset query bit-identical to the same subset's minimum over a full
batch: distances do not depend on which other edges are relaxed.

Limitation: the sampled tuples reproduce only the marginal law of each fixed
subset's age.  The true joint process has atoms where two connected nodes
share an age for a positive fraction of time; the sampled per-replicate
vectors have no such ties, so cross-node correlations read off a batch are
not meaningful.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySubset,
    IntegralOverflow,
    IntegralUnderflow,
    SubsetContainsVirtualSource,
)
from .network import AugmentedNetwork, ancestor_network, bfs_order

_MASK64 = (1 << 64) - 1


def _edge_stream_key(edge_key: tuple[str, str]) -> int:
    raw = "\x1f".join(edge_key).encode()
    return int.from_bytes(hashlib.sha256(raw).digest()[:8], "little")


@dataclass(frozen=True)
class RngPolicy:
    """Counter-based stream derivation from a single 64-bit master seed."""

    master_seed: int

    def edge_bit_generator(
        self, edge_key: tuple[str, str], skip: int = 0
    ) -> np.random.Philox:
        """Philox generator for one edge, optionally skipping ``skip`` draws.

        ``skip`` must be a multiple of 4 (Philox counter granularity).
        """
        if skip % 4:
            raise ValueError("stream offset must be a multiple of 4")
        bg = np.random.Philox(
            key=[self.master_seed & _MASK64, _edge_stream_key(edge_key)]
        )
        if skip:
            bg.advance(skip // 4)
        return bg

    def _fill_exponentials(
        self, edge_key: tuple[str, str], rate: float, start: int, out: np.ndarray
    ) -> None:
        """Writes draws ``start`` .. ``start+len(out)`` into ``out``."""
        gen = np.random.Generator(self.edge_bit_generator(edge_key, skip=start))
        gen.random(out=out)
        # -log1p(-u) / rate, step by step in place; 1-u in (0,1], no infinities
        np.negative(out, out=out)
        np.log1p(out, out=out)
        np.negative(out, out=out)
        np.divide(out, rate, out=out)


@dataclass(frozen=True)
class SampleBatch:
    """N i.i.d. sampled age vectors, one column per user node or one subset."""

    ages: np.ndarray  # shape (n, |V|), or (n, 1) for one subset
    n: int


@dataclass(frozen=True)
class Functional:
    """Replicate-wise transform applied before averaging."""

    kind: str
    param: float | None = None

    @classmethod
    def mean(cls) -> "Functional":
        return cls("mean")

    @classmethod
    def moment(cls, k: int) -> "Functional":
        if k < 1:
            raise ValueError("moment order must be >= 1")
        return cls("moment", float(k))

    @classmethod
    def indicator_ge(cls, d: float) -> "Functional":
        return cls("indicator_ge", float(d))

    @classmethod
    def exp_tilt(cls, s: float) -> "Functional":
        return cls("exp_tilt", float(s))

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "mean":
            return x
        if self.kind == "moment":
            return x ** self.param
        if self.kind == "indicator_ge":
            return (x >= self.param).astype(float)
        if self.kind == "exp_tilt":
            return np.exp(self.param * x)
        raise ValueError(f"unknown functional kind {self.kind!r}")


# Replicates per chunk.  A multiple of 4, so each edge stream can be advanced
# to a chunk's start.  Sampling 1M replicates of an 8-node network on a
# 2-vCPU Xeon, 2**15 and 2**16 timed faster than 2**17 and 2**18.
CHUNK = 1 << 16


def _relax_distances(net: AugmentedNetwork, service: np.ndarray) -> np.ndarray:
    """Shortest-path distances from the virtual source, all replicates at once.

    ``service`` has shape (E, n).  Sweeps over the edges sorted by the
    breadth-first rank of their tail (the virtual edge first), vectorized
    across replicates.  An edge is relaxed only if its tail's distances
    changed since the edge was last relaxed, and the sweeps stop after one
    without improvement.  Each distance ends as the minimum over paths of
    the path's left-to-right float sum (rounding is monotone, so no cycle
    helps), whatever the relaxation order; with nonnegative weights these
    are exactly the Dijkstra distances.
    """
    n = service.shape[1]
    dist = np.full((net.n_aug, n), np.inf)
    dist[net.theta_prime_index] = 0.0
    cand = np.empty(n)
    better = np.empty(n, dtype=bool)
    rank = {v: r for r, v in enumerate(bfs_order(net))}
    edges = sorted(
        zip(net.edge_tails, net.edge_heads, range(len(net.edge_rates))),
        key=lambda edge: rank[edge[0]],
    )
    # step of each node's last improvement and of each edge's last relaxation
    changed = [-1] * net.n_aug
    changed[net.theta_prime_index] = 0
    relaxed = [-1] * len(edges)
    step = 0
    improved = True
    while improved:
        improved = False
        for u, v, e in edges:
            if changed[u] <= relaxed[e]:
                continue
            step += 1
            relaxed[e] = step
            np.add(dist[u], service[e], out=cand)
            # skip the write when no replicate improves
            np.less(cand, dist[v], out=better)
            if better.any():
                np.minimum(dist[v], cand, out=dist[v])
                changed[v] = step
                improved = True
    return dist


def _usable_cpus() -> int:
    """CPUs this process may run on, or all of them where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _columns(n_user: int, a: int) -> list[int]:
    """User columns of subset ``a``, refused if it is empty or names the source."""
    if a == 0:
        raise EmptySubset("subset must be non-empty")
    if a >> n_user:
        raise SubsetContainsVirtualSource(
            "subset must not contain the virtual source"
        )
    return [i for i in range(n_user) if a >> i & 1]


def _chunks(
    net: AugmentedNetwork,
    rng: RngPolicy,
    n: int,
    cols: list[int] | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """``(start, ages)`` for replicates ``0 .. n`` in fixed chunks, in order.

    ``ages`` has shape (|V|, count), or (1, count) holding the minimum over
    rows ``cols`` when they are given; a thread reduces its own chunk, so
    only that row outlives it.  The chunks run on one thread per usable
    CPU, and their boundaries do not depend on that number.
    """

    def run(start: int) -> tuple[int, np.ndarray]:
        count = min(CHUNK, n - start)
        service = np.empty((len(net.edge_rates), count))
        for e, rate in enumerate(net.edge_rates):
            rng._fill_exponentials(net.edge_key(e), rate, start, service[e])
        dist = _relax_distances(net, service)
        if cols is None:
            return start, dist[: net.n_user]
        return start, dist[cols].min(axis=0, keepdims=True)

    workers = _usable_cpus()
    starts = range(0, n, CHUNK)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(run, starts)
    else:
        yield from map(run, starts)


def sample_ages(
    net: AugmentedNetwork,
    n: int,
    rng: RngPolicy,
    subset: int | None = None,
) -> SampleBatch:
    """Draw ``n`` replicates of the per-node age vector.

    Each replicate takes at most |V| Bellman-Ford sweeps over the |E| edges,
    so O(n |V| |E|) overall; a sweep relaxes only the edges whose tail moved,
    and the sweeps stop once no distance improves.  Chunks of replicates run
    on one thread per usable CPU.  With ``subset`` the batch keeps only the
    age of that subset, in one column; mask ``1`` selects it.  The result is
    bit-identical for any number of CPUs (replicate ranges are fixed stream
    offsets, and a minimum is exact).
    """
    if n < 1:
        raise ValueError("replicate count must be >= 1")
    cols = None if subset is None else _columns(net.n_user, subset)
    ages = np.empty((n, net.n_user if cols is None else 1))
    for start, dist in _chunks(net, rng, n, cols):
        ages[start : start + dist.shape[1]] = dist.T
    return SampleBatch(ages=ages, n=n)


def sample_subset(
    net: AugmentedNetwork, a: int, n: int, rng: RngPolicy
) -> tuple[SampleBatch, int]:
    """Draw ``n`` replicates of subset ``a``'s age over the nodes that reach it.

    Returns the one-column :func:`sample_ages` batch of
    :func:`~aoinet.network.ancestor_network` of ``a`` streamed to ``a``'s
    age, and its mask ``1``.  Its edges keep their streams, so
    :func:`estimate` and :func:`empirical_cdf` of that mask equal those of
    ``a`` over :func:`sample_ages` of ``net`` bit for bit, with fewer draws
    and one value per replicate.
    """
    sub = ancestor_network(net, a)
    subset = sub.subset_mask(net.subset_labels(a))
    return sample_ages(sub, n, rng, subset=subset), 1


def _subset_ages(batch: SampleBatch, a: int) -> np.ndarray:
    cols = _columns(batch.ages.shape[1], a)
    if batch.ages.shape[1] == 1:
        return batch.ages[:, 0]  # a contiguous view, not a copy
    return batch.ages[:, cols].min(axis=1)


def _check_finite(*moments: float) -> None:
    if not all(map(math.isfinite, moments)):
        raise IntegralOverflow("a moment of the sampled ages is not finite")


def estimate(
    batch: SampleBatch, a: int, f: Functional
) -> tuple[float, float]:
    """Sample mean and standard error of ``f`` applied to the subset age.

    Raises :class:`IntegralOverflow` if the mean or variance is not finite, and
    :class:`IntegralUnderflow` if unequal values have a variance below the
    smallest normal float, where it has lost its digits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f.apply(_subset_ages(batch, a))
        est = float(vals.mean())
        var = float(vals.var(ddof=1)) if batch.n > 1 else 0.0
    _check_finite(est, var)
    if var < sys.float_info.min and vals.min() < vals.max():
        raise IntegralUnderflow("the variance of the sampled ages underflows")
    return est, math.sqrt(var) / math.sqrt(batch.n) if batch.n > 1 else math.inf


def empirical_cdf(batch: SampleBatch, a: int, d: float) -> float:
    """Fraction of replicates with subset age <= d."""
    return float((_subset_ages(batch, a) <= d).mean())

"""Ground-truth discrete-event simulation of the preemptive dynamics.

Events arrive as a single Poisson stream of the total augmented rate and are
thinned to edges with probability rate/total.  The state is kept as per-node
generation timestamps ("births"): the age of node v at time t is t - birth_v,
a ring of edge (u, w) sets birth_w to max(birth_u, birth_w) (the receiving
node keeps the fresher packet), and a ring of the virtual edge resets the
source's birth to the current time.  Ages are piecewise linear between
events, so time integrals and threshold occupancies are accumulated
exactly from the birth change points, with no discretization.

Births are copies of reset times combined only by max, so a run is not
replayed event by event: every node's births are solved at once as a
monotone fixpoint over its own event stream (``_births``), sweeping the
nodes in breadth-first order until a sweep changes nothing; at most
``n_user`` sweeps change something.  The result is bit-identical to the
sequential update.  Edges are picked from an exact bucket table of the
cumulative rates (``_picks``), with a binary search only in the few buckets
that a cumulative rate splits.

A run for one target subset (``simulate(..., target=mask)``, as ``compare``
makes) draws the same event stream, but solves births only for the nodes
that reach the target: the events into them are the only ones whose values
can arrive there.  It reports one column, the target's own age: the subset's
age is the minimum over its nodes, so its birth is the maximum of theirs,
and its change log merges theirs.  A whole-network run reports one column
per node, each merged from that node alone, so both kinds of run integrate
through the same step, and the target run's values are bit-identical to
the same merge of the whole run's logs.  Independent runs with different
seeds may execute in parallel.  Results are immutable.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyWindow,
    IntegralOverflow,
    IntegralUnderflow,
    InvalidInitialAge,
    ThresholdNotRequested,
    TooFewEvents,
)
from .network import AugmentedNetwork, ancestors, bfs_order

N_BATCHES = 32  # batch-means error bars over the post-burn-in window


@dataclass(frozen=True)
class SimConfig:
    total_events: int
    master_seed: int
    burn_in_fraction: float = 0.1
    initial_ages: dict[str, float] | None = None  # default: all zero

    def __post_init__(self):
        if self.total_events < 1:
            raise ValueError("total_events must be >= 1")
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise ValueError("burn_in_fraction must be in [0, 1)")


@dataclass(frozen=True)
class SimResult:
    """Exact time integrals of the age trajectories over the kept window.

    The arrays index ``node_names``: one column per node of the network, or
    one column for the subset when the run had a ``target``, named as
    :meth:`~aoinet.network.AugmentedNetwork.subset_name` names it (``v7``,
    ``{v6,v7}``).  A column's change log holds time 0 and every event that
    moves one of its nodes' births, with the column's birth (the largest of
    its nodes') from then on.  An event that moves a node but not that
    maximum keeps its point, so a target log is as long as its nodes' logs
    together, less their shared time 0.
    """

    node_names: tuple[str, ...]
    window_start: float
    window_length: float
    events_used: int
    integral_age: np.ndarray  # (columns,)
    occupancy: dict[float, np.ndarray]  # threshold -> (columns,) time with age >= d
    batch_means: np.ndarray  # (N_BATCHES, columns) per-batch time averages
    # birth change logs, kept for exact joint-trajectory queries
    change_times: tuple[np.ndarray, ...] = field(repr=False)
    change_births: tuple[np.ndarray, ...] = field(repr=False)

    def node_index(self, v) -> int:
        """The column of ``v``: one of ``node_names``, or an index into them.

        Raises :class:`KeyError` for anything else, a negative index, a
        bool or a float among them.
        """
        if isinstance(v, str) and v in self.node_names:
            return self.node_names.index(v)
        if (
            isinstance(v, (int, np.integer))
            and not isinstance(v, bool)
            and 0 <= v < len(self.node_names)
        ):
            return int(v)
        raise KeyError(f"no column {v!r} among {self.node_names}")


@np.errstate(over="ignore", invalid="ignore")  # refused below instead
def _integrate(
    starts: np.ndarray,
    births: np.ndarray,
    t0: float,
    t_end: float,
    thresholds: tuple[float, ...],
) -> tuple[float, list[float], np.ndarray]:
    """Exact integrals of one piecewise-linear age trajectory over [t0, t_end].

    Segment i runs from ``starts[i]`` to the next start (the last one to
    ``t_end``) with age ``t - births[i]``.  Returns the integral of the age,
    the time at or above each threshold, and the ``N_BATCHES`` batch means.
    Raises :class:`IntegralOverflow` when any of them is not finite, as with
    ages near the float range, and :class:`IntegralUnderflow` when the age
    integral over a nonempty window is below the smallest normal float.
    """
    ends = np.append(starts[1:], t_end)
    s = np.maximum(starts, t0)
    e = np.minimum(ends, t_end)
    keep = e > s
    s, e, b = s[keep], e[keep], births[keep]
    a1 = s - b
    a2 = e - b
    integral = np.sum(a2 * a2 - a1 * a1) / 2.0
    occupancy = [
        np.sum(np.maximum(0.0, e - np.maximum(s, b + d))) for d in thresholds
    ]
    batch_means = np.zeros(N_BATCHES)
    if t_end > t0:
        bounds = np.linspace(t0, t_end, N_BATCHES + 1)
        for j in range(N_BATCHES):
            bs = np.maximum(s, bounds[j])
            be = np.minimum(e, bounds[j + 1])
            ok = be > bs
            x1 = bs[ok] - b[ok]
            x2 = be[ok] - b[ok]
            width = bounds[j + 1] - bounds[j]
            batch_means[j] = np.sum(x2 * x2 - x1 * x1) / 2.0 / width
    if not np.isfinite([integral, *occupancy, *batch_means]).all():
        raise IntegralOverflow("the age integrals over the kept window are not finite")
    if t_end > t0 and integral < sys.float_info.min:
        raise IntegralUnderflow("the age integral over the kept window underflows")
    return integral, occupancy, batch_means


def _start_births(net: AugmentedNetwork, initial_ages) -> np.ndarray:
    """Each node's birth at time 0: minus its initial age (default 0)."""
    ages = np.zeros(net.n_user)
    for name, a0 in (initial_ages or {}).items():
        if name not in net.index_of:
            raise InvalidInitialAge(f"initial age given for unknown node {name!r}")
        try:
            a0 = float(a0)
        except (TypeError, ValueError) as exc:
            raise InvalidInitialAge(
                f"initial age of {name!r} must be a number, got {a0!r}"
            ) from exc
        if not (math.isfinite(a0) and a0 >= 0.0):
            raise InvalidInitialAge(
                f"initial age of {name!r} must be finite and >= 0, got {a0}"
            )
        ages[net.index_of[name]] = a0
    return -ages


def _picks(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, u, side="right")`` for ``u`` in [0, 1), overwriting ``u``.

    ``u`` is scaled in place by K, a power of two with at least 64 buckets
    per entry of ``cum``, so ``floor(u * K)`` is exactly the bucket
    [b/K, (b + 1)/K) holding ``u``.  Where no entry of ``cum`` lies inside
    the bucket, every ``u`` in it has the answer of b/K, read from a table;
    the rest (at most one bucket per entry, so about 1/64 of the draws) are
    searched.  The result has the smallest integer type that holds it.
    """
    k = max(1024, 1 << (64 * len(cum) - 1).bit_length())
    edges = np.arange(k + 1) / k  # exact: k is a power of two
    table = np.searchsorted(cum, edges[:-1], side="right")
    split = len(cum) + 1  # marks a bucket with an entry of cum inside
    table[np.searchsorted(cum, edges[1:], side="left") > table] = split
    table = table.astype(np.min_scalar_type(split))
    np.multiply(u, k, out=u)
    p = table[u.astype(np.intp)]
    at = np.flatnonzero(p == split)
    p[at] = np.searchsorted(cum, u[at] / k, side="right")
    return p


def _births(
    net: AugmentedNetwork,
    times: np.ndarray,
    picks: np.ndarray,
    start: np.ndarray,
    nodes: list[int],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each of ``nodes``' births after each event it receives, as a monotone fixpoint.

    ``nodes`` are ascending user-node indices that include every user-node
    tail of an edge into them (all nodes, or the nodes that reach a
    target); the events into other nodes carry nothing into them and are
    dropped.  Returns ``(events, births)``: ``events[k]`` holds the sorted
    indices of the events on edges into ``nodes[k]``, and ``births[k][j]``
    is its birth after the first ``j`` of them (``births[k][0] =
    start[nodes[k]]``).  A ring of edge (u, v) sets v's birth to the larger
    of u's and v's; a ring of the virtual edge sets the source's birth to
    the event time, which is the larger one because start births are <= 0.
    So each value is the running maximum of v's start birth and its
    incoming values, and an incoming value is the tail's birth just before
    the event.  The source hears only the virtual edge, so its births are
    its event times.

    All other births start at their start value, a lower bound.  Sweeps
    over the nodes in breadth-first order recompute each node's running
    maximum from its tails' current values, until a sweep changes nothing.
    Each value depends only on earlier events, so the solution is unique
    and any exact evaluation order gives it bit for bit.  A value travels
    from a reset along a path that never repeats a node (a revisited node
    already held it), so after sweep k every value carried by a path of k
    edges is final: at most ``len(nodes)`` sweeps change something, and one
    more confirms.
    """
    n = len(nodes)
    # nodes[k] is k; the virtual node, and as a head any other node, is n
    slot = [n] * net.n_aug
    for k, v in enumerate(nodes):
        slot[v] = k
    key = np.min_scalar_type(n)  # small keys, so numpy radix-sorts them
    heads = np.array([slot[v] for v in net.edge_heads], dtype=key)[picks]
    tails = np.array([slot[u] for u in net.edge_tails], dtype=key)[picks]
    ids = None  # the indices of the kept events, when some are dropped
    if n < net.n_user:
        ids = np.flatnonzero(heads < n)
        heads = heads[ids]
        tails = tails[ids]
    by_head = np.argsort(heads, kind="stable")
    counts = np.bincount(heads, minlength=n)
    first = np.concatenate(([0], np.cumsum(counts))).tolist()
    events = [by_head[first[v] : first[v + 1]] for v in range(n)]

    # One flat state of every node's births, node v's from base[v] on.
    base = [first[v] + v for v in range(n)]
    start = start[nodes]
    state = np.repeat(start, counts + 1)
    births = [state[base[v] : base[v] + 1 + len(events[v])] for v in range(n)]
    # the event times increase, so the source's births need no running max
    source = slot[net.source_index]
    ev = events[source] if ids is None else ids[events[source]]
    np.maximum(times[ev], start[source], out=births[source][1:])

    # src[i] is the slot of the value that kept event i carries: its tail's
    # birth just before the event (unset for the virtual edge's events)
    src = np.empty(len(heads), dtype=np.intp)
    by_tail = np.argsort(tails, kind="stable")
    tail_first = np.concatenate(
        ([0], np.cumsum(np.bincount(tails, minlength=n + 1)))
    ).tolist()
    for u in range(n):
        ev = by_tail[tail_first[u] : tail_first[u + 1]]
        src[ev] = np.searchsorted(events[u], ev) + base[u]
    src = np.take(src, by_head, out=by_tail)  # by_tail is spent

    tails_of = [set() for _ in range(n)]
    for u, v in zip(net.edge_tails, net.edge_heads):
        if slot[v] < n:
            tails_of[slot[v]].add(slot[u])
    # step of the last change of each node and of its last evaluation
    changed = [0] * n
    evaluated = [-1] * n
    step = 0
    order = [
        slot[v]
        for v in bfs_order(net)
        if slot[v] < n and slot[v] != source and len(events[slot[v]])
    ]
    buf = np.empty(counts.max())
    moved = True
    while moved:
        moved = False
        for v in order:
            if max(changed[u] for u in tails_of[v]) <= evaluated[v]:
                continue
            step += 1
            evaluated[v] = step
            x = buf[: len(events[v])]
            np.take(state, src[first[v] : first[v + 1]], out=x)
            np.maximum(x, start[v], out=x)
            np.maximum.accumulate(x, out=x)
            if not np.array_equal(x, births[v][1:]):
                births[v][1:] = x
                changed[v] = step
                moved = True
    if ids is not None:
        events = [ids[ev] for ev in events]
    return events, births


def kept_events(cfg: SimConfig) -> int:
    """Events after the burn-in: the ones the kept window of a run holds."""
    return cfg.total_events - math.floor(cfg.burn_in_fraction * cfg.total_events)


def _write_trace(
    path: str,
    net: AugmentedNetwork,
    times: np.ndarray,
    picks: np.ndarray,
    events: list[np.ndarray],
    births: list[np.ndarray],
) -> None:
    """One CSV row per event: its index, time, edge and every node's age after it."""
    labels = ["->".join(net.edge_key(e)) for e in range(len(net.edge_rates))]
    head_birth = np.empty(len(times))  # the head's birth after each event
    for ev, b in zip(events, births):
        head_birth[ev] = b[1:]
    birth = [float(b[0]) for b in births]
    with open(path, "w", newline="") as fh:
        trace = csv.writer(fh)
        trace.writerow(["event", "time", "edge"] + list(net.node_names))
        for i, (t, e, nb) in enumerate(
            zip(times.tolist(), picks.tolist(), head_birth.tolist())
        ):
            birth[net.edge_heads[e]] = nb
            trace.writerow([i, f"{t:.9g}", labels[e]] + [f"{t - x:.9g}" for x in birth])


def _subset_log(
    logs: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """The change log of a subset's birth from its nodes' ``(times, births)`` logs.

    The subset's birth is the largest of its nodes' births, so it can move
    only at their change points; every one of them is kept, and a one-node
    log is returned as it is.
    """
    times = np.unique(np.concatenate([t for t, _ in logs]))
    births = np.maximum.reduce(
        [b[np.searchsorted(t, times, side="right") - 1] for t, b in logs]
    )
    return times, births


def simulate(
    net: AugmentedNetwork,
    cfg: SimConfig,
    thresholds: list[float] | tuple[float, ...] = (),
    trace_path: str | None = None,
    target: int | None = None,
) -> SimResult:
    """Run ``cfg.total_events`` ring events and integrate the kept window.

    ``thresholds`` must be fixed here so occupancies accumulate in one pass;
    a negative or NaN one raises :class:`ValueError` before any event is
    drawn.  ``trace_path`` receives one CSV row per event with every node's
    age.  With a ``target`` subset mask, the same events are drawn, but only
    the nodes that reach the target are solved, and the result has one
    column, the target's age (its nodes' minimum).  A target cannot be
    combined with a trace, which lists every node (:class:`ValueError`); a
    bad target is refused as by :func:`~aoinet.network.ancestors`.  Raises
    :class:`InvalidInitialAge` for an initial age of an unknown node or one
    that is negative or not finite.
    """
    thresholds = tuple(float(d) for d in thresholds)
    if not all(d >= 0.0 for d in thresholds):  # NaN too
        raise ValueError(f"thresholds must be non-negative, got {thresholds}")
    n_events = cfg.total_events
    start = _start_births(net, cfg.initial_ages)
    if target is None:
        nodes = list(range(net.n_user))
        columns = [[v] for v in nodes]
        names = net.node_names
    else:
        if trace_path is not None:
            raise ValueError("a trace lists every node; it cannot have a target")
        nodes = sorted(ancestors(net, target))
        columns = [[v for v in nodes if target >> v & 1]]
        names = (net.subset_name(target),)
    rng = np.random.default_rng(cfg.master_seed)

    times = rng.exponential(scale=1.0 / net.total_rate, size=n_events)
    np.cumsum(times, out=times)
    cum = np.cumsum(net.edge_rates) / net.total_rate
    picks = _picks(cum, rng.random(n_events))
    np.clip(picks, 0, len(net.edge_rates) - 1, out=picks)

    events, births = _births(net, times, picks, start, nodes)
    if trace_path is not None:
        _write_trace(trace_path, net, times, picks, events, births)

    pos = {v: k for k, v in enumerate(nodes)}

    def node_log(v: int) -> tuple[np.ndarray, np.ndarray]:
        """Time 0 and every event that moves node ``v``'s birth, with its births."""
        ev, b = events[pos[v]], births[pos[v]]
        moved = np.flatnonzero(b[1:] != b[:-1])
        return np.concatenate(([0.0], times[ev[moved]])), np.concatenate(
            (b[:1], b[1:][moved])
        )

    logs = [_subset_log([node_log(v) for v in members]) for members in columns]

    events_used = kept_events(cfg)
    burn = n_events - events_used
    t0 = float(times[burn - 1]) if burn > 0 else 0.0
    t_end = float(times[-1])

    n = len(columns)
    integral = np.zeros(n)
    occupancy = {d: np.zeros(n) for d in thresholds}
    batch_means = np.zeros((N_BATCHES, n))
    for k, (t, b) in enumerate(logs):
        integral[k], occ, batch_means[:, k] = _integrate(t, b, t0, t_end, thresholds)
        for d, x in zip(thresholds, occ):
            occupancy[d][k] = x

    return SimResult(
        node_names=names,
        window_start=t0,
        window_length=t_end - t0,
        events_used=events_used,
        integral_age=integral,
        occupancy=occupancy,
        batch_means=batch_means,
        change_times=tuple(t for t, _ in logs),
        change_births=tuple(b for _, b in logs),
    )


def _check_window(res: SimResult) -> None:
    if res.window_length <= 0 or res.events_used <= 0:
        raise EmptyWindow("no events after burn-in")


def time_average(res: SimResult, v) -> float:
    """Time-averaged age of node ``v`` over the kept window."""
    _check_window(res)
    return float(res.integral_age[res.node_index(v)] / res.window_length)


def check_batches(events_used: int) -> None:
    """Refuse a kept window of ``events_used`` events as too short for a stderr.

    Raises :class:`TooFewEvents` below ``N_BATCHES`` events.  With
    :func:`kept_events` it refuses a config before any run.
    """
    if events_used < N_BATCHES:
        raise TooFewEvents(
            f"{events_used} events after burn-in cannot support a stderr "
            f"from {N_BATCHES} batch means; keep at least {N_BATCHES}"
        )


def _batch_stderr(batch_means: np.ndarray) -> float:
    """Standard error of the mean of ``N_BATCHES`` batch means.

    Raises :class:`IntegralUnderflow` if unequal batch means have a
    variance below the smallest normal float, where it has lost its digits.
    """
    var = float(batch_means.var(ddof=1))
    if var < sys.float_info.min and batch_means.min() < batch_means.max():
        raise IntegralUnderflow("the variance of the batch means underflows")
    return math.sqrt(var) / math.sqrt(N_BATCHES)


def time_average_stderr(res: SimResult, v) -> float:
    """Batch-means standard error of the time-averaged age.

    Raises :class:`TooFewEvents` when the kept window holds fewer events
    than there are batches, and :class:`IntegralUnderflow` when the batch
    means' variance underflows.
    """
    _check_window(res)
    check_batches(res.events_used)
    return _batch_stderr(res.batch_means[:, res.node_index(v)])


def violation_fraction(res: SimResult, v, d: float) -> float:
    """Exact fraction of window time with age of ``v`` at or above ``d``."""
    _check_window(res)
    d = float(d)
    if d not in res.occupancy:
        raise ThresholdNotRequested(
            f"threshold {d} was not requested at simulate time"
        )
    return float(res.occupancy[d][res.node_index(v)] / res.window_length)

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
cumulative rates (``_picker``), with a binary search only in the few buckets
that a cumulative rate splits.

The events are solved in blocks of a fixed length (``_block_length``), each
block from the births the one before it left, so memory does not hold every
event's edge and solution at once.  A run keeps only the event times, which
the stream draws before any edge, and the change logs of the nodes it
reports; the logs are integrated after the last block, so every value is
the one a single block would give, bit for bit.

A run for one target subset (``simulate(..., target=mask)``, as ``compare``
makes) draws the same event stream, but solves the target's ancestor network
(:func:`~aoinet.network.ancestor_network`, the network ``sample_subset``
samples): the events into its nodes are the only ones whose values can
arrive at the target, so every other event is dropped before it is solved.
It reports one column, the target's own age: the subset's age is the
minimum over its nodes, so its birth is the maximum of theirs, and its
change log merges theirs.  A whole-network run reports one column
per node, each merged from that node alone, so both kinds of run integrate
through the same step, and the target run's values are bit-identical to
the same merge of the whole run's logs.  Independent runs with different
seeds may execute in parallel.  Results are immutable.

Every run starts from zero ages.  The readers refuse a column whose kept
window starts before it first hears the source
(:class:`~aoinet.errors.WindowNotCoupled`): births combine by max, and only
packets of the run have births above 0, so a column whose birth at the
window start is above 0 follows the stationary trajectory whatever the
start ages were, and one whose birth is not still carries them.
"""

from __future__ import annotations

import contextlib
import csv
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyWindow,
    IntegralOverflow,
    IntegralUnderflow,
    ThresholdNotRequested,
    TooFewEvents,
    WindowNotCoupled,
)
from .network import AugmentedNetwork, ancestor_network, bfs_order

N_BATCHES = 32  # batch-means error bars over the post-burn-in window
# a block solves at least BLOCK_EVENTS events, and BLOCK_EVENTS_PER_NODE per
# solved node, so the per-node work of a block is spread over many events
BLOCK_EVENTS = 1 << 16
BLOCK_EVENTS_PER_NODE = 1 << 13


@dataclass(frozen=True)
class SimConfig:
    total_events: int
    master_seed: int
    burn_in_fraction: float = 0.1

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


def _picker(cum: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``u -> np.searchsorted(cum, u, side="right")`` for ``u`` in [0, 1), overwriting ``u``.

    ``u`` is scaled in place by K, a power of two with at least 64 buckets
    per entry of ``cum``, so ``floor(u * K)`` is exactly the bucket
    [b/K, (b + 1)/K) holding ``u``.  Where no entry of ``cum`` lies inside
    the bucket, every ``u`` in it has the answer of b/K, read from a table
    built once here; the rest (at most one bucket per entry, so about 1/64
    of the draws) are searched.  The result has the smallest integer type
    that holds it.
    """
    k = max(1024, 1 << (64 * len(cum) - 1).bit_length())
    edges = np.arange(k + 1) / k  # exact: k is a power of two
    table = np.searchsorted(cum, edges[:-1], side="right")
    split = len(cum) + 1  # marks a bucket with an entry of cum inside
    table[np.searchsorted(cum, edges[1:], side="left") > table] = split
    table = table.astype(np.min_scalar_type(split))

    def picks(u: np.ndarray) -> np.ndarray:
        np.multiply(u, k, out=u)
        p = table[u.astype(np.intp)]
        at = np.flatnonzero(p == split)
        p[at] = np.searchsorted(cum, u[at] / k, side="right")
        return p

    return picks


def _births(
    net: AugmentedNetwork,
    times: np.ndarray,
    picks: np.ndarray,
    start: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Every user node's births after each event it receives, as a monotone fixpoint.

    Event i rings edge ``picks[i]`` of ``net`` at ``times[i]``.  Returns
    ``(events, births)``: ``events[v]`` holds the sorted indices of the
    events on edges into node v, and ``births[v][j]`` is its birth after
    the first ``j`` of them (``births[v][0] = start[v]``).  A ring of edge
    (u, v) sets v's birth to the larger of u's and v's; a ring of the
    virtual edge sets the source's birth to the event time, which is the
    larger one because start births are no later than the events: 0, or
    births an earlier block left.  So each value is the running maximum of
    v's start birth and its incoming values, and an incoming value is the
    tail's birth just before the event.  The source hears only the virtual
    edge, so its births are its event times.

    All other births start at their start value, a lower bound.  Sweeps
    over the nodes in breadth-first order recompute each node's running
    maximum from its tails' current values, until a sweep changes nothing.
    Each value depends only on earlier events, so the solution is unique
    and any exact evaluation order gives it bit for bit.  A value travels
    from a reset along a path that never repeats a node (a revisited node
    already held it), so after sweep k every value carried by a path of k
    edges is final: at most ``net.n_user`` sweeps change something, and
    one more confirms.
    """
    n = net.n_user  # user nodes are 0..n-1, and the virtual node, a tail only, is n
    key = np.min_scalar_type(n)  # small keys, so numpy radix-sorts them
    heads = np.array(net.edge_heads, dtype=key)[picks]
    tails = np.array(net.edge_tails, dtype=key)[picks]
    by_head = np.argsort(heads, kind="stable")
    counts = np.bincount(heads, minlength=n)
    first = np.concatenate(([0], np.cumsum(counts))).tolist()
    events = [by_head[first[v] : first[v + 1]] for v in range(n)]

    # One flat state of every node's births, node v's from base[v] on.
    base = [first[v] + v for v in range(n)]
    state = np.repeat(start, counts + 1)
    births = [state[base[v] : base[v] + 1 + len(events[v])] for v in range(n)]
    # the event times increase, so the source's births need no running max
    source = net.source_index
    np.maximum(times[events[source]], start[source], out=births[source][1:])

    # src[i] is the slot of the value that event i carries: its tail's
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
        tails_of[v].add(u)
    # step of the last change of each node and of its last evaluation
    changed = [0] * n
    evaluated = [-1] * n
    step = 0
    order = [v for v in bfs_order(net) if v < n and v != source and len(events[v])]
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
    return events, births


def _block_length(n_nodes: int) -> int:
    """Events per block of a run that solves ``n_nodes`` nodes."""
    return max(BLOCK_EVENTS, BLOCK_EVENTS_PER_NODE * n_nodes)


def kept_events(cfg: SimConfig) -> int:
    """Events after the burn-in: the ones the kept window of a run holds."""
    return cfg.total_events - math.floor(cfg.burn_in_fraction * cfg.total_events)


def _write_trace(
    trace,
    net: AugmentedNetwork,
    first: int,
    times: np.ndarray,
    picks: np.ndarray,
    events: list[np.ndarray],
    births: list[np.ndarray],
) -> None:
    """One CSV row per event of a block of a whole run, from event ``first`` on.

    A row holds the event's index, time, edge and every node's age after
    it.  ``births[v][0]`` is node v's birth before the block, the one the
    previous block's rows ended with.
    """
    labels = ["->".join(net.edge_key(e)) for e in range(len(net.edge_rates))]
    head_birth = np.empty(len(times))  # the head's birth after each event
    for ev, b in zip(events, births):
        head_birth[ev] = b[1:]
    birth = [float(b[0]) for b in births]
    for i, (t, e, nb) in enumerate(
        zip(times.tolist(), picks.tolist(), head_birth.tolist()), first
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
    the events into the target's ancestor network are solved, on that
    network, and the result has one column, the target's age (its nodes'
    minimum).  A target cannot be combined with a trace, which lists every
    node (:class:`ValueError`); a bad target is refused by
    :func:`~aoinet.network.ancestor_network`.  Every node starts at age 0.
    """
    thresholds = tuple(float(d) for d in thresholds)
    if not all(d >= 0.0 for d in thresholds):  # NaN too
        raise ValueError(f"thresholds must be non-negative, got {thresholds}")
    n_events = cfg.total_events
    if target is None:
        solved = net
        columns = [[v] for v in range(net.n_user)]
        names = net.node_names
    else:
        if trace_path is not None:
            raise ValueError("a trace lists every node; it cannot have a target")
        solved = ancestor_network(net, target)
        columns = [[solved.index_of[x] for x in net.subset_labels(target)]]
        names = (net.subset_name(target),)
    # an event on an edge of net is solved on the same edge of solved, or
    # dropped when solved lacks it: its head does not reach the target
    edge_of = None
    if solved is not net:
        kept = {solved.edge_key(e): e for e in range(len(solved.edge_rates))}
        dropped = len(solved.edge_rates)
        edge_of = np.array(
            [kept.get(net.edge_key(e), dropped) for e in range(len(net.edge_rates))],
            dtype=np.min_scalar_type(dropped),
        )
    rng = np.random.default_rng(cfg.master_seed)

    # every gap comes before every uniform in the stream, so the times are
    # drawn whole; a block's uniforms are the next ones, as one draw gives them
    times = rng.exponential(scale=1.0 / net.total_rate, size=n_events)
    np.cumsum(times, out=times)
    pick = _picker(np.cumsum(net.edge_rates) / net.total_rate)
    last_edge = len(net.edge_rates) - 1

    # the change log of each reported node: time 0, then every event that
    # moves its birth, with its births.  A birth is minus an age, so every
    # node starts at -0.0
    reported = sorted({v for members in columns for v in members})
    log_times = {v: [np.zeros(1)] for v in reported}
    log_births = {v: [np.full(1, -0.0)] for v in reported}
    carry = np.full(solved.n_user, -0.0)  # every birth after the blocks so far
    block = _block_length(solved.n_user)
    with (
        open(trace_path, "w", newline="")
        if trace_path is not None
        else contextlib.nullcontext()
    ) as fh:
        if fh is not None:
            trace = csv.writer(fh)
            trace.writerow(["event", "time", "edge"] + list(net.node_names))
        for first in range(0, n_events, block):
            t = times[first : first + block]
            picks = pick(rng.random(len(t)))
            np.clip(picks, 0, last_edge, out=picks)
            if edge_of is not None:
                picks = edge_of.take(picks)
                into = picks != dropped
                t, picks = t.compress(into), picks.compress(into)
            events, births = _births(solved, t, picks, carry)
            if fh is not None:
                _write_trace(trace, net, first, t, picks, events, births)
            for v in reported:
                ev, b = events[v], births[v]
                moved = np.flatnonzero(b[1:] != b[:-1])
                log_times[v].append(t[ev[moved]])
                log_births[v].append(b[1:][moved])
            carry[:] = [b[-1] for b in births]

    for v in reported:
        log_times[v] = np.concatenate(log_times[v])
        log_births[v] = np.concatenate(log_births[v])
    logs = [
        _subset_log([(log_times[v], log_births[v]) for v in members])
        for members in columns
    ]

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


def _first_heard(res: SimResult, k: int) -> float:
    """When column ``k`` first hears the source, or ``inf`` if it never does.

    That is its first change to a birth above 0; its births never decrease.
    """
    i = np.searchsorted(res.change_births[k], 0.0, side="right")
    return float(res.change_times[k][i]) if i < len(res.change_times[k]) else math.inf


def _coupled_column(res: SimResult, v) -> int:
    """The column of ``v``, once its kept window is known to be stationary.

    Raises :class:`EmptyWindow` for a window without events, and
    :class:`WindowNotCoupled` when the column first hears the source after
    the window starts: until then its ages still carry the start ones.
    """
    if res.window_length <= 0 or res.events_used <= 0:
        raise EmptyWindow("no events after burn-in")
    k = res.node_index(v)
    t0 = res.window_start
    heard = _first_heard(res, k)
    if heard > t0:
        first = "never" if heard == math.inf else f"at t = {heard:.6g}"
        raise WindowNotCoupled(
            f"the kept window of {res.node_names[k]} starts at t0 = {t0:.6g}, "
            f"before it first hears the source ({first}), so its ages still "
            "carry the initial ones; run more events"
        )
    return k


def time_average(res: SimResult, v) -> float:
    """Time-averaged age of node ``v`` over the kept window.

    Raises :class:`WindowNotCoupled` when the window is not yet stationary.
    """
    return float(res.integral_age[_coupled_column(res, v)] / res.window_length)


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

    Raises :class:`WindowNotCoupled` when the window is not yet
    stationary, :class:`TooFewEvents` when it holds fewer events than there
    are batches, and :class:`IntegralUnderflow` when the batch means'
    variance underflows.
    """
    k = _coupled_column(res, v)
    check_batches(res.events_used)
    return _batch_stderr(res.batch_means[:, k])


def violation_fraction(res: SimResult, v, d: float) -> float:
    """Exact fraction of window time with age of ``v`` at or above ``d``.

    Raises :class:`WindowNotCoupled` when the window is not yet stationary.
    """
    k = _coupled_column(res, v)
    d = float(d)
    if d not in res.occupancy:
        raise ThresholdNotRequested(
            f"threshold {d} was not requested at simulate time"
        )
    return float(res.occupancy[d][k] / res.window_length)

"""Ground-truth discrete-event simulation of the preemptive dynamics.

Events arrive as a single Poisson stream of the total augmented rate and are
thinned to edges with probability rate/total.  The state is kept as per-node
generation timestamps ("births"): the age of node v at time t is t - birth_v,
a ring of edge (u, w) sets birth_w to max(birth_u, birth_w) (the receiving
node keeps the fresher packet), and a ring of the virtual edge resets the
source's birth to the current time.  Ages are piecewise linear between
events, so time integrals, squared integrals and threshold occupancies are
accumulated exactly from the birth change points, with no discretization.

Births are copies of reset times combined only by max, so a run is not
replayed event by event: every node's births are solved at once as a
monotone fixpoint over its own event stream (``_births``), sweeping the
nodes in breadth-first order until a sweep changes nothing; at most
``n_user`` sweeps change something.  The result is bit-identical to the
sequential update.  Independent runs with different seeds may execute in
parallel.  Results are immutable.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptySubset,
    EmptyWindow,
    IntegralOverflow,
    IntegralUnderflow,
    InvalidInitialAge,
    ThresholdNotRequested,
    TooFewEvents,
)
from .network import AugmentedNetwork, bfs_order

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
    """Exact time integrals of the age trajectories over the kept window."""

    node_names: tuple[str, ...]
    window_start: float
    window_length: float
    events_used: int
    integral_age: np.ndarray  # (V,)
    integral_age_sq: np.ndarray  # (V,)
    occupancy: dict[float, np.ndarray]  # threshold -> (V,) time with age >= d
    batch_means: np.ndarray  # (N_BATCHES, V) per-batch time averages
    thresholds: tuple[float, ...]
    # birth change logs, kept for exact joint-trajectory queries
    change_times: tuple[np.ndarray, ...] = field(repr=False)
    change_births: tuple[np.ndarray, ...] = field(repr=False)
    end_time: float = 0.0

    def node_index(self, v) -> int:
        if isinstance(v, str):
            return self.node_names.index(v)
        return int(v)


@np.errstate(over="ignore", invalid="ignore")  # refused below instead
def _integrate(
    starts: np.ndarray,
    births: np.ndarray,
    t0: float,
    t_end: float,
    thresholds: tuple[float, ...],
) -> tuple[float, float, list[float], np.ndarray]:
    """Exact integrals of one piecewise-linear age trajectory over [t0, t_end].

    Segment i runs from ``starts[i]`` to the next start (the last one to
    ``t_end``) with age ``t - births[i]``.  Returns the integral of the age,
    of its square, the time at or above each threshold, and the
    ``N_BATCHES`` batch means.  Raises :class:`IntegralOverflow` when any
    of them is not finite, as with ages near the float range, and
    :class:`IntegralUnderflow` when the age integral over a nonempty window
    is below the smallest normal float.
    """
    ends = np.append(starts[1:], t_end)
    s = np.maximum(starts, t0)
    e = np.minimum(ends, t_end)
    keep = e > s
    s, e, b = s[keep], e[keep], births[keep]
    a1 = s - b
    a2 = e - b
    integral = np.sum(a2 * a2 - a1 * a1) / 2.0
    integral_sq = np.sum(a2 ** 3 - a1 ** 3) / 3.0
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
    if not np.isfinite([integral, integral_sq, *occupancy, *batch_means]).all():
        raise IntegralOverflow("the age integrals over the kept window are not finite")
    if t_end > t0 and integral < sys.float_info.min:
        raise IntegralUnderflow("the age integral over the kept window underflows")
    return integral, integral_sq, occupancy, batch_means


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


def _births(
    net: AugmentedNetwork, times: np.ndarray, picks: np.ndarray, start: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Every node's birth after each event it receives, as a monotone fixpoint.

    Returns ``(events, births)``: ``events[v]`` holds the sorted indices of
    the events on edges into ``v``, and ``births[v][k]`` is ``v``'s birth
    after the first ``k`` of them (``births[v][0] = start[v]``).  A ring of
    edge (u, v) sets v's birth to the larger of u's and v's; a ring of the
    virtual edge sets the source's birth to the event time, which is the
    larger one because start births are <= 0.  So each value is the running
    maximum of v's start birth and its incoming values, and an incoming
    value is the tail's birth just before the event.

    All births start at their start value, a lower bound.  Sweeps over the
    nodes in breadth-first order recompute each node's running maximum from
    its tails' current values, until a sweep changes nothing.  Each value
    depends only on earlier events, so the solution is unique and any exact
    evaluation order gives it bit for bit.  A value travels from a reset
    along a path that never repeats a node (a revisited node already held
    it), so after sweep k every value carried by a path of k edges is
    final: at most ``n_user`` sweeps change something, and one more
    confirms.
    """
    n = net.n_user
    n_events = len(times)
    key = np.min_scalar_type(n)  # small keys, so numpy radix-sorts them
    heads = np.asarray(net.edge_heads, dtype=key)[picks]
    tails = np.asarray(net.edge_tails, dtype=key)[picks]
    by_head = np.argsort(heads, kind="stable")
    counts = np.bincount(heads, minlength=n)
    first = np.concatenate(([0], np.cumsum(counts))).tolist()
    events = [by_head[first[v] : first[v + 1]] for v in range(n)]

    # One flat state: the event times, then each node's births, node v's
    # from base[v] on.  src[i] is where the value carried by event i sits:
    # its own time for the virtual edge, else the slot of the tail's birth
    # just before the event.
    base = [n_events + first[v] + v for v in range(n)]
    state = np.concatenate((times, np.repeat(start, counts + 1)))
    births = [state[base[v] : base[v] + 1 + len(events[v])] for v in range(n)]
    src = np.empty(n_events, dtype=np.intp)
    by_tail = np.argsort(tails, kind="stable")
    tail_first = np.concatenate(
        ([0], np.cumsum(np.bincount(tails, minlength=n + 1)))
    ).tolist()
    for u in range(n + 1):
        ev = by_tail[tail_first[u] : tail_first[u + 1]]
        src[ev] = ev if u == n else np.searchsorted(events[u], ev) + base[u]
    src = src[by_head]

    tails_of = [set() for _ in range(n)]
    for u, v in zip(net.edge_tails, net.edge_heads):
        tails_of[v].add(u)
    # step of the last change of each node (index n: the event times, which
    # never change) and of each node's last evaluation
    changed = [0] * (n + 1)
    evaluated = [-1] * n
    step = 0
    order = [v for v in bfs_order(net) if v < n and len(events[v])]
    buf = np.empty(n_events)
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


def simulate(
    net: AugmentedNetwork,
    cfg: SimConfig,
    thresholds: list[float] | tuple[float, ...] = (),
    trace_path: str | None = None,
) -> SimResult:
    """Run ``cfg.total_events`` ring events and integrate the kept window.

    ``thresholds`` must be fixed here so occupancies accumulate in one pass.
    ``trace_path`` receives one CSV row per event with every node's age.
    Raises :class:`InvalidInitialAge` for an initial age of an unknown node
    or one that is negative or not finite.
    """
    thresholds = tuple(float(d) for d in thresholds)
    n = net.n_user
    n_events = cfg.total_events
    start = _start_births(net, cfg.initial_ages)
    rng = np.random.default_rng(cfg.master_seed)

    times = np.cumsum(rng.exponential(scale=1.0 / net.total_rate, size=n_events))
    cum = np.cumsum(net.edge_rates) / net.total_rate
    picks = np.searchsorted(cum, rng.random(n_events), side="right")
    np.clip(picks, 0, len(net.edge_rates) - 1, out=picks)

    events, births = _births(net, times, picks, start)
    if trace_path is not None:
        _write_trace(trace_path, net, times, picks, events, births)

    # change logs: time 0 and every event that moves a node's birth
    cts, cbs = [], []
    for ev, b in zip(events, births):
        moved = np.flatnonzero(b[1:] != b[:-1])
        cts.append(np.concatenate(([0.0], times[ev[moved]])))
        cbs.append(np.concatenate((b[:1], b[1:][moved])))
    cts, cbs = tuple(cts), tuple(cbs)

    burn = int(math.floor(cfg.burn_in_fraction * n_events))
    t0 = float(times[burn - 1]) if burn > 0 else 0.0
    t_end = float(times[-1])
    events_used = n_events - burn
    window = t_end - t0

    integral = np.zeros(n)
    integral_sq = np.zeros(n)
    occupancy = {d: np.zeros(n) for d in thresholds}
    batch_means = np.zeros((N_BATCHES, n))
    for v in range(n):
        integral[v], integral_sq[v], occ, batch_means[:, v] = _integrate(
            cts[v], cbs[v], t0, t_end, thresholds
        )
        for d, x in zip(thresholds, occ):
            occupancy[d][v] = x

    return SimResult(
        node_names=net.node_names,
        window_start=t0,
        window_length=window,
        events_used=events_used,
        integral_age=integral,
        integral_age_sq=integral_sq,
        occupancy=occupancy,
        batch_means=batch_means,
        thresholds=thresholds,
        change_times=cts,
        change_births=cbs,
        end_time=t_end,
    )


def time_average(res: SimResult, v) -> float:
    """Time-averaged age of node ``v`` over the kept window."""
    if res.window_length <= 0 or res.events_used <= 0:
        raise EmptyWindow("no events after burn-in")
    return float(res.integral_age[res.node_index(v)] / res.window_length)


def _check_batches(res: SimResult) -> None:
    if res.window_length <= 0 or res.events_used <= 0:
        raise EmptyWindow("no events after burn-in")
    if res.events_used < N_BATCHES:
        raise TooFewEvents(
            f"{res.events_used} events after burn-in cannot support a stderr "
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
    _check_batches(res)
    return _batch_stderr(res.batch_means[:, res.node_index(v)])


def violation_fraction(res: SimResult, v, d: float) -> float:
    """Exact fraction of window time with age of ``v`` at or above ``d``."""
    if res.window_length <= 0 or res.events_used <= 0:
        raise EmptyWindow("no events after burn-in")
    d = float(d)
    if d not in res.occupancy:
        raise ThresholdNotRequested(
            f"threshold {d} was not requested at simulate time"
        )
    return float(res.occupancy[d][res.node_index(v)] / res.window_length)


def subset_time_average(res: SimResult, mask: int) -> tuple[float, float]:
    """Time-averaged age of a node subset, with its batch-means stderr.

    The subset's age is the minimum over its nodes, so its birth at any time
    is the maximum of theirs; it changes only at their change points.
    Raises :class:`TooFewEvents` like :func:`time_average_stderr`.
    """
    _check_batches(res)
    idx = [i for i in range(len(res.node_names)) if mask >> i & 1]
    if not idx:
        raise EmptySubset("subset must be non-empty")
    cuts, births = _merged_births(res, idx)
    integral, _, _, batch_means = _integrate(
        cuts[:-1], np.maximum.reduce(births), res.window_start, res.end_time, ()
    )
    return float(integral / res.window_length), _batch_stderr(batch_means)


def equal_age_fraction(res: SimResult, u, v) -> float:
    """Fraction of window time during which two nodes share the exact age.

    Births propagate by copying, so shared ages show up as float-equal birth
    values; this is the positive-measure tie the sampled tuples never show.
    """
    if res.window_length <= 0:
        raise EmptyWindow("no events after burn-in")
    cuts, (bu, bv) = _merged_births(res, [res.node_index(u), res.node_index(v)])
    widths = np.diff(cuts)
    return float(widths[bu == bv].sum() / res.window_length)


def _merged_births(
    res: SimResult, idx: list[int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Merged window change points of nodes ``idx``, and their births.

    ``births[k][j]`` is node ``idx[k]``'s birth from ``cuts[j]`` to
    ``cuts[j + 1]``.
    """
    cuts = np.unique(
        np.concatenate(
            [res.change_times[i] for i in idx] + [[res.window_start, res.end_time]]
        )
    )
    cuts = cuts[(cuts >= res.window_start) & (cuts <= res.end_time)]
    births = []
    for i in idx:
        k = np.searchsorted(res.change_times[i], cuts[:-1], side="right") - 1
        births.append(res.change_births[i][k])
    return cuts, births

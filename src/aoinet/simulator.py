"""Ground-truth discrete-event simulation of the preemptive dynamics.

Events arrive as a single Poisson stream of the total augmented rate and are
thinned to edges with probability rate/total.  The state is kept as per-node
generation timestamps ("births"): the age of node v at time t is t - birth_v,
a ring of edge (u, w) sets birth_w to max(birth_u, birth_w) (the receiving
node keeps the fresher packet), and a ring of the virtual edge resets the
source's birth to the current time.  Ages are piecewise linear between
events, so time integrals, squared integrals and threshold occupancies are
accumulated exactly from the birth change points, with no discretization.

A single run is strictly sequential; independent runs with different seeds
may execute in parallel.  Results are immutable.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySubset, EmptyWindow, ThresholdNotRequested, TooFewEvents
from .network import AugmentedNetwork

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
    ``N_BATCHES`` batch means.
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
    return integral, integral_sq, occupancy, batch_means


def simulate(
    net: AugmentedNetwork,
    cfg: SimConfig,
    thresholds: list[float] | tuple[float, ...] = (),
    trace_path: str | None = None,
    check_invariants: bool = False,
) -> SimResult:
    """Run ``cfg.total_events`` ring events and integrate the kept window.

    ``thresholds`` must be fixed here so occupancies accumulate in one pass.
    ``check_invariants`` re-applies the per-node update rule explicitly and
    asserts agreement with the birth bookkeeping (slow; for tests).
    """
    thresholds = tuple(float(d) for d in thresholds)
    n = net.n_user
    n_events = cfg.total_events
    rng = np.random.default_rng(cfg.master_seed)

    gaps = rng.exponential(scale=1.0 / net.total_rate, size=n_events)
    times = np.cumsum(gaps)
    cum = np.cumsum(net.edge_rates) / net.total_rate
    picks = np.searchsorted(cum, rng.random(n_events), side="right")
    np.clip(picks, 0, len(net.edge_rates) - 1, out=picks)

    init = np.zeros(n)
    if cfg.initial_ages:
        for name, a0 in cfg.initial_ages.items():
            init[net.index_of[name]] = a0

    birth = (-init).tolist()
    change_times = [[0.0] for _ in range(n)]
    change_births = [[birth[v]] for v in range(n)]

    tails = net.edge_tails
    heads = net.edge_heads
    virtual_edge = len(net.edge_rates) - 1
    times_list = times.tolist()
    picks_list = picks.tolist()

    ages_dbg = init.copy() if check_invariants else None
    last_t = 0.0
    with contextlib.ExitStack() as stack:
        trace = None
        if trace_path is not None:
            fh = stack.enter_context(open(trace_path, "w", newline=""))
            trace = csv.writer(fh)
            trace.writerow(["event", "time", "edge"] + list(net.node_names))
        for i in range(n_events):
            e = picks_list[i]
            t = times_list[i]
            w = heads[e]
            if e == virtual_edge:
                nb = t  # source resets to age zero
            else:
                bu = birth[tails[e]]
                bw = birth[w]
                nb = bu if bu > bw else bw
            if check_invariants:
                gap = t - last_t
                prev_w = ages_dbg[w]
                expected = ages_dbg + gap  # non-receiving nodes grow by the gap
                if e == virtual_edge:
                    expected[w] = 0.0
                else:
                    expected[w] = min(ages_dbg[tails[e]], ages_dbg[w]) + gap
                    assert expected[w] <= prev_w + gap + 1e-9
                ages_dbg = expected
                got = t - np.array([nb if v == w else birth[v] for v in range(n)])
                assert np.allclose(got, expected), "birth bookkeeping diverged"
                last_t = t
            if nb != birth[w]:
                birth[w] = nb
                change_times[w].append(t)
                change_births[w].append(nb)
            if trace is not None:
                u_label, v_label = net.edge_key(e)
                trace.writerow(
                    [i, f"{t:.9g}", f"{u_label}->{v_label}"]
                    + [f"{t - birth[v]:.9g}" for v in range(n)]
                )

    burn = int(math.floor(cfg.burn_in_fraction * n_events))
    t0 = times_list[burn - 1] if burn > 0 else 0.0
    t_end = times_list[-1]
    events_used = n_events - burn
    window = t_end - t0

    cts = tuple(np.asarray(x) for x in change_times)
    cbs = tuple(np.asarray(x) for x in change_births)

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
    return float(batch_means.std(ddof=1) / math.sqrt(N_BATCHES))


def time_average_stderr(res: SimResult, v) -> float:
    """Batch-means standard error of the time-averaged age.

    Raises :class:`TooFewEvents` when the kept window holds fewer events
    than there are batches.
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

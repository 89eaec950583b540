import csv
import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import aoinet as a
from aoinet import errors
from aoinet.network import ancestor_network
from aoinet.simulator import _picker, kept_events
from conftest import (
    last_event_time,
    merged_log,
    merged_subset_values,
    random_ssn,
    serial,
    triangle,
    triangle_chain,
    two_node,
)


def run(net, events, seed, **kw):
    return a.simulate(net, a.SimConfig(total_events=events, master_seed=seed), **kw)


def test_source_age_is_inverse_lambda():
    net = two_node(lam=2.0, mu=1.0)
    res = run(net, 400_000, 0)
    est = a.time_average(res, "s")
    se = a.time_average_stderr(res, "s")
    assert abs(est - 0.5) < max(4 * se, 0.005)


def test_two_node_mean(two):
    res = run(two, 1_000_000, 1)
    assert a.time_average(res, "d") == pytest.approx(2.0, rel=0.01)


def test_triangle_mean(tri):
    res = run(tri, 1_000_000, 2)
    assert a.time_average(res, "d") == pytest.approx(1.75, rel=0.01)
    assert a.time_average(res, "v") == pytest.approx(2.0, rel=0.01)


def test_violation_fraction_two_node(two):
    net = two
    cfg = a.SimConfig(total_events=1_000_000, master_seed=3)
    res = a.simulate(net, cfg, thresholds=[1.0])
    got = a.violation_fraction(res, "d", 1.0)
    assert abs(got - 2.0 * math.exp(-1.0)) < 0.01


def test_threshold_zero_occupies_whole_window(tri):
    cfg = a.SimConfig(total_events=50_000, master_seed=4)
    res = a.simulate(tri, cfg, thresholds=[0.0])
    for v in tri.node_names:
        assert a.violation_fraction(res, v, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_unrequested_threshold_raises(tri):
    res = run(tri, 1000, 5)
    with pytest.raises(errors.ThresholdNotRequested):
        a.violation_fraction(res, "d", 1.0)


def test_empty_window():
    net = two_node()
    # the smallest window keeps one event; d has heard the source by the end
    # of the burn-in, so its mean is read.  A window without events cannot
    # come out of a run, so a result with one is made by hand
    cfg = a.SimConfig(total_events=10, master_seed=6, burn_in_fraction=0.9)
    res = a.simulate(net, cfg)
    assert res.events_used == 1
    assert a.time_average(res, "d") > 0.0
    broken = a.SimResult(
        node_names=res.node_names,
        window_start=res.window_start,
        window_length=0.0,
        events_used=0,
        integral_age=res.integral_age,
        occupancy=res.occupancy,
        batch_means=res.batch_means,
        change_times=res.change_times,
        change_births=res.change_births,
    )
    with pytest.raises(errors.EmptyWindow):
        a.time_average(broken, "d")


def test_config_validation():
    with pytest.raises(ValueError):
        a.SimConfig(total_events=0, master_seed=0)
    with pytest.raises(ValueError):
        a.SimConfig(total_events=10, master_seed=0, burn_in_fraction=1.0)


def reference_draw(net, cfg):
    """The event times and edges of a run, drawn as in ``simulate``."""
    n_events = cfg.total_events
    rng = np.random.default_rng(cfg.master_seed)
    gaps = rng.exponential(scale=1.0 / net.total_rate, size=n_events)
    cum = np.cumsum(net.edge_rates) / net.total_rate
    picks = np.searchsorted(cum, rng.random(n_events), side="right")
    np.clip(picks, 0, len(net.edge_rates) - 1, out=picks)
    return np.cumsum(gaps), picks


def reference_run(net, cfg, trace_path=None):
    """Change logs from the sequential update: one Python step per event.

    A ring of edge (u, w) sets w's birth to max(birth_u, birth_w); a ring of
    the virtual edge resets the source's birth to the event time.  Every
    node starts at age 0, birth -0.0.  Draws as :func:`reference_draw`.
    Writes the per-event trace when ``trace_path`` is set.
    """
    n = net.n_user
    times, picks = reference_draw(net, cfg)
    times = times.tolist()
    birth = [-0.0] * n
    change_times = [[0.0] for _ in range(n)]
    change_births = [[birth[v]] for v in range(n)]
    virtual_edge = len(net.edge_rates) - 1
    rows = []
    for i, (e, t) in enumerate(zip(picks.tolist(), times)):
        w = net.edge_heads[e]
        if e == virtual_edge:
            nb = t
        else:
            bu = birth[net.edge_tails[e]]
            bw = birth[w]
            nb = bu if bu > bw else bw
        if nb != birth[w]:
            birth[w] = nb
            change_times[w].append(t)
            change_births[w].append(nb)
        if trace_path is not None:
            u_label, v_label = net.edge_key(e)
            rows.append(
                [i, f"{t:.9g}", f"{u_label}->{v_label}"]
                + [f"{t - birth[v]:.9g}" for v in range(n)]
            )
    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["event", "time", "edge"] + list(net.node_names))
            out.writerows(rows)
    return (
        [np.asarray(x) for x in change_times],
        [np.asarray(x) for x in change_births],
    )


ORACLE_NETS = {
    "two_node": two_node,
    "tri": triangle,
    "r5": lambda: random_ssn(5, 0),
    "r8": lambda: random_ssn(8, 2024),
    "r20": lambda: random_ssn(20, 7),
    "chain50": lambda: triangle_chain(
        1.0, [(1.0 + i % 3, 2.0, 0.5 + i % 5) for i in range(50)]
    ),
}


def assert_matches_reference(net, cfg, tmp_path):
    got_trace, want_trace = tmp_path / "got.csv", tmp_path / "want.csv"
    res = a.simulate(net, cfg, trace_path=str(got_trace))
    want_times, want_births = reference_run(net, cfg, str(want_trace))
    for v in range(net.n_user):
        assert np.array_equal(res.change_times[v], want_times[v])
        assert np.array_equal(res.change_births[v], want_births[v])
        # start births of zero ages are -0.0 in both
        assert np.array_equal(
            np.signbit(res.change_births[v]), np.signbit(want_births[v])
        )
    assert got_trace.read_bytes() == want_trace.read_bytes()


@pytest.mark.parametrize("events", [1, 2, 3, 32, 3000])
@pytest.mark.parametrize("name", sorted(ORACLE_NETS))
def test_births_match_sequential_reference(tmp_path, name, events):
    cfg = a.SimConfig(total_events=events, master_seed=events + len(name))
    assert_matches_reference(ORACLE_NETS[name](), cfg, tmp_path)


def test_same_seed_reproducible(tri):
    r1 = run(tri, 20_000, 10)
    r2 = run(tri, 20_000, 10)
    assert np.array_equal(r1.integral_age, r2.integral_age)
    assert r1.window_length == r2.window_length


def test_agrees_with_exact_recursion(tri_distinct):
    res = run(tri_distinct, 2_000_000, 11)
    for v in tri_distinct.node_names:
        exact = a.average_age(tri_distinct, 1 << tri_distinct.index_of[v])
        est = a.time_average(res, v)
        se = a.time_average_stderr(res, v)
        assert abs(est - exact) < 5 * se


def test_violation_matches_inversion(tri):
    cfg = a.SimConfig(total_events=2_000_000, master_seed=12)
    res = a.simulate(tri, cfg, thresholds=[2.0])
    sim_tail = a.violation_fraction(res, "d", 2.0)
    (cdf,) = a.cdf_grid(tri, tri.subset_mask(["d"]), [2.0])
    assert abs(sim_tail - (1.0 - cdf)) < 0.01


def integral_age_sq(res, v, t_end):
    """Integral of node ``v``'s squared age over the kept window, ending at ``t_end``.

    Read from the birth change log: the age is ``t - birth`` between
    change points, so each segment adds the difference of cubes over 3.
    """
    i = res.node_index(v)
    times, births = res.change_times[i], res.change_births[i]
    s = np.maximum(times, res.window_start)
    e = np.minimum(np.append(times[1:], t_end), t_end)
    keep = e > s
    a1, a2 = s[keep] - births[keep], e[keep] - births[keep]
    return float(np.sum(a2**3 - a1**3) / 3.0)


def test_second_moment_two_node(two):
    # stationary age at d is Erlang(2, 1); second moment 6
    cfg = a.SimConfig(total_events=2_000_000, master_seed=13)
    res = a.simulate(two, cfg)
    m2 = integral_age_sq(res, "d", last_event_time(two, cfg)) / res.window_length
    assert m2 == pytest.approx(6.0, rel=0.05)


def test_trace_file(tmp_path, tri):
    path = tmp_path / "trace.csv"
    a.simulate(
        tri,
        a.SimConfig(total_events=500, master_seed=14),
        trace_path=str(path),
    )
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["event", "time", "edge", "s", "v", "d"]
    assert len(rows) == 501
    prev_t = 0.0
    for row in rows[1:]:
        t = float(row[1])
        assert t > prev_t
        prev_t = t
        assert "->" in row[2]
        ages = [float(x) for x in row[3:]]
        assert all(x >= 0.0 for x in ages)


def test_trace_file_closed_when_run_fails(tmp_path, tri, monkeypatch):
    opened = []

    class FailingWriter:
        def __init__(self, fh):
            opened.append(fh)
            self.rows = 0

        def writerow(self, row):
            self.rows += 1
            if self.rows > 1:  # the header goes through, the first event fails
                raise RuntimeError("disk full")

    monkeypatch.setattr(csv, "writer", FailingWriter)
    with pytest.raises(RuntimeError, match="disk full"):
        a.simulate(
            tri,
            a.SimConfig(total_events=10, master_seed=15),
            trace_path=str(tmp_path / "trace.csv"),
        )
    assert len(opened) == 1 and opened[0].closed


def test_thin_window_refuses_stderr(tri):
    # 3 kept events cannot fill the 32 batch means behind the stderr; the
    # long burn-in puts the window after every node first hears the source
    thin_cfg = a.SimConfig(total_events=30, master_seed=17, burn_in_fraction=0.9)
    res = a.simulate(tri, thin_cfg)
    assert res.events_used == 3
    assert a.time_average(res, "d") > 0.0
    with pytest.raises(errors.TooFewEvents):
        a.time_average_stderr(res, "d")
    vd = tri.subset_mask(["v", "d"])
    thin = a.simulate(tri, thin_cfg, target=vd)
    assert a.time_average(thin, 0) > 0.0
    with pytest.raises(errors.TooFewEvents):
        a.time_average_stderr(thin, 0)
    cfg = a.SimConfig(total_events=320, master_seed=17, burn_in_fraction=0.9)
    full = a.simulate(tri, cfg)
    assert full.events_used == 32
    assert a.time_average_stderr(full, "d") > 0.0
    assert a.time_average_stderr(a.simulate(tri, cfg, target=vd), 0) > 0.0


@pytest.mark.parametrize("rate", [1e-300, 1e-155])
def test_overflowing_integrals_raise(rate):
    # ages near 1/rate: at 1e-155 the age integral, a sum of squared ages,
    # overflows
    net = triangle(rate, rate, rate, rate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(errors.IntegralOverflow):
            run(net, 1000, 3)
        # at 1e-110 the squares, and so the mean and its stderr, are finite
        res = run(triangle(1e-110, 1e-110, 1e-110, 1e-110), 1000, 3)
    assert math.isfinite(a.time_average_stderr(res, "d"))
    assert a.time_average(res, "d") == pytest.approx(1.75e110, rel=0.5)


def test_underflowing_integrals_raise():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # ages near 1e-300: the age integral underflows to 0
        with pytest.raises(errors.IntegralUnderflow):
            run(triangle(1e300, 1e300, 1e300, 1e300), 1000, 3)
        # ages near 1e-154: the integral is a normal float, the variance of
        # the batch means is not
        net = triangle(1e154, 1e154, 1e154, 1e154)
        res = run(net, 1000, 3)
        assert a.time_average(res, "d") == pytest.approx(1.75e-154, rel=0.5)
        with pytest.raises(errors.IntegralUnderflow):
            a.time_average_stderr(res, "d")
        vd = run(net, 1000, 3, target=net.subset_mask(["v", "d"]))
        with pytest.raises(errors.IntegralUnderflow):
            a.time_average_stderr(vd, 0)
        # ages near 1e-110: the squares stay normal floats, so mean and
        # stderr are computed
        for rate in (1e110, 1e90):
            res = run(triangle(rate, rate, rate, rate), 1000, 3)
            assert a.time_average_stderr(res, "d") > 0.0
            assert a.time_average(res, "d") == pytest.approx(1.75 / rate, rel=0.5)


def assert_target_matches_whole_run(net, cfg, target, thresholds=(1.0, 2.0)):
    # the target run's one column is its nodes' logs merged, and its values
    # integrate that log over the whole run's window
    whole = a.simulate(net, cfg, thresholds=thresholds)
    res = a.simulate(net, cfg, thresholds=thresholds, target=target)
    labels = net.subset_labels(target)
    name = net.subset_name(target)
    assert res.node_names == (name,)
    assert res.window_start == whole.window_start
    assert res.window_length == whole.window_length
    assert res.events_used == whole.events_used
    times, births = merged_log(whole, labels)
    assert len(res.change_times) == len(res.change_births) == 1
    assert np.array_equal(res.change_times[0], times)
    assert np.array_equal(res.change_births[0], births)
    # every node's change point is kept, so no count of changes moves
    node_logs = [whole.change_times[whole.node_index(v)] for v in labels]
    assert len(times) - 1 == sum(len(t) - 1 for t in node_logs)
    mean, stderr, violations = merged_subset_values(
        net, cfg, whole, labels, thresholds
    )
    assert a.time_average(res, 0) == a.time_average(res, name) == mean
    assert a.time_average_stderr(res, 0) == stderr
    for d, want in zip(thresholds, violations):
        assert a.violation_fraction(res, 0, d) == want
    if len(labels) == 1:  # a one-node log is that node's own
        assert np.array_equal(times, whole.change_times[whole.node_index(name)])
        assert a.time_average(whole, name) == mean
        assert a.time_average_stderr(whole, name) == stderr
        for d, want in zip(thresholds, violations):
            assert a.violation_fraction(whole, name, d) == want


R8_TARGETS = [["v%d" % i] for i in range(8)] + [["v6", "v7"]]


@pytest.mark.parametrize("labels", R8_TARGETS, ids=",".join)
def test_target_run_matches_the_whole_network_on_r8(labels):
    # the target's values come only from the nodes that reach it, and the
    # run draws the same events, so they equal the whole run's bit for bit
    net = random_ssn(8, 2024)
    cfg = a.SimConfig(total_events=60_000, master_seed=21)
    assert_target_matches_whole_run(net, cfg, net.subset_mask(labels))


@pytest.mark.parametrize("labels", [["s"], ["v"], ["d"], ["v", "d"], ["s", "d"]])
def test_target_run_matches_the_whole_network_on_tri(tri, labels):
    cfg = a.SimConfig(total_events=20_000, master_seed=22)
    assert_target_matches_whole_run(tri, cfg, tri.subset_mask(labels))


@pytest.mark.parametrize("labels", [["v3"], ["v20"], ["v3", "v20"]], ids=",".join)
def test_target_run_matches_the_whole_network_on_chain50(labels):
    # few of the 101 nodes reach these targets, so most events are dropped
    # before the ancestor network is solved
    net = ORACLE_NETS["chain50"]()
    target = net.subset_mask(labels)
    assert ancestor_network(net, target).n_user < 25
    cfg = a.SimConfig(total_events=60_000, master_seed=25)
    assert_target_matches_whole_run(net, cfg, target)


def test_target_run_refuses_a_trace(tmp_path, tri):
    path = tmp_path / "trace.csv"
    cfg = a.SimConfig(total_events=100, master_seed=0)
    with pytest.raises(ValueError, match="trace"):
        a.simulate(tri, cfg, trace_path=str(path), target=tri.subset_mask(["d"]))
    assert not path.exists()


@pytest.mark.parametrize("target", [0, 1 << 3, 1 << 3 | 1, 1 << 4])
def test_bad_target_refused_like_ancestor_network(tri, target):
    with pytest.raises(Exception) as want:
        ancestor_network(tri, target)
    cfg = a.SimConfig(total_events=100, master_seed=0)
    with pytest.raises(want.type):
        a.simulate(tri, cfg, target=target)


@pytest.mark.parametrize("key", [-1, 1, 1.7, 0.0, True, False, "v", "{d,v}", None])
def test_node_index_refuses_what_names_no_column(tri, key):
    # a target run has one column: its index 0 or its name, and nothing else
    cfg = a.SimConfig(total_events=1000, master_seed=24)
    res = a.simulate(tri, cfg, target=tri.subset_mask(["v", "d"]))
    for ok in (0, np.int64(0), "{v,d}"):
        assert res.node_index(ok) == 0
    for call in (res.node_index, lambda k: a.time_average(res, k)):
        with pytest.raises(KeyError, match=re.escape(repr(key))):
            call(key)
    whole = a.simulate(tri, cfg)
    assert whole.node_index("d") == whole.node_index(2) == 2
    with pytest.raises(KeyError):
        whole.node_index(3)


def test_window_before_the_source_is_heard_refused():
    # v40 ends a chain of 20 equal triangles, so its mean is 1 + 0.75 * 20
    net = triangle_chain(1.0, [(1.0, 1.0, 1.0)] * 20)
    v40 = net.subset_mask(["v40"])
    early = run(net, 2000, 31, target=v40, thresholds=[1.0])
    readers = (
        lambda: a.time_average(early, 0),
        lambda: a.time_average_stderr(early, 0),
        lambda: a.violation_fraction(early, 0, 1.0),
    )
    for read in readers:
        with pytest.raises(errors.WindowNotCoupled) as refused:
            read()
        heard = early.change_times[0][early.change_births[0] > 0][0]
        assert str(refused.value) == (
            f"the kept window of v40 starts at t0 = {early.window_start:.6g}, "
            f"before it first hears the source (at t = {heard:.6g}), so its "
            "ages still carry the initial ones; run more events"
        )
        assert early.window_start < heard
    res = run(net, 200_000, 31, target=v40)
    exact = a.average_age(net, v40)
    assert exact == pytest.approx(16.0)
    assert abs(a.time_average(res, 0) - exact) <= 4 * a.time_average_stderr(res, 0)


@pytest.mark.parametrize("thresholds", [[math.nan], [1.0, -1.0], [-0.5]])
def test_meaningless_thresholds_refused(monkeypatch, tri, thresholds):
    def draw(*args):
        raise AssertionError("an event was drawn")

    monkeypatch.setattr(a.simulator, "_picker", draw)
    cfg = a.SimConfig(total_events=100, master_seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        a.simulate(tri, cfg, thresholds=thresholds)


@pytest.mark.parametrize("n_edges", [1, 2, 16, 300, 3000])
def test_bucket_picks_equal_a_binary_search(n_edges):
    rng = np.random.default_rng(n_edges)
    rates = rng.uniform(0.5, 3.0, n_edges)
    k = max(1024, 1 << (64 * n_edges - 1).bit_length())
    # the second table ends below 1, so draws past its end give n_edges
    short = np.cumsum(rates) / (rates.sum() * 1.001)
    for cum in (np.cumsum(rates) / rates.sum(), short):
        bucket_edges = np.arange(k + 1) / k
        u = np.concatenate(
            [
                rng.random(100_000),
                cum,
                np.nextafter(cum, 0.0),
                np.nextafter(cum, 2.0),
                bucket_edges,
                np.nextafter(bucket_edges, 0.0),
                np.nextafter(bucket_edges, 2.0),
                [0.0, np.nextafter(1.0, 0.0)],
            ]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        want = np.searchsorted(cum, u, side="right")
        got = _picker(cum)(u.copy())
        assert np.array_equal(got, want)
    assert want.max() == n_edges


def same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_same_result(got, want):
    # byte for byte, so signs of zero count too
    assert got.node_names == want.node_names
    assert got.window_start == want.window_start
    assert got.window_length == want.window_length
    assert got.events_used == want.events_used
    assert same_bytes(got.integral_age, want.integral_age)
    assert same_bytes(got.batch_means, want.batch_means)
    assert got.occupancy.keys() == want.occupancy.keys()
    for d in want.occupancy:
        assert same_bytes(got.occupancy[d], want.occupancy[d])
    assert len(got.change_times) == len(want.change_times)
    for mine, theirs in zip(got.change_times, want.change_times):
        assert same_bytes(mine, theirs)
    for mine, theirs in zip(got.change_births, want.change_births):
        assert same_bytes(mine, theirs)


@pytest.mark.parametrize(
    "name, labels",
    [
        ("r8", None),
        ("r8", ["v0"]),
        ("r8", ["v6", "v7"]),
        ("tri", None),
        ("tri", ["v", "d"]),
        ("chain50", ["v3"]),
    ],
)
def test_blocks_are_invisible(tmp_path, monkeypatch, name, labels):
    net = ORACLE_NETS[name]()
    target = None if labels is None else net.subset_mask(labels)
    cfg = a.SimConfig(total_events=1003, master_seed=41)
    thresholds = (0.5, 2.0)
    trace = {} if target is not None else {"trace_path": str(tmp_path / "one.csv")}
    want = a.simulate(net, cfg, thresholds=thresholds, target=target, **trace)

    sizes = []
    solve = a.simulator._births

    def counted(net, times, *args):
        sizes.append(len(times))
        return solve(net, times, *args)

    monkeypatch.setattr(a.simulator, "_births", counted)
    monkeypatch.setattr(a.simulator, "BLOCK_EVENTS", 5)
    monkeypatch.setattr(a.simulator, "BLOCK_EVENTS_PER_NODE", 1)
    if trace:
        trace["trace_path"] = str(tmp_path / "blocks.csv")
    got = a.simulate(net, cfg, thresholds=thresholds, target=target, **trace)
    # many blocks, one edge inside the 100-event burn-in; a block solves
    # only its events into the target's ancestors
    _, picks = reference_draw(net, cfg)
    solved = net if target is None else ancestor_network(net, target)
    heads = np.array([net.edge_key(e)[1] for e in range(len(net.edge_rates))])
    into = np.isin(heads[picks], solved.node_names)
    assert sum(sizes) == into.sum() and len(sizes) > 100
    assert sizes[0] < 1003 - kept_events(cfg)
    if target is None:  # and a partial last one
        assert sum(sizes) == 1003 and sizes[-1] < sizes[0]
    assert_same_result(got, want)

    # and both are the sequential update's logs, merged for a target
    ref_times, ref_births = reference_run(net, cfg, str(tmp_path / "ref.csv"))
    ref = SimpleNamespace(
        change_times=ref_times,
        change_births=ref_births,
        node_index=net.index_of.__getitem__,
    )
    columns = [[v] for v in net.node_names] if target is None else [labels]
    for k, members in enumerate(columns):
        times, births = merged_log(ref, members)
        assert same_bytes(got.change_times[k], np.asarray(times))
        assert same_bytes(got.change_births[k], np.asarray(births))
    if trace:
        ref_trace = (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "blocks.csv").read_bytes() == ref_trace
        assert (tmp_path / "one.csv").read_bytes() == ref_trace


def test_target_run_memory_does_not_grow_with_every_event():
    # the blocks' arrays do not add up: what grows with the run is the event
    # times and the target's change log (48.6 MiB when every event was
    # solved at once)
    net = random_ssn(8, 2024)
    cfg = a.SimConfig(total_events=1_000_000, master_seed=1)
    tracemalloc.start()
    try:
        a.simulate(net, cfg, target=net.subset_mask(["v7"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20

import math
import os
import sys
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoinet as a
from aoinet import errors, sampler
from aoinet.network import VIRTUAL_SOURCE_LABEL, bfs_order
from aoinet.sampler import CHUNK, _relax_distances
from conftest import (
    average_age_all,
    build_net,
    convergence_bound,
    random_ssn,
    triangle,
    two_node,
)


def exp_draws(rng, key, rate, n, start=0):
    """Draws ``start`` .. ``start+n`` of an edge's Exp(rate) stream, by formula."""
    gen = np.random.Generator(rng.edge_bit_generator(key, skip=start))
    return -np.log1p(-gen.random(n)) / rate


def edge_draws(net, rng, n):
    """Re-derive every edge's exponential stream, keyed as the sampler does."""
    return {
        net.edge_key(e): exp_draws(rng, net.edge_key(e), net.edge_rates[e], n)
        for e in range(len(net.edge_rates))
    }


def test_same_seed_bit_identical(tri):
    b1 = a.sample_ages(tri, 5000, a.RngPolicy(42))
    b2 = a.sample_ages(tri, 5000, a.RngPolicy(42))
    assert np.array_equal(b1.ages, b2.ages)


def test_worker_count_does_not_change_batch(monkeypatch, tri):
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
    base = a.sample_ages(tri, 10_001, a.RngPolicy(9))
    for cpus in (2, 3, 8):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
        other = a.sample_ages(tri, 10_001, a.RngPolicy(9))
        assert np.array_equal(base.ages, other.ages)


def test_two_node_unique_path(two):
    n = 2000
    rng = a.RngPolicy(1)
    batch = a.sample_ages(two, n, rng)
    draws = edge_draws(two, rng, n)
    expected = draws[(VIRTUAL_SOURCE_LABEL, "s")] + draws[("s", "d")]
    d_col = two.index_of["d"]
    assert np.allclose(batch.ages[:, d_col], expected)


def test_triangle_min_identity(tri):
    n = 2000
    rng = a.RngPolicy(2)
    batch = a.sample_ages(tri, n, rng)
    draws = edge_draws(tri, rng, n)
    s0 = draws[(VIRTUAL_SOURCE_LABEL, "s")]
    expected_d = s0 + np.minimum(
        draws[("s", "d")], draws[("s", "v")] + draws[("v", "d")]
    )
    assert np.allclose(batch.ages[:, tri.index_of["d"]], expected_d)
    assert np.allclose(batch.ages[:, tri.index_of["s"]], s0)


def test_ages_bounded_below_by_generation_draw(tri):
    n = 3000
    rng = a.RngPolicy(3)
    batch = a.sample_ages(tri, n, rng)
    s0 = exp_draws(rng, (VIRTUAL_SOURCE_LABEL, "s"), tri.lam, n)
    assert (batch.ages >= s0[:, None] - 1e-12).all()


def test_triangle_inequality_over_sampled_edges():
    net = random_ssn(6, 17)
    n = 1000
    rng = a.RngPolicy(4)
    batch = a.sample_ages(net, n, rng)
    for e in range(len(net.edge_rates) - 1):
        u, w = net.edge_tails[e], net.edge_heads[e]
        s_uw = exp_draws(rng, net.edge_key(e), net.edge_rates[e], n)
        assert (
            batch.ages[:, w] <= batch.ages[:, u] + s_uw + 1e-9
        ).all()


def test_estimate_mean_two_node(two):
    batch = a.sample_ages(two, 400_000, a.RngPolicy(5))
    est, se = a.estimate(batch, two.subset_mask(["d"]))
    assert abs(est - 2.0) < 4 * se


def test_estimate_indicator_at_zero(tri):
    batch = a.sample_ages(tri, 1000, a.RngPolicy(6))
    est, se = a.estimate(
        batch, tri.subset_mask(["d"]), lambda x: (x >= 0.0).astype(float)
    )
    assert est == 1.0
    assert se == 0.0


def test_estimate_second_moment_two_node(two):
    batch = a.sample_ages(two, 400_000, a.RngPolicy(7))
    est, se = a.estimate(batch, two.subset_mask(["d"]), lambda x: x**2)
    assert abs(est - 6.0) < 4 * se  # E[Erlang(2,1)^2] = 6


def test_estimate_rejects_virtual_source(tri):
    batch = a.sample_ages(tri, 100, a.RngPolicy(8))
    with pytest.raises(errors.SubsetContainsVirtualSource):
        a.estimate(batch, 1 << tri.theta_prime_index)
    with pytest.raises(errors.EmptySubset):
        a.estimate(batch, 0)


def test_subset_is_min_of_columns(tri):
    batch = a.sample_ages(tri, 10_000, a.RngPolicy(9))
    vd = tri.subset_mask(["v", "d"])
    est, _ = a.estimate(batch, vd)
    manual = np.minimum(
        batch.ages[:, tri.index_of["v"]], batch.ages[:, tri.index_of["d"]]
    ).mean()
    assert est == manual


def test_empirical_cdf_extremes(tri):
    batch = a.sample_ages(tri, 1000, a.RngPolicy(10))
    d = tri.subset_mask(["d"])
    assert a.empirical_cdf(batch, d, -1.0) == 0.0
    assert a.empirical_cdf(batch, d, float("inf")) == 1.0
    with pytest.raises(ValueError):
        a.empirical_cdf(batch, d, math.nan)


def test_empirical_cdf_erlang(two):
    batch = a.sample_ages(two, 1_000_000, a.RngPolicy(11))
    got = a.empirical_cdf(batch, two.subset_mask(["d"]), 1.0)
    assert abs(got - (1.0 - 2.0 * math.exp(-1.0))) < 0.002


def test_means_match_exact_everywhere():
    for seed in (0, 1):
        net = random_ssn(5, seed)
        table = average_age_all(net)
        batch = a.sample_ages(net, 300_000, a.RngPolicy(seed + 100))
        for v in range(net.n_user):
            est, se = a.estimate(batch, 1 << v)
            assert abs(est - table[1 << v]) < 4 * se


def test_coupled_edge_addition_monotone():
    base_edges = [("s", "v", 1.0), ("v", "d", 1.0)]
    net = build_net(1.0, "s", base_edges)
    bigger = build_net(1.0, "s", base_edges + [("s", "d", 1.5)])
    rng = a.RngPolicy(12)
    n = 10_000
    b1 = a.sample_ages(net, n, rng)
    b2 = a.sample_ages(bigger, n, rng)
    # same labels, same streams: every replicate can only get fresher
    for name in net.node_names:
        x = b1.ages[:, net.index_of[name]]
        y = b2.ages[:, bigger.index_of[name]]
        assert (y <= x + 1e-12).all()


def test_exp_tilt_matches_mgf(tri):
    d = tri.subset_mask(["d"])
    s = 0.5 * convergence_bound(tri, d)
    batch = a.sample_ages(tri, 400_000, a.RngPolicy(13))
    est, se = a.estimate(batch, d, lambda x: np.exp(s * x))
    exact = a.mgf(tri, d, s).real
    assert abs(est - exact) < 4 * se


def test_relaxation_matches_heap_dijkstra():
    net = random_ssn(7, 21)
    n = 50
    rng = a.RngPolicy(14)
    batch = a.sample_ages(net, n, rng)
    service = np.empty((len(net.edge_rates), n))
    for e, rate in enumerate(net.edge_rates):
        service[e] = exp_draws(rng, net.edge_key(e), rate, n)
    for i in range(n):
        g = nx.DiGraph()
        for e, (u, v) in enumerate(zip(net.edge_tails, net.edge_heads)):
            g.add_edge(u, v, weight=service[e, i])
        dist = nx.single_source_dijkstra_path_length(g, net.theta_prime_index)
        assert np.allclose([dist[v] for v in range(net.n_user)], batch.ages[i])


def all_edges_bellman_ford(net, service):
    """Plain Bellman-Ford: every edge in edge order, every round."""
    n = service.shape[1]
    dist = np.full((net.n_aug, n), np.inf)
    dist[net.theta_prime_index] = 0.0
    edges = list(zip(net.edge_tails, net.edge_heads))
    for _ in range(net.n_aug - 1):
        changed = False
        for e, (u, v) in enumerate(edges):
            cand = dist[u] + service[e]
            better = cand < dist[v]
            if better.any():
                dist[v] = np.minimum(dist[v], cand)
                changed = True
        if not changed:
            break
    return dist


def reverse_bfs_listed(net):
    """The same network, its edges listed from the deepest tail upwards."""
    rank = {v: r for r, v in enumerate(bfs_order(net))}
    edges = sorted(
        net.base.edges, key=lambda e: -rank[net.index_of[e.frm]]
    )
    return build_net(
        net.lam,
        net.node_names[net.source_index],
        [(e.frm, e.to, e.rate) for e in edges],
        nodes=list(net.node_names),
    )


@pytest.mark.parametrize(
    "make",
    [
        triangle,
        lambda: random_ssn(5, 0),
        lambda: random_ssn(8, 2024),
        lambda: random_ssn(20, 7),
        lambda: reverse_bfs_listed(random_ssn(8, 2024)),
        lambda: reverse_bfs_listed(random_ssn(20, 7)),
    ],
)
def test_relaxation_matches_all_edges_bellman_ford(make):
    net = make()
    n = 3000
    draws = edge_draws(net, a.RngPolicy(23), n)
    service = np.array([draws[net.edge_key(e)] for e in range(len(net.edge_rates))])
    assert np.array_equal(
        _relax_distances(net, service), all_edges_bellman_ford(net, service)
    )


def test_reverse_listing_keeps_the_law():
    net = random_ssn(8, 2024)
    rev = reverse_bfs_listed(net)
    ranks = [bfs_order(rev).index(u) for u in rev.edge_tails[:-1]]
    assert ranks == sorted(ranks, reverse=True) and ranks != sorted(ranks)
    # streams are keyed by edge labels, so the listing does not move a draw
    assert np.array_equal(
        a.sample_ages(net, 5000, a.RngPolicy(24)).ages,
        a.sample_ages(rev, 5000, a.RngPolicy(24)).ages,
    )


def test_multi_chunk_batch_independent_of_workers(monkeypatch):
    net = random_ssn(6, 3)
    n = 2 * CHUNK + 7
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
    base = a.sample_ages(net, n, a.RngPolicy(21))
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 3)
    threaded = a.sample_ages(net, n, a.RngPolicy(21))
    assert np.array_equal(base.ages, threaded.ages)


def test_batch_prefix_is_shorter_batch(two):
    # replicate i takes draw i of every edge stream, across chunk boundaries
    n = CHUNK + 7
    rng = a.RngPolicy(22)
    batch = a.sample_ages(two, n, rng)
    draws = edge_draws(two, rng, n)
    expected = draws[(VIRTUAL_SOURCE_LABEL, "s")] + draws[("s", "d")]
    assert np.array_equal(batch.ages[:, two.index_of["d"]], expected)
    k = CHUNK + 3
    assert np.array_equal(batch.ages[:k], a.sample_ages(two, k, rng).ages)


def test_subset_sample_matches_batch_estimate(tri):
    d = tri.subset_mask(["d"])
    n = 100_000
    rng = a.RngPolicy(16)
    batch_est = a.estimate(a.sample_ages(tri, n, rng), d)
    sub = a.sample_subset(tri, d, n, rng)
    assert a.estimate(sub, 1) == batch_est


@pytest.mark.parametrize(
    "target", [[f"v{i}"] for i in range(8)] + [["v6", "v7"]], ids=str
)
def test_pruned_sample_is_the_batch_column(target):
    # drawing only the ancestors' edges leaves every replicate bit-identical
    net = random_ssn(8, 2024)
    mask = net.subset_mask(target)
    n = CHUNK + 3
    rng = a.RngPolicy(26)
    batch = a.sample_ages(net, n, rng)
    sub = a.sample_subset(net, mask, n, rng)
    assert isinstance(sub, a.SampleBatch) and sub.ages.shape == (n, 1)
    assert np.array_equal(sub.ages[:, 0], sampler._subset_ages(batch, mask))
    for f in (None, lambda x: x**2):
        assert a.estimate(sub, 1, f) == a.estimate(batch, mask, f)
    for d in (0.25, 1.0, 2.5, 4.0):
        pruned = a.empirical_cdf(sub, 1, d)
        assert pruned == a.empirical_cdf(batch, mask, d)


@pytest.mark.parametrize("target", [["v1"], ["v7"], ["v6", "v7"]], ids=str)
def test_streamed_subset_independent_of_workers(monkeypatch, target):
    net = random_ssn(8, 2024)
    mask = net.subset_mask(target)
    n = 2 * CHUNK + 5
    rng = a.RngPolicy(27)
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
    base = a.sample_subset(net, mask, n, rng)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, more of them than CPUs
    try:
        for workers in (2, 3):
            monkeypatch.setattr(sampler, "_usable_cpus", lambda: workers)
            other = a.sample_subset(net, mask, n, rng)
            assert np.array_equal(other.ages, base.ages)
    finally:
        sys.setswitchinterval(interval)
    # a whole-network batch streamed to the subset is the same column
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
    streamed = a.sample_ages(net, n, rng, subset=mask)
    assert np.array_equal(streamed.ages, base.ages)


def test_workers_default_to_the_usable_cpus(monkeypatch, tri):
    assert sampler._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert sampler._usable_cpus() == (os.cpu_count() or 1)
    seen = []
    real_pool = sampler.ThreadPoolExecutor

    def pool(max_workers):
        seen.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sampler, "ThreadPoolExecutor", pool)
    batch = a.sample_ages(tri, CHUNK + 1, a.RngPolicy(28))
    assert seen == [3]
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
    one = a.sample_ages(tri, CHUNK + 1, a.RngPolicy(28))
    assert np.array_equal(batch.ages, one.ages)
    assert seen == [3]  # one CPU runs the chunks on the calling thread


def test_one_column_subset_ages_are_a_view(tri):
    d = tri.subset_mask(["d"])
    sub = a.sample_subset(tri, d, 100, a.RngPolicy(29))
    col = sampler._subset_ages(sub, 1)
    assert col.base is sub.ages and col.flags.c_contiguous
    with pytest.raises(errors.SubsetContainsVirtualSource):
        sampler._subset_ages(sub, 0b10)


def test_subset_sample_refuses_bad_input(tri):
    with pytest.raises(errors.EmptySubset):
        a.sample_subset(tri, 0, 10, a.RngPolicy(1))
    with pytest.raises(ValueError):
        a.sample_subset(tri, tri.subset_mask(["d"]), 0, a.RngPolicy(1))


def test_overflowing_moments_raise():
    # ages near 1e300: the mean fits a float, the square does not
    net = triangle(1e-300, 1e-300, 1e-300, 1e-300)
    d = net.subset_mask(["d"])
    rng = a.RngPolicy(3)
    batch = a.sample_ages(net, 1000, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(errors.IntegralOverflow):
            a.estimate(batch, d)
        with pytest.raises(errors.IntegralOverflow):
            a.estimate(a.sample_subset(net, d, 1000, rng), 1)
        est, stderr = a.estimate(a.sample_ages(net, 1, rng), d)
    assert math.isfinite(est) and stderr == math.inf


def test_underflowing_variance_raises():
    # ages near 1e-300: the mean fits a float, the variance underflows to 0
    net = triangle(1e300, 1e300, 1e300, 1e300)
    d = net.subset_mask(["d"])
    rng = a.RngPolicy(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.IntegralUnderflow):
            a.estimate(a.sample_ages(net, 1000, rng), d)
        with pytest.raises(errors.IntegralUnderflow):
            a.estimate(a.sample_subset(net, d, 1000, rng), 1)
        # a zero variance of equal values is exact, not an underflow
        est, stderr = a.estimate(
            a.sample_ages(net, 1000, rng), d, lambda x: (x >= 0.0).astype(float)
        )
    assert (est, stderr) == (1.0, 0.0)
    est, stderr = a.estimate(
        a.sample_ages(triangle(1e100, 1e100, 1e100, 1e100), 1000, rng), d
    )
    assert est == pytest.approx(1.75e-100, rel=0.1) and stderr > 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), n=st.integers(1, 200))
def test_determinism_property(seed, n):
    net = triangle()
    b1 = a.sample_ages(net, n, a.RngPolicy(seed))
    with pytest.MonkeyPatch.context() as mp:  # hypothesis reruns the body
        mp.setattr(sampler, "_usable_cpus", lambda: 2)
        b2 = a.sample_ages(net, n, a.RngPolicy(seed))
    assert np.array_equal(b1.ages, b2.ages)


def test_in_place_draws_match_the_formula(monkeypatch):
    # the rows _chunks fills in place, in its first chunk and at a later start
    net = triangle(lam=0.7, mu_sv=1.7, mu_vd=2.3, mu_sd=0.4)
    rng = a.RngPolicy(25)
    seen = []

    def keep(net, service):
        seen.append(service.copy())
        return _relax_distances(net, service)

    monkeypatch.setattr(sampler, "_relax_distances", keep)
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
    for _ in sampler._chunks(net, rng, CHUNK + 1000):
        pass
    assert [service.shape for service in seen] == [(4, CHUNK), (4, 1000)]
    for start, service in zip((0, CHUNK), seen):
        for e, rate in enumerate(net.edge_rates):
            want = exp_draws(rng, net.edge_key(e), rate, service.shape[1], start)
            assert np.array_equal(service[e], want)

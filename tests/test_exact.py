import math
import warnings

import numpy as np
import pytest

import aoinet as a
from aoinet import errors, exact
from aoinet.sampler import _chunks
from conftest import (
    average_age_all,
    build_net,
    chernoff_scan,
    convergence_bound,
    random_ssn,
    scalar_phi,
    serial,
    triangle,
    triangle_chain,
    two_node,
    whole_walk,
)


def reached_set_cdf(net, mask, grid):
    """Pr[age <= d] from the forward chain of reached node sets, by expm.

    The set of nodes a packet has reached by time t is a Markov chain on
    the augmented graph that starts at the virtual source; the age of
    ``mask`` is its hitting time of the sets that meet ``mask``.
    """
    from scipy.linalg import expm

    start = 1 << net.theta_prime_index
    index, order, rates = {start: 0}, [start], []
    for k, m in enumerate(order):  # grows while it is walked
        if m & mask:
            continue  # absorbing
        for e, r in enumerate(net.edge_rates):
            u, v = net.edge_tails[e], net.edge_heads[e]
            if m >> u & 1 and not m >> v & 1:
                nxt = m | 1 << v
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                rates.append((k, index[nxt], r))
    q = np.zeros((len(order), len(order)))
    for i, j, r in rates:
        q[i, j] += r
        q[i, i] -= r
    hit = np.array([m & mask != 0 for m in order])
    return np.array([expm(q * d)[0, hit].sum() for d in grid])


def erlang2_cdf(x, rate=1.0):
    # sum of two Exp(rate): closed form oracle
    return 1.0 - (1.0 + rate * x) * math.exp(-rate * x)


class TestAverageAge:
    def test_serial_cascade_three_relays(self):
        net = serial(1.0, [2.0, 2.0, 2.0, 2.0])
        d = net.subset_mask(["v4"])
        assert a.average_age(net, d) == pytest.approx(3.0, abs=1e-12)

    def test_source_subset_is_inverse_lambda(self, tri_distinct):
        lam = tri_distinct.lam
        s = tri_distinct.subset_mask(["s"])
        sd = tri_distinct.subset_mask(["s", "d"])
        assert a.average_age(tri_distinct, s) == pytest.approx(1.0 / lam)
        assert a.average_age(tri_distinct, sd) == pytest.approx(1.0 / lam)

    def test_triangle_distinct_rates(self, tri_distinct):
        d = tri_distinct.subset_mask(["d"])
        assert a.average_age(tri_distinct, d) == pytest.approx(1.3, abs=1e-12)

    def test_triangle_pair_subset(self, tri):
        vd = tri.subset_mask(["v", "d"])
        # first edge out of the source to fire refreshes the pair
        assert a.average_age(tri, vd) == pytest.approx(1.5, abs=1e-12)

    def test_two_node(self, two):
        assert a.average_age(two, two.subset_mask(["d"])) == pytest.approx(2.0)

    def test_all_matches_single(self):
        net = random_ssn(6, 3)
        table = average_age_all(net)
        for mask in range(1, 1 << net.n_user):
            assert table[mask] == pytest.approx(
                a.average_age(net, mask), rel=1e-12
            )

    def test_size_limit(self, monkeypatch):
        net = random_ssn(6, 1)
        src = 1 << net.source_index
        # every non-source node: the region from the source holds all 6
        rest = ((1 << net.n_user) - 1) & ~src
        monkeypatch.setenv("AOI_MAX_EXACT_NODES", "5")
        with pytest.raises(errors.NetworkTooLarge, match="6 nodes in one region"):
            a.average_age(net, rest)
        with pytest.raises(errors.NetworkTooLarge, match="6 nodes in one region"):
            a.mgf(net, rest, 0.0)
        with pytest.raises(errors.NetworkTooLarge, match="6 nodes in one region"):
            a.cdf_grid(net, rest, [1.0])
        with pytest.raises(errors.NetworkTooLarge, match="6 nodes in one region"):
            a.chernoff_bound(net, rest, 1.0)
        # the source's region is the source alone
        assert a.average_age(net, src) == 1.0 / net.lam
        assert a.mgf(net, src, 0.5) == net.lam / (net.lam - 0.5)
        assert a.cdf_grid(net, src, [1.0])[0] == pytest.approx(
            -math.expm1(-net.lam), rel=1e-14
        )
        assert a.chernoff_bound(net, src, 0.0) == 1.0
        monkeypatch.setenv("AOI_MAX_EXACT_NODES", "6")
        a.average_age(net, rest)
        assert a.mgf(net, rest, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert a.cdf_grid(net, rest, [0.0])[0] == 0.0
        assert 0.0 < a.chernoff_bound(net, rest, 20.0) < 1.0

    def test_env_override(self, monkeypatch):
        def bypassed(n):  # v0 -> ... -> v{n-1}, plus v0 -> v{n-1}: one region
            return build_net(
                1.0, "v0", [(f"v{i}", f"v{i+1}", 1.0) for i in range(n - 1)]
                + [("v0", f"v{n - 1}", 1.0)]
            )

        chain = bypassed(21)
        last = 1 << (chain.n_user - 1)
        monkeypatch.delenv("AOI_MAX_EXACT_NODES", raising=False)
        for query in (
            lambda: a.average_age(chain, last),
            lambda: a.mgf(chain, last, 0.0),
            lambda: a.cdf_grid(chain, last, [1.0]),
            lambda: a.chernoff_bound(chain, last, 1.0),
        ):
            with pytest.raises(errors.NetworkTooLarge, match="21 nodes.*limit 20"):
                query()
        # without the bypass, every region is one edge long
        plain = serial(1.0, [1.0] * 20)
        end = 1 << (plain.n_user - 1)
        assert a.mgf(plain, end, 0.0) == pytest.approx(1.0, abs=1e-15)
        a.cdf_grid(plain, end, [1.0])
        monkeypatch.setenv("AOI_MAX_EXACT_NODES", "21")
        assert a.mgf(chain, last, 0.0) == pytest.approx(1.0, abs=1e-15)
        a.cdf_grid(chain, last, [1.0])
        # the setting is capped at 28 nodes
        longer = bypassed(29)
        monkeypatch.setenv("AOI_MAX_EXACT_NODES", "100")
        with pytest.raises(errors.NetworkTooLarge, match="29 nodes.*limit 28"):
            a.mgf(longer, 1 << (longer.n_user - 1), 0.0)
        with pytest.raises(errors.NetworkTooLarge, match="29 nodes.*limit 28"):
            a.cdf_grid(longer, 1 << (longer.n_user - 1), [1.0])


class TestMgf:
    def test_at_zero_is_one(self):
        for seed in range(3):
            net = random_ssn(5, seed)
            for mask in range(1, 1 << net.n_user):
                assert a.mgf(net, mask, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_source_subset_closed_form(self):
        net = two_node(lam=2.0, mu=1.0)
        s_mask = net.subset_mask(["s"])
        assert a.mgf(net, s_mask, 1.0) == pytest.approx(2.0)

    def test_two_node_product_of_mgfs(self, two):
        d = two.subset_mask(["d"])
        # age is the sum of two Exp(1): product of the factors at s = 0.5
        assert a.mgf(two, d, 0.5) == pytest.approx(4.0, rel=1e-12)

    def test_two_node_vs_sampled_tilt(self, two):
        d = two.subset_mask(["d"])
        s = 0.5 * convergence_bound(two, d)
        batch = a.sample_ages(two, 400_000, a.RngPolicy(5))
        est, se = a.estimate(batch, d, lambda x: np.exp(s * x))
        exact = a.mgf(two, d, s).real
        assert abs(est - exact) < 4 * se

    def test_outside_convergence_region(self, two):
        d = two.subset_mask(["d"])
        with pytest.raises(errors.OutsideConvergenceRegion):
            a.mgf(two, d, 1.0)

    def test_nan_argument_rejected(self, tri):
        d = tri.subset_mask(["d"])
        for s in (math.nan, complex(0.1, math.nan), complex(math.nan, 1.0)):
            with pytest.raises(ValueError, match="NaN"):
                a.mgf(tri, d, s)

    def test_complex_argument_allowed(self, two):
        d = two.subset_mask(["d"])
        val = a.mgf(two, d, 2.0j)
        # CF of Erlang(2,1): (1/(1-iw))^2
        assert val == pytest.approx((1.0 / (1.0 - 2.0j)) ** 2)

    def test_derivative_at_zero_is_mean(self):
        h = 1e-4
        for seed in range(3):
            net = random_ssn(6, seed)
            table = average_age_all(net)
            for mask in range(1, 1 << net.n_user):
                fp = a.mgf(net, mask, h).real
                fm = a.mgf(net, mask, -h).real
                deriv = (fp - fm) / (2 * h)
                assert deriv == pytest.approx(table[mask], rel=1e-6)

    def test_derivative_at_zero_is_mean_on_a_long_chain(self):
        rng = np.random.default_rng(7)
        net = triangle_chain(1.3, rng.uniform(0.5, 3.0, size=(100, 3)).tolist())
        last = 1 << (net.n_user - 1)
        h = 1e-6
        fp = a.mgf(net, last, h).real
        fm = a.mgf(net, last, -h).real
        assert (fp - fm) / (2 * h) == pytest.approx(a.average_age(net, last), rel=1e-7)


class TestConvergenceBound:
    def test_two_node_bound_is_lambda(self):
        net = two_node(lam=1.0, mu=3.0)
        d = net.subset_mask(["d"])
        assert convergence_bound(net, d) == pytest.approx(1.0)

    def test_source_subset_bound_is_lambda(self, tri_distinct):
        s = tri_distinct.subset_mask(["s"])
        assert convergence_bound(tri_distinct, s) == pytest.approx(
            tri_distinct.lam
        )

    def test_triangle_chain_minimum(self, tri):
        # reachable subsets {d} and {v,d} both have boundary rate 2; lambda wins
        d = tri.subset_mask(["d"])
        assert convergence_bound(tri, d) == pytest.approx(1.0)

    def test_mgf_diverges_at_bound(self):
        net = two_node(lam=1.0, mu=3.0)
        d = net.subset_mask(["d"])
        close = a.mgf(net, d, 1.0 - 1e-9).real
        assert close > 1e6


def oracle_mean(net, a_mask):
    """The whole-network mean walk the dominator split replaced."""
    return whole_walk(net)(a_mask)


def star_of_blocks():
    # a cut vertex "a" below a two-path source block, with three blocks under it
    return build_net(
        1.0,
        "s",
        [
            ("s", "a", 1.0),
            ("s", "f", 1.2),
            ("f", "a", 0.8),
            ("a", "b", 2.0),
            ("b", "c", 1.5),
            ("a", "c", 0.7),
            ("a", "d", 1.1),
            ("d", "e", 0.9),
            ("a", "e", 1.7),
            ("a", "g", 0.6),
        ],
    )


def late_second_path():
    # b is first reached from a, but its other path through c and d is found
    # later in breadth-first order, so its dominator is the source, not a
    return build_net(
        0.8,
        "s",
        [("s", "a", 1.0), ("a", "b", 2.0), ("s", "c", 1.5), ("c", "d", 0.7)]
        + [("d", "b", 1.2), ("b", "e", 0.9)],
    )


def source_in_the_middle():
    return build_net(
        1.3,
        "m",
        [("m", "a", 1.0), ("a", "b", 2.5), ("m", "c", 0.4), ("c", "d", 1.0)],
    )


SOURCE_ONLY_NETS = {
    "tri": triangle,
    "r5-0": lambda: random_ssn(5, 0),
    "r6-3": lambda: random_ssn(6, 3),
    "r8-2024": lambda: random_ssn(8, 2024),
    "r6-5": lambda: random_ssn(6, 5),
}
DOMINATED_NETS = {
    "r6-6": lambda: random_ssn(6, 6),
    "r7-11": lambda: random_ssn(7, 11),
    "chain5": lambda: triangle_chain(
        0.9, [(1.0, 2.0, 3.0), (2.0, 1.0, 0.5), (1.5, 1.5, 1.5), (1, 1, 1), (3, 2, 1)]
    ),
    "star": star_of_blocks,
    "middle": source_in_the_middle,
    "late": late_second_path,
}


def other_dominators(net):
    idom, _ = exact._idoms(net)
    return {idom[v] for v in range(net.n_user)} - {
        net.source_index,
        net.theta_prime_index,
    }


class TestDominatorSplit:
    @pytest.mark.parametrize("name", sorted(SOURCE_ONLY_NETS))
    def test_bit_identical_when_only_the_source_dominates(self, name):
        net = SOURCE_ONLY_NETS[name]()
        assert not other_dominators(net)
        for mask in range(1, 1 << net.n_user):
            assert a.average_age(net, mask) == oracle_mean(net, mask)

    @pytest.mark.parametrize("name", sorted(DOMINATED_NETS))
    def test_agrees_with_whole_network_walk(self, name):
        net = DOMINATED_NETS[name]()
        assert other_dominators(net)
        for mask in range(1, 1 << net.n_user):
            want = oracle_mean(net, mask)
            assert a.average_age(net, mask) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", sorted(SOURCE_ONLY_NETS) + sorted(DOMINATED_NETS))
    def test_node_query_equals_all_nodes_table(self, name):
        net = {**SOURCE_ONLY_NETS, **DOMINATED_NETS}[name]()
        table = a.chain_average_ages(net)
        assert sorted(table) == [1 << v for v in range(net.n_user)]
        for v in range(net.n_user):
            assert table[1 << v] == a.average_age(net, 1 << v)

    def test_idoms_by_brute_force(self):
        # d dominates v iff v is unreachable from the source once d is removed
        nets = [random_ssn(n, seed) for n, seed in [(6, 6), (7, 11), (9, 4)]]
        for net in nets + [late_second_path(), star_of_blocks()]:
            idom, _ = exact._idoms(net)
            src = net.source_index
            for v in range(net.n_user):
                if v == src:
                    assert idom[v] == net.theta_prime_index
                    continue
                doms = {
                    d for d in range(net.n_user) if d != v and not reaches(net, v, d)
                }
                # the immediate one is dominated by every other strict dominator
                assert idom[v] in doms
                assert all(d == idom[v] or not reaches(net, idom[v], d) for d in doms)

    def test_walk_size_guard(self, monkeypatch):
        net = triangle_chain(1.0, [(1, 1, 1)] * 3)
        last = net.subset_mask(["v6"])
        # every walk on the way to v6 spans one triangle
        monkeypatch.setenv("AOI_MAX_EXACT_NODES", "3")
        assert a.average_age(net, last) == pytest.approx(1.0 + 0.75 * 3)
        a.chain_average_ages(net)
        monkeypatch.setenv("AOI_MAX_EXACT_NODES", "2")
        with pytest.raises(errors.NetworkTooLarge):
            a.average_age(net, last)
        with pytest.raises(errors.NetworkTooLarge):
            a.chain_average_ages(net)
        # v1 and v6 meet at the source, and the walk from them spans all 7
        pair = net.subset_mask(["v1", "v6"])
        monkeypatch.setenv("AOI_MAX_EXACT_NODES", "6")
        with pytest.raises(errors.NetworkTooLarge):
            a.average_age(net, pair)
        monkeypatch.setenv("AOI_MAX_EXACT_NODES", "7")
        assert a.average_age(net, pair) == pytest.approx(
            oracle_mean(net, pair), rel=1e-12
        )


def reaches(net, v, removed):
    """Whether node ``v`` is reachable from the source without ``removed``."""
    if removed == net.source_index:
        return False
    seen = {net.source_index}
    stack = [net.source_index]
    while stack:
        u = stack.pop()
        for e in range(len(net.edge_rates) - 1):
            w = net.edge_heads[e]
            if net.edge_tails[e] == u and w != removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return v in seen


def oracle_mgf(net, a_mask, s):
    """The memoized MGF recursion the cut plan replaced, kept as an oracle."""
    src_bit = 1 << net.source_index
    edges = [
        (net.edge_tails[e], net.edge_heads[e], net.edge_rates[e])
        for e in range(len(net.edge_rates) - 1)
    ]
    memo = {}

    def rec(mask):
        if mask & src_bit:
            return net.lam / (net.lam - s)
        got = memo.get(mask)
        if got is not None:
            return got
        mu = 0.0
        acc = 0.0 + 0.0j
        for u, v, r in edges:
            if mask >> v & 1 and not mask >> u & 1:
                mu += r
                acc += r * rec(mask | (1 << u))
        val = acc / (mu - s)
        memo[mask] = val
        return val

    return rec(a_mask)


def oracle_path_mgf(net, a_mask, s):
    """The MGF recursion of :func:`oracle_mgf` split along the dominator path.

    The recursion from ``a_mask`` runs over the in-edges of the nodes that
    reach it without passing d, the nearest node that strictly dominates
    every node of ``a_mask`` (found by brute force), and a subset holding d
    takes d's own MGF: the distances before and after d are independent.
    """
    src = net.source_index
    if a_mask >> src & 1:
        return net.lam / (net.lam - s)
    nodes = [v for v in range(net.n_user) if a_mask >> v & 1]
    common = [
        u for u in range(net.n_user)
        if u not in nodes and not any(reaches(net, v, u) for v in nodes)
    ]  # a chain: the nearest has the most dominators
    d = max(common, key=lambda u: sum(not reaches(net, u, w) for w in common))
    seen, stack = set(nodes), list(nodes)
    while stack:
        v = stack.pop()
        for e in range(len(net.edge_rates) - 1):
            u = net.edge_tails[e]
            if net.edge_heads[e] == v and u != d and u not in seen:
                seen.add(u)
                stack.append(u)
    edges = [
        (net.edge_tails[e], net.edge_heads[e], net.edge_rates[e])
        for e in range(len(net.edge_rates) - 1)
        if net.edge_heads[e] in seen
    ]
    base = oracle_path_mgf(net, 1 << d, s)
    memo = {}

    def rec(mask):
        if mask >> d & 1:
            return base
        got = memo.get(mask)
        if got is not None:
            return got
        mu = 0.0
        acc = 0.0 + 0.0j
        for u, v, r in edges:
            if mask >> v & 1 and not mask >> u & 1:
                mu += r
                acc += r * rec(mask | (1 << u))
        val = acc / (mu - s)
        memo[mask] = val
        return val

    return rec(a_mask)


def oracle_bound(net, a_mask):
    """The depth-first convergence-bound walk the cut plan replaced."""
    src_bit = 1 << net.source_index
    edges = [
        (net.edge_tails[e], net.edge_heads[e], net.edge_rates[e])
        for e in range(len(net.edge_rates) - 1)
    ]
    bound = net.lam
    seen = set()
    stack = [a_mask]
    while stack:
        mask = stack.pop()
        if mask & src_bit or mask in seen:
            continue
        seen.add(mask)
        mu = 0.0
        for u, v, r in edges:
            if mask >> v & 1 and not mask >> u & 1:
                mu += r
                sup = mask | (1 << u)
                if sup not in seen:
                    stack.append(sup)
        bound = min(bound, mu)
    return bound


PLAN_NETS = {
    "tri": triangle,
    "r5-0": lambda: random_ssn(5, 0),
    "r6-3": lambda: random_ssn(6, 3),
    "r7-11": lambda: random_ssn(7, 11),
    "r8-2024": lambda: random_ssn(8, 2024),
}


def plan_targets(net):
    n = net.n_user
    return [1 << v for v in range(n)] + [(1 << (n - 1)) | (1 << (n - 2))]


@pytest.mark.parametrize("name", sorted(PLAN_NETS))
class TestCutPlan:
    """The compiled plan reproduces the recursion bit for bit."""

    def test_phi_matches_recursion_exactly(self, name):
        # bit for bit against the recursion split along the dominator path,
        # and to rounding against the whole-network recursion
        net = PLAN_NETS[name]()
        for mask in plan_targets(net):
            plan = exact._cut_plan(net, mask)
            bound = oracle_bound(net, mask)
            # imaginary s (mgf takes complex s), real s as plain floats
            # and as the numpy floats of the Chernoff grid
            points = [1j * w for w in (1e-9, 0.37, 2.0, 55.5, 1e4)]
            points += [-3.0, 0.0, 0.5 * bound, bound * (1.0 - 1e-6)]
            points += list(np.geomspace(bound * 1e-8, bound * 0.999, 5))
            for s in points:
                got = exact._phi(plan, net.lam, s)
                assert got == oracle_path_mgf(net, mask, s)
                whole = oracle_mgf(net, mask, s)
                assert abs(got - whole) <= 1e-15 * abs(whole)
            for s in (0.25j, -1.5 + 3j, 0.5 * bound):
                got = a.mgf(net, mask, s)
                assert got == oracle_path_mgf(net, mask, complex(s))

    def test_array_phi_matches_scalar_exactly(self, name):
        # the Chernoff scan's grid in one pass, against one float s and one
        # complex-accumulated s at a time
        net = PLAN_NETS[name]()
        for mask in plan_targets(net):
            plan = exact._cut_plan(net, mask)
            s_max = exact._bound(plan, net.lam) * (1.0 - 1e-6)
            grid = np.geomspace(s_max * 1e-8, s_max, 64)
            got = exact._phi(plan, net.lam, grid)
            assert got.dtype == np.float64 and got.shape == grid.shape
            for value, s in zip(got.tolist(), grid.tolist()):
                assert math.isfinite(value)
                assert value == exact._phi(plan, net.lam, s)
                assert value == scalar_phi(plan, net.lam, s).real

    def test_chernoff_matches_scalar_scan_exactly(self, name):
        net = PLAN_NETS[name]()
        for mask in plan_targets(net):
            for d in (0.0, 0.5, 2.0, 4.0, 40.0):
                assert a.chernoff_bound(net, mask, d) == chernoff_scan(net, mask, d)

    def test_convergence_bound_matches_walk_exactly(self, name):
        net = PLAN_NETS[name]()
        for mask in plan_targets(net) + [1 << net.source_index]:
            assert convergence_bound(net, mask) == oracle_bound(net, mask)


@pytest.mark.parametrize("net", [random_ssn(6, 42), triangle()], ids=["r6", "tri"])
def test_cut_plan_boundary_sums(net):
    src = 1 << net.source_index
    for mask in range(1, 1 << net.n_user):
        plan = exact._cut_plan(net, mask)
        assert (plan == []) == bool(mask & src)  # a subset with the source is a base
        for mu, terms in plan:
            assert mu > 0
            total = 0.0
            for r, _ in terms:
                total += r
            assert mu == total
    # every user edge enters exactly one non-source singleton
    singles = sum(
        exact._cut_plan(net, 1 << v)[-1][0]
        for v in range(net.n_user)
        if v != net.source_index
    )
    assert singles + net.lam == pytest.approx(net.total_rate, rel=1e-14)


def test_one_plan_per_query(monkeypatch):
    net = random_ssn(8, 2024)
    plans = []
    build = exact._cut_plan

    def counted(*args):
        plans.append(args)
        return build(*args)

    monkeypatch.setattr(exact, "_cut_plan", counted)
    monkeypatch.setattr(exact, "average_age", None)  # no mean walk either
    exact.cdf_grid(net, 1 << 7, [0.5, 2.0])
    exact.chernoff_bound(net, 1 << 7, 4.0)
    exact.mgf(net, 1 << 7, 0.1)
    assert len(plans) == 3


class TestCdfInversion:
    def test_at_zero(self, tri):
        d = tri.subset_mask(["d"])
        assert a.cdf_grid(tri, d, [0.0]).tolist() == [0.0]

    def test_two_node_erlang(self, two):
        d = two.subset_mask(["d"])
        (got,) = a.cdf_grid(two, d, [1.0])
        assert got == pytest.approx(erlang2_cdf(1.0), abs=1e-6)

    def test_triangle_vs_empirical(self, tri):
        d = tri.subset_mask(["d"])
        (got,) = a.cdf_grid(tri, d, [2.0])
        batch = a.sample_ages(tri, 1_000_000, a.RngPolicy(23))
        emp = a.empirical_cdf(batch, d, 2.0)
        assert abs(got - emp) < 0.005

    def test_monotone_and_in_unit_interval(self):
        for net in (two_node(), triangle(), random_ssn(4, 9)):
            d_mask = 1 << (net.n_user - 1)
            grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
            vals = a.cdf_grid(net, d_mask, grid).tolist()
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:]))

    def test_strictly_inside_at_mean_proxy(self):
        for net in (two_node(), triangle(), random_ssn(4, 9)):
            proxy = 1.0 / net.lam + sum(
                1.0 / r for r in net.edge_rates[:-1]
            )
            for v in range(net.n_user):
                (val,) = a.cdf_grid(net, 1 << v, [proxy])
                assert 0.0 < val < 1.0

    @pytest.mark.parametrize(
        "net", [triangle(), random_ssn(4, 9), random_ssn(5, 0), random_ssn(8, 2024)]
    )
    def test_matches_matrix_exponential(self, net):
        grid = np.arange(0.0, 4.125, 0.25)
        top = 1 << (net.n_user - 1)
        for mask in [1 << v for v in range(net.n_user)] + [top | top >> 1]:
            got = a.cdf_grid(net, mask, grid)
            want = reached_set_cdf(net, mask, grid)
            assert np.abs(got - want).max() < 1e-12
            assert np.all(np.diff(got) >= 0.0)
            assert 0.0 <= got.min() and got.max() <= 1.0

    @pytest.mark.parametrize(
        "rates",
        [
            [(1.0, 2.5, 0.7), (3.0, 0.4, 1.6)],
            [(0.5, 2.0, 1.0), (1.5, 1.5, 0.3), (2.2, 0.9, 4.0)],
        ],
        ids=["2", "3"],
    )
    def test_triangle_chain_matches_matrix_exponential(self, rates):
        # v2, v4, ... dominate the rest: one plan chains a region per triangle
        net = triangle_chain(0.8, rates)
        grid = np.arange(0.0, 8.25, 0.5)
        across = net.subset_mask(["v1", "v3"])  # on both sides of glue v2
        for mask in [1 << v for v in range(net.n_user)] + [across]:
            got = a.cdf_grid(net, mask, grid)
            want = reached_set_cdf(net, mask, grid)
            assert np.abs(got - want).max() < 1e-12

    def test_long_serial_chain_is_erlang(self):
        from scipy.special import gammainc

        chain = serial(1.0, [1.0] * 25)  # Exp(1) and 25 hops: Erlang(26, 1)
        grid = np.arange(0.0, 60.5, 2.5)
        got = a.cdf_grid(chain, 1 << (chain.n_user - 1), grid)
        want = gammainc(26, grid)
        assert np.abs(got - want).max() < 1e-14
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_two_node_tiny_and_huge_thresholds(self, two):
        d = two.subset_mask(["d"])
        x = 1e-9
        tiny, huge = a.cdf_grid(two, d, [x, 1e6])
        assert tiny == pytest.approx(x * x / 2 - x**3 / 3, rel=1e-6)
        assert huge == 1.0

    def test_triangle_huge_threshold_is_one(self, tri):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert a.cdf_grid(tri, tri.subset_mask(["d"]), [1e6]).tolist() == [1.0]

    def test_stiff_triangle_still_computed(self):
        net = triangle(mu_sd=1e5)
        grid = np.arange(0.0, 4.125, 0.25)
        got = a.cdf_grid(net, net.subset_mask(["d"]), grid)
        want = reached_set_cdf(net, net.subset_mask(["d"]), grid)
        assert np.abs(got - want).max() < 1e-9
        assert np.all(np.diff(got) >= 0.0)

    def test_stiffer_than_the_jump_cap_refused(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_JUMPS", 1000)
        net = triangle(mu_sd=1e4)
        with pytest.raises(errors.TooStiff, match="over 1000 uniformization jumps"):
            a.cdf_grid(net, net.subset_mask(["d"]), [1.0])

    def test_negative_threshold_rejected(self, two):
        with pytest.raises(ValueError):
            a.cdf_grid(two, two.subset_mask(["d"]), [-1.0])


class TestChernoff:
    def test_at_zero_clamped(self, tri):
        d = tri.subset_mask(["d"])
        assert a.chernoff_bound(tri, d, 0.0) == 1.0

    def test_two_node_erlang_tail(self, two):
        d = two.subset_mask(["d"])
        exact_tail = 11 * math.exp(-10)  # Pr[Erlang(2,1) >= 10]
        bound = a.chernoff_bound(two, d, 10.0)
        assert bound >= exact_tail
        assert bound < 50 * exact_tail

    def test_sound_against_erlang_tail_grid(self, two):
        d_mask = two.subset_mask(["d"])
        for x in (1.0, 2.0, 4.0, 8.0, 12.0):
            exact_tail = (1.0 + x) * math.exp(-x)
            assert a.chernoff_bound(two, d_mask, x) >= exact_tail

    def test_negative_or_nan_threshold_rejected(self, tri):
        d = tri.subset_mask(["d"])
        for x in (-1.0, math.nan):
            with pytest.raises(ValueError):
                a.chernoff_bound(tri, d, x)

    def test_monotone_decreasing_in_d(self, tri):
        d = tri.subset_mask(["d"])
        vals = [a.chernoff_bound(tri, d, x) for x in (2.0, 4.0, 8.0, 16.0)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_dominates_inversion_tail(self):
        for net in (two_node(), triangle()):
            mask = 1 << (net.n_user - 1)
            for x in (1.0, 3.0, 6.0):
                cb = a.chernoff_bound(net, mask, x)
                tail = 1.0 - a.cdf_grid(net, mask, [x])[0]
                assert cb >= tail - 1e-6


    def test_optimum_found_where_phi_overflows_on_the_grid(self):
        # Erlang(300, 1): phi = (1 - s)^-300 overflows on the top of the scan
        # grid, and the optimum s = 1 - 300 / d lies below it
        net = serial(1.0, [1.0] * 299)
        last = 1 << 299
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (400.0, 600.0, 900.0):
                s = 1.0 - 300.0 / d
                optimum = math.exp(-s * d - 300.0 * math.log1p(-s))
                got = a.chernoff_bound(net, last, d)
                assert got == pytest.approx(optimum, rel=1e-12)


class TestStructuralProperties:
    def test_subset_monotonicity(self):
        for seed in range(3):
            net = random_ssn(5, seed)
            table = average_age_all(net)
            full = (1 << net.n_user) - 1
            for mask in range(1, full + 1):
                for bit in range(net.n_user):
                    sup = mask | (1 << bit)
                    if sup != mask:
                        assert table[sup] <= table[mask] + 1e-12

    def test_source_floor(self):
        net = random_ssn(5, 7)
        table = average_age_all(net)
        floor = 1.0 / net.lam
        src_bit = 1 << net.source_index
        for mask in range(1, 1 << net.n_user):
            if mask & src_bit:
                assert table[mask] == pytest.approx(floor)
            else:
                assert table[mask] > floor

    def test_edge_addition_monotonicity(self):
        base_edges = [("s", "v", 1.0), ("v", "d", 1.0), ("s", "d", 1.0)]
        net = build_net(1.0, "s", base_edges)
        before = [a.average_age(net, 1 << i) for i in range(net.n_user)]
        names = list(net.node_names)
        present = {(f, t) for f, t, _ in base_edges}
        for u in names:
            for w in names:
                if u == w or w == "s" or (u, w) in present:
                    continue
                bigger = build_net(1.0, "s", base_edges + [(u, w, 2.0)])
                after = [
                    a.average_age(bigger, 1 << bigger.index_of[x]) for x in names
                ]
                for x, y in zip(after, before):
                    assert x <= y + 1e-12

    def test_brute_force_small_networks(self):
        # sampled shortest paths as the independent oracle, N = 1e7
        net = random_ssn(4, 5)
        table = average_age_all(net)
        masks = list(range(1, 1 << net.n_user))
        cols = {m: [i for i in range(net.n_user) if m >> i & 1] for m in masks}
        n = 10_000_000
        sums = {m: 0.0 for m in masks}
        sums_sq = {m: 0.0 for m in masks}
        for _, dist in _chunks(net, a.RngPolicy(77), n):
            for m in masks:
                vals = dist[cols[m]].min(axis=0)
                sums[m] += float(vals.sum())
                sums_sq[m] += float((vals * vals).sum())
        for m in masks:
            est = sums[m] / n
            var = (sums_sq[m] - n * est * est) / (n - 1)
            se = math.sqrt(var / n)
            assert abs(est - table[m]) < 4 * se

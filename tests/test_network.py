import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoinet as a
from aoinet import errors, exact
from aoinet.network import VIRTUAL_SOURCE_LABEL, ancestor_network, bfs_order
from conftest import build_net, net_json, random_ssn, serial, triangle, two_node


def test_parse_minimal_two_node():
    spec = a.parse_network(net_json(1.0, "s", [("s", "d", 1.0)]))
    assert spec.nodes == ("s", "d")
    assert len(spec.edges) == 1
    assert spec.lam == 1.0


def test_parse_triangle():
    spec = a.parse_network(
        net_json(1.0, "s", [("s", "v", 1), ("v", "d", 2), ("s", "d", 3)])
    )
    assert len(spec.nodes) == 3
    assert len(spec.edges) == 3


def test_parse_negative_rate_rejected():
    with pytest.raises(errors.NonPositiveRate):
        a.parse_network(net_json(1.0, "s", [("s", "d", -1.0)]))


def test_validate_rejects_non_finite_rates():
    ok = a.parse_network(net_json(1.0, "s", [("s", "d", 1.0)]))
    nan_edge = a.EdgeSpec("s", "d", float("nan"))
    huge_edge = a.EdgeSpec("s", "d", 1e308)  # two of them merge to inf
    for spec in (
        a.NetworkSpec(ok.nodes, ok.edges, ok.source, float("inf")),
        a.NetworkSpec(ok.nodes, (nan_edge,), ok.source, 1.0),
        a.NetworkSpec(ok.nodes, (huge_edge, huge_edge), ok.source, 1.0),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the huge pair merges first
            with pytest.raises(errors.NonFiniteRate):
                a.validate_ssn(spec)


def test_parse_malformed():
    with pytest.raises(errors.MalformedNetwork):
        a.parse_network("{not json")
    with pytest.raises(errors.MalformedNetwork):
        a.parse_network('{"lambda": 1}')
    with pytest.raises(errors.MalformedNetwork):
        a.parse_network(
            '{"lambda": 1, "source": "s", "edges": [{"from": "s", "to": "d", "rate": "x"}]}'
        )


def test_nodes_inferred_in_order_of_appearance():
    spec = a.parse_network(net_json(1.0, "s", [("s", "v", 1), ("v", "d", 1)]))
    assert spec.nodes == ("s", "v", "d")


def test_validate_serial_cascade():
    net = serial(1.0, [2.0, 2.0, 2.0, 2.0])  # n=3 relays + destination
    assert net.n_aug == 6
    assert net.total_rate == pytest.approx(1.0 + 8.0)


def test_validate_spec_example_two_relays():
    # n=2 relays: 4 user nodes, |V'| = 5
    net = serial(1.0, [2.0, 2.0, 2.0])
    assert net.n_aug == 5
    assert net.total_rate == pytest.approx(1.0 + 6.0)


def test_multiple_sources_rejected():
    with pytest.raises(errors.MultipleSources) as exc:
        build_net(1.0, "a", [("a", "c", 1), ("b", "c", 1)])
    assert "'a'" in str(exc.value) and "'b'" in str(exc.value)


def test_source_with_incoming_rejected():
    with pytest.raises(errors.SourceHasIncomingEdge):
        build_net(1.0, "a", [("a", "b", 1), ("b", "a", 1)])


def test_self_loop_rejected():
    with pytest.raises(errors.SelfLoop):
        build_net(1.0, "a", [("a", "b", 1), ("b", "b", 1)])


def test_unreachable_node_rejected():
    with pytest.raises(errors.UnreachableNode) as exc:
        # c and d feed each other but nothing reaches them from the source
        build_net(1.0, "a", [("a", "b", 1), ("c", "d", 1), ("d", "c", 1)])
    msg = str(exc.value)
    assert "'c'" in msg and "'d'" in msg


def test_parallel_edges_merged_with_warning():
    with pytest.warns(UserWarning, match="parallel edges"):
        net = build_net(1.0, "s", [("s", "d", 1.0), ("s", "d", 2.0)])
    assert len(net.edge_rates) == 2  # merged user edge + virtual edge
    assert net.edge_rates[0] == pytest.approx(3.0)


def test_theta_prime_indexing():
    net = triangle()
    assert net.theta_prime_index == net.n_user == 3
    assert net.edge_tails[-1] == net.theta_prime_index
    assert net.edge_heads[-1] == net.source_index
    assert net.edge_rates[-1] == net.lam


def test_subset_name_is_one_label_or_a_braced_list(tri):
    # the name every report row and a target run's column carry
    assert tri.subset_name(tri.subset_mask(["d"])) == "d"
    assert tri.subset_name(tri.subset_mask(["d", "v"])) == "{v,d}"
    assert tri.subset_name(0b111) == "{s,v,d}"


def boundary_rate(net, mask):
    """Rate sum into ``mask`` from outside it: lambda if it holds the source,
    else the top entry of its cut plan."""
    if mask >> net.source_index & 1:
        return net.lam
    return exact._cut_plan(net, mask)[-1][0]


def test_singleton_boundaries_cover_total_rate():
    for seed in range(5):
        net = random_ssn(6, seed)
        total = sum(boundary_rate(net, 1 << i) for i in range(net.n_user))
        assert total == pytest.approx(net.total_rate)


def test_validate_idempotent(tri):
    again = a.validate_ssn(tri.base)
    assert again.fingerprint == tri.fingerprint
    assert again.node_names == tri.node_names
    assert again.edge_rates == tri.edge_rates


def test_fingerprint_is_pinned(tri, tri_distinct):
    # the canonical form is part of `validate`'s output; these values must
    # not move
    assert tri.fingerprint == "fae9a1722f9cade3"
    assert tri_distinct.fingerprint == "9ea871eb7e1b62ac"
    with pytest.warns(UserWarning, match="parallel edges"):
        merged = build_net(
            1.0, "s", [("s", "v", 1), ("v", "d", 1), ("s", "d", 1), ("s", "d", 2)]
        )
    assert merged.fingerprint == "533a03aac610009d"
    direct = build_net(1.0, "s", [("s", "v", 1), ("v", "d", 1), ("s", "d", 3)])
    assert direct.fingerprint == merged.fingerprint


def test_merge_invariance_exact_values():
    with pytest.warns(UserWarning):
        merged = build_net(
            1.0, "s", [("s", "v", 1), ("v", "d", 1), ("s", "d", 1), ("s", "d", 2)]
        )
    direct = build_net(1.0, "s", [("s", "v", 1), ("v", "d", 1), ("s", "d", 3)])
    for mask in range(1, 1 << 3):
        assert a.average_age(merged, mask) == pytest.approx(
            a.average_age(direct, mask), rel=1e-12
        )


def test_merge_invariance_sampled_means():
    # unmerged parallel pair vs single summed edge: same law
    with pytest.warns(UserWarning):
        merged = build_net(1.0, "s", [("s", "d", 1.0), ("s", "d", 2.0)])
    direct = build_net(1.0, "s", [("s", "d", 3.0)])
    d1 = merged.subset_mask(["d"])
    n = 200_000
    e1, s1 = a.estimate(a.sample_ages(merged, n, a.RngPolicy(11)), d1)
    e2, s2 = a.estimate(a.sample_ages(direct, n, a.RngPolicy(11)), d1)
    assert abs(e1 - e2) < 4 * (s1**2 + s2**2) ** 0.5


def test_boundary_positive_for_any_subset_without_virtual_source():
    net = random_ssn(6, 42)
    for mask in range(1, 1 << net.n_user):
        assert boundary_rate(net, mask) > 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
def test_random_ssn_always_validates(seed, n):
    net = random_ssn(n, seed)
    assert net.n_user == n
    assert net.total_rate > 0


def test_reserved_label_rejected():
    with pytest.raises(errors.MalformedNetwork):
        build_net(
            1.0,
            "s",
            [("s", VIRTUAL_SOURCE_LABEL, 1.0)],
        )


def test_bfs_order_from_virtual_node():
    net = build_net(
        1.0, "s", [("b", "c", 1), ("s", "a", 1), ("a", "b", 1), ("s", "c", 1)]
    )
    order = [net.label(v) for v in bfs_order(net)]
    assert order == [VIRTUAL_SOURCE_LABEL, "s", "a", "c", "b"]
    for n_nodes, seed in [(8, 2024), (20, 7)]:
        net = random_ssn(n_nodes, seed)
        assert sorted(bfs_order(net)) == list(range(net.n_aug))


def edge_rates_by_key(net):
    return {net.edge_key(e): net.edge_rates[e] for e in range(len(net.edge_rates))}


def test_ancestor_network_of_the_source_is_the_virtual_edge(tri):
    sub = ancestor_network(tri, tri.subset_mask(["s"]))
    assert sub.node_names == ("s",)
    assert [sub.edge_key(e) for e in range(len(sub.edge_rates))] == [
        (VIRTUAL_SOURCE_LABEL, "s")
    ]
    assert sub.edge_rates == (tri.lam,)


def test_ancestor_network_drops_side_branches():
    # b and c sit on a side branch from the source; d only follows t
    net = build_net(
        2.0,
        "s",
        [("s", "a", 1), ("s", "b", 2), ("a", "t", 3), ("b", "c", 4), ("t", "d", 5)],
    )
    sub = ancestor_network(net, net.subset_mask(["t"]))
    assert sub.node_names == ("s", "a", "t")
    assert edge_rates_by_key(sub) == {
        ("s", "a"): 1.0,
        ("a", "t"): 3.0,
        (VIRTUAL_SOURCE_LABEL, "s"): 2.0,
    }
    assert a.average_age(sub, sub.subset_mask(["t"])) == a.average_age(
        net, net.subset_mask(["t"])
    )
    pair = ancestor_network(net, net.subset_mask(["c", "t"]))
    assert pair.node_names == ("s", "a", "b", "t", "c")


def test_ancestor_networks_of_r8_keep_edge_streams():
    net = random_ssn(8, 2024)
    full = edge_rates_by_key(net)
    sizes = []
    for mask in [1 << v for v in range(net.n_user)] + [net.subset_mask(["v6", "v7"])]:
        keys = edge_rates_by_key(ancestor_network(net, mask))
        assert keys.items() <= full.items()
        sizes.append(len(keys))
    # 16 edges in all, the virtual edge included
    assert sizes == [1, 16, 5, 5, 8, 10, 2, 16, 16]


def test_ancestor_network_merges_parallel_edges_silently():
    with pytest.warns(UserWarning, match="parallel edges"):
        net = build_net(1.0, "s", [("s", "d", 1), ("s", "d", 2), ("s", "e", 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the caller's network already warned
        sub = ancestor_network(net, net.subset_mask(["d"]))
        whole = ancestor_network(net, net.subset_mask(["d", "e"]))
    assert edge_rates_by_key(sub) == {(VIRTUAL_SOURCE_LABEL, "s"): 1.0, ("s", "d"): 3.0}
    assert whole.fingerprint == net.fingerprint


def test_ancestor_network_rejects_bad_subsets(tri):
    with pytest.raises(errors.EmptySubset):
        ancestor_network(tri, 0)
    with pytest.raises(errors.SubsetContainsVirtualSource):
        ancestor_network(tri, 1 << tri.theta_prime_index)

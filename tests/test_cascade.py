"""Means of every node by dominator regions (``chain_average_ages``).

The shapes a block-chain decomposition used to refuse (one block, a star of
blocks, the source between two blocks) are ordinary inputs here; their
means must equal the full subset table's singletons.
"""

import pytest

import aoinet as a
from aoinet import exact
from conftest import average_age_all, build_net, serial, triangle_chain


def assert_matches_full_table(net):
    table = a.chain_average_ages(net)
    full = average_age_all(net)
    for v in range(net.n_user):
        assert table[1 << v] == pytest.approx(full[1 << v], rel=1e-12, abs=0)


def test_single_block_is_not_a_chain(tri):
    assert_matches_full_table(tri)


def test_branching_blocks_rejected():
    # three blocks sharing one cut vertex: block graph is a star, not a path
    net = build_net(
        1.0,
        "s",
        [
            ("s", "a", 1.0),
            ("a", "b", 1.0),
            ("a", "c", 1.0),
            ("a", "d", 1.0),
        ],
    )
    assert_matches_full_table(net)


def test_serial_three_relays_is_four_blocks():
    net = serial(1.0, [2.0, 2.0, 2.0, 2.0])
    idom, _ = exact._idoms(net)
    # each relay's region is one edge, based at the node before it
    assert [net.label(idom[net.index_of[f"v{i}"]]) for i in range(1, 5)] == [
        "v0",
        "v1",
        "v2",
        "v3",
    ]
    table = a.chain_average_ages(net)
    assert table[net.subset_mask(["v4"])] == pytest.approx(3.0, abs=1e-12)


def test_matches_exact_engine_on_singletons():
    nets = [
        serial(1.3, [0.7, 2.1, 1.4]),
        triangle_chain(0.9, [(1.0, 2.0, 3.0), (2.0, 1.0, 0.5), (1.5, 1.5, 1.5)]),
        triangle_chain(1.0, [(1, 1, 1)] * 5),
    ]
    for net in nets:
        table = a.chain_average_ages(net)
        for v in range(net.n_user):
            assert table[1 << v] == pytest.approx(
                a.average_age(net, 1 << v), abs=1e-9
            )


def test_equal_rate_triangle_chain_closed_form():
    for n in (2, 3, 10):
        net = triangle_chain(1.0, [(1, 1, 1)] * n)
        table = a.chain_average_ages(net)
        last = net.subset_mask([f"v{2 * n}"])
        assert table[last] == pytest.approx(1.0 + 0.75 * n, abs=1e-12)


def test_chain_table_rejects_non_singletons():
    net = triangle_chain(1.0, [(1, 1, 1), (1, 1, 1)])
    table = a.chain_average_ages(net)
    pair = net.subset_mask(["v1", "v2"])
    assert pair not in table


def test_long_chain_beats_exact_size_limit():
    # 30 triangles: 61 nodes, far past what the subset recursion allows
    n = 30
    net = triangle_chain(1.0, [(1, 1, 1)] * n)
    table = a.chain_average_ages(net)
    assert table[net.subset_mask([f"v{2 * n}"])] == pytest.approx(1.0 + 0.75 * n)


def test_source_must_be_in_end_block():
    # source sits at the middle cut vertex, so no chain orientation exists
    net = build_net(
        1.0,
        "m",
        [("m", "a", 1.0), ("a", "b", 1.0), ("m", "c", 1.0), ("c", "d", 1.0)],
    )
    assert_matches_full_table(net)

"""Property tests: the batched mean walk against the memoized recursion.

Networks are drawn as trees of small random blocks glued at cut vertices,
so that nodes other than the source dominate, with the odd edge across
blocks that removes some of them.  Subsets are drawn at random, so that
the starts of one pass sit at different popcounts and share supersets.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoinet as a
from aoinet import exact
from aoinet.network import in_edges
from conftest import build_net, mean_walk, whole_walk


@st.composite
def block_trees(draw):
    """A network of 1-4 blocks of 1-3 new nodes each, with its source v0."""
    n = 1
    pairs = {}
    for _ in range(draw(st.integers(1, 4))):
        entry = draw(st.integers(0, n - 1))
        block = [entry] + list(range(n, n + draw(st.integers(1, 3))))
        for i, v in enumerate(block[1:], start=1):
            pairs[block[draw(st.integers(0, i - 1))], v] = None  # reach each node
        for _ in range(draw(st.integers(0, 3))):
            u, v = draw(st.sampled_from(block)), draw(st.sampled_from(block))
            if u != v and v != 0:
                pairs[u, v] = None  # inside the block, into its entry too
        n = block[-1] + 1
    for _ in range(draw(st.integers(0, 1))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(1, n - 1))
        if u != v:
            pairs[u, v] = None  # across blocks: a dominator may vanish
    rate = st.floats(0.5, 3.0)
    edges = [(f"v{u}", f"v{v}", draw(rate)) for u, v in pairs]
    return build_net(draw(st.floats(0.5, 2.0)), "v0", edges)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_average_age_equals_the_recursion(data):
    net = data.draw(block_trees())
    walk = whole_walk(net)
    masks = st.lists(st.integers(1, (1 << net.n_user) - 1), min_size=1, max_size=6)
    for mask in data.draw(masks):
        got, want = a.average_age(net, mask), walk(mask)
        if len(exact._path(net, mask)) == 1:  # only the source dominates
            assert got == want
        else:
            assert abs(got - want) <= 1e-12 * want


@settings(max_examples=60, deadline=None)
@given(net=block_trees())
def test_all_nodes_table_equals_each_query(net):
    table = a.chain_average_ages(net)
    assert sorted(table) == [1 << v for v in range(net.n_user)]
    for v in range(net.n_user):
        assert table[1 << v] == a.average_age(net, 1 << v)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_pass_equals_the_recursion_per_region(data):
    # every dominator's region at once, each with its children and with
    # random subsets of its nodes as further starts
    net = data.draw(block_trees())
    idom, _ = exact._idoms(net)
    into = in_edges(net)
    children = {}
    for v in range(net.n_user):
        if v != net.source_index:
            children.setdefault(idom[v], []).append(v)
    regions = []
    for d, vs in children.items():
        _, edges = exact._region(net, into, vs, d)
        heads = sorted({v for _, v, _ in edges})
        picks = st.lists(st.sets(st.sampled_from(heads), min_size=1), max_size=3)
        starts = [(v,) for v in vs] + [tuple(nodes) for nodes in data.draw(picks)]
        regions.append((edges, d, exact._base(net, d), starts))
    want = []
    for edges, d, base, starts in regions:
        walk = mean_walk(edges, 1 << d, base)
        want += [walk(sum(1 << v for v in s)) for s in starts]
    assert exact._walk_means(regions) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_BLOCK", 8)  # levels of many blocks, of mixed regions
        assert exact._walk_means(regions) == want


def test_dense_region_memory_is_bounded():
    # one 15-node region: 2^14 supersets of 105 edges, evaluated in blocks
    edges = [
        (f"v{i}", f"v{j}", 1.0 + 0.01 * (15 * i + j))
        for i in range(15)
        for j in range(i + 1, 15)
    ]
    net = build_net(1.0, "v0", edges)
    tracemalloc.start()
    try:
        table = a.chain_average_ages(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6
    walk = whole_walk(net)
    assert table == {1 << v: walk(1 << v) for v in range(net.n_user)}

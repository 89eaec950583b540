"""Linear-time exact averages for chain-of-blocks networks.

When the user graph decomposes into an ordered chain of blocks where
consecutive blocks share exactly one cut vertex, every path from the source
to a node in block i passes through the chain of cut vertices, so the
expected shortest-path weight is a prefix sum of per-block expected min-path
weights plus a within-block term.  Each per-block term comes from the same
subset recursion as the global engine, run on the block subgraph with base
value zero at the block's entry vertex.

Networks without this shape raise :class:`NotAChain`; callers fall back to
the global exact engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAChain
from .exact import AgeTable, _mean_walk, _user_edges
from .network import AugmentedNetwork


@dataclass(frozen=True)
class BlockChain:
    """Ordered blocks with single shared cut vertices between neighbours."""

    blocks: tuple[frozenset[int], ...]  # user-node indices
    cut_vertices: tuple[int, ...]  # len(blocks) - 1 entries
    entry_vertices: tuple[int, ...]  # source, then the cut vertices


def decompose_chain(net: AugmentedNetwork) -> BlockChain:
    """Find the chain of biconnected blocks separating the source.

    Uses the biconnected components of the underlying undirected graph (the
    finest decomposition, maximizing the number of blocks).  Valid only if
    the block-cut structure is a simple path with the source in an end
    block; otherwise raises :class:`NotAChain`.
    """
    import networkx as nx  # imported on first use; only this engine needs it

    g = nx.Graph()
    g.add_nodes_from(range(net.n_user))
    for e in range(len(net.edge_rates) - 1):
        g.add_edge(net.edge_tails[e], net.edge_heads[e])
    blocks = [frozenset(b) for b in nx.biconnected_components(g)]
    if len(blocks) < 2:
        raise NotAChain(
            f"{len(blocks)} block(s); no chain decomposition with >= 2 blocks"
        )

    # adjacency between blocks sharing a cut vertex
    adj: dict[int, set[int]] = {i: set() for i in range(len(blocks))}
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if blocks[i] & blocks[j]:
                adj[i].add(j)
                adj[j].add(i)
    degs = {i: len(a) for i, a in adj.items()}
    ends = [i for i, d in degs.items() if d <= 1]
    if any(d > 2 for d in degs.values()) or len(ends) != 2:
        raise NotAChain("block-cut structure is not a simple path")

    # walk the path from one end; orient so the source block comes first
    order = [ends[0]]
    prev = None
    while len(order) < len(blocks):
        nxts = [j for j in adj[order[-1]] if j != prev]
        if len(nxts) != 1:
            raise NotAChain("block-cut structure is not connected as a path")
        prev = order[-1]
        order.append(nxts[0])
    src = net.source_index
    if src in blocks[order[-1]] and src not in blocks[order[0]]:
        order.reverse()
    if src not in blocks[order[0]]:
        raise NotAChain("source does not lie in an end block")

    ordered = tuple(blocks[i] for i in order)
    cuts = []
    for b1, b2 in zip(ordered, ordered[1:]):
        shared = b1 & b2
        if len(shared) != 1:
            raise NotAChain("consecutive blocks share more than one vertex")
        cuts.append(next(iter(shared)))
    entries = (src,) + tuple(cuts)
    return BlockChain(ordered, tuple(cuts), entries)


def _block_min_path_means(
    edges: list[tuple[int, int, float]], block: frozenset[int], entry: int
) -> dict[int, float]:
    """E[min-path weight] from ``entry`` to every block node.

    Subset recursion restricted to the block's induced directed subgraph,
    with base value 0 at the entry vertex (the generation-rate term of the
    global recursion drops out).
    """
    inside = [(u, v, r) for u, v, r in edges if u in block and v in block]
    rec = _mean_walk(inside, 1 << entry, 0.0)
    return {v: rec(1 << v) for v in block}


def chain_average_ages(
    net: AugmentedNetwork, chain: BlockChain | None = None
) -> AgeTable:
    """Exact singleton average ages by staged prefix sums over the chain."""
    if chain is None:
        chain = decompose_chain(net)
    values: dict[int, float] = {}
    prefix = 0.0
    inv_lam = 1.0 / net.lam
    edges = _user_edges(net)
    for i, block in enumerate(chain.blocks):
        entry = chain.entry_vertices[i]
        within = _block_min_path_means(edges, block, entry)
        for v in block:
            values[1 << v] = inv_lam + prefix + within[v]
        if i < len(chain.cut_vertices):
            prefix += within[chain.cut_vertices[i]]
    return AgeTable(values, net.fingerprint)

"""Network parsing, validation and augmentation.

The user describes a weighted directed graph with a designated source and a
Poisson generation rate ``lambda``.  Validation checks the single-source
requirements (unique in-degree-zero node, full reachability from it, no self
loops, positive finite rates and a finite total rate), merges parallel edges
by summing their rates, and then augments the graph with a virtual node
feeding the source through an edge of rate ``lambda``.  Every engine operates
on the resulting :class:`AugmentedNetwork`, which is immutable after
construction.

Node indexing: user nodes get dense indices in order of appearance; the
virtual node always gets the highest index, so bitmasks over user nodes form
a contiguous prefix.

The engines share a few graph helpers: breadth-first order, in-edge lists,
the nodes that reach a subset, and the ancestor network of a subset, on
which one-target queries sample and simulate.  Sums over the edges that
enter a subset belong to the exact engine's cut plan.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

from .errors import (
    EmptySubset,
    MalformedNetwork,
    MultipleSources,
    NonFiniteRate,
    NonPositiveRate,
    SelfLoop,
    SourceHasIncomingEdge,
    SubsetContainsVirtualSource,
    UnreachableNode,
)

VIRTUAL_SOURCE_LABEL = "__virtual_source__"


@dataclass(frozen=True)
class EdgeSpec:
    """A directed edge with an exponential service rate."""

    frm: str
    to: str
    rate: float


@dataclass(frozen=True)
class NetworkSpec:
    """User-facing network description, prior to validation."""

    nodes: tuple[str, ...]
    edges: tuple[EdgeSpec, ...]
    source: str
    lam: float


@dataclass(frozen=True)
class AugmentedNetwork:
    """Validated network plus the virtual source and its rate-lambda edge.

    Immutable; safe for concurrent read-only use by all engines.
    """

    node_names: tuple[str, ...]  # user nodes, index order
    source_index: int
    lam: float
    # augmented edges as parallel tuples; the virtual edge is last
    edge_tails: tuple[int, ...]
    edge_heads: tuple[int, ...]
    edge_rates: tuple[float, ...]
    total_rate: float
    index_of: dict[str, int] = field(repr=False)

    @property
    def n_user(self) -> int:
        return len(self.node_names)

    @property
    def n_aug(self) -> int:
        return self.n_user + 1

    @property
    def theta_prime_index(self) -> int:
        return self.n_user

    @property
    def base(self) -> NetworkSpec:
        """The user network, parallel edges merged, without the virtual edge."""
        return NetworkSpec(
            self.node_names,
            tuple(
                EdgeSpec(*self.edge_key(e), self.edge_rates[e])
                for e in range(len(self.edge_rates) - 1)  # the virtual edge is last
            ),
            self.node_names[self.source_index],
            self.lam,
        )

    @property
    def fingerprint(self) -> str:
        """Short hash of :attr:`base` that does not depend on its edge order."""
        base = self.base
        canonical = {
            "lambda": base.lam,
            "source": base.source,
            "nodes": list(base.nodes),
            "edges": sorted([e.frm, e.to, e.rate] for e in base.edges),
        }
        return hashlib.sha256(
            json.dumps(canonical, sort_keys=True).encode()
        ).hexdigest()[:16]

    def label(self, index: int) -> str:
        if index == self.theta_prime_index:
            return VIRTUAL_SOURCE_LABEL
        return self.node_names[index]

    def edge_key(self, e: int) -> tuple[str, str]:
        """Stable identity of edge ``e``, used to key random streams."""
        return (self.label(self.edge_tails[e]), self.label(self.edge_heads[e]))

    def subset_mask(self, labels) -> int:
        """Bitmask over user-node indices for the given labels."""
        mask = 0
        for name in labels:
            if name not in self.index_of:
                raise KeyError(f"unknown node label {name!r}")
            mask |= 1 << self.index_of[name]
        return mask

    def subset_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(
            self.node_names[i] for i in range(self.n_user) if mask >> i & 1
        )

    def subset_name(self, mask: int) -> str:
        """The subset's label, or its labels as ``{a,b}`` when it has several."""
        labels = self.subset_labels(mask)
        if len(labels) == 1:
            return labels[0]
        return "{" + ",".join(labels) + "}"


def parse_network(text: str) -> NetworkSpec:
    """Parse the JSON network format into a :class:`NetworkSpec`.

    Structural checks only; model validation is done by :func:`validate_ssn`.
    The ``nodes`` list may be omitted, in which case nodes are inferred from
    the edges and the source, in order of appearance.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise MalformedNetwork(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedNetwork("top-level value must be a JSON object")
    for key in ("lambda", "source", "edges"):
        if key not in doc:
            raise MalformedNetwork(f"missing required field {key!r}")
    lam = doc["lambda"]
    if not isinstance(lam, (int, float)) or isinstance(lam, bool):
        raise MalformedNetwork("'lambda' must be a number")
    source = doc["source"]
    if not isinstance(source, str):
        raise MalformedNetwork("'source' must be a string label")
    if not isinstance(doc["edges"], list):
        raise MalformedNetwork("'edges' must be a list")

    edges = []
    for i, item in enumerate(doc["edges"]):
        if not isinstance(item, dict):
            raise MalformedNetwork(f"edge #{i} must be an object")
        for key in ("from", "to", "rate"):
            if key not in item:
                raise MalformedNetwork(f"edge #{i} missing field {key!r}")
        frm, to, rate = item["from"], item["to"], item["rate"]
        if not isinstance(frm, str) or not isinstance(to, str):
            raise MalformedNetwork(f"edge #{i} endpoints must be string labels")
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise MalformedNetwork(f"edge #{i} rate must be a number")
        what = f"rate of edge ({frm!r} -> {to!r})"
        edges.append(EdgeSpec(frm, to, _check_rate(rate, what)))

    if "nodes" in doc:
        nodes = doc["nodes"]
        if not isinstance(nodes, list) or not all(
            isinstance(x, str) for x in nodes
        ):
            raise MalformedNetwork("'nodes' must be a list of string labels")
        if len(set(nodes)) != len(nodes):
            raise MalformedNetwork("duplicate node labels")
        node_order = list(nodes)
    else:
        node_order = []
        seen = set()
        for name in [source] + [x for e in edges for x in (e.frm, e.to)]:
            if name not in seen:
                seen.add(name)
                node_order.append(name)

    return NetworkSpec(
        tuple(node_order), tuple(edges), source, _check_rate(lam, "lambda")
    )


def _check_rate(rate: float, what: str) -> float:
    """``rate`` as a float, refusing non-finite and non-positive values."""
    try:
        value = float(rate)
    except OverflowError as exc:  # an integer beyond the float range
        raise NonFiniteRate(f"{what} overflows a float") from exc
    if not math.isfinite(value):
        raise NonFiniteRate(f"{what} must be finite, got {value}")
    if not value > 0:
        raise NonPositiveRate(f"{what} must be positive, got {value}")
    return value


def validate_ssn(spec: NetworkSpec) -> AugmentedNetwork:
    """Validate the single-source requirements and build the augmented graph.

    Parallel edges are merged by summing their rates (the minimum of
    independent exponentials of rates mu1 and mu2 is exponential of rate
    mu1 + mu2, so the network law is unchanged); a warning is emitted.
    The result stores only the augmented graph; its ``base`` and
    ``fingerprint`` are computed when read.
    Idempotent: re-validating the ``base`` of the result is a no-op, and
    warns nothing, since ``base`` has no parallel edges.
    """
    _check_rate(spec.lam, "lambda")
    if spec.source not in spec.nodes:
        raise MalformedNetwork(f"source {spec.source!r} not among nodes")
    if len(set(spec.nodes)) != len(spec.nodes):
        raise MalformedNetwork("duplicate node labels")
    if VIRTUAL_SOURCE_LABEL in spec.nodes:
        raise MalformedNetwork(f"label {VIRTUAL_SOURCE_LABEL!r} is reserved")

    node_set = set(spec.nodes)
    merged: dict[tuple[str, str], float] = {}
    order: list[tuple[str, str]] = []
    for e in spec.edges:
        if e.frm not in node_set or e.to not in node_set:
            raise MalformedNetwork(
                f"edge ({e.frm!r} -> {e.to!r}) references an undeclared node"
            )
        if e.frm == e.to:
            raise SelfLoop(f"self loop at node {e.frm!r}")
        _check_rate(e.rate, f"rate of edge ({e.frm!r} -> {e.to!r})")
        key = (e.frm, e.to)
        if key in merged:
            merged[key] += e.rate
        else:
            merged[key] = e.rate
            order.append(key)
    if len(order) != len(spec.edges):
        warnings.warn(
            "parallel edges merged by summing their rates (equivalent in law)",
            UserWarning,
            stacklevel=2,
        )

    in_deg = {name: 0 for name in spec.nodes}
    for _, to in order:
        in_deg[to] += 1
    roots = [name for name in spec.nodes if in_deg[name] == 0]
    if len(roots) >= 2:
        raise MultipleSources(
            "multiple in-degree-zero nodes: " + ", ".join(repr(r) for r in roots)
        )
    if in_deg[spec.source] > 0:
        raise SourceHasIncomingEdge(
            f"declared source {spec.source!r} has incoming edges"
        )

    # reachability from the source over merged edges
    adj: dict[str, list[str]] = {name: [] for name in spec.nodes}
    for frm, to in order:
        adj[frm].append(to)
    reached = {spec.source}
    stack = [spec.source]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in reached:
                reached.add(v)
                stack.append(v)
    missing = [name for name in spec.nodes if name not in reached]
    if missing:
        raise UnreachableNode(
            "nodes unreachable from the source: "
            + ", ".join(repr(m) for m in missing)
        )

    index_of = {name: i for i, name in enumerate(spec.nodes)}
    n = len(spec.nodes)
    tails, heads, rates = [], [], []
    for frm, to in order:
        tails.append(index_of[frm])
        heads.append(index_of[to])
        rates.append(merged[(frm, to)])
    # virtual edge last: theta' -> theta with rate lambda
    tails.append(n)
    heads.append(index_of[spec.source])
    rates.append(spec.lam)

    total_rate = float(sum(rates))
    if not math.isfinite(total_rate):
        raise NonFiniteRate(f"total rate overflows to {total_rate}")

    return AugmentedNetwork(
        node_names=spec.nodes,
        source_index=index_of[spec.source],
        lam=spec.lam,
        edge_tails=tuple(tails),
        edge_heads=tuple(heads),
        edge_rates=tuple(rates),
        total_rate=total_rate,
        index_of=index_of,
    )


def bfs_order(net: AugmentedNetwork) -> tuple[int, ...]:
    """Augmented node indices in breadth-first order from the virtual node.

    Out-neighbours are visited in edge order.  Validation makes every node
    reachable, so this is a permutation of ``range(net.n_aug)`` that starts
    with the virtual node and then the source.
    """
    adj: list[list[int]] = [[] for _ in range(net.n_aug)]
    for u, v in zip(net.edge_tails, net.edge_heads):
        adj[u].append(v)
    order = [net.theta_prime_index]
    seen = set(order)
    for u in order:  # the list grows while it is walked
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return tuple(order)


def check_subset(net: AugmentedNetwork, a: int) -> None:
    """Reject empty subsets and subsets containing the virtual source."""
    if a == 0:
        raise EmptySubset("subset must be non-empty")
    if a >> net.theta_prime_index & 1:
        raise SubsetContainsVirtualSource(
            "subset must not contain the virtual source"
        )
    if a >> net.n_aug:
        raise KeyError(f"subset mask {a:#x} has bits beyond the node range")


def in_edges(net: AugmentedNetwork) -> list[list[int]]:
    """Indices of each augmented node's incoming edges, in edge order."""
    into: list[list[int]] = [[] for _ in range(net.n_aug)]
    for e, v in enumerate(net.edge_heads):
        into[v].append(e)
    return into


def reaching(
    net: AugmentedNetwork, into: list[list[int]], nodes, stop: int = -1
) -> set[int]:
    """The nodes that reach ``nodes`` (included) without passing ``stop``.

    ``into`` is :func:`in_edges` of ``net``.
    """
    stack = list(nodes)
    seen = set(stack)
    while stack:
        for e in into[stack.pop()]:
            u = net.edge_tails[e]
            if u != stop and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def ancestors(net: AugmentedNetwork, a: int) -> set[int]:
    """The user nodes that reach subset ``a``, its own nodes included.

    Raises as :func:`check_subset` for a bad subset.
    """
    check_subset(net, a)
    kept = [v for v in range(net.n_user) if a >> v & 1]
    return reaching(net, in_edges(net), kept, stop=net.theta_prime_index)


def ancestor_network(net: AugmentedNetwork, a: int) -> AugmentedNetwork:
    """The network induced by the user nodes that reach subset ``a``.

    A path into ``a`` uses only edges into these nodes, so the subset's age
    law is unchanged.  Labels, rates, lambda and the virtual edge are kept,
    so every edge keeps its ``edge_key``; node indices are renumbered.  Every
    kept node is reachable from the source through kept nodes, so the
    result is a valid network.  ``net``'s edges are merged already, so
    validating the induced network warns nothing.
    """
    names = {net.node_names[v] for v in ancestors(net, a)}
    spec = net.base
    return validate_ssn(
        NetworkSpec(
            tuple(x for x in spec.nodes if x in names),
            tuple(e for e in spec.edges if e.to in names),
            spec.source,
            spec.lam,
        )
    )

"""Value taxonomy data model, structural validation, and graph queries.

A value taxonomy is a directed acyclic graph of value concepts. Interior
nodes carry human-readable labels ("fairness", "reciprocity"); leaves may
instead reference a concrete, machine-checkable property from a catalog.
Each node can be annotated with an importance in [-1, 1]: positive for
aspired concepts, negative for detested ones, zero for indifference.

Taxonomies are immutable after construction and all queries are pure, so
they are safe to share across threads. Construction checks every invariant,
the graph-level rules of :func:`validate` included, and raises on any
violation, so no taxonomy a caller holds is invalid and no query checks
again. A value is checked once, by the record that holds it, at its field.
The constructor derives all structure once, and only this module builds it:
one pass over the edges gives both adjacency maps, and one Kahn pass the
parents-first order, which decides acyclicity. Each edge is stored once, in the
children map: ``edges`` is a read-only property that reads its pairs from
there, and a repeated edge is found through a set of the given pairs that lives
only while the constructor runs. The structure holds one string per node id,
the node's own ``id``: every adjacency entry and order entry, and so every pair
``edges`` reads, is that object, not an equal copy. :func:`validate` reads the
structure and the list of edges given with an unknown endpoint, which the
constructor hands it. The constructor is the one path that checks: a
propagation result takes the structure of the valid taxonomy it re-annotates,
and an upward-closed subgraph that structure filtered.
"""

from __future__ import annotations

import heapq
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from ._record import EMPTY_MAPPING, Record, setfield
from .errors import InvalidTaxonomy, ParseError, UnknownNode

# Node identifiers and importance values are plain builtins; the aliases
# document intent at API boundaries.
NodeId = str
Importance = float

IMPORTANCE_MIN = -1.0
IMPORTANCE_MAX = 1.0

# Validation rule names, as they appear in the violations validate returns.
RULE_CYCLE = "CycleDetected"
RULE_PROPERTY_LEAF = "PropertyNodeNotLeaf"
RULE_UNKNOWN_ENDPOINT = "UnknownEdgeEndpoint"
# Rules of node and edge sequences, located at the index of the repeat.
RULE_DUPLICATE_ID = "DuplicateNodeId"
RULE_DUPLICATE_EDGE = "DuplicateEdge"


class NodeKind(Enum):
    LABEL = "label"
    PROPERTY = "property"


class Node(Record):
    """One value concept. ``text`` is a label node's display text, or a
    property node's reference into the property catalog."""

    __slots__ = ("id", "kind", "text")

    def __init__(self, id: NodeId, kind: NodeKind, text: str):
        if not isinstance(id, str) or not id:
            raise ParseError("id", "node id must be a non-empty string")
        if not isinstance(kind, NodeKind):
            raise ParseError("kind", f"unknown node kind: {kind!r}")
        if not isinstance(text, str):
            raise ParseError("text", f"must be a string, got {text!r}")
        setfield(self, "id", id)
        setfield(self, "kind", kind)
        setfield(self, "text", text)


def label_node(node_id: NodeId, text: Optional[str] = None) -> Node:
    """Build a label node; the display text defaults to the id."""
    return Node(node_id, NodeKind.LABEL, text if text is not None else node_id)


def property_node(node_id: NodeId, property_id: Optional[str] = None) -> Node:
    """Build a property node; the catalog reference defaults to the id."""
    return Node(node_id, NodeKind.PROPERTY, property_id if property_id is not None else node_id)


def as_number(value: object) -> float:
    """``value``, an int or a float but not a bool, as a float; an int past the
    float range is taken as the infinity of its sign. Another value raises a
    ValueError, "must be a number", that its caller locates."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def check_importance(value: float, what: str = "importance") -> float:
    """``value`` as a float in [-1, 1], or a ValueError worded with ``what``. It
    must be a number (:func:`as_number`); an int past the float range is
    infinite, which the range check then rejects."""
    if type(value) is not float:
        try:
            value = as_number(value)
        except ValueError as exc:
            raise ValueError(f"{what} {exc}") from None
    if not (IMPORTANCE_MIN <= value <= IMPORTANCE_MAX):
        raise ValueError(f"{what} {value} outside [-1, 1]")
    return value


def importance_at(location: str, value: float) -> float:
    """:func:`check_importance`, a refused value raising a ParseError at ``location``."""
    try:
        return check_importance(value)
    except ValueError as exc:
        raise ParseError(location, str(exc)) from None


class Violation(Record):
    __slots__ = ("rule", "subject", "message")

    def __init__(self, rule: str, subject: str, message: str):
        setfield(self, "rule", rule)
        setfield(self, "subject", subject)
        setfield(self, "message", message)


class ValueTaxonomy(Record):
    """An importance-annotated DAG of value concepts.

    ``nodes`` maps node id to :class:`Node`, ``edges`` is the frozenset of
    (parent, child) pairs, and ``importance`` is a partial mapping from node
    id to a value in [-1, 1]. Equality is structural over all three.
    """

    # The private slots hold what the constructor derives: adjacency maps and parents-first order.
    # The edges are read from the children map, which determines them.
    __slots__ = ("nodes", "importance", "_children", "_parents", "_order")
    _fields = ("nodes", "edges", "importance")

    def __init__(self, nodes: Mapping[NodeId, Node] = EMPTY_MAPPING,
                 edges: Iterable[tuple[NodeId, NodeId]] = frozenset(),
                 importance: Mapping[NodeId, Importance] = EMPTY_MAPPING):
        own: dict[NodeId, Node] = {}  # keyed by each node's own id string
        for node_id, node in nodes.items():
            if node_id != node.id:
                raise ValueError(f"node mapping key {node_id!r} does not match node id {node.id!r}")
            own[node.id] = node
        nodes = own
        setfield(self, "nodes", MappingProxyType(nodes))
        given: set[tuple[NodeId, NodeId]] = set()  # the pairs as given, to locate a repeat
        stray: list[tuple[NodeId, NodeId]] = []  # an unknown endpoint's, which validate reports
        children, parents = {n: [] for n in nodes}, {n: [] for n in nodes}
        for i, edge in enumerate(edges):  # located at its index in the order given
            if not isinstance(edge, tuple) or len(edge) != 2:
                raise ParseError(f"edges[{i}]", f"edge must be a (parent, child) pair, got {edge!r}")
            parent, child = edge
            if not isinstance(parent, str) or not isinstance(child, str):
                raise ParseError(f"edges[{i}]", "edge endpoints must be node id strings")
            if edge in given:
                raise _repeat(RULE_DUPLICATE_EDGE, f"edges[{i}]", f"duplicate edge {parent!r} -> {child!r}")
            given.add(edge)
            head, tail = nodes.get(parent), nodes.get(child)
            if head is not None and tail is not None:
                children[head.id].append(tail.id)
                parents[tail.id].append(head.id)
            else:
                stray.append(edge)
        del given  # not held through the sorting and the Kahn pass
        for adjacency in (children, parents):  # id order, which propagation sums in
            for node, ids in adjacency.items():
                ids.sort()
                adjacency[node] = tuple(ids)
        setfield(self, "_children", children)
        setfield(self, "_parents", parents)
        values = {}
        for node_id, value in dict(importance).items():
            if node_id not in nodes:
                raise UnknownNode(node_id)
            values[node_id] = importance_at(f"importance.{node_id}", value)
        setfield(self, "importance", MappingProxyType(values))
        setfield(self, "_order", _kahn_order(children, parents))
        violations = validate(self, stray)
        if violations:
            raise InvalidTaxonomy(violations)

    @classmethod
    def build(cls, nodes: Iterable[Node], edges: Iterable[tuple[NodeId, NodeId]] = (),
              importance: Mapping[NodeId, Importance] | None = None) -> "ValueTaxonomy":
        """Assemble a taxonomy from node and edge sequences; a repeated node id,
        like a repeated edge, raises :class:`~valuetax.errors.InvalidTaxonomy`
        with that one violation, located at its index."""
        node_map: dict[NodeId, Node] = {}
        for i, node in enumerate(nodes):
            if node.id in node_map:
                raise _repeat(RULE_DUPLICATE_ID, f"nodes[{i}].id", f"duplicate node id: {node.id!r}")
            node_map[node.id] = node
        return cls(node_map, edges, importance or EMPTY_MAPPING)

    @property
    def edges(self) -> frozenset[tuple[NodeId, NodeId]]:
        """The (parent, child) pairs, read from the children map: a held taxonomy
        has no edge with an unknown endpoint, so the map holds each edge once."""
        return frozenset([(parent, child) for parent, kids in self._children.items() for child in kids])

    @classmethod
    def _inherit(cls, nodes, importance: dict, children, parents, order) -> "ValueTaxonomy":
        """A taxonomy given its adjacency maps, order and importance, the one path that checks neither:
        only for a valid taxonomy's structure or an upward-closed subgraph's, floats checked on entry."""
        taxonomy = object.__new__(cls)
        for name, value in zip(cls.__slots__, (nodes, MappingProxyType(importance),
                                               children, parents, order)):
            setfield(taxonomy, name, value)
        return taxonomy

    def _upward_closed(self, keep: set[NodeId], importance: dict) -> "ValueTaxonomy":
        """The subgraph on ``keep``, a node set closed under parents, with ``importance``; unvalidated."""
        order = [n for n in self._order if n in keep]  # every kept node keeps all its parents
        return self._inherit(
            MappingProxyType({n: self.nodes[n] for n in order}), importance,
            {n: tuple([c for c in self._children[n] if c in keep]) for n in order},
            {n: self._parents[n] for n in order}, order)

    def property_nodes(self) -> tuple[NodeId, ...]:
        return tuple(sorted(n for n, node in self.nodes.items() if node.kind is NodeKind.PROPERTY))

    def __len__(self) -> int:
        return len(self.nodes)


def _repeat(rule: str, location: str, message: str) -> InvalidTaxonomy:
    return InvalidTaxonomy((Violation(rule, location, message),), location)


def _kahn_order(children: dict[NodeId, tuple], parents: dict[NodeId, tuple]) -> list[NodeId]:
    """Kahn's algorithm, smallest ready id first; leaves out the nodes on or below a cycle."""
    pending = {n: len(ps) for n, ps in parents.items()}
    frontier = sorted(n for n, deg in pending.items() if deg == 0)
    order: list[NodeId] = []
    while frontier:
        node = heapq.heappop(frontier)
        order.append(node)
        for child in children[node]:
            pending[child] -= 1
            if pending[child] == 0:
                heapq.heappush(frontier, child)
    return order


def _find_cycle(taxonomy: ValueTaxonomy) -> list[NodeId]:
    """One directed cycle as a node list ending where it starts, for a taxonomy
    that has one. Depth-first from each unvisited node in id order, children in id order."""
    children = taxonomy._children
    on_path: dict[NodeId, bool] = {}  # False once a node's subtree is done
    for start in sorted(taxonomy.nodes):
        if start in on_path:
            continue
        path, stack = [start], [iter(children[start])]
        on_path[start] = True
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                on_path[path.pop()] = False
                stack.pop()
            elif on_path.get(nxt):
                return path[path.index(nxt):] + [nxt]
            elif nxt not in on_path:
                on_path[nxt] = True
                path.append(nxt)
                stack.append(iter(children[nxt]))


def validate(taxonomy: ValueTaxonomy,
             stray: Iterable[tuple[NodeId, NodeId]] = ()) -> tuple[Violation, ...]:
    """The violations of the graph-level invariants, rule by rule: known edge
    endpoints, property nodes as leaves, and acyclicity. The :class:`ValueTaxonomy`
    constructor raises :class:`~valuetax.errors.InvalidTaxonomy` with any it
    finds; the constructor's Kahn order that decides acyclicity gives :func:`topological_order`.

    The rules read the constructor's adjacency maps, which hold every edge
    between known nodes, and ``stray``, the edges the constructor was given
    with an unknown endpoint, which a held taxonomy has none of."""
    violations: list[Violation] = []
    nodes, children = taxonomy.nodes, taxonomy._children
    stray = sorted(stray)  # to be worded in order
    for parent, child in stray:
        for endpoint in (parent, child):
            if endpoint not in nodes:
                violations.append(Violation(
                    RULE_UNKNOWN_ENDPOINT, f"{parent}->{child}",
                    f"edge ({parent!r}, {child!r}) references unknown node {endpoint!r}"))

    branching = [(p, c) for p, kids in children.items() if kids and nodes[p].kind is NodeKind.PROPERTY
                 for c in kids]
    branching += [(p, c) for p, c in stray if p in nodes and nodes[p].kind is NodeKind.PROPERTY]
    for parent, child in sorted(branching):
        violations.append(Violation(
            RULE_PROPERTY_LEAF, parent,
            f"property node {parent!r} has child {child!r}; property nodes must be leaves"))

    # The Kahn order decides that there is a cycle; the DFS only words it.
    if len(taxonomy._order) < len(taxonomy.nodes):
        cycle = _find_cycle(taxonomy)
        trace = " -> ".join(cycle)
        violations.append(Violation(RULE_CYCLE, cycle[0], f"cycle detected: {trace}"))

    return tuple(violations)


def topological_order(taxonomy: ValueTaxonomy) -> list[NodeId]:
    """Nodes ordered parents-first; ties broken by node id for reproducibility.

    A fresh copy, the caller's to change, of the lexicographically smallest
    parents-first order from the constructor's Kahn pass, which propagation and
    path counts read uncopied.
    """
    return list(taxonomy._order)


def check_node_ids(nodes: Iterable[NodeId]) -> Iterable[NodeId]:
    """``nodes``, unless it is one string, which would be read as one-letter
    ids: that raises a ValueError."""
    if isinstance(nodes, str):
        raise ValueError(f"nodes must be node ids, not one string: {nodes!r}")
    return nodes


def ancestors(taxonomy: ValueTaxonomy, nodes: Iterable[NodeId]) -> set[NodeId]:
    """Every node from which any of ``nodes`` is reachable; a seed node is
    included only if it is an ancestor of another seed. A seed the taxonomy
    does not hold raises :class:`~valuetax.errors.UnknownNode`, and a bare
    string is refused (:func:`check_node_ids`)."""
    parents_map = taxonomy._parents
    seen: set[NodeId] = set()
    stack: list[NodeId] = []
    for n in check_node_ids(nodes):
        if n not in parents_map:
            raise UnknownNode(n)
        stack.extend(parents_map[n])
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(parents_map[node])
    return seen


def all_paths_counts(taxonomy: ValueTaxonomy) -> dict[NodeId, int]:
    """Number of distinct directed paths from any root down to each node,
    computed in one topological sweep: a root counts one path to itself, any
    other node the sum over its parents."""
    parents_map = taxonomy._parents
    counts: dict[NodeId, int] = {}
    for node in taxonomy._order:
        ps = parents_map[node]
        counts[node] = 1 if not ps else sum(counts[p] for p in ps)
    return counts

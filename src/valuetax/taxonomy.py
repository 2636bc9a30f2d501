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
One pass over the edges derives both adjacency maps, which :func:`validate`
reads for its rules, going back to the edge set only for an edge with an
unknown endpoint; one cached Kahn pass gives both the acyclicity test and the
parents-first order. An upward-closed
subgraph of a valid taxonomy inherits that structure without being validated again.
"""

from __future__ import annotations

import heapq
from enum import Enum
from functools import cached_property
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


def check_importance(value: float, what: str = "importance") -> float:
    """``value`` as a float in [-1, 1], or a ValueError worded with ``what``. It
    must be an int or a float, not a bool; an int past the float range is taken
    as the infinity of its sign, which the range check then rejects."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{what} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            value = float("inf") if value > 0 else float("-inf")
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

    ``nodes`` maps node id to :class:`Node`, ``edges`` is a set of
    (parent, child) pairs, and ``importance`` is a partial mapping from node
    id to a value in [-1, 1]. Equality is structural over all three.
    """

    # __dict__ holds the derived structure: the adjacency maps, built in the constructor's
    # one pass over the edges, and the cached order, which validation fills.
    __slots__ = ("nodes", "edges", "importance", "__dict__")

    def __init__(self, nodes: Mapping[NodeId, Node] = EMPTY_MAPPING,
                 edges: Iterable[tuple[NodeId, NodeId]] = frozenset(),
                 importance: Mapping[NodeId, Importance] = EMPTY_MAPPING):
        nodes = dict(nodes)
        for node_id, node in nodes.items():
            if node_id != node.id:
                raise ValueError(f"node mapping key {node_id!r} does not match node id {node.id!r}")
        setfield(self, "nodes", MappingProxyType(nodes))
        checked: set[tuple[NodeId, NodeId]] = set()
        children, parents = {n: [] for n in nodes}, {n: [] for n in nodes}
        for i, edge in enumerate(edges):  # located at its index in the order given
            parent, child = edge
            if not isinstance(parent, str) or not isinstance(child, str):
                raise ParseError(f"edges[{i}]", "edge endpoints must be node id strings")
            if edge in checked:
                raise _repeat(RULE_DUPLICATE_EDGE, f"edges[{i}]", f"duplicate edge {parent!r} -> {child!r}")
            checked.add(edge)
            if parent in children and child in parents:  # validate reports the others
                children[parent].append(child)
                parents[child].append(parent)
        setfield(self, "edges", frozenset(checked))
        for adjacency in (children, parents):  # id order, which propagation sums in
            for node, ids in adjacency.items():  # most lists hold one id or none
                adjacency[node] = tuple(sorted(ids)) if len(ids) > 1 else tuple(ids)
        self.__dict__.update(_children=children, _parents=parents)
        setfield(self, "importance", MappingProxyType(_checked_importance(nodes, importance)))
        violations = validate(self)
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

    def with_importance(self, importance: Mapping[NodeId, Importance]) -> "ValueTaxonomy":
        """Copy with ``importance`` checked in place of this one's, sharing nodes, edges and structure."""
        checked = _checked_importance(self.nodes, importance)
        return self._inherit(self.nodes, self.edges, checked, self.__dict__)

    @classmethod
    def _inherit(cls, nodes, edges, importance: dict, structure: Mapping) -> "ValueTaxonomy":
        """A taxonomy given its derived structure and importance, the one path that checks neither: only
        for a valid taxonomy's structure or an upward-closed subgraph's, and floats checked on entry."""
        taxonomy = object.__new__(cls)
        setfield(taxonomy, "nodes", nodes)
        setfield(taxonomy, "edges", edges)
        setfield(taxonomy, "importance", MappingProxyType(importance))
        taxonomy.__dict__.update(structure)
        return taxonomy

    @cached_property
    def _order(self) -> list[NodeId]:
        # Kahn's algorithm, smallest ready id first; leaves out the nodes on or below a cycle.
        children_map = self._children
        pending = {n: len(ps) for n, ps in self._parents.items()}
        frontier = sorted(n for n, deg in pending.items() if deg == 0)
        order: list[NodeId] = []
        while frontier:
            node = heapq.heappop(frontier)
            order.append(node)
            for child in children_map[node]:
                pending[child] -= 1
                if pending[child] == 0:
                    heapq.heappush(frontier, child)
        return order

    def property_nodes(self) -> tuple[NodeId, ...]:
        return tuple(sorted(n for n, node in self.nodes.items() if node.kind is NodeKind.PROPERTY))

    def __len__(self) -> int:
        return len(self.nodes)


def _repeat(rule: str, location: str, message: str) -> InvalidTaxonomy:
    return InvalidTaxonomy((Violation(rule, location, message),), location)


def _checked_importance(nodes: Mapping[NodeId, Node],
                        importance: Mapping[NodeId, Importance]) -> dict[NodeId, Importance]:
    checked = {}
    for node_id, value in dict(importance).items():
        if node_id not in nodes:
            raise UnknownNode(node_id)
        checked[node_id] = importance_at(f"importance.{node_id}", value)
    return checked


def _find_cycle(taxonomy: ValueTaxonomy) -> Optional[list[NodeId]]:
    """Return one directed cycle as a node list ending where it starts, or None.
    Depth-first from each unvisited node in id order, children in id order."""
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
    return None


def validate(taxonomy: ValueTaxonomy) -> tuple[Violation, ...]:
    """The violations of the graph-level invariants, rule by rule: known edge
    endpoints, property nodes as leaves, and acyclicity. The :class:`ValueTaxonomy`
    constructor raises :class:`~valuetax.errors.InvalidTaxonomy` with any it
    finds; the cached Kahn order that decides acyclicity gives :func:`topological_order`.

    The rules read the constructor's adjacency maps, which hold every edge
    between known nodes; the edge set is scanned only when the maps hold
    fewer edges, that is when some edge has an unknown endpoint."""
    violations: list[Violation] = []
    nodes, children = taxonomy.nodes, taxonomy._children
    stray: list[tuple[NodeId, NodeId]] = []  # only what is found is sorted, to be worded in order
    if sum(map(len, children.values())) < len(taxonomy.edges):
        stray = sorted([(p, c) for p, c in taxonomy.edges if p not in nodes or c not in nodes])
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

    A fresh copy of the lexicographically smallest parents-first order, from
    the cached Kahn pass that also decides acyclicity in :func:`validate`.
    """
    return list(taxonomy._order)


def ancestors(taxonomy: ValueTaxonomy, nodes: Iterable[NodeId]) -> set[NodeId]:
    """Every node from which any of ``nodes`` is reachable; a seed node is
    included only if it is an ancestor of another seed."""
    parents_map = taxonomy._parents
    seen: set[NodeId] = set()
    stack = [p for n in nodes for p in parents_map.get(n, ())]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(parents_map.get(node, ()))
    return seen


def all_paths_counts(taxonomy: ValueTaxonomy) -> dict[NodeId, int]:
    """Number of distinct directed paths from any root down to each node,
    computed in one topological sweep: a root counts one path to itself, any
    other node the sum over its parents."""
    order = topological_order(taxonomy)
    parents_map = taxonomy._parents
    counts: dict[NodeId, int] = {}
    for node in order:
        ps = parents_map[node]
        counts[node] = 1 if not ps else sum(counts[p] for p in ps)
    return counts

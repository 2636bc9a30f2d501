"""Value taxonomy data model, structural validation, and graph queries.

A value taxonomy is a directed acyclic graph of value concepts. Interior
nodes carry human-readable labels ("fairness", "reciprocity"); leaves may
instead reference a concrete, machine-checkable property from a catalog.
Each node can be annotated with an importance in [-1, 1]: positive for
aspired concepts, negative for detested ones, zero for indifference.

Taxonomies are immutable after construction and all queries are pure, so
they are safe to share across threads. Construction enforces local
invariants only (well-formed nodes, importance range, no duplicate edges);
graph-level rules are checked by :func:`validate` so that malformed
candidates can be inspected rather than rejected outright.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .errors import DuplicateEdge, InvalidTaxonomy, UnknownNode

# Node identifiers and importance values are plain builtins; the aliases
# document intent at API boundaries.
NodeId = str
Importance = float

IMPORTANCE_MIN = -1.0
IMPORTANCE_MAX = 1.0

# Validation rule names, as they appear in ValidationReport violations.
RULE_CYCLE = "CycleDetected"
RULE_PROPERTY_LEAF = "PropertyNodeNotLeaf"
RULE_UNKNOWN_ENDPOINT = "UnknownEdgeEndpoint"


class NodeKind(Enum):
    LABEL = "label"
    PROPERTY = "property"


@dataclass(frozen=True)
class Node:
    """One value concept: an abstract label or a concrete property reference."""

    id: NodeId
    kind: NodeKind
    label_text: Optional[str] = None
    property_id: Optional[str] = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("node id must be a non-empty string")
        if self.kind is NodeKind.LABEL:
            if self.label_text is None or self.property_id is not None:
                raise ValueError(f"label node {self.id!r} must carry label_text only")
        elif self.kind is NodeKind.PROPERTY:
            if self.property_id is None or self.label_text is not None:
                raise ValueError(f"property node {self.id!r} must carry property_id only")
        else:
            raise ValueError(f"unknown node kind: {self.kind!r}")

    @property
    def display(self) -> str:
        return self.label_text if self.kind is NodeKind.LABEL else self.property_id


def label_node(node_id: NodeId, text: Optional[str] = None) -> Node:
    """Build a label node; the display text defaults to the id."""
    return Node(node_id, NodeKind.LABEL, label_text=text if text is not None else node_id)


def property_node(node_id: NodeId, property_id: Optional[str] = None) -> Node:
    """Build a property node; the catalog reference defaults to the id."""
    return Node(node_id, NodeKind.PROPERTY, property_id=property_id if property_id is not None else node_id)


def importance_float(value: float) -> float:
    """``float(value)`` for an int or a float (not a bool), with an int past the
    float range taken as the infinity of its sign, so that the range check
    rejects it like any other value. Anything else raises ValueError."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"importance must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def check_importance(value: float, what: str = "importance") -> float:
    value = importance_float(value)
    if not (IMPORTANCE_MIN <= value <= IMPORTANCE_MAX):
        raise ValueError(f"{what} {value} outside [{IMPORTANCE_MIN}, {IMPORTANCE_MAX}]")
    return value


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True, eq=True)
class ValueTaxonomy:
    """An importance-annotated DAG of value concepts.

    ``nodes`` maps node id to :class:`Node`, ``edges`` is a set of
    (parent, child) pairs, and ``importance`` is a partial mapping from node
    id to a value in [-1, 1]. Equality is structural over all three.
    """

    nodes: Mapping[NodeId, Node] = field(default_factory=dict)
    edges: frozenset[tuple[NodeId, NodeId]] = frozenset()
    importance: Mapping[NodeId, Importance] = field(default_factory=dict)

    def __post_init__(self):
        nodes = dict(self.nodes)
        for node_id, node in nodes.items():
            if node_id != node.id:
                raise ValueError(f"node mapping key {node_id!r} does not match node id {node.id!r}")
        object.__setattr__(self, "nodes", MappingProxyType(nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "importance", _checked_importance(nodes, self.importance))

    @classmethod
    def build(cls, nodes: Iterable[Node], edges: Iterable[tuple[NodeId, NodeId]] = (),
              importance: Mapping[NodeId, Importance] | None = None) -> "ValueTaxonomy":
        """Assemble a taxonomy from a node iterable, rejecting duplicate ids and edges."""
        node_map: dict[NodeId, Node] = {}
        for node in nodes:
            if node.id in node_map:
                raise ValueError(f"duplicate node id: {node.id!r}")
            node_map[node.id] = node
        edge_set: set[tuple[NodeId, NodeId]] = set()
        for edge in edges:
            if edge in edge_set:
                raise DuplicateEdge(*edge)
            edge_set.add(edge)
        return cls(node_map, frozenset(edge_set), dict(importance or {}))

    def with_importance(self, importance: Mapping[NodeId, Importance]) -> "ValueTaxonomy":
        """Copy of this taxonomy with the importance mapping replaced. The copy
        shares the nodes, the edges and whatever structure was derived from them."""
        copy = object.__new__(ValueTaxonomy)
        copy.__dict__.update(self.__dict__, importance=_checked_importance(self.nodes, importance))
        return copy

    # Adjacency maps are derived once; the instance is immutable.
    @cached_property
    def _children(self) -> dict[NodeId, tuple[NodeId, ...]]:
        out: dict[NodeId, list[NodeId]] = {n: [] for n in self.nodes}
        for parent, child in self.edges:
            if parent in out and child in self.nodes:
                out[parent].append(child)
        return {n: tuple(sorted(cs)) for n, cs in out.items()}

    @cached_property
    def _parents(self) -> dict[NodeId, tuple[NodeId, ...]]:
        out: dict[NodeId, list[NodeId]] = {n: [] for n in self.nodes}
        for parent, child in self.edges:
            if child in out and parent in self.nodes:
                out[child].append(parent)
        return {n: tuple(sorted(ps)) for n, ps in out.items()}

    @cached_property
    def _validation(self) -> ValidationReport:
        return _validate_structure(self)

    def property_nodes(self) -> tuple[NodeId, ...]:
        return tuple(sorted(n for n, node in self.nodes.items() if node.kind is NodeKind.PROPERTY))

    def __len__(self) -> int:
        return len(self.nodes)


def _checked_importance(nodes: Mapping[NodeId, Node],
                        importance: Mapping[NodeId, Importance]) -> Mapping[NodeId, Importance]:
    checked = {}
    for node_id, value in dict(importance).items():
        if node_id not in nodes:
            raise UnknownNode(node_id)
        checked[node_id] = check_importance(value, f"importance of {node_id!r}")
    return MappingProxyType(checked)


def _validate_structure(taxonomy: ValueTaxonomy) -> ValidationReport:
    violations: list[Violation] = []
    edges = sorted(taxonomy.edges)

    for parent, child in edges:
        for endpoint in (parent, child):
            if endpoint not in taxonomy.nodes:
                violations.append(Violation(
                    RULE_UNKNOWN_ENDPOINT, f"{parent}->{child}",
                    f"edge ({parent!r}, {child!r}) references unknown node {endpoint!r}"))

    for parent, child in edges:
        node = taxonomy.nodes.get(parent)
        if node is not None and node.kind is NodeKind.PROPERTY:
            violations.append(Violation(
                RULE_PROPERTY_LEAF, parent,
                f"property node {parent!r} has child {child!r}; property nodes must be leaves"))

    cycle = _find_cycle(taxonomy)
    if cycle is not None:
        trace = " -> ".join(cycle)
        violations.append(Violation(RULE_CYCLE, cycle[0], f"cycle detected: {trace}"))

    return ValidationReport(ok=not violations, violations=tuple(violations))


def _find_cycle(taxonomy: ValueTaxonomy) -> Optional[list[NodeId]]:
    """Return one directed cycle as a node list ending where it starts, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in taxonomy.nodes}
    children = taxonomy._children
    for start in sorted(taxonomy.nodes):
        if color[start] != WHITE:
            continue
        stack: list[tuple[NodeId, int]] = [(start, 0)]
        path = [start]
        color[start] = GRAY
        while stack:
            node, idx = stack[-1]
            kids = children.get(node, ())
            if idx < len(kids):
                stack[-1] = (node, idx + 1)
                nxt = kids[idx]
                if color.get(nxt, BLACK) == GRAY:
                    at = path.index(nxt)
                    return path[at:] + [nxt]
                if color.get(nxt, BLACK) == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


def validate(taxonomy: ValueTaxonomy) -> ValidationReport:
    """Check the graph-level invariants: known edge endpoints, acyclicity,
    and the restriction of property nodes to leaves.

    Violations are returned as data; nothing is raised.
    """
    return taxonomy._validation


def require_valid(taxonomy: ValueTaxonomy) -> None:
    report = validate(taxonomy)
    if not report.ok:
        raise InvalidTaxonomy(report)


def topological_order(taxonomy: ValueTaxonomy) -> list[NodeId]:
    """Nodes ordered parents-first; ties broken by node id for reproducibility.

    Kahn's algorithm that always takes the smallest ready id from a heap,
    so the order is the lexicographically smallest parents-first one.
    """
    require_valid(taxonomy)
    parents_map = taxonomy._parents
    children_map = taxonomy._children
    pending = {n: len(parents_map[n]) for n in taxonomy.nodes}
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
    require_valid(taxonomy)
    parents_map = taxonomy._parents
    counts: dict[NodeId, int] = {}
    for node in topological_order(taxonomy):
        ps = parents_map[node]
        counts[node] = 1 if not ps else sum(counts[p] for p in ps)
    return counts

"""Context-based taxonomy construction.

A context re-weights a general taxonomy bottom-up: property nodes get
context-specific importances, the relevant ones are selected (by a
threshold, or by two-way clustering), and the subgraph of branches leading
to the selected nodes is extracted. Importance for the retained interior
nodes is then filled in by propagation, independently of whatever the
general taxonomy had assigned. Both records check the values they hold and
refuse one with a :class:`~valuetax.errors.ParseError` located at its field.
"""

from __future__ import annotations

import math
import sys
import warnings
from enum import Enum
from types import MappingProxyType
from typing import Any, Callable, Mapping

from ._record import EMPTY_MAPPING, Record, setfield
from .errors import EmptyInput, EmptySelectionWarning, MissingEvaluator, ParseError
from .propagation import propagate
from .taxonomy import NodeId, NodeKind, ValueTaxonomy, ancestors, importance_at

# Anything a property evaluator can be asked about.
WorldState = Any


class SelectionKind(Enum):
    POSITIVE_THRESHOLD = "positive_threshold"
    KMEANS_TWO = "kmeans2"


class SelectionStrategy(Record):
    """How relevant property nodes are picked from their context importances.

    ``POSITIVE_THRESHOLD`` keeps nodes strictly above ``threshold`` (default
    0). ``KMEANS_TWO`` splits the one-dimensional importance values into two
    clusters minimizing within-cluster variance and keeps the higher-mean
    cluster; it needs no threshold.
    """

    __slots__ = ("kind", "threshold")

    def __init__(self, kind: SelectionKind = SelectionKind.POSITIVE_THRESHOLD,
                 threshold: float = 0.0):
        if not isinstance(kind, SelectionKind):
            raise ParseError("kind", f"unknown selection strategy: {kind!r}")
        setfield(self, "kind", kind)
        setfield(self, "threshold", importance_at("threshold", threshold))


POSITIVE_SELECTION = SelectionStrategy()
KMEANS_SELECTION = SelectionStrategy(SelectionKind.KMEANS_TWO)


class ContextSpec(Record):
    """A context: its defining properties, per-property-node importances,
    and the selection strategy used when deriving a taxonomy from it.

    ``property_importance`` keys must be property nodes of the taxonomy the
    context is applied to; property nodes it does not mention default to
    importance 0. Negative entries mark detested behaviours; they stay in
    the record but are dropped from built taxonomies by positive-threshold
    selection.
    """

    __slots__ = ("id", "defining_properties", "property_importance", "selection")

    def __init__(self, id: str, defining_properties: frozenset[str] = frozenset(),
                 property_importance: Mapping[NodeId, float] = EMPTY_MAPPING,
                 selection: SelectionStrategy = POSITIVE_SELECTION):
        if not isinstance(id, str) or not id:
            raise ParseError("id", "context id must be a non-empty string")
        names = tuple(defining_properties)
        # a bare string would be taken as a set of one-letter names
        if isinstance(defining_properties, str) or not all(isinstance(p, str) for p in names):
            raise ParseError("defining_properties", "must be a list of property names")
        cleaned = {node: importance_at(f"property_importance.{node}", value)
                   for node, value in dict(property_importance).items()}
        setfield(self, "id", id)
        setfield(self, "defining_properties", frozenset(names))
        setfield(self, "property_importance", MappingProxyType(cleaned))
        setfield(self, "selection", selection)

    def with_selection(self, selection: SelectionStrategy) -> "ContextSpec":
        """Copy of this context with the selection replaced; the other fields are not checked again."""
        copy = object.__new__(ContextSpec)
        for name in self._fields:
            setfield(copy, name, selection if name == "selection" else getattr(self, name))
        return copy


# Rounding in the centred running sums moves a cut's error by up to about
# 0.7 * n * eps of the total squared error (measured for 2 to 100,000
# values); ties are judged with a margin a few times wider than that.
_TIE_EPS_PER_VALUE = 4 * sys.float_info.epsilon


def select_nodes(importances: Mapping[NodeId, float],
                 strategy: SelectionStrategy) -> set[NodeId]:
    """Pick the relevant nodes from an importance mapping.

    Positive-threshold selection keeps strictly-greater values. Two-means
    selection computes the exact optimal 1-D split (clusters are contiguous
    in sorted order, so every cut point is scanned) and keeps the upper
    cluster; if all values are equal there is no variance-reducing split
    and every node is kept. Each cut's summed squared error comes in O(1)
    from running sums over the values centred on their mean, so the cost
    is O(n log n), dominated by the sort.

    Ties: a cut whose error exceeds the minimum by at most 4 * n * eps of
    the total squared error counts as tied, and the earliest tied cut wins,
    so on a tie the larger upper cluster is kept. The margin covers the
    rounding of the running sums, which grows with n; distinct errors that
    lie closer than it are treated as ties too.
    """
    if strategy.kind is SelectionKind.POSITIVE_THRESHOLD:
        return {n for n, v in importances.items() if v > strategy.threshold}
    if not importances:
        raise EmptyInput("k-means selection needs at least one importance value")
    items = sorted(importances.items(), key=lambda kv: (kv[1], kv[0]))
    if items[0][1] == items[-1][1]:
        return set(importances)
    n = len(items)
    mean = math.fsum(v for _, v in items) / n
    centred = [v - mean for _, v in items]
    total = math.fsum(centred)
    total_sse = math.fsum(c * c for c in centred)
    sses = []
    low = 0.0
    for cut in range(1, n):
        low += centred[cut - 1]
        high = total - low
        sses.append(total_sse - low * low / cut - high * high / (n - cut))
    limit = min(sses) + _TIE_EPS_PER_VALUE * n * total_sse
    best_cut = next(cut for cut, sse in enumerate(sses, start=1) if sse <= limit)
    return {node for node, _ in items[best_cut:]}


def build_context_taxonomy(general: ValueTaxonomy, ctx: ContextSpec) -> ValueTaxonomy:
    """Derive the context-based taxonomy from a general one.

    The result contains the selected property nodes plus every node on a
    path from a root of ``general`` to one of them, with the general edges
    restricted to that node set. Selected property nodes carry the context
    importances; interior importances are filled by propagation and owe
    nothing to the general taxonomy's own annotations.

    The kept nodes are closed upwards, so the subgraph is valid: it inherits
    its structure from ``general``, filtered to them, without being validated again.

    An empty selection is reported as an EmptySelectionWarning and yields
    an empty taxonomy.
    """
    importances = {n: ctx.property_importance.get(n, 0.0)
                   for n, node in general.nodes.items() if node.kind is NodeKind.PROPERTY}
    stray = ctx.property_importance.keys() - importances.keys()
    if stray:
        raise ValueError(
            f"context {ctx.id!r} assigns importance to non-property nodes: {sorted(stray)}")

    selected = select_nodes(importances, ctx.selection)
    if not selected:
        warnings.warn(EmptySelectionWarning(
            f"context {ctx.id!r} selected no property nodes"))
        return ValueTaxonomy()

    keep = selected | ancestors(general, selected)
    order = [n for n in general._order if n in keep]  # every kept node keeps all its parents
    seeded = ValueTaxonomy._inherit(
        MappingProxyType({n: general.nodes[n] for n in order}),
        frozenset(edge for edge in general.edges if edge[1] in keep),
        {p: importances[p] for p in selected},
        {"_children": {n: tuple([c for c in general._children[n] if c in keep]) for n in order},
         "_parents": {n: general._parents[n] for n in order}, "_order": order})
    return propagate(seeded).taxonomy


def context_holds(ctx: ContextSpec, world: WorldState,
                  evaluators: Mapping[str, Callable[[WorldState], bool]]) -> bool:
    """True iff every defining property of the context is satisfied in ``world``.

    Each defining property must have an evaluator registered, whether or not
    an earlier property already failed.
    """
    props = sorted(ctx.defining_properties)
    for prop in props:
        if prop not in evaluators:
            raise MissingEvaluator(prop)
    return all(bool(evaluators[p](world)) for p in props)

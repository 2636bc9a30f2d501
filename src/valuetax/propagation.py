"""Worklist propagation of importance values, and a coherence verifier.

Each parent's importance must equal the mean of its children's. Propagation
extends a partial assignment wherever that constraint pins a value down,
and verifies it wherever a parent and all of its children carry values.

The *forced* rules follow from the constraint alone:

* verify: a valued parent whose children are all valued must equal their
  mean;
* down-single: a valued parent with exactly one unvalued child fixes that
  child;
* up-mean: an unvalued parent whose children are all valued takes their
  mean.

Two *default* rules fill what the constraint leaves open. They are this
module's documented choices, not consequences of the model:

* down-split: a valued parent with several unvalued children, none of which
  has a valued descendant, splits the remainder equally among them;
* partial-mean: an unvalued parent with some valued children, where the
  unvalued ones have no valued descendant, takes the mean of the valued
  children and hands that value down to the unvalued ones as well.

Propagation runs in rounds. A round first applies the forced rules to
closure from a FIFO worklist seeded in parents-first order; a node is
revisited when one of its children gains a value, or when it gains one by a
rule other than up-mean, whose mean could only be verified again. Only then do
the defaults apply, all at once: every node eligible in the state left by
the closure proposes its values from that state, proposals that disagree
on a node raise :class:`ConflictingAssignment`, and the rest are committed
(the smallest of agreeing proposals) before the next round's closure. A
default therefore never pre-empts a value the forced rules can already
derive, and no rule depends on node names. The run ends after the first
round whose defaults propose nothing. Candidates for a round's defaults
are the nodes valued since the last one and their parents, and "has a
valued descendant" is a flag set by an upward walk that stops at the first
flagged node, so a run costs O(nodes + edges) whatever the depth. Only the
defaults read the flags: they are built the first time a default has a
candidate with an unvalued child, and kept up to date from then on, so a run
whose first closure leaves no node with an unvalued child never walks for them.
Pre-assigned values are never modified, only extended. The result shares
its input's nodes, adjacency maps and parents-first order, which the input's
constructor derived (a taxonomy stores no edge set; its edges are read from
the children map), and is not validated again; its importance mapping is the
run's own value table, so building it copies nothing.

:func:`propagate` aggregates with :func:`~valuetax.aggregation.mean_aggregate`
and solves for unknown children with :func:`~valuetax.aggregation.mean_invert`.
The standalone :func:`check_coherence` checks the same mean under the same
tolerance.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

from ._record import Record, setfield
from .aggregation import mean_aggregate, mean_invert
from .errors import ConflictingAssignment, IncoherentInput, RangeViolation
from .taxonomy import IMPORTANCE_MAX, IMPORTANCE_MIN, NodeId, ValueTaxonomy

# Equality of importance values is checked to relative 1e-9 with an absolute
# floor of 1e-12; exact comparison would be meaningless in floating point.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class PropagationResult(Record):
    """Outcome of a successful propagation run.

    ``taxonomy`` carries the enlarged importance mapping, ``assigned`` the
    newly assigned values (disjoint from the input assignment), and
    ``iterations`` the number of rounds, counting the first: one closure of
    the forced rules, plus one more for each time the defaults assigned
    something. A run that needs no default takes 1.
    """

    __slots__ = ("taxonomy", "assigned", "iterations")

    def __init__(self, taxonomy: ValueTaxonomy, assigned: dict[NodeId, float], iterations: int):
        setfield(self, "taxonomy", taxonomy)
        setfield(self, "assigned", assigned)
        setfield(self, "iterations", iterations)


class CoherenceViolation(Record):
    __slots__ = ("parent", "expected", "actual")

    def __init__(self, parent: NodeId, expected: float, actual: float):
        setfield(self, "parent", parent)
        setfield(self, "expected", expected)
        setfield(self, "actual", actual)


class CoherenceReport(Record):
    __slots__ = ("violations", "unevaluable")

    def __init__(self, violations: tuple[CoherenceViolation, ...] = (),
                 unevaluable: tuple[NodeId, ...] = ()):
        setfield(self, "violations", violations)
        setfield(self, "unevaluable", unevaluable)

    @property
    def coherent(self) -> bool:
        return not self.violations


class _Run:
    """Mutable state for one propagation run over a private working copy."""

    def __init__(self, taxonomy: ValueTaxonomy, order: list[NodeId]):
        self.children = taxonomy._children
        self.parents = taxonomy._parents
        self.values: dict[NodeId, float] = dict(taxonomy.importance)
        self.assigned: dict[NodeId, float] = {}
        # Unvalued children per node.
        self.missing = {n: len(kids) for n, kids in self.children.items()}
        for node in self.values:
            for parent in self.parents[node]:
                self.missing[parent] -= 1
        # Every node with a valued strict descendant, mapped to the number of
        # its unvalued children that have one too; a default waits while
        # that number is above 0. Only the defaults read it, so it stays None
        # until a defaults round first has a candidate with an unvalued child;
        # from then on, assign keeps it up to date.
        self.blocked: dict[NodeId, int] | None = None
        self.queue = deque(order)
        self.queued = set(order)
        self.fresh: list[NodeId] = []

    def flag_ancestors(self, node: NodeId) -> None:
        """Flag the ancestors of a newly valued node, stopping at flagged ones."""
        stack = [node]
        while stack:
            node = stack.pop()
            counted = node not in self.values
            for parent in self.parents[node]:
                if parent not in self.blocked:
                    self.blocked[parent] = 0
                    stack.append(parent)
                if counted:
                    self.blocked[parent] += 1

    def enqueue(self, node: NodeId) -> None:
        if node not in self.queued:
            self.queued.add(node)
            self.queue.append(node)

    def assign(self, node: NodeId, value: float) -> None:
        # 1-ulp overshoot at the codomain boundary is float noise, not a
        # range violation; anything further out is an error, never clamped.
        if IMPORTANCE_MAX < value <= IMPORTANCE_MAX + ABS_TOL:
            value = IMPORTANCE_MAX
        elif IMPORTANCE_MIN - ABS_TOL <= value < IMPORTANCE_MIN:
            value = IMPORTANCE_MIN
        if not (IMPORTANCE_MIN <= value <= IMPORTANCE_MAX):
            raise RangeViolation(node, value, self.assigned)
        self.values[node] = value
        self.assigned[node] = value
        self.fresh.append(node)
        blocked = self.blocked
        flagged = blocked is not None and node in blocked
        for parent in self.parents[node]:
            self.missing[parent] -= 1
            if flagged:
                blocked[parent] -= 1
            self.enqueue(parent)
        if blocked is not None:
            self.flag_ancestors(node)

    def settle(self) -> None:
        """Apply the forced rules until the worklist is empty."""
        values = self.values
        while self.queue:
            node = self.queue.popleft()
            self.queued.discard(node)
            kids = self.children[node]
            if not kids:
                continue
            left = self.missing[node]
            value = values.get(node)
            if value is None:
                if not left:
                    # Not queued: verify would recompute the very mean it holds.
                    self.assign(node, mean_aggregate([values[c] for c in kids]))
            elif not left:
                self.verify(node, value, kids)
            elif left == 1:
                known = [values[c] for c in kids if c in values]
                child = next(c for c in kids if c not in values)
                self.enqueue(child)
                self.assign(child, mean_invert(value, known, 1))

    def verify(self, node: NodeId, value: float, kids: tuple[NodeId, ...]) -> None:
        expected = mean_aggregate([self.values[c] for c in kids])
        if _close(value, expected):
            return
        propagated = [n for n in (node, *kids) if n in self.assigned]
        if propagated:
            raise ConflictingAssignment(
                node,
                f"value {value} disagrees with children mean {expected} "
                f"after propagation through {propagated}",
                self.assigned)
        raise IncoherentInput(node, expected, value, self.assigned)

    def apply_defaults(self, candidates: Iterable[NodeId]) -> bool:
        """Commit every default rule that applies to a candidate in the
        current state; True if anything was assigned."""
        values, missing = self.values, self.missing
        candidates = [node for node in candidates if missing[node]]
        if candidates and self.blocked is None:
            self.blocked = {}
            for node in values:
                self.flag_ancestors(node)
        proposals: dict[NodeId, list[float]] = {}
        for node in candidates:
            if self.blocked.get(node):
                continue
            left = missing[node]
            kids = self.children[node]
            value = values.get(node)
            if value is None and left == len(kids):
                continue
            known = [values[c] for c in kids if c in values]
            if value is None:
                share = mean_aggregate(known)
                proposals.setdefault(node, []).append(share)
            else:
                share = mean_invert(value, known, left)
            for child in kids:
                if child not in values:
                    proposals.setdefault(child, []).append(share)
        for node, shares in proposals.items():
            low, high = min(shares), max(shares)
            if not _close(low, high):
                raise ConflictingAssignment(
                    node, f"default values {low} and {high} disagree", self.assigned)
        self.fresh = []
        for node, shares in proposals.items():
            self.enqueue(node)
            self.assign(node, min(shares))
        return bool(proposals)

    def candidates(self) -> Iterable[NodeId]:
        """Nodes valued since the last defaults, and their parents."""
        return dict.fromkeys(n for node in self.fresh for n in (node, *self.parents[node]))


def propagate(taxonomy: ValueTaxonomy) -> PropagationResult:
    """Extend the taxonomy's importance assignment to every node the
    mean-coherence constraint and the documented defaults determine,
    verifying coherence along the way.

    Raises IncoherentInput when given values contradict each other,
    ConflictingAssignment when two propagation paths through a shared node
    disagree, and RangeViolation when a propagated value leaves [-1, 1].
    Each exception carries the values assigned before detection.
    """
    order = taxonomy._order  # the constructor's list, which the run reads and never changes
    run = _Run(taxonomy, order)
    run.settle()
    rounds = 1
    candidates: Iterable[NodeId] = order
    while run.apply_defaults(candidates):
        rounds += 1
        run.settle()
        candidates = run.candidates()
    return PropagationResult(
        taxonomy=ValueTaxonomy._inherit(taxonomy.nodes, run.values, taxonomy._children,
                                        taxonomy._parents, taxonomy._order),
        assigned=run.assigned,
        iterations=rounds,
    )


def check_coherence(taxonomy: ValueTaxonomy) -> CoherenceReport:
    """Verify each valued parent's importance against the mean of its
    children's importances, to the relative tolerance :func:`propagate`
    verifies with.

    Parents that cannot be evaluated (own value or a child value missing)
    are listed as unevaluable, not as violations.
    """
    violations: list[CoherenceViolation] = []
    unevaluable: list[NodeId] = []
    for node in sorted(taxonomy.nodes):
        kids = taxonomy._children[node]
        if not kids:
            continue
        actual = taxonomy.importance.get(node)
        child_values = [taxonomy.importance.get(c) for c in kids]
        if actual is None or any(v is None for v in child_values):
            unevaluable.append(node)
            continue
        expected = mean_aggregate(child_values)
        if not _close(actual, expected):
            violations.append(CoherenceViolation(node, expected, actual))
    return CoherenceReport(tuple(violations), tuple(unevaluable))

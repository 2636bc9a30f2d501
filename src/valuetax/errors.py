"""Exception and warning types shared across the package.

A taxonomy that breaks a structural rule, or repeats a node id or edge, cannot
be built: it raises :class:`InvalidTaxonomy` with its violations. The other
exceptions cover contract violations (unknown nodes, missing inputs, malformed
documents) and failures detected while computing (incoherent or conflicting
importance values). Each survives ``pickle`` and ``copy``.
"""

from __future__ import annotations

import copyreg


class TaxonomyError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Rebuilt from its args and attributes; a subclass __init__ takes other arguments.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class UnknownNode(TaxonomyError):
    def __init__(self, node: str):
        self.node = node
        super().__init__(f"unknown node: {node!r}")


class EmptyInput(TaxonomyError, ValueError):
    """An aggregation or clustering operation received no values."""


class PropagationError(TaxonomyError):
    """Base class for failures during importance propagation.

    ``assigned`` holds the importance values assigned before the failure was
    detected, for diagnostics; the run itself is failed.
    """

    def __init__(self, node: str, message: str, assigned: dict[str, float] | None = None):
        self.node = node
        self.assigned = dict(assigned or {})
        super().__init__(message)


class IncoherentInput(PropagationError):
    """A node's given importance does not equal the aggregate of its children's."""

    def __init__(self, node: str, expected: float, actual: float,
                 assigned: dict[str, float] | None = None):
        self.expected = expected
        self.actual = actual
        super().__init__(
            node,
            f"importance of {node!r} is {actual} but its children aggregate to {expected}",
            assigned,
        )


class ConflictingAssignment(PropagationError):
    """Two propagation paths through a shared node imply different importance values."""

    def __init__(self, node: str, detail: str, assigned: dict[str, float] | None = None):
        super().__init__(node, f"conflicting propagated values at {node!r}: {detail}", assigned)


class RangeViolation(PropagationError):
    """A propagated importance fell outside the [-1, 1] codomain."""

    def __init__(self, node: str, value: float, assigned: dict[str, float] | None = None):
        self.value = value
        super().__init__(node, f"propagated importance {value} for {node!r} is outside [-1, 1]", assigned)


class MissingEvaluator(TaxonomyError):
    def __init__(self, prop: str):
        self.property = prop
        super().__init__(f"no evaluator registered for property {prop!r}")


class NoPropertyNodes(TaxonomyError):
    """Alignment was requested against a taxonomy without property nodes."""


class MissingImportance(TaxonomyError):
    def __init__(self, node: str):
        self.node = node
        super().__init__(f"property node {node!r} has no assigned importance")


class MissingSatisfaction(TaxonomyError):
    def __init__(self, node: str):
        self.node = node
        super().__init__(f"no satisfaction degree available for property node {node!r}")


class UndefinedRatio(TaxonomyError, ZeroDivisionError):
    """Requests were made but the denominator count is zero."""

    def __init__(self, member: str, detail: str):
        self.member = member
        super().__init__(f"undefined ratio for member {member!r}: {detail}")


class EmptyDistribution(TaxonomyError, ValueError):
    """A distribution difference was requested over an empty or zero-mass distribution."""


class SupportMismatch(TaxonomyError, ValueError):
    """Two distributions being compared differ in length, so not on the same support."""


class MalformedEvent(TaxonomyError, ValueError):
    def __init__(self, index: int, detail: str):
        self.index = index
        super().__init__(f"malformed event at position {index}: {detail}")


class ParseError(TaxonomyError, ValueError):
    """A document or a record's value was refused. ``location`` is the field the
    record names (``id``), prefixed by a parser with its entry (``nodes[2].id``)."""

    def __init__(self, location: str, detail: str):
        self.location = location
        self.detail = detail
        super().__init__(f"{location}: {detail}")


class InvalidTaxonomy(ParseError):
    """A graph broke a structural rule of ``validate``: ``violations`` lists every
    violation, and the location is ``rule <name>`` of the first. Or a node or
    edge sequence repeated a node id or edge: ``violations`` holds that one, and
    the location is its index. The message is the first violation's."""

    def __init__(self, violations, location: str | None = None):
        self.violations = violations
        super().__init__(location or f"rule {violations[0].rule}", violations[0].message)


class SchemaVersionUnsupported(ParseError):
    def __init__(self, version):
        self.version = version
        super().__init__("schema_version", f"unsupported schema version: {version!r}")


class EmptySelectionWarning(UserWarning):
    """No property node survived context selection; the built taxonomy is empty."""

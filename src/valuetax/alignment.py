"""Value-alignment scoring of entity behaviour against a taxonomy.

The alignment of an entity is the average, over the taxonomy's property
nodes, of each property's satisfaction degree weighted by its importance.
The path-weighted variant additionally multiplies each term by the number
of taxonomy paths leading to the property, so properties that ground many
value concepts count more; such scores can leave [-1, 1] and are reported
unclamped together with their theoretical bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Protocol, runtime_checkable

from .errors import MissingImportance, MissingSatisfaction, NoPropertyNodes
from .taxonomy import NodeId, ValueTaxonomy, all_paths_counts, require_valid


class AlignmentScheme(Enum):
    MEAN_WEIGHTED = "mean"
    PATH_WEIGHTED = "path"


@runtime_checkable
class SatisfactionProvider(Protocol):
    """Source of satisfaction degrees sd in [-1, 1] for (entity, property node) pairs."""

    def lookup(self, entity: str, node: NodeId) -> float: ...


@dataclass(frozen=True)
class SdTable:
    """Entity-independent satisfaction degrees from a plain mapping."""

    table: Mapping[NodeId, float]

    def lookup(self, entity: str, node: NodeId) -> float:
        if node not in self.table:
            raise MissingSatisfaction(node)
        return self.table[node]


@dataclass(frozen=True)
class PropertyContribution:
    node: NodeId
    sd: float
    importance: float
    paths: int
    contribution: float


@dataclass(frozen=True)
class AlignmentReport:
    """Alignment score with its per-property breakdown.

    ``score`` is the scheme's average of the contributions; ``score_bound``
    is the largest magnitude the scheme could produce for inputs in [-1, 1]
    (1 for the mean scheme, the maximum path count otherwise).
    """

    entity: str
    scheme: AlignmentScheme
    score: float
    score_bound: float
    per_property: tuple[PropertyContribution, ...]


def _sd_value(sd: SatisfactionProvider, entity: str, node: NodeId) -> float:
    value = float(sd.lookup(entity, node))
    if not (-1.0 <= value <= 1.0):
        raise ValueError(f"satisfaction degree {value} for {node!r} outside [-1, 1]")
    return value


def align(entity: str, taxonomy: ValueTaxonomy, sd: SatisfactionProvider,
          scheme: AlignmentScheme = AlignmentScheme.MEAN_WEIGHTED) -> AlignmentReport:
    """Score ``entity``'s behaviour against a taxonomy's property nodes.

    Every property node must carry an importance and have a satisfaction
    degree available; missing data is an error, never assumed zero.
    """
    require_valid(taxonomy)
    props = taxonomy.property_nodes()
    if not props:
        raise NoPropertyNodes("taxonomy has no property nodes to align against")
    paths = all_paths_counts(taxonomy)
    weighted = scheme is AlignmentScheme.PATH_WEIGHTED
    per_property = []
    for node in props:
        if node not in taxonomy.importance:
            raise MissingImportance(node)
        sd_val = _sd_value(sd, entity, node)
        imp = taxonomy.importance[node]
        factor = paths[node] if weighted else 1
        per_property.append(PropertyContribution(
            node=node, sd=sd_val, importance=imp, paths=paths[node],
            contribution=factor * imp * sd_val))
    score = sum(p.contribution for p in per_property) / len(per_property)
    bound = float(max(paths[n] for n in props)) if weighted else 1.0
    return AlignmentReport(
        entity=entity, scheme=scheme, score=score, score_bound=bound,
        per_property=tuple(per_property))


def explain(report: AlignmentReport) -> tuple[PropertyContribution, ...]:
    """Per-property contributions, largest magnitude first, ties by node id."""
    return tuple(sorted(report.per_property, key=lambda p: (-abs(p.contribution), p.node)))

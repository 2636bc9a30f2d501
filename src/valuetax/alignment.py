"""Value-alignment scoring of entity behaviour against a taxonomy.

The alignment of an entity is the average, over the taxonomy's property
nodes, of each property's satisfaction degree weighted by its importance.
The path-weighted variant additionally multiplies each term by the number
of taxonomy paths leading to the property, so properties that ground many
value concepts count more; such scores can leave [-1, 1] and are reported
unclamped together with their theoretical bound. The mean scheme is the
path scheme with a factor of 1 and a bound of 1. Under both, every
contribution and the score are computed exactly from the path counts and
each float's integer ratio, and rounded once, so they do not depend on the
order of the properties or on the Python version. A path-weighted value
whose rounded value would be past the float range is refused with a
:class:`~valuetax.errors.TaxonomyError`.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping

from ._record import Record, setfield
from .errors import MissingImportance, MissingSatisfaction, NoPropertyNodes, TaxonomyError
from .taxonomy import NodeId, ValueTaxonomy, all_paths_counts, check_importance


class AlignmentScheme(Enum):
    MEAN_WEIGHTED = "mean"
    PATH_WEIGHTED = "path"


class PropertyContribution(Record):
    __slots__ = ("node", "sd", "importance", "paths", "contribution")

    def __init__(self, node: NodeId, sd: float, importance: float, paths: int, contribution: float):
        setfield(self, "node", node)
        setfield(self, "sd", sd)
        setfield(self, "importance", importance)
        setfield(self, "paths", paths)
        setfield(self, "contribution", contribution)


class AlignmentReport(Record):
    """Alignment score with its per-property breakdown.

    ``score`` is the scheme's average of the contributions; ``score_bound``
    is the largest magnitude the scheme could produce for inputs in [-1, 1]
    (1 for the mean scheme, the maximum path count otherwise).
    """

    __slots__ = ("entity", "scheme", "score", "score_bound", "per_property")

    def __init__(self, entity: str, scheme: AlignmentScheme, score: float, score_bound: float,
                 per_property: tuple[PropertyContribution, ...]):
        setfield(self, "entity", entity)
        setfield(self, "scheme", scheme)
        setfield(self, "score", score)
        setfield(self, "score_bound", score_bound)
        setfield(self, "per_property", per_property)


def align(entity: str, taxonomy: ValueTaxonomy, sd: Mapping[NodeId, float],
          scheme: AlignmentScheme = AlignmentScheme.MEAN_WEIGHTED) -> AlignmentReport:
    """Score the satisfaction degrees ``sd`` (property node to a value in
    [-1, 1]) against a taxonomy's property nodes; ``entity`` names the report.

    Every property node must carry an importance and have a satisfaction
    degree in ``sd``; missing data is an error, never assumed zero. A
    ``scheme`` that is not an :class:`AlignmentScheme` member, such as its
    spelling ``"path"``, is refused with a ValueError.
    """
    if not isinstance(scheme, AlignmentScheme):
        raise ValueError(f"scheme must be an AlignmentScheme member, got {scheme!r}")
    paths = all_paths_counts(taxonomy)
    props = taxonomy.property_nodes()
    if not props:
        raise NoPropertyNodes("taxonomy has no property nodes to align against")
    weighted = scheme is AlignmentScheme.PATH_WEIGHTED
    per_property, exact = [], []
    for node in props:
        if node not in taxonomy.importance:
            raise MissingImportance(node)
        if node not in sd:
            raise MissingSatisfaction(node)
        sd_val = check_importance(sd[node], f"satisfaction degree of {node!r}")
        imp = taxonomy.importance[node]
        (imp_n, imp_d), (sd_n, sd_d) = imp.as_integer_ratio(), sd_val.as_integer_ratio()
        num, den = (paths[node] if weighted else 1) * imp_n * sd_n, imp_d * sd_d
        exact.append((num, den))
        per_property.append(PropertyContribution(
            node=node, sd=sd_val, importance=imp, paths=paths[node],
            contribution=_rounded(num, den, f"contribution of {node!r}")))
    # Power-of-two denominators: the largest is a multiple of every other.
    common = max(den for _, den in exact)
    total = sum(num * (common // den) for num, den in exact)
    score = _rounded(total, common * len(props), "score")
    bound = _rounded(max(paths[n] for n in props) if weighted else 1, 1, "score bound")
    return AlignmentReport(
        entity=entity, scheme=scheme, score=score, score_bound=bound,
        per_property=tuple(per_property))


def _rounded(numerator: int, denominator: int, what: str) -> float:
    """The exact ratio rounded once to the nearest float; a TaxonomyError when
    that is past the float range."""
    try:
        return numerator / denominator
    except OverflowError:
        raise TaxonomyError(f"path-weighted {what} is past the float range") from None


def explain(report: AlignmentReport) -> tuple[PropertyContribution, ...]:
    """Per-property contributions, largest magnitude first, ties by node id."""
    return tuple(sorted(report.per_property, key=lambda p: (-abs(p.contribution), p.node)))

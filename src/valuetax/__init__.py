"""Importance-annotated value taxonomies and behaviour alignment scoring.

The package models value systems as DAGs whose leaves reference verifiable
properties, keeps the importance annotations on such a graph coherent under
an averaging aggregator, derives context-specific taxonomies, and scores
how well observed behaviour aligns with them.
"""

__version__ = "0.1.0"

from . import errors
from .aggregation import (
    MEAN,
    AggregationOperator,
    Law,
    LawReport,
    check_all_laws,
    check_compensative_bounds,
    check_idempotence,
    check_monotonicity,
    check_symmetry,
    mean_aggregate,
    mean_invert,
)
from .alignment import (
    AlignmentReport,
    AlignmentScheme,
    PropertyContribution,
    SatisfactionProvider,
    SdTable,
    align,
    explain,
)
from .context import (
    KMEANS_SELECTION,
    POSITIVE_SELECTION,
    ContextSpec,
    SelectionKind,
    SelectionStrategy,
    build_context_taxonomy,
    context_holds,
    select_nodes,
)
from .io_formats import (
    export_dot,
    ingest_event_log,
    parse_context,
    parse_event_log,
    parse_taxonomy,
    serialize_taxonomy,
)
from .mutual_aid import (
    OFFER_RATIO,
    PROPERTY_CATALOG,
    TASK_BALANCE,
    VOLUNTEER_RATIO,
    CommunitySdProvider,
    CommunityState,
    DomainConfig,
    Event,
    EventKind,
    Measure,
    difference_satisfaction,
    emd_1d,
    fairness_taxonomy,
    ingest,
    kl_divergence,
    property_evaluators,
    ratio_satisfaction,
    sd_offer_ratio,
    sd_task_balance,
    sd_volunteer_ratio,
    task_imbalance,
)
from .propagation import (
    CoherenceReport,
    CoherenceViolation,
    PropagationResult,
    check_coherence,
    propagate,
)
from .taxonomy import (
    Node,
    NodeKind,
    ValidationReport,
    ValueTaxonomy,
    Violation,
    all_paths_counts,
    ancestors,
    label_node,
    property_node,
    topological_order,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

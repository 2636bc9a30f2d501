"""Importance-annotated value taxonomies and behaviour alignment scoring.

The package models value systems as DAGs whose leaves reference verifiable
properties, keeps the importance annotations on such a graph coherent under
the mean, derives context-specific taxonomies, and scores how well observed
behaviour aligns with them.
"""

__version__ = "0.1.0"

from . import errors
from .aggregation import (
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
    TASK_BALANCE,
    VOLUNTEER_RATIO,
    CommunityState,
    DomainConfig,
    EventKind,
    Measure,
    difference_satisfaction,
    emd_1d,
    fairness_taxonomy,
    ingest,
    kl_divergence,
    property_evaluators,
    ratio_satisfaction,
    satisfaction_degrees,
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
    ValueTaxonomy,
    Violation,
    all_paths_counts,
    ancestors,
    label_node,
    property_node,
    topological_order,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Mutual-aid community domain: counters and satisfaction degrees.

A community produces a stream of events - members asking for help, offering
help, being chosen to volunteer, and receiving task assignments. The module
holds no events: :func:`ingest` folds the records of an event log, as
:mod:`valuetax.io_formats` reads them, into a :class:`CommunityState` of
per-member counters plus the distribution of tasks over volunteers.

Three named properties give the community's fairness concepts computational
meaning:

* ``offer_ratio`` - one's help requests are proportionate to one's offers;
* ``volunteer_ratio`` - requests are proportionate to times volunteered;
* ``task_balance`` - tasks are spread evenly over volunteers.

For each, a piecewise-linear mapping turns the raw statistic into a
satisfaction degree in [-1, 1]: request ratios map 0 to -1, 1 to 0, and the
configured maximum to 1; distribution imbalance maps 0 to 1, the tolerance
to 0, and the configured maximum to -1. Imbalance is measured against the
uniform distribution with either Kullback-Leibler divergence or the
one-dimensional earth mover's distance.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from ._record import EMPTY_MAPPING, Record, setfield
from .errors import (
    EmptyDistribution,
    EmptyInput,
    SupportMismatch,
    UndefinedRatio,
)
from .taxonomy import ValueTaxonomy, label_node, property_node

OFFER_RATIO = "offer_ratio"
VOLUNTEER_RATIO = "volunteer_ratio"
TASK_BALANCE = "task_balance"


class EventKind(Enum):
    # in the order of CommunityState's counters
    REQUEST = "request"
    OFFER = "offer"
    VOLUNTEER_CHOSEN = "volunteer_chosen"
    TASK_ASSIGNED = "task_assigned"


class CommunityState(Record):
    """Counted behavioural facts for one community."""

    # __dict__ holds the cached members.
    __slots__ = ("requests", "offers", "volunteering", "task_distribution", "__dict__")

    def __init__(self, requests: Mapping[str, int] = EMPTY_MAPPING,
                 offers: Mapping[str, int] = EMPTY_MAPPING,
                 volunteering: Mapping[str, int] = EMPTY_MAPPING,
                 task_distribution: Mapping[str, int] = EMPTY_MAPPING):
        for name, counts in zip(self._fields, (requests, offers, volunteering, task_distribution)):
            counts = dict(counts)
            for member, count in counts.items():
                if not isinstance(count, int) or count < 0:
                    raise ValueError(f"{name}[{member!r}] must be a non-negative integer")
            setfield(self, name, MappingProxyType(counts))

    @cached_property  # stored in __dict__ directly, past Record.__setattr__
    def members(self) -> tuple[str, ...]:
        seen = set(self.requests) | set(self.offers) | set(self.volunteering) \
            | set(self.task_distribution)
        return tuple(sorted(seen))


def ingest(records: Iterable[tuple[str, str, int]]) -> CommunityState:
    """Fold event records into counters; counting is order-insensitive. A
    record is ``(kind, member, timestamp)``, ``kind`` an :class:`EventKind`
    value, taken as the event-log reader yields it, already checked (see
    :func:`~valuetax.io_formats.parse_event_log`)."""
    buckets: dict[str, dict[str, int]] = {kind.value: {} for kind in EventKind}
    for kind, member, _ in records:
        bucket = buckets[kind]
        bucket[member] = bucket.get(member, 0) + 1
    return CommunityState(*buckets.values())


class Measure(Enum):
    KL_DIVERGENCE = "kl"
    EARTH_MOVERS_1D = "emd"


class DomainConfig(Record):
    """Tunable domain parameters.

    ``max_ratio`` caps the requests-to-offers ratio (must exceed 1);
    ``epsilon`` is the imbalance tolerated before task distribution starts
    to dissatisfy, and ``max_delta`` the imbalance mapped to full
    dissatisfaction.
    """

    __slots__ = ("max_ratio", "epsilon", "max_delta", "difference_measure")

    def __init__(self, max_ratio: float = 5.0, epsilon: float = 0.1, max_delta: float = 1.0,
                 difference_measure: Measure = Measure.EARTH_MOVERS_1D):
        if not max_ratio > 1:
            raise ValueError("max_ratio must be greater than 1")
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not max_delta > epsilon:
            raise ValueError("max_delta must exceed epsilon")
        setfield(self, "max_ratio", max_ratio)
        setfield(self, "epsilon", epsilon)
        setfield(self, "max_delta", max_delta)
        setfield(self, "difference_measure", difference_measure)


def ratio_satisfaction(ratio: float, max_ratio: float) -> float:
    """Map a requests-per-offer style ratio onto [-1, 1].

    The ratio is clamped to [0, max_ratio]; 0 maps to -1, 1 to 0, and
    max_ratio to 1, linearly on each side.
    """
    ratio = min(max(ratio, 0.0), max_ratio)
    if ratio > 1.0:
        return (ratio - 1.0) / (max_ratio - 1.0)
    return ratio - 1.0


def difference_satisfaction(delta: float, epsilon: float, max_delta: float) -> float:
    """Map a distribution-imbalance value onto [-1, 1].

    The imbalance is clamped to [0, max_delta]; 0 maps to 1, epsilon to 0,
    and max_delta to -1, linearly on each side.
    """
    delta = min(max(delta, 0.0), max_delta)
    if delta < epsilon:
        return 1.0 - delta / epsilon
    return (epsilon - delta) / (max_delta - epsilon)  # +0.0, not -0.0, at epsilon


def _ratio(numerator: int, denominator: int, member: str, what: str) -> float:
    if denominator == 0:
        if numerator == 0:
            # no evidence either way: neutral ratio
            return 1.0
        raise UndefinedRatio(member, f"{numerator} requests against zero {what}")
    return numerator / denominator


def sd_offer_ratio(state: CommunityState, member: str, cfg: DomainConfig) -> float:
    """Satisfaction of ``offer_ratio`` for one member."""
    ratio = _ratio(state.requests.get(member, 0), state.offers.get(member, 0),
                   member, "offers")
    return ratio_satisfaction(ratio, cfg.max_ratio)


def sd_volunteer_ratio(state: CommunityState, member: str, cfg: DomainConfig) -> float:
    """Satisfaction of ``volunteer_ratio`` for one member."""
    ratio = _ratio(state.requests.get(member, 0), state.volunteering.get(member, 0),
                   member, "volunteering")
    return ratio_satisfaction(ratio, cfg.max_ratio)


def task_imbalance(state: CommunityState, cfg: DomainConfig) -> float:
    """Difference between the observed task distribution and the uniform one
    over the same volunteers, per the configured measure."""
    distribution = state.task_distribution
    if not distribution or sum(distribution.values()) == 0:
        raise EmptyDistribution("no tasks have been assigned")
    counts = [distribution[v] for v in sorted(distribution)]
    uniform = [1] * len(counts)
    if cfg.difference_measure is Measure.KL_DIVERGENCE:
        return kl_divergence(counts, uniform)
    return emd_1d(counts, uniform)


def sd_task_balance(state: CommunityState, cfg: DomainConfig) -> float:
    """Satisfaction of ``task_balance`` for the community as a whole."""
    return difference_satisfaction(task_imbalance(state, cfg), cfg.epsilon, cfg.max_delta)


def satisfaction_degrees(state: CommunityState, cfg: DomainConfig,
                         nodes: Iterable[str]) -> dict[str, float]:
    """Satisfaction degree of each community property among ``nodes``,
    evaluated in their order; other nodes are left out. Per-member
    properties are lifted to the community level as the mean over all
    members, and task balance is community-wide."""
    degrees = {}
    for node in nodes:
        if node == TASK_BALANCE:
            degrees[node] = sd_task_balance(state, cfg)
        elif node in (OFFER_RATIO, VOLUNTEER_RATIO):
            # looked up per call, as bench/worker.py rebinds them to count evaluations
            sd_fn = sd_offer_ratio if node == OFFER_RATIO else sd_volunteer_ratio
            members = state.members
            if not members:
                raise EmptyInput("community has no members to aggregate over")
            degrees[node] = sum(sd_fn(state, m, cfg) for m in members) / len(members)
    return degrees


def _normalize(dist: Sequence[float], name: str) -> tuple[float, ...]:
    """Probabilities from counts or weights."""
    weights = [float(v) for v in dist]
    if any(w < 0 for w in weights):
        raise ValueError(f"{name} has negative mass")
    # The builtin sum is exact on what task_imbalance passes: integer counts as
    # floats, whose sums are exact below 2**53 in any order and on any Python.
    total = sum(weights)
    if not weights or total <= 0:
        raise EmptyDistribution(f"{name} has no mass to normalize")
    return tuple(w / total for w in weights)


def _normalize_pair(d: Sequence[float], u: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    probs_d = _normalize(d, "first distribution")
    probs_u = _normalize(u, "second distribution")
    if len(probs_d) != len(probs_u):
        raise SupportMismatch(f"supports differ: {len(probs_d)} vs {len(probs_u)} points")
    return probs_d, probs_u


def kl_divergence(d: Sequence[float], u: Sequence[float]) -> float:
    """Kullback-Leibler divergence of ``d`` from ``u`` in nats, with inputs
    normalized from counts; 0*log(0) is taken as 0. The reference must be
    strictly positive wherever ``d`` has mass."""
    total = 0.0
    for p, q in zip(*_normalize_pair(d, u)):
        if p == 0.0:
            continue
        if q == 0.0:
            raise ValueError("divergence undefined: reference has zero mass where the first does not")
        total += p * math.log(p / q)
    return total


def emd_1d(d: Sequence[float], u: Sequence[float]) -> float:
    """Exact earth mover's distance between two distributions on the same
    ordered support, given as sequences of equal length, with unit ground
    distance: the summed absolute difference of their cumulative
    distributions."""
    total = 0.0
    cdf_d = 0.0
    cdf_u = 0.0
    for p, q in zip(*_normalize_pair(d, u)):
        cdf_d += p
        cdf_u += q
        total += abs(cdf_d - cdf_u)
    return total


def property_evaluators(cfg: DomainConfig):
    """Boolean evaluators for the community properties over a CommunityState,
    used to decide whether a context holds. Ratio properties are judged on
    community totals."""
    def offer_ratio_holds(state: CommunityState) -> bool:
        return _total_ratio(state.requests, state.offers) > 1.0

    def volunteer_ratio_holds(state: CommunityState) -> bool:
        return _total_ratio(state.requests, state.volunteering) > 1.0

    def task_balance_holds(state: CommunityState) -> bool:
        return task_imbalance(state, cfg) < cfg.epsilon

    return {
        OFFER_RATIO: offer_ratio_holds,
        VOLUNTEER_RATIO: volunteer_ratio_holds,
        TASK_BALANCE: task_balance_holds,
    }


def _total_ratio(numerators: Mapping[str, int], denominators: Mapping[str, int]) -> float:
    return _ratio(sum(numerators.values()), sum(denominators.values()), "community", "total")


def fairness_taxonomy() -> ValueTaxonomy:
    """The community's general fairness taxonomy.

    Fairness is understood through reciprocity and equal treatment;
    reciprocity through a balanced give & take, grounded by the two request
    ratio properties; equal treatment through an equal division of workload,
    grounded by the task balance property, and through equal pay, which has
    no property grounding yet.
    """
    nodes = [
        label_node("fairness"),
        label_node("reciprocity"),
        label_node("give_take", "balanced give & take"),
        label_node("equal_treatment", "equal treatment"),
        label_node("workload_split", "equal division of workload"),
        label_node("equal_pay", "equal pay"),
        property_node(OFFER_RATIO),
        property_node(VOLUNTEER_RATIO),
        property_node(TASK_BALANCE),
    ]
    edges = [
        ("fairness", "reciprocity"),
        ("fairness", "equal_treatment"),
        ("reciprocity", "give_take"),
        ("give_take", OFFER_RATIO),
        ("give_take", VOLUNTEER_RATIO),
        ("equal_treatment", "workload_split"),
        ("equal_treatment", "equal_pay"),
        ("workload_split", TASK_BALANCE),
    ]
    return ValueTaxonomy.build(nodes, edges)

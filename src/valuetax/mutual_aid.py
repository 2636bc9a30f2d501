"""Mutual-aid community domain: events, counters, and satisfaction degrees.

A community produces a stream of events - members asking for help, offering
help, being chosen to volunteer, and receiving task assignments. Folding a
log of these yields a :class:`CommunityState` of per-member counters plus
the distribution of tasks over volunteers.

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
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    EmptyDistribution,
    EmptyInput,
    MalformedEvent,
    MissingSatisfaction,
    SupportMismatch,
    UndefinedRatio,
)
from .taxonomy import ValueTaxonomy, label_node, property_node

OFFER_RATIO = "offer_ratio"
VOLUNTEER_RATIO = "volunteer_ratio"
TASK_BALANCE = "task_balance"

PROPERTY_CATALOG: Mapping[str, str] = MappingProxyType({
    OFFER_RATIO: "help requests are proportionate to help offers",
    VOLUNTEER_RATIO: "help requests are proportionate to times chosen as volunteer",
    TASK_BALANCE: "tasks are distributed evenly over volunteers",
})


class EventKind(Enum):
    # in the order of CommunityState's counters
    REQUEST = "request"
    OFFER = "offer"
    VOLUNTEER_CHOSEN = "volunteer_chosen"
    TASK_ASSIGNED = "task_assigned"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    member: str
    timestamp: int

    def __post_init__(self):
        if not isinstance(self.kind, EventKind):
            raise ValueError(f"unknown event kind: {self.kind!r}")
        if not isinstance(self.member, str) or not self.member:
            raise ValueError(f"event member must be a non-empty string, got {self.member!r}")
        if isinstance(self.timestamp, bool) or not isinstance(self.timestamp, int) \
                or self.timestamp < 0:
            raise ValueError(f"event timestamp must be a non-negative integer, got {self.timestamp!r}")


@dataclass(frozen=True)
class CommunityState:
    """Counted behavioural facts for one community."""

    requests: Mapping[str, int] = field(default_factory=dict)
    offers: Mapping[str, int] = field(default_factory=dict)
    volunteering: Mapping[str, int] = field(default_factory=dict)
    task_distribution: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("requests", "offers", "volunteering", "task_distribution"):
            counts = dict(getattr(self, name))
            for member, count in counts.items():
                if not isinstance(count, int) or count < 0:
                    raise ValueError(f"{name}[{member!r}] must be a non-negative integer")
            object.__setattr__(self, name, MappingProxyType(counts))

    @cached_property  # stored in __dict__ directly, past the frozen __setattr__
    def members(self) -> tuple[str, ...]:
        seen = set(self.requests) | set(self.offers) | set(self.volunteering) \
            | set(self.task_distribution)
        return tuple(sorted(seen))


def ingest(events: Iterable[Event]) -> CommunityState:
    """Fold an event sequence into counters. Counting is order-insensitive;
    malformed entries are rejected with their position."""
    buckets: dict[EventKind, dict[str, int]] = {kind: {} for kind in EventKind}
    for index, event in enumerate(events):
        if not isinstance(event, Event):
            raise MalformedEvent(index, f"not an Event: {event!r}")
        bucket = buckets.get(event.kind)
        if bucket is None:
            raise MalformedEvent(index, f"unknown event kind: {event.kind!r}")
        bucket[event.member] = bucket.get(event.member, 0) + 1
    return CommunityState(*buckets.values())


class Measure(Enum):
    KL_DIVERGENCE = "kl"
    EARTH_MOVERS_1D = "emd"


@dataclass(frozen=True)
class DomainConfig:
    """Tunable domain parameters.

    ``max_ratio`` caps the requests-to-offers ratio (must exceed 1);
    ``epsilon`` is the imbalance tolerated before task distribution starts
    to dissatisfy, and ``max_delta`` the imbalance mapped to full
    dissatisfaction.
    """

    max_ratio: float = 5.0
    epsilon: float = 0.1
    max_delta: float = 1.0
    difference_measure: Measure = Measure.EARTH_MOVERS_1D

    def __post_init__(self):
        if not self.max_ratio > 1:
            raise ValueError("max_ratio must be greater than 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.max_delta > self.epsilon:
            raise ValueError("max_delta must exceed epsilon")


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
    return -(delta - epsilon) / (max_delta - epsilon)


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
    uniform = {v: 1 for v in distribution}
    if cfg.difference_measure is Measure.KL_DIVERGENCE:
        return kl_divergence(distribution, uniform)
    return emd_1d(distribution, uniform)


def sd_task_balance(state: CommunityState, cfg: DomainConfig) -> float:
    """Satisfaction of ``task_balance`` for the community as a whole."""
    return difference_satisfaction(task_imbalance(state, cfg), cfg.epsilon, cfg.max_delta)


DistributionLike = Union[Mapping[str, float], Sequence[float]]


def _normalize(dist: DistributionLike, name: str) -> tuple[tuple, tuple[float, ...]]:
    """Sorted support and probabilities from counts or weights."""
    if isinstance(dist, Mapping):
        items = sorted(dist.items())
        support = tuple(k for k, _ in items)
        weights = [float(v) for _, v in items]
    else:
        weights = [float(v) for v in dist]
        support = tuple(range(len(weights)))
    if any(w < 0 for w in weights):
        raise ValueError(f"{name} has negative mass")
    total = sum(weights)
    if not support or total <= 0:
        raise EmptyDistribution(f"{name} has no mass to normalize")
    return support, tuple(w / total for w in weights)


def kl_divergence(d: DistributionLike, u: DistributionLike) -> float:
    """Kullback-Leibler divergence of ``d`` from ``u`` in nats, with inputs
    normalized from counts; 0*log(0) is taken as 0. The reference must be
    strictly positive wherever ``d`` has mass."""
    support_d, probs_d = _normalize(d, "first distribution")
    support_u, probs_u = _normalize(u, "second distribution")
    if support_d != support_u:
        raise SupportMismatch(f"supports differ: {support_d} vs {support_u}")
    total = 0.0
    for p, q in zip(probs_d, probs_u):
        if p == 0.0:
            continue
        if q == 0.0:
            raise ValueError("divergence undefined: reference has zero mass where the first does not")
        total += p * math.log(p / q)
    return total


def emd_1d(d: DistributionLike, u: DistributionLike) -> float:
    """Exact earth mover's distance between two distributions on the same
    ordered support with unit ground distance: the summed absolute
    difference of their cumulative distributions."""
    support_d, probs_d = _normalize(d, "first distribution")
    support_u, probs_u = _normalize(u, "second distribution")
    if support_d != support_u:
        raise SupportMismatch(f"supports differ: {support_d} vs {support_u}")
    total = 0.0
    cdf_d = 0.0
    cdf_u = 0.0
    for p, q in zip(probs_d, probs_u):
        cdf_d += p
        cdf_u += q
        total += abs(cdf_d - cdf_u)
    return total


@dataclass(frozen=True)
class CommunitySdProvider:
    """Satisfaction degrees for the three community properties.

    The entity only names the report: per-member properties are lifted to
    the community level as the mean over all members, and task balance is
    community-wide.
    """

    state: CommunityState
    cfg: DomainConfig

    def lookup(self, entity: str, node: str) -> float:
        if node == OFFER_RATIO:
            return self._member_mean(sd_offer_ratio)
        if node == VOLUNTEER_RATIO:
            return self._member_mean(sd_volunteer_ratio)
        if node == TASK_BALANCE:
            return sd_task_balance(self.state, self.cfg)
        raise MissingSatisfaction(node)

    def _member_mean(self, sd_fn) -> float:
        members = self.state.members
        if not members:
            raise EmptyInput("community has no members to aggregate over")
        return sum(sd_fn(self.state, m, self.cfg) for m in members) / len(members)


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

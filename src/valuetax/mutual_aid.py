"""Mutual-aid community domain: counters and satisfaction degrees.

A community produces a stream of events - members asking for help, offering
help, being chosen to volunteer, and receiving task assignments. The module
holds no events: :func:`ingest` folds the records of an event log, as
:mod:`valuetax.io_formats` reads them, into a :class:`CommunityState` of
per-member counters plus the distribution of tasks over volunteers. The rules
of an event's kind and member, and their words, have one home,
:func:`event_refusal`, which the fold and the log's line decoder both call; the
fold judges each record where it reads it, so the state it builds is checked
as it is built.

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
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ._record import EMPTY_MAPPING, Record, setfield
from .aggregation import mean_aggregate
from .errors import (
    EmptyDistribution,
    EmptyInput,
    ParseError,
    SupportMismatch,
    UndefinedRatio,
)
from .taxonomy import ValueTaxonomy, as_number, check_node_ids, label_node, property_node

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
    """Counted behavioural facts for one community. The constructor checks and
    copies the counters it is given; :func:`ingest` checks each record as it
    reads it and hands over its own counters without a copy."""

    __slots__ = ("requests", "offers", "volunteering", "task_distribution", "_members")

    def __init__(self, requests: Mapping[str, int] = EMPTY_MAPPING,
                 offers: Mapping[str, int] = EMPTY_MAPPING,
                 volunteering: Mapping[str, int] = EMPTY_MAPPING,
                 task_distribution: Mapping[str, int] = EMPTY_MAPPING):
        counters = list(map(dict, (requests, offers, volunteering, task_distribution)))
        for name, counts in zip(self._fields, counters):
            for member, count in counts.items():
                if not isinstance(member, str) or not member:
                    raise ValueError(f"{name}[{member!r}] member name must be a non-empty string")
                if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                    raise ValueError(f"{name}[{member!r}] must be a non-negative integer")
        # a dict grows to the distinct names; a set union is sized for every counter's entries
        self._hold(dict.fromkeys(chain.from_iterable(counters)), *counters)

    def _hold(self, members: Iterable[str], *counters: dict[str, int]) -> None:
        """Store ``counters``, checked dicts that no caller holds any more, and
        their distinct ``members``."""
        for name, counts in zip(self._fields, counters):
            setfield(self, name, MappingProxyType(counts))
        setfield(self, "_members", tuple(sorted(members)))

    @property
    def members(self) -> tuple[str, ...]:
        return self._members


_KINDS = frozenset(kind.value for kind in EventKind)


def event_refusal(kind: object, member: object) -> Optional[str]:
    """Why an event is refused, or None: its ``kind`` is no :class:`EventKind`
    value, or its ``member`` no non-empty string. The rules, and their words, of
    both the event-log reader and :func:`ingest`."""
    if not isinstance(kind, str) or kind not in _KINDS:  # a list is unhashable
        return f"unknown event kind: {kind!r}"
    if not isinstance(member, str) or not member:
        return f"event member must be a non-empty string, got {member!r}"
    return None


def ingest(records: Iterable[tuple[str, str]]) -> CommunityState:
    """Fold event records into counters; counting is order-insensitive. A
    record is ``(kind, member)``, ``kind`` an :class:`EventKind` value, as
    :func:`~valuetax.io_formats.ingest_event_log` reads them from a log. The
    counters hold one string per member name, the first one read, and become the
    state's own, uncopied. Each record is judged where it is read: one that is
    no pair raises a ValueError, and so does one that :func:`event_refusal`
    refuses, a member name being checked the first time it is seen. An error
    raised by ``records`` itself passes through unchanged."""
    buckets: dict[str, dict[str, int]] = {kind.value: {} for kind in EventKind}
    names: dict[str, str] = {}
    for record in records:
        try:
            kind, member = record
        except (TypeError, ValueError):
            raise ValueError("event record must be a (kind, member) pair") from None
        try:
            bucket = buckets[kind]
            count = bucket.get(member)
        except (KeyError, TypeError):  # an unknown or unhashable kind, an unhashable member
            raise ValueError(event_refusal(kind, member)) from None
        if count is None:
            if member not in names and (refusal := event_refusal(kind, member)):
                raise ValueError(refusal)  # a name is checked the first time it is seen
            bucket[names.setdefault(member, member)] = 1
        else:
            bucket[member] = count + 1  # the key already stored is kept
    state = CommunityState.__new__(CommunityState)
    state._hold(names, *buckets.values())
    return state


class Measure(Enum):
    KL_DIVERGENCE = "kl"
    EARTH_MOVERS_1D = "emd"


class DomainConfig(Record):
    """Tunable domain parameters.

    ``max_ratio`` caps the requests-to-offers ratio (must exceed 1);
    ``epsilon`` is the imbalance tolerated before task distribution starts
    to dissatisfy, and ``max_delta`` the imbalance mapped to full
    dissatisfaction. Each is a number, held as a float (see
    :func:`~valuetax.taxonomy.as_number`), and ``difference_measure`` a
    :class:`Measure` member; another value is refused with a ParseError
    located at its field.
    """

    __slots__ = ("max_ratio", "epsilon", "max_delta", "difference_measure")

    def __init__(self, max_ratio: float = 5.0, epsilon: float = 0.1, max_delta: float = 1.0,
                 difference_measure: Measure = Measure.EARTH_MOVERS_1D):
        for field, value in (("max_ratio", max_ratio), ("epsilon", epsilon), ("max_delta", max_delta)):
            try:
                setfield(self, field, as_number(value))
            except ValueError as exc:
                raise ParseError(field, str(exc)) from None
        if not isinstance(difference_measure, Measure):
            raise ParseError("difference_measure", f"unknown difference measure: {difference_measure!r}")
        _check_ratio_cap(self.max_ratio)
        _check_tolerance(self.epsilon, self.max_delta)
        setfield(self, "difference_measure", difference_measure)


def _check_ratio_cap(max_ratio: float) -> None:
    """The rule of a ratio ramp's cap, DomainConfig's and the ramp's."""
    if not max_ratio > 1:
        raise ValueError("max_ratio must be greater than 1")


def _check_tolerance(epsilon: float, max_delta: float) -> None:
    """The rules of a difference ramp's tolerance and cap, DomainConfig's and the ramp's."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not max_delta > epsilon:
        raise ValueError("max_delta must exceed epsilon")


def ratio_satisfaction(ratio: float, max_ratio: float) -> float:
    """Map a requests-per-offer style ratio onto [-1, 1].

    The ratio is clamped to [0, max_ratio]; 0 maps to -1, 1 to 0, and max_ratio
    (infinite too) to 1, linearly on each side. A NaN argument raises a
    ValueError that names it, a cap DomainConfig refuses one in its words.
    """
    if ratio != ratio or max_ratio != max_ratio:  # only a NaN differs from itself
        raise _nan_refusal(ratio=ratio, max_ratio=max_ratio)
    _check_ratio_cap(max_ratio)
    if ratio >= max_ratio:  # inf / inf would be NaN at an infinite cap
        return 1.0
    if ratio > 1.0:
        return (ratio - 1.0) / (max_ratio - 1.0)
    return max(ratio, 0.0) - 1.0


def difference_satisfaction(delta: float, epsilon: float, max_delta: float) -> float:
    """Map a distribution-imbalance value onto [-1, 1].

    The imbalance is clamped to [0, max_delta]; 0 maps to 1, epsilon to 0, and
    max_delta (infinite too) to -1, linearly on each side. A NaN argument raises
    a ValueError that names it, parameters DomainConfig refuses one in its words.
    """
    if delta != delta or epsilon != epsilon or max_delta != max_delta:
        raise _nan_refusal(delta=delta, epsilon=epsilon, max_delta=max_delta)
    _check_tolerance(epsilon, max_delta)
    if delta >= max_delta:  # inf / inf would be NaN at an infinite cap
        return -1.0
    if delta < epsilon:
        return 1.0 - max(delta, 0.0) / epsilon
    return (epsilon - delta) / (max_delta - epsilon)  # +0.0, not -0.0, at epsilon


def _nan_refusal(**arguments: float) -> ValueError:
    """The refusal of a ramp's first NaN argument, by its name."""
    name = next(name for name, value in arguments.items() if value != value)
    return ValueError(f"{name} must not be NaN")


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
    members, and task balance is community-wide. A bare string is refused
    (:func:`~valuetax.taxonomy.check_node_ids`)."""
    degrees = {}
    for node in check_node_ids(nodes):
        if node == TASK_BALANCE:
            degrees[node] = sd_task_balance(state, cfg)
        elif node in (OFFER_RATIO, VOLUNTEER_RATIO):
            # looked up per call, as bench/worker.py rebinds them to count evaluations
            sd_fn = sd_offer_ratio if node == OFFER_RATIO else sd_volunteer_ratio
            members = state.members
            if not members:
                raise EmptyInput("community has no members to aggregate over")
            degrees[node] = mean_aggregate([sd_fn(state, m, cfg) for m in members])
    return degrees


def _normalize(dist: Sequence[float], name: str) -> Iterator[float]:
    """Probabilities from counts or weights, divided out lazily once the masses
    are checked and summed. A mass is a number by the rule of
    :func:`~valuetax.taxonomy.as_number`, an int past the float range being
    infinite; none may be negative, and their sum must be finite."""
    # The builtin sum is exact on what task_imbalance passes: integer counts as
    # floats, whose sums are exact below 2**53 in any order and on any Python.
    try:
        total = sum(map(as_number, dist))  # no list of floats, which would raise align's peak
    except ValueError as exc:
        raise ValueError(f"{name} mass {exc}") from None
    if not math.isfinite(total) or (dist and min(dist) < 0):  # a finite total holds no NaN
        if any(v < 0 for v in dist):
            raise ValueError(f"{name} has negative mass")
        raise ValueError(f"{name} has non-finite mass")
    if total <= 0:  # an empty sum is 0
        raise EmptyDistribution(f"{name} has no mass to normalize")
    return (float(v) / total for v in dist)


def _normalize_pair(d: Sequence[float], u: Sequence[float]) -> tuple[Iterator[float], Iterator[float]]:
    probs = _normalize(d, "first distribution"), _normalize(u, "second distribution")
    if len(d) != len(u):
        raise SupportMismatch(f"supports differ: {len(d)} vs {len(u)} points")
    return probs


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

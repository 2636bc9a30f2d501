"""Aggregation operators over children importances, and a law harness.

A parent node's importance has to agree with an aggregate of its children's
importances. Any averaging operator may be plugged in for coherence
checking; the arithmetic mean is the default. Propagation is fixed to the
mean: it aggregates with :func:`mean_aggregate` and solves for unknown
children with :func:`mean_invert`.

The harness checks the algebraic laws an importance aggregator should
satisfy - symmetry, idempotence, monotonicity, and the compensative bounds
min(values) <= op(values) <= max(values) - by sampling, and reports a
counterexample when a law fails.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from ._record import Record, setfield
from .errors import EmptyInput

LAW_TOLERANCE = 1e-12
DEFAULT_TRIALS = 1000
_MAX_TUPLE_LEN = 8


def mean_aggregate(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty value sequence."""
    values = tuple(values)
    if not values:
        raise EmptyInput("cannot aggregate an empty tuple of importances")
    return sum(values) / len(values)


def mean_invert(parent: float, known: Sequence[float], unknown_count: int = 1) -> float:
    """Value each of ``unknown_count`` missing children must take for the mean
    of all children to equal ``parent``; the remainder splits equally."""
    if unknown_count < 1:
        raise ValueError("unknown_count must be >= 1")
    total = len(known) + unknown_count
    return (parent * total - sum(known)) / unknown_count


class AggregationOperator(Record):
    """A named aggregation function over importance tuples, as the law
    harness and :func:`~valuetax.propagation.check_coherence` take it."""

    __slots__ = ("name", "apply")

    def __init__(self, name: str, apply: Callable[[Sequence[float]], float]):
        setfield(self, "name", name)
        setfield(self, "apply", apply)


MEAN = AggregationOperator("mean", mean_aggregate)


class Law(Enum):
    SYMMETRY = "Symmetry"
    IDEMPOTENCE = "Idempotence"
    MONOTONICITY = "Monotonicity"
    COMPENSATIVE_BOUNDS = "CompensativeBounds"


class LawReport(Record):
    __slots__ = ("law", "passed", "counterexample")

    def __init__(self, law: Law, passed: bool, counterexample: Optional[tuple] = None):
        if not passed and counterexample is None:
            raise ValueError("a failed law report must carry a counterexample")
        setfield(self, "law", law)
        setfield(self, "passed", passed)
        setfield(self, "counterexample", counterexample)


def _rng(rng: Optional[random.Random]) -> random.Random:
    return rng if rng is not None else random.Random()


def _random_tuple(rng: random.Random, max_len: int = _MAX_TUPLE_LEN) -> tuple[float, ...]:
    return tuple(rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, max_len)))


def sample_tuples(rng: random.Random, trials: int) -> Iterable[tuple[float, ...]]:
    for _ in range(trials):
        yield _random_tuple(rng)


def check_symmetry(op: AggregationOperator,
                   samples: Optional[Iterable[tuple[float, ...]]] = None,
                   trials: int = DEFAULT_TRIALS,
                   rng: Optional[random.Random] = None) -> LawReport:
    """Sample tuples and compare the operator on each against a random permutation."""
    rng = _rng(rng)
    for values in samples if samples is not None else sample_tuples(rng, trials):
        permuted = list(values)
        rng.shuffle(permuted)
        permuted = tuple(permuted)
        if abs(op.apply(values) - op.apply(permuted)) > LAW_TOLERANCE:
            return LawReport(Law.SYMMETRY, False, (values, permuted))
    return LawReport(Law.SYMMETRY, True)


def check_idempotence(op: AggregationOperator,
                      samples: Optional[Iterable[float]] = None,
                      trials: int = DEFAULT_TRIALS,
                      rng: Optional[random.Random] = None) -> LawReport:
    """Check op(i, ..., i) == i over sampled i, including the -1 and 1 endpoints."""
    rng = _rng(rng)
    if samples is None:
        samples = [-1.0, 1.0, 0.0] + [rng.uniform(-1.0, 1.0) for _ in range(max(0, trials - 3))]
    for value in samples:
        constant = tuple([value] * rng.randint(1, _MAX_TUPLE_LEN))
        if abs(op.apply(constant) - value) > LAW_TOLERANCE:
            return LawReport(Law.IDEMPOTENCE, False, (constant,))
    return LawReport(Law.IDEMPOTENCE, True)


def sample_ordered_pairs(rng: random.Random, trials: int) -> Iterable[tuple[tuple, tuple]]:
    """Pairs (lo, hi) with lo <= hi elementwise, for monotonicity checking."""
    for _ in range(trials):
        lo = _random_tuple(rng)
        hi = tuple(rng.uniform(v, 1.0) for v in lo)
        yield lo, hi


def check_monotonicity(op: AggregationOperator,
                       samples: Optional[Iterable[tuple[tuple, tuple]]] = None,
                       trials: int = DEFAULT_TRIALS,
                       rng: Optional[random.Random] = None) -> LawReport:
    rng = _rng(rng)
    for lo, hi in samples if samples is not None else sample_ordered_pairs(rng, trials):
        if op.apply(lo) > op.apply(hi) + LAW_TOLERANCE:
            return LawReport(Law.MONOTONICITY, False, (lo, hi))
    return LawReport(Law.MONOTONICITY, True)


def check_compensative_bounds(op: AggregationOperator,
                              samples: Optional[Iterable[tuple[float, ...]]] = None,
                              trials: int = DEFAULT_TRIALS,
                              rng: Optional[random.Random] = None) -> LawReport:
    """Check min(values) <= op(values) <= max(values) on sampled tuples."""
    rng = _rng(rng)
    for values in samples if samples is not None else sample_tuples(rng, trials):
        result = op.apply(values)
        if result < min(values) - LAW_TOLERANCE or result > max(values) + LAW_TOLERANCE:
            return LawReport(Law.COMPENSATIVE_BOUNDS, False, (values,))
    return LawReport(Law.COMPENSATIVE_BOUNDS, True)


def check_all_laws(op: AggregationOperator,
                   trials: int = DEFAULT_TRIALS,
                   rng: Optional[random.Random] = None) -> dict[Law, LawReport]:
    """Run the full law suite against one operator."""
    rng = _rng(rng)
    return {
        Law.SYMMETRY: check_symmetry(op, trials=trials, rng=rng),
        Law.IDEMPOTENCE: check_idempotence(op, trials=trials, rng=rng),
        Law.MONOTONICITY: check_monotonicity(op, trials=trials, rng=rng),
        Law.COMPENSATIVE_BOUNDS: check_compensative_bounds(op, trials=trials, rng=rng),
    }

"""The mean over children importances, and an algebraic-law harness.

A parent node's importance has to equal the mean of its children's
importances. Propagation and the coherence check both use this module's
:func:`mean_aggregate`, and propagation solves for unknown children with
:func:`mean_invert`.

The harness vets a candidate aggregator, given as a plain function of a
value sequence, against the algebraic laws an importance aggregator should
satisfy - symmetry, idempotence, monotonicity, and the compensative bounds
min(values) <= op(values) <= max(values) - by seeded sampling, and reports
a counterexample when a law fails.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Callable, Optional, Sequence

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


Aggregator = Callable[[Sequence[float]], float]


class Law(Enum):
    SYMMETRY = "Symmetry"
    IDEMPOTENCE = "Idempotence"
    MONOTONICITY = "Monotonicity"
    COMPENSATIVE_BOUNDS = "CompensativeBounds"


class LawReport(Record):
    """The outcome of one law check: the law passed unless a counterexample was found."""

    __slots__ = ("law", "counterexample")

    def __init__(self, law: Law, counterexample: Optional[tuple] = None):
        setfield(self, "law", law)
        setfield(self, "counterexample", counterexample)

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def _random_tuple(rng: random.Random) -> tuple[float, ...]:
    return tuple(rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, _MAX_TUPLE_LEN)))


def check_symmetry(op: Aggregator, *, trials: int = DEFAULT_TRIALS,
                   rng: random.Random) -> LawReport:
    """Sample tuples and compare the operator on each against a random permutation."""
    for _ in range(trials):
        values = _random_tuple(rng)
        permuted = list(values)
        rng.shuffle(permuted)
        permuted = tuple(permuted)
        if abs(op(values) - op(permuted)) > LAW_TOLERANCE:
            return LawReport(Law.SYMMETRY, (values, permuted))
    return LawReport(Law.SYMMETRY)


def check_idempotence(op: Aggregator, *, trials: int = DEFAULT_TRIALS,
                      rng: random.Random) -> LawReport:
    """Check op(i, ..., i) == i over sampled i, including the -1 and 1 endpoints."""
    samples = [-1.0, 1.0, 0.0] + [rng.uniform(-1.0, 1.0) for _ in range(max(0, trials - 3))]
    for value in samples:
        constant = tuple([value] * rng.randint(1, _MAX_TUPLE_LEN))
        if abs(op(constant) - value) > LAW_TOLERANCE:
            return LawReport(Law.IDEMPOTENCE, (constant,))
    return LawReport(Law.IDEMPOTENCE)


def check_monotonicity(op: Aggregator, *, trials: int = DEFAULT_TRIALS,
                       rng: random.Random) -> LawReport:
    """Check op(lo) <= op(hi) on sampled pairs with lo <= hi elementwise."""
    for _ in range(trials):
        lo = _random_tuple(rng)
        hi = tuple(rng.uniform(v, 1.0) for v in lo)
        if op(lo) > op(hi) + LAW_TOLERANCE:
            return LawReport(Law.MONOTONICITY, (lo, hi))
    return LawReport(Law.MONOTONICITY)


def check_compensative_bounds(op: Aggregator, *, trials: int = DEFAULT_TRIALS,
                              rng: random.Random) -> LawReport:
    """Check min(values) <= op(values) <= max(values) on sampled tuples."""
    for _ in range(trials):
        values = _random_tuple(rng)
        result = op(values)
        if result < min(values) - LAW_TOLERANCE or result > max(values) + LAW_TOLERANCE:
            return LawReport(Law.COMPENSATIVE_BOUNDS, (values,))
    return LawReport(Law.COMPENSATIVE_BOUNDS)


def check_all_laws(op: Aggregator, *, trials: int = DEFAULT_TRIALS,
                   rng: random.Random) -> dict[Law, LawReport]:
    """Run the full law suite against one operator, drawing every sample from ``rng``."""
    return {
        Law.SYMMETRY: check_symmetry(op, trials=trials, rng=rng),
        Law.IDEMPOTENCE: check_idempotence(op, trials=trials, rng=rng),
        Law.MONOTONICITY: check_monotonicity(op, trials=trials, rng=rng),
        Law.COMPENSATIVE_BOUNDS: check_compensative_bounds(op, trials=trials, rng=rng),
    }

"""The mean over children importances, and an algebraic-law harness.

A parent node's importance has to equal the mean of its children's
importances. Every average the package takes - propagation, the coherence
check, two-means selection and the member mean of a satisfaction degree -
is this module's :func:`mean_aggregate`, and propagation solves for unknown
children with :func:`mean_invert`. Both sum with :func:`math.fsum`, whose
sum is correctly rounded, so a mean does not depend on the order of its
values or on the Python version.

The harness vets a candidate aggregator, given as a plain function of a
value sequence, against the algebraic laws an importance aggregator should
satisfy - symmetry, idempotence, monotonicity, and the compensative bounds
min(values) <= op(values) <= max(values) - by seeded sampling. Each check
returns the counterexample it found, or None when the law held on every
sample.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional, Sequence

from .errors import EmptyInput

LAW_TOLERANCE = 1e-12
DEFAULT_TRIALS = 1000
_MAX_TUPLE_LEN = 8


def mean_aggregate(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty value sequence: the correctly rounded
    sum divided by the count."""
    if not values:
        raise EmptyInput("cannot aggregate an empty tuple of importances")
    return math.fsum(values) / len(values)


def mean_invert(parent: float, known: Sequence[float], unknown_count: int = 1) -> float:
    """Value each of ``unknown_count`` missing children must take for the mean
    of all children to equal ``parent``; the remainder splits equally."""
    if unknown_count < 1:
        raise ValueError("unknown_count must be >= 1")
    total = len(known) + unknown_count
    return math.fsum([parent * total, *(-v for v in known)]) / unknown_count


Aggregator = Callable[[Sequence[float]], float]


def _random_tuple(rng: random.Random) -> tuple[float, ...]:
    return tuple(rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, _MAX_TUPLE_LEN)))


def check_symmetry(op: Aggregator, *, trials: int = DEFAULT_TRIALS,
                   rng: random.Random) -> Optional[tuple]:
    """Sample tuples and compare the operator on each against a random
    permutation; a counterexample is ``(values, permuted)``."""
    for _ in range(trials):
        values = _random_tuple(rng)
        permuted = list(values)
        rng.shuffle(permuted)
        permuted = tuple(permuted)
        if abs(op(values) - op(permuted)) > LAW_TOLERANCE:
            return values, permuted
    return None


def check_idempotence(op: Aggregator, *, trials: int = DEFAULT_TRIALS,
                      rng: random.Random) -> Optional[tuple]:
    """Check op(i, ..., i) == i over sampled i, including the -1 and 1
    endpoints; a counterexample is ``(constant,)``."""
    samples = [-1.0, 1.0, 0.0] + [rng.uniform(-1.0, 1.0) for _ in range(max(0, trials - 3))]
    for value in samples:
        constant = tuple([value] * rng.randint(1, _MAX_TUPLE_LEN))
        if abs(op(constant) - value) > LAW_TOLERANCE:
            return (constant,)
    return None


def check_monotonicity(op: Aggregator, *, trials: int = DEFAULT_TRIALS,
                       rng: random.Random) -> Optional[tuple]:
    """Check op(lo) <= op(hi) on sampled pairs with lo <= hi elementwise; a
    counterexample is ``(lo, hi)``."""
    for _ in range(trials):
        lo = _random_tuple(rng)
        hi = tuple(rng.uniform(v, 1.0) for v in lo)
        if op(lo) > op(hi) + LAW_TOLERANCE:
            return lo, hi
    return None


def check_compensative_bounds(op: Aggregator, *, trials: int = DEFAULT_TRIALS,
                              rng: random.Random) -> Optional[tuple]:
    """Check min(values) <= op(values) <= max(values) on sampled tuples; a
    counterexample is ``(values,)``."""
    for _ in range(trials):
        values = _random_tuple(rng)
        result = op(values)
        if result < min(values) - LAW_TOLERANCE or result > max(values) + LAW_TOLERANCE:
            return (values,)
    return None


def check_all_laws(op: Aggregator, *, trials: int = DEFAULT_TRIALS,
                   rng: random.Random) -> dict[str, Optional[tuple]]:
    """Run the full law suite against one operator, drawing every sample from
    ``rng``: each law's name to its counterexample, or None."""
    return {
        "Symmetry": check_symmetry(op, trials=trials, rng=rng),
        "Idempotence": check_idempotence(op, trials=trials, rng=rng),
        "Monotonicity": check_monotonicity(op, trials=trials, rng=rng),
        "CompensativeBounds": check_compensative_bounds(op, trials=trials, rng=rng),
    }

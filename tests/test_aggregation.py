"""Mean aggregation and law harness tests."""

from __future__ import annotations

import random
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valuetax import (
    check_all_laws,
    check_compensative_bounds,
    check_idempotence,
    check_monotonicity,
    check_symmetry,
    mean_aggregate,
    mean_invert,
)
from valuetax.errors import EmptyInput

importances = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
importance_tuples = st.lists(importances, min_size=1, max_size=8).map(tuple)


# Candidate aggregators are plain functions of a value sequence.
def first(v):
    return v[0]


def negated_mean(v):
    return -mean_aggregate(v)


def above_max(v):
    return max(v) + 0.1


class TestMean:
    def test_two_values(self):
        assert mean_aggregate((0.8, 0.7)) == pytest.approx(0.75, abs=1e-12)

    def test_idempotent_on_constant_tuple(self):
        for i in (-1.0, -0.25, 0.0, 0.6, 1.0):
            assert mean_aggregate((i, i, i)) == pytest.approx(i, abs=1e-12)

    def test_symmetric_about_zero(self):
        assert mean_aggregate((-1.0, 1.0)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            mean_aggregate(())

    @given(importance_tuples)
    def test_result_between_min_and_max(self, values):
        result = mean_aggregate(values)
        assert min(values) - 1e-12 <= result <= max(values) + 1e-12

    @given(importance_tuples, importances)
    def test_invert_restores_mean(self, known, parent):
        missing = mean_invert(parent, known)
        assert mean_aggregate(tuple(known) + (missing,)) == pytest.approx(parent, abs=1e-12)

    @given(importance_tuples, importances, st.integers(min_value=1, max_value=5))
    def test_invert_with_equal_split(self, known, parent, unknown_count):
        share = mean_invert(parent, known, unknown_count)
        full = tuple(known) + (share,) * unknown_count
        assert mean_aggregate(full) == pytest.approx(parent, abs=1e-12)


class TestLawChecks:
    def test_mean_passes_every_law(self):
        reports = check_all_laws(mean_aggregate, trials=1000, rng=random.Random(7))
        assert all(report.passed for report in reports.values())
        assert all(report.counterexample is None for report in reports.values())

    def test_first_element_fails_symmetry_with_counterexample(self):
        report = check_symmetry(first, trials=500, rng=random.Random(3))
        assert not report.passed
        values, permuted = report.counterexample
        assert sorted(values) == sorted(permuted)
        assert first(values) != first(permuted)

    def test_sum_fails_idempotence(self):
        report = check_idempotence(sum, trials=10, rng=random.Random(5))
        assert not report.passed
        (constant,) = report.counterexample
        assert len(set(constant)) == 1
        assert sum(constant) != constant[0]

    def test_idempotence_includes_boundaries(self):
        # default sampling starts with -1 and 1; a clamping operator fails there
        def clamped(v):
            return max(-0.5, min(0.5, mean_aggregate(v)))

        report = check_idempotence(clamped, trials=3, rng=random.Random(1))
        assert not report.passed

    def test_negated_mean_fails_monotonicity(self):
        report = check_monotonicity(negated_mean, trials=500, rng=random.Random(11))
        assert not report.passed
        lo, hi = report.counterexample
        assert all(a <= b for a, b in zip(lo, hi))

    def test_above_max_fails_compensative_bounds(self):
        report = check_compensative_bounds(above_max, trials=50, rng=random.Random(2))
        assert not report.passed

    def test_idempotence_plus_monotonicity_imply_bounds(self):
        # sampled restatement: every operator that passes the first two
        # checks also stays within [min, max] on fresh samples
        operators = {"mean": mean_aggregate, "min": min, "max": max, "median": statistics.median,
                     "first": first, "sum": sum, "negated-mean": negated_mean, "above-max": above_max}
        for name, op in operators.items():
            rng = random.Random(31)
            idem = check_idempotence(op, trials=300, rng=rng)
            mono = check_monotonicity(op, trials=300, rng=rng)
            if idem.passed and mono.passed:
                assert check_compensative_bounds(op, trials=300, rng=rng).passed, name

    @pytest.mark.parametrize("op", [min, max, statistics.median], ids=["min", "max", "median"])
    def test_other_averaging_functions_pass_every_law(self, op):
        reports = check_all_laws(op, trials=300, rng=random.Random(13))
        assert [law for law, report in reports.items() if not report.passed] == []

    @pytest.mark.parametrize("check", [check_symmetry, check_idempotence, check_monotonicity,
                                       check_compensative_bounds, check_all_laws])
    def test_a_seeded_rng_is_required(self, check):
        with pytest.raises(TypeError, match="rng"):
            check(mean_aggregate, trials=10)

    @pytest.mark.parametrize("check, violator", [
        (check_symmetry, first), (check_idempotence, sum), (check_monotonicity, negated_mean),
        (check_compensative_bounds, above_max)], ids=["symmetry", "idempotence", "monotonicity",
                                                      "bounds"])
    def test_the_same_seed_finds_the_same_counterexample(self, check, violator):
        report = check(violator, trials=200, rng=random.Random(17))
        assert report.counterexample is not None
        assert check(violator, trials=200, rng=random.Random(17)) == report

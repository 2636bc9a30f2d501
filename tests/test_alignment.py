"""Alignment scoring tests."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from valuetax import (
    AlignmentScheme,
    ContextSpec,
    ValueTaxonomy,
    align,
    build_context_taxonomy,
    explain,
    label_node,
    property_node,
)
from valuetax.errors import (
    MissingImportance,
    MissingSatisfaction,
    NoPropertyNodes,
    TaxonomyError,
)

from conftest import (
    diamond_ladder,
    enumerate_paths_oracle,
    literal_alignment_oracle,
    random_taxonomy,
)


@pytest.fixture
def golden_taxonomy(fairness):
    ctx = ContextSpec("golden", property_importance={
        "offer_ratio": 1.0, "task_balance": 0.5})
    return build_context_taxonomy(fairness, ctx)


GOLDEN_SD = {"offer_ratio": 0.5, "task_balance": 0.9}


class TestAlign:
    def test_golden_score(self, golden_taxonomy):
        report = align("community", golden_taxonomy, GOLDEN_SD)
        assert abs(report.score - 0.475) <= 1e-12
        assert report.score_bound == 1.0

    def test_zero_satisfaction_scores_zero(self, golden_taxonomy):
        report = align("e", golden_taxonomy, {"offer_ratio": 0.0, "task_balance": 0.0})
        assert report.score == 0.0

    def test_path_weighted_equals_mean_when_all_paths_single(self, golden_taxonomy):
        mean_report = align("e", golden_taxonomy, GOLDEN_SD, AlignmentScheme.MEAN_WEIGHTED)
        path_report = align("e", golden_taxonomy, GOLDEN_SD, AlignmentScheme.PATH_WEIGHTED)
        assert all(p.paths == 1 for p in path_report.per_property)
        assert path_report.score == pytest.approx(mean_report.score, abs=1e-12)

    def test_path_weighted_may_exceed_one_and_reports_bound(self):
        t = ValueTaxonomy.build(
            [label_node("root"), label_node("a"), label_node("b"), property_node("p")],
            [("root", "a"), ("root", "b"), ("a", "p"), ("b", "p")],
            {"p": 1.0},
        )
        report = align("e", t, {"p": 1.0}, AlignmentScheme.PATH_WEIGHTED)
        assert report.score == pytest.approx(2.0)
        assert report.score_bound == 2.0

    def test_every_property_listed_once(self, golden_taxonomy):
        report = align("e", golden_taxonomy, GOLDEN_SD)
        assert sorted(p.node for p in report.per_property) == ["offer_ratio", "task_balance"]

    def test_score_is_average_of_contributions(self, golden_taxonomy):
        report = align("e", golden_taxonomy, GOLDEN_SD)
        total = sum(p.contribution for p in report.per_property)
        assert report.score == pytest.approx(total / len(report.per_property), abs=1e-12)


class TestAlignErrors:
    def test_no_property_nodes(self):
        t = ValueTaxonomy.build([label_node("only")], importance={"only": 0.5})
        with pytest.raises(NoPropertyNodes):
            align("e", t, GOLDEN_SD)

    def test_missing_importance(self):
        t = ValueTaxonomy.build([property_node("p")])
        with pytest.raises(MissingImportance):
            align("e", t, {"p": 0.5})

    def test_missing_satisfaction(self, golden_taxonomy):
        with pytest.raises(MissingSatisfaction):
            align("e", golden_taxonomy, {"offer_ratio": 0.5})

    def test_out_of_range_satisfaction_rejected(self, golden_taxonomy):
        bad = {"offer_ratio": 1.5, "task_balance": 0.9}
        with pytest.raises(ValueError):
            align("e", golden_taxonomy, bad)


class TestSatisfactionMapping:
    def test_entity_only_names_the_report(self, golden_taxonomy):
        first = align("alice", golden_taxonomy, GOLDEN_SD)
        second = align("whole", golden_taxonomy, GOLDEN_SD)
        assert (first.entity, second.entity) == ("alice", "whole")
        assert first.per_property == second.per_property
        assert first.score == second.score

    def test_any_mapping_scores_like_a_dict(self, golden_taxonomy):
        proxied = align("e", golden_taxonomy, MappingProxyType(dict(GOLDEN_SD)))
        assert proxied == align("e", golden_taxonomy, GOLDEN_SD)

    def test_entries_for_other_nodes_are_ignored(self, golden_taxonomy):
        padded = dict(GOLDEN_SD, volunteer_ratio=-1.0, unrelated=0.3)
        assert align("e", golden_taxonomy, padded) == align("e", golden_taxonomy, GOLDEN_SD)

    def test_the_mapping_is_left_unchanged(self, golden_taxonomy):
        sd = dict(GOLDEN_SD)
        align("e", golden_taxonomy, sd)
        assert sd == GOLDEN_SD

    def test_degrees_are_read_as_floats(self):
        t = ValueTaxonomy.build([property_node("p")], importance={"p": 1.0})
        (contribution,) = align("e", t, {"p": 1}).per_property
        assert type(contribution.sd) is float and contribution.sd == 1.0

    @pytest.mark.parametrize("value", [True, "0.5", None], ids=["bool", "str", "none"])
    def test_degrees_that_are_not_numbers_are_rejected(self, value):
        t = ValueTaxonomy.build([property_node("p")], importance={"p": 1.0})
        with pytest.raises(ValueError) as excinfo:
            align("e", t, {"p": value})
        assert str(excinfo.value) == f"satisfaction degree of 'p' must be a number, got {value!r}"

    def test_missing_satisfaction_names_the_first_missing_node(self):
        t = ValueTaxonomy.build(
            [property_node("a"), property_node("b"), property_node("c")],
            importance={"a": 1.0, "b": 1.0, "c": 1.0})
        with pytest.raises(MissingSatisfaction) as excinfo:
            align("e", t, {"b": 0.5})
        assert excinfo.value.node == "a"

    @pytest.mark.parametrize("value", [-1.0, 1.0])
    def test_range_ends_are_accepted(self, golden_taxonomy, value):
        report = align("e", golden_taxonomy, {"offer_ratio": value, "task_balance": value})
        assert report.score == pytest.approx(value * (1.0 + 0.5) / 2, abs=1e-12)

    @pytest.mark.parametrize("value", [-1.0000001, 1.0000001, math.nan, math.inf])
    def test_values_outside_the_range_are_rejected(self, golden_taxonomy, value):
        with pytest.raises(ValueError, match="outside"):
            align("e", golden_taxonomy, {"offer_ratio": 0.5, "task_balance": value})

    @pytest.mark.parametrize("value, shown", [(10 ** 400, "inf"), (-10 ** 400, "-inf")],
                             ids=["positive", "negative"])
    def test_ints_past_the_float_range_are_out_of_range(self, value, shown):
        t = ValueTaxonomy.build([property_node("p")], importance={"p": 1.0})
        with pytest.raises(ValueError) as excinfo:
            align("e", t, {"p": value})
        assert str(excinfo.value) == f"satisfaction degree of 'p' {shown} outside [-1, 1]"


class TestExplain:
    def test_golden_breakdown_ordering(self, golden_taxonomy):
        report = align("e", golden_taxonomy, GOLDEN_SD)
        ordered = explain(report)
        assert [p.node for p in ordered] == ["offer_ratio", "task_balance"]
        assert ordered[0].contribution == pytest.approx(0.5, abs=1e-12)
        assert ordered[1].contribution == pytest.approx(0.45, abs=1e-12)
        assert report.score == pytest.approx(
            (ordered[0].contribution + ordered[1].contribution) / 2, abs=1e-12)

    def test_single_full_satisfaction(self):
        t = ValueTaxonomy.build(
            [label_node("v"), property_node("p")], [("v", "p")],
            {"p": 1.0, "v": 1.0})
        report = align("e", t, {"p": 1.0})
        breakdown = explain(report)
        assert [(b.node, b.contribution) for b in breakdown] == [("p", 1.0)]
        assert report.score == 1.0

    def test_ties_break_by_node_id(self):
        t = ValueTaxonomy.build(
            [label_node("v"), property_node("pb"), property_node("pa")],
            [("v", "pa"), ("v", "pb")],
            {"pa": 0.5, "pb": -0.5},
        )
        report = align("e", t, {"pa": 1.0, "pb": 1.0})
        assert [p.node for p in explain(report)] == ["pa", "pb"]


class TestAlignProperties:
    def test_mean_weighted_score_stays_in_range(self):
        rng = random.Random(5150)
        for _ in range(60):
            t = random_taxonomy(rng, all_property_importance=True)
            props = t.property_nodes()
            if not props:
                continue
            sd = {p: rng.uniform(-1, 1) for p in props}
            report = align("e", t, sd)
            assert -1.0 - 1e-12 <= report.score <= 1.0 + 1e-12

    def test_doubling_satisfaction_doubles_score(self):
        rng = random.Random(60)
        for _ in range(40):
            t = random_taxonomy(rng, all_property_importance=True)
            props = t.property_nodes()
            if not props:
                continue
            base = {p: rng.uniform(-0.5, 0.5) for p in props}
            single = align("e", t, base).score
            doubled = align("e", t, {p: 2 * v for p, v in base.items()}).score
            assert doubled == pytest.approx(2 * single, abs=1e-12)

    def test_raising_sd_moves_score_with_importance_sign(self):
        rng = random.Random(61)
        for _ in range(40):
            t = random_taxonomy(rng, all_property_importance=True)
            props = t.property_nodes()
            if not props:
                continue
            sd = {p: rng.uniform(-1, 0.5) for p in props}
            target = rng.choice(props)
            bumped = dict(sd)
            bumped[target] = sd[target] + rng.uniform(0, 1 - sd[target])
            before = align("e", t, sd).score
            after = align("e", t, bumped).score
            if t.importance[target] > 0:
                assert after >= before - 1e-12
            elif t.importance[target] < 0:
                assert after <= before + 1e-12

    def test_property_enumeration_order_is_irrelevant(self):
        rng = random.Random(62)
        t = random_taxonomy(rng, all_property_importance=True, max_nodes=12)
        props = t.property_nodes()
        sd = {p: rng.uniform(-1, 1) for p in props}
        nodes = list(t.nodes.values())
        rng.shuffle(nodes)
        reordered = ValueTaxonomy.build(nodes, sorted(t.edges), dict(t.importance))
        assert align("e", t, sd).score == align("e", reordered, sd).score

    def test_matches_literal_oracle(self):
        rng = random.Random(63)
        checked = 0
        for _ in range(60):
            t = random_taxonomy(rng, all_property_importance=True)
            props = t.property_nodes()
            if not props:
                continue
            checked += 1
            sd_map = {p: rng.uniform(-1, 1) for p in props}
            importance = {p: t.importance[p] for p in props}
            paths = {p: enumerate_paths_oracle(t, p) for p in props}
            mean_report = align("e", t, sd_map)
            assert mean_report.score == pytest.approx(
                literal_alignment_oracle(sd_map, importance), abs=1e-12)
            path_report = align("e", t, sd_map, AlignmentScheme.PATH_WEIGHTED)
            assert path_report.score == pytest.approx(
                literal_alignment_oracle(sd_map, importance, paths), abs=1e-12)
        assert checked > 30


class TestPathWeightedRange:
    """Path counts double per layer of a diamond ladder, past the float range
    after 1,023 layers; contributions, score and bound are exact, rounded once."""

    def test_a_score_at_the_top_of_the_float_range_is_finite(self):
        sd = {"offer_ratio": 1.0, "volunteer_ratio": 1.0}
        report = align("e", diamond_ladder(1023), sd, AlignmentScheme.PATH_WEIGHTED)
        assert [p.contribution for p in report.per_property] == [2.0 ** 1023] * 2
        assert report.score == report.score_bound == 2.0 ** 1023

    def test_a_contribution_past_the_float_range_is_refused(self):
        sd = {"offer_ratio": 1.0, "volunteer_ratio": 1.0}
        with pytest.raises(TaxonomyError) as excinfo:
            align("e", diamond_ladder(1100), sd, AlignmentScheme.PATH_WEIGHTED)
        assert str(excinfo.value) == (
            "path-weighted contribution of 'offer_ratio' is past the float range")

    def test_a_bound_past_the_float_range_is_refused(self):
        sd = {"offer_ratio": 2.0 ** -100, "volunteer_ratio": -(2.0 ** -100)}
        with pytest.raises(TaxonomyError) as excinfo:
            align("e", diamond_ladder(1100), sd, AlignmentScheme.PATH_WEIGHTED)
        assert str(excinfo.value) == "path-weighted score bound is past the float range"

    def test_the_mean_scheme_scores_the_same_ladder(self):
        sd = {"offer_ratio": 1.0, "volunteer_ratio": 0.5}
        report = align("e", diamond_ladder(1100), sd)
        assert (report.score, report.score_bound) == (0.75, 1.0)
        assert [p.paths for p in report.per_property] == [2 ** 1100] * 2

    def test_path_scores_are_the_exact_sum_rounded_once(self):
        rng = random.Random(64)
        checked = 0
        for _ in range(300):
            t = random_taxonomy(rng, all_property_importance=True, extra_edge_prob=0.5)
            props = t.property_nodes()
            if not props:
                continue
            checked += 1
            sd = {p: rng.uniform(-1, 1) for p in props}
            paths = {p: enumerate_paths_oracle(t, p) for p in props}
            exact = [paths[p] * Fraction(t.importance[p]) * Fraction(sd[p]) for p in props]
            report = align("e", t, sd, AlignmentScheme.PATH_WEIGHTED)
            assert [p.contribution for p in report.per_property] == [float(x) for x in exact]
            assert report.score == float(sum(exact) / len(props))
            assert report.score_bound == float(max(paths.values()))
        assert checked > 150


class TestContextImportance:
    def test_detested_properties_pull_the_score_down(self, fairness, context_c_prime):
        sd = {"offer_ratio": 1.0, "volunteer_ratio": 1.0, "task_balance": 1.0}
        report = align("e", fairness.with_importance(context_c_prime.property_importance), sd)
        assert report.score == pytest.approx((-0.5 - 0.5 + 0.9) / 3, abs=1e-12)
        assert sorted(p.node for p in report.per_property) == [
            "offer_ratio", "task_balance", "volunteer_ratio"]

    def test_built_taxonomy_mode_ignores_detested(self, fairness, context_c_prime):
        built = build_context_taxonomy(fairness, context_c_prime)
        sd = {"offer_ratio": 1.0, "volunteer_ratio": 1.0, "task_balance": 1.0}
        report = align("e", built, sd)
        assert report.score == pytest.approx(0.9, abs=1e-12)

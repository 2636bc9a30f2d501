"""Context selection and context-based taxonomy construction tests."""

from __future__ import annotations

import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest

from valuetax import (
    KMEANS_SELECTION,
    POSITIVE_SELECTION,
    ContextSpec,
    SelectionKind,
    SelectionStrategy,
    build_context_taxonomy,
    check_coherence,
    context_holds,
    select_nodes,
    topological_order,
    ValueTaxonomy,
)
from valuetax.errors import EmptyInput, EmptySelectionWarning, MissingEvaluator, ParseError
from valuetax.taxonomy import validate

from conftest import random_taxonomy, relabelled, roots_of, subtree_mean_oracle

KMEANS = SelectionStrategy(SelectionKind.KMEANS_TWO)


def best_bipartition_oracle(values: dict[str, float]) -> set[str]:
    """Exhaustively minimize within-cluster variance over every bipartition
    and return the higher-mean side."""
    names = sorted(values)

    def sse(group):
        if not group:
            return 0.0
        mean = sum(values[n] for n in group) / len(group)
        return sum((values[n] - mean) ** 2 for n in group)

    best, best_cost = None, None
    for size in range(1, len(names)):
        for group in itertools.combinations(names, size):
            rest = [n for n in names if n not in group]
            cost = sse(group) + sse(rest)
            if best_cost is None or cost < best_cost - 1e-15:
                best, best_cost = (set(group), set(rest)), cost
    lo, hi = best
    mean_lo = sum(values[n] for n in lo) / len(lo)
    mean_hi = sum(values[n] for n in hi) / len(hi)
    return hi if mean_hi >= mean_lo else lo


def exact_two_means_oracle(values: dict[str, float]) -> set[str]:
    """Upper cluster of the two-means split in exact rational arithmetic.

    Every cut of the (value, name)-sorted order is scored by its summed
    squared error; on an exact tie the earliest cut, which keeps the larger
    upper cluster, wins.
    """
    items = sorted(values.items(), key=lambda kv: (kv[1], kv[0]))
    exact = [Fraction(v) for _, v in items]
    n = len(exact)
    sums = [Fraction(0), *itertools.accumulate(exact)]
    squares = [Fraction(0), *itertools.accumulate(v * v for v in exact)]
    costs = [squares[n] - sums[cut] ** 2 / cut - (sums[n] - sums[cut]) ** 2 / (n - cut)
             for cut in range(1, n)]
    best_cut = 1 + costs.index(min(costs))
    return {name for name, _ in items[best_cut:]}


class TestSelectNodes:
    def test_positive_threshold_on_community_importances(self):
        picked = select_nodes({"p1": 0.8, "p2": 0.0, "p3": 0.7}, SelectionStrategy())
        assert picked == {"p1", "p3"}

    def test_threshold_is_strict(self):
        picked = select_nodes({"a": 0.5, "b": 0.7}, SelectionStrategy(threshold=0.5))
        assert picked == {"b"}

    def test_kmeans_splits_off_the_zero(self):
        picked = select_nodes({"p1": 0.8, "p2": 0.0, "p3": 0.7}, KMEANS)
        assert picked == {"p1", "p3"}
        assert picked == best_bipartition_oracle({"p1": 0.8, "p2": 0.0, "p3": 0.7})

    def test_kmeans_matches_exhaustive_oracle(self):
        rng = random.Random(17)
        for _ in range(100):
            values = {f"p{i}": rng.uniform(-1, 1) for i in range(rng.randint(2, 8))}
            assert select_nodes(values, KMEANS) == best_bipartition_oracle(values)

    def test_kmeans_exact_tie_keeps_the_larger_upper_cluster(self):
        # The cuts keeping 18 and 13 nodes both have SSE exactly 15581/3744.
        grid = [-1.0] * 3 + [-0.5] * 2 + [0.0] * 8 + [0.25] * 5 + [0.5] * 5 + [1.0] * 8
        values = {f"p{i:02d}": v for i, v in enumerate(grid)}
        picked = select_nodes(values, KMEANS)
        assert len(picked) == 18
        assert picked == {n for n, v in values.items() if v > 0.0}
        assert picked == exact_two_means_oracle(values)

    def test_kmeans_matches_exact_oracle_on_dyadic_grids(self):
        # Dyadic values keep float sums exact, so SSE ties are real ties. Ties
        # are frequent among few values, so sizes are drawn log-uniformly.
        grid = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)
        rng = random.Random(2305)
        for _ in range(300):
            size = round(2 ** rng.uniform(1, 8.25))
            values = {f"p{i:03d}": rng.choice(grid) for i in range(size)}
            if len(set(values.values())) == 1:
                continue
            assert select_nodes(values, KMEANS) == exact_two_means_oracle(values)

    def test_kmeans_identical_values_keeps_all(self):
        values = {"a": 0.4, "b": 0.4, "c": 0.4}
        assert select_nodes(values, KMEANS) == {"a", "b", "c"}

    def test_kmeans_singleton(self):
        assert select_nodes({"only": -0.2}, KMEANS) == {"only"}

    def test_kmeans_empty_rejected(self):
        with pytest.raises(EmptyInput):
            select_nodes({}, KMEANS)

    @pytest.mark.parametrize("values, strategy", [
        ({"a": math.nan, "b": 0.5}, KMEANS),
        ({"a": 1.0, "b": math.nan, "c": 1.0}, KMEANS),
        ({"a": math.inf, "b": 0.5}, KMEANS),
        ({"a": math.inf, "b": -math.inf}, KMEANS),
        ({"a": "x"}, KMEANS),
        ({"a": "x", "b": 0.5}, KMEANS),
        ({"a": "x", "b": 0.5}, POSITIVE_SELECTION),
        ({"a": None}, POSITIVE_SELECTION),
        ({"a": math.nan, "b": 0.5}, POSITIVE_SELECTION),
        ({"a": math.inf}, POSITIVE_SELECTION),
        ({"a": -math.inf, "b": 0.5}, POSITIVE_SELECTION),
    ], ids=["nan", "nan-among-equals", "inf", "both-infinities", "one-string", "string",
            "string-positive", "None-positive", "nan-positive", "inf-positive", "minus-inf-positive"])
    def test_a_value_that_is_no_finite_number_is_refused(self, values, strategy):
        # once a bare StopIteration or TypeError, or {"a"} for the one string;
        # positive selection once dropped a NaN and kept an infinity
        with pytest.raises(ValueError, match=r"^importances must be finite numbers$") as caught:
            select_nodes(values, strategy)
        assert type(caught.value) is ValueError

    def test_a_spread_whose_square_overflows_is_refused_in_its_own_words(self):
        # both values are finite; the refusal once said they were not
        with pytest.raises(ValueError, match=r"^importances spread too widely to split: "
                                             r"their squared error overflows$"):
            select_nodes({"a": 1e200, "b": -1e200}, KMEANS)

    def test_raising_threshold_never_adds_nodes(self):
        rng = random.Random(3)
        for _ in range(50):
            values = {f"p{i}": rng.uniform(-1, 1) for i in range(rng.randint(1, 10))}
            lo, hi = sorted((rng.uniform(-1, 1), rng.uniform(-1, 1)))
            low_pick = select_nodes(values, SelectionStrategy(threshold=lo))
            high_pick = select_nodes(values, SelectionStrategy(threshold=hi))
            assert high_pick <= low_pick


class TestBuildContextTaxonomy:
    def test_community_context_keeps_seven_nodes(self, fairness, context_c):
        built = build_context_taxonomy(fairness, context_c)
        assert set(built.nodes) == {
            "fairness", "reciprocity", "give_take", "offer_ratio",
            "equal_treatment", "workload_split", "task_balance",
        }
        assert "volunteer_ratio" not in built.nodes
        assert "equal_pay" not in built.nodes
        assert built.importance["fairness"] == pytest.approx(0.75, abs=1e-9)
        oracle = subtree_mean_oracle(ValueTaxonomy(
            built.nodes, built.edges, {"offer_ratio": 0.8, "task_balance": 0.7}))
        for node, value in built.importance.items():
            assert value == pytest.approx(oracle[node], abs=1e-9)

    def test_elder_context_is_a_single_chain(self, fairness, context_c_prime):
        built = build_context_taxonomy(fairness, context_c_prime)
        assert set(built.nodes) == {
            "fairness", "equal_treatment", "workload_split", "task_balance"}
        assert set(built.edges) == {
            ("fairness", "equal_treatment"),
            ("equal_treatment", "workload_split"),
            ("workload_split", "task_balance"),
        }
        for value in built.importance.values():
            assert value == pytest.approx(0.9, abs=1e-9)

    def test_all_nonpositive_yields_empty_with_warning(self, fairness):
        ctx = ContextSpec("nothing", property_importance={
            "offer_ratio": -0.1, "volunteer_ratio": 0.0, "task_balance": -0.9})
        with pytest.warns(EmptySelectionWarning):
            built = build_context_taxonomy(fairness, ctx)
        assert len(built) == 0

    def test_unmentioned_properties_default_to_zero(self, fairness):
        ctx = ContextSpec("sparse", property_importance={"task_balance": 0.4})
        built = build_context_taxonomy(fairness, ctx)
        assert "offer_ratio" not in built.nodes
        assert built.importance["task_balance"] == pytest.approx(0.4)

    def test_stray_importance_key_rejected(self, fairness):
        ctx = ContextSpec("bad", property_importance={"fairness": 0.5})
        with pytest.raises(ValueError):
            build_context_taxonomy(fairness, ctx)

    def test_result_ignores_general_importances(self, fairness, context_c):
        rng = random.Random(1)
        annotated = ValueTaxonomy(
            fairness.nodes, fairness.edges, {n: rng.uniform(-1, 1) for n in fairness.nodes})
        plain = build_context_taxonomy(fairness, context_c)
        noisy = build_context_taxonomy(annotated, context_c)
        assert plain == noisy

    def test_random_builds_are_valid_closed_and_coherent(self):
        rng = random.Random(1001)
        checked = 0
        for _ in range(60):
            general = random_taxonomy(rng, max_nodes=16)
            props = general.property_nodes()
            if not props:
                continue
            ctx = ContextSpec("rand", property_importance={
                p: rng.uniform(-1, 1) for p in props})
            selected = {p for p in props if ctx.property_importance[p] > 0}
            if not selected:
                continue
            built = build_context_taxonomy(general, ctx)
            checked += 1
            assert validate(built) == ()
            assert check_coherence(built).coherent
            # closure: every kept node reaches a selected property downwards,
            # and every leaf of the result is a selected property node
            down = {n: [c for p, c in built.edges if p == n] for n in built.nodes}

            def reaches_selected(node):
                if node in selected:
                    return True
                return any(reaches_selected(c) for c in down[node])

            for node in built.nodes:
                assert reaches_selected(node)
            assert roots_of(built) <= roots_of(general)
        assert checked > 20


    def test_order_is_the_general_order_restricted_to_the_kept_nodes(self):
        # The kept nodes are closed upwards, so the smallest-id-first
        # parents-first order of the subgraph is the general one, filtered.
        # Ids are shuffled so that id order does not follow the edges.
        rng = random.Random(1414)
        checked = 0
        for _ in range(200):
            general = random_taxonomy(rng, max_nodes=16)
            names = sorted(general.nodes)
            general = relabelled(general, dict(zip(names, rng.sample(names, len(names)))))
            ctx = ContextSpec("rand", property_importance={
                p: rng.uniform(-1, 1) for p in general.property_nodes()})
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptySelectionWarning)
                built = build_context_taxonomy(general, ctx)
            checked += len(built.nodes) < len(general.nodes) and len(built.nodes) > 1
            assert topological_order(built) == [
                n for n in topological_order(general) if n in built.nodes]
        assert checked > 50

    def test_inherited_structure_equals_a_fresh_build_in_id_order(self):
        # The subgraph takes its structure from the general taxonomy instead of
        # deriving it; a fresh build of the induced subgraph must derive the same.
        # Propagation and check_coherence sum children in adjacency order, so
        # any order but id order could change the last bit of a mean.
        rng = random.Random(1515)
        checked = 0
        for _ in range(300):
            general = random_taxonomy(rng, max_nodes=16, extra_edge_prob=0.3)
            if not general.property_nodes():  # nothing to select from
                continue
            names = sorted(general.nodes)
            general = relabelled(general, dict(zip(names, rng.sample(names, len(names)))))
            ctx = ContextSpec("rand", property_importance={
                p: rng.uniform(-1, 1) for p in general.property_nodes()},
                selection=rng.choice([POSITIVE_SELECTION, KMEANS_SELECTION]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptySelectionWarning)
                built = build_context_taxonomy(general, ctx)
            induced = [(p, c) for p, c in general.edges if p in built.nodes and c in built.nodes]
            fresh = ValueTaxonomy(built.nodes, induced, built.importance)
            assert built.edges == fresh.edges
            for name in ("_children", "_parents", "_order"):
                assert getattr(built, name) == getattr(fresh, name), name
            for t in (general, built):
                for adjacency in (t._children, t._parents):
                    assert set(adjacency) == set(t.nodes)
                    for ids in adjacency.values():
                        assert type(ids) is tuple and list(ids) == sorted(ids)
            checked += len(induced) < len(general.edges) and len(built.nodes) > 2
        assert checked > 50


class TestContextHolds:
    def test_vacuous_when_no_defining_properties(self):
        ctx = ContextSpec("any")
        assert context_holds(ctx, world=None, evaluators={})

    def test_one_false_property_fails(self):
        ctx = ContextSpec("c", defining_properties=frozenset({"a", "b"}))
        evaluators = {"a": lambda w: True, "b": lambda w: False}
        assert not context_holds(ctx, None, evaluators)

    def test_all_true_holds(self):
        ctx = ContextSpec("c", defining_properties=frozenset({"a", "b"}))
        evaluators = {"a": lambda w: w > 0, "b": lambda w: w < 10}
        assert context_holds(ctx, 5, evaluators)

    def test_missing_evaluator_raises_even_after_a_false_one(self):
        ctx = ContextSpec("c", defining_properties=frozenset({"a", "z"}))
        with pytest.raises(MissingEvaluator) as excinfo:
            context_holds(ctx, None, {"a": lambda w: False})
        assert excinfo.value.property == "z"


class TestContextSpec:
    def test_with_selection_replaces_only_the_selection(self):
        ctx = ContextSpec("c", frozenset({"offer_ratio"}), {"p": 0.5, "q": -1})
        copy = ctx.with_selection(KMEANS_SELECTION)
        assert copy == ContextSpec("c", frozenset({"offer_ratio"}), {"p": 0.5, "q": -1},
                                   KMEANS_SELECTION)
        assert copy.property_importance is ctx.property_importance
        assert ctx.selection == POSITIVE_SELECTION

    def test_importance_range_enforced(self):
        with pytest.raises(ValueError):
            ContextSpec("c", property_importance={"p": 1.2})

    def test_importance_past_the_float_range_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            ContextSpec("c", property_importance={"p": 10 ** 400})
        assert str(excinfo.value) == "property_importance.p: importance inf outside [-1, 1]"

    @pytest.mark.parametrize("ctx_id", ["", 5, None], ids=["empty", "int", "None"])
    def test_id_must_be_a_non_empty_string(self, ctx_id):
        with pytest.raises(ParseError) as excinfo:
            ContextSpec(ctx_id)
        assert str(excinfo.value) == "id: context id must be a non-empty string"

    # A bare string was stored as the set of its letters.
    @pytest.mark.parametrize("names", ["offer_ratio", ["offer_ratio", 3]], ids=["str", "int"])
    def test_defining_properties_must_be_property_names(self, names):
        with pytest.raises(ParseError) as excinfo:
            ContextSpec("c", names)
        assert str(excinfo.value) == "defining_properties: must be a list of property names"

    def test_defining_properties_may_be_any_collection_of_names(self):
        for names in (["b", "a"], ("a", "b"), iter(["a", "b"]), frozenset({"a", "b"})):
            assert ContextSpec("c", names).defining_properties == frozenset({"a", "b"})

    # A kind given by its value was taken for two-means selection.
    @pytest.mark.parametrize("kind", ["positive_threshold", "kmeans2", None])
    def test_selection_kind_must_be_a_selection_kind(self, kind):
        with pytest.raises(ParseError) as excinfo:
            SelectionStrategy(kind)
        assert str(excinfo.value) == f"kind: unknown selection strategy: {kind!r}"

    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError):
            SelectionStrategy(threshold=2.0)

    def test_threshold_past_the_float_range_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            SelectionStrategy(threshold=-10 ** 400)
        assert str(excinfo.value) == "threshold: importance -inf outside [-1, 1]"

    def test_threshold_is_stored_as_the_checked_float(self):
        strategy = SelectionStrategy(threshold=1)
        assert type(strategy.threshold) is float
        assert "threshold=1.0)" in repr(strategy)

    def test_negative_entries_stay_in_the_record(self, fairness, context_c_prime):
        assert context_c_prime.property_importance["offer_ratio"] == -0.5
        built = build_context_taxonomy(fairness, context_c_prime)
        assert "offer_ratio" not in built.nodes

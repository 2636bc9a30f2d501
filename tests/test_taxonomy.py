"""Taxonomy model, validation, and graph query tests."""

from __future__ import annotations

import random

import pytest

from valuetax import (
    ContextSpec,
    Node,
    NodeKind,
    SelectionStrategy,
    ValueTaxonomy,
    all_paths_counts,
    ancestors,
    label_node,
    property_node,
    topological_order,
    validate,
)
from valuetax.errors import DuplicateEdge, InvalidTaxonomy, UnknownNode

from conftest import (
    children_of,
    enumerate_paths_oracle,
    parents_of,
    random_taxonomy,
    roots_of,
)


def chain(*names):
    return [(names[i], names[i + 1]) for i in range(len(names) - 1)]


class TestNodes:
    def test_label_node_defaults_text_to_id(self):
        node = label_node("fairness")
        assert node.kind is NodeKind.LABEL
        assert node.label_text == "fairness"
        assert node.display == "fairness"

    def test_property_node_defaults_catalog_id(self):
        node = property_node("p", "catalog_ref")
        assert node.kind is NodeKind.PROPERTY
        assert node.property_id == "catalog_ref"

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            label_node("")

    def test_kind_field_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Node("x", NodeKind.LABEL, property_id="p")
        with pytest.raises(ValueError):
            Node("x", NodeKind.PROPERTY, label_text="t")
        with pytest.raises(ValueError):
            Node("x", NodeKind.PROPERTY, label_text="t", property_id="p")


class TestConstruction:
    def test_duplicate_edge_rejected(self):
        nodes = [label_node("a"), label_node("b")]
        with pytest.raises(DuplicateEdge):
            ValueTaxonomy.build(nodes, [("a", "b"), ("a", "b")])

    def test_duplicate_node_id_rejected(self):
        with pytest.raises(ValueError):
            ValueTaxonomy.build([label_node("a"), property_node("a")])

    def test_importance_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ValueTaxonomy.build([label_node("a")], importance={"a": 1.5})

    @pytest.mark.parametrize("value, shown", [(10 ** 400, "inf"), (-10 ** 400, "-inf")],
                             ids=["positive", "negative"])
    def test_importance_past_the_float_range_rejected(self, value, shown):
        with pytest.raises(ValueError) as excinfo:
            ValueTaxonomy.build([label_node("a")], importance={"a": value})
        assert str(excinfo.value) == f"importance of 'a' {shown} outside [-1.0, 1.0]"

    def test_importance_for_unknown_node_rejected(self):
        with pytest.raises(UnknownNode):
            ValueTaxonomy.build([label_node("a")], importance={"ghost": 0.1})

    def test_two_nodes_may_share_label_text(self):
        t = ValueTaxonomy.build([label_node("a", "same"), label_node("b", "same")])
        assert validate(t).ok


# Every place that takes an importance.
IMPORTANCE_TAKERS = {
    "build": lambda v: ValueTaxonomy.build([label_node("a")], [], {"a": v}),
    "with_importance": lambda v: ValueTaxonomy.build([label_node("a")]).with_importance({"a": v}),
    "ContextSpec": lambda v: ContextSpec("c", property_importance={"p": v}),
    "SelectionStrategy": lambda v: SelectionStrategy(threshold=v),
}


@pytest.mark.parametrize("taker", IMPORTANCE_TAKERS)
@pytest.mark.parametrize("value", ["0.5", True, None], ids=["str", "bool", "None"])
def test_importance_must_be_an_int_or_a_float(taker, value):
    with pytest.raises(ValueError) as excinfo:
        IMPORTANCE_TAKERS[taker](value)
    assert str(excinfo.value) == f"importance must be a number, got {value!r}"


STRUCTURE_CACHES = ("_children", "_parents", "_validation")


class TestWithImportance:
    def test_equals_a_fresh_build_and_shares_the_structure(self):
        rng = random.Random(29)
        for trial in range(300):
            t = random_taxonomy(rng)
            derived = STRUCTURE_CACHES[:trial % 4]  # none, some or all derived beforehand
            for name in derived:
                getattr(t, name)
            values = {n: rng.uniform(-1.0, 1.0) for n in t.nodes if rng.random() < 0.5}
            copy = t.with_importance(values)
            assert copy == ValueTaxonomy.build(t.nodes.values(), t.edges, values)
            assert dict(copy.importance) == values
            assert copy.nodes is t.nodes and copy.edges is t.edges
            for name in STRUCTURE_CACHES:
                assert (name in vars(copy)) == (name in derived)
                if name in derived:
                    assert getattr(copy, name) is getattr(t, name)
                else:
                    assert getattr(copy, name) == getattr(t, name)

    def test_checks_the_new_mapping(self):
        t = ValueTaxonomy.build([label_node("a"), label_node("b")], [("a", "b")], {"a": 0.5})
        with pytest.raises(UnknownNode):
            t.with_importance({"ghost": 0.1})
        with pytest.raises(ValueError):
            t.with_importance({"b": -1.5})
        assert dict(t.with_importance({"b": 1}).importance) == {"b": 1.0}
        assert dict(t.importance) == {"a": 0.5}

    def test_importance_past_the_float_range_rejected(self):
        t = ValueTaxonomy.build([label_node("a")])
        with pytest.raises(ValueError) as excinfo:
            t.with_importance({"a": -10 ** 400})
        assert str(excinfo.value) == "importance of 'a' -inf outside [-1.0, 1.0]"


class TestValidate:
    def test_fairness_example_is_valid(self, fairness):
        report = validate(fairness)
        assert report.ok
        assert report.violations == ()

    def test_property_node_with_child_flagged(self):
        t = ValueTaxonomy.build(
            [property_node("p1"), label_node("reciprocity")],
            [("p1", "reciprocity")],
        )
        report = validate(t)
        assert not report.ok
        assert any(v.rule == "PropertyNodeNotLeaf" and v.subject == "p1"
                   for v in report.violations)

    def test_two_cycle_flagged(self):
        t = ValueTaxonomy.build(
            [label_node("a"), label_node("b")],
            [("a", "b"), ("b", "a")],
        )
        report = validate(t)
        assert not report.ok
        assert any(v.rule == "CycleDetected" for v in report.violations)

    def test_unknown_endpoint_flagged(self):
        t = ValueTaxonomy({"a": label_node("a")}, frozenset({("a", "ghost")}), {})
        report = validate(t)
        assert not report.ok
        assert any(v.rule == "UnknownEdgeEndpoint" for v in report.violations)

    def test_unknown_endpoints_are_reported_before_property_leaves(self):
        t = ValueTaxonomy(
            {"a": label_node("a"), "p": property_node("p"), "q": property_node("q")},
            frozenset({("p", "a"), ("a", "ghost"), ("q", "a"), ("zed", "q")}), {})
        assert [(v.rule, v.subject) for v in validate(t).violations] == [
            ("UnknownEdgeEndpoint", "a->ghost"), ("UnknownEdgeEndpoint", "zed->q"),
            ("PropertyNodeNotLeaf", "p"), ("PropertyNodeNotLeaf", "q")]

    def test_validate_is_idempotent(self, fairness):
        assert validate(fairness) == validate(fairness)
        bad = ValueTaxonomy.build([label_node("a"), label_node("b")], [("a", "b"), ("b", "a")])
        assert validate(bad) == validate(bad)

    def test_orphan_label_leaf_is_legal(self, fairness):
        # "equal_pay" has no property child; it is a legal, inert leaf
        assert "equal_pay" in fairness.nodes
        assert children_of(fairness)["equal_pay"] == set()
        assert validate(fairness).ok


class TestQueries:
    def test_paths_single_chain(self, fairness):
        assert all_paths_counts(fairness)["task_balance"] == 1

    def test_paths_diamond(self):
        t = ValueTaxonomy.build(
            [label_node("root"), label_node("a"), label_node("b"), property_node("leaf")],
            [("root", "a"), ("root", "b"), ("a", "leaf"), ("b", "leaf")],
        )
        assert all_paths_counts(t)["leaf"] == 2

    def test_paths_of_root_is_one(self, fairness):
        assert all_paths_counts(fairness)["fairness"] == 1

    def test_paths_refuse_invalid_taxonomy(self):
        bad = ValueTaxonomy.build([label_node("a"), label_node("b")], [("a", "b"), ("b", "a")])
        with pytest.raises(InvalidTaxonomy):
            all_paths_counts(bad)

    def test_paths_grow_exponentially_on_a_diamond_ladder(self):
        # 20 stacked diamonds; counting must not enumerate the 2^20 paths
        nodes, edges = [label_node("t00")], []
        for i in range(20):
            top, nxt = f"t{i:02d}", f"t{i + 1:02d}"
            left, right = f"l{i:02d}", f"r{i:02d}"
            nodes += [label_node(left), label_node(right), label_node(nxt)]
            edges += [(top, left), (top, right), (left, nxt), (right, nxt)]
        t = ValueTaxonomy.build(nodes, edges)
        assert all_paths_counts(t)["t20"] == 2 ** 20


def relabelled(t: ValueTaxonomy, rng: random.Random) -> ValueTaxonomy:
    """``t`` with its node ids permuted, so id order no longer follows the edges."""
    ids = sorted(t.nodes)
    new_ids = dict(zip(ids, rng.sample(ids, len(ids))))
    nodes = [Node(new_ids[n], node.kind, node.label_text, node.property_id)
             for n, node in t.nodes.items()]
    edges = [(new_ids[p], new_ids[c]) for p, c in t.edges]
    return ValueTaxonomy.build(nodes, edges, {new_ids[n]: v for n, v in t.importance.items()})


class TestTopologicalOrder:
    def test_ties_go_to_the_smallest_ready_id(self):
        t = ValueTaxonomy.build(
            [label_node(n) for n in ("m", "b", "a", "z", "k")],
            [("m", "a"), ("m", "z"), ("b", "k"), ("a", "k")],
        )
        assert topological_order(t) == ["b", "m", "a", "k", "z"]

    def test_random_dags_follow_parents_and_pick_smallest_ready(self):
        rng = random.Random(4242)
        for _ in range(150):
            t = relabelled(random_taxonomy(rng, max_nodes=20), rng)
            order = topological_order(t)
            assert sorted(order) == sorted(t.nodes)
            parents = parents_of(t)
            placed: set[str] = set()
            for node in order:
                ready = [n for n in t.nodes
                         if n not in placed and parents[n] <= placed]
                assert node == min(ready)
                placed.add(node)

    def test_refuses_invalid_taxonomy(self):
        t = ValueTaxonomy.build([label_node("a"), label_node("b")], [("a", "b"), ("b", "a")])
        with pytest.raises(InvalidTaxonomy):
            topological_order(t)


class TestStructuralInvariants:
    def test_random_taxonomies(self):
        rng = random.Random(1234)
        for _ in range(50):
            t = random_taxonomy(rng)
            assert validate(t).ok
            children = children_of(t)
            counts = all_paths_counts(t)
            for node in t.nodes:
                assert children[node].isdisjoint(ancestors(t, [node]))
                if t.nodes[node].kind is NodeKind.PROPERTY:
                    assert not children[node]
                assert counts[node] == enumerate_paths_oracle(t, node)

    def test_paths_sum_over_parents(self):
        rng = random.Random(99)
        for _ in range(25):
            t = random_taxonomy(rng)
            root_set = roots_of(t)
            parents = parents_of(t)
            counts = all_paths_counts(t)
            for node in t.nodes:
                if node in root_set:
                    assert counts[node] == 1
                else:
                    assert counts[node] == sum(counts[p] for p in parents[node])

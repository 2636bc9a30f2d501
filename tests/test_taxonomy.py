"""Taxonomy model, validation, and graph query tests."""

from __future__ import annotations

import json
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
    parse_taxonomy,
    property_node,
    topological_order,
)
from valuetax import taxonomy as taxonomy_module
from valuetax.errors import InvalidTaxonomy, ParseError, UnknownNode
from valuetax.taxonomy import validate

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
        assert node.text == "fairness"
        assert label_node("fairness", "Fairness").text == "Fairness"

    def test_property_node_defaults_catalog_id(self):
        node = property_node("p", "catalog_ref")
        assert node.kind is NodeKind.PROPERTY
        assert node.text == "catalog_ref"
        assert property_node("p").text == "p"

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            label_node("")

    @pytest.mark.parametrize("node_id", [5, ["x"], None], ids=["int", "list", "None"])
    def test_id_must_be_a_string(self, node_id):
        with pytest.raises(ValueError) as excinfo:
            Node(node_id, NodeKind.LABEL, "five")
        assert str(excinfo.value) == "id: node id must be a non-empty string"

    @pytest.mark.parametrize("kind", ["label", None, 0], ids=["value", "None", "int"])
    def test_kind_must_be_a_node_kind(self, kind):
        with pytest.raises(ValueError) as excinfo:
            Node("x", kind, "t")
        assert str(excinfo.value) == f"kind: unknown node kind: {kind!r}"

    @pytest.mark.parametrize("kind", list(NodeKind))
    @pytest.mark.parametrize("text", [None, 3, b"t"], ids=["None", "int", "bytes"])
    def test_text_must_be_a_string(self, kind, text):
        with pytest.raises(ValueError) as excinfo:
            Node("x", kind, text)
        assert str(excinfo.value) == f"text: must be a string, got {text!r}"


class TestConstruction:
    def test_duplicate_edge_rejected(self):
        nodes = [label_node("a"), label_node("b")]
        with pytest.raises(ParseError) as excinfo:
            ValueTaxonomy.build(nodes, [("a", "b"), ("a", "b")])
        assert excinfo.value.location == "edges[1]"
        assert str(excinfo.value) == "edges[1]: duplicate edge 'a' -> 'b'"

    def test_duplicate_node_id_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            ValueTaxonomy.build([label_node("a"), property_node("a")])
        assert isinstance(excinfo.value, ParseError)
        assert str(excinfo.value) == "nodes[1].id: duplicate node id: 'a'"

    def test_importance_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ValueTaxonomy.build([label_node("a")], importance={"a": 1.5})

    @pytest.mark.parametrize("value, shown", [(10 ** 400, "inf"), (-10 ** 400, "-inf")],
                             ids=["positive", "negative"])
    def test_importance_past_the_float_range_rejected(self, value, shown):
        with pytest.raises(ValueError) as excinfo:
            ValueTaxonomy.build([label_node("a")], importance={"a": value})
        assert str(excinfo.value) == f"importance.a: importance {shown} outside [-1, 1]"

    def test_importance_for_unknown_node_rejected(self):
        with pytest.raises(UnknownNode):
            ValueTaxonomy.build([label_node("a")], importance={"ghost": 0.1})

    # Mixed with string endpoints, a number made validation's sort raise TypeError.
    @pytest.mark.parametrize("edge", [("a", 5), (5, "a"), ("a", None), ("a", ("b",)), ("a", ["b"])],
                             ids=["int-child", "int-parent", "None", "tuple", "list"])
    def test_edge_endpoints_must_be_strings(self, edge):
        nodes = [label_node("a"), label_node("b")]
        with pytest.raises(ValueError) as excinfo:
            ValueTaxonomy.build(nodes, [edge, ("a", "b")])
        assert str(excinfo.value) == "edges[0]: edge endpoints must be node id strings"

    def test_constructor_refuses_a_repeated_edge_at_its_index(self):
        nodes = {"a": label_node("a"), "b": label_node("b")}
        with pytest.raises(InvalidTaxonomy) as excinfo:
            ValueTaxonomy(nodes, [("a", "b"), ("a", "b")])
        assert str(excinfo.value) == "edges[1]: duplicate edge 'a' -> 'b'"

    def test_two_nodes_may_share_label_text(self):
        t = ValueTaxonomy.build([label_node("a", "same"), label_node("b", "same")])
        assert validate(t) == ()


# Every place that takes an importance, and the field it locates a refusal at.
IMPORTANCE_TAKERS = {
    "build": ("importance.a",
              lambda v: ValueTaxonomy.build([label_node("a")], [], {"a": v})),
    "with_importance": ("importance.a",
                        lambda v: ValueTaxonomy.build([label_node("a")]).with_importance({"a": v})),
    "ContextSpec": ("property_importance.p",
                    lambda v: ContextSpec("c", property_importance={"p": v})),
    "SelectionStrategy": ("threshold", lambda v: SelectionStrategy(threshold=v)),
}


@pytest.mark.parametrize("taker", IMPORTANCE_TAKERS)
@pytest.mark.parametrize("value", ["0.5", True, None], ids=["str", "bool", "None"])
def test_importance_must_be_an_int_or_a_float(taker, value):
    location, take = IMPORTANCE_TAKERS[taker]
    with pytest.raises(ParseError) as excinfo:
        take(value)
    assert excinfo.value.location == location
    assert str(excinfo.value) == f"{location}: importance must be a number, got {value!r}"


STRUCTURE_CACHES = ("_children", "_parents", "_order")


class TestWithImportance:
    def test_equals_a_fresh_build_and_shares_the_structure(self):
        rng = random.Random(29)
        for _ in range(300):
            t = random_taxonomy(rng)
            values = {n: rng.uniform(-1.0, 1.0) for n in t.nodes if rng.random() < 0.5}
            copy = t.with_importance(values)
            assert copy == ValueTaxonomy.build(t.nodes.values(), t.edges, values)
            assert dict(copy.importance) == values
            assert copy.nodes is t.nodes and copy.edges is t.edges
            for name in STRUCTURE_CACHES:  # validation derived each one at construction
                assert name in vars(t)
                assert getattr(copy, name) is getattr(t, name)

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
        assert str(excinfo.value) == "importance.a: importance -inf outside [-1, 1]"


def refusal(nodes, edges) -> InvalidTaxonomy:
    """The error that refuses to build a taxonomy of ``nodes`` and ``edges``."""
    with pytest.raises(InvalidTaxonomy) as excinfo:
        ValueTaxonomy.build(nodes, edges)
    return excinfo.value


class TestValidate:
    def test_fairness_example_is_valid(self, fairness):
        assert validate(fairness) == ()

    def test_property_node_with_child_flagged(self):
        violations = refusal(
            [property_node("p1"), label_node("reciprocity")],
            [("p1", "reciprocity")],
        ).violations
        assert any(v.rule == "PropertyNodeNotLeaf" and v.subject == "p1"
                   for v in violations)

    def test_two_cycle_flagged(self):
        violations = refusal(
            [label_node("a"), label_node("b")],
            [("a", "b"), ("b", "a")],
        ).violations
        assert any(v.rule == "CycleDetected" for v in violations)

    def test_unknown_endpoint_flagged(self):
        violations = refusal([label_node("a")], [("a", "ghost")]).violations
        assert any(v.rule == "UnknownEdgeEndpoint" for v in violations)

    def test_unknown_endpoints_are_reported_before_property_leaves(self):
        violations = refusal(
            [label_node("a"), property_node("p"), property_node("q")],
            [("p", "a"), ("a", "ghost"), ("q", "a"), ("zed", "q")]).violations
        assert [(v.rule, v.subject) for v in violations] == [
            ("UnknownEdgeEndpoint", "a->ghost"), ("UnknownEdgeEndpoint", "zed->q"),
            ("PropertyNodeNotLeaf", "p"), ("PropertyNodeNotLeaf", "q")]

    def test_cycle_is_worded_from_the_smallest_start_id(self):
        # Kahn's algorithm leaves over both cycles; the search from "a" meets z first.
        violations = refusal(
            [label_node(n) for n in ("a", "z", "z1", "b", "m", "m1")],
            [("a", "z"), ("z", "z1"), ("z1", "z"), ("b", "m"), ("m", "m1"), ("m1", "m")]).violations
        assert [(v.rule, v.subject, v.message) for v in violations] == [
            ("CycleDetected", "z", "cycle detected: z -> z1 -> z")]

    def test_self_loop_flagged(self):
        violations = refusal([label_node("s")], [("s", "s")]).violations
        assert [(v.rule, v.subject, v.message) for v in violations] == [
            ("CycleDetected", "s", "cycle detected: s -> s")]

    def test_violations_keep_their_rule_order(self):
        exc = refusal(
            [label_node("a"), label_node("b"), property_node("p")],
            [("a", "ghost"), ("p", "a"), ("a", "b"), ("b", "a")])
        assert [(v.rule, v.subject, v.message) for v in exc.violations] == [
            ("UnknownEdgeEndpoint", "a->ghost",
             "edge ('a', 'ghost') references unknown node 'ghost'"),
            ("PropertyNodeNotLeaf", "p",
             "property node 'p' has child 'a'; property nodes must be leaves"),
            ("CycleDetected", "a", "cycle detected: a -> b -> a")]
        # the error is a ParseError that names the first violation
        assert isinstance(exc, ParseError)
        assert exc.location == "rule UnknownEdgeEndpoint"
        assert str(exc) == "rule UnknownEdgeEndpoint: edge ('a', 'ghost') references unknown node 'ghost'"

    def test_cycle_reported_exactly_when_the_order_leaves_nodes_out(self):
        rng = random.Random(11)
        cyclic = 0
        for _ in range(2500):
            ids = [f"n{i:02d}" for i in range(rng.randint(1, 12))]
            edges = {(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 2 * len(ids)))}
            if rng.random() < 0.2:
                edges.add((rng.choice(ids), "ghost"))
            children = {n: {c for p, c in edges if p == n} for n in ids}
            below: dict[str, set[str]] = {}
            for n in ids:  # every node reachable from n by one or more edges
                stack, seen = list(children[n]), set()
                while stack:
                    node = stack.pop()
                    if node not in seen:
                        seen.add(node)
                        stack.extend(children.get(node, ()))
                below[n] = seen
            on_cycle = {n for n in ids if n in below[n]}
            try:
                t = ValueTaxonomy({n: label_node(n) for n in ids}, frozenset(edges), {})
            except InvalidTaxonomy as exc:
                violations = exc.violations
                assert violations
            else:
                violations = ()
                assert sorted(topological_order(t)) == sorted(ids)
            cycles = [v for v in violations if v.rule == "CycleDetected"]
            assert bool(cycles) == bool(on_cycle)
            if cycles:
                cyclic += 1
                trace = cycles[0].message.removeprefix("cycle detected: ").split(" -> ")
                assert trace[0] == trace[-1] == cycles[0].subject
                assert all((p, c) in edges for p, c in zip(trace, trace[1:]))
        assert 500 < cyclic < 2000

    def test_violations_match_a_scan_of_the_edge_set_on_random_graphs(self):
        # validate reads the adjacency maps; the reference reads the edges alone
        def edge_scan(nodes, edges):
            found = []
            for parent, child in sorted(e for e in edges if e[0] not in nodes or e[1] not in nodes):
                found += [("UnknownEdgeEndpoint", f"{parent}->{child}",
                           f"edge ({parent!r}, {child!r}) references unknown node {end!r}")
                          for end in (parent, child) if end not in nodes]
            for parent, child in sorted(e for e in edges if e[0] in nodes
                                        and nodes[e[0]].kind is NodeKind.PROPERTY):
                found.append(("PropertyNodeNotLeaf", parent, f"property node {parent!r} has child "
                              f"{child!r}; property nodes must be leaves"))
            return found

        rng = random.Random(12)
        kinds = {"UnknownEdgeEndpoint": 0, "PropertyNodeNotLeaf": 0, "CycleDetected": 0}
        for _ in range(3000):
            ids = [f"n{i:02d}" for i in range(rng.randint(1, 10))]
            nodes = {n: property_node(n) if rng.random() < 0.3 else label_node(n) for n in ids}
            ends = ids + ["ghost", "a-ghost", "zz"][:rng.randint(0, 3)]
            edges = {(rng.choice(ends), rng.choice(ends)) for _ in range(rng.randint(0, 2 * len(ids)))}
            try:
                ValueTaxonomy(nodes, frozenset(edges), {})
            except InvalidTaxonomy as exc:
                found = [(v.rule, v.subject, v.message) for v in exc.violations]
            else:
                found = []
            if found and found[-1][0] == "CycleDetected":
                kinds["CycleDetected"] += 1
                found.pop()
            assert found == edge_scan(nodes, edges)
            for rule in {rule for rule, _, _ in found}:
                kinds[rule] += 1
        assert min(kinds.values()) > 300, kinds

    def test_valid_taxonomy_validates_without_the_cycle_search(self, monkeypatch):
        def refuse(taxonomy):
            raise AssertionError("the cycle search ran on a valid taxonomy")
        monkeypatch.setattr(taxonomy_module, "_find_cycle", refuse)
        rng = random.Random(5)
        for _ in range(50):
            t = random_taxonomy(rng)
            assert validate(t) == ()
            assert sorted(topological_order(t)) == sorted(t.nodes)

    def test_validate_is_idempotent(self, fairness):
        assert validate(fairness) == validate(fairness)
        nodes, edges = [label_node("a"), label_node("b")], [("a", "b"), ("b", "a")]
        assert refusal(nodes, edges).violations == refusal(nodes, edges).violations

    def test_orphan_label_leaf_is_legal(self, fairness):
        # "equal_pay" has no property child; it is a legal, inert leaf
        assert "equal_pay" in fairness.nodes
        assert children_of(fairness)["equal_pay"] == set()
        assert validate(fairness) == ()


# One graph per structural rule, with the one violation it breaks.
INVALID_GRAPHS = {
    "cycle": ([label_node("a"), label_node("b")], [("a", "b"), ("b", "a")],
              ("CycleDetected", "a", "cycle detected: a -> b -> a")),
    "unknown-endpoint": ([label_node("a")], [("a", "ghost")],
                         ("UnknownEdgeEndpoint", "a->ghost",
                          "edge ('a', 'ghost') references unknown node 'ghost'")),
    "property-not-leaf": ([property_node("p"), label_node("a")], [("p", "a")],
                          ("PropertyNodeNotLeaf", "p",
                           "property node 'p' has child 'a'; property nodes must be leaves")),
}
BUILDERS = {
    "constructor": lambda nodes, edges: ValueTaxonomy({n.id: n for n in nodes}, frozenset(edges)),
    "build": ValueTaxonomy.build,
    "parse_taxonomy": lambda nodes, edges: parse_taxonomy(json.dumps({
        "schema_version": 1,
        "nodes": [{"id": n.id, "kind": n.kind.value} for n in nodes],
        "edges": [{"parent": p, "child": c} for p, c in edges]})),
}


# No way of building a taxonomy yields an invalid one, so no operation
# (topological_order, all_paths_counts, propagate, align, export_dot) is
# ever handed one.
@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("graph", INVALID_GRAPHS)
def test_no_builder_yields_an_invalid_taxonomy(builder, graph):
    nodes, edges, violation = INVALID_GRAPHS[graph]
    with pytest.raises(InvalidTaxonomy) as excinfo:
        BUILDERS[builder](nodes, edges)
    assert [(v.rule, v.subject, v.message) for v in excinfo.value.violations] == [violation]


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
    nodes = [Node(new_ids[n], node.kind, node.text)
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

    def test_returns_a_fresh_list(self, fairness):
        first = topological_order(fairness)
        expected = list(first)
        first.reverse()
        first.append("ghost")
        assert topological_order(fairness) == expected


class TestStructuralInvariants:
    def test_random_taxonomies(self):
        rng = random.Random(1234)
        for _ in range(50):
            t = random_taxonomy(rng)
            assert validate(t) == ()
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

"""Importance propagation and coherence checker tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given

from valuetax import (
    ValueTaxonomy,
    check_coherence,
    label_node,
    mean_aggregate,
    propagate,
)
from valuetax.errors import (
    ConflictingAssignment,
    IncoherentInput,
    PropagationError,
    RangeViolation,
)
from valuetax.propagation import _Run

from conftest import (
    children_of,
    context_c_fragment,
    random_taxonomy,
    parents_of,
    random_tree,
    relabelled,
    subtree_mean_oracle,
    taxonomies,
)


def taxonomy(edges, importance=None, extra_nodes=()):
    names = {n for e in edges for n in e} | set(extra_nodes)
    return ValueTaxonomy.build([label_node(n) for n in sorted(names)], edges, importance or {})


class TestPropagateBranches:
    def test_fairness_fragment_fills_all_interior_nodes(self):
        result = propagate(context_c_fragment())
        got = result.taxonomy.importance
        assert got["give_take"] == pytest.approx(0.8, abs=1e-9)
        assert got["reciprocity"] == pytest.approx(0.8, abs=1e-9)
        assert got["workload_split"] == pytest.approx(0.7, abs=1e-9)
        assert got["equal_treatment"] == pytest.approx(0.7, abs=1e-9)
        assert got["fairness"] == pytest.approx(0.75, abs=1e-9)
        oracle = subtree_mean_oracle(context_c_fragment())
        for node, value in got.items():
            assert value == pytest.approx(oracle[node], abs=1e-9)

    def test_verify_branch_rejects_incoherent_parent(self):
        t = taxonomy([("p", "a"), ("p", "b")], {"p": 0.9, "a": 0.1, "b": 0.1})
        with pytest.raises(IncoherentInput) as excinfo:
            propagate(t)
        assert excinfo.value.node == "p"
        assert excinfo.value.expected == pytest.approx(0.1)

    def test_single_missing_child_solved(self):
        t = taxonomy([("p", "a"), ("p", "b")], {"p": 0.6, "a": 0.8})
        result = propagate(t)
        assert result.taxonomy.importance["b"] == pytest.approx(0.4, abs=1e-12)
        assert mean_aggregate((0.8, result.taxonomy.importance["b"])) == pytest.approx(0.6, abs=1e-12)

    def test_several_missing_children_split_equally(self):
        t = taxonomy([("p", "a"), ("p", "b"), ("p", "c")], {"p": 0.5, "a": 0.9})
        result = propagate(t)
        assert result.taxonomy.importance["b"] == pytest.approx(0.3, abs=1e-12)
        assert result.taxonomy.importance["c"] == pytest.approx(0.3, abs=1e-12)

    def test_down_split_waits_for_valued_descendants(self):
        # b's subtree carries a value, so the equal split may not run;
        # b resolves bottom-up first and c then gets the remainder
        t = taxonomy(
            [("p", "a"), ("p", "b"), ("p", "c"), ("b", "b1")],
            {"p": 0.5, "a": 0.9, "b1": 0.1},
        )
        result = propagate(t)
        got = result.taxonomy.importance
        assert got["b"] == pytest.approx(0.1, abs=1e-12)
        assert got["c"] == pytest.approx(0.5 * 3 - 0.9 - 0.1, abs=1e-12)

    def test_parent_from_all_children(self):
        t = taxonomy([("p", "a"), ("p", "b")], {"a": 0.2, "b": 0.4})
        assert propagate(t).taxonomy.importance["p"] == pytest.approx(0.3, abs=1e-12)

    def test_partial_children_mean_handed_down(self):
        t = taxonomy([("p", "a"), ("p", "b")], {"a": 0.8})
        got = propagate(t).taxonomy.importance
        assert got["p"] == pytest.approx(0.8, abs=1e-12)
        assert got["b"] == pytest.approx(0.8, abs=1e-12)

    def test_partial_mean_waits_for_valued_descendants(self):
        t = taxonomy([("p", "a"), ("p", "b"), ("b", "b1")], {"a": 0.8, "b1": 0.2})
        got = propagate(t).taxonomy.importance
        assert got["b"] == pytest.approx(0.2, abs=1e-12)
        assert got["p"] == pytest.approx(0.5, abs=1e-12)

    def test_single_valued_node_unchanged_in_one_pass(self):
        t = ValueTaxonomy.build([label_node("only")], importance={"only": 0.4})
        result = propagate(t)
        assert dict(result.taxonomy.importance) == {"only": 0.4}
        assert result.assigned == {}
        assert result.iterations == 1

    def test_empty_taxonomy(self):
        result = propagate(ValueTaxonomy())
        assert len(result.taxonomy) == 0
        assert result.iterations == 1

    def test_uninformed_component_stays_unset_but_evaluable_parts_cohere(self):
        # the left component has no values anywhere, so nothing there can
        # resolve; the right chain resolves fully
        t = taxonomy(
            [("top", "x"), ("top", "y"), ("r", "r1")],
            {"r1": 0.3},
        )
        result = propagate(t)
        assert set(result.assigned) == {"r"}
        assert "top" not in result.taxonomy.importance
        report = check_coherence(result.taxonomy)
        assert report.coherent
        assert report.unevaluable == ("top",)


class TestPropagateErrors:
    def test_shared_child_conflict(self):
        t = taxonomy([("a", "shared"), ("b", "shared")], {"a": 0.6, "b": 0.8})
        with pytest.raises(ConflictingAssignment) as excinfo:
            propagate(t)
        assert "shared" in excinfo.value.assigned

    def test_range_violation_not_clamped(self):
        t = taxonomy([("p", "a"), ("p", "b")], {"p": 1.0, "a": -0.5})
        with pytest.raises(RangeViolation) as excinfo:
            propagate(t)
        assert excinfo.value.node == "b"
        assert excinfo.value.value == pytest.approx(2.5)

    def test_boundary_values_propagate_cleanly(self):
        t = taxonomy([("p", "a"), ("p", "b")], {"p": 1.0, "a": 1.0})
        assert propagate(t).taxonomy.importance["b"] == 1.0

    def test_error_carries_prior_assignments(self):
        # a_root solves its child first; the mismatch under b_root then halts the run
        t = taxonomy(
            [("a_root", "x"), ("b_root", "z")],
            {"a_root": 0.3, "b_root": 0.5, "z": 0.2},
        )
        with pytest.raises(IncoherentInput) as excinfo:
            propagate(t)
        assert excinfo.value.node == "b_root"
        assert excinfo.value.assigned == {"x": pytest.approx(0.3)}


class TestPropagateProperties:
    @given(taxonomies(leaf_importance_only=True))
    def test_oracle_equivalence_on_generated_trees(self, tree):
        result = propagate(tree)
        oracle = subtree_mean_oracle(tree)
        for node, expected in oracle.items():
            assert result.taxonomy.importance[node] == pytest.approx(expected, abs=1e-9)
        assert check_coherence(result.taxonomy).coherent

    def test_deep_chain_does_not_recurse(self):
        # 500 levels; propagation must stay iterative
        names = [f"d{i:03d}" for i in range(500)]
        edges = [(names[i], names[i + 1]) for i in range(499)]
        t = ValueTaxonomy.build([label_node(n) for n in names], edges, {names[-1]: 0.25})
        result = propagate(t)
        assert result.taxonomy.importance[names[0]] == pytest.approx(0.25, abs=1e-12)
        assert result.iterations <= len(names) + 1

    def test_matches_recursive_mean_on_random_trees(self):
        rng = random.Random(42)
        for _ in range(100):
            tree = random_tree(rng, max_nodes=30)
            result = propagate(tree)
            oracle = subtree_mean_oracle(tree)
            assert result.iterations <= len(tree.nodes) + 1
            for node, expected in oracle.items():
                assert result.taxonomy.importance[node] == pytest.approx(expected, abs=1e-9)

    def test_never_modifies_preassigned_values(self):
        # re-running from a random subset may legitimately fail (the partial
        # mean handed down by propagation can contradict a kept value further
        # away), but a successful run must keep every given value untouched
        rng = random.Random(7)
        succeeded = 0
        for _ in range(30):
            tree = random_tree(rng, max_nodes=25)
            full = propagate(tree).taxonomy
            keep = {n: v for n, v in full.importance.items() if rng.random() < 0.5}
            partial = tree.with_importance(keep)
            try:
                result = propagate(partial)
            except PropagationError:
                continue
            succeeded += 1
            for node, value in keep.items():
                assert result.taxonomy.importance[node] == value
        assert succeeded > 5

    def test_erasing_one_interior_value_is_restored(self):
        rng = random.Random(13)
        for _ in range(30):
            tree = random_tree(rng, max_nodes=25)
            full = propagate(tree).taxonomy
            interior = [n for n in full.nodes if any(p == n for p, _ in full.edges)]
            victim = rng.choice(interior)
            erased = {n: v for n, v in full.importance.items() if n != victim}
            restored = propagate(full.with_importance(erased)).taxonomy
            assert restored.importance[victim] == pytest.approx(
                full.importance[victim], abs=1e-9)

    def test_fully_assigned_result_is_coherent(self):
        rng = random.Random(5)
        for _ in range(30):
            tree = random_tree(rng, max_nodes=25)
            result = propagate(tree)
            assert len(result.taxonomy.importance) == len(tree.nodes)
            assert check_coherence(result.taxonomy).coherent

    def test_final_values_do_not_depend_on_node_order(self):
        rng = random.Random(21)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=20)
            names = sorted(tree.nodes)
            shuffled = names[:]
            rng.shuffle(shuffled)
            relabel = dict(zip(names, shuffled))
            renamed = ValueTaxonomy.build(
                [label_node(relabel[n]) for n in names],
                [(relabel[p], relabel[c]) for p, c in tree.edges],
                {relabel[n]: v for n, v in tree.importance.items()},
            )
            base = propagate(tree).taxonomy.importance
            other = propagate(renamed).taxonomy.importance
            for node in names:
                assert other[relabel[node]] == pytest.approx(base[node], abs=1e-9)


def outcome(t: ValueTaxonomy):
    try:
        return propagate(t)
    except PropagationError as exc:
        return exc


class TestForcedBeforeDefaults:
    def test_forced_value_lands_before_partial_mean(self):
        # visited parents-first, n01 used to hand its partial mean down to
        # n05 before n03 forced n05, and the run failed; forced rules now
        # settle n05 first and every node follows from the two given values
        t = taxonomy(
            [("n00", "n01"), ("n00", "n02"), ("n01", "n04"), ("n01", "n05"),
             ("n02", "n03"), ("n02", "n05"), ("n03", "n05")],
            {"n03": 0.2, "n04": 0.6},
        )
        result = propagate(t)
        assert result.assigned == pytest.approx(
            {"n05": 0.2, "n01": 0.4, "n02": 0.2, "n00": 0.3}, abs=1e-12)
        assert result.iterations == 1
        assert check_coherence(result.taxonomy).coherent

    def test_forced_value_preempts_partial_mean_hand_down(self):
        # n00's partial mean (0.4) would have handed n03 a value that n02's
        # single-child rule contradicts; the forced value wins
        t = taxonomy([("n00", "n01"), ("n00", "n02"), ("n00", "n03"), ("n02", "n03")],
                     {"n01": 0.2, "n02": 0.6})
        got = propagate(t).taxonomy.importance
        assert got["n03"] == pytest.approx(0.6, abs=1e-12)
        assert got["n00"] == pytest.approx(1.4 / 3, abs=1e-12)

    def test_disagreeing_defaults_conflict_whatever_the_names(self):
        # n01 splits its value over n02 and n03 while n00 hands its partial
        # mean down to n02; both defaults apply in the same round
        edges = [("n00", "n01"), ("n00", "n02"), ("n00", "n04"), ("n01", "n02"), ("n01", "n03")]
        importance = {"n01": 0.3, "n04": 0.5}
        for names in ("abcde", "edcba"):
            relabel = dict(zip(("n00", "n01", "n02", "n03", "n04"), names))
            t = relabelled(taxonomy(edges, importance), relabel)
            with pytest.raises(ConflictingAssignment) as excinfo:
                propagate(t)
            assert excinfo.value.node == relabel["n02"]

    def test_agreeing_defaults_commit_the_smallest_whatever_the_names(self):
        # (0.1 + 0.2) / 2 lies one ulp above 0.15
        edges = [("p", "a"), ("p", "b"), ("p", "s"), ("q", "c"), ("q", "s")]
        importance = {"a": 0.1, "b": 0.2, "c": 0.15}
        for names in ("pqabcs", "qpcbas"):
            relabel = dict(zip("pqabcs", names))
            t = relabelled(taxonomy(edges, importance), relabel)
            assert propagate(t).assigned[relabel["s"]] == 0.15

    def test_split_waits_for_a_default_below(self):
        # b has a valued child, so p may not split over b and c yet; b's
        # partial mean lands first, then p's single unvalued child c is forced
        t = taxonomy(
            [("p", "a"), ("p", "b"), ("p", "c"), ("b", "b1"), ("b", "b2")],
            {"p": 0.5, "a": 0.9, "b1": 0.1},
        )
        result = propagate(t)
        assert result.assigned == pytest.approx({"b": 0.1, "b2": 0.1, "c": 0.5}, abs=1e-12)
        assert result.iterations == 2

    def test_relabelling_keeps_the_outcome_on_random_dags(self):
        # about 30 % of nodes pre-valued, interiors included
        for seed in range(2000):
            rng = random.Random(seed)
            t = random_taxonomy(rng, importance_prob=0.3)
            names = sorted(t.nodes)
            shuffled = names[:]
            rng.shuffle(shuffled)
            relabel = dict(zip(names, shuffled))
            base, other = outcome(t), outcome(relabelled(t, relabel))
            assert isinstance(base, PropagationError) == isinstance(other, PropagationError), seed
            if isinstance(base, PropagationError):
                continue
            values = other.taxonomy.importance
            assert len(values) == len(base.taxonomy.importance), seed
            for node, value in base.taxonomy.importance.items():
                assert values[relabel[node]] == pytest.approx(value, abs=1e-9), seed

    def test_second_run_assigns_nothing(self):
        cases = [context_c_fragment()]
        cases += [random_taxonomy(random.Random(seed), importance_prob=0.3) for seed in range(300)]
        succeeded = 0
        for t in cases:
            first = outcome(t)
            if isinstance(first, PropagationError):
                continue
            succeeded += 1
            second = propagate(first.taxonomy)
            assert second.assigned == {}
            assert second.iterations == 1
            assert second.taxonomy.importance == first.taxonomy.importance
        assert succeeded > 100


def flags_by_definition(t: ValueTaxonomy, values: dict) -> dict:
    """Each node with a valued strict descendant, mapped to the number of its
    unvalued children that have one too, read from the edge set alone."""
    children, parents = children_of(t), parents_of(t)
    above: set = set()
    stack = [p for node in values for p in parents[node]]
    while stack:
        node = stack.pop()
        if node not in above:
            above.add(node)
            stack.extend(parents[node])
    return {n: sum(c in above and c not in values for c in children[n]) for n in above}


class TestDefaultFlags:
    def test_lazily_built_flags_match_their_definition_at_every_defaults_round(self, monkeypatch):
        original = _Run.apply_defaults
        counts = {"built": 0, "rounds after the build": 0}
        current: list[ValueTaxonomy] = []

        def checked(run, candidates):
            before = run.blocked
            if before is not None:
                assert before == flags_by_definition(current[0], run.values)
                counts["rounds after the build"] += 1
            assigned = original(run, candidates)
            if run.blocked is not None:
                assert run.blocked == flags_by_definition(current[0], run.values)
                counts["built"] += before is None
            return assigned

        monkeypatch.setattr(_Run, "apply_defaults", checked)
        for seed in range(2400):
            rng = random.Random(seed)
            current[:] = [random_taxonomy(rng, max_nodes=16, importance_prob=rng.choice((0.1, 0.3)))]
            try:
                propagate(current[0])
            except PropagationError:
                pass
        # about two runs in three build the flags, and as many later rounds read them
        assert counts["built"] > 1000
        assert counts["rounds after the build"] > 1000


class TestCheckCoherence:
    def test_propagated_fragment_is_coherent(self):
        report = check_coherence(propagate(context_c_fragment()).taxonomy)
        assert report.coherent
        assert report.violations == ()
        assert report.unevaluable == ()

    def test_wrong_root_reported_with_expected_value(self):
        full = propagate(context_c_fragment()).taxonomy
        skewed = dict(full.importance)
        skewed["fairness"] = 0.9
        report = check_coherence(full.with_importance(skewed))
        assert not report.coherent
        assert [v.parent for v in report.violations] == ["fairness"]
        assert report.violations[0].expected == pytest.approx(0.75)
        assert report.violations[0].actual == pytest.approx(0.9)

    def test_no_interior_nodes_is_vacuously_coherent(self):
        t = ValueTaxonomy.build([label_node("a"), label_node("b")])
        assert check_coherence(t).coherent

    def test_missing_values_are_unevaluable_not_violations(self):
        t = taxonomy([("p", "a"), ("p", "b")], {"a": 0.4})
        report = check_coherence(t)
        assert report.coherent
        assert report.unevaluable == ("p",)

    def test_checks_the_mean_that_propagate_enforces(self):
        # p equals the minimum of its children, not their mean
        t = taxonomy([("p", "a"), ("p", "b")], {"p": 0.2, "a": 0.2, "b": 0.9})
        (violation,) = check_coherence(t).violations
        assert (violation.parent, violation.actual) == ("p", 0.2)
        assert violation.expected == mean_aggregate((0.2, 0.9))
        with pytest.raises(IncoherentInput) as excinfo:
            propagate(t)
        assert (excinfo.value.node, excinfo.value.expected) == ("p", violation.expected)

    @given(taxonomies())
    def test_agrees_with_propagate_on_given_values(self, t):
        violations = {v.parent: v.expected for v in check_coherence(t).violations}
        try:
            propagate(t)
        except IncoherentInput as exc:
            assert violations[exc.node] == exc.expected
        except PropagationError:
            pass
        else:
            assert violations == {}

    def test_tolerance_is_relative_1e_9(self):
        assert check_coherence(taxonomy([("p", "a")], {"p": 0.5 + 4e-10, "a": 0.5})).coherent
        assert not check_coherence(taxonomy([("p", "a")], {"p": 0.5 + 6e-10, "a": 0.5})).coherent

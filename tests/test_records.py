"""The contract of the package's immutable records, one table row each:
construction, immutability, equality, hashing, repr, copy and pickle."""

from __future__ import annotations

import copy
import pickle
from types import MappingProxyType
from typing import NamedTuple

import pytest

from valuetax.aggregation import Law, LawReport
from valuetax.alignment import AlignmentReport, AlignmentScheme, PropertyContribution
from valuetax.context import KMEANS_SELECTION, POSITIVE_SELECTION, ContextSpec, SelectionKind, SelectionStrategy
from valuetax.mutual_aid import CommunityState, DomainConfig, Measure
from valuetax.propagation import CoherenceReport, CoherenceViolation, PropagationResult
from valuetax.taxonomy import Node, NodeKind, ValueTaxonomy, Violation

LABEL_A = Node("a", NodeKind.LABEL, "A")
PROPERTY_B = Node("b", NodeKind.PROPERTY, "b")
TAXONOMY = ValueTaxonomy({"a": LABEL_A, "b": PROPERTY_B}, frozenset({("a", "b")}), {"b": 0.5})
TAXONOMY_REPR = (
    "ValueTaxonomy(nodes=mappingproxy({"
    "'a': Node(id='a', kind=<NodeKind.LABEL: 'label'>, text='A'), "
    "'b': Node(id='b', kind=<NodeKind.PROPERTY: 'property'>, text='b')}), "
    "edges=frozenset({('a', 'b')}), importance=mappingproxy({'b': 0.5}))")
STATE_REPR = (
    "CommunityState(requests=mappingproxy({'m': 1}), offers=mappingproxy({'m': 2}), "
    "volunteering=mappingproxy({'n': 1}), task_distribution=mappingproxy({'n': 3}))")
CONTRIBUTION = PropertyContribution("p", 0.5, 0.4, 2, 0.4)
CONTRIBUTION_REPR = "PropertyContribution(node='p', sd=0.5, importance=0.4, paths=2, contribution=0.4)"


class Case(NamedTuple):
    cls: type
    fields: tuple[str, ...]
    values: tuple  # one value per field, constructed positionally
    required: int  # leading fields without a default
    defaults: dict  # field -> value when left out (given the required ones)
    changed: int  # a field whose change makes the record unequal
    other: object  # the value it changes to
    repr: str
    hashable: bool  # False where a field is a mapping


CASES = [
    Case(Node, ("id", "kind", "text"), ("a", NodeKind.LABEL, "A"),
         3, {}, 2, "B", "Node(id='a', kind=<NodeKind.LABEL: 'label'>, text='A')", True),
    Case(Violation, ("rule", "subject", "message"), ("CycleDetected", "a", "cycle through a"),
         3, {}, 1, "b",
         "Violation(rule='CycleDetected', subject='a', message='cycle through a')", True),
    Case(ValueTaxonomy, ("nodes", "edges", "importance"),
         ({"a": LABEL_A, "b": PROPERTY_B}, frozenset({("a", "b")}), {"b": 0.5}),
         0, {"nodes": {}, "edges": frozenset(), "importance": {}}, 2, {"b": 0.25},
         TAXONOMY_REPR, False),
    Case(LawReport, ("law", "counterexample"), (Law.SYMMETRY, ((0.1,), (0.2,))),
         1, {"counterexample": None}, 1, ((0.3,),),
         "LawReport(law=<Law.SYMMETRY: 'Symmetry'>, counterexample=((0.1,), (0.2,)))", True),
    Case(PropertyContribution, ("node", "sd", "importance", "paths", "contribution"),
         ("p", 0.5, 0.4, 2, 0.4), 5, {}, 3, 3, CONTRIBUTION_REPR, True),
    Case(AlignmentReport, ("entity", "scheme", "score", "score_bound", "per_property"),
         ("e", AlignmentScheme.MEAN_WEIGHTED, 0.2, 1.0, (CONTRIBUTION,)),
         5, {}, 1, AlignmentScheme.PATH_WEIGHTED,
         "AlignmentReport(entity='e', scheme=<AlignmentScheme.MEAN_WEIGHTED: 'mean'>, score=0.2, "
         f"score_bound=1.0, per_property=({CONTRIBUTION_REPR},))", True),
    Case(SelectionStrategy, ("kind", "threshold"), (SelectionKind.KMEANS_TWO, 0.25),
         0, {"kind": SelectionKind.POSITIVE_THRESHOLD, "threshold": 0.0}, 1, 0.5,
         "SelectionStrategy(kind=<SelectionKind.KMEANS_TWO: 'kmeans2'>, threshold=0.25)", True),
    Case(ContextSpec, ("id", "defining_properties", "property_importance", "selection"),
         ("c", frozenset({"x"}), {"p": 0.5}, KMEANS_SELECTION),
         1, {"defining_properties": frozenset(), "property_importance": {},
             "selection": POSITIVE_SELECTION}, 2, {"p": 0.25},
         "ContextSpec(id='c', defining_properties=frozenset({'x'}), "
         "property_importance=mappingproxy({'p': 0.5}), "
         "selection=SelectionStrategy(kind=<SelectionKind.KMEANS_TWO: 'kmeans2'>, threshold=0.0))",
         False),
    Case(CommunityState, ("requests", "offers", "volunteering", "task_distribution"),
         ({"m": 1}, {"m": 2}, {"n": 1}, {"n": 3}),
         0, {"requests": {}, "offers": {}, "volunteering": {}, "task_distribution": {}}, 3, {},
         STATE_REPR, False),
    Case(DomainConfig, ("max_ratio", "epsilon", "max_delta", "difference_measure"),
         (4.0, 0.2, 0.9, Measure.KL_DIVERGENCE),
         0, {"max_ratio": 5.0, "epsilon": 0.1, "max_delta": 1.0,
             "difference_measure": Measure.EARTH_MOVERS_1D}, 0, 3.0,
         "DomainConfig(max_ratio=4.0, epsilon=0.2, max_delta=0.9, "
         "difference_measure=<Measure.KL_DIVERGENCE: 'kl'>)", True),
    Case(PropagationResult, ("taxonomy", "assigned", "iterations"), (TAXONOMY, {"a": 0.5}, 1),
         3, {}, 2, 2, f"PropagationResult(taxonomy={TAXONOMY_REPR}, assigned={{'a': 0.5}}, iterations=1)",
         False),
    Case(CoherenceViolation, ("parent", "expected", "actual"), ("a", 0.5, 0.25),
         3, {}, 2, 0.5, "CoherenceViolation(parent='a', expected=0.5, actual=0.25)", True),
    Case(CoherenceReport, ("violations", "unevaluable"),
         ((CoherenceViolation("a", 0.5, 0.25),), ("b",)),
         0, {"violations": (), "unevaluable": ()}, 1, ("c",),
         "CoherenceReport(violations=(CoherenceViolation(parent='a', expected=0.5, "
         "actual=0.25),), unevaluable=('b',))", True),
]
IDS = [case.cls.__name__ for case in CASES]


def build(case: Case):
    return case.cls(*case.values)


def field_values(record, case: Case) -> tuple:
    return tuple(getattr(record, name) for name in case.fields)


def test_every_record_is_covered():
    assert len({case.cls for case in CASES}) == 13


@pytest.mark.parametrize("case", CASES, ids=IDS)
class TestRecordContract:
    def test_positional_and_keyword_construction_agree(self, case):
        record = build(case)
        assert field_values(record, case) == case.values
        assert case.cls(**dict(zip(case.fields, case.values))) == record

    def test_defaults(self, case):
        given = dict(zip(case.fields[:case.required], case.values))
        record = case.cls(**given)
        assert {name: getattr(record, name) for name in case.defaults} == case.defaults
        assert len(case.defaults) == len(case.fields) - case.required

    def test_missing_argument_is_a_type_error(self, case):
        if not case.required:
            pytest.skip("every field has a default")
        missing = case.fields[case.required - 1]
        with pytest.raises(TypeError, match=f"__init__\\(\\) missing 1 required positional argument: '{missing}'"):
            case.cls(*case.values[:case.required - 1])

    def test_extra_argument_is_a_type_error(self, case):
        with pytest.raises(TypeError, match="positional argument"):
            case.cls(*case.values, None)
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            case.cls(*case.values, bogus=1)

    def test_assignment_and_deletion_raise(self, case):
        record = build(case)
        for name in case.fields + ("bogus",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert field_values(record, case) == case.values

    def test_equality_is_field_wise(self, case):
        record = build(case)
        assert record == build(case)
        assert not record != build(case)
        values = list(case.values)
        values[case.changed] = case.other
        assert record != case.cls(*values)
        assert record != case.values
        assert (record == case.values) is False

    def test_hash(self, case):
        if case.hashable:
            assert hash(build(case)) == hash(build(case))
            assert len({build(case), build(case)}) == 1
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(build(case))

    def test_repr(self, case):
        assert repr(build(case)) == case.repr

    def test_copy(self, case):
        record = build(case)
        duplicate = copy.copy(record)
        assert type(duplicate) is case.cls
        assert duplicate == record

    def test_pickle(self, case):
        record = build(case)
        restored = pickle.loads(pickle.dumps(record))
        assert type(restored) is case.cls
        assert restored == record


@pytest.mark.parametrize("record, verdict, holds", [
    (CoherenceReport(unevaluable=("b",)), "coherent", True),
    (CoherenceReport((CoherenceViolation("a", 0.5, 0.25),)), "coherent", False),
    (LawReport(Law.SYMMETRY), "passed", True),
    (LawReport(Law.SYMMETRY, ((0.1,),)), "passed", False),
])
def test_verdicts_are_read_only_properties_of_the_fields(record, verdict, holds):
    assert getattr(record, verdict) is holds
    assert isinstance(getattr(type(record), verdict), property)
    assert verdict not in record._fields and f"{verdict}=" not in repr(record)
    with pytest.raises(AttributeError):
        setattr(record, verdict, not holds)
    with pytest.raises(AttributeError):
        delattr(record, verdict)
    assert getattr(record, verdict) is holds


def test_taxonomy_equality_ignores_derived_structure():
    case = next(case for case in CASES if case.cls is ValueTaxonomy)
    cached = build(case)  # validation derives the structure at construction
    fresh = build(case)
    vars(fresh).clear()
    assert cached == fresh and fresh == cached
    assert "_children" in vars(cached) and "_children" not in vars(fresh)
    assert repr(cached) == repr(fresh) == TAXONOMY_REPR
    assert copy.copy(cached) == fresh


def test_state_equality_ignores_the_cached_members():
    cached = CommunityState({"m": 1})
    cached.members
    assert cached == CommunityState({"m": 1})
    assert repr(cached) == repr(CommunityState({"m": 1}))


@pytest.mark.parametrize("make, names", [
    (ValueTaxonomy, ("nodes", "importance")),
    (lambda: ContextSpec("c"), ("property_importance",)),
    (CommunityState, ("requests", "offers", "volunteering", "task_distribution")),
], ids=["ValueTaxonomy", "ContextSpec", "CommunityState"])
def test_default_mappings_are_not_shared(make, names):
    first, second = make(), make()
    for name in names:
        assert getattr(first, name) == {}
        assert getattr(first, name) is not getattr(second, name)


def test_unpickled_mappings_stay_read_only():
    result = PropagationResult(TAXONOMY, {"a": 0.5}, 1)
    restored = pickle.loads(pickle.dumps(result))
    assert restored == result
    for mapping in (restored.taxonomy.nodes, restored.taxonomy.importance):
        assert isinstance(mapping, MappingProxyType)
    assert restored.assigned == {"a": 0.5} and type(restored.assigned) is dict


def test_mappings_are_copied_on_construction():
    importance = {"p": 0.5}
    context = ContextSpec("c", property_importance=importance)
    counts = {"m": 1}
    state = CommunityState(counts)
    importance["q"] = 0.1
    counts["m"] = 2
    assert dict(context.property_importance) == {"p": 0.5}
    assert dict(state.requests) == {"m": 1}

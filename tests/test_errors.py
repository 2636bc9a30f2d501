"""Every exception of the package survives pickle and copy: the same type,
message, args and attributes, without running a subclass ``__init__`` again."""

from __future__ import annotations

import copy
import pickle

import pytest

from valuetax import errors
from valuetax.taxonomy import ValueTaxonomy, Violation, label_node

VIOLATIONS = (Violation("CycleDetected", "a", "cycle detected: a -> b -> a"),
              Violation("PropertyNodeNotLeaf", "p", "property node 'p' has child 'a'"))

# One instance of every TaxonomyError class in errors.
ERRORS = [
    errors.TaxonomyError("base"),
    errors.UnknownNode("n"),
    errors.EmptyInput("no values"),
    errors.PropagationError("n", "failed at 'n'", {"a": 0.5}),
    errors.IncoherentInput("n", 0.5, 0.25, {"a": 0.5}),
    errors.ConflictingAssignment("n", "0.5 vs 0.25"),
    errors.RangeViolation("n", 1.5),
    errors.MissingEvaluator("p"),
    errors.NoPropertyNodes("no property nodes"),
    errors.MissingImportance("p"),
    errors.MissingSatisfaction("p"),
    errors.UndefinedRatio("m", "no offers"),
    errors.EmptyDistribution("empty"),
    errors.SupportMismatch("lengths 2 and 3"),
    errors.MalformedEvent(3, "record must be an object"),
    errors.ParseError("nodes[2].id", "duplicate node id: 'v'"),
    errors.InvalidTaxonomy(VIOLATIONS),
    errors.SchemaVersionUnsupported(2),
]


def test_every_error_class_has_an_instance():
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.TaxonomyError)}
    assert {type(error) for error in ERRORS} == classes


@pytest.mark.parametrize("error", ERRORS, ids=lambda error: type(error).__name__)
def test_pickle_round_trip(error):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(error, protocol))
        assert type(restored) is type(error)
        assert str(restored) == str(error)
        assert restored.args == error.args
        assert vars(restored) == vars(error)


@pytest.mark.parametrize("error", ERRORS, ids=lambda error: type(error).__name__)
def test_copy(error):
    duplicate = copy.copy(error)
    assert type(duplicate) is type(error)
    assert (str(duplicate), vars(duplicate)) == (str(error), vars(error))


def test_a_repeat_refused_by_build_keeps_its_location():
    with pytest.raises(errors.InvalidTaxonomy) as excinfo:
        ValueTaxonomy.build([label_node("a"), label_node("a")])
    error = excinfo.value
    assert (error.location, error.violations) == (
        "nodes[1].id", (Violation("DuplicateNodeId", "nodes[1].id", "duplicate node id: 'a'"),))
    for restored in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
        assert type(restored) is errors.InvalidTaxonomy
        assert (str(restored), vars(restored)) == (str(error), vars(error))

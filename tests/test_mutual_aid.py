"""Mutual-aid domain tests: event counting, satisfaction mappings, and
distribution measures."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valuetax import mutual_aid
from valuetax import (
    OFFER_RATIO,
    TASK_BALANCE,
    VOLUNTEER_RATIO,
    CommunityState,
    DomainConfig,
    EventKind,
    Measure,
    ValueTaxonomy,
    align,
    build_context_taxonomy,
    ContextSpec,
    difference_satisfaction,
    emd_1d,
    fairness_taxonomy,
    ingest,
    kl_divergence,
    parse_event_log,
    property_evaluators,
    property_node,
    ratio_satisfaction,
    satisfaction_degrees,
    sd_offer_ratio,
    sd_task_balance,
    sd_volunteer_ratio,
    task_imbalance,
)
from valuetax.errors import (
    EmptyDistribution,
    EmptyInput,
    MalformedEvent,
    MissingSatisfaction,
    ParseError,
    SupportMismatch,
    UndefinedRatio,
)

CFG = DomainConfig()


def events_for(member: str, kind: EventKind, count: int):
    """``count`` event records as the event-log reader yields them."""
    return [(kind.value, member)] * count


def state_with(requests=None, offers=None, volunteering=None, tasks=None):
    return CommunityState(requests or {}, offers or {}, volunteering or {}, tasks or {})


def reference_normalize(dist, name):
    """Probabilities as lists and tuples, the reference for the lazy ones."""
    weights = [float(v) for v in dist]
    if any(w < 0 for w in weights):
        raise ValueError(f"{name} has negative mass")
    total = sum(weights)
    if not weights or total <= 0:
        raise EmptyDistribution(f"{name} has no mass to normalize")
    return tuple(w / total for w in weights)


def reference_pair(d, u):
    probs_d = reference_normalize(d, "first distribution")
    probs_u = reference_normalize(u, "second distribution")
    if len(probs_d) != len(probs_u):
        raise SupportMismatch(f"supports differ: {len(probs_d)} vs {len(probs_u)} points")
    return probs_d, probs_u


def reference_kl(d, u):
    total = 0.0
    for p, q in zip(*reference_pair(d, u)):
        if p == 0.0:
            continue
        if q == 0.0:
            raise ValueError("divergence undefined: reference has zero mass where the first does not")
        total += p * math.log(p / q)
    return total


def reference_emd(d, u):
    total = cdf_d = cdf_u = 0.0
    for p, q in zip(*reference_pair(d, u)):
        cdf_d += p
        cdf_u += q
        total += abs(cdf_d - cdf_u)
    return total


class TestIngest:
    def test_counts_requests_and_offers(self):
        log = events_for("m", EventKind.REQUEST, 3) + events_for("m", EventKind.OFFER, 2)
        state = ingest(log)
        assert state.requests["m"] == 3
        assert state.offers["m"] == 2

    def test_empty_log(self):
        state = ingest([])
        assert state.members == ()
        assert dict(state.requests) == {}

    def test_members_are_computed_once_and_stay_out_of_equality(self):
        state = state_with(requests={"b": 1}, offers={"a": 2}, tasks={"c": 1, "b": 3})
        assert state.members == ("a", "b", "c")
        assert state.members is state.members
        fresh = state_with(requests={"b": 1}, offers={"a": 2}, tasks={"c": 1, "b": 3})
        assert state == fresh and fresh == state
        assert repr(state) == repr(fresh)

    def test_task_distribution(self):
        log = (events_for("v1", EventKind.TASK_ASSIGNED, 2)
               + events_for("v2", EventKind.TASK_ASSIGNED, 2))
        state = ingest(log)
        assert dict(state.task_distribution) == {"v1": 2, "v2": 2}
        assert sum(state.task_distribution.values()) == 4

    def test_counting_is_order_insensitive(self):
        rng = random.Random(8)
        log = (events_for("a", EventKind.REQUEST, 4)
               + events_for("b", EventKind.OFFER, 3)
               + events_for("a", EventKind.VOLUNTEER_CHOSEN, 2)
               + events_for("b", EventKind.TASK_ASSIGNED, 5))
        shuffled = log[:]
        rng.shuffle(shuffled)
        assert ingest(log) == ingest(shuffled)

    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            state_with(requests={"m": -1})

    @pytest.mark.parametrize("count", [True, False, 1.0, "1"])
    def test_counter_must_be_an_int_not_a_bool(self, count):
        # as check_importance and the event reader, which refuse a bool as a number
        with pytest.raises(ValueError, match=r"^requests\['m'\] must be a non-negative integer$"):
            CommunityState({"m": count})

    @pytest.mark.parametrize("member, location", [(2, r"offers\[2\]"), (None, r"offers\[None\]"),
                                                  ("", r"offers\[''\]")], ids=["int", "None", "empty"])
    def test_member_name_must_be_a_non_empty_string(self, member, location):
        # a name of another type once failed unworded, in sorting the members
        with pytest.raises(ValueError, match=rf"^{location} member name must be a non-empty string$"):
            CommunityState({"a": 1}, {member: 1})

    def test_ingest_checks_the_counters_it_hands_over_uncopied(self):
        with pytest.raises(ValueError, match=r"^event member must be a non-empty string, got ''$"):
            ingest([("request", "")])

    @pytest.mark.parametrize("records", [[("bogus", "a")], [("offer", "a"), ("bogus", "a")]],
                             ids=["first", "later"])
    def test_an_unknown_kind_is_refused_in_the_readers_wording(self, records):
        # once a bare KeyError: 'bogus'
        with pytest.raises(ValueError, match=r"^unknown event kind: 'bogus'$"):
            ingest(records)

    def test_a_key_error_of_the_records_themselves_is_not_reworded(self):
        def records():
            yield ("offer", "a")
            raise KeyError("own")
        with pytest.raises(KeyError, match="own"):
            ingest(records())

    @pytest.mark.parametrize("records, message", [
        ([(["x"], "a")], r"unknown event kind: \['x'\]"),
        ([("offer", "a"), (["x"], "a")], r"unknown event kind: \['x'\]"),
        ([("offer", ["a"])], r"event member must be a non-empty string, got \['a'\]"),
        ([("offer", "a", 0)], r"event record must be a \(kind, member\) pair"),
        ([5], r"event record must be a \(kind, member\) pair"),
        ([("offer", "a"), ("offer", "a", 1, 2)], r"event record must be a \(kind, member\) pair"),
        ([(("a", ["b"]), "m")], r"unknown event kind: \('a', \['b'\]\)"),
        ([("offer", ("a", ["b"]))], r"event member must be a non-empty string, got \('a', \['b'\]\)"),
        ([["bogus", "a"]], r"unknown event kind: 'bogus'"),
        ([["offer", "a"], [("a", ["b"]), "a"]], r"unknown event kind: \('a', \['b'\]\)"),
        ([("offer", "")], r"event member must be a non-empty string, got ''"),
        ([("offer", 5)], r"event member must be a non-empty string, got 5"),
        ([("offer", None)], r"event member must be a non-empty string, got None"),
        ([("offer", "a"), ("request", "a"), ("offer", "")],
         r"event member must be a non-empty string, got ''"),
    ], ids=["list-kind", "later-list-kind", "list-member", "triple", "int", "later-quadruple",
            "tuple-holding-a-list-kind", "tuple-holding-a-list-member", "list-record-unknown-kind",
            "list-record-tuple-holding-a-list-kind", "empty-member", "int-member", "None-member",
            "later-empty-member"])
    def test_a_malformed_record_is_refused_in_the_readers_wording(self, records, message):
        # once a bare TypeError (unhashable type, or an int that cannot be
        # unpacked) or Python's own unpacking ValueError; a tuple that holds a
        # list hashed as no probe of the failure foresaw, and "", 5 and None
        # were refused by the counters' check, as offers[''] and the like
        with pytest.raises(ValueError, match=rf"^{message}$") as caught:
            ingest(records)
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize("kind, member", [
        ("party", "a"), (["request"], "a"), (None, "a"), ({"offer": 1}, "a"), (5, ""),
        ("offer", ""), ("offer", 5), ("offer", None), ("offer", ["a"]), ("offer", {"a": 1}),
    ], ids=repr)
    def test_the_reader_and_ingest_word_a_refused_record_alike(self, kind, member):
        line = json.dumps({"kind": kind, "member": member, "timestamp": 0}) + "\n"
        with pytest.raises(MalformedEvent) as read:
            parse_event_log(line)
        with pytest.raises(ValueError) as folded:
            ingest([(kind, member)])
        prefix = "malformed event at position 1: "
        assert str(read.value).startswith(prefix)
        assert str(read.value)[len(prefix):] == str(folded.value)

    @pytest.mark.parametrize("error", [ValueError("own"), TypeError("own"), MalformedEvent(2, "own")],
                             ids=["ValueError", "TypeError", "MalformedEvent"])
    def test_an_error_of_the_records_themselves_passes_through(self, error):
        def records():
            yield ("offer", "a")
            raise error
        with pytest.raises(type(error)) as caught:
            ingest(records())
        assert caught.value is error

    @pytest.mark.parametrize("records, error, message", [
        (lambda: zip(["offer", "offer"], ["a"], strict=True), ValueError, "zip()"),
        (lambda: map({"r": ("offer", "a")}.__getitem__, ["r", "missing"]), KeyError, "missing"),
    ], ids=["zip-strict", "map-lookup"])
    def test_an_error_of_records_written_in_c_passes_through(self, records, error, message):
        # raised with no frame of the records' own, as the fold's lookups and unpacking are
        with pytest.raises(error, match=message):
            ingest(records())

    def test_the_constructor_copies_the_counters_it_is_given(self):
        counters = [{"a": 1}, {"a": 2}, {"b": 1}, {"a": 3}]
        state = CommunityState(*counters)
        for counter in counters:
            counter["a"] = 9
            counter["z"] = 1
        assert state == CommunityState({"a": 1}, {"a": 2}, {"b": 1}, {"a": 3})
        assert state.members == ("a", "b")


class TestRatioSatisfaction:
    def test_balanced_ratio_is_neutral(self):
        assert ratio_satisfaction(1.0, 5.0) == 0.0

    def test_zero_ratio_is_full_dissatisfaction(self):
        assert ratio_satisfaction(0.0, 5.0) == -1.0

    def test_max_ratio_is_full_satisfaction(self):
        assert ratio_satisfaction(5.0, 5.0) == 1.0

    def test_midpoint(self):
        assert ratio_satisfaction(3.0, 5.0) == pytest.approx(0.5, abs=1e-12)

    def test_ratio_clamped_above_max(self):
        assert ratio_satisfaction(17.0, 5.0) == 1.0

    def test_continuous_at_the_branch_boundary(self):
        step = 1e-10
        below = ratio_satisfaction(1.0 - step, 5.0)
        above = ratio_satisfaction(1.0 + step, 5.0)
        assert abs(below - above) < 1e-9

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False),
           st.floats(min_value=1.001, max_value=100, allow_nan=False))
    def test_always_in_range(self, ratio, max_ratio):
        assert -1.0 <= ratio_satisfaction(ratio, max_ratio) <= 1.0

    @pytest.mark.parametrize("args, name", [((math.nan, 5.0), "ratio"), ((2.0, math.nan), "max_ratio"),
                                            ((math.nan, math.nan), "ratio")],
                             ids=["ratio", "max_ratio", "both"])
    def test_a_nan_argument_is_refused_by_name(self, args, name):
        # once nan, outside the documented [-1, 1]
        with pytest.raises(ValueError, match=rf"^{name} must not be NaN$"):
            ratio_satisfaction(*args)

    @given(st.floats(min_value=1.5, max_value=20, allow_nan=False))
    def test_non_decreasing_in_ratio(self, max_ratio):
        grid = [i * max_ratio / 40 for i in range(41)]
        values = [ratio_satisfaction(r, max_ratio) for r in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("max_ratio", [1.0, 0.5, -2.0, -math.inf])
    def test_a_cap_domain_config_refuses_is_refused_in_its_words(self, max_ratio):
        # -2.0 returned -3.0 for a ratio of 0, outside [-1, 1]
        with pytest.raises(ValueError) as config:
            DomainConfig(max_ratio=max_ratio)
        with pytest.raises(ValueError) as ramp:
            ratio_satisfaction(0.0, max_ratio)
        assert str(ramp.value) == str(config.value) == "max_ratio must be greater than 1"

    @pytest.mark.parametrize("ratio, expected", [(math.inf, 1.0), (1e308, 0.0), (1.0, 0.0), (0.0, -1.0)])
    def test_an_infinite_cap_maps_a_ratio_at_it_to_one(self, ratio, expected):
        # inf against inf gave NaN
        assert ratio_satisfaction(ratio, math.inf) == expected


class TestDifferenceSatisfaction:
    def test_perfect_balance(self):
        assert difference_satisfaction(0.0, 0.1, 1.0) == 1.0

    def test_tolerance_boundary_is_neutral(self):
        assert difference_satisfaction(0.1, 0.1, 1.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=0.99, allow_nan=False, exclude_min=True))
    def test_tolerance_boundary_is_positive_zero(self, epsilon):
        # -0.0 == 0.0, so compare signs: -0.0 prints as "-0.000000" in tables
        assert math.copysign(1.0, difference_satisfaction(epsilon, epsilon, 1.0)) == 1.0

    @given(st.floats(min_value=0, max_value=2, allow_nan=False))
    def test_above_the_tolerance_is_the_linear_ramp(self, delta):
        # the documented ramp, written in the other form: equal for every nonzero result
        value = difference_satisfaction(delta, 0.1, 1.0)
        if delta >= 0.1 and value != 0.0:
            assert value == -(min(delta, 1.0) - 0.1) / (1.0 - 0.1)

    def test_max_imbalance(self):
        assert difference_satisfaction(1.0, 0.1, 1.0) == -1.0

    def test_clamped_above_max(self):
        assert difference_satisfaction(9.0, 0.1, 1.0) == -1.0

    def test_continuous_at_epsilon(self):
        step = 1e-11
        below = difference_satisfaction(0.1 - step, 0.1, 1.0)
        above = difference_satisfaction(0.1 + step, 0.1, 1.0)
        assert abs(below - above) < 1e-9

    @given(st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_always_in_range(self, delta):
        assert -1.0 <= difference_satisfaction(delta, 0.1, 1.0) <= 1.0

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 0.1, 1.0), "delta"), ((0.05, math.nan, 1.0), "epsilon"),
        ((0.05, 0.1, math.nan), "max_delta"), ((0.5, math.nan, math.nan), "epsilon"),
    ], ids=["delta", "epsilon", "max_delta", "both-parameters"])
    def test_a_nan_argument_is_refused_by_name(self, args, name):
        # once nan, outside the documented [-1, 1]
        with pytest.raises(ValueError, match=rf"^{name} must not be NaN$"):
            difference_satisfaction(*args)

    def test_non_increasing_in_delta(self):
        grid = [i / 50 for i in range(51)]
        values = [difference_satisfaction(d, 0.1, 1.0) for d in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("epsilon, max_delta, words", [
        (0.0, 1.0, "epsilon must be positive"), (-0.1, 1.0, "epsilon must be positive"),
        (math.inf, math.inf, "max_delta must exceed epsilon"),
        (0.1, 0.1, "max_delta must exceed epsilon"), (0.1, -1.0, "max_delta must exceed epsilon"),
    ])
    def test_parameters_domain_config_refuses_are_refused_in_its_words(self, epsilon, max_delta, words):
        # (0.1, -1.0) returned 11.0 for an imbalance of 0, outside [-1, 1]
        with pytest.raises(ValueError) as config:
            DomainConfig(epsilon=epsilon, max_delta=max_delta)
        with pytest.raises(ValueError) as ramp:
            difference_satisfaction(0.0, epsilon, max_delta)
        assert str(ramp.value) == str(config.value) == words

    @pytest.mark.parametrize("delta, expected", [(math.inf, -1.0), (0.1, 0.0), (0.0, 1.0)])
    def test_an_infinite_cap_maps_an_imbalance_at_it_to_minus_one(self, delta, expected):
        # inf against inf gave NaN
        assert difference_satisfaction(delta, 0.1, math.inf) == expected


class TestMemberSatisfaction:
    def test_offer_ratio_from_counts(self):
        state = state_with(requests={"m": 3}, offers={"m": 1})
        assert sd_offer_ratio(state, "m", CFG) == pytest.approx(0.5, abs=1e-12)

    def test_volunteer_ratio_balanced(self):
        state = state_with(requests={"m": 4}, volunteering={"m": 4})
        assert sd_volunteer_ratio(state, "m", CFG) == 0.0

    def test_volunteering_without_requests_is_full_dissatisfaction(self):
        state = state_with(volunteering={"m": 3})
        assert sd_volunteer_ratio(state, "m", CFG) == -1.0

    def test_volunteer_ratio_midpoint(self):
        cfg = DomainConfig(max_ratio=4.0)
        state = state_with(requests={"m": 5}, volunteering={"m": 2})
        assert sd_volunteer_ratio(state, "m", cfg) == pytest.approx(0.5, abs=1e-12)

    def test_no_activity_is_neutral(self):
        state = state_with()
        assert sd_offer_ratio(state, "m", CFG) == 0.0

    def test_requests_without_offers_is_undefined(self):
        state = state_with(requests={"m": 2})
        with pytest.raises(UndefinedRatio):
            sd_offer_ratio(state, "m", CFG)


class TestDistributionMeasures:
    def test_kl_of_identical_uniform_is_zero(self):
        assert kl_divergence((0.5, 0.5), (0.5, 0.5)) == 0.0

    def test_kl_concentrated_vs_uniform(self):
        assert kl_divergence((1, 0), (0.5, 0.5)) == pytest.approx(math.log(2), abs=1e-12)

    def test_kl_nonnegative_on_random_counts(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(1, 6)
            d = [rng.randint(0, 9) for _ in range(n)]
            u = [rng.randint(1, 9) for _ in range(n)]
            if sum(d) == 0:
                continue
            assert kl_divergence(d, u) >= -1e-15

    def test_kl_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            kl_divergence((1, 1), (1, 1, 1))

    def test_kl_zero_reference_mass_undefined(self):
        with pytest.raises(ValueError):
            kl_divergence((1, 1), (1, 0))

    def test_emd_identical(self):
        assert emd_1d((2, 2, 2), (1, 1, 1)) == 0.0

    def test_emd_concentrated_vs_uniform(self):
        assert emd_1d((1, 0), (0.5, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_emd_symmetric(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randint(1, 6)
            d = [rng.randint(0, 9) for _ in range(n)]
            u = [rng.randint(0, 9) for _ in range(n)]
            if sum(d) == 0 or sum(u) == 0:
                continue
            assert emd_1d(d, u) == pytest.approx(emd_1d(u, d), abs=1e-12)

    def test_emd_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            emd_1d((1, 2), (1, 2, 3))

    def test_measures_zero_iff_equal_after_normalization(self):
        assert kl_divergence((1, 2), (2, 4)) == pytest.approx(0.0, abs=1e-12)
        assert emd_1d((1, 2), (2, 4)) == pytest.approx(0.0, abs=1e-12)
        assert kl_divergence((1, 2), (2, 1)) > 1e-12
        assert emd_1d((1, 2), (2, 1)) > 1e-12

    def test_empty_distribution_rejected(self):
        with pytest.raises(EmptyDistribution):
            emd_1d((), ())

    @pytest.mark.parametrize("measure", [kl_divergence, emd_1d], ids=["kl", "emd"])
    def test_negative_mass_rejected(self, measure):
        with pytest.raises(ValueError, match="negative mass"):
            measure((2, -1), (1, 1))

    @pytest.mark.parametrize("d, u, name", [
        ((math.nan, 1), (1, 1), "first"), ((math.inf, 1), (1, 1), "first"),
        ((1, 1), (1, math.nan), "second"), ((1e308, 1e308), (1, 1), "first"),
    ], ids=["nan", "inf", "nan-reference", "overflowing-sum"])
    @pytest.mark.parametrize("measure", [kl_divergence, emd_1d], ids=["kl", "emd"])
    def test_a_mass_that_is_not_finite_is_refused(self, measure, d, u, name):
        # once a nan result
        with pytest.raises(ValueError, match=rf"^{name} distribution has non-finite mass$"):
            measure(d, u)

    @pytest.mark.parametrize("d, u, detail", [
        (["1", "2"], [1, 1], "first distribution mass must be a number, got '1'"),
        ([True, False], [1, 1], "first distribution mass must be a number, got True"),
        ([1, 1], [1, None], "second distribution mass must be a number, got None"),
        ([10**400, 1], [1, 1], "first distribution has non-finite mass"),
        ([1, 1], [1, -10**400], "second distribution has negative mass"),
    ], ids=["strings", "bools", "None", "huge-int", "huge-negative-int"])
    @pytest.mark.parametrize("measure", [kl_divergence, emd_1d], ids=["kl", "emd"])
    def test_a_mass_follows_the_number_rule(self, measure, d, u, detail):
        # once a string or a bool was read through float(), and a huge int
        # raised a bare OverflowError
        with pytest.raises(ValueError) as refused:
            measure(d, u)
        assert (type(refused.value), str(refused.value)) == (ValueError, detail)

    @pytest.mark.parametrize("measure", [kl_divergence, emd_1d], ids=["kl", "emd"])
    def test_lists_and_tuples_measure_alike(self, measure):
        assert measure([3, 1, 0], [1, 1, 1]) == measure((3, 1, 0), (1, 1, 1))

    @pytest.mark.parametrize("size", [1, 2, 7, 5000])
    def test_measures_equal_the_list_and_tuple_formula_bit_for_bit(self, size):
        rng = random.Random(size)
        for _ in range(20):
            counts = [rng.choice((0, 0, 1, rng.randrange(1, 10**6))) for _ in range(size)]
            counts[rng.randrange(size)] += 1
            reference = [rng.randrange(1, 1000) for _ in range(size)]
            for u in ([1] * size, reference):
                assert kl_divergence(counts, u).hex() == reference_kl(counts, u).hex()
                assert emd_1d(counts, u).hex() == reference_emd(counts, u).hex()
                assert emd_1d(u, counts).hex() == reference_emd(u, counts).hex()
            distribution = {f"v{i}": count for i, count in enumerate(counts)}
            state = state_with(tasks=distribution)
            for measure in Measure:
                cfg = DomainConfig(difference_measure=measure)
                ordered = [distribution[v] for v in sorted(distribution)]
                expected = (reference_kl if measure is Measure.KL_DIVERGENCE else reference_emd)(
                    ordered, [1] * size)
                assert task_imbalance(state, cfg).hex() == expected.hex()

    @pytest.mark.parametrize("d, u", [
        ((-1, 0), (1, 1, 1)), ((0, 0), (-1, 1, 1)), ((), (1,)), ((0, 0), (1,)), ((1, 2), (-1, 0, 0)),
        ((1, 2), (0, 0, 0)), ((1, 2), ()), ((1, 2), (1, 1, 1)), ((0,), (1, 1)),
        ((math.nan, -1), (1, 1)), ((-1, math.nan), (1, 1)), ((math.inf, -math.inf), (1, 1)),
    ])
    @pytest.mark.parametrize("measure, reference", [(kl_divergence, reference_kl), (emd_1d, reference_emd)],
                             ids=["kl", "emd"])
    def test_refusals_come_in_the_formula_order(self, measure, reference, d, u):
        # negative mass, then no mass, in the first distribution and then the
        # second, and only then a support mismatch
        with pytest.raises(ValueError) as expected:
            reference(d, u)
        with pytest.raises(ValueError) as refused:
            measure(d, u)
        assert (type(refused.value), str(refused.value)) == (type(expected.value), str(expected.value))


class TestTaskBalance:
    def test_no_tasks_rejected(self):
        with pytest.raises(EmptyDistribution):
            sd_task_balance(state_with(), CFG)

    def test_single_volunteer_is_perfectly_balanced(self):
        state = state_with(tasks={"v": 7})
        assert sd_task_balance(state, CFG) == 1.0

    def test_uniform_split_is_perfectly_balanced(self):
        state = state_with(tasks={"v1": 3, "v2": 3, "v3": 3})
        assert sd_task_balance(state, CFG) == 1.0

    def test_measure_choice_changes_imbalance(self):
        state = state_with(tasks={"v1": 3, "v2": 1})
        emd_cfg = DomainConfig(difference_measure=Measure.EARTH_MOVERS_1D)
        kl_cfg = DomainConfig(difference_measure=Measure.KL_DIVERGENCE)
        assert task_imbalance(state, emd_cfg) == pytest.approx(0.25, abs=1e-12)
        expected_kl = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert task_imbalance(state, kl_cfg) == pytest.approx(expected_kl, abs=1e-12)

    def test_slightly_uneven_split(self):
        state = state_with(tasks={"v1": 51, "v2": 49})
        assert sd_task_balance(state, CFG) == pytest.approx(0.9, abs=1e-9)

    def test_counts_are_listed_in_member_name_order(self):
        # v1 holds no tasks, so the observed mass sits on the second point
        state = state_with(tasks={"v2": 1, "v1": 0})
        assert task_imbalance(state, CFG) == emd_1d([0, 1], [1, 1]) == pytest.approx(0.5, abs=1e-12)
        flipped = state_with(tasks={"v1": 0, "v2": 1})
        assert task_imbalance(flipped, CFG) == task_imbalance(state, CFG)


class TestDomainConfig:
    def test_max_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            DomainConfig(max_ratio=1.0)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            DomainConfig(epsilon=0.0)

    def test_max_delta_must_exceed_epsilon(self):
        with pytest.raises(ValueError):
            DomainConfig(epsilon=0.5, max_delta=0.5)

    @pytest.mark.parametrize("field", ["max_ratio", "epsilon", "max_delta"])
    @pytest.mark.parametrize("value", ["x", True, None, [2.0]], ids=repr)
    def test_a_parameter_that_is_not_a_number_is_refused_at_its_field(self, field, value):
        # "x" raised an unworded TypeError from the range comparison; True passed as 1
        with pytest.raises(ParseError) as excinfo:
            DomainConfig(**{field: value})
        assert (excinfo.value.location, str(excinfo.value)) == (
            field, f"{field}: must be a number, got {value!r}")

    @pytest.mark.parametrize("value", ["kl", "emd", None], ids=repr)
    def test_a_measure_that_is_not_a_member_is_refused_at_its_field(self, value):
        # "kl" computed the EMD: 0.4 on {a: 9, b: 1}, where KL gives 0.368
        with pytest.raises(ParseError) as excinfo:
            DomainConfig(difference_measure=value)
        assert (excinfo.value.location, str(excinfo.value)) == (
            "difference_measure", f"difference_measure: unknown difference measure: {value!r}")

    def test_ints_are_numbers(self):
        assert DomainConfig(4, 1, 2) == DomainConfig(4.0, 1.0, 2.0)

    def test_an_int_past_the_float_range_is_infinite(self):
        # once held as the int, which satisfaction_degrees could not turn into a float
        cfg = DomainConfig(max_ratio=10**400)
        assert cfg == DomainConfig(max_ratio=math.inf)
        state = state_with(requests={"a": 3}, offers={"a": 1})
        assert satisfaction_degrees(state, cfg, [OFFER_RATIO]) == {OFFER_RATIO: 0.0}


class TestSatisfactionDegrees:
    def golden_state(self):
        return state_with(
            requests={"alice": 3, "bruno": 3},
            offers={"alice": 1, "bruno": 1},
            tasks={"alice": 51, "bruno": 49},
        )

    def test_reproduces_the_worked_alignment(self, fairness):
        ctx = ContextSpec("alignment", property_importance={
            OFFER_RATIO: 1.0, TASK_BALANCE: 0.5})
        taxonomy = build_context_taxonomy(fairness, ctx)
        sd = satisfaction_degrees(self.golden_state(), CFG, taxonomy.property_nodes())
        assert sd[OFFER_RATIO] == pytest.approx(0.5, abs=1e-12)
        assert sd[TASK_BALANCE] == pytest.approx(0.9, abs=1e-9)
        report = align("community", taxonomy, sd)
        assert report.score == pytest.approx(0.475, abs=1e-9)

    def test_mean_over_members(self):
        # 0.2 needs ratio 1.8, 0.6 needs ratio 3.4 at max_ratio 5
        state = state_with(requests={"a": 9, "b": 17}, offers={"a": 5, "b": 5})
        sd = satisfaction_degrees(state, CFG, [OFFER_RATIO])
        assert sd[OFFER_RATIO] == pytest.approx(0.4, abs=1e-12)

    def test_unknown_property_raises(self):
        taxonomy = ValueTaxonomy.build(
            [property_node("mystery"), property_node(OFFER_RATIO)],
            importance={"mystery": 0.5, OFFER_RATIO: 0.5})
        sd = satisfaction_degrees(self.golden_state(), CFG, taxonomy.property_nodes())
        assert list(sd) == [OFFER_RATIO]
        with pytest.raises(MissingSatisfaction):
            align("community", taxonomy, sd)

    def test_no_members_rejected(self):
        with pytest.raises(EmptyInput):
            satisfaction_degrees(state_with(), CFG, [OFFER_RATIO])

    def test_degrees_follow_the_node_order(self):
        # no members and no tasks: whichever property comes first names the failure
        with pytest.raises(EmptyDistribution):
            satisfaction_degrees(state_with(), CFG, [TASK_BALANCE, OFFER_RATIO])
        with pytest.raises(EmptyInput):
            satisfaction_degrees(state_with(), CFG, [OFFER_RATIO, TASK_BALANCE])

    def test_a_bare_string_is_refused(self):
        # once read as the one-letter names o, f, ..., which gave no degrees
        with pytest.raises(ValueError, match=r"^nodes must be node ids, not one string: 'offer_ratio'$"):
            satisfaction_degrees(self.golden_state(), CFG, OFFER_RATIO)

    def test_no_nodes_give_no_degrees(self):
        assert satisfaction_degrees(state_with(), CFG, []) == {}

    def test_each_degree_matches_its_sd_function(self):
        rng = random.Random(17)
        for _ in range(30):
            members = [f"m{i}" for i in range(rng.randint(1, 5))]
            state = state_with(
                requests={m: rng.randint(0, 6) for m in members},
                offers={m: rng.randint(1, 6) for m in members},
                volunteering={m: rng.randint(1, 6) for m in members},
                tasks={m: rng.randint(1, 6) for m in members})
            sd = satisfaction_degrees(state, CFG, [VOLUNTEER_RATIO, OFFER_RATIO, TASK_BALANCE])
            assert list(sd) == [VOLUNTEER_RATIO, OFFER_RATIO, TASK_BALANCE]
            for node, sd_fn in ((OFFER_RATIO, sd_offer_ratio), (VOLUNTEER_RATIO, sd_volunteer_ratio)):
                expected = sum(sd_fn(state, m, CFG) for m in members) / len(members)
                assert sd[node] == pytest.approx(expected, abs=1e-12)
            assert sd[TASK_BALANCE] == sd_task_balance(state, CFG)

    @pytest.mark.parametrize("node, name", [
        (OFFER_RATIO, "sd_offer_ratio"),
        (VOLUNTEER_RATIO, "sd_volunteer_ratio"),
        (TASK_BALANCE, "sd_task_balance"),
    ])
    def test_sd_functions_are_looked_up_by_module_name(self, monkeypatch, node, name):
        # the benchmark tracer counts evaluations by rebinding these names
        calls = []
        monkeypatch.setattr(mutual_aid, name, lambda *args: calls.append(args) or -0.25)
        sd = satisfaction_degrees(self.golden_state(), CFG, [node])
        assert sd == {node: -0.25}
        assert len(calls) == (1 if node == TASK_BALANCE else 2)


class TestPropertyEvaluators:
    def test_evaluators_cover_all_properties(self):
        evaluators = property_evaluators(CFG)
        assert set(evaluators) == {OFFER_RATIO, VOLUNTEER_RATIO, TASK_BALANCE}

    def test_totals_drive_the_booleans(self):
        state = state_with(
            requests={"a": 3, "b": 3},
            offers={"a": 1, "b": 1},
            volunteering={"a": 4, "b": 4},
            tasks={"a": 5, "b": 5},
        )
        evaluators = property_evaluators(CFG)
        assert evaluators[OFFER_RATIO](state)
        assert not evaluators[VOLUNTEER_RATIO](state)
        assert evaluators[TASK_BALANCE](state)

    def test_fairness_taxonomy_references_the_catalog(self):
        t = fairness_taxonomy()
        refs = {t.nodes[p].text for p in t.property_nodes()}
        assert refs == {OFFER_RATIO, VOLUNTEER_RATIO, TASK_BALANCE}

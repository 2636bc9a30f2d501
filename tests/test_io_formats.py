"""Document format tests: round-trips, parse errors, and DOT export."""

from __future__ import annotations

import io
import json
import random
from collections import Counter

import pytest
from hypothesis import given

from valuetax import (
    ContextSpec,
    Event,
    EventKind,
    SelectionKind,
    SelectionStrategy,
    ValueTaxonomy,
    build_context_taxonomy,
    export_dot,
    ingest,
    ingest_event_log,
    label_node,
    parse_context,
    parse_event_log,
    parse_taxonomy,
    property_node,
    serialize_context,
    serialize_event_log,
    serialize_taxonomy,
)
from valuetax.errors import (
    InvalidTaxonomy,
    MalformedEvent,
    ParseError,
    SchemaVersionUnsupported,
)

from conftest import random_taxonomy, taxonomies


class TestTaxonomyRoundTrip:
    def test_fairness_round_trip_identity(self, fairness):
        text = serialize_taxonomy(fairness)
        assert parse_taxonomy(text) == fairness

    def test_round_trip_preserves_importance_exactly(self):
        t = ValueTaxonomy.build(
            [label_node("a"), property_node("p")], [("a", "p")],
            {"a": 0.1 + 0.2, "p": -1 / 3},
        )
        back = parse_taxonomy(serialize_taxonomy(t))
        assert dict(back.importance) == {"a": 0.1 + 0.2, "p": -1 / 3}

    def test_random_taxonomies_round_trip(self):
        rng = random.Random(2024)
        for _ in range(60):
            t = random_taxonomy(rng)
            assert parse_taxonomy(serialize_taxonomy(t)) == t

    @given(taxonomies())
    def test_round_trip_is_identity(self, t):
        text = serialize_taxonomy(t)
        back = parse_taxonomy(text)
        assert back == t
        assert serialize_taxonomy(back) == text

    def test_serialization_is_deterministic(self, fairness):
        assert serialize_taxonomy(fairness) == serialize_taxonomy(fairness)
        shuffled_nodes = list(fairness.nodes.values())
        random.Random(5).shuffle(shuffled_nodes)
        reordered = ValueTaxonomy.build(
            shuffled_nodes, sorted(fairness.edges), dict(fairness.importance))
        assert serialize_taxonomy(reordered) == serialize_taxonomy(fairness)

    def test_schema_version_present(self, fairness):
        doc = json.loads(serialize_taxonomy(fairness))
        assert doc["schema_version"] == 1


class TestTaxonomyParseErrors:
    def doc(self, **overrides):
        base = {
            "schema_version": 1,
            "nodes": [
                {"id": "v", "kind": "label", "label_text": "value"},
                {"id": "p", "kind": "property", "property_id": "p"},
            ],
            "edges": [{"parent": "v", "child": "p"}],
        }
        base.update(overrides)
        return json.dumps(base)

    def test_importance_out_of_range(self):
        text = self.doc(nodes=[{"id": "v", "kind": "label", "importance": 1.5}])
        with pytest.raises(ParseError) as excinfo:
            parse_taxonomy(text)
        assert "importance" in excinfo.value.location

    def test_unknown_node_kind(self):
        text = self.doc(nodes=[{"id": "v", "kind": "blob"}])
        with pytest.raises(ParseError) as excinfo:
            parse_taxonomy(text)
        assert excinfo.value.location == "nodes[0].kind"

    def test_unsupported_schema_version(self):
        with pytest.raises(SchemaVersionUnsupported):
            parse_taxonomy(self.doc(schema_version=99))

    def test_missing_schema_version(self):
        with pytest.raises(ParseError):
            parse_taxonomy('{"nodes": []}')

    def test_json_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_taxonomy("{not json")
        assert "line 1" in excinfo.value.location

    def test_duplicate_node_id(self):
        text = self.doc(nodes=[{"id": "v", "kind": "label"}, {"id": "v", "kind": "label"}])
        with pytest.raises(ParseError) as excinfo:
            parse_taxonomy(text)
        assert excinfo.value.location == "nodes[1].id"

    def test_duplicate_edge(self):
        text = self.doc(edges=[{"parent": "v", "child": "p"}, {"parent": "v", "child": "p"}])
        with pytest.raises(ParseError) as excinfo:
            parse_taxonomy(text)
        assert excinfo.value.location == "edges[1]"

    def test_missing_required_field(self):
        text = self.doc(edges=[{"parent": "v"}])
        with pytest.raises(ParseError) as excinfo:
            parse_taxonomy(text)
        assert excinfo.value.location == "edges[0].child"

    def test_strict_parse_rejects_cycles(self):
        text = json.dumps({
            "schema_version": 1,
            "nodes": [{"id": "a", "kind": "label"}, {"id": "b", "kind": "label"}],
            "edges": [{"parent": "a", "child": "b"}, {"parent": "b", "child": "a"}],
        })
        with pytest.raises(ParseError) as excinfo:
            parse_taxonomy(text)
        assert "CycleDetected" in excinfo.value.location
        lenient = parse_taxonomy(text, require_valid_structure=False)
        assert len(lenient.nodes) == 2


class TestContextDocuments:
    def test_round_trip(self):
        ctx = ContextSpec(
            "community-c",
            defining_properties=frozenset({"offer_ratio", "task_balance"}),
            property_importance={"offer_ratio": 0.8, "task_balance": 0.7},
            selection=SelectionStrategy(SelectionKind.KMEANS_TWO),
        )
        assert parse_context(serialize_context(ctx)) == ctx

    def test_threshold_round_trip(self):
        ctx = ContextSpec("t", selection=SelectionStrategy(threshold=0.25))
        back = parse_context(serialize_context(ctx))
        assert back.selection.threshold == 0.25

    def test_defaults_to_positive_selection(self):
        back = parse_context(json.dumps({"schema_version": 1, "id": "c"}))
        assert back.selection.kind is SelectionKind.POSITIVE_THRESHOLD

    def test_unknown_strategy_rejected(self):
        text = json.dumps({"schema_version": 1, "id": "c", "selection": {"kind": "k9"}})
        with pytest.raises(ParseError):
            parse_context(text)

    def test_importance_range_checked(self):
        text = json.dumps({"schema_version": 1, "id": "c",
                           "property_importance": {"p": -3}})
        with pytest.raises(ParseError) as excinfo:
            parse_context(text)
        assert "property_importance.p" == excinfo.value.location


class TestEventLogs:
    def test_three_lines_in_order(self):
        text = "\n".join([
            '{"kind": "request", "member": "a", "timestamp": 0}',
            '{"kind": "offer", "member": "b", "timestamp": 1}',
            '{"kind": "task_assigned", "member": "b", "timestamp": 1}',
        ])
        events = parse_event_log(text)
        assert [e.kind for e in events] == [
            EventKind.REQUEST, EventKind.OFFER, EventKind.TASK_ASSIGNED]
        assert [e.member for e in events] == ["a", "b", "b"]

    def test_decreasing_timestamp_rejected_with_line(self):
        text = ('{"kind": "request", "member": "a", "timestamp": 5}\n'
                '{"kind": "offer", "member": "a", "timestamp": 4}\n')
        with pytest.raises(MalformedEvent) as excinfo:
            parse_event_log(text)
        assert excinfo.value.index == 2

    def test_empty_file(self):
        assert parse_event_log("") == []

    def test_blank_lines_skipped(self):
        text = '\n{"kind": "request", "member": "a", "timestamp": 0}\n\n'
        assert len(parse_event_log(text)) == 1

    def test_bad_json_line(self):
        with pytest.raises(MalformedEvent) as excinfo:
            parse_event_log('{"kind": "request"\n')
        assert excinfo.value.index == 1

    def test_unknown_kind(self):
        with pytest.raises(MalformedEvent):
            parse_event_log('{"kind": "party", "member": "a", "timestamp": 0}')

    def test_serialize_round_trip(self):
        events = parse_event_log(serialize_event_log([
            Event(EventKind.REQUEST, "m", 3),
            Event(EventKind.OFFER, "m", 4),
        ]))
        assert [e.timestamp for e in events] == [3, 4]


def fold_file(tmp_path, text: str):
    """The lazy CLI path: ``text`` written byte for byte, folded from the open file."""
    path = tmp_path / "events.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8") as handle:
        return ingest_event_log(handle)


def random_log(rng: random.Random) -> tuple[list[dict], str]:
    """Records with non-decreasing timestamps and the log text holding them,
    with blank lines and mixed line endings."""
    members = ["a", "b\u2028c", "d\x85e", "f"][:rng.randint(1, 4)]
    kinds = [kind.value for kind in EventKind]
    records = []
    timestamp = 0
    for _ in range(rng.randint(0, 40)):
        timestamp += rng.choice((0, 0, 1, 7))
        records.append({"kind": rng.choice(kinds), "member": rng.choice(members),
                        "timestamp": timestamp})
    lines = []
    for record in records:
        if rng.random() < 0.2:
            lines.append(" ")
        lines.append(json.dumps(record, ensure_ascii=rng.random() < 0.5))
    return records, "".join(line + rng.choice(("\n", "\r\n")) for line in lines)


def shuffle_equal_timestamps(rng: random.Random, records: list[dict]) -> list[dict]:
    groups: dict[int, list[dict]] = {}
    for record in records:
        groups.setdefault(record["timestamp"], []).append(record)
    for group in groups.values():
        rng.shuffle(group)
    return [record for timestamp in sorted(groups) for record in groups[timestamp]]


class TestEventLogFold:
    def test_fold_equals_ingest_of_parse_on_random_logs(self, tmp_path):
        rng = random.Random(4)
        for _ in range(300):
            records, text = random_log(rng)
            state = ingest_event_log(io.StringIO(text, newline=None))
            assert state == ingest(parse_event_log(text))
            assert fold_file(tmp_path, text) == state
            expected = {kind.value: Counter() for kind in EventKind}
            for record in records:
                expected[record["kind"]][record["member"]] += 1
            assert [dict(counter) for counter in expected.values()] == [
                dict(state.requests), dict(state.offers), dict(state.volunteering),
                dict(state.task_distribution)]
            shuffled = "\n".join(json.dumps(r) for r in shuffle_equal_timestamps(rng, records))
            assert ingest_event_log(shuffled.split("\n")) == state

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_unicode_line_separators_stay_inside_a_record(self, tmp_path, separator):
        member = f"a{separator}b"
        text = json.dumps({"kind": "offer", "member": member, "timestamp": 0},
                          ensure_ascii=False) + "\n"
        assert separator in text
        assert [e.member for e in parse_event_log(text)] == [member]
        assert dict(fold_file(tmp_path, text).offers) == {member: 1}

    GOOD = '{"kind": "request", "member": "a", "timestamp": 5}'

    @pytest.mark.parametrize("text, index, detail", [
        ('{"kind": "request"\n', 1, "invalid record: Expecting ',' delimiter"),
        (GOOD + " x\n", 1, "invalid record: Extra data"),
        ("\ufeff" + GOOD + "\n", 1,
         "invalid record: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ("[1, 2]\n", 1, "record must be an object"),
        ('{"kind": "party", "member": "a", "timestamp": 0}', 1, "unknown event kind: 'party'"),
        ('{"kind": ["request"], "member": "a", "timestamp": 0}', 1,
         "unknown event kind: ['request']"),
        ('{"kind": "offer", "member": "", "timestamp": 0}', 1,
         "event member must be a non-empty string, got ''"),
        ('{"kind": "offer", "member": "a", "timestamp": true}', 1,
         "event timestamp must be a non-negative integer, got True"),
        ('{"kind": "offer", "member": "a", "timestamp": 1.0}', 1,
         "event timestamp must be a non-negative integer, got 1.0"),
        ('{"kind": "offer", "member": "a", "timestamp": -1}', 1,
         "event timestamp must be a non-negative integer, got -1"),
        (GOOD + '\n{"kind": "offer", "member": "a", "timestamp": 4}\n', 2,
         "timestamp 4 decreases from 5"),
        (GOOD + "\n\n  \n[]\n", 4, "record must be an object"),
        (GOOD + "\r\n\r\n[]\r\n", 3, "record must be an object"),
    ])
    def test_fold_and_parse_raise_the_same_error(self, tmp_path, text, index, detail):
        with pytest.raises(MalformedEvent) as parsed:
            parse_event_log(text)
        with pytest.raises(MalformedEvent) as folded:
            fold_file(tmp_path, text)
        for error in (parsed.value, folded.value):
            assert error.index == index
            assert str(error) == f"malformed event at position {index}: {detail}"


class TestDotExport:
    def test_context_c_property_square_with_importance(self, fairness, context_c):
        built = build_context_taxonomy(fairness, context_c)
        dot = export_dot(built)
        assert '"offer_ratio" [shape=square, label="offer_ratio\\n0.800000"];' in dot
        assert '"fairness" [shape=circle, label="fairness\\n0.750000"];' in dot
        assert '"fairness" -> "reciprocity";' in dot

    def test_empty_taxonomy_has_empty_body(self):
        assert export_dot(ValueTaxonomy()) == "digraph value_taxonomy {\n}\n"

    def test_byte_identical_across_runs(self, fairness):
        assert export_dot(fairness) == export_dot(fairness)

    def test_invalid_taxonomy_rejected(self):
        bad = ValueTaxonomy.build(
            [label_node("a"), label_node("b")], [("a", "b"), ("b", "a")])
        with pytest.raises(InvalidTaxonomy):
            export_dot(bad)

    def test_quoting_of_special_characters(self):
        t = ValueTaxonomy.build([label_node('q"x', 'he said "hi" \\ bye')])
        dot = export_dot(t)
        assert '"q\\"x"' in dot
        assert 'he said \\"hi\\" \\\\ bye' in dot

    def test_unannotated_node_has_no_number(self, fairness):
        dot = export_dot(fairness)
        assert '"equal_pay" [shape=circle, label="equal pay"];' in dot

"""Document format tests: round-trips, parse errors, and DOT export."""

from __future__ import annotations

import importlib
import io
import json
import pkgutil
import random
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuetax import (
    KMEANS_SELECTION,
    POSITIVE_SELECTION,
    CommunityState,
    ContextSpec,
    EventKind,
    NodeKind,
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
    propagate,
    property_node,
    serialize_taxonomy,
)
import valuetax
from valuetax import io_formats, taxonomy
from valuetax.errors import (
    EmptySelectionWarning,
    InvalidTaxonomy,
    MalformedEvent,
    ParseError,
    SchemaVersionUnsupported,
    TaxonomyError,
)

from conftest import context_document, importance_values, random_taxonomy, relabelled, taxonomies


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


def reference_document(taxonomy: ValueTaxonomy) -> str:
    """The taxonomy document as ``json.dumps(..., indent=2)`` writes it."""
    nodes = []
    for node_id in sorted(taxonomy.nodes):
        node = taxonomy.nodes[node_id]
        text_key = "label_text" if node.kind is NodeKind.LABEL else "property_id"
        entry = {"id": node.id, "kind": node.kind.value, text_key: node.text}
        if node_id in taxonomy.importance:
            entry["importance"] = taxonomy.importance[node_id]
        nodes.append(entry)
    edges = [{"parent": p, "child": c} for p, c in sorted(taxonomy.edges)]
    doc = {"schema_version": 1, "nodes": nodes, "edges": edges}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def with_shuffled_ids(rng: random.Random, t: ValueTaxonomy) -> ValueTaxonomy:
    """``t`` with its node ids permuted among themselves."""
    names = sorted(t.nodes)
    shuffled = names[:]
    rng.shuffle(shuffled)
    return relabelled(t, dict(zip(names, shuffled)))


# Pieces a JSON encoder escapes or passes through raw, and the text between two
# indented entries written inside a string.
AWKWARD_PIECES = ['"', "\\", "\n", "\x00", "\x1f", "\u00e9", "\U0001f600", "},\n      {",
                  "\u2028", "a"]
awkward_text = st.one_of(
    st.lists(st.sampled_from(AWKWARD_PIECES), min_size=1, max_size=4).map("".join),
    st.text(min_size=1, max_size=6))
EDGE_IMPORTANCES = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, -5e-324]


@st.composite
def awkward_taxonomies(draw):
    """Taxonomies whose ids and texts hold characters the encoder escapes."""
    ids = draw(st.lists(awkward_text, max_size=6, unique=True))
    nodes = []
    for node_id in ids:
        text = draw(awkward_text)
        if draw(st.booleans()):
            nodes.append(label_node(node_id, text))
        else:
            nodes.append(property_node(node_id, text))
    # edges run from a label node to a later node, so the graph is a DAG
    pairs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6, unique=True))
    edges = [(ids[i], ids[j]) for i, j in pairs
             if i < j < len(ids) and nodes[i].kind is NodeKind.LABEL]
    values = st.one_of(st.sampled_from(EDGE_IMPORTANCES), importance_values)
    importance = {n: draw(values) for n in ids if draw(st.booleans())}
    return ValueTaxonomy.build(nodes, edges, importance)


class TestTaxonomyWriter:
    @settings(max_examples=300)
    @given(awkward_taxonomies())
    def test_bytes_equal_json_dumps_with_indent(self, t):
        assert serialize_taxonomy(t) == reference_document(t)

    def test_random_dags_equal_json_dumps_with_indent(self):
        rng = random.Random(55)
        for _ in range(200):
            t = random_taxonomy(rng)
            assert serialize_taxonomy(t) == reference_document(t)

    @pytest.mark.parametrize("value", EDGE_IMPORTANCES)
    def test_edge_importances_are_written_as_json_dumps_writes_them(self, value):
        t = ValueTaxonomy.build([label_node("a"), property_node("b")], [("a", "b")],
                                {"a": value, "b": value})
        text = serialize_taxonomy(t)
        assert text == reference_document(t)
        assert str(parse_taxonomy(text).importance["b"]) == str(value)

    # Taxonomies that inherit their adjacency rather than build it: a context
    # subgraph holds its nodes parents-first and filtered child tuples, and a
    # propagation result shares its input's structure. Shuffled ids put id order
    # out of step with the structure.
    @pytest.mark.parametrize("selection", [POSITIVE_SELECTION, KMEANS_SELECTION],
                             ids=["positive", "kmeans2"])
    def test_context_taxonomies_equal_json_dumps_with_indent(self, selection):
        written = 0
        for seed in range(300):
            rng = random.Random(seed)
            general = with_shuffled_ids(rng, random_taxonomy(rng))
            ctx = ContextSpec("c", property_importance={
                p: rng.uniform(-1.0, 1.0) for p in general.property_nodes()}, selection=selection)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptySelectionWarning)
                try:
                    built = build_context_taxonomy(general, ctx)
                except TaxonomyError:
                    continue
            assert serialize_taxonomy(built) == reference_document(built), seed
            written += len(built.edges) > 1
        assert written > 100

    def test_propagated_taxonomies_equal_json_dumps_with_indent(self):
        written = 0
        for seed in range(300):
            rng = random.Random(seed)
            general = with_shuffled_ids(rng, random_taxonomy(rng, importance_prob=0.3))
            try:
                result = propagate(general).taxonomy
            except TaxonomyError:
                continue
            assert serialize_taxonomy(result) == reference_document(result), seed
            written += len(result.edges) > 1
        assert written > 100

    def test_empty_lists_stay_inline(self):
        assert serialize_taxonomy(ValueTaxonomy()) == (
            '{\n  "schema_version": 1,\n  "nodes": [],\n  "edges": []\n}\n')
        lone = ValueTaxonomy.build([label_node("a")])
        assert serialize_taxonomy(lone) == reference_document(lone)


class TestTaxonomyParseErrors:
    def test_unsupported_schema_version(self):
        with pytest.raises(SchemaVersionUnsupported):
            parse_taxonomy('{"schema_version": 99, "nodes": []}')

    V = {"id": "v", "kind": "label"}
    P = {"id": "p", "kind": "property"}

    # every raise site, with its location and message
    @pytest.mark.parametrize("doc, location, detail", [
        ("[]", "document", "expected an object, got list"),
        ('{"nodes": []}', "document.schema_version", "missing required field"),
        ({"schema_version": 2, "nodes": []}, "schema_version", "unsupported schema version: 2"),
        ({"schema_version": 1}, "document.nodes", "missing required field"),
        ({"schema_version": 1, "nodes": {}}, "document.nodes", "must be a list"),
        ({"schema_version": 1, "nodes": [], "edges": "v->p"}, "document.edges", "must be a list"),
        ({"nodes": [5]}, "nodes[0]", "expected an object, got int"),
        ({"nodes": [V, ["v"]]}, "nodes[1]", "expected an object, got list"),
        ({"nodes": [{"kind": "label"}]}, "nodes[0].id", "missing required field"),
        ({"nodes": [{"id": "v"}]}, "nodes[0].kind", "missing required field"),
        ({"nodes": [{"id": "", "kind": "label"}]}, "nodes[0].id",
         "node id must be a non-empty string"),
        ({"nodes": [{"id": 3, "kind": "label"}]}, "nodes[0].id",
         "node id must be a non-empty string"),
        ({"nodes": [{"id": None}]}, "nodes[0].id", "node id must be a non-empty string"),
        ({"nodes": [{"id": "\ud800", "kind": "label"}]}, "nodes[0].id",
         "node id must hold no lone surrogate, got '\\ud800'"),
        ({"nodes": [{"id": "v", "kind": "label", "label_text": "a\udc80"}]}, "nodes[0].label_text",
         "must hold no lone surrogate, got 'a\\udc80'"),
        ({"nodes": [{"id": "v", "kind": "label", "label_text": 3}]}, "nodes[0].label_text",
         "must be a string, got 3"),
        ({"nodes": [{"id": "p", "kind": "property", "property_id": None}]},
         "nodes[0].property_id", "must be a string, got None"),
        ({"nodes": [{"id": "v", "kind": "blob"}]}, "nodes[0].kind", "unknown node kind: 'blob'"),
        ({"nodes": [{"id": "v", "kind": None}]}, "nodes[0].kind", "unknown node kind: None"),
        ({"nodes": [{"id": "v", "kind": ["label"]}]}, "nodes[0].kind",
         "unknown node kind: ['label']"),
        ({"nodes": [V, P, {"id": "v", "kind": "property"}]}, "nodes[2].id",
         "duplicate node id: 'v'"),
        ({"nodes": [dict(V, importance=True)]}, "nodes[0].importance",
         "importance must be a number, got True"),
        ({"nodes": [dict(V, importance="0.5")]}, "nodes[0].importance",
         "importance must be a number, got '0.5'"),
        ({"nodes": [dict(V, importance=[0.5])]}, "nodes[0].importance",
         "importance must be a number, got [0.5]"),
        ({"nodes": [dict(V, importance=1.5)]}, "nodes[0].importance",
         "importance 1.5 outside [-1, 1]"),
        ({"nodes": [V, dict(P, importance=-3)]}, "nodes[1].importance",
         "importance -3.0 outside [-1, 1]"),
        ({"nodes": [dict(V, importance=float("nan"))]}, "nodes[0].importance",
         "importance nan outside [-1, 1]"),
        ({"edges": ["v"]}, "edges[0]", "expected an object, got str"),
        ({"edges": [{"child": "p"}]}, "edges[0].parent", "missing required field"),
        ({"edges": [{"parent": 1}]}, "edges[0].child", "missing required field"),
        ({"edges": [{"parent": "v", "child": 3}]}, "edges[0]",
         "edge endpoints must be node id strings"),
        ({"edges": [{"parent": None, "child": "p"}]}, "edges[0]",
         "edge endpoints must be node id strings"),
        ({"edges": [{"parent": "v", "child": "\ud800"}]}, "edges[0]",
         "edge endpoints must hold no lone surrogate, got ('v', '\\ud800')"),
        ({"edges": [{"parent": "v", "child": "p"}, {"parent": "p", "child": "v"},
                    {"parent": "v", "child": "p"}]}, "edges[2]", "duplicate edge 'v' -> 'p'"),
        ({"edges": [{"parent": "p", "child": "v"}]}, "rule PropertyNodeNotLeaf",
         "property node 'p' has child 'v'; property nodes must be leaves"),
        ({"edges": [{"parent": "v", "child": "ghost"}, {"parent": "p", "child": "v"}]},
         "rule UnknownEdgeEndpoint", "edge ('v', 'ghost') references unknown node 'ghost'"),
        ({"nodes": [V, {"id": "w", "kind": "label"}], "edges": [
            {"parent": "v", "child": "w"}, {"parent": "w", "child": "v"}]},
         "rule CycleDetected", "cycle detected: v -> w -> v"),
    ])
    def test_every_raise_site_keeps_its_location_and_message(self, doc, location, detail):
        if isinstance(doc, dict):  # fields over a valid document, or a whole one
            doc = json.dumps(doc if "schema_version" in doc
                             else {"schema_version": 1, "nodes": [self.V, self.P], **doc})
        with pytest.raises(ParseError) as excinfo:
            parse_taxonomy(doc)
        assert excinfo.value.location == location
        assert str(excinfo.value) == f"{location}: {detail}"

    # The parser's duplicate rows, given to build as sequences: one check, one wording.
    @pytest.mark.parametrize("nodes, edges, location, detail", [
        ([label_node("v"), property_node("p"), property_node("v")], [], "nodes[2].id",
         "duplicate node id: 'v'"),
        ([label_node("v"), property_node("p")], [("v", "p"), ("p", "v"), ("v", "p")], "edges[2]",
         "duplicate edge 'v' -> 'p'"),
    ], ids=["node", "edge"])
    def test_build_words_a_duplicate_as_the_parser_does(self, nodes, edges, location, detail):
        with pytest.raises(ParseError) as excinfo:
            ValueTaxonomy.build(nodes, edges)
        assert excinfo.value.location == location
        assert str(excinfo.value) == f"{location}: {detail}"

    # Every node is read whole before build checks for a repeated id; the
    # constructor then checks the edges in order, each for its endpoints and
    # then for a repeat.
    @pytest.mark.parametrize("doc, location, detail", [
        ({"nodes": [V, V, {"id": "w", "kind": "blob"}]}, "nodes[2].kind",
         "unknown node kind: 'blob'"),
        ({"nodes": [V, V], "edges": [{"parent": "v", "child": 3}]}, "nodes[1].id",
         "duplicate node id: 'v'"),
        ({"edges": [{"parent": "v", "child": "p"}, {"parent": "v", "child": "p"},
                    {"parent": None, "child": "p"}]}, "edges[1]",
         "duplicate edge 'v' -> 'p'"),
    ], ids=["bad-kind-after-duplicate-id", "bad-edge-after-duplicate-id",
            "bad-edge-after-duplicate-edge"])
    def test_which_of_two_refusals_is_reported(self, doc, location, detail):
        doc = {"schema_version": 1, "nodes": [self.V, self.P], **doc}
        with pytest.raises(ParseError) as excinfo:
            parse_taxonomy(json.dumps(doc))
        assert str(excinfo.value) == f"{location}: {detail}"

    def test_json_syntax_error_location_and_message(self):
        with pytest.raises(ParseError) as excinfo:
            parse_taxonomy('{"schema_version": 1,\n "nodes": [}')
        assert str(excinfo.value) == (
            "line 2, column 12: invalid taxonomy document: Expecting value")

    def test_null_importance_means_none_assigned(self):
        text = json.dumps({"schema_version": 1, "nodes": [dict(self.V, importance=None)]})
        assert dict(parse_taxonomy(text).importance) == {}

    def test_strict_parse_rejects_cycles(self):
        text = json.dumps({
            "schema_version": 1,
            "nodes": [{"id": "a", "kind": "label"}, {"id": "b", "kind": "label"}],
            "edges": [{"parent": "a", "child": "b"}, {"parent": "b", "child": "a"}],
        })
        with pytest.raises(InvalidTaxonomy) as excinfo:
            parse_taxonomy(text)
        assert excinfo.value.location == "rule CycleDetected"
        assert [v.rule for v in excinfo.value.violations] == ["CycleDetected"]


class TestContextDocuments:
    def test_round_trip(self):
        ctx = ContextSpec(
            "community-c",
            defining_properties=frozenset({"offer_ratio", "task_balance"}),
            property_importance={"offer_ratio": 0.8, "task_balance": 0.7},
            selection=SelectionStrategy(SelectionKind.KMEANS_TWO),
        )
        assert parse_context(context_document(ctx)) == ctx

    def test_threshold_round_trip(self):
        ctx = ContextSpec("t", selection=SelectionStrategy(threshold=0.25))
        back = parse_context(context_document(ctx))
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


class TestContextParseErrors:
    # every raise site, with its location and message
    @pytest.mark.parametrize("doc, location, detail", [
        ("[]", "document", "expected an object, got list"),
        ('{"id": "c"}', "document.schema_version", "missing required field"),
        ('{"schema_version": 2, "id": "c"}', "schema_version", "unsupported schema version: 2"),
        ('{"schema_version": 1}', "document.id", "missing required field"),
        ('{"schema_version": 1,\n "id": }', "line 2, column 8",
         "invalid context document: Expecting value"),
        ({"id": ""}, "document.id", "context id must be a non-empty string"),
        ({"id": 5}, "document.id", "context id must be a non-empty string"),
        ({"id": None}, "document.id", "context id must be a non-empty string"),
        ({"defining_properties": "offer_ratio"}, "document.defining_properties",
         "must be a list of property names"),
        ({"defining_properties": {"offer_ratio": 1}}, "document.defining_properties",
         "must be a list of property names"),
        ({"defining_properties": ["offer_ratio", 3]}, "document.defining_properties",
         "must be a list of property names"),
        ({"property_importance": ["p"]}, "document.property_importance", "must be an object"),
        ({"property_importance": {"p": 5.0}}, "property_importance.p",
         "importance 5.0 outside [-1, 1]"),
        ({"property_importance": {"q": 0.5, "p": -3}}, "property_importance.p",
         "importance -3.0 outside [-1, 1]"),
        ({"property_importance": {"p": True}}, "property_importance.p",
         "importance must be a number, got True"),
        ({"property_importance": {"p": "0.5"}}, "property_importance.p",
         "importance must be a number, got '0.5'"),
        ({"property_importance": {"p": None}}, "property_importance.p",
         "importance must be a number, got None"),
        ({"selection": 5}, "selection", "expected an object, got int"),
        ({"selection": {"threshold": 0.5}}, "selection.kind", "missing required field"),
        ({"selection": {"kind": "k9"}}, "selection.kind", "unknown selection strategy: 'k9'"),
        ({"selection": {"kind": None}}, "selection.kind", "unknown selection strategy: None"),
        ({"selection": {"kind": ["kmeans2"]}}, "selection.kind",
         "unknown selection strategy: ['kmeans2']"),
        ({"selection": {"kind": "positive_threshold", "threshold": 5.0}}, "selection.threshold",
         "importance 5.0 outside [-1, 1]"),
        ({"selection": {"kind": "positive_threshold", "threshold": "0.1"}}, "selection.threshold",
         "importance must be a number, got '0.1'"),
        ({"selection": {"kind": "positive_threshold", "threshold": None}}, "selection.threshold",
         "importance must be a number, got None"),
    ])
    def test_every_raise_site_keeps_its_location_and_message(self, doc, location, detail):
        if isinstance(doc, dict):  # fields over a valid document
            doc = json.dumps({"schema_version": 1, "id": "c", **doc})
        with pytest.raises(ParseError) as excinfo:
            parse_context(doc)
        assert excinfo.value.location == location
        assert str(excinfo.value) == f"{location}: {detail}"


@pytest.fixture
def importance_checks(monkeypatch):
    """The values given to ``check_importance``, counted in every package module
    that binds it."""
    checked = []
    original = taxonomy.check_importance

    def counted(value, *args):
        checked.append(value)
        return original(value, *args)

    names = [f"valuetax.{info.name}" for info in pkgutil.iter_modules(valuetax.__path__)]
    for module in map(importlib.import_module, names):
        if getattr(module, "check_importance", None) is original:
            monkeypatch.setattr(module, "check_importance", counted)
    return checked


# Int values: a shortcut that passed in-range floats through would still check these.
class TestEachImportanceIsCheckedOnce:
    VALUES = [1, 0, -1, 1, 0, -1]

    def test_taxonomy_document(self, importance_checks):
        nodes = [{"id": f"n{i}", "kind": "label", "importance": v} for i, v in enumerate(self.VALUES)]
        parse_taxonomy(json.dumps({"schema_version": 1, "nodes": nodes}))
        assert importance_checks == self.VALUES

    def test_context_document(self, importance_checks):
        parse_context(json.dumps({
            "schema_version": 1, "id": "c",
            "property_importance": {f"p{i}": v for i, v in enumerate(self.VALUES)},
            "selection": {"kind": "positive_threshold", "threshold": 0}}))
        assert sorted(importance_checks) == sorted([*self.VALUES, 0])  # the threshold is 0


class TestEventLogs:
    def test_three_lines_in_order(self):
        text = "\n".join([
            '{"kind": "request", "member": "a", "timestamp": 0}',
            '{"kind": "offer", "member": "b", "timestamp": 1}',
            '{"kind": "task_assigned", "member": "b", "timestamp": 1}',
        ])
        assert parse_event_log(text) == [("request", "a"), ("offer", "b"), ("task_assigned", "b")]

    def test_decreasing_timestamp_is_read_in_file_order(self):
        # once refused at line 2; no result reads a timestamp
        text = ('{"kind": "request", "member": "a", "timestamp": 5}\n'
                '{"kind": "offer", "member": "a", "timestamp": 4}\n')
        assert parse_event_log(text) == [("request", "a"), ("offer", "a")]

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
            rng.shuffle(records)  # across timestamps: a log is the multiset of its events
            shuffled = "\n".join(json.dumps(r) for r in records)
            assert ingest_event_log(io.StringIO(shuffled)) == state

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_unicode_line_separators_stay_inside_a_record(self, tmp_path, separator):
        member = f"a{separator}b"
        text = json.dumps({"kind": "offer", "member": member, "timestamp": 0},
                          ensure_ascii=False) + "\n"
        assert separator in text
        events = parse_event_log(text)
        assert events == [("offer", member)]
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

    def test_fold_and_parse_read_a_decrease_as_the_sorted_log(self, tmp_path):
        # once refused by both at line 2 as "timestamp 4 decreases from 5"
        lines = [self.GOOD + "\n", '{"kind": "offer", "member": "a", "timestamp": 4}\n']
        text, in_order = "".join(lines), "".join(reversed(lines))
        assert parse_event_log(text) == parse_event_log(in_order)[::-1]
        assert fold_file(tmp_path, text) == fold_file(tmp_path, in_order) == ingest_event_log(
            io.StringIO(in_order))


def outcome(read):
    """The four counters ``read()`` folds, or the position and text of its error."""
    try:
        state = read()
    except MalformedEvent as exc:
        return exc.index, str(exc)
    return [dict(state.requests), dict(state.offers), dict(state.volunteering),
            dict(state.task_distribution)]


def line_by_line(lines) -> CommunityState:
    """The fold with every line of the text of ``lines`` decoded on its own:
    the reference for the scanned reads."""
    return ingest(io_formats._line_records(io.StringIO("".join(lines)), 1))


def by_timestamp(lines) -> list[str]:
    """The non-blank lines of ``lines``, each a record, in timestamp order."""
    return sorted((line for line in lines if line.strip()), key=lambda line: json.loads(line)["timestamp"])


def read_fold(lines) -> CommunityState:
    """The fold of the text of ``lines``, read as a stream."""
    return ingest_event_log(io.StringIO("".join(lines)))


def offer(timestamp="1", member='"a"') -> str:
    return f'{{"kind": "offer", "member": {member}, "timestamp": {timestamp}}}'


A = offer()
B = '{"kind": "request", "member": "b", "timestamp": 2}'
OFFER_A = [{}, {"a": 1}, {}, {}]


def error(index: int, detail: str):
    return index, f"malformed event at position {index}: {detail}"


@pytest.fixture(params=[1, 2, 3, io_formats._BLOCK_CHARS], ids=lambda n: f"reads-of-{n}")
def block_chars(request, monkeypatch):
    """Reads of a few characters, so that lines span reads, and the default."""
    monkeypatch.setattr(io_formats, "_BLOCK_CHARS", request.param)
    return request.param


class TestCanonicalBlocks:
    """Reads of canonical records are scanned whole; everything else must be
    read exactly as the line-by-line decoder reads it."""

    # each log with the counts or error of the line-by-line reader
    @pytest.mark.parametrize("lines, expected", [
        (['{"kind": "offer", "member": "a",\n', ' "timestamp": 1}\n', A + " " + B + "\n"],
         error(1, "invalid record: Expecting property name enclosed in double quotes")),
        ([A + "\n", A + B + "\n"], error(2, "invalid record: Extra data")),
        ([A + " " + B + "\n"], error(1, "invalid record: Extra data")),
        ([A + "\n" + B + "\n", "\n"], [{"b": 1}, {"a": 1}, {}, {}]),
        ([A + "\n" + B, "\n"], [{"b": 1}, {"a": 1}, {}, {}]),
        ([A + "\x1e\n"], OFFER_A),
        ([A + "\u2028\n"], OFFER_A),
        (["\ufeff" + A + "\n"],
         error(1, "invalid record: Unexpected UTF-8 BOM (decode using utf-8-sig)")),
        ([offer("01") + "\n"], error(1, "invalid record: Expecting ',' delimiter")),
        ([offer("1e3") + "\n"],
         error(1, "event timestamp must be a non-negative integer, got 1000.0")),
        ([offer("1234567890123456789") + "\n"], OFFER_A),
        ([offer("1\u0663") + "\n"], error(1, "invalid record: Expecting ',' delimiter")),
        ([A.replace(" ", "\xa0", 1) + "\n"], error(1, "invalid record: Expecting value")),
        ([offer(member='"a\\u0062"') + "\n"], [{}, {"ab": 1}, {}, {}]),
        ([offer(member='"a\x1fb"') + "\n"],
         error(1, "invalid record: Invalid control character at")),
        (['{"member": "a", "kind": "offer", "timestamp": 1}\n'], OFFER_A),
        (['{"kind": "request", "kind": "offer", "member": "a", "timestamp": 1}\n'], OFFER_A),
    ], ids=["split-record-then-two-records", "two-records-on-a-line", "two-records-spaced",
            "element-of-two-lines", "element-of-two-lines-unterminated", "trailing-x1e",
            "trailing-u2028", "bom", "leading-zero", "exponent", "19-digit-timestamp",
            "arabic-indic-digit", "no-break-space-between-tokens", "escaped-member",
            "control-in-member", "keys-reordered", "duplicate-kind"])
    def test_adversarial_logs_read_as_line_by_line(self, block_chars, lines, expected):
        assert outcome(lambda: read_fold(lines)) == expected
        assert outcome(lambda: line_by_line(lines)) == expected

    CANONICAL = [offer(timestamp) + "\n" for timestamp in (5, 5, 5)]

    # A timestamp below one before it was refused at its line; each such log now
    # folds as its lines sorted by timestamp. The members differ, so that a
    # line dropped or counted twice shows.
    @pytest.mark.parametrize("tail, expected", [
        (["[]\n"], error(4, "record must be an object")),
        ([offer(4, '"b"') + "\n"], [{}, {"a": 3, "b": 1}, {}, {}]),
        ([offer(5, '"b"') + "\n", offer(4, '"c"') + "\n"], [{}, {"a": 3, "b": 1, "c": 1}, {}, {}]),
        (["\n", "  \n", offer(6) + "\n", "[]\n"], error(7, "record must be an object")),
        (["\n", offer(7) + "\n", offer(7) + "\n", offer(6, '"b"') + "\n"],
         [{}, {"a": 5, "b": 1}, {}, {}]),
        (["\n", offer(5) + "\n", "\n"] + CANONICAL, [{}, {"a": 7}, {}, {}]),
        ([offer(9) + "\n", offer(10) + "\n", offer(99) + "\n", offer(100) + "\n"],
         [{}, {"a": 7}, {}, {}]),
        ([offer(10) + "\n", offer(9, '"b"') + "\n"], [{}, {"a": 4, "b": 1}, {}, {}]),
        ([offer(100) + "\n", offer(99, '"b"') + "\n"], [{}, {"a": 4, "b": 1}, {}, {}]),
        ([offer(21) + "\n", offer(12, '"b"') + "\n"], [{}, {"a": 4, "b": 1}, {}, {}]),
        # a decoded timestamp may be wider than the scan takes
        ([offer(10 ** 19) + "\n", offer(10 ** 18 - 1, '"b"') + "\n"],
         [{}, {"a": 4, "b": 1}, {}, {}]),
    ], ids=["bad-record", "decrease-at-boundary", "decrease-inside-block",
            "error-after-blank-lines", "decrease-after-a-line-read-block", "mixed-blocks",
            "widths-grow", "width-narrows-to-one-digit", "width-narrows-to-two-digits",
            "decrease-of-equal-width", "decrease-from-a-decoded-20-digit-timestamp"])
    def test_block_boundaries_keep_positions_and_order(self, block_chars, tmp_path, tail,
                                                       expected):
        lines = self.CANONICAL + tail
        assert outcome(lambda: read_fold(lines)) == expected
        assert outcome(lambda: fold_file(tmp_path, "".join(lines))) == expected
        assert outcome(lambda: ingest(parse_event_log("".join(lines)))) == expected
        if isinstance(expected, list):
            assert outcome(lambda: line_by_line(by_timestamp(lines))) == expected

    def test_the_scan_takes_timestamps_of_at_most_the_digit_bound(self, monkeypatch):
        widest = 10 ** io_formats._STAMP_DIGITS - 1
        assert io_formats._find_canonical(offer(widest) + "\n") == [("offer", "a")]
        assert io_formats._find_canonical(offer(widest + 1) + "\n") == []
        decoded = []
        line_records = io_formats._line_records

        def spy(lines, first_lineno):
            lines = list(lines)
            decoded.extend(line.strip() for line in lines if line.strip())
            return line_records(lines, first_lineno)
        lines = [offer(widest) + "\n", offer(widest + 1) + "\n"]
        monkeypatch.setattr(io_formats, "_line_records", spy)
        monkeypatch.setattr(io_formats, "_BLOCK_CHARS", len(lines[0]))  # a line a read
        assert outcome(lambda: read_fold(lines)) == [{}, {"a": 2}, {}, {}]
        assert decoded == [offer(widest + 1)]

    def test_lines_before_a_read_error_are_checked_first(self, block_chars, tmp_path):
        path = tmp_path / "events.jsonl"  # the bad byte lies past the first 8 KiB read
        path.write_bytes((A + "\n[]\n" + (A + "\n") * 200).encode() + b"\xff\n")
        with open(path, encoding="utf-8") as handle, pytest.raises(MalformedEvent) as excinfo:
            ingest_event_log(handle)
        assert (excinfo.value.index, str(excinfo.value)) == error(2, "record must be an object")
        path.write_bytes((A + "\n" + (A + "\n") * 200).encode() + b"\xff\n")
        with open(path, encoding="utf-8") as handle, pytest.raises(UnicodeDecodeError):
            ingest_event_log(handle)

    PIECES = [
        lambda t: offer(t),
        lambda t: f'{{"kind":"task_assigned","member":"m\u00e9","timestamp":{t}}}',
        lambda t: f'\t{{ "kind" : "request" ,\t"member" : "b" , "timestamp" : {t} }} ',
        lambda t: offer(t) + " " + offer(t),  # two records on a line
        lambda t: '{"kind": "offer",\n"member": "a", "timestamp": %d}' % t,  # split record
        lambda t: "\ufeff" + offer(t),
        lambda t: offer(t, member='"\\u00e9"'),
        lambda t: offer(f"0{t}"),
        lambda t: offer("1\u0663"),
        lambda t: offer(t).replace(" ", "\xa0", 1),
        lambda t: offer(10 ** 19 + t),
        lambda t: offer(t) + "\x1e",
        lambda t: '{"member": "a", "kind": "offer", "timestamp": %d}' % t,
        lambda t: "",
        lambda t: " ",
    ]

    def random_lines(self, rng: random.Random) -> list[str]:
        timestamp, lines = 0, []
        canonical = rng.random()  # the share of canonical lines, so that reads scan whole
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.2:  # to just below a power of ten: widths cross up and down
                timestamp = 10 ** rng.randint(0, 18) - rng.randint(1, 2)
            timestamp = max(0, timestamp + rng.choice((-1, 0, 0, 1, 1, 2)))
            if rng.random() < canonical:
                lines.append(offer(timestamp) + "\n")
                continue
            piece = rng.choice(self.PIECES[:3] * 3 + self.PIECES)(timestamp)
            lines.append(piece + rng.choice(("\n",) * 6 + ("\r\n", "")))
        return lines

    def test_fold_equals_the_line_by_line_reader(self, monkeypatch):
        rng = random.Random(6)
        for trial in range(3000):
            # reads of a few characters, and of a line or of many lines
            monkeypatch.setattr(io_formats, "_BLOCK_CHARS", (1, 2, 3, 4, 64, 256, 8192)[trial % 7])
            lines = self.random_lines(rng)
            text = "".join(lines)
            assert outcome(lambda: read_fold(lines)) == outcome(lambda: line_by_line(lines))
            try:
                expected = list(io_formats._line_records(io.StringIO(text, newline=None), 1))
            except MalformedEvent as exc:
                expected = (exc.index, str(exc))
            try:
                events = parse_event_log(text)
            except MalformedEvent as exc:
                assert (exc.index, str(exc)) == expected
            else:
                assert events == expected


def compact(record: str) -> str:
    """A record line respelled with ``json.dumps(..., separators=(",", ":"))``."""
    return json.dumps(json.loads(record), ensure_ascii=False, separators=(",", ":"))


class TestJsonDumpsSpelling:
    """Reads spelled as ``json.dumps`` writes by default are scanned whole;
    every other spelling reads with the same results, line by line."""

    RECORDS = [{"kind": kind.value, "member": member, "timestamp": t}
               for t, member in enumerate(("a", "m\u00e9", "b\u2028c", "d e") * 50)
               for kind in EventKind]

    def test_json_dumps_blocks_take_the_block_scan(self, monkeypatch):
        lines = [json.dumps(record, ensure_ascii=False) + "\n" for record in self.RECORDS]
        assert len("".join(lines)) > 2 * io_formats._BLOCK_CHARS
        expected = ingest((r["kind"], r["member"]) for r in self.RECORDS)
        with monkeypatch.context() as patched:
            def refuse(lines, first_lineno):
                raise AssertionError("a json.dumps read was read line by line")
            patched.setattr(io_formats, "_line_records", refuse)
            assert read_fold(lines) == expected
        assert read_fold([compact(line) + "\n" for line in lines]) == expected

    SPELLINGS = [
        lambda t: offer(t),
        lambda t: compact(offer(t)),
        lambda t: f'{{"kind": "request", "member": "mé", "timestamp": {t}}}',
        lambda t: compact(f'{{"kind": "request", "member": "mé", "timestamp": {t}}}'),
        lambda t: offer(t, member='"\\u00e9"'),
        lambda t: offer(f"0{t}"),
        lambda t: offer(t) + "\x1e",
    ]

    def test_mixed_spellings_read_as_line_by_line(self, block_chars):
        rng = random.Random(16)
        results = set()
        for _ in range(400):
            # timestamps cross from 18 digits to 19, which only the decoder reads
            timestamp, lines = 10 ** 18 - 12, []
            for _ in range(rng.randint(1, 12)):
                timestamp += rng.choice((0, 1, 2))
                spelling = rng.choice(self.SPELLINGS[:4] * 6 + self.SPELLINGS[4:])
                lines.append(spelling(timestamp) + "\n")
            expected = outcome(lambda: line_by_line(lines))
            assert outcome(lambda: read_fold(lines)) == expected
            assert outcome(lambda: ingest(parse_event_log("".join(lines)))) == expected
            results.add(isinstance(expected, list))
        assert results == {True, False}


class TestSpacingKeepsTheVerdict:
    """A timestamp past the scan's digit bound is read by the decoder in every
    spelling, so spacing never decides whether a log is read."""

    # 19 digits are past the scan's bound; 4,301 are past the decoder's limit on int conversion
    @pytest.mark.parametrize("digits, read", [(19, True), (4301, False)])
    @pytest.mark.parametrize("read_chars", [1, 3, io_formats._BLOCK_CHARS])
    def test_canonical_and_compact_spellings_get_one_verdict(self, monkeypatch, digits, read,
                                                             read_chars):
        monkeypatch.setattr(io_formats, "_BLOCK_CHARS", read_chars)
        canonical = offer("9" * digits)
        verdicts = []
        for record in (canonical, canonical.replace(": ", ":").replace(", ", ",")):
            text = A + "\n" + record + "\n"
            verdicts.append(outcome(lambda: ingest_event_log(io.StringIO(text))))
            verdicts.append(outcome(lambda: ingest(parse_event_log(text))))
        assert verdicts == verdicts[:1] * 4
        assert isinstance(verdicts[0], list) is read

    @pytest.mark.parametrize("read_chars", [1, 3, io_formats._BLOCK_CHARS])
    def test_every_spelling_reads_as_one_list_of_pairs(self, monkeypatch, read_chars):
        # the scan reads the canonical spelling and the decoder the others
        monkeypatch.setattr(io_formats, "_BLOCK_CHARS", read_chars)
        records = [{"kind": kind.value, "member": member, "timestamp": t}
                   for t, member in enumerate(("a", "mé", "b c", "a"))
                   for kind in EventKind]
        canonical = [json.dumps(r, ensure_ascii=False) for r in records]
        spellings = [canonical, [compact(line) for line in canonical],
                     [json.dumps(dict(reversed(r.items())), ensure_ascii=False) for r in records]]
        expected = [(r["kind"], r["member"]) for r in records]
        for lines in spellings:
            assert parse_event_log("\n".join(lines) + "\n") == expected


DEEP = "[" * 100_000
HUGE = "1" * 5000  # past the interpreter's 4,300-digit limit on int conversion
HUGE_RECORD = f'{{"kind": "offer", "member": "a", "timestamp": {HUGE}}}'


class TestParsersRaiseOnlyTaxonomyErrors:
    @pytest.mark.parametrize("parse, text, what", [
        (parse_taxonomy, DEEP, "taxonomy document"),
        (parse_taxonomy, f'{{"schema_version": {HUGE}, "nodes": []}}', "taxonomy document"),
        (parse_taxonomy, f'{{"schema_version": 1, "nodes": [{{"id": "v", "kind": "label", '
                         f'"importance": {HUGE}}}]}}', "taxonomy document"),
        (parse_context, '{"id": ' * 100_000, "context document"),
        (parse_context, f'{{"schema_version": 1, "id": "c", "property_importance": '
                        f'{{"p": -{HUGE}}}}}', "context document"),
    ], ids=["taxonomy-nested-too-deep", "huge-schema-version", "huge-importance",
            "context-nested-too-deep", "huge-context-importance"])
    def test_documents_nested_too_deep_or_with_huge_ints(self, parse, text, what):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert excinfo.value.location == "document"
        assert str(excinfo.value).startswith(f"document: invalid {what}: ")

    @pytest.mark.parametrize("text", [DEEP, HUGE_RECORD], ids=["nested-too-deep", "huge-int"])
    def test_event_records_nested_too_deep_or_with_huge_ints(self, tmp_path, text):
        text = TestEventLogFold.GOOD + "\n\n" + text + "\n"
        with pytest.raises(MalformedEvent) as parsed:
            parse_event_log(text)
        with pytest.raises(MalformedEvent) as folded:
            fold_file(tmp_path, text)
        for error in (parsed.value, folded.value):
            assert error.index == 3
            assert str(error).startswith("malformed event at position 3: invalid record: ")

    @pytest.mark.parametrize("parse, text, message", [
        (parse_taxonomy, json.dumps({"schema_version": 1, "nodes": [
            {"id": "v", "kind": "label", "importance": 10 ** 400}]}),
         "nodes[0].importance: importance inf outside [-1, 1]"),
        (parse_context, json.dumps({"schema_version": 1, "id": "c", "property_importance": {
            "p": -10 ** 400}}), "property_importance.p: importance -inf outside [-1, 1]"),
    ], ids=["taxonomy", "context"])
    def test_importance_past_the_float_range(self, parse, text, message):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert str(excinfo.value) == message


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

    def test_quoting_of_special_characters(self):
        t = ValueTaxonomy.build([label_node('q"x', 'he said "hi" \\ bye')])
        dot = export_dot(t)
        assert '"q\\"x"' in dot
        assert 'he said \\"hi\\" \\\\ bye' in dot

    def test_unannotated_node_has_no_number(self, fairness):
        dot = export_dot(fairness)
        assert '"equal_pay" [shape=circle, label="equal pay"];' in dot

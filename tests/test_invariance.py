"""Same meaning, same answer: context derivation and alignment do not depend
on node names, ``align`` does not depend on the order of events with equal
timestamps or on how its log is cut into reads, and the document parsers raise
only ``TaxonomyError`` subclasses on structurally mutated input."""

from __future__ import annotations

import copy
import io
import json
import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuetax import (
    KMEANS_SELECTION,
    POSITIVE_SELECTION,
    AlignmentScheme,
    ContextSpec,
    EventKind,
    ValueTaxonomy,
    align,
    build_context_taxonomy,
    fairness_taxonomy,
    ingest_event_log,
    label_node,
    parse_context,
    parse_event_log,
    parse_taxonomy,
    property_node,
    serialize_taxonomy,
)
from valuetax import io_formats
from valuetax.cli import main
from valuetax.errors import EmptySelectionWarning, TaxonomyError

from conftest import random_taxonomy, relabelled, shuffle_equal_timestamps

# 0.3 twice, so that ties between property importances are common
TIED_IMPORTANCES = (-0.5, 0.0, 0.3, 0.3, 0.8)


def context_outcome(general: ValueTaxonomy, ctx: ContextSpec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySelectionWarning)
        try:
            return build_context_taxonomy(general, ctx)
        except TaxonomyError as exc:
            return exc


@pytest.mark.parametrize("selection", [POSITIVE_SELECTION, KMEANS_SELECTION],
                         ids=["positive", "kmeans2"])
def test_context_derivation_does_not_depend_on_node_names(selection):
    for seed in range(3000):
        rng = random.Random(seed)
        general = random_taxonomy(rng)
        properties = general.property_nodes()
        if not properties:
            continue
        importance = {p: rng.choice(TIED_IMPORTANCES) for p in properties}
        names = sorted(general.nodes)
        shuffled = names[:]
        rng.shuffle(shuffled)
        relabel = dict(zip(names, shuffled))
        base = context_outcome(general, ContextSpec("c", property_importance=importance,
                                                    selection=selection))
        other = context_outcome(relabelled(general, relabel), ContextSpec(
            "c", property_importance={relabel[p]: v for p, v in importance.items()},
            selection=selection))
        assert type(base) is type(other), seed
        if isinstance(base, TaxonomyError):
            continue
        assert set(other.nodes) == {relabel[n] for n in base.nodes}, seed
        assert set(other.importance) == {relabel[n] for n in base.importance}, seed
        for node, value in base.importance.items():
            assert other.importance[relabel[node]] == pytest.approx(value, abs=1e-9), seed


# -- align under relabelling ---------------------------------------------------


def test_alignment_does_not_depend_on_node_names():
    # The path scheme sums exactly, so it is bitwise equal. The mean scheme sums
    # its floats in property-id order, which a relabelling changes: its score
    # may move by a few units in the last place of the largest contribution.
    compared = 0
    for seed in range(1500):
        rng = random.Random(seed)
        t = random_taxonomy(rng, all_property_importance=True, extra_edge_prob=0.4)
        properties = t.property_nodes()
        if not properties:
            continue
        names = sorted(t.nodes)
        shuffled = names[:]
        rng.shuffle(shuffled)
        relabel = dict(zip(names, shuffled))
        sd = {p: rng.uniform(-1.0, 1.0) for p in properties}
        other_t = relabelled(t, relabel)
        other_sd = {relabel[p]: v for p, v in sd.items()}
        for scheme in AlignmentScheme:
            base, other = align("e", t, sd, scheme), align("e", other_t, other_sd, scheme)
            assert other.score_bound == base.score_bound, seed
            assert {relabel[p.node]: (p.sd, p.importance, p.paths, p.contribution)
                    for p in base.per_property} == {
                p.node: (p.sd, p.importance, p.paths, p.contribution)
                for p in other.per_property}, seed
            if scheme is AlignmentScheme.PATH_WEIGHTED:
                assert other.score == base.score, seed
            else:
                largest = max(abs(p.contribution) for p in base.per_property)
                assert abs(other.score - base.score) <= 4 * math.ulp(largest), seed
        compared += 1
    assert compared > 1000


# -- align under event reordering ----------------------------------------------

ALIGN_MEMBERS = ("a", "m\u00e9", "b\u2028c", "d e")


def scorable_records(rng: random.Random) -> list[dict]:
    """Event records that ``align`` can score, in timestamp order, with many
    equal timestamps: each member offers and volunteers, and tasks are assigned."""
    members = ALIGN_MEMBERS[:rng.randint(1, len(ALIGN_MEMBERS))]
    events = [(kind, member) for member in members for kind in ("offer", "volunteer_chosen")]
    kinds = [kind.value for kind in EventKind]
    events += [(rng.choice(kinds), rng.choice(members)) for _ in range(rng.randint(0, 30))]
    events.append(("task_assigned", rng.choice(members)))
    rng.shuffle(events)
    records, timestamp = [], 0
    for kind, member in events:
        timestamp += rng.choice((0, 0, 0, 1))
        records.append({"kind": kind, "member": member, "timestamp": timestamp})
    return records


def log_text(rng: random.Random, records: list[dict]) -> str:
    """The records one per line, spelled as ``json.dumps`` writes them by
    default or otherwise, with blank lines and mixed line ends."""
    lines = []
    for record in records:
        if rng.random() < 0.1:
            lines.append("")
        separators = rng.choice([None, None, (",", ":")])
        lines.append(json.dumps(record, ensure_ascii=rng.random() < 0.3, separators=separators))
    return "".join(line + rng.choice(("\n", "\n", "\r\n")) for line in lines)


def test_align_does_not_depend_on_event_order_or_read_size(tmp_path, capsys, monkeypatch):
    taxonomy = tmp_path / "taxonomy.json"
    taxonomy.write_text(serialize_taxonomy(build_context_taxonomy(fairness_taxonomy(), ContextSpec(
        "c", property_importance={"offer_ratio": 0.7, "volunteer_ratio": 0.4,
                                  "task_balance": 0.9}))), encoding="utf-8")
    log = tmp_path / "events.jsonl"

    def align_output(text: str, scheme: str) -> str:
        log.write_text(text, encoding="utf-8", newline="")
        code = main(["align", "--format", "machine", "--scheme", scheme,
                     "--input", str(taxonomy), "--log", str(log)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        return out

    for seed in range(60):
        rng = random.Random(seed)
        scheme = rng.choice(("mean", "path"))
        records = scorable_records(rng)
        expected = align_output(log_text(rng, records), scheme)
        shuffled = log_text(rng, shuffle_equal_timestamps(rng, records))
        for size in (1, 2, 3, 4, io_formats._BLOCK_CHARS):
            monkeypatch.setattr(io_formats, "_BLOCK_CHARS", size)
            assert align_output(shuffled, scheme) == expected, (seed, size)
        monkeypatch.undo()


# -- parser robustness ---------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
# characters that tokenizers, the event block scanner and line splitting treat specially
SPECIAL_TEXT = st.sampled_from(['"', "\\", "{", "}", ",", ":", "\n", "\r", "\x00", "\ufeff",
                                "\u2028", "\u00a0", "\t", "0", "-"])


def locations(value, path=()):
    """Every (container path, key) inside ``value``, depth first."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = list(range(len(value)))
    else:
        return []
    found = [(path, key) for key in keys]
    for key in keys:
        found += locations(value[key], path + (key,))
    return found


@st.composite
def mutated(draw, original: list):
    """A deep copy of the list ``original`` with one or two of its entries
    (at any depth) replaced by an arbitrary JSON value, deleted or doubled,
    or a new key added to one of its objects."""
    holder = copy.deepcopy(original)
    for _ in range(draw(st.sampled_from([1, 1, 2]))):
        places = locations(holder)
        if not places:
            break
        path, key = draw(st.sampled_from(places))
        container = holder
        for step in path:
            container = container[step]
        action = draw(st.sampled_from(["replace", "replace", "delete", "double", "add-key"]))
        if action == "delete":
            del container[key]
        elif action == "replace":
            container[key] = draw(json_values)
        elif action == "double" and isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        elif action == "add-key" and isinstance(container, dict):
            container[draw(st.text(max_size=4))] = draw(json_values)
    return holder


@st.composite
def spliced(draw, text: str):
    """``text`` truncated, or with one or two special characters inserted, or
    (in half the cases, so that most reach past the JSON decoder) unchanged."""
    inserts = draw(st.sampled_from([0, 0, 0, 1, 2, -1]))  # -1: truncate
    if inserts < 0:
        text = text[:draw(st.integers(min_value=0, max_value=len(text)))]
    for _ in range(inserts):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + draw(SPECIAL_TEXT) + text[at:]
    return text


@st.composite
def mutated_documents(draw, document: dict):
    holder = draw(mutated([document]))
    return draw(spliced(json.dumps(holder[0] if holder else None)))


# small documents, so that each mutation is likely to reach any one field
TAXONOMY_DOC = json.loads(serialize_taxonomy(ValueTaxonomy.build(
    [label_node("fairness"), label_node("reciprocity"), property_node("offer_ratio")],
    [("fairness", "reciprocity"), ("reciprocity", "offer_ratio")], {"offer_ratio": 0.8})))
CONTEXT_DOC = {"schema_version": 1, "id": "c", "defining_properties": ["offer_ratio"],
               "property_importance": {"offer_ratio": 0.8, "task_balance": -0.5},
               "selection": {"kind": "positive_threshold", "threshold": 0.1}}
EVENT_RECORDS = [{"kind": kind, "member": member, "timestamp": stamp}
                 for stamp, (kind, member) in enumerate([
                     ("request", "alice"), ("offer", "bruno"), ("task_assigned", "alice")])]


def raises_only_taxonomy_errors(parse, text) -> None:
    try:
        parse(text)
    except TaxonomyError:
        pass


@settings(max_examples=300)
@given(mutated_documents(TAXONOMY_DOC))
def test_taxonomy_parser_raises_only_taxonomy_errors(text):
    raises_only_taxonomy_errors(parse_taxonomy, text)


@settings(max_examples=300)
@given(mutated_documents(CONTEXT_DOC))
def test_context_parser_raises_only_taxonomy_errors(text):
    raises_only_taxonomy_errors(parse_context, text)


@settings(max_examples=300)
@given(mutated(EVENT_RECORDS).map(lambda records: "".join(
    json.dumps(record) + "\n" for record in records)).flatmap(spliced))
def test_event_log_readers_raise_only_taxonomy_errors(text):
    raises_only_taxonomy_errors(parse_event_log, text)
    raises_only_taxonomy_errors(lambda t: ingest_event_log(io.StringIO(t, newline=None)), text)

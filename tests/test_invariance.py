"""Same meaning, same answer: context derivation and alignment do not depend
on node names, ``align`` does not depend on the order of events with equal
timestamps or on how its log is cut into reads, nor, under ``--measure kl``,
on member names (``emd`` still lists counts by name), and the document
parsers raise only ``TaxonomyError`` subclasses on structurally mutated input."""

from __future__ import annotations

import copy
import io
import json
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuetax import (
    KMEANS_SELECTION,
    POSITIVE_SELECTION,
    AlignmentScheme,
    ContextSpec,
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

from conftest import (
    log_text,
    random_taxonomy,
    relabelled,
    scorable_records,
    shuffle_equal_timestamps,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
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
    # Both schemes sum exactly and round once, so a relabelling moves no bit.
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
            assert other.score.hex() == base.score.hex(), seed
        compared += 1
    assert compared > 1000


# -- align under member renaming ------------------------------------------------

@pytest.mark.parametrize("measure", [
    pytest.param("emd", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: task_imbalance lists counts in member-name order")),
    "kl",
])
def test_align_does_not_depend_on_member_names(tmp_path, capsys, measure):
    # The second log swaps a and b; the output names no member, so it must not move a bit.
    # Under emd the task_balance sd reads -0.2130 against -0.3056 while counts are listed by name.
    taxonomy = GOLDEN / "align-taxonomy.json"
    outputs = []
    for receivers in ({"a": 1, "b": 5, "c": 2}, {"b": 1, "a": 5, "c": 2}):
        log = tmp_path / "events.jsonl"
        log.write_text("".join(json.dumps({"kind": "task_assigned", "member": member, "timestamp": 0}) + "\n"
                               for member, count in receivers.items() for _ in range(count)),
                       encoding="utf-8")
        code = main(["align", "--format", "machine", "--measure", measure,
                     "--input", str(taxonomy), "--log", str(log)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[1] == outputs[0]


# -- align under event reordering ----------------------------------------------

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


@pytest.mark.parametrize("measure", ["emd", "kl"])
@pytest.mark.parametrize("scheme", ["mean", "path"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_align_does_not_depend_on_event_order_across_timestamps(tmp_path_factory, scheme, measure,
                                                                data):
    # A log is the multiset of its events: any order, timestamps decreasing or not, scores alike.
    records = scorable_records(random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed")))
    shuffled = data.draw(st.permutations(records), label="events")
    directory = tmp_path_factory.mktemp("order")
    outputs = []
    for name, events in (("sorted", records), ("shuffled", shuffled)):
        log, out = directory / f"{name}.jsonl", directory / f"{name}.json"
        # the same spellings and line ends by position, so that only the order differs
        log.write_text(log_text(random.Random(0), events), encoding="utf-8", newline="")
        assert main(["align", "--format", "machine", "--scheme", scheme, "--measure", measure,
                     "--input", str(GOLDEN / "align-taxonomy.json"), "--log", str(log),
                     "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0]


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

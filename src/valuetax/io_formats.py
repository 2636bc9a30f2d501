"""Document formats: taxonomies as JSON (read and written), contexts as JSON
(read only), event logs as JSON lines, and DOT export for rendering.

Taxonomy serialization is deterministic - nodes and edges are emitted in sorted
order and floats use their shortest exact decimal form - so that
serialize(parse(serialize(t))) is byte-identical and round-trips preserve
node, edge, and importance content exactly. A parser reads the shape of a
document; the records check its values and locate a refusal at their field, to
which the parser adds the entry (``nodes[2].``). Malformed JSON is located by line.
A taxonomy parser drops the decoded document's node entries once it has read
them, and its edge entries before the taxonomy is built, so the document and the
taxonomy built from it are not both held whole. Edge entries are read by one ``map``
of ``operator.itemgetter``; only a malformed one is looked for entry by entry, to word it.

A taxonomy is written byte for byte as ``json.dumps(doc, indent=2,
ensure_ascii=False)`` writes it: each node and edge entry fills a fixed template
of that layout, with strings encoded by ``json.encoder.encode_basestring`` and
importances (finite floats in [-1, 1]) by ``float.__repr__``, the two functions
``json`` itself calls for them. Nodes come in id order, and edges from the
adjacency map in that order, each child tuple being in id order: sorted pairs.
Each entry goes, after its separator, into one list joined once. DOT export lists
its edges the same way, from the adjacency map, in one list of lines joined once.

An event log is read as ``(kind, member)`` pairs, ``kind`` being the
:class:`~valuetax.mutual_aid.EventKind` value the line spells, which
:func:`~valuetax.mutual_aid.ingest` counts. A log means the multiset of its
events: each line's timestamp must be a non-negative integer, and is checked but
not kept, since no result reads it; the lines may come in any order. A log is
read from a text stream, 8,192 characters at a time; lines end at ``\n``, and
the lines of a read are checked before a later read error. A read's records
come from one anchored regular-expression scan when each line holds a canonical
record - ``{"kind": K, "member": M, "timestamp": T}`` in that key order and
spelled as ``json.dumps`` writes it by default, a space after each colon and
comma and none elsewhere, M free of escapes and control characters (its text is
its value), T an unsigned integer of at most 18 digits with no leading zero.
Such a read's batch is the scan's own list of pairs.
Any other read (a blank line, other spacing, another key order, an escape, a
BOM) is read exactly, line by line, each line decoded by the one JSON decoder
the documents share, in its words; a refused kind or member in the words of
:func:`~valuetax.mutual_aid.event_refusal`, as the fold words it; each refusal
with the line's number.
Records come in one batch per read, which the fold takes through
``itertools.chain.from_iterable``, with no generator step per record.
"""

from __future__ import annotations

import io
import json
import re
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable, Iterator, TextIO

from .context import ContextSpec, SelectionKind, SelectionStrategy
from .errors import MalformedEvent, ParseError, SchemaVersionUnsupported
from .mutual_aid import CommunityState, EventKind, event_refusal, ingest
from .taxonomy import Node, NodeKind, ValueTaxonomy

SCHEMA_VERSION = 1
# a node document's kind, as the node kind and the key of the node's text
_NODE_KINDS = {"label": (NodeKind.LABEL, "label_text"), "property": (NodeKind.PROPERTY, "property_id")}
# a label's and a property's kind and text key as written, up to the node's text
_LABEL_FIELDS, _PROPERTY_FIELDS = (f'\n      "kind": "{spelling}",\n      "{key}": '
                                   for spelling, (_, key) in _NODE_KINDS.items())
# where a context record's field sits in the document; any other is located there already
_CONTEXT_FIELDS = {"id": "document.id", "defining_properties": "document.defining_properties",
                   "kind": "selection.kind", "threshold": "selection.threshold"}
_quote = json.encoder.encode_basestring  # json.dumps' string encoder under ensure_ascii=False

# a canonical timestamp's most digits; below 640, the least limit sys.set_int_max_str_digits
# takes, so that the scan takes no timestamp that json.loads refuses, in any spacing
_STAMP_DIGITS = 18
# the canonical event record of the module docstring, one per line
_find_canonical = re.compile(
    r'^\{"kind": "(' + "|".join(re.escape(k.value) for k in EventKind)
    + r')", "member": "([^"\\\x00-\x1f]+)", "timestamp": (?:0|[1-9][0-9]{0,%d})\}$'
    % (_STAMP_DIGITS - 1), re.M).findall
_BLOCK_CHARS = 8192  # io's text chunk: a larger read fails on a bad byte, lines before it unread


def _load_json(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}", f"invalid {what}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # nested too deep, or an int past the digit limit
        raise ParseError("document", f"invalid {what}: {exc}") from exc


def _require(mapping: Any, key: str, location: str) -> Any:
    if not isinstance(mapping, dict):
        raise ParseError(location, f"expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise ParseError(f"{location}.{key}", "missing required field")
    return mapping[key]


def _check_version(doc: Any) -> None:
    version = _require(doc, "schema_version", "document")
    if version != SCHEMA_VERSION:
        raise SchemaVersionUnsupported(version)


def parse_taxonomy(text: str) -> ValueTaxonomy:
    """Parse a taxonomy document through :meth:`ValueTaxonomy.build`. A graph
    that breaks a structural rule, or repeats a node id or edge, raises
    :class:`~valuetax.errors.InvalidTaxonomy`, a ParseError that carries its violations."""
    doc = _load_json(text, "taxonomy document")
    _check_version(doc)
    nodes: list[Node] = []
    importance: dict[str, float] = {}
    raw_nodes = _require(doc, "nodes", "document")
    raw_edges = doc.get("edges", [])
    del doc  # each entry list is dropped once it is read
    if not isinstance(raw_nodes, list):
        raise ParseError("document.nodes", "must be a list")
    for i, raw in enumerate(raw_nodes):  # locations are built only to raise
        if not isinstance(raw, dict):
            _require(raw, "id", f"nodes[{i}]")
        node_id, kind = raw.get("id"), raw.get("kind")
        # Node refuses a kind that is not a document spelling, as it is spelled
        node_kind, text_key = _NODE_KINDS.get(kind, (kind, "id")) if type(kind) is str else (kind, "id")
        try:
            nodes.append(Node(node_id, node_kind, raw.get(text_key, node_id)))
        except ParseError as exc:  # a missing text key gives the id, which Node takes
            field = text_key if exc.location == "text" else exc.location
            _require(raw, field, f"nodes[{i}]")
            raise ParseError(f"nodes[{i}].{field}", exc.detail) from None
        if (value := raw.get("importance")) is not None:
            importance[node_id] = value
    del raw_nodes
    if not isinstance(raw_edges, list):
        raise ParseError("document.edges", "must be a list")
    try:
        edges = list(map(itemgetter("parent", "child"), raw_edges))
    except (KeyError, TypeError):  # an entry that is no object, or lacks an end
        for i, raw in enumerate(raw_edges):  # worded at the first such entry
            for key in ("parent", "child"):
                _require(raw, key, f"edges[{i}]")
    del raw_edges
    try:
        return ValueTaxonomy.build(nodes, edges, importance)
    except ParseError as exc:  # an importance is located at its node's entry
        for i, node in enumerate(nodes):
            if exc.location == f"importance.{node.id}":
                raise ParseError(f"nodes[{i}].importance", exc.detail) from None
        raise


def _close_list(pieces: list[str]) -> None:
    """End the document list of ``pieces[1:]``, each entry after its separator ``",\n"``."""
    if len(pieces) > 1:
        pieces[1] = "[" + pieces[1][1:]
        pieces.append("\n  ]")
    else:
        pieces.append("[]")


def serialize_taxonomy(taxonomy: ValueTaxonomy) -> str:
    """Render a taxonomy document; output is deterministic for equal inputs."""
    nodes, importance, children = taxonomy.nodes, taxonomy.importance, taxonomy._children
    pieces = [f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "nodes": ']
    edges = [',\n  "edges": ']
    for node_id in sorted(nodes):
        node, quoted = nodes[node_id], _quote(node_id)
        fields = _LABEL_FIELDS if node.kind is NodeKind.LABEL else _PROPERTY_FIELDS  # no Enum.__hash__ call
        entry = f',\n    {{\n      "id": {quoted},{fields}{_quote(node.text)}'
        if node_id in importance:  # a finite float, written as json writes one
            entry += f',\n      "importance": {importance[node_id]!r}'
        pieces.append(entry + "\n    }")
        for child in children[node_id]:  # each child tuple is in id order
            edges.append(f',\n    {{\n      "parent": {quoted},\n      "child": {_quote(child)}\n    }}')
    _close_list(pieces)
    _close_list(edges)
    pieces += edges
    pieces.append("\n}\n")
    return "".join(pieces)


def parse_context(text: str) -> ContextSpec:
    """Parse a context document into a ContextSpec."""
    doc = _load_json(text, "context document")
    _check_version(doc)
    ctx_id = _require(doc, "id", "document")
    raw_props = doc.get("defining_properties", [])
    if not isinstance(raw_props, list):
        raise ParseError("document.defining_properties", "must be a list of property names")
    raw_importance = doc.get("property_importance", {})
    if not isinstance(raw_importance, dict):
        raise ParseError("document.property_importance", "must be an object")
    try:
        return ContextSpec(ctx_id, raw_props, raw_importance, _parse_selection(doc.get("selection")))
    except ParseError as exc:
        raise ParseError(_CONTEXT_FIELDS.get(exc.location, exc.location), exc.detail) from None


def _parse_selection(raw: Any) -> SelectionStrategy:
    if raw is None:
        return SelectionStrategy()
    kind = _require(raw, "kind", "selection")
    # SelectionStrategy refuses a kind that is not a document spelling, as it is spelled
    kind = next((k for k in SelectionKind if k.value == kind), kind)
    threshold = raw.get("threshold", 0.0) if kind is SelectionKind.POSITIVE_THRESHOLD else 0.0
    return SelectionStrategy(kind, threshold)


def _event_batches(stream: TextIO) -> Iterator[Iterable[tuple[str, str]]]:
    """The ``(kind, member)`` records of each read of an event log's text
    stream, one batch per read, for each non-blank line: the scan's own list for
    a read of canonical records, else :func:`_line_records`, which alone words
    errors. A bad record raises :class:`MalformedEvent` with its 1-based line
    number, blank lines counted; the lines of earlier reads are checked before a
    read error is raised."""
    lineno, tail = 1, []
    while chunk := stream.read(_BLOCK_CHARS):
        end = chunk.rfind("\n") + 1
        if not end:  # a line longer than a read is joined once, when it ends
            tail.append(chunk)
            continue
        tail.append(chunk[:end])
        text, tail = "".join(tail), [chunk[end:]]
        lines = text.count("\n")
        found = _find_canonical(text)
        # a match lies within one line, so if there are as many, each line matched
        yield found if len(found) == lines else _line_records(text.split("\n"), lineno)
        lineno += lines
    if last := "".join(tail):  # an unterminated last line
        yield _line_records((last,), lineno)


def _line_records(lines: Iterable[str], first_lineno: int) -> Iterator[tuple[str, str]]:
    """The records of :func:`_event_batches` over ``lines``, numbered from
    ``first_lineno``, each line decoded as a document is, its timestamp checked
    and dropped; a malformed one is refused in the document's words, at its line."""
    for lineno, line in enumerate(lines, start=first_lineno):
        line = line.strip()
        if not line:
            continue
        try:
            raw = _load_json(line, "record")
        except ParseError as exc:  # located at the line, not within it
            raise MalformedEvent(lineno, exc.detail) from exc
        if not isinstance(raw, dict):
            raise MalformedEvent(lineno, "record must be an object")
        kind, member, timestamp = raw.get("kind"), raw.get("member"), raw.get("timestamp")
        if refusal := event_refusal(kind, member):  # worded as ingest words it, at the line
            raise MalformedEvent(lineno, refusal)
        if type(timestamp) is not int or timestamp < 0:  # bool is an int subclass
            raise MalformedEvent(
                lineno, f"event timestamp must be a non-negative integer, got {timestamp!r}")
        yield kind, member


def parse_event_log(text: str) -> list[tuple[str, str]]:
    """The ``(kind, member)`` records of a line-delimited event log, as
    :func:`_event_batches` reads them; blank lines are skipped. Lines end at
    newlines only, as in a text file, so JSON strings may hold U+2028 and the
    like raw. Records come in file order, which need not be timestamp order."""
    return list(chain.from_iterable(_event_batches(io.StringIO(text, newline=None))))


def ingest_event_log(stream: TextIO) -> CommunityState:
    """Count an event log read lazily from a text stream, such as an open file
    or an :class:`io.StringIO`, into a :class:`CommunityState` with
    :func:`~valuetax.mutual_aid.ingest`, checking it as :func:`parse_event_log`
    does but keeping no records."""
    return ingest(chain.from_iterable(_event_batches(stream)))


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(taxonomy: ValueTaxonomy) -> str:
    """Render a taxonomy as a DOT digraph.

    Label nodes are drawn as circles and property nodes as squares; a node's
    importance, when assigned, is printed under its name. Output is
    byte-deterministic for equal inputs.
    """
    lines, edges = ["digraph value_taxonomy {"], []
    for node_id in sorted(taxonomy.nodes):
        node, quoted = taxonomy.nodes[node_id], _dot_quote(node_id)
        shape = "circle" if node.kind is NodeKind.LABEL else "square"
        label = _dot_quote(node.text)[1:-1]
        if node_id in taxonomy.importance:
            # \n is DOT's in-label line break, kept out of _dot_quote's escaping
            label = f"{label}\\n{taxonomy.importance[node_id]:.6f}"
        lines.append(f'  {quoted} [shape={shape}, label="{label}"];')
        for child in taxonomy._children[node_id]:
            edges.append(f"  {quoted} -> {_dot_quote(child)};")
    lines += edges
    lines.append("}\n")
    return "\n".join(lines)

"""Document formats: taxonomies as JSON (read and written), contexts as JSON
(read only), event logs as JSON lines, and DOT export for rendering.

Taxonomy serialization is deterministic - nodes and edges are emitted in sorted
order and floats use their shortest exact decimal form - so that
serialize(parse(serialize(t))) is byte-identical and round-trips preserve
node, edge, and importance content exactly. Parse failures carry a location
(line/column for malformed JSON, a field path otherwise).

A taxonomy is written byte for byte as ``json.dumps(doc, indent=2)`` would
write it, but by the C encoder (``indent=`` drops ``json`` to pure Python):
each entry list is encoded with the separator ``",\\n      "``, a key's newline
and indent. No encoded string holds a raw newline and no entry a nested object,
so ``"},\\n      {"`` occurs only between entries, where one replace splits it.

An event log is read in blocks of lines. A block is counted from one anchored
regular-expression scan when each line ends with the block's only newlines,
holds a canonical record - ``{"kind": K, "member": M, "timestamp": T}`` in that
key order, M free of escapes and control characters (its text is its value), T
an unsigned integer of at most 18 digits with no leading zero, spaces and tabs
around any token - and no timestamp decreases. Any other block (a blank line,
another key order, an escape, a BOM) is read exactly, line by line, by the
decoder that words every error.
"""

from __future__ import annotations

import io
import json
import re
from itertools import chain, islice, repeat
from operator import le
from typing import Any, Generator, Iterable, Iterator, Mapping

from .context import ContextSpec, SelectionKind, SelectionStrategy
from .errors import MalformedEvent, ParseError, SchemaVersionUnsupported
from .mutual_aid import CommunityState, Event, EventKind
from .taxonomy import Node, NodeKind, ValueTaxonomy, importance_float, require_valid, validate

SCHEMA_VERSION = 1
_encode_flat = json.JSONEncoder(ensure_ascii=False, separators=(",\n      ", ": ")).encode

_EVENT_KINDS = {kind.value: kind for kind in EventKind}
_decode_record = json.JSONDecoder().raw_decode
# the canonical event record of the module docstring, one per line
_find_canonical = re.compile(r"[ \t]*".join([
    "^", r"\{", '"kind"', ":", '"(' + "|".join(re.escape(k.value) for k in EventKind) + ')"', ",",
    '"member"', ":", r'"([^"\\\x00-\x1f]+)"', ",", '"timestamp"', ":", "(0|[1-9][0-9]{0,17})",
    r"\}", "$"]), re.M).findall
_BLOCK_LINES = 256  # thousands of lines per block raise peak memory
_BOM_DETAIL = "Unexpected UTF-8 BOM (decode using utf-8-sig)"


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


def _parse_importance(raw: Any, location: str) -> float:
    try:
        value = importance_float(raw)
    except ValueError as exc:
        raise ParseError(location, str(exc)) from None
    if not (-1.0 <= value <= 1.0):
        raise ParseError(location, f"importance {value} outside [-1, 1]")
    return value


def parse_taxonomy(text: str, require_valid_structure: bool = True) -> ValueTaxonomy:
    """Parse a taxonomy document. With ``require_valid_structure`` (the default)
    it must also pass structural validation; pass False to load a candidate
    for inspection with :func:`~valuetax.taxonomy.validate`."""
    doc = _load_json(text, "taxonomy document")
    _check_version(doc)
    nodes: dict[str, Node] = {}
    importance: dict[str, float] = {}
    raw_nodes = _require(doc, "nodes", "document")
    if not isinstance(raw_nodes, list):
        raise ParseError("document.nodes", "must be a list")
    for i, raw in enumerate(raw_nodes):  # locations are built only to raise
        node_id = raw.get("id") if isinstance(raw, dict) else None
        if not isinstance(node_id, str) or not node_id:
            _require(raw, "id", f"nodes[{i}]")
            raise ParseError(f"nodes[{i}].id", "node id must be a non-empty string")
        kind = raw.get("kind")
        if kind == NodeKind.LABEL.value:
            label_text = raw.get("label_text", node_id)
            if not isinstance(label_text, str):
                raise ParseError(f"nodes[{i}].label_text", f"must be a string, got {label_text!r}")
            node = Node(node_id, NodeKind.LABEL, label_text=label_text)
        elif kind == NodeKind.PROPERTY.value:
            ref = raw.get("property_id", node_id)
            if not isinstance(ref, str):
                raise ParseError(f"nodes[{i}].property_id", f"must be a string, got {ref!r}")
            node = Node(node_id, NodeKind.PROPERTY, property_id=ref)
        else:
            _require(raw, "kind", f"nodes[{i}]")
            raise ParseError(f"nodes[{i}].kind", f"unknown node kind: {kind!r}")
        if node_id in nodes:
            raise ParseError(f"nodes[{i}].id", f"duplicate node id: {node_id!r}")
        nodes[node_id] = node
        value = raw.get("importance")
        if value is not None:
            if type(value) is not float or not -1.0 <= value <= 1.0:
                value = _parse_importance(value, f"nodes[{i}].importance")
            importance[node_id] = value
    edges: set[tuple[str, str]] = set()
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError("document.edges", "must be a list")
    for i, raw in enumerate(raw_edges):
        edge = (raw.get("parent"), raw.get("child")) if isinstance(raw, dict) else (None, None)
        if not isinstance(edge[0], str) or not isinstance(edge[1], str):
            for key in ("parent", "child"):
                _require(raw, key, f"edges[{i}]")
            raise ParseError(f"edges[{i}]", "edge endpoints must be node id strings")
        if edge in edges:
            raise ParseError(f"edges[{i}]", f"duplicate edge {edge[0]!r} -> {edge[1]!r}")
        edges.add(edge)
    taxonomy = ValueTaxonomy(nodes, frozenset(edges), importance)
    if require_valid_structure:
        report = validate(taxonomy)
        if not report.ok:
            first = report.violations[0]
            raise ParseError(f"rule {first.rule}", first.message)
    return taxonomy


def _encode_entries(entries: list[dict[str, Any]]) -> str:
    """``entries`` as ``json.dumps(..., indent=2)`` writes a list two levels deep."""
    if not entries:
        return "[]"
    body = _encode_flat(entries).replace("},\n      {", "\n    },\n    {\n      ")
    return "[\n    {\n      " + body[2:-2] + "\n    }\n  ]"


def serialize_taxonomy(taxonomy: ValueTaxonomy) -> str:
    """Render a taxonomy document; output is deterministic for equal inputs."""
    nodes = []
    for node_id in sorted(taxonomy.nodes):
        node = taxonomy.nodes[node_id]
        text_key = "label_text" if node.kind is NodeKind.LABEL else "property_id"
        entry: dict[str, Any] = {"id": node.id, "kind": node.kind.value, text_key: node.display}
        if node_id in taxonomy.importance:
            entry["importance"] = taxonomy.importance[node_id]
        nodes.append(entry)
    edges = [{"parent": p, "child": c} for p, c in sorted(taxonomy.edges)]
    return (f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "nodes": {_encode_entries(nodes)},'
            f'\n  "edges": {_encode_entries(edges)}\n}}\n')


def parse_context(text: str) -> ContextSpec:
    """Parse a context document into a ContextSpec."""
    doc = _load_json(text, "context document")
    _check_version(doc)
    ctx_id = _require(doc, "id", "document")
    if not isinstance(ctx_id, str) or not ctx_id:
        raise ParseError("document.id", "context id must be a non-empty string")
    raw_props = doc.get("defining_properties", [])
    if not isinstance(raw_props, list) or not all(isinstance(p, str) for p in raw_props):
        raise ParseError("document.defining_properties", "must be a list of property names")
    raw_importance = doc.get("property_importance", {})
    if not isinstance(raw_importance, dict):
        raise ParseError("document.property_importance", "must be an object")
    importance = {node: _parse_importance(value, f"property_importance.{node}")
                  for node, value in raw_importance.items()}
    return ContextSpec(ctx_id, frozenset(raw_props), importance,
                       _parse_selection(doc.get("selection")))


def _parse_selection(raw: Any) -> SelectionStrategy:
    if raw is None:
        return SelectionStrategy()
    kind = _require(raw, "kind", "selection")
    try:
        selection_kind = SelectionKind(kind)
    except (TypeError, ValueError):
        raise ParseError("selection.kind", f"unknown selection strategy: {kind!r}") from None
    if selection_kind is SelectionKind.POSITIVE_THRESHOLD:
        threshold = raw.get("threshold", 0.0)
        return SelectionStrategy(selection_kind, _parse_importance(threshold, "selection.threshold"))
    return SelectionStrategy(selection_kind)


def _event_records(lines: Iterable[str],
                   kinds: Mapping[str, Any]) -> Iterator[tuple[Any, str, int]]:
    """Yield ``(kinds[kind], member, timestamp)`` for each non-blank line of an
    event log. A bad record, or a timestamp below the one before, raises
    :class:`MalformedEvent` with its 1-based line number, blank lines counted.

    Blocks of canonical records are scanned whole; any other block goes to
    :func:`_line_records`, which alone words errors."""
    lines = iter(lines)
    lineno, last_timestamp = 1, 0
    while True:
        block: list[str] = []
        try:
            block.extend(islice(lines, _BLOCK_LINES))
        except Exception:  # such as undecodable bytes: the lines read before come first
            yield from _line_records(block, kinds, lineno, last_timestamp)
            raise
        if not block:
            return
        text = "".join(block)
        # each line ends with its only newline, so scanned lines are the given ones
        if text.count("\n") == len(block) and all(map(str.endswith, block, repeat("\n"))):
            found = _find_canonical(text)
            if len(found) == len(block):
                names, members, digits = zip(*found)
                stamps = list(map(int, digits))
                if all(map(le, chain((last_timestamp,), stamps), stamps)):
                    yield from zip(map(kinds.__getitem__, names), members, stamps)
                    lineno, last_timestamp = lineno + len(block), stamps[-1]
                    continue
        last_timestamp = yield from _line_records(block, kinds, lineno, last_timestamp)
        lineno += len(block)


def _line_records(lines: Iterable[str], kinds: Mapping[str, Any], first_lineno: int,
                  last_timestamp: int) -> Generator[tuple[Any, str, int], None, int]:
    """:func:`_event_records` over ``lines``, numbered from ``first_lineno``, one
    JSON decode per line; returns the last timestamp read."""
    for lineno, line in enumerate(lines, start=first_lineno):
        line = line.strip()
        if not line:
            continue
        try:
            raw, end = _decode_record(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
        except json.JSONDecodeError as exc:
            # worded as json.loads words it, which rejects a BOM before decoding
            detail = _BOM_DETAIL if line[0] == "\ufeff" else exc.msg
            raise MalformedEvent(lineno, f"invalid record: {detail}") from exc
        except (RecursionError, ValueError) as exc:  # as in _load_json
            raise MalformedEvent(lineno, f"invalid record: {exc}") from exc
        if not isinstance(raw, dict):
            raise MalformedEvent(lineno, "record must be an object")
        kind = raw.get("kind")
        try:
            target = kinds[kind]
        except (KeyError, TypeError):
            raise MalformedEvent(lineno, f"unknown event kind: {kind!r}") from None
        member = raw.get("member")
        if not isinstance(member, str) or not member:
            raise MalformedEvent(lineno, f"event member must be a non-empty string, got {member!r}")
        timestamp = raw.get("timestamp")
        if type(timestamp) is not int or timestamp < 0:  # bool is an int subclass
            raise MalformedEvent(
                lineno, f"event timestamp must be a non-negative integer, got {timestamp!r}")
        if timestamp < last_timestamp:
            raise MalformedEvent(lineno, f"timestamp {timestamp} decreases from {last_timestamp}")
        last_timestamp = timestamp
        yield target, member, timestamp
    return last_timestamp


def parse_event_log(text: str) -> list[Event]:
    """Parse a line-delimited event log; blank lines are skipped. Lines end at
    newlines only, as in a text file, so JSON strings may hold U+2028 and the
    like raw. Timestamps must be non-decreasing in file order."""
    return [Event(*r) for r in _event_records(io.StringIO(text, newline=None), _EVENT_KINDS)]


def ingest_event_log(lines: Iterable[str]) -> CommunityState:
    """Count an event log into a :class:`CommunityState`, with the checks of
    :func:`parse_event_log` but no events; an open file is read lazily, a few
    hundred lines at a time. A block of canonical records (one ``{"kind": K,
    "member": M, "timestamp": T}`` per line, as the module docstring defines)
    is counted after one scan proves every line holds one and no timestamp
    decreases; any other layout is read exactly, line by line."""
    buckets: dict[str, dict[str, int]] = {kind.value: {} for kind in EventKind}
    for bucket, member, _ in _event_records(lines, buckets):
        bucket[member] = bucket.get(member, 0) + 1
    return CommunityState(*buckets.values())


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(taxonomy: ValueTaxonomy) -> str:
    """Render a valid taxonomy as a DOT digraph.

    Label nodes are drawn as circles and property nodes as squares; a node's
    importance, when assigned, is printed under its name. Output is
    byte-deterministic for equal inputs.
    """
    require_valid(taxonomy)
    lines = ["digraph value_taxonomy {"]
    for node_id in sorted(taxonomy.nodes):
        node = taxonomy.nodes[node_id]
        shape = "circle" if node.kind is NodeKind.LABEL else "square"
        label = node.display.replace("\\", "\\\\").replace('"', '\\"')
        if node_id in taxonomy.importance:
            # \n is DOT's in-label line break, kept out of _dot_quote's escaping
            label = f"{label}\\n{taxonomy.importance[node_id]:.6f}"
        lines.append(f'  {_dot_quote(node_id)} [shape={shape}, label="{label}"];')
    for parent, child in sorted(taxonomy.edges):
        lines.append(f"  {_dot_quote(parent)} -> {_dot_quote(child)};")
    lines.append("}")
    return "\n".join(lines) + "\n"

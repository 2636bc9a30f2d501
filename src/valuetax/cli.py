"""Command-line front end.

Eight commands: validate, propagate, coherence, context, align, paths,
export-dot, and demo. Human-readable tables are the default; ``--format
machine`` switches to JSON so scripts and tests share the same entry point.
Numbers in tables are printed with six decimals to keep golden output
stable.

Exit codes: 0 success, 1 validation or parse failure, 2 incoherence or
propagation conflict, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
import warnings
from typing import Callable, Optional, TextIO, TypeVar

from . import __version__
from .aggregation import check_all_laws, mean_aggregate
from .alignment import AlignmentReport, AlignmentScheme, align, explain
from .context import (
    KMEANS_SELECTION,
    ContextSpec,
    EmptySelectionWarning,
    SelectionKind,
    SelectionStrategy,
    build_context_taxonomy,
    context_holds,
    select_nodes,
)
from .errors import InvalidTaxonomy, ParseError, PropagationError, TaxonomyError
from .io_formats import (
    export_dot,
    ingest_event_log,
    parse_context,
    parse_taxonomy,
    serialize_taxonomy,
)
from .mutual_aid import (
    OFFER_RATIO,
    TASK_BALANCE,
    VOLUNTEER_RATIO,
    DomainConfig,
    Measure,
    fairness_taxonomy,
    property_evaluators,
    satisfaction_degrees,
)
from .propagation import check_coherence, propagate
from .taxonomy import (
    RULE_DUPLICATE_EDGE,
    RULE_DUPLICATE_ID,
    ValueTaxonomy,
    all_paths_counts,
    topological_order,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCOHERENT = 2
EXIT_IO = 3

_T = TypeVar("_T")


class _Fail(Exception):
    """A refusal: ``message`` goes to stderr and ``output``, if any, where a result goes."""

    def __init__(self, code: int, message: str, output: Optional[str] = None):
        self.code = code
        self.message = message
        self.output = output
        super().__init__(message)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _read(path: str, consume: Callable[[TextIO], _T] = lambda handle: handle.read()) -> _T:
    """``consume`` applied to the open file at ``path``, by default its whole text.
    An unreadable file exits 3; one not in UTF-8, or that ``consume`` rejects, exits 1."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return consume(handle)
    except OSError as exc:
        raise _Fail(EXIT_IO, f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, TaxonomyError) as exc:
        raise _Fail(EXIT_INVALID, f"{path}: {exc}") from exc


def _load(path: str, parse: Callable[[str], _T]) -> _T:
    """``parse`` applied to the text of the file at ``path``. The file is
    closed before parsing, since parsing while it is open raises peak memory;
    a document ``parse`` rejects exits 1."""
    text = _read(path)
    try:
        return parse(text)
    except TaxonomyError as exc:
        raise _Fail(EXIT_INVALID, f"{path}: {exc}") from exc


def _machine(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _taxonomy_table(taxonomy: ValueTaxonomy) -> str:
    lines = [f"{'node':<20} {'kind':<9} {'importance':>10}"]
    for node_id in topological_order(taxonomy):
        node = taxonomy.nodes[node_id]
        value = _fmt(taxonomy.importance[node_id]) if node_id in taxonomy.importance else "-"
        lines.append(f"{node_id:<20} {node.kind.value:<9} {value:>10}")
    return "\n".join(lines)


def _domain_config(args) -> DomainConfig:
    try:
        return DomainConfig(
            max_ratio=args.max_r,
            epsilon=args.epsilon,
            max_delta=args.max_delta,
            difference_measure=Measure(args.measure),
        )
    except ValueError as exc:
        raise _Fail(EXIT_INVALID, f"bad domain configuration: {exc}") from exc


def _refusal(text: str) -> Optional[InvalidTaxonomy]:
    """What refused a taxonomy document's graph: None if it parses."""
    try:
        parse_taxonomy(text)
    except InvalidTaxonomy as exc:
        return exc
    return None


def _cmd_validate(args) -> tuple[int, str]:
    refusal = _load(args.input, _refusal)
    violations = refusal.violations if refusal else ()
    code = EXIT_INVALID if violations else EXIT_OK
    report = None
    if args.format == "machine":
        report = _machine({"ok": not violations, "violations": [
            {"rule": v.rule, "subject": v.subject, "message": v.message} for v in violations]})
    if violations and violations[0].rule in (RULE_DUPLICATE_ID, RULE_DUPLICATE_EDGE):
        # refused on stderr as by every command, with the report beside it
        raise _Fail(code, f"{args.input}: {refusal}", report)
    if report:
        return code, report
    lines = [f"{args.input}: {'invalid' if violations else 'ok'}"]
    lines += [f"  {v.rule} at {v.subject}: {v.message}" for v in violations]
    return code, "\n".join(lines) + "\n"


def _cmd_propagate(args) -> tuple[int, str]:
    taxonomy = _load(args.input, parse_taxonomy)
    try:
        result = propagate(taxonomy)
    except PropagationError as exc:
        raise _Fail(EXIT_INCOHERENT, f"{args.input}: {exc}") from exc
    if args.format == "machine":
        return EXIT_OK, serialize_taxonomy(result.taxonomy)
    lines = [_taxonomy_table(result.taxonomy), ""]
    newly = ", ".join(sorted(result.assigned)) or "none"
    lines.append(f"newly assigned: {newly}")
    lines.append(f"propagation rounds: {result.iterations}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _cmd_coherence(args) -> tuple[int, str]:
    taxonomy = _load(args.input, parse_taxonomy)
    report = check_coherence(taxonomy)
    if args.format == "machine":
        doc = {
            "coherent": report.coherent,
            "violations": [
                {"parent": v.parent, "expected": v.expected, "actual": v.actual}
                for v in report.violations],
            "unevaluable": list(report.unevaluable),
        }
        return (EXIT_OK if report.coherent else EXIT_INCOHERENT), _machine(doc)
    if report.coherent:
        text = f"{args.input}: coherent"
        if report.unevaluable:
            text += f" (unevaluable: {', '.join(report.unevaluable)})"
        return EXIT_OK, text + "\n"
    lines = [f"{args.input}: incoherent"]
    lines += [
        f"  {v.parent}: importance {_fmt(v.actual)}, children aggregate {_fmt(v.expected)}"
        for v in report.violations]
    return EXIT_INCOHERENT, "\n".join(lines) + "\n"


def _selection_override(args, default: SelectionStrategy) -> SelectionStrategy:
    if args.strategy is None and args.threshold is None:
        return default
    kind = default.kind
    if args.strategy == "positive":
        kind = SelectionKind.POSITIVE_THRESHOLD
    elif args.strategy == "kmeans2":
        kind = SelectionKind.KMEANS_TWO
    if args.threshold is not None and kind is SelectionKind.KMEANS_TWO:
        raise _Fail(EXIT_INVALID, "bad selection override: "
                                  "--threshold applies only to positive selection, not kmeans2")
    threshold = default.threshold if args.threshold is None else args.threshold
    try:
        return SelectionStrategy(kind, threshold)
    except ParseError as exc:  # located at the option
        raise _Fail(EXIT_INVALID, f"bad selection override: --{exc.location}: {exc.detail}") from exc


def _cmd_context(args) -> tuple[int, str]:
    general = _load(args.input, parse_taxonomy)
    ctx = _load(args.context, parse_context)
    ctx = ctx.with_selection(_selection_override(args, ctx.selection))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            built = build_context_taxonomy(general, ctx)
        except PropagationError as exc:
            raise _Fail(EXIT_INCOHERENT, f"{args.context}: {exc}") from exc
        except ValueError as exc:
            raise _Fail(EXIT_INVALID, f"{args.context}: {exc}") from exc
    for warning in caught:
        if issubclass(warning.category, EmptySelectionWarning):
            print(f"warning: {warning.message}", file=sys.stderr)
    if args.format == "machine":
        return EXIT_OK, serialize_taxonomy(built)
    if not built.nodes:
        return EXIT_OK, f"context {ctx.id!r}: empty selection\n"
    return EXIT_OK, f"context {ctx.id!r}:\n{_taxonomy_table(built)}\n"


def _cmd_align(args) -> tuple[int, str]:
    taxonomy = _load(args.input, parse_taxonomy)
    state = _read(args.log, ingest_event_log)
    cfg = _domain_config(args)
    scheme = AlignmentScheme(args.scheme)
    try:
        sd = satisfaction_degrees(state, cfg, taxonomy.property_nodes())
    except TaxonomyError as exc:  # the log's counts cannot be scored
        raise _Fail(EXIT_INVALID, f"{args.log}: {exc}") from exc
    try:
        report = align(args.entity, taxonomy, sd, scheme)
    except TaxonomyError as exc:
        raise _Fail(EXIT_INVALID, f"{args.input}: {exc}") from exc
    return EXIT_OK, _render_alignment(report, args.format)


def _render_alignment(report: AlignmentReport, fmt: str) -> str:
    if fmt == "machine":
        doc = {
            "entity": report.entity,
            "scheme": report.scheme.value,
            "score": report.score,
            "score_bound": report.score_bound,
            "per_property": [
                {"node": p.node, "sd": p.sd, "importance": p.importance,
                 "paths": p.paths, "contribution": p.contribution}
                for p in explain(report)],
        }
        return _machine(doc)
    lines = [f"alignment of {report.entity!r} ({report.scheme.value} scheme):"]
    lines.append(f"  {'property':<20} {'importance':>10} {'sd':>10} {'paths':>5} {'contribution':>13}")
    for p in explain(report):
        lines.append(
            f"  {p.node:<20} {_fmt(p.importance):>10} {_fmt(p.sd):>10} "
            f"{p.paths:>5} {_fmt(p.contribution):>13}")
    lines.append(f"  score = {_fmt(report.score)} (bound {_fmt(report.score_bound)})")
    return "\n".join(lines) + "\n"


def _cmd_paths(args) -> tuple[int, str]:
    taxonomy = _load(args.input, parse_taxonomy)
    counts = all_paths_counts(taxonomy)
    if args.node is not None:
        if args.node not in counts:
            raise _Fail(EXIT_INVALID, f"{args.input}: unknown node {args.node!r}")
        chosen = {args.node: counts[args.node]}
    else:
        chosen = {n: counts[n] for n in taxonomy.property_nodes()}
    if args.format == "machine":
        return EXIT_OK, _machine(chosen)
    lines = [f"{node}: {count}" for node, count in sorted(chosen.items())]
    return EXIT_OK, "\n".join(lines) + "\n"


def _cmd_export_dot(args) -> tuple[int, str]:
    taxonomy = _load(args.input, parse_taxonomy)
    return EXIT_OK, export_dot(taxonomy)


# -- demo -------------------------------------------------------------------

DEMO_ENTITY = "community"
# per member: (requests, offers, volunteer_chosen, tasks assigned)
DEMO_ACTIVITY = {
    "alice": (3, 1, 2, 51),
    "bruno": (3, 1, 2, 49),
}


def demo_event_log() -> str:
    """Deterministic event log for the demo community.

    Both members request three times as often as they offer, and assigned
    tasks split 51/49, leaving the distribution just slightly uneven.
    """
    lines = []
    stamp = 0
    for kind, slot in (("request", 0), ("offer", 1), ("volunteer_chosen", 2)):
        for member in sorted(DEMO_ACTIVITY):
            for _ in range(DEMO_ACTIVITY[member][slot]):
                lines.append(json.dumps({"kind": kind, "member": member, "timestamp": stamp}))
                stamp += 1
    for member in sorted(DEMO_ACTIVITY):
        for _ in range(DEMO_ACTIVITY[member][3]):
            lines.append(json.dumps({"kind": "task_assigned", "member": member, "timestamp": stamp}))
            stamp += 1
    return "\n".join(lines) + "\n"


def demo_contexts() -> dict[str, ContextSpec]:
    return {
        "community-c": ContextSpec(
            "community-c",
            defining_properties=frozenset({OFFER_RATIO, TASK_BALANCE}),
            property_importance={OFFER_RATIO: 0.8, VOLUNTEER_RATIO: 0.0, TASK_BALANCE: 0.7},
        ),
        "elder-support": ContextSpec(
            "elder-support",
            defining_properties=frozenset({TASK_BALANCE}),
            property_importance={OFFER_RATIO: -0.5, VOLUNTEER_RATIO: -0.5, TASK_BALANCE: 0.9},
        ),
        "alignment-example": ContextSpec(
            "alignment-example",
            defining_properties=frozenset({OFFER_RATIO, TASK_BALANCE}),
            property_importance={OFFER_RATIO: 1.0, TASK_BALANCE: 0.5},
        ),
    }


def _cmd_demo(args) -> tuple[int, str]:
    general = parse_taxonomy(serialize_taxonomy(fairness_taxonomy()))  # parsed, hence valid
    laws = check_all_laws(mean_aggregate, trials=1000, rng=random.Random(20240601))
    contexts = demo_contexts()

    built = {}
    coherent = {}
    kmeans_pick = {}
    for name in ("community-c", "elder-support"):
        ctx = contexts[name]
        built[name] = build_context_taxonomy(general, ctx)
        coherent[name] = check_coherence(built[name]).coherent
        importances = {p: ctx.property_importance.get(p, 0.0) for p in general.property_nodes()}
        kmeans_pick[name] = sorted(select_nodes(importances, KMEANS_SELECTION))

    state = ingest_event_log(io.StringIO(demo_event_log()))
    entries = sum(sum(counter.values()) for counter in (
        state.requests, state.offers, state.volunteering, state.task_distribution))
    cfg = DomainConfig()

    align_ctx = contexts["alignment-example"]
    align_taxonomy = build_context_taxonomy(general, align_ctx)
    holds = context_holds(align_ctx, state, property_evaluators(cfg))
    sd_values = satisfaction_degrees(state, cfg, align_taxonomy.property_nodes())
    alignment = align(DEMO_ENTITY, align_taxonomy, sd_values)
    dot = export_dot(built["community-c"])

    if args.format == "machine":
        doc = {
            "general_taxonomy": json.loads(serialize_taxonomy(general)),
            "validation_ok": True,
            "aggregator_laws": {law.value: rep.passed for law, rep in laws.items()},
            "contexts": {
                name: {
                    "property_importance": dict(contexts[name].property_importance),
                    "kmeans_selection": kmeans_pick[name],
                    "taxonomy": json.loads(serialize_taxonomy(built[name])),
                    "coherent": coherent[name],
                } for name in ("community-c", "elder-support")},
            "event_log_entries": entries,
            "members": list(state.members),
            "context_holds": holds,
            "satisfaction": sd_values,
            "alignment": json.loads(_render_alignment(alignment, "machine")),
            "dot": dot,
        }
        return EXIT_OK, _machine(doc)

    lines = []
    lines.append("Mutual-aid community demo")
    lines.append("=========================")
    lines.append("")
    lines.append(f"General fairness taxonomy: {len(general.nodes)} nodes, "
                 f"{len(general.edges)} edges; validation ok")
    law_text = "; ".join(f"{law.value} {'ok' if rep.passed else 'FAILED'}" for law, rep in laws.items())
    lines.append(f"Mean aggregator law suite (1000 samples): {law_text}")
    for name in ("community-c", "elder-support"):
        ctx = contexts[name]
        given = ", ".join(f"{n}={_fmt(v)}" for n, v in sorted(ctx.property_importance.items()))
        lines.append("")
        lines.append(f"Context {name!r} with property importances {given}:")
        lines.append(_indent(_taxonomy_table(built[name])))
        lines.append(f"  two-means selection picks: {', '.join(kmeans_pick[name])}")
        lines.append(f"  coherence: {'ok' if coherent[name] else 'FAILED'}")
    lines.append("")
    lines.append(f"Event log: {entries} events; members: {', '.join(state.members)}")
    counts = ", ".join(
        f"{m}: requests={state.requests.get(m, 0)} offers={state.offers.get(m, 0)} "
        f"tasks={state.task_distribution.get(m, 0)}" for m in state.members)
    lines.append(f"  {counts}")
    lines.append(f"Context 'alignment-example' holds: {'yes' if holds else 'no'}")
    sd_text = "  ".join(f"sd({n})={_fmt(v)}" for n, v in sorted(sd_values.items()))
    lines.append(f"Satisfaction degrees: {sd_text}")
    lines.append("")
    lines.append(_render_alignment(alignment, "text").rstrip("\n"))
    lines.append("")
    lines.append("DOT export of context 'community-c':")
    lines.append(dot.rstrip("\n"))
    return EXIT_OK, "\n".join(lines) + "\n"


def _indent(text: str) -> str:
    return "\n".join("  " + line for line in text.splitlines())


# -- parser -----------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valuetax",
        description="Value taxonomies: validation, importance propagation, "
                    "context building, and behaviour alignment scoring.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("text", "machine"), default="text",
                        help="output format (default: text)")
    shared.add_argument("--output", metavar="PATH", help="write output to PATH instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, **extra):
        cmd = sub.add_parser(name, parents=[shared], help=help_text, **extra)
        cmd.set_defaults(handler=handler)
        return cmd

    cmd = command("validate", _cmd_validate, "check a taxonomy document's structural invariants")
    cmd.add_argument("--input", required=True, help="taxonomy document")

    cmd = command("propagate", _cmd_propagate, "propagate importance values to a fixpoint")
    cmd.add_argument("--input", required=True, help="taxonomy document")

    cmd = command("coherence", _cmd_coherence, "verify parent/children importance coherence")
    cmd.add_argument("--input", required=True, help="taxonomy document")

    cmd = command("context", _cmd_context, "build a context-based taxonomy")
    cmd.add_argument("--input", required=True, help="general taxonomy document")
    cmd.add_argument("--context", required=True, help="context document")
    cmd.add_argument("--strategy", choices=("positive", "kmeans2"),
                     help="override the context's selection strategy")
    cmd.add_argument("--threshold", type=float, help="override the positive-selection threshold")

    cmd = command("align", _cmd_align, "score behaviour from an event log against a taxonomy")
    cmd.add_argument("--input", required=True, help="taxonomy document (context-based)")
    cmd.add_argument("--log", required=True, help="event log (one JSON record per line)")
    cmd.add_argument("--entity", default="community",
                     help="name of the report; the score is the mean over all members")
    cmd.add_argument("--scheme", choices=("mean", "path"), default="mean")
    cmd.add_argument("--max-r", type=float, default=5.0, dest="max_r",
                     help="ratio mapped to full satisfaction (default 5)")
    cmd.add_argument("--epsilon", type=float, default=0.1,
                     help="distribution imbalance tolerated before dissatisfaction (default 0.1)")
    cmd.add_argument("--max-delta", type=float, default=1.0, dest="max_delta",
                     help="imbalance mapped to full dissatisfaction (default 1)")
    cmd.add_argument("--measure", choices=("kl", "emd"), default="emd",
                     help="distribution difference measure (default emd)")

    cmd = command("paths", _cmd_paths, "count root-to-node paths")
    cmd.add_argument("--input", required=True, help="taxonomy document")
    cmd.add_argument("--node", help="single node to count (default: all property nodes)")

    cmd = command("export-dot", _cmd_export_dot, "render a taxonomy as a DOT digraph")
    cmd.add_argument("--input", required=True, help="taxonomy document")

    command("demo", _cmd_demo, "run the embedded mutual-aid community example")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, text = args.handler(args)
    except _Fail as fail:
        print(fail.message, file=sys.stderr)
        if fail.output is None:
            return fail.code
        code, text = fail.code, fail.output
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

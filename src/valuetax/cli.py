"""Command-line front end.

Eight commands: validate, propagate, coherence, context, align, paths,
export-dot, and demo. Human-readable tables are the default; ``--format
machine`` switches to JSON so scripts and tests share the same entry point.
Numbers in tables are printed with six decimals to keep golden output
stable.

Exit codes: 0 success, 1 an invalid or refused input, 2 a failed
propagation (or an incoherent taxonomy under ``coherence``), 3 a file that
cannot be read or written. A refusal is one stderr line naming the file it
came from; ``_blamed`` maps a library call's refusal onto this table. The
golden cases of this contract are listed once, in ``tests/golden/cases.txt``.

A command runs with the cyclic garbage collector paused, argument parsing
included, and :func:`main` restores the caller's setting on every way out. Its
passes freed next to nothing and cost 5 to 8 % of a ``context`` command on the
benchmark's input; :func:`main` gives the numbers.
"""

from __future__ import annotations

import argparse
import gc
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
    EventKind,
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


def _blamed(path: str, fn: Callable[..., _T], *args) -> _T:
    """``fn(*args)``, its refusal of an input blamed on ``path``: a failed
    propagation exits 2, any other refused input exits 1."""
    try:
        return fn(*args)
    except PropagationError as exc:
        raise _Fail(EXIT_INCOHERENT, f"{path}: {exc}") from exc
    except (TaxonomyError, ValueError) as exc:  # ValueError includes UnicodeDecodeError
        raise _Fail(EXIT_INVALID, f"{path}: {exc}") from exc


def _read(path: str, consume: Callable[[TextIO], _T] = lambda handle: handle.read()) -> _T:
    """``consume`` applied to the open file at ``path``, by default its whole text.
    An unreadable file exits 3; one not in UTF-8, or that ``consume`` rejects, exits 1."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _blamed(path, consume, handle)
    except OSError as exc:
        raise _Fail(EXIT_IO, f"cannot read {path}: {exc}") from exc


def _load(path: str, parse: Callable[[str], _T]) -> _T:
    """``parse`` applied to the text of the file at ``path``. The file is
    closed before parsing, since parsing while it is open raises peak memory."""
    return _blamed(path, parse, _read(path))


def _machine(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _taxonomy_table(taxonomy: ValueTaxonomy) -> str:
    lines = [f"{'node':<20} {'kind':<9} {'importance':>10}"]
    for node_id in topological_order(taxonomy):
        node = taxonomy.nodes[node_id]
        value = _fmt(taxonomy.importance[node_id]) if node_id in taxonomy.importance else "-"
        lines.append(f"{node_id:<20} {node.kind.value:<9} {value:>10}")
    return "\n".join(lines)


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
    result = _blamed(args.input, propagate, _load(args.input, parse_taxonomy))
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


# --strategy's spellings, each with the kind it selects
_STRATEGIES = {"positive": SelectionKind.POSITIVE_THRESHOLD, "kmeans2": SelectionKind.KMEANS_TWO}


def _selection_override(args, default: SelectionStrategy) -> SelectionStrategy:
    if args.strategy is None and args.threshold is None:
        return default
    kind = default.kind if args.strategy is None else _STRATEGIES[args.strategy]
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
        built = _blamed(args.context, build_context_taxonomy, general, ctx)
    del general  # not held while the subgraph is rendered
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
    cfg = _blamed("bad domain configuration", DomainConfig,
                  args.max_r, args.epsilon, args.max_delta, Measure(args.measure))
    sd = _blamed(args.log, satisfaction_degrees, state, cfg, taxonomy.property_nodes())
    report = _blamed(args.input, align, args.entity, taxonomy, sd, AlignmentScheme(args.scheme))
    _printable_counts(args.input, {p.node: p.paths for p in report.per_property})
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
    _printable_counts(args.input, chosen)
    if args.format == "machine":
        return EXIT_OK, _machine(chosen)
    lines = [f"{node}: {count}" for node, count in sorted(chosen.items())]
    return EXIT_OK, "\n".join(lines) + "\n"


def _printable_counts(path: str, counts: dict[str, int]) -> None:
    """Refuse with exit 1, naming the first node in id order, a path count
    with more decimal digits than the interpreter converts to text."""
    for node in sorted(counts):
        try:
            str(counts[node])
        except ValueError:
            raise _Fail(EXIT_INVALID, f"{path}: path count of {node!r} has more than "
                                      f"{sys.get_int_max_str_digits()} digits") from None


def _cmd_export_dot(args) -> tuple[int, str]:
    dot = export_dot(_load(args.input, parse_taxonomy))
    return EXIT_OK, _machine({"dot": dot}) if args.format == "machine" else dot


# -- demo -------------------------------------------------------------------

DEMO_ENTITY = "community"
# per member: its count of each EventKind, in the enum's order
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
    for slot, kind in enumerate(EventKind):
        for member in sorted(DEMO_ACTIVITY):
            for _ in range(DEMO_ACTIVITY[member][slot]):
                lines.append(json.dumps({"kind": kind.value, "member": member, "timestamp": stamp}))
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
    general = fairness_taxonomy()
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
            "aggregator_laws": {law: found is None for law, found in laws.items()},
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
    law_text = "; ".join(f"{law} {'ok' if found is None else 'FAILED'}" for law, found in laws.items())
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


_DOMAIN = DomainConfig()  # the defaults of align's domain options
# the options every command takes, then each command's handler, help text and own options
_SHARED = {"--format": {"choices": ("text", "machine"), "default": "text",
                        "help": "output format (default: text)"},
           "--output": {"metavar": "PATH", "help": "write output to PATH instead of stdout"}}
_INPUT = {"required": True, "help": "taxonomy document"}
_COMMANDS = {
    "validate": (_cmd_validate, "check a taxonomy document's structural invariants", {"--input": _INPUT}),
    "propagate": (_cmd_propagate, "propagate importance values to a fixpoint", {"--input": _INPUT}),
    "coherence": (_cmd_coherence, "verify parent/children importance coherence", {"--input": _INPUT}),
    "context": (_cmd_context, "build a context-based taxonomy", {
        "--input": {**_INPUT, "help": "general taxonomy document"},
        "--context": {"required": True, "help": "context document"},
        "--strategy": {"choices": tuple(_STRATEGIES),
                       "help": "override the context's selection strategy"},
        "--threshold": {"type": float, "help": "override the positive-selection threshold"}}),
    "align": (_cmd_align, "score behaviour from an event log against a taxonomy", {
        "--input": {**_INPUT, "help": "taxonomy document (context-based)"},
        "--log": {"required": True, "help": "event log (one JSON record per line)"},
        "--entity": {"default": "community",
                     "help": "name of the report; the score is the mean over all members"},
        "--scheme": {"choices": tuple(s.value for s in AlignmentScheme),
                     "default": AlignmentScheme.MEAN_WEIGHTED.value},
        "--max-r": {"type": float, "default": _DOMAIN.max_ratio, "dest": "max_r",
                    "help": "ratio mapped to full satisfaction (default %(default)g)"},
        "--epsilon": {"type": float, "default": _DOMAIN.epsilon,
                      "help": "distribution imbalance tolerated before dissatisfaction "
                              "(default %(default)g)"},
        "--max-delta": {"type": float, "default": _DOMAIN.max_delta, "dest": "max_delta",
                        "help": "imbalance mapped to full dissatisfaction (default %(default)g)"},
        "--measure": {"choices": tuple(m.value for m in Measure),
                      "default": _DOMAIN.difference_measure.value,
                      "help": "distribution difference measure (default %(default)s)"}}),
    "paths": (_cmd_paths, "count root-to-node paths", {
        "--input": _INPUT, "--node": {"help": "single node to count (default: all property nodes)"}}),
    "export-dot": (_cmd_export_dot, "render a taxonomy as a DOT digraph", {"--input": _INPUT}),
    "demo": (_cmd_demo, "run the embedded mutual-aid community example", {}),
}


def _command(cmd: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``cmd`` with the options every command shares and those of the command ``name``."""
    handler, _, options = _COMMANDS[name]
    for flag, settings in {**_SHARED, **options}.items():
        cmd.add_argument(flag, **settings)
    cmd.set_defaults(command=name, handler=handler)
    return cmd


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valuetax",
        description="Value taxonomies: validation, importance propagation, "
                    "context building, and behaviour alignment scoring.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _command(sub.add_parser(name, help=help_text), name)
    return parser


def _arguments(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by the parser of the command it names alone. The full parser,
    which words every refusal, parses it if it names no command or leaves arguments over."""
    if argv and argv[0] in _COMMANDS:
        parser = _command(argparse.ArgumentParser(prog=f"valuetax {argv[0]}"), argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return _parser().parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    """Run the command ``argv`` names (by default the process's arguments); returns its exit code.

    The cyclic garbage collector is paused for the whole command, argument
    parsing included, and the caller's setting is restored on every way out.
    A command builds many containers and holds them until it ends, which
    starts collector passes that free next to nothing: with the edge set still
    stored, a ``context`` command on the benchmark's 4,001-node input ran 43
    young and 3 middle passes (Python 3.10 and 3.11; 30 on 3.12, 12 on 3.13) that
    freed 47 objects, and pausing them saved 2.3 to 3.9 ms, 5 to 8 % of the
    command, on 3.10 to 3.13. Reference counting frees everything else as
    before; after any golden command ``gc.collect()`` finds at most 133 objects
    in cycles, which the caller's next collection frees.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str]) -> int:
    args = _arguments(argv)
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

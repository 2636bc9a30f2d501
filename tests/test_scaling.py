"""Scaling guards: layers that once grew quadratically stay near-linear.

The 16k-node guard takes about 0.35 s on a 2-vCPU machine, and took about
37 s while duplicate checks scanned lists and two-means selection rescored
every cut from scratch. Its 5 s bound catches a return to quadratic work,
not machine-speed noise, as does the same bound on writing that tree back.

The propagation guards take about 1.5-3 ms on the chain and 9-10 ms on the
caterpillar (medians of 41, same machine, Python 3.11.7), and took about 1.7 s
and 2.3 s while propagation swept every node once per pass until nothing
changed; the 1 s bounds catch a return to one full sweep per level. The
chain needs no default, so it never walks up for the default rules' flags,
which took about a quarter of its time when every run walked for them.
Each of its values is an up-mean, which is not verified again; verifying
each took it to about 2.5-5 ms.

The diamond ladder of 1,100 layers has 2 ** 1100 paths to each property
node. ``paths`` prints those counts and ``align --scheme path`` refuses the
contributions past the float range, in about 30 ms each against a 1 s bound:
the path-weighted sums are exact, over integers of about 1,100 bits.

The 200k-event guard folds its log from the open file in about 0.19-0.21 s
(medians of 9, same machine, Python 3.11.7; about 0.24 s in the same spell
while lines were read a few hundred at a time), against about 0.46 s for
``parse_event_log`` plus ``ingest`` over the whole file read into one string,
which keeps every record.

The work budgets count calls or bytes instead of timing them, so they hold on
any host: the Kahn pass and ``validate`` run once per checked construction and
once per command, and never for a propagation result or a context subgraph,
which take their input's structure; a canonical log folds in whole reads of
8,192 characters, with no line decoded on its own; each member's ratio degree
is evaluated once per ratio property; propagation pops its worklist at most
twice per node and edge; a ``context`` command's traced peak stays within 1.5
times that of decoding its taxonomy document; and an ``align`` command's within
1.45 times the traced size of the state it builds, which holds one string per
member name. Writing, propagating, counting paths, checking coherence and
taking an upward-closed subgraph read no edges and copy no order: they read the
adjacency maps and the parents-first order the constructor keeps, and the
edges are a property read from the children map, which no command reads. A
``validate`` call also takes the list of edges given with an unknown endpoint,
so the budget counts its calls, whatever their arguments. A well-formed
command builds only its own argparse parser; building every command's took ten
parsers, about 1 ms a command.

The 16 MB record-line guard folds a line that spans about 2,000 reads in about
0.13-0.19 s: the reads' pieces are joined once, when the newline arrives. A
carry that copies itself on each read, such as ``rest = "".join((rest,
chunk))``, took about 3.4 s on that line, and its time grows with the square
of the line's length. CPython resizes ``rest += chunk`` in place when nothing
else holds ``rest``, which keeps it about as fast as the joined pieces, so the
1 s bound catches a copying carry, not that one.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import random
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from valuetax import (
    KMEANS_SELECTION,
    OFFER_RATIO,
    TASK_BALANCE,
    VOLUNTEER_RATIO,
    CommunityState,
    DomainConfig,
    EventKind,
    ValueTaxonomy,
    all_paths_counts,
    build_context_taxonomy,
    check_coherence,
    export_dot,
    fairness_taxonomy,
    ingest_event_log,
    label_node,
    parse_context,
    parse_taxonomy,
    propagate,
    satisfaction_degrees,
    select_nodes,
    serialize_taxonomy,
)
from valuetax import cli, io_formats, mutual_aid
from valuetax import taxonomy as taxonomy_module
from valuetax.cli import main
from valuetax.propagation import _Run

from conftest import bench_workloads, diamond_ladder, saturating_log

GOLDEN = Path(__file__).resolve().parent / "golden"


def tree_document(internal: int, rng: random.Random) -> str:
    """A 4-ary tree of ``4 * internal + 1`` nodes whose valued leaves are
    property nodes, with nodes and edges in shuffled file order."""
    count = 4 * internal + 1
    nodes = [{"id": f"t{i:05d}", "kind": "label"} for i in range(internal)]
    nodes += [{"id": f"t{i:05d}", "kind": "property", "importance": rng.uniform(-1.0, 1.0)}
              for i in range(internal, count)]
    edges = [{"parent": f"t{(i - 1) // 4:05d}", "child": f"t{i:05d}"} for i in range(1, count)]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return json.dumps({"schema_version": 1, "nodes": nodes, "edges": edges})


def test_16k_node_parse_and_two_means_selection_stay_fast():
    text = tree_document(4000, random.Random(16))
    started = time.perf_counter()
    taxonomy = parse_taxonomy(text)
    selected = select_nodes(taxonomy.importance, KMEANS_SELECTION)
    elapsed = time.perf_counter() - started
    assert len(taxonomy) == 16001
    assert 0 < len(selected) < 12001
    assert elapsed < 5.0, f"16k-node parse and selection took {elapsed:.2f}s"


def test_16k_node_serialization_stays_fast():
    taxonomy = parse_taxonomy(tree_document(4000, random.Random(16)))
    started = time.perf_counter()
    text = serialize_taxonomy(taxonomy)
    elapsed = time.perf_counter() - started
    assert text.count('"kind"') == 16001
    assert elapsed < 5.0, f"16k-node serialization took {elapsed:.2f}s"


def timed_propagate(taxonomy: ValueTaxonomy):
    started = time.perf_counter()
    result = propagate(taxonomy)
    return result, time.perf_counter() - started


def chain() -> ValueTaxonomy:
    names = [f"c{i:04d}" for i in range(1000)]
    edges = [(names[i], names[i + 1]) for i in range(999)]
    return ValueTaxonomy.build([label_node(n) for n in names], edges, {names[-1]: 0.25})


def caterpillar() -> ValueTaxonomy:
    # spine s0000 -> ... -> s0999, each spine node but the last with a leaf;
    # the partial mean climbs one spine node per round
    spine = [f"s{i:04d}" for i in range(1000)]
    leaves = [f"l{i:04d}" for i in range(999)]
    edges = [(spine[i], spine[i + 1]) for i in range(999)]
    edges += [(spine[i], leaves[i]) for i in range(999)]
    return ValueTaxonomy.build([label_node(n) for n in spine + leaves], edges, {spine[-1]: -0.5})


def test_1000_node_chain_propagates_in_one_round():
    result, elapsed = timed_propagate(chain())
    assert result.iterations == 1
    assert result.taxonomy.importance["c0000"] == pytest.approx(0.25, abs=1e-12)
    assert elapsed < 1.0, f"1000-node chain propagation took {elapsed:.2f}s"


def test_1999_node_caterpillar_climbs_one_round_per_level():
    result, elapsed = timed_propagate(caterpillar())
    assert result.iterations == 1000
    assert len(result.assigned) == 1998
    assert set(result.taxonomy.importance.values()) == {-0.5}
    assert elapsed < 1.0, f"1999-node caterpillar propagation took {elapsed:.2f}s"


@pytest.mark.parametrize("build, walks", [(chain, 0), (caterpillar, 1999)],
                         ids=["chain", "caterpillar"])
def test_flags_for_the_defaults_are_walked_only_when_a_default_can_fire(monkeypatch, build, walks):
    # The chain's first closure values every node, so no default has a
    # candidate and the flags are never built. The caterpillar needs a default
    # in its first round: the flags are built from its one given value, then
    # kept up to date from each of its 1,998 assignments, one walk per node.
    calls = []
    original = _Run.flag_ancestors

    def counted(run, node):
        calls.append(node)
        return original(run, node)
    monkeypatch.setattr(_Run, "flag_ancestors", counted)
    taxonomy = build()
    propagate(taxonomy)
    assert len(calls) == walks <= len(taxonomy)


@pytest.mark.parametrize("build, checks", [(chain, 0), (caterpillar, 999)],
                         ids=["chain", "caterpillar"])
def test_a_mean_just_taken_is_not_verified_again(monkeypatch, build, checks):
    # Every value on the chain is an up-mean, so nothing is left to verify;
    # verifying each again took 999 checks. The caterpillar's 999 spine nodes
    # above the given one are valued by the partial-mean default, together
    # with their leaves, and each is verified once in the closure that follows.
    calls = []
    original = _Run.verify

    def counted(run, node, value, kids):
        calls.append(node)
        return original(run, node, value, kids)
    monkeypatch.setattr(_Run, "verify", counted)
    propagate(build())
    assert len(calls) == checks


def propagate_deep(scale: str) -> ValueTaxonomy:
    """The benchmark's ``propagate-deep`` taxonomy at ``scale``, seed 4242."""
    with tempfile.TemporaryDirectory() as out:
        bench_workloads().generate("propagate-deep", 4242, scale, out)
        return parse_taxonomy((Path(out) / "taxonomy.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("build", [chain, caterpillar, lambda: propagate_deep("tiny"),
                                   lambda: propagate_deep("quarter")],
                         ids=["chain", "caterpillar", "propagate-deep-tiny", "propagate-deep-quarter"])
def test_worklist_pops_stay_within_twice_the_nodes_and_edges(monkeypatch, build):
    # Each node is popped once from the seeded order and once more per enqueue:
    # an assignment enqueues each parent, a down-single or default its node, and
    # each node is assigned at most once, so the pops stay within nodes + edges
    # beyond the seed. A round that re-seeds every node breaks the budget on the
    # caterpillar's 1,000 rounds.
    taxonomy = build()
    enqueued = []
    original = _Run.enqueue

    def counted(run, node):
        enqueued.append(node)
        return original(run, node)
    monkeypatch.setattr(_Run, "enqueue", counted)
    propagate(taxonomy)
    assert len(taxonomy) + len(enqueued) <= 2 * (len(taxonomy) + len(taxonomy.edges))


@pytest.fixture
def kahn_passes(monkeypatch) -> list[int]:
    """The node count of each Kahn pass run from now on."""
    passes = []
    original = taxonomy_module._kahn_order

    def counted(children, parents):
        passes.append(len(parents))
        return original(children, parents)
    monkeypatch.setattr(taxonomy_module, "_kahn_order", counted)
    return passes


def test_structure_is_derived_once_per_checked_construction(kahn_passes):
    taxonomy = caterpillar()
    assert kahn_passes == [1999]
    result = propagate(taxonomy).taxonomy
    assert len(result.importance) == len(result) and kahn_passes == [1999]
    general = parse_taxonomy((GOLDEN / "context-wide-general-taxonomy.json").read_text(encoding="utf-8"))
    ctx = parse_context((GOLDEN / "context-wide-spec.json").read_text(encoding="utf-8"))
    built = build_context_taxonomy(general, ctx.with_selection(KMEANS_SELECTION))
    assert 1 < len(built) < len(general)
    assert kahn_passes == [1999, len(general)]


# each command once, run from tests/golden with its expected exit code
EVERY_COMMAND = pytest.mark.parametrize("argv, code", [
    (("validate", "--input", "node-text-taxonomy.json"), 0),
    (("propagate", "--input", "propagate-deep-taxonomy.json"), 0),
    (("coherence", "--input", "incoherent-taxonomy.json"), 2),
    (("context", "--input", "context-wide-general-taxonomy.json", "--context", "context-wide-spec.json",
      "--strategy", "kmeans2"), 0),
    (("align", "--input", "align-taxonomy.json", "--log", "align-mixed-log.jsonl"), 0),
    (("paths", "--input", "node-text-taxonomy.json"), 0),
    (("export-dot", "--input", "node-text-taxonomy.json"), 0),
    (("demo",), 0),
], ids=lambda value: value[0] if isinstance(value, tuple) else None)


@EVERY_COMMAND
def test_a_command_derives_and_validates_structure_once(capsys, monkeypatch, kahn_passes, argv, code):
    # the one pass and the one validation are over the command's input taxonomy, or
    # the demo's general one; a propagation result or a context subgraph takes its structure
    validations = []
    original = taxonomy_module.validate

    def counted(*args):
        validations.append(len(args[0]))
        return original(*args)
    monkeypatch.setattr(taxonomy_module, "validate", counted)
    monkeypatch.chdir(GOLDEN)
    assert main([argv[0], "--format", "machine", *argv[1:]]) == code
    assert capsys.readouterr().out
    assert len(validations) == 1 and kahn_passes == validations
    if "--input" in argv:
        document = GOLDEN / argv[argv.index("--input") + 1]
        assert validations == [len(json.loads(document.read_text(encoding="utf-8"))["nodes"])]


@EVERY_COMMAND
def test_a_command_reads_no_edges(capsys, monkeypatch, edge_reads, argv, code):
    # the edges are read from the children map, and no command path builds or filters them
    monkeypatch.chdir(GOLDEN)
    assert main([argv[0], "--format", "machine", *argv[1:]]) == code
    assert capsys.readouterr().out
    assert edge_reads == []


@pytest.mark.parametrize("argv", [
    ("propagate", "--input", "propagate-deep-taxonomy.json"),
    ("context", "--input", "context-wide-general-taxonomy.json", "--context", "context-wide-spec.json",
     "--strategy", "kmeans2"),
    ("align", "--input", "align-taxonomy.json", "--log", "align-mixed-log.jsonl"),
], ids=lambda argv: argv[0])
def test_a_well_formed_command_builds_only_its_own_parser(capsys, monkeypatch, argv):
    # Building every command's parser took ten (the top-level one, a parent of
    # the shared options and eight commands'), which each console-script call paid.
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.chdir(GOLDEN)
    assert main([argv[0], "--format", "machine", *argv[1:]]) == 0
    assert capsys.readouterr().out
    assert len(built) <= 2, f"{len(built)} parsers built: {built}"


@pytest.fixture
def edge_reads(monkeypatch) -> list[int]:
    """The node count of each taxonomy whose edges are read from now on."""
    reads = []
    read = ValueTaxonomy.edges.fget

    def counted(taxonomy):
        reads.append(len(taxonomy))
        return read(taxonomy)
    monkeypatch.setattr(ValueTaxonomy, "edges", property(counted))
    return reads


def valued_fairness() -> ValueTaxonomy:
    general = fairness_taxonomy()
    return ValueTaxonomy(general.nodes, general.edges,
                         {OFFER_RATIO: 0.5, VOLUNTEER_RATIO: -0.25, TASK_BALANCE: 0.75})


@pytest.mark.parametrize("build", [valued_fairness, lambda: propagate_deep("tiny")],
                         ids=["fairness", "propagate-deep-tiny"])
def test_structure_readers_take_the_adjacency_and_order_the_constructor_keeps(monkeypatch, edge_reads,
                                                                             build):
    # Writing, propagating, counting paths, checking coherence and taking an
    # upward-closed subgraph read the adjacency maps and the parents-first
    # order; none reads the edges, which the children map determines, or takes
    # the copy topological_order makes for outside callers.
    taxonomy = build()
    edge_reads.clear()  # re-annotating the fairness taxonomy reads its edges
    copies = []
    original = taxonomy_module.topological_order

    def counted(t):
        copies.append(len(t))
        return original(t)
    for name, module in list(sys.modules.items()):
        if name.startswith("valuetax") and getattr(module, "topological_order", None) is original:
            monkeypatch.setattr(module, "topological_order", counted)
    serialize_taxonomy(taxonomy)
    export_dot(taxonomy)
    result = propagate(taxonomy).taxonomy
    all_paths_counts(taxonomy)
    check_coherence(result)
    subgraph = taxonomy._upward_closed(set(taxonomy.nodes), dict(taxonomy.importance))
    assert (edge_reads, copies) == ([], [])
    assert result.edges == subgraph.edges == taxonomy.edges


def wide_documents(internal: int, rng: random.Random) -> tuple[str, str]:
    """A general taxonomy shaped like the benchmark's ``context-wide`` input, and
    its context: a 4-ary tree of ``4 * internal + 1`` nodes with one more edge per
    ten tree edges from a label to a later node, ids unrelated to the structure,
    and every property node valued by the context under two-means selection."""
    count = 4 * internal + 1
    names = [f"c{k:0{len(str(count))}d}" for k in rng.sample(range(count), count)]
    edges = {(names[(i - 1) // 4], names[i]) for i in range(1, count)}
    while len(edges) < round(1.1 * (count - 1)):
        parent = rng.randrange(internal)
        edges.add((names[parent], names[rng.randrange(parent + 1, count)]))
    nodes = [{"id": name, "kind": "label" if i < internal else "property"} for i, name in enumerate(names)]
    rng.shuffle(nodes)
    edges = sorted(edges)
    rng.shuffle(edges)
    general = {"schema_version": 1, "nodes": nodes, "edges": [{"parent": p, "child": c} for p, c in edges]}
    context = {"schema_version": 1, "id": "wide", "property_importance": {
        name: rng.uniform(-1.0, 1.0) for name in names[internal:]}, "selection": {"kind": "kmeans2"}}
    return json.dumps(general), json.dumps(context)


def traced_peak(call) -> int:
    """The peak of the memory ``call()`` allocates, as tracemalloc counts it."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_size(build) -> int:
    """The memory that what ``build()`` returns holds, as tracemalloc counts it."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()  # noqa: F841  (held while the size is read)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_context_command_peaks_near_the_decoded_document(monkeypatch, tmp_path):
    # The command holds each input once, and only while it needs it: its peak is
    # about 1.2-1.3 times that of decoding its taxonomy on Python 3.10-3.13, and was
    # about 1.9 times while the decoded document lived through the build, the general
    # taxonomy through rendering, and each edge endpoint was a string of its own.
    # Holding the general taxonomy alone reads 1.38-1.54 times, too close to the
    # bound to be caught by it, so the first call checks that it is gone by then.
    general, context = wide_documents(1000, random.Random(4001))
    (tmp_path / "general.json").write_text(general, encoding="utf-8")
    (tmp_path / "context.json").write_text(context, encoding="utf-8")
    argv = ["context", "--format", "machine", "--input", str(tmp_path / "general.json"),
            "--context", str(tmp_path / "context.json"), "--output", str(tmp_path / "built.json")]
    parsed = []  # the id of the general taxonomy, which is not kept alive here

    def parse(text):
        taxonomy = parse_taxonomy(text)
        parsed.append(id(taxonomy))
        return taxonomy

    def serialize(taxonomy):
        gc.collect()
        alive = {id(o) for o in gc.get_objects() if type(o) is ValueTaxonomy}
        assert parsed[0] not in alive, "the general taxonomy is held while rendering"
        return serialize_taxonomy(taxonomy)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "parse_taxonomy", parse)
        patch.setattr(cli, "serialize_taxonomy", serialize)
        assert main(argv) == 0  # first-call costs, such as building the parser, are not traced
    command = traced_peak(lambda: main(argv))
    decoded = traced_peak(lambda: json.loads(general))
    assert command <= 1.5 * decoded, f"peak {command} bytes against {decoded} decoding the document"


def align_log(events: int, members: int, rng: random.Random) -> str:
    """An event log shaped like the benchmark's ``align-log`` input: every member
    offers and volunteers once, and the other events are drawn by kind and member."""
    names = [f"m{rng.getrandbits(40):010x}" for _ in range(members)]
    stream = [("offer", m) for m in names] + [("volunteer_chosen", m) for m in names]
    stream += zip(rng.choices([kind.value for kind in EventKind], [0.4, 0.2, 0.2, 0.2],
                              k=events - len(stream)), rng.choices(names, k=events - len(stream)))
    rng.shuffle(stream)
    return "".join(json.dumps({"kind": kind, "member": member, "timestamp": i // 4}) + "\n"
                   for i, (kind, member) in enumerate(stream))


@pytest.mark.parametrize("separators", [None, (",", ":")], ids=["canonical", "compact"])
def test_a_folded_log_holds_one_string_per_member_name(separators):
    # Each line's name is a string of its own, from the scan or the decoder; the
    # four counters once kept one each, four per name.
    names = [f"m{i}" for i in range(300)]
    records = [(kind.value, name) for name in names for kind in EventKind] * 2
    random.Random(300).shuffle(records)
    text = "".join(json.dumps({"kind": kind, "member": member, "timestamp": 0}, separators=separators)
                   + "\n" for kind, member in records)
    state = ingest_event_log(io.StringIO(text))
    counters = (state.requests, state.offers, state.volunteering, state.task_distribution)
    assert all(len(counter) == len(names) for counter in counters)
    assert state.members == tuple(sorted(names))
    assert len({id(m) for m in (*state.members, *(m for counter in counters for m in counter))}) == len(names)


def test_align_command_peaks_near_the_state_it_builds(tmp_path):
    # The fold hands its counters over uncopied, the member tuple comes from a
    # dict that grows to the distinct names, and the task measure divides its
    # probabilities out lazily: one command's peak is 1.25-1.32 times the traced
    # size of the state it builds on Python 3.10-3.13. It was 1.65-1.75 times
    # while each counter kept its own strings, the state copied them and the
    # members came from a set union sized for every counter's entries. Copying
    # alone reads 1.73-1.84, the set union alone 1.82-2.11 and lists of
    # probabilities alone 1.54-1.75. Strings of their own alone read 1.11-1.15,
    # as the state grows with them; the test above catches those.
    log, built = tmp_path / "events.jsonl", tmp_path / "built.json"
    log.write_text(align_log(60_000, 5_000, random.Random(60)), encoding="utf-8")
    taxonomy = build_context_taxonomy(fairness_taxonomy(), cli.demo_contexts()["alignment-example"])
    built.write_text(serialize_taxonomy(taxonomy), encoding="utf-8")
    argv = ["align", "--format", "machine", "--input", str(built), "--log", str(log),
            "--output", str(tmp_path / "out.json")]
    assert main(argv) == 0  # first-call costs, such as building the parser, are not traced
    command = traced_peak(lambda: main(argv))

    def state():
        with open(log, encoding="utf-8") as handle:
            return ingest_event_log(handle)
    held = traced_size(state)
    assert command <= 1.45 * held, f"peak {command} bytes against a state of {held}"


class CountedReads(io.StringIO):
    def __init__(self, text: str):
        super().__init__(text)
        self.reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


@pytest.mark.parametrize("events, first, shuffled", [
    pytest.param(3_000, 0, False, id="3000"),
    pytest.param(30_000, 0, False, id="30000"),
    # timestamps cross from 17 digits to 18 inside a read
    pytest.param(3_000, 10 ** 17 - 500, False, id="3000-from-17-digits-to-18"),
    # timestamps in no order, widths crossing up and down: the reads are the same
    pytest.param(3_000, 10 ** 17 - 500, True, id="3000-shuffled-timestamps"),
])
def test_a_canonical_log_folds_in_whole_reads_with_no_line_decoded(monkeypatch, events, first, shuffled):
    decoded = []
    original = io_formats._line_records

    def counted(lines, first_lineno):
        lines = list(lines)
        decoded.extend(lines)
        return (yield from original(lines, first_lineno))
    monkeypatch.setattr(io_formats, "_line_records", counted)
    rng = random.Random(events)
    kinds = [kind.value for kind in EventKind]
    timestamps = [first + i // 3 for i in range(events)]
    if shuffled:
        rng.shuffle(timestamps)
    text = "".join(json.dumps({"kind": rng.choice(kinds), "member": f"m{rng.randrange(500)}",
                               "timestamp": timestamp}) + "\n" for timestamp in timestamps)
    stream = CountedReads(text)
    state = ingest_event_log(stream)
    counters = (state.requests, state.offers, state.volunteering, state.task_distribution)
    assert sum(sum(counter.values()) for counter in counters) == events
    assert decoded == []
    assert stream.reads == math.ceil(len(text) / 8192) + 1


@pytest.mark.parametrize("members", [40, 400])
def test_each_member_is_scored_once_per_ratio_property(monkeypatch, members):
    calls = Counter()
    for name in ("sd_offer_ratio", "sd_volunteer_ratio"):
        def counted(state, member, cfg, original=getattr(mutual_aid, name), name=name):
            calls[name] += 1
            return original(state, member, cfg)
        monkeypatch.setattr(mutual_aid, name, counted)
    names = [f"m{i}" for i in range(members)]
    state = CommunityState({m: i % 5 for i, m in enumerate(names)}, {m: 2 for m in names},
                           {m: 1 + i % 3 for i, m in enumerate(names)}, {m: 1 for m in names[::3]})
    degrees = satisfaction_degrees(state, DomainConfig(), [OFFER_RATIO, VOLUNTEER_RATIO, TASK_BALANCE])
    assert set(degrees) == {OFFER_RATIO, VOLUNTEER_RATIO, TASK_BALANCE}
    assert calls == {"sd_offer_ratio": members, "sd_volunteer_ratio": members}


@pytest.fixture(scope="module")
def ladder_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ladder") / "ladder.json"
    path.write_text(serialize_taxonomy(diamond_ladder(1100)), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def saturating_log_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("log") / "events.jsonl"
    path.write_text(saturating_log(), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command, code", [
    (("paths",), 0), (("align", "--scheme", "path", "--max-r", "2"), 1)], ids=["paths", "align"])
def test_1100_layer_diamond_ladder_paths_and_path_scores_stay_fast(
        capsys, ladder_file, saturating_log_file, command, code):
    argv = [*command, "--input", ladder_file]
    if command[0] == "align":
        argv += ["--log", saturating_log_file]
    started = time.perf_counter()
    assert main(argv) == code
    elapsed = time.perf_counter() - started
    out, err = capsys.readouterr()
    if code:
        assert err.endswith("path-weighted contribution of 'offer_ratio' is past the float range\n")
    else:
        assert f"offer_ratio: {2 ** 1100}" in out
    assert elapsed < 1.0, f"{command[0]} on a 1,100-layer diamond ladder took {elapsed:.2f}s"


def test_200k_event_log_folds_fast(tmp_path):
    rng = random.Random(200)
    kinds = [kind.value for kind in EventKind]
    members = [f"m{i:04d}" for i in range(5000)]
    path = tmp_path / "events.jsonl"
    path.write_text("".join(
        f'{{"kind": "{rng.choice(kinds)}", "member": "{rng.choice(members)}", '
        f'"timestamp": {i // 4}}}\n' for i in range(200_000)), encoding="utf-8")
    started = time.perf_counter()
    with open(path, encoding="utf-8") as handle:
        state = ingest_event_log(handle)
    elapsed = time.perf_counter() - started
    counters = (state.requests, state.offers, state.volunteering, state.task_distribution)
    assert sum(sum(counter.values()) for counter in counters) == 200_000
    assert len(state.members) == 5000
    assert elapsed < 5.0, f"folding 200k events took {elapsed:.2f}s"


def test_16_mb_record_line_folds_fast(tmp_path):
    member = "m" * 16_000_000  # about 2,000 reads of 8,192 characters
    path = tmp_path / "events.jsonl"
    path.write_text(f'{{"kind": "offer", "member": "a", "timestamp": 0}}\n'
                    f'{{"kind": "offer", "member": "{member}", "timestamp": 1}}\n', encoding="utf-8")
    started = time.perf_counter()
    with open(path, encoding="utf-8") as handle:
        state = ingest_event_log(handle)
    elapsed = time.perf_counter() - started
    assert dict(state.offers) == {"a": 1, member: 1}
    assert elapsed < 1.0, f"folding a 16 MB record line took {elapsed:.2f}s"

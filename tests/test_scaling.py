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

The work budgets count calls instead of timing them, so they hold on any
host: the Kahn pass runs once per checked construction, and never for a
propagation result or a context subgraph, which take their input's structure;
a canonical log folds in whole reads of 8,192 characters, with no line
decoded on its own; and each member's ratio degree is evaluated once per
ratio property.

The 16 MB record-line guard folds a line that spans about 2,000 reads in about
0.13-0.19 s: the reads' pieces are joined once, when the newline arrives. A
carry that copies itself on each read, such as ``rest = "".join((rest,
chunk))``, took about 3.4 s on that line, and its time grows with the square
of the line's length. CPython resizes ``rest += chunk`` in place when nothing
else holds ``rest``, which keeps it about as fast as the joined pieces, so the
1 s bound catches a copying carry, not that one.
"""

from __future__ import annotations

import io
import json
import math
import random
import time
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
    build_context_taxonomy,
    ingest_event_log,
    label_node,
    parse_context,
    parse_taxonomy,
    propagate,
    satisfaction_degrees,
    select_nodes,
    serialize_taxonomy,
)
from valuetax import io_formats, mutual_aid
from valuetax import taxonomy as taxonomy_module
from valuetax.cli import main
from valuetax.propagation import _Run

from conftest import diamond_ladder, saturating_log

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


@pytest.mark.parametrize("command, document, options", [
    ("propagate", "propagate-deep-taxonomy.json", ()),
    ("context", "context-wide-general-taxonomy.json", ("--context", "context-wide-spec.json",
                                                        "--strategy", "kmeans2")),
], ids=["propagate", "context"])
def test_a_command_derives_structure_once(capsys, monkeypatch, kahn_passes, command, document, options):
    # the one pass is over the input document; the command's result takes its structure
    monkeypatch.chdir(GOLDEN)
    assert main([command, "--format", "machine", "--input", document, *options]) == 0
    assert capsys.readouterr().out
    nodes = json.loads((GOLDEN / document).read_text(encoding="utf-8"))["nodes"]
    assert kahn_passes == [len(nodes)]


class CountedReads(io.StringIO):
    def __init__(self, text: str):
        super().__init__(text)
        self.reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


@pytest.mark.parametrize("events", [3_000, 30_000])
def test_a_canonical_log_folds_in_whole_reads_with_no_line_decoded(monkeypatch, events):
    decoded = []
    original = io_formats._line_records

    def counted(lines, first_lineno, last_timestamp):
        lines = list(lines)
        decoded.extend(lines)
        return (yield from original(lines, first_lineno, last_timestamp))
    monkeypatch.setattr(io_formats, "_line_records", counted)
    rng = random.Random(events)
    kinds = [kind.value for kind in EventKind]
    text = "".join(json.dumps({"kind": rng.choice(kinds), "member": f"m{rng.randrange(500)}",
                               "timestamp": i // 3}) + "\n" for i in range(events))
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

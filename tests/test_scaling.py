"""Scaling guards: layers that once grew quadratically stay near-linear.

The 16k-node guard takes about 0.35 s on a 2-vCPU machine, and took about
37 s while duplicate checks scanned lists and two-means selection rescored
every cut from scratch. Its 5 s bound catches a return to quadratic work,
not machine-speed noise, as does the same bound on writing that tree back.

The propagation guards take about 3-5 ms on the chain and 9-10 ms on the
caterpillar (medians of 9, same machine, Python 3.11.7), and took about 1.7 s
and 2.3 s while propagation swept every node once per pass until nothing
changed; the 1 s bounds catch a return to one full sweep per level. The
chain needs no default, so it never walks up for the default rules' flags,
which took about a quarter of its time when every run walked for them.

The diamond ladder of 1,100 layers has 2 ** 1100 paths to each property
node. ``paths`` prints those counts and ``align --scheme path`` refuses the
contributions past the float range, in about 30 ms each against a 1 s bound:
the path-weighted sums are exact, over integers of about 1,100 bits.

The 200k-event guard folds its log from the open file in about 0.19-0.21 s
(medians of 9, same machine, Python 3.11.7; about 0.24 s in the same spell
while lines were read a few hundred at a time), against about 0.46 s for
``parse_event_log`` plus ``ingest`` over the whole file read into one string,
which keeps every record.

The 16 MB record-line guard folds a line that spans about 2,000 reads in about
0.13-0.19 s: the reads' pieces are joined once, when the newline arrives. A
carry that copies itself on each read, such as ``rest = "".join((rest,
chunk))``, took about 3.4 s on that line, and its time grows with the square
of the line's length. CPython resizes ``rest += chunk`` in place when nothing
else holds ``rest``, which keeps it about as fast as the joined pieces, so the
1 s bound catches a copying carry, not that one.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from valuetax import (
    KMEANS_SELECTION,
    EventKind,
    ValueTaxonomy,
    ingest_event_log,
    label_node,
    parse_taxonomy,
    propagate,
    select_nodes,
    serialize_taxonomy,
)
from valuetax.cli import main
from valuetax.propagation import _Run

from conftest import diamond_ladder, saturating_log


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

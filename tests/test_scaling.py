"""Scaling guards: layers that once grew quadratically stay near-linear.

The 16k-node guard takes about 0.35 s on a 2-vCPU machine, and took about
37 s while duplicate checks scanned lists and two-means selection rescored
every cut from scratch. Its 5 s bound catches a return to quadratic work,
not machine-speed noise, as does the same bound on writing that tree back.

The propagation guards took about 1.7 s and 2.3 s while propagation swept
every node once per pass until nothing changed; the 1 s bounds catch a
return to one full sweep per level.

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


def test_1000_node_chain_propagates_in_one_round():
    names = [f"c{i:04d}" for i in range(1000)]
    edges = [(names[i], names[i + 1]) for i in range(999)]
    chain = ValueTaxonomy.build([label_node(n) for n in names], edges, {names[-1]: 0.25})
    result, elapsed = timed_propagate(chain)
    assert result.iterations == 1
    assert result.taxonomy.importance[names[0]] == pytest.approx(0.25, abs=1e-12)
    assert elapsed < 1.0, f"1000-node chain propagation took {elapsed:.2f}s"


def test_1999_node_caterpillar_climbs_one_round_per_level():
    # spine s0000 -> ... -> s0999, each spine node but the last with a leaf;
    # the partial mean climbs one spine node per round
    spine = [f"s{i:04d}" for i in range(1000)]
    leaves = [f"l{i:04d}" for i in range(999)]
    edges = [(spine[i], spine[i + 1]) for i in range(999)]
    edges += [(spine[i], leaves[i]) for i in range(999)]
    caterpillar = ValueTaxonomy.build(
        [label_node(n) for n in spine + leaves], edges, {spine[-1]: -0.5})
    result, elapsed = timed_propagate(caterpillar)
    assert result.iterations == 1000
    assert len(result.assigned) == 1998
    assert set(result.taxonomy.importance.values()) == {-0.5}
    assert elapsed < 1.0, f"1999-node caterpillar propagation took {elapsed:.2f}s"


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

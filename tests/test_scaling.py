"""Scaling guards: layers that once grew quadratically stay near-linear.

The 16k-node guard takes about 0.35 s on a 2-vCPU machine, and took about
37 s while duplicate checks scanned lists and two-means selection rescored
every cut from scratch. Its 5 s bound catches a return to quadratic work,
not machine-speed noise.
"""

from __future__ import annotations

import json
import random
import time

from valuetax import KMEANS_SELECTION, parse_taxonomy, select_nodes


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

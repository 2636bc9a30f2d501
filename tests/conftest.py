"""Shared fixtures: the community fairness example, random structure
generators, and independent oracles the implementation is checked against.

The oracles deliberately avoid the library's own propagation and counting
paths: subtree means are computed by direct recursion, path counts by
explicit path enumeration, and alignment scores by the literal weighted
average formula.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import strategies as st

from valuetax import (
    ContextSpec,
    Node,
    SelectionKind,
    ValueTaxonomy,
    fairness_taxonomy,
    label_node,
    property_node,
)

OFFER_RATIO = "offer_ratio"
VOLUNTEER_RATIO = "volunteer_ratio"
TASK_BALANCE = "task_balance"


@pytest.fixture
def fairness() -> ValueTaxonomy:
    return fairness_taxonomy()


@pytest.fixture
def context_c() -> ContextSpec:
    return ContextSpec(
        "community-c",
        property_importance={OFFER_RATIO: 0.8, VOLUNTEER_RATIO: 0.0, TASK_BALANCE: 0.7},
    )


@pytest.fixture
def context_c_prime() -> ContextSpec:
    return ContextSpec(
        "elder-support",
        property_importance={OFFER_RATIO: -0.5, VOLUNTEER_RATIO: -0.5, TASK_BALANCE: 0.9},
    )


def context_c_fragment(leaf_values=(0.8, 0.7)) -> ValueTaxonomy:
    """The subgraph of the fairness example leading to the two properties
    kept by the first community context, with only the leaves valued."""
    p1, p3 = leaf_values
    nodes = [
        label_node("fairness"),
        label_node("reciprocity"),
        label_node("give_take", "balanced give & take"),
        label_node("equal_treatment", "equal treatment"),
        label_node("workload_split", "equal division of workload"),
        property_node(OFFER_RATIO),
        property_node(TASK_BALANCE),
    ]
    edges = [
        ("fairness", "reciprocity"),
        ("fairness", "equal_treatment"),
        ("reciprocity", "give_take"),
        ("give_take", OFFER_RATIO),
        ("equal_treatment", "workload_split"),
        ("workload_split", TASK_BALANCE),
    ]
    return ValueTaxonomy.build(nodes, edges, {OFFER_RATIO: p1, TASK_BALANCE: p3})


# -- random structure generators ---------------------------------------------


def random_tree(rng: random.Random, max_nodes: int = 50,
                assign_leaves: bool = True) -> ValueTaxonomy:
    """A random rooted tree of label nodes; leaves carry uniform importances."""
    n = rng.randint(2, max_nodes)
    names = [f"n{i:02d}" for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    has_child = {p for p, _ in edges}
    importance = {}
    if assign_leaves:
        importance = {name: rng.uniform(-1.0, 1.0) for name in names if name not in has_child}
    return ValueTaxonomy.build([label_node(name) for name in names], edges, importance)


def random_taxonomy(rng: random.Random, max_nodes: int = 14,
                    max_property_nodes: int = 12,
                    extra_edge_prob: float = 0.2,
                    importance_prob: float = 0.5,
                    all_property_importance: bool = False) -> ValueTaxonomy:
    """A random valid DAG taxonomy.

    Edges only point from earlier label nodes to later nodes, which makes
    the result acyclic with leaf-restricted property nodes by construction.
    """
    n = rng.randint(1, max_nodes)
    nodes = [label_node("n00", f"label {rng.randrange(100)}")]
    property_count = 0
    for i in range(1, n):
        name = f"n{i:02d}"
        if property_count < max_property_nodes and rng.random() < 0.4:
            nodes.append(property_node(name, f"prop_{name}"))
            property_count += 1
        else:
            nodes.append(label_node(name))
    label_ids = [node.id for node in nodes if node.kind.value == "label"]
    edges = set()
    for i in range(1, n):
        candidates = [lid for lid in label_ids if lid < nodes[i].id]
        if not candidates:
            continue
        edges.add((rng.choice(candidates), nodes[i].id))
        for parent in candidates:
            if rng.random() < extra_edge_prob:
                edges.add((parent, nodes[i].id))
    importance = {}
    for node in nodes:
        if all_property_importance and node.kind.value == "property":
            importance[node.id] = rng.uniform(-1.0, 1.0)
        elif not all_property_importance and rng.random() < importance_prob:
            importance[node.id] = rng.uniform(-1.0, 1.0)
    return ValueTaxonomy.build(nodes, sorted(edges), importance)


def relabelled(t: ValueTaxonomy, relabel: dict[str, str]) -> ValueTaxonomy:
    """``t`` with every node id renamed through ``relabel``."""
    return ValueTaxonomy.build(
        [Node(relabel[n], node.kind, node.text)
         for n, node in sorted(t.nodes.items())],
        [(relabel[p], relabel[c]) for p, c in t.edges],
        {relabel[n]: v for n, v in t.importance.items()},
    )


def diamond_ladder(layers: int) -> ValueTaxonomy:
    """A root over ``layers`` layers of two label nodes, each node pointing to
    both nodes of the next layer, and the ``offer_ratio`` and
    ``volunteer_ratio`` property nodes, of importance 1, under the last layer:
    each property is reached by ``2 ** layers`` paths."""
    rungs = [("root",)] + [(f"a{i:04d}", f"b{i:04d}") for i in range(1, layers + 1)]
    rungs.append((OFFER_RATIO, VOLUNTEER_RATIO))
    nodes = [label_node(n) for rung in rungs[:-1] for n in rung]
    nodes += [property_node(OFFER_RATIO), property_node(VOLUNTEER_RATIO)]
    edges = [(p, c) for upper, lower in zip(rungs, rungs[1:]) for p in upper for c in lower]
    return ValueTaxonomy.build(nodes, edges, {OFFER_RATIO: 1.0, VOLUNTEER_RATIO: 1.0})


def saturating_log() -> str:
    """An event log in which, with ``--max-r 2``, both ratio properties have
    satisfaction degree 1."""
    kinds = ["request", "request", "offer", "volunteer_chosen", "task_assigned"]
    return "".join(json.dumps({"kind": kind, "member": "a", "timestamp": stamp}) + "\n"
                   for stamp, kind in enumerate(kinds))


importance_values = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def taxonomies(draw, max_nodes: int = 10, leaf_importance_only: bool = False):
    """Hypothesis strategy for valid taxonomies.

    Parents are always earlier label nodes, which keeps the graph acyclic and
    property nodes at the leaves by construction. With ``leaf_importance_only``
    the result is a tree whose leaves are all valued and interior nodes are
    not, the shape propagation expects.
    """
    n = draw(st.integers(min_value=1 if not leaf_importance_only else 2, max_value=max_nodes))
    nodes = [label_node("n00")]
    for i in range(1, n):
        name = f"n{i:02d}"
        if not leaf_importance_only and draw(st.booleans()):
            nodes.append(property_node(name))
        else:
            nodes.append(label_node(name))
    label_ids = [node.id for node in nodes if node.kind.value == "label"]
    edges = set()
    for i in range(1, n):
        candidates = [lid for lid in label_ids if lid < nodes[i].id]
        if not candidates:
            continue
        if leaf_importance_only:
            parent = draw(st.sampled_from(candidates))
            edges.add((parent, nodes[i].id))
        else:
            picked = draw(st.lists(st.sampled_from(candidates), min_size=1,
                                   max_size=min(3, len(candidates)), unique=True))
            edges.update((p, nodes[i].id) for p in picked)
    importance = {}
    if leaf_importance_only:
        with_children = {p for p, _ in edges}
        for node in nodes:
            if node.id not in with_children:
                importance[node.id] = draw(importance_values)
    else:
        for node in nodes:
            if draw(st.booleans()):
                importance[node.id] = draw(importance_values)
    return ValueTaxonomy.build(nodes, sorted(edges), importance)


def shuffle_equal_timestamps(rng: random.Random, records: list[dict]) -> list[dict]:
    """Event records in timestamp order, those with equal timestamps shuffled."""
    groups: dict[int, list[dict]] = {}
    for record in records:
        groups.setdefault(record["timestamp"], []).append(record)
    for group in groups.values():
        rng.shuffle(group)
    return [record for timestamp in sorted(groups) for record in groups[timestamp]]


def context_document(ctx: ContextSpec) -> str:
    """A context document holding everything ``ctx`` records."""
    selection: dict = {"kind": ctx.selection.kind.value}
    if ctx.selection.kind is SelectionKind.POSITIVE_THRESHOLD:
        selection["threshold"] = ctx.selection.threshold
    return json.dumps({"schema_version": 1, "id": ctx.id,
                       "defining_properties": sorted(ctx.defining_properties),
                       "property_importance": dict(ctx.property_importance),
                       "selection": selection})


# -- independent oracles ------------------------------------------------------


def children_of(taxonomy: ValueTaxonomy) -> dict[str, set[str]]:
    """Each node's children, read from the edge set alone."""
    return {n: {c for p, c in taxonomy.edges if p == n} for n in taxonomy.nodes}


def parents_of(taxonomy: ValueTaxonomy) -> dict[str, set[str]]:
    """Each node's parents, read from the edge set alone."""
    return {n: {p for p, c in taxonomy.edges if c == n} for n in taxonomy.nodes}


def roots_of(taxonomy: ValueTaxonomy) -> set[str]:
    return {n for n, ps in parents_of(taxonomy).items() if not ps}


def subtree_mean_oracle(taxonomy: ValueTaxonomy) -> dict[str, float]:
    """Bottom-up recursive mean over a tree whose leaves are all valued."""
    children = children_of(taxonomy)

    def value(node: str) -> float:
        kids = sorted(children[node])
        if not kids:
            return taxonomy.importance[node]
        return sum(value(k) for k in kids) / len(kids)

    return {n: value(n) for n in taxonomy.nodes}


def enumerate_paths_oracle(taxonomy: ValueTaxonomy, target: str) -> int:
    """Count root-to-target paths by explicit depth-first enumeration."""
    parents = parents_of(taxonomy)

    def count(node: str) -> int:
        ps = parents[node]
        if not ps:
            return 1
        return sum(count(p) for p in ps)

    return count(target)


def literal_alignment_oracle(sd: dict[str, float], importance: dict[str, float],
                             paths: dict[str, int] | None = None) -> float:
    """The weighted-average alignment formula, written out directly."""
    props = sorted(sd)
    if paths is None:
        return sum(importance[p] * sd[p] for p in props) / len(props)
    return sum(paths[p] * importance[p] * sd[p] for p in props) / len(props)

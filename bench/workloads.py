"""Input generators and output checks for the valuetax benchmark.

Each workload is generated from a seed into a directory of input files
plus ``expected.json``, the answer the benchmark computes on its own. The
checks compare a CLI output document against that answer. Nothing here
imports valuetax: the oracles are independent re-implementations, so a bug
in the library cannot make its own output look right.

Run as a script to generate one workload:

    python3 bench/workloads.py --workload context-wide --seed 1 --scale full --out DIR

It prints the generated input sizes as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random

WORKLOADS = ("context-wide", "propagate-deep", "align-log")
SCALES = ("full", "quarter", "tiny")

# context-wide: internal label nodes of a 4-ary tree (4 * n + 1 nodes).
# propagate-deep: layers of three nodes.
# align-log: (events, members).
SIZES = {
    "context-wide": {"full": 1000, "quarter": 250, "tiny": 6},
    "propagate-deep": {"full": 400, "quarter": 100, "tiny": 5},
    "align-log": {"full": (200_000, 5_000), "quarter": (50_000, 1_250), "tiny": (200, 20)},
}

CROSS_EDGE_SHARE = 0.10   # context-wide: label -> later-node edges, per tree edge
PREVALUED_SHARE = 0.10    # propagate-deep: interior nodes given their true value,
PREVALUED_LAYERS = 0.20   # drawn from this lowest share of the interior layers
LAYER_WIDTH = 3

# align-log: CLI defaults the oracle reproduces (--max-r, --epsilon, --max-delta).
MAX_RATIO = 5.0
EPSILON = 0.1
MAX_DELTA = 1.0
# Kinds of the events beyond each member's one offer and one volunteer_chosen.
EVENT_KIND_WEIGHTS = (("request", 0.4), ("offer", 0.2), ("volunteer_chosen", 0.2),
                      ("task_assigned", 0.2))

# Outputs must match the oracle to this absolute tolerance (values lie in [-1, 1]).
TOLERANCE = 1e-9


def cli_argv(workload: str, data_dir: str, output: str) -> list[str]:
    """The valuetax CLI arguments that run ``workload`` on generated inputs."""
    def path(name: str) -> str:
        return os.path.join(data_dir, name)

    if workload == "context-wide":
        head = ["context", "--input", path("general.json"), "--context", path("context.json"),
                "--strategy", "kmeans2"]
    elif workload == "propagate-deep":
        head = ["propagate", "--input", path("taxonomy.json")]
    else:
        head = ["align", "--input", path("built.json"), "--log", path("events.jsonl")]
    return head + ["--format", "machine", "--output", output]


def _taxonomy_doc(nodes: list[dict], edges: list[tuple[str, str]]) -> dict:
    return {"schema_version": 1, "nodes": nodes,
            "edges": [{"parent": p, "child": c} for p, c in edges]}


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _node_names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """Distinct ids whose sorted order is unrelated to the graph structure."""
    width = len(str(count))
    return [f"{prefix}{k:0{width}d}" for k in rng.sample(range(count), count)]


# -- context-wide -----------------------------------------------------------


def two_means_upper(values: dict[str, float]) -> set[str]:
    """Upper cluster of the optimal 1-D two-means split, found with prefix sums.

    Clusters are contiguous in sorted order, so the split minimising the
    summed squared error is one of the n - 1 cut points; each cut's error
    is O(1) from running sums of values and squares.
    """
    items = sorted(values.items(), key=lambda kv: (kv[1], kv[0]))
    n = len(items)
    s1 = [0.0]
    s2 = [0.0]
    for _, v in items:
        s1.append(s1[-1] + v)
        s2.append(s2[-1] + v * v)
    best_cut, best_sse = 1, math.inf
    for cut in range(1, n):
        low = s2[cut] - s1[cut] ** 2 / cut
        high = (s2[n] - s2[cut]) - (s1[n] - s1[cut]) ** 2 / (n - cut)
        if low + high < best_sse:
            best_cut, best_sse = cut, low + high
    return {node for node, _ in items[best_cut:]}


def generate_context_wide(rng: random.Random, internal: int, out: str) -> dict:
    count = 4 * internal + 1
    names = _node_names(rng, "c", count)
    # Node i's tree children are 4i+1 .. 4i+4; every edge, cross edges
    # included, goes to a higher index, so index order is topological.
    children: list[list[int]] = [[4 * i + k for k in range(1, 5)] if i < internal else []
                                 for i in range(count)]
    tree_edges = count - 1
    extra = round(CROSS_EDGE_SHARE * tree_edges)
    while extra:
        parent = rng.randrange(internal)
        child = rng.randrange(parent + 1, count)
        if child not in children[parent]:
            children[parent].append(child)
            extra -= 1
    importance = {names[i]: rng.uniform(-1.0, 1.0) for i in range(internal, count)}

    nodes = [{"id": names[i], "kind": "label" if i < internal else "property"}
             for i in range(count)]
    edges = [(names[p], names[c]) for p in range(count) for c in children[p]]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    _write_json(os.path.join(out, "general.json"), _taxonomy_doc(nodes, edges))
    _write_json(os.path.join(out, "context.json"), {
        "schema_version": 1, "id": "wide", "defining_properties": [],
        "property_importance": importance, "selection": {"kind": "kmeans2"}})

    selected = two_means_upper(importance)
    parents: list[list[int]] = [[] for _ in range(count)]
    for p in range(count):
        for c in children[p]:
            parents[c].append(p)
    kept = {i for i in range(count) if names[i] in selected}
    stack = list(kept)
    while stack:
        for p in parents[stack.pop()]:
            if p not in kept:
                kept.add(p)
                stack.append(p)
    values: dict[str, float] = {}
    for i in sorted(kept, reverse=True):
        if i >= internal:
            values[names[i]] = importance[names[i]]
        else:
            kids = [values[names[c]] for c in children[i] if c in kept]
            values[names[i]] = sum(kids) / len(kids)
    expected = {
        "selected": sorted(selected),
        "edges": sorted([names[p], names[c]] for p in kept for c in children[p] if c in kept),
        "values": values,
    }
    _write_json(os.path.join(out, "expected.json"), expected)
    return {"nodes": count, "edges": len(edges), "properties": count - internal,
            "selected": len(selected), "kept": len(kept)}


def check_context_wide(output: dict, expected: dict) -> list[str]:
    errors: list[str] = []
    values = expected["values"]
    nodes = {n["id"]: n for n in output.get("nodes", [])}
    if set(nodes) != set(values):
        errors.append(f"retained nodes differ: {len(set(nodes) ^ set(values))} mismatches")
    properties = {n for n, node in nodes.items() if node["kind"] == "property"}
    if properties != set(expected["selected"]):
        errors.append("selected property set differs from the optimal two-means split")
    edges = sorted([e["parent"], e["child"]] for e in output.get("edges", []))
    if edges != expected["edges"]:
        errors.append("retained edges differ")
    children: dict[str, list[str]] = {}
    for parent, child in edges:
        children.setdefault(parent, []).append(child)
    for node_id, node in nodes.items():
        value = node.get("importance")
        if value is None:
            errors.append(f"{node_id}: no importance")
            continue
        if node_id in values and abs(value - values[node_id]) > TOLERANCE:
            errors.append(f"{node_id}: importance {value}, expected {values[node_id]}")
        kids = [nodes[c].get("importance") for c in children.get(node_id, ()) if c in nodes]
        if kids and None not in kids and abs(value - sum(kids) / len(kids)) > TOLERANCE:
            errors.append(f"{node_id}: importance {value} is not the mean of its children")
    return errors


# -- propagate-deep ---------------------------------------------------------


def generate_propagate_deep(rng: random.Random, layers: int, out: str) -> dict:
    count = layers * LAYER_WIDTH
    names = _node_names(rng, "p", count)
    bottom = (layers - 1) * LAYER_WIDTH
    children: list[list[int]] = [[] for _ in range(count)]
    for i in range(bottom):
        below = (i // LAYER_WIDTH + 1) * LAYER_WIDTH
        picks = rng.sample(range(LAYER_WIDTH), rng.choice((1, 2)))
        children[i] = [below + k for k in picks]
    truth = [0.0] * count
    for i in range(count - 1, -1, -1):
        if i >= bottom:
            truth[i] = rng.uniform(-1.0, 1.0)
        else:
            truth[i] = sum(truth[c] for c in children[i]) / len(children[i])
    # Placed anywhere, pre-valued nodes let forced downward rules short-cut
    # the climb from the leaves, and the pass count swings from ~25 to ~400
    # with the seed. Kept low, they exercise verification and the downward
    # rules while the climb through the upper layers sets the pass count.
    low = bottom - round(PREVALUED_LAYERS * (layers - 1)) * LAYER_WIDTH
    prevalued = rng.sample(range(low, bottom), round(PREVALUED_SHARE * bottom))
    valued = set(range(bottom, count)) | set(prevalued)

    nodes = []
    for i in range(count):
        node = {"id": names[i], "kind": "property" if i >= bottom else "label"}
        if i in valued:
            node["importance"] = truth[i]
        nodes.append(node)
    edges = [(names[p], names[c]) for p in range(count) for c in children[p]]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    _write_json(os.path.join(out, "taxonomy.json"), _taxonomy_doc(nodes, edges))
    _write_json(os.path.join(out, "expected.json"), {
        "values": {names[i]: truth[i] for i in range(count)},
        "edges": sorted([p, c] for p, c in edges)})
    return {"nodes": count, "edges": len(edges), "layers": layers,
            "properties": count - bottom, "prevalued_interior": len(valued) - (count - bottom)}


def check_propagate_deep(output: dict, expected: dict) -> list[str]:
    errors: list[str] = []
    truth = expected["values"]
    nodes = {n["id"]: n for n in output.get("nodes", [])}
    if set(nodes) != set(truth):
        errors.append(f"node set differs: {len(set(nodes) ^ set(truth))} mismatches")
    if sorted([e["parent"], e["child"]] for e in output.get("edges", [])) != expected["edges"]:
        errors.append("edge set differs")
    for node_id, value in truth.items():
        got = nodes.get(node_id, {}).get("importance")
        if got is None or abs(got - value) > TOLERANCE:
            errors.append(f"{node_id}: importance {got}, expected {value}")
    return errors


# -- align-log --------------------------------------------------------------


def ratio_sd(requests: int, other: int) -> float:
    """Satisfaction ramp for a requests ratio: 0 -> -1, 1 -> 0, MAX_RATIO -> 1."""
    ratio = min(max(requests / other, 0.0), MAX_RATIO)
    return (ratio - 1.0) / (MAX_RATIO - 1.0) if ratio > 1.0 else ratio - 1.0


def imbalance_sd(delta: float) -> float:
    """Satisfaction ramp for an imbalance: 0 -> 1, EPSILON -> 0, MAX_DELTA -> -1."""
    delta = min(max(delta, 0.0), MAX_DELTA)
    return 1.0 - delta / EPSILON if delta < EPSILON else -(delta - EPSILON) / (MAX_DELTA - EPSILON)


def emd_to_uniform(counts: dict[str, int]) -> float:
    """1-D earth mover's distance from uniform over the receivers, in name order."""
    total = sum(counts.values())
    share = 1.0 / len(counts)
    cdf_gap = 0.0
    distance = 0.0
    for member in sorted(counts):
        cdf_gap += counts[member] / total - share
        distance += abs(cdf_gap)
    return distance


def generate_align_log(rng: random.Random, size: tuple[int, int], out: str) -> dict:
    events_total, member_count = size
    members = set()
    while len(members) < member_count:
        members.add(f"m{rng.getrandbits(40):010x}")
    members = sorted(members)
    kinds = [k for k, _ in EVENT_KIND_WEIGHTS]
    weights = [w for _, w in EVENT_KIND_WEIGHTS]
    stream = [("offer", m) for m in members] + [("volunteer_chosen", m) for m in members]
    extra = events_total - len(stream)
    stream += zip(rng.choices(kinds, weights, k=extra), rng.choices(members, k=extra))
    rng.shuffle(stream)
    counts = {k: {} for k in kinds}
    lines = []
    for index, (kind, member) in enumerate(stream):
        counts[kind][member] = counts[kind].get(member, 0) + 1
        lines.append(json.dumps({"kind": kind, "member": member, "timestamp": index // 4}))
    with open(os.path.join(out, "events.jsonl"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    importance = {p: rng.uniform(0.05, 1.0)
                  for p in ("offer_ratio", "volunteer_ratio", "task_balance")}
    give_take = (importance["offer_ratio"] + importance["volunteer_ratio"]) / 2
    workload = importance["task_balance"]
    values = dict(importance, give_take=give_take, reciprocity=give_take,
                  workload_split=workload, equal_treatment=workload,
                  fairness=(give_take + workload) / 2)
    edges = [("fairness", "reciprocity"), ("fairness", "equal_treatment"),
             ("reciprocity", "give_take"), ("give_take", "offer_ratio"),
             ("give_take", "volunteer_ratio"), ("equal_treatment", "workload_split"),
             ("workload_split", "task_balance")]
    nodes = [{"id": n, "kind": "property" if n in importance else "label", "importance": v}
             for n, v in values.items()]
    _write_json(os.path.join(out, "built.json"), _taxonomy_doc(nodes, edges))

    requests = counts["request"]
    sd = {
        "offer_ratio": sum(ratio_sd(requests.get(m, 0), counts["offer"][m])
                           for m in members) / len(members),
        "volunteer_ratio": sum(ratio_sd(requests.get(m, 0), counts["volunteer_chosen"][m])
                               for m in members) / len(members),
        "task_balance": imbalance_sd(emd_to_uniform(counts["task_assigned"])),
    }
    score = sum(importance[p] * sd[p] for p in sd) / len(sd)
    _write_json(os.path.join(out, "expected.json"), {"score": score, "sd": sd})
    return {"events": len(stream), "members": len(members),
            "task_receivers": len(counts["task_assigned"])}


def check_align_log(output: dict, expected: dict) -> list[str]:
    errors: list[str] = []
    score = output.get("score")
    if not isinstance(score, (int, float)) or abs(score - expected["score"]) > TOLERANCE:
        errors.append(f"score {score}, expected {expected['score']}")
    got = {p.get("node"): p.get("sd") for p in output.get("per_property", [])}
    for node, value in expected["sd"].items():
        if not isinstance(got.get(node), (int, float)) or abs(got[node] - value) > TOLERANCE:
            errors.append(f"sd({node}) {got.get(node)}, expected {value}")
    return errors


GENERATORS = {
    "context-wide": generate_context_wide,
    "propagate-deep": generate_propagate_deep,
    "align-log": generate_align_log,
}
CHECKS = {
    "context-wide": check_context_wide,
    "propagate-deep": check_propagate_deep,
    "align-log": check_align_log,
}


def generate(workload: str, seed: int, scale: str, out: str) -> dict:
    """Write ``workload``'s inputs and expected answer at ``scale`` into ``out``."""
    os.makedirs(out, exist_ok=True)
    rng = random.Random(f"{workload}/{scale}/{seed}")
    return GENERATORS[workload](rng, SIZES[workload][scale], out)


def check(workload: str, output_path: str, data_dir: str) -> list[str]:
    """Problems found in one CLI output file; empty when it is correct."""
    try:
        with open(output_path, encoding="utf-8") as handle:
            output = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"unreadable output {output_path}: {exc}"]
    with open(os.path.join(data_dir, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    try:
        return CHECKS[workload](output, expected)
    except (AttributeError, KeyError, TypeError) as exc:
        return [f"malformed output document: {exc!r}"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.scale, args.out)))


if __name__ == "__main__":
    main()

"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them on
passing runs). Random structure checks use fixed seeds so failures are
reproducible.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager

from valuetax import (
    AlignmentScheme,
    CommunityState,
    ContextSpec,
    DomainConfig,
    SelectionKind,
    SelectionStrategy,
    align,
    build_context_taxonomy,
    check_coherence,
    check_idempotence,
    check_monotonicity,
    check_symmetry,
    check_compensative_bounds,
    emd_1d,
    export_dot,
    fairness_taxonomy,
    kl_divergence,
    mean_aggregate,
    parse_taxonomy,
    propagate,
    ratio_satisfaction,
    difference_satisfaction,
    sd_offer_ratio,
    sd_task_balance,
    select_nodes,
    serialize_taxonomy,
)

from conftest import (
    enumerate_paths_oracle,
    literal_alignment_oracle,
    random_taxonomy,
    random_tree,
    subtree_mean_oracle,
)

OFFER_RATIO = "offer_ratio"
VOLUNTEER_RATIO = "volunteer_ratio"
TASK_BALANCE = "task_balance"

CONTEXT_C = {OFFER_RATIO: 0.8, VOLUNTEER_RATIO: 0.0, TASK_BALANCE: 0.7}
CONTEXT_C_PRIME = {OFFER_RATIO: -0.5, VOLUNTEER_RATIO: -0.5, TASK_BALANCE: 0.9}


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number:2d}: PASS  {description} ({elapsed:.2f}s)")


def test_criterion_01_golden_alignment(fairness):
    with criterion(1, "golden alignment score 0.475 within 1e-12"):
        started = time.perf_counter()
        ctx = ContextSpec("golden", property_importance={OFFER_RATIO: 1.0, TASK_BALANCE: 0.5})
        taxonomy = build_context_taxonomy(fairness, ctx)
        sd = {OFFER_RATIO: 0.5, TASK_BALANCE: 0.9}
        report = align("community", taxonomy, sd, AlignmentScheme.MEAN_WEIGHTED)
        assert abs(report.score - 0.475) <= 1e-12
        assert time.perf_counter() - started < 1.0


def test_criterion_02_context_construction(fairness):
    with criterion(2, "context build keeps 7 nodes with root importance 0.75"):
        started = time.perf_counter()
        built = build_context_taxonomy(
            fairness, ContextSpec("community-c", property_importance=CONTEXT_C))
        assert set(built.nodes) == {
            "fairness", "reciprocity", "give_take", OFFER_RATIO,
            "equal_treatment", "workload_split", TASK_BALANCE,
        }
        assert abs(built.importance["fairness"] - 0.75) <= 1e-9
        oracle = subtree_mean_oracle(built.with_importance(
            {OFFER_RATIO: 0.8, TASK_BALANCE: 0.7}))
        for node in built.nodes:
            assert abs(built.importance[node] - oracle[node]) <= 1e-9
        assert time.perf_counter() - started < 1.0


def test_criterion_03_context_construction_negative(fairness):
    with criterion(3, "detested-properties context builds the single 0.9 chain"):
        built = build_context_taxonomy(
            fairness, ContextSpec("elder-support", property_importance=CONTEXT_C_PRIME))
        assert set(built.nodes) == {
            "fairness", "equal_treatment", "workload_split", TASK_BALANCE}
        assert set(built.edges) == {
            ("fairness", "equal_treatment"),
            ("equal_treatment", "workload_split"),
            ("workload_split", TASK_BALANCE),
        }
        for node in built.nodes:
            assert abs(built.importance[node] - 0.9) <= 1e-9


def test_criterion_04_propagation_oracle_equivalence():
    with criterion(4, "propagation matches recursive mean on 500 random trees"):
        started = time.perf_counter()
        rng = random.Random(20240404)
        for _ in range(500):
            tree = random_tree(rng, max_nodes=50)
            result = propagate(tree)
            assert result.iterations <= len(tree.nodes) + 1
            oracle = subtree_mean_oracle(tree)
            for node, expected in oracle.items():
                assert abs(result.taxonomy.importance[node] - expected) <= 1e-9
        assert time.perf_counter() - started < 30.0


def test_criterion_05_coherence_detection():
    with criterion(5, "perturbing one interior value is pinpointed; clean trees pass"):
        rng = random.Random(20240505)
        for _ in range(200):
            tree = random_tree(rng, max_nodes=30)
            full = propagate(tree).taxonomy
            assert check_coherence(full).coherent

            children = {n: [c for p, c in full.edges if p == n] for n in full.nodes}
            parents = {n: [p for p, c in full.edges if c == n] for n in full.nodes}
            interior = sorted(n for n in full.nodes if children[n])
            target = rng.choice(interior)
            old = full.importance[target]
            delta = 0.05 + rng.uniform(0.0, 0.2)
            new = old - delta if old + delta > 1.0 else old + delta
            skewed = dict(full.importance)
            skewed[target] = new
            report = check_coherence(full.with_importance(skewed))

            flagged = {v.parent for v in report.violations}
            # the perturbed node's own equation breaks, and - unavoidably -
            # the equation of each direct parent, since the changed value
            # feeds their mean; nothing else may be flagged
            assert target in flagged
            assert flagged == {target} | set(parents[target])
            if not parents[target]:
                assert flagged == {target}


def test_criterion_06_aggregator_law_suite():
    with criterion(6, "mean passes all laws; planted violators are caught"):
        rng = random.Random(20240606)
        assert check_symmetry(mean_aggregate, trials=1000, rng=rng).passed
        assert check_idempotence(mean_aggregate, trials=1000, rng=rng).passed
        assert check_monotonicity(mean_aggregate, trials=1000, rng=rng).passed
        assert check_compensative_bounds(mean_aggregate, trials=1000, rng=rng).passed

        first = lambda v: v[0]
        total = lambda v: sum(v)
        negated = lambda v: -mean_aggregate(v)

        sym = check_symmetry(first, trials=1000, rng=rng)
        assert not sym.passed and sym.counterexample is not None
        idem = check_idempotence(total, trials=1000, rng=rng)
        assert not idem.passed and idem.counterexample is not None
        mono = check_monotonicity(negated, trials=1000, rng=rng)
        assert not mono.passed and mono.counterexample is not None


def test_criterion_07_satisfaction_endpoints():
    with criterion(7, "satisfaction mappings hit their documented endpoints"):
        cfg = DomainConfig()  # max_ratio 5, epsilon 0.1, max_delta 1
        ratio_states = {
            -1.0: CommunityState(requests={}, offers={"m": 3}),
            0.0: CommunityState(requests={"m": 2}, offers={"m": 2}),
            1.0: CommunityState(requests={"m": 5}, offers={"m": 1}),
        }
        for expected, state in ratio_states.items():
            assert abs(sd_offer_ratio(state, "m", cfg) - expected) <= 1e-12

        balanced = CommunityState(task_distribution={"v1": 2, "v2": 2})
        assert abs(sd_task_balance(balanced, cfg) - 1.0) <= 1e-12
        uneven = CommunityState(task_distribution={"v1": 3, "v2": 1})  # imbalance 0.25
        at_eps = DomainConfig(epsilon=0.25, max_delta=1.0)
        assert abs(sd_task_balance(uneven, at_eps) - 0.0) <= 1e-12
        at_max = DomainConfig(epsilon=0.1, max_delta=0.25)
        assert abs(sd_task_balance(uneven, at_max) - (-1.0)) <= 1e-12

        assert abs(ratio_satisfaction(0.0, 5.0) - (-1.0)) <= 1e-12
        assert abs(ratio_satisfaction(1.0, 5.0)) <= 1e-12
        assert abs(ratio_satisfaction(5.0, 5.0) - 1.0) <= 1e-12
        assert abs(difference_satisfaction(0.0, 0.1, 1.0) - 1.0) <= 1e-12
        assert abs(difference_satisfaction(0.1, 0.1, 1.0)) <= 1e-12
        assert abs(difference_satisfaction(1.0, 0.1, 1.0) - (-1.0)) <= 1e-12

        step = 1e-11
        assert abs(ratio_satisfaction(1.0 - step, 5.0)
                   - ratio_satisfaction(1.0 + step, 5.0)) <= 1e-9
        assert abs(difference_satisfaction(0.1 - step, 0.1, 1.0)
                   - difference_satisfaction(0.1 + step, 0.1, 1.0)) <= 1e-9


def test_criterion_08_distribution_measures():
    with criterion(8, "divergence and transport distances match hand values"):
        assert abs(kl_divergence((1, 0), (0.5, 0.5)) - math.log(2)) <= 1e-9
        assert abs(emd_1d((1, 0), (0.5, 0.5)) - 0.5) <= 1e-12
        assert kl_divergence((0.3, 0.7), (0.3, 0.7)) == 0.0
        assert emd_1d((2, 3, 5), (2, 3, 5)) == 0.0


def test_criterion_09_selection_strategies_agree():
    with criterion(9, "threshold and two-means selection pick the same nodes"):
        threshold_pick = select_nodes(CONTEXT_C, SelectionStrategy())
        kmeans_pick = select_nodes(CONTEXT_C, SelectionStrategy(SelectionKind.KMEANS_TWO))
        assert threshold_pick == kmeans_pick == {OFFER_RATIO, TASK_BALANCE}


def test_criterion_10_format_round_trip():
    with criterion(10, "200 random taxonomies round-trip; DOT is byte-stable"):
        rng = random.Random(20241010)
        for _ in range(200):
            t = random_taxonomy(rng)
            text = serialize_taxonomy(t)
            back = parse_taxonomy(text)
            assert back == t
            assert serialize_taxonomy(back) == text
            assert export_dot(t) == export_dot(back)
        fixture = fairness_taxonomy()
        assert export_dot(fixture) == export_dot(fixture)


def test_criterion_11_alignment_brute_force():
    with criterion(11, "alignment matches the literal formula on 200 random cases"):
        rng = random.Random(20241111)
        checked = 0
        while checked < 200:
            t = random_taxonomy(rng, all_property_importance=True)
            props = t.property_nodes()
            if not props:
                continue
            checked += 1
            sd_map = {p: rng.uniform(-1, 1) for p in props}
            importance = {p: t.importance[p] for p in props}
            paths = {p: enumerate_paths_oracle(t, p) for p in props}
            sd = sd_map
            mean_score = align("e", t, sd, AlignmentScheme.MEAN_WEIGHTED).score
            assert abs(mean_score - literal_alignment_oracle(sd_map, importance)) <= 1e-12
            path_score = align("e", t, sd, AlignmentScheme.PATH_WEIGHTED).score
            assert abs(path_score - literal_alignment_oracle(sd_map, importance, paths)) <= 1e-12

"""What package modules import: every imported name is used, the CLI
starts without the modules `dataclasses` pulls in, `fractions`, `decimal` or
`tracemalloc`, and the package exports exactly the names listed here."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import valuetax

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "valuetax"
# __init__ only re-exports what it imports
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import json\nfrom .x import a, b as c\nprint(a)\n") == [
        "line 1: json", "line 2: c"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# What `dataclasses` alone pulls in, the exact-arithmetic modules that
# path-weighted alignment does without, and `tracemalloc`, which the memory
# budgets measure with; the CLI starts without any of them.
STARTUP_FREE = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal",
                "tracemalloc")


def test_cli_starts_without_code_generation_or_exact_arithmetic_modules():
    check = ("import sys, valuetax.cli; "
             f"print(' '.join(m for m in {STARTUP_FREE!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == []


# The public surface, grouped by the module it comes from. A name added to or
# removed from `valuetax.__all__` has to show up in this list's diff.
PUBLIC = [
    "aggregation", "alignment", "context", "errors", "io_formats", "mutual_aid", "propagation",
    "taxonomy",
    "check_all_laws", "check_compensative_bounds", "check_idempotence", "check_monotonicity",
    "check_symmetry", "mean_aggregate", "mean_invert",
    "AlignmentReport", "AlignmentScheme", "PropertyContribution", "align", "explain",
    "KMEANS_SELECTION", "POSITIVE_SELECTION", "ContextSpec", "SelectionKind", "SelectionStrategy",
    "build_context_taxonomy", "context_holds", "select_nodes",
    "export_dot", "ingest_event_log", "parse_context", "parse_event_log", "parse_taxonomy",
    "serialize_taxonomy",
    "OFFER_RATIO", "TASK_BALANCE", "VOLUNTEER_RATIO", "CommunityState",
    "DomainConfig", "EventKind", "Measure", "difference_satisfaction", "emd_1d",
    "fairness_taxonomy", "ingest", "kl_divergence", "property_evaluators", "ratio_satisfaction",
    "satisfaction_degrees", "sd_offer_ratio", "sd_task_balance", "sd_volunteer_ratio",
    "task_imbalance",
    "CoherenceReport", "CoherenceViolation", "PropagationResult", "check_coherence", "propagate",
    "Node", "NodeKind", "ValueTaxonomy", "Violation", "all_paths_counts",
    "ancestors", "label_node", "property_node", "topological_order",
]


def test_public_surface_is_the_listed_names():
    assert len(PUBLIC) == len(set(PUBLIC)) == 67
    assert sorted(valuetax.__all__) == sorted(PUBLIC)

"""What package modules import and define: every imported name is used, every
private module-level name is read where it is defined, the CLI
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


def dead_names(source: str) -> list[str]:
    """The private names (``_x``, not dunders) that a module binds at its top
    level, by a definition or an assignment, and never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items()
            if name.startswith("_") and not name.endswith("__") and name not in read]


def test_the_check_finds_a_dead_private_name():
    source = ("_A = 1\n_B, c = 2, 3\n__all__ = []\ndef _f(): return _A\n"
              "class _C: pass\n_D: int = 4\n_E = 5\n_E += 1\nprint(_D)\n")
    assert dead_names(source) == ["line 2: _B", "line 4: _f", "line 5: _C", "line 7: _E"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_private_names(path):
    assert dead_names(path.read_text(encoding="utf-8")) == []


# What `dataclasses` alone pulls in, the exact-arithmetic modules that
# path-weighted alignment does without, and `tracemalloc`, which the memory
# budgets measure with; the CLI starts without any of them.
STARTUP_FREE = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal",
                "tracemalloc")


def test_cli_starts_without_code_generation_or_exact_arithmetic_modules():
    # A fresh interpreter imports the package this module imported: the source
    # tree under the tier-1 command, the installed package where CI runs this
    # test from outside the checkout.
    check = ("import sys, valuetax.cli; "
             f"print(' '.join(m for m in {STARTUP_FREE!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(valuetax.__file__).resolve().parent.parent)}
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

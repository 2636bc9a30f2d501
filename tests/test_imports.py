"""What package modules import: every imported name is used, and the CLI
starts without the modules `dataclasses` pulls in."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# What `dataclasses` alone pulls in; the CLI starts without any of them.
STARTUP_FREE = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_starts_without_code_generation_modules():
    check = ("import sys, valuetax.cli; "
             f"print(' '.join(m for m in {STARTUP_FREE!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == []

"""The README's examples run against the library as documented."""

from __future__ import annotations

import io
import re
from pathlib import Path

import pytest

from valuetax import ingest_event_log, parse_taxonomy
from valuetax.cli import demo_event_log

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_library_sketch_runs(tmp_path, monkeypatch, capsys):
    (sketch,) = blocks("python")
    (tmp_path / "events.jsonl").write_text(demo_event_log(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(sketch, "README.md", "exec"), namespace)
    built = namespace["built"]
    assert len(built.nodes) == 7
    assert built.importance["fairness"] == pytest.approx(0.75, abs=1e-12)
    # the demo log's satisfaction degrees: 0.5 for offer_ratio, 0.9 for task_balance
    assert namespace["report"].score == pytest.approx((0.8 * 0.5 + 0.7 * 0.9) / 2, abs=1e-12)
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == ["task_balance", "offer_ratio"]


def test_taxonomy_example_parses():
    taxonomy_doc, _ = blocks("json")
    t = parse_taxonomy(taxonomy_doc)
    assert sorted(t.nodes) == ["fairness", "offer_ratio"]
    assert dict(t.importance) == {"offer_ratio": 0.8}


def test_event_example_folds():
    _, event_log = blocks("json")
    state = ingest_event_log(io.StringIO(event_log))
    assert dict(state.requests) == {"alice": 1}
    assert dict(state.task_distribution) == {"bruno": 1}
    assert state.members == ("alice", "bruno")

"""The benchmark tracer's contract with the package.

``bench/worker.py`` traces a run by rebinding the package functions it names
in ``TRACED`` and ``SD_FUNCTIONS`` wherever a package module binds them, so
each name must stay a function, and a layer is only measured if the CLI
reaches it through one of those bindings.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from valuetax import build_context_taxonomy, fairness_taxonomy, serialize_taxonomy
from valuetax import cli, mutual_aid

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_package_function(worker):
    for module_name, names in worker.TRACED.items():
        module = importlib.import_module(f"valuetax.{module_name}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{module_name}.{name}"
    for name in worker.SD_FUNCTIONS:
        assert inspect.isfunction(getattr(mutual_aid, name, None)), name


def test_traced_align_attributes_the_fold_to_ingest(worker, tmp_path):
    members = [f"m{i}" for i in range(7)]
    log = tmp_path / "events.jsonl"
    kinds = ("request", "offer", "volunteer_chosen", "task_assigned")
    log.write_text("".join(
        json.dumps({"kind": kind, "member": member, "timestamp": stamp}) + "\n"
        for stamp, (kind, member) in enumerate((k, m) for k in kinds for m in members)),
        encoding="utf-8")
    taxonomy = tmp_path / "built.json"
    built = build_context_taxonomy(fairness_taxonomy(), cli.demo_contexts()["alignment-example"])
    taxonomy.write_text(serialize_taxonomy(built), encoding="utf-8")
    argv = ["align", "--input", str(taxonomy), "--log", str(log), "--format", "machine",
            "--output", str(tmp_path / "out.json")]

    tracer = worker.Tracer()
    undo = worker.install(tracer)
    try:
        code = tracer.call(worker.ROOT_SPAN, cli.main, argv)
    finally:
        worker.uninstall(undo)

    assert code == 0
    assert tracer.counts["mutual_aid.members"] == len(members)
    assert "mutual_aid.ingest" in {name for name, *_ in tracer.spans}

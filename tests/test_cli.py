"""Command-line interface tests, driven through main() with file fixtures."""

from __future__ import annotations

import contextlib
import gc
import inspect
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuetax import (
    KMEANS_SELECTION,
    POSITIVE_SELECTION,
    AlignmentScheme,
    ContextSpec,
    DomainConfig,
    Measure,
    SelectionKind,
    ValueTaxonomy,
    align,
    build_context_taxonomy,
    fairness_taxonomy,
    label_node,
    serialize_taxonomy,
)
from valuetax import cli, io_formats
from valuetax import taxonomy as taxonomy_module
from valuetax.cli import demo_event_log, main

from conftest import (
    OFFER_RATIO,
    TASK_BALANCE,
    VOLUNTEER_RATIO,
    bench_workloads,
    context_document,
    diamond_ladder,
    log_text,
    random_taxonomy,
    relabelled,
    saturating_log,
    scorable_records,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def workload_inputs(tmp_path_factory):
    """The benchmark's full-size inputs of a workload at seed 4242, by name."""
    workloads = bench_workloads()

    def generate(name: str) -> Path:
        out = tmp_path_factory.mktemp(name)
        workloads.generate(name, 4242, "full", str(out))
        return out
    return generate


def located_importance_checks(calls: list[tuple]) -> list[str]:
    """The node importance checks among ``importance_at`` calls, by location."""
    return sorted(location for location, _ in calls if location.startswith("importance."))


def given_importance_locations(path: Path) -> list[str]:
    nodes = json.loads(path.read_text(encoding="utf-8"))["nodes"]
    return sorted(f"importance.{node['id']}" for node in nodes if "importance" in node)


@pytest.fixture
def min_digit_limit():
    """The interpreter's limit on converting an int to text, at its minimum
    of 640 digits for the test and restored after it."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(before)


@pytest.fixture
def fairness_file(tmp_path):
    path = tmp_path / "fairness.json"
    path.write_text(serialize_taxonomy(fairness_taxonomy()), encoding="utf-8")
    return str(path)


@pytest.fixture
def incoherent_file(tmp_path):
    t = ValueTaxonomy.build(
        [label_node("p"), label_node("a"), label_node("b")],
        [("p", "a"), ("p", "b")],
        {"p": 0.9, "a": 0.1, "b": 0.1},
    )
    path = tmp_path / "incoherent.json"
    path.write_text(serialize_taxonomy(t), encoding="utf-8")
    return str(path)


@pytest.fixture
def elder_context_file(tmp_path):
    ctx = ContextSpec("elder-support", property_importance={
        "offer_ratio": -0.5, "volunteer_ratio": -0.5, "task_balance": 0.9})
    path = tmp_path / "elder.json"
    path.write_text(context_document(ctx), encoding="utf-8")
    return str(path)


def record_calls(monkeypatch, original) -> list[tuple]:
    """The arguments of every call of ``original``, counted wherever a module
    of the package binds it, as the benchmark tracer wraps it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "valuetax" and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, counted)
    return calls


def refuse_constant(constant):
    raise ValueError(f"{constant} is not JSON")


def run(capsys, *argv):
    """main's exit code, stdout and stderr; arguments argparse refuses exit with
    its code, as the console script does."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemo:
    def test_reports_the_worked_alignment_score(self, capsys):
        code, out, _ = run(capsys, "demo")
        assert code == 0
        assert "score = 0.475000" in out
        assert "0.750000" in out  # context root importance
        assert "0.900000" in out  # elder-support chain value

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "demo")
        _, second, _ = run(capsys, "demo")
        assert first == second

    def test_machine_output(self, capsys):
        code, out, _ = run(capsys, "demo", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["alignment"]["score"] - 0.475) < 1e-9
        assert doc["contexts"]["community-c"]["coherent"] is True
        assert doc["context_holds"] is True
        assert doc["validation_ok"] is True

    def test_module_entry_point_matches_the_golden_file(self):
        # the README's second entry point, in a process of its own as a user runs it
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        result = subprocess.run([sys.executable, "-m", "valuetax.cli", "demo"], env=env,
                                capture_output=True, encoding="utf-8")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == (GOLDEN / "demo.txt").read_text(encoding="utf-8")

    def test_event_log_fixture_is_well_formed(self):
        from valuetax import parse_event_log
        text = demo_event_log()
        events = parse_event_log(text)
        assert len(events) == 112
        assert events[0] == ("request", "alice")
        assert events[-1] == ("task_assigned", "bruno")
        assert [json.loads(line)["timestamp"] for line in text.splitlines()] == list(range(112))


class TestValidateCommand:
    def test_valid_document(self, capsys, fairness_file):
        code, out, _ = run(capsys, "validate", "--input", fairness_file)
        assert code == 0
        assert "ok" in out

    def test_machine_report_shape(self, capsys, fairness_file):
        code, out, _ = run(capsys, "validate", "--input", fairness_file,
                           "--format", "machine")
        assert code == 0
        assert json.loads(out) == {"ok": True, "violations": []}

    def test_invalid_document_names_rule(self, capsys, tmp_path):
        doc = {
            "schema_version": 1,
            "nodes": [{"id": "a", "kind": "label"}, {"id": "b", "kind": "label"}],
            "edges": [{"parent": "a", "child": "b"}, {"parent": "b", "child": "a"}],
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert code == 1
        assert "CycleDetected" in out

    def test_valid_document_is_validated_once(self, capsys, fairness_file, monkeypatch):
        calls = record_calls(monkeypatch, taxonomy_module.validate)
        assert run(capsys, "validate", "--input", fairness_file)[0] == 0
        assert len(calls) == 1

    def test_machine_report_of_a_duplicate_edge_goes_to_the_output_file(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "validate", "--format", "machine",
                             "--input", "duplicate-edge-taxonomy.json", "--output", str(report))
        assert (code, out) == (1, "")
        assert err == (GOLDEN / "validate-duplicate-edge.txt").read_text(encoding="utf-8")
        assert report.read_text(encoding="utf-8") == (
            GOLDEN / "validate-duplicate-edge.json").read_text(encoding="utf-8")

    def test_machine_report_of_a_duplicate_node_id(self, capsys, tmp_path):
        doc = {"schema_version": 1, "nodes": [{"id": "a", "kind": "label"},
                                              {"id": "b", "kind": "label"},
                                              {"id": "a", "kind": "label"}]}
        path = tmp_path / "duplicate-id.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "validate", "--format", "machine", "--input", str(path))
        assert (code, err) == (1, f"{path}: nodes[2].id: duplicate node id: 'a'\n")
        assert json.loads(out) == {"ok": False, "violations": [{
            "rule": "DuplicateNodeId", "subject": "nodes[2].id",
            "message": "duplicate node id: 'a'"}]}

    def test_missing_file_is_io_failure(self, capsys):
        code, _, err = run(capsys, "validate", "--input", "/nonexistent.json")
        assert code == 3
        assert "nonexistent" in err

    def test_non_utf8_document_is_a_parse_failure(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"schema_version": 1, "nodes": [{"id": "\xff", "kind": "label"}]}')
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "[" * 100_000, '{"schema_version": ' + "1" * 5000 + ', "nodes": []}'],
        ids=["nested-too-deep", "huge-int"])
    def test_document_nested_too_deep_or_with_a_huge_int_is_a_parse_failure(
            self, capsys, tmp_path, text):
        path = tmp_path / "hostile.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"{path}: document: invalid taxonomy document: ")
        assert err.count("\n") == 1


class TestPropagateCommand:
    def test_fills_values_and_reports_passes(self, capsys, tmp_path):
        t = ValueTaxonomy.build(
            [label_node("p"), label_node("a"), label_node("b")],
            [("p", "a"), ("p", "b")],
            {"a": 0.2, "b": 0.4},
        )
        path = tmp_path / "in.json"
        path.write_text(serialize_taxonomy(t), encoding="utf-8")
        code, out, _ = run(capsys, "propagate", "--input", str(path))
        assert code == 0
        assert "0.300000" in out
        assert "newly assigned: p" in out

    def test_incoherent_input_exits_two_naming_node(self, capsys, incoherent_file):
        code, _, err = run(capsys, "propagate", "--input", incoherent_file)
        assert code == 2
        assert "'p'" in err

    def test_machine_output_round_trips(self, capsys, fairness_file):
        code, out, _ = run(capsys, "propagate", "--input", fairness_file, "--format", "machine")
        assert code == 0
        from valuetax import parse_taxonomy
        assert parse_taxonomy(out) == fairness_taxonomy()

    # the golden case of the default rules takes the three rounds its comment gives
    def test_default_rules_take_three_rounds(self):
        from valuetax import parse_taxonomy, propagate
        document = GOLDEN / "propagate-defaults-taxonomy.json"
        assert propagate(parse_taxonomy(document.read_text(encoding="utf-8"))).iterations == 3

    # each given value is checked by the parse, and propagate's values are not checked again
    def test_each_importance_is_checked_once(self, capsys, monkeypatch, workload_inputs, tmp_path):
        document = workload_inputs("propagate-deep") / "taxonomy.json"
        calls = record_calls(monkeypatch, taxonomy_module.importance_at)
        code, _, err = run(capsys, "propagate", "--input", str(document), "--format", "machine",
                           "--output", str(tmp_path / "out.json"))
        assert (code, err) == (0, "")
        located = located_importance_checks(calls)
        assert len(located) == 123
        assert located == given_importance_locations(document)

    def test_propagating_a_parsed_taxonomy_checks_no_importance(self, monkeypatch):
        from valuetax import parse_taxonomy, propagate
        t = parse_taxonomy((GOLDEN / "edge-values-taxonomy.json").read_text(encoding="utf-8"))
        calls = record_calls(monkeypatch, taxonomy_module.importance_at)
        result = propagate(t)
        assert calls == []
        assert len(result.taxonomy.importance) == len(t.nodes)


class TestCoherenceCommand:
    def test_incoherent_exits_two(self, capsys, incoherent_file):
        code, out, _ = run(capsys, "coherence", "--input", incoherent_file)
        assert code == 2
        assert "p" in out

    def test_incoherent_machine_report(self, capsys, incoherent_file):
        code, out, _ = run(capsys, "coherence", "--input", incoherent_file,
                           "--format", "machine")
        assert code == 2
        doc = json.loads(out)
        assert doc["coherent"] is False
        assert doc["violations"][0]["parent"] == "p"
        assert doc["violations"][0]["expected"] == pytest.approx(0.1)

    def test_coherent_document(self, capsys, tmp_path):
        ctx = ContextSpec("c", property_importance={
            "offer_ratio": 0.8, "task_balance": 0.7})
        built = build_context_taxonomy(fairness_taxonomy(), ctx)
        path = tmp_path / "built.json"
        path.write_text(serialize_taxonomy(built), encoding="utf-8")
        code, out, _ = run(capsys, "coherence", "--input", str(path))
        assert code == 0
        assert "coherent" in out


class TestContextCommand:
    def test_elder_chain_machine_output(self, capsys, fairness_file, elder_context_file):
        code, out, _ = run(capsys, "context", "--input", fairness_file,
                           "--context", elder_context_file, "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        ids = [n["id"] for n in doc["nodes"]]
        assert ids == ["equal_treatment", "fairness", "task_balance", "workload_split"]
        for node in doc["nodes"]:
            assert node["importance"] == pytest.approx(0.9, abs=1e-9)

    def test_strategy_override(self, capsys, fairness_file, elder_context_file):
        code, out, _ = run(capsys, "context", "--input", fairness_file,
                           "--context", elder_context_file,
                           "--strategy", "kmeans2", "--format", "machine")
        assert code == 0
        ids = [n["id"] for n in json.loads(out)["nodes"]]
        assert "task_balance" in ids

    @pytest.fixture
    def kmeans_context_file(self, tmp_path):
        ctx = ContextSpec("two-means", property_importance={
            "offer_ratio": 0.8, "volunteer_ratio": 0.1, "task_balance": 0.7},
            selection=KMEANS_SELECTION)
        path = tmp_path / "kmeans.json"
        path.write_text(context_document(ctx), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("strategy", [(), ("--strategy", "kmeans2")], ids=["context", "flag"])
    def test_threshold_under_two_means_selection_is_rejected(
            self, capsys, fairness_file, kmeans_context_file, strategy):
        code, out, err = run(capsys, "context", "--input", fairness_file,
                             "--context", kmeans_context_file, "--threshold", "0.9", *strategy)
        assert (code, out) == (1, "")
        assert err == ("bad selection override: "
                       "--threshold applies only to positive selection, not kmeans2\n")

    @pytest.mark.parametrize("threshold", ["5", "nan"])
    def test_threshold_outside_the_range_is_rejected(
            self, capsys, fairness_file, elder_context_file, threshold):
        code, out, err = run(capsys, "context", "--input", fairness_file,
                             "--context", elder_context_file, "--threshold", threshold)
        assert (code, out) == (1, "")
        assert err == (f"bad selection override: "
                       f"--threshold: importance {float(threshold)} outside [-1, 1]\n")

    def test_threshold_with_positive_strategy_overrides_two_means(
            self, capsys, fairness_file, kmeans_context_file):
        code, out, _ = run(capsys, "context", "--input", fairness_file,
                           "--context", kmeans_context_file, "--strategy", "positive",
                           "--threshold", "0.75", "--format", "machine")
        assert code == 0
        ids = [n["id"] for n in json.loads(out)["nodes"]]
        assert ids == ["fairness", "give_take", "offer_ratio", "reciprocity"]

    GOLDEN_ARGV = ("context", "--input", str(GOLDEN / "context-general-taxonomy.json"),
                   "--context", str(GOLDEN / "context-spec.json"))

    def test_only_the_general_taxonomy_is_validated(self, capsys, monkeypatch):
        # the kept subgraph inherits its structure from the validated general taxonomy
        calls = record_calls(monkeypatch, taxonomy_module.validate)
        assert run(capsys, *self.GOLDEN_ARGV, "--strategy", "kmeans2")[0] == 0
        assert [len(taxonomy.nodes) for taxonomy, *_ in calls] == [10]

    def test_each_context_importance_is_checked_once(self, capsys, monkeypatch):
        # counted where each check is located: the override copies the parsed context
        calls = record_calls(monkeypatch, taxonomy_module.importance_at)
        assert run(capsys, *self.GOLDEN_ARGV, "--strategy", "kmeans2")[0] == 0
        located = sorted(location for location, _ in calls
                         if location.startswith("property_importance."))
        names = json.loads((GOLDEN / "context-spec.json").read_text())["property_importance"]
        assert located == sorted(f"property_importance.{name}" for name in names)

    def test_the_seeded_subgraph_and_its_result_check_no_importance(
            self, capsys, monkeypatch, workload_inputs, tmp_path):
        # the context checked each seeded value; propagation range-checks what it computes
        inputs = workload_inputs("context-wide")
        calls = record_calls(monkeypatch, taxonomy_module.importance_at)
        code, _, err = run(capsys, "context", "--input", str(inputs / "general.json"),
                           "--context", str(inputs / "context.json"), "--strategy", "kmeans2",
                           "--format", "machine", "--output", str(tmp_path / "out.json"))
        assert (code, err) == (0, "")
        assert given_importance_locations(inputs / "general.json") == []
        assert located_importance_checks(calls) == []
        assert len(json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["nodes"]) == 2437

    def test_empty_selection_warns_but_succeeds(self, capsys, fairness_file, tmp_path):
        ctx = ContextSpec("none", property_importance={"offer_ratio": -0.5})
        path = tmp_path / "none.json"
        path.write_text(context_document(ctx), encoding="utf-8")
        code, out, err = run(capsys, "context", "--input", fairness_file,
                             "--context", str(path))
        assert code == 0
        assert "empty selection" in out
        assert "warning" in err


class TestAlignCommand:
    @pytest.fixture
    def alignment_taxonomy_file(self, tmp_path):
        ctx = ContextSpec("alignment", property_importance={
            "offer_ratio": 1.0, "task_balance": 0.5})
        built = build_context_taxonomy(fairness_taxonomy(), ctx)
        path = tmp_path / "alignment.json"
        path.write_text(serialize_taxonomy(built), encoding="utf-8")
        return str(path)

    @pytest.fixture
    def log_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(demo_event_log(), encoding="utf-8")
        return str(path)

    def test_text_score(self, capsys, alignment_taxonomy_file, log_file):
        code, out, _ = run(capsys, "align", "--input", alignment_taxonomy_file,
                           "--log", log_file)
        assert code == 0
        assert "score = 0.475000" in out

    def test_machine_report(self, capsys, alignment_taxonomy_file, log_file):
        code, out, _ = run(capsys, "align", "--input", alignment_taxonomy_file,
                           "--log", log_file, "--format", "machine", "--scheme", "path")
        assert code == 0
        doc = json.loads(out)
        assert doc["scheme"] == "path"
        assert doc["score"] == pytest.approx(0.475, abs=1e-9)

    def test_config_overrides_change_the_score(self, capsys, alignment_taxonomy_file, log_file):
        code, out, _ = run(capsys, "align", "--input", alignment_taxonomy_file,
                           "--log", log_file, "--max-r", "3", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["score"] == pytest.approx((1.0 * 1.0 + 0.5 * 0.9) / 2, abs=1e-9)

    @pytest.fixture
    def split_log_file(self, tmp_path):
        # tasks split 3:1 give an EMD of exactly 0.25; requests equal offers
        events = [("task_assigned", "alice")] * 3 + [("task_assigned", "bruno")]
        events += [("request", "alice"), ("offer", "alice"), ("request", "bruno"), ("offer", "bruno")]
        path = tmp_path / "split.jsonl"
        path.write_text("".join(
            json.dumps({"kind": kind, "member": member, "timestamp": stamp}) + "\n"
            for stamp, (kind, member) in enumerate(events)), encoding="utf-8")
        return str(path)

    def test_imbalance_at_the_tolerance_prints_a_positive_zero(
            self, capsys, alignment_taxonomy_file, split_log_file):
        argv = ("align", "--input", alignment_taxonomy_file, "--log", split_log_file,
                "--epsilon", "0.25")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "-0.000000" not in out
        assert "  task_balance           0.500000   0.000000     1      0.000000\n" in out
        code, out, _ = run(capsys, *argv, "--format", "machine")
        (task_balance,) = [p for p in json.loads(out)["per_property"] if p["node"] == "task_balance"]
        assert code == 0
        assert '"sd": -0.0' not in out
        assert task_balance["sd"] == 0.0 and task_balance["contribution"] == 0.0

    def test_bad_log_is_invalid_input(self, capsys, alignment_taxonomy_file, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "party", "member": "x", "timestamp": 0}\n', encoding="utf-8")
        code, _, err = run(capsys, "align", "--input", alignment_taxonomy_file,
                           "--log", str(path))
        assert code == 1
        assert "bad.jsonl" in err

    def test_bad_record_names_its_line_counting_blank_lines(
            self, capsys, alignment_taxonomy_file, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(demo_event_log() + "\n[]\n", encoding="utf-8")
        code, _, err = run(capsys, "align", "--input", alignment_taxonomy_file,
                           "--log", str(path))
        assert code == 1
        assert err == f"{path}: malformed event at position 114: record must be an object\n"

    def test_non_utf8_record_deep_in_the_log_is_invalid_input(
            self, capsys, alignment_taxonomy_file, tmp_path):
        # far past the first read buffer, so the decode fails mid-fold
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"kind": "offer", "member": "a", "timestamp": 0}\n' * 2000
                         + b'{"kind": "offer", "member": "\xff", "timestamp": 0}\n')
        code, out, err = run(capsys, "align", "--input", alignment_taxonomy_file,
                             "--log", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("record", [
        "[" * 100_000, '{"kind": "offer", "member": "a", "timestamp": ' + "1" * 5000 + "}"],
        ids=["nested-too-deep", "huge-int"])
    def test_record_nested_too_deep_or_with_a_huge_int_is_invalid_input(
            self, capsys, alignment_taxonomy_file, tmp_path, record):
        path = tmp_path / "hostile.jsonl"
        path.write_text(demo_event_log() + record + "\n", encoding="utf-8")
        code, out, err = run(capsys, "align", "--input", alignment_taxonomy_file,
                             "--log", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"{path}: malformed event at position 113: invalid record: ")
        assert err.count("\n") == 1

    def test_a_log_out_of_timestamp_order_scores_as_the_sorted_log(self, capsys, tmp_path):
        # the golden log's timestamps narrow from 10 to 9 and keep decreasing; it was refused at line 3
        lines = (GOLDEN / "align-width-decrease-log.jsonl").read_text(encoding="utf-8").splitlines(True)
        path = tmp_path / "sorted.jsonl"
        path.write_text("".join(sorted(lines, key=lambda line: json.loads(line)["timestamp"])),
                        encoding="utf-8")
        assert run(capsys, "align", "--format", "machine", "--log", str(path),
                   "--input", str(GOLDEN / "align-taxonomy.json")) == (
            0, (GOLDEN / "align-width-decrease.json").read_text(encoding="utf-8"), "")

    # 19 digits are past the scan's bound and read by the decoder; 4,301 are past
    # the decoder's limit on int conversion
    @pytest.mark.parametrize("digits, code", [(19, 0), (4301, 1)])
    @pytest.mark.parametrize("read_chars", [1, 3, io_formats._BLOCK_CHARS])
    def test_a_wide_timestamp_gets_one_verdict_in_any_spacing(
            self, capsys, monkeypatch, alignment_taxonomy_file, tmp_path, digits, code, read_chars):
        monkeypatch.setattr(io_formats, "_BLOCK_CHARS", read_chars)
        path = tmp_path / "wide.jsonl"
        canonical = '{"kind": "offer", "member": "a", "timestamp": %s}' % ("9" * digits)
        results = []
        for record in (canonical, canonical.replace(": ", ":").replace(", ", ",")):
            path.write_text(demo_event_log() + record + "\n", encoding="utf-8")
            results.append(run(capsys, "align", "--format", "machine", "--input",
                               alignment_taxonomy_file, "--log", str(path)))
        assert results[0] == results[1]
        assert results[0][0] == code

    @pytest.mark.parametrize("log, message", [
        ('{"kind": "offer", "member": "a", "timestamp": 0}\n', "no tasks have been assigned"),
        ('{"kind": "request", "member": "a", "timestamp": 0}\n',
         "undefined ratio for member 'a': 1 requests against zero offers"),
        ("", "community has no members to aggregate over"),
    ], ids=["no-tasks", "requests-without-offers", "empty"])
    def test_a_log_that_cannot_be_scored_is_named(
            self, capsys, alignment_taxonomy_file, tmp_path, log, message):
        path = tmp_path / "events.jsonl"
        path.write_text(log, encoding="utf-8")
        code, out, err = run(capsys, "align", "--input", alignment_taxonomy_file,
                             "--log", str(path))
        assert (code, out, err) == (1, "", f"{path}: {message}\n")

    def test_a_taxonomy_without_importance_is_named(self, capsys, log_file, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(serialize_taxonomy(fairness_taxonomy()), encoding="utf-8")
        code, out, err = run(capsys, "align", "--input", str(path), "--log", log_file)
        assert (code, out) == (1, "")
        assert err == f"{path}: property node 'offer_ratio' has no assigned importance\n"

    def test_a_log_that_cannot_be_scored_is_named_before_the_taxonomy(self, capsys, tmp_path):
        # the degrees are computed before scoring, so the log's fault comes first
        taxonomy = tmp_path / "bare.json"
        taxonomy.write_text(serialize_taxonomy(fairness_taxonomy()), encoding="utf-8")
        log = tmp_path / "events.jsonl"
        log.write_text("", encoding="utf-8")
        code, out, err = run(capsys, "align", "--input", str(taxonomy), "--log", str(log))
        assert (code, out, err) == (1, "", f"{log}: community has no members to aggregate over\n")

    # the golden case reads the log in blocks of the default size
    @pytest.mark.parametrize("read_chars", [1, 3])
    def test_mixed_log_output_matches_the_golden_file_at_any_read_size(
            self, capsys, monkeypatch, read_chars):
        log = GOLDEN / "align-mixed-log.jsonl"
        assert b"\r\n" in log.read_bytes() and not log.read_bytes().endswith(b"\n")
        monkeypatch.setattr(io_formats, "_BLOCK_CHARS", read_chars)
        code, out, err = run(capsys, "align", "--format", "machine", "--log", str(log),
                             "--input", str(GOLDEN / "align-taxonomy.json"))
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "align-mixed.json").read_text(encoding="utf-8")

    @pytest.fixture
    def saturating_log_file(self, tmp_path):
        path = tmp_path / "saturating.jsonl"
        path.write_text(saturating_log(), encoding="utf-8")
        return str(path)

    def ladder_align(self, capsys, tmp_path, log, layers, *options):
        path = tmp_path / "ladder.json"
        path.write_text(serialize_taxonomy(diamond_ladder(layers)), encoding="utf-8")
        return path, run(capsys, "align", "--input", str(path), "--log", log,
                         "--max-r", "2", "--scheme", "path", *options)

    def test_a_path_score_at_the_top_of_the_float_range_is_valid_json(
            self, capsys, tmp_path, saturating_log_file):
        _, (code, out, err) = self.ladder_align(capsys, tmp_path, saturating_log_file, 1023,
                                                "--format", "machine")
        assert (code, err) == (0, "")
        doc = json.loads(out, parse_constant=refuse_constant)
        assert doc["score"] == doc["score_bound"] == 2.0 ** 1023
        assert [p["paths"] for p in doc["per_property"]] == [2 ** 1023] * 2

    def test_a_path_score_past_the_float_range_is_invalid_input(
            self, capsys, tmp_path, saturating_log_file):
        path, (code, out, err) = self.ladder_align(capsys, tmp_path, saturating_log_file, 1100)
        assert (code, out) == (1, "")
        assert err == f"{path}: path-weighted contribution of 'offer_ratio' is past the float range\n"

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_a_path_count_too_long_to_print_is_invalid_input(
            self, capsys, tmp_path, saturating_log_file, min_digit_limit, fmt):
        # 2 ** 2200 has 663 digits; --scheme mean overrides the path scheme, whose
        # contributions past the float range would be refused first
        path, (code, out, err) = self.ladder_align(capsys, tmp_path, saturating_log_file, 2200,
                                                   "--scheme", "mean", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"{path}: path count of 'offer_ratio' has more than 640 digits\n"

    def test_missing_log_is_io_failure(self, capsys, alignment_taxonomy_file, tmp_path):
        path = tmp_path / "absent.jsonl"
        code, _, err = run(capsys, "align", "--input", alignment_taxonomy_file,
                           "--log", str(path))
        assert code == 3
        assert err.startswith(f"cannot read {path}: ")


class TestOtherCommands:
    def test_paths(self, capsys, fairness_file):
        code, out, _ = run(capsys, "paths", "--input", fairness_file)
        assert code == 0
        assert "offer_ratio: 1" in out

    def test_paths_single_node(self, capsys, fairness_file):
        code, out, _ = run(capsys, "paths", "--input", fairness_file,
                           "--node", "task_balance")
        assert code == 0
        assert out.strip() == "task_balance: 1"

    def test_paths_unknown_node(self, capsys, fairness_file):
        code, _, err = run(capsys, "paths", "--input", fairness_file,
                           "--node", "nope")
        assert code == 1
        assert "nope" in err

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_a_path_count_too_long_to_print_is_invalid_input(
            self, capsys, tmp_path, min_digit_limit, fmt):
        # 2 ** 2200 has 663 digits
        path = tmp_path / "ladder.json"
        path.write_text(serialize_taxonomy(diamond_ladder(2200)), encoding="utf-8")
        code, out, err = run(capsys, "paths", "--input", str(path), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"{path}: path count of 'offer_ratio' has more than 640 digits\n"
        # a node whose count prints is still answered
        code, out, _ = run(capsys, "paths", "--input", str(path), "--node", "a0002",
                           "--format", fmt)
        assert (code, out) == (0, "a0002: 2\n" if fmt == "text" else '{\n  "a0002": 2\n}\n')

    def test_export_dot(self, capsys, fairness_file):
        code, out, _ = run(capsys, "export-dot", "--input", fairness_file)
        assert code == 0
        assert out.startswith("digraph value_taxonomy {")
        assert '"offer_ratio" [shape=square' in out

    def test_output_flag_writes_file(self, capsys, fairness_file, tmp_path):
        target = tmp_path / "out.dot"
        code, out, _ = run(capsys, "export-dot", "--input", fairness_file,
                           "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("digraph")

    def test_unwritable_output_is_io_failure(self, capsys, fairness_file, tmp_path):
        code, out, err = run(capsys, "paths", "--input", fairness_file, "--output", str(tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith(f"cannot write {tmp_path}: ")


def golden_cases():
    """The rows of ``golden/cases.txt``, each named by its arguments."""
    for line in (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            code, out, err, *argv = line.split()
            yield pytest.param(int(code), out, err, argv, id=" ".join(argv))


def golden_text(name: str) -> str:
    return "" if name == "-" else (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("code, out, err, argv", golden_cases())
def test_golden_case(capsys, monkeypatch, code, out, err, argv):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the width of a terminal, 80 without one
    assert run(capsys, *argv) == (code, golden_text(out), golden_text(err))


def test_every_golden_file_is_named_by_a_case():
    named = {"cases.txt"}
    for case in golden_cases():
        _, out, err, argv = case.values
        named.update((out, err), argv)
    assert {path.name for path in GOLDEN.iterdir()} <= named


# -- a command runs without collector passes ----------------------------------

@pytest.fixture
def collector():
    """The collector's passes, by generation, from now on; its switch and
    thresholds are restored after the test."""
    passes = []

    def counted(phase, info):
        if phase == "start":
            passes.append(info["generation"])
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.callbacks.append(counted)
    yield passes
    gc.callbacks.remove(counted)
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


def golden_argv(name: str) -> list[str]:
    """The arguments of the golden row whose stdout file is ``name``."""
    return next(case.values[3] for case in golden_cases() if case.values[1] == name)


@pytest.mark.parametrize("out", ["context-wide-kmeans2.json", "propagate-deep.json", "demo.json"])
def test_a_command_makes_no_collector_pass(capsys, monkeypatch, collector, out):
    # With a threshold of 10 allocations a running collector would pass many
    # times in any of these; the command pauses it, so none starts inside main.
    inside = []
    command = cli._run

    def spied(argv):
        start = len(collector)
        try:
            return command(argv)
        finally:
            inside.extend(collector[start:])
    monkeypatch.setattr(cli, "_run", spied)
    monkeypatch.chdir(GOLDEN)
    gc.enable()
    gc.set_threshold(10)
    assert run(capsys, *golden_argv(out)) == (0, golden_text(out), "")
    assert inside == []


@pytest.mark.parametrize("argv, code", [
    (("paths", "--input", "node-text-taxonomy.json"), 0),
    (("propagate", "--input", "invalid-taxonomy.json"), 1),
    (("coherence", "--input", "incoherent-taxonomy.json"), 2),
    (("propagate", "--input", "missing.json"), 3),
    (("--help",), 0),
    (("propagate", "--input", "x", "--bogus"), 2),
], ids=["success", "refused", "incoherent", "unreadable", "help", "unknown-option"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_a_command_restores_the_callers_collector_setting(capsys, monkeypatch, collector, argv, code, enabled):
    monkeypatch.chdir(GOLDEN)
    (gc.enable if enabled else gc.disable)()
    assert run(capsys, *argv)[0] == code
    assert gc.isenabled() is enabled


def test_a_paused_command_leaves_little_cyclic_garbage(capsys, monkeypatch, collector):
    # Reference counting frees what a command drops; at most 133 objects in
    # cycles are left after any golden row, which the caller's next collection frees.
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", "80")
    left = {}
    for case in golden_cases():
        gc.collect()
        run(capsys, *case.values[3])
        left[case.id] = gc.collect()
    assert max(left.values()) < 1000, left


# -- the command's own parser parses as the full parser -----------------------

COMMANDS = ("validate", "propagate", "coherence", "context", "align", "paths", "export-dot", "demo")
PARSED_ROWS = [
    (), ("-h",), ("--help",), ("--version",), ("bogus", "--input", "x"),
    *((command, "--help") for command in COMMANDS),
    *((command,) for command in COMMANDS),  # every one but demo misses --input
    ("context", "--input", "a"), ("align", "--input", "a"),
    ("propagate", "--input", "x", "extra"), ("propagate", "--input", "x", "--bogus"), ("propagate", "--bogus"),
    ("propagate", "--format", "xml", "--input", "x"),
    ("context", "--input", "a", "--context", "b", "--threshold", "abc"),
    ("align", "--input", "a", "--log", "b", "--max-r=-inf"),
    ("propagate", "--inp", "x"), ("propagate", "--", "--input", "x"), ("propagate", "--input", "x", "--output"),
    ("paths", "--format", "machine", "--output", "o", "--input", "x", "--node", "n"),
]


def parsed(capsys, parse, argv) -> tuple:
    """The namespace ``parse(argv)`` gives, or the code it exits with, and what it writes."""
    try:
        outcome = vars(parse(list(argv)))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSED_ROWS, ids=lambda argv: " ".join(argv) or "(none)")
def test_the_named_commands_parser_parses_as_the_full_parser(capsys, argv):
    # main builds the full parser only for what the command's own leaves over,
    # so every namespace, usage, help and error text is the full parser's
    assert parsed(capsys, cli._arguments, argv) == parsed(capsys, lambda a: cli._parser().parse_args(a), argv)


# -- the CLI takes each library decision from its owner -----------------------

def test_the_options_take_the_librarys_defaults_and_spellings():
    # align and demo score one log under one configuration, and no spelling drifts from its enum
    args = cli._arguments(["align", "--input", "a", "--log", "b"])
    assert DomainConfig(args.max_r, args.epsilon, args.max_delta, Measure(args.measure)) == DomainConfig()
    assert AlignmentScheme(args.scheme) is inspect.signature(align).parameters["scheme"].default
    align_options, context_options = cli._COMMANDS["align"][2], cli._COMMANDS["context"][2]
    assert list(align_options["--scheme"]["choices"]) == [scheme.value for scheme in AlignmentScheme]
    assert list(align_options["--measure"]["choices"]) == [measure.value for measure in Measure]
    assert list(context_options["--strategy"]["choices"]) == list(cli._STRATEGIES)
    assert set(cli._STRATEGIES.values()) == set(SelectionKind)


def test_align_help_words_each_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, "align", "--help")
    assert code == 0
    for default in ("(default 5)", "(default 0.1)", "(default 1)", "(default emd)"):
        assert default in out


# -- no command ends in a traceback --------------------------------------------

FLOAT_OPTIONS = {"context": ("--threshold",), "align": ("--max-r", "--epsilon", "--max-delta")}
# at the ends of the float range and near each option's bounds
EDGE_FLOATS = ("inf", "-inf", "nan", "1e-320", "-1e-320", "1e308", "-1e308", "-0.0", "0.1", "1", "5")
EDGE_IMPORTANCES = (-1.0, -0.0, 5e-324, 0.3, 1.0)
LONE_SURROGATE_DOCUMENT = ('{"schema_version": 1, "nodes": [{"id": "\\ud800", "kind": "label"}, '
                           '{"id": "b", "kind": "label", "label_text": "\\udc80"}]}')


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding a diamond ladder whose properties have 2 ** 1100 paths
    each, and a document whose node id and label text are lone surrogate escapes."""
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "ladder.json").write_text(serialize_taxonomy(diamond_ladder(1100)),
                                           encoding="utf-8")
    (directory / "surrogate.json").write_text(LONE_SURROGATE_DOCUMENT, encoding="utf-8")
    return directory


def write_fuzz_inputs(directory: Path, rng: random.Random) -> None:
    """A random taxonomy whose property nodes are named for the evaluators, a
    context over some of those names and an unknown one, and a scorable,
    saturating or empty event log."""
    taxonomy = random_taxonomy(rng, max_property_nodes=3, all_property_importance=rng.random() < 0.5)
    names = (OFFER_RATIO, VOLUNTEER_RATIO, TASK_BALANCE)
    taxonomy = relabelled(taxonomy, {**{n: n for n in taxonomy.nodes},
                                     **dict(zip(sorted(taxonomy.property_nodes()), names))})
    chosen = rng.sample(names + ("unknown",), rng.randint(0, len(names) + 1))
    ctx = ContextSpec("c", frozenset(rng.sample(chosen, rng.randint(0, len(chosen)))),
                      {name: rng.choice(EDGE_IMPORTANCES) for name in chosen},
                      rng.choice((POSITIVE_SELECTION, KMEANS_SELECTION)))
    log = rng.choice((log_text(rng, scorable_records(rng)), saturating_log(), ""))
    (directory / "taxonomy.json").write_text(serialize_taxonomy(taxonomy), encoding="utf-8")
    (directory / "context.json").write_text(context_document(ctx), encoding="utf-8")
    (directory / "events.jsonl").write_text(log, encoding="utf-8")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0), data=st.data())
def test_no_command_ends_in_a_traceback(fuzz_dir, seed, data):
    write_fuzz_inputs(fuzz_dir, random.Random(seed))
    command = data.draw(st.sampled_from(COMMANDS))
    fmt = data.draw(st.sampled_from(("text", "machine")))
    argv = [command, "--format", fmt]
    if command != "demo":
        document = data.draw(st.sampled_from(("taxonomy.json", "ladder.json", "surrogate.json")))
        argv += ["--input", str(fuzz_dir / document)]
    for option in FLOAT_OPTIONS.get(command, ()):
        if data.draw(st.booleans()):  # joined by "=", since argparse reads "-inf" as an option
            argv.append(f"{option}={data.draw(st.sampled_from(EDGE_FLOATS))}")
    if command == "context":
        argv += ["--context", str(fuzz_dir / "context.json")]
        strategy = data.draw(st.sampled_from((None, "positive", "kmeans2")))
        argv += ["--strategy", strategy] if strategy else []
    elif command == "align":
        argv += ["--log", str(fuzz_dir / "events.jsonl"),
                 "--scheme", data.draw(st.sampled_from(("mean", "path"))),
                 "--measure", data.draw(st.sampled_from(("kl", "emd")))]
    elif command == "paths" and data.draw(st.booleans()):
        argv += ["--node", data.draw(st.sampled_from(("n00", "n05", "a0002", "unknown")))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    out.getvalue().encode("utf-8")  # a lone surrogate once reached stdout, which no file can hold
    if fmt == "machine" and out.getvalue():
        json.loads(out.getvalue(), parse_constant=refuse_constant)

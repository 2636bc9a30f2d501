"""Command-line interface tests, driven through main() with file fixtures."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from valuetax import (
    KMEANS_SELECTION,
    ContextSpec,
    ValueTaxonomy,
    build_context_taxonomy,
    fairness_taxonomy,
    label_node,
    serialize_taxonomy,
)
from valuetax import io_formats
from valuetax import taxonomy as taxonomy_module
from valuetax.cli import demo_event_log, main

from conftest import context_document, diamond_ladder, saturating_log

GOLDEN = Path(__file__).resolve().parent / "golden"
WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workload_inputs(tmp_path_factory):
    """The benchmark's full-size inputs of a workload at seed 4242, by name."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

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


def run(capsys, *argv):
    code = main(list(argv))
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

    @pytest.mark.parametrize("argv, golden", [
        ((), "demo.txt"), (("--format", "machine"), "demo.json")], ids=["text", "machine"])
    def test_output_matches_the_golden_file(self, capsys, argv, golden):
        code, out, err = run(capsys, "demo", *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_event_log_fixture_is_well_formed(self):
        from valuetax import parse_event_log
        events = parse_event_log(demo_event_log())
        assert len(events) == 112
        assert events[0] == ("request", "alice", 0)
        assert events[-1] == ("task_assigned", "bruno", 111)


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

    def test_machine_report_of_every_rule_matches_the_golden_file(self, capsys):
        # Two disjoint cycles: the report words the one the search from "a" meets.
        code, out, err = run(capsys, "validate", "--format", "machine",
                             "--input", str(GOLDEN / "invalid-taxonomy.json"))
        assert (code, err) == (1, "")
        assert out == (GOLDEN / "validate-invalid.json").read_text(encoding="utf-8")

    def test_valid_document_is_validated_once(self, capsys, fairness_file, monkeypatch):
        calls = record_calls(monkeypatch, taxonomy_module.validate)
        assert run(capsys, "validate", "--input", fairness_file)[0] == 0
        assert len(calls) == 1

    def test_duplicate_edge_exits_one_naming_its_index(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "duplicate-edge-taxonomy.json").write_bytes(
            (GOLDEN / "duplicate-edge-taxonomy.json").read_bytes())
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "validate", "--input", "duplicate-edge-taxonomy.json")
        assert (code, out) == (1, "")
        assert err == (GOLDEN / "validate-duplicate-edge.txt").read_text(encoding="utf-8")

    def test_machine_report_of_a_duplicate_edge_matches_the_golden_file(self, capsys, tmp_path,
                                                                        monkeypatch):
        (tmp_path / "duplicate-edge-taxonomy.json").write_bytes(
            (GOLDEN / "duplicate-edge-taxonomy.json").read_bytes())
        monkeypatch.chdir(tmp_path)
        report = (GOLDEN / "validate-duplicate-edge.json").read_text(encoding="utf-8")
        refusal = (GOLDEN / "validate-duplicate-edge.txt").read_text(encoding="utf-8")
        argv = ["validate", "--format", "machine", "--input", "duplicate-edge-taxonomy.json"]
        assert run(capsys, *argv) == (1, report, refusal)
        assert run(capsys, *argv, "--output", "report.json") == (1, "", refusal)
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == report

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

    # Given and propagated values -0.0, 5e-324 and 1e-300; ids and texts with a
    # quote, a backslash, control characters, U+2028 and a non-BMP character.
    def test_edge_values_output_matches_the_golden_file(self, capsys):
        code, out, err = run(capsys, "propagate", "--format", "machine",
                             "--input", str(GOLDEN / "edge-values-taxonomy.json"))
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "propagate-edge-values.json").read_text(encoding="utf-8")

    # Partial-mean in the first round, then down-single and down-split in the
    # second, through a child shared by two parents; three rounds in all.
    def test_default_rules_output_matches_the_golden_file(self, capsys):
        from valuetax import parse_taxonomy, propagate
        document = GOLDEN / "propagate-defaults-taxonomy.json"
        assert propagate(parse_taxonomy(document.read_text(encoding="utf-8"))).iterations == 3
        code, out, err = run(capsys, "propagate", "--format", "machine", "--input", str(document))
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "propagate-defaults.json").read_text(encoding="utf-8")

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

    def test_machine_report_matches_the_golden_file(self, capsys):
        # p is the minimum of its children but not their mean; q is coherent,
        # r lacks a child value, and the root disagrees with its children.
        code, out, err = run(capsys, "coherence", "--format", "machine",
                             "--input", str(GOLDEN / "incoherent-taxonomy.json"))
        assert (code, err) == (2, "")
        assert out == (GOLDEN / "coherence-incoherent.json").read_text(encoding="utf-8")

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

    # A DAG whose shared child is kept under both overrides, with ids not in edge order.
    @pytest.mark.parametrize("override, golden", [
        (("--strategy", "kmeans2"), "context-kmeans2.json"),
        (("--threshold", "0.3"), "context-threshold.json")], ids=["kmeans2", "threshold"])
    def test_machine_output_matches_the_golden_file(self, capsys, override, golden):
        code, out, err = run(capsys, *self.GOLDEN_ARGV, *override, "--format", "machine")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_only_the_general_taxonomy_is_validated(self, capsys, monkeypatch):
        # the kept subgraph inherits its structure from the validated general taxonomy
        calls = record_calls(monkeypatch, taxonomy_module.validate)
        assert run(capsys, *self.GOLDEN_ARGV, "--strategy", "kmeans2")[0] == 0
        assert [len(taxonomy.nodes) for (taxonomy,) in calls] == [10]

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

    @pytest.mark.parametrize("read_chars", [1, 3, io_formats._BLOCK_CHARS])
    def test_mixed_log_output_matches_the_golden_file(self, capsys, monkeypatch, read_chars):
        # canonical and other spellings, CRLF ends, a blank line, a non-ASCII member
        # and an unterminated last line
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

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")
        doc = json.loads(out, parse_constant=refuse)
        assert doc["score"] == doc["score_bound"] == 2.0 ** 1023
        assert [p["paths"] for p in doc["per_property"]] == [2 ** 1023] * 2

    def test_a_path_score_past_the_float_range_is_invalid_input(
            self, capsys, tmp_path, saturating_log_file):
        path, (code, out, err) = self.ladder_align(capsys, tmp_path, saturating_log_file, 1100)
        assert (code, out) == (1, "")
        assert err == f"{path}: path-weighted contribution of 'offer_ratio' is past the float range\n"

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

    def test_export_dot(self, capsys, fairness_file):
        code, out, _ = run(capsys, "export-dot", "--input", fairness_file)
        assert code == 0
        assert out.startswith("digraph value_taxonomy {")
        assert '"offer_ratio" [shape=square' in out

    # A label's text with a quote, a backslash and a non-ASCII letter; properties
    # whose catalog reference differs from the id; a node of each kind without
    # its text key; and importances that propagate completes.
    @pytest.mark.parametrize("argv, golden", [
        (("propagate", "--format", "machine"), "propagate-node-text.json"),
        (("export-dot",), "export-dot-node-text.dot")], ids=["propagate", "export-dot"])
    def test_node_text_outputs_match_the_golden_files(self, capsys, argv, golden):
        code, out, err = run(capsys, *argv, "--input", str(GOLDEN / "node-text-taxonomy.json"))
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_output_flag_writes_file(self, capsys, fairness_file, tmp_path):
        target = tmp_path / "out.dot"
        code, out, _ = run(capsys, "export-dot", "--input", fairness_file,
                           "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("digraph")


# Every command that reads a taxonomy refuses an invalid one before it reads
# any other input: it exits 1 with the first violation as its only output,
# one stderr line naming the document as given.
@pytest.mark.parametrize("command, extra", [
    ("propagate", ()),
    ("coherence", ()),
    ("context", ("--context", "ctx.json")),
    ("align", ("--log", "events.jsonl")),
    ("paths", ()),
    ("export-dot", ()),
])
def test_invalid_taxonomy_exits_one_with_its_first_violation(
        capsys, tmp_path, monkeypatch, command, extra):
    (tmp_path / "invalid-taxonomy.json").write_bytes(
        (GOLDEN / "invalid-taxonomy.json").read_bytes())
    (tmp_path / "ctx.json").write_text(context_document(ContextSpec("c")), encoding="utf-8")
    (tmp_path / "events.jsonl").write_text(demo_event_log(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "--input", "invalid-taxonomy.json", *extra)
    assert (code, out) == (1, "")
    assert err == (GOLDEN / "propagate-invalid.txt").read_text(encoding="utf-8")


# A value a record refuses is located at the document entry that holds it.
def test_out_of_range_importance_exits_one_naming_its_entry(capsys, tmp_path, monkeypatch):
    (tmp_path / "bad-importance-taxonomy.json").write_bytes(
        (GOLDEN / "bad-importance-taxonomy.json").read_bytes())
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "propagate", "--input", "bad-importance-taxonomy.json")
    assert (code, out) == (1, "")
    assert err == (GOLDEN / "propagate-bad-importance.txt").read_text(encoding="utf-8")

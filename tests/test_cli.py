"""Command-line interface tests, driven through main() with file fixtures."""

from __future__ import annotations

import json

import pytest

from valuetax import (
    ContextSpec,
    ValueTaxonomy,
    build_context_taxonomy,
    fairness_taxonomy,
    label_node,
    serialize_taxonomy,
)
from valuetax.cli import demo_event_log, main

from conftest import context_document


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

    def test_event_log_fixture_is_well_formed(self):
        from valuetax import parse_event_log
        events = parse_event_log(demo_event_log())
        assert len(events) == 112


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

    def test_output_flag_writes_file(self, capsys, fairness_file, tmp_path):
        target = tmp_path / "out.dot"
        code, out, _ = run(capsys, "export-dot", "--input", fairness_file,
                           "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("digraph")

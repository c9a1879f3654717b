from __future__ import annotations

import json

import pytest

from sqlmend.cli import main

CLEAN_ACTIONS = "add_select(title)\nadd_from(episode)\n"
BAD_ACTIONS = 'add_select(flavor)\nadd_from(episode)\nadd_where(id, =, "abc")\n'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schema_prints_catalog_json(capsys, episode_db):
    code, out, _err = run_cli(capsys, "schema", str(episode_db))
    assert code == 0
    catalog = json.loads(out)
    assert {t["name"] for t in catalog["tables"]} == {"episode", "pairing", "network"}


def test_retrieve_reports_mismatch_with_candidates(capsys, episode_db):
    code, out, _err = run_cli(capsys, "retrieve", str(episode_db),
                              "--column", "episode.written_by",
                              "--value", "todd casey")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "mismatch"
    assert verdict["candidates"][0]["value"] == "Todd Casey"


def test_retrieve_reports_match(capsys, episode_db):
    code, out, _err = run_cli(capsys, "retrieve", str(episode_db),
                              "--column", "written_by", "--value", "Todd Casey")
    assert code == 0
    assert json.loads(out) == {"status": "matched", "raw_value": "Todd Casey"}


def test_detect_clean_fixture_exits_zero(capsys, episode_db, tmp_path):
    actions = tmp_path / "clean.actions"
    actions.write_text(CLEAN_ACTIONS)
    code, out, _err = run_cli(capsys, "detect", str(episode_db),
                              "--actions", str(actions))
    assert code == 0
    assert json.loads(out) == {"parse_errors": [], "findings": []}


def test_detect_findings_exit_one(capsys, episode_db, tmp_path):
    actions = tmp_path / "bad.actions"
    actions.write_text(BAD_ACTIONS)
    code, out, _err = run_cli(capsys, "detect", str(episode_db),
                              "--actions", str(actions))
    assert code == 1
    payload = json.loads(out)
    kinds = {f["kind"] for f in payload["findings"]}
    assert kinds == {"UnknownColumn", "TypeMismatch"}


def test_detect_with_rules_file(capsys, episode_db, tmp_path):
    actions = tmp_path / "a.actions"
    actions.write_text("add_select(air_date)\nadd_from(episode)\n")
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{"rule_id": "nn", "kind": "require_null_filter",
                                  "params": {"column": "episode.air_date"}}]))
    code, out, _err = run_cli(capsys, "detect", str(episode_db),
                              "--actions", str(actions), "--rules", str(rules))
    assert code == 1
    assert json.loads(out)["findings"][0]["kind"] == "CustomRuleViolation"


def test_assemble_outputs_sql(capsys, tmp_path):
    actions = tmp_path / "q.actions"
    actions.write_text('add_select(air_date)\nadd_from(episode)\n'
                       'add_where(title, =, "A Love of a Lifetime")\n')
    code, out, _err = run_cli(capsys, "assemble", "--actions", str(actions))
    assert code == 0
    assert out.strip() == \
        "SELECT air_date FROM episode WHERE title = 'A Love of a Lifetime'"


def test_assemble_with_connectives(capsys, tmp_path):
    actions = tmp_path / "q.actions"
    actions.write_text('add_select(title)\nadd_from(episode)\n'
                       'add_where(title, =, "a")\nadd_where(title, =, "b")\n')
    code, out, _err = run_cli(capsys, "assemble", "--actions", str(actions),
                              "--connectives", "OR")
    assert code == 0
    assert "WHERE title = 'a' OR title = 'b'" in out


def test_refine_replay_fixes_value(capsys, episode_db, tmp_path):
    question = "Which episodes did todd casey write?"
    script = tmp_path / "replay.json"
    script.write_text(json.dumps({question: [
        'add_select(title)\nadd_from(episode)\nadd_where(written_by, =, "todd casey")',
        'add_select(title)\nadd_from(episode)\nadd_where(written_by, =, "Todd Casey")',
    ]}))
    trace_out = tmp_path / "trace.json"
    code, out, _err = run_cli(capsys, "refine", str(episode_db),
                              "--question", question,
                              "--agent", f"replay:{script}",
                              "--trace-out", str(trace_out))
    assert code == 0
    payload = json.loads(out)
    assert "'Todd Casey'" in payload["final_sql"]
    assert len(payload["trace"]["iterations"]) == 2
    assert json.loads(trace_out.read_text()) == payload


def test_refine_ablation_flags(capsys, episode_db, tmp_path):
    question = "anything"
    script = tmp_path / "replay.json"
    script.write_text(json.dumps({question: [
        'add_select(title)\nadd_from(episode)\nadd_where(written_by, =, "todd casey")']}))
    code, out, _err = run_cli(capsys, "refine", str(episode_db),
                              "--question", question,
                              "--agent", f"replay:{script}",
                              "--no-retriever", "--no-detector")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["trace"]["iterations"]) == 1
    assert payload["trace"]["iterations"][0]["feedback"]["approved"] is True


def test_postprocess_filter_mode(capsys, episode_db, tmp_path):
    sql_file = tmp_path / "preds.sql"
    sql_file.write_text(
        "SELECT air_date FROM episode WHERE written_by = 'todd casey'\n"
        "SELECT title FROM episode WHERE id = 3\n")
    code, out, _err = run_cli(capsys, "postprocess", str(episode_db),
                              "--sql-file", str(sql_file))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].endswith("written_by = 'Todd Casey'")
    assert lines[1].endswith("id = 3")


def test_eval_gold_as_predictions(capsys, toy_dataset, tmp_path):
    preds = tmp_path / "gold.sql"
    examples = json.loads(toy_dataset.read_text())
    preds.write_text("\n".join(e["gold_sql"] for e in examples) + "\n")
    code, out, err = run_cli(capsys, "eval", str(toy_dataset),
                             "--pred", f"file:{preds}")
    assert code == 0
    report = json.loads(out)
    assert report["aggregates"]["ex_rate"] == 1.0
    assert "EX 3/3" in err


def test_eval_pipeline_predictor(capsys, toy_dataset, tmp_path):
    examples = json.loads(toy_dataset.read_text())
    script = {e["question"]: ["add_select(*)\nadd_from(show)"] for e in examples}
    script[examples[0]["question"]] = [
        'add_select(air_date)\nadd_from(show)\nadd_where(title, =, "A Love of a Lifetime")']
    script[examples[1]["question"]] = ["add_select(COUNT(*))\nadd_from(show)"]
    script[examples[2]["question"]] = ["add_select(title)\nadd_from(show)"]
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(script))
    code, out, _err = run_cli(capsys, "eval", str(toy_dataset),
                              "--pred", "pipeline", "--agent", f"replay:{replay}")
    assert code == 0
    assert json.loads(out)["aggregates"]["ex_rate"] == 1.0


def test_perturb_emits_labeled_jsonl(capsys, tmp_path, episode_db):
    question = 'When did the episode "A Love of a Lifetime" air?'
    dataset = tmp_path / "annotated.jsonl"
    record = {
        "question": question,
        "gold_sql": "SELECT air_date FROM episode WHERE title = 'A Love of a Lifetime'",
        "db_id": "episodes",
        "value_spans": [{"start": question.index('"'),
                         "end": question.index('?') - len(" air"),
                         "column": "episode.title",
                         "literal": "A Love of a Lifetime"}],
        "column_mention_spans": [{"start": 9, "end": 20, "column": "episode.title"}],
    }
    dataset.write_text(json.dumps(record) + "\n")
    code, out, _err = run_cli(capsys, "perturb", str(dataset),
                              "--kinds", "remove_column,remove_highlight", "--seed", "3")
    assert code == 0
    perturbed = json.loads(out.strip())
    assert perturbed["question"] == "When did a love of lifetime air?"
    assert perturbed["perturbations"] == ["remove_column", "remove_highlight"]
    assert perturbed["provenance"] == "machine-perturbed"

    # the emitted JSONL is readable by the package's own loader
    from sqlmend.perturb import read_examples

    round_trip = tmp_path / "perturbed.jsonl"
    round_trip.write_text(out)
    [loaded] = read_examples(round_trip)
    assert loaded.question == perturbed["question"]


def test_config_file_sets_defaults_flags_override(capsys, episode_db, tmp_path):
    question = "stubborn"
    script = tmp_path / "replay.json"
    script.write_text(json.dumps({question: [
        'add_select(title)\nadd_from(episode)\nadd_where(written_by, =, "nope")']}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_iterations": 1}))

    code, out, _err = run_cli(capsys, "refine", str(episode_db),
                              "--question", question,
                              "--agent", f"replay:{script}",
                              "--config", str(config))
    assert code == 0
    assert len(json.loads(out)["trace"]["iterations"]) == 2  # 1 + initial

    code, out, _err = run_cli(capsys, "refine", str(episode_db),
                              "--question", question,
                              "--agent", f"replay:{script}",
                              "--config", str(config), "--max-iter", "0")
    assert code == 0
    assert len(json.loads(out)["trace"]["iterations"]) == 1  # flag wins


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect"])  # missing required arguments
    assert exc.value.code == 2


def test_malformed_rule_params_exit_one_with_json(capsys, episode_db, tmp_path):
    actions = tmp_path / "a.actions"
    actions.write_text(CLEAN_ACTIONS)
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{"rule_id": "nn", "kind": "require_null_filter",
                                  "params": "oops"}]))
    code, out, err = run_cli(capsys, "detect", str(episode_db),
                             "--actions", str(actions), "--rules", str(rules))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "InvalidRuleConfig"


def test_operational_error_exits_one_with_json(capsys, tmp_path):
    code, _out, err = run_cli(capsys, "schema", str(tmp_path / "missing.sqlite"))
    assert code == 1
    assert json.loads(err)["error"] == "FileNotFoundError"

from __future__ import annotations

import json

import pytest

from sqlmend.cli import main

CLEAN_ACTIONS = "add_select(title)\nadd_from(episode)\n"
BAD_ACTIONS = 'add_select(flavor)\nadd_from(episode)\nadd_where(id, =, "abc")\n'
DUPLICATE_CLAUSE_ACTIONS = "add_select(title)\nadd_select(air_date)\nadd_from(episode)\n"
# the qa() child names itself, so rendering it would never end
SELF_REFERENCE_TEXT = ('add_select(title)\nadd_from(episode)\nadd_where(id, IN, @s.3.qa)\n'
                       'qa("q"):\n    add_select(id)\n    add_where(id, IN, @s.3.qa)\n')


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


def test_detect_reports_a_duplicate_clause_as_a_parse_error(capsys, episode_db, tmp_path):
    actions = tmp_path / "dup.actions"
    actions.write_text(DUPLICATE_CLAUSE_ACTIONS)
    code, out, _err = run_cli(capsys, "detect", str(episode_db),
                              "--actions", str(actions))
    assert code == 1
    assert json.loads(out) == {
        "parse_errors": [{"line": 2, "reason": "more than one AddSelect at this level"}],
        "findings": []}


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


def test_refine_without_the_detector_does_not_approve_a_duplicate_clause(
        capsys, episode_db, tmp_path):
    script = tmp_path / "replay.json"
    script.write_text(json.dumps({"q": [DUPLICATE_CLAUSE_ACTIONS]}))
    code, out, _err = run_cli(capsys, "refine", str(episode_db), "--question", "q",
                              "--agent", f"replay:{script}", "--max-iter", "1",
                              "--no-retriever", "--no-detector")
    assert code == 0
    trace = json.loads(out)["trace"]
    assert trace["exhausted"] is True
    assert [it["feedback"]["approved"] for it in trace["iterations"]] == [False, False]
    assert trace["iterations"][0]["feedback"]["parse_errors"] == [
        {"line": 2, "reason": "more than one AddSelect at this level"}]


@pytest.mark.parametrize("flags", [[], ["--dbms-feedback"]])
def test_refine_reports_a_self_reference_as_an_assembly_error(capsys, episode_db,
                                                              tmp_path, flags):
    script = tmp_path / "replay.json"
    script.write_text(json.dumps({"q": [SELF_REFERENCE_TEXT]}))
    code, out, _err = run_cli(capsys, "refine", str(episode_db), "--question", "q",
                              "--agent", f"replay:{script}", "--max-iter", "0", *flags)
    assert code == 0
    payload = json.loads(out)
    assert payload["final_sql"] is None
    assert "referenced from inside itself" in payload["assembly_error"]
    if flags:
        [finding] = payload["trace"]["iterations"][0]["feedback"]["findings"]
        assert finding["kind"] == "ExecutionError"
        assert "referenced from inside itself" in finding["detail"]


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


def test_postprocess_rewrites_a_literal_after_a_subquery(capsys, episode_db, tmp_path):
    sql_file = tmp_path / "preds.sql"
    sql_file.write_text("SELECT title FROM episode WHERE id IN (SELECT episode_id FROM pairing) "
                        "AND written_by = 'todd casey'\n")
    code, out, _err = run_cli(capsys, "postprocess", str(episode_db),
                              "--sql-file", str(sql_file))
    assert code == 0
    assert out.strip().endswith("AND written_by = 'Todd Casey'")


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


def test_schema_prints_the_source_path_as_typed(capsys, monkeypatch, tmp_path, episode_db):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "x.sqlite").write_bytes(episode_db.read_bytes())
    monkeypatch.chdir(tmp_path)
    code, out, _err = run_cli(capsys, "schema", "./sub/x.sqlite")
    assert code == 0
    assert json.loads(out)["source"] == "./sub/x.sqlite"


def test_eval_pipeline_reads_the_replay_script_once(capsys, monkeypatch, toy_dataset,
                                                    tmp_path):
    from sqlmend.orchestrator import ScriptedAgent

    loads = []
    from_file = ScriptedAgent.from_file.__func__
    monkeypatch.setattr(ScriptedAgent, "from_file", classmethod(
        lambda cls, path: loads.append(path) or from_file(cls, path)))
    examples = json.loads(toy_dataset.read_text())
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(
        {e["question"]: ["add_select(title)\nadd_from(show)"] for e in examples}))
    code, out, _err = run_cli(capsys, "eval", str(toy_dataset),
                              "--pred", "pipeline", "--agent", f"replay:{replay}")
    assert code == 0
    assert json.loads(out)["aggregates"]["n"] == len(examples) > 1
    assert loads == [str(replay)]


def test_eval_parses_the_dataset_once(capsys, monkeypatch, toy_dataset, tmp_path):
    import sqlmend.cli
    import sqlmend.evaluation

    loads = []
    load_dataset = sqlmend.evaluation.load_dataset

    def counting(*args, **kwargs):
        loads.append(args[0])
        return load_dataset(*args, **kwargs)

    for module in (sqlmend.cli, sqlmend.evaluation):
        monkeypatch.setattr(module, "load_dataset", counting)
    preds = tmp_path / "gold.sql"
    preds.write_text("\n".join(e["gold_sql"] for e in json.loads(toy_dataset.read_text())))
    code, out, _err = run_cli(capsys, "eval", str(toy_dataset), "--pred", f"file:{preds}",
                              "--post-process")
    assert code == 0
    assert json.loads(out)["aggregates"]["ex_rate"] == 1.0
    assert loads == [str(toy_dataset)]


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


def _perturb_with_db_root(capsys, tmp_path, db_file) -> tuple[int, dict]:
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "d.sqlite").write_bytes(db_file.read_bytes())
    question = 'Which episodes did "Todd Casey" write?'
    start = question.index("Todd")
    record = {"question": question, "db_id": "d",
              "gold_sql": "SELECT title FROM episode WHERE written_by = 'Todd Casey'",
              "value_spans": [{"start": start, "end": start + len("Todd Casey"),
                               "column": "episode.written_by", "literal": "Todd Casey"}]}
    code, out, _err = run_cli(capsys, "perturb", _file(tmp_path / "a.jsonl", record),
                              "--kinds", "replace_value", "--db-root", str(tmp_path))
    return code, json.loads(out)


def test_perturb_db_root_replaces_a_value_with_another_cell(capsys, tmp_path, episode_db):
    code, perturbed = _perturb_with_db_root(capsys, tmp_path, episode_db)
    assert code == 0
    assert perturbed["perturbations"] == ["replace_value"]
    [span] = perturbed["value_spans"]
    assert span["literal"] in {"Chris Dingess", "Juan Carlos Coto", "Dan Dworkin"}
    assert perturbed["gold_sql"] == ("SELECT title FROM episode "
                                     f"WHERE written_by = '{span['literal']}'")
    assert perturbed["question"][span["start"]:span["end"]] == span["literal"]


def test_perturb_db_root_leaves_a_one_cell_column_alone(capsys, tmp_path, tmp_db):
    db = tmp_db("CREATE TABLE episode (title TEXT, written_by TEXT);",
                {"episode": [("Double Down", "Todd Casey")]})
    code, perturbed = _perturb_with_db_root(capsys, tmp_path, db)
    assert code == 0
    assert perturbed["perturbations"] == []
    assert perturbed["gold_sql"] == "SELECT title FROM episode WHERE written_by = 'Todd Casey'"


def test_candidate_k_and_max_iter_flags_set_the_loop(capsys, episode_db, tmp_path):
    question = "stubborn"
    script = tmp_path / "replay.json"
    script.write_text(json.dumps({question: [
        'add_select(title)\nadd_from(episode)\nadd_where(written_by, =, "nope")']}))

    def refine_trace(*flags) -> dict:
        code, out, _err = run_cli(capsys, "refine", str(episode_db), "--question", question,
                                  "--agent", f"replay:{script}", *flags)
        assert code == 0
        return json.loads(out)["trace"]

    def candidate_counts(trace) -> list[int]:
        return [len(v["candidates"]) for it in trace["iterations"]
                for v in it["feedback"]["verdicts"] if v["status"] == "mismatch"]

    default = refine_trace()
    assert len(default["iterations"]) == 4  # the default budget: 3 + initial
    assert min(candidate_counts(default)) > 1

    capped = refine_trace("--candidate-k", "1", "--max-iter", "1")
    assert len(capped["iterations"]) == 2  # 1 + initial
    assert candidate_counts(capped) == [1, 1]


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


def _file(path, content) -> str:
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def _replay(tmp, script) -> str:
    return "replay:" + _file(tmp / "replay.json", script)


def _dataset(tmp, db, record) -> str:
    (tmp / "database" / "d").mkdir(parents=True)
    (tmp / "database" / "d" / "d.sqlite").write_bytes(db.read_bytes())
    return _file(tmp / "examples.json", [record])


_ONE_SPAN = {"question": "Fox?", "gold_sql": "SELECT 1 WHERE name = 'Fox'", "db_id": "d",
             "value_spans": [{"start": 0, "end": 3, "column": "name", "literal": "Fox"}]}

# subcommand input that cannot be used -> (argv, the error the CLI reports,
# or the error and its detail); argparse usage errors exit 2 with their
# usage text instead of JSON
UNUSABLE_INPUT = {
    "schema-directory": (lambda t, db: ["schema", str(t)], "CorruptDatabase"),
    "retrieve-usage": (lambda t, db: ["retrieve", str(db)], 2),
    "retrieve-negative-k": (lambda t, db: ["retrieve", str(db), "--column", "title",
                                           "--value", "x", "-k", "-1"], "ValueError"),
    "detect-rule-column-not-a-string": (lambda t, db: [
        "detect", str(db), "--actions", _file(t / "a.actions", CLEAN_ACTIONS), "--rules",
        _file(t / "r.json", [{"rule_id": "r", "kind": "require_null_filter",
                              "params": {"column": 5}}])], "InvalidRuleConfig"),
    "detect-rule-column-trailing-newline": (lambda t, db: [
        "detect", str(db), "--actions", _file(t / "a.actions", CLEAN_ACTIONS), "--rules",
        _file(t / "r.json", [{"rule_id": "r", "kind": "require_null_filter",
                              "params": {"column": "episode.title\n"}}])], "InvalidRuleConfig"),
    "assemble-self-reference": (lambda t, db: [
        "assemble", "--actions", _file(t / "a.actions", SELF_REFERENCE_TEXT)],
        "UnresolvedSubQuestion"),
    "assemble-duplicate-clause": (lambda t, db: [
        "assemble", "--actions", _file(t / "a.actions", DUPLICATE_CLAUSE_ACTIONS)],
        "AssemblyError"),
    "assemble-bad-connective": (lambda t, db: [
        "assemble", "--actions", _file(t / "a.actions", CLEAN_ACTIONS),
        "--connectives", "XOR"], "AssemblyError"),
    "refine-replay-empty-list": (lambda t, db: [
        "refine", str(db), "--question", "q", "--agent", _replay(t, {"q": []})], "ValueError"),
    "refine-replay-object": (lambda t, db: [
        "refine", str(db), "--question", "q", "--agent", _replay(t, {"q": {}})], "ValueError"),
    "refine-replay-array": (lambda t, db: [
        "refine", str(db), "--question", "q", "--agent", _replay(t, ["q"])], "ValueError"),
    "refine-replay-not-text": (lambda t, db: [
        "refine", str(db), "--question", "q", "--agent", _replay(t, {"q": [5]})], "ValueError"),
    "refine-negative-candidate-k": (lambda t, db: [
        "refine", str(db), "--question", "q", "--agent", _replay(t, {"q": CLEAN_ACTIONS}),
        "--candidate-k", "-1"], "ValueError"),
    "refine-candidate-k-boolean": (lambda t, db: [
        "refine", str(db), "--question", "q", "--agent", _replay(t, {"q": CLEAN_ACTIONS}),
        "--candidate-k", "true"], 2),
    "refine-max-iterations-not-a-number": (lambda t, db: [
        "refine", str(db), "--question", "q", "--agent", _replay(t, {"q": CLEAN_ACTIONS}),
        "--max-iter", "three"], 2),
    # a misspelt setting would otherwise run the default silently
    "refine-misspelt-setting": (lambda t, db: [
        "refine", str(db), "--question", "q", "--agent", _replay(t, {"q": CLEAN_ACTIONS}),
        "--max-iteration", "0"], 2),
    "eval-negative-candidate-k": (lambda t, db: [
        "eval", _dataset(t, db, {"question": "q", "gold_sql": "SELECT 1", "db_id": "d"}),
        "--pred", "pipeline", "--agent", _replay(t, {"q": CLEAN_ACTIONS}),
        "--candidate-k", "-1"], ("ValueError", "candidate_k must be a non-negative integer")),
    # the file predictor ignores the refinement flags, but they are still checked
    "eval-file-negative-candidate-k": (lambda t, db: [
        "eval", _dataset(t, db, {"question": "q", "gold_sql": "SELECT 1", "db_id": "d"}),
        "--pred", "file:" + _file(t / "p.sql", "SELECT 1\n"),
        "--candidate-k", "-1"], ("ValueError", "candidate_k must be a non-negative integer")),
    "refine-no-detector-with-dbms-feedback": (lambda t, db: [
        "refine", str(db), "--question", "q", "--agent", _replay(t, {"q": CLEAN_ACTIONS}),
        "--no-detector", "--dbms-feedback"], 2),
    "eval-no-detector-with-dbms-feedback": (lambda t, db: [
        "eval", _dataset(t, db, {"question": "q", "gold_sql": "SELECT 1", "db_id": "d"}),
        "--pred", "pipeline", "--agent", _replay(t, {"q": CLEAN_ACTIONS}),
        "--no-detector", "--dbms-feedback"], 2),
    "refine-http-without-endpoint": (lambda t, db: [
        "refine", str(db), "--question", "q", "--agent", "http"], "AgentFailure"),
    "postprocess-missing-sql-file": (lambda t, db: [
        "postprocess", str(db), "--sql-file", str(t / "missing.sql")], "FileNotFoundError"),
    "eval-db-id-not-a-string": (lambda t, db: [
        "eval", _file(t / "examples.json", [{"question": "q", "gold_sql": "SELECT 1",
                                             "db_id": 5}]),
        "--pred", "file:" + _file(t / "p.sql", "SELECT 1\n")], "DatasetFormatError"),
    "eval-pipeline-unusable-replay": (lambda t, db: [
        "eval", _dataset(t, db, {"question": "q", "gold_sql": "SELECT 1", "db_id": "d"}),
        "--pred", "pipeline", "--agent", _replay(t, {"q": []})], "ValueError"),
    "eval-dataset-not-json": (lambda t, db: [
        "eval", _file(t / "examples.json", "[{"), "--pred", "pipeline"], "DatasetFormatError"),
    "eval-dataset-not-an-array": (lambda t, db: [
        "eval", _file(t / "examples.json", {"question": "q"}), "--pred", "pipeline"],
        "DatasetFormatError"),
    "eval-record-not-an-object": (lambda t, db: [
        "eval", _file(t / "examples.json", ["q"]), "--pred", "pipeline"],
        "DatasetFormatError"),
    "eval-unknown-predictor": (lambda t, db: [
        "eval", _dataset(t, db, {"question": "q", "gold_sql": "SELECT 1", "db_id": "d"}),
        "--pred", "oracle"], "DatasetFormatError"),
    "eval-pipeline-without-agent": (lambda t, db: [
        "eval", _dataset(t, db, {"question": "q", "gold_sql": "SELECT 1", "db_id": "d"}),
        "--pred", "pipeline"], "DatasetFormatError"),
    "eval-unknown-agent-spec": (lambda t, db: [
        "eval", _dataset(t, db, {"question": "q", "gold_sql": "SELECT 1", "db_id": "d"}),
        "--pred", "pipeline", "--agent", "oracle"], "ValueError"),
    "perturb-line-not-json": (lambda t, db: [
        "perturb", _file(t / "a.jsonl", json.dumps(_ONE_SPAN) + "\n{")], "AnnotationError"),
    "perturb-record-without-gold-sql": (lambda t, db: [
        "perturb", _file(t / "a.jsonl", json.dumps(
            {k: v for k, v in _ONE_SPAN.items() if k != "gold_sql"}))],
        ("AnnotationError", "line 1: missing field 'gold_sql'")),
    "detect-rule-entry-not-an-object": (lambda t, db: [
        "detect", str(db), "--actions", _file(t / "a.actions", CLEAN_ACTIONS), "--rules",
        _file(t / "r.json", ["nn"])], "InvalidRuleConfig"),
    "detect-rule-pattern-not-a-string": (lambda t, db: [
        "detect", str(db), "--actions", _file(t / "a.actions", CLEAN_ACTIONS), "--rules",
        _file(t / "r.json", [{"rule_id": "r", "kind": "value_format",
                              "params": {"column": "episode.air_date", "pattern": 5}}])],
        "InvalidRuleConfig"),
    "perturb-unknown-kind": (lambda t, db: [
        "perturb", _file(t / "a.jsonl", ""), "--kinds", "bogus"], "AnnotationError"),
    "perturb-column-not-a-string": (lambda t, db: [
        "perturb", _file(t / "a.jsonl", json.dumps(
            {**_ONE_SPAN, "value_spans": [{**_ONE_SPAN["value_spans"][0], "column": 5}]})),
        "--db-root", str(t)], "AnnotationError"),
    "perturb-span-bound-not-a-number": (lambda t, db: [
        "perturb", _file(t / "a.jsonl", json.dumps(
            {**_ONE_SPAN, "value_spans": [{**_ONE_SPAN["value_spans"][0], "start": "0"}]}))],
        "AnnotationError"),
}

@pytest.mark.parametrize("case", sorted(UNUSABLE_INPUT))
def test_unusable_input_exits_with_an_error_not_a_traceback(capsys, monkeypatch, tmp_path,
                                                            episode_db, case):
    monkeypatch.delenv("SQLMEND_LLM_ENDPOINT", raising=False)
    build, expected = UNUSABLE_INPUT[case]
    try:
        code = main(build(tmp_path, episode_db))
    except SystemExit as exc:  # argparse
        code = exc.code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if expected == 2:
        assert code == 2 and "usage:" in captured.err
    else:
        assert code == 1
        assert captured.out == ""
        error = json.loads(captured.err)
        if isinstance(expected, tuple):
            expected, detail = expected
            assert error["detail"] == detail
        assert error["error"] == expected

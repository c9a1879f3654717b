from __future__ import annotations

import json
from dataclasses import replace

import pytest

from sqlmend.evaluation import exact_match, execution_accuracy
from sqlmend.perturb import (
    AnnotatedExample,
    AnnotationError,
    ColumnMentionSpan,
    NoApplicableSpan,
    Span,
    ValueSpan,
    dehighlight,
    example_from_json,
    perturb_example,
    remove_column_mention,
    remove_highlight,
    replace_common_value,
)

QUESTION = 'When did the episode "A Love of a Lifetime" air?'
GOLD = "SELECT air_date FROM episode WHERE title = 'A Love of a Lifetime'"


@pytest.fixture()
def annotated() -> AnnotatedExample:
    value_start = QUESTION.index('"')
    value_end = QUESTION.index("?") - len(" air")
    mention_start = QUESTION.index("the episode")
    return example_from_json({
        "question": QUESTION,
        "gold_sql": GOLD,
        "db_id": "episodes",
        "value_spans": [{"start": value_start, "end": value_end,
                         "column": "episode.title",
                         "literal": "A Love of a Lifetime"}],
        "column_mention_spans": [{"start": mention_start,
                                  "end": mention_start + len("the episode"),
                                  "column": "episode.title"}],
    })


def test_remove_column_mention(annotated):
    out = remove_column_mention(annotated)
    assert out.question == 'When did "A Love of a Lifetime" air?'
    assert out.gold_sql == GOLD
    assert out.column_mention_spans == ()
    [value] = out.value_spans
    assert out.question[value.span.start:value.span.end] == '"A Love of a Lifetime"'


def test_remove_column_mention_requires_span():
    example = AnnotatedExample(question="plain", gold_sql="SELECT 1", db_id="d")
    with pytest.raises(NoApplicableSpan):
        remove_column_mention(example)


def test_remove_column_mention_takes_first_of_two():
    question = "the title and the name please"
    example = AnnotatedExample(
        question=question, gold_sql="SELECT 1", db_id="d",
        column_mention_spans=(
            ColumnMentionSpan(span=Span(0, 9), column="t.title"),
            ColumnMentionSpan(span=Span(14, 22), column="t.name"),
        ))
    out = remove_column_mention(example)
    assert out.question == "and the name please"
    assert len(out.column_mention_spans) == 1


def test_dehighlight_matches_worked_example():
    assert dehighlight('"A Love of a Lifetime"') == "a love of lifetime"
    assert dehighlight('"Todd Casey"') == "todd casey"


def test_remove_highlight(annotated):
    out = remove_highlight(annotated)
    assert out.question == "When did the episode a love of lifetime air?"
    assert out.gold_sql == GOLD  # the mismatch is deliberate
    [value] = out.value_spans
    assert out.question[value.span.start:value.span.end] == "a love of lifetime"


def test_remove_highlight_unquoted_capitalized():
    question = "Who wrote Double Down?"
    example = AnnotatedExample(
        question=question, gold_sql="SELECT written_by FROM episode WHERE title = 'Double Down'",
        db_id="d",
        value_spans=(ValueSpan(span=Span(10, 21), column="episode.title",
                               literal="Double Down"),))
    out = remove_highlight(example)
    assert out.question == "Who wrote double down?"


def test_remove_highlight_lowercase_unquoted_not_applicable():
    example = AnnotatedExample(
        question="who wrote double down?", gold_sql="SELECT 1 WHERE x = 'double down'",
        db_id="d",
        value_spans=(ValueSpan(span=Span(10, 21), column="t.c", literal="double down"),))
    with pytest.raises(NoApplicableSpan):
        remove_highlight(example)


def test_replace_common_value(annotated, episode_catalog, episode_index):
    out = replace_common_value(annotated, episode_catalog, episode_index, rng_seed=1)
    [value] = out.value_spans
    new_cell = value.literal
    assert new_cell != "A Love of a Lifetime"
    assert new_cell in episode_index.column_cells("episode", "title").cells
    assert out.question == QUESTION.replace('"A Love of a Lifetime"', new_cell)
    assert out.gold_sql == GOLD.replace("A Love of a Lifetime", new_cell)


def test_replace_common_value_can_select_double_down(annotated, episode_catalog,
                                                     episode_index):
    # seed 1 draws the "Double Down" cell from episode.title
    out = replace_common_value(annotated, episode_catalog, episode_index, rng_seed=1)
    assert out.value_spans[0].literal == "Double Down"
    assert out.question == "When did the episode Double Down air?"
    assert out.gold_sql == "SELECT air_date FROM episode WHERE title = 'Double Down'"


def test_replace_common_value_deterministic(annotated, episode_catalog, episode_index):
    first = replace_common_value(annotated, episode_catalog, episode_index, rng_seed=7)
    second = replace_common_value(annotated, episode_catalog, episode_index, rng_seed=7)
    assert first == second


def test_replace_common_value_single_cell_not_applicable(tmp_db):
    from sqlmend.schema_catalog import build_cell_index, load_catalog

    db = tmp_db("CREATE TABLE t (v TEXT);", {"t": [("only",)]})
    catalog = load_catalog(db)
    index = build_cell_index(catalog, db)
    example = AnnotatedExample(
        question="is it only?", gold_sql="SELECT * FROM t WHERE v = 'only'", db_id="d",
        value_spans=(ValueSpan(span=Span(6, 10), column="t.v", literal="only"),))
    with pytest.raises(NoApplicableSpan):
        replace_common_value(example, catalog, index, rng_seed=0)


def _named(question: str, column: str, *literals: str) -> tuple[ValueSpan, ...]:
    return tuple(ValueSpan(span=Span(question.index(lit), question.index(lit) + len(lit)),
                           column=column, literal=lit) for lit in literals)


def test_replace_common_value_keeps_values_of_one_column_distinct(episode_catalog,
                                                                  episode_index):
    # network.name holds only the two cells the question names, under a
    # qualified and a bare column name: no cell is left to swap in
    question = "Which networks are named Fox or ABC?"
    fox, abc = _named(question, "network.name", "Fox", "ABC")
    example = AnnotatedExample(
        question=question, db_id="episodes",
        gold_sql="SELECT id FROM network WHERE name = 'Fox' OR name = 'ABC'",
        value_spans=(fox, replace(abc, column="name")))
    question = "Which episodes were written by Todd Casey or Dan Dworkin?"
    written = AnnotatedExample(
        question=question, db_id="episodes",
        gold_sql=("SELECT title FROM episode WHERE written_by = 'Todd Casey' "
                  "OR written_by = 'Dan Dworkin'"),
        value_spans=_named(question, "episode.written_by", "Todd Casey", "Dan Dworkin"))
    for seed in range(20):
        with pytest.raises(NoApplicableSpan):
            replace_common_value(example, episode_catalog, episode_index, rng_seed=seed)
        out = replace_common_value(written, episode_catalog, episode_index, rng_seed=seed)
        first, second = (v.literal for v in out.value_spans)
        assert second == "Dan Dworkin"
        assert first not in ("Todd Casey", "Dan Dworkin")


@pytest.mark.parametrize("gold, expected", [
    # a whole string token, not the prefix of an escaped one
    ("SELECT * FROM t WHERE n = 'a''b' OR n = 'a'", "SELECT * FROM t WHERE n = 'a''b' OR n = 'Z'"),
    # a quoted copy inside a comment is no literal
    ("SELECT * FROM t -- was n = 'a'\nWHERE n = 'a'",
     "SELECT * FROM t -- was n = 'a'\nWHERE n = 'Z'"),
    # the first literal in text order, whatever its quotes
    ("SELECT * FROM t WHERE n = \"a\" OR m = 'a'", "SELECT * FROM t WHERE n = \"Z\" OR m = 'a'"),
])
def test_replace_common_value_replaces_a_whole_string_token(tmp_db, gold, expected):
    from sqlmend.schema_catalog import build_cell_index, load_catalog

    db = tmp_db("CREATE TABLE t (n TEXT, m TEXT);", {"t": [("a", "a"), ("Z", "Z")]})
    catalog = load_catalog(db)
    index = build_cell_index(catalog, db)
    example = AnnotatedExample(question="is it a?", gold_sql=gold, db_id="d",
                               value_spans=(ValueSpan(span=Span(6, 7), column="t.n",
                                                      literal="a"),))
    out = replace_common_value(example, catalog, index, rng_seed=0)
    assert out.question == "is it Z?"
    assert out.gold_sql == expected


def test_replace_common_value_edits_only_a_string_literal(episode_catalog, episode_index):
    # "a" occurs in the identifier `name` before the pattern '%a%'
    question = "Which networks have an a in the name?"
    example = AnnotatedExample(
        question=question, db_id="episodes",
        gold_sql="SELECT name FROM network WHERE name LIKE '%a%'",
        value_spans=(ValueSpan(span=Span(question.index(" a ") + 1, question.index(" a ") + 2),
                               column="network.name", literal="a"),))
    out = replace_common_value(example, episode_catalog, episode_index, rng_seed=0)
    new = out.value_spans[0].literal
    assert new in ("Fox", "ABC")
    assert out.question == f"Which networks have an {new} in the name?"
    assert out.gold_sql == f"SELECT name FROM network WHERE name LIKE '%{new}%'"


def test_replace_common_value_skips_a_value_no_string_literal_holds(episode_catalog,
                                                                     episode_index):
    question = "What is the id of Fox?"
    example = AnnotatedExample(
        question=question, db_id="episodes", gold_sql="SELECT id FROM network WHERE id = 1",
        value_spans=_named(question, "network.name", "Fox"))
    with pytest.raises(NoApplicableSpan):
        replace_common_value(example, episode_catalog, episode_index, rng_seed=0)


def test_replaced_gold_still_executes(annotated, episode_db, episode_catalog, episode_index):
    out = replace_common_value(annotated, episode_catalog, episode_index, rng_seed=3)
    assert execution_accuracy(out.gold_sql, out.gold_sql, episode_db) is True


def test_perturbations_preserve_masked_components(annotated, episode_catalog, episode_index):
    for perturbed in (
        remove_column_mention(annotated),
        remove_highlight(annotated),
        replace_common_value(annotated, episode_catalog, episode_index, rng_seed=5),
    ):
        assert exact_match(perturbed.gold_sql, annotated.gold_sql) is True


def test_perturb_example_applies_selected_kinds(annotated, episode_catalog, episode_index):
    out, applied = perturb_example(annotated, ["remove_column", "remove_highlight"],
                                   seed=0, catalog=episode_catalog, index=episode_index)
    assert applied == ["remove_column", "remove_highlight"]
    assert out.question == "When did a love of lifetime air?"


def test_perturb_example_skips_inapplicable(episode_catalog, episode_index):
    example = AnnotatedExample(question="nothing here", gold_sql="SELECT 1", db_id="d")
    out, applied = perturb_example(example, ["remove_column", "remove_highlight"],
                                   seed=0)
    assert applied == []
    assert out == example


def test_annotation_validation_rejects_bad_spans():
    with pytest.raises(AnnotationError):
        example_from_json({"question": "short", "gold_sql": "SELECT 1", "db_id": "d",
                           "value_spans": [{"start": 0, "end": 99, "column": "t.c",
                                            "literal": "x"}]})
    with pytest.raises(AnnotationError):
        example_from_json({"question": "overlapping here", "gold_sql": "SELECT 'x'",
                           "db_id": "d",
                           "value_spans": [{"start": 0, "end": 10, "column": "t.c",
                                            "literal": "x"}],
                           "column_mention_spans": [{"start": 5, "end": 12,
                                                     "column": "t.c"}]})
    with pytest.raises(AnnotationError):
        example_from_json({"question": "q value", "gold_sql": "SELECT 1", "db_id": "d",
                           "value_spans": [{"start": 2, "end": 7, "column": "t.c",
                                            "literal": "value"}]})


def test_json_round_trip(annotated):
    record = annotated.to_json_dict()
    assert example_from_json(json.loads(json.dumps(record))) == annotated

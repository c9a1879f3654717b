from __future__ import annotations

import json

import pytest

from sqlmend import orchestrator
from sqlmend.actions import (
    CONDITIONAL_KINDS,
    AddMerge,
    AddWhere,
    QA,
    parse_actions,
    serialize_actions,
)
from sqlmend.assembler import assemble
from sqlmend.detector import UNRESOLVED_SUB_QUESTION, load_rules
from sqlmend.orchestrator import (
    Demonstration,
    RefinementConfig,
    ScriptedAgent,
    build_context,
    render_schema,
    resolve_qa,
    run,
)
from sqlmend.schema_catalog import build_cell_index, load_catalog

QUESTION = "Who wrote the episode that aired first?"

MISMATCH_ACTIONS = ('add_select(written_by)\nadd_from(episode)\n'
                    'add_where(written_by, =, "todd casey")')
FIXED_ACTIONS = ('add_select(written_by)\nadd_from(episode)\n'
                 'add_where(written_by, =, "Todd Casey")')
CLEAN_ACTIONS = "add_select(title)\nadd_from(episode)"


def conditionals(seq) -> list:
    return [a for a in seq.actions if isinstance(a, CONDITIONAL_KINDS)]


def test_first_shot_approved(episode_catalog, episode_index):
    agent = ScriptedAgent({QUESTION: [CLEAN_ACTIONS]})
    trace = run(QUESTION, episode_catalog, episode_index, (), agent)
    assert len(trace.iterations) == 1
    assert trace.exhausted is False
    assert trace.fallback_applied is False
    assert trace.iterations[0][1].approved


def test_mismatch_then_fix(episode_catalog, episode_index):
    agent = ScriptedAgent({QUESTION: [MISMATCH_ACTIONS, FIXED_ACTIONS]})
    trace = run(QUESTION, episode_catalog, episode_index, (), agent)
    assert len(trace.iterations) == 2
    assert trace.exhausted is False
    final_where = conditionals(trace.final)[0]
    assert final_where.value.value == "Todd Casey"
    first_feedback = trace.iterations[0][1]
    assert not first_feedback.approved
    assert first_feedback.mismatches
    top = first_feedback.mismatches[0][1].candidates[0]
    assert (top.raw_value, top.score) == ("Todd Casey", 1.0)


def test_never_converging_agent_falls_back(episode_catalog, episode_index):
    agent = ScriptedAgent({QUESTION: [MISMATCH_ACTIONS]})  # repeats forever
    config = RefinementConfig(max_iterations=3)
    trace = run(QUESTION, episode_catalog, episode_index, (), agent, config)
    assert len(trace.iterations) == 4
    assert trace.exhausted is True
    assert trace.fallback_applied is True
    initial = trace.iterations[0][0]
    assert [serialize_actions_for(a) for a in conditionals(trace.final)] == \
        [serialize_actions_for(a) for a in conditionals(initial)]


def serialize_actions_for(action) -> str:
    from sqlmend.actions import ActionSequence

    return serialize_actions(ActionSequence(actions=[action]))


def test_refine_not_called_after_approval(episode_catalog, episode_index):
    calls = {"generate": 0, "refine": 0}

    class CountingAgent(ScriptedAgent):
        def generate(self, ctx):
            calls["generate"] += 1
            return super().generate(ctx)

        def refine(self, ctx, prior, feedback):
            calls["refine"] += 1
            return super().refine(ctx, prior, feedback)

    agent = CountingAgent({QUESTION: [CLEAN_ACTIONS]})
    run(QUESTION, episode_catalog, episode_index, (), agent)
    assert calls == {"generate": 1, "refine": 0}


def test_parse_failure_consumes_an_iteration(episode_catalog, episode_index):
    agent = ScriptedAgent({QUESTION: ["complete garbage ((", CLEAN_ACTIONS]})
    trace = run(QUESTION, episode_catalog, episode_index, (), agent)
    assert len(trace.iterations) == 2
    assert trace.iterations[0][1].parse_errors
    assert not trace.iterations[0][1].approved
    assert trace.iterations[1][1].approved


def test_agent_failure_yields_exhausted_trace(episode_catalog, episode_index):
    trace = run(QUESTION, episode_catalog, episode_index, (), ScriptedAgent({}))
    assert trace.exhausted is True
    assert trace.iterations == []
    assert trace.final.actions == []


def test_detector_findings_block_approval(episode_catalog, episode_index):
    bad = "add_select(flavor)\nadd_from(episode)"
    agent = ScriptedAgent({QUESTION: [bad, CLEAN_ACTIONS]})
    trace = run(QUESTION, episode_catalog, episode_index, (), agent)
    assert len(trace.iterations) == 2
    assert trace.iterations[0][1].findings[0].kind == "UnknownColumn"


def test_ablation_flags_disable_tools(episode_catalog, episode_index):
    bad = 'add_select(flavor)\nadd_from(episode)\nadd_where(title, =, "nope")'
    agent = ScriptedAgent({QUESTION: [bad]})
    config = RefinementConfig(use_retriever=False, use_detector=False)
    trace = run(QUESTION, episode_catalog, episode_index, (), agent, config)
    assert len(trace.iterations) == 1
    assert trace.iterations[0][1].approved  # nothing inspected, nothing blocks


def test_dbms_feedback_mode(episode_catalog, episode_index):
    bad = "add_select(title)\nadd_from(episodes)"
    agent = ScriptedAgent({QUESTION: [bad, CLEAN_ACTIONS]})
    config = RefinementConfig(dbms_feedback=True, use_detector=False)
    trace = run(QUESTION, episode_catalog, episode_index, (), agent, config)
    assert trace.iterations[0][1].findings[0].kind == "UnknownTable"
    assert trace.iterations[1][1].approved


def test_exclusions_accumulate_and_reduce_schema(episode_catalog, episode_index):
    wrong_column_then_right = [
        'add_select(written_by)\nadd_from(episode)\nadd_where(directed_by, =, "todd casey")',
        MISMATCH_ACTIONS,
        FIXED_ACTIONS,
    ]
    agent = ScriptedAgent({QUESTION: wrong_column_then_right})
    trace = run(QUESTION, episode_catalog, episode_index, (), agent)
    assert trace.exclusion_history == ["episode.directed_by", "episode.written_by"]


def test_a_mismatch_excludes_its_column_without_candidates(episode_catalog, episode_index):
    agent = ScriptedAgent({QUESTION: [MISMATCH_ACTIONS, FIXED_ACTIONS]})
    trace = run(QUESTION, episode_catalog, episode_index, (), agent,
                RefinementConfig(candidate_k=0))
    assert trace.iterations[0][1].mismatches[0][1].candidates == ()
    assert trace.exclusion_history == ["episode.written_by"]


def test_the_fallback_leaves_a_merge_level_as_it_is(episode_catalog, episode_index):
    merge = ('add_merge(UNION):\n    left:\n        add_select(name)\n'
             '        add_from(network)\n        add_where(name, =, "Foxx")\n'
             '    right:\n        add_select(title)\n        add_from(episode)')
    agent = ScriptedAgent({QUESTION: [MISMATCH_ACTIONS, merge]})
    trace = run(QUESTION, episode_catalog, episode_index, (), agent,
                RefinementConfig(max_iterations=1))
    assert trace.exhausted is True
    assert trace.fallback_applied is False
    assert trace.final is trace.iterations[-1][0]
    assert [type(a) for a in trace.final] == [AddMerge]
    assert assemble(trace.final) == ("SELECT name FROM network WHERE name = 'Foxx' "
                                     "UNION SELECT title FROM episode")


def test_exclusion_monotonicity(episode_catalog, episode_index):
    agent = ScriptedAgent({QUESTION: [MISMATCH_ACTIONS]})
    trace = run(QUESTION, episode_catalog, episode_index, (), agent,
                RefinementConfig(max_iterations=4))
    # same column mismatches every iteration but is excluded exactly once
    assert trace.exclusion_history == ["episode.written_by"]


def test_render_schema_excludes_columns(episode_catalog):
    full = render_schema(episode_catalog)
    assert "written_by" in full and "directed_by" in full
    reduced = render_schema(episode_catalog,
                            frozenset({("episode", "written_by")}))
    assert "written_by" not in reduced
    assert "directed_by" in reduced


class ViewRecordingAgent(ScriptedAgent):
    """Records the schema view of every context the loop hands it."""

    def __init__(self, script: dict):
        super().__init__(script)
        self.views: list[str] = []

    def generate(self, ctx):
        self.views.append(ctx.schema_view)
        return super().generate(ctx)

    def refine(self, ctx, prior, feedback):
        self.views.append(ctx.schema_view)
        return super().refine(ctx, prior, feedback)


def test_refine_sees_the_schema_without_mismatched_columns(episode_catalog, episode_index):
    agent = ViewRecordingAgent({QUESTION: [MISMATCH_ACTIONS, FIXED_ACTIONS]})
    run(QUESTION, episode_catalog, episode_index, (), agent)
    first, second = agent.views
    assert first == render_schema(episode_catalog)
    assert "written_by" in first
    assert "written_by" not in second and "directed_by" in second
    assert second == render_schema(episode_catalog, frozenset({("episode", "written_by")}))


def test_refine_keeps_the_schema_view_without_exclusions(episode_catalog, episode_index):
    agent = ViewRecordingAgent({QUESTION: ["complete garbage ((", CLEAN_ACTIONS]})
    run(QUESTION, episode_catalog, episode_index, (), agent)
    assert agent.views == [render_schema(episode_catalog)] * 2


def test_refine_keeps_the_header_of_an_emptied_table(tmp_db):
    db = tmp_db("CREATE TABLE episode (id INTEGER PRIMARY KEY, title TEXT);"
                "CREATE TABLE network (name TEXT);",
                {"episode": [(1, "Pilot")], "network": [("Fox",), ("ABC",)]})
    catalog = load_catalog(db)
    mismatch = 'add_select(name)\nadd_from(network)\nadd_where(name, =, "fox tv")'
    agent = ViewRecordingAgent({QUESTION: [mismatch, CLEAN_ACTIONS]})
    run(QUESTION, catalog, build_cell_index(catalog, db), (), agent)
    assert agent.views[0].splitlines()[1] == "table network: name (TEXT)"
    assert agent.views[1].splitlines()[1] == "table network: "


def test_resolve_qa_without_qa_is_identity(episode_catalog, episode_index):
    seq = parse_actions(CLEAN_ACTIONS).sequence
    ctx = build_context(episode_catalog, QUESTION)
    resolved, findings = resolve_qa(seq, ScriptedAgent({}), ctx)
    assert findings == []
    assert resolved == parse_actions(CLEAN_ACTIONS).sequence


def test_resolve_qa_embeds_scripted_child(episode_catalog, episode_index):
    seq = parse_actions('qa("which episodes aired in 2009")\n'
                        "add_select(title)\nadd_from(episode)").sequence
    agent = ScriptedAgent({
        "which episodes aired in 2009":
            ['add_select(id)\nadd_from(episode)\nadd_where(air_date, LIKE, "2009%")'],
    })
    ctx = build_context(episode_catalog, QUESTION)
    resolved, findings = resolve_qa(seq, agent, ctx)
    assert findings == []
    qa_action = resolved.actions[0]
    assert isinstance(qa_action, QA)
    assert len(qa_action.resolved.actions) == 3
    assert qa_action.resolved.id == "s.0.qa"


def test_a_sub_answer_parse_error_blocks_approval(episode_catalog, episode_index):
    agent = ScriptedAgent({
        QUESTION: ['add_select(title)\nadd_from(episode)\nadd_where(id, IN, @s.3.qa)\n'
                   'qa("first ids")'],
        "first ids": ["add_select(id)\nadd_from(episode)\nadd_limit(1)\nadd_limit(2)"],
    })
    trace = run(QUESTION, episode_catalog, episode_index, (), agent,
                RefinementConfig(max_iterations=0))
    [(seq, feedback)] = trace.iterations
    assert not feedback.approved and trace.exhausted
    assert [f.to_json_dict() for f in feedback.findings] == [
        {"kind": UNRESOLVED_SUB_QUESTION, "action_path": [3],
         "detail": "sub-answer parse error line 4: more than one AddLimit at this level",
         "data": {"question": "first ids"}}]
    assert serialize_actions(seq.actions[3].resolved) == \
        "add_select(id)\nadd_from(episode)\nadd_limit(1)"


def test_resolve_qa_depth_cap(episode_catalog):
    agent = ScriptedAgent({
        "outer": ['qa("inner")'],
        "inner": ['qa("innermost")'],
        "innermost": [CLEAN_ACTIONS],
    })
    seq = parse_actions('qa("outer")').sequence
    ctx = build_context(episode_catalog, QUESTION)
    _, findings = resolve_qa(seq, agent, ctx)
    assert [f.kind for f in findings] == [UNRESOLVED_SUB_QUESTION]


def test_replay_determinism_byte_identical_traces(episode_catalog, episode_index):
    def one_run():
        agent = ScriptedAgent({QUESTION: [MISMATCH_ACTIONS, FIXED_ACTIONS]})
        trace = run(QUESTION, episode_catalog, episode_index, (), agent)
        return json.dumps(trace.to_json_dict(), sort_keys=True)

    assert one_run() == one_run()


def test_config_bounds():
    for bad in ({"max_iterations": 11}, {"max_iterations": -1}, {"max_iterations": True},
                {"candidate_k": -1}, {"candidate_k": True}):
        with pytest.raises(ValueError):
            RefinementConfig(**bad)


def test_zero_max_iterations_single_shot(episode_catalog, episode_index):
    agent = ScriptedAgent({QUESTION: [MISMATCH_ACTIONS]})
    trace = run(QUESTION, episode_catalog, episode_index, (), agent,
                RefinementConfig(max_iterations=0))
    assert len(trace.iterations) == 1
    assert trace.exhausted is True
    assert trace.fallback_applied is False  # final already is iteration 0


def test_rules_flow_through_run(episode_catalog, episode_index):
    rules = load_rules([{"rule_id": "no-null-airdates", "kind": "require_null_filter",
                         "params": {"column": "episode.air_date"}}])
    flagged = "add_select(air_date)\nadd_from(episode)"
    guarded = "add_select(air_date)\nadd_from(episode)\nadd_where(air_date, !=, NULL)"
    agent = ScriptedAgent({QUESTION: [flagged, guarded]})
    trace = run(QUESTION, episode_catalog, episode_index, rules, agent)
    assert trace.iterations[0][1].findings[0].kind == "CustomRuleViolation"
    assert trace.iterations[1][1].approved


def test_matched_literal_pinned_to_raw_cell(episode_catalog, episode_index):
    agent = ScriptedAgent({QUESTION: [FIXED_ACTIONS]})
    trace = run(QUESTION, episode_catalog, episode_index, (), agent)
    where = next(a for a in trace.final.actions if isinstance(a, AddWhere))
    assert where.value.value == "Todd Casey"


def test_demonstrations_are_carried_in_context(episode_catalog):
    demo = Demonstration(schema="table t: x (TEXT)", question="q", actions="add_select(x)")
    ctx = build_context(episode_catalog, QUESTION, demonstrations=(demo,))
    assert ctx.demonstrations == (demo,)


def test_feedback_render_mentions_candidates(episode_catalog, episode_index):
    agent = ScriptedAgent({QUESTION: [MISMATCH_ACTIONS]})
    trace = run(QUESTION, episode_catalog, episode_index, (), agent,
                RefinementConfig(max_iterations=0))
    text = trace.iterations[0][1].render()
    assert "matches no database entry" in text
    assert "'Todd Casey' (1.00)" in text


class RecordingAgent(ScriptedAgent):
    def __init__(self, script: dict):
        super().__init__(script)
        self.questions: list[str] = []

    def generate(self, ctx):
        self.questions.append(ctx.question)
        return super().generate(ctx)


def test_resolve_qa_calls_the_agent_depth_first(episode_catalog):
    # a sub-question's own sub-questions are asked before the next sibling
    agent = RecordingAgent({"q1": ['qa("q1a")'], "q1a": [CLEAN_ACTIONS],
                            "q2": [CLEAN_ACTIONS]})
    seq = parse_actions('qa("q1")\nqa("q2")').sequence
    ctx = build_context(episode_catalog, QUESTION)
    resolved, findings = resolve_qa(seq, agent, ctx)
    assert agent.questions == ["q1", "q1a", "q2"]
    assert findings == []
    inner = resolved.actions[0].resolved.actions[0].resolved
    assert (resolved.actions[0].resolved.id, inner.id, resolved.actions[1].resolved.id) == \
        ("s.0.qa", "s.0.qa.0.qa", "s.1.qa")


def test_resolve_qa_depth_limit_and_failure_findings(episode_catalog, monkeypatch):
    # merge children do not count toward the depth; qa children do
    monkeypatch.setattr(orchestrator, "MAX_QA_DEPTH", 1)
    agent = RecordingAgent({"m": ['qa("m2")'], "q1": ['qa("q1a")\nqa("q1b")']})
    seq = parse_actions('add_merge(UNION):\n    left:\n        qa("m")\n'
                        '    right:\n        qa("lost")\nqa("q1")').sequence
    ctx = build_context(episode_catalog, QUESTION)
    _, findings = resolve_qa(seq, agent, ctx)
    assert agent.questions == ["m", "lost", "q1"]
    assert [f.to_json_dict() for f in findings] == [
        {"kind": UNRESOLVED_SUB_QUESTION, "action_path": [0, "left", 0, "qa", 0],
         "detail": "sub-question depth limit (1) reached", "data": {"question": "m2"}},
        {"kind": UNRESOLVED_SUB_QUESTION, "action_path": [0, "right", 0],
         "detail": "agent failed on sub-question: question not scripted: 'lost'",
         "data": {"question": "lost"}},
        {"kind": UNRESOLVED_SUB_QUESTION, "action_path": [1, "qa", 0],
         "detail": "sub-question depth limit (1) reached", "data": {"question": "q1a"}},
        {"kind": UNRESOLVED_SUB_QUESTION, "action_path": [1, "qa", 1],
         "detail": "sub-question depth limit (1) reached", "data": {"question": "q1b"}},
    ]

"""Belief adoption rules and the negotiation loop, end to end."""

from __future__ import annotations

import pytest

from collabref import (
    Bucket,
    Const,
    EventLog,
    NotUnderstoodError,
    TermReader,
    Verdict,
    canon,
    format_term,
    mk,
)
from collabref.terms import ListTerm

from conftest import golden_state, make_state, opening_request, rule_numbers

FLAT_RULE_SEQUENCE = [1, 3, 4, 8, 1, 2, 5, 9, 1, 2, 6, 1, 2, 5, 1, 2, 6, 3, 10, 1, 2, 7]


def run_golden_dialogue(ms):
    """Drive the four-turn negotiation through the engine API alone.

    Returns a few checkpoints the assertions below pick apart.
    """
    notes = {}
    opening = ms.hearer_step(opening_request(ms))
    notes["opening"] = opening
    notes["first_plan"] = ms.cstate.plan

    batches = ms.speaker_step()
    notes["clarification"] = batches
    postpone, actions = batches
    notes["repair_plan"] = ms.cstate.plan

    inner = actions[0].args[1]
    assert isinstance(inner, ListTerm)
    reject = mk("s-reject", Const(ms.cstate.plan), inner)
    ms.hearer_step([reject])
    notes["after_reject"] = ms.cstate.plan

    reader = TermReader(ms.names)
    replacement = reader.read(
        f"s-actions({ms.cstate.plan}, ["
        "s-attrib-rel(entity1, entity3, lambda(X, Y, on(X, Y))), "
        "s-refer(entity3), "
        "s-attrib(entity3, lambda(X, category(X, television)))])"
    )
    ms.names.note_entity("entity3")
    ms.hearer_step([replacement])
    notes["final_plan"] = ms.cstate.plan

    notes["closing"] = ms.speaker_step()
    return notes


def test_golden_negotiation_fires_the_rules_in_order(golden):
    notes = run_golden_dialogue(golden)
    assert rule_numbers(golden.log.lines) == FLAT_RULE_SEQUENCE
    assert notes["opening"].kind is Verdict.ERROR_AT


def test_golden_negotiation_moves_the_plan_under_discussion(golden):
    notes = run_golden_dialogue(golden)
    # a bare rejection leaves the faulty repair on the table; only the
    # replacement batch moves the discussion to a fresh plan
    assert notes["first_plan"] != notes["repair_plan"]
    assert notes["after_reject"] == notes["repair_plan"]
    assert notes["final_plan"] not in (notes["first_plan"], notes["repair_plan"])


def test_golden_negotiation_settles_on_the_television_referent(golden):
    run_golden_dialogue(golden)
    settled = golden.resolution()
    assert settled is not None
    reference = settled.args[1]
    assert reference.functor == "knowref"
    assert reference.args[2] == Const("entity1")
    assert reference.args[3] == Const("antenna1")


def test_golden_negotiation_utterance_shapes(golden):
    notes = run_golden_dialogue(golden)
    postpone, actions = notes["clarification"]
    assert format_term(postpone[0]).startswith("s-postpone(")
    assert format_term(postpone[0]).endswith("[])")
    texted = format_term(actions[0])
    assert texted.startswith("s-actions(")
    assert "in(X, Y)" in texted and "category(X, corner)" in texted
    closing = notes["closing"]
    assert len(closing) == 1
    assert format_term(closing[0][0]) == f"s-accept({notes['final_plan']})"


def test_error_judgment_withdraws_presumed_adequacy(golden):
    notes = run_golden_dialogue(golden)
    private = [canon(i) for i in golden.base.items(Bucket.PRIVATE)]
    rejected = notes["repair_plan"]
    assert not any(f"achieve({rejected}" in c for c in private)
    final = notes["final_plan"]
    assert any(f"achieve({final}" in c for c in private)


def test_rule_instances_fire_once(golden):
    run_golden_dialogue(golden)
    before = rule_numbers(golden.log.lines)
    golden._apply_rules()
    assert rule_numbers(golden.log.lines) == before


def test_rule_triggers_match_facts_one_way(golden):
    # a trigger binds its own variables only: a fact with a variable where
    # the trigger has structure does not match, though the two would unify
    open_goal = golden.names.fresh_var("G")
    golden.base.assert_prop(Bucket.COMMON_GROUND, mk("goal", Const("user"), open_goal))
    golden.base.assert_prop(Bucket.COMMON_GROUND, mk("plan", Const("user"), Const("p1"), open_goal))
    golden._apply_rules()
    assert rule_numbers(golden.log.lines) == []


def test_contributions_are_recorded_in_common_ground(golden):
    notes = run_golden_dialogue(golden)
    cg = [canon(i) for i in golden.base.items(Bucket.COMMON_GROUND)]
    for pid in (notes["first_plan"], notes["repair_plan"], notes["final_plan"]):
        assert any(c.startswith(f"plan(") and pid in c for c in cg), pid
    assert any(c.startswith("achieve(") for c in cg)


def test_unknown_plan_target_is_not_understood(golden):
    golden.hearer_step(opening_request(golden))
    reader = TermReader(golden.names)
    with pytest.raises(NotUnderstoodError):
        golden.hearer_step([reader.read("s-accept(p424242)")])


def test_stray_description_fragment_is_not_understood(golden):
    reader = TermReader(golden.names)
    act = reader.read("s-attrib(entity5, lambda(X, category(X, creature)))")
    golden.names.note_entity("entity5")
    with pytest.raises(NotUnderstoodError):
        golden.hearer_step([act])


def test_speaker_has_nothing_to_say_without_goals():
    ms = make_state(
        ["fern1", "tv1"],
        ["category(fern1, creature)", "category(tv1, television)"],
    )
    assert ms.speaker_step() == []


def test_accepted_description_short_circuits_negotiation():
    ms = make_state(
        ["fern1", "tv1"],
        ["category(fern1, creature)", "category(tv1, television)"],
    )
    reader = TermReader(ms.names)
    acts = [
        reader.read("s-refer(entity1)"),
        reader.read("s-attrib(entity1, lambda(X, category(X, creature)))"),
    ]
    ms.names.note_entity("entity1")
    result = ms.hearer_step(acts)
    assert result.kind is Verdict.UNDERSTOOD
    batches = ms.speaker_step()
    assert len(batches) == 1
    assert format_term(batches[0][0]).startswith("s-accept(")
    settled = ms.resolution()
    assert settled is not None
    assert settled.args[1].args[3] == Const("fern1")
    # no negotiation goal is ever adopted, so rule 4 stays silent
    assert rule_numbers(ms.log.lines) == [1, 3, 10, 1, 2, 7]


def test_unfixable_description_stalls_after_the_rejection():
    # nothing in this world is a creature, so the headnoun itself is at
    # fault and no replacement modifier can rescue the description
    ms = make_state(
        ["fern1", "tv1"],
        ["category(fern1, plant)", "category(tv1, television)"],
    )
    reader = TermReader(ms.names)
    acts = [
        reader.read("s-refer(entity1)"),
        reader.read("s-attrib(entity1, lambda(X, category(X, creature)))"),
    ]
    ms.names.note_entity("entity1")
    result = ms.hearer_step(acts)
    assert result.kind is Verdict.ERROR_AT
    batches = ms.speaker_step()
    assert len(batches) == 1
    first = format_term(batches[0][0])
    assert first.startswith("s-reject(")
    assert "category(X, creature)" in first
    assert ms.resolution() is None
    assert rule_numbers(ms.log.lines) == [1, 3, 4, 8, 1, 2, 5]


def test_repair_proposes_no_modifier_the_plan_already_has():
    # "the weird, red creature": nothing is weird, so the repair replaces
    # that modifier, and it must not do so with red, which the plan has
    ms = make_state(
        ["a", "b", "c"],
        [
            "category(a, creature)", "category(b, creature)", "category(c, creature)",
            "colour(a, red)", "colour(b, red)", "size(a, big)",
        ],
        modifier_preds=["colour", "size", "assessment"],
        pick_order=["a", "b", "c"],
    )
    reader = TermReader(ms.names)
    acts = [reader.read(text) for text in (
        "s-refer(entity1)",
        "s-attrib(entity1, lambda(X, assessment(X, weird)))",
        "s-attrib(entity1, lambda(X, colour(X, red)))",
        "s-attrib(entity1, lambda(X, category(X, creature)))",
    )]
    ms.names.note_entity("entity1")
    assert ms.hearer_step(acts).kind is Verdict.ERROR_AT
    _, actions = ms.speaker_step()
    assert actions[0].functor == "s-actions"
    proposed = actions[0].args[1].items
    described = {canon(a.args[1]) for a in acts if a.functor == "s-attrib"}
    assert proposed
    assert not described & {canon(a.args[1]) for a in proposed if a.functor == "s-attrib"}
    assert format_term(proposed[0]) == "s-attrib(entity1, lambda(X, size(X, big)))"


def test_event_log_extracts_rule_numbers():
    log = EventLog()
    log.add("turn 1 user")
    log.add("rule 4 enter-collaboration plan=p1 goal=g")
    log.add("belief + common_ground something")
    log.add("rule 10 adopt-accept-goal detail")
    assert rule_numbers(log.lines) == [4, 10]
    assert "turn 1 user" in log.lines

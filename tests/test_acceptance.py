"""Acceptance gate: one test per shipping criterion.

Each test prints one [PASS] line when it holds, so a verbose run reads as
a checklist. The random-world criteria grade the engine against the
brute-force oracles in worldgen, never against the engine itself.
"""

from __future__ import annotations

import random
import time

import pytest

from collabref import (
    Compound,
    Const,
    NoPlanError,
    Perspective,
    TermReader,
    Verdict,
    canon,
    construct,
    evaluate,
    format_term,
    mk,
    run_text,
)
from collabref.beliefs import SYSTEM, USER
from collabref.schemas import StepKind
from collabref.terms import ListTerm, NameSource, Substitution, Var

from conftest import DATA_DIR, SCENARIO_DIR, golden_state, make_state, opening_request, rule_numbers
from worldgen import (
    ATTRIBUTE_POOL,
    CATEGORY_POOL,
    matching_objects,
    minimal_modifier_count,
    random_world,
)


def drive_golden(ms):
    """Play the four-turn negotiation and return what each side uttered."""
    ms.hearer_step(opening_request(ms))
    clarification = ms.speaker_step()
    inner = clarification[1][0].args[1]
    ms.hearer_step([mk("s-reject", Const(ms.cstate.plan), inner)])
    reader = TermReader(ms.names)
    replacement = reader.read(
        f"s-actions({ms.cstate.plan}, ["
        "s-attrib-rel(entity1, entity3, lambda(X, Y, on(X, Y))), "
        "s-refer(entity3), "
        "s-attrib(entity3, lambda(X, category(X, television)))])"
    )
    ms.names.note_entity("entity3")
    ms.hearer_step([replacement])
    closing = ms.speaker_step()
    return clarification, closing


def test_criterion_golden_dialogue_end_to_end(golden):
    started = time.perf_counter()
    clarification, closing = drive_golden(golden)
    elapsed = time.perf_counter() - started

    postpone_batch, actions_batch = clarification
    postpone = postpone_batch[0]
    assert postpone.functor == "s-postpone"
    opening_plan = postpone.args[0]
    assert isinstance(opening_plan, Const)
    assert postpone.args[1] == ListTerm(())

    actions = actions_batch[0]
    assert actions.functor == "s-actions"
    assert actions.args[0] == opening_plan
    bundle = actions.args[1]
    assert isinstance(bundle, ListTerm) and len(bundle.items) == 3
    landmark = next(a for a in bundle.items if a.functor == "s-refer").args[0]
    assert isinstance(landmark, Const) and landmark != Const("entity1")
    pattern = TermReader(NameSource())
    expected = {
        canon(pattern.read(f"s-attrib-rel(entity1, {landmark.name}, lambda(X, Y, in(X, Y)))")),
        canon(pattern.read(f"s-refer({landmark.name})")),
        canon(pattern.read(f"s-attrib({landmark.name}, lambda(X, category(X, corner)))")),
    }
    assert {canon(a) for a in bundle.items} == expected

    assert len(closing) == 1 and len(closing[0]) == 1
    accept = closing[0][0]
    assert accept.functor == "s-accept"
    assert accept == mk("s-accept", Const(golden.cstate.plan))

    settled = golden.resolution()
    assert settled is not None
    assert settled.args[0] == Const(golden.cstate.plan)
    assert settled.args[1] == TermReader(NameSource()).read(
        "knowref(system, user, entity1, antenna1)"
    )
    mutual = mk("bmb", SYSTEM, USER, mk("achieve", Var("P", 0), settled.args[1]))
    assert golden.base.query(mutual, golden.ctx.persp, Substitution())

    assert elapsed < 1.0, f"golden dialogue took {elapsed:.2f}s"
    print("[PASS] golden dialogue end to end: postpone, corner proposal, accept, "
          f"mutual achieve, {elapsed * 1000:.0f}ms")


def test_criterion_opening_description_has_one_blocked_reading():
    ms = golden_state()
    result = ms.hearer_step(opening_request(ms))
    assert result.kind is Verdict.ERROR_AT
    assert len(result.candidates) == 1
    plan, verdict = result.candidates[0]
    assert not verdict.valid
    blocked = plan.content_of(result.error_node)  # resolved under verdict.bindings
    assert blocked.functor == "modifiers-terminate"
    survivors = blocked.args[2]
    assert isinstance(survivors, ListTerm)
    assert sorted(c.name for c in survivors.items) == ["antenna1", "fern1"]
    print("[PASS] opening description: one derivation, blocked where modifiers "
          "run out, survivors antenna1 and fern1")


def test_criterion_replacement_bundle_disambiguates():
    ms = golden_state()
    ms.hearer_step(opening_request(ms))
    postpone_batch, actions_batch = ms.speaker_step()
    inner = actions_batch[0].args[1]
    ms.hearer_step([mk("s-reject", Const(ms.cstate.plan), inner)])
    reader = TermReader(ms.names)
    bundle = reader.read(
        f"s-actions({ms.cstate.plan}, ["
        "s-attrib-rel(entity1, entity3, lambda(X, Y, on(X, Y))), "
        "s-refer(entity3), "
        "s-attrib(entity3, lambda(X, category(X, television)))])"
    )
    ms.names.note_entity("entity3")
    result = ms.hearer_step([bundle])
    assert result.kind is Verdict.UNDERSTOOD
    assert len(result.candidates) == 2
    by_schema = {p.tree[0].name: (p, v) for p, v in result.candidates}
    assert set(by_schema) == {"replace-plan", "expand-plan"}
    assert by_schema["replace-plan"][1].valid
    rejected_plan, rejected_verdict = by_schema["expand-plan"]
    assert not rejected_verdict.valid
    # the losing reading dies on its own constraint demanding that the
    # shared error sit where the modifiers ran out, which it does not
    assert rejected_verdict.error_node == rejected_plan.root
    def mentions_termination(t):
        if isinstance(t, Compound):
            return t.functor == "modifiers-terminate" or any(
                mentions_termination(a) for a in t.args
            )
        return False
    constraints = [
        step.term for step in rejected_plan.tree[0].steps
        if step.kind is StepKind.CONSTRAINT
    ]
    assert any(mentions_termination(t) for t in constraints)
    assert result.plan is by_schema["replace-plan"][0]
    print("[PASS] replacement bundle: two parses, expansion reading eliminated, "
          "replacement reading understood")


def describe_randomly(rng, world):
    """A category plus up to two modifier pairs, sometimes read off a real
    object and sometimes drawn blind."""
    chosen = rng.sample(world.preds(), min(rng.randint(0, 2), len(world.preds())))
    if rng.random() < 0.55:
        obj = rng.choice(world.objects)
        return world.categories[obj], [(p, world.attributes[p][obj]) for p in chosen]
    category = rng.choice(CATEGORY_POOL)
    return category, [(p, rng.choice(ATTRIBUTE_POOL[p])) for p in chosen]


def hear_description(world, category, pairs):
    ms = make_state(
        world.objects,
        world.fact_lines(),
        modifier_preds=world.preds(),
        rel_preds=world.rel_preds(),
    )
    reader = TermReader(ms.names)
    acts = [
        reader.read("s-refer(entity1)"),
        reader.read(f"s-attrib(entity1, lambda(X, category(X, {category})))"),
    ]
    for pred, value in pairs:
        acts.append(reader.read(f"s-attrib(entity1, lambda(X, {pred}(X, {value})))"))
    ms.names.note_entity("entity1")
    return ms, ms.hearer_step(acts)


def test_criterion_error_dichotomy_over_random_worlds():
    rng = random.Random(260817)
    tallies = {"unique": 0, "underconstrained": 0, "overconstrained": 0}
    for trial in range(240):
        world = random_world(rng, max_objects=5, max_preds=4, max_rels=2)
        category, pairs = describe_randomly(rng, world)
        matches = matching_objects(world, category, pairs)
        ms, result = hear_description(world, category, pairs)
        if len(matches) == 1:
            tallies["unique"] += 1
            assert result.kind is Verdict.UNDERSTOOD, (trial, matches)
            assert ms.ctx.plan_judgments[result.plan.id] == ("achieve", Const(matches[0]))
            continue
        assert result.kind is Verdict.ERROR_AT, (trial, matches)
        fault_yield = result.plan.yield_of(result.error_node)
        if len(matches) > 1:
            tallies["underconstrained"] += 1
            assert fault_yield == [], (trial, matches)
        else:
            tallies["overconstrained"] += 1
            assert fault_yield != [], (trial, matches)
        ms.ctx.persp = Perspective("system", "user")
        goal = mk("bel", USER, mk("goal", SYSTEM, mk(
            "bel", USER, mk("bel", SYSTEM,
                            mk("error", Const(result.plan.id), Const(result.error_node))))))
        judgment = construct(ms.ctx, goal)
        schema = judgment.tree[0].name
        act = judgment.yield_of()[0]
        if len(matches) > 1:
            assert schema == "postpone-plan", (trial, schema)
            assert act.args[1] == ListTerm(())
        else:
            assert schema == "reject-plan", (trial, schema)
            assert canon(act.args[1]) == canon(ListTerm(tuple(fault_yield)))
    assert tallies["unique"] >= 40
    assert tallies["underconstrained"] >= 40
    assert tallies["overconstrained"] >= 20
    print(f"[PASS] error dichotomy over 240 random worlds: {tallies}")


def test_criterion_construction_sound_minimal_invertible():
    rng = random.Random(170826)
    started = time.perf_counter()
    built = impossible = 0
    for trial in range(80):
        world = random_world(rng)
        target = rng.choice(world.objects)
        shortest = minimal_modifier_count(world, target)
        ms = make_state(world.objects, world.fact_lines(), modifier_preds=world.preds())
        ms.ctx.persp = Perspective("system", "user")
        goal = mk("bel", USER, mk("goal", SYSTEM, mk(
            "knowref", USER, SYSTEM, ms.names.fresh_var("E"), Const(target))))
        try:
            plan = construct(ms.ctx, goal)
        except NoPlanError:
            assert shortest is None, (trial, target, shortest)
            impossible += 1
            continue
        assert shortest is not None, (trial, target)
        built += 1
        acts = plan.yield_of()
        assert len(acts) == 2 + shortest, (trial, target, shortest, len(acts))
        assert evaluate(plan, ms.ctx).valid, (trial, target)

        # the utterance crosses to the other agent as text, so the hearer
        # re-reads it against its own name source
        hearer = make_state(world.objects, world.fact_lines(), modifier_preds=world.preds())
        reader = TermReader(hearer.names)
        heard = [reader.read(format_term(a)) for a in acts]
        hearer.names.note_entity(next(
            a.args[0].name for a in heard if a.functor == "s-refer"))
        echo = hearer.hearer_step(heard)
        assert echo.kind is Verdict.UNDERSTOOD, (trial, target)
        assert hearer.ctx.plan_judgments[echo.plan.id] == ("achieve", Const(target))
        mine = sorted(instance.name for instance in plan.tree)
        theirs = sorted(instance.name for instance in echo.plan.tree)
        assert mine == theirs, (trial, mine, theirs)
    elapsed = time.perf_counter() - started
    assert built >= 30 and impossible >= 10, (built, impossible)
    assert elapsed < 60.0, f"construction sweep took {elapsed:.1f}s"
    print(f"[PASS] construction: {built} minimal plans re-understood verbatim, "
          f"{impossible} honest refusals, {elapsed:.1f}s")


def test_criterion_replay_matches_checked_in_transcript():
    transcript = run_text((SCENARIO_DIR / "weird_creature.scn").read_text())
    assert transcript.ok
    pinned = (DATA_DIR / "weird_creature_events.txt").read_text()
    assert transcript.text() == pinned
    # a long turn the parse dedups by shape, heard in error and rejected
    long_turn = run_text((DATA_DIR / "long_turn.scn").read_text())
    assert long_turn.text() == (DATA_DIR / "long_turn_events.txt").read_text()

    flat = rule_numbers(transcript.lines)
    assert flat == [1, 3, 4, 8, 1, 2, 5, 9, 1, 2, 6, 1, 2, 5, 1, 2, 6, 3, 10, 1, 2, 7]

    groups, current = [], None
    for line in transcript.lines:
        if line.startswith("turn "):
            current = []
            groups.append(current)
        elif line.startswith("rule ") and current is not None:
            current.append(int(line.split()[1]))
    assert groups == [
        [1, 3, 4],
        [8, 1, 2, 5, 9, 1, 2, 6],
        [1, 2, 5],
        [1, 2, 6, 3],
        [10, 1, 2, 7],
    ]
    print("[PASS] replay equals the checked-in transcript, rule firings grouped "
          "per turn as expected")

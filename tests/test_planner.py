"""Recognition and construction: solvers, parses, verdicts, search costs."""

from __future__ import annotations

import pytest

from collabref import (
    Const,
    NoPlanError,
    Perspective,
    Substitution,
    Verdict,
    construct,
    evaluate,
    infer,
    mk,
)
from collabref.beliefs import SYSTEM, USER
from collabref.planner import (
    Outcome,
    canonical_orders,
    solve,
)
from collabref.terms import ListTerm, TermReader, canon, format_term, read_term

import worldgen
from conftest import golden_state, make_state, opening_request


def small_ctx():
    ms = make_state(
        ["fern1", "tv1"],
        ["category(fern1, creature)", "category(tv1, television)"],
    )
    return ms.ctx


# -- constraint solver ------------------------------------------------------

def test_plan_reference_constraints_defer_while_unbound():
    ctx = small_ctx()
    p = ctx.names.fresh_var("P")
    cases = [
        mk("yield", p, ctx.names.fresh_var("N"), ctx.names.fresh_var("A")),
        mk("content", p, ctx.names.fresh_var("N"), ctx.names.fresh_var("C")),
        mk("substitute", p, Const("n1"), Const("x"), ctx.names.fresh_var("Q")),
        mk("replan", p, ctx.names.fresh_var("A")),
    ]
    for term in cases:
        kind, sols = solve(term, Substitution(), ctx)
        assert kind is Outcome.DEFER and sols == [], format_term(term)


def test_substitute_defers_until_the_node_is_known():
    ms = make_state(
        ["fern1", "tv1"],
        ["category(fern1, creature)", "category(tv1, television)"],
    )
    ms.ctx.persp = Perspective("system", "user")
    plan = construct(ms.ctx, system_refer_goal(ms, "fern1"))
    term = mk(
        "substitute",
        Const(plan.id),
        ms.names.fresh_var("N"),
        Const("x"),
        ms.names.fresh_var("Q"),
    )
    kind, sols = solve(term, Substitution(), ms.ctx)
    assert kind is Outcome.DEFER and sols == []


def test_knowref_assumed_for_the_other_agent_solved_for_self():
    ctx = small_ctx()
    names = ctx.names
    e, o = names.fresh_var("E"), names.fresh_var("O")
    kind, _ = solve(mk("knowref", USER, USER, e, o), Substitution(), ctx)
    assert kind is Outcome.ASSUME
    kind, _ = solve(mk("knowref", SYSTEM, SYSTEM, e, o), Substitution(), ctx)
    assert kind is Outcome.DEFER
    kind, sols = solve(mk("knowref", SYSTEM, SYSTEM, e, Const("fern1")), Substitution(), ctx)
    assert kind is Outcome.SOLS and len(sols) == 1
    minted = sols[0].resolve(e)
    assert format_term(minted).startswith("entity")


def test_subset_keeps_matching_members_in_order():
    ctx = small_ctx()
    names = ctx.names
    out = names.fresh_var("Out")
    term = read_term(
        "subset([fern1, tv1], lambda(X, category(X, creature)), Out)", names
    )
    term = mk("subset", term.args[0], term.args[1], out)
    kind, sols = solve(term, Substitution(), ctx)
    assert kind is Outcome.SOLS and len(sols) == 1
    assert sols[0].resolve(out) == ListTerm((Const("fern1"),))
    # nothing matching means failure, not an empty survivor list
    term2 = mk(
        "subset",
        ListTerm((Const("tv1"),)),
        read_term("lambda(X, category(X, creature))", names),
        names.fresh_var("Out2"),
    )
    kind, sols = solve(term2, Substitution(), ctx)
    assert kind is Outcome.SOLS and sols == []


def test_pick_one_respects_the_preference_order():
    ms = make_state(
        ["fern1", "tv1"],
        ["category(fern1, creature)", "category(tv1, television)"],
        pick_order=["tv1"],
    )
    ctx = ms.ctx
    chosen = ctx.names.fresh_var("C")
    pool = ListTerm((Const("fern1"), Const("tv1")))
    kind, sols = solve(mk("pick-one", chosen, pool), Substitution(), ctx)
    assert kind is Outcome.SOLS
    assert [s.resolve(chosen) for s in sols] == [Const("tv1"), Const("fern1")]


def test_negation_as_failure():
    ctx = small_ctx()
    names = ctx.names
    yes = read_term("not([a] = [])", names)
    kind, sols = solve(yes, Substitution(), ctx)
    assert kind is Outcome.SOLS and len(sols) == 1
    no = read_term("not([] = [])", names)
    kind, sols = solve(no, Substitution(), ctx)
    assert kind is Outcome.SOLS and sols == []
    # an undecided inner constraint keeps the negation undecided too
    open_plan = mk("not", mk("replan", names.fresh_var("P"), names.fresh_var("A")))
    kind, sols = solve(open_plan, Substitution(), ctx)
    assert kind is Outcome.DEFER


def test_equation_bridges_abstract_shapes():
    ctx = small_ctx()
    names = ctx.names
    lib = ctx.library
    concrete = lib.get("modifier-absolute").instantiate(names).head
    term = mk("=", read_term("modifier(E, O, C, N)", names), concrete)
    kind, sols = solve(term, Substitution(), ctx)
    assert kind is Outcome.SOLS and len(sols) == 1


# -- recognition --------------------------------------------------------------

def test_canonical_orders_normalize_the_noun_first():
    ms = golden_state()
    acts = opening_request(ms)
    orders = canonical_orders(acts)
    assert len(orders) == 1
    order = orders[0]
    assert sorted(canon(a) for a in order) == sorted(canon(a) for a in acts)
    assert format_term(order[0]).startswith("s-refer(")
    assert "category" in format_term(order[1])


def test_canonical_orders_pass_single_acts_through(names):
    act = read_term("s-accept(p1)", names)
    assert canonical_orders([act]) == [[act]]


def test_opening_description_with_two_candidates_is_judged_in_error():
    ms = golden_state()
    result = ms.hearer_step(opening_request(ms))
    assert result.kind is Verdict.ERROR_AT
    assert result.parse_count == 1
    assert len(result.candidates) == 1
    plan, ev = result.candidates[0]
    assert not ev.valid
    node = plan.node(result.error_node)
    assert node.schema == "modifiers-terminate"
    blocked = ev.bindings.resolve(node.content)
    survivors = blocked.args[2]
    assert isinstance(survivors, ListTerm)
    assert [c.name for c in survivors.items] == ["antenna1", "fern1"]
    # the judgment is recorded for later clarification moves
    assert ms.ctx.plan_judgments[plan.id][0] == "error"


def test_opening_description_with_one_candidate_is_understood():
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
    kind, referent = ms.ctx.plan_judgments[result.plan.id]
    assert kind == "achieve" and referent == Const("fern1")


def test_meta_acts_only_parse_against_the_plan_under_discussion():
    ms = golden_state()
    result = ms.hearer_step(opening_request(ms))
    pid = result.plan.id
    reader = TermReader(ms.names)
    # an acceptance of some other plan is no reading at all here
    wrong = infer(ms.ctx, [reader.read("s-accept(p999)")], expected_plan=pid)
    assert wrong.kind is Verdict.NO_DERIVATION
    # while accepting the plan under discussion is taken on trust
    right = infer(ms.ctx, [reader.read(f"s-accept({pid})")], expected_plan=pid)
    assert right.kind is Verdict.UNDERSTOOD


def test_meta_roots_need_exactly_one_act():
    ms = golden_state()
    result = ms.hearer_step(opening_request(ms))
    pid = result.plan.id
    reader = TermReader(ms.names)
    acts = [reader.read(f"s-accept({pid})"), reader.read(f"s-accept({pid})")]
    out = infer(ms.ctx, acts, expected_plan=pid)
    assert out.kind is Verdict.NO_DERIVATION


def test_unparseable_acts_yield_no_derivation(names):
    ms = golden_state()
    reader = TermReader(ms.names)
    lonely = [reader.read("s-attrib(entity9, lambda(X, category(X, creature)))")]
    ms.names.note_entity("entity9")
    out = infer(ms.ctx, lonely, expected_plan=None)
    assert out.kind is Verdict.NO_DERIVATION


def test_reevaluating_a_candidate_is_stable():
    ms = golden_state()
    result = ms.hearer_step(opening_request(ms))
    plan, first = result.candidates[0]
    again = evaluate(plan, ms.ctx)
    assert again.valid == first.valid
    assert again.error_node == first.error_node


# -- construction -------------------------------------------------------------

def system_refer_goal(ms, target: str):
    entity = ms.names.fresh_var("E")
    return mk(
        "bel", USER,
        mk("goal", SYSTEM, mk("knowref", USER, SYSTEM, entity, Const(target))),
    )


def test_construction_prefers_the_shortest_description():
    ms = make_state(
        ["a1", "a2", "tv1"],
        [
            "category(a1, creature)", "category(a2, creature)",
            "category(tv1, television)",
            "size(a1, small)", "size(a2, large)",
            "age(a1, old)", "age(a2, old)",
        ],
        modifier_preds=["size", "age"],
    )
    ms.ctx.persp = Perspective("system", "user")
    plan = construct(ms.ctx, system_refer_goal(ms, "tv1"))
    assert len(plan.yield_of()) == 2  # a unique category needs no modifier
    plan2 = construct(ms.ctx, system_refer_goal(ms, "a1"))
    acts = [format_term(a) for a in plan2.yield_of()]
    assert len(acts) == 3
    assert any("size(X, small)" in a for a in acts)


def test_construction_fails_honestly_when_nothing_distinguishes():
    ms = make_state(
        ["a1", "a2"],
        [
            "category(a1, creature)", "category(a2, creature)",
            "size(a1, small)", "size(a2, small)",
        ],
        modifier_preds=["size"],
    )
    ms.ctx.persp = Perspective("system", "user")
    with pytest.raises(NoPlanError):
        construct(ms.ctx, system_refer_goal(ms, "a1"))


def test_construction_falls_back_to_relations():
    ms = make_state(
        ["a1", "a2", "b1", "b2"],
        [
            "category(a1, gadget)", "category(a2, gadget)",
            "category(b1, corner)", "category(b2, lamp)",
            "in(a1, b1)", "in(a2, b2)",
        ],
        rel_preds=["in"],
    )
    ms.ctx.persp = Perspective("system", "user")
    plan = construct(ms.ctx, system_refer_goal(ms, "a1"))
    acts = [format_term(a) for a in plan.yield_of()]
    assert any(a.startswith("s-attrib-rel(") for a in acts)
    assert sum(a.startswith("s-refer(") for a in acts) == 2
    assert any("category(X, corner)" in a for a in acts)


def test_construction_respects_the_nesting_depth_cap():
    # identification here would need three referring levels, one past the cap
    ms = make_state(
        ["a1", "a2", "b1", "b2", "c1", "c2"],
        [
            "category(a1, gadget)", "category(a2, gadget)",
            "category(b1, box)", "category(b2, box)",
            "category(c1, corner)", "category(c2, lamp)",
            "in(a1, b1)", "in(a2, b2)", "in(b1, c1)", "in(b2, c2)",
        ],
        rel_preds=["in"],
    )
    ms.ctx.persp = Perspective("system", "user")
    with pytest.raises(NoPlanError):
        construct(ms.ctx, system_refer_goal(ms, "a1"))


def test_construction_resolves_repair_plan_ids_in_the_effect():
    # regression guard: variables living only in the communicated effect
    # must still pick up bindings made while proving the body
    ms = golden_state()
    ms.hearer_step(opening_request(ms))
    error_plan = ms.cstate.plan
    ms.ctx.persp = Perspective("system", "user")
    goal = mk(
        "bel", USER,
        mk("goal", SYSTEM,
           mk("bel", USER,
              mk("bel", SYSTEM,
                 mk("replace", Const(error_plan), ms.names.fresh_var("NewPlan"))))),
    )
    plan = construct(ms.ctx, goal)
    effect = plan.bindings.resolve(plan.root_effect)
    replace = effect.args[1].args[1].args[1].args[1]
    assert replace.functor == "replace"
    new_pid = replace.args[1]
    assert isinstance(new_pid, Const), format_term(effect)
    assert new_pid.name in ms.ctx.registry
    assert ms.ctx.plan_judgments[new_pid.name][0] == "achieve"


def test_random_dichotomy_worlds_agree_with_enumeration(rng):
    understood = erred = 0
    for _ in range(60):
        world, category, pred, value, matches = worldgen.dichotomy_case(rng)
        ms = make_state(world.objects, world.fact_lines(), modifier_preds=world.preds())
        reader = TermReader(ms.names)
        acts = [
            reader.read("s-refer(entity1)"),
            reader.read(f"s-attrib(entity1, lambda(X, {pred}(X, {value})))"),
            reader.read(f"s-attrib(entity1, lambda(X, category(X, {category})))"),
        ]
        ms.names.note_entity("entity1")
        result = ms.hearer_step(acts)
        if len(matches) == 1:
            assert result.kind is Verdict.UNDERSTOOD, (world, category, pred, value)
            _, referent = ms.ctx.plan_judgments[result.plan.id]
            assert referent == Const(matches[0])
            understood += 1
        else:
            assert result.kind is Verdict.ERROR_AT, (world, category, pred, value)
            erred += 1
    assert understood > 10 and erred > 10

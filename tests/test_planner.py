"""Recognition and construction: solvers, parses, verdicts, search costs."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabref import (
    Bucket,
    Const,
    NoPlanError,
    NotUnderstoodError,
    NameSource,
    Perspective,
    QueryError,
    Substitution,
    Verdict,
    construct,
    evaluate,
    infer,
    build_state,
    load_scenario,
    mk,
    run_text,
)
from collabref import beliefs, collab, planner, schemas
from collabref.beliefs import SYSTEM, USER, BeliefBase
from collabref.planner import solve
from collabref.schemas import StepKind
from collabref.terms import (
    Lam,
    ListTerm,
    TermReader,
    apply_lambda,
    canon,
    format_term,
)

import recognition_reference
import worldgen
from conftest import DATA_DIR, SCENARIO_DIR, golden_state, make_state, opening_request


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
        assert solve(term, Substitution(), ctx) is None, format_term(term)


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
    assert solve(term, Substitution(), ms.ctx) is None


def test_knowref_assumed_for_the_other_agent_solved_for_self():
    ctx = small_ctx()
    names = ctx.names
    e, o = names.fresh_var("E"), names.fresh_var("O")
    s = Substitution()
    sols = solve(mk("knowref", USER, USER, e, o), s, ctx)
    assert len(sols) == 1 and sols[0] is s  # one solution, the input substitution itself
    assert solve(mk("knowref", SYSTEM, SYSTEM, e, o), s, ctx) is None
    sols = solve(mk("knowref", SYSTEM, SYSTEM, e, Const("fern1")), s, ctx)
    assert len(sols) == 1
    minted = sols[0].resolve(e)
    assert format_term(minted).startswith("entity")


def test_subset_keeps_matching_members_in_order():
    ctx = small_ctx()
    names = ctx.names
    out = names.fresh_var("Out")
    term = TermReader(names).read(
        "subset([fern1, tv1], lambda(X, bel(system, category(X, creature))), Out)"
    )
    term = mk("subset", term.args[0], term.args[1], out)
    sols = solve(term, Substitution(), ctx)
    assert len(sols) == 1
    assert sols[0].resolve(out) == ListTerm((Const("fern1"),))
    # nothing matching means failure, not an empty survivor list
    term2 = mk(
        "subset",
        ListTerm((Const("tv1"),)),
        TermReader(names).read("lambda(X, bel(system, category(X, creature)))"),
        names.fresh_var("Out2"),
    )
    assert solve(term2, Substitution(), ctx) == []


# A store of ground, non-ground and lambda-valued facts over
# three buckets, and subset tests of the forms the schemas use.
_V = NameSource(1_000_000)  # far from the uids the engine mints
A, B, C = (Const(n) for n in "abc")
STORED_VARS = [_V.fresh_var(n) for n in ("S", "T")]
MEMBER_VARS = [_V.fresh_var(n) for n in ("M", "N")]
PARAM = _V.fresh_var("X")
LAMBDA_VALUES = [Lam((PARAM,), mk("colour", PARAM, c)) for c in (A, B)]
VALUES = st.sampled_from([A, B, mk("f", A), ListTerm((A, B)), *LAMBDA_VALUES])
STORED = st.one_of(
    st.builds(lambda f, x, v: mk(f, x, v), st.sampled_from(["colour", "size"]),
              st.sampled_from([A, B, C, mk("f", A), *STORED_VARS]),
              st.one_of(VALUES, st.sampled_from(STORED_VARS))),
    st.just(mk("colour", STORED_VARS[0], STORED_VARS[0])),
)
SUBSET_BUCKETS = st.sampled_from([Bucket.COMMON_GROUND, Bucket.PRIVATE, Bucket.USER_MODEL])
MEMBERS = st.lists(
    st.sampled_from([A, A, B, C, mk("f", A), ListTerm((A, B)), *LAMBDA_VALUES, *MEMBER_VARS]),
    max_size=6,
)


def subset_test(form, functor, value):
    """lambda(X, Form) for a query form around functor(X, value)."""
    fact = mk(functor, PARAM, value)
    if form == "bmb":
        body = mk("bmb", SYSTEM, USER, fact)
    elif form == "apply":  # the modifier schemas' shape: apply(Pred, X) inside bmb
        body = mk("bmb", SYSTEM, USER, mk("apply", Lam((PARAM,), fact), PARAM))
    elif form == "nested":  # introspection: what the system believes the user believes
        body = mk("bel", SYSTEM, mk("bel", USER, fact))
    else:
        body = mk("bel", SYSTEM if form == "system" else USER, fact)
    return Lam((PARAM,), body)


TESTS = st.builds(
    subset_test,
    st.sampled_from(["bmb", "apply", "nested", "system", "user"]),
    st.sampled_from(["colour", "size"]),
    st.one_of(VALUES, st.sampled_from(MEMBER_VARS)),
)


def per_member_subset(ctx, members, test, s):
    """Reference: one query per member, as the subset solver used to run."""
    return [
        m for m in members
        if ctx.base.query(s.resolve(apply_lambda(test, (m,))), ctx.persp, s)
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(SUBSET_BUCKETS, STORED), max_size=12), MEMBERS, TESTS,
       st.one_of(st.none(), VALUES))
@example([(Bucket.COMMON_GROUND, mk("colour", A, LAMBDA_VALUES[0]))],
         [A, B, A, MEMBER_VARS[0]], subset_test("bmb", "colour", LAMBDA_VALUES[0]), None)
@example([(Bucket.COMMON_GROUND, mk("colour", STORED_VARS[0], STORED_VARS[0]))],
         [A, MEMBER_VARS[0]], subset_test("bmb", "colour", MEMBER_VARS[1]), A)
def test_subset_agrees_with_one_query_per_member(stored, members, test, bound):
    """One query for the open test keeps the members one query each would,
    in order and with duplicates. `bound` optionally binds the first member
    variable, which the test may also mention."""
    ctx = small_ctx()
    ctx.persp = Perspective("system", "user")
    ctx.base.modifier_preds = ["colour", "size"]
    for bucket, prop in stored:
        ctx.base.assert_prop(bucket, prop)
    s = Substitution() if bound is None else Substitution().bind(MEMBER_VARS[0], bound)
    out = ctx.names.fresh_var("Out")
    want = per_member_subset(ctx, [s.resolve(m) for m in members], test, s)
    sols = solve(mk("subset", ListTerm(tuple(members)), test, out), s, ctx)
    assert sols is not None
    got = list(sols[0].resolve(out).items) if sols else []
    assert got == want


def test_subset_raises_the_same_query_error_and_skips_an_empty_list():
    ctx = small_ctx()
    test = TermReader(ctx.names).read("lambda(X, nosuch(X))")
    with pytest.raises(QueryError) as direct:
        ctx.base.query(apply_lambda(test, (Const("fern1"),)), ctx.persp, Substitution())
    with pytest.raises(QueryError) as solved:
        solve(mk("subset", ListTerm((Const("fern1"),)), test, ctx.names.fresh_var("Out")),
              Substitution(), ctx)
    assert str(solved.value) == str(direct.value)
    assert solve(mk("subset", ListTerm(()), test, ctx.names.fresh_var("Out")),
                 Substitution(), ctx) == []


def test_pick_one_respects_the_preference_order():
    ms = make_state(
        ["fern1", "tv1"],
        ["category(fern1, creature)", "category(tv1, television)"],
        pick_order=["tv1"],
    )
    ctx = ms.ctx
    chosen = ctx.names.fresh_var("C")
    pool = ListTerm((Const("fern1"), Const("tv1")))
    sols = solve(mk("pick-one", chosen, pool), Substitution(), ctx)
    assert [s.resolve(chosen) for s in sols] == [Const("tv1"), Const("fern1")]


def test_negation_as_failure():
    ctx = small_ctx()
    names = ctx.names
    yes = TermReader(names).read("not([a] = [])")
    assert len(solve(yes, Substitution(), ctx)) == 1
    no = TermReader(names).read("not([] = [])")
    assert solve(no, Substitution(), ctx) == []
    # an undecided inner constraint keeps the negation undecided too
    open_plan = mk("not", mk("replan", names.fresh_var("P"), names.fresh_var("A")))
    assert solve(open_plan, Substitution(), ctx) is None


def test_equation_bridges_abstract_shapes():
    ctx = small_ctx()
    names = ctx.names
    lib = ctx.library
    concrete = lib.get("modifier-absolute").instantiate(names).head
    term = mk("=", TermReader(names).read("modifier(E, O, C, N)"), concrete)
    assert len(solve(term, Substitution(), ctx)) == 1


def stated_forms(library):
    """(functor, arity) of every constraint and mental step of the library,
    and of the form inside each negation and each subset's test."""
    forms = set()

    def note(t):
        forms.add((t.functor, len(t.args)))
        if t.functor == "not":
            note(t.args[0])
        elif t.functor == "subset":
            note(t.args[1].body)

    for schema in library.by_name.values():
        for step in schema.steps:
            if step.kind in (StepKind.CONSTRAINT, StepKind.MENTAL):
                note(step.term)
    return forms


def test_the_engine_answers_exactly_the_forms_the_library_states():
    # so a form no schema states, such as goal/2, has no solver and no query
    solved, queried = set(planner.SOLVERS), set(beliefs.QUERIES)
    assert not solved & queried
    assert stated_forms(small_ctx().library) == solved | queried


# -- recognition --------------------------------------------------------------

def test_canonical_orders_normalize_the_noun_first():
    ms = golden_state()
    acts = opening_request(ms)
    orders = recognition_reference.canonical_orders(acts)
    assert len(orders) == 1
    order = orders[0]
    assert sorted(canon(a) for a in order) == sorted(canon(a) for a in acts)
    assert format_term(order[0]).startswith("s-refer(")
    assert "category" in format_term(order[1])


def test_canonical_orders_pass_single_acts_through(names):
    act = TermReader(names).read("s-accept(p1)")
    assert recognition_reference.canonical_orders([act]) == [[act]]


def test_opening_description_with_two_candidates_is_judged_in_error():
    ms = golden_state()
    result = ms.hearer_step(opening_request(ms))
    assert result.kind is Verdict.ERROR_AT
    assert len(result.candidates) == 1
    plan, ev = result.candidates[0]
    assert not ev.valid
    blocked = plan.content_of(result.error_node)  # resolved under ev.bindings
    assert blocked.functor == "modifiers-terminate"
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


def refused(ms, acts):
    """The lines a turn the hearer does not understand ends its transcript
    with, as `run_scenario` writes them."""
    before = len(ms.log.lines)
    with pytest.raises(NotUnderstoodError) as err:
        ms.hearer_step(acts)
    return ms.log.lines[before:] + [f"not understood: {err.value}"]


NO_READING = ["inferred nothing", "not understood: no reading of that makes sense here"]


def test_meta_acts_only_parse_against_the_plan_under_discussion(monkeypatch):
    ms = golden_state()
    first = ms.hearer_step(opening_request(ms)).plan.id
    ms.speaker_step()  # the system's replacement is now under discussion
    assert ms.scope not in (None, first)
    reader = TermReader(ms.names)
    # accepting a known plan other than the one in scope is no reading at
    # all here, and the mental state turns it away before any parse
    parsed = []
    monkeypatch.setattr(collab, "infer", lambda *a: parsed.append(a) or infer(*a))
    assert refused(ms, [reader.read(f"s-accept({first})")]) == [f"observed s-accept({first})", *NO_READING]
    assert parsed == []
    # while accepting the plan under discussion is parsed and heard
    assert ms.hearer_step([reader.read(f"s-accept({ms.scope})")]).kind is Verdict.UNDERSTOOD
    assert len(parsed) == 1


def test_meta_roots_need_exactly_one_act():
    ms = golden_state()
    pid = ms.hearer_step(opening_request(ms)).plan.id
    reader = TermReader(ms.names)
    acts = [reader.read(f"s-accept({pid})"), reader.read(f"s-accept({pid})")]
    assert refused(ms, acts) == [f"observed s-accept({pid}); s-accept({pid})", *NO_READING]


def test_unparseable_acts_yield_no_derivation():
    ms = golden_state()
    reader = TermReader(ms.names)
    lonely = [reader.read("s-attrib(entity9, lambda(X, category(X, creature)))")]
    ms.names.note_entity("entity9")
    assert refused(ms, lonely) == [
        "observed s-attrib(entity9, lambda(X, category(X, creature)))", *NO_READING
    ]


def test_reevaluating_a_candidate_is_stable():
    ms = golden_state()
    result = ms.hearer_step(opening_request(ms))
    plan, first = result.candidates[0]
    again = evaluate(plan, ms.ctx)
    assert again.valid == first.valid
    assert again.error_node == first.error_node


# -- the head noun's place inside its entity's span ---------------------------

def user_acts(ms, lines):
    """The acts of a user turn, read by the hearer, who notes its entities."""
    reader = TermReader(ms.names)
    acts = [reader.read(line) for line in lines]
    for act in acts:
        if act.functor == "s-refer":
            ms.names.note_entity(act.args[0].name)
    return acts


def heard(result):
    """What a recognition result says: its verdict, the plan it settles on
    and every candidate's id, judgment and acts."""
    return (
        result.kind, result.plan and result.plan.id, result.error_node,
        [(p.id, v.valid, v.error_node, [format_term(a) for a in p.yield_of()]) for p, v in result.candidates],
    )


def infer_both(world, lines):
    """The new and the reference recognizer's readings of the turn, each
    by a fresh hearer of the world."""
    out = []
    for recognize in (infer, recognition_reference.infer):
        ms = make_state(world.objects, world.fact_lines(), modifier_preds=world.preds(),
                        rel_preds=list(worldgen.RELATION_POOL))
        ms.ctx.persp = Perspective("user", "system")
        out.append(heard(recognize(ms.ctx, user_acts(ms, lines))))
    return out


def entity_span(rng, world, entity, obj, entities, depth):
    """A well-formed span for one entity, mostly true of the object obj: its
    s-refer, then in random order one or two category acts (sometimes the
    same one twice), up to two absolute modifiers and, at most two levels
    deep, a relational modifier that names a new entity by a span of its own."""
    def pick(truth, pool):
        return truth if rng.random() < 0.8 else rng.choice(pool)

    categories = sorted(set(world.categories.values()))
    nouns = [pick(world.categories[obj], categories) for _ in range(rng.randint(1, 2))]
    if len(nouns) == 2 and rng.random() < 0.3:
        nouns[1] = nouns[0]
    units = [[f"s-attrib({entity}, lambda(X, category(X, {c})))"] for c in nouns]
    for pred in rng.sample(world.preds(), rng.randint(0, min(2, len(world.preds())))):
        value = pick(world.attributes[pred][obj], worldgen.ATTRIBUTE_POOL[pred])
        units.append([f"s-attrib({entity}, lambda(X, {pred}(X, {value})))"])
    if depth < 2 and rng.random() < 0.6:
        related = [(r, b) for r, a, b in world.relations or [] if a == obj]
        if not related or rng.random() < 0.2:
            related = [(r, b) for r in worldgen.RELATION_POOL for b in world.objects]
        rel, other_obj = rng.choice(related)
        other = f"entity{next(entities)}"
        units.append([f"s-attrib-rel({entity}, {other}, lambda(X, Y, {rel}(X, Y)))"]
                     + entity_span(rng, world, other, other_obj, entities, depth + 1))
    rng.shuffle(units)
    return [f"s-refer({entity})"] + [line for unit in units for line in unit]


def test_recognition_agrees_with_the_reordering_reference_on_well_formed_turns():
    """Choosing each head noun inside its entity's span reads every
    well-formed turn as reparsing each reordering with the noun moved first
    did: the same candidates under the same ids, judgments and acts."""
    rng = random.Random(16)
    reordered = related = 0
    kinds = set()
    for _ in range(100):
        world = worldgen.random_world(rng, max_rels=2)
        lines = entity_span(rng, world, "entity1", rng.choice(world.objects), itertools.count(2), 0)
        new, reference = infer_both(world, lines)
        assert new == reference, lines
        kinds.add(new[0])
        related += any(line.startswith("s-attrib-rel(") for line in lines)
        acts = [TermReader(NameSource()).read(line) for line in lines]
        reordered += len(recognition_reference.canonical_orders(acts)) > 1
    assert kinds == {Verdict.UNDERSTOOD, Verdict.ERROR_AT, Verdict.AMBIGUOUS}, kinds
    assert related > 40 and reordered > 30, (related, reordered)


def hear_golden(lines, recognize):
    ms = golden_state()
    ms.ctx.persp = Perspective("user", "system")
    return recognize(ms.ctx, user_acts(ms, lines)).kind


CREATURE = "s-attrib(entity1, lambda(X, category(X, creature)))"
ON_TV = ["s-attrib-rel(entity1, entity2, lambda(X, Y, on(X, Y)))", "s-refer(entity2)"]
TELEVISION = "s-attrib(entity2, lambda(X, category(X, television)))"
WEIRD = "s-attrib(entity1, lambda(X, assessment(X, weird)))"


@pytest.mark.parametrize("lines", [
    # the head noun comes before its entity's s-refer
    [CREATURE, "s-refer(entity1)"] + ON_TV + [TELEVISION],
    # entity2's head noun comes after a later act of entity1's
    ["s-refer(entity1)", CREATURE] + ON_TV + [WEIRD, TELEVISION],
])
def test_a_category_act_outside_its_entitys_span_no_longer_parses(lines):
    # reordering the turn read both as the creature on the television; a head
    # noun is now looked for only inside its own entity's span
    assert hear_golden(lines, recognition_reference.infer) is Verdict.UNDERSTOOD
    assert hear_golden(lines, infer) is Verdict.NO_DERIVATION


def test_a_reading_that_needs_a_noun_from_outside_its_entitys_span_is_gone():
    # entity2's second television comes after entity1's second creature; the
    # reordering found that reading beside the one where entity1's nouns swap
    lines = ["s-refer(entity1)", CREATURE] + ON_TV + [TELEVISION, CREATURE, TELEVISION]
    assert hear_golden(lines, recognition_reference.infer) is Verdict.AMBIGUOUS
    assert hear_golden(lines, infer) is Verdict.ERROR_AT


def test_a_head_noun_is_found_anywhere_in_its_entitys_span():
    lines = ["s-refer(entity1)", WEIRD] + ON_TV + [TELEVISION, CREATURE]
    assert hear_golden(lines, infer) is Verdict.UNDERSTOOD


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


def describe_and_hear(world, facts, target):
    """The acts construction builds for the target over these common-ground
    facts (or the refusal), and the event log of a fresh hearer holding the
    same facts who reads them."""
    kwargs = dict(modifier_preds=world.preds(), rel_preds=world.rel_preds(), pick_order=world.objects)
    speaker = make_state(world.objects, facts, **kwargs)
    speaker.ctx.persp = Perspective("system", "user")
    try:
        acts = [format_term(a) for a in construct(speaker.ctx, system_refer_goal(speaker, target)).yield_of()]
    except NoPlanError as err:
        return str(err), None
    hearer = make_state(world.objects, facts, **kwargs)
    reader = TermReader(hearer.names)
    heard = [reader.read(a) for a in acts]
    hearer.names.note_entity(heard[0].args[0].name)
    try:
        hearer.hearer_step(heard)
    except NotUnderstoodError as err:
        hearer.log.add(f"not understood: {err}")
    return acts, hearer.log.lines


def test_common_ground_fact_order_changes_no_description_or_reading():
    rng = random.Random(20261018)
    described = relational = 0
    for trial in range(40):
        # every other world has one attribute, which leaves relations work
        world = worldgen.random_world(rng, max_preds=1 + 3 * (trial % 2), max_rels=2)
        facts = world.fact_lines()
        target = rng.choice(world.objects)
        acts, log = describe_and_hear(world, facts, target)
        if log is not None:
            described += 1
            relational += any(a.startswith("s-attrib-rel(") for a in acts)
        for _ in range(2):
            shuffled = rng.sample(facts, len(facts))
            assert describe_and_hear(world, shuffled, target) == (acts, log), (world, target, shuffled)
    assert described >= 20 and relational >= 2, (described, relational)


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


# A modifier the search tries and abandons: its act is new, and no fact
# answers its bmb, so no plan ever holds it.
UNUSED_MODIFIER = """
schema modifier-never(Entity, Object, Cand, NewCand) specializes modifier
  constraint modifier-pred(Pred)
  constraint bmb(Speaker, Hearer, never(Object, Pred))
  constraint subset(Cand, lambda(X, bmb(Speaker, Hearer, apply(Pred, X))), NewCand)
  primitive s-never(Entity, Pred)
"""


def test_a_schema_the_search_tries_and_abandons_changes_no_id(monkeypatch):
    golden = (DATA_DIR / "weird_creature_events.txt").read_text()
    tried = 0
    real_instantiate = planner.ActionSchema.instantiate

    def counting(self, names):
        nonlocal tried
        tried += self.name == "modifier-never"
        return real_instantiate(self, names)

    monkeypatch.setattr(schemas, "_LIBRARY_TEXT", schemas._LIBRARY_TEXT + UNUSED_MODIFIER)
    monkeypatch.setattr(planner.ActionSchema, "instantiate", counting)
    schemas._library.cache_clear()
    try:
        assert "modifier-never" in schemas.build_library(NameSource()).concrete("modifier")
        said = run_text((SCENARIO_DIR / "weird_creature.scn").read_text()).text()
    finally:
        schemas._library.cache_clear()
    assert tried > 0
    assert said == golden


# -- dead-end pruning ------------------------------------------------------------

def describe_or_refuse(objects, facts, target: str, preds=(), rels=()) -> tuple[str, ...]:
    """What the system says to identify target, or why it cannot."""
    ms = make_state(objects, facts, modifier_preds=list(preds), rel_preds=list(rels))
    ms.ctx.persp = Perspective("system", "user")
    try:
        plan = construct(ms.ctx, system_refer_goal(ms, target))
    except NoPlanError as err:
        return ("refused", str(err))
    return tuple(format_term(a) for a in plan.yield_of())


def world_case(world, target: str):
    return world.objects, world.fact_lines(), target, world.preds(), world.rel_preds()


def test_pruned_search_agrees_with_the_unpruned_one_on_random_worlds(monkeypatch):
    rng = random.Random(20261018)
    cases = []
    for i in range(100):
        world = worldgen.random_world(rng, max_preds=1 + i % 2 * 3, max_rels=2)
        cases.extend((world, target) for target in world.objects)
    real_inseparable = BeliefBase.inseparable
    fired = 0

    def spy(self, referent, other):
        nonlocal fired
        found = real_inseparable(self, referent, other)
        fired += found
        return found

    monkeypatch.setattr(BeliefBase, "inseparable", spy)
    pruned, fired_in_descriptions = [], 0
    for world, target in cases:
        fired = 0
        pruned.append(describe_or_refuse(*world_case(world, target)))
        fired_in_descriptions += bool(fired) and pruned[-1][0] != "refused"
    # the reference: the same search with nothing ever found inseparable
    monkeypatch.setattr(BeliefBase, "inseparable", lambda self, referent, other: False)
    unpruned = [describe_or_refuse(*world_case(world, target)) for world, target in cases]
    assert pruned == unpruned
    refused = sum(said[0] == "refused" for said in pruned)
    related = sum(any(a.startswith("s-attrib-rel(") for a in said) for said in pruned)
    assert refused > 50 and related > 10 and fired_in_descriptions > 0, (
        refused, related, fired_in_descriptions,
    )


def with_unused_category(world, rng: random.Random):
    """The world plus one to three objects, at random places in its object
    order, of a category no object has, with random attribute values and
    no relations."""
    category = rng.choice([c for c in worldgen.CATEGORY_POOL if c not in world.categories.values()])
    extra = [f"other{i + 1}" for i in range(rng.randint(1, 3))]
    objects = list(world.objects)
    for name in extra:
        objects.insert(rng.randint(0, len(objects)), name)
    attributes = {
        pred: {**values, **{o: rng.choice(worldgen.ATTRIBUTE_POOL[pred]) for o in extra}}
        for pred, values in world.attributes.items()
    }
    categories = {**world.categories, **{o: category for o in extra}}
    return worldgen.World(objects, categories, attributes, world.relations)


def test_objects_of_an_unused_category_change_no_description():
    rng = random.Random(4242)
    outcomes, new_values = [], 0
    for i in range(60):
        world = worldgen.random_world(rng, max_preds=1 + i % 2 * 3, max_rels=2)
        bigger = with_unused_category(world, rng)
        new_values += any(
            set(values.values()) < set(bigger.attributes[pred].values())
            for pred, values in world.attributes.items()
        )
        for target in world.objects:
            said = describe_or_refuse(*world_case(world, target))
            assert describe_or_refuse(*world_case(bigger, target)) == said, (world, bigger, target)
            outcomes.append(said[0] == "refused")
    # both outcomes occur, and added objects often bring a value nobody had
    assert sum(outcomes) > 20 and len(outcomes) - sum(outcomes) > 50 and new_values > 10, (
        sum(outcomes), len(outcomes), new_values,
    )


def test_an_object_with_a_superset_of_the_properties_is_inseparable():
    objects = ["a1", "a2"]
    facts = [
        "category(a1, creature)", "category(a2, creature)",
        "size(a1, small)", "size(a2, small)", "size(a2, large)",
    ]
    refused = describe_or_refuse(objects, facts, "a1", preds=["size"])
    assert refused == ("refused", "no plan achieves the goal")
    said = describe_or_refuse(objects, facts, "a2", preds=["size"])
    assert len(said) == 3 and "size(X, large)" in said[2], said


def test_twins_in_different_places_are_still_described():
    objects = ["g1", "g2", "c1", "c2"]
    facts = [
        "category(g1, gadget)", "category(g2, gadget)",
        "category(c1, corner)", "category(c2, corner)",
        "colour(g1, red)", "colour(g2, red)",
        "colour(c1, blue)", "colour(c2, green)",
        "in(g1, c1)", "in(g2, c2)",
    ]
    for target, corner in (("g1", "blue"), ("g2", "green")):
        said = describe_or_refuse(objects, facts, target, preds=["colour"], rels=["in"])
        assert said[0] != "refused", target
        assert any(a.startswith("s-attrib-rel(") for a in said), said
        assert any(f"colour(X, {corner})" in a for a in said), said


def twin_world():
    """40 objects over four attributes, where thing2 is thing1's twin."""
    rng = random.Random(40)
    objects = [f"thing{i + 1}" for i in range(40)]
    categories = {o: rng.choice(["creature", "lamp"]) for o in objects}
    attributes = {
        pred: {o: rng.choice(values) for o in objects}
        for pred, values in worldgen.ATTRIBUTE_POOL.items()
    }
    categories["thing2"] = categories["thing1"]
    for values in attributes.values():
        values["thing2"] = values["thing1"]
    world = worldgen.World(objects, categories, attributes)
    assert len(world.preds()) == 4
    assert worldgen.minimal_modifier_count(world, "thing1") is None
    return world


def count_calls(monkeypatch, owner, name):
    """Count calls of owner.name from here on; returns a one-item list."""
    calls = [0]
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_refusing_a_twin_in_a_large_world_takes_few_solver_calls(monkeypatch):
    world = twin_world()
    calls = count_calls(monkeypatch, planner, "solve")
    refused = describe_or_refuse(*world_case(world, "thing1"))
    assert refused == ("refused", "no plan achieves the goal")
    assert calls[0] <= 20, calls


def test_refusing_a_twin_in_a_large_world_makes_few_belief_queries(monkeypatch):
    # each subset filter is one query, however many candidates it reads
    world = twin_world()
    calls = count_calls(monkeypatch, BeliefBase, "query")
    refused = describe_or_refuse(*world_case(world, "thing1"))
    assert refused == ("refused", "no plan achieves the goal")
    assert calls[0] <= 8, calls


# -- one resolution of a query goal ------------------------------------------

def count_top_level_resolves(monkeypatch):
    """Count the Substitution.resolve calls not made inside another one."""
    calls, depth = [0], [0]
    real = Substitution.resolve

    def counting(self, t):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return real(self, t)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Substitution, "resolve", counting)
    return calls


def bound_speaker_and_hearer(ctx):
    speaker, hearer = ctx.names.fresh_var("Speaker"), ctx.names.fresh_var("Hearer")
    return speaker, hearer, Substitution().bind(speaker, SYSTEM).bind(hearer, USER)


def test_a_query_constraint_is_resolved_once(monkeypatch):
    ctx = small_ctx()
    speaker, hearer, s = bound_speaker_and_hearer(ctx)
    obj = ctx.names.fresh_var("O")
    term = mk("bmb", speaker, hearer, mk("category", obj, Const("creature")))
    calls = count_top_level_resolves(monkeypatch)
    sols = solve(term, s, ctx)
    assert calls[0] == 1  # in BeliefBase.query
    assert [x.resolve(obj) for x in sols] == [Const("fern1")]


def test_a_subset_filter_resolves_the_list_the_goal_and_each_answer(monkeypatch):
    ctx = small_ctx()
    speaker, hearer, s = bound_speaker_and_hearer(ctx)
    cand, out, x = (ctx.names.fresh_var(n) for n in ("Cand", "Out", "X"))
    s = s.bind(cand, ListTerm((Const("fern1"), Const("tv1"))))
    test = Lam((x,), mk("bmb", speaker, hearer, mk("category", x, Const("creature"))))
    calls = count_top_level_resolves(monkeypatch)
    sols = solve(mk("subset", cand, test, out), s, ctx)
    assert calls[0] == 2  # the list and the goal in query; the one answer is a constant
    assert len(sols) == 1
    assert sols[0].resolve(out) == ListTerm((Const("fern1"),))


# forms whose solving changes no engine state, so they can be solved twice
REPEATABLE = {f for f, _ in beliefs.QUERIES} | {"subset", "=", "not", "pick-one", "yield", "content"}


def test_solve_gives_the_same_solutions_for_a_term_and_its_resolution(monkeypatch):
    real = planner.solve
    seen = set()

    def both(term, s, ctx, clarifying=False):
        sols = real(term, s, ctx, clarifying)
        functor = s.walk(term).functor
        if functor in REPEATABLE:
            seen.add(functor)
            sols2 = real(s.resolve(term), s, ctx, clarifying)
            assert (sols2 is None) is (sols is None), format_term(s.resolve(term))
            assert [canon(term, x) for x in sols2 or []] == [canon(term, x) for x in sols or []]
        return sols

    monkeypatch.setattr(planner, "solve", both)
    text = (SCENARIO_DIR / "weird_creature.scn").read_text()
    golden = (DATA_DIR / "weird_creature_events.txt").read_text()
    assert run_text(text).text() == golden
    rng = random.Random(1018)
    for _ in range(6):
        world = worldgen.random_world(rng, max_objects=6, max_rels=1)
        describe_or_refuse(*world_case(world, world.objects[0]))
    assert seen == REPEATABLE, seen


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


# -- recognition skips spans too short to derive ---------------------------

def description_lines(rng):
    """A referring act sequence, mostly well formed: entity1 with a head
    noun and modifiers, sometimes related to entity2, sometimes garbled."""
    lines = ["s-refer(entity1)", "s-attrib(entity1, lambda(X, category(X, creature)))"]
    lines += rng.sample(["s-attrib(entity1, lambda(X, colour(X, red)))",
                         "s-attrib(entity1, lambda(X, size(X, big)))"], rng.randint(0, 2))
    if rng.random() < 0.5:
        lines += ["s-attrib-rel(entity1, entity2, lambda(X, Y, on(X, Y)))", "s-refer(entity2)",
                  "s-attrib(entity2, lambda(X, category(X, television)))"]
        lines += ["s-attrib(entity2, lambda(X, colour(X, red)))"] * rng.randint(0, 1)
    garble = rng.random()
    if garble < 0.2:
        rng.shuffle(lines)
    elif garble < 0.4:
        del lines[rng.randrange(len(lines))]
    elif garble < 0.5:
        lines.append(rng.choice(["s-accept(p1)", "s-refer(entity3)"]))
    return lines


def parse_signatures(ctx, root, acts):
    derived = planner._derive(ctx.library.get(root).head, acts, Substitution(), ctx, 0, 0)
    return [planner._parse_signature(tree, s) for _, tree, s in derived]


def test_recognition_skips_only_splits_that_derive_nothing(monkeypatch):
    rng = random.Random(5150)
    ctx = small_ctx()
    roots = [sc.name for sc in ctx.library.effect_schemas()]
    reader = TermReader(ctx.names)
    cases = [[reader.read(line) for line in description_lines(rng)] for _ in range(40)]
    cases.append([reader.read("s-reject(p1, [s-refer(entity1)])")])

    calls = 0
    real_instantiate = planner.ActionSchema.instantiate

    def counting(self, names):
        nonlocal calls
        calls += 1
        return real_instantiate(self, names)

    monkeypatch.setattr(planner.ActionSchema, "instantiate", counting)
    pruned = [[parse_signatures(ctx, root, acts) for root in roots] for acts in cases]
    pruned_calls, calls = calls, 0
    least = ctx.library.least_from
    monkeypatch.setattr(ctx.library, "least_from", {n: (0,) * len(ys) for n, ys in least.items()})
    monkeypatch.setattr(ctx.library, "most_from", {n: (1 << 30,) * len(ys) for n, ys in least.items()})
    full = [[parse_signatures(ctx, root, acts) for root in roots] for acts in cases]
    assert pruned == full
    assert sum(len(p) for by_root in pruned for p in by_root) >= 15
    assert pruned_calls * 2 < calls


# Wall-clock bound on understanding one long turn, generous for a slow host.
LONG_TURN_SECONDS = 2.0


class CountedHearing:
    """Hears a turn, counting `_match_steps` calls and failing as soon as
    they pass a budget, so an exponential parse fails fast instead of hanging."""

    def __init__(self, monkeypatch):
        self.calls = self.budget = 0
        real_match_steps = planner._match_steps

        def counting(*args):
            self.calls += 1
            if self.calls > self.budget:
                pytest.fail(f"more than {self.budget} _match_steps calls")
            return real_match_steps(*args)

        monkeypatch.setattr(planner, "_match_steps", counting)

    def hear(self, ms, lines, budget, verdict=Verdict.UNDERSTOOD):
        acts = user_acts(ms, lines)
        self.calls, self.budget = 0, budget
        began = time.perf_counter()
        result = ms.hearer_step(acts)
        assert time.perf_counter() - began < LONG_TURN_SECONDS
        assert result.kind is verdict
        if verdict is Verdict.UNDERSTOOD:
            assert ms.ctx.plan_judgments[result.plan.id] == ("achieve", Const("obj1"))
        return self.calls


def test_recognition_calls_grow_at_most_quadratically_with_modifiers(monkeypatch):
    hearing = CountedHearing(monkeypatch)
    counts = {}
    for k in (10, 20, 40):
        # one entity, a head noun and k absolute modifiers, all true of obj1
        preds = [f"a{j}" for j in range(k)]
        ms = make_state(
            ["obj1", "obj2"],
            ["category(obj1, creature)", "category(obj2, creature)"] + [f"{p}(obj1, yes)" for p in preds],
            modifier_preds=preds,
        )
        lines = ["s-refer(entity1)"] + [f"s-attrib(entity1, lambda(X, {p}(X, yes)))" for p in preds]
        lines.append("s-attrib(entity1, lambda(X, category(X, creature)))")
        counts[k] = hearing.hear(ms, lines, 4 * k * k)
    # doubling the turn at most quadruples the work
    assert counts[20] < 4.2 * counts[10] and counts[40] < 4.2 * counts[20], counts


def test_recognition_of_relational_modifiers_stays_polynomial(monkeypatch):
    hearing = CountedHearing(monkeypatch)
    counts = {}
    for k in (4, 8):
        # obj1 relates to k objects, each named by its own category; a
        # nested refer can recurse, so every split of its span is tried
        facts = ["category(obj1, creature)", "category(obj2, creature)"]
        facts += [f"category(o{j}, c{j})" for j in range(k)] + [f"r{j}(obj1, o{j})" for j in range(k)]
        ms = make_state(["obj1", "obj2"] + [f"o{j}" for j in range(k)], facts, rel_preds=[f"r{j}" for j in range(k)])
        lines = ["s-refer(entity1)", "s-attrib(entity1, lambda(X, category(X, creature)))"]
        for j in range(k):
            lines += [f"s-attrib-rel(entity1, e{j}, lambda(X, Y, r{j}(X, Y)))", f"s-refer(e{j})",
                      f"s-attrib(e{j}, lambda(X, category(X, c{j})))"]
        counts[k] = hearing.hear(ms, lines, len(lines) ** 3 // 2)
    # doubling k less than doubles the turn, and cubic growth at most octuples the work
    assert counts[8] < 8 * counts[4], counts


@pytest.mark.xfail(strict=True, reason="recognition grows about threefold per level of a chain "
                   "of relational references; a tabled parse is ROADMAP item 1, step 2")
def test_recognition_of_a_chain_of_relational_references_stays_polynomial(monkeypatch):
    hearing = CountedHearing(monkeypatch)
    counts = {}
    for depth in (3, 6):
        # obj1 relates to o1, o1 to o2 and so on, each named by its own
        # category; depths 3 to 6 cost 284, 901, 2,846 and 8,971 calls
        objects = ["obj1"] + [f"o{j}" for j in range(1, depth + 1)]
        facts = [f"category({o}, c{j})" for j, o in enumerate(objects)]
        facts += [f"r{j}({a}, {b})" for j, (a, b) in enumerate(zip(objects, objects[1:]))]
        ms = make_state(objects, facts, rel_preds=[f"r{j}" for j in range(depth)])
        lines = []
        for j in range(depth + 1):
            lines += [f"s-refer(entity{j + 1})", f"s-attrib(entity{j + 1}, lambda(X, category(X, c{j})))"]
            if j < depth:
                lines.append(f"s-attrib-rel(entity{j + 1}, entity{j + 2}, lambda(X, Y, r{j}(X, Y)))")
        counts[depth] = hearing.hear(ms, lines, len(lines) ** 3 // 2)
    # doubling the depth less than doubles the turn, and cubic growth at most octuples the work
    assert counts[6] < 8 * counts[3], counts


def test_two_category_acts_on_each_of_eight_related_entities_parse_in_few_calls(monkeypatch):
    # each o_j is both a c_j and a d_j: reordering the turn once per choice of
    # head noun took 256 parses and about 4.5 million calls; each noun is now
    # chosen inside its entity's span. The second category act still reads
    # as a modifier, and category is no modifier predicate.
    hearing = CountedHearing(monkeypatch)
    names = NameSource()
    sc = load_scenario((DATA_DIR / "long_turn.scn").read_text(), names)
    ms = build_state(sc, names)
    lines = [format_term(act) for act in sc.turns[0].acts]
    assert len(lines) == 34
    assert hearing.hear(ms, lines, 50_000, Verdict.ERROR_AT) < 50_000

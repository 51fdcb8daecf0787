"""Belief store: bucket visibility, attributed belief, query dispatch.

The randomized checks grade the query machinery against plain set
membership over the very fact lines that were loaded, so the expected
answers never pass through unification at all. The property test grades
the indexed store against a plain scan that renames apart and unifies
every stored item, solution for solution and in the same order.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabref import beliefs
from collabref import (
    BeliefBase,
    Bucket,
    Const,
    NameSource,
    Perspective,
    QueryError,
    Substitution,
    TermReader,
    canon,
    mk,
)
from collabref.beliefs import SYSTEM, USER
from collabref.terms import Compound, Lam, ListTerm, rename_apart, unify

import worldgen

PERSP = Perspective("user", "system")


def fresh_base(objects, modifier_preds=None, rel_preds=None):
    names = NameSource()
    base = BeliefBase(objects, names, modifier_preds or [], rel_preds or [])
    return base, names


def load(base, names, bucket, lines):
    for line in lines:
        base.assert_prop(bucket, TermReader(names).read(line))


def answers(base, names, pattern_text):
    """Engine answers for a query, as canonical strings of the instantiated goal."""
    goal = TermReader(names).read(pattern_text)
    sols = base.query(goal, PERSP, Substitution())
    return sorted(canon(s.resolve(goal)) for s in sols)


def test_speaker_hearer_and_world_forms():
    base, names = fresh_base(["fern1", "tv1"])
    s = base.query(TermReader(names).read("speaker(S)"), PERSP, Substitution())
    assert len(s) == 1
    assert s[0].resolve(TermReader(names).read("S")) is not None
    got = base.query(mk("speaker", Const("user")), PERSP, Substitution())
    assert len(got) == 1
    assert base.query(mk("speaker", Const("system")), PERSP, Substitution()) == []
    world_var = names.fresh_var("W")
    sols = base.query(mk("world", world_var), PERSP, Substitution())
    assert len(sols) == 1
    world = sols[0].resolve(world_var)
    assert isinstance(world, ListTerm)
    assert [i.name for i in world.items] == ["fern1", "tv1"]


def test_fact_queries_match_naive_membership(rng):
    for round_no in range(60):
        world = worldgen.random_world(rng)
        base, names = fresh_base(world.objects, world.preds())
        cg = world.fact_lines()
        # a few facts are demoted to private knowledge instead
        private = [line for line in cg if rng.random() < 0.25]
        cg = [line for line in cg if line not in private]
        load(base, names, Bucket.COMMON_GROUND, cg)
        load(base, names, Bucket.PRIVATE, private)
        visible = set(cg) | set(private)

        pred = rng.choice(world.preds() + ["category"])
        values = (
            worldgen.ATTRIBUTE_POOL[pred]
            if pred != "category"
            else sorted(set(world.categories.values()))
        )
        value = rng.choice(values)
        # the system believes what it knows privately and what is common ground
        got = answers(base, names, f"bel(system, {pred}(X, {value}))")
        want = sorted(
            canon(TermReader(names).read(f"bel(system, {pred}({o}, {value}))"))
            for o in world.objects
            if f"{pred}({o}, {value})" in visible
        )
        assert got == want, f"round {round_no}: {pred}/{value}"

        # both arguments open: every stored pair must come back exactly once
        got_all = answers(base, names, f"bel(system, {pred}(X, Y))")
        want_all = sorted(
            canon(TermReader(names).read(f"bel(system, {line})"))
            for line in visible
            if line.startswith(f"{pred}(")
        )
        assert got_all == want_all, f"round {round_no}: {pred} open query"


def test_unknown_fact_functor_raises():
    base, names = fresh_base(["fern1"], ["size"])
    load(base, names, Bucket.COMMON_GROUND, ["category(fern1, creature)"])
    load(base, names, Bucket.PRIVATE, ["texture(fern1, soft)"])
    # a bare fact is no query form, whether or not it is stored or a modifier
    for text in ("texture(fern1, soft)", "category(fern1, X)", "size(fern1, X)", "goal(system, X)"):
        goal = TermReader(names).read(text)
        with pytest.raises(QueryError, match=f"no way to answer {goal.functor}/2 queries"):
            base.query(goal, PERSP, Substitution())


def test_attributed_belief_draws_from_three_sources():
    base, names = fresh_base(["fern1", "tv1"])
    load(base, names, Bucket.COMMON_GROUND, ["category(fern1, creature)"])
    load(base, names, Bucket.PRIVATE, ["category(tv1, television)"])
    base.assert_prop(
        Bucket.COMMON_GROUND,
        TermReader(names).read("bel(system, category(tv1, gadget))"),
    )
    got = answers(base, names, "bel(system, category(X, Y))")
    want = sorted(
        canon(TermReader(names).read(t))
        for t in [
            "bel(system, category(fern1, creature))",
            "bel(system, category(tv1, television))",
            "bel(system, category(tv1, gadget))",
        ]
    )
    assert got == want
    # the user view must not see the system's private bucket
    got_user = answers(base, names, "bel(user, category(X, Y))")
    assert got_user == [canon(TermReader(names).read("bel(user, category(fern1, creature))"))]


def test_attributed_belief_dedups_across_sources():
    base, names = fresh_base(["fern1"])
    load(base, names, Bucket.COMMON_GROUND, ["category(fern1, creature)"])
    load(base, names, Bucket.PRIVATE, ["category(fern1, creature)"])
    got = answers(base, names, "bel(system, category(fern1, creature))")
    assert len(got) == 1


def test_belief_introspection_collapses():
    base, names = fresh_base(["fern1"])
    load(base, names, Bucket.PRIVATE, ["category(fern1, creature)"])
    assert answers(base, names, "bel(system, bel(system, category(fern1, X)))")
    deeper = answers(base, names, "bel(system, bel(system, bel(system, category(fern1, X))))")
    assert deeper


def test_belief_about_the_other_agent():
    base, names = fresh_base(["fern1"])
    base.assert_prop(Bucket.USER_MODEL, TermReader(names).read("achieve(p1, g1)"))
    assert answers(base, names, "bel(system, bel(user, achieve(p1, X)))")
    assert answers(base, names, "bel(user, achieve(p1, X))")
    assert answers(base, names, "bel(system, achieve(p1, X))") == []


def test_belief_with_unbound_agent_is_a_query_error():
    base, names = fresh_base(["fern1"])
    load(base, names, Bucket.PRIVATE, ["category(fern1, creature)"])
    base.assert_prop(Bucket.USER_MODEL, TermReader(names).read("achieve(p1, g1)"))
    for text in ("bel(A, category(fern1, creature))", "bel(A, achieve(p1, g1))"):
        with pytest.raises(QueryError, match="unknown agent"):
            base.query(TermReader(names).read(text), PERSP, Substitution())
    # what the system believes someone believes still covers both agents
    assert answers(base, names, "bel(system, bel(A, category(fern1, creature)))") == [
        canon(TermReader(names).read("bel(system, bel(system, category(fern1, creature)))"))
    ]
    assert answers(base, names, "bel(system, bel(A, achieve(p1, g1)))") == [
        canon(TermReader(names).read("bel(system, bel(user, achieve(p1, g1)))"))
    ]


def test_beliefs_and_belief_patterns_are_compounds():
    base, names = fresh_base(["fern1"])
    for prop in (Const("fern1"), names.fresh_var("P"), ListTerm((Const("fern1"),))):
        with pytest.raises(QueryError, match="must be a compound"):
            base.assert_prop(Bucket.PRIVATE, prop)
    assert base.items(Bucket.PRIVATE) == []
    load(base, names, Bucket.COMMON_GROUND, ["category(fern1, creature)"])
    for text in ("bel(system, X)", "bel(user, X)", "bel(system, bel(user, X))", "bmb(system, user, X)"):
        with pytest.raises(QueryError, match="must be a compound"):
            base.query(TermReader(names).read(text), PERSP, Substitution())
    with pytest.raises(QueryError, match="must be a compound"):
        base.retract_matching(Bucket.COMMON_GROUND, names.fresh_var("P"))
    assert len(base.items(Bucket.COMMON_GROUND)) == 1


def test_mutual_belief_needs_the_dialogue_pair():
    base, names = fresh_base(["fern1"])
    load(base, names, Bucket.COMMON_GROUND, ["category(fern1, creature)"])
    load(base, names, Bucket.PRIVATE, ["category(fern1, plant)"])
    got = answers(base, names, "bmb(system, user, category(fern1, X))")
    assert got == [canon(TermReader(names).read("bmb(system, user, category(fern1, creature))"))]
    with pytest.raises(QueryError):
        base.query(TermReader(names).read("bmb(fern1, user, category(fern1, X))"), PERSP, Substitution())


def test_modifier_pred_enumerates_distinct_value_lambdas(rng):
    for _ in range(20):
        world = worldgen.random_world(rng)
        base, names = fresh_base(world.objects, world.preds())
        load(base, names, Bucket.COMMON_GROUND, world.fact_lines())
        goal = TermReader(names).read("modifier-pred(P)")
        sols = base.query(goal, PERSP, Substitution())
        got = sorted(canon(s.resolve(goal)) for s in sols)
        want = sorted(
            canon(TermReader(names).read(f"modifier-pred(lambda(X, {pred}(X, {value})))"))
            for pred in world.preds()
            for value in sorted({world.attributes[pred][o] for o in world.objects})
        )
        assert got == want


def test_modifier_pred_checks_a_given_lambda():
    base, names = fresh_base(["fern1"], ["assessment"])
    load(base, names, Bucket.COMMON_GROUND, ["assessment(fern1, weird)"])
    ok = base.query(
        TermReader(names).read("modifier-pred(lambda(X, assessment(X, weird)))"), PERSP, Substitution()
    )
    assert len(ok) == 1
    bad = base.query(
        TermReader(names).read("modifier-pred(lambda(X, category(X, creature)))"), PERSP, Substitution()
    )
    assert bad == []


def test_modifier_rel_pred_yields_generic_lambdas():
    base, names = fresh_base(["fern1"], [], ["in", "on"])
    goal = TermReader(names).read("modifier-rel-pred(P)")
    sols = base.query(goal, PERSP, Substitution())
    got = sorted(canon(s.resolve(goal)) for s in sols)
    want = sorted(
        canon(TermReader(names).read(f"modifier-rel-pred(lambda(X, Y, {p}(X, Y)))"))
        for p in ["in", "on"]
    )
    assert got == want
    one = base.query(
        TermReader(names).read("modifier-rel-pred(lambda(X, Y, on(X, Y)))"), PERSP, Substitution()
    )
    assert len(one) == 1


def test_assert_prop_dedups_alpha_equal_items():
    base, names = fresh_base(["fern1"])
    first = TermReader(names).read("plan(user, p1, knowref(system, user, e1, Object))")
    assert base.assert_prop(Bucket.COMMON_GROUND, first)
    renamed = TermReader(names).read("plan(user, p1, knowref(system, user, e1, Other))")
    assert not base.assert_prop(Bucket.COMMON_GROUND, renamed)
    assert len(base.items(Bucket.COMMON_GROUND)) == 1


def test_retract_matching_removes_only_unifying_items():
    base, names = fresh_base(["fern1"])
    load(base, names, Bucket.PRIVATE, ["achieve(p1, g1)", "achieve(p2, g2)", "error(p1, n1)"])
    removed = base.retract_matching(Bucket.PRIVATE, TermReader(names).read("achieve(p1, X)"))
    assert len(removed) == 1
    left = {canon(i) for i in base.items(Bucket.PRIVATE)}
    assert left == {
        canon(TermReader(names).read("achieve(p2, g2)")),
        canon(TermReader(names).read("error(p1, n1)")),
    }
    # retracted items may be asserted again afterwards
    assert base.assert_prop(Bucket.PRIVATE, TermReader(names).read("achieve(p1, g1)"))


def test_retract_matching_reads_only_the_patterns_key_and_rekeys_nothing(monkeypatch):
    objects = [f"thing{i}" for i in range(1, 41)]
    lines = [f"category({o}, creature)" for o in objects]
    lines += [f"size({o}, {'small' if i % 2 else 'large'})" for i, o in enumerate(objects)]
    lines += ["size(thing7, S)", "tint(thing7, red)"]
    base, names = fresh_base(objects, ["size"])
    load(base, names, Bucket.COMMON_GROUND, lines)
    unified, keyed = [], []
    real_unify, real_canon = beliefs.unify, beliefs.canon
    monkeypatch.setattr(beliefs, "unify", lambda *a: unified.append(a) or real_unify(*a))
    monkeypatch.setattr(beliefs, "canon", lambda *a: keyed.append(a) or real_canon(*a))

    removed = base.retract_matching(Bucket.COMMON_GROUND, TermReader(names).read("size(thing7, X)"))
    assert [canon(t) for t in removed] == [
        canon(TermReader(names).read("size(thing7, large)")),
        canon(TermReader(names).read("size(thing7, S)")),
    ]
    assert len(unified) == 2  # the ground fact filed under thing7, and the open one
    assert len(keyed) == len(removed)

    # the store reads as one rebuilt from the kept facts
    monkeypatch.undo()
    kept = [line for line in lines if not line.startswith("size(thing7,")]
    rebuilt, rnames = fresh_base(objects, ["size"])
    load(rebuilt, rnames, Bucket.COMMON_GROUND, kept)
    assert [canon(t) for t in base.items(Bucket.COMMON_GROUND)] == [
        canon(t) for t in rebuilt.items(Bucket.COMMON_GROUND)
    ]
    for fact in ("size(X, Y)", "size(thing7, Y)", "size(thing8, Y)", "tint(X, Y)"):
        query = f"bmb(system, user, {fact})"
        assert answers(base, names, query) == answers(rebuilt, rnames, query)
    # once its last fact is gone, a functor's key answers nothing
    base.retract_matching(Bucket.COMMON_GROUND, TermReader(names).read("tint(X, Y)"))
    assert answers(base, names, "bmb(system, user, tint(X, Y))") == []
    assert base.assert_prop(Bucket.COMMON_GROUND, TermReader(names).read("size(thing7, large)"))


def test_holds_is_alpha_equal_membership():
    base, names = fresh_base(["fern1"])
    load(base, names, Bucket.COMMON_GROUND, ["goal(user, knowref(system, user, e1, Object))"])
    assert base.holds(
        Bucket.COMMON_GROUND, TermReader(names).read("goal(user, knowref(system, user, e1, O))")
    )
    assert not base.holds(
        Bucket.COMMON_GROUND, TermReader(names).read("goal(user, knowref(system, user, e1, o))")
    )
    assert not base.holds(Bucket.PRIVATE, TermReader(names).read("goal(user, knowref(system, user, e1, O))"))
    base.retract_matching(Bucket.COMMON_GROUND, TermReader(names).read("goal(A, G)"))
    assert not base.holds(
        Bucket.COMMON_GROUND, TermReader(names).read("goal(user, knowref(system, user, e1, O))")
    )


# -- the index against a plain scan -----------------------------------------

_VARS = NameSource()
X, Y, Z = (_VARS.fresh_var(n) for n in "XYZ")
FREE = st.sampled_from([X, Y, Z])
PARAM = _VARS.fresh_var("P")
CONSTS = st.sampled_from([Const("a"), Const("b")])
LAMBDAS = st.builds(lambda c: Lam((PARAM,), mk("colour", PARAM, c)), CONSTS)
FUNCTORS = st.sampled_from(["colour", "size"])
# common ground is drawn most often: every query form reads it
BUCKETS = st.sampled_from(
    [Bucket.COMMON_GROUND, Bucket.COMMON_GROUND, Bucket.PRIVATE, Bucket.USER_MODEL]
)


def one_in(n, rare, common):
    """Draw from `rare` about once in n draws, else from `common`."""
    return st.integers(1, n).flatmap(lambda i: rare if i == 1 else common)


def term_args(leaf):
    """Mostly leaves, so that several stored items often fit one pattern."""
    nested = st.one_of(
        LAMBDAS,
        st.builds(lambda x: mk("f", x), leaf),
        st.builds(lambda xs: ListTerm(tuple(xs)), st.lists(leaf, max_size=2)),
    )
    return one_in(4, nested, leaf)


GROUND_ARGS = term_args(CONSTS)
ANY_ARGS = term_args(st.one_of(CONSTS, FREE))


def fact(functor, args, hole, var):
    """A ground fact, or one with a free variable in argument `hole`."""
    return mk(functor, *(var if i == hole else a for i, a in enumerate(args)))


FACTS = one_in(
    10,
    st.just(mk("size")),
    st.builds(
        fact,
        FUNCTORS,
        st.lists(GROUND_ARGS, min_size=1, max_size=2),
        st.sampled_from([None, None, 0, 1]),
        FREE,
    ),
)
PATTERNS = st.builds(
    lambda f, x, xs: Compound(f, (x, *xs)),
    FUNCTORS,
    st.one_of(FREE, CONSTS, LAMBDAS),
    st.lists(ANY_ARGS, max_size=1),
)
OPS = st.one_of(
    st.tuples(st.just("query"), st.sampled_from(["bmb", "system", "user"]), PATTERNS),
    st.tuples(st.just("retract"), BUCKETS, PATTERNS),
    st.tuples(st.just("assert"), BUCKETS, FACTS),
)


class PlainStore:
    """Reference store: every query renames apart and unifies every item, in order."""

    def __init__(self, names):
        self.names = names
        self.buckets = {b: [] for b in Bucket}

    def assert_prop(self, bucket, prop):
        if canon(prop) not in {canon(i) for i in self.buckets[bucket]}:
            self.buckets[bucket].append(prop)

    def scan(self, bucket, pattern):
        out = []
        for item in self.buckets[bucket]:
            s = unify(pattern, rename_apart(item, self.names))
            if s is not None:
                out.append(s)
        return out

    def retract(self, bucket, pattern):
        kept, removed = [], []
        for item in self.buckets[bucket]:
            hit = unify(pattern, rename_apart(item, self.names)) is not None
            (removed if hit else kept).append(item)
        self.buckets[bucket] = kept
        return removed

    def query(self, form, pattern):
        """bmb reads common ground; bel(agent, P) reads the agent's bucket first."""
        if form == "bmb":
            return self.scan(Bucket.COMMON_GROUND, pattern)
        agent, own = (SYSTEM, Bucket.PRIVATE) if form == "system" else (USER, Bucket.USER_MODEL)
        sols = (
            self.scan(own, pattern)
            + self.scan(Bucket.COMMON_GROUND, mk("bel", agent, pattern))
            + self.scan(Bucket.COMMON_GROUND, pattern)
        )
        seen, out = set(), []
        for s in sols:
            key = canon(pattern, s)
            if key not in seen:
                seen.add(key)
                out.append(s)
        return out


def goal_of(form, pattern):
    if form == "bmb":
        return mk("bmb", SYSTEM, USER, pattern)
    return mk("bel", SYSTEM if form == "system" else USER, pattern)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(BUCKETS, FACTS), min_size=4, max_size=30),
    st.lists(OPS, min_size=1, max_size=15),
)
@example(  # a ground item filed after a non-ground one: order must survive the merge
    [(Bucket.COMMON_GROUND, mk("colour", X)), (Bucket.COMMON_GROUND, mk("colour", Const("a")))],
    [("query", "bmb", mk("colour", Y)), ("query", "bmb", mk("colour", Const("a")))],
)
@example(  # non-ground items of two functors, interleaved
    [(Bucket.COMMON_GROUND, mk("size", X)), (Bucket.COMMON_GROUND, mk("colour", Const("b"), Y)),
     (Bucket.COMMON_GROUND, mk("colour", X, Const("a")))],
    [("query", "bmb", mk("colour", Z, Const("a"))), ("query", "bmb", mk("size", Const("b"))),
     ("retract", Bucket.COMMON_GROUND, mk("size", Z)), ("query", "bmb", mk("colour", Z, Y))],
)
def test_indexed_store_matches_a_plain_scan(stored, ops):
    base = BeliefBase(["a", "b", "c"], NameSource(100))
    plain = PlainStore(NameSource(100))
    for op, where, term in [("assert", b, prop) for b, prop in stored] + ops:
        if op == "assert":
            base.assert_prop(where, term)
            plain.assert_prop(where, term)
        elif op == "retract":
            assert base.retract_matching(where, term) == plain.retract(where, term)
            assert base.items(where) == plain.buckets[where]
        else:
            goal = goal_of(where, term)
            got = [canon(goal, s) for s in base.query(goal, PERSP, Substitution())]
            want = [canon(goal, s) for s in plain.query(where, term)]
            assert got == want


def test_constant_first_argument_query_touches_only_its_key(monkeypatch):
    objects = [f"thing{i}" for i in range(1, 41)]
    lines = [f"category({o}, {'creature' if i % 3 else 'lamp'})" for i, o in enumerate(objects)]
    lines += [f"size({o}, {'small' if i % 2 else 'large'})" for i, o in enumerate(objects)]
    lines += [f"assessment({o}, weird)" for o in objects[::5]]
    base, names = fresh_base(objects, ["size", "assessment"])
    load(base, names, Bucket.COMMON_GROUND, lines)

    renamed, unified = [], []
    real_rename, real_unify = beliefs.rename_apart, beliefs.unify
    monkeypatch.setattr(
        beliefs, "rename_apart", lambda t, n: renamed.append(t) or real_rename(t, n)
    )
    monkeypatch.setattr(beliefs, "unify", lambda *a: unified.append(a) or real_unify(*a))

    got = answers(base, names, "bmb(system, user, size(thing7, X))")
    filed = [line for line in lines if line.startswith("size(thing7,")]
    assert got == [canon(TermReader(names).read(f"bmb(system, user, {filed[0]})"))]
    assert renamed == []
    assert len(unified) <= len(filed)

    # an open first argument still reads only the facts of that functor
    unified.clear()
    got = answers(base, names, "bmb(system, user, size(X, large))")
    assert len(got) == 20
    assert renamed == []
    assert len(unified) <= sum(line.startswith("size(") for line in lines)


def test_a_query_renames_only_the_open_facts_of_its_functor(monkeypatch):
    base, names = fresh_base(["a", "b"], ["colour"])
    load(base, names, Bucket.COMMON_GROUND,
         ["size(a, S)", "colour(a, C)", "size(b, T)", "colour(b, red)", "colour(a, D, E)", "size(a, U)"])
    renamed = []
    real_rename = beliefs.rename_apart
    monkeypatch.setattr(beliefs, "rename_apart", lambda t, n: renamed.append(t) or real_rename(t, n))
    sols = base.query(TermReader(names).read("bmb(system, user, colour(X, Y))"), PERSP, Substitution())
    assert len(sols) == 2
    assert [canon(t) for t in renamed] == [canon(TermReader(names).read("colour(a, C)"))]

    # one lambda per distinct value, not one per fact
    load(base, names, Bucket.COMMON_GROUND, ["colour(a, red)", "colour(b, blue)"])
    pred = TermReader(names).read("modifier-pred(P)")
    minted = []
    real_fresh = names.fresh_var
    monkeypatch.setattr(names, "fresh_var", lambda name: minted.append(name) or real_fresh(name))
    assert len(base.query(pred, PERSP, Substitution())) == 3  # C, red and blue
    assert len(minted) == 3

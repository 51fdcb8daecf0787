"""Term layer: reader, unification, substitutions, naming.

The unification tests check the implementation against an independently
written Robinson unifier that applies substitutions eagerly, so the two
can only agree by both being right. A ground-enumeration check over a
small constant universe adds a one-sided soundness angle on top. The
traversals that lambdas complicate (free variables, renaming apart, beta
reduction, printing and reading back) are checked on generated terms with
nested lambdas against small references written here.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabref import (
    Compound,
    Const,
    Lam,
    ListTerm,
    NameSource,
    Substitution,
    TermReader,
    TermSyntaxError,
    Var,
    canon,
    format_term,
    mk,
    read_term,
    unify,
)
from collabref.terms import (
    apply_lambda,
    is_ground,
    rename_apart,
    variables_of,
)

UNIVERSE = [Const("a"), Const("b"), Const("c")]


def random_term(rng: random.Random, vars_pool: list[Var], depth: int = 0):
    """Small random term over shared variables; no lambdas on purpose."""
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        return rng.choice(UNIVERSE)
    if roll < 0.6 and vars_pool:
        return rng.choice(vars_pool)
    if roll < 0.85:
        functor = rng.choice(["f", "g"])
        arity = rng.randint(1, 2)
        return mk(functor, *(random_term(rng, vars_pool, depth + 1) for _ in range(arity)))
    width = rng.randint(0, 2)
    return ListTerm(tuple(random_term(rng, vars_pool, depth + 1) for _ in range(width)))


def ground_under(t, env: dict[int, Const]):
    if isinstance(t, Var):
        return env[t.uid]
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(ground_under(a, env) for a in t.args))
    if isinstance(t, ListTerm):
        return ListTerm(tuple(ground_under(i, env) for i in t.items))
    return t


def robinson_unify(p, q):
    """Reference unifier: eager substitution over an equation stack."""
    env: dict[int, object] = {}

    def apply(t):
        while isinstance(t, Var) and t.uid in env:
            t = env[t.uid]
        if isinstance(t, Compound):
            return Compound(t.functor, tuple(apply(a) for a in t.args))
        if isinstance(t, ListTerm):
            return ListTerm(tuple(apply(i) for i in t.items))
        return t

    def occurs(uid: int, t) -> bool:
        t = apply(t)
        if isinstance(t, Var):
            return t.uid == uid
        if isinstance(t, Compound):
            return any(occurs(uid, a) for a in t.args)
        if isinstance(t, ListTerm):
            return any(occurs(uid, i) for i in t.items)
        return False

    eqs = [(p, q)]
    while eqs:
        a, b = eqs.pop()
        a, b = apply(a), apply(b)
        if a == b:
            continue
        if isinstance(a, Var):
            if occurs(a.uid, b):
                return None
            env[a.uid] = b
            continue
        if isinstance(b, Var):
            if occurs(b.uid, a):
                return None
            env[b.uid] = a
            continue
        if (
            isinstance(a, Compound)
            and isinstance(b, Compound)
            and a.functor == b.functor
            and len(a.args) == len(b.args)
        ):
            eqs.extend(zip(a.args, b.args))
            continue
        if isinstance(a, ListTerm) and isinstance(b, ListTerm) and len(a.items) == len(b.items):
            eqs.extend(zip(a.items, b.items))
            continue
        return None
    return apply


def test_unify_agrees_with_reference_unifier():
    rng = random.Random(411)
    names = NameSource()
    pool = [names.fresh_var(n) for n in ("A", "B", "C")]
    agreements_yes = agreements_no = 0
    for _ in range(300):
        p = random_term(rng, pool)
        q = random_term(rng, pool)
        reference = robinson_unify(p, q)
        s = unify(p, q)
        assert (s is not None) == (reference is not None), f"{format_term(p)} vs {format_term(q)}"
        if s is not None:
            # the unifier must actually make both sides the same term,
            # and most general unifiers agree up to variable renaming
            assert s.resolve(p) == s.resolve(q)
            assert canon(s.resolve(p)) == canon(reference(p))
            agreements_yes += 1
        else:
            agreements_no += 1
    assert agreements_yes > 40 and agreements_no > 40


def test_unify_finds_every_ground_common_instance():
    rng = random.Random(630)
    names = NameSource()
    pool = [names.fresh_var(n) for n in ("A", "B", "C")]
    hits = 0
    for _ in range(300):
        p = random_term(rng, pool)
        q = random_term(rng, pool)
        uids = sorted({v.uid for v in variables_of(p)} | {v.uid for v in variables_of(q)})
        if len(uids) > 3:
            continue
        common = any(
            ground_under(p, dict(zip(uids, values))) == ground_under(q, dict(zip(uids, values)))
            for values in itertools.product(UNIVERSE, repeat=len(uids))
        )
        if common:
            hits += 1
            assert unify(p, q) is not None, f"{format_term(p)} vs {format_term(q)}"
    assert hits > 25


def test_unify_success_is_symmetric():
    rng = random.Random(947)
    names = NameSource()
    pool = [names.fresh_var(n) for n in ("A", "B")]
    for _ in range(200):
        p = random_term(rng, pool)
        q = random_term(rng, pool)
        assert (unify(p, q) is None) == (unify(q, p) is None)


def test_occurs_check_blocks_cyclic_bindings(names):
    x = names.fresh_var("X")
    assert unify(x, mk("f", x)) is None
    assert unify(x, ListTerm((x,))) is None
    assert unify(mk("f", x, x), mk("f", mk("g", x), Const("a"))) is None


def test_unify_threads_existing_bindings(names):
    x, y = names.fresh_var("X"), names.fresh_var("Y")
    s = unify(x, Const("a"))
    assert s is not None
    assert unify(x, Const("b"), s) is None
    s2 = unify(mk("f", x, y), mk("f", Const("a"), Const("b")), s)
    assert s2 is not None and s2.resolve(y) == Const("b")


def test_lambda_unification_is_rigid(names):
    x, y = names.fresh_var("X"), names.fresh_var("Y")
    lam_a = Lam((x,), mk("p", x, Const("a")))
    lam_b = Lam((y,), mk("p", y, Const("a")))
    s = unify(lam_a, lam_b)
    assert s is not None
    lam_c = Lam((y,), mk("q", y, Const("a")))
    assert unify(lam_a, lam_c) is None


def test_apply_lambda_substitutes_positionally(names):
    x = names.fresh_var("X")
    lam = Lam((x,), mk("p", x, x))
    assert apply_lambda(lam, (Const("a"),)) == mk("p", Const("a"), Const("a"))
    with pytest.raises(TermSyntaxError):
        apply_lambda(lam, (Const("a"), Const("b")))


def test_substitution_merge_prefers_other_side(names):
    x = names.fresh_var("X")
    s1 = Substitution().bind(x, Const("a"))
    s2 = Substitution().bind(x, Const("b"))
    assert s1.merge(s2).resolve(x) == Const("b")
    assert s2.merge(s1).resolve(x) == Const("a")


def test_substitution_bind_leaves_original_untouched(names):
    x = names.fresh_var("X")
    empty = Substitution()
    bound = empty.bind(x, Const("a"))
    assert empty.lookup(x) is None
    assert bound.resolve(x) == Const("a")
    assert len(empty) == 0 and len(bound) == 1


def test_resolve_walks_chains(names):
    x, y, z = (names.fresh_var(n) for n in "XYZ")
    s = Substitution().bind(x, y).bind(y, z).bind(z, Const("a"))
    assert s.resolve(mk("f", x)) == mk("f", Const("a"))
    assert s.walk(x) == Const("a")


def test_reader_round_trips_structure(names):
    samples = [
        "f(a, b)",
        "bel(system, goal(user, knowref(system, user, entity1, Object)))",
        "lambda(X, category(X, creature))",
        "lambda(X, Y, on(X, Y))",
        "[a, b, c]",
        "[]",
        "f(A, [g(A), b])",
        "Cand = [Object]",
    ]
    for text in samples:
        first = read_term(text, names)
        again = read_term(format_term(first), names)
        assert canon(first) == canon(again), text


def test_reader_shares_variables_within_one_read(names):
    t = read_term("f(A, g(A), B)", names)
    assert isinstance(t, Compound)
    inner = t.args[1]
    assert isinstance(inner, Compound)
    assert t.args[0] == inner.args[0]
    assert t.args[0] != t.args[2]


def test_reader_gives_each_underscore_its_own_variable(names):
    t = read_term("f(_, _)", names)
    assert isinstance(t, Compound)
    assert isinstance(t.args[0], Var) and isinstance(t.args[1], Var)
    assert t.args[0].uid != t.args[1].uid


def test_separate_readers_do_not_share_variables(names):
    a = TermReader(names).read("f(A)")
    b = TermReader(names).read("f(A)")
    assert canon(a) == canon(b)
    assert variables_of(a)[0].uid != variables_of(b)[0].uid


def test_reader_rejects_malformed_input(names):
    for bad in ["", "f(", "f(a,)", ")", "f(a b)", "[a,", "lambda(a, p(a))"]:
        with pytest.raises(TermSyntaxError):
            read_term(bad, names)


def test_canon_ignores_variable_names(names):
    t = read_term("f(A, g(A), B)", names)
    renamed = rename_apart(t, names)
    assert canon(t) == canon(renamed)
    own = {v.uid for v in variables_of(t)}
    fresh = {v.uid for v in variables_of(renamed)}
    assert own.isdisjoint(fresh)


def test_canon_distinguishes_sharing_patterns(names):
    shared = read_term("f(A, A)", names)
    split = read_term("f(A, B)", names)
    assert canon(shared) != canon(split)
    assert canon(read_term("f(a)", names)) != canon(read_term("f(b)", names))


def test_is_ground_and_variables_of(names):
    assert is_ground(read_term("f(a, [b])", names))
    t = read_term("f(A, g(B, A))", names)
    assert not is_ground(t)
    assert len(variables_of(t)) == 2


def test_name_source_streams_do_not_collide():
    names = NameSource()
    plan = names.plan_name()
    node = names.node_name()
    assert plan.name.startswith("p") and node.name.startswith("n")
    assert plan.name != node.name
    seen = {names.plan_name().name for _ in range(5)}
    assert len(seen) == 5


def test_minting_skips_noted_entities():
    names = NameSource()
    names.note_entity("entity7")
    minted = names.mint_entity()
    assert minted.name.startswith("entity")
    assert int(minted.name.removeprefix("entity")) > 7


def test_format_term_keeps_variable_names(names):
    x = names.fresh_var("Object")
    assert format_term(mk("f", x)) == "f(Object)"


# -- generated terms with nested lambdas -------------------------------------

# One name per variable, so printed text reads back to the same sharing;
# a lambda may rebind a parameter of an enclosing one.
_POOL = NameSource()
LAM_VARS = [_POOL.fresh_var(n) for n in ("X", "Y", "Z", "W")]
LEAVES = st.one_of(st.sampled_from(UNIVERSE[:2]), st.sampled_from(LAM_VARS))
PARAMS = st.lists(st.sampled_from(LAM_VARS), min_size=1, max_size=2, unique=True)


def _lam(params, body):
    return Lam(tuple(params), body)


def _nest(inner):
    return st.one_of(
        st.builds(lambda f, xs: Compound(f, tuple(xs)), st.sampled_from(["f", "g"]),
                  st.lists(inner, min_size=1, max_size=2)),
        st.lists(inner, max_size=2).map(lambda xs: ListTerm(tuple(xs))),
        st.builds(_lam, PARAMS, inner),
    )


TERMS = st.recursive(LEAVES, _nest, max_leaves=12)
LAMBDAS = st.builds(_lam, PARAMS, TERMS)
SHADOWED = _lam(LAM_VARS[:2], mk("f", _lam(LAM_VARS[:1], mk("g", LAM_VARS[0], LAM_VARS[1]))))


def free_vars(t, bound=frozenset()):
    """Reference: free variables in first-occurrence order, repeats kept."""
    if isinstance(t, Var):
        return [] if t.uid in bound else [t]
    if isinstance(t, Lam):
        return free_vars(t.body, bound | {p.uid for p in t.params})
    parts = t.args if isinstance(t, Compound) else t.items if isinstance(t, ListTerm) else ()
    return [v for part in parts for v in free_vars(part, bound)]


def substitute_free(t, env):
    """Reference beta reduction: a lambda's own parameters shadow env."""
    if isinstance(t, Var):
        return env.get(t.uid, t)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(substitute_free(a, env) for a in t.args))
    if isinstance(t, ListTerm):
        return ListTerm(tuple(substitute_free(i, env) for i in t.items))
    if isinstance(t, Lam):
        own = {p.uid for p in t.params}
        return Lam(t.params, substitute_free(t.body, {k: v for k, v in env.items() if k not in own}))
    return t


def all_uids(t):
    if isinstance(t, Var):
        return {t.uid}
    if isinstance(t, Lam):
        return {p.uid for p in t.params} | all_uids(t.body)
    parts = t.args if isinstance(t, Compound) else t.items if isinstance(t, ListTerm) else ()
    return set().union(*(all_uids(p) for p in parts))


TERM_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@TERM_SETTINGS
@given(TERMS)
def test_free_variables_agree_with_the_reference(t):
    expected = list({v.uid: v for v in free_vars(t)}.values())
    assert variables_of(t) == expected
    assert is_ground(t) == (not expected)


@TERM_SETTINGS
@given(TERMS)
def test_rename_apart_keeps_canon_and_frees_only_fresh_variables(t):
    names = NameSource(1000)
    copy = rename_apart(t, names)
    assert canon(copy) == canon(t)
    fresh = [v.uid for v in variables_of(copy)]
    assert len(fresh) == len(variables_of(t))
    assert all(uid >= 1000 for uid in fresh)
    assert all_uids(copy) - set(fresh) <= all_uids(t)


@TERM_SETTINGS
@given(TERMS)
def test_format_then_read_round_trips_up_to_canon(t):
    assert canon(read_term(format_term(t), NameSource())) == canon(t)


@TERM_SETTINGS
@given(LAMBDAS, st.lists(TERMS, min_size=2, max_size=2))
@example(SHADOWED, [Const("a"), Const("b")])
def test_apply_lambda_substitutes_exactly_the_free_parameters(lam, args):
    args = tuple(args[: len(lam.params)])
    env = {p.uid: a for p, a in zip(lam.params, args)}
    assert apply_lambda(lam, args) == substitute_free(lam.body, env)

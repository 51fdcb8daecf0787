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
    unify,
)
from collabref import terms
from collabref.terms import (
    MAX_TERM_DEPTH,
    _tokenize,
    apply_lambda,
    canon_ground,
    is_ground,
    rename_apart,
    variables_of,
)

from conftest import NESTED_KINDS, nested_text
from reader_reference import ReferenceReader
from worldgen import random_world

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
    """Reference unifier: eager substitution over an equation stack.

    Two lambdas of one arity are equal when their bodies are, once the
    parameters of both are replaced by the same new constants; no variable
    may end up bound to a term holding one of those constants. Lambda
    parameters must not occur outside the lambdas that bind them.
    """
    env: dict[int, object] = {}
    rigid: list[Const] = []

    def apply(t):
        while isinstance(t, Var) and t.uid in env:
            t = env[t.uid]
        if isinstance(t, Compound):
            return Compound(t.functor, tuple(apply(a) for a in t.args))
        if isinstance(t, ListTerm):
            return ListTerm(tuple(apply(i) for i in t.items))
        if isinstance(t, Lam):
            return Lam(t.params, apply(t.body))
        return t

    def subterms(t):
        yield t
        parts = t.args if isinstance(t, Compound) else t.items if isinstance(t, ListTerm) else ()
        for part in (t.body,) if isinstance(t, Lam) else parts:
            yield from subterms(part)

    eqs = [(p, q)]
    while eqs:
        a, b = eqs.pop()
        a, b = apply(a), apply(b)
        if a == b:
            continue
        if isinstance(a, Var) or isinstance(b, Var):
            var, other = (a, b) if isinstance(a, Var) else (b, a)
            if any(isinstance(x, Var) and x.uid == var.uid for x in subterms(other)):
                return None
            env[var.uid] = other
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
        if isinstance(a, Lam) and isinstance(b, Lam) and len(a.params) == len(b.params):
            new = [Const(f"#{len(rigid) + i}") for i in range(len(a.params))]
            rigid.extend(new)
            eqs.append((
                substitute_free(a.body, {x.uid: c for x, c in zip(a.params, new)}),
                substitute_free(b.body, {x.uid: c for x, c in zip(b.params, new)}),
            ))
            continue
        return None
    for value in env.values():
        if any(x in rigid for x in subterms(apply(value))):
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


# Free variables and lambda parameters come from separate pools, and a
# parameter occurs only inside a lambda that binds it, as in the engine.
_OPEN = NameSource(500)
FREE_VARS = [_OPEN.fresh_var(n) for n in ("A", "B", "C")]
PARAM_VARS = [_OPEN.fresh_var(n) for n in ("X", "Y")]


@st.composite
def open_terms(draw, scope=(), depth=0):
    """Terms over constants, free variables and the parameters in scope,
    with one- and two-parameter lambdas; an inner lambda may rebind an
    outer one's parameter."""
    if depth == 3 or draw(st.booleans()):
        return draw(st.sampled_from(UNIVERSE[:2] + FREE_VARS + list(scope)))
    kind = draw(st.sampled_from(["f", "g", "list", "lambda", "lambda"]))
    if kind == "lambda":
        params = tuple(draw(st.permutations(PARAM_VARS)))[: draw(st.integers(1, 2))]
        inner = scope + tuple(x for x in params if x not in scope)
        return Lam(params, draw(open_terms(inner, depth + 1)))
    parts = draw(st.lists(open_terms(scope, depth + 1), min_size=int(kind != "list"), max_size=2))
    return ListTerm(tuple(parts)) if kind == "list" else Compound(kind, tuple(parts))


@st.composite
def unify_pairs(draw):
    """An independent pair, or a term and a generalisation of it (some
    subterms, parameter occurrences among them, replaced by free
    variables), the second with its parameters swapped or not."""
    p = draw(open_terms())
    if draw(st.booleans()):
        return p, draw(open_terms())

    def generalise(t):
        if draw(st.integers(0, 4)) == 0:
            return draw(st.sampled_from(FREE_VARS))
        if isinstance(t, Compound):
            return Compound(t.functor, tuple(generalise(a) for a in t.args))
        if isinstance(t, ListTerm):
            return ListTerm(tuple(generalise(i) for i in t.items))
        if isinstance(t, Lam):
            return Lam(t.params, generalise(t.body))
        return t

    q = generalise(p)
    if draw(st.booleans()):
        # swap X and Y: binders too (an alpha-variant), or only occurrences
        x, y = PARAM_VARS
        swapped = rename(q, {x.uid: y, y.uid: x, **{v.uid: v for v in FREE_VARS}}, draw(st.booleans()))
        if scoped(swapped):
            q = swapped
    return (p, q) if draw(st.booleans()) else (q, p)


def scoped(t, scope=frozenset()):
    """Whether every parameter occurs only inside a lambda binding it."""
    if isinstance(t, Var):
        return t not in PARAM_VARS or t.uid in scope
    if isinstance(t, Lam):
        return scoped(t.body, scope | {p.uid for p in t.params})
    parts = t.args if isinstance(t, Compound) else t.items if isinstance(t, ListTerm) else ()
    return all(scoped(part, scope) for part in parts)


def _nested(inner_body):
    x, y = PARAM_VARS
    return Lam((x,), mk("f", Lam((y,), inner_body(x, y))))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(unify_pairs())
@example((_nested(lambda x, y: mk("g", x, y)), _nested(lambda x, y: mk("g", y, x))))
@example((_nested(lambda x, y: mk("g", x, FREE_VARS[0])), _nested(lambda x, y: mk("g", FREE_VARS[0], y))))
def test_unify_agrees_with_the_reference_on_terms_with_lambdas(pair):
    p, q = pair
    reference = robinson_unify(p, q)
    s = unify(p, q)
    assert (s is None) == (reference is None), f"{format_term(p)} vs {format_term(q)}"
    if s is not None:
        # equal up to renaming, lambda parameters included
        assert canon(s.resolve(p)) == canon(s.resolve(q)) == canon(reference(p))


@st.composite
def prebound(draw):
    """An acyclic substitution over the free variables: a variable's value
    holds only variables after it in FREE_VARS. A variable is left free, or
    bound to a later one (chains), to a constant, or to a term, which may be
    a list, a compound or a lambda."""
    m = {}
    for i, v in enumerate(FREE_VARS):
        later = FREE_VARS[i + 1:]
        kind = draw(st.sampled_from(["free", "chain", "const", "term", "term"]))
        if kind == "chain" and later:
            m[v.uid] = draw(st.sampled_from(later))
        elif kind == "const":
            m[v.uid] = draw(st.sampled_from(UNIVERSE))
        elif kind == "term":
            earlier = {u.uid: UNIVERSE[2] for u in FREE_VARS[: i + 1]}
            m[v.uid] = substitute_free(draw(open_terms()), earlier)
    return Substitution(m)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(unify_pairs(), prebound())
def test_unify_under_bindings_agrees_with_the_reference_on_the_resolved_terms(pair, s):
    p, q = pair
    rp, rq = s.resolve(p), s.resolve(q)
    reference = robinson_unify(rp, rq)
    s2 = unify(p, q, s)
    assert (s2 is None) == (reference is None), f"{format_term(rp)} vs {format_term(rq)}"
    if s2 is not None:
        assert canon(s2.resolve(p)) == canon(s2.resolve(q)) == canon(reference(rp))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(open_terms(), prebound())
def test_a_term_unifies_with_itself_under_the_same_substitution(t, s):
    assert unify(t, t, s) is s


def test_resolve_and_unify_make_no_call_on_a_constant(monkeypatch):
    x = _OPEN.fresh_var("X")
    a, b, c = UNIVERSE
    s = Substitution().bind(x, c)
    left, right = mk("f", a, ListTerm((b, c)), x), mk("f", a, ListTerm((b, c)), c)
    calls = {"resolve": 0, "unify": 0}
    real_resolve, real_unify = Substitution.resolve, terms.unify

    def counting_resolve(self, t):
        calls["resolve"] += 1
        return real_resolve(self, t)

    def counting_unify(p, q, s=None):
        calls["unify"] += 1
        return real_unify(p, q, s)

    monkeypatch.setattr(Substitution, "resolve", counting_resolve)
    monkeypatch.setattr(terms, "unify", counting_unify)
    assert s.resolve(left) == right
    assert terms.unify(left, mk("f", a, ListTerm((b, c)), x), Substitution()) is not None
    # the term, its list and its variable; no call for a, b or c
    assert calls == {"resolve": 3, "unify": 3}


def test_a_flat_fact_is_read_without_the_tokenizer_and_keyed_without_the_walk(monkeypatch):
    calls = {"_tokenize": 0, "_parse": 0, "_canon": 0}

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(terms, "_tokenize", counting("_tokenize", terms._tokenize))
    monkeypatch.setattr(TermReader, "_parse", counting("_parse", TermReader._parse))
    monkeypatch.setattr(terms, "_canon", counting("_canon", terms._canon))
    reader = TermReader(NameSource())
    for text in ("size(thing3, large)", "size(thing4, large)", "s-refer(entity1, thing3)"):
        fact = reader.read(text)
        assert canon_ground(fact) == (text.replace(" ", ""), True)
    assert calls == {"_tokenize": 0, "_parse": 0, "_canon": 0}
    # a nested or open term still takes the one general path
    assert canon_ground(reader.read("f(g(a), X)")) == ("f(g(a),?0)", False)
    assert calls["_tokenize"] == 1 and calls["_canon"] > 0


def test_every_worldgen_fact_takes_the_flat_path_and_agrees_with_the_references(monkeypatch):
    """The traffic the flat path serves: each fact line of a seeded world,
    relations included, is read as the reference reader reads it and keyed
    as `canon` and `is_ground` key it, and none of them reaches the tokenizer."""
    rng = random.Random(2711)
    worlds = [random_world(rng, max_objects=8, max_preds=4, max_rels=2) for _ in range(80)]
    assert any(w.relations for w in worlds)
    real_tokenize, tokenized = terms._tokenize, []
    monkeypatch.setattr(terms, "_tokenize", lambda text: tokenized.append(text) or real_tokenize(text))
    for world in worlds:
        lines = world.fact_lines()
        assert read_each(TermReader, lines) == read_each(ReferenceReader, lines)
        reader = TermReader(NameSource())
        for t in map(reader.read, lines):
            assert canon_ground(t) == (canon(t), is_ground(t))
    assert tokenized == []


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


def test_lambda_unification_binds_no_variable_to_a_parameter(names):
    x, y = names.fresh_var("X"), names.fresh_var("Y")
    free = Lam((x,), mk("category", y, Const("c")))
    used = Lam((x,), mk("category", x, Const("c")))
    assert unify(free, used) is None
    assert unify(used, free) is None
    z = names.fresh_var("Z")
    assert unify(Lam((x,), mk("in", x, z)), Lam((y,), mk("in", y, Const("corner1")))).resolve(z) == Const("corner1")
    assert unify(Lam((x,), mk("in", x, z)), Lam((y,), mk("in", y, mk("f", y)))) is None


def test_nested_lambdas_get_their_own_placeholders(names):
    outer_first = TermReader(names).read("lambda(X, f(lambda(Y, g(X, Y))))")
    inner_first = TermReader(names).read("lambda(X, f(lambda(Y, g(Y, X))))")
    assert unify(outer_first, inner_first) is None
    assert unify(outer_first, TermReader(names).read("lambda(Z, f(lambda(W, g(Z, W))))")) is not None


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
    assert empty.resolve(x) == x
    assert bound.resolve(x) == Const("a")
    y = names.fresh_var("Y")
    both = bound.bind(y, Const("b"))
    assert bound.resolve(y) == y and both.resolve(x) == Const("a")


def test_resolve_walks_chains(names):
    x, y, z = (names.fresh_var(n) for n in "XYZ")
    s = Substitution().bind(x, y).bind(y, z).bind(z, Const("a"))
    assert s.resolve(mk("f", x)) == mk("f", Const("a"))
    assert s.walk(x) == Const("a")


def test_walk_stops_on_a_cyclic_chain(names):
    x, y = names.fresh_var("X"), names.fresh_var("Y")
    s = Substitution().bind(x, y).bind(y, x)
    assert s.walk(x) == x
    assert s.walk(y) == y
    assert s.resolve(mk("f", x, y)) == mk("f", x, y)


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
        first = TermReader(names).read(text)
        again = TermReader(names).read(format_term(first))
        assert canon(first) == canon(again), text


def test_reader_shares_variables_within_one_read(names):
    t = TermReader(names).read("f(A, g(A), B)")
    assert isinstance(t, Compound)
    inner = t.args[1]
    assert isinstance(inner, Compound)
    assert t.args[0] == inner.args[0]
    assert t.args[0] != t.args[2]


def test_reader_gives_each_underscore_its_own_variable(names):
    t = TermReader(names).read("f(_, _)")
    assert isinstance(t, Compound)
    assert isinstance(t.args[0], Var) and isinstance(t.args[1], Var)
    assert t.args[0].uid != t.args[1].uid


def test_separate_readers_do_not_share_variables(names):
    a = TermReader(names).read("f(A)")
    b = TermReader(names).read("f(A)")
    assert canon(a) == canon(b)
    assert variables_of(a)[0].uid != variables_of(b)[0].uid


def test_reader_rejects_malformed_input(names):
    for bad in ["", "f(", "f(a,)", ")", "f(a b)", "[a,", "lambda(a, p(a))", "f($p0)", "$p0", "a$"]:
        with pytest.raises(TermSyntaxError):
            TermReader(names).read(bad)


@pytest.mark.parametrize("bad, message", [
    ("[a", "unterminated list"),
    ("[a b]", "expected , or ] but got 'b'"),
    ("[a)", "expected , or ] but got ')'"),
    ("f(a", "unterminated argument list"),
    ("f(a b)", "expected , or ) but got 'b'"),
    ("f(a]", "expected , or ) but got ']'"),
])
def test_reader_names_the_sequence_it_could_not_close(names, bad, message):
    with pytest.raises(TermSyntaxError) as err:
        TermReader(names).read(bad)
    assert str(err.value) == message


def test_canon_ignores_variable_names(names):
    t = TermReader(names).read("f(A, g(A), B)")
    renamed = rename_apart(t, names)
    assert canon(t) == canon(renamed)
    own = {v.uid for v in variables_of(t)}
    fresh = {v.uid for v in variables_of(renamed)}
    assert own.isdisjoint(fresh)


def test_canon_distinguishes_sharing_patterns(names):
    shared = TermReader(names).read("f(A, A)")
    split = TermReader(names).read("f(A, B)")
    assert canon(shared) != canon(split)
    assert canon(TermReader(names).read("f(a)")) != canon(TermReader(names).read("f(b)"))


def test_is_ground_and_variables_of(names):
    assert is_ground(TermReader(names).read("f(a, [b])"))
    t = TermReader(names).read("f(A, g(B, A))")
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
    assert canon(TermReader(NameSource()).read(format_term(t))) == canon(t)


@TERM_SETTINGS
@given(LAMBDAS, st.lists(TERMS, min_size=2, max_size=2))
@example(SHADOWED, [Const("a"), Const("b")])
def test_apply_lambda_substitutes_exactly_the_free_parameters(lam, args):
    args = tuple(args[: len(lam.params)])
    env = {p.uid: a for p, a in zip(lam.params, args)}
    assert apply_lambda(lam, args) == substitute_free(lam.body, env)


# Ground lambdas: constants stand in for the free variables, so only
# parameters are left and unification is alpha-equivalence.
GROUND = st.builds(
    lambda t, consts: substitute_free(t, {v.uid: c for v, c in zip(LAM_VARS, consts)}),
    LAMBDAS,
    st.lists(st.sampled_from(UNIVERSE[:2]), min_size=4, max_size=4),
)


def rename(t, perm, params=True):
    """Rename variable occurrences, and parameters unless told not to."""
    if isinstance(t, Var):
        return perm[t.uid]
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(rename(a, perm, params) for a in t.args))
    if isinstance(t, ListTerm):
        return ListTerm(tuple(rename(i, perm, params) for i in t.items))
    if isinstance(t, Lam):
        ps = tuple(perm[p.uid] for p in t.params) if params else t.params
        return Lam(ps, rename(t.body, perm, params))
    return t


@st.composite
def ground_pairs(draw):
    """An independent pair, an alpha-variant, or a near miss that renames
    occurrences but not the parameters that bind them."""
    a = draw(GROUND)
    kind = draw(st.sampled_from(["other", "variant", "near miss"]))
    if kind == "other":
        return a, draw(GROUND)
    perm = dict(zip((v.uid for v in LAM_VARS), draw(st.permutations(LAM_VARS))))
    return a, rename(a, perm, params=kind == "variant")


@TERM_SETTINGS
@given(ground_pairs())
@example((SHADOWED, _lam(LAM_VARS[:2], mk("f", _lam(LAM_VARS[1:2], mk("g", LAM_VARS[1], LAM_VARS[1]))))))
@example((_lam(LAM_VARS[:1], mk("f", _lam(LAM_VARS[1:2], mk("g", LAM_VARS[0], LAM_VARS[1])))),
          _lam(LAM_VARS[:1], mk("f", _lam(LAM_VARS[1:2], mk("g", LAM_VARS[1], LAM_VARS[0]))))))
def test_ground_terms_unify_exactly_when_alpha_equivalent(pair):
    a, b = pair
    assert (unify(a, b) is not None) == (canon(a) == canon(b))


# -- the resolve kernel ------------------------------------------------------

# Predicate variables may stand in the function position of `apply`; lambda
# parameters never do, so beta reduction always terminates.
PRED_VARS = [_POOL.fresh_var(n) for n in ("P", "Q")]


def _apply(fn, args):
    return Compound("apply", (fn, *args))


def terms_over(data_vars, pred_vars):
    """Terms over the given variables, with `apply` of lambdas and of
    predicate variables mixed in."""
    leaves = st.sampled_from(UNIVERSE[:2])
    if data_vars:
        leaves = st.one_of(leaves, st.sampled_from(data_vars))

    def nest(inner):
        fn = st.sampled_from(pred_vars) if pred_vars else st.nothing()
        options = [
            st.builds(lambda f, xs: Compound(f, tuple(xs)), st.sampled_from(["f", "g"]),
                      st.lists(inner, min_size=1, max_size=2)),
            st.lists(inner, max_size=2).map(lambda xs: ListTerm(tuple(xs))),
        ]
        args = st.lists(inner, min_size=1, max_size=2)
        options.append(st.builds(_apply, fn, args))
        if data_vars:
            params = st.lists(st.sampled_from(data_vars), min_size=1, max_size=2, unique=True)
            lam = st.builds(_lam, params, inner)
            # mostly as many arguments as parameters, so that it reduces
            options += [lam, st.builds(lambda f, xs: _apply(f, xs[: len(f.params)]), lam, args)]
        return st.one_of(options)

    return st.recursive(leaves, nest, max_leaves=8)


def _value(var, later):
    data = [v for v in later if v in LAM_VARS]
    value = terms_over(data, [v for v in later if v in PRED_VARS])
    if var in PRED_VARS and data:
        params = st.lists(st.sampled_from(data), min_size=1, max_size=2, unique=True)
        value = st.builds(_lam, params, value)
    return st.one_of(st.none(), value)


# Acyclic bindings: a variable's value holds only variables after it in
# this order, predicate variables first.
_ORDER = PRED_VARS + LAM_VARS
BINDINGS = st.tuples(*(_value(v, _ORDER[i + 1:]) for i, v in enumerate(_ORDER))).map(
    lambda values: {v.uid: x for v, x in zip(_ORDER, values) if x is not None}
)


def reference_resolve(t, m):
    """Reference: rebuild everything, beta-reducing with substitute_free."""
    while isinstance(t, Var) and t.uid in m:  # the bindings are acyclic
        t = m[t.uid]
    if isinstance(t, Compound):
        args = tuple(reference_resolve(a, m) for a in t.args)
        fn = args[0] if args else None
        if t.functor == "apply" and isinstance(fn, Lam) and len(fn.params) == len(args) - 1:
            env = {p.uid: a for p, a in zip(fn.params, args[1:])}
            return reference_resolve(substitute_free(fn.body, env), m)
        return Compound(t.functor, args)
    if isinstance(t, ListTerm):
        return ListTerm(tuple(reference_resolve(i, m) for i in t.items))
    if isinstance(t, Lam):
        return Lam(t.params, reference_resolve(t.body, m))
    return t


RESOLVE_TERMS = terms_over(LAM_VARS, PRED_VARS)


@TERM_SETTINGS
@given(RESOLVE_TERMS, BINDINGS)
def test_resolve_agrees_with_the_rebuilding_reference(t, m):
    assert Substitution(m).resolve(t) == reference_resolve(t, m)


@TERM_SETTINGS
@given(RESOLVE_TERMS, BINDINGS)
def test_resolve_is_idempotent(t, m):
    s = Substitution(m)
    once = s.resolve(t)
    assert s.resolve(once) == once


@TERM_SETTINGS
@given(TERMS, BINDINGS)
def test_resolve_returns_a_term_it_leaves_unchanged_itself(t, m):
    # resolve does not track lambda binders, so no variable of t is bound,
    # parameters included; TERMS holds no apply
    s = Substitution({uid: v for uid, v in m.items() if uid not in all_uids(t)})
    assert s.resolve(t) is t


# -- the one-walk key and the regex tokenizer --------------------------------

@TERM_SETTINGS
@given(st.one_of(TERMS, RESOLVE_TERMS))
def test_canon_ground_is_canon_and_is_ground_in_one_walk(t):
    assert canon_ground(t) == (canon(t), is_ground(t))


def char_loop_tokenize(text):
    """Reference: the character loop the term reader used to tokenize with."""
    tokens, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()[],=":
            tokens.append(c)
            i += 1
            continue
        if c.isalnum() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            while text[j - 1] == "-":  # a hyphen only joins word characters
                j -= 1
            tokens.append(text[i:j])
            i = j
            continue
        raise TermSyntaxError(f"bad character {c!r} in {text!r}")
    return tokens


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except TermSyntaxError as err:
        return str(err)


# ASCII and other letters and digits (Arabic-Indic three, superscript two,
# Roman numeral twelve), Unicode spaces, hyphens, punctuation, bad characters
TOKEN_CHARS = list("aZ_09-()[],= \t\n") + ["é", "ß", "Ω", "中", "٣", "²", "Ⅻ", "\u00a0", "\u2003",
                                            "\u3000", "$", "'", ".", "·", "\u200b", "\u2010"]
TOKEN_TEXT = st.lists(st.sampled_from(TOKEN_CHARS), max_size=24).map("".join)


@TERM_SETTINGS
@given(TOKEN_TEXT)
@example("s--refer- -x-")
@example("f(s--refer, x-1)")
@example("-a")
@example("a- $")
@example("f(é-ß, Ⅻ²)\u3000=\u00a0X")
def test_regex_tokenizer_agrees_with_the_character_loop(text):
    assert tokens_or_error(_tokenize, text) == tokens_or_error(char_loop_tokenize, text)


# words, anonymous and named variables, hyphens, lambdas, `=`, punctuation
# and the characters of TOKEN_TEXT, loose or around a term nested just
# under, at or just past the depth limit; and the text of generated terms
READER_PIECES = st.sampled_from(
    ["a", "thing3", "s-refer", "a-", "X", "Obj", "_", "_y", "lambda(", "lambda", "f(", " = ", ", "]
    + TOKEN_CHARS
)
LOOSE_TEXT = st.lists(READER_PIECES, max_size=16).map("".join)
DEEP_TEXT = st.builds(
    nested_text,
    st.sampled_from(NESTED_KINDS),
    st.sampled_from([MAX_TERM_DEPTH - 1, MAX_TERM_DEPTH, MAX_TERM_DEPTH + 1]),
)
READER_TEXT = st.one_of(
    LOOSE_TEXT,
    TERMS.map(format_term),
    st.tuples(st.sampled_from(["", "g(", "[b, ", "b = ", "lambda(Y, "]), DEEP_TEXT,
              st.sampled_from(["", ")", "]", " = b", ", c)"])).map("".join),
)


def read_each(reader_class, texts: list[str]) -> list[str]:
    """What one reader makes of each text in turn, then the next variable
    uid its name source would mint."""
    names = NameSource()
    reader = reader_class(names)
    out = []
    for text in texts:
        try:
            out.append(repr(reader.read(text)))
        except TermSyntaxError as err:
            out.append(f"error: {err}")
    return out + [f"next uid {names.fresh_var().uid}"]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.lists(READER_TEXT, min_size=1, max_size=3))
@example(["size(thing3, large)", "size(thing4, large)"])
@example(["f(X, _, [Y, X = a = b], lambda(Z, g(Z, _)))", "h(X, _)"])
@example(["f(a,)", "[a b]", "f(a", "", "a = ", "lambda(a, b)", "s--refer-"])
@example([nested_text(kind, MAX_TERM_DEPTH + extra) for kind in NESTED_KINDS for extra in (0, 1)])
# flat compounds and near misses: nothing may be minted before the reader commits to a path
@example(["s-postpone(_, [])", "f(_, X)"])
@example(["f( a , b )", "f()", "f(a,)", "lambda(X, Y)", "f(a-, b)", "f(a, b) = c"])
@example(["f(a)(b)", "f(a, b))", "f(a,\u3000b)", "f(A, A)", "f(X, $)", "X(a, _, _)"])
def test_reader_agrees_with_the_reference_reader(texts):
    assert read_each(TermReader, texts) == read_each(ReferenceReader, texts)


@pytest.mark.parametrize("kind", NESTED_KINDS)
def test_reader_takes_the_depth_limit_and_refuses_one_level_more(names, kind):
    TermReader(names).read(nested_text(kind, MAX_TERM_DEPTH))
    with pytest.raises(TermSyntaxError, match=f"nested deeper than {MAX_TERM_DEPTH} levels"):
        TermReader(names).read(nested_text(kind, MAX_TERM_DEPTH + 1))

"""Plan trees: yields, covering nodes, bridged unification, node surgery."""

from __future__ import annotations

import random

import pytest

from collabref import (
    Const,
    NoPlanError,
    PlanError,
    Perspective,
    Substitution,
    complete_plan,
    construct,
    evaluate,
    mk,
)
from collabref.beliefs import SYSTEM, USER
from collabref.plans import find_covering_node, substitute_node, unify_bridged
from collabref.schemas import ActionSchema, StepKind
from collabref.terms import ListTerm, TermReader, canon, format_term, unify

import worldgen
from conftest import make_state


def referring_state(rel: bool = False):
    """A system-speaker engine over a small world, optionally relational."""
    if rel:
        ms = make_state(
            ["a1", "a2", "b1", "b2"],
            [
                "category(a1, gadget)",
                "category(a2, gadget)",
                "category(b1, corner)",
                "category(b2, lamp)",
                "in(a1, b1)",
                "in(a2, b2)",
            ],
            rel_preds=["in"],
        )
    else:
        ms = make_state(
            ["a1", "a2", "tv1"],
            [
                "category(a1, creature)",
                "category(a2, creature)",
                "category(tv1, television)",
                "size(a1, small)",
                "size(a2, large)",
            ],
            modifier_preds=["size"],
        )
    ms.ctx.persp = Perspective("system", "user")
    return ms


def build_refer(ms, target: str):
    entity = ms.names.fresh_var("E")
    goal = mk(
        "bel", USER,
        mk("goal", SYSTEM, mk("knowref", USER, SYSTEM, entity, Const(target))),
    )
    return construct(ms.ctx, goal)


def reference_steps(plan):
    """(owner, step, child) for every step of the plan's instances, with a
    child's steps right after the step that opens it, read from the
    instance tuple and the names by two cursors, apart from
    `PlanDerivation.walk`: an instance's action steps take the subtrees
    after it in turn, and every node, primitives included, takes the next
    name."""
    tree, names, out = list(plan.tree), list(plan.names), []

    def visit(t, n):
        owner, node = names[n], tree[t]
        t, n = t + 1, n + 1
        for step in getattr(node, "steps", ()):
            if step.kind is StepKind.ACTION:
                out.append((owner, step, names[n]))
                t, n = visit(t, n)
            elif step.kind is StepKind.PRIMITIVE:
                out.append((owner, step, names[n]))
                n += 1
            else:
                out.append((owner, step, None))
        return t, n

    assert visit(0, 0) == (len(tree), len(names))
    return out


def schemas(plan):
    """The schema of each expanded action node, by name."""
    nodes = [plan.names[0]] + [c for _, step, c in reference_steps(plan) if step.kind is StepKind.ACTION]
    return {n: node.name for n, node in zip(nodes, plan.tree) if isinstance(node, ActionSchema)}


def naive_yield(plan):
    """Reference pre-order leaf walk over the reference steps."""
    return [plan.bindings.resolve(step.term) for _, step, _ in reference_steps(plan)
            if step.kind is StepKind.PRIMITIVE]


def test_constructed_plan_shape_and_yield_order():
    ms = referring_state()
    plan = build_refer(ms, "a1")
    assert plan.unexpanded() == []
    acts = plan.yield_of()
    assert acts == naive_yield(plan)
    rendered = [format_term(a) for a in acts]
    assert rendered[0].startswith("s-refer(")
    assert "category(X, creature)" in rendered[1]
    assert "size(X, small)" in rendered[2]
    assert plan.tree[0].name == "refer"
    # one distinct name per node, a leaf's included
    assert len(set(plan.names)) == len(plan.names) == len(plan.tree) + len(acts)


def test_action_nodes_walk_skips_primitives():
    ms = referring_state()
    plan = build_refer(ms, "a1")
    actions = plan.action_nodes()
    assert plan.names[0] == actions[0]
    assert actions == list(schemas(plan))
    assert {"refer", "describe", "headnoun"} <= set(schemas(plan).values())


def test_walk_puts_a_childs_items_right_after_the_item_naming_it():
    plan = build_refer(referring_state(rel=True), "a1")
    entries = list(plan.walk())
    assert entries[0] == ((), None, plan.names[0], plan.tree[0])
    assert [(path[-1], step, name) for path, step, name, _ in entries[1:]] == reference_steps(plan)
    leaf = next(c for _, step, c in reference_steps(plan) if step.kind is StepKind.PRIMITIVE)
    assert not any(leaf in path for path, *_ in entries)  # a leaf has no steps
    assert plan.yield_of(leaf) == [plan.content_of(leaf)]


def test_find_covering_node_full_single_and_none():
    ms = referring_state(rel=True)
    plan = build_refer(ms, "a1")
    acts = plan.yield_of()
    hit = find_covering_node(plan, acts, plan.bindings)
    assert hit is not None and hit[0] == plan.names[0]
    single = find_covering_node(plan, [acts[1]], plan.bindings)
    assert single is not None
    name, s = single
    assert [canon(s.resolve(a)) for a in plan.yield_of(name)] == [canon(acts[1])]
    ns = ms.names
    foreign = [TermReader(ns).read("s-refer(zz9)")]
    assert find_covering_node(plan, foreign, plan.bindings) is None
    # a span of two leaves from different subtrees has no covering node
    assert find_covering_node(plan, [acts[1], acts[3]], plan.bindings) is None


def covering_node_by_yields(plan, acts, s):
    """Reference: unify the acts with each action node's own yield, and keep
    the one match that no matching descendant lies under."""
    matches = [
        (name, cur) for name in plan.action_nodes()
        if (cur := unify(ListTerm(tuple(acts)), ListTerm(tuple(plan.yield_of(name))), s)) is not None
    ]
    names = {n for n, _ in matches}
    deepest = [(n, sub) for n, sub in matches if not names & descendants(plan, n)]
    return deepest[0] if len(deepest) == 1 else None


@pytest.mark.parametrize("rel, target", [(False, "a1"), (False, "tv1"), (True, "a1"), (True, "a2")])
def test_find_covering_node_agrees_with_a_yield_per_node_on_every_run_of_acts(rel, target):
    plan = build_refer(referring_state(rel), target)
    acts = plan.yield_of()
    found = set()
    for i in range(len(acts) + 1):
        for j in range(i, len(acts) + 1):
            got = find_covering_node(plan, acts[i:j], plan.bindings)
            want = covering_node_by_yields(plan, acts[i:j], plan.bindings)
            assert (got and got[0]) == (want and want[0]), (i, j)
            found.add(got and schemas(plan)[got[0]])
    assert {None, "refer", "headnoun"} <= found, found


def test_unify_bridged_crosses_abstraction(names):
    from collabref import build_library

    lib = build_library(names)
    reader = TermReader(names)
    abstract = reader.read("modifier(E, O, C, N)")
    concrete = lib.get("modifier-absolute").instantiate(names).head
    assert unify_bridged(abstract, concrete, Substitution(), lib) is not None
    from collabref import unify

    assert unify(abstract, concrete) is None
    # sibling concretions never bridge to one another
    other = lib.get("modifier-relative").instantiate(names).head
    assert unify_bridged(concrete, other, Substitution(), lib) is None


def descendants(plan, name):
    """Names of the nodes under a node, from the reference steps."""
    out = set()
    for owner, _, child in reference_steps(plan):
        if child is not None and (owner == name or owner in out):
            out.add(child)
    return out


def repair_replacement(ms, plan, target_node, new_object: str):
    """The shape the engine itself grafts in: old candidates, new object."""
    old = plan.content_of(target_node)
    return mk("modifier", old.args[0], Const(new_object), old.args[2], ms.names.fresh_var("N"))


def test_substitute_node_rebuilds_without_leaking_old_bindings():
    ms = referring_state()
    plan = build_refer(ms, "a1")
    target_node = next(n for n, schema in schemas(plan).items() if schema == "modifier-absolute")
    replacement = repair_replacement(ms, plan, target_node, "a2")
    fresh, s = substitute_node(plan, target_node, replacement, ms.ctx.library, ms.names)
    assert fresh.id != plan.id
    assert fresh.unexpanded() == [target_node]
    # the hole loses its old subtree; everything else keeps its name
    assert set(fresh.names) == set(plan.names) - descendants(plan, target_node)
    # the original plan is untouched
    assert plan.unexpanded() == []
    # the substituted hole now talks about the new object
    hole = fresh.content_of(target_node)
    assert "a2" in format_term(hole)
    # the surface entity of the opening act carries over
    old_refer = format_term(plan.yield_of()[0])
    new_refer = format_term(fresh.yield_of()[0])
    assert old_refer == new_refer


def test_substitute_then_complete_describes_the_new_object():
    ms = referring_state()
    plan = build_refer(ms, "a1")
    target_node = next(n for n, schema in schemas(plan).items() if schema == "modifier-absolute")
    replacement = repair_replacement(ms, plan, target_node, "a2")
    fresh, _ = substitute_node(plan, target_node, replacement, ms.ctx.library, ms.names)
    ms.ctx.register(fresh)
    completed, added = complete_plan(fresh, ms.ctx)
    assert completed.unexpanded() == []
    assert added, "completion must contribute new surface acts"
    assert any("size(X, large)" in format_term(a) for a in added)
    verdict = evaluate(completed, ms.ctx)
    assert verdict.valid


def test_substitute_node_rejects_a_misfit_replacement():
    ms = referring_state()
    plan = build_refer(ms, "a1")
    target_node = next(n for n, schema in schemas(plan).items() if schema == "modifier-absolute")
    reader = TermReader(ms.names)
    with pytest.raises(PlanError):
        substitute_node(plan, target_node, reader.read("headnoun(A, B, C)"), ms.ctx.library, ms.names)


def test_content_of_unknown_node_raises():
    ms = referring_state()
    plan = build_refer(ms, "a1")
    with pytest.raises(PlanError):
        plan.content_of("n999999")


def node_kinds(plan):
    """Each node's schema, or "primitive" for a leaf, by name."""
    kinds = {c: "primitive" for _, step, c in reference_steps(plan) if step.kind is StepKind.PRIMITIVE}
    return {**kinds, **schemas(plan)}


def test_substitution_keeps_every_other_name_on_random_worlds():
    """Each modifier node of a constructed plan, in turn, is replaced by an
    open node that must still lead to the same candidates, and the plan is
    completed. Every node outside the old subtree keeps its name, its kind
    and its place in the walk; the new subtree's names are minted in walk
    order right after the open node's; and the completed plan holds."""
    rng = random.Random(20261020)
    replaced = relational = 0
    for trial in range(80):
        world = worldgen.random_world(rng, max_preds=1 + 3 * (trial % 2), max_rels=2)
        ms = make_state(world.objects, world.fact_lines(), modifier_preds=world.preds(),
                        rel_preds=world.rel_preds())
        ms.ctx.persp = Perspective("system", "user")
        try:
            plan = build_refer(ms, rng.choice(world.objects))
        except NoPlanError:
            continue
        for target, schema in schemas(plan).items():
            if schema not in ms.ctx.library.concrete("modifier"):
                continue
            old = plan.content_of(target)
            fresh, _ = substitute_node(plan, target, mk("modifier", *old.args), ms.ctx.library, ms.names)
            kept = [n for n in plan.names if n not in descendants(plan, target)]
            assert list(fresh.names) == kept and fresh.unexpanded() == [target], (trial, target)
            ms.ctx.register(fresh)
            completed, _ = complete_plan(fresh, ms.ctx)
            at = kept.index(target) + 1
            new = list(completed.names[at:len(completed.names) - len(kept) + at])
            assert list(completed.names) == kept[:at] + new + kept[at:], (trial, target)
            before, after = node_kinds(plan), node_kinds(completed)
            assert all(after[n] == before[n] for n in kept if n != target), (trial, target)
            numbers = [int(n[1:]) for n in new]
            assert numbers == list(range(int(fresh.id[1:]) + 1, int(fresh.id[1:]) + 1 + len(new)))
            assert evaluate(completed, ms.ctx).valid, (trial, target)
            replaced += 1
            relational += schema == "modifier-relative"
    assert replaced >= 40 and relational >= 3, (replaced, relational)

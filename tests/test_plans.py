"""Plan trees: yields, covering nodes, bridged unification, node surgery."""

from __future__ import annotations

import dataclasses

import pytest

from collabref import (
    Const,
    PlanError,
    Perspective,
    Substitution,
    complete_plan,
    construct,
    evaluate,
    mk,
)
from collabref.beliefs import SYSTEM, USER
from collabref.plans import ItemKind, find_covering_node, substitute_node, unify_bridged
from collabref.terms import TermReader, canon, format_term, read_term

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


def naive_yield(plan):
    """Reference pre-order leaf walk written against the node records."""
    acts = []

    def walk(name):
        rec = plan.nodes[name]
        if rec.primitive:
            acts.append(plan.bindings.resolve(rec.content))
            return
        for item in rec.items:
            if item.kind is ItemKind.CHILD:
                walk(item.child)

    walk(plan.root)
    return acts


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
    assert plan.node(plan.root).schema == "refer"
    assert set(plan.yield_node_names()) <= set(plan.nodes)


def test_action_nodes_walk_skips_primitives():
    ms = referring_state()
    plan = build_refer(ms, "a1")
    actions = plan.action_nodes()
    assert plan.root == actions[0]
    assert all(not plan.node(n).primitive for n in actions)
    schemas = {plan.node(n).schema for n in actions}
    assert {"refer", "describe", "headnoun"} <= schemas


def test_walk_puts_a_childs_items_right_after_the_item_naming_it():
    plan = build_refer(referring_state(rel=True), "a1")
    expected = []

    def visit(name):
        for item in plan.nodes[name].items:
            expected.append((name, item))
            if item.kind is ItemKind.CHILD:
                visit(item.child)

    visit(plan.root)
    assert list(plan.walk()) == expected
    leaf = plan.yield_node_names()[0]
    assert list(plan.walk(leaf)) == []
    assert plan.yield_of(leaf) == [plan.content_of(leaf)]


def test_substitute_node_rejects_a_node_whose_children_no_longer_fit_its_schema():
    ms = referring_state()
    plan = build_refer(ms, "a1")
    by_schema = {plan.node(n).schema: n for n in plan.action_nodes()}
    describe = plan.nodes[by_schema["describe"]]
    plan.nodes[describe.name] = dataclasses.replace(describe, items=describe.items[:-1])
    head = by_schema["headnoun"]
    with pytest.raises(PlanError, match="child count changed"):
        substitute_node(plan, head, plan.content_of(head), ms.ctx.library, ms.names)


def test_find_covering_node_full_single_and_none():
    ms = referring_state(rel=True)
    plan = build_refer(ms, "a1")
    acts = plan.yield_of()
    hit = find_covering_node(plan, acts, plan.bindings)
    assert hit is not None and hit[0] == plan.root
    single = find_covering_node(plan, [acts[1]], plan.bindings)
    assert single is not None
    name, s = single
    assert [canon(s.resolve(a)) for a in plan.yield_of(name)] == [canon(acts[1])]
    ns = ms.names
    foreign = [read_term("s-refer(zz9)", ns)]
    assert find_covering_node(plan, foreign, plan.bindings) is None
    # a span of two leaves from different subtrees has no covering node
    assert find_covering_node(plan, [acts[1], acts[3]], plan.bindings) is None


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
    out = set()

    def walk(n):
        for item in plan.node(n).items:
            if item.kind is ItemKind.CHILD:
                out.add(item.child)
                walk(item.child)

    walk(name)
    return out


def repair_replacement(ms, plan, target_node, new_object: str):
    """The shape the engine itself grafts in: old candidates, new object."""
    old = plan.content_of(target_node)
    return mk("modifier", old.args[0], Const(new_object), old.args[2], ms.names.fresh_var("N"))


def test_substitute_node_rebuilds_without_leaking_old_bindings():
    ms = referring_state()
    plan = build_refer(ms, "a1")
    target_node = next(
        n for n in plan.action_nodes() if plan.node(n).schema == "modifier-absolute"
    )
    replacement = repair_replacement(ms, plan, target_node, "a2")
    fresh, s = substitute_node(plan, target_node, replacement, ms.ctx.library, ms.names)
    assert fresh.id != plan.id
    assert fresh.unexpanded() == [target_node]
    # the hole loses its old subtree; everything else keeps its name
    assert set(fresh.nodes) == set(plan.nodes) - descendants(plan, target_node)
    # the original plan is untouched
    assert plan.unexpanded() == []
    # the substituted hole now talks about the new object
    hole = fresh.bindings.resolve(fresh.node(target_node).content)
    assert "a2" in format_term(hole)
    # the surface entity of the opening act carries over
    old_refer = format_term(plan.yield_of()[0])
    new_refer = format_term(fresh.bindings.resolve(fresh.node(fresh.yield_node_names()[0]).content))
    assert old_refer == new_refer


def test_substitute_then_complete_describes_the_new_object():
    ms = referring_state()
    plan = build_refer(ms, "a1")
    target_node = next(
        n for n in plan.action_nodes() if plan.node(n).schema == "modifier-absolute"
    )
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
    target_node = next(
        n for n in plan.action_nodes() if plan.node(n).schema == "modifier-absolute"
    )
    reader = TermReader(ms.names)
    with pytest.raises(PlanError):
        substitute_node(plan, target_node, reader.read("headnoun(A, B, C)"), ms.ctx.library, ms.names)


def test_content_of_unknown_node_raises():
    ms = referring_state()
    plan = build_refer(ms, "a1")
    with pytest.raises(PlanError):
        plan.node("n999999")

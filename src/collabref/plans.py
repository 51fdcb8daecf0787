"""Plan derivations: trees of action nodes over surface primitives.

A derivation is a registry-owned record: named nodes, a root, and the
substitution that accumulated while the plan was built or recognized.
Node names are only meaningful inside their own plan. Plans are referred
to from belief propositions by their id constant (p7, p31, ...), so the
registry is the bridge between the belief world and plan structure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .errors import PlanError
from .schemas import SchemaLibrary, Step, StepKind
from .terms import (
    Compound,
    Const,
    ListTerm,
    NameSource,
    Substitution,
    Term,
    format_term,
    unify,
)


class ItemKind(enum.Enum):
    CONSTRAINT = "constraint"
    MENTAL = "mental"
    CHILD = "child"


@dataclass(frozen=True)
class Item:
    kind: ItemKind
    term: Term | None = None
    child: str | None = None


@dataclass
class NodeRecord:
    """A plan node. An action node with no items is still open: every
    concrete schema has a step, so an expanded node always has some."""

    name: str
    schema: str
    content: Term
    items: tuple[Item, ...] = ()

    @property
    def primitive(self) -> bool:
        return self.schema == "primitive"


@dataclass
class PlanDerivation:
    id: str
    root: str
    nodes: dict[str, NodeRecord]
    bindings: Substitution
    root_effect: Term | None = None

    def node(self, name: str) -> NodeRecord:
        try:
            return self.nodes[name]
        except KeyError:
            raise PlanError(f"plan {self.id} has no node {name}") from None

    def content_of(self, name: str) -> Term:
        return self.bindings.resolve(self.node(name).content)

    def walk(self, name: str | None = None) -> list[tuple[str, Item]]:
        """(owner, item) for every item under a node, in step order; a
        child's items come right after the item that names that child."""
        out: list[tuple[str, Item]] = []

        def visit(owner: str) -> None:
            for item in self.nodes[owner].items:
                out.append((owner, item))
                if item.kind is ItemKind.CHILD:
                    visit(item.child)

        visit(name or self.root)
        return out

    def action_nodes(self) -> list[str]:
        """Non-primitive node names, pre-order."""
        return [self.root] + [
            i.child for _, i in self.walk() if i.kind is ItemKind.CHILD and not self.nodes[i.child].primitive
        ]

    def yield_node_names(self, name: str | None = None) -> list[str]:
        """Names of primitive leaves under a node, in utterance order."""
        if name is not None and self.nodes[name].primitive:
            return [name]
        return [
            i.child for _, i in self.walk(name) if i.kind is ItemKind.CHILD and self.nodes[i.child].primitive
        ]

    def yield_of(self, name: str | None = None) -> list[Term]:
        return [self.content_of(n) for n in self.yield_node_names(name)]

    def unexpanded(self) -> list[str]:
        return [n for n, rec in self.nodes.items() if not rec.primitive and not rec.items]


def unify_bridged(
    a: Term, b: Term, s: Substitution, library: SchemaLibrary
) -> Substitution | None:
    """Unify, letting an abstract action head stand for any specialization.

    modifier(...) unifies with modifier-relative(...) positionally; the
    abstract side is treated as if it had the concrete side's functor.
    Only one bridging step is allowed (abstract families are one level deep).
    """
    s2 = unify(a, b, s)
    if s2 is not None:
        return s2
    ra, rb = s.walk(a), s.walk(b)
    if isinstance(ra, Compound) and isinstance(rb, Compound) and len(ra.args) == len(rb.args):
        fa, fb = ra.functor, rb.functor
        if library.is_abstract(fa) and library.parent_of(fb) == fa:
            return unify(Compound(fb, ra.args), rb, s)
        if library.is_abstract(fb) and library.parent_of(fa) == fb:
            return unify(ra, Compound(fa, rb.args), s)
    return None


def find_covering_node(
    plan: PlanDerivation, acts: list[Term], s: Substitution
) -> tuple[str, Substitution] | None:
    """The deepest action node whose yield matches the given acts in order.

    Matching unifies the two act lists, so the caller's acts may contain
    variables. Returns None when no node matches or when two incomparable
    nodes do.
    """
    wanted = ListTerm(tuple(acts))
    matches: list[tuple[str, Substitution]] = []
    for name in plan.action_nodes():
        cur = unify(wanted, ListTerm(tuple(plan.yield_of(name))), s)
        if cur is not None:
            matches.append((name, cur))
    # keep only matches with no matching descendant
    names = {n for n, _ in matches}
    deepest = [
        (name, sub) for name, sub in matches
        if not any(i.kind is ItemKind.CHILD and i.child in names for _, i in plan.walk(name))
    ]
    if len(deepest) != 1:
        return None
    return deepest[0]


def items_of(steps: tuple[Step, ...], child: Callable[[Step], str]) -> tuple[Item, ...]:
    """A schema's steps as plan items. child(step) names the node of each
    primitive or action step; it is called once for each, in step order."""
    return tuple([
        Item(ItemKind.CONSTRAINT, term=st.term) if st.kind is StepKind.CONSTRAINT
        else Item(ItemKind.MENTAL, term=st.term) if st.kind is StepKind.MENTAL
        else Item(ItemKind.CHILD, child=child(st))
        for st in steps
    ])


_NODE_STEPS = (StepKind.PRIMITIVE, StepKind.ACTION)


def substitute_node(
    plan: PlanDerivation,
    target: str,
    replacement: Term,
    library: SchemaLibrary,
    names: NameSource,
) -> tuple[PlanDerivation, Substitution]:
    """A copy of the plan with one action node swapped for an unexpanded one.

    The copy is rebuilt from fresh schema instances so no stale bindings
    leak in; kept primitives are pinned by unifying the fresh instance
    against the old node's fully resolved content. Kept nodes keep their
    names, which keeps node references in older beliefs meaningful across
    the family of plans. The target node's content unifies (bridged) with
    the replacement, and its old subtree is dropped.
    """
    if target not in plan.nodes or plan.nodes[target].primitive:
        raise PlanError(f"cannot replace node {target} of plan {plan.id}")
    new_nodes: dict[str, NodeRecord] = {}
    s = Substitution()
    root_effect: Term | None = None

    def rebuild(old_name: str, expected: Term | None) -> str:
        nonlocal s, root_effect
        old = plan.nodes[old_name]
        if old_name == target:
            assert expected is not None
            s2 = unify_bridged(expected, replacement, s, library)
            if s2 is None:
                raise PlanError(
                    f"replacement {format_term(replacement)} does not fit slot of {target}"
                )
            s = s2
            new_nodes[old_name] = NodeRecord(old_name, _functor_of(s.resolve(replacement)), replacement)
            return old_name
        if old.primitive:
            assert expected is not None
            s2 = unify(expected, plan.content_of(old_name), s)
            if s2 is None:
                raise PlanError(f"primitive {old_name} no longer fits during rebuild")
            s = s2
            new_nodes[old_name] = NodeRecord(old_name, old.schema, expected)
            return old_name
        schema = library.get(old.schema).instantiate(names)
        if expected is not None:
            s2 = unify_bridged(expected, schema.head, s, library)
            if s2 is None:
                raise PlanError(f"schema {old.schema} no longer fits during rebuild")
            s = s2
        if old_name == plan.root:
            root_effect = schema.effect
        kids = [i.child for i in old.items if i.kind is ItemKind.CHILD]
        if len(kids) != sum(st.kind in _NODE_STEPS for st in schema.steps):
            raise PlanError(f"node {old_name} child count changed during rebuild")
        kept = iter(kids)
        items = items_of(schema.steps, lambda step: rebuild(next(kept), step.term))
        new_nodes[old_name] = NodeRecord(old_name, old.schema, schema.head, items)
        return old_name

    rebuild(plan.root, None)
    new_plan = PlanDerivation(names.plan_name().name, plan.root, new_nodes, s, root_effect)
    return new_plan, s


def _functor_of(t: Term) -> str:
    if isinstance(t, Compound):
        return t.functor
    if isinstance(t, Const):
        return t.name
    raise PlanError(f"expected an action term, got {t!r}")

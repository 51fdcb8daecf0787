"""Plan derivations: trees of action nodes over surface primitives.

A derivation is a registry-owned record: a tree, the names of its nodes,
and the substitution that accumulated while the plan was built or
recognized. Node names are only meaningful inside their own plan. Plans
are referred to from belief propositions by their id constant (p7, p31,
...), so the registry is the bridge between the belief world and plan
structure.

The tree is the one the parse and the search build: the schema instances
in pre-order, each instance's action steps taking the subtrees after it,
in step order, and an open node held as its content. A primitive has no
entry of its own; it is its step. The names cover every node, primitives
included, in walk order. One walk reads both, and every question about a
plan's shape is asked of it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import PlanError
from .schemas import ActionSchema, SchemaLibrary, Step, StepKind
from .terms import Compound, ListTerm, NameSource, Substitution, Term, unify

# A walk entry: (path, step, name, node). See `walk`.
Entry = tuple[tuple[str, ...], Step | None, str | None, "ActionSchema | Term | None"]


def walk(tree: Iterable, names: Iterable[str]) -> Iterator[Entry]:
    """Every node of a pre-order tree and every step of its instances, in
    step order: a node comes right after the step that opens it, and its
    steps right after it. An entry is (path, step, name, node): the names
    of the action nodes above it, root first; the step of the last of them
    it is for (None for the root); the name of the node the step opens
    (None for a constraint or mental step); and an action node's tree
    entry (None for a step or a primitive). The tree is read as the walk
    reaches each entry."""
    tree, names = iter(tree), iter(names)

    def visit(path: tuple[str, ...], step: Step | None, node) -> Iterator[Entry]:
        name = next(names)
        yield path, step, name, node
        if type(node) is ActionSchema:
            path += (name,)
            for st in node.steps:
                if st.kind is StepKind.ACTION:
                    yield from visit(path, st, next(tree))
                else:
                    yield path, st, next(names) if st.kind is StepKind.PRIMITIVE else None, None

    return visit((), None, next(tree))


def node_content(node) -> Term:
    """An action node's content: its instance's head, or what it holds while open."""
    return node.head if type(node) is ActionSchema else node


@dataclass
class PlanDerivation:
    id: str
    tree: tuple
    names: tuple[str, ...]
    bindings: Substitution
    root_effect: Term | None = None

    @property
    def root(self) -> str:
        return self.names[0]

    def walk(self) -> Iterator[Entry]:
        return walk(self.tree, self.names)

    def content_of(self, name: str) -> Term:
        for _, step, n, node in self.walk():
            if n == name:
                return self.bindings.resolve(step.term if node is None else node_content(node))
        raise PlanError(f"plan {self.id} has no node {name}")

    def action_nodes(self) -> list[str]:
        """Non-primitive node names, pre-order."""
        return [n for _, _, n, node in self.walk() if node is not None]

    def yield_of(self, name: str | None = None) -> list[Term]:
        """The surface acts under a node, or the whole plan's, in utterance order."""
        return [
            self.bindings.resolve(step.term) for path, step, n, node in self.walk()
            if node is None and n is not None and (name is None or name == n or name in path)
        ]

    def unexpanded(self) -> list[str]:
        return [n for _, _, n, node in self.walk() if node is not None and type(node) is not ActionSchema]


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
        if fb in library.specializations.get(fa, ()):
            return unify(Compound(fb, ra.args), rb, s)
        if fa in library.specializations.get(fb, ()):
            return unify(ra, Compound(fa, rb.args), s)
    return None


def find_covering_node(
    plan: PlanDerivation, acts: list[Term], s: Substitution
) -> tuple[str, Substitution] | None:
    """The deepest action node whose yield matches the given acts in order.

    Matching unifies the two act lists, so the caller's acts may contain
    variables. Returns None when no node matches or when two incomparable
    nodes do. One walk lists the surface acts in utterance order and the
    action nodes in pre-order, each with the action nodes above it.
    """
    leaves: list[tuple[tuple[str, ...], Term]] = []
    actions: list[tuple[tuple[str, ...], str]] = []
    for path, step, name, node in plan.walk():
        if node is not None:
            actions.append((path, name))
        elif name is not None:
            leaves.append((path, plan.bindings.resolve(step.term)))
    wanted = ListTerm(tuple(acts))
    matches: list[tuple[tuple[str, ...], str, Substitution]] = []
    for path, name in actions:
        under = [act for above, act in leaves if name in above]
        cur = unify(wanted, ListTerm(tuple(under)), s) if len(under) == len(acts) else None
        if cur is not None:
            matches.append((path, name, cur))
    # keep only the matches that no other match lies under
    deepest = [(name, sub) for _, name, sub in matches if not any(name in above for above, _, _ in matches)]
    if len(deepest) != 1:
        return None
    return deepest[0]


def substitute_node(
    plan: PlanDerivation,
    target: str,
    replacement: Term,
    library: SchemaLibrary,
    names: NameSource,
) -> tuple[PlanDerivation, Substitution]:
    """A copy of the plan with one action node swapped for an open one.

    The target's subtree is cut and the replacement is put in its place,
    as the open node's content. Every other node keeps its name, which
    keeps node references in older beliefs meaningful across the family of
    plans. The copy is bound afresh, so no stale bindings leak in: along
    the tree, each kept instance is copied again and its head unifies
    (bridged) with its parent's step, the replacement with the target's,
    and each kept primitive is pinned to the old node's fully resolved
    content.
    """
    tree, kept, said = [], [], {}
    for path, step, name, node in plan.walk():
        if name is None or target in path:
            continue
        kept.append(name)
        if node is None:
            said[name] = step.term
        else:
            tree.append(replacement if name == target else node)
    if target not in kept[1:] or target in said:
        raise PlanError(f"cannot replace node {target} of plan {plan.id}")
    fresh = (library.get(node.name).instantiate(names) if type(node) is ActionSchema else node for node in tree)
    s, new_tree = Substitution(), []
    for path, step, name, node in walk(fresh, kept):
        if name is None:
            continue
        if node is None:
            s2 = unify(step.term, plan.bindings.resolve(said[name]), s)
        else:
            new_tree.append(node)
            s2 = unify_bridged(step.term, node_content(node), s, library) if path else s
        if s2 is None:
            raise PlanError(f"node {name} no longer fits its slot in plan {plan.id}")
        s = s2
    new_plan = PlanDerivation(names.plan_name().name, tuple(new_tree), tuple(kept), s, new_tree[0].effect)
    return new_plan, s

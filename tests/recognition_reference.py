"""The reference recognizer: the earlier top-down parse over reordered turns.

Each category attribution of an entity is moved in turn to sit right after
the entity's `s-refer` (one reordering per choice of head noun for every
entity), each reordering is parsed from the start with every action taking
a prefix of its span, and parses of a shape already seen are dropped. Its
cost multiplies over entities, so it is only run on short turns, as the
oracle that `planner.infer`, which picks each head noun inside its
entity's span, must agree with on well-formed turns.
"""

from __future__ import annotations

import itertools

from collabref.planner import (
    InferenceResult,
    PlannerContext,
    Verdict,
    _parse_signature,
    judge_parses,
)
from collabref.plans import unify_bridged
from collabref.schemas import ActionSchema, StepKind
from collabref.terms import Compound, Lam, Substitution, Term, canon, unify


def canonical_orders(acts: list[Term]) -> list[list[Term]]:
    """Orderings of a description with each category attribution moved to
    sit directly after its entity's introducing act, one per choice of
    noun act per entity, keeping everything else stable."""
    refer_pos: dict[str, int] = {}
    for i, act in enumerate(acts):
        if isinstance(act, Compound) and act.functor == "s-refer":
            refer_pos.setdefault(canon(act.args[0]), i)
    noun_acts: dict[str, list[int]] = {}
    for i, act in enumerate(acts):
        if not (isinstance(act, Compound) and act.functor == "s-attrib"):
            continue
        pred = act.args[1]
        if not (isinstance(pred, Lam) and len(pred.params) == 1):
            continue
        if isinstance(pred.body, Compound) and pred.body.functor == "category":
            key = canon(act.args[0])
            if key in refer_pos:
                noun_acts.setdefault(key, []).append(i)
    if not noun_acts:
        return [list(acts)]
    entity_keys = sorted(noun_acts, key=lambda k: refer_pos[k])
    picks = [noun_acts[k] for k in entity_keys]
    orders: list[list[Term]] = []
    seen: set[tuple[str, ...]] = set()
    for combo in itertools.product(*picks):
        chosen = dict(zip(entity_keys, combo))
        out: list[Term] = []
        moved = set(chosen.values())
        for i, act in enumerate(acts):
            if i in moved:
                continue
            out.append(act)
            if isinstance(act, Compound) and act.functor == "s-refer":
                key = canon(act.args[0])
                if key in chosen:
                    out.append(acts[chosen[key]])
        sig = tuple(canon(a) for a in out)
        if sig not in seen:
            seen.add(sig)
            orders.append(out)
    return orders


def _match_steps(instance, i, span, s, ctx):
    """(subtrees, substitution) pairs deriving exactly this span from the
    instance's steps i onwards, as one pre-order tuple of schema instances,
    every action taking a prefix."""
    steps, least, most = instance.steps, ctx.library.least_from, ctx.library.most_from
    if not least[instance.name][i] <= len(span) <= most[instance.name][i]:
        return
    if i == len(steps):
        if not span:
            yield (), s
        return
    head = steps[i]
    if head.kind in (StepKind.CONSTRAINT, StepKind.MENTAL):
        yield from _match_steps(instance, i + 1, span, s, ctx)
        return
    if head.kind is StepKind.PRIMITIVE:
        if span:
            s2 = unify(head.term, span[0], s)
            if s2 is not None:
                yield from _match_steps(instance, i + 1, span[1:], s2, ctx)
        return
    expected = s.resolve(head.term)
    if not isinstance(expected, Compound):
        return
    rest_least, rest_most = least[instance.name][i + 1], most[instance.name][i + 1]
    for take, tree, s3 in _derive(expected, span, s, ctx, rest_least, rest_most):
        for others, s4 in _match_steps(instance, i + 1, span[take:], s3, ctx):
            yield tree + others, s4


def _derive(expected, span, s, ctx, rest_least, rest_most):
    least, most = ctx.library.least_from, ctx.library.most_from
    for choice in ctx.library.concrete(expected.functor):
        fewest, most_child = (least[choice][0], most[choice][0]) if choice in least else (0, len(span))
        lo, hi = max(fewest, len(span) - rest_most), min(most_child, len(span) - rest_least)
        if lo > hi:
            continue
        child = ctx.library.get(choice).instantiate(ctx.names)
        s2 = unify_bridged(expected, child.head, s, ctx.library)
        if s2 is None:
            continue
        for take in range(lo, hi + 1):
            for kids, s3 in _match_steps(child, 0, span[:take], s2, ctx):
                yield take, (child,) + kids, s3


def parse_with_root(root_schema: str, acts: list[Term], ctx: PlannerContext):
    instance = ctx.library.get(root_schema).instantiate(ctx.names)
    for kids, s in _match_steps(instance, 0, acts, Substitution(), ctx):
        yield (instance,) + kids, s


def infer(ctx: PlannerContext, acts: list[Term]) -> InferenceResult:
    """`planner.infer` as it read before each head noun was chosen inside
    its entity's span: every canonical ordering is parsed, and a parse of a
    shape already seen is dropped. The parses are committed and judged as
    `infer` commits and judges its own."""
    if not all(ctx.library.is_surface_act(act) for act in acts):
        return InferenceResult(Verdict.NO_DERIVATION)
    roots = ctx.library.meta_roots
    meta = any(a.functor in roots for a in acts)
    if meta and len(acts) != 1:
        return InferenceResult(Verdict.NO_DERIVATION)
    readings = (
        [(root, acts) for root in roots[acts[0].functor]] if meta
        else [("refer", order) for order in canonical_orders(acts)]
    )
    parses: list[tuple[tuple[ActionSchema, ...], Substitution]] = []
    seen: set[str] = set()
    for root, order in readings:
        for tree, s in parse_with_root(root, order, ctx):
            sig = _parse_signature(tree, s)
            if sig not in seen:
                seen.add(sig)
                parses.append((tree, s))
    return judge_parses(ctx, parses, meta)

"""Plan evaluation, plan recognition, and plan construction.

Three entry points share one constraint solver:

  evaluate(...)   walks a finished derivation in step order, committing
                  single-solution constraints, deferring multi-solution
                  ones, and blaming the first step that cannot hold
  infer(...)      recognizes the plan behind a sequence of surface acts
                  (chart over act spans, then evaluation for judgment)
  construct(...)  builds the cheapest plan achieving a goal, by uniform
                  cost search over schema expansions (cost: primitive
                  count, then node count, then discovery order)

The solver knows the handful of non-query constraint forms: equality,
negation as failure, candidate-set filtering, referent choice, plan yield
and content lookups, node substitution, and replanning. Replanning is the
two-faced one: with its act list unbound it completes the plan and emits
acts (generation); with acts given it derives them instead (recognition),
and its judgment of the repaired plan is kept for the dialogue layer.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field

from .beliefs import BeliefBase, Perspective, SYSTEM
from .errors import NoPlanError, PlanError
from .plans import (
    Item,
    ItemKind,
    NodeRecord,
    PlanDerivation,
    PlanStatus,
    find_covering_node,
    substitute_node,
    unify_bridged,
)
from .schemas import ActionSchema, SchemaLibrary, StepKind, check_primitive_act
from .terms import (
    Compound,
    Const,
    Lam,
    ListTerm,
    Substitution,
    Term,
    Var,
    apply_lambda,
    canon,
    format_term,
    unify,
    visit,
)

META_ROOTS: dict[str, list[str]] = {
    "s-accept": ["accept-plan"],
    "s-reject": ["reject-plan"],
    "s-postpone": ["postpone-plan"],
    "s-actions": ["replace-plan", "expand-plan"],
}

MODIFIER_SCHEMAS = ("modifier-absolute", "modifier-relative")
SEARCH_CAP = 50_000
MAX_REFER_DEPTH = 2


class Verdict(enum.Enum):
    UNDERSTOOD = "understood"
    ERROR_AT = "error-at"
    NO_DERIVATION = "no-derivation"
    AMBIGUOUS = "ambiguous"


@dataclass
class EvaluationResult:
    valid: bool
    bindings: Substitution
    error_node: str | None = None


@dataclass
class InferenceResult:
    kind: Verdict
    plan: PlanDerivation | None = None
    error_node: str | None = None
    parse_count: int = 0
    candidates: list[tuple[PlanDerivation, EvaluationResult]] = field(default_factory=list)


class PlannerContext:
    def __init__(
        self,
        base: BeliefBase,
        library: SchemaLibrary,
        names: NameSource,
        persp: Perspective,
        pick_order: list[str] | None = None,
    ):
        self.base = base
        self.library = library
        self.names = names
        self.persp = persp
        self.pick_order = list(pick_order or [])
        self.registry: dict[str, PlanDerivation] = {}
        self.plan_judgments: dict[str, tuple[str, Term | str]] = {}

    def register(self, plan: PlanDerivation) -> None:
        self.registry[plan.id] = plan

    def plan(self, pid: str) -> PlanDerivation:
        try:
            return self.registry[pid]
        except KeyError:
            raise PlanError(f"unknown plan {pid}") from None


# ---------------------------------------------------------------------------
# Constraint solving
# ---------------------------------------------------------------------------

class Outcome(enum.Enum):
    SOLS = "sols"
    DEFER = "defer"
    ASSUME = "assume"


QUERY_FORMS = {
    "speaker", "hearer", "world", "bmb", "bel", "goal",
    "modifier-pred", "modifier-rel-pred",
}


def solve(
    term: Term, s: Substitution, ctx: PlannerContext, clarifying: bool = False
) -> tuple[Outcome, list[Substitution]]:
    """Solutions of one constraint. In a clarification (clarifying), replanning
    against given acts only derives them and records its verdict on the plan."""
    t = s.resolve(term)
    if not isinstance(t, Compound):
        raise PlanError(f"cannot solve non-compound constraint {t!r}")
    f = t.functor

    if f in QUERY_FORMS:
        return Outcome.SOLS, ctx.base.query(t, ctx.persp, s)

    if f == "knowref" and len(t.args) == 4:
        holder = s.walk(t.args[0])
        if holder != SYSTEM:
            return Outcome.ASSUME, []
        entity, obj = s.walk(t.args[2]), s.walk(t.args[3])
        if isinstance(obj, Var):
            return Outcome.DEFER, []
        if isinstance(entity, Var):
            minted = ctx.names.mint_entity()
            s2 = unify(entity, minted, s)
            assert s2 is not None
            return Outcome.SOLS, [s2]
        return Outcome.SOLS, [s]

    if f == "subset" and len(t.args) == 3:
        items, test, out = t.args
        items = s.resolve(items)
        if isinstance(items, Var):
            return Outcome.DEFER, []
        if not isinstance(items, ListTerm):
            raise PlanError(f"subset needs a list, got {format_term(items)}")
        if not isinstance(test, Lam) or len(test.params) != 1:
            raise PlanError("subset needs a one-place test")
        keep: list[Term] = []
        for member in items.items:
            goal = apply_lambda(test, (member,))
            if ctx.base.query(s.resolve(goal), ctx.persp, s):
                keep.append(member)
        if not keep:
            return Outcome.SOLS, []
        s2 = unify(out, ListTerm(tuple(keep)), s)
        return Outcome.SOLS, ([s2] if s2 is not None else [])

    if f == "=" and len(t.args) == 2:
        s2 = unify_bridged(t.args[0], t.args[1], s, ctx.library)
        return Outcome.SOLS, ([s2] if s2 is not None else [])

    if f == "not" and len(t.args) == 1:
        kind, sols = solve(t.args[0], s, ctx, clarifying)
        if kind is Outcome.DEFER:
            return Outcome.DEFER, []
        if kind is Outcome.ASSUME or sols:
            return Outcome.SOLS, []
        return Outcome.SOLS, [s]

    if f == "pick-one" and len(t.args) == 2:
        chosen, pool = s.walk(t.args[0]), s.resolve(t.args[1])
        if isinstance(pool, Var):
            return Outcome.DEFER, []
        if not isinstance(pool, ListTerm):
            raise PlanError("pick-one needs a list of candidates")
        sols = []
        for member in _pick_ordered(pool.items, ctx.pick_order):
            s2 = unify(chosen, member, s)
            if s2 is not None:
                sols.append(s2)
        return Outcome.SOLS, sols

    if f == "yield" and len(t.args) == 3:
        if isinstance(s.walk(t.args[0]), Var):
            return Outcome.DEFER, []
        return Outcome.SOLS, _solve_yield(t, s, ctx)

    if f == "content" and len(t.args) == 3:
        if isinstance(s.walk(t.args[0]), Var):
            return Outcome.DEFER, []
        target = _ref_plan(t.args[0], s, ctx)
        node = s.walk(t.args[1])
        if isinstance(node, Var):
            sols = []
            for name in target.action_nodes():
                s2 = unify(node, Const(name), s)
                if s2 is None:
                    continue
                s3 = unify_bridged(t.args[2], target.content_of(name), s2, ctx.library)
                if s3 is not None:
                    sols.append(s3)
            return Outcome.SOLS, sols
        assert isinstance(node, Const)
        s2 = unify_bridged(t.args[2], target.content_of(node.name), s, ctx.library)
        return Outcome.SOLS, ([s2] if s2 is not None else [])

    if f == "substitute" and len(t.args) == 4:
        if isinstance(s.walk(t.args[0]), Var):
            return Outcome.DEFER, []
        target = _ref_plan(t.args[0], s, ctx)
        node = s.walk(t.args[1])
        if not isinstance(node, Const):
            return Outcome.DEFER, []
        replacement = s.resolve(t.args[2])
        try:
            new_plan, s_new = substitute_node(
                target, node.name, replacement, ctx.library, ctx.names
            )
        except PlanError:
            return Outcome.SOLS, []
        merged = s.merge(s_new)
        new_plan.bindings = merged
        ctx.register(new_plan)
        s2 = unify(t.args[3], Const(new_plan.id), merged)
        return Outcome.SOLS, ([s2] if s2 is not None else [])

    if f == "replan" and len(t.args) == 2:
        if isinstance(s.walk(t.args[0]), Var):
            return Outcome.DEFER, []
        return Outcome.SOLS, _solve_replan(t, s, ctx, clarifying)

    raise PlanError(f"no solver for constraint {f}/{len(t.args)}")


def _pick_ordered(members: tuple[Term, ...], pick_order: list[str]) -> list[Term]:
    ranked = {name: i for i, name in enumerate(pick_order)}
    first = [m for m in members if isinstance(m, Const) and m.name in ranked]
    first.sort(key=lambda m: ranked[m.name])
    rest = [m for m in members if not (isinstance(m, Const) and m.name in ranked)]
    return first + rest


def _ref_plan(t: Term, s: Substitution, ctx: PlannerContext) -> PlanDerivation:
    pid = s.walk(t)
    if not isinstance(pid, Const):
        raise PlanError(f"plan reference is unbound: {format_term(pid)}")
    return ctx.plan(pid.name)


def _solve_yield(t: Compound, s: Substitution, ctx: PlannerContext) -> list[Substitution]:
    target = _ref_plan(t.args[0], s, ctx)
    node, acts = s.walk(t.args[1]), s.resolve(t.args[2])
    if isinstance(node, Const):
        got = ListTerm(tuple(target.yield_of(node.name)))
        s2 = unify(t.args[2], got, s)
        return [s2] if s2 is not None else []
    if not isinstance(acts, ListTerm):
        return []
    found = find_covering_node(target, list(acts.items), s)
    if found is None:
        return []
    name, s2 = found
    s3 = unify(node, Const(name), s2)
    return [s3] if s3 is not None else []


def _solve_replan(
    t: Compound, s: Substitution, ctx: PlannerContext, clarifying: bool
) -> list[Substitution]:
    target = _ref_plan(t.args[0], s, ctx)
    acts = s.resolve(t.args[1])
    if target.status is PlanStatus.COMPLETE:
        got = ListTerm(tuple(target.yield_of()))
        s2 = unify(t.args[1], got, s)
        return [s2] if s2 is not None else []
    if isinstance(acts, ListTerm):
        if not clarifying:
            raise PlanError("replanning against given acts outside recognition")
        return _replan_recognize(target, list(acts.items), s, ctx)
    completed, added = complete_plan(target, ctx)
    merged = s.merge(completed.bindings)
    s2 = unify(t.args[1], ListTerm(tuple(added)), merged)
    return [s2] if s2 is not None else []


def _replan_recognize(
    target: PlanDerivation, acts: list[Term], s: Substitution, ctx: PlannerContext
) -> list[Substitution]:
    """Derive the given acts from the plan's single unexpanded node."""
    holes = target.unexpanded()
    if len(holes) != 1:
        raise PlanError(f"plan {target.id} has {len(holes)} open nodes, expected 1")
    hole = holes[0]
    content = target.bindings.resolve(target.nodes[hole].content)
    if not isinstance(content, Compound):
        raise PlanError(f"open node {hole} has no action content")
    choices = _concrete_choices(content.functor, ctx.library)
    work = s.merge(target.bindings)
    for choice in choices:
        instance = ctx.library.get(choice).instantiate(ctx.names)
        s0 = unify_bridged(content, instance.head, work, ctx.library)
        if s0 is None:
            continue
        for children, s1 in _match_steps(list(instance.steps), acts, s0, ctx):
            _graft(target, hole, choice, instance, children, ctx)
            target.bindings = s1
            target.status = PlanStatus.COMPLETE
            verdict = evaluate(target, ctx)
            if verdict.valid:
                referent = _referent_of(target, verdict.bindings)
                ctx.plan_judgments[target.id] = ("achieve", referent)
                target.bindings = verdict.bindings
                return [s1.merge(verdict.bindings)]
            ctx.plan_judgments[target.id] = ("error", verdict.error_node)
            return [s1]
    return []


def _referent_of(plan: PlanDerivation, s: Substitution) -> Term:
    content = s.resolve(plan.nodes[plan.root].content)
    if isinstance(content, Compound) and content.functor == "refer":
        return content.args[1]
    return content


def _graft(
    plan: PlanDerivation,
    hole: str,
    schema_name: str,
    instance: ActionSchema,
    children: list,
    ctx: PlannerContext,
) -> None:
    items, _ = _materialize_items(instance, children, plan.nodes, ctx)
    plan.nodes[hole] = NodeRecord(
        name=hole,
        schema=schema_name,
        content=instance.head,
        items=items,
        primitive=False,
        expanded=True,
    )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _walk_items(plan: PlanDerivation) -> list[tuple[str, Term]]:
    out: list[tuple[str, Term]] = []

    def walk(name: str) -> None:
        rec = plan.nodes[name]
        if rec.primitive:
            return
        for item in rec.items:
            if item.kind is ItemKind.CHILD:
                walk(item.child)
            else:
                out.append((name, item.term))

    walk(plan.root)
    return out


def _assumable(term: Term, s: Substitution, ctx: PlannerContext, plan: PlanDerivation) -> bool:
    """A zero-solution constraint survives when the utterance asserts it:
    it must be a belief of the current speaker's and occur (unifiably)
    inside the plan's communicated effect."""
    t = s.resolve(term)
    if not (isinstance(t, Compound) and t.functor == "bel" and len(t.args) == 2):
        return False
    if s.walk(t.args[0]) != Const(ctx.persp.speaker):
        return False
    if plan.root_effect is None:
        return False
    effect = s.resolve(plan.root_effect)
    return visit(effect, lambda hay, _: unify(t, hay, s) is not None)


def evaluate(
    plan: PlanDerivation, ctx: PlannerContext, clarifying: bool = False
) -> EvaluationResult:
    """Judge a finished derivation; deferred constraints are retried until
    a pass commits nothing. In a clarification an unprovable belief of the
    speaker's that their utterance asserts anyway is taken on trust."""
    s = plan.bindings
    pending = _walk_items(plan)
    # the pass in step order is always followed by a pass over what it deferred
    first = progress = True
    while pending and progress:
        progress, first = first, False
        deferred: list[tuple[str, Term]] = []
        for owner, term in pending:
            kind, sols = solve(term, s, ctx, clarifying)
            if kind is Outcome.DEFER or len(sols) > 1:
                deferred.append((owner, term))
                continue
            if sols:
                s = sols[0]
            elif kind is Outcome.SOLS and not (clarifying and _assumable(term, s, ctx, plan)):
                return EvaluationResult(False, s, owner)
            progress = True
        pending = deferred
    return EvaluationResult(True, s)


# ---------------------------------------------------------------------------
# Recognition: from surface acts to candidate derivations
# ---------------------------------------------------------------------------

def _concrete_choices(functor: str, library: SchemaLibrary) -> list[str]:
    if library.is_abstract(functor):
        return list(library.specializations.get(functor, []))
    return [functor]


@dataclass
class _TmpNode:
    schema: str
    instance: ActionSchema
    children: list


def _match_steps(steps, span, s, ctx):
    """Yield (children, substitution) pairs deriving exactly this act span."""
    if not steps:
        if not span:
            yield [], s
        return
    head, rest = steps[0], steps[1:]
    if head.kind in (StepKind.CONSTRAINT, StepKind.MENTAL):
        yield from _match_steps(rest, span, s, ctx)
        return
    if head.kind is StepKind.PRIMITIVE:
        if span:
            s2 = unify(head.term, span[0], s)
            if s2 is not None:
                yield from _match_steps(rest, span[1:], s2, ctx)
        return
    expected = s.resolve(head.term)
    if not isinstance(expected, Compound):
        return
    for choice in _concrete_choices(expected.functor, ctx.library):
        instance = ctx.library.get(choice).instantiate(ctx.names)
        s2 = unify_bridged(expected, instance.head, s, ctx.library)
        if s2 is None:
            continue
        for take in range(len(span) + 1):
            for kids, s3 in _match_steps(list(instance.steps), span[:take], s2, ctx):
                node = _TmpNode(choice, instance, kids)
                for others, s4 in _match_steps(rest, span[take:], s3, ctx):
                    yield [node] + others, s4


def _parse_with_root(root_schema: str, acts: list[Term], ctx: PlannerContext):
    instance = ctx.library.get(root_schema).instantiate(ctx.names)
    for kids, s in _match_steps(list(instance.steps), acts, Substitution(), ctx):
        yield _TmpNode(root_schema, instance, kids), s


def _materialize_items(
    instance: ActionSchema, children: list, nodes: dict[str, NodeRecord], ctx: PlannerContext
) -> tuple[tuple[Item, ...], int]:
    items: list[Item] = []
    child_i = 0
    for step in instance.steps:
        if step.kind is StepKind.CONSTRAINT:
            items.append(Item(ItemKind.CONSTRAINT, term=step.term))
        elif step.kind is StepKind.MENTAL:
            items.append(Item(ItemKind.MENTAL, term=step.term))
        elif step.kind is StepKind.PRIMITIVE:
            name = ctx.names.node_name().name
            nodes[name] = NodeRecord(name, "primitive", step.term, (), True, True)
            items.append(Item(ItemKind.CHILD, child=name))
        else:
            child = children[child_i]
            child_i += 1
            name = _materialize_node(child, nodes, ctx)
            items.append(Item(ItemKind.CHILD, child=name))
    return tuple(items), child_i


def _materialize_node(tmp: "_TmpNode", nodes: dict[str, NodeRecord], ctx: PlannerContext) -> str:
    name = ctx.names.node_name().name
    items, _ = _materialize_items(tmp.instance, tmp.children, nodes, ctx)
    nodes[name] = NodeRecord(name, tmp.schema, tmp.instance.head, items, False, True)
    return name


def _materialize_parse(tmp: _TmpNode, s: Substitution, ctx: PlannerContext) -> PlanDerivation:
    nodes: dict[str, NodeRecord] = {}
    pid = ctx.names.plan_name().name
    root = _materialize_node(tmp, nodes, ctx)
    plan = PlanDerivation(
        id=pid,
        root=root,
        nodes=nodes,
        bindings=s,
        status=PlanStatus.COMPLETE,
        root_effect=tmp.instance.effect,
    )
    ctx.register(plan)
    return plan


def _parse_signature(tmp: _TmpNode, s: Substitution) -> str:
    def shape(node: _TmpNode) -> Term:
        kids = tuple(shape(k) for k in node.children)
        return Compound("$" + node.schema, (node.instance.head,) + kids)

    return canon(shape(tmp), s)


def canonical_orders(acts: list[Term]) -> list[list[Term]]:
    """Orderings of a description with each category attribution moved to
    sit directly after its entity's introducing act.

    Surface order puts qualities before the noun; derivations want the
    noun first. One reordering per choice of noun act per entity, keeping
    everything else stable. Sequences without the introducing act are
    left alone.
    """
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


def infer(
    ctx: PlannerContext,
    acts: list[Term],
    expected_plan: str | None = None,
) -> InferenceResult:
    """Recognize and judge the plan behind a sequence of surface acts.

    For referring acts every canonical ordering is parsed; for the
    clarification acts the root comes from the act itself, and parses
    about some other plan than the one under discussion are dropped.
    """
    for act in acts:
        try:
            check_primitive_act(act)
        except PlanError:
            return InferenceResult(Verdict.NO_DERIVATION)
    meta = [a for a in acts if isinstance(a, Compound) and a.functor in META_ROOTS]
    parses: list[tuple[_TmpNode, Substitution]] = []
    seen: set[str] = set()
    if meta:
        if len(acts) != 1:
            return InferenceResult(Verdict.NO_DERIVATION)
        for root in META_ROOTS[acts[0].functor]:
            for tmp, s in _parse_with_root(root, acts, ctx):
                pid = s.walk(tmp.instance.head.args[0])
                if expected_plan is not None and pid != Const(expected_plan):
                    continue
                sig = _parse_signature(tmp, s)
                if sig not in seen:
                    seen.add(sig)
                    parses.append((tmp, s))
    else:
        for order in canonical_orders(acts):
            for tmp, s in _parse_with_root("refer", order, ctx):
                sig = _parse_signature(tmp, s)
                if sig not in seen:
                    seen.add(sig)
                    parses.append((tmp, s))
    if not parses:
        return InferenceResult(Verdict.NO_DERIVATION)
    candidates: list[tuple[PlanDerivation, EvaluationResult]] = []
    for tmp, s in parses:
        plan = _materialize_parse(tmp, s, ctx)
        result = evaluate(plan, ctx, bool(meta))
        plan.bindings = result.bindings
        if not meta:
            if result.valid:
                ctx.plan_judgments[plan.id] = ("achieve", _referent_of(plan, result.bindings))
            else:
                ctx.plan_judgments[plan.id] = ("error", result.error_node)
        candidates.append((plan, result))
    valid = [(p, r) for p, r in candidates if r.valid]
    if len(valid) == 1:
        plan, result = valid[0]
        return InferenceResult(Verdict.UNDERSTOOD, plan, None, len(parses), candidates)
    if len(valid) > 1:
        return InferenceResult(Verdict.AMBIGUOUS, None, None, len(parses), candidates)
    if len(candidates) == 1:
        plan, result = candidates[0]
        return InferenceResult(Verdict.ERROR_AT, plan, result.error_node, 1, candidates)
    return InferenceResult(Verdict.AMBIGUOUS, None, None, len(parses), candidates)


# ---------------------------------------------------------------------------
# Construction: uniform cost search over schema expansions
# ---------------------------------------------------------------------------

@dataclass
class _BuildState:
    nodes: dict[str, NodeRecord]
    queue: tuple
    s: Substitution
    used: frozenset
    emitted: tuple[str, ...]
    prims: int
    depths: dict[str, int]
    root: str = ""
    root_effect: Term | None = None

    def fork(self) -> "_BuildState":
        return _BuildState(
            dict(self.nodes), self.queue, self.s, self.used, self.emitted, self.prims,
            dict(self.depths), self.root, self.root_effect,
        )


class _Search:
    def __init__(self, ctx: PlannerContext):
        self.ctx = ctx
        self.heap: list = []
        self.seq = itertools.count()

    def push(self, state: _BuildState) -> None:
        heapq.heappush(self.heap, (state.prims, len(state.nodes), next(self.seq), state))

    def run(self) -> _BuildState:
        pops = 0
        while self.heap:
            pops += 1
            if pops > SEARCH_CAP:
                raise NoPlanError("construction search exceeded its budget")
            _, _, _, state = heapq.heappop(self.heap)
            if not state.queue:
                return state
            work, rest = state.queue[0], state.queue[1:]
            state.queue = rest
            if work[0] == "expand":
                self._expand(state, work[1])
            elif work[0] == "emit":
                st = state.fork()
                st.emitted = st.emitted + (work[1],)
                self.push(st)
            else:
                self._prove(state, work[1], work[2])
        raise NoPlanError("no plan achieves the goal")

    def _expand(self, state: _BuildState, name: str) -> None:
        rec = state.nodes[name]
        content = state.s.resolve(rec.content)
        if not isinstance(content, Compound):
            return
        if content.functor == "refer" and state.depths.get(name, 0) > MAX_REFER_DEPTH:
            return
        for choice in _concrete_choices(content.functor, self.ctx.library):
            instance = self.ctx.library.get(choice).instantiate(self.ctx.names)
            s2 = unify_bridged(content, instance.head, state.s, self.ctx.library)
            if s2 is None:
                continue
            if name == state.root and state.root_effect is not None:
                # Variables that occur only in the effect (not the head) would
                # otherwise be severed from this instance's step bindings.
                s2 = unify(state.root_effect, instance.effect, s2)
                if s2 is None:
                    continue
            st = state.fork()
            st.s = s2
            items: list[Item] = []
            prepend: list = []
            for step in instance.steps:
                if step.kind is StepKind.CONSTRAINT or step.kind is StepKind.MENTAL:
                    items.append(Item(
                        ItemKind.CONSTRAINT if step.kind is StepKind.CONSTRAINT else ItemKind.MENTAL,
                        term=step.term,
                    ))
                    prepend.append(("prove", name, step.term))
                elif step.kind is StepKind.PRIMITIVE:
                    child = self.ctx.names.node_name().name
                    st.nodes[child] = NodeRecord(child, "primitive", step.term, (), True, True)
                    items.append(Item(ItemKind.CHILD, child=child))
                    st.prims += 1
                    prepend.append(("emit", child))
                else:
                    child = self.ctx.names.node_name().name
                    st.nodes[child] = NodeRecord(
                        child, "?", step.term, (), False, False
                    )
                    step_term = state.s.resolve(step.term)
                    bump = 1 if (
                        isinstance(step_term, Compound) and step_term.functor == "refer"
                    ) else 0
                    st.depths[child] = state.depths.get(name, 0) + bump
                    items.append(Item(ItemKind.CHILD, child=child))
                    prepend.append(("expand", child))
            st.nodes[name] = NodeRecord(name, choice, instance.head, tuple(items), False, True)
            st.queue = tuple(prepend) + st.queue
            self.push(st)

    def _prove(self, state: _BuildState, owner: str, term: Term) -> None:
        t = state.s.resolve(term)
        if not isinstance(t, Compound):
            return
        try:
            kind, sols = solve(t, state.s, self.ctx)
        except NoPlanError:  # replanning found no way to complete the plan
            return
        if kind is Outcome.ASSUME:
            self.push(state.fork())
            return
        rec = state.nodes[owner]
        branches = [(s2, state.used) for s2 in sols]
        if t.functor == "subset" and rec.schema in MODIFIER_SCHEMAS:
            # a modifier must narrow the candidates and add a new restriction
            keyed = [(s2, modifier_key(rec, s2)) for s2 in sols if self._shrinks(t, s2)]
            branches = [(s2, state.used | {k}) for s2, k in keyed if k not in state.used]
        for s2, used in branches:
            st = state.fork()
            st.s, st.used = s2, used
            self.push(st)

    def _shrinks(self, t: Compound, s: Substitution) -> bool:
        before = s.resolve(t.args[0])
        after = s.resolve(t.args[2])
        return (
            isinstance(before, ListTerm)
            and isinstance(after, ListTerm)
            and len(after.items) < len(before.items)
        )


def modifier_key(rec: NodeRecord, s: Substitution) -> tuple[str, str, str]:
    """Identity of a modifier node: its entity, its predicate, and the
    value or other object it relates the entity's referent to."""
    content = s.resolve(rec.content)
    assert isinstance(content, Compound)
    pred = other = ""
    for item in rec.items:
        if item.kind is not ItemKind.CONSTRAINT:
            continue
        c = s.resolve(item.term)
        if isinstance(c, Compound) and c.functor in ("modifier-pred", "modifier-rel-pred"):
            pred = canon(c.args[0])
        if isinstance(c, Compound) and c.functor == "bmb":
            inner = c.args[2]
            if isinstance(inner, Compound) and len(inner.args) == 2:
                other = canon(inner.args[1])
    return (canon(content.args[0]), pred, other)


def modifier_keys_of(plan: PlanDerivation) -> frozenset:
    """Identity keys of the modifiers a plan already uses, for reuse guards."""
    return frozenset(
        modifier_key(plan.nodes[name], plan.bindings)
        for name in plan.action_nodes()
        if plan.nodes[name].schema in MODIFIER_SCHEMAS
    )


def _refer_depths(plan: PlanDerivation) -> dict[str, int]:
    depths: dict[str, int] = {}

    def walk(name: str, depth: int) -> None:
        rec = plan.nodes[name]
        content = plan.bindings.resolve(rec.content)
        here = depth
        if isinstance(content, Compound) and content.functor == "refer":
            here += 1
        depths[name] = here
        for item in rec.items:
            if item.kind is ItemKind.CHILD:
                walk(item.child, here)

    walk(plan.root, 0)
    return depths


def construct(ctx: PlannerContext, goal: Term) -> PlanDerivation:
    """Build the cheapest plan whose communicated effect matches the goal."""
    search = _Search(ctx)
    pushed = False
    for schema in ctx.library.effect_schemas():
        instance = schema.instantiate(ctx.names)
        s0 = unify(instance.effect, goal)
        if s0 is None:
            continue
        root = ctx.names.node_name().name
        state = _BuildState(
            nodes={root: NodeRecord(root, schema.name, instance.head, (), False, False)},
            queue=(("expand", root),),
            s=s0,
            used=frozenset(),
            emitted=(),
            prims=0,
            depths={root: 1 if schema.name == "refer" else 0},
            root=root,
            root_effect=instance.effect,
        )
        pushed = True
        search.push(state)
    if not pushed:
        raise NoPlanError(f"no schema can achieve {format_term(goal)}")
    final = search.run()
    plan = PlanDerivation(
        id=ctx.names.plan_name().name,
        root=final.root,
        nodes=final.nodes,
        bindings=final.s,
        status=PlanStatus.COMPLETE,
        root_effect=final.root_effect,
    )
    ctx.register(plan)
    if final.nodes[final.root].schema == "refer":
        ctx.plan_judgments[plan.id] = ("achieve", _referent_of(plan, final.s))
    return plan


def complete_plan(partial: PlanDerivation, ctx: PlannerContext) -> tuple[PlanDerivation, list[Term]]:
    """Expand a partial plan's open nodes, adding as few acts as possible."""
    search = _Search(ctx)
    state = _BuildState(
        nodes=dict(partial.nodes),
        queue=tuple(("expand", n) for n in partial.unexpanded()),
        s=partial.bindings,
        used=modifier_keys_of(partial),
        emitted=(),
        prims=0,
        depths=_refer_depths(partial),
    )
    search.push(state)
    final = search.run()
    partial.nodes = final.nodes
    partial.bindings = final.s
    partial.status = PlanStatus.COMPLETE
    added = [final.s.resolve(final.nodes[n].content) for n in final.emitted]
    if partial.nodes[partial.root].schema == "refer":
        ctx.plan_judgments[partial.id] = ("achieve", _referent_of(partial, final.s))
    return partial, added

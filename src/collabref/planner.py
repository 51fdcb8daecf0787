"""Plan evaluation, plan recognition, and plan construction.

Three entry points share one constraint solver:

  evaluate(...)   walks a finished derivation in step order, committing
                  single-solution constraints, deferring multi-solution
                  ones, and blaming the first step that cannot hold
  infer(...)      recognizes the plan behind surface acts as heard, by a
                  top-down parse over act spans that takes each head noun
                  from anywhere in its entity's span and keeps one
                  derivation per acts and shape, then judges it; the
                  caller decides which plan a clarification may be about
  construct(...)  builds the cheapest plan achieving a goal, by uniform
                  cost search over schema expansions (cost: primitive
                  count, then node count, then discovery order), dropping
                  a branch once its candidates hold an object that no
                  modifier can separate from the referent. A state keeps
                  the schema instances it chose, in pre-order; an open
                  node's work item carries its content and its refer
                  depth for the nesting cap, and a primitive takes no
                  work item at all.

Parsing, search and a committed plan hold a tree as one thing, the tuple
of its schema instances in pre-order: an instance's action steps take the
subtrees after it, in step order. Node ids are minted, one per node in
walk order, only for a tree committed to. `_fill` is the one commit step
for a plan made from a tree: it splices subtrees into the plan's open
nodes, names their nodes (`_name`), evaluates the plan, judges it from
that evaluation and keeps the evaluation's bindings. A reading that
`judge_parses` commits is a plan whose one open node is its root, and
replanning fills the node a repair left open, from a parse or from a
search. Only `construct` commits without evaluating, since its search
proved every step of the plan it returns.

The schema library is the one table of the vocabulary all three read:
which acts are surface acts, which roots a clarification act starts, and
which schemas an abstract action stands for.

The solver answers a list of solutions, or None for a constraint that
must wait for a binding; a knowref the other agent holds is assumed, as
the one solution that binds nothing. One table, SOLVERS, keyed by functor
and arity, names the forms it solves itself: equality, negation as
failure, candidate-set filtering, referent choice, plan yield and content
lookups (a node the plan lacks has none), node substitution, and
replanning. Every other form is a belief query. Candidate-set
filtering (`subset`) asks its test once, for a fresh variable, and keeps
the members some answer admits, so a filter costs one belief query
however many candidates it reads. Construction copies only the schemas
whose shared template effect unifies with the goal. Replanning is the
two-faced one: with its act list unbound it completes the plan and emits
acts (generation), keeping the cheapest completion that holds; with acts
given it derives them with the parse's own step instead (recognition).
Either way the repaired plan's fill judges it, for the dialogue layer. A
plan's open nodes, and the refer depth and kept modifiers a completion
needs, are read from its tree by its one walk.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from .beliefs import SYSTEM, BeliefBase, Perspective, _unit
from .errors import NoPlanError, PlanError
from .plans import PlanDerivation, find_covering_node, node_content, substitute_node, unify_bridged
from .schemas import ActionSchema, SchemaLibrary, StepKind
from .terms import (
    Compound,
    Const,
    Lam,
    ListTerm,
    NameSource,
    Substitution,
    Term,
    Var,
    apply_lambda,
    canon,
    canon_ground,
    format_term,
    unify,
    visit,
)

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
    candidates: list[tuple[PlanDerivation, EvaluationResult]] = field(default_factory=list)

    @property
    def parse_count(self) -> int:
        return len(self.candidates)


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

    def judge(self, plan: PlanDerivation, bindings: Substitution, error_node: str | None = None) -> None:
        """Record a judgment of the plan: the node in error, or else the
        referent it achieves (the whole root content for a non-referring plan)."""
        if error_node is not None:
            self.plan_judgments[plan.id] = ("error", error_node)
            return
        content = bindings.resolve(plan.tree[0].head)
        if isinstance(content, Compound) and content.functor == "refer":
            content = content.args[1]
        self.plan_judgments[plan.id] = ("achieve", content)


# ---------------------------------------------------------------------------
# Constraint solving
# ---------------------------------------------------------------------------

# The solutions of a constraint, or None while it must wait for a binding.
Solutions = list[Substitution] | None


def solve(term: Term, s: Substitution, ctx: PlannerContext, clarifying: bool = False) -> Solutions:
    """Solutions of one constraint, or None while it must wait for a
    binding. A form with a row in SOLVERS is solved by it, once its first
    argument names a plan if the row says so; any other form is a belief
    query. With clarifying on, as in every evaluation, replanning only
    derives the given acts and records its verdict on the plan; acts that
    are not a list derive nothing. Construction solves with it off, so
    replanning completes the plan."""
    t = s.walk(term)
    if type(t) is not Compound:
        raise PlanError(f"cannot solve non-compound constraint {s.resolve(t)!r}")
    row = SOLVERS.get((t.functor, len(t.args)))
    if row is None:
        return ctx.base.query(t, ctx.persp, s)
    solver, about_plan = row
    if about_plan and isinstance(s.walk(t.args[0]), Var):
        return None
    return solver(t, s, ctx, clarifying)


def _solve_knowref(t: Compound, s: Substitution, ctx: PlannerContext, clarifying: bool) -> Solutions:
    holder = s.walk(t.args[0])
    if holder != SYSTEM:  # what the other agent knows is assumed
        return [s]
    entity, obj = s.walk(t.args[2]), s.walk(t.args[3])
    if isinstance(obj, Var):
        return None
    if isinstance(entity, Var):
        return _unit(unify(entity, ctx.names.mint_entity(), s))
    return [s]


def _solve_subset(t: Compound, s: Substitution, ctx: PlannerContext, clarifying: bool) -> Solutions:
    items, test, out = s.resolve(t.args[0]), s.walk(t.args[1]), t.args[2]
    if isinstance(items, Var):
        return None
    if not isinstance(items, ListTerm):
        raise PlanError(f"subset needs a list, got {format_term(items)}")
    if not isinstance(test, Lam) or len(test.params) != 1:
        raise PlanError("subset needs a one-place test")
    keep = _admitted(items.items, test, s, ctx) if items.items else []
    return _unit(unify(out, ListTerm(tuple(keep)), s)) if keep else []


def _solve_equal(t: Compound, s: Substitution, ctx: PlannerContext, clarifying: bool) -> Solutions:
    return _unit(unify_bridged(t.args[0], t.args[1], s, ctx.library))


def _solve_not(t: Compound, s: Substitution, ctx: PlannerContext, clarifying: bool) -> Solutions:
    sols = solve(t.args[0], s, ctx, clarifying)
    return None if sols is None else [] if sols else [s]


def _solve_pick_one(t: Compound, s: Substitution, ctx: PlannerContext, clarifying: bool) -> Solutions:
    chosen, pool = s.walk(t.args[0]), s.resolve(t.args[1])
    if isinstance(pool, Var):
        return None
    if not isinstance(pool, ListTerm):
        raise PlanError("pick-one needs a list of candidates")
    sols = (unify(chosen, member, s) for member in _pick_ordered(pool.items, ctx.pick_order))
    return [s2 for s2 in sols if s2 is not None]


def _admitted(
    members: tuple[Term, ...], test: Lam, s: Substitution, ctx: PlannerContext
) -> list[Term]:
    """The members m for which test(m) has a solution, in order, with
    duplicates, from one belief query.

    The query asks test(V) for a fresh variable V. Then test(m) has a
    solution iff some answer lets V unify with m: {P = F, V = m} has the
    same solutions whichever equation is solved first. That holds where
    the test's parameter only fills slots of the fact it looks up, not a
    place that decides how the query is answered (an agent, or the whole
    proposition), as in every `subset` of the schema library. A ground
    member is looked up among the ground answers by `canon` key, which
    agree exactly when ground terms unify; any other pair is unified. A
    constant's key is its name, so an answer bound to a constant, or a
    constant member, is keyed without a walk.
    """
    v = ctx.names.fresh_var("X")
    answers = ctx.base.query(apply_lambda(test, (v,)), ctx.persp, s)
    ground: set[str] = set()
    rest: list[Substitution] = []
    for a in answers:
        value = a.walk(v)
        key, is_ground = (value.name, True) if type(value) is Const else canon_ground(a.resolve(value))
        if is_ground:
            ground.add(key)
        else:
            rest.append(a)
    keep: list[Term] = []
    for member in members:
        key, is_ground = (member.name, True) if type(member) is Const else canon_ground(member)
        if is_ground and key in ground:
            keep.append(member)
        elif any(unify(v, member, a) is not None for a in (rest if is_ground else answers)):
            keep.append(member)
    return keep


def _pick_ordered(members: tuple[Term, ...], pick_order: list[str]) -> list[Term]:
    ranked = {name: i for i, name in enumerate(pick_order)}
    last = len(ranked)
    return sorted(members, key=lambda m: ranked.get(m.name, last) if isinstance(m, Const) else last)


def _ref_plan(t: Term, s: Substitution, ctx: PlannerContext) -> PlanDerivation:
    pid = s.walk(t)
    if not isinstance(pid, Const):
        raise PlanError(f"plan reference is unbound: {format_term(pid)}")
    return ctx.plan(pid.name)


def _solve_yield(t: Compound, s: Substitution, ctx: PlannerContext, clarifying: bool) -> Solutions:
    target = _ref_plan(t.args[0], s, ctx)
    node, acts = s.walk(t.args[1]), s.resolve(t.args[2])
    if isinstance(node, Const):
        if node.name not in target.names:
            return []
        return _unit(unify(t.args[2], ListTerm(tuple(target.yield_of(node.name))), s))
    if not isinstance(acts, ListTerm):
        return []
    found = find_covering_node(target, list(acts.items), s)
    if found is None:
        return []
    name, s2 = found
    return _unit(unify(node, Const(name), s2))


def _solve_content(t: Compound, s: Substitution, ctx: PlannerContext, clarifying: bool) -> Solutions:
    target = _ref_plan(t.args[0], s, ctx)
    node = s.walk(t.args[1])
    if isinstance(node, Var):
        named = target.action_nodes()
    else:
        named = [node.name] if isinstance(node, Const) and node.name in target.names else []
    sols = []
    for name in named:
        s2 = unify(node, Const(name), s)
        if s2 is None:
            continue
        s3 = unify_bridged(t.args[2], target.content_of(name), s2, ctx.library)
        if s3 is not None:
            sols.append(s3)
    return sols


def _solve_substitute(t: Compound, s: Substitution, ctx: PlannerContext, clarifying: bool) -> Solutions:
    target = _ref_plan(t.args[0], s, ctx)
    node = s.walk(t.args[1])
    if not isinstance(node, Const):
        return None
    replacement = s.resolve(t.args[2])
    try:
        new_plan, s_new = substitute_node(target, node.name, replacement, ctx.library, ctx.names)
    except PlanError:
        return []
    merged = s.merge(s_new)
    new_plan.bindings = merged
    ctx.register(new_plan)
    return _unit(unify(t.args[3], Const(new_plan.id), merged))


def _solve_replan(t: Compound, s: Substitution, ctx: PlannerContext, clarifying: bool) -> Solutions:
    target = _ref_plan(t.args[0], s, ctx)
    acts = s.resolve(t.args[1])
    if not target.unexpanded():
        return _unit(unify(t.args[1], ListTerm(tuple(target.yield_of())), s))
    if clarifying:
        if not isinstance(acts, ListTerm):
            return []
        return _replan_recognize(target, list(acts.items), s, ctx)
    if isinstance(acts, ListTerm):
        raise PlanError("replanning against given acts outside recognition")
    completed, added = complete_plan(target, ctx)
    return _unit(unify(t.args[1], ListTerm(tuple(added)), s.merge(completed.bindings)))


# The constraint forms solve answers itself, by (functor, arity): each
# form's solver, and whether the form waits until its first argument names
# a plan. Every other form is a belief query (beliefs.QUERIES).
SOLVERS: dict[tuple[str, int], tuple[Callable[..., Solutions], bool]] = {
    ("knowref", 4): (_solve_knowref, False),
    ("subset", 3): (_solve_subset, False),
    ("=", 2): (_solve_equal, False),
    ("not", 1): (_solve_not, False),
    ("pick-one", 2): (_solve_pick_one, False),
    ("yield", 3): (_solve_yield, True),
    ("content", 3): (_solve_content, True),
    ("substitute", 4): (_solve_substitute, True),
    ("replan", 2): (_solve_replan, True),
}


def _replan_recognize(
    target: PlanDerivation, acts: list[Term], s: Substitution, ctx: PlannerContext
) -> list[Substitution]:
    """Derive the given acts from the plan's single open node, with the
    parse's own derivation step."""
    holes = target.unexpanded()
    if len(holes) != 1:
        raise PlanError(f"plan {target.id} has {len(holes)} open nodes, expected 1")
    expected = target.content_of(holes[0])
    if not isinstance(expected, Compound):
        raise PlanError(f"open node {holes[0]} has no action content")
    for _, tree, s1 in _derive(expected, acts, s.merge(target.bindings), ctx, 0, 0):
        verdict = _fill(target, tree, s1, ctx)
        return [verdict.bindings if verdict.valid else s1]
    return []


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _assumable(term: Term, s: Substitution, ctx: PlannerContext, plan: PlanDerivation) -> bool:
    """A zero-solution constraint survives when the utterance asserts it:
    it must be a belief of the current speaker's and unify with a compound
    inside the plan's communicated effect. An unbound variable of the
    effect stands for no assertion, so it matches nothing."""
    t = s.resolve(term)
    if not (isinstance(t, Compound) and t.functor == "bel" and len(t.args) == 2):
        return False
    if s.walk(t.args[0]) != Const(ctx.persp.speaker):
        return False
    if plan.root_effect is None:
        return False
    effect = s.resolve(plan.root_effect)
    return visit(effect, lambda hay, _: type(hay) is Compound and unify(t, hay, s) is not None)


def evaluate(plan: PlanDerivation, ctx: PlannerContext) -> EvaluationResult:
    """Judge a finished derivation; deferred constraints are retried until
    a pass commits nothing. An unprovable belief of the speaker's that their
    utterance asserts anyway is taken on trust."""
    s = plan.bindings
    pending = [(path[-1], step.term) for path, step, name, _ in plan.walk() if name is None]
    # the pass in step order is always followed by a pass over what it deferred
    first = progress = True
    while pending and progress:
        progress, first = first, False
        deferred: list[tuple[str, Term]] = []
        for owner, term in pending:
            sols = solve(term, s, ctx, True)
            if sols is None or len(sols) > 1:
                deferred.append((owner, term))
                continue
            if sols:
                s = sols[0]
            elif not _assumable(term, s, ctx, plan):
                return EvaluationResult(False, s, owner)
            progress = True
        pending = deferred
    return EvaluationResult(True, s)


# ---------------------------------------------------------------------------
# Recognition: from surface acts to candidate derivations
# ---------------------------------------------------------------------------

def _match_steps(instance, i, span, s, ctx):
    """Yield (subtrees, substitution) pairs deriving exactly this act span
    from the instance's steps i onwards; constraint and mental steps derive
    no act, so they are stepped over in one loop.

    A schema choice, or a split of the span, that leaves some part fewer
    acts than it yields at the least or more than it yields at the most
    is never tried: it could derive nothing, so the same parses come out.
    """
    steps = instance.steps
    while i < len(steps) and steps[i].kind in (StepKind.CONSTRAINT, StepKind.MENTAL):
        i += 1
    least, most = ctx.library.least_from[instance.name], ctx.library.most_from[instance.name]
    if not least[i] <= len(span) <= most[i]:
        return
    if i == len(steps):
        if not span:
            yield (), s
        return
    head = steps[i]
    if head.kind is StepKind.PRIMITIVE:
        if span:
            s2 = unify(head.term, span[0], s)
            if s2 is not None:
                yield from _match_steps(instance, i + 1, span[1:], s2, ctx)
        return
    expected = s.resolve(head.term)
    if not isinstance(expected, Compound):
        return
    for rest, tree, s3 in _derive(expected, span, s, ctx, least[i + 1], most[i + 1]):
        for others, s4 in _match_steps(instance, i + 1, rest, s3, ctx):
            yield tree + others, s4


def _derive(expected, span, s, ctx, rest_least, rest_most):
    """Yield (rest, tree, substitution) for each derivation of the action
    `expected` from acts of the span, leaving the `rest` of it, between
    rest_least and rest_most acts, to the steps after it: by schema
    choice, then the acts taken, then parse. Recognition and replanning
    both derive through here.

    An action that yields exactly one act (a head noun) may take it from
    any position of the span: the schema fixes a node's steps and leaves
    the noun's place free (an ID/LP split, Shieber 1984). Every other
    action takes a prefix. Of the derivations that take the same acts,
    only the first of each shape is kept: a later one binds nothing the
    rest of the parse can see, so every completion of it would repeat
    one of the first's. So the choices of noun add over entities, where
    reparsing the turn once per choice multiplied them.
    """
    least, most = ctx.library.least_from, ctx.library.most_from
    anywhere = expected.functor in ctx.library.single_act
    kept: dict[tuple[int, int], list] = {}  # by (first act taken, acts taken)
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
            for a in range(len(span) - take + 1) if anywhere else (0,):
                for kids, s3 in _match_steps(child, 0, span[a:a + take], s2, ctx):
                    tree = (child,) + kids
                    if _first_of_shape(kept.setdefault((a, take), []), tree, s3):
                        yield span[:a] + span[a + take:], tree, s3


def _first_of_shape(kept: list, tree: tuple[ActionSchema, ...], s: Substitution) -> bool:
    """Keep the derivation unless one kept before it from the same acts has
    its shape. A signature is taken only once the same acts have a second
    derivation, which most never do."""
    sig = None
    for entry in kept:
        if entry[2] is None:
            entry[2] = _parse_signature(entry[0], entry[1])
        sig = sig or _parse_signature(tree, s)
        if entry[2] == sig:
            return False
    kept.append([tree, s, sig])
    return True


def _name(tree: tuple[ActionSchema, ...], ctx: PlannerContext, first: str | None = None) -> tuple[str, ...]:
    """The names of a pre-order tree's nodes, primitives included, in walk
    order: the given name or a fresh one for its root, and a fresh one for
    every other node, minted in that order."""
    count = sum(1 + sum(st.kind is StepKind.PRIMITIVE for st in instance.steps) for instance in tree)
    mint = ctx.names.node_name
    return (first or mint().name,) + tuple(mint().name for _ in range(count - 1))


def _fill(
    plan: PlanDerivation, chosen: tuple[ActionSchema, ...], s: Substitution, ctx: PlannerContext
) -> EvaluationResult:
    """Commit a plan made from a tree: put the subtrees of chosen, in turn,
    in place of the plan's open nodes, in pre-order, under the bindings s,
    then evaluate the plan, judge it from that evaluation and keep the
    evaluation's bindings. A subtree ends where its instances' action steps
    have had all their subtrees. Each open node keeps its name, and the
    nodes under it are named in walk order."""
    tree, names, at = [], [], 0
    for _, _, name, node in plan.walk():
        if node is not None and type(node) is not ActionSchema:
            end, pending = at, 1
            while pending:
                pending += sum(st.kind is StepKind.ACTION for st in chosen[end].steps) - 1
                end += 1
            tree += chosen[at:end]
            names += _name(chosen[at:end], ctx, name)
            at = end
        elif name is not None:
            names.append(name)
            if node is not None:
                tree.append(node)
    plan.tree, plan.names, plan.bindings = tuple(tree), tuple(names), s
    result = evaluate(plan, ctx)
    ctx.judge(plan, result.bindings, result.error_node)
    plan.bindings = result.bindings
    return result


def _parse_signature(tree: tuple[ActionSchema, ...], s: Substitution) -> str:
    """The tree's shape and bindings up to renaming: a head's functor names
    its schema, which fixes how many subtrees follow it."""
    return canon(ListTerm(tuple(instance.head for instance in tree)), s)


def infer(ctx: PlannerContext, acts: list[Term]) -> InferenceResult:
    """Recognize and judge the plan behind surface acts, as heard: a
    description is derived from `refer`, a clarification act from each root
    it starts. The caller decides which plan a clarification may be about."""
    if not all(ctx.library.is_surface_act(act) for act in acts):
        return InferenceResult(Verdict.NO_DERIVATION)
    roots = ctx.library.meta_roots
    meta = any(a.functor in roots for a in acts)
    if meta and len(acts) != 1:
        return InferenceResult(Verdict.NO_DERIVATION)
    parses: list[tuple[tuple[ActionSchema, ...], Substitution]] = []
    for root in roots[acts[0].functor] if meta else ["refer"]:
        # the root's template head binds only its own variables, which no
        # state mints, and so copies nothing
        for _, tree, s in _derive(ctx.library.get(root).head, acts, Substitution(), ctx, 0, 0):
            parses.append((tree, s))
    return judge_parses(ctx, parses)


def judge_parses(
    ctx: PlannerContext, parses: list[tuple[tuple[ActionSchema, ...], Substitution]]
) -> InferenceResult:
    """Commit each parse as a registered plan, judged by its fill, and sum
    up: one valid reading is understood, several readings are ambiguous,
    and a single invalid one is in error where its evaluation blamed it."""
    if not parses:
        return InferenceResult(Verdict.NO_DERIVATION)
    candidates: list[tuple[PlanDerivation, EvaluationResult]] = []
    for tree, s in parses:
        pid = ctx.names.plan_name().name  # minted before the plan's nodes
        plan = PlanDerivation(pid, (tree[0].head,), (ctx.names.node_name().name,), s, tree[0].effect)
        ctx.register(plan)
        candidates.append((plan, _fill(plan, tree, s, ctx)))
    valid = [(p, r) for p, r in candidates if r.valid]
    if len(valid) == 1:
        return InferenceResult(Verdict.UNDERSTOOD, valid[0][0], None, candidates)
    if valid or len(candidates) > 1:
        return InferenceResult(Verdict.AMBIGUOUS, None, None, candidates)
    plan, result = candidates[0]
    return InferenceResult(Verdict.ERROR_AT, plan, result.error_node, candidates)


# ---------------------------------------------------------------------------
# Construction: uniform cost search over schema expansions
# ---------------------------------------------------------------------------

@dataclass
class _BuildState:
    """A plan under construction: its work queue, its bindings, the schema
    instances it chose, in pre-order, and its cost so far, in primitives and
    then nodes."""

    queue: tuple
    s: Substitution
    chosen: tuple[ActionSchema, ...] = ()
    prims: int = 0
    size: int = 0


class _Search:
    def __init__(self, ctx: PlannerContext, kept: frozenset = frozenset()):
        self.ctx = ctx
        self.kept = kept  # the keys of the modifiers a partial plan keeps
        self.heap: list = []
        self.seq = itertools.count()
        self.inseparable: dict[tuple[Const, Const], bool] = {}

    def push(self, state: _BuildState) -> None:
        heapq.heappush(self.heap, (state.prims, state.size, next(self.seq), state))

    def run(self) -> Iterator[_BuildState]:
        """The finished states, cheapest first."""
        pops = 0
        while self.heap:
            pops += 1
            if pops > SEARCH_CAP:
                raise NoPlanError("construction search exceeded its budget")
            state = heapq.heappop(self.heap)[3]
            if not state.queue:
                yield state
                continue
            (kind, what, arg), state.queue = state.queue[0], state.queue[1:]
            if kind == "expand":
                self._expand(state, what, arg)
            else:
                self._prove(state, what, arg)
        raise NoPlanError("no plan achieves the goal")

    def _expand(self, state: _BuildState, content: Term, depth: int) -> None:
        """Branch on each schema that can expand the open node with this
        content; depth counts the refer nodes on its path from the root,
        itself included."""
        content = state.s.walk(content)
        if type(content) is not Compound or content.functor == "refer" and depth > MAX_REFER_DEPTH:
            return
        for choice in self.ctx.library.concrete(content.functor):
            instance = self.ctx.library.get(choice).instantiate(self.ctx.names)
            s2 = unify_bridged(content, instance.head, state.s, self.ctx.library)
            if s2 is not None:
                self.grow(state, instance, s2, depth)

    def grow(self, state: _BuildState, instance: ActionSchema, s: Substitution, depth: int) -> None:
        """Push the state with its next open node expanded by the instance,
        whose head s already unifies with the node. The instance's steps but
        its primitives, which are already as built as they get, go to the
        front of the queue, and each primitive or action step opens a node."""
        work = tuple(
            ("expand", st.term, depth + (st.term.functor == "refer")) if st.kind is StepKind.ACTION
            else ("prove", instance, st.term)
            for st in instance.steps if st.kind is not StepKind.PRIMITIVE
        )
        prims = len(instance.steps) - len(work)
        opened = prims + sum(w[0] == "expand" for w in work)
        self.push(_BuildState(work + state.queue, s, state.chosen + (instance,),
                              state.prims + prims, state.size + opened))

    def _prove(self, state: _BuildState, owner: ActionSchema, term: Term) -> None:
        t = state.s.walk(term)
        if type(t) is not Compound:
            return
        try:
            sols = solve(t, state.s, self.ctx) or []  # one that must wait ends the branch
        except NoPlanError:  # replanning found no way to complete the plan
            return
        modifier = owner.name in self.ctx.library.concrete("modifier")
        if t.functor == "subset" and (owner.name == "headnoun" or modifier):
            sols = [s2 for s2 in sols if not self._dead_end(owner, t, s2)]
        if t.functor == "subset" and modifier:
            # a modifier must narrow its chain's candidates, so it never
            # repeats one before it in the chain; nor may it repeat one the
            # partial plan keeps
            sols = [s2 for s2 in sols if self._shrinks(t, s2)
                    and not (self.kept and modifier_key(owner, s2) in self.kept)]
        for s2 in sols:
            self.push(_BuildState(state.queue, s2, state.chosen, state.prims, state.size))

    def _dead_end(self, owner: ActionSchema, t: Compound, s: Substitution) -> bool:
        """Whether the candidates left by this subset still hold an object
        that no modifier can separate from the owner's referent, so that no
        completion of the branch ever narrows them to the referent alone."""
        referent = s.walk(owner.head.args[1])
        cands = s.resolve(t.args[2])
        if not (isinstance(referent, Const) and isinstance(cands, ListTerm)):
            return False
        for other in cands.items:
            if other == referent or not isinstance(other, Const):
                continue
            pair = (referent, other)
            if pair not in self.inseparable:
                self.inseparable[pair] = self.ctx.base.inseparable(referent, other)
            if self.inseparable[pair]:
                return True
        return False

    def _shrinks(self, t: Compound, s: Substitution) -> bool:
        before = s.walk(t.args[0])
        after = s.walk(t.args[2])
        return (
            isinstance(before, ListTerm)
            and isinstance(after, ListTerm)
            and len(after.items) < len(before.items)
        )


def modifier_key(instance: ActionSchema, s: Substitution) -> tuple[str, str, str]:
    """Identity of a modifier instance: its entity, its predicate, and the
    value or other object it relates the entity's referent to, read from
    its head and its constraint steps."""
    head = s.resolve(instance.head)
    assert isinstance(head, Compound)
    pred = other = ""
    for step in instance.steps:
        if step.kind is not StepKind.CONSTRAINT:
            continue
        c = s.resolve(step.term)
        if isinstance(c, Compound) and c.functor in ("modifier-pred", "modifier-rel-pred"):
            pred = canon(c.args[0])
        if isinstance(c, Compound) and c.functor == "bmb":
            inner = c.args[2]
            if isinstance(inner, Compound) and len(inner.args) == 2:
                other = canon(inner.args[1])
    return (canon(head.args[0]), pred, other)


def construct(ctx: PlannerContext, goal: Term) -> PlanDerivation:
    """Build the cheapest plan whose communicated effect matches the goal.

    Each effect schema whose effect matches the goal is copied once, as a
    root to search from. The search names nothing: the plan it finds gets
    its node ids, in walk order, and then its plan id."""
    search = _Search(ctx)
    for schema in ctx.library.effect_schemas():
        # the shared template's variables have uids below zero, so trying
        # its effect first captures nothing and copies no schema in vain
        if unify(schema.effect, goal) is None:
            continue
        instance = schema.instantiate(ctx.names)
        s0 = unify(instance.effect, goal)
        assert s0 is not None
        search.grow(_BuildState((), s0, size=1), instance, s0, int(instance.name == "refer"))
    if not search.heap:
        raise NoPlanError(f"no schema can achieve {format_term(goal)}")
    final = next(search.run())
    names = _name(final.chosen, ctx)
    plan = PlanDerivation(ctx.names.plan_name().name, final.chosen, names, final.s, final.chosen[0].effect)
    ctx.register(plan)
    if plan.tree[0].name == "refer":  # the search proved every step
        ctx.judge(plan, plan.bindings)
    return plan


def complete_plan(partial: PlanDerivation, ctx: PlannerContext) -> tuple[PlanDerivation, list[Term]]:
    """Expand a partial plan's open nodes, adding as few acts as possible,
    into the cheapest completion that its fill finds valid; the acts added
    are the surface acts of the finished tree that the partial plan lacked,
    in utterance order. Without one, NoPlanError. One walk finds the open
    nodes, each with the refer nodes on its path from the root, and the
    modifiers the plan keeps, which it may not reuse. The open nodes keep
    their names, and the nodes under them are named at each fill."""
    tree, names, s = partial.tree, partial.names, partial.bindings
    modifiers = ctx.library.concrete("modifier")
    depths: dict[str, int] = {}
    holes, queue, kept = [], [], set()
    for path, _, name, node in partial.walk():
        if node is None:
            continue
        depth = depths[name] = (depths[path[-1]] if path else 0) + (node_content(node).functor == "refer")
        if type(node) is not ActionSchema:
            holes.append(name)
            queue.append(("expand", node, depth))
        elif node.name in modifiers:
            kept.add(modifier_key(node, s))
    search = _Search(ctx, frozenset(kept))
    search.push(_BuildState(tuple(queue), s, size=len(names)))
    for final in search.run():  # which raises NoPlanError once its heap runs out
        if _fill(partial, final.chosen, final.s, ctx).valid:
            return partial, [act for hole in holes for act in partial.yield_of(hole)]
        partial.tree, partial.names, partial.bindings = tree, names, s

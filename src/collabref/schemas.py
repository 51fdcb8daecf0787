"""The action schema library.

Schemas describe how dialogue acts decompose. A referring expression is a
plan: refer -> describe -> headnoun plus modifiers, each modifier narrowing
the candidate set until exactly the intended object is left. Clarification
moves (accept, reject, postpone, propose-actions) are plans about plans.

Each schema carries, in order:
  constraints    conditions on the speaker's mental state
  steps          a mix of mental actions (pick-one, =, substitute, replan),
                 surface primitives, and sub-actions

Abstract schemas (modifiers, modifier) never appear in finished plans; one
of their specializations stands in.

The library text is the one statement of the schema vocabulary. Each
schema is a block of lines, and each step line starts with its kind. The
library derives the rest from the parsed schemas: each surface act's
arity (from the primitive steps), the roots each clarification act
starts (the effect schemas with no action step that utter it) and each
abstract action's specializations.

The library text is parsed once per process, on the first `build_library`
call, and every mental state shares the one library. Its variables take
uids from a reserved range below zero, which no state's `NameSource`
reaches, and no schema is ever used as it stands: `instantiate` copies it
with a fresh variable, from the state's own `NameSource`, for each of its
free variables, which each schema lists once. Variables have
their own stream in a `NameSource`, so none of this moves a public plan or
node id. The library also records, once, the fewest and the most surface
acts each schema can yield, which lets recognition skip act spans too
short or too long to derive, and so the actions that yield exactly one
act, which recognition lets take it from anywhere in the parent's span.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .errors import PlanError
from .terms import Compound, Const, Lam, ListTerm, NameSource, Term, TermReader, Var, variables_of

# More surface acts than any span holds: the yield of a schema that cannot
# be derived at all.
_UNBOUNDED = 1 << 30


class StepKind(enum.Enum):
    CONSTRAINT = "constraint"
    MENTAL = "mental"
    PRIMITIVE = "primitive"
    ACTION = "action"


@dataclass(frozen=True)
class Step:
    kind: StepKind
    term: Term


@dataclass(frozen=True)
class ActionSchema:
    name: str
    head: Compound
    steps: tuple[Step, ...]
    effect: Term | None
    abstract: bool = False
    specializes: str | None = None

    @functools.cached_property
    def variables(self) -> tuple[Var, ...]:
        """Free variables of head, steps and effect, in first-occurrence order."""
        terms = [self.head] + [st.term for st in self.steps]
        if self.effect is not None:
            terms.append(self.effect)
        return tuple(variables_of(Compound("$schema", tuple(terms))))

    def instantiate(self, names: NameSource) -> "ActionSchema":
        """Fresh copy with all free variables renamed apart, consistently."""
        mapping = {v.uid: names.fresh_var(v.name) for v in self.variables}
        return ActionSchema(
            self.name,
            _copy(self.head, mapping),
            tuple([Step(st.kind, _copy(st.term, mapping)) for st in self.steps]),
            None if self.effect is None else _copy(self.effect, mapping),
            self.abstract,
            self.specializes,
        )


def _copy(t: Term, mapping: dict[int, Var]) -> Term:
    """t with its variables renamed by uid. A lambda parameter in mapping is
    renamed along with its occurrences, which keeps the lambda the same up
    to renaming, so no scope needs tracking. A leaf argument is copied in
    place: the walk calls itself only on a compound, list or lambda."""
    kind = type(t)
    if kind is Var:
        return mapping.get(t.uid, t)
    if kind is Compound or kind is ListTerm:
        new = tuple([a if type(a) is Const else mapping.get(a.uid, a) if type(a) is Var else _copy(a, mapping)
                     for a in (t.args if kind is Compound else t.items)])
        return Compound(t.functor, new) if kind is Compound else ListTerm(new)
    if kind is Lam:
        params = tuple([mapping.get(p.uid, p) for p in t.params])
        return Lam(params, _copy(t.body, mapping))
    return t


class SchemaLibrary:
    """The schemas, by name in library order, and the vocabulary they
    define: each surface act's arity, the schemas each clarification act
    starts, and each abstract action's specializations."""

    def __init__(self, schemas: list[ActionSchema]):
        self.by_name: dict[str, ActionSchema] = {}
        self.specializations: dict[str, list[str]] = {}
        self.primitives: dict[str, int] = {}
        self.meta_roots: dict[str, list[str]] = {}
        for sc in schemas:
            if sc.name in self.by_name:
                raise PlanError(f"duplicate schema {sc.name}")
            self.by_name[sc.name] = sc
            if sc.specializes:
                self.specializations.setdefault(sc.specializes, []).append(sc.name)
            acts = [st.term for st in sc.steps if st.kind is StepKind.PRIMITIVE]
            self.primitives.update((act.functor, len(act.args)) for act in acts)
            # a root that manipulates a plan utters its act and derives no action
            if sc.effect is not None and all(st.kind is not StepKind.ACTION for st in sc.steps):
                for act in acts:
                    self.meta_roots.setdefault(act.functor, []).append(sc.name)
        self.least_from = self._yields(schemas, min, 0)
        self.most_from = self._yields(schemas, max, _UNBOUNDED)
        # the actions that yield exactly one act, such as a head noun or a
        # root that utters one clarification act
        self.single_act = {n for n, ys in self.least_from.items() if ys[0] == self.most_from[n][0] == 1}

    def _yields(self, schemas: list[ActionSchema], pick, unknown: int) -> dict[str, tuple[int, ...]]:
        """For each schema, the fewest (pick=min) or the most (pick=max)
        surface acts its steps from i on can yield, for each i up to and
        including len(steps). An abstract schema, which has no steps, gets
        the pick of its specializations'; an action naming no schema counts
        as unknown. Relaxed down from unbounded until nothing changes, since
        schemas recurse; so the most is exact where no recursive schema is
        reachable and stays unbounded where one is."""
        best = {sc.name: _UNBOUNDED for sc in schemas}

        def cost(st: Step) -> int:
            if st.kind is StepKind.ACTION:
                return best.get(st.term.functor, unknown)
            return int(st.kind is StepKind.PRIMITIVE)

        changed = True
        while changed:
            changed = False
            for sc in schemas:
                if sc.abstract:
                    new = pick((best[n] for n in self.specializations.get(sc.name, ())), default=_UNBOUNDED)
                else:
                    new = min(_UNBOUNDED, sum(cost(st) for st in sc.steps))
                if new < best[sc.name]:
                    best[sc.name], changed = new, True
        out = {}
        for sc in schemas:
            suffix = [0]
            for st in reversed(sc.steps):
                suffix.append(min(_UNBOUNDED, suffix[-1] + cost(st)))
            out[sc.name] = (best[sc.name],) if sc.abstract else tuple(reversed(suffix))
        return out

    def get(self, name: str) -> ActionSchema:
        try:
            return self.by_name[name]
        except KeyError:
            raise PlanError(f"no schema named {name}") from None

    def effect_schemas(self) -> list[ActionSchema]:
        return [sc for sc in self.by_name.values() if sc.effect is not None]

    def concrete(self, functor: str) -> list[str]:
        """The schemas that can stand for an action: its specializations,
        or the action itself."""
        return self.specializations.get(functor, [functor])

    def is_surface_act(self, t: Term) -> bool:
        """Whether t is a surface act of the library, with its arity."""
        return isinstance(t, Compound) and self.primitives.get(t.functor) == len(t.args)


_LIBRARY_TEXT = """
schema refer(Entity, Object)
  constraint knowref(Speaker, Speaker, Entity, Object)
  primitive s-refer(Entity)
  action describe(Entity, Object)
  effect bel(Hearer, goal(Speaker, knowref(Hearer, Speaker, Entity, Object)))

schema describe(Entity, Object)
  action headnoun(Entity, Object, Cand)
  action modifiers(Entity, Object, Cand)

schema headnoun(Entity, Object, Cand)
  constraint world(World)
  constraint bmb(Speaker, Hearer, category(Object, Category))
  constraint subset(World, lambda(X, bmb(Speaker, Hearer, category(X, Category))), Cand)
  primitive s-attrib(Entity, lambda(X, category(X, Category)))

abstract modifiers(Entity, Object, Cand)

schema modifiers-terminate(Entity, Object, Cand) specializes modifiers
  constraint Cand = [Object]

schema modifiers-recurse(Entity, Object, Cand) specializes modifiers
  action modifier(Entity, Object, Cand, NewCand)
  action modifiers(Entity, Object, NewCand)

abstract modifier(Entity, Object, Cand, NewCand)

schema modifier-absolute(Entity, Object, Cand, NewCand) specializes modifier
  constraint modifier-pred(Pred)
  constraint bmb(Speaker, Hearer, apply(Pred, Object))
  constraint subset(Cand, lambda(X, bmb(Speaker, Hearer, apply(Pred, X))), NewCand)
  primitive s-attrib(Entity, Pred)

schema modifier-relative(Entity, Object, Cand, NewCand) specializes modifier
  constraint modifier-rel-pred(Pred)
  constraint bmb(Speaker, Hearer, apply(Pred, Object, OtherObject))
  constraint subset(Cand, lambda(X, bmb(Speaker, Hearer, apply(Pred, X, OtherObject))), NewCand)
  primitive s-attrib-rel(Entity, OtherEntity, Pred)
  action refer(OtherEntity, OtherObject)

schema accept-plan(Plan)
  constraint bel(Speaker, achieve(Plan, Goal))
  primitive s-accept(Plan)
  effect bel(Hearer, goal(Speaker, bel(Hearer, bel(Speaker, achieve(Plan, Goal)))))

schema reject-plan(Plan, Acts)
  constraint bel(Speaker, error(Plan, ErrorNode))
  constraint yield(Plan, ErrorNode, Acts)
  constraint not(Acts = [])
  primitive s-reject(Plan, Acts)
  effect bel(Hearer, goal(Speaker, bel(Hearer, bel(Speaker, error(Plan, ErrorNode)))))

schema postpone-plan(Plan, Acts)
  constraint bel(Speaker, error(Plan, ErrorNode))
  constraint yield(Plan, ErrorNode, Acts)
  constraint Acts = []
  primitive s-postpone(Plan, Acts)
  effect bel(Hearer, goal(Speaker, bel(Hearer, bel(Speaker, error(Plan, ErrorNode)))))

schema replace-plan(Plan, Acts)
  constraint bel(Speaker, error(Plan, ErrorNode))
  constraint content(Plan, ErrorNode, ErrorContent)
  constraint ErrorContent = modifier(Entity, OldObject, Cand, OldNewCand)
  mental pick-one(Object, Cand)
  mental Replacement = modifier(Entity, Object, Cand, NewCand)
  mental substitute(Plan, ErrorNode, Replacement, NewPlan)
  mental replan(NewPlan, Acts)
  primitive s-actions(Plan, Acts)
  effect bel(Hearer, goal(Speaker, bel(Hearer, bel(Speaker, replace(Plan, NewPlan)))))

schema expand-plan(Plan, Acts)
  constraint bel(Speaker, error(Plan, ErrorNode))
  constraint content(Plan, ErrorNode, ErrorContent)
  constraint ErrorContent = modifiers-terminate(Entity, OldObject, Cand)
  mental pick-one(Object, Cand)
  mental Replacement = modifiers-recurse(Entity, Object, Cand)
  mental substitute(Plan, ErrorNode, Replacement, NewPlan)
  mental replan(NewPlan, Acts)
  primitive s-actions(Plan, Acts)
  effect bel(Hearer, goal(Speaker, bel(Hearer, bel(Speaker, replace(Plan, NewPlan)))))
"""


def build_library(names: NameSource) -> SchemaLibrary:
    """The schema library, shared by every mental state of the process.

    names is not used: a state mints its variables when it instantiates a
    schema, from the NameSource it passes to `instantiate`.
    """
    return _library()


# The library's variables take uids from here up, and a NameSource counts
# from 1 unless told otherwise, so a library variable never meets a
# state's.
_TEMPLATE_START = -1_000_000


@functools.cache
def _library() -> SchemaLibrary:
    return SchemaLibrary(_parse_library(NameSource(_TEMPLATE_START)))


def _parse_library(names: NameSource) -> list[ActionSchema]:
    """Parse the library text, one blank-line-separated block per schema,
    minting its variables from names."""
    return [_parse_schema(block, names) for block in _LIBRARY_TEXT.strip().split("\n\n")]


def _parse_schema(block: str, names: NameSource) -> ActionSchema:
    """A `schema` or `abstract` head line, optionally naming the action it
    specializes, then a line per step led by its kind and at most one
    effect line. A schema that mentions an agent first asks who speaks and
    who hears."""
    reader = TermReader(names)
    (word, head_text), *lines = [line.strip().split(" ", 1) for line in block.splitlines()]
    head_text, _, specializes = head_text.partition(" specializes ")
    head = reader.read(head_text)
    steps, effect = [], None
    for kind, text in lines:
        if kind == "effect":
            effect = reader.read(text)
        else:
            steps.append(Step(StepKind(kind), reader.read(text)))
    if "Speaker" in reader.words or "Hearer" in reader.words:
        steps[:0] = [Step(StepKind.CONSTRAINT, reader.read(t)) for t in ("speaker(Speaker)", "hearer(Hearer)")]
    return ActionSchema(head.functor, head, tuple(steps), effect, word == "abstract", specializes or None)

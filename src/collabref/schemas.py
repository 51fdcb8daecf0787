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

Primitive surface acts and their arities:
  s-refer/1  s-attrib/2  s-attrib-rel/3
  s-accept/1  s-reject/2  s-postpone/2  s-actions/2

The library text is parsed once per process, on the first `build_library`
call, and every mental state shares the one library. Its variables take
uids from a reserved range below zero, which no state's `NameSource`
reaches, and no schema is ever used as it stands: `instantiate` copies it
with a fresh variable, from the state's own `NameSource`, for each of its
free variables, which each schema lists once. Variables have
their own stream in a `NameSource`, so none of this moves a public plan or
node id. The library also records, once, the fewest and the most surface
acts each schema can yield, which lets recognition skip act spans too
short or too long to derive.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .errors import PlanError
from .terms import Compound, Lam, ListTerm, NameSource, Term, TermReader, Var, variables_of

PRIMITIVES: dict[str, int] = {
    "s-refer": 1,
    "s-attrib": 2,
    "s-attrib-rel": 3,
    "s-accept": 1,
    "s-reject": 2,
    "s-postpone": 2,
    "s-actions": 2,
}

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
    to renaming, so no scope needs tracking."""
    kind = type(t)
    if kind is Var:
        return mapping.get(t.uid, t)
    if kind is Compound:
        return Compound(t.functor, tuple([_copy(a, mapping) for a in t.args]))
    if kind is ListTerm:
        return ListTerm(tuple([_copy(i, mapping) for i in t.items]))
    if kind is Lam:
        params = tuple([mapping.get(p.uid, p) for p in t.params])
        return Lam(params, _copy(t.body, mapping))
    return t


class SchemaLibrary:
    def __init__(self, schemas: list[ActionSchema]):
        self.by_name: dict[str, ActionSchema] = {}
        self.order: list[str] = []
        for sc in schemas:
            if sc.name in self.by_name:
                raise PlanError(f"duplicate schema {sc.name}")
            self.by_name[sc.name] = sc
            self.order.append(sc.name)
        self.specializations: dict[str, list[str]] = {}
        for sc in schemas:
            if sc.specializes:
                self.specializations.setdefault(sc.specializes, []).append(sc.name)
        self.least_from = self._yields(schemas, min, 0)
        self.most_from = self._yields(schemas, max, _UNBOUNDED)

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
        return [self.by_name[n] for n in self.order if self.by_name[n].effect is not None]

    def parent_of(self, name: str) -> str | None:
        return self.by_name[name].specializes if name in self.by_name else None

    def is_abstract(self, functor: str) -> bool:
        return functor in self.by_name and self.by_name[functor].abstract


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
    """Parse the library text, minting its variables from names."""
    schemas: list[ActionSchema] = []
    cur: dict | None = None

    def flush():
        nonlocal cur
        if cur is None:
            return
        steps = list(cur["steps"])
        mentioned = set()
        for t in [cur["head"], cur["effect"]] + [st.term for st in steps]:
            if t is not None:
                mentioned.update(v.name for v in variables_of(t))
        prefix: list[Step] = []
        reader: TermReader = cur["reader"]
        if "Speaker" in mentioned or "Hearer" in mentioned:
            prefix.append(Step(StepKind.CONSTRAINT, reader.read("speaker(Speaker)")))
            prefix.append(Step(StepKind.CONSTRAINT, reader.read("hearer(Hearer)")))
        schemas.append(
            ActionSchema(
                name=cur["name"],
                head=cur["head"],
                steps=tuple(prefix + steps),
                effect=cur["effect"],
                abstract=cur["abstract"],
                specializes=cur["specializes"],
            )
        )
        cur = None

    for raw in _LIBRARY_TEXT.splitlines():
        line = raw.strip()
        if not line:
            continue
        word, _, rest = line.partition(" ")
        if word in ("schema", "abstract"):
            flush()
            specializes = None
            if " specializes " in rest:
                rest, _, specializes = rest.rpartition(" specializes ")
                specializes = specializes.strip()
            reader = TermReader(names)
            head = reader.read(rest.strip())
            if not isinstance(head, Compound):
                raise PlanError(f"bad schema head {rest!r}")
            cur = {
                "name": head.functor,
                "head": head,
                "steps": [],
                "effect": None,
                "abstract": word == "abstract",
                "specializes": specializes,
                "reader": reader,
            }
            continue
        if cur is None:
            raise PlanError(f"schema text outside any schema: {line!r}")
        reader = cur["reader"]
        if word == "constraint":
            cur["steps"].append(Step(StepKind.CONSTRAINT, reader.read(rest)))
        elif word == "mental":
            cur["steps"].append(Step(StepKind.MENTAL, reader.read(rest)))
        elif word == "primitive":
            term = reader.read(rest)
            if not (isinstance(term, Compound) and term.functor in PRIMITIVES):
                raise PlanError(f"not a surface primitive: {rest!r}")
            if len(term.args) != PRIMITIVES[term.functor]:
                raise PlanError(f"bad arity for {term.functor}: {rest!r}")
            cur["steps"].append(Step(StepKind.PRIMITIVE, term))
        elif word == "action":
            cur["steps"].append(Step(StepKind.ACTION, reader.read(rest)))
        elif word == "effect":
            cur["effect"] = reader.read(rest)
        else:
            raise PlanError(f"unknown schema line {line!r}")
    flush()
    return schemas


def check_primitive_act(t: Term) -> None:
    if not isinstance(t, Compound) or t.functor not in PRIMITIVES:
        raise PlanError(f"not a surface act: {t!r}")
    want = PRIMITIVES[t.functor]
    if len(t.args) != want:
        raise PlanError(f"{t.functor} takes {want} arguments")

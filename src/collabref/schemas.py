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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import PlanError
from .terms import Compound, NameSource, Term, TermReader, rename_apart, variables_of

PRIMITIVES: dict[str, int] = {
    "s-refer": 1,
    "s-attrib": 2,
    "s-attrib-rel": 3,
    "s-accept": 1,
    "s-reject": 2,
    "s-postpone": 2,
    "s-actions": 2,
}


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

    def instantiate(self, names: NameSource) -> "ActionSchema":
        """Fresh copy with all variables renamed apart, consistently."""
        shell = Compound(
            "$schema",
            (self.head,) + tuple(st.term for st in self.steps) + ((self.effect,) if self.effect else ()),
        )
        fresh = rename_apart(shell, names)
        assert isinstance(fresh, Compound)
        head = fresh.args[0]
        assert isinstance(head, Compound)
        n = len(self.steps)
        steps = tuple(
            Step(self.steps[i].kind, fresh.args[1 + i]) for i in range(n)
        )
        effect = fresh.args[1 + n] if self.effect else None
        return ActionSchema(self.name, head, steps, effect, self.abstract, self.specializes)


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
    return SchemaLibrary(schemas)


def check_primitive_act(t: Term) -> None:
    if not isinstance(t, Compound) or t.functor not in PRIMITIVES:
        raise PlanError(f"not a surface act: {t!r}")
    want = PRIMITIVES[t.functor]
    if len(t.args) != want:
        raise PlanError(f"{t.functor} takes {want} arguments")

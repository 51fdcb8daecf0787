"""Scenario files: worlds and scripted dialogues in a small text format.

A scenario names the domain objects, seeds the belief buckets, whitelists
the predicates descriptions may use, and scripts the turns. Example:

    objects: fern1 tv1
    common_ground:
      category(fern1, creature)
      category(tv1, television)
    modifier_rel_preds: on
    turns:
      user: s-refer(entity1); s-attrib(entity1, lambda(X, category(X, creature)))
      system: expect s-accept(_)

Lines starting with `#` (or trailing `#` comments) are ignored. A user
turn lists the acts of one contribution, separated by `;`, all sharing
one variable table; its s-refer, s-attrib and s-attrib-rel acts name
constant entities, and each of its lambdas uses every parameter and has no
free variable. No object or entity may be named like the plan and node
ids the engine mints (`p7`, `n12`). `current` in a user turn names the
plan under discussion. A system turn is either `expect <pattern>`, matched by
unification against the system's next utterance (a list pattern matches
the whole utterance, a single act pattern an utterance of one act), or
`run`, which lets the system speak unchecked. Consecutive system lines
form one speaking turn checked utterance by utterance.

The runner executes turns against a fresh mental state and returns the
full event log as a transcript; the same scenario always produces the
same bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .beliefs import BeliefBase, Bucket
from .collab import MentalState
from .errors import NotUnderstoodError, ScenarioError, TermSyntaxError
from .schemas import build_library
from .terms import (
    Compound,
    Const,
    Lam,
    ListTerm,
    NameSource,
    Term,
    TermReader,
    format_term,
    is_ground,
    map_term,
    unify,
    variables_of,
    visit,
)

_FACT_SECTIONS = ("common_ground", "private", "user_model")
_NAME_SECTIONS = ("objects", "modifier_preds", "modifier_rel_preds", "pick_order")
_SECTIONS = _FACT_SECTIONS + _NAME_SECTIONS + ("turns",)

# How many leading arguments of each referring act name entities.
_ENTITY_ARGS = {"s-refer": 1, "s-attrib": 1, "s-attrib-rel": 2}
# The form of the plan and node ids the engine mints, which an object or
# entity name would be mistaken for.
_MINTED_ID = re.compile(r"[pn][0-9]+")


@dataclass
class Turn:
    line: int
    speaker: str
    acts: list[Term] | None = None
    expect: Term | None = None


@dataclass
class Scenario:
    objects: list[str] = field(default_factory=list)
    common_ground: list[Term] = field(default_factory=list)
    private: list[Term] = field(default_factory=list)
    user_model: list[Term] = field(default_factory=list)
    modifier_preds: list[str] = field(default_factory=list)
    modifier_rel_preds: list[str] = field(default_factory=list)
    pick_order: list[str] = field(default_factory=list)
    turns: list[Turn] = field(default_factory=list)


def load_scenario(text: str, names: NameSource) -> Scenario:
    sc = Scenario()
    declared: dict[str, int] = {}  # how often each object is declared
    section: str | None = None
    facts = TermReader(names)  # facts are ground, so no variable outlives its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, colon, rest = line.partition(":")
        head = head.strip()
        if colon and head in _SECTIONS:
            section, line = head, rest.strip()
            if not line:
                continue
            if section == "turns" or section in _FACT_SECTIONS:
                raise ScenarioError(f"section {section} takes indented lines", lineno)
        elif section is None:
            raise ScenarioError(f"content before any section: {line!r}", lineno)
        if section in _NAME_SECTIONS:
            for name in line.split() if section == "objects" else ():
                _check_not_minted("object", name, lineno)
                declared[name] = declared.get(name, 0) + 1
            getattr(sc, section).extend(line.split())
        elif section in _FACT_SECTIONS:
            getattr(sc, section).append(_read_fact(line, lineno, facts, declared))
        else:
            sc.turns.append(_read_turn(head, rest, colon, lineno, names))
    _validate(sc, declared)
    return sc


def _check_not_minted(what: str, name: str, lineno: int) -> None:
    if _MINTED_ID.fullmatch(name):
        raise ScenarioError(f"{what} name {name} has the form of a plan or node id", lineno)


def _read_fact(line: str, lineno: int, reader: TermReader, declared: dict[str, int]) -> Term:
    try:
        fact = reader.read(line)
    except TermSyntaxError as err:
        raise ScenarioError(str(err), lineno) from err
    if not isinstance(fact, Compound) or not fact.args:
        raise ScenarioError(f"a fact must be a compound: {line!r}", lineno)
    if not is_ground(fact):
        raise ScenarioError(f"facts must be ground: {line!r}", lineno)
    subject = fact.args[0]
    if not (isinstance(subject, Const) and subject.name in declared):
        raise ScenarioError(
            f"fact subject {format_term(subject)} is not a declared object", lineno
        )
    return fact


def _read_turn(head: str, rest: str, colon: str, lineno: int, names: NameSource) -> Turn:
    if not colon or head not in ("user", "system"):
        raise ScenarioError(f"a turn starts with 'user:' or 'system:': {head!r}", lineno)
    rest = rest.strip()
    reader = TermReader(names)
    if head == "user":
        if not rest:
            raise ScenarioError("a user turn needs at least one act", lineno)
        acts = []
        for part in rest.split(";"):
            try:
                act = reader.read(part.strip())
            except TermSyntaxError as err:
                raise ScenarioError(str(err), lineno) from err
            if isinstance(act, Compound):
                for arg in act.args[: _ENTITY_ARGS.get(act.functor, 0)]:
                    if not isinstance(arg, Const):
                        raise ScenarioError(
                            f"{act.functor} needs a constant entity, got {format_term(arg)}",
                            lineno,
                        )
                    _check_not_minted("entity", arg.name, lineno)
            visit(act, lambda t, bound: _check_lambda(t, bound, lineno))
            acts.append(act)
        return Turn(lineno, "user", acts=acts)
    if rest == "run":
        return Turn(lineno, "system")
    command, _, pattern = rest.partition(" ")
    if command != "expect" or not pattern.strip():
        raise ScenarioError(f"a system turn is 'run' or 'expect <pattern>': {rest!r}", lineno)
    try:
        expect = reader.read(pattern.strip())
    except TermSyntaxError as err:
        raise ScenarioError(str(err), lineno) from err
    return Turn(lineno, "system", expect=expect)


def _check_lambda(t: Term, bound: frozenset[int], lineno: int) -> bool:
    """A user's lambda must use each parameter and have no free variable,
    which unification could otherwise bind to one of its parameters."""
    if isinstance(t, Lam):
        params = {p.uid for p in t.params}
        used = {v.uid: v for v in variables_of(t.body)}
        for p in t.params:
            if p.uid not in used:
                raise ScenarioError(
                    f"lambda {format_term(t)} does not use its parameter {p.name}", lineno
                )
        for uid, v in used.items():
            if uid not in params and uid not in bound:
                raise ScenarioError(
                    f"lambda {format_term(t)} has the free variable {v.name}", lineno
                )
    return False


def _validate(sc: Scenario, declared: dict[str, int]) -> None:
    if not sc.objects:
        raise ScenarioError("a scenario must declare objects")
    dupes = {o for o, n in declared.items() if n > 1}
    if dupes:
        raise ScenarioError(f"objects declared twice: {sorted(dupes)}")
    for name in sc.pick_order:
        if name not in declared:
            raise ScenarioError(f"pick_order names unknown object {name}")
    if not sc.turns:
        raise ScenarioError("a scenario must script at least one turn")


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

@dataclass
class Transcript:
    lines: list[str]
    resolution: Term | None
    ok: bool

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def build_state(sc: Scenario, names: NameSource) -> MentalState:
    library = build_library(names)
    base = BeliefBase(sc.objects, names, sc.modifier_preds, sc.modifier_rel_preds)
    for fact in sc.common_ground:
        base.assert_prop(Bucket.COMMON_GROUND, fact)
    for fact in sc.private:
        base.assert_prop(Bucket.PRIVATE, fact)
    for fact in sc.user_model:
        base.assert_prop(Bucket.USER_MODEL, fact)
    return MentalState(base, library, names, sc.pick_order)


def run_scenario(sc: Scenario, names: NameSource) -> Transcript:
    ms = build_state(sc, names)
    ok = True
    turn_no = 0
    i = 0
    while i < len(sc.turns):
        turn = sc.turns[i]
        turn_no += 1
        ms.log.add(f"turn {turn_no} {turn.speaker}")
        if turn.speaker == "user":
            acts = [_resolve_current(a, ms, turn.line) for a in turn.acts]
            _note_entities(acts, names)
            try:
                ms.hearer_step(acts)
            except NotUnderstoodError as err:
                ms.log.add(f"not understood: {err}")
                ok = False
                break
            i += 1
            continue
        group: list[Turn] = []
        while i < len(sc.turns) and sc.turns[i].speaker == "system":
            group.append(sc.turns[i])
            i += 1
        utterances = ms.speaker_step()
        for j, expected in enumerate(group):
            if expected.expect is None:
                continue
            if j >= len(utterances):
                ms.log.add(f"expect MISMATCH wanted={format_term(expected.expect)} got=nothing")
                ok = False
            elif _matches(expected.expect, utterances[j]):
                ms.log.add(f"expect ok {format_term(expected.expect)}")
            else:
                got = utterances[j]
                shown = format_term(got[0] if len(got) == 1 else ListTerm(tuple(got)))
                ms.log.add(
                    f"expect MISMATCH wanted={format_term(expected.expect)} got={shown}"
                )
                ok = False
    resolution = ms.resolution()
    if resolution is not None:
        ms.log.add(f"dialogue complete: mutual {format_term(resolution)}")
    else:
        ms.log.add("dialogue ended unresolved")
    return Transcript(ms.log.lines, resolution, ok)


def run_text(text: str) -> Transcript:
    names = NameSource()
    return run_scenario(load_scenario(text, names), names)


def _matches(pattern: Term, acts: list[Term]) -> bool:
    if isinstance(pattern, ListTerm):
        return unify(pattern, ListTerm(tuple(acts))) is not None
    return len(acts) == 1 and unify(pattern, acts[0]) is not None


def _resolve_current(term: Term, ms: MentalState, lineno: int) -> Term:
    def current(t: Term, _bound) -> Term:
        if not (isinstance(t, Const) and t.name == "current"):
            return t
        if ms.scope is None:
            raise ScenarioError("'current' used before any referring plan", lineno)
        return Const(ms.scope)

    return map_term(term, current)


def _note_entities(acts: list[Term], names: NameSource) -> None:
    def note(t: Term, _bound) -> None:
        if isinstance(t, Const):
            names.note_entity(t.name)

    for act in acts:
        visit(act, note)

"""The system's mental state: worlds, beliefs, and belief queries.

Four buckets of propositions, all held from the system's point of view:

  common_ground   facts the system takes as mutually believed with the user;
                  a bare proposition P here stands for "mutually believed P"
  private         the system's own beliefs: P here means bel(system, P)
  user_model      what the system believes the user believes: P here means
                  bel(system, bel(user, P))
  goals           goals the system has adopted

Stored propositions may contain variables (read existentially). Whether a
proposition is ground is recorded once, when it is asserted. Each bucket
files its ground propositions under (functor, arity) and, when the first
argument is a constant, under (functor, arity, constant) too, as WAM
first-argument indexing does. A query resolves its pattern's functor and
first argument, takes the most specific key that fits, and unifies the
ground propositions filed there as they are. Non-ground propositions are
not indexed: every one of them is renamed apart on every query, so callers
never capture store variables, and the candidates are merged back into
insertion order.

Renaming a ground proposition apart mints no ids, so skipping it leaves the
NameSource counter where the plain scan of the whole bucket left it: plan,
node and variable ids, and so transcripts, do not depend on the index.

Queries arrive as goal terms (bel(...), bmb(...), world(...), plain facts)
and answer with a list of substitutions, one per solution, in a stable
order: bucket insertion order, with derived readings after stored ones.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import QueryError
from .terms import (
    Compound,
    Const,
    Lam,
    ListTerm,
    NameSource,
    Substitution,
    Term,
    Var,
    canon,
    is_ground,
    mk,
    rename_apart,
    unify,
)

SYSTEM = Const("system")
USER = Const("user")


class Bucket(enum.Enum):
    COMMON_GROUND = "common_ground"
    PRIVATE = "private"
    USER_MODEL = "user_model"
    GOALS = "goals"


@dataclass
class Perspective:
    """Who is speaking and who is listening right now."""

    speaker: str
    hearer: str


# One stored proposition: (insertion number, proposition, is it ground).
Entry = tuple[int, Term, bool]


class _Store:
    """One bucket: its propositions in insertion order, plus their index."""

    def __init__(self, entries: Iterable[Entry] = ()):
        self.entries: list[Entry] = []
        self.keys: set[str] = set()
        self.functors: set[str] = set()
        self.ground: dict[tuple, list[Entry]] = {}
        self.nonground: list[Entry] = []
        for entry in entries:
            self.add(entry, canon(entry[1]))

    def add(self, entry: Entry, key: str) -> None:
        _, prop, ground = entry
        self.entries.append(entry)
        self.keys.add(key)
        if isinstance(prop, Compound):
            self.functors.add(prop.functor)
        if not ground:
            self.nonground.append(entry)
        elif isinstance(prop, Compound):
            top = (prop.functor, len(prop.args))
            self.ground.setdefault(top, []).append(entry)
            if prop.args and isinstance(prop.args[0], Const):
                self.ground.setdefault(top + (prop.args[0].name,), []).append(entry)

    def candidates(self, key: tuple | None):
        """Every entry that could unify with a pattern of this key, in order.

        Insertion numbers are unique, so merging never compares propositions.
        """
        if key is None:
            return self.entries
        filed = self.ground.get(key, ())
        if not self.nonground:
            return filed
        return heapq.merge(filed, self.nonground) if filed else self.nonground


def _key(pattern: Term, s: Substitution) -> tuple | None:
    """The most specific index key a pattern fits; None means any entry."""
    pattern = s.walk(pattern)
    if not isinstance(pattern, Compound):
        return None
    top = (pattern.functor, len(pattern.args))
    if pattern.args:
        first = s.walk(pattern.args[0])
        if isinstance(first, Const):
            return top + (first.name,)
    return top


class BeliefBase:
    def __init__(
        self,
        objects: list[str],
        names: NameSource,
        modifier_preds: list[str] | None = None,
        modifier_rel_preds: list[str] | None = None,
    ):
        self.objects = list(objects)
        self.names = names
        self.modifier_preds = list(modifier_preds or [])
        self.modifier_rel_preds = list(modifier_rel_preds or [])
        self._stores: dict[Bucket, _Store] = {b: _Store() for b in Bucket}
        self._seq = itertools.count()
        for name in objects:
            names.note_entity(name)

    # -- storage ------------------------------------------------------------

    def items(self, bucket: Bucket) -> list[Term]:
        return [prop for _, prop, _ in self._stores[bucket].entries]

    def assert_prop(self, bucket: Bucket, prop: Term, s: Substitution | None = None) -> bool:
        """Add a proposition; returns False if an alpha-equal one is present."""
        if s is not None:
            prop = s.resolve(prop)
        key = canon(prop)
        store = self._stores[bucket]
        if key in store.keys:
            return False
        store.add((next(self._seq), prop, is_ground(prop)), key)
        return True

    def retract_matching(self, bucket: Bucket, pattern: Term) -> list[Term]:
        """Remove every proposition unifying with pattern; returns removals."""
        kept: list[Entry] = []
        removed: list[Term] = []
        for entry in self._stores[bucket].entries:
            _, item, ground = entry
            fresh = item if ground else rename_apart(item, self.names)
            if unify(pattern, fresh) is not None:
                removed.append(item)
            else:
                kept.append(entry)
        if removed:
            self._stores[bucket] = _Store(kept)
        return removed

    # -- queries ------------------------------------------------------------

    def query(self, goal: Term, persp: Perspective, s: Substitution) -> list[Substitution]:
        goal = s.resolve(goal)
        if isinstance(goal, Compound):
            f = goal.functor
            if f == "speaker" and len(goal.args) == 1:
                return _unit(unify(goal.args[0], Const(persp.speaker), s))
            if f == "hearer" and len(goal.args) == 1:
                return _unit(unify(goal.args[0], Const(persp.hearer), s))
            if f == "world" and len(goal.args) == 1:
                world = ListTerm(tuple(Const(o) for o in self.objects))
                return _unit(unify(goal.args[0], world, s))
            if f == "bmb" and len(goal.args) == 3:
                return self._query_bmb(goal, s)
            if f == "bel" and len(goal.args) == 2:
                return self._query_bel(goal.args[0], goal.args[1], s)
            if f == "goal" and len(goal.args) == 2:
                return self._query_goal(goal, s)
            if f == "modifier-pred" and len(goal.args) == 1:
                return self._query_modifier_pred(goal.args[0], s)
            if f == "modifier-rel-pred" and len(goal.args) == 1:
                return self._query_modifier_rel_pred(goal.args[0], s)
            return self._query_fact(goal, s)
        raise QueryError(f"cannot interpret query goal {goal!r}")

    def _query_bmb(self, goal: Compound, s: Substitution) -> list[Substitution]:
        a, b, prop = goal.args
        a = s.walk(a)
        b = s.walk(b)
        pair = {a, b} if isinstance(a, Const) and isinstance(b, Const) else None
        if pair != {SYSTEM, USER}:
            raise QueryError(f"mutual belief needs both dialogue agents, got {goal!r}")
        return self._scan(Bucket.COMMON_GROUND, prop, s)

    def _query_bel(self, agent: Term, prop: Term, s: Substitution) -> list[Substitution]:
        agent = s.walk(agent)
        if isinstance(agent, Var):
            out: list[Substitution] = []
            for who in (SYSTEM, USER):
                s2 = unify(agent, who, s)
                if s2 is not None:
                    out.extend(self._query_bel(who, prop, s2))
            return out
        if agent == SYSTEM:
            inner = s.resolve(prop)
            if isinstance(inner, Compound) and inner.functor == "bel" and len(inner.args) == 2:
                # introspection: bel(system, bel(system, P)) is bel(system, P)
                who = s.walk(inner.args[0])
                if who == SYSTEM:
                    return self._query_bel(SYSTEM, inner.args[1], s)
                if who == USER:
                    return self._attributed(USER, inner.args[1], s)
                if isinstance(who, Var):
                    out = []
                    for cand in (SYSTEM, USER):
                        s2 = unify(who, cand, s)
                        if s2 is not None:
                            out.extend(self._query_bel(SYSTEM, inner, s2))
                    return out
            return self._attributed(SYSTEM, prop, s)
        if agent == USER:
            return self._attributed(USER, prop, s)
        raise QueryError(f"unknown agent {agent!r} in belief query")

    def _attributed(self, agent: Const, prop: Term, s: Substitution) -> list[Substitution]:
        """Solutions for "agent believes prop" from the system's point of view.

        Three sources, in order: the agent's own bucket; common-ground items
        already shaped bel(agent, ...); and bare common-ground items, since
        what is mutually believed is believed by each agent alone.
        """
        own = Bucket.PRIVATE if agent == SYSTEM else Bucket.USER_MODEL
        out = self._scan(own, prop, s)
        shaped = mk("bel", agent, prop)
        out.extend(self._scan(Bucket.COMMON_GROUND, shaped, s))
        out.extend(self._scan(Bucket.COMMON_GROUND, prop, s))
        return _dedup(out, prop)

    def _query_goal(self, goal: Compound, s: Substitution) -> list[Substitution]:
        agent = s.walk(goal.args[0])
        out = self._scan(Bucket.COMMON_GROUND, goal, s)
        if agent == SYSTEM or isinstance(agent, Var):
            for s2 in self._scan(Bucket.GOALS, goal.args[1], s):
                s3 = unify(goal.args[0], SYSTEM, s2)
                if s3 is not None:
                    out.append(s3)
        return _dedup(out, goal)

    def _query_modifier_pred(self, pred: Term, s: Substitution) -> list[Substitution]:
        pred = s.resolve(pred)
        if isinstance(pred, Lam):
            body = pred.body
            ok = (
                len(pred.params) == 1
                and isinstance(body, Compound)
                and body.functor in self.modifier_preds
            )
            return [s] if ok else []
        if not isinstance(pred, Var):
            return []
        out: list[Substitution] = []
        seen: set[str] = set()
        store = self._stores[Bucket.COMMON_GROUND]
        for functor in self.modifier_preds:
            for _, fact, _ in store.candidates((functor, 2)):
                if not (isinstance(fact, Compound) and fact.functor == functor):
                    continue
                if len(fact.args) != 2:
                    continue
                x = self.names.fresh_var("X")
                lam = Lam((x,), mk(functor, x, fact.args[1]))
                key = canon(lam)
                if key in seen:
                    continue
                seen.add(key)
                s2 = unify(pred, lam, s)
                if s2 is not None:
                    out.append(s2)
        return out

    def _query_modifier_rel_pred(self, pred: Term, s: Substitution) -> list[Substitution]:
        pred = s.resolve(pred)
        if isinstance(pred, Lam):
            body = pred.body
            ok = (
                len(pred.params) == 2
                and isinstance(body, Compound)
                and body.functor in self.modifier_rel_preds
            )
            return [s] if ok else []
        if not isinstance(pred, Var):
            return []
        out: list[Substitution] = []
        for functor in self.modifier_rel_preds:
            x = self.names.fresh_var("X")
            y = self.names.fresh_var("Y")
            lam = Lam((x, y), mk(functor, x, y))
            s2 = unify(pred, lam, s)
            if s2 is not None:
                out.append(s2)
        return out

    def _query_fact(self, goal: Compound, s: Substitution) -> list[Substitution]:
        known = set(self.modifier_preds) | set(self.modifier_rel_preds)
        known.update(("category", "error", "achieve", "replace", "plan"))
        stored = self._stores[Bucket.COMMON_GROUND].functors, self._stores[Bucket.PRIVATE].functors
        if goal.functor not in known and not any(goal.functor in f for f in stored):
            raise QueryError(f"no way to answer {goal.functor}/{len(goal.args)} queries")
        out = self._scan(Bucket.COMMON_GROUND, goal, s)
        out.extend(self._scan(Bucket.PRIVATE, goal, s))
        return _dedup(out, goal)

    def _scan(self, bucket: Bucket, pattern: Term, s: Substitution) -> list[Substitution]:
        out: list[Substitution] = []
        for _, item, ground in self._stores[bucket].candidates(_key(pattern, s)):
            s2 = unify(pattern, item if ground else rename_apart(item, self.names), s)
            if s2 is not None:
                out.append(s2)
        return out


def _unit(s: Substitution | None) -> list[Substitution]:
    return [s] if s is not None else []


def _dedup(sols: list[Substitution], goal: Term) -> list[Substitution]:
    """Drop solutions that instantiate the goal identically."""
    out: list[Substitution] = []
    seen: set[str] = set()
    for s in sols:
        key = canon(goal, s)
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out

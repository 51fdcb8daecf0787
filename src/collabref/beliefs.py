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
first-argument indexing does; it files its non-ground compounds under
(functor, arity) only. A query resolves its pattern's functor and first
argument, takes the most specific key that fits, and unifies the ground
propositions filed there as they are and the non-ground ones of the same
functor and arity renamed apart, so callers never capture store
variables; the candidates are merged back into insertion order. A
retraction likewise tries only the propositions under its pattern's key,
and drops the removed ones from the lists they are filed in.

Renaming mints variables only, and variables have their own stream in a
NameSource, so how many propositions a query renames moves no plan or
node id: transcripts do not depend on the index.

Queries arrive as goal terms of the seven forms the schema library asks,
one row each of QUERIES: speaker(...), hearer(...), world(...),
bmb(...), bel(...), modifier-pred(...) and modifier-rel-pred(...). Any
other form is a QueryError. A query answers with a list of substitutions,
one per solution, in a stable order: bucket insertion order, with
derived readings after stored ones.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass

from .errors import QueryError
from .terms import (
    EMPTY,
    Compound,
    Const,
    Lam,
    ListTerm,
    NameSource,
    Substitution,
    Term,
    Var,
    canon,
    canon_ground,
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

    def __init__(self) -> None:
        self.entries: list[Entry] = []
        self.keys: set[str] = set()
        self.ground: dict[tuple, list[Entry]] = {}
        self.nonground: dict[tuple, list[Entry]] = {}
        self.loose: list[Entry] = []  # non-ground and not a compound

    def add(self, entry: Entry, key: str) -> None:
        _, prop, ground = entry
        self.entries.append(entry)
        self.keys.add(key)
        if not isinstance(prop, Compound):
            if not ground:
                self.loose.append(entry)
            return
        top = (prop.functor, len(prop.args))
        if not ground:
            self.nonground.setdefault(top, []).append(entry)
            return
        self.ground.setdefault(top, []).append(entry)
        if prop.args and isinstance(prop.args[0], Const):
            self.ground.setdefault(top + (prop.args[0].name,), []).append(entry)

    def remove(self, gone: list[Entry]) -> None:
        """Drop these entries. Only the index lists of their functors are
        filtered, and no kept proposition is keyed again."""
        seqs = {seq for seq, _, _ in gone}
        tops = {(p.functor, len(p.args)) for _, p, _ in gone if isinstance(p, Compound)}
        self.keys.difference_update(canon(p) for _, p, _ in gone)
        self.entries = [e for e in self.entries if e[0] not in seqs]
        self.loose = [e for e in self.loose if e[0] not in seqs]
        for index in (self.ground, self.nonground):
            for key in [k for k in index if k[:2] in tops]:
                kept = [e for e in index[key] if e[0] not in seqs]
                if kept:
                    index[key] = kept
                else:
                    del index[key]

    def candidates(self, key: tuple | None):
        """Every entry that could unify with a pattern of this key, in order.

        Insertion numbers are unique, so merging never compares propositions.
        """
        if key is None:
            return self.entries
        lists = [x for x in (self.ground.get(key), self.nonground.get(key[:2]), self.loose) if x]
        if len(lists) > 1:
            return heapq.merge(*lists)
        return lists[0] if lists else ()


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
        self.world = ListTerm(tuple(Const(o) for o in objects))
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

    def filed(self, bucket: Bucket, pattern: Term) -> list[tuple[int, Term]]:
        """(insertion number, proposition) for each proposition filed where
        one unifying with pattern would be, oldest first: a snapshot."""
        filed = self._stores[bucket].candidates(_key(pattern, EMPTY))
        return [(seq, prop) for seq, prop, _ in filed]

    def assert_prop(self, bucket: Bucket, prop: Term) -> bool:
        """Add a proposition; returns False if an alpha-equal one is present."""
        key, ground = canon_ground(prop)
        store = self._stores[bucket]
        if key in store.keys:
            return False
        store.add((next(self._seq), prop, ground), key)
        return True

    def holds(self, bucket: Bucket, prop: Term) -> bool:
        """Whether the bucket holds a proposition alpha-equal to prop."""
        return canon(prop) in self._stores[bucket].keys

    def retract_matching(self, bucket: Bucket, pattern: Term) -> list[Term]:
        """Remove every proposition unifying with pattern; returns removals."""
        store = self._stores[bucket]
        gone = [
            entry for entry in store.candidates(_key(pattern, EMPTY))
            if unify(pattern, entry[1] if entry[2] else rename_apart(entry[1], self.names))
            is not None
        ]
        if gone:
            store.remove(gone)
        return [item for _, item, _ in gone]

    # -- queries ------------------------------------------------------------

    def query(self, goal: Term, persp: Perspective, s: Substitution) -> list[Substitution]:
        goal = s.resolve(goal)
        if not isinstance(goal, Compound):
            raise QueryError(f"cannot interpret query goal {goal!r}")
        answer = QUERIES.get((goal.functor, len(goal.args)))
        if answer is None:
            raise QueryError(f"no way to answer {goal.functor}/{len(goal.args)} queries")
        return answer(self, goal, persp, s)

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
            inner = s.walk(prop)
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

    def _query_modifier(self, pred: Term, arity: int, s: Substitution) -> list[Substitution]:
        """modifier-pred(Pred) (arity 1) or modifier-rel-pred(Pred) (arity
        2). A given lambda passes when it takes that many parameters and
        its body is of a modifier predicate of that kind. An open Pred is
        bound to each filter there is: an absolute one per distinct value
        the common ground gives its predicate, a relational one per
        predicate."""
        functors = self.modifier_preds if arity == 1 else self.modifier_rel_preds
        pred = s.walk(pred)
        if isinstance(pred, Lam):
            body = pred.body
            ok = len(pred.params) == arity and isinstance(body, Compound) and body.functor in functors
            return [s] if ok else []
        if not isinstance(pred, Var):
            return []
        out: list[Substitution] = []
        for functor in functors:
            # a relational filter leaves its other object open
            for value in self._values(functor) if arity == 1 else (None,):
                params = tuple(self.names.fresh_var(n) for n in "XY"[:arity])
                body = mk(functor, params[0], params[1] if value is None else value)
                s2 = unify(pred, Lam(params, body), s)
                if s2 is not None:
                    out.append(s2)
        return out

    def _values(self, functor: str) -> list[Term]:
        """The distinct second arguments of the common ground's functor/2
        facts, oldest first."""
        values: dict[str, Term] = {}
        for _, fact, _ in self._stores[Bucket.COMMON_GROUND].candidates((functor, 2)):
            if isinstance(fact, Compound) and fact.functor == functor:
                values.setdefault(canon(fact.args[1]), fact.args[1])
        return list(values.values())

    def inseparable(self, referent: Const, other: Const) -> bool:
        """Whether the other object passes every modifier filter the referent
        passes: for each modifier and relational predicate F, every mutually
        believed F(referent, v) has a mutually believed F(other, v).

        Those are the filters `_query_modifier` can build for the referent,
        so no description can rule the other object out. Reads the common-ground
        index without renaming or minting anything. Values are compared as
        terms, and a non-ground fact that could be of one of those
        predicates makes the answer "separable": where in doubt, separable.
        """
        store = self._stores[Bucket.COMMON_GROUND]
        functors = self.modifier_preds + self.modifier_rel_preds
        if store.loose or any(f in functors for f, _ in store.nonground):
            return False
        for functor in functors:
            theirs = {fact.args[1] for _, fact, _ in store.ground.get((functor, 2, other.name), ())}
            for _, fact, _ in store.ground.get((functor, 2, referent.name), ()):
                if fact.args[1] not in theirs:
                    return False
        return True

    def _scan(self, bucket: Bucket, pattern: Term, s: Substitution) -> list[Substitution]:
        out: list[Substitution] = []
        for _, item, ground in self._stores[bucket].candidates(_key(pattern, s)):
            s2 = unify(pattern, item if ground else rename_apart(item, self.names), s)
            if s2 is not None:
                out.append(s2)
        return out


# The belief query forms, by (functor, arity), and how each is answered.
# Every constraint of the schema library that the planner does not solve
# itself is one of these.
QUERIES: dict[tuple[str, int], Callable[..., list[Substitution]]] = {
    ("speaker", 1): lambda base, goal, persp, s: _unit(unify(goal.args[0], Const(persp.speaker), s)),
    ("hearer", 1): lambda base, goal, persp, s: _unit(unify(goal.args[0], Const(persp.hearer), s)),
    ("world", 1): lambda base, goal, persp, s: _unit(unify(goal.args[0], base.world, s)),
    ("bmb", 3): lambda base, goal, persp, s: base._query_bmb(goal, s),
    ("bel", 2): lambda base, goal, persp, s: base._query_bel(goal.args[0], goal.args[1], s),
    ("modifier-pred", 1): lambda base, goal, persp, s: base._query_modifier(goal.args[0], 1, s),
    ("modifier-rel-pred", 1): lambda base, goal, persp, s: base._query_modifier(goal.args[0], 2, s),
}


def _unit(s: Substitution | None) -> list[Substitution]:
    """The one solution s, or none if s is None."""
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

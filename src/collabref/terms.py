"""First-order terms with a restricted lambda layer, plus unification.

The vocabulary is small: constants, logic variables, compound terms,
proper lists, and lambda abstractions of one or two parameters. Lambdas
only ever wrap a single predication (they describe attributes like
"is in the corner"), so unification treats their parameters as rigid
placeholders rather than doing general higher-order matching.

`apply(Pred, Arg...)` terms beta-reduce during resolution whenever the
predicate position is (or becomes) a lambda.

Term walks go through `map_term`, which rebuilds a term leaf by leaf, or
`visit`, which calls a function on every subterm in pre-order; both pass
along the parameters of the enclosing lambdas. Only the hot `resolve`,
`unify` and occurs check, and `canon` and `format_term`, which build
their own syntax, keep their own recursion.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

from .errors import TermSyntaxError


@dataclass(frozen=True)
class Const:
    name: str

    def __repr__(self) -> str:
        return f"Const({self.name!r})"


@dataclass(frozen=True)
class Var:
    name: str
    uid: int

    def __repr__(self) -> str:
        return f"Var({self.name!r}, {self.uid})"


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple["Term", ...]

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.functor}({inner})"


@dataclass(frozen=True)
class ListTerm:
    items: tuple["Term", ...]

    def __repr__(self) -> str:
        return "ListTerm(" + ", ".join(repr(i) for i in self.items) + ")"


@dataclass(frozen=True)
class Lam:
    params: tuple[Var, ...]
    body: "Term"

    def __repr__(self) -> str:
        ps = ", ".join(p.name for p in self.params)
        return f"Lam([{ps}], {self.body!r})"


Term = Const | Var | Compound | ListTerm | Lam


def mk(functor: str, *args: Term) -> Compound:
    return Compound(functor, tuple(args))


class NameSource:
    """Single counter behind every fresh variable, plan, node and entity id.

    Sharing one counter keeps generated names globally unique and makes
    whole runs reproducible: the same scenario always mints the same ids.
    """

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)
        self._entity_counter = 0

    def next_id(self) -> int:
        return next(self._counter)

    def fresh_var(self, name: str = "_G") -> Var:
        return Var(name, self.next_id())

    def plan_name(self) -> Const:
        return Const(f"p{self.next_id()}")

    def node_name(self) -> Const:
        return Const(f"n{self.next_id()}")

    def note_entity(self, name: str) -> None:
        """Bump the entity counter past any `entityN` seen in input."""
        if name.startswith("entity") and name[6:].isdigit():
            self._entity_counter = max(self._entity_counter, int(name[6:]))

    def mint_entity(self) -> Const:
        self._entity_counter += 1
        return Const(f"entity{self._entity_counter}")


class Substitution:
    """Immutable binding map from Var uid to Term."""

    __slots__ = ("_map",)

    def __init__(self, _map: dict[int, Term] | None = None):
        self._map = _map or {}

    def bind(self, var: Var, value: Term) -> "Substitution":
        new = dict(self._map)
        new[var.uid] = value
        return Substitution(new)

    def lookup(self, var: Var) -> Term | None:
        return self._map.get(var.uid)

    def merge(self, other: "Substitution") -> "Substitution":
        """Union of two binding maps; the other side wins on overlap.

        Safe when the two substitutions grew from shared variables in
        separate solving episodes (the later episode only adds bindings
        for variables the earlier one left open).
        """
        new = dict(self._map)
        new.update(other._map)
        return Substitution(new)

    def walk(self, t: Term) -> Term:
        """Follow variable bindings at the top level only."""
        seen: set[int] = set()
        while isinstance(t, Var):
            if t.uid in seen:
                return t
            seen.add(t.uid)
            nxt = self._map.get(t.uid)
            if nxt is None:
                return t
            t = nxt
        return t

    def resolve(self, t: Term) -> Term:
        """Apply bindings all the way down, beta-reducing apply/N as we go."""
        t = self.walk(t)
        if isinstance(t, (Const, Var)):
            return t
        if isinstance(t, ListTerm):
            return ListTerm(tuple(self.resolve(i) for i in t.items))
        if isinstance(t, Lam):
            return Lam(t.params, self.resolve(t.body))
        args = tuple(self.resolve(a) for a in t.args)
        if t.functor == "apply" and args and isinstance(args[0], Lam):
            lam = args[0]
            if len(lam.params) == len(args) - 1:
                return self.resolve(apply_lambda(lam, args[1:]))
        return Compound(t.functor, args)

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        return f"Substitution({self._map!r})"


EMPTY = Substitution()


def map_term(t: Term, leaf: Callable, bound: frozenset[int] = frozenset()) -> Term:
    """Rebuild t with each constant and variable x replaced by leaf(x, bound),
    where bound holds the uids of the lambda parameters in scope at x."""
    kind = type(t)  # exact type tests and list comprehensions: renaming is hot
    if kind is Compound:
        return Compound(t.functor, tuple([map_term(a, leaf, bound) for a in t.args]))
    if kind is ListTerm:
        return ListTerm(tuple([map_term(i, leaf, bound) for i in t.items]))
    if kind is Lam:
        return Lam(t.params, map_term(t.body, leaf, bound | {p.uid for p in t.params}))
    return leaf(t, bound)


def visit(t: Term, fn: Callable, bound: frozenset[int] = frozenset()) -> bool:
    """Call fn(x, bound) on t and each of its subterms, in pre-order, as
    map_term calls leaf; stop and return True at the first true result."""
    if fn(t, bound):
        return True
    kind = type(t)
    if kind is Compound or kind is ListTerm:
        for x in t.args if kind is Compound else t.items:
            if visit(x, fn, bound):
                return True
    elif kind is Lam:
        return visit(t.body, fn, bound | {p.uid for p in t.params})
    return False


def apply_lambda(lam: Lam, args: tuple[Term, ...]) -> Term:
    """Beta-reduce: substitute args for the free occurrences of the
    lambda's parameters in its body."""
    if len(args) != len(lam.params):
        raise TermSyntaxError(
            f"lambda of {len(lam.params)} params applied to {len(args)} args"
        )
    mapping = {p.uid: a for p, a in zip(lam.params, args)}

    def sub(x: Term, bound: frozenset[int]) -> Term:
        if type(x) is Var and x.uid not in bound:
            return mapping.get(x.uid, x)
        return x

    return map_term(lam.body, sub)


def _occurs(var: Var, t: Term, s: Substitution) -> bool:
    t = s.walk(t)
    if isinstance(t, Var):
        return t.uid == var.uid
    if isinstance(t, Compound):
        return any(_occurs(var, a, s) for a in t.args)
    if isinstance(t, ListTerm):
        return any(_occurs(var, i, s) for i in t.items)
    if isinstance(t, Lam):
        return _occurs(var, t.body, s)
    return False


def unify(a: Term, b: Term, s: Substitution | None = None) -> Substitution | None:
    """Syntactic unification with occurs check. Returns None on failure.

    Lambdas unify when their arities match and their bodies unify after
    both parameter lists are replaced by the same rigid placeholder
    constants. Placeholders use a reserved `$p` prefix no parser emits.
    """
    if s is None:
        s = EMPTY
    a = s.walk(a)
    b = s.walk(b)
    if isinstance(a, Var) and isinstance(b, Var) and a.uid == b.uid:
        return s
    if isinstance(a, Var):
        if _occurs(a, b, s):
            return None
        return s.bind(a, b)
    if isinstance(b, Var):
        if _occurs(b, a, s):
            return None
        return s.bind(b, a)
    if isinstance(a, Const) and isinstance(b, Const):
        return s if a.name == b.name else None
    if isinstance(a, ListTerm) and isinstance(b, ListTerm):
        if len(a.items) != len(b.items):
            return None
        for x, y in zip(a.items, b.items):
            s2 = unify(x, y, s)
            if s2 is None:
                return None
            s = s2
        return s
    if isinstance(a, Lam) and isinstance(b, Lam):
        if len(a.params) != len(b.params):
            return None
        rigid = tuple(Const(f"$p{i}") for i in range(len(a.params)))
        return unify(apply_lambda(a, rigid), apply_lambda(b, rigid), s)
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        for x, y in zip(a.args, b.args):
            s2 = unify(x, y, s)
            if s2 is None:
                return None
            s = s2
        return s
    return None


def variables_of(t: Term) -> list[Var]:
    """All distinct free variables in t, in first-occurrence order."""
    out: dict[int, Var] = {}

    def note(x: Term, bound: frozenset[int]) -> None:
        if isinstance(x, Var) and x.uid not in bound:
            out.setdefault(x.uid, x)

    visit(t, note)
    return list(out.values())


def rename_apart(t: Term, names: NameSource) -> Term:
    """Fresh copy of t with every free variable replaced by a new one."""
    mapping: dict[int, Var] = {}

    def fresh(x: Term, bound: frozenset[int]) -> Term:
        if type(x) is not Var or x.uid in bound:
            return x
        if x.uid not in mapping:
            mapping[x.uid] = names.fresh_var(x.name)
        return mapping[x.uid]

    return map_term(t, fresh)


def canon(t: Term, s: Substitution | None = None) -> str:
    """Canonical string key, invariant under variable renaming.

    Free variables are numbered by first occurrence; lambda parameters by
    position. Two terms get the same key iff they are alpha-equivalent.
    """
    if s is not None:
        t = s.resolve(t)
    numbering: dict[int, int] = {}

    def go(x: Term, bound: dict[int, str]) -> str:
        if isinstance(x, Var):
            if x.uid in bound:
                return bound[x.uid]
            if x.uid not in numbering:
                numbering[x.uid] = len(numbering)
            return f"?{numbering[x.uid]}"
        if isinstance(x, Const):
            return x.name
        if isinstance(x, ListTerm):
            return "[" + ",".join(go(i, bound) for i in x.items) + "]"
        if isinstance(x, Lam):
            inner = dict(bound)
            for n, p in enumerate(x.params):
                inner[p.uid] = f"%{n}"
            return f"\\{len(x.params)}.{go(x.body, inner)}"
        return x.functor + "(" + ",".join(go(a, bound) for a in x.args) + ")"

    return go(t, {})


def is_ground(t: Term) -> bool:
    return not visit(t, _is_free_var)


def _is_free_var(x: Term, bound: frozenset[int]) -> bool:
    return isinstance(x, Var) and x.uid not in bound


# ---------------------------------------------------------------------------
# Reading and writing term text
# ---------------------------------------------------------------------------

# Deepest nesting of compounds, lists, lambdas and `=` the reader accepts.
# The engine walks terms recursively, so a deeper term would exhaust
# Python's stack somewhere far from the text that caused it.
MAX_TERM_DEPTH = 100


class TermReader:
    """Parses term text.

    Grammar, informally:
      lowercase word            constant (hyphens allowed: s-refer)
      Uppercase or _ word       variable (same name = same variable per reader)
      _                         fresh anonymous variable each time
      f(a, B)                   compound
      [a, b]                    list
      lambda(X, body)           one-param lambda
      lambda(X, Y, body)        two-param lambda
      a = b                     infix equality, usable at top level or as arg

    Terms nested deeper than MAX_TERM_DEPTH raise TermSyntaxError.
    One reader instance keeps one variable table, so every `E` in a turn's
    worth of text is the same variable.
    """

    def __init__(self, names: NameSource):
        self.names = names
        self.vars: dict[str, Var] = {}

    def read(self, text: str) -> Term:
        tokens = _tokenize(text)
        term, pos = self._parse(tokens, 0, 0)
        term, pos = self._maybe_eq(term, tokens, pos, 0)
        if pos != len(tokens):
            raise TermSyntaxError(f"trailing input at token {pos} in {text!r}")
        return term

    def _maybe_eq(self, left: Term, tokens: list[str], pos: int, depth: int):
        if pos < len(tokens) and tokens[pos] == "=":
            right, pos = self._parse(tokens, pos + 1, depth + 1)
            right, pos = self._maybe_eq(right, tokens, pos, depth + 1)
            return mk("=", left, right), pos
        return left, pos

    def _parse(self, tokens: list[str], pos: int, depth: int) -> tuple[Term, int]:
        """Parse one term whose enclosing structures number `depth`."""
        if depth > MAX_TERM_DEPTH:
            raise TermSyntaxError(f"term nested deeper than {MAX_TERM_DEPTH} levels")
        if pos >= len(tokens):
            raise TermSyntaxError("unexpected end of input")
        tok = tokens[pos]
        if tok == "[":
            items: list[Term] = []
            pos += 1
            if pos < len(tokens) and tokens[pos] == "]":
                return ListTerm(()), pos + 1
            while True:
                item, pos = self._parse(tokens, pos, depth + 1)
                item, pos = self._maybe_eq(item, tokens, pos, depth + 1)
                items.append(item)
                if pos >= len(tokens):
                    raise TermSyntaxError("unterminated list")
                if tokens[pos] == ",":
                    pos += 1
                    continue
                if tokens[pos] == "]":
                    return ListTerm(tuple(items)), pos + 1
                raise TermSyntaxError(f"expected , or ] but got {tokens[pos]!r}")
        if tok in ("(", ")", "]", ",", "="):
            raise TermSyntaxError(f"unexpected {tok!r}")
        # word token
        if pos + 1 < len(tokens) and tokens[pos + 1] == "(":
            args: list[Term] = []
            pos += 2
            if pos < len(tokens) and tokens[pos] == ")":
                pos += 1
            else:
                while True:
                    arg, pos = self._parse(tokens, pos, depth + 1)
                    arg, pos = self._maybe_eq(arg, tokens, pos, depth + 1)
                    args.append(arg)
                    if pos >= len(tokens):
                        raise TermSyntaxError("unterminated argument list")
                    if tokens[pos] == ",":
                        pos += 1
                        continue
                    if tokens[pos] == ")":
                        pos += 1
                        break
                    raise TermSyntaxError(f"expected , or ) but got {tokens[pos]!r}")
            if tok == "lambda":
                return self._mk_lambda(args), pos
            return Compound(tok, tuple(args)), pos
        if tok == "_":
            return self.names.fresh_var("_"), pos + 1
        if tok[0].isupper() or tok[0] == "_":
            if tok not in self.vars:
                self.vars[tok] = self.names.fresh_var(tok)
            return self.vars[tok], pos + 1
        return Const(tok), pos + 1

    def _mk_lambda(self, args: list[Term]) -> Lam:
        if len(args) not in (2, 3):
            raise TermSyntaxError("lambda takes (param, body) or (param, param, body)")
        params = args[:-1]
        for p in params:
            if not isinstance(p, Var):
                raise TermSyntaxError("lambda parameters must be variables")
        return Lam(tuple(params), args[-1])  # type: ignore[arg-type]


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()[],=":
            tokens.append(c)
            i += 1
            continue
        if c.isalnum() or c in "_$":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_$-"):
                j += 1
            # a hyphen only joins when both sides are word chars (s-refer),
            # so trim any trailing hyphen back off
            while text[j - 1] == "-":
                j -= 1
            tokens.append(text[i:j])
            i = j
            continue
        raise TermSyntaxError(f"bad character {c!r} in {text!r}")
    return tokens


def read_term(text: str, names: NameSource) -> Term:
    """One-shot parse with a private variable table."""
    return TermReader(names).read(text)


def format_term(t: Term) -> str:
    """Render a term as parseable text (modulo variable identity)."""
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Var):
        return t.name if t.name != "_" else f"_{t.uid}"
    if isinstance(t, ListTerm):
        return "[" + ", ".join(format_term(i) for i in t.items) + "]"
    if isinstance(t, Lam):
        inner = ", ".join(p.name for p in t.params)
        return f"lambda({inner}, {format_term(t.body)})"
    if t.functor == "=" and len(t.args) == 2:
        return f"{format_term(t.args[0])} = {format_term(t.args[1])}"
    return t.functor + "(" + ", ".join(format_term(a) for a in t.args) + ")"

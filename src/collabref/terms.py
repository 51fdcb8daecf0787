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
along the parameters of the enclosing lambdas. The hot walks keep their own
recursion and one leaf rule: they dispatch on exact type (no term class has
a subclass) and never call themselves on a constant, which a compound or
list handles in place. `resolve`, `unify` and the occurs check walk only a
variable and compare or keep a constant; `canon` writes a constant's name;
`schemas._copy` also maps a variable argument in place; the reader builds
an argument that opens nothing inside its parent's loop, taking a word it
has read before from its table. The solver walks only the top of a
constraint; a query goal is resolved once, in `BeliefBase.query`.
`canon_ground` gives a term's `canon` key and whether it is ground from
that one walk, and a compound of constants its key from their names alone.

A flat fact, `word(word, ..., word)` with `, ` between its arguments, is
read by splitting the text and checking only the words not yet in the
reader's table, minting nothing until all passed. Other text is tokenized
by one regular expression, which gives the tokens, and the first bad
character, that a scan with `str.isalnum` and `str.isspace` would: `\\w`
is exactly `isalnum()` or `_` and `\\s` is exactly `isspace()`. It checks
the tokens one by one only when a search finds a hyphen or a bad character.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable
from dataclasses import dataclass

from .errors import ScenarioError, TermSyntaxError


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
    """The counters behind every fresh variable, plan, node and entity id.

    Two streams, both starting at `start`: `next_id` numbers the public
    plan (`p7`) and node (`n8`) ids a transcript shows, and `fresh_var`
    numbers variables. A transcript shows a variable's uid only for an
    anonymous `_` variable (as `_<uid>`), and those the reader mints while
    a scenario loads. So however many variables renaming, instantiation
    or search mint, the public ids of a run stay the same, and the same
    scenario always gets the same transcript. The planner mints node and
    plan ids at commit, for a plan it keeps, not for the states it searches
    (a plan a `substitute` registers there still takes its id at once).
    Entities (`entity3`) have a counter of their own.
    """

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)
        self._var_counter = itertools.count(start)
        self._entity_counter = 0

    def next_id(self) -> int:
        return next(self._counter)

    def fresh_var(self, name: str = "_G") -> Var:
        return Var(name, next(self._var_counter))

    def plan_name(self) -> Const:
        return Const(f"p{self.next_id()}")

    def node_name(self) -> Const:
        return Const(f"n{self.next_id()}")

    def note_entity(self, name: str) -> None:
        """Bump the entity counter past any `entityN` seen in input. This is
        the one place that reads an entity number: N is ASCII digits, at
        most 18 of them, so every count stays one Python can read and print."""
        digits = name[6:]
        if not (name.startswith("entity") and digits.isascii() and digits.isdigit()):
            return
        if len(digits) > 18:
            raise ScenarioError(f"entity number of {len(digits)} digits, more than 18")
        self._entity_counter = max(self._entity_counter, int(digits))

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
        if type(t) is not Var:
            return t
        nxt = self._map.get(t.uid)
        if nxt is None:
            return t
        seen = {t.uid}  # only a bound variable pays for the cycle guard
        while type(nxt) is Var:
            if nxt.uid in seen:
                return nxt
            seen.add(nxt.uid)
            t, nxt = nxt, self._map.get(nxt.uid)
            if nxt is None:
                return t
        return nxt

    def resolve(self, t: Term) -> Term:
        """Apply bindings all the way down, beta-reducing apply/N as we go.

        A subterm the bindings leave unchanged comes back as the very same
        object, so resolving a term with nothing to do allocates nothing.
        """
        kind = type(t)
        if kind is Var and t.uid in self._map:
            t = self.walk(t)
            kind = type(t)
        if kind is Compound:
            args = t.args
            new = [a if type(a) is Const else self.resolve(a) for a in args]
            if t.functor == "apply" and new and type(new[0]) is Lam:
                lam = new[0]
                if len(lam.params) == len(new) - 1:
                    return self.resolve(apply_lambda(lam, tuple(new[1:])))
            for a, b in zip(args, new):
                if a is not b:
                    return Compound(t.functor, tuple(new))
            return t
        if kind is ListTerm:
            items = t.items
            new = [i if type(i) is Const else self.resolve(i) for i in items]
            for a, b in zip(items, new):
                if a is not b:
                    return ListTerm(tuple(new))
            return t
        if kind is Lam:
            body = self.resolve(t.body)
            return t if body is t.body else Lam(t.params, body)
        return t

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
    kind = type(t)
    if kind is Var:
        t = s.walk(t)
        kind = type(t)
        if kind is Var:
            return t.uid == var.uid
    if kind is Lam:
        return _occurs(var, t.body, s)
    if kind is Compound:
        subterms = t.args
    elif kind is ListTerm:
        subterms = t.items
    else:
        return False
    for x in subterms:
        if type(x) is not Const and _occurs(var, x, s):
            return True
    return False


def unify(a: Term, b: Term, s: Substitution | None = None) -> Substitution | None:
    """Syntactic unification with occurs check. Returns None on failure.

    Walked terms that are the same object unify as they are, and a
    variable meeting a constant is bound without an occurs check.

    Lambdas unify when their arities match and their bodies unify after
    both parameter lists are replaced by the same rigid placeholder
    constants, without binding any free variable to a term holding one.
    Placeholders use a reserved `$p` prefix, which the reader rejects; an
    inner lambda's placeholders are numbered past every placeholder its
    enclosing levels put into the two terms.
    """
    if s is None:
        s = EMPTY
    ka, kb = type(a), type(b)
    if ka is Var and a.uid in s._map:
        a = s.walk(a)
        ka = type(a)
    if kb is Var and b.uid in s._map:
        b = s.walk(b)
        kb = type(b)
    if a is b:
        return s
    if ka is Var:
        if kb is Var:
            return s if a.uid == b.uid else s.bind(a, b)
        if kb is Const or not _occurs(a, b, s):
            return s.bind(a, b)
        return None
    if kb is Var:
        if ka is Const or not _occurs(b, a, s):
            return s.bind(b, a)
        return None
    if ka is not kb:
        return None
    if ka is Const:
        return s if a.name == b.name else None
    if ka is Compound:
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        pairs = zip(a.args, b.args)
    elif ka is ListTerm:
        if len(a.items) != len(b.items):
            return None
        pairs = zip(a.items, b.items)
    else:
        if len(a.params) != len(b.params):
            return None
        base = max(_placeholder_top(a), _placeholder_top(b))
        rigid = tuple(Const(f"$p{base + i}") for i in range(len(a.params)))
        body_a, body_b = apply_lambda(a, rigid), apply_lambda(b, rigid)
        s2 = unify(body_a, body_b, s)
        if s2 is None or s2 is s:
            return s2
        # a free variable bound to a placeholder would capture a parameter
        for v in variables_of(body_a) + variables_of(body_b):
            if visit(s2.resolve(v), _is_placeholder):
                return None
        return s2
    for x, y in pairs:
        if type(x) is Const and type(y) is Const:
            if x.name != y.name:
                return None
        else:
            s = unify(x, y, s)
            if s is None:
                return None
    return s


def variables_of(t: Term) -> list[Var]:
    """All distinct free variables in t, in first-occurrence order."""
    out: dict[int, Var] = {}

    def note(x: Term, bound: frozenset[int]) -> None:
        if type(x) is Var and x.uid not in bound:
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
    position, and inside a nested lambda also by its depth, so that an
    inner parameter never shares a key with an outer one. Two terms get
    the same key iff they are alpha-equivalent.
    """
    if s is not None:
        t = s.resolve(t)
    return _canon(t, {}, 0, {})


def canon_ground(t: Term) -> tuple[str, bool]:
    """canon(t) and whether t is ground: a compound of constants from their
    names, any other term from one walk, ground iff it numbered no variable."""
    if type(t) is Compound:
        names = [a.name for a in t.args if type(a) is Const]
        if len(names) == len(t.args):
            return f"{t.functor}({','.join(names)})", True
    numbering: dict[int, int] = {}
    return _canon(t, {}, 0, numbering), not numbering


def _canon(x: Term, bound: dict[int, str], depth: int, numbering: dict[int, int]) -> str:
    kind = type(x)
    if kind is Const:
        return x.name
    if kind is Var:
        if x.uid in bound:
            return bound[x.uid]
        if x.uid not in numbering:
            numbering[x.uid] = len(numbering)
        return f"?{numbering[x.uid]}"
    if kind is Compound or kind is ListTerm:
        inner = ",".join([a.name if type(a) is Const else _canon(a, bound, depth, numbering)
                          for a in (x.args if kind is Compound else x.items)])
        return f"{x.functor}({inner})" if kind is Compound else f"[{inner}]"
    inner = dict(bound)
    level = f"{depth}:" if depth else ""
    for n, p in enumerate(x.params):
        inner[p.uid] = f"%{level}{n}"
    return f"\\{len(x.params)}.{_canon(x.body, inner, depth + 1, numbering)}"


def is_ground(t: Term) -> bool:
    return not visit(t, _is_free_var)


def _is_free_var(x: Term, bound: frozenset[int]) -> bool:
    return type(x) is Var and x.uid not in bound


def _is_placeholder(x: Term, _bound: frozenset[int]) -> bool:
    return type(x) is Const and x.name.startswith("$p")


def _placeholder_top(t: Term) -> int:
    """One past the highest `$pN` placeholder index in t, 0 if none."""
    top = 0

    def note(x: Term, _bound: frozenset[int]) -> None:
        nonlocal top
        if _is_placeholder(x, _bound):
            top = max(top, int(x.name[2:]) + 1)

    visit(t, note)
    return top


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
    One reader instance keeps one table of the constants and named
    variables it has read, so every `E` in a turn's worth of text is the
    same variable, and a constant that repeats in a world is made once.
    A flat compound `f(a, B)`, not a lambda, skips the tokenizer and `_parse`.
    """

    def __init__(self, names: NameSource):
        self.names = names
        self.words: dict[str, Const | Var] = {}

    def read(self, text: str) -> Term:
        functor, _, rest = text.partition("(")
        functor, rest = functor.strip(), rest.rstrip()
        if rest[-1:] == ")" and functor != "lambda" and (functor.isalnum() or _WORD.fullmatch(functor)):
            words = self.words
            args = rest[:-1].split(", ")
            for w in args:
                if w not in words and not (w.isalnum() or _WORD.fullmatch(w)):
                    break
            else:
                return Compound(functor, tuple([words.get(w) or self._word(w) for w in args]))
        tokens = _tokenize(text)
        term, pos = self._parse(tokens, 0, 0)
        if pos < len(tokens) and tokens[pos] == "=":
            term, pos = self._chain(term, tokens, pos, 0)
        if pos != len(tokens):
            raise TermSyntaxError(f"trailing input at token {pos} in {text!r}")
        return term

    def _parse(self, tokens: list[str], pos: int, depth: int) -> tuple[Term, int]:
        """Parse one term whose enclosing structures number `depth`, building
        each argument that opens nothing in the loop."""
        if depth > MAX_TERM_DEPTH:
            raise TermSyntaxError(f"term nested deeper than {MAX_TERM_DEPTH} levels")
        end = len(tokens)
        if pos >= end:
            raise TermSyntaxError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == "[":
            close = "]"
        elif tok in _PUNCTUATION:
            raise TermSyntaxError(f"unexpected {tok!r}")
        elif pos < end and tokens[pos] == "(":
            close = ")"
            pos += 1
        else:
            return self.words.get(tok) or self._word(tok), pos
        items: list[Term] = []
        sep = ","
        if pos < end and tokens[pos] == close:
            sep, pos = close, pos + 1
        while sep != close:
            word = tokens[pos] if pos < end else "("
            # an item that opens something, is missing or is too deep goes to _parse
            if word not in _PUNCTUATION and (pos + 1 == end or tokens[pos + 1] != "(") and depth < MAX_TERM_DEPTH:
                item, pos = self.words.get(word) or self._word(word), pos + 1
            else:
                item, pos = self._parse(tokens, pos, depth + 1)
            if pos < end and tokens[pos] == "=":
                item, pos = self._chain(item, tokens, pos, depth + 1)
            items.append(item)
            if pos >= end:
                raise TermSyntaxError(f"unterminated {'list' if close == ']' else 'argument list'}")
            sep = tokens[pos]
            pos += 1
            if sep != close and sep != ",":
                raise TermSyntaxError(f"expected , or {close} but got {sep!r}")
        if close == "]":
            return ListTerm(tuple(items)), pos
        if tok == "lambda":
            return self._mk_lambda(items), pos
        return Compound(tok, tuple(items)), pos

    def _chain(self, left: Term, tokens: list[str], pos: int, depth: int) -> tuple[Term, int]:
        """`left = right` from the `=` at pos; right is a level deeper and may chain."""
        right, pos = self._parse(tokens, pos + 1, depth + 1)
        if pos < len(tokens) and tokens[pos] == "=":
            right, pos = self._chain(right, tokens, pos, depth + 1)
        return mk("=", left, right), pos

    def _word(self, tok: str) -> Const | Var:
        """Make the constant or variable a word not yet in the table names;
        `_` is a new variable each time and never enters the table."""
        if tok == "_":
            return self.names.fresh_var("_")
        self.words[tok] = term = self.names.fresh_var(tok) if tok[0].isupper() or tok[0] == "_" else Const(tok)
        return term

    def _mk_lambda(self, args: list[Term]) -> Lam:
        if len(args) not in (2, 3):
            raise TermSyntaxError("lambda takes (param, body) or (param, param, body)")
        params = args[:-1]
        for p in params:
            if not isinstance(p, Var):
                raise TermSyntaxError("lambda parameters must be variables")
        return Lam(tuple(params), args[-1])  # type: ignore[arg-type]


_PUNCTUATION = frozenset("()[],=")
# a punctuation mark; a word, whose hyphens only join word characters
# (s-refer); or any other non-space character, which `_tokenize` rejects
_WORD = re.compile(r"\w+(?:-+\w+)*")
_TOKEN = re.compile(rf"[()\[\],=]|{_WORD.pattern}|\S")
_SUSPECT = re.compile(r"[^\w\s()\[\],=]")  # a hyphen or a bad character


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN.findall(text)
    if _SUSPECT.search(text):
        for tok in tokens:
            if len(tok) == 1 and tok not in _PUNCTUATION and not (tok.isalnum() or tok == "_"):
                raise TermSyntaxError(f"bad character {tok!r} in {text!r}")
    return tokens


def format_term(t: Term) -> str:
    """Render a term as parseable text (modulo variable identity)."""
    kind = type(t)
    if kind is Const:
        return t.name
    if kind is Var:
        return t.name if t.name != "_" else f"_{t.uid}"
    if kind is ListTerm:
        return "[" + ", ".join(format_term(i) for i in t.items) + "]"
    if kind is Lam:
        inner = ", ".join(p.name for p in t.params)
        return f"lambda({inner}, {format_term(t.body)})"
    if t.functor == "=" and len(t.args) == 2:
        return f"{format_term(t.args[0])} = {format_term(t.args[1])}"
    return t.functor + "(" + ", ".join(format_term(a) for a in t.args) + ")"

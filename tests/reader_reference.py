"""The reference reader: the earlier recursive-descent term reader.

Every term, argument and item is one `_parse` call, and every one of them
is followed by a `_maybe_eq` call for an `=` chain; a compound or list
reads its arguments through `_sequence`. It tokenizes by running the
bad-character check on every token. `terms.TermReader` builds an argument
that opens nothing in place and checks characters only in text that holds
a suspect one; it must give the same terms, mint the same variables in the
same order and raise the same errors as this reader on any text.
"""

from __future__ import annotations

import re

from collabref.errors import TermSyntaxError
from collabref.terms import (
    MAX_TERM_DEPTH,
    Compound,
    Const,
    Lam,
    ListTerm,
    NameSource,
    Term,
    Var,
    mk,
)


class ReferenceReader:
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
            items, pos = self._sequence(tokens, pos + 1, depth, "]", "list")
            return ListTerm(tuple(items)), pos
        if tok in ("(", ")", "]", ",", "="):
            raise TermSyntaxError(f"unexpected {tok!r}")
        # word token
        if pos + 1 < len(tokens) and tokens[pos + 1] == "(":
            args, pos = self._sequence(tokens, pos + 2, depth, ")", "argument list")
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

    def _sequence(
        self, tokens: list[str], pos: int, depth: int, close: str, what: str
    ) -> tuple[list[Term], int]:
        """Comma-separated terms from pos up to and past the close token."""
        items: list[Term] = []
        if pos < len(tokens) and tokens[pos] == close:
            return items, pos + 1
        while True:
            item, pos = self._parse(tokens, pos, depth + 1)
            item, pos = self._maybe_eq(item, tokens, pos, depth + 1)
            items.append(item)
            if pos >= len(tokens):
                raise TermSyntaxError(f"unterminated {what}")
            if tokens[pos] == close:
                return items, pos + 1
            if tokens[pos] != ",":
                raise TermSyntaxError(f"expected , or {close} but got {tokens[pos]!r}")
            pos += 1

    def _mk_lambda(self, args: list[Term]) -> Lam:
        if len(args) not in (2, 3):
            raise TermSyntaxError("lambda takes (param, body) or (param, param, body)")
        params = args[:-1]
        for p in params:
            if not isinstance(p, Var):
                raise TermSyntaxError("lambda parameters must be variables")
        return Lam(tuple(params), args[-1])  # type: ignore[arg-type]


# a word, whose hyphens only join word characters (s-refer); a punctuation
# mark; or any other non-space character, which `_tokenize` rejects
_TOKEN = re.compile(r"\w+(?:-+\w+)*|[()\[\],=]|\S")


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN.findall(text)
    for tok in tokens:
        if len(tok) == 1 and tok not in "()[],=" and not (tok.isalnum() or tok == "_"):
            raise TermSyntaxError(f"bad character {tok!r} in {text!r}")
    return tokens

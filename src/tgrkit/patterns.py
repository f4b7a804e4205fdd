"""Filter patterns: symbol-class atoms combined by concatenation, star and union.

The pattern language is deliberately small - it is just enough to express
the filters used by the compilers.  Matching is exact membership in the
denoted regular set, decided on the pattern tree itself: each node maps a
set of start positions in the word to the set of positions where a match
of that node can end, and the word matches when its length is among the
end positions reached from 0.  A star nested d deep costs O(n^d) set steps
on a word of length n; the compiled filters nest stars one deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union as TUnion

from .errors import FormatError
from .words import Word, check_symbol


@dataclass(frozen=True)
class Atom:
    """Matches any single symbol from a finite class."""

    symbols: frozenset[str]


@dataclass(frozen=True)
class Concat:
    parts: tuple["Pattern", ...]


@dataclass(frozen=True)
class Star:
    inner: "Pattern"


@dataclass(frozen=True)
class Union:
    alts: tuple["Pattern", ...]


Pattern = TUnion[Atom, Concat, Star, Union]


def symbol_class(symbols: Iterable[str]) -> Atom:
    return Atom(frozenset(check_symbol(s) for s in symbols))


def seq(*parts: Pattern) -> Concat:
    return Concat(tuple(parts))


def star(inner: Pattern) -> Star:
    return Star(inner)


def alt(*alts: Pattern) -> Union:
    return Union(tuple(alts))


def _ends(p: Pattern, w: Word, starts: set[int]) -> set[int]:
    """The positions j such that w[i:j] is in `p` for some i in `starts`."""
    if isinstance(p, Atom):
        return {i + 1 for i in starts if i < len(w) and w[i] in p.symbols}
    if isinstance(p, Concat):
        for part in p.parts:
            starts = _ends(part, w, starts)
        return starts
    if isinstance(p, Union):
        return set().union(*(_ends(a, w, starts) for a in p.alts))
    if isinstance(p, Star):
        # Only positions not reached before go round again, so this ends
        # even when the inner pattern matches the empty word.
        reached = set(starts)
        frontier = reached
        while frontier:
            frontier = _ends(p.inner, w, frontier) - reached
            reached |= frontier
        return reached
    raise TypeError(f"not a pattern: {p!r}")


def matches(p: Pattern, w: Word) -> bool:
    """True iff `w` belongs to the regular set denoted by `p`."""
    return len(w) in _ends(p, w, {0})


# Textual form, used by the system dump format.  Grammar:
#   union  := concat ("|" concat)*
#   concat := factor+
#   factor := atom "*"?
#   atom   := "{" sym ("," sym)* "}" | "(" union ")"
# Symbol tokens may not contain the delimiter characters {},()|* or spaces.

_DELIMS = set("{}(),|*")
_TOKEN = re.compile(r"[{}(),|*]|[^\s{}(),|*]+")


def pattern_text(p: Pattern) -> str:
    def render(q: Pattern, parent: str) -> str:
        if isinstance(q, Atom):
            return "{" + ",".join(sorted(q.symbols)) + "}"
        if isinstance(q, Star):
            return render(q.inner, "star") + "*"
        if isinstance(q, Concat):
            body = "".join(render(part, "concat") for part in q.parts)
            return f"({body})" if parent in ("star",) else body
        if isinstance(q, Union):
            body = "|".join(render(a, "union") for a in q.alts)
            return f"({body})" if parent in ("star", "concat") else body
        raise TypeError(f"not a pattern: {q!r}")

    return render(p, "top")


def parse_pattern(text: str) -> Pattern:
    """Parse the textual pattern form; inverse of `pattern_text`."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise FormatError(f"pattern ended unexpectedly (wanted {expected or 'more input'})")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise FormatError(f"expected {expected!r} in pattern, found {tok!r}")
        pos += 1
        return tok

    def parse_atom() -> Pattern:
        tok = peek()
        if tok == "{":
            take("{")
            syms = [take()]
            while peek() == ",":
                take(",")
                syms.append(take())
            take("}")
            for s in syms:
                if s in _DELIMS or not s:
                    raise FormatError(f"bad symbol {s!r} in pattern class")
            return symbol_class(syms)
        if tok == "(":
            take("(")
            inner = parse_union()
            take(")")
            return inner
        raise FormatError(f"unexpected token {tok!r} in pattern")

    def parse_factor() -> Pattern:
        p = parse_atom()
        while peek() == "*":
            take("*")
            p = Star(p)
        return p

    def parse_concat() -> Pattern:
        parts = [parse_factor()]
        while peek() not in (None, "|", ")"):
            parts.append(parse_factor())
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    def parse_union() -> Pattern:
        alts = [parse_concat()]
        while peek() == "|":
            take("|")
            alts.append(parse_concat())
        return alts[0] if len(alts) == 1 else Union(tuple(alts))

    result = parse_union()
    if pos != len(tokens):
        raise FormatError(f"trailing tokens in pattern: {tokens[pos:]!r}")
    return result

"""Filter patterns: symbol-class atoms combined by concatenation, star and union.

The pattern language is deliberately small - it is just enough to express
the filters used by the compilers.  Matching is exact membership in the
denoted regular set, decided by Glushkov's position automaton of the
pattern: its positions are the atoms of the tree plus a start, and after a
prefix of the word it stands on the set of positions that can have read
that prefix's last symbol.  Each call builds the automaton and steps that
set once per symbol, so matching is linear in the word's length however
ambiguous the pattern is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union as TUnion

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


class _Automaton:
    """Glushkov's position automaton of a pattern.

    Position 0 is the start; every atom of the tree is one further
    position.  A state is the set of positions that can have read the last
    symbol; the empty set means no match can continue.
    """

    def __init__(self, p: Pattern):
        self.symbols: list[frozenset[str]] = [frozenset()]  # position -> its atom's symbols
        self.follow: list[set[int]] = [set()]  # position -> positions that may come next
        nullable, first, last = self._positions(p)
        self.follow[0] = first
        self.finals = last | {0} if nullable else last

    def _positions(self, p: Pattern) -> tuple[bool, set[int], set[int]]:
        """(matches the empty word, first positions, last positions) of p; fills follow."""
        if isinstance(p, Atom):
            i = len(self.follow)
            self.symbols.append(p.symbols)
            self.follow.append(set())
            return False, {i}, {i}
        if isinstance(p, Concat):
            nullable, first, last = True, set(), set()
            for part in p.parts:
                n, f, l = self._positions(part)
                for i in last:
                    self.follow[i] |= f
                first = first | f if nullable else first
                last = last | l if n else l
                nullable = nullable and n
            return nullable, first, last
        if isinstance(p, Union):
            nullable, first, last = False, set(), set()
            for a in p.alts:
                n, f, l = self._positions(a)
                nullable, first, last = nullable or n, first | f, last | l
            return nullable, first, last
        if isinstance(p, Star):
            _, first, last = self._positions(p.inner)
            for i in last:
                self.follow[i] |= first
            return True, first, last
        raise TypeError(f"not a pattern: {p!r}")

    def accepts(self, w: Word) -> bool:
        state = {0}
        for sym in w:
            state = {q for i in state for q in self.follow[i] if sym in self.symbols[q]}
            if not state:
                return False
        return not self.finals.isdisjoint(state)


def matches(p: Pattern, w: Word) -> bool:
    """True iff `w` belongs to the regular set denoted by `p`."""
    return _Automaton(p).accepts(w)


def regex_source(p: Pattern, chars: Mapping[str, str]) -> str:
    """A `re` source fullmatching `p`'s words spelled one character per symbol by `chars`.

    A symbol `chars` lacks matches nothing.  `re` backtracks, so an ambiguous star (`{a}**`)
    takes time exponential in a word's length; the compilers' filters parse each word one way.
    """
    if isinstance(p, Atom):
        cls = "".join(sorted(re.escape(chars[s]) for s in p.symbols if s in chars))
        return f"[{cls}]" if cls else "(?!)"  # (?!) matches nothing
    if isinstance(p, Concat):
        return "".join(regex_source(q, chars) for q in p.parts)
    if isinstance(p, Star):
        return f"(?:{regex_source(p.inner, chars)})*"
    if isinstance(p, Union):
        return "(?:" + "|".join(regex_source(a, chars) for a in p.alts) + ")" if p.alts else "(?!)"
    raise TypeError(f"not a pattern: {p!r}")


# Textual form, used by the system dump format.  Grammar:
#   union  := concat ("|" concat)*
#   concat := factor+
#   factor := atom "*"?
#   atom   := "{" sym ("," sym)* "}" | "(" union ")"
# Symbol tokens may not contain the delimiter characters {},()|* or spaces.
# Parentheses and stars nest at most MAX_NESTING deep in all: the parser, the
# automaton, pattern_text and regex_source recurse once per level.

MAX_NESTING = 100
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
    groups = 0  # parentheses open at pos

    def nested(depth: int) -> int:
        if depth > MAX_NESTING:
            raise FormatError(f"pattern nests parentheses and stars deeper than {MAX_NESTING}")
        return depth

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

    # Each parser returns its pattern and the parentheses and stars it nests.
    def parse_atom() -> tuple[Pattern, int]:
        nonlocal groups
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
            return symbol_class(syms), 0
        if tok == "(":
            take("(")
            groups = nested(groups + 1)  # before the descent can exhaust the stack
            inner, depth = parse_union()
            take(")")
            groups -= 1
            return inner, nested(depth + 1)
        raise FormatError(f"unexpected token {tok!r} in pattern")

    def parse_factor() -> tuple[Pattern, int]:
        p, depth = parse_atom()
        while peek() == "*":
            take("*")
            p, depth = Star(p), nested(depth + 1)
        return p, depth

    def parse_concat() -> tuple[Pattern, int]:
        parts = [parse_factor()]
        while peek() not in (None, "|", ")"):
            parts.append(parse_factor())
        depth = max(d for _, d in parts)
        return parts[0][0] if len(parts) == 1 else Concat(tuple(p for p, _ in parts)), depth

    def parse_union() -> tuple[Pattern, int]:
        alts = [parse_concat()]
        while peek() == "|":
            take("|")
            alts.append(parse_concat())
        depth = max(d for _, d in alts)
        return alts[0][0] if len(alts) == 1 else Union(tuple(a for a, _ in alts)), depth

    result, _ = parse_union()
    if pos != len(tokens):
        raise FormatError(f"trailing tokens in pattern: {tokens[pos:]!r}")
    return result

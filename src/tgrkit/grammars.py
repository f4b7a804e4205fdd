"""Regular and Kuroda normal-form grammars with bounded enumeration and membership.

Regular grammars are right-linear (rules X -> aY, X -> a, X -> @); Kuroda
grammars have rules A -> EC, AE -> CD, A -> a, A -> @.  Enumeration and
membership for regular grammars are exact.  For Kuroda grammars they are
bounded searches under explicit caps: results are sound, and the
`exhaustive` flag / `unknown` verdict says whether the search closed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FormatError
from .words import Alphabet, FiniteLanguage, Word, make_alphabet, word_text

REGULAR = "regular"
KURODA = "kuroda"


@dataclass(frozen=True, order=True)
class Rule:
    lhs: Word
    rhs: Word

    def text(self) -> str:
        return f"{word_text(self.lhs)} -> {word_text(self.rhs)}"


@dataclass(frozen=True)
class _Grammar:
    """What both kinds share: symbols, start, rules kept sorted and indexed by lhs head."""

    nonterminals: Alphabet
    terminals: Alphabet
    start: str
    rules: tuple[Rule, ...]

    def __post_init__(self):
        overlap = self.nonterminals & self.terminals
        if overlap:
            raise FormatError(f"nonterminals and terminals overlap: {sorted(overlap)}")
        symbols = make_alphabet(self.nonterminals | self.terminals)
        if "->" in symbols:
            raise FormatError("bad symbol token '->': it separates a rule's sides")
        if self.start not in self.nonterminals:
            raise FormatError(f"start symbol {self.start!r} is not a declared nonterminal")
        for r in self.rules:
            for sym in r.lhs + r.rhs:
                if sym not in symbols:
                    raise FormatError(f"rule {r.text()!r} uses undeclared symbol {sym!r}")
        for r in self.rules:
            self._check_rule(r)
        rules = tuple(sorted(set(self.rules)))
        object.__setattr__(self, "rules", rules)
        by_head: dict[str, list[Rule]] = {}
        for r in rules:
            by_head.setdefault(r.lhs[0], []).append(r)
        object.__setattr__(self, "_by_head", by_head)


class RegularGrammar(_Grammar):
    kind = REGULAR

    def _check_rule(self, r: Rule) -> None:
        if len(r.lhs) != 1 or r.lhs[0] not in self.nonterminals:
            raise FormatError(f"rule {r.text()!r}: left side must be a single nonterminal")
        rhs = r.rhs
        ok = (
            rhs == ()
            or (len(rhs) == 1 and rhs[0] in self.terminals)
            or (len(rhs) == 2 and rhs[0] in self.terminals and rhs[1] in self.nonterminals)
        )
        if not ok:
            raise FormatError(
                f"rule {r.text()!r} is not right-linear (allowed: X -> a Y, X -> a, X -> @)"
            )


class KurodaGrammar(_Grammar):
    kind = KURODA

    def _check_rule(self, r: Rule) -> None:
        nts, lhs, rhs = self.nonterminals, r.lhs, r.rhs
        if not all(s in nts for s in lhs) or len(lhs) not in (1, 2):
            raise FormatError(f"rule {r.text()!r}: left side must be one or two nonterminals")
        if len(lhs) == 1:
            ok = (
                rhs == ()
                or (len(rhs) == 1 and rhs[0] in self.terminals)
                or (len(rhs) == 2 and all(s in nts for s in rhs))
            )
        else:
            ok = len(rhs) == 2 and all(s in nts for s in rhs)
        if not ok:
            raise FormatError(
                f"rule {r.text()!r} is not in Kuroda normal form "
                "(allowed: A -> E C, A E -> C D, A -> a, A -> @)"
            )


Grammar = RegularGrammar | KurodaGrammar


def parse_grammar(text: str) -> Grammar:
    """Parse the line-oriented grammar file format.

    Layout: a "type regular|kuroda" line, then "nonterminals ...",
    "terminals ...", "start ..." and one "rule LHS -> RHS" per line.
    "@" spells the empty right side.  Lines starting with "# " are comments.
    """
    kind: str | None = None
    nonterminals: list[str] = []
    terminals: list[str] = []
    start: str | None = None
    rules: list[Rule] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or raw.startswith("# "):
            continue
        fields = line.split()
        key = fields[0]
        if key == "type":
            if len(fields) != 2 or fields[1] not in (REGULAR, KURODA):
                raise FormatError("expected 'type regular' or 'type kuroda'", line=lineno)
            if kind is not None:
                raise FormatError("duplicate 'type' line", line=lineno)
            kind = fields[1]
        elif key == "nonterminals":
            nonterminals.extend(fields[1:])
        elif key == "terminals":
            terminals.extend(fields[1:])
        elif key == "start":
            if len(fields) != 2:
                raise FormatError("expected 'start <symbol>'", line=lineno)
            if start is not None:
                raise FormatError("duplicate 'start' line", line=lineno)
            start = fields[1]
        elif key == "rule":
            body = fields[1:]
            if "->" not in body:
                raise FormatError(f"rule is missing '->': {line!r}", line=lineno)
            arrow = body.index("->")
            lhs, rhs = body[:arrow], body[arrow + 1 :]
            if not lhs or not rhs:
                raise FormatError(f"rule needs both sides: {line!r}", line=lineno)
            if rhs == ["@"]:
                rhs = []
            if lhs == ["@"]:
                raise FormatError("rule left side may not be empty", line=lineno)
            rules.append(Rule(tuple(lhs), tuple(rhs)))
        else:
            raise FormatError(f"unknown directive {key!r}", line=lineno)

    if kind is None:
        raise FormatError("missing 'type' line")
    if start is None:
        raise FormatError("missing 'start' line")
    cls = RegularGrammar if kind == REGULAR else KurodaGrammar
    return cls(make_alphabet(nonterminals), make_alphabet(terminals), start, tuple(rules))


def grammar_text(g: Grammar) -> str:
    lines = [
        f"type {g.kind}",
        "nonterminals " + " ".join(sorted(g.nonterminals)),
        "terminals " + " ".join(sorted(g.terminals)),
        f"start {g.start}",
    ]
    lines.extend(f"rule {r.text()}" for r in g.rules)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SearchCaps:
    """Limits for the bounded Kuroda derivation search."""

    max_form_len: int = 12
    max_depth: int = 64
    max_visited: int = 200_000


class Verdict(enum.Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class MembershipVerdict:
    verdict: Verdict
    witness: tuple[Word, ...] | None = None


def _rewrites(g: Grammar, form: Word) -> Iterator[tuple[Rule, int, Word]]:
    """Every single rule application to `form` as (rule, position, result).

    Leftmost position first, then rule order among the rules whose left
    side starts with the symbol there.
    """
    heads = g._by_head
    for pos, sym in enumerate(form):
        for r in heads.get(sym, ()):
            end = pos + len(r.lhs)
            if form[pos:end] == r.lhs:
                yield r, pos, form[:pos] + r.rhs + form[end:]


def _search(g: Grammar, k: int, caps: SearchCaps | None, target: Word | None):
    """Breadth-first search over sentential forms for the words of L(G) up to length k.

    Returns (words found, parent links, target or None, exhaustive).  No rule
    rewrites a terminal, so a form with more than k terminals is dead; with
    no erasing rule forms never shrink, so one longer than k is dead too.
    Dropping dead forms keeps the search exact; any cap hit makes it
    inexact.  A regular grammar's live forms are a terminal prefix of at most
    k symbols plus one nonterminal, so it runs uncapped and stays exact.
    """
    caps = SearchCaps(math.inf, math.inf, math.inf) if g.kind == REGULAR else caps or SearchCaps()
    terminals = g.terminals
    erasing = any(not r.rhs for r in g.rules)
    start: Word = (g.start,)
    parents: dict[Word, Word | None] = {start: None}
    found: set[Word] = set()
    frontier = [start] if len(start) <= caps.max_form_len else []
    capped = not frontier
    depth = 0
    while frontier:
        if depth >= caps.max_depth:
            capped = True  # every frontier form still holds a nonterminal
            break
        nxt: list[Word] = []
        for form in frontier:
            for _, _, new in _rewrites(g, form):
                if len(new) > k and (not erasing or sum(s in terminals for s in new) > k):
                    continue
                if len(new) > caps.max_form_len:
                    capped = True
                    continue
                if new in parents:
                    continue
                if len(parents) >= caps.max_visited:
                    capped = True
                    continue
                parents[new] = form
                if terminals.issuperset(new):
                    found.add(new)
                    if new == target:
                        return found, parents, new, not capped
                else:
                    nxt.append(new)
        frontier = nxt
        depth += 1
    return found, parents, None, not capped


def enumerate_language(
    g: Grammar, k: int, caps: SearchCaps | None = None
) -> tuple[FiniteLanguage, bool]:
    """All words of L(G) up to length k, with an exhaustiveness flag.

    Regular grammars are always exhaustive.  Kuroda grammars yield a sound
    under-approximation; exhaustive=False whenever a cap pruned the search.
    """
    if k < 0:
        raise ValueError(f"length bound must be nonnegative, got {k}")
    found, _, _, exhaustive = _search(g, k, caps, None)
    return FiniteLanguage(frozenset(found), g.terminals), exhaustive


def membership(g: Grammar, w: Word, caps: SearchCaps | None = None) -> MembershipVerdict:
    """Decide w in L(G); exact for regular grammars, cap-bounded for Kuroda."""
    for sym in w:
        if sym not in g.terminals:
            raise FormatError(f"word uses symbol {sym!r} outside the grammar's terminals")
    _, parents, hit, closed = _search(g, len(w), caps, w)
    if hit is None:
        return MembershipVerdict(Verdict.NON_MEMBER if closed else Verdict.UNKNOWN)
    chain = []
    form: Word | None = hit
    while form is not None:
        chain.append(form)
        form = parents[form]
    return MembershipVerdict(Verdict.MEMBER, tuple(reversed(chain)))


def derivation_steps(g: Grammar, forms: Iterable[Word]) -> list[tuple[Rule, int]]:
    """Explain a derivation: one (rule, position) per consecutive form pair.

    Raises FormatError naming the first step that is not a single rule
    application of `g`.  When several rules could explain a step the
    leftmost-position, first-rule match is chosen.
    """
    forms = list(forms)
    steps = []
    for i, (cur, nxt) in enumerate(zip(forms, forms[1:]), start=1):
        match = next(((r, pos) for r, pos, new in _rewrites(g, cur) if new == nxt), None)
        if match is None:
            raise FormatError(
                f"derivation step {i} ({word_text(cur)!r} => {word_text(nxt)!r}) "
                "is not a single rule application"
            )
        steps.append(match)
    return steps

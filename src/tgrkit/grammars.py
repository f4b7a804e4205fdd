"""Regular and Kuroda normal-form grammars with bounded enumeration and membership.

Regular grammars are right-linear (rules X -> aY, X -> a, X -> @); Kuroda
grammars have rules A -> EC, AE -> CD, A -> a, A -> @.  Enumeration and
membership for regular grammars are exact.  For Kuroda grammars they are
bounded searches under explicit caps: results are sound, and the
`exhaustive` flag / `unknown` verdict says whether the search closed.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

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
class RegularGrammar:
    nonterminals: Alphabet
    terminals: Alphabet
    start: str
    rules: tuple[Rule, ...]

    kind = REGULAR

    def __post_init__(self):
        _check_common(self)
        for r in self.rules:
            if len(r.lhs) != 1 or r.lhs[0] not in self.nonterminals:
                raise FormatError(f"rule {r.text()!r}: left side must be a single nonterminal")
            rhs = r.rhs
            ok = (
                rhs == ()
                or (len(rhs) == 1 and rhs[0] in self.terminals)
                or (
                    len(rhs) == 2
                    and rhs[0] in self.terminals
                    and rhs[1] in self.nonterminals
                )
            )
            if not ok:
                raise FormatError(
                    f"rule {r.text()!r} is not right-linear (allowed: X -> a Y, X -> a, X -> @)"
                )
        object.__setattr__(self, "rules", tuple(sorted(set(self.rules))))


@dataclass(frozen=True)
class KurodaGrammar:
    nonterminals: Alphabet
    terminals: Alphabet
    start: str
    rules: tuple[Rule, ...]

    kind = KURODA

    def __post_init__(self):
        _check_common(self)
        nts, ts = self.nonterminals, self.terminals
        for r in self.rules:
            lhs, rhs = r.lhs, r.rhs
            if not all(s in nts for s in lhs) or len(lhs) not in (1, 2):
                raise FormatError(
                    f"rule {r.text()!r}: left side must be one or two nonterminals"
                )
            if len(lhs) == 1:
                ok = (
                    rhs == ()
                    or (len(rhs) == 1 and rhs[0] in ts)
                    or (len(rhs) == 2 and all(s in nts for s in rhs))
                )
            else:
                ok = len(rhs) == 2 and all(s in nts for s in rhs)
            if not ok:
                raise FormatError(
                    f"rule {r.text()!r} is not in Kuroda normal form "
                    "(allowed: A -> E C, A E -> C D, A -> a, A -> @)"
                )
        object.__setattr__(self, "rules", tuple(sorted(set(self.rules))))

    @property
    def has_erasing_rules(self) -> bool:
        return any(r.rhs == () for r in self.rules)


Grammar = RegularGrammar | KurodaGrammar


def _check_common(g) -> None:
    overlap = g.nonterminals & g.terminals
    if overlap:
        raise FormatError(f"nonterminals and terminals overlap: {sorted(overlap)}")
    if g.start not in g.nonterminals:
        raise FormatError(f"start symbol {g.start!r} is not a declared nonterminal")
    for r in g.rules:
        for sym in r.lhs + r.rhs:
            if sym not in g.nonterminals and sym not in g.terminals:
                raise FormatError(f"rule {r.text()!r} uses undeclared symbol {sym!r}")


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

    @property
    def is_member(self) -> bool:
        return self.verdict is Verdict.MEMBER


def _rules_by_lhs_head(g: Grammar) -> dict[str, list[Rule]]:
    by_head: dict[str, list[Rule]] = {}
    for r in g.rules:
        by_head.setdefault(r.lhs[0], []).append(r)
    return by_head


def _regular_search(g: RegularGrammar, k: int, target: Word | None):
    """BFS over right-linear sentential forms (terminal prefix + one nonterminal).

    With `target` set, stops early on finding it; prefixes longer than k are
    dead because right-linear forms never shrink.
    """
    by_head = _rules_by_lhs_head(g)
    start: Word = (g.start,)
    parents: dict[Word, Word | None] = {start: None}
    found: set[Word] = set()
    queue = deque([start])
    while queue:
        form = queue.popleft()
        prefix = form[:-1]
        for r in by_head.get(form[-1], ()):
            if r.rhs and len(prefix) + 1 > k:
                continue
            new = prefix + r.rhs
            if new in parents:
                continue
            parents[new] = form
            if len(r.rhs) == 2:
                queue.append(new)
            else:
                found.add(new)
                if new == target:
                    return found, parents, new
    return found, parents, None


def _kuroda_search(g: KurodaGrammar, k: int, caps: SearchCaps, target: Word | None):
    """Bounded BFS over sentential forms.

    Forms never shrink when the grammar has no erasing rules, so forms longer
    than the output bound can be dropped without losing exhaustiveness; any
    other cap hit makes the search inexact.
    """
    terminals = g.terminals
    erasing = g.has_erasing_rules
    sound_len_cap = None if erasing else k
    start: Word = (g.start,)
    parents: dict[Word, Word | None] = {start: None}
    found: set[Word] = set()
    capped = False
    if len(start) > caps.max_form_len:
        return found, parents, None, False

    frontier = [start]
    depth = 0
    while frontier:
        if depth >= caps.max_depth:
            capped = capped or any(
                any(s not in terminals for s in form) for form in frontier
            )
            break
        nxt: list[Word] = []
        for form in frontier:
            for pos in range(len(form)):
                for r in g.rules:
                    L = len(r.lhs)
                    if form[pos : pos + L] != r.lhs:
                        continue
                    new = form[:pos] + r.rhs + form[pos + L :]
                    if sound_len_cap is not None and len(new) > sound_len_cap:
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
                    if all(s in terminals for s in new):
                        if len(new) <= k:
                            found.add(new)
                        if new == target:
                            return found, parents, new, not capped
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
    if isinstance(g, RegularGrammar):
        found, _, _ = _regular_search(g, k, None)
        exhaustive = True
    else:
        found, _, _, exhaustive = _kuroda_search(g, k, caps or SearchCaps(), None)
    return FiniteLanguage(frozenset(found), g.terminals), exhaustive


def membership(g: Grammar, w: Word, caps: SearchCaps | None = None) -> MembershipVerdict:
    """Decide w in L(G); exact for regular grammars, cap-bounded for Kuroda."""
    for sym in w:
        if sym not in g.terminals:
            raise FormatError(f"word uses symbol {sym!r} outside the grammar's terminals")
    if isinstance(g, RegularGrammar):
        _, parents, hit = _regular_search(g, len(w), w)
        closed = True
    else:
        _, parents, hit, closed = _kuroda_search(g, len(w), caps or SearchCaps(), w)
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
    for i in range(len(forms) - 1):
        cur, nxt = forms[i], forms[i + 1]
        match = None
        for pos in range(len(cur)):
            for r in g.rules:
                L = len(r.lhs)
                if cur[pos : pos + L] == r.lhs and cur[:pos] + r.rhs + cur[pos + L :] == nxt:
                    match = (r, pos)
                    break
            if match:
                break
        if match is None:
            raise FormatError(
                f"derivation step {i + 1} ({word_text(cur)!r} => {word_text(nxt)!r}) "
                "is not a single rule application"
            )
        steps.append(match)
    return steps

"""Compile a regular grammar into a template-guided recombination pipeline.

The compiled system works over the grammar's symbols plus one fresh end
marker "#".  Base words encode single rule applications, templates encode
composable rule pairs, a regular filter keeps only well-formed encodings
(start symbol up front, end marker(s) at the back), and a weak coding strips
nonterminals and markers.  Evaluating the pipeline under sufficient bounds
reproduces the grammar's language; `equiv_check` verifies that against the
grammar enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dumps import Compiled
from .errors import FormatError
from .grammars import RegularGrammar, enumerate_language
from .patterns import seq, star, symbol_class, alt, matches
from .tgr import TGRSystem, closure
from .words import FiniteLanguage, WeakCoding, Word, sort_words

END = "#"


def compile_regular(g: RegularGrammar) -> Compiled:
    """Build the recombination system, base language, filter and coding for g."""
    if END in g.nonterminals or END in g.terminals:
        raise FormatError(f"grammar may not use the reserved end marker {END!r}")
    sigma_prime = g.nonterminals | g.terminals | {END}

    chain = [(r.lhs[0], r.rhs[0], r.rhs[1]) for r in g.rules if len(r.rhs) == 2]
    terminal = [(r.lhs[0], r.rhs[0]) for r in g.rules if len(r.rhs) == 1]
    erasing = [r.lhs[0] for r in g.rules if r.rhs == ()]

    base_prov: dict[Word, list[str]] = {}
    tmpl_prov: dict[Word, list[str]] = {}

    def add(prov: dict[Word, list[str]], w: Word, label: str) -> None:
        prov.setdefault(w, []).append(label)

    # Base words: one per rule application shape.
    for x, a in terminal:
        if x == g.start:
            add(base_prov, (g.start, a, END), f"L1 {g.start} -> {a}")
        add(base_prov, (x, a, END), f"L5 {x} -> {a}")
    for x, a, y in chain:
        if x == g.start:
            add(base_prov, (g.start, a, y), f"L2 {g.start} -> {a} {y}")
        add(base_prov, (x, a, y), f"L3 {x} -> {a} {y}")
        if y == x:
            add(base_prov, (x, a, x), f"L4 {x} -> {a} {x}")
    for x in erasing:
        add(base_prov, (x, END, END), f"L6 {x} -> @")

    # Templates: one per composable rule pair.
    continuations: dict[str, list[tuple[str, str]]] = {}
    for x, b, z in chain:
        continuations.setdefault(x, []).append((b, f"{x} -> {b} {z}"))
    for x, b in terminal:
        continuations.setdefault(x, []).append((b, f"{x} -> {b}"))
    for y, a, x in chain:
        for b, second in continuations.get(x, ()):
            add(tmpl_prov, (a, x, b), f"T1 {y} -> {a} {x} + {second}")
        if x in erasing:
            add(tmpl_prov, (a, x, END), f"T3 {y} -> {a} {x} + {x} -> @")
        if x == y:
            add(tmpl_prov, (a, x, a), f"T2 {x} -> {a} {x}")

    base = FiniteLanguage(frozenset(base_prov), sigma_prime)
    system = TGRSystem(templates=tmpl_prov, alphabet=sigma_prime, n1=1, n2=1)

    # The filter accepts exactly the two terminal encoding shapes:
    # S (a X)* a #  and  S (a X)* # #.
    filter_pattern = seq(
        symbol_class({g.start}),
        star(seq(symbol_class(g.terminals), symbol_class(g.nonterminals))),
        alt(
            seq(symbol_class(g.terminals), symbol_class({END})),
            seq(symbol_class({END}), symbol_class({END})),
        ),
    )

    coding = WeakCoding(
        {**{n: None for n in g.nonterminals}, **{a: a for a in g.terminals}, END: None}
    )

    return Compiled(
        grammar=g,
        system=system,
        base=base,
        filter=filter_pattern,
        coding=coding,
        base_provenance={w: tuple(sorted(set(v))) for w, v in base_prov.items()},
        template_provenance={w: tuple(sorted(set(v))) for w, v in tmpl_prov.items()},
    )


def pipeline_language(
    cr: Compiled,
    k: int,
    max_len: int,
    max_rounds: int,
    max_set_size: int = 1_000_000,
) -> tuple[FiniteLanguage, bool]:
    """Evaluate the pipeline: closure, filter, coding, cut to length <= k.

    Exhaustive iff the closure reached its fixpoint and max_len covers every
    encoding of a length-k word (2k+3 symbols); encodings only grow during
    the closure, so truncation beyond that bound cannot hide short words.
    """
    if k < 0:
        raise ValueError(f"length bound must be nonnegative, got {k}")
    res = closure(cr.system, cr.base, max_len, max_rounds, max_set_size)
    decoded = {
        cr.coding.apply(w)
        for w in res.language.words
        if matches(cr.filter, w)
    }
    out = frozenset(w for w in decoded if len(w) <= k)
    exhaustive = res.reached_fixpoint and max_len >= 2 * k + 3
    return FiniteLanguage(out, cr.grammar.terminals), exhaustive


@dataclass(frozen=True)
class ComplexityReport:
    rule_count: int
    template_count: int
    alphabet_size: int
    quadratic_bound: int
    cubic_bound: int
    expected_alphabet_size: int

    @property
    def template_bound_holds(self) -> bool:
        return self.template_count <= self.quadratic_bound

    @property
    def alphabet_size_matches(self) -> bool:
        return self.alphabet_size == self.expected_alphabet_size

    @property
    def ok(self) -> bool:
        return self.template_bound_holds and self.alphabet_size_matches


def complexity_report(cr: Compiled) -> ComplexityReport:
    """Template and alphabet counts with their bounds.

    This construction pairs at most two rules per template, so the template
    count is bounded by the square of the rule count; the older triple-rule
    construction needs the cube.  The alphabet adds exactly one marker.
    """
    n = len(cr.grammar.rules)
    return ComplexityReport(
        rule_count=n,
        template_count=len(cr.system.templates),
        alphabet_size=len(cr.system.alphabet),
        quadratic_bound=n * n,
        cubic_bound=n * n * n,
        expected_alphabet_size=len(cr.grammar.nonterminals) + len(cr.grammar.terminals) + 1,
    )


@dataclass(frozen=True)
class EquivReport:
    k: int
    missing: tuple[Word, ...]
    extra: tuple[Word, ...]
    exhaustive: bool

    @property
    def verdict(self) -> str:
        if self.extra:
            return "fail"
        if self.missing:
            return "fail" if self.exhaustive else "inconclusive"
        return "pass" if self.exhaustive else "inconclusive"


def equiv_check(
    cr: Compiled,
    k: int,
    max_len: int | None = None,
    max_rounds: int = 256,
    max_set_size: int = 1_000_000,
) -> EquivReport:
    """Compare the pipeline language against the grammar enumeration oracle.

    Extra words are a construction bug at any cap; missing words are only
    conclusive when the pipeline evaluation was exhaustive.
    """
    if max_len is None:
        max_len = 2 * k + 3
    got, exhaustive = pipeline_language(cr, k, max_len, max_rounds, max_set_size)
    want, _ = enumerate_language(cr.grammar, k)
    return EquivReport(
        k=k,
        missing=tuple(sort_words(want.words - got.words)),
        extra=tuple(sort_words(got.words - want.words)),
        exhaustive=exhaustive,
    )


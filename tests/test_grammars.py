from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from tgrkit import (
    FormatError,
    KurodaGrammar,
    RegularGrammar,
    SearchCaps,
    Verdict,
    enumerate_language,
    grammar_text,
    membership,
    parse_grammar,
    word,
)
from tgrkit.grammars import Rule, derivation_steps
from conftest import DATA, TEXT_SYMBOLS, load_grammar, random_regular_grammar


def test_parse_regular_grammar(astar_b):
    assert isinstance(astar_b, RegularGrammar)
    assert astar_b.start == "S"
    assert Rule(("S",), ("a", "S")) in astar_b.rules
    assert Rule(("S",), ("b",)) in astar_b.rules


def test_parse_rejects_non_right_linear():
    text = "type regular\nnonterminals S\nterminals a b\nstart S\nrule S -> a b\n"
    with pytest.raises(FormatError) as exc:
        parse_grammar(text)
    assert "right-linear" in str(exc.value)


def test_parse_kuroda_pair_rule():
    text = (
        "type kuroda\nnonterminals A B C D\nterminals a\nstart A\n"
        "rule A B -> C D\nrule A -> a\n"
    )
    g = parse_grammar(text)
    assert isinstance(g, KurodaGrammar)
    assert Rule(("A", "B"), ("C", "D")) in g.rules


def test_parse_reports_line_numbers():
    text = "type regular\nnonterminals S\nterminals a\nstart S\nrule S ->\n"
    with pytest.raises(FormatError) as exc:
        parse_grammar(text)
    assert "line 5" in str(exc.value)


def test_parse_rejects_undeclared_symbols():
    text = "type regular\nnonterminals S\nterminals a\nstart S\nrule S -> q S\n"
    with pytest.raises(FormatError, match="line 5: rule 'S -> q S' uses undeclared symbol 'q'"):
        parse_grammar(text)


def test_grammar_text_round_trip(astar_b, anbn):
    assert parse_grammar(grammar_text(astar_b)) == astar_b
    assert parse_grammar(grammar_text(anbn)) == anbn


def test_parse_rejects_second_start_line():
    text = "type regular\nnonterminals S A\nterminals a\nstart S\nstart A\nrule A -> a\n"
    with pytest.raises(FormatError, match="line 5: duplicate 'start' line"):
        parse_grammar(text)


# Errors about the whole grammar file name no line: every other parse error names a line.
WHOLE_GRAMMAR_ERRORS = (
    "missing 'type' line",
    "missing 'start' line",
    "nonterminals and terminals overlap: ",
    "start symbol ",
)
GRAMMAR_FILES = sorted(p.name for p in DATA.glob("*") if p.suffix in (".grammar", ".kuroda"))
GRAMMAR_LINE_EDITS = [
    *TEXT_SYMBOLS, "", "type regular", "type kuroda", "type", "start S", "start q",
    "nonterminals S A q", "nonterminals a", "nonterminals ->", "terminals a @", "terminals S",
    "rule S -> q S", "rule S -> a", "rule S -> a b", "rule S -> A a", "rule S A -> C D",
    "rule a -> b", "rule S A -> a", "rule S -> @", "rule @ -> a", "rule S ->", "rule S a",
]


@pytest.mark.parametrize("name", GRAMMAR_FILES)
def test_every_single_line_edit_of_a_grammar_parses_or_names_its_line(name):
    lines = (DATA / name).read_text().splitlines()
    line_tied = 0
    for i in range(len(lines)):
        for new in GRAMMAR_LINE_EDITS:
            edited = "\n".join([*lines[:i], new, *lines[i + 1:]]) + "\n"
            try:
                parse_grammar(edited)
            except FormatError as exc:
                msg = str(exc)
                if exc.line is None:
                    assert msg.startswith(WHOLE_GRAMMAR_ERRORS), (i + 1, new, msg)
                else:
                    assert 1 <= exc.line <= len(lines), (i + 1, new, msg)
                    assert msg.startswith(f"line {exc.line}: "), (i + 1, new, msg)
                    line_tied += "rule '" in msg or "bad symbol token" in msg
    assert line_tied  # the rule and symbol-token errors are among those that name a line


@pytest.mark.parametrize("sym", ["->", "@"])
def test_grammar_rejects_format_tokens_as_symbols(sym):
    with pytest.raises(FormatError, match=f"bad symbol token '{sym}'"):
        KurodaGrammar(frozenset({"S", sym, "D"}), frozenset({"a"}), "S",
                      (Rule((sym,), ("S", "D")),))


@st.composite
def grammar_fields(draw):
    """Fields of a well-formed grammar of either kind over TEXT_SYMBOLS."""
    symbols = draw(st.lists(st.sampled_from(TEXT_SYMBOLS), min_size=2, unique=True))
    cut = draw(st.integers(1, len(symbols) - 1))
    nts, ts = symbols[:cut], symbols[cut:]
    nt, t = st.sampled_from(nts), st.sampled_from(ts)
    one, two = st.tuples(nt), st.tuples(nt, nt)
    if draw(st.booleans()):
        cls, rhs = RegularGrammar, st.one_of(st.just(()), st.tuples(t), st.tuples(t, nt))
        rule = st.builds(Rule, one, rhs)
    else:
        cls, rhs = KurodaGrammar, st.one_of(st.just(()), st.tuples(t), two)
        rule = st.one_of(st.builds(Rule, one, rhs), st.builds(Rule, two, two))
    rules = draw(st.lists(rule, max_size=5))
    return cls, frozenset(nts), frozenset(ts), draw(nt), tuple(rules)


@given(grammar_fields())
@example((KurodaGrammar, frozenset({"S", "->", "D"}), frozenset({"a"}), "S",
          (Rule(("->",), ("S", "D")),)))
def test_grammar_text_round_trips(fields):
    cls, nts, ts, start, rules = fields
    try:
        g = cls(nts, ts, start, rules)
    except FormatError:  # only symbols that spell format tokens are refused
        assert {"@", "->"} & (nts | ts)
        return
    assert parse_grammar(grammar_text(g)) == g


def test_enumerate_astar_b(astar_b):
    lang, exhaustive = enumerate_language(astar_b, 3)
    assert exhaustive
    assert lang.words == {word("b"), word("a b"), word("a a b")}


def test_enumerate_lambda_only():
    g = load_grammar("lambda_only.grammar")
    lang, exhaustive = enumerate_language(g, 5)
    assert exhaustive
    assert lang.words == {()}


def test_enumerate_kuroda_anbn(anbn):
    lang, exhaustive = enumerate_language(anbn, 4)
    assert lang.words == {word("a b"), word("a a b b")}
    assert exhaustive  # no erasing rules, so pruning at k is sound


def test_enumerate_monotone_in_k(astar_b, anbn):
    for g in (astar_b, anbn, load_grammar("ab_star.grammar")):
        for k in range(5):
            small, _ = enumerate_language(g, k)
            big, _ = enumerate_language(g, k + 1)
            assert small.words <= big.words


def grammar_nfa_accepts(g: RegularGrammar, w) -> bool:
    """Independent oracle: simulate the grammar as an automaton."""
    states = {g.start}
    accept_now = any(r.rhs == () and r.lhs == (s,) for s in states for r in g.rules)
    for sym in w:
        nxt = set()
        accept_now = False
        for s in states:
            for r in g.rules:
                if r.lhs != (s,) or not r.rhs or r.rhs[0] != sym:
                    continue
                if len(r.rhs) == 2:
                    nxt.add(r.rhs[1])
                else:
                    accept_now = True
        states = nxt
        accept_now = accept_now or any(
            r.rhs == () and r.lhs == (s,) for s in states for r in g.rules
        )
    return accept_now if w else any(r.rhs == () and r.lhs == (g.start,) for r in g.rules)


@pytest.mark.parametrize(
    "name",
    [
        "astar_b.grammar",
        "ab_star.grammar",
        "finite_abc.grammar",
        "a_star.grammar",
        "ends_ab.grammar",
        "unreachable.grammar",
        "random",
    ],
)
def test_regular_enumeration_matches_automaton_simulation(name):
    if name == "random":
        rng = random.Random(8)
        grammars = [random_regular_grammar(rng) for _ in range(20)]
        assert sum(any(r.rhs == () for r in g.rules) for g in grammars) >= 5  # X -> @ rules
        k = 6
    else:
        grammars, k = [load_grammar(name)], 8
    for g in grammars:
        lang, exhaustive = enumerate_language(g, k)
        assert exhaustive
        for n in range(k + 1):
            for w in itertools.product(sorted(g.terminals), repeat=n):
                accepts = grammar_nfa_accepts(g, w)
                assert (w in lang.words) == accepts, (name, g, w)
                verdict = membership(g, w)
                assert (verdict.verdict is Verdict.MEMBER) == accepts, (name, g, w)
                if accepts:  # the witness replays from the start symbol to w
                    forms = verdict.witness
                    assert forms[0] == (g.start,) and forms[-1] == w
                    assert len(derivation_steps(g, forms)) == len(forms) - 1
                else:
                    assert verdict.verdict is Verdict.NON_MEMBER


def test_membership_regular_with_witness(astar_b):
    verdict = membership(astar_b, word("a a b"))
    assert verdict.verdict is Verdict.MEMBER
    assert verdict.witness == (("S",), ("a", "S"), ("a", "a", "S"), ("a", "a", "b"))
    # the witness replays: consecutive forms differ by one rule application
    assert len(derivation_steps(astar_b, verdict.witness)) == 3


def test_membership_regular_non_member(astar_b):
    assert membership(astar_b, word("b a")).verdict is Verdict.NON_MEMBER


def test_regular_search_ignores_caps(astar_b):
    # 13 symbols exceed the default max_form_len of 12; regular searches stay exact.
    tight = SearchCaps(max_form_len=2, max_depth=1, max_visited=1)
    for caps in (None, tight):
        got = membership(astar_b, ("a",) * 12 + ("b",), caps)
        assert got.verdict is Verdict.MEMBER and len(got.witness) == 14
        assert membership(astar_b, ("a",) * 13, caps).verdict is Verdict.NON_MEMBER
        lang, exhaustive = enumerate_language(astar_b, 13, caps)
        assert exhaustive and len(lang) == 13


def test_membership_kuroda_closes_with_caps(anbn):
    caps = SearchCaps(max_form_len=6, max_depth=10, max_visited=10_000)
    assert membership(anbn, word("a b b"), caps).verdict is Verdict.NON_MEMBER
    got = membership(anbn, word("a a b b"), caps)
    assert got.verdict is Verdict.MEMBER
    assert len(derivation_steps(anbn, got.witness)) == len(got.witness) - 1


def test_membership_kuroda_unknown_when_capped(anbn):
    caps = SearchCaps(max_form_len=6, max_depth=2, max_visited=10_000)
    assert membership(anbn, word("a b b"), caps).verdict is Verdict.UNKNOWN


def test_kuroda_search_drops_forms_with_too_many_terminals():
    # B -> @ lets forms shrink, so length does not bound them; terminals are
    # never rewritten, so a form with more than k of them is still dead.
    g = parse_grammar(
        "type kuroda\nnonterminals S A B C D\nterminals a\nstart S\n"
        "rule S -> A B\nrule A -> C D\nrule C -> a\nrule D -> a\nrule B -> @\nrule B -> a\n"
    )
    caps = SearchCaps(max_form_len=12, max_depth=64, max_visited=11)
    lang, exhaustive = enumerate_language(g, 1, caps)
    assert exhaustive and not lang.words
    assert membership(g, word("a"), caps).verdict is Verdict.NON_MEMBER
    assert membership(g, word("a a a")).verdict is Verdict.MEMBER


def test_membership_consistent_with_enumeration(anbn):
    lang, exhaustive = enumerate_language(anbn, 4)
    assert exhaustive
    for w in lang:
        assert membership(anbn, w).verdict is Verdict.MEMBER
    # and the forward direction: member verdicts land inside exhaustive enumerations
    for w in itertools.product(sorted(anbn.terminals), repeat=4):
        if membership(anbn, tuple(w)).verdict is Verdict.MEMBER:
            assert tuple(w) in lang.words


def test_derivation_steps_rejects_bad_step(astar_b):
    with pytest.raises(FormatError) as exc:
        derivation_steps(astar_b, [("S",), ("b", "b")])
    assert "step 1" in str(exc.value)

from __future__ import annotations

import dataclasses
import random

import pytest

from tgrkit import (
    CTGRSystem,
    FormatError,
    SearchCaps,
    TraceError,
    closure,
    compile_kuroda,
    dump_text,
    enumerate_language,
    load_dump,
    membership,
    parse_grammar,
    pipeline_language_pc,
    recombine,
    simulate_derivation,
    soundness_check,
    tau,
    word,
    word_text,
)
from tgrkit.ctgr import PCTemplate
from tgrkit.patterns import pattern_text
from tgrkit.recompile import (
    B,
    B1,
    B2,
    BLOCK,
    NEEDS_X,
    X,
    XP,
    Y,
    Z,
    ZP,
    partner,
    rotatable,
    rotate_cycle,
    rotating_marker,
    start_word,
    trace_lines,
)
from tgrkit.tgr import step_events

from conftest import load_grammar


@pytest.fixture(scope="module")
def cr():
    return compile_kuroda(load_grammar("anbn.kuroda"))


AB_DERIVATION = [word("S"), word("A C"), word("a C"), word("a b")]
AABB_DERIVATION = [
    word("S"),
    word("A C"),
    word("A S D"),
    word("A A C D"),
    word("A A b D"),
    word("A A b b"),
    word("a A b b"),
    word("a a b b"),
]


def test_compile_base_contents(cr, anbn):
    assert start_word(cr) == word("X B B1 B2 S Y")
    assert start_word(cr) in cr.base.words
    # rule A -> a contributes Z c a Y for every c in U
    for c in sorted(rotatable(cr.grammar)):
        assert (Z, c, "a", Y) in cr.base.words
    assert len(rotatable(cr.grammar)) == len(anbn.nonterminals) + len(anbn.terminals) + 3


def test_group3_template_count(cr):
    u = len(rotatable(cr.grammar))
    rotate2 = [t for t, labels in cr.template_provenance.items()
               if any(l.startswith("rotate-2") for l in labels)]
    assert len(rotate2) == u**3


def test_every_template_names_a_base_marker(cr):
    for tp in cr.system.templates:
        assert Z in tp.e1 + tp.d1 or ZP in tp.e1 + tp.d1
    for w, labels in cr.base_provenance.items():
        if any(l.startswith("L1") for l in labels):
            continue
        assert Z in w or ZP in w


@pytest.mark.parametrize("name", ["anbn.kuroda", "single_a.kuroda"])
def test_base_is_start_word_and_template_partners(name):
    cr = compile_kuroda(load_grammar(name))
    assert cr.base.words == {start_word(cr)} | {partner(tp) for tp in cr.system.templates}


def test_compiled_templates_share_context_sets(cr):
    needs_x = [tp.c1 for tp in cr.system.templates if tp.c1 == NEEDS_X]
    assert needs_x and all(c is NEEDS_X for c in needs_x)
    # One set object per distinct context set, rotate-2's {Y_b} included.
    sets = [c for tp in cr.system.templates for c in (tp.c1, tp.c2)]
    assert len({id(c) for c in sets}) == len(set(sets))


def test_compile_rejects_marker_clash():
    text = "type kuroda\nnonterminals S B\nterminals a\nstart S\nrule S -> a\nrule B -> a\n"
    with pytest.raises(FormatError):
        compile_kuroda(parse_grammar(text))


# Y_X is a legal grammar symbol, so rotate-2's marker for X is in the alphabet; X is still not in U.
Y_X_GRAMMAR = "type kuroda\nnonterminals S Y_X\nterminals a\nstart S\nrule S -> a\n"


@pytest.mark.parametrize(
    "w, message",
    [
        ("X B B1 B2 S", "not a rotatable word"),
        ("B B1 B2 S Y", "not a rotatable word"),
        ("X B1 B2 Y", "content too short to rotate"),
        ("X B B1 B2 X Y", "content symbol 'X' is not rotatable"),
        ("X B B1 B2 Y_X S q Y", "content symbol 'q' is not rotatable"),
    ],
)
def test_rotate_cycle_rejects_unrotatable_words(w, message):
    g = parse_grammar(Y_X_GRAMMAR)
    cr = compile_kuroda(g)
    assert rotating_marker("X") in cr.system.alphabet and "X" not in rotatable(g)
    with pytest.raises(TraceError, match=message):
        rotate_cycle(cr, word(w))


def test_rotate_cycle_round_trip(cr):
    rng = random.Random(5150)
    syms = sorted(rotatable(cr.grammar))
    for _ in range(120):
        inner = tuple(rng.choices(syms, k=rng.randint(3, 6)))
        w = (X,) + inner + (Y,)
        events, rotated = rotate_cycle(cr, w)
        assert rotated == (X, inner[-1]) + inner[:-1] + (Y,)
        assert [e.phase for e in events] == ["rotate-1", "rotate-2", "rotate-3", "rotate-4"]
        for te in events:
            assert te.event in recombine(cr.system, te.event.x, te.event.y, te.event.template)


def test_trace_ab(cr):
    trace = simulate_derivation(cr, AB_DERIVATION)
    assert trace.final_word == word("a b Y")
    assert cr.coding.apply(trace.final_word) == word("a b")
    phases = [te.phase for te in trace.events]
    assert phases[-1] == "terminate"
    assert phases.count("simulate") == len(AB_DERIVATION) - 1
    # rotations come in complete 1-2-3-4 cycles
    rot = [p for p in phases if p.startswith("rotate")]
    assert rot == ["rotate-1", "rotate-2", "rotate-3", "rotate-4"] * (len(rot) // 4)


def test_trace_events_revalidate_through_engine(cr):
    trace = simulate_derivation(cr, AB_DERIVATION)
    for te in trace.events:
        ev = te.event
        assert ev in recombine(cr.system, ev.x, ev.y, ev.template)
        # equations replay exactly
        ab = ev.alpha + ev.beta
        assert ev.x[ev.pos_x : ev.pos_x + len(ab + ev.template.d1)] == ab + ev.template.d1
        needle = ev.template.e1 + ev.beta + ev.gamma
        assert ev.y[ev.pos_y : ev.pos_y + len(needle)] == needle
        assert ev.w == ev.x[: ev.pos_x + len(ab)] + ev.gamma + ev.y[ev.pos_y + len(needle) :]


def test_trace_aabb(cr):
    trace = simulate_derivation(cr, AABB_DERIVATION)
    assert trace.final_word == word("a a b b Y")
    assert cr.coding.apply(trace.final_word) == word("a a b b")
    lines = trace_lines(trace)
    assert len(lines) == len(trace.events)
    assert all(line.count("|") == 4 for line in lines)


def test_trace_chains_through_base_words(cr):
    trace = simulate_derivation(cr, AB_DERIVATION)
    reachable = set(cr.base.words) | {start_word(cr)}
    for te in trace.events:
        ev = te.event
        assert ev.x in reachable and ev.y in reachable
        # every event involves a Z/Z'-carrying partner from the base language
        assert any(
            p in cr.base.words and (Z in p or ZP in p) for p in (ev.x, ev.y)
        )
        reachable.add(ev.w)
    assert trace.final_word in reachable


def test_trace_rejects_invalid_derivation(cr):
    with pytest.raises(TraceError):
        simulate_derivation(cr, [word("S"), word("a a")])
    with pytest.raises(TraceError):
        simulate_derivation(cr, [word("A C"), word("a C")])


def test_trace_reports_short_terminal_words():
    g = load_grammar("single_a.kuroda")
    cr1 = compile_kuroda(g)
    with pytest.raises(TraceError) as exc:
        simulate_derivation(cr1, [word("S"), word("a")])
    assert "terminate" in str(exc.value)


def test_pipeline_includes_ab_at_sufficient_rounds(cr):
    lang, _ = pipeline_language_pc(cr, 4, max_len=16, max_rounds=24)
    assert word("a b") in lang.words
    report = soundness_check(cr, 4, max_len=16, max_rounds=26)
    assert report.verdict == "sound"
    assert word("a b") in report.produced


def test_pipeline_minimal_round_for_ab_matches_trace_length(cr):
    # the traced witness has 24 events, and the closure finds the word
    # exactly at that depth - not a round earlier
    trace = simulate_derivation(cr, AB_DERIVATION)
    depth = len(trace.events)
    assert depth == 24
    before, _ = pipeline_language_pc(cr, 4, max_len=16, max_rounds=depth - 1)
    at, _ = pipeline_language_pc(cr, 4, max_len=16, max_rounds=depth)
    assert word("a b") not in before.words
    assert word("a b") in at.words


def test_empty_rule_set_generates_nothing():
    g = parse_grammar(
        "type kuroda\nnonterminals S\nterminals a\nstart S\n"
    )
    cr0 = compile_kuroda(g)
    lang, fixpoint = pipeline_language_pc(cr0, 3, max_len=10, max_rounds=8)
    assert lang.words == frozenset()


def test_marker_discipline_on_closure_words(cr):
    res = closure(cr.system, cr.base, max_len=12, max_rounds=30, max_set_size=60_000)
    u = rotatable(cr.grammar)
    flank_pairs = set()
    for w in res.language.words - cr.base.words:
        assert Z not in w and ZP not in w
        if w[0] in (X, XP):
            assert w[-1] == Y or w[-1].startswith("Y_")
            assert all(s in u for s in w[1:-1])
            flank_pairs.add((w[0], "Y" if w[-1] == Y else "Y_b"))
        else:
            # termination output: plain content then the right end marker
            assert w[-1] == Y and all(s in u for s in w[:-1])
    assert flank_pairs == {(X, "Y"), (X, "Y_b"), (XP, "Y_b"), (XP, "Y")}


def test_every_closure_event_touches_a_marked_base_word(cr):
    res = closure(cr.system, cr.base, max_len=10, max_rounds=8, max_set_size=40_000)
    for ev in step_events(cr.system, res.language):
        assert any(
            p in cr.base.words and (Z in p or ZP in p) for p in (ev.x, ev.y)
        )


def test_soundness_check_flags_short_deletion_context(cr):
    """Terminate templates whose left context stops at B2 prepend a junk
    symbol to every output; the soundness checker must catch the fallout."""
    extra = []
    u = sorted(rotatable(cr.grammar))
    for a in u:
        for b in u:
            for c in u + [Y]:
                extra.append(
                    PCTemplate((X, B, B1, B2), (a, b, c), (ZP,), frozenset(), frozenset({(Y,)}))
                )
    mutated_system = CTGRSystem(
        templates=cr.system.templates + tuple(extra),
        alphabet=cr.system.alphabet,
        n1=1,
        n2=1,
    )
    mutated = dataclasses.replace(cr, system=mutated_system)
    report = soundness_check(mutated, 4, max_len=16, max_rounds=24)
    assert report.verdict == "unsound"
    assert word("a a b") in report.non_members or word("b a b") in report.non_members


def test_filtered_outputs_are_over_terminals(cr):
    lang, _ = pipeline_language_pc(cr, 4, max_len=14, max_rounds=24)
    for w in lang.words:
        assert all(s in cr.grammar.terminals for s in w)


def test_loaded_dump_keeps_templates_in_order_and_shares_context_sets(cr):
    loaded = load_dump(dump_text(cr))
    assert loaded.system.templates == cr.system.templates
    assert loaded.base.words == cr.base.words
    assert pattern_text(loaded.filter) == pattern_text(cr.filter)
    assert loaded.coding.mapping == dict(cr.coding.mapping)
    # One set object per distinct context set.
    sets = [c for tp in loaded.system.templates for c in (tp.c1, tp.c2)]
    assert len({id(c) for c in sets}) == len(set(sets))


@pytest.mark.parametrize("name", ["anbn.kuroda", "single_a.kuroda"])
def test_dump_round_trip(name):
    cr = compile_kuroda(load_grammar(name))
    dump = dump_text(cr)
    assert dump == dump_text(cr)  # byte-stable
    loaded = load_dump(dump)
    assert loaded.system.kind == "ctgr"
    assert loaded.base.words == cr.base.words
    assert {tau(tp) for tp in loaded.system.templates} == {
        tau(tp) for tp in cr.system.templates
    }
    assert loaded.coding.mapping == dict(cr.coding.mapping)

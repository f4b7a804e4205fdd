from __future__ import annotations

import dataclasses
import random

import pytest

from tgrkit import (
    FormatError,
    RegularGrammar,
    TGRSystem,
    closure,
    compile_regular,
    complexity_report,
    enumerate_language,
    equiv_check,
    load_dump,
    matches,
    parse_grammar,
    pipeline_language,
    word,
)
from tgrkit import regcompile
from tgrkit.dumps import dump_text
from tgrkit.grammars import Rule
from tgrkit.words import make_alphabet

from conftest import load_grammar, random_regular_grammar

CORPUS = [
    "astar_b.grammar",
    "ab_star.grammar",
    "finite_abc.grammar",
    "a_star.grammar",
    "ends_ab.grammar",
    "unreachable.grammar",
    "lambda_only.grammar",
]


def test_compile_astar_b(astar_b):
    cr = compile_regular(astar_b)
    assert cr.base.words == {word("S a S"), word("S b #")}
    assert cr.system.templates == (word("a S a"), word("a S b"))
    assert cr.system.alphabet == {"S", "a", "b", "#"}
    # dedup keeps per-group origin in the provenance
    labels = {lab.split()[0] for lab in cr.base_provenance[word("S a S")]}
    assert labels == {"L2", "L3", "L4"}


def test_compile_lambda_only():
    g = load_grammar("lambda_only.grammar")
    cr = compile_regular(g)
    assert cr.base.words == {word("S # #")}
    assert len(cr.system.templates) == 0
    lang, exhaustive = pipeline_language(cr, 0, max_len=3, max_rounds=4)
    assert exhaustive and lang.words == {()}


def test_compile_rejects_reserved_marker():
    with pytest.raises(FormatError):
        compile_regular(
            RegularGrammar(
                make_alphabet("S"), make_alphabet(["a", "#"]), "S", (Rule(("S",), ("a",)),)
            )
        )


@pytest.mark.parametrize("name", CORPUS)
def test_end_marker_group_shapes(name):
    cr = compile_regular(load_grammar(name))
    for t in cr.system.templates:
        if t[0] != "#" and t[2] == t[0]:  # the self-loop template group a X a
            assert "#" not in t
    for w, labels in cr.base_provenance.items():
        if any(lab.startswith(("L1", "L5", "L6")) for lab in labels):
            assert w[-1] == "#"


def test_closure_of_compiled_astar_b(astar_b):
    cr = compile_regular(astar_b)
    res = closure(cr.system, cr.base, max_len=11, max_rounds=32)
    assert word("S a S b #") in res.language.words
    assert word("S a S a S b #") in res.language.words
    assert res.reached_fixpoint


def test_pipeline_astar_b(astar_b):
    cr = compile_regular(astar_b)
    lang, exhaustive = pipeline_language(cr, 3, max_len=9, max_rounds=32)
    assert exhaustive
    assert lang.words == {word("b"), word("a b"), word("a a b")}


def test_pipeline_is_sound_at_any_cap(astar_b):
    cr = compile_regular(astar_b)
    oracle, _ = enumerate_language(astar_b, 8)
    for max_len, rounds in [(5, 2), (7, 3), (11, 4), (19, 64)]:
        lang, _ = pipeline_language(cr, 8, max_len=max_len, max_rounds=rounds)
        assert lang.words <= oracle.words


def test_encoded_length_relation(astar_b):
    # a length-m terminal word encodes as S(aX)^{m-1}a# (2m+1 symbols) or
    # S(aX)^m## (2m+3); either way max_len = 2k+3 covers everything up to k
    cr = compile_regular(astar_b)
    res = closure(cr.system, cr.base, max_len=19, max_rounds=64)
    seen = set()
    for w in res.language.words:
        if matches(cr.filter, w):
            m = len(cr.coding.apply(w))
            assert len(w) in (2 * m + 1, 2 * m + 3)
            seen.add(len(w) - 2 * m)
    assert seen  # the closure actually exercised the relation


def test_complexity_report_astar_b(astar_b):
    rep = complexity_report(compile_regular(astar_b))
    assert rep.rule_count == 2
    assert rep.template_count == 2
    assert rep.quadratic_bound == 4
    assert rep.cubic_bound == 8
    assert rep.alphabet_size == 4
    assert rep.ok


def test_no_composable_pairs_means_no_templates():
    g = load_grammar("unreachable.grammar")
    rep = complexity_report(compile_regular(g))
    assert rep.template_count == 0
    assert rep.ok


def test_bounds_hold_on_random_grammars():
    rng = random.Random(2024)
    for _ in range(100):
        g = random_regular_grammar(rng)
        rep = complexity_report(compile_regular(g))
        assert rep.template_count <= rep.quadratic_bound
        assert rep.alphabet_size == len(g.nonterminals) + len(g.terminals) + 1


@pytest.mark.parametrize("name", CORPUS)
def test_equiv_check_corpus(name):
    g = load_grammar(name)
    report = equiv_check(compile_regular(g), 8, max_len=19, max_rounds=64)
    assert report.verdict == "pass", (name, report.missing, report.extra)
    assert report.exhaustive


def test_equiv_check_flags_mutation(astar_b):
    cr = compile_regular(astar_b)
    crippled = TGRSystem(
        templates=[t for t in cr.system.templates if t != word("a S b")],
        alphabet=cr.system.alphabet,
        n1=1,
        n2=1,
    )
    mutated = dataclasses.replace(cr, system=crippled)
    report = equiv_check(mutated, 8, max_len=19, max_rounds=64)
    assert report.verdict == "fail"
    # only the direct L1-style word survives; everything longer goes missing
    assert word("a b") in report.missing and word("b") not in report.missing


def test_equiv_check_k0_trivial(astar_b):
    report = equiv_check(compile_regular(astar_b), 0, max_len=3, max_rounds=4)
    assert report.verdict == "pass"


def test_equiv_check_rejects_negative_k_before_the_closure(astar_b, monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("the closure ran before k was checked")

    monkeypatch.setattr(regcompile, "closure", no_closure)
    with pytest.raises(ValueError, match="nonnegative"):
        equiv_check(compile_regular(astar_b), k=-1)


def test_equiv_check_inconclusive_under_small_caps(astar_b):
    report = equiv_check(compile_regular(astar_b), 8, max_len=19, max_rounds=1)
    assert report.verdict == "inconclusive"


@pytest.mark.parametrize("name", CORPUS)
def test_dump_round_trip(name):
    cr = compile_regular(load_grammar(name))
    dump = dump_text(cr)
    assert dump == dump_text(cr)  # byte-stable
    loaded = load_dump(dump)
    assert loaded.system.kind == "tgr"
    assert loaded.base.words == cr.base.words
    assert loaded.system.templates == cr.system.templates
    assert loaded.coding.mapping == dict(cr.coding.mapping)
    for w in [word("S a S b #"), word("S b"), word("S # #"), *cr.base]:
        assert matches(loaded.filter, w) == matches(cr.filter, w)

from __future__ import annotations

import dataclasses
import random
import warnings

import pytest

from tgrkit import (
    CodingDomainError,
    FormatError,
    RegularGrammar,
    TGRSystem,
    WeakCoding,
    closure,
    compile_kuroda,
    compile_regular,
    complexity_report,
    enumerate_language,
    equiv_check,
    load_dump,
    matches,
    parse_grammar,
    pipeline_language,
    pipeline_language_pc,
    word,
)
from tgrkit import regcompile
from tgrkit.dumps import SECTIONS, dump_text
from tgrkit.grammars import Rule
from tgrkit.tgr import InertTemplateWarning, System
from tgrkit.words import make_alphabet

from conftest import DATA, TEXT_SYMBOLS, load_grammar, random_regular_grammar

CORPUS = [
    "astar_b.grammar",
    "ab_star.grammar",
    "finite_abc.grammar",
    "a_star.grammar",
    "ends_ab.grammar",
    "unreachable.grammar",
    "lambda_only.grammar",
]
# Seeded `random_regular_grammar` draws (see `_grammar`) with templates and nonempty languages.
RANDOM = ["random 3", "random 7", "random 8", "random 13"]


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


def test_equiv_check_passes_on_random_grammars():
    rng = random.Random(2025)
    for _ in range(100):
        g = random_regular_grammar(rng)
        report = equiv_check(compile_regular(g), 6, max_len=15, max_rounds=64)
        assert report.verdict == "pass", (g.rules, report.missing, report.extra)


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


def test_pipeline_language_decodes_only_the_words_its_filter_keeps(monkeypatch):
    cr = compile_regular(load_grammar("ends_ab.grammar"))
    words = closure(cr.system, cr.base, 15, 64).language.words
    kept = [w for w in words if matches(cr.filter, w)]
    images = {cr.coding.apply(w) for w in kept}
    counts = {"unpack": 0, "matches": 0}
    unpack, match = System.unpack, regcompile.matches

    def counting_unpack(self, w):
        counts["unpack"] += 1
        return unpack(self, w)

    def counting_matches(p, w):
        counts["matches"] += 1
        return match(p, w)

    monkeypatch.setattr(System, "unpack", counting_unpack)
    monkeypatch.setattr(regcompile, "matches", counting_matches)
    lang, exhaustive = pipeline_language(cr, 6, max_len=15, max_rounds=64)
    assert exhaustive and word("a a b") in lang
    assert 0 < len(kept) < len(words)  # the filter drops words, so decoding all is seen
    assert counts["unpack"] <= len(images) <= len(kept), counts
    assert counts["matches"] == 0  # the filter runs as one regex over packed words


@pytest.mark.parametrize("missing", ["b", "S", "#"])
def test_pipeline_language_raises_on_a_kept_symbol_outside_the_coding(astar_b, missing):
    # Every word the filter keeps holds S, b and #: S and # are erased, b is kept.
    cr = compile_regular(astar_b)
    mapping = {s: image for s, image in cr.coding.mapping.items() if s != missing}
    crippled = dataclasses.replace(cr, coding=WeakCoding(mapping))
    with pytest.raises(CodingDomainError) as exc:
        pipeline_language(crippled, 4, max_len=11, max_rounds=16)
    assert exc.value.symbol == missing


def _grammar(name):
    """A tests/data grammar, or the `random_regular_grammar` draw of seed N for "random N"."""
    if name.startswith("random "):
        return random_regular_grammar(random.Random(int(name.split()[1])))
    return load_grammar(name)


def _decoded_then_filtered(cr, k, max_len, max_rounds):
    """The pipeline's words from the closure's decoded language, then filtered and coded."""
    res = closure(cr.system, cr.base, max_len, max_rounds)
    coded = {cr.coding.apply(w) for w in res.language.words if matches(cr.filter, w)}
    return {w for w in coded if len(w) <= k}, res.reached_fixpoint


@pytest.mark.parametrize(
    "name, k, max_len, max_rounds",
    [*((name, 6, 15, 64) for name in CORPUS + RANDOM), ("anbn.kuroda", 4, 16, 24),
     ("anbn.kuroda", 4, 16, 31)],
)
def test_evaluators_agree_with_decoding_every_closure_word(name, k, max_len, max_rounds):
    g = _grammar(name)
    if name.endswith(".kuroda"):
        cr = compile_kuroda(g)
        got, fixpoint = pipeline_language_pc(cr, k, max_len, max_rounds)
    else:
        cr = compile_regular(g)
        got, exhaustive = pipeline_language(cr, k, max_len, max_rounds)
        fixpoint = exhaustive  # max_len is 2k+3, so only the fixpoint decides
    want, want_fixpoint = _decoded_then_filtered(cr, k, max_len, max_rounds)
    assert got.words == want and fixpoint == want_fixpoint


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


# Errors about the whole dump name no line: every other dump error names the line it was read on.
WHOLE_DUMP_ERRORS = (
    "not a tgrkit dump (missing 'tgrkit-dump' header)",
    "unknown dump kind ",
    "dump is missing the 'alphabet' header line",
    "dump is cut off: no END line",
)
LINE_EDITS = [*TEXT_SYMBOLS, *SECTIONS, "END", "n1 0", "alphabet a #", "{", "a -> b c"]


@pytest.mark.parametrize("source", ["ends_ab.grammar", "contexts.ctgr"])
def test_every_single_line_edit_of_a_dump_loads_or_names_its_fault(source):
    if source.endswith(".grammar"):
        text = dump_text(compile_regular(load_grammar(source)))
    else:
        text = (DATA / source).read_text()
    lines = text.splitlines()
    for i in range(len(lines)):
        for new in LINE_EDITS:
            edited = "\n".join([*lines[:i], new, *lines[i + 1:]]) + "\n"
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", InertTemplateWarning)
                    load_dump(edited)
            except FormatError as exc:
                msg = str(exc)
                if exc.line is None:
                    assert msg.startswith(WHOLE_DUMP_ERRORS), (i + 1, new, msg)
                else:
                    assert 2 <= exc.line <= len(lines), (i + 1, new, msg)
                    assert msg.startswith(f"line {exc.line}: "), (i + 1, new, msg)
            except ValueError as exc:  # the alphabet holds a symbol its kind's templates reserve
                assert str(exc).startswith("system alphabet contains symbols that"), (i + 1, new)

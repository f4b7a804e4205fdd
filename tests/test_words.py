from __future__ import annotations

import random

import pytest
from hypothesis import example, given, strategies as st

from tgrkit import (
    CodingDomainError,
    FiniteLanguage,
    FormatError,
    WeakCoding,
    parse_language,
    word,
    word_text,
)
from tgrkit.words import make_alphabet, shortlex_key, sort_words
from conftest import TEXT_SYMBOLS


def test_word_round_trip():
    assert word("S a #") == ("S", "a", "#")
    assert word("@") == ()
    assert word_text(("S", "a", "#")) == "S a #"
    assert word_text(()) == "@"
    # "@" alone spells the empty word, so it is no symbol (see test_at_is_no_symbol).
    rng = random.Random(4242)
    pool = ["a", "b", "S", "#", "$", "&", "B1", "X'", "Y_B2", "\u00e9", "a@"]
    for _ in range(300):
        w = tuple(rng.choices(pool, k=rng.randint(0, 8)))
        assert word(word_text(w)) == w
    # Any Unicode whitespace separates symbols.
    assert word("a b\x1cc") == ("a", "b", "c")
    assert word("\u3000x\ty\u2003 ") == ("x", "y")


def test_word_rejects_blank_and_bad_tokens():
    for text in ["", " ", "\t\n", "\x1c", "\u3000"]:
        with pytest.raises(FormatError, match="blank word text"):
            word(text)
    with pytest.raises(FormatError):
        make_alphabet(["a b"])


def test_at_is_no_symbol():
    with pytest.raises(FormatError, match="bad symbol token '@': it spells the empty word"):
        make_alphabet(["a", "@"])


@given(st.sets(st.lists(st.sampled_from(TEXT_SYMBOLS), max_size=4).map(tuple), max_size=6),
       st.sets(st.sampled_from(TEXT_SYMBOLS)))
@example({("@",), ()}, set())
def test_language_text_round_trips(words, extra):
    alphabet = frozenset(extra.union(*words))
    try:
        lang = FiniteLanguage(frozenset(words), alphabet)
        text = lang.to_text()
    except FormatError:  # only a symbol "@" or a word led by "#" cannot be written
        assert "@" in alphabet or any(w[:1] == ("#",) for w in words)
        return
    assert parse_language(text, lang.alphabet) == lang


def test_apply_coding_erases_markers():
    h = WeakCoding({"S": None, "a": "a", "#": None})
    assert h.apply(word("S a #")) == word("a")
    assert h.apply(()) == ()


def test_apply_coding_second_construction_shape():
    h = WeakCoding({"Y": None, "a": "a", "b": "b"})
    assert h.apply(word("a b Y")) == word("a b")


def test_apply_coding_domain_error_names_symbol():
    h = WeakCoding({"a": "a"})
    with pytest.raises(CodingDomainError) as exc:
        h.apply(word("a q"))
    assert "q" in str(exc.value)


@given(
    st.lists(st.sampled_from("ab"), max_size=8),
    st.lists(st.sampled_from("ab"), max_size=8),
)
def test_apply_coding_is_homomorphic(u, v):
    h = WeakCoding({"a": "x", "b": None})
    u, v = tuple(u), tuple(v)
    assert h.apply(u + v) == h.apply(u) + h.apply(v)


def test_finite_language_checks_alphabet():
    with pytest.raises(FormatError, match="word 'a z' uses symbol 'z' outside the alphabet"):
        FiniteLanguage(frozenset({word("a z")}), make_alphabet("a"))
    with pytest.raises(FormatError, match="symbol 'z'"):
        FiniteLanguage(frozenset({word("a a"), (), word("a z a"), word("a")}), make_alphabet("a"))


# Symbols of several characters compare as strings ("B1" < "B10" < "B2"), not by length.
MULTICHAR_WORDS = st.lists(st.lists(st.sampled_from(["B", "B1", "B10", "B2", "a", "b"]),
                                    max_size=5).map(tuple), max_size=12)


@given(MULTICHAR_WORDS)
def test_sort_words_is_shortlex(words):
    assert sort_words(words) == sorted(words, key=shortlex_key)


def test_finite_language_canonical_order_is_stable():
    words = {word("b a"), word("a"), word("b"), word("a a a")}
    l1 = FiniteLanguage(frozenset(words), make_alphabet("ab"))
    l2 = FiniteLanguage(frozenset(sorted(words)), make_alphabet("ab"))
    assert l1.to_text().encode() == l2.to_text().encode()
    assert list(l1) == [("a",), ("b",), ("b", "a"), ("a", "a", "a")]


def test_language_file_comments_and_hash_words():
    text = "# this is a comment\nS a #\n#\n\n@\n"
    lang = parse_language(text)
    assert lang.words == {word("S a #"), ("#",), ()}


def test_language_file_refuses_ambiguous_leading_hash():
    lang = FiniteLanguage(frozenset({word("# a")}), make_alphabet(["#", "a"]))
    with pytest.raises(FormatError):
        lang.to_text()

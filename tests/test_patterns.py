from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

from tgrkit import FormatError, matches, parse_pattern, pattern_text, word
from tgrkit.patterns import (
    MAX_NESTING,
    Atom,
    Concat,
    Star,
    Union,
    alt,
    seq,
    star,
    symbol_class,
)


def naive_matches(p, w) -> bool:
    """Backtracking membership oracle, independent of the position automaton."""
    if isinstance(p, Atom):
        return len(w) == 1 and w[0] in p.symbols
    if isinstance(p, Concat):
        if not p.parts:
            return w == ()
        head, rest = p.parts[0], Concat(p.parts[1:])
        return any(
            naive_matches(head, w[:i]) and naive_matches(rest, w[i:])
            for i in range(len(w) + 1)
        )
    if isinstance(p, Star):
        if w == ():
            return True
        return any(
            naive_matches(p.inner, w[:i]) and naive_matches(p, w[i:])
            for i in range(1, len(w) + 1)
        )
    if isinstance(p, Union):
        return any(naive_matches(a, w) for a in p.alts)
    raise TypeError(p)


def encoding_filter():
    # {S}({a,b}{S,X})*({a,b}{#} | {#}{#})
    sigma = symbol_class("ab")
    nts = symbol_class(["S", "X"])
    return seq(
        symbol_class("S"),
        star(seq(sigma, nts)),
        alt(seq(sigma, symbol_class("#")), seq(symbol_class("#"), symbol_class("#"))),
    )


def test_matches_one_repetition():
    assert matches(encoding_filter(), word("S a X b #"))


def test_matches_star_zero_repetitions():
    p = seq(star(symbol_class("ab")), symbol_class("Y"))
    assert matches(p, word("Y"))
    assert matches(p, word("a b Y"))
    assert not matches(p, word("Y a"))


def test_matches_double_hash_tail():
    assert matches(encoding_filter(), word("S a X # #"))
    assert not matches(encoding_filter(), word("S a X #"))
    assert not matches(encoding_filter(), word("a X b #"))


def test_matches_agrees_with_backtracking_oracle():
    rng = random.Random(9)
    syms = ["a", "b", "c"]
    universe = [tuple(w) for n in range(7) for w in itertools.product(syms, repeat=n)]

    def random_pattern(depth):
        kind = rng.choice(["atom", "concat", "star", "union"]) if depth else "atom"
        if kind == "atom":
            return symbol_class(rng.sample(syms, rng.randint(1, 3)))
        if kind == "concat":
            return Concat(tuple(random_pattern(depth - 1) for _ in range(rng.randint(1, 3))))
        if kind == "star":
            return Star(random_pattern(depth - 1))
        return Union(tuple(random_pattern(depth - 1) for _ in range(rng.randint(1, 3))))

    edge_cases = [
        seq(),
        alt(),
        star(seq()),
        star(star(symbol_class("a"))),
        encoding_filter(),
    ]
    # "d" lies outside every atom of every pattern tried.
    words = universe + [word("d"), word("a d"), word("d a b"), word("a b c d")]
    for p in [random_pattern(3) for _ in range(15)] + edge_cases:
        twin = replace(p)  # equal to p, but a distinct object with its own automaton
        assert twin == p and twin is not p
        expect = {w: naive_matches(p, w) for w in words}
        # One object matches every word twice, forward and then in reverse
        # order, so most words run on moves kept from earlier words.
        for w in words + words[::-1]:
            assert matches(p, w) == expect[w], (pattern_text(p), w)
        for w in reversed(words):
            assert matches(twin, w) == expect[w], (pattern_text(p), w)


def test_pattern_text_round_trip():
    p = encoding_filter()
    text = pattern_text(p)
    q = parse_pattern(text)
    for w in [word("S a X b #"), word("S # #"), word("S a X # #"), word("a"), ()]:
        assert matches(p, w) == matches(q, w)
    assert pattern_text(q) == text
    assert parse_pattern("{a ,\tb}\n({c})*") == seq(symbol_class("ab"), star(symbol_class("c")))


def test_parse_pattern_errors():
    with pytest.raises(FormatError):
        parse_pattern("{a,b")
    with pytest.raises(FormatError):
        parse_pattern("{a}}")


def nested_texts(depth):
    """Patterns that nest parentheses and stars `depth` deep, in several shapes."""
    grouped = "{a}"
    for _ in range(depth):
        grouped = f"({grouped}{{b}}|{{c}})"  # each group adds a union and a concatenation
    starred = "{a}" + "*" * (depth % 2)
    for _ in range(depth // 2):
        starred = f"({starred}{{b}})*"
    return ["(" * depth + "{a}" + ")" * depth, "{a}" + "*" * depth, grouped, starred]


def test_parse_pattern_nesting_up_to_the_bound():
    # The backtracking oracle is exponential here, so each shape's words are
    # listed: a; a*; c b^j (j < depth) and a b^depth; words of (... b)* end in b.
    words = ["@", "a", "a a", "c", "c b", "a b"]
    accepted = [{"a"}, {"@", "a", "a a"}, {"c", "c b"}, {"@"}]
    for depth in (MAX_NESTING - 1, MAX_NESTING):
        for text, expect in zip(nested_texts(depth), accepted):
            p = parse_pattern(text)
            assert parse_pattern(pattern_text(p)) == p
            assert {w for w in words if matches(p, word(w))} == expect, (depth, text[:20])


@pytest.mark.parametrize(
    "text",
    nested_texts(MAX_NESTING + 1)
    + ["(" * 5000 + "{a}" + ")" * 5000, "{a}" + "*" * 5000, "(" * 5000 + "{a}"],
    ids=[f"{shape}-{MAX_NESTING + 1}" for shape in ("parens", "stars", "grouped", "starred")]
    + ["parens-5000", "stars-5000", "unclosed-5000"],
)
def test_parse_pattern_rejects_deeper_nesting(text):
    with pytest.raises(FormatError, match=f"deeper than {MAX_NESTING}"):
        parse_pattern(text)

from __future__ import annotations

import itertools
import random
import re
import time
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from tgrkit import FormatError, matches, parse_pattern, pattern_text, word
from tgrkit.patterns import (
    MAX_NESTING,
    Atom,
    Concat,
    Star,
    Union,
    alt,
    regex_source,
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
        twin = replace(p)  # equal to p, but a distinct object
        assert twin == p and twin is not p
        expect = {w: naive_matches(p, w) for w in words}
        # One object matches every word twice, forward and then in reverse
        # order, so no answer depends on the words matched before it.
        for w in words + words[::-1]:
            assert matches(p, w) == expect[w], (pattern_text(p), w)
        for w in reversed(words):
            assert matches(twin, w) == expect[w], (pattern_text(p), w)


@pytest.mark.parametrize("p", [star(alt(symbol_class("a"), symbol_class("a"))),
                               star(star(symbol_class("a")))], ids=["doubled-union", "star-star"])
def test_matches_stays_linear_on_ambiguous_stars(p):
    # `re` over regex_source backtracks on these: seconds on 26 a's and a b.
    # The position automaton steps one set of positions per symbol.
    start = time.perf_counter()
    assert not matches(p, ("a",) * 26 + ("b",))
    assert time.perf_counter() - start < 0.5
    assert matches(p, ("a",) * 10_000)


# Symbol i is spelled chr(i), as tgr packs a sorted alphabet: 128 symbols spell
# every character that `re` gives a meaning, "{|}" included.
ALPHABET = [f"s{i:03}" for i in range(128)]
SPELLING = {s: chr(i) for i, s in enumerate(ALPHABET)}
SPECIAL = [ALPHABET[ord(c)] for c in "\n ()*+,-.?[\\]^{|}$&#~\ta0"]


def regex_patterns(symbols, depth=4):
    """Patterns over `symbols` and an unspelled symbol, empty classes, unions and concats too.

    Nesting stops at `depth`, as `re` backtracks: nested stars cost time exponential in depth.
    """
    atoms = st.frozensets(st.sampled_from([*symbols, "out"]), max_size=3).map(Atom)
    if not depth:
        return atoms
    kids = regex_patterns(symbols, depth - 1)
    parts = st.lists(kids, max_size=3).map(tuple)
    return st.one_of(atoms, parts.map(Concat), kids.map(Star), parts.map(Union))


@given(st.data())
def test_regex_source_agrees_with_matches(data):
    symbols = data.draw(st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=3, unique=True))
    p = data.draw(regex_patterns(symbols))
    regex = re.compile(regex_source(p, SPELLING))
    for w in (w for n in range(6) for w in itertools.product(symbols, repeat=n)):
        spelled = "".join(SPELLING[s] for s in w)
        assert bool(regex.fullmatch(spelled)) == matches(p, w), (pattern_text(p), w)


@pytest.mark.parametrize("p, matched", [
    (seq(), [()]),
    (alt(), []),
    (Atom(frozenset()), []),
    (Atom(frozenset({"out"})), []),
    (star(alt()), [()]),
    (seq(Atom(frozenset({"out", ALPHABET[93]})), star(seq())), [(ALPHABET[93],)]),
])
def test_regex_source_edge_cases(p, matched):
    words = [(), *((s,) for s in SPECIAL), tuple(SPECIAL[:3])]
    regex = re.compile(regex_source(p, SPELLING))
    assert [w for w in words if regex.fullmatch("".join(map(SPELLING.get, w)))] == matched
    assert [w for w in words if matches(p, w)] == matched


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

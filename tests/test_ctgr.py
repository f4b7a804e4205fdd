from __future__ import annotations

import random
import warnings

import pytest
from hypothesis import given, strategies as st

from tgrkit import (
    CTGRSystem,
    FiniteLanguage,
    PCTemplate,
    TGRSystem,
    closure,
    compile_kuroda,
    load_dump,
    parse_tau,
    recombine,
    step,
    tau,
    word,
    word_text,
)
from tgrkit.recompile import rotatable, rotating_marker
from tgrkit.tgr import InertTemplateWarning, _Engine, step_events
from tgrkit.words import make_alphabet, shortlex_key

SIGMA = ["X", "Z", "B", "B1", "B2", "S", "Y", "a", "b", "c", "v", "u", "Q"]


def pc_template(e1, body, d1, c1=(), c2=()):
    return PCTemplate(
        word(e1), word(body), word(d1), frozenset(map(word, c1)), frozenset(map(word, c2))
    )


def pc_system(templates, alphabet=SIGMA, quiet=False):
    with warnings.catch_warnings():
        if quiet:
            warnings.simplefilter("ignore", InertTemplateWarning)
        return CTGRSystem(templates=tuple(templates), alphabet=make_alphabet(alphabet), n1=1, n2=1)


def lang(words, alphabet=SIGMA):
    return FiniteLanguage(frozenset(words), make_alphabet(alphabet))


def test_recombine_pc_simulation_step():
    tp = pc_template("Z", "B1 B2 a Y", "S Y", c1=["X"], c2=["@"])
    sys = pc_system([tp])
    got = recombine(sys, word("X B B1 B2 S Y"), word("Z B2 a Y"), tp)
    assert {e.w for e in got} == {word("X B B1 B2 a Y")}


def test_recombine_pc_blocked_by_permitting_context():
    tp = pc_template("Z", "B1 B2 a Y", "S Y", c1=["Q"], c2=["@"])
    sys = pc_system([tp])
    assert recombine(sys, word("X B B1 B2 S Y"), word("Z B2 a Y"), tp) == frozenset()


def test_recombine_pc_degenerates_to_plain_recombination():
    tp = pc_template("@", "a X b", "@", c1=["@"], c2=["@"])
    csys = pc_system([tp])
    got = recombine(csys, word("S a X"), word("X b Y"), tp)
    assert {e.w for e in got} == {word("S a X b Y")}


def test_reduction_to_plain_tgr_on_random_instances():
    rng = random.Random(31337)
    syms = ["a", "b", "c"]
    for _ in range(200):
        x = tuple(rng.choices(syms, k=rng.randint(0, 6)))
        y = tuple(rng.choices(syms, k=rng.randint(0, 6)))
        t = tuple(rng.choices(syms, k=rng.randint(1, 5)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InertTemplateWarning)
            plain = TGRSystem(
                templates=lang({t}, syms), alphabet=make_alphabet(syms), n1=1, n2=1
            )
        tp = PCTemplate((), t, (), frozenset({()}), frozenset({()}))
        ctx = pc_system([tp], syms, quiet=True)
        plain_words = {e.w for e in recombine(plain, x, y, t)}
        pc_words = {e.w for e in recombine(ctx, x, y, tp)}
        assert plain_words == pc_words, (x, y, t)


def test_anti_monotone_in_contexts():
    rng = random.Random(99)
    syms = ["a", "b", "c"]
    for _ in range(120):
        x = tuple(rng.choices(syms, k=rng.randint(1, 6)))
        y = tuple(rng.choices(syms, k=rng.randint(1, 6)))
        t = tuple(rng.choices(syms, k=3))
        extra = tuple(rng.choices(syms, k=rng.randint(1, 2)))
        loose = PCTemplate((), t, (), frozenset(), frozenset())
        tight_x = PCTemplate((), t, (), frozenset({extra}), frozenset())
        tight_y = PCTemplate((), t, (), frozenset(), frozenset({extra}))
        sys = pc_system([loose, tight_x, tight_y], syms, quiet=True)
        base = {e.w for e in recombine(sys, x, y, loose)}
        assert {e.w for e in recombine(sys, x, y, tight_x)} <= base
        assert {e.w for e in recombine(sys, x, y, tight_y)} <= base


def test_deletion_context_consumption():
    tp = pc_template("Z", "B1 B2 a Y", "S Y", c1=["X"])
    sys = pc_system([tp])
    (ev,) = recombine(sys, word("X B B1 B2 S Y"), word("Z B2 a Y"), tp)
    ab = ev.alpha + ev.beta
    # d1 sits right after alpha+beta in x but not at that junction in w
    junction = ev.pos_x + len(ab)
    assert ev.x[junction : junction + len(tp.d1)] == tp.d1
    assert ev.w[junction : junction + len(ev.gamma)] == ev.gamma
    # e1 sits right before beta+gamma in y and is gone from w at the seam
    assert ev.y[ev.pos_y : ev.pos_y + len(tp.e1)] == tp.e1
    assert ev.w == ev.x[: junction] + ev.gamma + ev.y[ev.pos_y + len(tp.e1 + ev.beta + ev.gamma) :]


def test_tau_serialization():
    tp = pc_template("Z", "c a v Y", "u Y", c1=["X"], c2=["@"])
    assert word_text(tau(tp)) == "Z # c a v Y # u Y $ X $"

    bare = pc_template("@", "a X b", "@")
    assert word_text(tau(bare)) == "# a X b # $ $"


def test_tau_identifies_templates():
    a = pc_template("Z", "a b c", "u", c1=["X", "a b"], c2=[])
    b = pc_template("Z", "a b c", "u", c1=["a b", "X", "@"], c2=["@"])
    assert tau(a) == tau(b)
    c = pc_template("Z", "a b c", "u", c1=["X"], c2=[])
    assert tau(a) != tau(c)


def test_tau_round_trip():
    for tp in [
        pc_template("Z", "c a v Y", "u Y", c1=["X"], c2=["@"]),
        pc_template("@", "a X b", "@"),
        pc_template("X B", "a b c", "Z", c1=[], c2=["Y", "a b"]),
    ]:
        assert parse_tau(tau(tp)) == tp


TAU_SYMBOLS = st.sampled_from(["a", "b", "c", "X"])
TAU_WORDS = st.lists(TAU_SYMBOLS, max_size=3).map(tuple)
# Empty, one-word and multi-word context sets; an empty word in a set is dropped.
CONTEXT_SETS = st.frozensets(TAU_WORDS, max_size=4)
PC_TEMPLATES = st.builds(
    PCTemplate,
    TAU_WORDS,
    st.lists(TAU_SYMBOLS, min_size=1, max_size=4).map(tuple),
    TAU_WORDS,
    CONTEXT_SETS,
    CONTEXT_SETS,
)


def spelled_tau(tp):
    """The canonical tau word, written out independently of ctgr.tau."""
    def ctx(c):
        return " & ".join(" ".join(w) for w in sorted(c, key=shortlex_key))
    parts = [" ".join(tp.e1), "#", " ".join(tp.body), "#", " ".join(tp.d1), "$", ctx(tp.c1),
             "$", ctx(tp.c2)]
    return tuple(" ".join(parts).split())


@given(PC_TEMPLATES)
def test_tau_round_trip_property(tp):
    w = tau(tp)
    assert w == spelled_tau(tp)
    parsed = parse_tau(w)
    assert parsed == tp
    assert tau(parsed) == w


@given(PC_TEMPLATES)
def test_cached_tau_equals_a_fresh_serialization(tp):
    first = tau(tp)
    assert tau(tp) is first  # computed once, then read back
    fresh = PCTemplate(tp.e1, tp.body, tp.d1, tp.c1, tp.c2)
    assert tau(fresh) == first == spelled_tau(tp)


@given(PC_TEMPLATES, st.randoms(use_true_random=False), st.integers(0, 2), st.integers(0, 2))
def test_any_spelling_parses_to_the_canonical_tau(tp, rng, duplicates, empties):
    def spelling(c):
        ws = list(c) + (rng.choices(sorted(c), k=duplicates) if c else []) + [()] * empties
        rng.shuffle(ws)
        return " & ".join(" ".join(w) for w in ws)
    text = (f"{' '.join(tp.e1)} # {' '.join(tp.body)} # {' '.join(tp.d1)} $ "
            f"{spelling(tp.c1)} $ {spelling(tp.c2)}")
    parsed = parse_tau(word(text))
    assert parsed == tp
    assert tau(parsed) == spelled_tau(tp)


def test_loaded_templates_have_canonical_taus():
    dump = "\n".join([
        "tgrkit-dump ctgr", "n1 1", "n2 1", "alphabet X Z a b c u", "BASE", "X a b c",
        "TEMPLATES",
        "Z # a b c # u $ X & a b $",
        "Z # a b c # u $ a b & X $",  # the same template, its context words out of order
        "# a b c # $ & $",  # two empty context words: no context at all
        "END",
    ]) + "\n"
    templates = load_dump(dump).system.templates
    assert [word_text(tau(tp)) for tp in templates] == ["# a b c # $ $", "Z # a b c # u $ X & a b $"]


@pytest.mark.parametrize("bad", [
    pc_template("Z", "a b c", "u", c1=["X"], c2=["q"]),
    pc_template("Z", "a b c", "q", c1=["X"]),
], ids=["in-c2", "in-d1"])
def test_template_symbol_outside_alphabet_is_named(bad):
    # In tau order: `good`, then `bad`, then `later`, whose "r" comes too late to be named.
    good = pc_template("@", "a b c", "@")
    later = pc_template("Z", "a b c a b c", "u", c1=["X"], c2=["r"])
    with pytest.raises(ValueError) as exc:
        pc_system([later, bad, good], alphabet=["X", "Z", "a", "b", "c", "u"])
    assert str(exc.value) == "template symbol 'q' is outside the system alphabet"


@pytest.mark.parametrize("sym", ["#", "$", "&"])
def test_system_rejects_tau_separators_in_its_alphabet(sym):
    # With "&" a symbol, c1 = {a & b} and c1 = {a, b} would share one tau word.
    tp = PCTemplate(("a",), ("a", "b", "a"), ("b",), frozenset({("a", sym, "b")}), frozenset())
    with pytest.raises(ValueError) as exc:
        pc_system([tp], alphabet=["a", "b", sym])
    assert str(exc.value).endswith(f"symbols that ctgr template words reserve: [{sym!r}]")


def test_empty_and_lambda_context_sets_coincide():
    explicit = pc_template("@", "a b c", "@", c1=["@"], c2=["@"])
    empty = pc_template("@", "a b c", "@", c1=[], c2=[])
    assert explicit == empty


def test_context_sets_are_frozen_and_kept_when_clean():
    needs_x = frozenset({word("X")})
    tp = PCTemplate((), word("a b c"), (), {word("X"), ()}, needs_x)
    assert type(tp.c1) is frozenset and tp.c1 == needs_x
    assert tp.c2 is needs_x


def test_step_pc_empty_templates():
    sys = pc_system([])
    assert step(sys, lang({word("X B B1 B2 S Y")})).words == frozenset()


def test_step_pc_simulation_example():
    tp = pc_template("Z", "B1 B2 a Y", "S Y", c1=["X"])
    sys = pc_system([tp])
    got = step(sys, lang({word("X B B1 B2 S Y"), word("Z B2 a Y")}))
    assert got.words == {word("X B B1 B2 a Y")}


def random_pc_templates(rng, syms, count):
    return [
        PCTemplate(
            tuple(rng.choices(syms, k=rng.randint(0, 1))),
            tuple(rng.choices(syms, k=rng.randint(1, 5))),
            tuple(rng.choices(syms, k=rng.randint(0, 1))),
            frozenset({tuple(rng.choices(syms, k=rng.randint(0, 1)))}),
            frozenset({tuple(rng.choices(syms, k=rng.randint(0, 1)))}),
        )
        for _ in range(count)
    ]


def test_step_pc_agrees_with_naive_pair_loop():
    rng = random.Random(777)
    syms = ["a", "b", "c"]
    for _ in range(100):
        words = {
            tuple(rng.choices(syms, k=rng.randint(0, 6)))
            for _ in range(rng.randint(1, 4))
        }
        sys = pc_system(random_pc_templates(rng, syms, rng.randint(0, 3)), syms, quiet=True)
        expect = set()
        for x in words:
            for y in words:
                for tp in sys.templates:
                    expect |= {e.w for e in recombine(sys, x, y, tp)}
        got = step(sys, lang(words, syms))
        assert got.words == frozenset(expect)


def test_step_pc_events_match_step_pc():
    tp = pc_template("Z", "B1 B2 a Y", "S Y", c1=["X"])
    sys = pc_system([tp])
    language = lang({word("X B B1 B2 S Y"), word("Z B2 a Y")})
    events = step_events(sys, language)
    assert {e.w for e in events} == set(step(sys, language).words)
    for ev in events:
        assert ev in recombine(sys, ev.x, ev.y, ev.template)


def test_closure_pc_empty_templates():
    sys = pc_system([])
    start = lang({word("X B B1 B2 S Y")})
    res = closure(sys, start, max_len=8, max_rounds=4)
    assert res.language.words == start.words and res.reached_fixpoint


def test_closure_pc_rounds_nested():
    tp = pc_template("Z", "B1 B2 a Y", "S Y", c1=["X"])
    tp2 = pc_template("Z", "B1 B2 b Y", "a Y", c1=["X"])
    sys = pc_system([tp, tp2])
    start = lang({word("X B B1 B2 S Y"), word("Z B2 a Y"), word("Z B2 b Y")})
    prev = start.words
    for rounds in range(1, 4):
        res = closure(sys, start, max_len=8, max_rounds=rounds)
        assert prev <= res.language.words
        prev = res.language.words


def naive_closure(sys, words, max_len, max_rounds, results=None):
    """Round-by-round oracle: every (x, y, template) over the whole set.

    `results(x, y, tp)` gives the result words of one triple, by default
    through recombine.  Returns (words, rounds used, fixpoint reached,
    truncated by length).
    """
    if results is None:
        def results(x, y, tp):
            return {e.w for e in recombine(sys, x, y, tp)}
    expect, truncated, fixpoint, r = set(words), False, False, 0
    for r in range(1, max_rounds + 1):
        produced = {
            w
            for x in expect
            for y in expect
            for tp in sys.templates
            for w in results(x, y, tp)
        }
        truncated = truncated or any(len(w) > max_len for w in produced)
        new = {w for w in produced if len(w) <= max_len} - expect
        if not new:
            fixpoint = True
            break
        expect |= new
    return frozenset(expect), r, fixpoint, truncated


def test_closure_pc_agrees_with_naive_pair_loop():
    rng = random.Random(6062)
    syms = ["a", "b"]
    seen = set()
    for _ in range(150):
        words = {tuple(rng.choices(syms, k=rng.randint(0, 6))) for _ in range(rng.randint(1, 5))}
        sys = pc_system(random_pc_templates(rng, syms, rng.randint(0, 3)), syms, quiet=True)
        max_len = max(map(len, words)) + rng.randint(0, 2)
        max_rounds = rng.randint(0, 3)
        res = closure(sys, lang(words, syms), max_len, max_rounds)
        expect, r, fixpoint, truncated = naive_closure(sys, words, max_len, max_rounds)
        assert res.language.words == expect
        assert (res.rounds_used, res.reached_fixpoint, res.truncated_by_length) == (
            r, fixpoint, truncated
        )
        seen.add((fixpoint, truncated))
    # some cases truncate and some do not; some reach a fixpoint and some do not
    assert {t for _, t in seen} == {f for f, _ in seen} == {False, True}


def test_part_classes_keep_cuts_and_contexts_apart():
    # The engine shares one prefix set among the splits with equal x-needle,
    # |alpha beta| and c1.  Here "a b" is the x-needle of splits with one cut
    # and three different c1, and "a b c" is an x-needle with cut 3 and, through
    # d1 = "c", with cut 2; "b a" is a y-needle with two different c2.
    syms = ["a", "b", "c"]
    sys = pc_system(
        [
            pc_template("@", "a b c", "@", c1=["a a"]),
            pc_template("@", "a b a", "@", c1=["b b"], c2=["c c"]),
            pc_template("@", "a b c a", "@"),
            pc_template("@", "a b a", "c", c2=["a a"]),
        ],
        syms,
    )
    xindex, yindex = _Engine(sys).index  # each side its own index, contexts or not
    assert {side for entries in xindex.values() for side, *_ in entries} == {0}
    assert {side for entries in yindex.values() for side, *_ in entries} == {1}
    xkeys = {(needle, cut, c1) for needle, entries in xindex.items()
             for side, _, cut, c1, _ in entries if side == 0}
    packed = sys.pack  # the engine's needles are packed words
    assert len({c1 for needle, cut, c1 in xkeys if (needle, cut) == (packed(word("a b")), 2)}) == 3
    assert {cut for needle, cut, _ in xkeys if needle == packed(word("a b c"))} == {2, 3}
    ykeys = {(needle, c2) for needle, entries in yindex.items()
             for side, _, _, c2, _ in entries if side == 1}
    assert len({c2 for needle, c2 in ykeys if needle == packed(word("b a"))}) == 2
    rng = random.Random(1717)
    for _ in range(30):
        words = {tuple(rng.choices(syms, k=rng.randint(2, 6))) for _ in range(rng.randint(2, 6))}
        expect, r, fixpoint, truncated = naive_closure(sys, words, 9, 3)
        res = closure(sys, lang(words, syms), 9, 3)
        assert res.language.words == expect, sorted(words)
        assert (res.rounds_used, res.reached_fixpoint, res.truncated_by_length) == (
            r, fixpoint, truncated
        )


def test_contextual_scans_read_only_where_a_needle_starts_or_ends(anbn):
    # Compiled anbn's y-needles start with X, X' or Z, and its x-needles end
    # with Y, a rotating marker, Z or Z'.  In these forms such symbols sit only
    # at position 0 and before the end 6, so every y-lookup reads a factor
    # starting at 0 and every x-lookup one ending at 6.  The scans still find
    # every part that a scan of every position (kept hits) finds: after "X'"
    # the c1 {X} of the simulate and rotate-1 classes fails, and the c2 {Y_b}
    # of the rotate-2 classes fails in both forms.
    sys = compile_kuroda(anbn).system
    engine, everywhere = _Engine(sys), _Engine(sys, keep_hits=True)
    markers = {rotating_marker(b) for b in rotatable(anbn)}
    assert [set(sys.unpack("".join(gate))) for gate in engine.gates] == [
        {"Y", "Z", "Z'"} | markers, {"X", "X'", "Z"}]
    logs = ([], [])

    def logged(side):
        class Logged(dict):
            def get(self, key, default=None):
                logs[side].append(key)
                return super().get(key, default)

        return Logged(engine.index[side])

    engine.index = (logged(0), logged(1))
    for form in ("X B B1 B2 S Y", "X' B B1 B2 S Y"):
        w = sys.pack(word(form))
        deltas = engine.add_words([w])
        everywhere.add_words([w])
        xlog, ylog = logs
        assert xlog and all(w.endswith(f) for f in xlog)
        assert ylog and all(w.startswith(f) for f in ylog)
        assert bool(deltas[0]) == form.startswith("X ")  # only there c1 {X} holds
        for side in (0, 1):
            assert [set(parts) for parts in engine.parts[side]] == [
                set(parts) for parts in everywhere.parts[side]]
        xlog.clear()
        ylog.clear()


def test_needles_shared_by_classes_with_different_contexts():
    # Compiled rotate-2 templates X' b d e all have the y-needle "X d e", each
    # with its own c2 {Y_b}.  Each system here holds such a family, sharing a
    # y-needle, and a mirror family sharing an x-needle, each member with its
    # own contexts of 0-2 words of lengths 1-3, beside 0-2 random templates.
    # A part one class knows says nothing of another class's contexts, so
    # neither scan may end there, and each must test every class it reads.
    rng = random.Random(2929)
    syms = ["a", "b", "c"]

    def rand_word(lo, hi):
        return tuple(rng.choices(syms, k=rng.randint(lo, hi)))

    def contexts():
        return frozenset(rand_word(1, 3) for _ in range(rng.randint(0, 2)))

    grew = truncated = kept_out = 0
    for _ in range(100):
        head, shared = rand_word(1, 1), rand_word(2, 2)
        e1, d1 = rand_word(0, 1), rand_word(0, 1)
        templates = [PCTemplate(e1, head + (v,) + shared, (), contexts(), contexts())
                     for v in syms]  # split (head v, shared[0], shared[1])
        templates += [PCTemplate((), shared + (v,) + head, d1, contexts(), contexts())
                      for v in syms]  # split (shared[0], shared[1], v head)
        templates += [PCTemplate(rand_word(0, 1), rand_word(3, 5), rand_word(0, 1),
                                 contexts(), contexts()) for _ in range(rng.randint(0, 2))]
        sys = pc_system(templates, syms)
        free = pc_system([PCTemplate(t.e1, t.body, t.d1, frozenset(), frozenset())
                          for t in templates], syms)
        words = {rand_word(2, 7) for _ in range(rng.randint(2, 5))}
        max_len = max(map(len, words)) + rng.randint(0, 2)
        max_rounds = rng.randint(1, 3)
        res = closure(sys, lang(words, syms), max_len, max_rounds)
        expect, r, fixpoint, trunc = naive_closure(
            sys, words, max_len, max_rounds, results_by_definition
        )
        assert res.language.words == expect, (sorted(words), sys.templates)
        assert (res.rounds_used, res.reached_fixpoint, res.truncated_by_length) == (
            r, fixpoint, trunc
        )
        grew += len(expect) > len(words)
        truncated += trunc
        kept_out += expect != naive_closure(free, words, max_len, r, results_by_definition)[0]
    assert grew >= 20 and truncated >= 10 and kept_out >= 20, (grew, truncated, kept_out)


def results_by_definition(x, y, tp):
    """u.alpha.beta.gamma.v for x = u.alpha.beta.d1.d and y = e.e1.beta.gamma.v.

    Splits use n1 = n2 = 1; every c1 word must be a factor of x and every c2
    word one of y, tested here by slicing, not through tgr.
    """
    def has(w, c):
        return any(w[i : i + len(c)] == c for i in range(len(w) - len(c) + 1))

    if not (all(has(x, c) for c in tp.c1) and all(has(y, c) for c in tp.c2)):
        return set()
    body, out = tp.body, set()
    for i in range(1, len(body) - 1):
        for j in range(i + 1, len(body)):
            xn, yn = body[:j] + tp.d1, tp.e1 + body[i:]
            out.update(x[: ox + j] + body[j:] + y[oy + len(yn) :]
                       for ox in range(len(x) - len(xn) + 1) if x[ox : ox + len(xn)] == xn
                       for oy in range(len(y) - len(yn) + 1) if y[oy : oy + len(yn)] == yn)
    return out


def test_closure_with_needle_lengths_two_and_four():
    # Needles have lengths 2 and 4 only.  The y-needle "b b b b" starts with
    # "b b" and the x-needle "a b b a" ends with "b a", neither a needle: the
    # forward scan at a start, and the x-scan at an end, must go on past a
    # factor that is no needle while it is still part of a longer one.
    syms = ["a", "b"]
    short, long = pc_template("@", "a b a", "@"), pc_template("b b", "a b b", "b a")
    sys, short_only = pc_system([short, long], syms), pc_system([short], syms)
    engine = _Engine(sys)
    assert engine.sizes == ((2, 4), (2, 4))  # each side's own index: no contexts, no kept hits
    # a stem is a key with no entries: the y-index stems are needle prefixes,
    # the x-index stems needle suffixes, as the x-scan reads needles by their end
    xindex, yindex = engine.index
    assert sys.pack(word("b b b b")) in yindex and not yindex.get(sys.pack(word("b b")))
    assert sys.pack(word("a b b a")) in xindex and xindex.get(sys.pack(word("b a"))) == []
    rng = random.Random(2424)
    fired = 0
    for _ in range(60):
        # b-heavy words, so that "b b b b" occurs
        words = {tuple(rng.choices(syms, [1, 3], k=rng.randint(3, 8)))
                 for _ in range(rng.randint(2, 6))}
        max_len, max_rounds = max(map(len, words)) + rng.randint(0, 2), rng.randint(1, 3)
        res = closure(sys, lang(words, syms), max_len, max_rounds)
        expect, r, fixpoint, truncated = naive_closure(
            sys, words, max_len, max_rounds, results_by_definition
        )
        assert res.language.words == expect, sorted(words)
        assert (res.rounds_used, res.reached_fixpoint, res.truncated_by_length) == (
            r, fixpoint, truncated
        )
        without_long = naive_closure(short_only, words, max_len, r, results_by_definition)[0]
        fired += expect != without_long
    assert fired >= 10


def test_closure_prefix_scan_goes_past_a_known_part():
    # No contexts, so each side is scanned on its own, and the x-scan walks
    # needle ends right to left, ending at the first known part.  Round 1
    # makes "c a b c" from "c a b a" and "b c".  In round 2 the needle
    # "c a b c" (x-part "c a b" through the overhang d1 = "c") ends at 4: that
    # part is new, and its split (c a, b, b) with "b b a" makes "c a b b a".
    # The needle "a b", whose x-part "c a b" is known from "c a b a", starts
    # later but ends earlier, at 3, so a scan by needle start, right to left
    # and ending at the first known part, misses the new one.
    syms = ["a", "b", "c"]
    sys = pc_system([pc_template("@", "a b a", "@"), pc_template("@", "a b c", "@"),
                     pc_template("@", "c a b b", "c")], syms)
    words = {word("c a b a"), word("b c"), word("b b a")}
    res = closure(sys, lang(words, syms), 5, 2)
    expect, r, fixpoint, truncated = naive_closure(sys, words, 5, 2)
    assert word("c a b b a") in expect
    assert res.language.words == expect
    assert (res.rounds_used, res.reached_fixpoint, res.truncated_by_length) == (
        r, fixpoint, truncated
    )


def test_contexts_of_several_words_and_lengths():
    # c1 and c2 hold 2-3 words of lengths 1-3, so a word's factor set mixes
    # lengths, and a context word may be longer than the word it is tested on.
    rng = random.Random(9431)
    syms = ["a", "b"]

    def rand_word(lo, hi):
        return tuple(rng.choices(syms, k=rng.randint(lo, hi)))

    def contexts():
        return frozenset(rand_word(1, 3) for _ in range(rng.randint(2, 3)))

    grew = 0
    for _ in range(120):
        templates = [
            PCTemplate(rand_word(0, 1), rand_word(3, 5), rand_word(0, 1), contexts(), contexts())
            for _ in range(rng.randint(1, 4))
        ]
        sys = pc_system(templates, syms)
        words = {rand_word(1, 7) for _ in range(rng.randint(2, 6))}
        max_len = max(map(len, words)) + rng.randint(0, 2)
        max_rounds = rng.randint(1, 3)
        res = closure(sys, lang(words, syms), max_len, max_rounds)
        expect, r, fixpoint, truncated = naive_closure(
            sys, words, max_len, max_rounds, results_by_definition
        )
        assert res.language.words == expect, (sorted(words), sys.templates)
        assert (res.rounds_used, res.reached_fixpoint, res.truncated_by_length) == (
            r, fixpoint, truncated
        )
        grew += len(expect) > len(words)
    assert grew >= 30

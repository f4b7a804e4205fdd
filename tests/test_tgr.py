from __future__ import annotations

import dataclasses
import itertools
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
    derivation_trace,
    recombine,
    step,
    tgr,
    word,
)
from tgrkit.errors import FormatError, ResourceLimitError
from tgrkit.regcompile import compile_regular
from tgrkit.tgr import InertTemplateWarning
from tgrkit.words import make_alphabet, shortlex_key

from conftest import load_grammar
from test_ctgr import PC_TEMPLATES, pc_system, pc_template, random_pc_templates


def system(templates, alphabet, n1=1, n2=1, quiet=False):
    with warnings.catch_warnings():
        if quiet:
            warnings.simplefilter("ignore", InertTemplateWarning)
        return TGRSystem(
            templates=FiniteLanguage(frozenset(templates), make_alphabet(alphabet)),
            alphabet=make_alphabet(alphabet),
            n1=n1,
            n2=n2,
        )


def lang(words, alphabet):
    return FiniteLanguage(frozenset(words), make_alphabet(alphabet))


def naive_recombine_words(x, y, t, n1=1, n2=1):
    """Oracle straight from the relation: try every split and every offset pair."""
    out = set()
    for i in range(len(t) + 1):
        for j in range(i, len(t) + 1):
            alpha, beta, gamma = t[:i], t[i:j], t[j:]
            if len(alpha) < n1 or len(gamma) < n1 or len(beta) < n2:
                continue
            for ox in range(len(x) - len(alpha + beta) + 1):
                if x[ox : ox + len(alpha + beta)] != alpha + beta:
                    continue
                for oy in range(len(y) - len(beta + gamma) + 1):
                    if y[oy : oy + len(beta + gamma)] != beta + gamma:
                        continue
                    out.add(x[: ox + len(alpha + beta)] + gamma + y[oy + len(beta + gamma) :])
    return out


SIGMA = ["S", "X", "Y", "a", "b", "c", "#"]


def test_recombine_proof_step():
    sys = system({word("a X b")}, SIGMA)
    events = recombine(sys, word("S a X"), word("X b Y"), word("a X b"))
    assert {e.w for e in events} == {word("S a X b Y")}
    (ev,) = events
    assert (ev.alpha, ev.beta, ev.gamma) == (("a",), ("X",), ("b",))
    assert ev.pos_x == 1 and ev.pos_y == 0


def test_recombine_self_reproduction():
    sys = system({word("a b c")}, SIGMA)
    events = recombine(sys, word("a b c"), word("a b c"), word("a b c"))
    assert {e.w for e in events} == {word("a b c")}


def test_recombine_multiple_attachment_points():
    sys = system({word("a X b")}, SIGMA)
    x, y, t = word("S a X a X"), word("X b Y"), word("a X b")
    got = {e.w for e in recombine(sys, x, y, t)}
    assert got == naive_recombine_words(x, y, t)
    assert got == {word("S a X b Y"), word("S a X a X b Y")}


def test_recombine_requires_listed_template():
    sys = system({word("a X b")}, SIGMA)
    with pytest.raises(ValueError):
        recombine(sys, word("a b c"), word("a b c"), word("a b c"))


def test_event_invariants_on_random_instances():
    rng = random.Random(100)
    syms = ["a", "b", "c"]
    for _ in range(300):
        x = tuple(rng.choices(syms, k=rng.randint(0, 6)))
        y = tuple(rng.choices(syms, k=rng.randint(0, 6)))
        t = tuple(rng.choices(syms, k=rng.randint(1, 5)))
        sys = system({t}, syms, quiet=True)
        for ev in recombine(sys, x, y, t):
            # template splits cleanly and is a contiguous factor of the result
            assert ev.alpha + ev.beta + ev.gamma == t
            assert any(
                ev.w[i : i + len(t)] == t for i in range(len(ev.w) - len(t) + 1)
            )
            # the decompositions replay exactly
            ab, bg = ev.alpha + ev.beta, ev.beta + ev.gamma
            assert ev.x[ev.pos_x : ev.pos_x + len(ab)] == ab
            assert ev.y[ev.pos_y : ev.pos_y + len(bg)] == bg
            assert ev.w == ev.x[: ev.pos_x] + t + ev.y[ev.pos_y + len(bg) :]
            # overlap counted once
            assert len(ev.w) <= len(ev.x) + len(ev.y) - sys.n2


def test_step_examples():
    empty = system(set(), SIGMA)
    assert step(empty, lang({word("S a X")}, SIGMA)).words == frozenset()

    sys = system({word("a X b")}, SIGMA)
    got = step(sys, lang({word("S a X"), word("X b Y")}, SIGMA))
    assert got.words == {word("S a X b Y")}

    self_sys = system({word("a b c")}, SIGMA)
    assert step(self_sys, lang({word("a b c")}, SIGMA)).words == {word("a b c")}


def test_step_agrees_with_naive_oracle():
    rng = random.Random(4242)
    syms = ["a", "b", "c"]
    for _ in range(100):
        words = {
            tuple(rng.choices(syms, k=rng.randint(0, 6)))
            for _ in range(rng.randint(1, 4))
        }
        templates = {
            tuple(rng.choices(syms, k=rng.randint(1, 5)))
            for _ in range(rng.randint(0, 3))
        }
        sys = system(templates, syms, quiet=True)
        expect = set()
        for x in words:
            for y in words:
                for t in templates:
                    expect |= naive_recombine_words(x, y, t)
        got = step(sys, lang(words, syms))
        assert got.words == frozenset(expect)


def test_self_reproduction():
    rng = random.Random(12)
    syms = ["a", "b", "c"]
    for _ in range(100):
        t = tuple(rng.choices(syms, k=rng.randint(3, 6)))
        sys = system({t}, syms)
        assert t in step(sys, lang({t}, syms)).words


def test_step_monotone():
    rng = random.Random(7)
    syms = ["a", "b"]
    for _ in range(50):
        small = {tuple(rng.choices(syms, k=rng.randint(1, 5))) for _ in range(2)}
        big = small | {tuple(rng.choices(syms, k=rng.randint(1, 5)))}
        templates = {tuple(rng.choices(syms, k=3))}
        sys = system(templates, syms, quiet=True)
        assert step(sys, lang(small, syms)).words <= step(sys, lang(big, syms)).words


def test_closure_empty_template_set_is_fixpoint_after_one_round():
    sys = system(set(), SIGMA)
    start = lang({word("S a X")}, SIGMA)
    res = closure(sys, start, max_len=10, max_rounds=5)
    assert res.language.words == start.words
    assert res.reached_fixpoint and res.rounds_used == 1
    assert not res.truncated_by_length


def test_closure_rounds_are_nested():
    sys = system({word("a S a"), word("a S b")}, SIGMA)
    start = lang({word("S a S"), word("S b #")}, SIGMA)
    previous = start.words
    for rounds in range(1, 6):
        res = closure(sys, start, max_len=13, max_rounds=rounds)
        assert previous <= res.language.words
        previous = res.language.words


def test_closure_truncation_flag():
    sys = system({word("a S a")}, SIGMA)
    start = lang({word("S a S")}, SIGMA)
    res = closure(sys, start, max_len=5, max_rounds=10)
    assert res.truncated_by_length  # S a S a S a S does not fit
    assert res.language.words == {word("S a S"), word("S a S a S")}


def test_closure_requires_max_len_covering_initial():
    sys = system(set(), SIGMA)
    with pytest.raises(ValueError):
        closure(sys, lang({word("S a X")}, SIGMA), max_len=2, max_rounds=1)


def test_closure_deterministic_output():
    sys = system({word("a S a"), word("a S b")}, SIGMA)
    start = lang({word("S a S"), word("S b #")}, SIGMA)
    one = closure(sys, start, max_len=11, max_rounds=20).language.to_text()
    two = closure(sys, start, max_len=11, max_rounds=20).language.to_text()
    assert one.encode() == two.encode()


def test_derivation_trace_cases():
    sys = system({word("a S a"), word("a S b")}, SIGMA)
    start = lang({word("S a S"), word("S b #")}, SIGMA)

    assert derivation_trace(sys, start, word("S b #"), 11, 10) == ()

    trace = derivation_trace(sys, start, word("S a S b #"), 11, 10)
    assert trace is not None and len(trace) == 1
    (ev,) = trace
    assert (ev.x, ev.y, ev.w) == (word("S a S"), word("S b #"), word("S a S b #"))

    assert derivation_trace(sys, start, word("c"), 11, 10) is None


def test_derivation_trace_events_chain():
    sys = system({word("a S a"), word("a S b")}, SIGMA)
    start = lang({word("S a S"), word("S b #")}, SIGMA)
    target = word("S a S a S a S b #")
    trace = derivation_trace(sys, start, target, 13, 10)
    assert trace is not None and trace[-1].w == target
    seen = set(start.words)
    for ev in trace:
        assert ev.x in seen and ev.y in seen
        seen.add(ev.w)


@pytest.mark.parametrize("kind", [TGRSystem, CTGRSystem], ids=lambda kind: kind.__name__)
def test_system_validation(kind):
    def templates(ts):
        if kind is TGRSystem:
            return ts
        return [t if isinstance(t, PCTemplate) else PCTemplate((), t, (), set(), set()) for t in ts]

    def make(ts, n1=1, n2=1):
        return kind(templates(ts), make_alphabet("ab"), n1, n2)

    # kind and reserved are class constants; as fields they would default to no reserved symbols.
    assert [f.name for f in dataclasses.fields(kind)] == ["templates", "alphabet", "n1", "n2"]
    for n1, n2 in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="length minima must be positive"):
            make([word("a b a")], n1, n2)
    with pytest.raises(ValueError, match="template symbol 'q' is outside"):
        make([word("a q b")])
    if kind is CTGRSystem:
        with pytest.raises(ValueError, match="template symbol 'q' is outside"):
            make([PCTemplate((), word("a b a"), (), {word("q")}, set())])
    with pytest.warns(InertTemplateWarning, match="^2 .*can never fire") as record:
        kind(templates([word("a b"), word("b"), word("a b a")]), make_alphabet("ab"))
    # The warning points at the line that called the constructor, here, for both kinds.
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("kind", [TGRSystem, CTGRSystem], ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("bad", ["@", "", "a b"])
def test_system_rejects_alphabet_symbols_no_language_takes(kind, bad):
    # Checked before any template is packed: a system over "@" would build, and
    # fail only at the first FiniteLanguage made over its alphabet.
    t = ("a", "b", "a") if kind is TGRSystem else PCTemplate((), ("a", "b", "a"), (), set(), set())
    with pytest.raises(FormatError, match=f"bad symbol token {bad!r}"):
        kind([t], frozenset({"a", "b", bad}))


PLAIN_TEMPLATES = st.lists(st.sampled_from(["a", "b", "c", "X"]), max_size=5).map(tuple)


@pytest.mark.parametrize(
    "kind, templates", [(TGRSystem, PLAIN_TEMPLATES), (CTGRSystem, PC_TEMPLATES)],
    ids=["TGRSystem", "CTGRSystem"],
)
@given(data=st.data())
def test_templates_are_distinct_and_in_shortlex_order_of_their_words(kind, templates, data):
    distinct = data.draw(st.lists(templates, max_size=8, unique=True))
    repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=4)) if distinct else []
    given_templates = data.draw(st.permutations(distinct + repeats))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InertTemplateWarning)
        sys = kind(given_templates, make_alphabet("abcX"))
    assert sys.templates == tuple(sorted(distinct, key=lambda t: shortlex_key(sys.word(t))))


def test_derivation_trace_prefers_shortlex_least_x_then_y():
    # In round 1, S a S b # comes from (S a S, X S b #), (S a S, Y S b #) and
    # (S a S b c, X S b #) under a S b, and from (S a S b c, b #) under S b #.
    # The least y alone would pick the S b # event; the trace keeps the
    # shortlex-least x first, then the least y.
    sys = system({word("a S b"), word("S b #")}, SIGMA)
    start = lang(
        {word("S a S"), word("S a S b c"), word("b #"), word("X S b #"), word("Y S b #")},
        SIGMA,
    )
    trace = derivation_trace(sys, start, word("S a S b #"), 9, 3)
    assert trace is not None and len(trace) == 1
    (ev,) = trace
    assert (ev.x, ev.y, ev.template) == (word("S a S"), word("X S b #"), word("a S b"))
    assert (ev.pos_x, ev.pos_y) == (1, 1)


@pytest.mark.parametrize("case", ["four-pairs", "ends_ab"])
def test_derivation_trace_builds_events_only_for_its_trace(monkeypatch, case):
    # Candidate pairs are compared by key; only the returned trace's words get
    # an event, one packed and one unpacked.  The ends_ab trace has 7 events
    # among thousands of candidate pairs.
    built = []

    class Counted(tgr.RecombinationEvent):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(tgr, "RecombinationEvent", Counted)
    if case == "four-pairs":  # the system of test_derivation_trace_prefers_shortlex_least_x_then_y
        sys = system({word("a S b"), word("S b #")}, SIGMA)
        start = lang(
            {word("S a S"), word("S a S b c"), word("b #"), word("X S b #"), word("Y S b #")},
            SIGMA,
        )
        trace = derivation_trace(sys, start, word("S a S b #"), 9, 3)
    else:
        cr = compile_regular(load_grammar("ends_ab.grammar"))
        target = word("S a S b S a S b S a S a S b S a A b #")
        trace = derivation_trace(cr.system, cr.base, target, 19, 64)
    assert trace is not None and len(trace) == (1 if case == "four-pairs" else 7)
    assert len(built) <= 2 * len(trace)


def naive_closure(templates, words, max_len, max_rounds, n1=1, n2=1):
    """Round-by-round oracle: every (x, y, t) over the whole set, cut at max_len."""
    words, truncated, fixpoint, r = set(words), False, False, 0
    for r in range(1, max_rounds + 1):
        produced = set()
        for x in words:
            for y in words:
                for t in templates:
                    produced |= naive_recombine_words(x, y, t, n1, n2)
        truncated = truncated or any(len(w) > max_len for w in produced)
        new = {w for w in produced if len(w) <= max_len} - words
        if not new:
            fixpoint = True
            break
        words |= new
    return words, r, fixpoint, truncated


# Words use an alphabet's first symbols and the rest are declared unused.  The
# second alphabet's sorted order is not its order of first use, and its
# symbols compare as strings ("B1" < "B10" < "B2"), so packed words must
# order as their tuples do.
ALPHABETS = pytest.mark.parametrize(
    "alphabet", [["a", "b", "c"], ["b", "B10", "B", "B2", "B1"]], ids=["abc", "multichar"]
)


@ALPHABETS
def test_closure_agrees_with_naive_oracle(alphabet):
    rng = random.Random(5150)
    syms = alphabet[:2]
    declared = syms + alphabet[3:]
    seen = set()
    for _ in range(150):
        words = {tuple(rng.choices(syms, k=rng.randint(0, 6))) for _ in range(rng.randint(1, 5))}
        templates = {
            tuple(rng.choices(syms, k=rng.randint(3, 4))) for _ in range(rng.randint(0, 3))
        }
        n2 = rng.choice([1, 1, 2])
        max_len = max(map(len, words)) + rng.randint(0, 2)
        max_rounds = rng.randint(0, 3)
        sys = system(templates, declared, n2=n2, quiet=True)
        res = closure(sys, lang(words, declared), max_len, max_rounds)
        expect, rounds, fixpoint, truncated = naive_closure(
            templates, words, max_len, max_rounds, n2=n2
        )
        assert res.language.words == frozenset(expect)
        assert (res.rounds_used, res.reached_fixpoint, res.truncated_by_length) == (
            rounds, fixpoint, truncated
        )
        seen.add((fixpoint, truncated))
    # some cases truncate and some do not; some reach a fixpoint and some do not
    assert {t for _, t in seen} == {f for f, _ in seen} == {False, True}


def test_closure_agrees_with_naive_oracle_beyond_256_symbols():
    # A packed word gives each symbol one character, so 300 symbols take no other path.
    alphabet = sorted(f"s{i}" for i in range(300))
    rng = random.Random(300)
    for _ in range(60):
        syms = [rng.choice(alphabet[256:]), rng.choice(alphabet)]
        words = {tuple(rng.choices(syms, k=rng.randint(0, 6))) for _ in range(rng.randint(1, 5))}
        templates = {
            tuple(rng.choices(syms, k=rng.randint(3, 4))) for _ in range(rng.randint(1, 3))
        }
        max_len, max_rounds = max(map(len, words)) + rng.randint(0, 2), rng.randint(1, 3)
        sys = system(templates, alphabet, quiet=True)
        assert ord(max(sys.pack(tuple(syms)))) >= 256
        res = closure(sys, lang(words, alphabet), max_len, max_rounds)
        expect, rounds, fixpoint, truncated = naive_closure(templates, words, max_len, max_rounds)
        assert res.language.words == frozenset(expect)
        assert (res.rounds_used, res.reached_fixpoint, res.truncated_by_length) == (
            rounds, fixpoint, truncated
        )


def test_derivation_trace_rejects_target_outside_alphabet():
    sys = system({word("a S a")}, SIGMA)
    start = lang({word("S a S")}, SIGMA)
    with pytest.raises(ValueError, match="'q'"):
        derivation_trace(sys, start, word("S q #"), 11, 10)


def test_set_size_cap_below_initial_language_is_rejected():
    sys = system({word("a S a")}, SIGMA)
    start = lang({word("S a S"), word("S b #"), word("a"), word("b")}, SIGMA)
    with pytest.raises(ValueError, match="max_set_size 1 is smaller than the 4 initial words"):
        closure(sys, start, max_len=10, max_rounds=0, max_set_size=1)
    with pytest.raises(ValueError, match="max_set_size"):
        derivation_trace(sys, start, word("S a S a S"), 10, 3, max_set_size=3)
    assert closure(sys, start, max_len=10, max_rounds=0, max_set_size=4).language == start


def test_resource_limit_reports_round_counts():
    sys = system({word("a S a")}, SIGMA)
    start = lang({word("S a S"), word("S b #")}, SIGMA)
    message = r"closure would exceed 2 words \(2 \+ 1 new in round 1\)"
    with pytest.raises(ResourceLimitError, match=message):
        closure(sys, start, max_len=10, max_rounds=3, max_set_size=2)
    with pytest.raises(ResourceLimitError, match=message):
        derivation_trace(sys, start, word("S a S a S a S"), 10, 3, max_set_size=2)


@pytest.mark.parametrize("kind", ["plain", "contextual"])
def test_engine_plan_lists_each_templates_splits_in_order(kind):
    # The engine enumerates cuts itself; its plan and class ids must be those of
    # `splits`, template by template, with class ids numbered in order of first use.
    rng = random.Random(1818)
    syms = ["a", "b", "c"]

    def rand_word(lo, hi):
        return tuple(rng.choices(syms, k=rng.randint(lo, hi)))

    if kind == "plain":
        sys = system({rand_word(2, 7) for _ in range(10)}, syms, quiet=True)
    else:
        templates = [PCTemplate(rand_word(0, 2), rand_word(3, 8), rand_word(0, 2),
                                frozenset({rand_word(0, 2)}), frozenset({rand_word(0, 2)}))
                     for _ in range(10)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InertTemplateWarning)
            sys = CTGRSystem(templates=templates, alphabet=make_alphabet(syms), n1=1, n2=2)
    pack = sys.pack
    plan, xkeys, ykeys = [], [], []
    for t in sys.templates:
        e1, body, d1, c1, c2 = sys.parts(t)
        for alpha, beta, gamma in tgr.splits(body, sys.n1, sys.n2):
            plan.append((t, pack(alpha), pack(beta), pack(gamma), pack(e1)))
            xkeys.append((pack(alpha + beta + d1), len(alpha + beta), frozenset(map(pack, c1))))
            yneedle = e1 + beta + gamma
            ykeys.append((pack(yneedle), len(yneedle), frozenset(map(pack, c2))))

    def first_use_ids(keys):
        ids = {}
        return [ids.setdefault(k, len(ids)) for k in keys]

    engine = tgr._Engine(sys)
    assert engine.plan == plan
    assert engine.classes == [first_use_ids(xkeys), first_use_ids(ykeys)]
    assert len(set(engine.classes[0])) < len(plan) > len(set(engine.classes[1]))


@pytest.mark.parametrize("kind, keep_hits, sides, sizes", [
    ("plain", False, [{0}, {1}], ((2,), (2,))),
    ("plain", True, [{0, 1}], ((2,),)),
    ("no contexts", False, [{0}, {1}], ((4,), (2,))),
    ("no contexts", True, [{0, 1}], ((2, 4),)),
    ("one context", False, [{0, 1}], ((2, 4),)),
    ("one context", True, [{0, 1}], ((2, 4),)),
])
def test_engine_scans_each_side_alone_without_kept_hits_or_contexts(kind, keep_hits, sides, sizes):
    # Without kept hits or contexts each side has its own needle index, with its
    # own needle lengths and stems: the forward scan reads the y-index, and the
    # x-scan the x-index by needle end.  Otherwise one index holds both sides'
    # needles for the forward scan alone.  "a b a" with d1 = "c c" has the
    # x-needle "a b c c" and the y-needle "b a", so only a combined index has the
    # stem "a b".
    overhang = pc_template("@", "a b a", "c c")
    sys = {"plain": system({word("a b a")}, "abc"),
           "no contexts": pc_system([overhang], "abc"),
           "one context": pc_system([overhang, pc_template("@", "b c b", "@", c2=["a"])], "abc"),
           }[kind]
    engine = tgr._Engine(sys, keep_hits)
    assert [{side for entries in index.values() for side, *_ in entries}
            for index in engine.index] == sides
    assert engine.sizes == sizes
    stems = [f for index in engine.index for f, entries in index.items() if not entries]
    assert stems == ([sys.pack(word("a b"))] if sizes == ((2, 4),) else [])


def test_engine_split_scans_end_at_the_first_known_part():
    # Every part of every word indexed before is recorded, so each scan of a
    # plain closure ends at its first known part.  With the template "a b a",
    # "a b" is the x-needle and "b a" the y-needle.  After "a b a b a",
    # "b b a b a" has the known y-part "b a" after the needle at 1, and
    # "a b a b b" the known x-part "a b a b" before the needle ending at 4.
    sys = system({word("a b a")}, "ab")
    engine = tgr._Engine(sys)
    log = []

    class Logged(dict):
        def get(self, key, default=None):
            log.append(" ".join(sys.unpack(key)))
            return super().get(key, default)

    engine.index = tuple(map(Logged, engine.index))
    scans = []
    for w in ("a b a b a", "b b a b a", "a b a b b"):
        engine.add_words([sys.pack(word(w))])
        scans.append(log[:])
        log.clear()
    # the forward scan reads the y-needles by start, the x-scan x-needles by end
    assert scans == [["a b", "b a", "a b", "b a", "b a", "a b", "b a", "a b"],
                     ["b b", "b a", "b a", "a b", "b a", "b b"],
                     ["a b", "b a", "a b", "b b", "b b", "a b"]]


def test_derivation_trace_gives_none_for_a_target_over_max_len_before_any_round(monkeypatch):
    def no_engine(*args, **kwargs):
        raise AssertionError("no round can reach a target longer than max_len")

    monkeypatch.setattr(tgr, "_Engine", no_engine)
    sys = system({word("a S a")}, SIGMA)
    start = lang({word("S a S")}, SIGMA)
    assert derivation_trace(sys, start, word("S a S a S a S"), 6, 10) is None


def naive_trace_rounds(sys, words, max_len, max_rounds):
    """Round-by-round oracle: word -> (round, least event by the documented key)
    over every recombine event of the round's whole set."""
    rank = {t: i for i, t in enumerate(sys.templates)}

    def key(ev):
        return (shortlex_key(ev.x), shortlex_key(ev.y), rank[ev.template],
                ev.pos_x, ev.pos_y, len(ev.beta), len(ev.alpha))

    found, words = {}, set(words)
    for r in range(1, max_rounds + 1):
        best = {}
        for x, y, t in itertools.product(words, words, sys.templates):
            for ev in recombine(sys, x, y, t):
                if len(ev.w) > max_len or ev.w in words:
                    continue
                if ev.w not in best or key(ev) < key(best[ev.w]):
                    best[ev.w] = ev
        if not best:
            break
        found.update((w, (r, ev)) for w, ev in best.items())
        words |= best.keys()
    return found


def naive_trace(found, initial, target):
    if target in initial:
        return ()
    if target not in found:
        return None
    needed, stack = {}, [target]
    while stack:
        w = stack.pop()
        if w not in initial and w not in needed:
            ev = needed[w] = found[w][1]
            stack += [ev.x, ev.y]
    return tuple(sorted(needed.values(), key=lambda e: (found[e.w][0], e.w)))


@ALPHABETS
def test_derivation_trace_agrees_with_naive_oracle(alphabet):
    rng = random.Random(4242)
    kinds, traced, deep = set(), 0, 0
    for case in range(800):
        syms = alphabet[: 2 + case % 2]
        declared = syms + alphabet[3:]
        words = {tuple(rng.choices(syms, k=rng.randint(0, 6))) for _ in range(rng.randint(1, 5))}
        if case % 2:
            templates = random_pc_templates(rng, syms, rng.randint(0, 3))
            sys = pc_system(templates, declared, quiet=True)
        else:
            templates = {
                tuple(rng.choices(syms, k=rng.randint(3, 4))) for _ in range(rng.randint(0, 3))
            }
            sys = system(templates, declared, n2=rng.choice([1, 2]), quiet=True)
        max_len = max(map(len, words)) + rng.randint(0, 2)
        max_rounds = rng.randint(0, 4)
        found = naive_trace_rounds(sys, words, max_len, max_rounds)
        unreachable = next(
            w
            for n in itertools.count()
            for w in itertools.product(syms, repeat=n)
            if w not in words and w not in found
        )
        for target in sorted(words | found.keys() | {unreachable}, key=shortlex_key):
            got = derivation_trace(sys, lang(words, declared), target, max_len, max_rounds)
            assert got == naive_trace(found, words, target), (case, target)
            traced += bool(got)
            deep += bool(got) and len(got) > 1
        kinds.add((case % 2, bool(found)))
    # both system kinds reach new words or none; many traces chain several events
    assert kinds == {(0, False), (0, True), (1, False), (1, True)}
    assert traced > 300 and deep > 100

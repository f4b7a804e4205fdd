"""Template-guided recombination: the binary relation and its bounded iterated closure.

A system holds plain word templates plus two minima: n1 bounds the flanking
template parts (alpha and gamma), n2 bounds the shared overlap (beta).  A
template t split as alpha.beta.gamma merges x = u.alpha.beta.d and
y = e.beta.gamma.v into u.alpha.beta.gamma.v.  The closure iterates the
one-step operator under an explicit word-length bound, which is the
computable stand-in for the generally infinite full closure.  A plain
template is a contextual one (see ctgr) with empty deletion and permitting
contexts, so everything here serves both system kinds through their
`parts`.

The engine works on packed words, which slice and hash faster than tuples: symbol i
of the sorted alphabet becomes chr(i), for any alphabet size, so packed words keep
their tuples' lengths and order, and every order a result depends on stays.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, TypeAlias

from .errors import ResourceLimitError
from .patterns import Pattern, regex_source
from .words import (
    Alphabet,
    FiniteLanguage,
    WeakCoding,
    Word,
    check_symbol,
    occurrences,
    sort_words,
    word_text,
)

if TYPE_CHECKING:
    from .ctgr import PCTemplate

Parts: TypeAlias = tuple[Word, Word, Word, frozenset[Word], frozenset[Word]]
Packed: TypeAlias = str  # a word, one character per symbol
# (template, alpha, beta, gamma, e1): one split of a template's packed body
Split: TypeAlias = "tuple[Word | PCTemplate, Packed, Packed, Packed, Packed]"
# class id -> part length -> parts, per side: (x-class prefixes, y-class suffixes)
ByLength: TypeAlias = dict[int, dict[int, list[Packed]]]
Deltas: TypeAlias = tuple[ByLength, ByLength]
Pair: TypeAlias = tuple[int, Packed, Packed]  # (split id, prefix, suffix)


class InertTemplateWarning(UserWarning):
    """A template too short to split under the system's minima; it can never fire."""


class _Memo(dict):
    """x -> f(x), with f called once per distinct x."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, x):
        return self.setdefault(x, self.f(x))


@dataclass(frozen=True)
class System:
    """Either system kind; `templates` is kept as a tuple in shortlex order of their words.

    A kind gives, as class attributes and not fields, its `kind` name and the
    symbols `reserved` by its template words, and for each template its
    canonical `word` and its `parts`.  Templates with equal words are one.
    `packed` holds each template's parts, packed (`pack`, `unpack`), in template order.
    """

    templates: Iterable
    alphabet: Alphabet
    n1: int = 1
    n2: int = 1

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"length minima must be positive, got n1={self.n1}, n2={self.n2}")
        for sym in self.alphabet:  # as in FiniteLanguage, so every result can be one
            check_symbol(sym)
        clash = self.alphabet & self.reserved
        if clash:
            raise ValueError(f"system alphabet contains symbols that {self.kind} template words "
                             f"reserve: {sorted(clash)}")
        by_word = {self.word(t): t for t in self.templates}
        object.__setattr__(self, "_by_word", by_word)
        object.__setattr__(self, "templates", tuple(by_word[w] for w in sort_words(by_word)))
        least = 2 * self.n1 + self.n2
        object.__setattr__(self, "_chars", {s: chr(i) for i, s in enumerate(sorted(self.alphabet))})
        object.__setattr__(self, "_symbols", {c: s for s, c in self._chars.items()})
        words = _Memo(self.pack)  # templates share contexts and sets; each is packed once
        sets = _Memo(lambda c: frozenset(map(words.__getitem__, c)))
        packed, inert = [], []  # inert: bodies too short to split
        try:  # in template order, so the first symbol outside the alphabet is named
            for t in self.templates:
                e1, body, d1, c1, c2 = self.parts(t)
                packed.append((words[e1], self.pack(body), words[d1], sets[c1], sets[c2]))
                if len(body) < least:
                    inert.append(body)
        except ValueError as e:
            raise ValueError(f"template {e}") from None
        object.__setattr__(self, "packed", tuple(packed))
        if inert:
            warnings.warn(
                f"{len(inert)} template(s) have bodies shorter than 2*n1+n2={least} "
                f"and can never fire, e.g. {word_text(inert[0])!r}",
                InertTemplateWarning,
                stacklevel=3,  # the constructor's caller
            )

    def pack(self, w: Word) -> Packed:
        chars = self._chars
        try:
            return "".join([chars[s] for s in w])
        except KeyError as e:
            raise ValueError(f"symbol {e.args[0]!r} is outside the system alphabet") from None

    def unpack(self, w: Packed) -> Word:
        return tuple(map(self._symbols.__getitem__, w))

    def word(self, t) -> Word:
        """t's canonical word: equal words are equal templates, and dumps write it."""
        raise NotImplementedError

    def parts(self, t) -> Parts:
        """t's (e1, body, d1, c1, c2): deletion contexts, the body to split, permitting contexts."""
        raise NotImplementedError

    def __contains__(self, t) -> bool:
        """Whether t is one of the templates: the one its canonical word names."""
        return self._by_word.get(self.word(t)) == t


@dataclass(frozen=True)
class TGRSystem(System):
    kind = "tgr"
    reserved = frozenset()

    def word(self, t: Word) -> Word:
        return t

    def parts(self, t: Word) -> Parts:
        return (), t, (), frozenset(), frozenset()


@dataclass(frozen=True)
class RecombinationEvent:
    """One recombination with its split and offsets, for either system kind.

    Invariants: the template's body (a plain template is its own body) is
    alpha+beta+gamma; x[pos_x:] starts with the split's x-needle and
    y[pos_y:] with its y-needle; every permitting-context word of the
    template occurs in its word; and w = x[:pos_x]+alpha+beta+gamma+v where
    v is what follows the y-needle in y.
    """

    x: Word
    y: Word
    template: Word | PCTemplate
    alpha: Word
    beta: Word
    gamma: Word
    pos_x: int
    pos_y: int
    w: Word


def splits(t: Word | Packed, n1: int, n2: int) -> Iterator[tuple]:
    """All decompositions t = alpha.beta.gamma with |alpha|,|gamma| >= n1, |beta| >= n2."""
    m = len(t)
    for i in range(n1, m - n1 - n2 + 1):
        for j in range(i + n2, m - n1 + 1):
            yield t[:i], t[i:j], t[j:]


def _factors(w: Word, sizes: Iterable[int]) -> set[Word]:
    """The factors of w whose lengths are in sizes; contexts hold iff they are a subset."""
    return {w[a : a + n] for n in sizes for a in range(len(w) - n + 1)}


def _needle_index(entries: list[tuple[Packed, tuple]]) -> tuple[dict, tuple[int, ...]]:
    """needle -> entries, stems -> none; and the needle lengths.  x-needles alone: suffix stems."""
    index: dict[Packed, list] = {}
    for needle, entry in entries:
        index.setdefault(needle, []).append(entry)
    sizes = tuple(sorted({len(f) for f in index}))
    by_end = not any(side for _, (side, *_) in entries)
    stems = {(f[-n:] if by_end else f[:n]): [] for f in index for n in sizes if n < len(f)}
    return stems | index, sizes


def _merge(groups: ByLength, new: ByLength) -> None:
    for c, by_len in new.items():
        known = groups[c]
        for n, ws in by_len.items():
            known.setdefault(n, []).extend(ws)


def _event(sp: Split, x: Word, ox: int, y: Word, oy: int) -> RecombinationEvent:
    t, alpha, beta, gamma, e1 = sp
    w = x[: ox + len(alpha) + len(beta)] + gamma + y[oy + len(e1) + len(beta) + len(gamma) :]
    return RecombinationEvent(x, y, t, alpha, beta, gamma, ox, oy, w)


def _unpacked(sys: System, ev: RecombinationEvent) -> RecombinationEvent:
    x, y, alpha, beta, gamma, w = map(sys.unpack, (ev.x, ev.y, ev.alpha, ev.beta, ev.gamma, ev.w))
    return RecombinationEvent(x, y, ev.template, alpha, beta, gamma, ev.pos_x, ev.pos_y, w)


def recombine(sys: System, x: Word, y: Word, t: Word | PCTemplate) -> frozenset[RecombinationEvent]:
    """All recombination events of x with y guided by template t.

    Every split of t and every pair of match offsets yields one event;
    distinct events may produce equal result words.  Empty set when no
    decomposition exists or a permitting context is missing.
    """
    if t not in sys:
        raise ValueError("template is not in the system's template set")
    e1, body, d1, c1, c2 = sys.parts(t)
    sizes = {len(c) for c in c1 | c2}
    if not (c1 <= _factors(x, sizes) and c2 <= _factors(y, sizes)):
        return frozenset()
    events = []
    for alpha, beta, gamma in splits(body, sys.n1, sys.n2):
        xs = occurrences(alpha + beta + d1, x)
        if xs:
            sp = (t, alpha, beta, gamma, e1)
            for oy in occurrences(e1 + beta + gamma, y):
                events.extend(_event(sp, x, ox, y, oy) for ox in xs)
    return frozenset(events)


class _Engine:
    """Per-part-class prefix and suffix sets over a growing set of packed words.

    Words, parts, needles and contexts are packed (see the module docstring);
    the plan keeps each split's original template.  A result is
    x[:ox+|alpha beta|] + gamma + y[oy+|y-needle|:] and permitting contexts
    test whole words, so per split one step pairs the distinct prefixes of
    words meeting c1 with the distinct suffixes of words meeting c2: work
    follows the output, not |L| squared.  A split's prefixes depend only on
    its x-class (x-needle, |alpha beta|, c1) and its suffixes only on its
    y-class (y-needle, |y-needle|, c2); all splits of a class share its
    parts, the keys of a dict in its index entry (an empty dict is smaller
    than an empty set), so a new word's part is sliced, checked and recorded
    once per class it hits.  Parts, and each round's new ones, are also kept
    by length, so a prefix meets only the suffixes that fit in max_len beside
    it, and work follows the results kept; a round pairs only live splits,
    whose x-class and y-class both hold parts.  A scan looks up a new word's
    factors of needle lengths at a position, shortest first; a needle index
    also maps each needle's stems, its prefixes (x-needles: suffixes) at
    shorter needle lengths, to no entries, so a position's lookups stop at the
    first factor that is no key.  A class's permitting contexts hold iff they
    are a subset of the word's factors of the plan's context-word lengths, one
    set per word (its characters, when all have length 1), built when it
    first hits a class with contexts.  A scan reads only where a needle can
    be: the forward scan at the positions whose symbol starts a needle of its
    index, and the x-scan at the ends whose symbol ends an x-needle.  With
    `keep_hits` one forward scan reads one index of both sides' needles and
    never stops early, as kept sources need every occurrence.  Otherwise
    each side has its own index: the forward scan reads y-needles, and its
    mirror image, the x-scan, reads x-needles by their end, right to left.
    Without permitting contexts each scan also ends at its first known part,
    exactly, as every part of every scanned word is recorded: a known y-part
    means an earlier word ends in the same w[a:], and a known x-part whose
    needle ends at e means an earlier word starts with w[:e], so every
    x-needle ending by e is known.  With contexts a known part says nothing of
    another class's contexts, so the scans go on.  Against one combined scan
    at every position, index lookups fall 77% on `check reg` closures and 71%
    on compiled anbn (README).
    `parts[side][class]` is a class's part dict; with `keep_hits` a part's
    value is its (word, offset) sources, the first-indexed one of its
    shortlex-least word first, else None.
    """

    def __init__(self, sys: System, keep_hits: bool = False):
        self.plan: list[Split] = []
        self.classes: list[list[int]] = [[], []]  # per side, split id -> its class id
        plan, (xcls, ycls) = self.plan, self.classes
        xids: dict[tuple, int] = {}  # x-class (x-needle, |alpha beta|, c1) -> class id
        yids: dict[tuple, int] = {}  # y-class (y-needle, |y-needle|, c2) -> class id
        for t, (e1, body, d1, c1, c2) in zip(sys.templates, sys.packed):
            for alpha, beta, gamma in splits(body, sys.n1, sys.n2):
                plan.append((t, alpha, beta, gamma, e1))
                xneedle, yneedle = alpha + beta + d1, e1 + beta + gamma
                xcls.append(xids.setdefault((xneedle, len(alpha) + len(beta), c1), len(xids)))
                ycls.append(yids.setdefault((yneedle, len(yneedle), c2), len(yids)))
        # per side, (needle, (side, class, cut, contexts, parts)) in class id order
        entries: tuple[list[tuple[Packed, tuple]], ...] = ([], [])
        self.users: list[list[list[int]]] = []  # per side, class id -> its split ids
        self.parts: tuple[list[dict], ...] = ([], [])  # per side, class id -> its parts
        for side, ids in enumerate((xids, yids)):
            users: list[list[int]] = [[] for _ in ids]
            for i, c in enumerate(self.classes[side]):
                users[c].append(i)
            for (needle, cut, contexts), c in ids.items():  # in class id order
                self.parts[side].append(known := {})
                entries[side].append((needle, (side, c, cut, contexts, known)))
            self.users.append(users)
        xentries, yentries = entries
        sizes = {len(c) for _, e in xentries + yentries for c in e[3]}  # context word lengths
        # a word's context factors; a packed word's factors of length 1 are its characters
        self.factors = set if sizes == {1} else lambda w: _factors(w, sizes)
        scans = [xentries + yentries] if keep_hits else entries
        self.index, self.sizes = zip(*map(_needle_index, scans))  # per scan: index, needle lengths
        # the symbols x-needles end with, and the forward scan's needles start with
        self.gates = ({f[-1] for f, _ in xentries}, {f[0] for f, _ in scans[-1]})
        self.stops = not (keep_hits or sizes)  # a scan may end at a known part
        self.by_length: Deltas = (defaultdict(dict), defaultdict(dict))  # the parts, by length
        self.keep_hits = keep_hits
        self.pairs: list[Pair] | None = None  # with keep_hits, the last run's kept pairs

    def add_words(self, new: Iterable[Packed]) -> Deltas:
        """Index new words; returns the new parts of each class they touch, per side."""
        deltas: Deltas = ({}, {})
        index, sizes, keep_hits, stops = self.index[-1], self.sizes[-1], self.keep_hits, self.stops
        word_factors = self.factors
        xindex, xsizes = self.index[0], self.sizes[0]
        xgate, gate = self.gates
        for w in new:
            factors = None  # w's factors of context lengths, built on first need
            n = m = len(w)  # needles end by m; 0 ends the scan
            for a, s in enumerate(w):
                if not m:
                    break
                if s not in gate:  # no needle starts with s
                    continue
                for size in sizes:
                    if a + size > m:
                        break
                    entries = index.get(w[a : a + size])
                    if entries is None:  # no needle starts with w[a : a + size]
                        break
                    for side, c, cut, contexts, known in entries:
                        if contexts:
                            if factors is None:
                                factors = word_factors(w)
                            if not contexts <= factors:
                                continue
                        part = w[a + cut :] if side else w[: a + cut]
                        if part not in known:
                            known[part] = [] if keep_hits else None
                            deltas[side].setdefault(c, {}).setdefault(len(part), []).append(part)
                        elif stops:  # an earlier word ends in w[a:]: all later y-parts are known
                            m = 0
                            break
                        if keep_hits:  # the shortlex-least source stays first
                            sources = known[part]
                            sources.append((w, a))
                            if (len(w), w) < (len(sources[0][0]), sources[0][0]):
                                sources[0], sources[-1] = sources[-1], sources[0]
            if keep_hits:
                continue
            b = 0  # the x-scan, by needle end, right to left: needles start at b or later
            for e in range(n, 0, -1):
                if b:
                    break
                if w[e - 1] not in xgate:  # no x-needle ends with w[e - 1]
                    continue
                for size in xsizes:
                    a = e - size
                    if a < b:
                        break
                    entries = xindex.get(w[a:e])
                    if entries is None:  # no x-needle ends with w[a:e]
                        break
                    for _, c, cut, contexts, known in entries:
                        if contexts:
                            if factors is None:
                                factors = word_factors(w)
                            if not contexts <= factors:
                                continue
                        part = w[: a + cut]
                        if part in known:
                            if stops:  # an earlier word starts with w[:e]: all needles
                                b = n  # ending by e are known
                                break
                            continue
                        known[part] = None
                        deltas[0].setdefault(c, {}).setdefault(len(part), []).append(part)
        return deltas

    def run(self, deltas: Deltas, max_len: int | None) -> tuple[set[Packed], bool]:
        """New prefixes x all suffixes plus old prefixes x new suffixes, per split.

        Results longer than max_len are dropped and reported by the flag; with
        keep_hits, `pairs` lists the (split id, prefix, suffix) of every kept one.
        """
        produced: set[Packed] = set()
        truncated = False
        limit = math.inf if max_len is None else max_len
        prefixes, suffixes = self.by_length
        new_p, new_s = deltas
        _merge(suffixes, new_s)  # the prefixes take this round's new ones after the pairing
        pairs = self.pairs = [] if self.keep_hits else None
        (xcls, ycls), (xusers, yusers) = self.classes, self.users
        # live splits: both classes hold parts, one side's new (suffixes holds this round's)
        live = {i for c in new_p for i in xusers[c] if ycls[i] in suffixes}
        live.update([i for c in new_s for i in yusers[c] if xcls[i] in prefixes])
        for i in sorted(live):
            xc, yc = xcls[i], ycls[i]
            dp, ds = new_p.get(xc, {}), new_s.get(yc, {})
            gamma = self.plan[i][3]
            old_p = prefixes.get(xc, {}) if ds else {}
            for pgroups, sgroups in ((dp, suffixes.get(yc, {})), (old_p, ds)):
                for n, ps in pgroups.items():
                    budget = limit - n - len(gamma)
                    fits = [ss for m, ss in sgroups.items() if m <= budget]
                    truncated = truncated or len(fits) < len(sgroups)
                    for p in ps:
                        pg = p + gamma
                        for ss in fits:
                            produced.update([pg + s for s in ss])
                            if pairs is not None:
                                pairs.extend([(i, p, s) for s in ss])
        _merge(prefixes, new_p)
        return produced, truncated


def step(sys: System, language: FiniteLanguage) -> FiniteLanguage:
    """One application of the recombination operator: all results over L x L x T."""
    engine = _Engine(sys)
    produced, _ = engine.run(engine.add_words(map(sys.pack, language.words)), None)
    return FiniteLanguage(frozenset(map(sys.unpack, produced)), sys.alphabet)


def step_events(sys: System, language: FiniteLanguage) -> list[RecombinationEvent]:
    """Like step but returns the full event list (for audits and tests)."""
    engine = _Engine(sys, keep_hits=True)
    engine.run(engine.add_words(sort_words(map(sys.pack, language.words))), None)
    xs, ys = engine.parts
    return [_unpacked(sys, _event(engine.plan[i], x, ox, y, oy)) for i, p, s in engine.pairs
            for x, ox in xs[engine.classes[0][i]][p] for y, oy in ys[engine.classes[1][i]][s]]


@dataclass(frozen=True)
class ClosureResult:
    """A bounded closure, its words kept packed over `system`'s alphabet and decoded when read.

    `words` (in shortlex order) and `language` decode every word on each read and keep
    nothing; `coded` decodes only the distinct images of the words its filter keeps.
    """

    system: System
    packed: frozenset[Packed]
    rounds_used: int
    reached_fixpoint: bool
    truncated_by_length: bool

    def words(self) -> Iterator[Word]:
        return map(self.system.unpack, sort_words(self.packed))

    @property
    def language(self) -> FiniteLanguage:
        return FiniteLanguage(frozenset(map(self.system.unpack, self.packed)), self.system.alphabet)

    def coded(self, filter: Pattern, coding: WeakCoding) -> set[Word]:
        """The images under `coding` of the words `filter` matches, by one regex and one table."""
        chars = self.system._chars
        keep = re.compile(regex_source(filter, chars)).fullmatch
        erase = {ord(c): None for s, c in chars.items() if coding.mapping.get(s, s) is None}
        images = {w.translate(erase) for w in self.packed if keep(w)}
        return {coding.apply(self.system.unpack(w)) for w in images}


def _check_caps(initial: FiniteLanguage, max_len: int, max_rounds: int, max_set_size: int) -> None:
    if any(len(w) > max_len for w in initial.words):
        raise ValueError("max_len is smaller than the longest initial word")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be nonnegative, got {max_rounds}")
    if max_set_size < len(initial.words):
        raise ValueError(
            f"max_set_size {max_set_size} is smaller than the {len(initial.words)} initial words"
        )


def _rounds(
    engine: _Engine, words: set[Packed], max_len: int, max_rounds: int, max_set_size: int
) -> Iterator[tuple[int, set[Packed], bool]]:
    """The closure's rounds: grows packed `words` in place, yields (round, new words, truncated).

    Fresh words are indexed in set order, since no result depends on it: the
    closure is a set, each part keeps its least source first, and a trace
    keeps each word's least event.  The first round adding none is the last.
    """
    fresh = words
    for r in range(1, max_rounds + 1):
        produced, truncated = engine.run(engine.add_words(fresh), max_len)
        new = produced - words
        if len(words) + len(new) > max_set_size:
            raise ResourceLimitError(f"closure would exceed {max_set_size} words "
                                     f"({len(words)} + {len(new)} new in round {r})")
        words |= new
        yield r, new, truncated
        if not new:
            return
        fresh = new


def closure(
    sys: System,
    initial: FiniteLanguage,
    max_len: int,
    max_rounds: int,
    max_set_size: int = 1_000_000,
) -> ClosureResult:
    """Bounded iterated closure: least fixpoint of L -> L + step(L), cut at max_len.

    `reached_fixpoint` means one further round adds no word within the length
    bound; `truncated_by_length` means some produced word was discarded, so
    the approximation may be incomplete beyond that length.
    """
    _check_caps(initial, max_len, max_rounds, max_set_size)
    words = set(map(sys.pack, initial.words))
    r, fixpoint, truncated = 0, False, False
    for r, new, trunc in _rounds(_Engine(sys), words, max_len, max_rounds, max_set_size):
        fixpoint, truncated = not new, truncated or trunc
    return ClosureResult(sys, frozenset(words), r, fixpoint, truncated)


def derivation_trace(
    sys: System,
    initial: FiniteLanguage,
    target: Word,
    max_len: int,
    max_rounds: int,
    max_set_size: int = 1_000_000,
) -> tuple[RecombinationEvent, ...] | None:
    """A minimal-round event sequence deriving `target` from `initial`, if any.

    Each event's x and y are initial words or results of earlier events; the
    last event yields `target`.  A word's event is the least one of the round
    it first appears in, by shortlex x, shortlex y, template order, pos_x,
    pos_y, |beta| and |alpha|.  A split fixes the template and its parts, and
    a prefix or suffix fixes its word's offset, so per kept pair that is the
    least x source with the least y source.  Pairs are compared by key tuples,
    as packed words order as their tuples do, and only the returned trace's
    events are built.  Words already in `initial` get an empty trace;
    unreachable targets (within the caps, so any longer than max_len) give
    None, and a target symbol outside the alphabet raises ValueError.
    """
    _check_caps(initial, max_len, max_rounds, max_set_size)
    for sym in target:
        if sym not in sys.alphabet:
            raise ValueError(f"target symbol {sym!r} is outside the system alphabet")
    if target in initial.words:
        return ()
    if len(target) > max_len:
        return None
    engine = _Engine(sys, keep_hits=True)
    plan, (xcls, ycls), (xparts, yparts) = engine.plan, engine.classes, engine.parts
    rank = {t: i for i, t in enumerate(sys.templates)}
    ranks = [rank[t] for t, *_ in plan]
    found: dict[Packed, tuple[int, tuple, int]] = {}  # word -> (round, key, split id)
    words, target = set(map(sys.pack, initial.words)), sys.pack(target)
    for r, new, _ in _rounds(engine, words, max_len, max_rounds, max_set_size):
        best: dict[Packed, tuple[tuple, int]] = {}  # word -> (key, split id)
        for i, p, s in engine.pairs:
            w = p + plan[i][3] + s
            if w in new:
                (x, ox), (y, oy) = xparts[xcls[i]][p][0], yparts[ycls[i]][s][0]
                k = (len(x), x, len(y), y, ranks[i], ox, oy, len(plan[i][2]), len(plan[i][1]))
                if w not in best or k < best[w][0]:
                    best[w] = k, i
        found.update((w, (r, k, i)) for w, (k, i) in best.items())
        if target in new:
            break
    if target not in words:
        return None

    needed: dict[Packed, RecombinationEvent] = {}
    stack = [target]
    while stack:
        w = stack.pop()
        if w not in found or w in needed:  # every word not found is an initial one
            continue
        _, (_, x, _, y, _, ox, oy, *_), i = found[w]
        needed[w] = _event(plan[i], x, ox, y, oy)
        stack.extend((x, y))
    return tuple(_unpacked(sys, needed[w]) for w in sorted(needed, key=lambda w: (found[w][0], w)))

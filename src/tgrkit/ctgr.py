"""Contextual template-guided recombination with permitting contexts.

A contextual template carries deletion contexts around its body and two
finite sets of permitting-context words: c1 words must occur in the first
participant x, c2 words in the second participant y.  With template body
alpha.beta.gamma, deletion contexts e1/d1 and x = u.alpha.beta.d1.d,
y = e.e1.beta.gamma.v, recombination yields u.alpha.beta.gamma.v: d1 is
consumed from x, e1 from y.  An empty context set and {empty word} both
impose no constraint (the empty word is a factor of every word), so
templates normalize context sets by dropping empty words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

from .errors import FormatError
from .tgr import Parts, System
from .words import Word, sort_words, word_text

HASH = "#"
DOLLAR = "$"
AMP = "&"
_set = object.__setattr__  # bound once; writing __dict__ instead would slow every field read


@dataclass(frozen=True, init=False)
class PCTemplate:
    e1: Word
    body: Word
    d1: Word
    c1: frozenset[Word]
    c2: frozenset[Word]

    def __init__(self, e1: Word, body: Word, d1: Word, c1: frozenset[Word], c2: frozenset[Word]):
        # Empty context words are vacuous: {} and {@} are one value.  Other frozensets stay shared.
        _set(self, "e1", e1)
        _set(self, "body", body)
        _set(self, "d1", d1)
        _set(self, "c1", c1 if type(c1) is frozenset and () not in c1 else frozenset(c1) - {()})
        _set(self, "c2", c2 if type(c2) is frozenset and () not in c2 else frozenset(c2) - {()})


def tau(tp: PCTemplate) -> Word:
    """Canonical word form, a template's one text form: e1 # body # d1 $ c1-words $ c2-words.

    Context words are listed in shortlex order and separated by "&"; this
    makes equal templates have equal tau words.  The word is computed once
    and kept on the template.
    """
    w = getattr(tp, "_tau", None)
    if w is None:
        c1, c2 = _joined(tp.c1), _joined(tp.c2)
        w = (*tp.e1, HASH, *tp.body, HASH, *tp.d1, DOLLAR, *c1, DOLLAR, *c2)
        object.__setattr__(tp, "_tau", w)
    return w


@lru_cache(maxsize=64)  # templates share their context sets, so a few entries serve a system
def _joined(c: frozenset[Word]) -> Word:
    """c's words in shortlex order, separated by "&"; fewer than two words need no sort."""
    if len(c) < 2:
        return next(iter(c), ())
    first, *rest = sort_words(c)
    return first + tuple(s for w in rest for s in (AMP, *w))


def parse_tau(w: Word, sets: dict | None = None) -> PCTemplate:
    """Parse a tau word back into a template; a canonical w becomes its tau word.

    Templates parsed with one `sets` dict share their context sets, as
    compiled ones do.  Assumes "#", "$" and "&" do not occur in the
    template's own symbols, which CTGRSystem enforces for its alphabet.
    """
    h1 = h2 = d1 = d2 = -1
    if w.count(HASH) == w.count(DOLLAR) == 2:
        h1, d1 = w.index(HASH), w.index(DOLLAR)
        h2, d2 = w.index(HASH, h1 + 1), w.index(DOLLAR, d1 + 1)
    if h2 >= d1:  # not two of each mark, or a "$" before the second "#"
        raise FormatError(f"not a tau word: {word_text(w)!r}")
    if sets is None:
        sets = {}
    (c1, canon1), (c2, canon2) = _context(w[d1 + 1 : d2], sets), _context(w[d2 + 1 :], sets)
    tp = PCTemplate(w[:h1], w[h1 + 1 : h2], w[h2 + 1 : d1], c1, c2)
    if canon1 and canon2:
        object.__setattr__(tp, "_tau", w)
    return tp


def _context(seg: Word, sets: dict) -> tuple[frozenset[Word], bool]:
    """The context set seg spells (empty words dropped) and whether seg is its canonical form."""
    if seg not in sets:
        c = frozenset(tuple(run) for is_amp, run in groupby(seg, AMP.__eq__) if not is_amp)
        sets[seg] = c, _joined(c) == seg
    return sets[seg]


@dataclass(frozen=True)
class CTGRSystem(System):
    kind = "ctgr"
    reserved = frozenset({HASH, DOLLAR, AMP})  # tau and parse_tau's separators

    def word(self, tp: PCTemplate) -> Word:
        return tau(tp)

    def __contains__(self, tp) -> bool:
        return isinstance(tp, PCTemplate) and super().__contains__(tp)

    def parts(self, tp: PCTemplate) -> Parts:
        return tp.e1, tp.body, tp.d1, tp.c1, tp.c2

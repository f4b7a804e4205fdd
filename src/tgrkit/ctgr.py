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
from itertools import groupby

from .errors import FormatError
from .tgr import Parts, System
from .words import Word, shortlex_key, word_text

HASH = "#"
DOLLAR = "$"
AMP = "&"


@dataclass(frozen=True)
class PCTemplate:
    e1: Word
    body: Word
    d1: Word
    c1: frozenset[Word]
    c2: frozenset[Word]

    def __post_init__(self):
        # Empty context words are vacuous; dropping them makes {} and {@} one value.
        # A frozenset that needs no dropping is kept, so templates share their sets.
        for name in ("c1", "c2"):
            c = getattr(self, name)
            if not isinstance(c, frozenset) or () in c:
                object.__setattr__(self, name, frozenset(w for w in c if w))


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


def _joined(c: frozenset[Word]) -> Word:
    """c's words in shortlex order, separated by "&"; fewer than two words need no sort."""
    if len(c) < 2:
        return next(iter(c), ())
    first, *rest = sorted(c, key=shortlex_key)
    return first + tuple(s for w in rest for s in (AMP, *w))


def parse_tau(w: Word, sets: dict | None = None) -> PCTemplate:
    """Parse a tau word back into a template; a canonical w becomes its tau word.

    Templates parsed with one `sets` dict share their context sets, as
    compiled ones do.  Assumes "#", "$" and "&" do not occur in the
    template's own symbols, which CTGRSystem enforces for its alphabet.
    """
    marks = [i for i, s in enumerate(w) if s == HASH or s == DOLLAR]
    if [w[i] for i in marks] != [HASH, HASH, DOLLAR, DOLLAR]:
        raise FormatError(f"not a tau word: {word_text(w)!r}")
    h1, h2, d1, d2 = marks
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

    def parts(self, tp: PCTemplate) -> Parts:
        return tp.e1, tp.body, tp.d1, tp.c1, tp.c2

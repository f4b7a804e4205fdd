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

from .errors import FormatError
from .tgr import Parts, System

# A plain template is a contextual one with empty deletion and permitting
# contexts, so both kinds share tgr's engine; closure_pc and recombine_pc are aliases.
from .tgr import closure as closure_pc
from .tgr import recombine as recombine_pc
from .words import Word, shortlex_key, word, word_text

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
    """Canonical word form: e1 # body # d1 $ c1-words $ c2-words.

    Context words are listed in shortlex order and separated by "&"; this
    makes equal templates have equal tau words.
    """
    out = list(tp.e1) + [HASH] + list(tp.body) + [HASH] + list(tp.d1) + [DOLLAR]
    for i, w in enumerate(sorted(tp.c1, key=shortlex_key)):
        if i:
            out.append(AMP)
        out.extend(w)
    out.append(DOLLAR)
    for i, w in enumerate(sorted(tp.c2, key=shortlex_key)):
        if i:
            out.append(AMP)
        out.extend(w)
    return tuple(out)


def parse_tau(w: Word) -> PCTemplate:
    """Parse a tau word back into a template.

    Assumes "#", "$" and "&" do not occur in the template's own symbols,
    which CTGRSystem enforces for its alphabet.
    """
    hashes = [i for i, s in enumerate(w) if s == HASH]
    dollars = [i for i, s in enumerate(w) if s == DOLLAR]
    if len(hashes) != 2 or len(dollars) != 2:
        raise FormatError(f"not a tau word: {word_text(w)!r}")
    h1, h2 = hashes
    d1, d2 = dollars
    if not h1 < h2 < d1 < d2:
        raise FormatError(f"not a tau word: {word_text(w)!r}")

    def split_words(seg: Word) -> frozenset[Word]:
        if not seg:
            return frozenset()
        parts: list[list[str]] = [[]]
        for s in seg:
            if s == AMP:
                parts.append([])
            else:
                parts[-1].append(s)
        return frozenset(tuple(p) for p in parts)

    return PCTemplate(
        e1=w[:h1],
        body=w[h1 + 1 : h2],
        d1=w[h2 + 1 : d1],
        c1=split_words(w[d1 + 1 : d2]),
        c2=split_words(w[d2 + 1 :]),
    )


def template_line(tp: PCTemplate) -> str:
    c1 = " ; ".join(word_text(w) for w in sorted(tp.c1, key=shortlex_key))
    c2 = " ; ".join(word_text(w) for w in sorted(tp.c2, key=shortlex_key))
    return (
        f"{word_text(tp.e1)} | {word_text(tp.body)} | {word_text(tp.d1)}"
        f" | C1: {c1} | C2: {c2}"
    )


def parse_template_line(line: str) -> PCTemplate:
    """Parse `e1 | body | d1 | C1: w1 ; w2 | C2: w1` with "@" for the empty word."""
    fields = [f.strip() for f in line.split("|")]
    if len(fields) != 5:
        raise FormatError(f"template line needs 5 '|'-separated fields: {line!r}")
    e1_t, body_t, d1_t, c1_t, c2_t = fields
    if not c1_t.startswith("C1:") or not c2_t.startswith("C2:"):
        raise FormatError(f"context fields must start with 'C1:' / 'C2:': {line!r}")

    def ctx(text: str) -> frozenset[Word]:
        text = text.partition(":")[2].strip()
        if not text:
            return frozenset()
        return frozenset(word(part) for part in text.split(";"))

    return PCTemplate(word(e1_t), word(body_t), word(d1_t), ctx(c1_t), ctx(c2_t))


def parse_template_file(text: str) -> tuple[PCTemplate, ...]:
    """Parse a template file: one template line each, "# " comments, blanks skipped."""
    templates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("# "):
            continue
        try:
            templates.append(parse_template_line(raw))
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno) from None
    return tuple(templates)


@dataclass(frozen=True)
class CTGRSystem(System):
    templates: tuple[PCTemplate, ...]

    def __post_init__(self):
        # tau and parse_tau use these as separators, so they cannot be symbols.
        reserved = self.alphabet & {HASH, DOLLAR, AMP}
        if reserved:
            raise ValueError(f"system alphabet contains tau separators: {sorted(reserved)}")
        # Canonical order plus dedup by tau, so iteration and dumps are stable.
        by_tau = {tau(tp): tp for tp in self.templates}
        object.__setattr__(
            self, "templates", tuple(by_tau[t] for t in sorted(by_tau, key=shortlex_key))
        )
        super().__post_init__()

    def parts(self, tp: PCTemplate) -> Parts:
        return tp.e1, tp.body, tp.d1, tp.c1, tp.c2


"""Writer and loader for the compiled-system dump format (both system kinds).

A dump is line-oriented: a header (kind, n1, n2, alphabet), then sections
BASE / TEMPLATES / FILTER / CODING / PROVENANCE, then END and nothing but
blank lines.  Words are in the core word format and in shortlex order, and
templates are their system's canonical words: tau words for contextual ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ctgr import CTGRSystem, parse_tau
from .errors import FormatError
from .grammars import Grammar
from .patterns import Pattern, parse_pattern, pattern_text
from .tgr import System, TGRSystem
from .words import FiniteLanguage, WeakCoding, Word, make_alphabet, sort_words, word, word_text

SECTIONS = ("BASE", "TEMPLATES", "FILTER", "CODING", "PROVENANCE")
SYSTEMS = {cls.kind: cls for cls in (TGRSystem, CTGRSystem)}


@dataclass(frozen=True)
class Compiled:
    """Either construction's output: a grammar's system, base, filter and weak coding."""

    grammar: Grammar
    system: System
    base: FiniteLanguage
    filter: Pattern
    coding: WeakCoding
    base_provenance: dict[Word, tuple[str, ...]]
    template_provenance: dict[Word, tuple[str, ...]]


# A dump read back names no grammar, and a hand-written one may omit FILTER and CODING.
@dataclass(frozen=True)
class LoadedDump:
    system: System
    base: FiniteLanguage
    filter: Pattern | None
    coding: WeakCoding | None


def dump_text(cr: Compiled) -> str:
    """The dump of a compiled pipeline; load_dump reads it back."""
    system = cr.system
    coding = sorted(cr.coding.mapping.items())
    lines = [
        f"tgrkit-dump {system.kind}",
        f"n1 {system.n1}",
        f"n2 {system.n2}",
        "alphabet " + " ".join(sorted(system.alphabet)),
        "BASE",
        *(word_text(w) for w in cr.base),
        "TEMPLATES",
        *(word_text(system.word(t)) for t in system.templates),
        "FILTER",
        pattern_text(cr.filter),
        "CODING",
        *(f"{sym} -> {'@' if image is None else image}" for sym, image in coding),
        "PROVENANCE",
    ]
    for label, prov in (("base", cr.base_provenance), ("template", cr.template_provenance)):
        lines.extend(f"{label} | {word_text(w)} | {' ; '.join(prov[w])}" for w in sort_words(prov))
    lines.append("END")
    return "\n".join(lines) + "\n"


def load_dump(text: str) -> LoadedDump:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("tgrkit-dump "):
        raise FormatError("not a tgrkit dump (missing 'tgrkit-dump' header)")
    kind = " ".join(lines[0].split()[1:])  # the header is the kind alone
    if kind not in SYSTEMS:
        raise FormatError(f"unknown dump kind {kind!r}")

    header: dict = {}  # n1, n2, alphabet: each given at most once
    section: str | None = None
    base_words: set[Word] = set()
    templates: list = []  # words, or templates parsed from tau words
    context_sets: dict = {}  # shared by this load's parse_tau calls
    filter_text: str | None = None
    coding_map: dict[str, str | None] = {}

    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        # "# " comments are honored only in the header: section bodies may
        # legitimately start with a "#" symbol (codings, tau words).
        if section is None and raw.startswith("# "):
            continue
        if section == "END":
            raise FormatError(f"unexpected line after END: {line!r}", line=lineno)
        if line in SECTIONS or line == "END":
            section = line
            continue
        if section is None:
            key, _, rest = line.partition(" ")
            if key in header:
                raise FormatError(f"repeated header line {key!r}", line=lineno)
            if key in ("n1", "n2"):
                if not rest.isdecimal() or int(rest) < 1:
                    msg = f"{key} must be a positive integer, got {rest!r}"
                    raise FormatError(msg, line=lineno)
                header[key] = int(rest)
            elif key == "alphabet":
                try:
                    header[key] = make_alphabet(rest.split())
                except FormatError as exc:
                    raise FormatError(str(exc), line=lineno) from None
            else:
                raise FormatError(f"unexpected header line {line!r}", line=lineno)
        elif section == "BASE":
            base_words.add(word(line))
        elif section == "TEMPLATES":
            try:
                w = word(line)
                templates.append(parse_tau(w, context_sets) if kind == "ctgr" else w)
            except FormatError as exc:
                raise FormatError(str(exc), line=lineno) from None
        elif section == "FILTER":
            if filter_text is not None:
                raise FormatError("FILTER holds one pattern line, found a second", line=lineno)
            filter_text = line
        elif section == "CODING":
            fields = line.split()
            if len(fields) != 3 or fields[1] != "->":
                msg = f"bad coding line {line!r}: expected 'sym -> image'"
                raise FormatError(msg, line=lineno)
            sym, _arrow, image = fields
            if sym in coding_map:
                raise FormatError(f"symbol {sym!r} is coded twice", line=lineno)
            if "alphabet" in header and sym not in header["alphabet"]:
                raise FormatError(f"coding symbol {sym!r} is outside the alphabet", line=lineno)
            coding_map[sym] = None if image == "@" else image
        elif section == "PROVENANCE":
            pass  # informational only

    alphabet = header.pop("alphabet", None)
    if alphabet is None:
        raise FormatError("dump is missing the 'alphabet' header line")
    if section != "END":
        raise FormatError("dump is cut off: no END line")
    return LoadedDump(
        system=SYSTEMS[kind](templates, alphabet, **header),
        base=FiniteLanguage(frozenset(base_words), alphabet),
        filter=parse_pattern(filter_text) if filter_text else None,
        coding=WeakCoding(coding_map) if coding_map else None,
    )

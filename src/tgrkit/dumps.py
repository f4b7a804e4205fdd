"""Writer and loader for the compiled-system dump format (both system kinds).

A dump is line-oriented: a header (kind, n1, n2, alphabet), then sections
BASE / TEMPLATES / FILTER / CODING / PROVENANCE and END, with words in the
core word format and shortlex ordering throughout.  Contextual templates
are written as their tau words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .ctgr import CTGRSystem, parse_tau, tau
from .errors import FormatError
from .patterns import Pattern, parse_pattern, pattern_text
from .tgr import System, TGRSystem
from .words import FiniteLanguage, WeakCoding, Word, make_alphabet, sort_words, word, word_text

if TYPE_CHECKING:
    from .recompile import CompiledRE
    from .regcompile import CompiledRegular

SECTIONS = ("BASE", "TEMPLATES", "FILTER", "CODING", "PROVENANCE")


@dataclass(frozen=True)
class LoadedDump:
    kind: str  # "tgr" | "ctgr"
    system: System
    base: FiniteLanguage
    filter: Pattern | None
    coding: WeakCoding | None


def dump_text(cr: CompiledRegular | CompiledRE) -> str:
    """The dump of a compiled pipeline; load_dump reads it back."""
    system = cr.system
    if isinstance(system, TGRSystem):
        kind, templates = "tgr", list(system.templates)
    else:
        kind, templates = "ctgr", [tau(tp) for tp in system.templates]
    coding = sorted(cr.coding.mapping.items())
    lines = [
        f"tgrkit-dump {kind}",
        f"n1 {system.n1}",
        f"n2 {system.n2}",
        "alphabet " + " ".join(sorted(system.alphabet)),
        "BASE",
        *(word_text(w) for w in cr.base),
        "TEMPLATES",
        *(word_text(w) for w in templates),
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
    if kind not in ("tgr", "ctgr"):
        raise FormatError(f"unknown dump kind {kind!r}")

    minima = {"n1": 1, "n2": 1}
    alphabet: frozenset[str] | None = None
    section: str | None = None
    base_words: set[Word] = set()
    template_words: set[Word] = set()
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
        if line == "END":
            break
        if line in SECTIONS:
            section = line
            continue
        if section is None:
            key, _, rest = line.partition(" ")
            if key in minima:
                if not rest.isdecimal() or int(rest) < 1:
                    msg = f"{key} must be a positive integer, got {rest!r}"
                    raise FormatError(msg, line=lineno)
                minima[key] = int(rest)
            elif key == "alphabet":
                alphabet = make_alphabet(rest.split())
            else:
                raise FormatError(f"unexpected header line {line!r}", line=lineno)
        elif section == "BASE":
            base_words.add(word(line))
        elif section == "TEMPLATES":
            template_words.add(word(line))
        elif section == "FILTER":
            filter_text = line
        elif section == "CODING":
            fields = line.split()
            if len(fields) != 3 or fields[1] != "->":
                msg = f"bad coding line {line!r}: expected 'sym -> image'"
                raise FormatError(msg, line=lineno)
            sym, _arrow, image = fields
            coding_map[sym] = None if image == "@" else image
        elif section == "PROVENANCE":
            pass  # informational only

    if alphabet is None:
        raise FormatError("dump is missing the 'alphabet' header line")

    system: System
    if kind == "tgr":
        system = TGRSystem(
            templates=FiniteLanguage(frozenset(template_words), alphabet),
            alphabet=alphabet,
            **minima,
        )
    else:
        tps = tuple(parse_tau(w) for w in sorted(template_words))
        system = CTGRSystem(templates=tps, alphabet=alphabet, **minima)

    return LoadedDump(
        kind=kind,
        system=system,
        base=FiniteLanguage(frozenset(base_words), alphabet),
        filter=parse_pattern(filter_text) if filter_text else None,
        coding=WeakCoding(coding_map) if coding_map else None,
    )

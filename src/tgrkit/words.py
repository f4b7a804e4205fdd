"""Symbols, words, finite languages and weak codings.

A symbol is a nonempty whitespace-free token compared by exact equality;
"#", "$" and "&" are ordinary tokens.  A word is a tuple of symbols; the
empty word is spelled "@" in text form, so "@" is no symbol.  All values
here are immutable and all operations are pure, so everything is safe to
share between callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping

from .errors import CodingDomainError, FormatError

Word = tuple[str, ...]
Alphabet = frozenset[str]

EMPTY_WORD_TEXT = "@"


def check_symbol(token: str) -> str:
    if not token or any(ch.isspace() for ch in token):
        raise FormatError(f"bad symbol token {token!r}: must be nonempty and whitespace-free")
    if token == EMPTY_WORD_TEXT:
        raise FormatError(f"bad symbol token {token!r}: it spells the empty word")
    return token


def make_alphabet(tokens: Iterable[str]) -> Alphabet:
    return frozenset(check_symbol(t) for t in tokens)


def word(text: str) -> Word:
    """Parse a word from space-separated tokens; "@" is the empty word."""
    text = text.strip()
    if text == EMPTY_WORD_TEXT:
        return ()
    if not text:
        raise FormatError(f"blank word text: the empty word is spelled {EMPTY_WORD_TEXT!r}")
    return tuple(text.split())  # split tokens are nonempty and whitespace-free


def word_text(w: Word) -> str:
    return " ".join(w) if w else EMPTY_WORD_TEXT


def shortlex_key(w: Word) -> tuple[int, Word]:
    return (len(w), w)


def sort_words(words: Iterable[Word]) -> list[Word]:
    """Shortlex order: a stable sort by length after a plain sort needs no key per word."""
    return sorted(sorted(words), key=len)


def occurrences(needle: Word, hay: Word) -> list[int]:
    """All start offsets of `needle` in `hay`, overlapping occurrences included."""
    n = len(needle)
    return [i for i in range(len(hay) - n + 1) if hay[i : i + n] == needle]


@dataclass(frozen=True)
class FiniteLanguage:
    """A finite set of words over a declared alphabet.

    Iteration is in shortlex order (length, then token-wise lexicographic),
    so serialized output is deterministic for equal sets.
    """

    words: frozenset[Word]
    alphabet: Alphabet

    def __post_init__(self):
        for sym in self.alphabet:  # each symbol must read back from text as itself
            check_symbol(sym)
        if self.alphabet.issuperset(chain.from_iterable(self.words)):
            return
        for w in self.words:  # name the first bad word and symbol
            for sym in w:
                if sym not in self.alphabet:
                    raise FormatError(
                        f"word {word_text(w)!r} uses symbol {sym!r} outside the alphabet"
                    )

    def __iter__(self) -> Iterator[Word]:
        return iter(sort_words(self.words))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: Word) -> bool:
        return w in self.words

    def to_text(self) -> str:
        """One word per line; refuses words whose first token is "#".

        A line beginning "# " reads back as a comment, so such words cannot
        round-trip through the file format.
        """
        lines = []
        for w in self:
            if w and w[0] == "#":
                raise FormatError(
                    f"word {word_text(w)!r} starts with '#' and cannot be written unambiguously"
                )
            lines.append(word_text(w))
        return "\n".join(lines) + ("\n" if lines else "")


def parse_language(text: str, alphabet: Iterable[str] | None = None) -> FiniteLanguage:
    """Parse a language file: one word per line, "# "-prefixed comment lines.

    A bare "#" token inside a word line is an ordinary symbol; only an
    initial "# " marks a comment.  Blank lines are skipped.  When `alphabet`
    is None it is inferred from the words.
    """
    words = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("# "):
            continue
        try:
            words.add(word(raw))
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno) from None
    if alphabet is None:
        alphabet = {sym for w in words for sym in w}
    return FiniteLanguage(frozenset(words), make_alphabet(alphabet))


@dataclass(frozen=True)
class WeakCoding:
    """A total letter-to-letter-or-empty map, extended homomorphically to words.

    `mapping` sends every domain symbol to a symbol or to None (erase).
    """

    mapping: Mapping[str, str | None]

    def apply(self, w: Word) -> Word:
        out = []
        for sym in w:
            if sym not in self.mapping:
                raise CodingDomainError(sym)
            image = self.mapping[sym]
            if image is not None:
                out.append(image)
        return tuple(out)

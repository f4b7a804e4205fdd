"""Compile a Kuroda grammar into a contextual recombination pipeline.

The compiled system encodes a sentential form s as X w Y where the content
w is a circular arrangement of B B1 B2 followed by s; B marks where the
form begins.  Six template groups drive it: group 1 rewrites a rule redex
sitting at the right end, groups 2-5 rotate the last content symbol to the
front (so any redex can be brought to the right end: rotate-and-simulate),
and group 6 strips the markers once the content sits in original order,
leaving (terminal word) Y.  Filtering on (terminals)* Y and erasing Y then
yields the grammar's words.

The terminate group's left deletion context must run one symbol past the
block (X B B1 B2 a, with body a b c): the relation keeps alpha from the
partner word a b Z', so a context stopping at B2 would prepend one free
symbol to every output, producing junk instead of the content.  Consuming
the duplicated symbol from y makes termination emit exactly content Y.
The third body symbol also ranges over Y so that length-2 terminal words
can terminate; length-0/1 terminal words have no valid termination at all,
which the tracer reports explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .ctgr import CTGRSystem, PCTemplate, tau
from .dumps import Compiled
from .errors import FormatError, TraceError
from .grammars import KurodaGrammar, Rule, Verdict, derivation_steps, membership
from .patterns import matches, seq, star, symbol_class  # matches: a benchmark seam
from .tgr import RecombinationEvent
from .words import FiniteLanguage, WeakCoding, Word, sort_words, word_text
# The benchmark times the contextual kind through these three names, looked up in this module.
from .dumps import dump_text as dump_compiled_re
from .tgr import closure as closure_pc, recombine as recombine_pc

X = "X"
XP = "X'"
Y = "Y"
Z = "Z"
ZP = "Z'"
B = "B"
B1 = "B1"
B2 = "B2"
BLOCK: Word = (B, B1, B2)
FIXED_MARKERS = frozenset({X, XP, Y, Z, ZP, B, B1, B2})

FREE: frozenset[Word] = frozenset()
NEEDS_X = frozenset({(X,)})
NEEDS_XP = frozenset({(XP,)})
NEEDS_Y = frozenset({(Y,)})

# A derivation file is user input: its replay stops after this many events.
MAX_TRACE_EVENTS = 10_000


def rotating_marker(b: str) -> str:
    """The Y-variant that remembers the symbol currently being rotated."""
    return f"Y_{b}"


@lru_cache(maxsize=1)  # _groups makes each b's templates in a row, so one entry is enough
def _needs_rotating(b: str) -> frozenset[Word]:
    return frozenset({(rotating_marker(b),)})  # one set per b: rotate-2 templates share it


def rotatable(g: KurodaGrammar) -> frozenset[str]:
    """U, the symbols the content of X ... Y holds: g's symbols and the block B B1 B2."""
    return g.nonterminals | g.terminals | frozenset(BLOCK)


def simulate_template(rule: Rule, c: str, a: str) -> PCTemplate:
    """Group 1: rewrite the redex lhs sitting just before Y into rhs."""
    return PCTemplate((Z,), (c, a) + rule.rhs + (Y,), rule.lhs + (Y,), NEEDS_X, FREE)


def rotate1_template(b: str, c: str, a: str) -> PCTemplate:
    """Group 2: cut the last content symbol b off, remembering it in Y_b."""
    return PCTemplate((Z,), (c, a, rotating_marker(b)), (b, Y), NEEDS_X, FREE)


def rotate2_template(b: str, d: str, e: str) -> PCTemplate:
    """Group 3: prepend the remembered b, turning X into X'."""
    return PCTemplate((X,), (XP, b, d, e), (Z,), FREE, _needs_rotating(b))


def rotate3_template(b: str, c: str, a: str) -> PCTemplate:
    """Group 4: turn Y_b back into Y."""
    return PCTemplate((Z,), (c, a, Y), (rotating_marker(b),), NEEDS_XP, FREE)


def rotate4_template(a: str, c: str) -> PCTemplate:
    """Group 5: turn X' back into X."""
    return PCTemplate((XP,), (X, a, c), (Z,), FREE, NEEDS_Y)


def terminate_template(a: str, b: str, c: str) -> PCTemplate:
    """Group 6: strip X and the block once the content is in original order."""
    return PCTemplate((X, B, B1, B2, a), (a, b, c), (ZP,), FREE, NEEDS_Y)


def partner(tp: PCTemplate) -> Word:
    """The base word a group template recombines with the sentential form.

    A template with a c1 context takes the form as x, so its partner is the
    y `e1 + body[1:]`; otherwise it takes the form as y, and its partner is
    the x `body[:-1] + d1`.
    """
    return tp.e1 + tp.body[1:] if tp.c1 else tp.body[:-1] + tp.d1


def _groups(g: KurodaGrammar, u: list[str]) -> Iterator[tuple[PCTemplate, str, str]]:
    """Every group template with its label and its partner's base label."""
    for r in g.rules:
        for a in u:
            for c in u:
                yield simulate_template(r, c, a), f"simulate {r.text()}", f"L2 {r.text()}"
    for b in u:
        for a in u:
            for c in u:
                yield rotate1_template(b, c, a), f"rotate-1 move {b}", "L3 rotate-1 partner"
                yield rotate2_template(b, a, c), f"rotate-2 prepend {b}", "L4 rotate-2 partner"
                yield (rotate3_template(b, c, a), f"rotate-3 restore after {b}",
                       "L5 rotate-3 partner")
    for a in u:
        for c in u:
            yield rotate4_template(a, c), "rotate-4 restore left marker", "L6 rotate-4 partner"
        for b in u:
            for c in u + [Y]:
                yield terminate_template(a, b, c), "terminate", "L7 terminate partner"


def compile_kuroda(g: KurodaGrammar) -> Compiled:
    """Build the contextual system, base language, filter and coding for g."""
    symbols = g.nonterminals | g.terminals
    u = rotatable(g)
    clashes = symbols & (FIXED_MARKERS | CTGRSystem.reserved | {rotating_marker(b) for b in u})
    if clashes:
        raise FormatError(
            f"grammar symbols clash with reserved marker tokens: {sorted(clashes)}"
        )
    v = u | {X, XP, Y, Z, ZP} | {rotating_marker(b) for b in u}

    templates: list[PCTemplate] = []  # CTGRSystem drops duplicates
    tmpl_prov: dict[Word, set[str]] = {}
    base_prov: dict[Word, set[str]] = {(X,) + BLOCK + (g.start, Y): {"L1 start"}}
    for tp, label, base_label in _groups(g, sorted(u)):
        templates.append(tp)
        tmpl_prov.setdefault(tau(tp), set()).add(label)
        base_prov.setdefault(partner(tp), set()).add(base_label)

    system = CTGRSystem(templates=tuple(templates), alphabet=frozenset(v), n1=1, n2=1)
    base = FiniteLanguage(frozenset(base_prov), frozenset(v))
    filter_pattern = seq(star(symbol_class(g.terminals)), symbol_class({Y}))
    coding = WeakCoding({**{a: a for a in g.terminals}, Y: None})
    return Compiled(
        grammar=g,
        system=system,
        base=base,
        filter=filter_pattern,
        coding=coding,
        base_provenance={w: tuple(sorted(v_)) for w, v_ in base_prov.items()},
        template_provenance={w: tuple(sorted(v_)) for w, v_ in tmpl_prov.items()},
    )


def start_word(cr: Compiled) -> Word:
    return (X,) + BLOCK + (cr.grammar.start, Y)


@dataclass(frozen=True)
class TraceEvent:
    phase: str
    event: RecombinationEvent


@dataclass(frozen=True)
class SimulationTrace:
    events: tuple[TraceEvent, ...]
    final_word: Word


def _fire(cr: Compiled, phase: str, tp: PCTemplate, form: Word, expected: Word) -> TraceEvent:
    """Re-derive the event of tp on the sentential form and its partner; never fabricate one."""
    if tp not in cr.system.template_set:
        raise TraceError(f"{phase}: required template {word_text(tau(tp))!r} is not in the system")
    x, y = (form, partner(tp)) if tp.c1 else (partner(tp), form)
    hits = [ev for ev in recombine_pc(cr.system, x, y, tp) if ev.w == expected]
    if not hits:
        raise TraceError(
            f"{phase}: engine produced no event ({word_text(x)!r}, {word_text(y)!r}) "
            f"-> {word_text(expected)!r}"
        )
    return TraceEvent(phase, min(hits, key=lambda e: (e.pos_x, e.pos_y, len(e.beta), len(e.alpha))))


def rotate_cycle(cr: Compiled, w: Word) -> tuple[list[TraceEvent], Word]:
    """One full rotation X w b Y -> X b w Y via the four rotation groups."""
    if len(w) < 2 or w[0] != X or w[-1] != Y:
        raise TraceError(f"not a rotatable word: {word_text(w)!r}")
    content = w[1:-1]
    if len(content) < 3:
        raise TraceError(f"content too short to rotate: {word_text(w)!r}")
    u = rotatable(cr.grammar)
    for sym in content:
        if sym not in u:
            raise TraceError(f"content symbol {sym!r} is not rotatable")
    b, rest = content[-1], content[:-1]
    yb = rotating_marker(b)
    rows = (
        ("rotate-1", rotate1_template(b, rest[-2], rest[-1]), (X,) + rest + (yb,)),
        ("rotate-2", rotate2_template(b, rest[0], rest[1]), (XP, b) + rest + (yb,)),
        ("rotate-3", rotate3_template(b, rest[-2], rest[-1]), (XP, b) + rest + (Y,)),
        ("rotate-4", rotate4_template(b, rest[0]), (X, b) + rest + (Y,)),
    )
    events = []
    for phase, tp, expected in rows:
        events.append(_fire(cr, phase, tp, w, expected))
        w = expected
    return events, w


def simulate_derivation(
    cr: Compiled, derivation: list[Word] | tuple[Word, ...]
) -> SimulationTrace:
    """Replay a grammar derivation as a validated recombination trace.

    Each grammar step is realized as the rotations that bring its redex to
    the right end followed by one simulate event; after the last step the
    content is rotated into original order and terminated.  Every event is
    re-derived through recombine_pc.  Raises TraceError when the derivation
    is invalid, when the event budget runs out, or when the terminal word is
    too short to terminate (fewer than 2 symbols).
    """
    g = cr.grammar
    derivation = tuple(derivation)
    if not derivation or derivation[0] != (g.start,):
        raise TraceError("derivation must start at the start symbol")
    terminal_word = derivation[-1]
    if any(s not in g.terminals for s in terminal_word):
        raise TraceError("derivation must end in a terminal word")
    try:
        steps = derivation_steps(g, derivation)
    except FormatError as exc:
        raise TraceError(f"invalid derivation: {exc}") from None

    events: list[TraceEvent] = []
    current = start_word(cr)

    def budget() -> None:
        if len(events) > MAX_TRACE_EVENTS:
            raise TraceError(f"trace exceeded the event budget of {MAX_TRACE_EVENTS}")

    def rotate_to(target_content: Word) -> None:
        # derivation_steps has checked every step, so the content and each
        # target are rotations of BLOCK plus the current form: some d matches.
        nonlocal current
        content = current[1:-1]
        m = len(content)
        d = next(i for i in range(m) if content[m - i :] + content[: m - i] == target_content)
        for _ in range(d):
            cycle, current = rotate_cycle(cr, current)
            events.extend(cycle)
            budget()

    for (rule, pos), form in zip(steps, derivation):
        n = len(rule.lhs)
        rotate_to(form[pos + n :] + BLOCK + form[:pos] + rule.lhs)
        content = current[1:-1]
        c, a = content[-n - 2 : -n]
        expected = (X,) + content[:-n] + rule.rhs + (Y,)
        events.append(_fire(cr, "simulate", simulate_template(rule, c, a), current, expected))
        current = expected
        budget()

    rotate_to(BLOCK + terminal_word)
    if len(terminal_word) < 2:
        raise TraceError(
            f"cannot terminate {word_text(terminal_word)!r}: the terminate group needs at "
            "least two terminal symbols, so words shorter than 2 are out of its reach"
        )
    t1, t2 = terminal_word[0], terminal_word[1]
    c3 = terminal_word[2] if len(terminal_word) >= 3 else Y
    final = terminal_word + (Y,)
    events.append(_fire(cr, "terminate", terminate_template(t1, t2, c3), current, final))
    return SimulationTrace(events=tuple(events), final_word=final)


def pipeline_language_pc(
    cr: Compiled,
    k: int,
    max_len: int,
    max_rounds: int,
    max_set_size: int = 1_000_000,
) -> tuple[FiniteLanguage, bool]:
    """Evaluate the pipeline: bounded closure, filter, coding, cut to length <= k.

    The boolean reports only whether the bounded closure reached its
    fixpoint; the construction targets arbitrary recursively enumerable
    languages, so no cap ever makes the output complete in general.
    """
    if k < 0:
        raise ValueError(f"length bound must be nonnegative, got {k}")
    res = closure_pc(cr.system, cr.base, max_len, max_rounds, max_set_size)
    out = frozenset(w for w in res.coded(cr.filter, cr.coding) if len(w) <= k)
    return FiniteLanguage(out, cr.grammar.terminals), res.reached_fixpoint


@dataclass(frozen=True)
class SoundnessReport:
    produced: tuple[Word, ...]
    non_members: tuple[Word, ...]
    unknowns: tuple[Word, ...]

    @property
    def verdict(self) -> str:
        if self.non_members:
            return "unsound"
        return "inconclusive" if self.unknowns else "sound"


def soundness_check(
    cr: Compiled,
    k: int,
    max_len: int,
    max_rounds: int,
    max_set_size: int = 1_000_000,
) -> SoundnessReport:
    """Check every pipeline word against the grammar membership oracle.

    Non-members expose a construction bug; unknowns are oracle cap limits.
    """
    produced, _ = pipeline_language_pc(cr, k, max_len, max_rounds, max_set_size)
    non_members = []
    unknowns = []
    for w in produced:
        verdict = membership(cr.grammar, w)
        if verdict.verdict is Verdict.NON_MEMBER:
            non_members.append(w)
        elif verdict.verdict is Verdict.UNKNOWN:
            unknowns.append(w)
    return SoundnessReport(
        produced=tuple(produced),
        non_members=tuple(sort_words(non_members)),
        unknowns=tuple(sort_words(unknowns)),
    )


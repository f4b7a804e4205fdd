"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 6 runs at the round depth of the construction's own
witness for "ab": each closure round extends an event chain by at most one
event, so the cap is the length of the traced AB_DERIVATION (24 events,
pinned by test_recompile.py::test_pipeline_minimal_round_for_ab_matches_trace_length).
"""

from __future__ import annotations

import random
import time
import warnings

import pytest

from tgrkit import (
    CTGRSystem,
    FiniteLanguage,
    PCTemplate,
    TGRSystem,
    closure,
    compile_kuroda,
    compile_regular,
    complexity_report,
    equiv_check,
    pipeline_language_pc,
    recombine,
    recombine_pc,
    simulate_derivation,
    soundness_check,
    step,
    word,
)
from tgrkit.recompile import X, Y
from tgrkit.tgr import InertTemplateWarning
from tgrkit.words import make_alphabet

from conftest import load_grammar
from test_regcompile import CORPUS, random_regular_grammar
from test_recompile import AB_DERIVATION, AABB_DERIVATION


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def quiet_tgr(templates, alphabet, n1=1, n2=1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InertTemplateWarning)
        return TGRSystem(
            templates=FiniteLanguage(frozenset(templates), alphabet),
            alphabet=alphabet,
            n1=n1,
            n2=n2,
        )


def quiet_ctgr(templates, alphabet, n1=1, n2=1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InertTemplateWarning)
        return CTGRSystem(templates=tuple(templates), alphabet=alphabet, n1=n1, n2=n2)


def test_criterion_1_regular_construction_equivalence():
    failures = []
    for name in CORPUS:
        g = load_grammar(name)
        started = time.monotonic()
        rep = equiv_check(compile_regular(g), g, k=8, max_len=19, max_rounds=256)
        elapsed = time.monotonic() - started
        if rep.verdict != "pass" or not rep.exhaustive or elapsed >= 60:
            failures.append((name, rep.verdict, rep.missing, rep.extra, f"{elapsed:.1f}s"))
    report(
        1,
        "regular construction equivalence",
        not failures,
        f"{len(CORPUS)} grammars, k=8, exact set equality" if not failures else str(failures),
    )


def test_criterion_2_descriptional_complexity_bounds():
    rng = random.Random(20_240_817)
    grammars = [load_grammar(name) for name in CORPUS]
    grammars += [random_regular_grammar(rng) for _ in range(100)]
    bad = []
    for g in grammars:
        rep = complexity_report(compile_regular(g), g)
        n = rep.rule_count
        if rep.template_count > n * n or rep.cubic_bound != n**3:
            bad.append(g)
        if rep.alphabet_size != len(g.nonterminals) + len(g.terminals) + 1:
            bad.append(g)
    report(
        2,
        "descriptional complexity bounds",
        not bad,
        f"{len(grammars)} grammars: templates <= rules^2, alphabet = |N|+|Sigma|+1",
    )


def test_criterion_3_reduction_to_plain_recombination():
    rng = random.Random(361)
    syms = make_alphabet(["a", "b", "c"])
    started = time.monotonic()
    mismatches = 0
    for _ in range(200):
        x = tuple(rng.choices(sorted(syms), k=rng.randint(0, 6)))
        y = tuple(rng.choices(sorted(syms), k=rng.randint(0, 6)))
        t = tuple(rng.choices(sorted(syms), k=rng.randint(1, 5)))
        plain = quiet_tgr({t}, syms)
        tp = PCTemplate((), t, (), frozenset({()}), frozenset({()}))
        ctx = quiet_ctgr([tp], syms)
        plain_words = {e.w for e in recombine(plain, x, y, t)}
        pc_words = {e.w for e in recombine_pc(ctx, x, y, tp)}
        if plain_words != pc_words:
            mismatches += 1
    elapsed = time.monotonic() - started
    report(
        3,
        "contextual reduction to plain recombination",
        mismatches == 0 and elapsed < 10,
        f"200 instances, {elapsed:.1f}s",
    )


def naive_step(words, templates, n1, n2):
    out = set()
    for x in words:
        for y in words:
            for t in templates:
                for i in range(len(t) + 1):
                    for j in range(i, len(t) + 1):
                        alpha, beta, gamma = t[:i], t[i:j], t[j:]
                        if len(alpha) < n1 or len(gamma) < n1 or len(beta) < n2:
                            continue
                        ab, bg = alpha + beta, beta + gamma
                        for ox in range(len(x) - len(ab) + 1):
                            if x[ox : ox + len(ab)] != ab:
                                continue
                            for oy in range(len(y) - len(bg) + 1):
                                if y[oy : oy + len(bg)] != bg:
                                    continue
                                out.add(x[: ox + len(ab)] + gamma + y[oy + len(bg) :])
    return out


def test_criterion_4_step_operator_oracle_equivalence():
    rng = random.Random(40_404)
    syms = make_alphabet(["a", "b", "c"])
    bad = 0
    for _ in range(100):
        words = {
            tuple(rng.choices(sorted(syms), k=rng.randint(0, 6)))
            for _ in range(rng.randint(1, 4))
        }
        templates = {
            tuple(rng.choices(sorted(syms), k=rng.randint(1, 5)))
            for _ in range(rng.randint(0, 3))
        }
        language = FiniteLanguage(frozenset(words), syms)
        expect = naive_step(words, templates, 1, 1)
        got_plain = step(quiet_tgr(templates, syms), language)
        pcs = [PCTemplate((), t, (), frozenset(), frozenset()) for t in templates]
        got_pc = step(quiet_ctgr(pcs, syms), language)
        if got_plain.words != frozenset(expect) or got_pc.words != frozenset(expect):
            bad += 1
    report(4, "step operator oracle equivalence", bad == 0, "100 instances, plain and contextual")


def test_criterion_5_rotate_and_simulate_replay():
    started = time.monotonic()
    cr = compile_kuroda(load_grammar("anbn.kuroda"))
    problems = []
    for deriv in (AB_DERIVATION, AABB_DERIVATION):
        trace = simulate_derivation(cr, deriv)
        if cr.coding.apply(trace.final_word) != deriv[-1]:
            problems.append(("decode", deriv[-1]))
        for te in trace.events:
            ev = te.event
            if ev not in recombine_pc(cr.system, ev.x, ev.y, ev.template):
                problems.append(("revalidate", te.phase))
        # every complete rotation cycle round-trips X w b Y -> X b w Y
        cycle = []
        for te in trace.events:
            if te.phase.startswith("rotate"):
                cycle.append(te)
                if len(cycle) == 4:
                    before, after = cycle[0].event.x, cycle[3].event.w
                    inner = before[1:-1]
                    if after != (X, inner[-1]) + inner[:-1] + (Y,):
                        problems.append(("round-trip", before))
                    cycle = []
            elif cycle:
                problems.append(("cycle interrupted", te.phase))
                cycle = []
    # the length-1-terminal limitation must surface loudly, not pass vacuously
    short = compile_kuroda(load_grammar("single_a.kuroda"))
    try:
        simulate_derivation(short, [word("S"), word("a")])
        problems.append(("short terminal word not reported", "single_a"))
    except Exception as exc:
        if "terminate" not in str(exc):
            problems.append(("unclear short-word report", str(exc)))
    elapsed = time.monotonic() - started
    report(
        5,
        "rotate-and-simulate replay",
        not problems and elapsed < 60,
        f"ab and aabb traces, {elapsed:.1f}s" if not problems else str(problems),
    )


def test_criterion_6_re_construction_soundness():
    g = load_grammar("anbn.kuroda")
    cr = compile_kuroda(g)
    # a closure round adds at most one event to a chain, so "ab" first
    # appears at the round equal to its shortest witness chain
    depth = len(simulate_derivation(cr, AB_DERIVATION).events)
    rep = soundness_check(cr, g, k=4, max_len=16, max_rounds=depth)
    sound = rep.verdict == "sound"
    includes_ab = word("a b") in rep.produced
    detail = (
        f"produced={len(rep.produced)} non-members={len(rep.non_members)} "
        f"ab-included={includes_ab} at max_rounds={depth}, "
        "the event count of the traced 'ab' witness"
    )
    report(6, "re-construction soundness at witness depth", sound and includes_ab, detail)


def test_criterion_7_engine_invariant_suite():
    rng = random.Random(70_707)
    syms = make_alphabet(["a", "b", "c"])
    failures = []

    # template-factor invariant and length bound, over random events
    events_seen = 0
    while events_seen < 100:
        x = tuple(rng.choices(sorted(syms), k=rng.randint(1, 6)))
        y = tuple(rng.choices(sorted(syms), k=rng.randint(1, 6)))
        t = tuple(rng.choices(sorted(syms), k=rng.randint(3, 5)))
        sys_ = quiet_tgr({t}, syms)
        for ev in recombine(sys_, x, y, t):
            events_seen += 1
            if not any(ev.w[i : i + len(t)] == t for i in range(len(ev.w) - len(t) + 1)):
                failures.append(("template-factor", ev))
            if len(ev.w) > len(ev.x) + len(ev.y) - sys_.n2:
                failures.append(("length-bound", ev))

    # closure monotonicity in rounds, on random small systems
    for _ in range(100):
        templates = {tuple(rng.choices(sorted(syms), k=3)) for _ in range(rng.randint(1, 2))}
        start_words = {
            tuple(rng.choices(sorted(syms), k=rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3))
        }
        sys_ = quiet_tgr(templates, syms)
        language = FiniteLanguage(frozenset(start_words), syms)
        prev = frozenset(start_words)
        for rounds in (1, 2, 3):
            res = closure(sys_, language, max_len=8, max_rounds=rounds)
            if not prev <= res.language.words:
                failures.append(("closure-monotonicity", templates, start_words))
            prev = res.language.words

    # set determinism: byte-identical serialized closure across runs
    for _ in range(100):
        templates = {tuple(rng.choices(sorted(syms), k=3)) for _ in range(2)}
        start_words = {tuple(rng.choices(sorted(syms), k=3)) for _ in range(3)}
        sys_ = quiet_tgr(templates, syms)
        l1 = FiniteLanguage(frozenset(start_words), syms)
        l2 = FiniteLanguage(frozenset(sorted(start_words, reverse=True)), syms)
        a = closure(sys_, l1, max_len=7, max_rounds=4).language.to_text()
        b = closure(sys_, l2, max_len=7, max_rounds=4).language.to_text()
        if a.encode() != b.encode():
            failures.append(("determinism", templates))

    # anti-monotonicity of permitting contexts
    for _ in range(100):
        x = tuple(rng.choices(sorted(syms), k=rng.randint(1, 6)))
        y = tuple(rng.choices(sorted(syms), k=rng.randint(1, 6)))
        t = tuple(rng.choices(sorted(syms), k=3))
        ctx1 = frozenset({tuple(rng.choices(sorted(syms), k=rng.randint(1, 2)))})
        loose = PCTemplate((), t, (), frozenset(), frozenset())
        tighter = PCTemplate((), t, (), ctx1, frozenset())
        tightest = PCTemplate((), t, (), ctx1 | {tuple(rng.choices(sorted(syms), k=2))}, frozenset())
        sys_ = quiet_ctgr([loose, tighter, tightest], syms)
        wl = {e.w for e in recombine_pc(sys_, x, y, loose)}
        wm = {e.w for e in recombine_pc(sys_, x, y, tighter)}
        ws = {e.w for e in recombine_pc(sys_, x, y, tightest)}
        if not (ws <= wm <= wl):
            failures.append(("context-anti-monotonicity", x, y, t))

    report(
        7,
        "engine invariant suite",
        not failures,
        "template-factor, length bound, monotone closure, determinism, context anti-monotonicity",
    )

"""Command-line interface.

One binary, five subcommands: compile, closure, check, trace, report.
Exit codes: 0 ok/pass, 1 fail/not-found, 2 usage or I/O error,
3 inconclusive (caps too small to decide).  All caps are flags - there is
no environment-variable configuration - and machine-readable output echoes
the caps so results are reproducible.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .dumps import dump_text, load_dump
from .errors import ResourceLimitError, TgrkitError, TraceError
from .grammars import Grammar, KurodaGrammar, RegularGrammar, parse_grammar
from .recompile import compile_kuroda, simulate_derivation, soundness_check
from .regcompile import compile_regular, complexity_report, equiv_check
from .tgr import RecombinationEvent, System, closure, derivation_trace
# The benchmark attributes closures over contextual dumps by this name.
from .tgr import closure as closure_pc
from .words import parse_language, word, word_text

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
# The exit code of each verdict `check` can reach, for both grammar kinds.
VERDICT_EXIT = {"pass": EXIT_OK, "sound": EXIT_OK, "fail": EXIT_FAIL, "unsound": EXIT_FAIL,
                "inconclusive": EXIT_INCONCLUSIVE}


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_grammar(path: str, cls: type[Grammar]) -> Grammar:
    g = parse_grammar(_read(path))
    if not isinstance(g, cls):
        raise TgrkitError(f"{path}: expected a {cls.kind} grammar, found {g.kind}")
    return g


def _caps_lines(args) -> list[str]:
    caps = ("k", "max_len", "max_rounds", "max_set_size")  # only check has k
    return [f"{cap.replace('_', '-')} {getattr(args, cap)}" for cap in caps if hasattr(args, cap)]


def cmd_compile(args) -> int:
    if args.kind == "reg":
        cr = compile_regular(_load_grammar(args.grammar, RegularGrammar))
    else:
        cr = compile_kuroda(_load_grammar(args.grammar, KurodaGrammar))
    _emit(args, dump_text(cr))
    return EXIT_OK


def cmd_closure(args) -> int:
    loaded = load_dump(_read(args.dump))
    base = loaded.base
    if args.base:
        base = parse_language(_read(args.base), loaded.system.alphabet)
    run = closure if loaded.system.kind == "tgr" else closure_pc
    result = run(loaded.system, base, args.max_len, args.max_rounds, args.max_set_size)
    if args.format == "lines":
        out = _caps_lines(args)
        out += [
            f"rounds {result.rounds_used}",
            f"fixpoint {str(result.reached_fixpoint).lower()}",
            f"truncated {str(result.truncated_by_length).lower()}",
        ]
        out += [f"word {word_text(w)}" for w in result.language]
    else:
        out = [
            f"closure of {len(base)} base word(s): {len(result.language)} words, "
            f"rounds: {result.rounds_used}, fixpoint: {result.reached_fixpoint}, "
            f"truncated: {result.truncated_by_length}"
        ]
        out += ["  " + word_text(w) for w in result.language]
    _emit(args, "\n".join(out) + "\n")
    return EXIT_OK


def cmd_check(args) -> int:
    caps = dict(max_len=args.max_len, max_rounds=args.max_rounds, max_set_size=args.max_set_size)
    if args.kind == "reg":
        cr = compile_regular(_load_grammar(args.grammar, RegularGrammar))
        report = equiv_check(cr, args.k, **caps)
        groups = {"missing": report.missing, "extra": report.extra}
        listed = tuple(groups)  # the groups the human format lists
        summary = f"pipeline vs grammar enumeration up to length {args.k}"
    else:
        cr = compile_kuroda(_load_grammar(args.grammar, KurodaGrammar))
        report = soundness_check(cr, args.k, **caps)
        groups = {"produced": report.produced, "non-member": report.non_members,
                  "unknown": report.unknowns}
        listed = ("non-member",)
        summary = (f"{len(report.produced)} produced word(s), "
                   f"{len(report.non_members)} non-member(s), {len(report.unknowns)} unknown")
    if args.format == "lines":
        out = [f"kind {args.kind}", *_caps_lines(args), f"verdict {report.verdict}"]
        out += [f"{name} {word_text(w)}" for name, ws in groups.items() for w in ws]
    else:
        out = [f"{report.verdict.upper()}: {summary}"]
        out += [f"  {name}: {word_text(w)}" for name in listed for w in groups[name]]
    _emit(args, "\n".join(out) + "\n")
    return VERDICT_EXIT[report.verdict]


def _event_line(system: System, ev: RecombinationEvent) -> str:
    """One trace event as `x | y | word | w`, word being the template's canonical word."""
    return " | ".join(word_text(v) for v in (ev.x, ev.y, system.word(ev.template), ev.w))


def cmd_trace(args) -> int:
    if args.kind == "reg":
        if not args.target:
            raise TgrkitError("trace reg needs --target")
        cr = compile_regular(_load_grammar(args.grammar, RegularGrammar))
        trace = derivation_trace(
            cr.system,
            cr.base,
            word(args.target),
            args.max_len,
            args.max_rounds,
            args.max_set_size,
        )
        if trace is None:
            sys.stderr.write("no trace within caps\n")
            return EXIT_FAIL
        out = [_event_line(cr.system, ev) for ev in trace]
    else:
        if not args.derivation:
            raise TgrkitError("trace re needs --derivation")
        cr = compile_kuroda(_load_grammar(args.grammar, KurodaGrammar))
        lines = _read(args.derivation).splitlines()
        forms = [word(line) for line in lines if line.strip() and not line.startswith("# ")]
        try:
            trace = simulate_derivation(cr, forms)
        except TraceError as exc:
            sys.stderr.write(f"{exc}\n")
            return EXIT_FAIL
        out = [f"{te.phase} | {_event_line(cr.system, te.event)}" for te in trace.events]
    _emit(args, "\n".join(out) + ("\n" if out else ""))
    return EXIT_OK


def cmd_report(args) -> int:
    rep = complexity_report(compile_regular(_load_grammar(args.grammar, RegularGrammar)))
    if args.format == "lines":
        out = [
            f"rules {rep.rule_count}",
            f"templates {rep.template_count}",
            f"quadratic-bound {rep.quadratic_bound}",
            f"cubic-bound {rep.cubic_bound}",
            f"alphabet {rep.alphabet_size}",
            f"bounds-hold {str(rep.ok).lower()}",
        ]
    else:
        out = [
            f"rules {rep.rule_count} / templates {rep.template_count} / "
            f"quadratic bound {rep.quadratic_bound} / cubic bound {rep.cubic_bound} / "
            f"alphabet {rep.alphabet_size}"
        ]
    _emit(args, "\n".join(out) + "\n")
    return EXIT_OK if rep.ok else EXIT_FAIL


def _add_caps(p: argparse.ArgumentParser, with_k: bool = True) -> None:
    if with_k:
        p.add_argument("--k", type=int, default=8, help="output length bound (default 8)")
    p.add_argument(
        "--max-len", type=int, default=19, help="closure word length bound (default 19)"
    )
    p.add_argument("--max-rounds", type=int, default=64, help="closure round cap (default 64)")
    p.add_argument(
        "--max-set-size", type=int, default=200_000, help="closure set size cap (default 200000)"
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("human", "lines"), default="human", help="output style"
    )
    p.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgrkit",
        description="Template-guided recombination workbench: compile grammars to "
        "recombination systems, run bounded closures, check them against grammar oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a grammar to a system dump")
    p.add_argument("kind", choices=("reg", "re"))
    p.add_argument("grammar")
    _add_common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("closure", help="run a bounded closure over a system dump")
    p.add_argument("dump")
    p.add_argument("--base", help="language file overriding the dump's base language")
    _add_caps(p, with_k=False)
    _add_common(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("check", help="verify a compiled system against its grammar")
    p.add_argument("kind", choices=("reg", "re"))
    p.add_argument("grammar")
    _add_caps(p)
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("trace", help="explain how a word / derivation is produced")
    p.add_argument("kind", choices=("reg", "re"))
    p.add_argument("grammar")
    wanted = p.add_mutually_exclusive_group()
    wanted.add_argument("--target", help="target word (reg)")
    wanted.add_argument("--derivation", help="derivation file, one sentential form per line (re)")
    _add_caps(p, with_k=False)
    _add_common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("report", help="template-count and alphabet-size report")
    p.add_argument("grammar")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def _warning_line(message, *_) -> None:
    sys.stderr.write(f"warning: {message}\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # library warnings print as one plain line each
        warnings.simplefilter("default")
        warnings.showwarning = _warning_line
        try:
            return args.func(args)
        except FileNotFoundError as exc:
            sys.stderr.write(f"file not found: {exc.filename}\n")
            return EXIT_USAGE
        except OSError as exc:
            sys.stderr.write(f"{exc}\n")
            return EXIT_USAGE
        except ResourceLimitError as exc:
            # A set-size cap reached is a cap too small to decide.
            sys.stderr.write(f"{exc}\n")
            return EXIT_INCONCLUSIVE
        except (TgrkitError, ValueError) as exc:
            # Every ValueError the library raises is an argument check.
            sys.stderr.write(f"{exc}\n")
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

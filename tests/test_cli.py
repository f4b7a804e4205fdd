from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from tgrkit import cli
from tgrkit.cli import main
from tgrkit.grammars import parse_grammar
from tgrkit.recompile import compile_kuroda, simulate_derivation
from tgrkit.regcompile import compile_regular
from tgrkit.tgr import TGRSystem
from tgrkit.words import FiniteLanguage, word

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_reg_writes_dump(capsys, tmp_path):
    out = tmp_path / "astar_b.dump"
    code, _, _ = run(capsys, "compile", "reg", DATA / "astar_b.grammar", "--out", out)
    assert code == 0
    text = out.read_text()
    assert text.startswith("tgrkit-dump tgr")
    assert "a S b" in text


def test_compile_re_dump_lists_tau_words(capsys):
    code, out, _ = run(capsys, "compile", "re", DATA / "anbn.kuroda")
    assert code == 0
    assert out.startswith("tgrkit-dump ctgr")
    assert "Z # B1 B2 A C Y # S Y $ X $" in out


def test_compile_missing_file(capsys):
    code, _, err = run(capsys, "compile", "reg", "missing.grammar")
    assert code == 2
    assert "not found" in err


def test_compile_wrong_kind(capsys):
    code, _, err = run(capsys, "compile", "re", DATA / "astar_b.grammar")
    assert code == 2
    assert "kuroda" in err


def test_closure_over_dump(capsys, tmp_path):
    dump = tmp_path / "d"
    run(capsys, "compile", "reg", DATA / "astar_b.grammar", "--out", dump)
    code, out, _ = run(capsys, "closure", dump, "--max-len", 11, "--max-rounds", 32)
    assert code == 0
    assert "S a S b #" in out
    assert "fixpoint: True" in out


def test_closure_machine_format_is_byte_stable(capsys, tmp_path):
    dump = tmp_path / "d"
    run(capsys, "compile", "reg", DATA / "astar_b.grammar", "--out", dump)
    args = ("closure", dump, "--max-len", 11, "--max-rounds", 32, "--format", "lines")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    assert "max-len 11" in out1 and "fixpoint true" in out1


def test_closure_tiny_caps_reports_flags(capsys, tmp_path):
    dump = tmp_path / "d"
    run(capsys, "compile", "reg", DATA / "astar_b.grammar", "--out", dump)
    code, out, _ = run(
        capsys, "closure", dump, "--max-len", 5, "--max-rounds", 2, "--format", "lines"
    )
    assert code == 0
    assert "fixpoint false" in out or "truncated true" in out


def test_closure_prints_library_warnings_as_plain_lines(capsys, tmp_path):
    dump = tmp_path / "d"
    run(capsys, "compile", "reg", DATA / "astar_b.grammar", "--out", dump)
    args = ("closure", dump, "--max-len", 11, "--format", "lines")
    _, expected, _ = run(capsys, *args)
    dump.write_text(dump.read_text().replace("a S b\n", "a S b\na S\n", 1))
    code, out, err = run(capsys, *args)
    assert (code, out) == (0, expected)
    assert err == ("warning: 1 template(s) have bodies shorter than 2*n1+n2=3 "
                   "and can never fire, e.g. 'a S'\n")


def test_closure_with_base_override(capsys, tmp_path):
    dump = tmp_path / "d"
    run(capsys, "compile", "reg", DATA / "astar_b.grammar", "--out", dump)
    base = tmp_path / "base"
    base.write_text("S b #\n")
    code, out, _ = run(capsys, "closure", dump, "--base", base, "--max-len", 11)
    assert code == 0
    assert "S b #" in out and "S a S" not in out


def test_closure_over_ctgr_dump(capsys, tmp_path):
    dump = tmp_path / "d"
    run(capsys, "compile", "re", DATA / "anbn.kuroda", "--out", dump)
    code, out, _ = run(
        capsys, "closure", dump, "--max-len", 8, "--max-rounds", 2, "--format", "lines"
    )
    assert code == 0
    assert "word X B B1 B2 A C Y" in out  # first simulate result


def test_check_reg_pass(capsys):
    code, out, _ = run(capsys, "check", "reg", DATA / "astar_b.grammar", "--k", 8)
    assert code == 0
    assert "PASS" in out


def test_check_reg_inconclusive_exit_code(capsys):
    code, out, _ = run(
        capsys, "check", "reg", DATA / "astar_b.grammar", "--k", 8, "--max-rounds", 1
    )
    assert code == 3
    assert "INCONCLUSIVE" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("check", "re", DATA / "anbn.kuroda", "--max-set-size", 3000),
         "closure would exceed 3000 words (2819 + 484 new in round 26)"),
        (("check", "reg", DATA / "ends_ab.grammar", "--max-set-size", 500),
         "closure would exceed 500 words"),
    ],
)
def test_set_size_cap_reached_is_inconclusive(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and message in err and len(err.strip().splitlines()) == 1


def test_check_re_sound(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "re",
        DATA / "anbn.kuroda",
        "--k", 4, "--max-len", 16, "--max-rounds", 24, "--format", "lines",
    )
    assert code == 0
    assert "verdict sound" in out
    assert "produced a b" in out


def test_trace_reg_single_event(capsys):
    code, out, _ = run(
        capsys,
        "trace", "reg", DATA / "astar_b.grammar",
        "--target", "S a S b #", "--max-len", 11,
    )
    assert code == 0
    assert out.strip() == "S a S | S b # | a S b | S a S b #"
    assert out.count("|") == 3  # x | y | word | w


def test_trace_reg_unreachable(capsys):
    code, _, err = run(
        capsys,
        "trace", "reg", DATA / "astar_b.grammar",
        "--target", "S b # #", "--max-len", 11,
    )
    assert code == 1
    assert "no trace" in err


def test_trace_re_derivation(capsys):
    code, out, _ = run(
        capsys, "trace", "re", DATA / "anbn.kuroda", "--derivation", DATA / "aabb_deriv.txt"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].endswith("| a a b b Y")
    assert lines[0].startswith("simulate |")
    # phase | x | y | word | w, one line per event
    cr = compile_kuroda(parse_grammar((DATA / "anbn.kuroda").read_text()))
    forms = [word(line) for line in (DATA / "aabb_deriv.txt").read_text().splitlines()]
    assert len(lines) == len(simulate_derivation(cr, forms).events)
    assert all(line.count("|") == 4 for line in lines)


def test_trace_re_derivation_skips_comment_lines(capsys, tmp_path):
    deriv = tmp_path / "deriv"
    deriv.write_text("# S => A C => a C => a b\n" + (DATA / "ab_deriv.txt").read_text())
    plain = run(capsys, "trace", "re", DATA / "anbn.kuroda", "--derivation", DATA / "ab_deriv.txt")
    commented = run(capsys, "trace", "re", DATA / "anbn.kuroda", "--derivation", deriv)
    assert commented == plain
    assert plain[0] == 0


@pytest.mark.parametrize("kind, grammar", [("reg", "astar_b.grammar"), ("re", "anbn.kuroda")])
def test_trace_target_and_derivation_exclude_each_other(capsys, kind, grammar):
    with pytest.raises(SystemExit) as exc:
        main(["trace", kind, str(DATA / grammar), "--target", "S a S b #",
              "--derivation", str(DATA / "ab_deriv.txt")])
    assert exc.value.code == 2


# SHA-256 of the output of `compile re` and `trace re`: the Kuroda construction
# and its tracer must stay byte-identical under refactoring.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("compile", "re", DATA / "anbn.kuroda"),
         "8543bdbfcf7954d9fe09e16120fa5fd540aeada7faabc1a55bd3c129f8d2b39d"),
        (("compile", "re", DATA / "single_a.kuroda"),
         "22b904cdba890500da6c8e4ca04d037106242273a0c2d318abe007388d986be9"),
        (("trace", "re", DATA / "anbn.kuroda", "--derivation", DATA / "ab_deriv.txt"),
         "93e259e64574dab6e52adcefe3d1775994288e9b4d15d332d73d49573243a0f1"),
        (("trace", "re", DATA / "anbn.kuroda", "--derivation", DATA / "aabb_deriv.txt"),
         "288a8565fa7e5ba80da48c83d5def6fd7f7db03a9bff3a515ffcf9385975c549"),
    ],
)
def test_re_output_digest_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# SHA-256 of the output of `trace reg` and `closure`: the recombination engine
# must produce the same bytes under optimisation.  A closure case names the kind
# and grammar to compile, or a dump and its caps; each closure truncates at its caps.
# A compiled case prints in `--format lines` unless it names a format.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("trace", "reg", DATA / "astar_b.grammar", "--target", "S a S b #"),
         "6ce8aac19fafd45b5f6fc2a979b31ff040d4e0aaae0392f10465a89dadfd427e"),
        (("trace", "reg", DATA / "ends_ab.grammar", "--target", "S a S a A b #"),
         "793876a222ade74ce25ba4c80cbff16eb8384fe7249da489caef283efb7ee289"),
        (("closure", "reg", DATA / "ends_ab.grammar"),
         "b11ef54d9c952caa90acb5803cf905dce038126c4a6f8f44938d049e9a0861c1"),
        (("closure", "re", DATA / "anbn.kuroda"),
         "7533eb23cc5b854078a33a5bcedbec287618af4baf16a3ed1877b00ade693c9c"),
        (("trace", "reg", DATA / "ends_ab.grammar",
          "--target", "S a S b S a S b S a S a S b S a A b #"),
         "1c751ec5ce43086c08e9ea03d9950267d723879fcacf45159725ba3f684ccfaf"),
        (("closure", DATA / "contexts.ctgr", "--max-len", 10, "--max-rounds", 5,
          "--format", "lines"),
         "9788a97e77f1c27df616469a3c8f1dfcd15fd3a2d37fd91597c92a3b9f90f8bb"),
        (("closure", "reg", DATA / "ends_ab.grammar", "--format", "human"),
         "132314d5bb11f9a4331dc0d4cc0fb9341d7bf17b21b113d271bd45c250ccadd1"),
        (("closure", DATA / "contexts.ctgr", "--max-len", 10, "--max-rounds", 5,
          "--format", "human"),
         "75bfa4d78581f6309693d4c4bae0be56720bc235b19b8c4a5579247a327e5969"),
    ],
)
def test_engine_output_digest_is_pinned(capsys, tmp_path, argv, digest):
    if argv[0] == "closure" and argv[1] in ("reg", "re"):
        dump = tmp_path / "d"
        run(capsys, "compile", argv[1], argv[2], "--out", dump)
        fmt = argv[3:] or ("--format", "lines")
        argv = ("closure", dump, "--max-len", 14, "--max-rounds", 28, *fmt)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Closures index fresh words in set order, which moves with the string hash
# seed; the output must not.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("closure", "DUMP", "--max-len", 14, "--max-rounds", 28, "--format", "lines"),
         "7533eb23cc5b854078a33a5bcedbec287618af4baf16a3ed1877b00ade693c9c"),
        (("trace", "reg", DATA / "ends_ab.grammar",
          "--target", "S a S b S a S b S a S a S b S a A b #"),
         "1c751ec5ce43086c08e9ea03d9950267d723879fcacf45159725ba3f684ccfaf"),
    ],
)
def test_output_does_not_depend_on_hash_seed(capsys, tmp_path, argv, digest):
    if argv[1] == "DUMP":
        dump = tmp_path / "d"
        run(capsys, "compile", "re", DATA / "anbn.kuroda", "--out", dump)
        argv = (argv[0], dump, *argv[2:])
    argv = [str(a) for a in argv]
    src = str(Path(__file__).parent.parent / "src")
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "tgrkit", *argv], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode("utf-8")).hexdigest() == digest


def broken_regular(g):
    """compile_regular without the template `a S b` and with the non-member base word `S a #`."""
    cr = compile_regular(g)
    kept = [t for t in cr.system.templates if t != word("a S b")]
    base = FiniteLanguage(cr.base.words | {word("S a #")}, cr.base.alphabet)
    return replace(cr, system=TGRSystem(kept, cr.system.alphabet), base=base)


# SHA-256 of the output of `check` with its exit code, for every verdict of
# both kinds in both formats.  The `fail` case checks a broken compilation.
@pytest.mark.parametrize("fmt", ["human", "lines"])
@pytest.mark.parametrize(
    "argv, code, digests",
    [
        pytest.param(
            ("reg", DATA / "astar_b.grammar"), 0,
            ("bff00a0833535f122093275192c91370e47b131fd3fcf0809987a8a63a4df709",
             "f3b5e89abb28dafccf2c48f443904fb77b8ab9490a3d4a8d12e20d4dbac49885"),
            id="reg-pass",
        ),
        pytest.param(
            ("reg", DATA / "astar_b.grammar", "--k", 4), 1,
            ("6244872dbb020a51e415cfbe25fe775090693195f6a0144f8ccf4fa0053a17ab",
             "38f273357720a8021878fef38be467859ea54470cece24c72e0d3b1d7fc59bdb"),
            id="reg-fail",
        ),
        pytest.param(
            ("reg", DATA / "ends_ab.grammar", "--k", 6, "--max-rounds", 2), 3,
            ("e3300d1808481e6c4f55a9b4a4ba545d65e12053b4cd695a6f67a692fcbaa4b9",
             "53da82757c742961b6727305c62f01a20c870be22bf789553f616a649340d5d4"),
            id="reg-inconclusive",
        ),
        pytest.param(
            ("re", DATA / "anbn.kuroda", "--k", 4, "--max-len", 16, "--max-rounds", 24), 0,
            ("0fd2f923d4fdf75b6c4384c35aacf7e6a88050ae16b438f1d6c358a044a69221",
             "a86c9c6fc3ffc30b88ded083181919e27fb5476a7a4846bf6a3b93f78e07e5cb"),
            id="re-sound",
        ),
        pytest.param(
            ("re", DATA / "anbn.kuroda", "--k", 4, "--max-len", 16, "--max-rounds", 31), 1,
            ("8a56f615c65bfef4f0d1eb33b9e39b03fbf092ad9ddd85d94e3bef1954960e85",
             "41dbfa79e2307ba341ba6a114f675a160c0e018daa5bc5fb8f54239ecc68a4de"),
            id="re-unsound",
        ),
    ],
)
def test_check_output_digest_is_pinned(capsys, monkeypatch, fmt, argv, code, digests):
    if code == 1 and argv[0] == "reg":
        monkeypatch.setattr(cli, "compile_regular", broken_regular)
    got, out, err = run(capsys, "check", *argv, "--format", fmt)
    assert (got, err) == (code, "")
    digest = digests[fmt == "lines"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_trace_re_short_word_fails_loudly(capsys, tmp_path):
    deriv = tmp_path / "deriv"
    deriv.write_text("S\na\n")
    code, _, err = run(
        capsys, "trace", "re", DATA / "single_a.kuroda", "--derivation", deriv
    )
    assert code == 1
    assert "terminate" in err


def test_report(capsys):
    code, out, _ = run(capsys, "report", DATA / "astar_b.grammar")
    assert code == 0
    assert "templates 2" in out
    assert "quadratic bound 4" in out
    assert "cubic bound 8" in out
    assert "alphabet 4" in out


def test_report_lines_format(capsys):
    code, out, _ = run(capsys, "report", DATA / "finite_abc.grammar", "--format", "lines")
    assert code == 0
    assert "rules 5" in out
    assert "cubic-bound 125" in out
    assert "bounds-hold true" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compile", "nonsense", "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "old, new, message",
    [
        # Every row names itself, so editing a message or inserting a row renames no test;
        # the first rows keep the names pytest once built from their values.
        pytest.param("n1 1", "n1 x", "line 2: n1 must be a positive integer",
                     id="n1 1-n1 x-line 2: n1 must be a positive integer"),
        pytest.param("n1 1", "n1 0", "line 2: n1 must be a positive integer",
                     id="n1 1-n1 0-line 2: n1 must be a positive integer"),
        pytest.param("S -> @", "S ->", "bad coding line 'S ->'",
                     id="S -> @-S ->-bad coding line 'S ->'"),
        pytest.param("tgrkit-dump tgr", "tgrkit-dump ", "unknown dump kind ''",
                     id="tgrkit-dump tgr-tgrkit-dump -unknown dump kind ''"),
        pytest.param("tgrkit-dump tgr", "tgrkit-dump tgr junk more",
                     "unknown dump kind 'tgr junk more'",
                     id="tgrkit-dump tgr-tgrkit-dump tgr junk more-unknown dump kind 'tgr junk more'"),
        pytest.param(
            "{S}({a,b}{S})*({a,b}{#}|{#}{#})",
            "(" * 5000 + "{S}" + ")" * 5000,
            "line 12: pattern nests parentheses and stars deeper than 100",
            id="deep-filter",
        ),
        pytest.param("{S}({a,b}{S})*({a,b}{#}|{#}{#})", "{S}(",
                     "line 12: unexpected token None in pattern", id="bad-filter"),
        # A second filter, coding or header line is an error, not a silent override.
        pytest.param(
            "{S}({a,b}{S})*({a,b}{#}|{#}{#})",
            "{S}({a,b}{S})*({a,b}{#}|{#}{#})\n{S}",
            "line 13: FILTER holds one pattern line, found a second",
            id="second-filter",
        ),
        pytest.param("S -> @", "S -> @\nS -> a", "line 16: symbol 'S' is coded twice",
                     id="second-coding"),
        pytest.param("n1 1", "n1 1\nn1 2", "line 3: repeated header line 'n1'", id="second-n1"),
        pytest.param("a S b", "a q b", "line 10: template symbol 'q' is outside the system alphabet",
                     id="template-outside"),
        pytest.param("S b #", "S q #", "line 7: word 'S q #' uses symbol 'q' outside the alphabet",
                     id="base-outside"),
        # END ends a dump: it must be there, and only blank lines may follow it.
        pytest.param("END", "", "dump is cut off: no END line", id="no-end"),
        pytest.param("END", "END\na S q", "line 24: unexpected line after END: 'a S q'",
                     id="after-end"),
        pytest.param("S -> @", "S -> @\nzz -> zz",
                     "line 16: coding symbol 'zz' is outside the alphabet", id="coding-outside"),
        # "@" spells the empty word, so a base line "@" could not be the symbol "@".
        pytest.param("alphabet # S a b", "alphabet # S a b @",
                     "line 4: bad symbol token '@': it spells the empty word", id="at-symbol"),
    ],
)
def test_closure_malformed_dump_is_usage_error(capsys, tmp_path, old, new, message):
    dump = tmp_path / "d"
    run(capsys, "compile", "reg", DATA / "astar_b.grammar", "--out", dump)
    lines = dump.read_text().splitlines()
    assert lines.count(old) == 1
    dump.write_text("\n".join(new if line == old else line for line in lines) + "\n")
    code, _, err = run(capsys, "closure", dump, "--max-len", 11)
    assert code == 2
    assert message in err and "Traceback" not in err


def ctgr_dump(*templates):
    return "\n".join([
        "tgrkit-dump ctgr", "n1 1", "n2 1", "alphabet X Z a b c u", "BASE", "X a b c",
        "TEMPLATES", "# a b c # $ $", *templates, "END",
    ]) + "\n"


@pytest.mark.parametrize(
    "template, message",
    [
        # Named as pytest once built the names from the values, before the line numbers.
        pytest.param("Z a b c # u $ X $", "line 9: not a tau word: 'Z a b c # u $ X $'",
                     id="Z a b c # u $ X $-line 9: not a tau word: 'Z a b c # u $ X $'"),
        pytest.param("Z # a b c # u $ X $ q",
                     "line 9: template symbol 'q' is outside the system alphabet",
                     id="Z # a b c # u $ X $ q-template symbol 'q' is outside the system alphabet"),
        pytest.param("Z # a b c # q $ X $",
                     "line 9: template symbol 'q' is outside the system alphabet",
                     id="Z # a b c # q $ X $-template symbol 'q' is outside the system alphabet"),
    ],
)
def test_closure_bad_ctgr_template_is_usage_error(capsys, tmp_path, template, message):
    dump = tmp_path / "d"
    dump.write_text(ctgr_dump(template))
    code, _, err = run(capsys, "closure", dump, "--max-len", 6)
    assert code == 2
    assert message in err and len(err.strip().splitlines()) == 1


# Rows keep the names pytest once built from their positions and messages.
@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("check", "reg", DATA / "astar_b.grammar", "--k", -1), "nonnegative",
                     id="argv0-nonnegative"),
        pytest.param(("closure", "DUMP", "--max-rounds", -1), "max_rounds must be nonnegative",
                     id="argv1-max_rounds must be nonnegative"),
        pytest.param(("closure", "DUMP", "--max-len", 2),
                     "max_len is smaller than the longest initial word",
                     id="argv2-max_len is smaller than the longest initial word"),
        pytest.param(
            ("trace", "reg", DATA / "astar_b.grammar", "--target", "S a S b #", "--max-len", 2),
            "max_len is smaller than the longest initial word",
            id="argv3-max_len is smaller than the longest initial word",
        ),
        pytest.param(
            ("trace", "reg", DATA / "astar_b.grammar", "--target", "S a S b #",
             "--max-rounds", -1),
            "max_rounds must be nonnegative",
            id="argv4-max_rounds must be nonnegative",
        ),
        pytest.param(
            ("check", "re", DATA / "anbn.kuroda", "--k", -1, "--max-len", 10, "--max-rounds", 4),
            "length bound must be nonnegative",
            id="argv5-length bound must be nonnegative",
        ),
        pytest.param(
            ("trace", "reg", DATA / "astar_b.grammar", "--target", "S q #"),
            "target symbol 'q' is outside the system alphabet",
            id="argv6-target symbol 'q' is outside the system alphabet",
        ),
        pytest.param(
            ("check", "reg", DATA / "astar_b.grammar", "--max-set-size", -3),
            "max_set_size -3 is smaller than the 2 initial words",
            id="argv7-max_set_size -3 is smaller than the 2 initial words",
        ),
        pytest.param(("closure", "DUMP", "--max-set-size", 1), "max_set_size 1 is smaller than the 2",
                     id="argv8-max_set_size 1 is smaller than the 2"),
        pytest.param(("trace", "reg", DATA / "astar_b.grammar"), "trace reg needs --target",
                     id="argv9-trace reg needs --target"),
        pytest.param(
            ("trace", "reg", DATA / "astar_b.grammar", "--target", ""),
            "blank word text: the empty word is spelled '@'",
            id="argv10-blank word text: the empty word is spelled '@'",
        ),
    ],
)
def test_bad_cap_is_usage_error(capsys, tmp_path, argv, message):
    dump = tmp_path / "d"
    run(capsys, "compile", "reg", DATA / "astar_b.grammar", "--out", dump)
    code, _, err = run(capsys, *(dump if a == "DUMP" else a for a in argv))
    assert code == 2
    assert message in err and len(err.strip().splitlines()) == 1

"""The three benchmark workloads: seeded inputs, CLI argument lists and reference checks.

Every op runs one tgrkit CLI subcommand with ``--format lines``.  Inputs come
from ``random.Random`` seeded with a string built from the workload name, the
benchmark seed and the op index, so op i of a seed is the same input in
every run, traced or not.  Caps are drawn through a balanced schedule: each
block of ops holds every cap combination once, in a seeded order.

The references are computed here, never by tgrkit: DFA simulation for the
regular family, the a^n b^n shape for the Kuroda grammar, and an event replay
for traces.  `check` sorts each op into one outcome:

* ``defect``: the answer is wrong (a word outside the language, a required
  word missing).  The op counts as failed.
* ``error``: an exception, a resource limit, an unexpected exit code or
  output that cannot be read.  The op counts as failed and the run is not
  correct.
* ``misreport``: a verdict or trace that the reference contradicts.  The op
  counts as failed and the run is not correct.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

TERMINALS = ("a", "b")
DFA_STATES = ("S", "A", "B")
# (states, moves into accepting states): with the state count, the number of
# terminal rules drives the closure size and so the op cost.
DFA_CELLS = [(n, t) for n in (2, 3) for t in range(1, 2 * n + 1)]
REG_K = 7
REG_CAPS = ["--k", str(REG_K), "--max-len", "19", "--max-rounds", "64"]

# The a^n b^n Kuroda grammar (n >= 1), written with placeholder names that
# every op renames.
ANBN_NONTERMINALS = ("S", "A", "C", "D")
ANBN_RULES = (("S", "A C"), ("C", "S D"), ("C", "b"), ("D", "b"), ("A", "a"))
RE_K = 4
RE_MAX_LEN = (14, 16)
RE_MAX_ROUNDS = (20, 24, 28, 32)
RE_AB_ROUNDS = 24  # the shortest event chain producing "a b" has 24 events
RE_DUMP_POOL = 4

TRACE_RE_N = (1, 2, 3)
TRACE_REG_LEN = (5, 6, 7)
TRACE_REG_CAPS = ["--max-len", "15", "--max-rounds", "3"]

# Marker symbols of the Kuroda construction: sentential forms are carried as
# X B B1 B2 <form> Y, and a finished trace ends in <terminal word> Y.
X, Y, BLOCK = "X", "Y", ("B", "B1", "B2")


@dataclass
class Op:
    kind: str
    argv: list[str]
    ref: dict = field(default_factory=dict)


@dataclass
class Result:
    code: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None
    captured: dict


@dataclass
class Outcome:
    status: str  # "ok" | "defect" | "error" | "misreport"
    detail: str = ""
    closure_words: int | None = None

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _scheduled(name: str, seed: int, i: int, combos: list):
    block, pos = divmod(i, len(combos))
    order = list(combos)
    _rng(name, seed, "block", block).shuffle(order)
    return order[pos]


def _text(w) -> str:
    return " ".join(w) if w else "@"


def _words(text: str) -> tuple[str, ...]:
    text = text.strip()
    return () if text == "@" else tuple(text.split())


def _fields(stdout: str, key: str) -> list[str]:
    prefix = key + " "
    return [line[len(prefix):] for line in stdout.splitlines() if line.startswith(prefix)]


def _is_factor(needle, hay) -> bool:
    n = len(needle)
    return any(hay[i:i + n] == needle for i in range(len(hay) - n + 1))


def _replay(ev, e1=(), d1=(), c1=(), c2=()) -> bool:
    """Recompute one recombination event from its split and offsets."""
    a, b, g = ev.alpha, ev.beta, ev.gamma
    left, right = a + b + d1, e1 + b + g
    return (
        min(len(a), len(b), len(g)) >= 1
        and ev.x[ev.pos_x:ev.pos_x + len(left)] == left
        and ev.y[ev.pos_y:ev.pos_y + len(right)] == right
        and all(_is_factor(c, ev.x) for c in c1)
        and all(_is_factor(c, ev.y) for c in c2)
        and ev.w == ev.x[:ev.pos_x] + a + b + g + ev.y[ev.pos_y + len(right):]
    )


def _check_stdout_trace(stdout: str, events) -> str | None:
    """The printed trace must list the captured events' results, in order."""
    lines = stdout.splitlines()
    if len(lines) != len(events):
        return f"{len(lines)} trace lines for {len(events)} events"
    for line, ev in zip(lines, events):
        if _words(line.rsplit("|", 1)[1]) != ev.w:
            return f"printed result {line!r} differs from the event"
    return None


def _base_outcome(res: Result) -> Outcome | None:
    if res.error is not None:
        return Outcome("error", res.error)
    return None


# ---------------------------------------------------------------- regular family


@dataclass(frozen=True)
class Dfa:
    """A complete DFA over {a, b}; states[0] is the start state."""

    states: tuple[str, ...]
    delta: dict
    accepting: frozenset

    def run(self, w) -> str:
        q = self.states[0]
        for c in w:
            q = self.delta[q, c]
        return q

    def language(self, lengths) -> set[tuple[str, ...]]:
        return {
            w
            for n in lengths
            for w in itertools.product(TERMINALS, repeat=n)
            if self.run(w) in self.accepting
        }

    def grammar_text(self) -> str:
        """Right-linear grammar: q -> c p for every move, q -> c when p accepts."""
        rules = []
        for (q, c), p in sorted(self.delta.items()):
            rules.append(f"rule {q} -> {c} {p}")
            if p in self.accepting:
                rules.append(f"rule {q} -> {c}")
        return (
            "type regular\n"
            f"nonterminals {' '.join(self.states)}\n"
            f"terminals {' '.join(TERMINALS)}\n"
            f"start {self.states[0]}\n" + "\n".join(rules) + "\n"
        )

    def encoding(self, w) -> tuple[str, ...]:
        """The compiled system's encoding of member word w: S c1 q1 ... c_m #."""
        out, q = [self.states[0]], self.states[0]
        for j, c in enumerate(w):
            q = self.delta[q, c]
            out += [c, "#" if j == len(w) - 1 else q]
        return tuple(out)

    def is_path(self, enc) -> bool:
        """q0 c1 q1 ... c_j q_j along the moves, optionally ending c_m # into an accepting state."""
        if len(enc) < 3 or len(enc) % 2 == 0 or enc[0] not in self.states:
            return False
        for i in range(1, len(enc), 2):
            c, nxt = enc[i], enc[i + 1]
            if c not in TERMINALS:
                return False
            p = self.delta[enc[i - 1], c]
            if nxt == "#":
                if i + 2 != len(enc) or p not in self.accepting:
                    return False
            elif nxt != p:
                return False
        return True

    def base_words(self) -> set[tuple[str, ...]]:
        out = set()
        for (q, c), p in self.delta.items():
            out.add((q, c, p))
            if p in self.accepting:
                out.add((q, c, "#"))
        return out


def random_dfa(rng: random.Random, n_states: int, final_moves: int) -> Dfa:
    """A random complete DFA with exactly `final_moves` moves into accepting states.

    That count sets how many terminal rules the grammar has, which with the
    state count drives the closure's size, so the schedule fixes both.
    """
    states = DFA_STATES[:n_states]
    while True:
        delta = {(q, c): rng.choice(states) for q in states for c in TERMINALS}
        accepting = {q for q in states if rng.random() < 0.5}
        if sum(p in accepting for p in delta.values()) == final_moves:
            return Dfa(states, delta, frozenset(accepting))


class RegCheck:
    """check reg at k=7 on a fresh right-linear grammar from a 2-3 state DFA per op."""

    name = "reg_check"
    combos = DFA_CELLS

    def __init__(self, workdir: Path):
        self.grammar = workdir / "reg_check-op.grammar"

    def setup(self, seed, modules) -> None:
        pass

    def _op(self, rng, n_states, final_moves, caps, kind) -> Op:
        dfa = random_dfa(rng, n_states, final_moves)
        self.grammar.write_text(dfa.grammar_text(), encoding="utf-8")
        k = int(caps[caps.index("--k") + 1])
        argv = ["check", "reg", str(self.grammar), *caps, "--format", "lines"]
        return Op(kind, argv, {"expect": dfa.language(range(1, k + 1))})

    def warmups(self, seed):
        caps = ["--k", "4", "--max-len", "11", "--max-rounds", "64"]
        yield self._op(_rng(self.name, seed, "warmup"), 3, 3, caps, "warmup")

    def op(self, seed, i) -> Op:
        n_states, final_moves = _scheduled(self.name, seed, i, self.combos)
        return self._op(_rng(self.name, seed, i), n_states, final_moves, REG_CAPS,
                        f"dfa{n_states}-{final_moves}")

    def check(self, op: Op, res: Result) -> Outcome:
        bad = _base_outcome(res)
        if bad:
            return bad
        verdict = _fields(res.stdout, "verdict")
        pipeline = res.captured.get("pipeline_language")
        closure = res.captured.get("closure")
        if len(verdict) != 1 or pipeline is None or closure is None:
            return Outcome("error", f"exit {res.code}, no verdict or pipeline: {res.stderr!r}")
        words = len(closure.language)
        got = set(pipeline[0].words)
        expect = op.ref["expect"]
        agrees = got == expect
        if (verdict[0] == "pass") != agrees:
            return Outcome("misreport", f"verdict {verdict[0]} but pipeline == DFA is {agrees}", words)
        if not agrees:
            diff = sorted(got ^ expect, key=lambda w: (len(w), w))[:3]
            return Outcome("defect", f"pipeline differs from the DFA on {diff}", words)
        if res.code != 0:
            return Outcome("error", f"exit {res.code} on a passing check", words)
        return Outcome("ok", closure_words=words)


# ---------------------------------------------------------------- Kuroda family


def renaming(rng: random.Random) -> dict[str, str]:
    """Fresh names for the a^n b^n symbols.

    Lower-case letters after an "n"/"t" prefix never collide with the
    compiler's markers (X, X', Y, Y_*, Z, Z', B, B1, B2, #, $, &).
    """
    names: dict[str, str] = {}
    used = set()
    for sym in ANBN_NONTERMINALS + TERMINALS:
        prefix = "t" if sym in TERMINALS else "n"
        while True:
            name = prefix + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))
            if name not in used:
                break
        used.add(name)
        names[sym] = name
    return names


def anbn_text(names: dict[str, str]) -> str:
    ren = lambda text: " ".join(names[s] for s in text.split())  # noqa: E731
    rules = "\n".join(f"rule {ren(lhs)} -> {ren(rhs)}" for lhs, rhs in ANBN_RULES)
    return (
        "type kuroda\n"
        f"nonterminals {ren(' '.join(ANBN_NONTERMINALS))}\n"
        f"terminals {ren(' '.join(TERMINALS))}\n"
        f"start {names['S']}\n{rules}\n"
    )


def is_anbn(w, names) -> bool:
    n = len(w) // 2
    return n >= 1 and len(w) == 2 * n and w == (names["a"],) * n + (names["b"],) * n


def random_anbn_derivation(rng: random.Random, n: int, names: dict[str, str]) -> list[tuple]:
    """A derivation of a^n b^n that applies its rules in a random order."""
    form, forms, recursions = ("S",), [("S",)], 0
    while any(s in ANBN_NONTERMINALS for s in form):
        moves = []
        for i, s in enumerate(form):
            if s == "S":
                moves.append((i, ("A", "C")))
            elif s == "A":
                moves.append((i, ("a",)))
            elif s == "D":
                moves.append((i, ("b",)))
            elif s == "C":
                moves.append((i, ("S", "D") if recursions < n - 1 else ("b",)))
        i, rhs = rng.choice(moves)
        recursions += rhs == ("S", "D")
        form = form[:i] + rhs + form[i + 1:]
        forms.append(form)
    return [tuple(names[s] for s in f) for f in forms]


class ReCheck:
    """check re, or closure over a CTGR dump, on a renamed a^n b^n grammar."""

    name = "re_check"
    combos = [
        (kind, max_len, rounds)
        for kind in ("check", "closure")
        for max_len in RE_MAX_LEN
        for rounds in RE_MAX_ROUNDS
    ]

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.grammar = workdir / "re_check-op.kuroda"
        self.pool: list[tuple[Path, dict]] = []

    def setup(self, seed, modules) -> None:
        """Compile and dump the renamed grammars the closure ops load."""
        grammars, recompile = modules["grammars"], modules["recompile"]
        self.pool = []
        for j in range(RE_DUMP_POOL):
            names = renaming(_rng(self.name, seed, "pool", j))
            g = grammars.parse_grammar(anbn_text(names))
            path = self.workdir / f"re_check-pool{j}.dump"
            path.write_text(recompile.dump_compiled_re(recompile.compile_kuroda(g)), encoding="utf-8")
            self.pool.append((path, names))

    def _op(self, rng, kind, max_len, rounds, label) -> Op:
        caps = ["--max-len", str(max_len), "--max-rounds", str(rounds)]
        if kind == "check":
            names = renaming(rng)
            self.grammar.write_text(anbn_text(names), encoding="utf-8")
            argv = ["check", "re", str(self.grammar), "--k", str(RE_K), *caps]
        else:
            path, names = self.pool[rng.randrange(len(self.pool))]
            argv = ["closure", str(path), *caps]
        return Op(label, argv + ["--format", "lines"], {"kind": kind, "names": names, "rounds": rounds})

    def warmups(self, seed):
        rng = _rng(self.name, seed, "warmup")
        for kind in ("check", "closure"):
            yield self._op(rng, kind, 14, 12, "warmup")

    def op(self, seed, i) -> Op:
        kind, max_len, rounds = _scheduled(self.name, seed, i, self.combos)
        return self._op(_rng(self.name, seed, i), kind, max_len, rounds, f"{kind}-{max_len}-{rounds}")

    def check(self, op: Op, res: Result) -> Outcome:
        bad = _base_outcome(res)
        if bad:
            return bad
        names = op.ref["names"]
        ab = (names["a"], names["b"])
        if op.ref["kind"] == "check":
            verdict = _fields(res.stdout, "verdict")
            closure = res.captured.get("closure_pc")
            if len(verdict) != 1 or closure is None:
                return Outcome("error", f"exit {res.code}, no verdict: {res.stderr!r}")
            words = len(closure.language)
            produced = [_words(t) for t in _fields(res.stdout, "produced")]
            reported = sorted(_words(t) for t in _fields(res.stdout, "non-member"))
            wrong = sorted(w for w in produced if not is_anbn(w, names))
            if reported != wrong:
                return Outcome("misreport", f"non-members reported {reported}, found {wrong}", words)
            expected_code = 1 if wrong else 0
        else:
            lines = _fields(res.stdout, "word")
            words = len(lines)
            terms = {names["a"], names["b"]}
            produced = []
            for text in lines:
                w = _words(text)
                if w and w[-1] == Y and all(s in terms for s in w[:-1]):
                    produced.append(w[:-1])
            wrong = sorted(w for w in produced if not is_anbn(w, names))
            expected_code = 0
        if res.code != expected_code:
            return Outcome("error", f"exit {res.code}, expected {expected_code}", words)
        if wrong:
            return Outcome("defect", f"non-member output {[_text(w) for w in wrong]}", words)
        if op.ref["rounds"] >= RE_AB_ROUNDS and ab not in produced:
            return Outcome("defect", "a b missing", words)
        return Outcome("ok", closure_words=words)


# ---------------------------------------------------------------- traces


class Trace:
    """trace re on renamed a^n b^n derivations, and trace reg toward DFA member words."""

    name = "trace"
    # trace reg uses the 2-state half of the DFA family.  A 3-state round-3
    # trace costs 0.6-2 s and varies by a third between DFAs of one cell,
    # which left too few ops per run for a steady median.
    combos = [("re", n) for n in TRACE_RE_N] + [("reg", c) for c in DFA_CELLS if c[0] == 2]

    def __init__(self, workdir: Path):
        self.grammar = workdir / "trace-op.grammar"
        self.derivation = workdir / "trace-op.derivation"

    def setup(self, seed, modules) -> None:
        pass

    def _op(self, rng, kind, size, caps, label, lengths=TRACE_REG_LEN) -> Op:
        """size: n of a^n b^n for "re", a (states, accepting moves) cell for "reg"."""
        if kind == "re":
            names = renaming(rng)
            forms = random_anbn_derivation(rng, size, names)
            self.grammar.write_text(anbn_text(names), encoding="utf-8")
            self.derivation.write_text("\n".join(_text(f) for f in forms) + "\n", encoding="utf-8")
            argv = ["trace", "re", str(self.grammar), "--derivation", str(self.derivation)]
            ref = {"kind": kind, "start": (X, *BLOCK, names["S"], Y), "final": forms[-1] + (Y,)}
        else:
            length = rng.choice(lengths)
            while True:
                dfa = random_dfa(rng, *size)
                members = sorted(dfa.language([length]))
                if members:
                    break
            target = dfa.encoding(rng.choice(members))
            self.grammar.write_text(dfa.grammar_text(), encoding="utf-8")
            argv = ["trace", "reg", str(self.grammar), "--target", _text(target), *caps]
            ref = {"kind": kind, "dfa": dfa, "target": target}
        return Op(label, argv + ["--format", "lines"], ref)

    def warmups(self, seed):
        """Small ops of both kinds; each is generated just before it runs."""
        rng = _rng(self.name, seed, "warmup")
        yield self._op(rng, "re", 1, [], "warmup")
        yield self._op(rng, "reg", (2, 2), ["--max-len", "7", "--max-rounds", "2"], "warmup", (3,))

    def op(self, seed, i) -> Op:
        kind, size = _scheduled(self.name, seed, i, self.combos)
        label = f"re{size}" if kind == "re" else "reg-dfa{}-{}".format(*size)
        return self._op(_rng(self.name, seed, i), kind, size, TRACE_REG_CAPS, label)

    def check(self, op: Op, res: Result) -> Outcome:
        bad = _base_outcome(res)
        if bad:
            return bad
        ref = op.ref
        if ref["kind"] == "re":
            sim = res.captured.get("simulate_derivation")
            if res.code != 0 or sim is None:
                return Outcome("error", f"exit {res.code}: {res.stderr!r}")
            events = [te.event for te in sim.events]
            current = ref["start"]
            for k, ev in enumerate(events):
                tp = ev.template
                if not _replay(ev, tp.e1, tp.d1, tp.c1, tp.c2) or ev.alpha + ev.beta + ev.gamma != tp.body:
                    return Outcome("misreport", f"event {k} does not replay")
                if current not in (ev.x, ev.y):
                    return Outcome("misreport", f"event {k} does not continue the trace")
                current = ev.w
            if current != ref["final"]:
                return Outcome("misreport", f"trace ends in {_text(current)!r}")
        else:
            events = res.captured.get("derivation_trace")
            if res.code != 0 or not events:
                return Outcome("error", f"exit {res.code}: {res.stderr!r}")
            dfa = ref["dfa"]
            known = dfa.base_words()
            for k, ev in enumerate(events):
                if not _replay(ev) or ev.alpha + ev.beta + ev.gamma != ev.template:
                    return Outcome("misreport", f"event {k} does not replay")
                if ev.x not in known or ev.y not in known:
                    return Outcome("misreport", f"event {k} uses a word not derived before it")
                if not dfa.is_path(ev.w):
                    return Outcome("misreport", f"event {k} yields {_text(ev.w)!r}, not a DFA path")
                known.add(ev.w)
            if events[-1].w != ref["target"]:
                return Outcome("misreport", f"trace ends in {_text(events[-1].w)!r}")
        problem = _check_stdout_trace(res.stdout, events)
        if problem:
            return Outcome("misreport", problem)
        return Outcome("ok")


WORKLOADS = {w.name: w for w in (RegCheck, ReCheck, Trace)}

# Return values the checks read, captured where the callers look them up:
# (module, attribute, capture key).
CAPTURES = [
    ("regcompile", "pipeline_language", "pipeline_language"),
    ("regcompile", "closure", "closure"),
    ("recompile", "closure_pc", "closure_pc"),
    ("cli", "derivation_trace", "derivation_trace"),
    ("cli", "simulate_derivation", "simulate_derivation"),
]

from __future__ import annotations

import random
from pathlib import Path

import pytest

from tgrkit import RegularGrammar, parse_grammar
from tgrkit.grammars import Rule
from tgrkit.words import make_alphabet

DATA = Path(__file__).parent / "data"
# Tokens some text format gives a meaning ("@" the empty word, "->" a rule's
# arrow, "#" a comment), next to plain ones: round-trip tests draw from these.
TEXT_SYMBOLS = ["a", "b", "S", "A", "@", "->", "#", "$", "&", "X'"]


def load_grammar(name: str):
    return parse_grammar((DATA / name).read_text())


def random_regular_grammar(rng: random.Random) -> RegularGrammar:
    nts = rng.sample(["S", "X", "Y"], rng.randint(1, 3))
    if "S" not in nts:
        nts[0] = "S"
    ts = rng.sample(["a", "b", "c"], rng.randint(1, 3))
    rules = set()
    for _ in range(rng.randint(1, 6)):
        lhs = (rng.choice(nts),)
        shape = rng.randint(0, 2)
        if shape == 0:
            rules.add(Rule(lhs, (rng.choice(ts), rng.choice(nts))))
        elif shape == 1:
            rules.add(Rule(lhs, (rng.choice(ts),)))
        else:
            rules.add(Rule(lhs, ()))
    return RegularGrammar(make_alphabet(nts), make_alphabet(ts), "S", tuple(rules))


@pytest.fixture
def astar_b():
    return load_grammar("astar_b.grammar")


@pytest.fixture
def anbn():
    return load_grammar("anbn.kuroda")

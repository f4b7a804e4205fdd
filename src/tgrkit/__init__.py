"""tgrkit: a workbench for template-guided recombination systems.

Compiles regular grammars to plain recombination systems and Kuroda
grammars to contextual systems with permitting contexts, evaluates both by
bounded iterated closure, and validates the results against brute-force
grammar oracles.
"""

from .words import (
    Alphabet,
    FiniteLanguage,
    WeakCoding,
    Word,
    parse_language,
    word,
    word_text,
    words_up_to,
)
from .patterns import Atom, Concat, Pattern, Star, Union, matches, parse_pattern, pattern_text
from .grammars import (
    KurodaGrammar,
    MembershipVerdict,
    RegularGrammar,
    Rule,
    SearchCaps,
    Verdict,
    enumerate_language,
    grammar_text,
    membership,
    parse_grammar,
)
from .tgr import (
    ClosureResult,
    RecombinationEvent,
    TGRSystem,
    closure,
    derivation_trace,
    recombine,
    step,
)
from .ctgr import (
    CTGRSystem,
    PCTemplate,
    parse_tau,
    tau,
)
from .regcompile import (
    ComplexityReport,
    EquivReport,
    compile_regular,
    complexity_report,
    equiv_check,
    pipeline_language,
)
from .recompile import (
    SimulationTrace,
    SoundnessReport,
    compile_kuroda,
    pipeline_language_pc,
    rotate_cycle,
    simulate_derivation,
    soundness_check,
)
from .dumps import Compiled, LoadedDump, dump_text, load_dump
from .errors import (
    CodingDomainError,
    FormatError,
    ResourceLimitError,
    TgrkitError,
    TraceError,
)

__version__ = "0.1.0"

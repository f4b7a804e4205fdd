from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import tgrkit
from tgrkit import Compiled, compile_kuroda, compile_regular, ctgr, parse_grammar, tgr

SRC = Path(__file__).parent.parent / "src" / "tgrkit"
BENCH = Path(__file__).parent.parent / "tgrbench"


def test_source_lines_fit_in_100_characters():
    long_lines = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 100
    ]
    assert not long_lines


def test_private_names_are_used():
    # A module-level _name that no code in src/ refers to is dead code.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    defined = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(name, t.id) for t in targets if isinstance(t, ast.Name)]
    unused = [f"{path}:{n}" for path, n in defined
              if n.startswith("_") and not n.startswith("__") and n not in used]
    assert not unused


def calls(text: str) -> list[str]:
    return [node.func.id for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]


def test_tgr_is_kind_agnostic():
    # Both system kinds reach tgr only through tgr.System and its `parts`.
    text = (SRC / "tgr.py").read_text(encoding="utf-8")
    assert "CTGRSystem" not in text and "template_splits" not in text
    assert "isinstance" not in calls(text)


def test_dumps_and_tau_separators_stay_with_their_kind():
    # Dumps reach a kind only through its `kind` and `word`; only ctgr knows
    # the tau separators, which other modules see as `CTGRSystem.reserved`.
    assert "isinstance" not in calls((SRC / "dumps.py").read_text(encoding="utf-8"))
    for path in SRC.glob("*.py"):
        if path.name != "ctgr.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                      for alias in node.names}
            assert not names & {"HASH", "DOLLAR", "AMP"}, path.name
    for name in ("tgr.py", "dumps.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        assert not strings & {"#", "$", "&"}, name


def test_public_api_names_each_operation_once():
    # The _pc names and dump_compiled_re are benchmark seams in recompile and cli, not API.
    aliases = {"closure_pc", "recombine_pc", "dump_compiled_re", "CompiledRegular", "CompiledRE"}
    assert not aliases & set(dir(tgrkit))
    tgr_functions = {id(fn) for fn in vars(tgr).values()
                     if inspect.isfunction(fn) and fn.__module__ == tgr.__name__}
    assert not [name for name, obj in vars(ctgr).items() if id(obj) in tgr_functions]
    data = SRC.parent.parent / "tests" / "data"
    for compile_, name in ((compile_regular, "astar_b.grammar"), (compile_kuroda, "anbn.kuroda")):
        grammar = parse_grammar((data / name).read_text(encoding="utf-8"))
        cr = compile_(grammar)
        assert type(cr) is Compiled and cr.grammar is grammar


def bench_module(monkeypatch, name):
    """Import tgrbench/<name>.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"tgrbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def resolves(module: str, *path: str) -> bool:
    obj = importlib.import_module(f"tgrkit.{module}")
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_benchmark_capture_points_exist(monkeypatch):
    # The benchmark wraps these names where their callers look them up, so
    # deleting or renaming one breaks `tgrbench/run.py`.
    tracing = bench_module(monkeypatch, "tracing")
    workloads = bench_module(monkeypatch, "workloads")
    points = [(mod, attr) for mod, attr, *_ in tracing.COLD + tracing.HOT + workloads.CAPTURES]
    points += [(mod, cls, attr) for mod, cls, attr, _ in tracing.HOT_METHODS]
    missing = [p for p in points if not resolves(*p)]
    assert points and not missing, missing

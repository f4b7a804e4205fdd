"""In-memory spans around the calls into each tgrkit module, recorded from outside.

Wrappers are installed at the names the callers look up (``cli.load_dump``,
``regcompile.closure``, ``tgr.recombine`` and so on), so the program itself is
unchanged; they are removed again after every traced op.  Functions called
thousands of times per op get one aggregate span per (op, parent span) with
a call count and summed time instead of one span per call.  Self times are
derived from the spans afterwards: a span's duration minus the time its
child spans and aggregates cover.  Calls are strictly nested (one thread),
so children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class Span:
    op: str
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)


@dataclass
class Aggregate:
    op: str
    parent: int | None
    name: str
    calls: int = 0
    total: float = 0.0
    hits: int = 0


def _closure_info(res) -> dict:
    return {"words": len(res.language), "rounds": res.rounds_used}


def _templates_info(res) -> dict:
    return {"templates": len(res.system.templates)}


def _events_info(res) -> dict:
    return {"events": len(res.events)}


def _no_info(res) -> dict:
    return {}


# (module, attribute, span name, info extractor); the module is the caller
# whose global lookup is redirected, the span name is the callee's layer.
COLD = [
    ("cli", "main", "cli.main", _no_info),
    ("cli", "parse_grammar", "grammars.parse_grammar", _no_info),
    ("cli", "compile_regular", "regcompile.compile_regular", _templates_info),
    ("cli", "equiv_check", "regcompile.equiv_check", _no_info),
    ("regcompile", "pipeline_language", "regcompile.pipeline_language", _no_info),
    ("regcompile", "closure", "tgr.closure", _closure_info),
    ("regcompile", "enumerate_language", "grammars.enumerate_language", _no_info),
    ("cli", "closure", "tgr.closure", _closure_info),
    ("cli", "derivation_trace", "tgr.derivation_trace", _no_info),
    ("cli", "compile_kuroda", "recompile.compile_kuroda", _templates_info),
    ("cli", "soundness_check", "recompile.soundness_check", _no_info),
    ("recompile", "pipeline_language_pc", "recompile.pipeline_language_pc", _no_info),
    ("recompile", "closure_pc", "ctgr.closure_pc", _closure_info),
    ("recompile", "membership", "grammars.membership", _no_info),
    ("cli", "closure_pc", "ctgr.closure_pc", _closure_info),
    ("cli", "load_dump", "dumps.load_dump", _no_info),
    ("cli", "simulate_derivation", "recompile.simulate_derivation", _events_info),
    ("recompile", "dump_compiled_re", "recompile.dump_compiled_re", _no_info),
]

# Hot functions: (module, attribute, span name, counts-as-hit predicate).
HOT = [
    ("regcompile", "matches", "patterns.matches", bool),
    ("recompile", "matches", "patterns.matches", bool),
    ("tgr", "recombine", "tgr.recombine", bool),
    ("recompile", "recombine_pc", "ctgr.recombine_pc", bool),
]

# Methods looked up on a class by every caller.
HOT_METHODS = [
    ("words", "WeakCoding", "apply", "words.WeakCoding.apply"),
]


class Tracer:
    """Collects spans and aggregates for the ops run under `installed`."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.aggregates: list[Aggregate] = []
        self._stack: list[tuple[Span, dict]] = []
        self._root_aggregates: dict[str, Aggregate] = {}
        self._op = ""
        self._next_id = 0

    def _cold(self, name, fn, info):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0].id if self._stack else None
            span = Span(self._op, self._next_id, parent, name, 0.0)
            self._next_id += 1
            self._stack.append((span, {}))
            span.start = _clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                span.end = _clock()
                self._stack.pop()
                self.spans.append(span)
            span.info = info(res)
            return res

        return wrapper

    def _aggregate(self, name: str) -> Aggregate:
        parent, aggs = self._stack[-1] if self._stack else (None, self._root_aggregates)
        agg = aggs.get(name)
        if agg is None:
            agg = aggs[name] = Aggregate(self._op, parent.id if parent else None, name)
            self.aggregates.append(agg)
        return agg

    def _hot(self, name, fn, hit):
        def wrapper(*args, **kwargs):
            start = _clock()
            res = fn(*args, **kwargs)
            elapsed = _clock() - start
            agg = self._aggregate(name)
            agg.calls += 1
            agg.total += elapsed
            if hit(res):
                agg.hits += 1
            return res

        return wrapper

    @contextlib.contextmanager
    def installed(self, op: str):
        """Redirect every listed name to a span-recording wrapper while the block runs."""
        saved = []
        for table, make in ((COLD, self._cold), (HOT, self._hot)):
            for mod, attr, name, extra in table:
                module = self.modules[mod]
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, make(name, fn, extra))
        for mod, cls_name, attr, name in HOT_METHODS:
            cls = getattr(self.modules[mod], cls_name)
            fn = cls.__dict__[attr]
            saved.append((cls, attr, fn))
            setattr(cls, attr, self._hot(name, fn, lambda _res: False))
        self._op = op
        try:
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self._stack.clear()
            self._root_aggregates.clear()

    def self_times(self) -> dict[int, float]:
        """Self time per span id: duration minus child spans and aggregates."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
        for a in self.aggregates:
            if a.parent is not None:
                covered[a.parent] = covered.get(a.parent, 0.0) + a.total
        return {s.id: (s.end - s.start) - covered.get(s.id, 0.0) for s in self.spans}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"kind": "span", **s.__dict__}) + "\n")
            for a in self.aggregates:
                f.write(json.dumps({"kind": "aggregate", **a.__dict__}) + "\n")


# Span name -> the per-layer `_s` metric its self time counts toward.
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "grammars.parse_grammar": "grammars.parse_s",
    "grammars.enumerate_language": "grammars.oracle_s",
    "grammars.membership": "grammars.oracle_s",
    "regcompile.compile_regular": "regcompile.compile_s",
    "regcompile.equiv_check": "regcompile.check_s",
    "regcompile.pipeline_language": "regcompile.check_s",
    "tgr.closure": "tgr.closure_s",
    "tgr.derivation_trace": "tgr.trace_s",
    "recompile.compile_kuroda": "recompile.compile_s",
    "recompile.soundness_check": "recompile.check_s",
    "recompile.pipeline_language_pc": "recompile.check_s",
    "recompile.simulate_derivation": "recompile.trace_s",
    "ctgr.closure_pc": "ctgr.closure_s",
    "dumps.load_dump": "dumps.load_s",
}
AGGREGATE_METRIC = {
    "patterns.matches": "patterns.match_s",
    "words.WeakCoding.apply": "words.coding_s",
    "tgr.recombine": "tgr.recombine_s",
    "ctgr.recombine_pc": "ctgr.recombine_pc_s",
}

# Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    "tgr.closure_s": "s",
    "tgr.closure_words": "count",
    "tgr.closure_rounds": "count",
    "tgr.words_per_s": "1/s",
    "tgr.trace_s": "s",
    "tgr.recombine_s": "s",
    "tgr.recombine_calls": "count",
    "tgr.recombine_hit_ratio": "ratio",
    "patterns.match_s": "s",
    "patterns.match_calls": "count",
    "patterns.accept_ratio": "ratio",
    "words.coding_s": "s",
    "grammars.parse_s": "s",
    "grammars.oracle_s": "s",
    "regcompile.compile_s": "s",
    "regcompile.templates": "count",
    "regcompile.check_s": "s",
    "recompile.compile_s": "s",
    "recompile.templates": "count",
    "recompile.dump_s": "s",
    "recompile.check_s": "s",
    "recompile.trace_s": "s",
    "recompile.trace_events": "count",
    "ctgr.closure_s": "s",
    "ctgr.closure_words": "count",
    "ctgr.closure_rounds": "count",
    "ctgr.recombine_pc_s": "s",
    "ctgr.recombine_pc_calls": "count",
    "dumps.load_s": "s",
    "cli.self_s": "s",
    "tracing.overhead_s": "s",
}


def layer_metrics(
    tracer: Tracer, ops: list[str], scale: dict[str, float], traced_s: list[float],
    untraced_s: list[float],
) -> dict[str, float]:
    """Per-op means over the traced ops named in `ops`.

    Span times are multiplied by their op's entry in `scale` (reference
    seconds, see clock.py); `scale["setup"]` applies to set-up spans.
    `_s` metrics are summed self time divided by the op count; counts are
    summed and divided likewise.  Ratios are left 0 when their base is 0
    (the layer is not called on this workload).  `recompile.dump_s` is the
    mean time per dump written during set-up, the only place dumps are
    written.  `tracing.overhead_s` is traced minus untraced median op time
    over the same inputs.
    """
    wanted = set(ops)
    n = len(ops)
    out = {name: 0.0 for name in LAYER_METRICS}
    self_s = tracer.self_times()
    for s in tracer.spans:
        if s.op not in wanted:
            continue
        metric = SELF_METRIC.get(s.name)
        if metric:
            out[metric] += self_s[s.id] * scale[s.op]
        # A span whose call raised has no info.
        info = s.info
        if s.name == "tgr.closure":
            out["tgr.closure_words"] += info.get("words", 0)
            out["tgr.closure_rounds"] += info.get("rounds", 0)
        elif s.name == "ctgr.closure_pc":
            out["ctgr.closure_words"] += info.get("words", 0)
            out["ctgr.closure_rounds"] += info.get("rounds", 0)
        elif s.name == "regcompile.compile_regular":
            out["regcompile.templates"] += info.get("templates", 0)
        elif s.name == "recompile.compile_kuroda":
            out["recompile.templates"] += info.get("templates", 0)
        elif s.name == "recompile.simulate_derivation":
            out["recompile.trace_events"] += info.get("events", 0)
    hits = {"tgr.recombine": 0, "patterns.matches": 0}
    for a in tracer.aggregates:
        if a.op not in wanted:
            continue
        out[AGGREGATE_METRIC[a.name]] += a.total * scale[a.op]
        if a.name == "tgr.recombine":
            out["tgr.recombine_calls"] += a.calls
        elif a.name == "ctgr.recombine_pc":
            out["ctgr.recombine_pc_calls"] += a.calls
        elif a.name == "patterns.matches":
            out["patterns.match_calls"] += a.calls
        if a.name in hits:
            hits[a.name] += a.hits
    if out["tgr.closure_s"] > 0:
        out["tgr.words_per_s"] = out["tgr.closure_words"] / out["tgr.closure_s"]
    if out["tgr.recombine_calls"]:
        out["tgr.recombine_hit_ratio"] = hits["tgr.recombine"] / out["tgr.recombine_calls"]
    if out["patterns.match_calls"]:
        out["patterns.accept_ratio"] = hits["patterns.matches"] / out["patterns.match_calls"]
    ratios = {"tgr.words_per_s", "tgr.recombine_hit_ratio", "patterns.accept_ratio"}
    for name in LAYER_METRICS:
        if name not in ratios:
            out[name] /= n
    dumps = [(s.end - s.start) * scale["setup"] for s in tracer.spans
             if s.op == "setup" and s.name == "recompile.dump_compiled_re"]
    out["recompile.dump_s"] = statistics.fmean(dumps) if dumps else 0.0
    out["tracing.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return out

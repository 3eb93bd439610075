"""Span tracing from outside the program.

`Tracer.install` wraps public functions of sliceweaver at the module
attributes their callers look up (for example `sliceweaver.agents.serialize_state`,
which `build_specialist_message` calls, rather than `sliceweaver.model`).
Each call records a span: name, start, end, parent span, op id and an
optional value taken from the result. Start and end are read from the
process CPU clock, which the end-to-end figures are scaled from, so time
the process spends waiting for a shared processor is not counted as a
layer's time. Spans stay in memory; `per_layer` turns them into per-op
figures and `write_jsonl` writes them out.

`compute_utility` and `check_constraints` are wrapped only where they are
called outside `solve`: the oracle imports its own references, which are
left alone, so the per-candidate loop is not traced.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import process_time

# (module, attribute, span name, what to keep from the result). The module
# is the one whose namespace the callers use.
FUNCTIONS = (
    ("intent", "classify_intent", "intent.classify_intent", None),
    ("oracle", "classify_intent", "intent.classify_intent", None),
    ("harness", "classify_intent", "intent.classify_intent", None),
    ("cli", "classify_intent", "intent.classify_intent", None),
    ("oracle", "solve", "oracle.solve", len),
    ("harness", "solve", "oracle.solve", len),
    ("cli", "solve", "oracle.solve", len),
    ("harness", "rule_based_provision", "oracle.rule_based_provision", None),
    ("cli", "rule_based_provision", "oracle.rule_based_provision", None),
    ("agents", "serialize_state", "model.serialize_state", len),
    ("agents", "apply_provisioning", "model.apply_provisioning", None),
    ("model", "load_state", "model.load_state", None),
    ("cli", "load_state", "model.load_state", None),
    ("agents", "load_prompts", "agents.load_prompts", None),
    ("cli", "load_prompts", "agents.load_prompts", None),
    ("harness", "load_scenarios", "harness.load_scenarios", None),
    ("cli", "load_scenarios", "harness.load_scenarios", None),
    ("agents", "run_react", "agents.run_react", lambda t: t.iterations),
    ("harness", "run_react", "agents.run_react", lambda t: t.iterations),
    ("cli", "run_react", "agents.run_react", lambda t: t.iterations),
    ("harness", "run_single_pass", "agents.run_single_pass", None),
    ("agents", "consult_specialist", "agents.consult_specialist", None),
    ("agents", "parse_action", "agents.parse_action",
     lambda actions: sum(a.kind.value == "NONE" for a in actions)),
    ("scoring", "compute_utility", "scoring.compute_utility", None),
    ("harness", "compute_utility", "scoring.compute_utility", None),
    ("cli", "compute_utility", "scoring.compute_utility", None),
    ("scoring", "check_constraints", "scoring.check_constraints", None),
    ("cli", "check_constraints", "scoring.check_constraints", None),
    ("harness", "run_benchmark", "harness.run_benchmark",
     lambda r: (sum(rec.error is not None for rec in r.records), len(r.records))),
    ("cli", "run_benchmark", "harness.run_benchmark",
     lambda r: (sum(rec.error is not None for rec in r.records), len(r.records))),
    ("harness", "run_scenario", "harness.run_scenario", None),
    ("harness", "emit_report", "harness.emit_report", None),
    ("cli", "emit_report", "harness.emit_report", None),
    ("cli", "main", "cli.main", None),
)

# (module, class, method, span name, what to keep from the result).
METHODS = (
    ("intent", "Lexicon", "from_file", "intent.Lexicon.from_file", None),
    ("gateway", "SuiteFixture", "from_file", "gateway.SuiteFixture.from_file", None),
    ("gateway", "ChatSession", "complete", "gateway.ChatSession.complete",
     lambda r: r.prompt_tokens),
    ("gateway", "ScriptedBackend", "complete", "gateway.ScriptedBackend.complete", None),
)

NAME, START, END, PARENT, OP, VALUE, ERROR = range(7)


class Tracer:
    """Records spans for calls into wrapped functions (single thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, keep):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = process_time()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[END] = process_time()
                record[ERROR] = type(exc).__name__
                raise
            else:
                record[END] = process_time()
            finally:
                stack.pop()
            if keep is not None:
                record[VALUE] = keep(result)
            return result

        return traced

    def install(self, sw) -> None:
        """Wrap every entry of FUNCTIONS and METHODS in the package `sw`."""
        for module_name, attr, name, keep in FUNCTIONS:
            module = getattr(sw, module_name)
            original = module.__dict__[attr]
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, keep))
        for module_name, class_name, attr, name, keep in METHODS:
            owner = getattr(getattr(sw, module_name), class_name)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, original.__func__, keep)))
            else:
                setattr(owner, attr, self._wrap(name, original, keep))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        """One JSON array per line: a header naming the fields, then the
        spans in call order; `parent` counts spans from 0, header excluded."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(["name", "start", "end", "parent", "op", "value", "error"]))
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class _Layer:
    __slots__ = ("calls", "total", "self_time", "values", "errors", "all_calls")

    def __init__(self) -> None:
        self.calls = 0          # calls made by timed ops
        self.total = 0.0        # duration of every call, set-up included
        self.all_calls = 0      # calls of any kind, for per-call means
        self.self_time = 0.0    # self time of calls made by timed ops
        self.values: list = []
        self.errors = 0


def per_layer(spans: list[list], ops: int, overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced window of `ops` ops.

    Spans with an op id belong to the window; spans without one (set-up)
    count only towards the `.ms` per-call figures. A self time is a span's
    duration minus the durations of its direct children, which in one
    thread never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    layers: dict[str, _Layer] = defaultdict(_Layer)
    for i, span in enumerate(spans):
        layer = layers[span[NAME]]
        duration = span[END] - span[START]
        layer.total += duration
        layer.all_calls += 1
        if span[OP] is None:
            continue
        layer.calls += 1
        layer.self_time += duration - child_time[i]
        if span[ERROR] is not None:
            layer.errors += 1
        elif span[VALUE] is not None:
            layer.values.append(span[VALUE])

    def get(name: str) -> _Layer:
        return layers.get(name) or _Layer()

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    n = max(ops, 1)
    out: dict[str, tuple[float, str]] = {}

    def calls(name: str) -> None:
        out[f"{name}.calls_per_op"] = (get(name).calls / n, "count")

    def self_ms(name: str) -> None:
        out[f"{name}.self_ms_per_op"] = (get(name).self_time * 1e3 / n, "ms")

    def setup_ms(name: str) -> None:
        layer = get(name)
        out[f"{name}.ms"] = (ratio(layer.total * 1e3, layer.all_calls), "ms")

    calls("intent.classify_intent")
    self_ms("intent.classify_intent")
    solve = get("oracle.solve")
    candidates = sum(solve.values)
    calls("oracle.solve")
    self_ms("oracle.solve")
    out["oracle.solve.candidates_per_call"] = (ratio(candidates, len(solve.values)), "count")
    out["oracle.solve.us_per_candidate"] = (ratio(solve.self_time * 1e6, candidates), "us")
    self_ms("oracle.rule_based_provision")
    serialize = get("model.serialize_state")
    calls("model.serialize_state")
    self_ms("model.serialize_state")
    out["model.serialize_state.chars_per_call"] = (
        ratio(sum(serialize.values), len(serialize.values)), "chars")
    apply = get("model.apply_provisioning")
    calls("model.apply_provisioning")
    out["model.apply_provisioning.self_us_per_call"] = (
        ratio(apply.self_time * 1e6, apply.calls), "us")
    out["model.apply_provisioning.failures_per_op"] = (apply.errors / n, "count")
    for name in ("model.load_state", "intent.Lexicon.from_file", "agents.load_prompts",
                 "gateway.SuiteFixture.from_file", "harness.load_scenarios"):
        setup_ms(name)
    complete = get("gateway.ChatSession.complete")
    calls("gateway.ChatSession.complete")
    self_ms("gateway.ChatSession.complete")
    self_ms("gateway.ScriptedBackend.complete")
    out["gateway.prompt_tokens_per_call"] = (
        ratio(sum(complete.values), len(complete.values)), "tokens")
    out["gateway.errors_per_op"] = (complete.errors / n, "count")
    react = get("agents.run_react")
    calls("agents.run_react")
    self_ms("agents.run_react")
    out["agents.run_react.iterations_per_call"] = (
        ratio(sum(react.values), len(react.values)), "count")
    self_ms("agents.run_single_pass")
    calls("agents.consult_specialist")
    parse = get("agents.parse_action")
    out["agents.parse_action.self_us_per_call"] = (
        ratio(parse.self_time * 1e6, parse.calls), "us")
    out["agents.parse_errors_per_op"] = (parse.errors / n, "count")
    # A completion is wasted when its ACTION line failed to parse, carried no
    # ACTION, or asked for a provisioning that failed.
    wasted = parse.errors + sum(parse.values) + apply.errors
    out["agents.useful_completion_ratio"] = (
        ratio(complete.calls - wasted, complete.calls), "ratio")
    calls("scoring.compute_utility")
    calls("scoring.check_constraints")
    for name in ("harness.run_benchmark", "harness.run_scenario", "harness.emit_report"):
        self_ms(name)
    bench = get("harness.run_benchmark")
    out["harness.records_failed_ratio"] = (
        ratio(sum(f for f, _ in bench.values), sum(t for _, t in bench.values)), "ratio")
    calls("cli.main")
    self_ms("cli.main")
    out["trace.overhead"] = (overhead, "ratio")
    return out

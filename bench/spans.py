"""In-memory spans around each layer's public entry points.

Tracing is installed from the benchmark side only: for every traced
function it replaces the module attribute that the *caller* looks up
(``cli`` and ``algebra`` import engine and model functions by name, and the
engine calls its own helpers through its module globals). Nothing under
``src/`` changes.

A span is ``[name, start, end, parent]``; spans live in one list until the
run ends. Self time is a span's duration minus its child spans' durations.
Counters are exact work counts read from arguments and results at the same
boundaries.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# span name -> the (module, attribute) pairs that callers look the function up by
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.run_check": (("sccheck.cli", "run_check"),),
    "parser.parse_only": (("sccheck.cli", "parse_only"),),
    "parser.merge_documents": (("sccheck.cli", "merge_documents"),),
    "parser.resolve_document": (("sccheck.cli", "resolve_document"),),
    "loader.elaborate": (("sccheck.cli", "elaborate"),),
    "algebra.compose_contracts": (("sccheck.cli", "compose_contracts"),),
    "algebra.check_compatibility": (("sccheck.cli", "check_compatibility"),),
    "algebra.check_consistency": (("sccheck.cli", "check_consistency"),),
    "algebra.check_refinement": (("sccheck.cli", "check_refinement"),),
    "algebra.interpret_composed_finite": (
        ("sccheck.cli", "interpret_composed_finite"),
        ("sccheck.algebra", "interpret_composed_finite"),
    ),
    "algebra.verify_min_characterization": (("sccheck.cli", "verify_min_characterization"),),
    "model.interpret_finite": (("sccheck.cli", "interpret_finite"),),
    "engine.check_implication": (("sccheck.algebra", "check_implication"),),
    "engine.decide_satisfiability": (
        ("sccheck.algebra", "decide_satisfiability"),
        ("sccheck.engine", "decide_satisfiability"),
    ),
    "engine.normalize": (("sccheck.algebra", "normalize"), ("sccheck.engine", "normalize")),
    "engine.fm_project": (("sccheck.algebra", "fm_project"),),
    "engine.fm_eliminate": (("sccheck.engine", "fm_eliminate"),),
    "engine.fm_witness": (("sccheck.engine", "fm_witness"),),
    "engine.interval_eval": (("sccheck.engine", "interval_eval"),),
    "engine.sample_falsify": (("sccheck.engine", "sample_falsify"),),
}

# counted, never spanned: one exact evaluation is too small to time
EVAL_SITES = (("sccheck.model", "eval_assertion"), ("sccheck.engine", "eval_assertion"), ("sccheck.algebra", "eval_assertion"))

# recursive through its own module global: only the outermost call is a span
REENTRANT = {"engine.interval_eval"}

CHECK_KINDS = {
    "algebra.check_compatibility": "compatibility",
    "algebra.check_consistency": "consistency",
    "algebra.check_refinement": "refinement",
}


class Tracer:
    """Installs the wrappers, records spans and counters, and restores the
    original attributes on ``uninstall``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        # check calls of the current op; the arguments are kept so that their
        # ids stay unique until the op ends
        self._seen_checks: dict[tuple, tuple] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, sites in SPANS.items():
            original = _lookup(sites[0])
            wrapper = self._span_wrapper(name, original)
            for site in sites:
                self._patch(site, wrapper)
        original = _lookup(EVAL_SITES[0])
        wrapper = self._eval_wrapper(original)
        for site in EVAL_SITES:
            self._patch(site, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, site: tuple[str, str], wrapper) -> None:
        module = importlib.import_module(site[0])
        self._saved.append((module, site[1], getattr(module, site[1])))
        setattr(module, site[1], wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        on_call = self._on_call
        reentrant = name in REENTRANT

        def wrapper(*args, **kwargs):
            if reentrant and stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            on_call(name, args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                self._on_error(name, exc)
                raise
            span[2] = clock()
            stack.pop()
            self._on_result(name, args, result)
            return result

        return wrapper

    def _eval_wrapper(self, fn):
        spans, stack, counters = self.spans, self.stack, self.counters

        def wrapper(*args, **kwargs):
            counters["model.eval_assertion.calls"] += 1
            if stack and spans[stack[-1]][0] == "engine.sample_falsify":
                counters["engine.sample_falsify.evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters ------------------------------------------------------------

    def _on_call(self, name: str, args: tuple) -> None:
        if name == "cli.run_check":
            self._seen_checks.clear()  # repeats count within one op
        kind = CHECK_KINDS.get(name)
        if kind is not None:
            self.counters["algebra.checks.calls"] += 1
            key = (kind,) + tuple(id(a) for a in args[:2])
            if key in self._seen_checks:
                self.counters["algebra.checks.repeats"] += 1
            self._seen_checks[key] = args

    def _on_result(self, name: str, args: tuple, result) -> None:
        c = self.counters
        if name == "engine.normalize":
            c["engine.normalize.disjuncts"] += len(result.disjuncts)
        elif name == "engine.fm_eliminate":
            c["engine.fm_eliminate.constraints"] += len(result.constraints)
        elif name == "engine.fm_witness":
            c["engine.fm_witness.sat"] += result is not None
        elif name == "engine.decide_satisfiability":
            c[f"engine.decide_satisfiability.{result.status}"] += 1
        elif name == "engine.sample_falsify":
            c["engine.sample_falsify.hits"] += result is not None
        elif name == "algebra.compose_contracts":
            c["algebra.compose_contracts.exact"] += result.projection == "exact"

    def _on_error(self, name: str, exc: BaseException) -> None:
        if name == "engine.normalize" and type(exc).__name__ == "DnfCapExceeded":
            self.counters["engine.normalize.cap_exceeded"] += 1

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out


def _lookup(site: tuple[str, str]):
    return getattr(importlib.import_module(site[0]), site[1])


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, counters: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit)."""

    def self_s(name: str) -> tuple[float, str]:
        return summary.get(name, {}).get("self_s", 0.0), "s"

    def calls(name: str) -> int:
        return int(summary.get(name, {}).get("calls", 0))

    def count(value) -> tuple[float, str]:
        return value, "count"

    def ratio(value) -> tuple[float, str]:
        return value, "ratio"

    c = counters
    return {
        "engine.normalize.self_s": self_s("engine.normalize"),
        "engine.normalize.calls": count(calls("engine.normalize")),
        "engine.normalize.disjuncts": count(c["engine.normalize.disjuncts"]),
        "engine.normalize.cap_exceeded": count(c["engine.normalize.cap_exceeded"]),
        "engine.fm_project.self_s": self_s("engine.fm_project"),
        "engine.fm_eliminate.self_s": self_s("engine.fm_eliminate"),
        "engine.fm_eliminate.calls": count(calls("engine.fm_eliminate")),
        "engine.fm_eliminate.constraints": count(c["engine.fm_eliminate.constraints"]),
        "engine.fm_witness.self_s": self_s("engine.fm_witness"),
        "engine.fm_witness.calls": count(calls("engine.fm_witness")),
        "engine.fm_witness.sat_ratio": ratio(_ratio(c["engine.fm_witness.sat"], calls("engine.fm_witness"))),
        "engine.decide_satisfiability.self_s": self_s("engine.decide_satisfiability"),
        "engine.decide_satisfiability.calls": count(calls("engine.decide_satisfiability")),
        "engine.decide_satisfiability.sat": count(c["engine.decide_satisfiability.sat"]),
        "engine.decide_satisfiability.unsat": count(c["engine.decide_satisfiability.unsat"]),
        "engine.decide_satisfiability.unknown": count(c["engine.decide_satisfiability.unknown"]),
        "engine.interval_eval.self_s": self_s("engine.interval_eval"),
        "engine.interval_eval.calls": count(calls("engine.interval_eval")),
        "engine.sample_falsify.self_s": self_s("engine.sample_falsify"),
        "engine.sample_falsify.calls": count(calls("engine.sample_falsify")),
        "engine.sample_falsify.hit_ratio": ratio(
            _ratio(c["engine.sample_falsify.hits"], calls("engine.sample_falsify"))
        ),
        "engine.sample_falsify.evals": count(c["engine.sample_falsify.evals"]),
        "algebra.compose_contracts.self_s": self_s("algebra.compose_contracts"),
        "algebra.compose_contracts.calls": count(calls("algebra.compose_contracts")),
        "algebra.compose_contracts.exact_ratio": ratio(
            _ratio(c["algebra.compose_contracts.exact"], calls("algebra.compose_contracts"))
        ),
        "algebra.checks.calls": count(c["algebra.checks.calls"]),
        "algebra.checks.repeat_ratio": ratio(_ratio(c["algebra.checks.repeats"], c["algebra.checks.calls"])),
        "algebra.interpret_composed_finite.self_s": self_s("algebra.interpret_composed_finite"),
        "algebra.verify_min_characterization.self_s": self_s("algebra.verify_min_characterization"),
        "model.interpret_finite.self_s": self_s("model.interpret_finite"),
        "model.eval_assertion.calls": count(c["model.eval_assertion.calls"]),
        "parser.parse_only.self_s": self_s("parser.parse_only"),
        "parser.resolve_document.self_s": self_s("parser.resolve_document"),
        "loader.elaborate.self_s": self_s("loader.elaborate"),
        "cli.run_check.self_s": self_s("cli.run_check"),
    }

"""Spans around the calls into each eprlab module, recorded from outside.

``install`` replaces module attributes of the imported package with
wrappers that record one span per call: name, start, end, parent span
and a work count taken from the result. Nothing under ``src/`` is
edited. A probe whose target attribute no longer exists is skipped and
reported as absent; every metric that needs it is then left out.

Spans stay in memory and are written once, when the traced run ends.
The recorder keeps one call stack, so the traced run uses one worker.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

#: The result of ``measure`` is the span's work count and bytes.
Measure = Callable[[object], tuple[int, int]]


def _array_size(result) -> tuple[int, int]:
    return int(getattr(result, "size", 0)), int(getattr(result, "nbytes", 0))


def _draws(result) -> tuple[int, int]:
    return int(getattr(result, "n", 0)), 0


@dataclass(frozen=True)
class Probe:
    module: str
    attribute: str
    span: str
    measure: Measure | None = None


_CLI_BOUND = {
    "load_scenario": "cli.load_scenario",
    "run_scenario": "cli.run_scenario",
    "mc_estimate": "estimator.mc_estimate",
    "compare": "estimator.compare",
    "exact_expectation": "lhv.exact_expectation",
    "spin_correlation": "correlators.spin_correlation",
    "quadrature_correlation": "correlators.quadrature_correlation",
    "free_evolution_correlation": "correlators.free_evolution_correlation",
    "chsh_value": "correlators.chsh_value",
    "unbounded_spin_model": "lhv.unbounded_spin_model",
    "quadrature_model": "lhv.quadrature_model",
    "free_evolution_model": "lhv.free_evolution_model",
    "sup_bound": "lhv.sup_bound",
    "tmsv": "gaussian.tmsv",
    "extract_moments": "gaussian.extract_moments",
}
_OPERATORS = ("pauli_observable", "tensor", "singlet_state", "expectation")

PROBES = (
    *(Probe("eprlab.cli", attr, span, _draws if attr == "mc_estimate" else None)
      for attr, span in _CLI_BOUND.items()),
    *(Probe("eprlab.correlators", attr, f"operators.{attr}") for attr in _OPERATORS),
    Probe("eprlab.estimator", "ndtri", "estimator.ndtri", _array_size),
    Probe("eprlab.estimator", "_raw_words", "estimator.raw_words", _array_size),
)

QUANTUM = ("correlators.spin_correlation", "correlators.quadrature_correlation",
           "correlators.free_evolution_correlation")
OPERATORS = tuple(f"operators.{attr}" for attr in _OPERATORS)
BUILD_MODEL = ("lhv.unbounded_spin_model", "lhv.quadrature_model", "lhv.free_evolution_model")
GAUSSIAN_STATE = ("gaussian.tmsv", "gaussian.extract_moments")


class Tracer:
    """In-memory span list: (name, start_ns, end_ns, parent index, work, bytes)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, measure: Measure | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                work, nbytes = measure(result) if measure and result is not None else (0, 0)
                spans[index] = (name, start, end, parent, work, nbytes)

        return traced

    def install(self, modules: dict) -> list[str]:
        """Wrap every probe target found in ``modules``; return the absent span names."""
        absent = []
        for probe in PROBES:
            module = modules.get(probe.module)
            target = getattr(module, probe.attribute, None)
            if target is None:
                absent.append(probe.span)
                continue
            setattr(module, probe.attribute, self.wrap(target, probe.span, probe.measure))
        return absent

    def dump(self, path, absent: list[str]) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": absent, "spans": self.spans}, fh)


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the part of it that its children cover, in ns."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class SpanIndex:
    """Aggregates over a span list, in seconds and counts."""

    def __init__(self, spans: list, absent: list[str]) -> None:
        self.spans = spans
        self.absent = set(absent)
        self._self = self_times(spans)
        self._by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            self._by_name.setdefault(span[0], []).append(i)

    def present(self, *names: str) -> bool:
        return not self.absent.intersection(names)

    def _indices(self, names):
        return [i for name in names for i in self._by_name.get(name, ())]

    def calls(self, *names: str) -> int:
        return len(self._indices(names))

    def work(self, *names: str) -> int:
        return sum(self.spans[i][4] for i in self._indices(names))

    def nbytes(self, *names: str) -> int:
        return sum(self.spans[i][5] for i in self._indices(names))

    def seconds(self, *names: str) -> float:
        """Time inside spans of ``names``, counting nested spans of the same set once."""
        total = 0
        for i in self._indices(names):
            span = self.spans[i]
            if not self._has_ancestor(span, names):
                total += span[2] - span[1]
        return total * 1e-9

    def self_seconds(self, *names: str) -> float:
        return sum(self._self[i] for i in self._indices(names)) * 1e-9

    def _has_ancestor(self, span, names) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False


def layer_metrics(index: SpanIndex) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    ``estimator.bytes_computed`` is computed from array sizes: the bytes
    of the Philox word arrays and of the ndtri outputs.
    """
    out: dict[str, tuple[float, str]] = {}

    def put(name, unit, needs, value):
        if index.present(*needs):
            out[name] = (value(), unit)

    mc, ndtri, raw = "estimator.mc_estimate", "estimator.ndtri", "estimator.raw_words"
    put("estimator.ndtri.calls", "count", [ndtri], lambda: index.calls(ndtri))
    put("estimator.ndtri.values", "count", [ndtri], lambda: index.work(ndtri))
    put("estimator.ndtri.s", "s", [ndtri], lambda: index.seconds(ndtri))
    put("estimator.other_s", "s", [mc, ndtri],
        lambda: index.seconds(mc) - index.seconds(ndtri))
    put("estimator.mc_estimate.calls", "count", [mc], lambda: index.calls(mc))
    put("estimator.mc_estimate.s", "s", [mc], lambda: index.seconds(mc))
    put("estimator.mc_estimate.us_per_call", "us", [mc],
        lambda: 1e6 * index.seconds(mc) / max(index.calls(mc), 1))
    put("estimator.draws", "count", [mc], lambda: index.work(mc))
    put("estimator.draws_per_s", "1/s", [mc],
        lambda: index.work(mc) / index.seconds(mc) if index.seconds(mc) else 0.0)
    put("estimator.words_computed", "words", [raw], lambda: index.work(raw))
    put("estimator.bytes_computed", "bytes", [raw, ndtri],
        lambda: index.nbytes(raw) + index.nbytes(ndtri))
    put("estimator.compare.s", "s", ["estimator.compare"],
        lambda: index.seconds("estimator.compare"))
    put("correlators.quantum.calls", "count", QUANTUM, lambda: index.calls(*QUANTUM))
    put("correlators.quantum.s", "s", QUANTUM, lambda: index.seconds(*QUANTUM))
    put("correlators.quantum.self_s", "s", QUANTUM, lambda: index.self_seconds(*QUANTUM))
    put("correlators.chsh_value.s", "s", ["correlators.chsh_value"],
        lambda: index.seconds("correlators.chsh_value"))
    put("operators.calls", "count", OPERATORS, lambda: index.calls(*OPERATORS))
    put("operators.s", "s", OPERATORS, lambda: index.seconds(*OPERATORS))
    put("lhv.exact_expectation.calls", "count", ["lhv.exact_expectation"],
        lambda: index.calls("lhv.exact_expectation"))
    put("lhv.exact_expectation.s", "s", ["lhv.exact_expectation"],
        lambda: index.seconds("lhv.exact_expectation"))
    put("lhv.build_model.s", "s", BUILD_MODEL, lambda: index.seconds(*BUILD_MODEL))
    put("lhv.sup_bound.s", "s", ["lhv.sup_bound"], lambda: index.seconds("lhv.sup_bound"))
    put("gaussian.state.s", "s", GAUSSIAN_STATE, lambda: index.seconds(*GAUSSIAN_STATE))
    put("cli.load_scenario.s", "s", ["cli.load_scenario"],
        lambda: index.seconds("cli.load_scenario"))
    put("cli.run_scenario.self_s", "s", ["cli.run_scenario"],
        lambda: index.self_seconds("cli.run_scenario"))
    return out

"""Spans around calls into maxpe's public functions, recorded from outside.

A Tracer replaces the module attribute each caller looks up with a wrapper
that records a span (name, start, end, parent, operation id), so the
package's own code stays untouched. Spans are kept in memory and written
out once, when the benchmark ends. Hot inner functions are not wrapped:
their work is read from counters before and after each operation.

This module imports nothing from maxpe and nothing heavy, because the CLI
shim imports it inside the timed child process.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from contextlib import contextmanager

# span name -> metric prefix of the layer it times
SPAN_LAYER = {
    "cli.start": "cli.start",
    "cli.exit": "cli.start",  # interpreter teardown counts with its start
    "cli.main": "cli",
    "statistics.statistic_bundle": "statistics",
    "null_dist.null_distribution": "null_dist",
    "inference.critical_value": "inference.critical_value",
    "inference.mc_power": "inference.mc",
    "lehmann.alternative_distribution": "lehmann",
    "lehmann.exact_power": "lehmann.exact_power",
}

MODULES = ("cli", "statistics", "null_dist", "combinatorics", "inference", "lehmann")


class Tracer:
    """In-memory span recorder; single-threaded, one open span stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def begin(self, name: str, start: float | None = None) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter() if start is None else start,
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
                "error": None,
                "info": None,
                "process": None,  # set on spans adopted from a child process
            }
        )
        self._stack.append(index)
        return index

    def end(self, index: int, error: str | None = None, info: dict | None = None,
            end: float | None = None) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter() if end is None else end
        span["error"] = error
        span["info"] = info
        if self._stack and self._stack[-1] == index:
            self._stack.pop()

    def adopt(self, spans: list[dict]) -> None:
        """Append finished spans recorded by another Tracer (a child process
        running the current operation) as children of the open span."""
        offset = len(self.spans)
        current = self._stack[-1] if self._stack else None
        for span in spans:
            span = dict(span, op=self.op, process=self.op)
            parent = span["parent"]
            span["parent"] = current if parent is None else parent + offset
            self.spans.append(span)

    def wrap(self, name: str, fn, describe=None):
        """Wrapper recording one span per call; `describe(bound, result)` adds info."""
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(index, error=type(exc).__name__)
                raise
            info = None
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info = describe(bound.arguments, result)
            self.end(index, info=info)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Patch (module, attribute, span name, describe) targets for a block."""
        saved = []
        try:
            for module, attribute, name, describe in targets:
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute, self.wrap(name, original, describe))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def describe_null(arguments: dict, result) -> dict:
    key = [arguments[k] for k in ("m", "n", "r", "s", "t_max")]
    return {"key": key, "entries": len(result.pmf_values)}


def describe_alternative(arguments: dict, result) -> dict:
    return {"condition": result.condition_estimate}


def describe_mc(arguments: dict, result) -> dict:
    reps = arguments["reps"]
    # V and Q also draw a calibration null of max(reps, 10^4) rows
    drawn = reps if arguments["statistic"] == "T" else reps + max(reps, 10**4)
    return {"reps": drawn}


def library_targets(maxpe_modules: dict) -> list[tuple]:
    """Attributes each caller looks up, keyed by the module that looks them up."""
    cli = maxpe_modules["cli"]
    inference = maxpe_modules["inference"]
    lehmann = maxpe_modules["lehmann"]
    return [
        (cli, "critical_value", "inference.critical_value", None),
        (cli, "null_distribution", "null_dist.null_distribution", describe_null),
        (cli, "statistic_bundle", "statistics.statistic_bundle", None),
        (inference, "null_distribution", "null_dist.null_distribution", describe_null),
        (inference, "critical_value", "inference.critical_value", None),
        (inference, "mc_power", "inference.mc_power", describe_mc),
        (lehmann, "alternative_distribution", "lehmann.alternative_distribution",
         describe_alternative),
    ]


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its child spans cover (children never overlap)."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            own[parent] -= span["end"] - span["start"]
    return own


def layer_metrics(spans: list[dict], counters: dict, ops: int, overhead_frac: float) -> dict:
    """Per-layer metrics of a traced run, per traced operation where a count.

    `counters` holds bcc_hits and bcc_misses summed over traced operations.
    """
    own = self_times(spans)
    per_op = max(ops, 1)
    time_by_layer: dict[str, float] = {}
    calls_by_layer: dict[str, int] = {}
    failed = dict.fromkeys(MODULES, 0)
    errored_children = {span["parent"] for span in spans if span["error"]}
    null_keys: set = set()
    null_calls = null_repeats = null_entries = 0
    mc_reps = 0
    condition_max = 0.0
    refused = 0
    for index, span in enumerate(spans):
        layer = SPAN_LAYER.get(span["name"])
        if layer is None:
            continue
        time_by_layer[layer] = time_by_layer.get(layer, 0.0) + own[index]
        calls_by_layer[layer] = calls_by_layer.get(layer, 0) + 1
        # a failure belongs to the innermost span that raised it
        if span["error"] and index not in errored_children:
            failed[span["name"].split(".")[0]] += 1
        info = span["info"] or {}
        if layer == "null_dist" and info:
            key = (span["process"], tuple(info["key"]))
            null_calls += 1
            null_repeats += key in null_keys
            null_keys.add(key)
            null_entries += info["entries"]
        elif layer == "inference.mc" and info:
            mc_reps += info["reps"]
        elif layer == "lehmann":
            if span["error"] == "BudgetExceededError":
                refused += 1
            if info:
                condition_max = max(condition_max, info["condition"])
    if not math.isfinite(condition_max):
        condition_max = sys.float_info.max  # JSON has no infinity
    hits, misses = counters["bcc_hits"], counters["bcc_misses"]
    mc_time = time_by_layer.get("inference.mc", 0.0)
    metrics = {
        "cli.start_s": (time_by_layer.get("cli.start", 0.0) / per_op, "s/op"),
        "cli.self_s": (time_by_layer.get("cli", 0.0) / per_op, "s/op"),
        "statistics.calls": (calls_by_layer.get("statistics", 0) / per_op, "1/op"),
        "statistics.self_s": (time_by_layer.get("statistics", 0.0) / per_op, "s/op"),
        "null_dist.calls": (null_calls / per_op, "1/op"),
        "null_dist.self_s": (time_by_layer.get("null_dist", 0.0) / per_op, "s/op"),
        "null_dist.entries": (null_entries / per_op, "1/op"),
        "null_dist.repeat_frac": (null_repeats / null_calls if null_calls else 0.0, "1"),
        "combinatorics.bcc_misses": (misses / per_op, "1/op"),
        "combinatorics.bcc_hit_frac": (hits / (hits + misses) if hits + misses else 0.0, "1"),
        "inference.critical_value.calls": (
            calls_by_layer.get("inference.critical_value", 0) / per_op, "1/op"),
        "inference.critical_value.self_s": (
            time_by_layer.get("inference.critical_value", 0.0) / per_op, "s/op"),
        "inference.mc.self_s": (mc_time / per_op, "s/op"),
        "inference.mc.reps": (mc_reps / per_op, "1/op"),
        "inference.mc.reps_per_s": (mc_reps / mc_time if mc_time > 0 else 0.0, "1/s"),
        "lehmann.calls": (calls_by_layer.get("lehmann", 0) / per_op, "1/op"),
        "lehmann.self_s": (time_by_layer.get("lehmann", 0.0) / per_op, "s/op"),
        "lehmann.exact_power.self_s": (
            time_by_layer.get("lehmann.exact_power", 0.0) / per_op, "s/op"),
        "lehmann.condition_max": (condition_max, "1"),
        "lehmann.refused": (refused / per_op, "1/op"),
    }
    for module in MODULES:
        metrics[f"{module}.failed"] = (failed[module] / per_op, "1/op")
    metrics["trace.overhead_frac"] = (overhead_frac, "1")
    return metrics


def attributed_fractions(spans: list[dict]) -> list[float]:
    """Per operation: share of the root span covered by layer spans."""
    own = self_times(spans)
    fractions = []
    for index, span in enumerate(spans):
        if span["parent"] is None:
            total = span["end"] - span["start"]
            fractions.append(1.0 - own[index] / total if total > 0 else 1.0)
    return fractions

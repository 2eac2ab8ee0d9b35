"""Traced mode: time each wwords module from outside.

The tracer replaces public functions and methods of the package with
wrappers that record a span (name, start, end, parent) and, for some, a few
counts taken from the arguments or the result.  A function is replaced
under every name it is bound to in a loaded ``wwords`` module, so that a
caller which imported it by name (``verify`` and ``discovery`` import
``enumerate_series``) also calls the wrapper.  Spans are held in memory and
written as JSON lines when the round ends; :func:`layer_metrics` derives the
per-layer metrics from them.

A span's self time is its duration minus the durations of its child spans.
Counting happens inside the span but in a child span named ``trace.count``,
so it is charged to no layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _terms(series) -> int:
    return sum(len(series.coefficient(n).terms) for n in range(series.qmax + 1))


def _coefficient_sum(series) -> int:
    return sum(sum(series.coefficient(n).terms.values())
               for n in range(series.qmax + 1))


#: (module, attribute, counts(result, args) or None); "Class.method" wraps
#: the method on the class
WRAPPED = (
    ("algebra", "TruncatedSeries.__mul__", lambda r, a: {"terms_out": _terms(r)}),
    ("algebra", "TruncatedSeries.specialize", lambda r, a: {"terms_in": _terms(a[0])}),
    ("algebra", "substitute", None),
    ("algebra", "product_expand", None),
    ("algebra", "euler_factorize", None),
    ("enumeration", "enumerate_series",
     lambda r, a: {"partitions": _coefficient_sum(r)}),
    ("enumeration", "count_partitions", lambda r, a: {"partitions": sum(r)}),
    ("enumeration", "list_partitions", lambda r, a: {"partitions": len(r)}),
    ("enumeration", "partition_weight", None),
    ("recurrence", "dp_series", None),
    ("recurrence", "RecurrenceState.__init__",
     lambda r, a: {"parts": len(a[0].parts())}),
    ("recurrence", "RecurrenceState.total_series", None),
    ("recurrence", "RecurrenceState.G", None),
    ("recurrence", "RecurrenceState.E", None),
    ("recurrence", "check_equation", None),
    ("systems", "build_preset", None),
    ("systems", "statistic_substitution", None),
    ("verify", "verify_identity", None),
    ("verify", "check_statistics", None),
    ("discovery", "search_relations",
     lambda r, a: {"candidates": len(r),
                   "product_like": sum(1 for c in r if c.product_like)}),
    ("discovery", "recognize_periodic_product", None),
)


class Tracer:
    """Installs the wrappers, collects spans, and removes the wrappers."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    c0 = clock()
                    span[4] = count(result, args)
                    spans.append(["trace.count", c0, clock(), idx, None])
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "wwords" or n.startswith("wwords.")]
        for modname, attr, count in WRAPPED:
            mod = sys.modules[f"wwords.{modname}"]
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, count))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, count)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    setattr(m, key, wrapper)
                    self._undo.append((m, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "counts": counts}) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[dict], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from one round's spans.  Rates divide a count by
    the self time of the layer that did the work."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = defaultdict(float)
    layer_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    for s, c in zip(spans, child):
        own = s["end"] - s["start"] - c
        self_s[s["name"]] += own
        layer_s[s["name"].split(".")[0]] += own
        calls[s["name"]] += 1
        for key, value in (s["counts"] or {}).items():
            counts[key] += value

    def ratio(a, b):
        return a / b if b else 0.0

    search_s = self_s["discovery.search_relations"]
    return {
        "enumeration.self_s": layer_s["enumeration"],
        "enumeration.partitions": counts["partitions"],
        "enumeration.partitions_per_s": ratio(counts["partitions"],
                                              layer_s["enumeration"]),
        "recurrence.build_s": (self_s["recurrence.dp_series"]
                               + self_s["recurrence.RecurrenceState.__init__"]
                               + self_s["recurrence.RecurrenceState.total_series"]),
        "recurrence.parts": counts["parts"],
        "recurrence.lookup_s": (self_s["recurrence.RecurrenceState.G"]
                                + self_s["recurrence.RecurrenceState.E"]),
        "recurrence.lookups": (calls["recurrence.RecurrenceState.G"]
                               + calls["recurrence.RecurrenceState.E"]),
        "recurrence.check_s": self_s["recurrence.check_equation"],
        "algebra.mul_s": self_s["algebra.TruncatedSeries.__mul__"],
        "algebra.mul_calls": calls["algebra.TruncatedSeries.__mul__"],
        "algebra.mul_terms_out": counts["terms_out"],
        "algebra.specialize_s": self_s["algebra.TruncatedSeries.specialize"],
        "algebra.specialize_terms_in": counts["terms_in"],
        "algebra.substitute_s": self_s["algebra.substitute"],
        "algebra.product_expand_s": self_s["algebra.product_expand"],
        "algebra.euler_factorize_s": self_s["algebra.euler_factorize"],
        "discovery.search_s": search_s,
        "discovery.candidates": counts["candidates"],
        "discovery.candidates_per_s": ratio(counts["candidates"], search_s),
        "discovery.product_like": ratio(counts["product_like"],
                                        counts["candidates"]),
        "discovery.recognize_s": self_s["discovery.recognize_periodic_product"],
        "verify.self_s": layer_s["verify"],
        "systems.self_s": layer_s["systems"],
        "trace.overhead_s": overhead_s,
    }

"""Span recorder for the traced benchmark run, attached from outside the package.

Each hooked cvboson function is replaced, in every cvboson module that holds
it, by a wrapper that records a span (name, start, end, parent span, op id)
and optional counters. The wrappers are removed again when the traced window
ends, so `src/` is never edited and untraced runs call the original code.
"""

import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_ryser(recorder, args, kwargs, result):
    n = np.shape(args[0])[0]
    recorder.count("permanent.ops", (2**n - 1) * n)


def _count_amplitude_inputs(recorder, args, kwargs, result):
    u = np.ascontiguousarray(_arg(args, kwargs, 0, "u"), dtype=complex)
    key = u.tobytes(), int(_arg(args, kwargs, 1, "photons"))
    recorder.distinct("distribution.amplitude_table.distinct", key)


def _count_csv_bytes(recorder, args, kwargs, result):
    recorder.count("io.write_csv.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_uniforms(recorder, args, kwargs, result):
    shots = _arg(args, kwargs, 1, "shots")
    per_shot = _arg(args, kwargs, 2, "per_shot")
    recorder.count("rng.uniforms", int(shots) * int(per_shot))


def _shots_counter(index):
    def count(recorder, args, kwargs, result):
        recorder.count("sampler.shots", int(_arg(args, kwargs, index, "shots")))

    return count


# (span name, defining module, attribute, caller modules, counter).
# Caller modules None means every loaded cvboson module that holds the
# function under that attribute name, so both the definition site and every
# `from .x import f` copy are wrapped. g_function is counted at the sampler's
# call site only: there its call count is the root finder's iteration count.
HOOKS = (
    ("io.read_unitary_json", "cvboson.io", "read_unitary_json", None, None),
    ("io.write_csv", "cvboson.io", "write_csv", None, _count_csv_bytes),
    ("distribution.amplitude_table", "cvboson.distribution", "amplitude_table", None,
     _count_amplitude_inputs),
    ("distribution.distribution_table", "cvboson.distribution", "distribution_table", None,
     None),
    ("distribution.prob_dprcv", "cvboson.distribution", "prob_dprcv", None, None),
    ("permanent.permanent_ryser", "cvboson.permanent", "permanent_ryser", None, _count_ryser),
    ("fock.fock_amplitude", "cvboson.fock", "fock_amplitude", None, None),
    ("estimate.deviation_sweep", "cvboson.estimate", "deviation_sweep", None, None),
    ("estimate.build_estimate_report", "cvboson.estimate", "build_estimate_report", None,
     None),
    ("sampler.sample_dprcv1", "cvboson.sampler", "sample_dprcv1", None, _shots_counter(3)),
    ("sampler.sample_prcv1", "cvboson.sampler", "sample_prcv1", None, _shots_counter(2)),
    ("sampler.sample_cv1", "cvboson.sampler", "sample_cv1", None, _shots_counter(2)),
    ("special.g_function", "cvboson.special", "g_function", ("cvboson.sampler",), None),
    ("rng.shot_uniforms", "cvboson.rng", "shot_uniforms", None, _count_uniforms),
)

ROOT_SPAN = "cli.main"


class Recorder:
    """In-memory spans and per-op counters for one traced window."""

    def __init__(self):
        self.names = []
        # (span id, name index, start, end, parent span id or -1, op id), appended as
        # spans end; tuples of numbers keep the garbage collector from scanning them
        self._ended = []
        self._name_index = {}
        self._stack = []
        self._next_id = 0
        self._op = -1
        self.counts = defaultdict(float)  # (op id, counter) -> total
        self.keys = defaultdict(set)  # (op id, counter) -> distinct keys
        self._installed = []

    def count(self, name, amount):
        self.counts[self._op, name] += amount

    def distinct(self, name, key):
        self.keys[self._op, name].add(key)

    def _span(self, name, fn, args, kwargs, counter=None):
        name_index = self._name_index.setdefault(name, len(self.names))
        if name_index == len(self.names):
            self.names.append(name)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._ended.append((span_id, name_index, start, end, parent, self._op))
        if counter is not None:
            counter(self, args, kwargs, result)
        return result

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) as op `op_id` under the root span."""
        self._op = op_id
        try:
            return self._span(ROOT_SPAN, fn, args, {})
        finally:
            self._op = -1

    def install(self):
        """Wrap every hooked function under each name its callers look it up by."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cvboson" or name.startswith("cvboson.")]
        for span_name, home, attr, callers, counter in HOOKS:
            try:
                original = getattr(importlib.import_module(home), attr)
            except (ImportError, AttributeError):
                continue  # layer no longer exists: its metrics read as bypassed
            wrapper = self._wrapper(span_name, original, counter)
            for module in modules:
                if callers is not None and module.__name__ not in callers:
                    continue
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrapper(self, name, fn, counter):
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs, counter)

        traced.__wrapped__ = fn
        return traced

    @property
    def spans(self):
        """[name index, start, end, parent span index or -1, op id], indexed by span id."""
        return [list(span[1:]) for span in sorted(self._ended)]

    def per_op(self):
        """{op id: {metric: value}} with .calls, .busy_s and .self_s per span name.

        Self time is a span's duration minus the part of it covered by its
        child spans; busy time counts only spans with no same-name ancestor,
        so a recursive call is not counted twice.
        """
        spans = self.spans
        children = defaultdict(list)
        for index, span in enumerate(spans):
            if span[3] >= 0:
                children[span[3]].append(index)
        out = defaultdict(lambda: defaultdict(float))
        for index, (name_index, start, end, parent, op) in enumerate(spans):
            name = self.names[name_index]
            covered = _union_length(
                [(spans[c][1], spans[c][2]) for c in children[index]], start, end
            )
            metrics = out[op]
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += (end - start) - covered
            if not _has_ancestor(spans, parent, name_index):
                metrics[f"{name}.busy_s"] += end - start
        for (op, name), value in self.counts.items():
            out[op][name] += value
        for (op, name), keys in self.keys.items():
            out[op][name] += len(keys)
        return out

    def write(self, path):
        """Write the spans as integer nanoseconds from the first span's start."""
        spans = self.spans
        origin = spans[0][1] if spans else 0.0
        rows = [
            [name, round((start - origin) * 1e9), round((end - origin) * 1e9), parent, op]
            for name, start, end, parent, op in spans
        ]
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": self.names, "spans": rows}, handle, separators=(",", ":"))


def _has_ancestor(spans, parent, name_index):
    while parent >= 0:
        if spans[parent][0] == name_index:
            return True
        parent = spans[parent][3]
    return False


def _union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total

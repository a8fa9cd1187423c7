"""The benchmark's span hooks must name functions that exist.

The traced benchmark skips a hook whose target is missing, so a renamed or
removed function would silently read as a zero per-layer metric. Its counters
read some arguments by position (or by name, when passed by keyword), so a
reordered or renamed parameter would silently miscount one.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_span_hook_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.HOOKS
    for span_name, home, attr, callers, _ in spans.HOOKS:
        assert callable(getattr(importlib.import_module(home), attr, None)), span_name
        for caller in callers or ():
            assert getattr(importlib.import_module(caller), attr, None) is not None, span_name


# (module, function) -> {position: parameter name} read by a counter in bench/spans.py
_COUNTED_ARGUMENTS = {
    ("cvboson.distribution", "amplitude_table"): {0: "u", 1: "photons"},
    ("cvboson.io", "write_csv"): {0: "path"},
    ("cvboson.rng", "shot_uniforms"): {1: "shots", 2: "per_shot"},
    ("cvboson.sampler", "sample_dprcv1"): {3: "shots"},
    ("cvboson.sampler", "sample_prcv1"): {2: "shots"},
    ("cvboson.sampler", "sample_cv1"): {2: "shots"},
    ("cvboson.permanent", "permanent_ryser"): {0: "a"},
}


@pytest.mark.parametrize("home,attr", sorted(_COUNTED_ARGUMENTS))
def test_counted_arguments_keep_their_positions(home, attr):
    params = list(inspect.signature(getattr(importlib.import_module(home), attr)).parameters)
    for index, name in _COUNTED_ARGUMENTS[home, attr].items():
        assert params[index] == name, (attr, index, params)

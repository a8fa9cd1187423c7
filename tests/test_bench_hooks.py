"""The benchmark's span hooks must name functions that exist.

The traced benchmark skips a hook whose target is missing, so a renamed or
removed function would silently read as a zero per-layer metric.
"""

import importlib
import importlib.util
from pathlib import Path

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

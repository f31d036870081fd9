"""The traced benchmark run wraps frsurf entry points by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, name, _note in spans.TARGETS:
        fn = getattr(importlib.import_module("frsurf." + module), name, None)
        assert callable(fn), f"frsurf.{module}.{name}"

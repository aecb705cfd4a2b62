"""The benchmark's per-layer span targets name functions that exist in the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_benchmark_span_target_resolves(monkeypatch):
    # the tracer reports a target it cannot find as absent and its metrics as 0,
    # so a renamed or deleted function would blank a per-layer metric silently;
    # spans.py is only read, and no bytecode is written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up there
    spec.loader.exec_module(spans)
    missing = []
    for target in spans.TARGETS:
        module_name, _, attr = target.name.partition(".")
        obj = getattr(importlib.import_module(f"nqkd.{module_name}"), attr, None)
        # a class target wraps the __init__ the class defines itself
        if obj is None or (isinstance(obj, type) and "__init__" not in vars(obj)):
            missing.append(target.name)
    assert spans.TARGETS and missing == []

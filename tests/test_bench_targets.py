"""The traced benchmark run can still find every method it wraps."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_trace_target_is_bound_on_its_owner():
    # the recorder replaces owner.__dict__[attr]; a method that moved to a
    # base class would no longer be found there
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for mod_name, cls_name, attr, _, _ in spans.TARGETS:
        module = importlib.import_module("nkoszul." + mod_name)
        owner = getattr(module, cls_name) if cls_name else module
        assert attr in vars(owner), (mod_name, cls_name, attr)
        assert callable(vars(owner)[attr])

"""The benchmark's tracer (`perfbench/trace.py`) wraps functions it names by
module and attribute.  Every name it lists must resolve, so that a rename
fails here instead of in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    missing = [(module, attr) for module, attr, *_ in trace.LAYERS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing
